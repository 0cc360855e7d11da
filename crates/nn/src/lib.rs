//! From-scratch neural networks for AQUATOPE's hybrid Bayesian model.
//!
//! The paper's dynamic pre-warmed container pool is driven by a *hybrid
//! Bayesian neural network*: an LSTM encoder-decoder that learns a latent
//! representation of the invocation time series, and an MLP prediction
//! network that maps the latent variable plus external features to the next
//! window's container count. Bayesian behaviour comes from Monte-Carlo
//! dropout (Gal & Ghahramani): dropout stays active at inference and `T`
//! stochastic forward passes yield a predictive mean and variance.
//!
//! This crate provides the building blocks — [`Linear`], [`Dropout`],
//! [`Lstm`], [`EncoderDecoder`], [`Mlp`], and the [`Adam`] optimizer — with
//! exact manual backpropagation (including BPTT through the LSTM stack and
//! variational dropout on the recurrent state).
//!
//! # Examples
//!
//! ```
//! use aqua_linalg::Matrix;
//! use aqua_nn::{Adam, Mlp, Parameterized};
//! use aqua_sim::SimRng;
//!
//! let mut rng = SimRng::seed(1);
//! let mut mlp = Mlp::new(2, &[8, 8], 1, 0.0, &mut rng);
//! let mut adam = Adam::new(1e-2);
//! // Learn y = x0 + x1 on a few points, one row each of a single batch.
//! let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let y = [0.0, 1.0, 1.0, 2.0];
//! for _ in 0..200 {
//!     mlp.zero_grad();
//!     let out = mlp.forward_train_batch(&x, &mut rng);
//!     let grad = Matrix::from_fn(4, 1, |r, _| 2.0 * (out.output[(r, 0)] - y[r]));
//!     mlp.backward_batch(&out, &grad);
//!     adam.step(&mut mlp);
//! }
//! let pred = mlp.forward(&[1.0, 1.0]);
//! assert!((pred[0] - 2.0).abs() < 0.2);
//! ```

pub mod adam;
pub mod dropout;
pub mod fastmath;
pub mod linear;
pub mod lstm;
pub mod mlp;
pub mod seq2seq;

pub use adam::Adam;
pub use dropout::Dropout;
pub use linear::Linear;
pub use lstm::{
    BatchInput, BatchLayerStates, BatchSeqCache, BatchSeqGrads, InferResult, LayerStates, Lstm,
};
pub use mlp::{Mlp, MlpBatchCache};
pub use seq2seq::{EncoderDecoder, Seq2SeqConfig, SeqPair};

/// Types whose trainable parameters can be visited as `(weights, grads)`
/// flat blocks, in a deterministic order, by an optimizer.
pub trait Parameterized {
    /// Calls `f` once per parameter block with `(weights, grads)`.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 0.0));
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |w, _| n += w.len());
        n
    }

    /// Flattens every parameter block into one vector, in visit order —
    /// the serialization format for trained models (pair with
    /// [`Parameterized::import_weights`] on an identically-shaped model).
    fn export_weights(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.visit_params(&mut |w, _| out.extend_from_slice(w));
        out
    }

    /// Restores parameters previously captured with
    /// [`Parameterized::export_weights`].
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` does not match this model's parameter
    /// count (the model shapes differ).
    fn import_weights(&mut self, weights: &[f64]) {
        let mut offset = 0;
        self.visit_params(&mut |w, _| {
            assert!(
                offset + w.len() <= weights.len(),
                "weight vector too short for this model"
            );
            w.copy_from_slice(&weights[offset..offset + w.len()]);
            offset += w.len();
        });
        assert_eq!(
            offset,
            weights.len(),
            "weight vector longer than this model"
        );
    }
}

/// Mean-squared-error loss and its gradient w.r.t. the prediction.
///
/// Returns `(loss, dL/dpred)` with `loss = mean((pred - target)^2)`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mse(pred: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; pred.len()];
    let loss = mse_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse`] writing the gradient into `grad` and returning the loss.
///
/// # Panics
///
/// Panics if the three slices differ in length or are empty.
pub fn mse_into(pred: &[f64], target: &[f64], grad: &mut [f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "length mismatch");
    assert_eq!(pred.len(), grad.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty loss input");
    let n = pred.len() as f64;
    let mut loss = 0.0;
    for i in 0..pred.len() {
        let d = pred[i] - target[i];
        loss += d * d;
        grad[i] = 2.0 * d / n;
    }
    loss / n
}

/// Checks the gradients `model` has accumulated against central finite
/// differences of `loss`, on about `per_block` evenly spaced weights of
/// every parameter block (`usize::MAX` = all of them).
#[cfg(test)]
pub(crate) fn assert_grads_match_finite_differences<M: Parameterized>(
    model: &mut M,
    loss: impl Fn(&M) -> f64,
    per_block: usize,
    (eps, tol): (f64, f64),
) {
    let mut analytic = Vec::new();
    model.visit_params(&mut |_, g| analytic.push(g.to_vec()));
    let nudged = |model: &mut M, block: usize, k: usize, delta: f64| {
        let mut b = 0;
        model.visit_params(&mut |w, _| {
            if b == block {
                w[k] += delta;
            }
            b += 1;
        });
        loss(model)
    };
    for (block, grads) in analytic.iter().enumerate() {
        for k in (0..grads.len()).step_by((grads.len() / per_block).max(1)) {
            let lp = nudged(model, block, k, eps);
            let lm = nudged(model, block, k, -2.0 * eps);
            nudged(model, block, k, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[k]).abs() < tol,
                "block {block} param {k}: numeric {numeric} analytic {}",
                grads[k]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        use fastmath::sigmoid;
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        for x in [-20.0, -1.0, 0.3, 5.0, 50.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mse_zero_for_exact() {
        let (loss, grad) = mse(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(loss, 0.0);
        assert!(grad.iter().all(|g| *g == 0.0));
    }

    #[test]
    fn weight_export_import_roundtrip() {
        use crate::{Mlp, Parameterized};
        use aqua_sim::SimRng;
        let mut rng = SimRng::seed(9);
        let mut a = Mlp::new(3, &[8, 4], 2, 0.0, &mut rng);
        let mut b = Mlp::new(3, &[8, 4], 2, 0.0, &mut rng);
        let x = [0.2, -0.4, 0.9];
        assert_ne!(
            a.forward(&x),
            b.forward(&x),
            "different inits should differ"
        );
        let w = a.export_weights();
        assert_eq!(w.len(), a.param_count());
        b.import_weights(&w);
        assert_eq!(a.forward(&x), b.forward(&x), "weights transferred exactly");
    }

    #[test]
    #[should_panic(expected = "longer than this model")]
    fn import_rejects_wrong_size() {
        use crate::{Linear, Parameterized};
        use aqua_sim::SimRng;
        let mut rng = SimRng::seed(10);
        let mut layer = Linear::new(2, 2, &mut rng);
        let mut w = layer.export_weights();
        w.push(0.0);
        layer.import_weights(&w);
    }

    #[test]
    fn seq2seq_weights_roundtrip_preserves_predictions() {
        use crate::{EncoderDecoder, Parameterized, Seq2SeqConfig};
        use aqua_sim::SimRng;
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: vec![6],
            dec_hidden: vec![4],
            horizon: 2,
            dropout: 0.0,
        };
        let mut rng = SimRng::seed(11);
        let mut a = EncoderDecoder::new(cfg.clone(), &mut rng);
        let mut b = EncoderDecoder::new(cfg, &mut rng);
        let xs = vec![vec![0.1], vec![0.5], vec![-0.2]];
        let w = a.export_weights();
        b.import_weights(&w);
        let pa = a.predict(&xs, 2, &mut rng.clone());
        let pb = b.predict(&xs, 2, &mut rng.clone());
        assert_eq!(pa, pb);
    }

    #[test]
    fn mse_gradient_direction() {
        let (loss, grad) = mse(&[2.0], &[1.0]);
        assert!((loss - 1.0).abs() < 1e-12);
        assert!((grad[0] - 2.0).abs() < 1e-12);
    }
}
