//! Multi-layer perceptron with tanh activations and MC dropout, matching the
//! paper's prediction network (three fully connected layers, tanh, regular
//! dropout on the hidden layers).

use aqua_linalg::Matrix;
use aqua_sim::SimRng;

use crate::dropout::Dropout;
use crate::fastmath;
use crate::linear::Linear;
use crate::Parameterized;

/// An MLP: `Linear → tanh → dropout` per hidden layer, then a final Linear.
///
/// # Examples
///
/// ```
/// use aqua_nn::Mlp;
/// use aqua_sim::SimRng;
///
/// let mut rng = SimRng::seed(1);
/// let mlp = Mlp::new(4, &[16, 16], 1, 0.1, &mut rng);
/// let y = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: Dropout,
}

impl Mlp {
    /// Builds an MLP with the given hidden widths.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        dropout: f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = in_dim;
        for &h in hidden {
            layers.push(Linear::new(prev, h, rng));
            prev = h;
        }
        layers.push(Linear::new(prev, out_dim, rng));
        Mlp {
            layers,
            dropout: Dropout::new(dropout),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Deterministic forward pass (dropout disabled).
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            cur = layer.forward(&cur);
            if l < last {
                fastmath::tanh_mut(&mut cur);
            }
        }
        cur
    }

    /// Stochastic forward pass with dropout active over `B` input rows,
    /// recording everything the backward pass needs — a training
    /// mini-batch, or `B` MC-dropout samples in one call.
    ///
    /// All masks are pre-drawn **pass-major** — lane `b`'s masks for every
    /// hidden layer are drawn before lane `b+1` touches the RNG — which is
    /// exactly the order `B` one-row calls consume the stream. Row `b` of
    /// the output (and every recorded activation) is therefore
    /// bit-identical to the `b`-th one-row call.
    pub fn forward_train_batch(&self, x: &Matrix, rng: &mut SimRng) -> MlpBatchCache {
        let bsz = x.rows();
        let last = self.layers.len() - 1;
        let mut masks: Vec<Matrix> = self.layers[..last]
            .iter()
            .map(|l| Matrix::zeros(bsz, l.out_dim()))
            .collect();
        for b in 0..bsz {
            for m in &mut masks {
                self.dropout.sample_mask_into(m.row_mut(b), rng);
            }
        }

        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_act = Vec::with_capacity(last);
        let mut cur = x.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let next = layer.forward_batch(&cur);
            inputs.push(std::mem::replace(&mut cur, next));
            if l < last {
                pre_act.push(cur.clone());
                fastmath::tanh_mut(cur.as_mut_slice());
                for (v, m) in cur.as_mut_slice().iter_mut().zip(masks[l].as_slice()) {
                    *v *= m;
                }
            }
        }
        MlpBatchCache {
            inputs,
            pre_act,
            masks,
            output: cur,
        }
    }

    /// Backward pass for a recorded [`Mlp::forward_train_batch`].
    /// Accumulates parameter gradients (batch-row order, matching `B`
    /// one-row calls bit for bit) and returns `dL/dX`.
    ///
    /// # Panics
    ///
    /// Panics if `d_out`'s shape disagrees with the recorded output.
    pub fn backward_batch(&mut self, cache: &MlpBatchCache, d_out: &Matrix) -> Matrix {
        assert_eq!(d_out.rows(), cache.output.rows(), "batch size mismatch");
        assert_eq!(d_out.cols(), cache.output.cols(), "output width mismatch");
        let last = self.layers.len() - 1;
        let mut grad = d_out.clone();
        for l in (0..self.layers.len()).rev() {
            if l < last {
                for (gv, m) in grad
                    .as_mut_slice()
                    .iter_mut()
                    .zip(cache.masks[l].as_slice())
                {
                    *gv *= m;
                }
                for (gv, z) in grad
                    .as_mut_slice()
                    .iter_mut()
                    .zip(cache.pre_act[l].as_slice())
                {
                    let t = fastmath::tanh(*z);
                    *gv *= 1.0 - t * t;
                }
            }
            grad = self.layers[l].backward_batch(&cache.inputs[l], &grad);
        }
        grad
    }
}

/// Forward-pass record needed for backprop (inputs and masks per layer).
#[derive(Debug, Clone)]
pub struct MlpBatchCache {
    /// Input to each Linear layer (`B×in` each).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each hidden Linear.
    pre_act: Vec<Matrix>,
    /// Dropout mask per hidden layer (`B×h`, one row per MC pass).
    masks: Vec<Matrix>,
    /// Final network output, one row per batch lane.
    pub output: Matrix,
}

impl Parameterized for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mse;

    #[test]
    fn forward_shapes() {
        let mut rng = SimRng::seed(1);
        let mlp = Mlp::new(3, &[5, 4], 2, 0.0, &mut rng);
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.forward(&[0.0; 3]).len(), 2);
    }

    /// One row and several: the tests below hold at both.
    const BATCHES: [usize; 2] = [1, 3];

    fn rows(batch: usize) -> Matrix {
        Matrix::from_fn(batch, 2, |b, j| 0.3 - 1.1 * j as f64 + 0.25 * b as f64)
    }

    #[test]
    fn train_forward_without_dropout_matches_deterministic() {
        let mut rng = SimRng::seed(2);
        let mlp = Mlp::new(2, &[4], 1, 0.0, &mut rng);
        for batch in BATCHES {
            let x = rows(batch);
            let sto = mlp.forward_train_batch(&x, &mut rng);
            for b in 0..batch {
                let det = mlp.forward(x.row(b));
                assert!((det[0] - sto.output[(b, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gradient_check() {
        for batch in BATCHES {
            let mut rng = SimRng::seed(3);
            let mut mlp = Mlp::new(2, &[4, 3], 1, 0.0, &mut rng);
            let x = rows(batch);
            let target = |b: usize| [0.7 - 0.4 * b as f64];
            // Summed per-row MSE through the deterministic path.
            let loss_of = |m: &Mlp| -> f64 {
                (0..batch)
                    .map(|b| mse(&m.forward(x.row(b)), &target(b)).0)
                    .sum()
            };

            mlp.zero_grad();
            let cache = mlp.forward_train_batch(&x, &mut rng);
            let mut d_out = Matrix::zeros(batch, 1);
            for b in 0..batch {
                d_out[(b, 0)] = mse(cache.output.row(b), &target(b)).1[0];
            }
            mlp.backward_batch(&cache, &d_out);

            crate::assert_grads_match_finite_differences(
                &mut mlp,
                loss_of,
                usize::MAX,
                (1e-6, 1e-5),
            );
        }
    }

    #[test]
    fn mc_dropout_produces_variance() {
        let mut rng = SimRng::seed(4);
        let mlp = Mlp::new(1, &[32, 32], 1, 0.3, &mut rng);
        let one = Matrix::from_fn(1, 1, |_, _| 1.0);
        // Fifty one-row passes, then one fifty-row pass.
        let singly: Vec<f64> = (0..50)
            .map(|_| mlp.forward_train_batch(&one, &mut rng).output[(0, 0)])
            .collect();
        let fifty = Matrix::from_fn(50, 1, |_, _| 1.0);
        let at_once = mlp.forward_train_batch(&fifty, &mut rng).output;
        for outs in [singly.as_slice(), at_once.as_slice()] {
            let mean = outs.iter().sum::<f64>() / outs.len() as f64;
            let var = outs.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / outs.len() as f64;
            assert!(
                var > 0.0,
                "MC dropout must produce nonzero predictive variance"
            );
        }
    }
}
