//! LSTM encoder-decoder (sequence-to-sequence) for invocation time series.
//!
//! Mirrors the paper's Fig. 2: a stacked-LSTM **encoder** summarizes the
//! input window into a latent variable `Z` (its final top-layer hidden
//! state), bridge layers map the encoder's final states into the decoder's
//! initial states, and a stacked-LSTM **decoder** emits the next `k`
//! windows. After pre-training, the encoder serves as a feature-extraction
//! black box for the prediction network (see `aqua-forecast`).

use aqua_linalg::Matrix;
use aqua_sim::SimRng;

use crate::adam::Adam;
use crate::fastmath;
use crate::linear::Linear;
use crate::lstm::{BatchInput, Lstm};
use crate::{mse, Parameterized};

/// One training example: an input window and its target horizon, both as
/// step-major sequences of feature vectors.
pub type SeqPair = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Hyperparameters for [`EncoderDecoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Seq2SeqConfig {
    /// Width of each input step (1 for a univariate container-count series).
    pub input_dim: usize,
    /// Hidden widths of the stacked encoder layers (paper: two layers, 64).
    pub enc_hidden: Vec<usize>,
    /// Hidden widths of the stacked decoder layers (paper: two layers, 16).
    pub dec_hidden: Vec<usize>,
    /// Number of future windows the decoder reconstructs during training.
    pub horizon: usize,
    /// Variational dropout rate applied inside the encoder.
    pub dropout: f64,
}

impl Default for Seq2SeqConfig {
    /// Paper-scale defaults: 2×64 encoder, 2×16 decoder, 1-step-ahead
    /// emphasis with a 4-window reconstruction horizon, 10% dropout.
    fn default() -> Self {
        Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: vec![64, 64],
            dec_hidden: vec![16, 16],
            horizon: 4,
            dropout: 0.1,
        }
    }
}

/// The encoder-decoder network.
#[derive(Debug, Clone)]
pub struct EncoderDecoder {
    config: Seq2SeqConfig,
    encoder: Lstm,
    /// One `(h, c)` bridge pair per decoder layer, fed from the latent `Z`.
    bridges_h: Vec<Linear>,
    bridges_c: Vec<Linear>,
    decoder: Lstm,
    out: Linear,
}

impl EncoderDecoder {
    /// Builds the network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configured width is zero or `horizon == 0`.
    pub fn new(config: Seq2SeqConfig, rng: &mut SimRng) -> Self {
        assert!(config.horizon > 0, "horizon must be positive");
        let mut enc_dims = vec![config.input_dim];
        enc_dims.extend_from_slice(&config.enc_hidden);
        let encoder = Lstm::new(&enc_dims, config.dropout, rng);

        let z_dim = *config.enc_hidden.last().expect("encoder layers");
        let bridges_h = config
            .dec_hidden
            .iter()
            .map(|&h| Linear::new(z_dim, h, rng))
            .collect();
        let bridges_c = config
            .dec_hidden
            .iter()
            .map(|&h| Linear::new(z_dim, h, rng))
            .collect();

        let mut dec_dims = vec![config.input_dim];
        dec_dims.extend_from_slice(&config.dec_hidden);
        let decoder = Lstm::new(&dec_dims, 0.0, rng);
        let out = Linear::new(
            *config.dec_hidden.last().expect("decoder layers"),
            config.input_dim,
            rng,
        );

        EncoderDecoder {
            config,
            encoder,
            bridges_h,
            bridges_c,
            decoder,
            out,
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.config
    }

    /// Width of the latent variable `Z`.
    pub fn latent_dim(&self) -> usize {
        self.encoder.top_hidden()
    }

    /// Encodes an input window and returns the latent variable `Z` (the
    /// encoder's final top-layer hidden state).
    ///
    /// With `stochastic = true` the encoder's variational dropout stays
    /// active — one MC-dropout posterior sample per call.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any step has the wrong width.
    pub fn encode(&self, xs: &[Vec<f64>], stochastic: bool, rng: &mut SimRng) -> Vec<f64> {
        let cache =
            self.encoder
                .forward_seq_batch(1, BatchInput::Shared(xs), None, stochastic, false, rng);
        cache
            .final_h
            .last()
            .expect("encoder layers")
            .row(0)
            .to_vec()
    }

    /// Autoregressive multi-step forecast of the next `k` steps
    /// (deterministic: dropout disabled).
    pub fn predict(&self, xs: &[Vec<f64>], k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        self.rollout_batch(xs, k, 1, false, rng)
            .pop()
            .expect("one pass")
    }

    /// `passes` MC-dropout forecast samples of the next `k` steps as **one
    /// batch-`passes` rollout**: the stochastic passes share every weight
    /// and differ only in dropout masks, so they run as a single batched
    /// matrix product per step instead of `passes` sequential rollouts.
    ///
    /// Returns `[pass][step][feature]`. Pass `p` is bit-identical to the
    /// `p`-th of `passes` one-pass calls, and the RNG stream is consumed
    /// identically (masks are pre-drawn pass-major).
    ///
    /// # Panics
    ///
    /// Panics if `passes == 0` or `xs` is empty/mis-shaped.
    pub fn predict_mc(
        &self,
        xs: &[Vec<f64>],
        k: usize,
        passes: usize,
        rng: &mut SimRng,
    ) -> Vec<Vec<Vec<f64>>> {
        assert!(passes > 0, "need at least one MC pass");
        self.rollout_batch(xs, k, passes, true, rng)
    }

    /// Shared rollout: encode all lanes at once, bridge, then step the
    /// decoder through the horizon out of one arena.
    fn rollout_batch(
        &self,
        xs: &[Vec<f64>],
        k: usize,
        passes: usize,
        stochastic: bool,
        rng: &mut SimRng,
    ) -> Vec<Vec<Vec<f64>>> {
        let enc = self.encoder.forward_seq_batch(
            passes,
            BatchInput::Shared(xs),
            None,
            stochastic,
            false,
            rng,
        );
        let z = enc.final_h.last().expect("encoder layers");
        let bridge_all = |bridges: &[Linear]| -> Vec<Matrix> {
            bridges
                .iter()
                .map(|b| {
                    let mut m = b.forward_batch(z);
                    fastmath::tanh_mut(m.as_mut_slice());
                    m
                })
                .collect()
        };
        let mut h = bridge_all(&self.bridges_h);
        let mut c = bridge_all(&self.bridges_c);

        let mut arena = self.decoder.arena(passes);
        // The decoder consumes zeros at every horizon step: one row, shared
        // by every lane, serves the whole rollout.
        let zero = vec![0.0; self.config.input_dim];
        let mut preds = vec![Vec::with_capacity(k); passes];
        for _ in 0..k {
            self.decoder
                .step_batch(&zero, &mut h, &mut c, None, &mut arena, None);
            let y = self.out.forward_batch(h.last().expect("decoder layers"));
            for (b, lane) in preds.iter_mut().enumerate() {
                lane.push(y.row(b).to_vec());
            }
        }
        preds
    }

    /// Teacher-forced training step over one or more `(window, horizon)`
    /// pairs at once (mini-batch BPTT): accumulates gradients and returns
    /// the summed loss. Both, and the RNG state left behind, are
    /// bit-identical to one call per pair in order (masks are pre-drawn
    /// lane-major; every weight-gradient contraction runs example-major) —
    /// only the wall time differs.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, the windows have differing lengths, or
    /// any target horizon mismatches the configuration.
    pub fn accumulate_batch(&mut self, examples: &[&SeqPair], rng: &mut SimRng) -> f64 {
        let bsz = examples.len();
        assert!(bsz > 0, "empty batch");
        let steps = examples[0].0.len();
        for (xs, ys) in examples {
            assert_eq!(xs.len(), steps, "window length mismatch within batch");
            assert_eq!(ys.len(), self.config.horizon, "target horizon mismatch");
        }
        let in_dim = self.config.input_dim;
        let horizon = self.config.horizon;

        // --- forward ---
        let enc_xs: Vec<Matrix> = (0..steps)
            .map(|t| {
                let mut m = Matrix::zeros(bsz, in_dim);
                for (b, (xs, _)) in examples.iter().enumerate() {
                    m.row_mut(b).copy_from_slice(&xs[t]);
                }
                m
            })
            .collect();
        let enc_cache = self.encoder.forward_seq_batch(
            bsz,
            BatchInput::PerLane(&enc_xs),
            None,
            true,
            true,
            rng,
        );
        let z = enc_cache.final_h.last().expect("encoder layers").clone();

        // Bridge (record pre-tanh for backprop).
        let pre_h: Vec<Matrix> = self.bridges_h.iter().map(|b| b.forward_batch(&z)).collect();
        let pre_c: Vec<Matrix> = self.bridges_c.iter().map(|b| b.forward_batch(&z)).collect();
        let tanh_of = |m: &Matrix| {
            let mut t = m.clone();
            fastmath::tanh_mut(t.as_mut_slice());
            t
        };
        let h0: Vec<Matrix> = pre_h.iter().map(tanh_of).collect();
        let c0: Vec<Matrix> = pre_c.iter().map(tanh_of).collect();

        // Decoder inputs are zeros: every bit of information must flow
        // through the latent Z and the bridged states, otherwise teacher
        // forcing lets the decoder copy its inputs and Z learns nothing.
        let dec_inputs = vec![Matrix::zeros(bsz, in_dim); horizon];
        let dec_cache = self.decoder.forward_seq_batch(
            bsz,
            BatchInput::PerLane(&dec_inputs),
            Some((&h0, &c0)),
            false,
            true,
            rng,
        );

        // Output projection: flatten the decoder outputs lane-major and
        // t-ascending (row `b·T + t`) so the out layer's gradient
        // contraction visits (example, step) in the sequential order.
        let top = self.decoder.top_hidden();
        let mut out_in = Matrix::zeros(bsz * horizon, top);
        for b in 0..bsz {
            for (t, step_out) in dec_cache.outputs.iter().enumerate() {
                out_in
                    .row_mut(b * horizon + t)
                    .copy_from_slice(step_out.row(b));
            }
        }
        let preds = self.out.forward_batch(&out_in);
        let mut loss = 0.0;
        let mut d_preds = Matrix::zeros(bsz * horizon, in_dim);
        for (b, (_, ys)) in examples.iter().enumerate() {
            let mut ex_loss = 0.0;
            for (t, target) in ys.iter().enumerate() {
                let (l, d_pred) = mse(preds.row(b * horizon + t), target);
                ex_loss += l / horizon as f64;
                for (dst, g) in d_preds.row_mut(b * horizon + t).iter_mut().zip(&d_pred) {
                    *dst = g / horizon as f64;
                }
            }
            loss += ex_loss;
        }

        // --- backward ---
        let d_out_in = self.out.backward_batch(&out_in, &d_preds);
        let d_dec: Vec<Matrix> = (0..horizon)
            .map(|t| {
                let mut m = Matrix::zeros(bsz, top);
                for b in 0..bsz {
                    m.row_mut(b).copy_from_slice(d_out_in.row(b * horizon + t));
                }
                m
            })
            .collect();
        let dec_grads = self.decoder.backward_seq_batch(&dec_cache, &d_dec, None);

        // Through the tanh bridges into Z.
        let mut dz = Matrix::zeros(bsz, z.cols());
        let mut bridge_back = |bridges: &mut [Linear], d_init: &[Matrix], pre: &[Matrix]| {
            for (l, bridge) in bridges.iter_mut().enumerate() {
                let mut d_pre = d_init[l].clone();
                for (g, p) in d_pre.as_mut_slice().iter_mut().zip(pre[l].as_slice()) {
                    let t = fastmath::tanh(*p);
                    *g *= 1.0 - t * t;
                }
                let dzb = bridge.backward_batch(&z, &d_pre);
                for (a, b) in dz.as_mut_slice().iter_mut().zip(dzb.as_slice()) {
                    *a += b;
                }
            }
        };
        bridge_back(&mut self.bridges_h, &dec_grads.d_init_h, &pre_h);
        bridge_back(&mut self.bridges_c, &dec_grads.d_init_c, &pre_c);

        // Into the encoder: gradient lands on the final top-layer hidden.
        let num_enc = self.encoder.num_layers();
        let mut dh_final: Vec<Matrix> = (0..num_enc)
            .map(|l| Matrix::zeros(bsz, self.encoder.hidden_of(l)))
            .collect();
        let dc_final = dh_final.clone();
        dh_final[num_enc - 1] = dz;
        let zero_outputs = vec![Matrix::zeros(bsz, self.encoder.top_hidden()); steps];
        self.encoder
            .backward_seq_batch(&enc_cache, &zero_outputs, Some((&dh_final, &dc_final)));

        loss
    }

    /// Trains on a dataset of `(window, horizon)` pairs for the given number
    /// of epochs, returning the mean loss per epoch. Each epoch visits the
    /// examples in a fresh shuffle, one Adam step (clip 1.0) per chunk of up
    /// to `batch_size`; `batch_size` sets the optimizer trajectory, so it
    /// is part of the model, not a speed setting. Windows within a chunk
    /// must share a length.
    pub fn train_batched(
        &mut self,
        dataset: &[SeqPair],
        epochs: usize,
        lr: f64,
        batch_size: usize,
        rng: &mut SimRng,
    ) -> Vec<f64> {
        assert!(!dataset.is_empty(), "empty training set");
        assert!(batch_size > 0, "batch size must be positive");
        let mut adam = Adam::new(lr).with_clip(1.0);
        let mut history = Vec::with_capacity(epochs);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(batch_size) {
                self.zero_grad();
                let refs: Vec<&SeqPair> = chunk.iter().map(|&i| &dataset[i]).collect();
                epoch_loss += self.accumulate_batch(&refs, rng);
                adam.step(self);
            }
            history.push(epoch_loss / dataset.len() as f64);
        }
        history
    }
}

impl Parameterized for EncoderDecoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.encoder.visit_params(f);
        for b in &mut self.bridges_h {
            b.visit_params(f);
        }
        for b in &mut self.bridges_c {
            b.visit_params(f);
        }
        self.decoder.visit_params(f);
        self.out.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: vec![8, 8],
            dec_hidden: vec![6],
            horizon: 2,
            dropout: 0.0,
        }
    }

    fn sine_dataset(n: usize, window: usize, horizon: usize) -> Vec<SeqPair> {
        let series: Vec<f64> = (0..n + window + horizon)
            .map(|i| (i as f64 * 0.4).sin() * 0.5)
            .collect();
        (0..n)
            .map(|s| {
                let xs = series[s..s + window].iter().map(|v| vec![*v]).collect();
                let ys = series[s + window..s + window + horizon]
                    .iter()
                    .map(|v| vec![*v])
                    .collect();
                (xs, ys)
            })
            .collect()
    }

    /// One example per Adam step and several: the training tests hold at both.
    const BATCHES: [usize; 2] = [1, 4];

    #[test]
    fn training_reduces_loss() {
        for batch in BATCHES {
            let mut rng = SimRng::seed(1);
            let mut model = EncoderDecoder::new(tiny_config(), &mut rng);
            let data = sine_dataset(40, 8, 2);
            let history = model.train_batched(&data, 15 * batch, 5e-3, batch, &mut rng);
            let first = history.first().unwrap();
            let last = history.last().unwrap();
            assert!(
                last < &(first * 0.5),
                "batch {batch}: loss should at least halve: {first} -> {last}"
            );
        }
    }

    #[test]
    fn predict_learns_sine_direction() {
        for batch in BATCHES {
            let mut rng = SimRng::seed(2);
            let mut model = EncoderDecoder::new(tiny_config(), &mut rng);
            let data = sine_dataset(60, 8, 2);
            model.train_batched(&data, 30 * batch, 5e-3, batch, &mut rng);
            // Evaluate one-step-ahead on held-out windows.
            let test = sine_dataset(80, 8, 2);
            let mut err = 0.0;
            for (xs, ys) in &test[60..80] {
                let pred = model.predict(xs, 1, &mut rng);
                err += (pred[0][0] - ys[0][0]).abs();
            }
            err /= 20.0;
            assert!(
                err < 0.15,
                "batch {batch}: mean 1-step error too high: {err}"
            );
        }
    }

    #[test]
    fn latent_has_configured_width() {
        let mut rng = SimRng::seed(3);
        let model = EncoderDecoder::new(tiny_config(), &mut rng);
        assert_eq!(model.latent_dim(), 8);
        let z = model.encode(&[vec![0.1], vec![0.2]], false, &mut rng);
        assert_eq!(z.len(), 8);
    }

    #[test]
    fn stochastic_encoding_varies_with_dropout() {
        let mut rng = SimRng::seed(4);
        let mut cfg = tiny_config();
        cfg.dropout = 0.4;
        let model = EncoderDecoder::new(cfg, &mut rng);
        let xs = vec![vec![0.5]; 6];
        let a = model.encode(&xs, true, &mut rng);
        let b = model.encode(&xs, true, &mut rng);
        assert_ne!(a, b);
        // Deterministic mode is stable.
        let c = model.encode(&xs, false, &mut rng);
        let d = model.encode(&xs, false, &mut rng);
        assert_eq!(c, d);
    }

    #[test]
    fn gradient_check_through_whole_network() {
        let mut rng = SimRng::seed(5);
        let mut model = EncoderDecoder::new(
            Seq2SeqConfig {
                input_dim: 1,
                enc_hidden: vec![4],
                dec_hidden: vec![3],
                horizon: 2,
                dropout: 0.0,
            },
            &mut rng,
        );
        let pairs: Vec<SeqPair> = (0..3)
            .map(|b| {
                let at = |t: usize| vec![((4 * b + t) as f64 * 1.3).sin() * 0.8];
                ((0..3).map(at).collect(), (3..5).map(at).collect())
            })
            .collect();
        for batch in [1, 3] {
            let examples: Vec<&SeqPair> = pairs[..batch].iter().collect();
            model.zero_grad();
            model.accumulate_batch(&examples, &mut rng);
            // Dropout is 0, so the training forward pass is deterministic:
            // the loss of a perturbed copy is a plain function of the weights.
            let loss_of =
                |m: &EncoderDecoder| m.clone().accumulate_batch(&examples, &mut SimRng::seed(0));
            crate::assert_grads_match_finite_differences(&mut model, loss_of, 3, (1e-5, 1e-4));
        }
    }
}
