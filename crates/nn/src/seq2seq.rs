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
use crate::lstm::{grown, Lstm, LstmBptt, LstmTape};
use crate::{mse_into, Parameterized};

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

/// Every buffer one teacher-forced training step touches: the two
/// networks' tapes and BPTT scratch, the bridge and output-layer
/// activations, and the packed-weight scratch of the dense layers.
/// [`EncoderDecoder::train_batched`] keeps one for all its steps; buffers
/// grow to the largest chunk seen and every step writes what it reads, so
/// a reused workspace and a fresh one give the same bits.
#[derive(Debug, Default)]
struct TrainWorkspace {
    enc: LstmTape,
    enc_bptt: LstmBptt,
    dec: LstmTape,
    dec_bptt: LstmBptt,
    /// Encoder input of the current step gathered lane-major, `B×I`.
    x_step: Vec<f64>,
    /// Packed transposed weights of whichever dense layer runs next.
    wt: Vec<f64>,
    /// Pre-tanh bridge outputs per decoder layer, `B×H` each.
    pre_h: Vec<Vec<f64>>,
    pre_c: Vec<Vec<f64>>,
    /// Decoder outputs flattened lane-major, t-ascending (row `b·T + t`),
    /// the out layer's predictions for them, and the two gradients.
    out_in: Vec<f64>,
    preds: Vec<f64>,
    d_preds: Vec<f64>,
    d_out_in: Vec<f64>,
    /// What one bridge sends back to `Z`, and the running gradient w.r.t.
    /// `Z`.
    dz_part: Vec<f64>,
    dz: Vec<f64>,
}

impl TrainWorkspace {
    /// Overwrites every buffer with NaN (see `LstmTape::poison`).
    #[cfg(test)]
    fn poison(&mut self) {
        let TrainWorkspace {
            enc,
            enc_bptt,
            dec,
            dec_bptt,
            x_step,
            wt,
            pre_h,
            pre_c,
            out_in,
            preds,
            d_preds,
            d_out_in,
            dz_part,
            dz,
        } = self;
        enc.poison();
        dec.poison();
        enc_bptt.poison();
        dec_bptt.poison();
        let flat = [x_step, wt, out_in, preds, d_preds, d_out_in, dz_part, dz];
        for buf in pre_h.iter_mut().chain(pre_c).chain(flat) {
            buf.fill(f64::NAN);
        }
    }
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
        let steps = xs.iter().map(Vec::as_slice);
        let tape = self.run_encoder(1, steps, stochastic.then_some(rng));
        tape.last_output().to_vec()
    }

    /// Unrecorded encoder rollout over `batch` lanes — the one rollout
    /// under [`EncoderDecoder::encode`], [`EncoderDecoder::encode_batch`]
    /// and the forecasts. Each step is `batch×input_dim` row-major or one
    /// row shared by every lane; `train` draws the lanes' dropout masks.
    /// The latents are the tape's `last_output`.
    fn run_encoder<'a>(
        &self,
        batch: usize,
        steps: impl ExactSizeIterator<Item = &'a [f64]>,
        train: Option<&mut SimRng>,
    ) -> LstmTape {
        let mut tape = LstmTape::default();
        self.encoder
            .begin(&mut tape, batch, steps.len(), false, train);
        for x in steps {
            self.encoder.step(&mut tape, x);
        }
        tape
    }

    /// Deterministic latents (dropout off) of `B` equally long windows in
    /// one rollout: `xs` is step-major, one `B×input_dim` matrix per step,
    /// and row `b` of the `B×latent` result is bit-identical to
    /// [`EncoderDecoder::encode`]`(window b, false, ..)` — the engine is
    /// batch-size invariant.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or the steps disagree in shape.
    pub fn encode_batch(&self, xs: &[Matrix]) -> Matrix {
        let batch = xs.first().expect("empty sequence").rows();
        let tape = self.run_encoder(batch, xs.iter().map(Matrix::as_slice), None);
        Matrix::from_vec(batch, self.latent_dim(), tape.last_output().to_vec())
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
    /// decoder through the horizon on one tape.
    fn rollout_batch(
        &self,
        xs: &[Vec<f64>],
        k: usize,
        passes: usize,
        stochastic: bool,
        rng: &mut SimRng,
    ) -> Vec<Vec<Vec<f64>>> {
        let steps = xs.iter().map(Vec::as_slice);
        let enc = self.run_encoder(passes, steps, stochastic.then_some(rng));
        let mut preds = vec![Vec::with_capacity(k); passes];
        if k == 0 {
            return preds;
        }
        let z = enc.last_output();
        let mut dec = LstmTape::default();
        self.decoder.begin(&mut dec, passes, k, false, None);
        let mut wt = Vec::new();
        for (l, (bh, bc)) in self.bridges_h.iter().zip(&self.bridges_c).enumerate() {
            let (h0, c0) = dec.init_mut(l);
            for (bridge, state) in [(bh, h0), (bc, c0)] {
                bridge.forward_rows(passes, z, &mut wt, state);
                fastmath::tanh_mut(state);
            }
        }

        // The decoder consumes zeros at every horizon step: one row, shared
        // by every lane, serves the whole rollout.
        let in_dim = self.config.input_dim;
        let zero = vec![0.0; in_dim];
        let mut y = vec![0.0; passes * in_dim];
        for _ in 0..k {
            self.decoder.step(&mut dec, &zero);
            self.out
                .forward_rows(passes, dec.last_output(), &mut wt, &mut y);
            for (lane, row) in preds.iter_mut().zip(y.chunks_exact(in_dim)) {
                lane.push(row.to_vec());
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
        self.accumulate_in(&mut TrainWorkspace::default(), examples, rng)
    }

    /// [`EncoderDecoder::accumulate_batch`] on the caller's workspace.
    fn accumulate_in(
        &mut self,
        ws: &mut TrainWorkspace,
        examples: &[&SeqPair],
        rng: &mut SimRng,
    ) -> f64 {
        let bsz = examples.len();
        assert!(bsz > 0, "empty batch");
        let steps = examples[0].0.len();
        for (xs, ys) in examples {
            assert_eq!(xs.len(), steps, "window length mismatch within batch");
            assert_eq!(ys.len(), self.config.horizon, "target horizon mismatch");
        }
        let in_dim = self.config.input_dim;
        let horizon = self.config.horizon;
        let dec_layers = self.decoder.num_layers();

        // --- forward ---
        self.encoder
            .begin(&mut ws.enc, bsz, steps, true, Some(&mut *rng));
        for t in 0..steps {
            let x = grown(&mut ws.x_step, bsz * in_dim);
            for (row, (xs, _)) in x.chunks_exact_mut(in_dim).zip(examples) {
                row.copy_from_slice(&xs[t]);
            }
            self.encoder.step(&mut ws.enc, x);
        }
        let z = ws.enc.last_output();

        // Bridge (record pre-tanh for backprop) into the decoder's initial
        // states.
        self.decoder.begin(&mut ws.dec, bsz, horizon, true, None);
        ws.pre_h.resize_with(dec_layers, Vec::new);
        ws.pre_c.resize_with(dec_layers, Vec::new);
        for l in 0..dec_layers {
            let (h0, c0) = ws.dec.init_mut(l);
            for (bridge, pre, state) in [
                (&self.bridges_h[l], &mut ws.pre_h[l], h0),
                (&self.bridges_c[l], &mut ws.pre_c[l], c0),
            ] {
                let pre = grown(pre, state.len());
                bridge.forward_rows(bsz, z, &mut ws.wt, pre);
                state.copy_from_slice(pre);
                fastmath::tanh_mut(state);
            }
        }

        // Decoder inputs are zeros: every bit of information must flow
        // through the latent Z and the bridged states, otherwise teacher
        // forcing lets the decoder copy its inputs and Z learns nothing.
        let zero_in = grown(&mut ws.x_step, bsz * in_dim);
        zero_in.fill(0.0);
        for _ in 0..horizon {
            self.decoder.step(&mut ws.dec, zero_in);
        }

        // Output projection: flatten the decoder outputs lane-major and
        // t-ascending (row `b·T + t`) so the out layer's gradient
        // contraction visits (example, step) in the sequential order.
        let top = self.decoder.top_hidden();
        let dec_top = dec_layers - 1;
        let rows = bsz * horizon;
        let out_in = grown(&mut ws.out_in, rows * top);
        for t in 0..horizon {
            let step_out = ws.dec.h(dec_top, t + 1);
            for b in 0..bsz {
                out_in[(b * horizon + t) * top..][..top]
                    .copy_from_slice(&step_out[b * top..(b + 1) * top]);
            }
        }
        let preds = grown(&mut ws.preds, rows * in_dim);
        self.out.forward_rows(rows, out_in, &mut ws.wt, preds);
        let mut loss = 0.0;
        let d_preds = grown(&mut ws.d_preds, rows * in_dim);
        for (b, (_, ys)) in examples.iter().enumerate() {
            let mut ex_loss = 0.0;
            for (t, target) in ys.iter().enumerate() {
                let at = (b * horizon + t) * in_dim..(b * horizon + t + 1) * in_dim;
                let d_pred = &mut d_preds[at.clone()];
                ex_loss += mse_into(&preds[at], target, d_pred) / horizon as f64;
                for g in d_pred {
                    *g /= horizon as f64;
                }
            }
            loss += ex_loss;
        }

        // --- backward ---
        let d_out_in = grown(&mut ws.d_out_in, rows * top);
        self.out.backward_rows(rows, out_in, d_preds, d_out_in);
        self.decoder.begin_backward(&mut ws.dec_bptt, &ws.dec);
        for t in 0..horizon {
            let d_dec = &mut ws.dec_bptt.d_outputs[t * bsz * top..][..bsz * top];
            for b in 0..bsz {
                d_dec[b * top..(b + 1) * top]
                    .copy_from_slice(&d_out_in[(b * horizon + t) * top..][..top]);
            }
        }
        self.decoder.backward(&ws.dec, &mut ws.dec_bptt, false);

        // Through the tanh bridges into Z.
        let dz = grown(&mut ws.dz, z.len());
        dz.fill(0.0);
        for (bridges, d_init, pre) in [
            (&mut self.bridges_h, &mut ws.dec_bptt.dh, &ws.pre_h),
            (&mut self.bridges_c, &mut ws.dec_bptt.dc, &ws.pre_c),
        ] {
            for (l, bridge) in bridges.iter_mut().enumerate() {
                // The decoder's initial-state gradient becomes, in place,
                // the gradient w.r.t. the bridge's pre-activation.
                let d_pre = &mut d_init[l];
                for (g, p) in d_pre.iter_mut().zip(&pre[l][..]) {
                    let t = fastmath::tanh(*p);
                    *g *= 1.0 - t * t;
                }
                let dz_part = grown(&mut ws.dz_part, z.len());
                bridge.backward_rows(bsz, z, d_pre, dz_part);
                for (a, b) in dz.iter_mut().zip(&*dz_part) {
                    *a += b;
                }
            }
        }

        // Into the encoder: gradient lands on the final top-layer hidden.
        self.encoder.begin_backward(&mut ws.enc_bptt, &ws.enc);
        ws.enc_bptt.dh[self.encoder.num_layers() - 1].copy_from_slice(dz);
        self.encoder.backward(&ws.enc, &mut ws.enc_bptt, false);

        loss
    }

    /// Trains on a dataset of `(window, horizon)` pairs for the given number
    /// of epochs, returning the mean loss per epoch. Each epoch visits the
    /// examples in a fresh shuffle, one Adam step (clip 1.0) per chunk of up
    /// to `batch_size`; `batch_size` sets the optimizer trajectory, so it
    /// is part of the model, not a speed setting. Windows within a chunk
    /// must share a length. One workspace serves every step: after the
    /// first, a step allocates nothing.
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
        let mut ws = TrainWorkspace::default();
        let mut refs: Vec<&SeqPair> = Vec::with_capacity(batch_size.min(dataset.len()));
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(batch_size) {
                self.zero_grad();
                refs.clear();
                refs.extend(chunk.iter().map(|&i| &dataset[i]));
                epoch_loss += self.accumulate_in(&mut ws, &refs, rng);
                adam.step(self);
                #[cfg(test)]
                ws.poison();
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

    /// `train_batched` (one workspace for every step, NaN-poisoned between
    /// steps in this build) against its own loop written with the per-step
    /// call, which builds a fresh workspace each time: same weights, same
    /// loss history, same RNG state — with dropout masks drawn, at one
    /// example per step and at sixteen (two full chunks and a ragged 8).
    #[test]
    fn workspace_reuse_matches_a_fresh_workspace_per_step() {
        let data = sine_dataset(40, 8, 2);
        let mut cfg = tiny_config();
        cfg.dropout = 0.3;
        for batch in [1, 16] {
            let mut rng = SimRng::seed(11);
            let mut reused = EncoderDecoder::new(cfg.clone(), &mut rng);
            let mut fresh = reused.clone();
            let mut rng_fresh = rng.clone();
            let epochs = 3;
            let history = reused.train_batched(&data, epochs, 5e-3, batch, &mut rng);

            let mut adam = Adam::new(5e-3).with_clip(1.0);
            let mut order: Vec<usize> = (0..data.len()).collect();
            let mut history_fresh = Vec::new();
            for _ in 0..epochs {
                rng_fresh.shuffle(&mut order);
                let mut epoch_loss = 0.0;
                for chunk in order.chunks(batch) {
                    fresh.zero_grad();
                    let refs: Vec<&SeqPair> = chunk.iter().map(|&i| &data[i]).collect();
                    epoch_loss += fresh.accumulate_batch(&refs, &mut rng_fresh);
                    adam.step(&mut fresh);
                }
                history_fresh.push(epoch_loss / data.len() as f64);
            }

            assert!(rng == rng_fresh, "batch {batch}: RNG streams diverged");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&history), bits(&history_fresh), "batch {batch}: loss");
            let mut weights = [Vec::new(), Vec::new()];
            for (model, out) in [&mut reused, &mut fresh].into_iter().zip(&mut weights) {
                model.visit_params(&mut |w, _| out.extend_from_slice(w));
            }
            assert!(weights[0].iter().all(|w| w.is_finite()), "batch {batch}");
            assert_eq!(
                bits(&weights[0]),
                bits(&weights[1]),
                "batch {batch}: weights"
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

    /// Lane `b` of a batched latent extraction has the bits of window
    /// `b`'s own `encode`, dropout configured or not.
    #[test]
    fn encode_batch_matches_encode_lane_by_lane() {
        let mut rng = SimRng::seed(6);
        let mut cfg = tiny_config();
        cfg.dropout = 0.3;
        let model = EncoderDecoder::new(cfg, &mut rng);
        let windows: Vec<Vec<Vec<f64>>> = sine_dataset(5, 7, 2).into_iter().map(|p| p.0).collect();
        let steps: Vec<Matrix> = (0..7)
            .map(|t| Matrix::from_fn(windows.len(), 1, |b, _| windows[b][t][0]))
            .collect();
        let z = model.encode_batch(&steps);
        for (b, window) in windows.iter().enumerate() {
            let one = model.encode(window, false, &mut rng);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(z.row(b)), bits(&one), "lane {b}");
        }
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
