//! AQUATOPE's hybrid Bayesian neural network (paper §4.2, Fig. 2).
//!
//! Two stages:
//!
//! 1. An LSTM **encoder-decoder** is pre-trained to reconstruct the next
//!    `k` windows of the invocation series; its encoder then serves as a
//!    frozen feature-extraction black box whose final hidden state is the
//!    latent variable `Z`.
//! 2. A **prediction network** (3-layer tanh MLP with dropout) maps
//!    `[Z ‖ external features]` to the next window's container count.
//!
//! Bayesian inference is approximated with MC dropout: variational dropout
//! in the encoder, regular dropout in the MLP, `T` stochastic forward
//! passes → predictive mean and variance.

use aqua_linalg::Matrix;
use aqua_nn::{mse_into, Adam, EncoderDecoder, Mlp, Parameterized, Seq2SeqConfig};
use aqua_sim::SimRng;

use crate::point::{counts, Forecast, SeriesPoint, EXTERNAL_FEATURE_DIM};
use crate::Predictor;

/// Hyperparameters of the hybrid model.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Input window length (past windows fed to the encoder).
    pub window: usize,
    /// Reconstruction horizon for encoder-decoder pre-training.
    pub horizon: usize,
    /// Encoder stack hidden widths (paper: two layers of 64).
    pub enc_hidden: Vec<usize>,
    /// Decoder stack hidden widths (paper: two layers of 16).
    pub dec_hidden: Vec<usize>,
    /// MLP hidden widths (three FC layers total → two hidden blocks).
    pub mlp_hidden: Vec<usize>,
    /// Dropout rate (variational in the encoder, regular in the MLP).
    pub dropout: f64,
    /// Pre-training epochs for the encoder-decoder.
    pub pretrain_epochs: usize,
    /// Training epochs for the prediction network.
    pub train_epochs: usize,
    /// Number of MC-dropout forward passes at inference.
    pub mc_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HybridConfig {
    /// Laptop-scale defaults that keep the paper's architecture shape
    /// (stacked encoder/decoder, 3-layer tanh MLP, MC dropout) while
    /// training in seconds.
    fn default() -> Self {
        HybridConfig {
            window: 24,
            horizon: 2,
            enc_hidden: vec![32, 32],
            dec_hidden: vec![16],
            mlp_hidden: vec![64, 32],
            dropout: 0.05,
            pretrain_epochs: 10,
            train_epochs: 12,
            mc_passes: 40,
            seed: 0xA00A,
        }
    }
}

/// The hybrid Bayesian forecaster.
///
/// # Examples
///
/// ```no_run
/// use aqua_forecast::{HybridBayesian, HybridConfig, Predictor, SeriesPoint, TriggerKind};
///
/// let series: Vec<SeriesPoint> = (0..400)
///     .map(|i| SeriesPoint::new(10.0 + (i % 30) as f64, i, TriggerKind::Http))
///     .collect();
/// let mut model = HybridBayesian::new(HybridConfig::default());
/// model.fit(&series[..300]);
/// let f = model.forecast(&series[..300]);
/// assert!(f.std >= 0.0); // Bayesian: carries uncertainty
/// ```
#[derive(Debug, Clone)]
pub struct HybridBayesian {
    config: HybridConfig,
    encoder_decoder: EncoderDecoder,
    mlp: Mlp,
    rng: SimRng,
    scale: f64,
    /// Per-dimension standardization of the MLP input (latent magnitudes
    /// are far smaller than the cyclic external features; without this the
    /// prediction network fixates on the features and ignores `Z`).
    input_mean: Vec<f64>,
    input_std: Vec<f64>,
    /// Aleatoric (residual) standard deviations estimated on the training
    /// set, in original units, split by predicted level: count noise is
    /// multiplicative, so confidently-quiet windows must not inherit the
    /// spike-sized residual (that would pin pool insurance up forever).
    residual_low: f64,
    residual_high: f64,
    /// Level (original units) separating the two residual buckets.
    level_split: f64,
    /// Weekly-phase features are only usable when the training span covers
    /// at least one full week; on shorter traces they are a raw time index
    /// that the network would overfit (out-of-distribution at test time).
    use_weekly: bool,
}

impl HybridBayesian {
    /// Builds the model from a configuration.
    pub fn new(config: HybridConfig) -> Self {
        let mut rng = SimRng::seed(config.seed);
        let seq_cfg = Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: config.enc_hidden.clone(),
            dec_hidden: config.dec_hidden.clone(),
            horizon: config.horizon,
            dropout: config.dropout,
        };
        let encoder_decoder = EncoderDecoder::new(seq_cfg, &mut rng);
        let mlp = Mlp::new(
            encoder_decoder.latent_dim() + EXTERNAL_FEATURE_DIM + Self::RECENT_TAIL,
            &config.mlp_hidden,
            1,
            config.dropout,
            &mut rng,
        );
        let in_dim = encoder_decoder.latent_dim() + EXTERNAL_FEATURE_DIM + Self::RECENT_TAIL;
        HybridBayesian {
            config,
            encoder_decoder,
            mlp,
            rng,
            scale: 1.0,
            input_mean: vec![0.0; in_dim],
            input_std: vec![1.0; in_dim],
            residual_low: 0.0,
            residual_high: 0.0,
            level_split: 0.0,
            use_weekly: true,
        }
    }

    /// Zeroes the weekly-phase features in place when they are disabled.
    fn mask_features(&self, features: &mut [f64]) {
        if !self.use_weekly {
            features[2] = 0.0;
            features[3] = 0.0;
        }
    }

    /// Number of recent raw (normalized) counts appended to the MLP input
    /// alongside the latent and the external features, following Zhu &
    /// Laptev's hybrid design (the paper's reference for this model):
    /// the prediction network sees the local level directly and learns
    /// corrections from the latent and the calendar features.
    const RECENT_TAIL: usize = 4;

    /// Examples per Adam step in encoder-decoder pre-training. A constant,
    /// not a knob: one step per example is the optimizer trajectory every
    /// golden trace and every `aquatope_mix` number was recorded under, and
    /// a larger batch is a different model, not a faster one.
    const PRETRAIN_BATCH: usize = 1;

    /// Windows per frozen-encoder rollout when stage 2 extracts its
    /// latents: enough lanes to fill the GEMM tiles, few enough that the
    /// rollout's working set (≈ 100 KiB at the pool's default widths)
    /// leaves a fit's peak memory where it was.
    const LATENT_CHUNK: usize = 32;

    /// The last [`Self::RECENT_TAIL`] normalized counts of a `len`-step
    /// window, newest first; `at(t)` is the count at step `t`.
    fn recent_tail(len: usize, at: impl Fn(usize) -> f64) -> [f64; Self::RECENT_TAIL] {
        std::array::from_fn(|k| at(len.saturating_sub(k + 1)))
    }

    fn standardize(&self, input: &mut [f64]) {
        for (d, v) in input.iter_mut().enumerate() {
            *v = (*v - self.input_mean[d]) / self.input_std[d];
        }
    }

    fn norm_window(&self, xs: &[f64]) -> Vec<Vec<f64>> {
        let start = xs.len().saturating_sub(self.config.window);
        xs[start..].iter().map(|v| vec![v / self.scale]).collect()
    }

    /// Deterministic single-pass forecast with dropout disabled — the
    /// non-Bayesian ablation the paper calls *AquaLite*. Returns only a
    /// point estimate (no uncertainty).
    pub fn forecast_point(&mut self, history: &[SeriesPoint]) -> f64 {
        let xs = counts(history);
        assert!(!xs.is_empty(), "empty history");
        let window = self.norm_window(&xs);
        let last = history.last().expect("non-empty");
        let next_point = SeriesPoint::new(0.0, last.minute + 1, last.trigger);
        let z = self.encoder_decoder.encode(&window, false, &mut self.rng);
        let mut input = z;
        let mut feats = next_point.external_features();
        self.mask_features(&mut feats);
        input.extend_from_slice(&feats);
        input.extend_from_slice(&Self::recent_tail(window.len(), |t| window[t][0]));
        self.standardize(&mut input);
        let last = window.last().expect("non-empty window")[0];
        ((last + self.mlp.forward(&input)[0]) * self.scale).max(0.0)
    }
}

impl Predictor for HybridBayesian {
    fn name(&self) -> &'static str {
        "Aquatope-Hybrid"
    }

    fn fit(&mut self, train: &[SeriesPoint]) {
        let xs = counts(train);
        let w = self.config.window;
        let h = self.config.horizon;
        assert!(
            xs.len() > w + h + 1,
            "training series shorter than window + horizon"
        );
        self.scale = xs.iter().cloned().fold(1.0, f64::max);
        let norm: Vec<f64> = xs.iter().map(|v| v / self.scale).collect();

        // Stage 1: pre-train the encoder-decoder for reconstruction.
        let mut pretrain = Vec::new();
        for s in 0..norm.len() - w - h {
            let input: Vec<Vec<f64>> = norm[s..s + w].iter().map(|v| vec![*v]).collect();
            let target: Vec<Vec<f64>> = norm[s + w..s + w + h].iter().map(|v| vec![*v]).collect();
            pretrain.push((input, target));
        }
        let mut rng = self.rng.fork("pretrain");
        self.encoder_decoder.train_batched(
            &pretrain,
            self.config.pretrain_epochs,
            1.5e-3,
            Self::PRETRAIN_BATCH,
            &mut rng,
        );

        // Stage 2: train the prediction network on frozen-encoder latents +
        // external features. Latents are extracted deterministically
        // (dropout off): feeding dropout-perturbed latents to a frozen-
        // encoder regression induces errors-in-variables attenuation, so
        // epistemic uncertainty is carried by the prediction network's own
        // MC dropout (deviation from the paper documented in DESIGN.md —
        // variational dropout still regularizes encoder pre-training).
        let span_minutes = train.last().expect("non-empty").minute - train[0].minute;
        self.use_weekly = span_minutes >= 7 * 24 * 60;
        // The frozen encoder takes a chunk of windows per rollout, a lane
        // each; the engine is batch-size invariant, so every latent has the
        // bits of its own one-lane `encode`.
        let starts: Vec<usize> = (0..norm.len() - w).collect();
        let dim = self.mlp.in_dim();
        let mut inputs = Vec::with_capacity(starts.len());
        let mut targets = Vec::with_capacity(starts.len());
        for chunk in starts.chunks(Self::LATENT_CHUNK) {
            let steps: Vec<Matrix> = (0..w)
                .map(|t| Matrix::from_fn(chunk.len(), 1, |b, _| norm[chunk[b] + t]))
                .collect();
            let z = self.encoder_decoder.encode_batch(&steps);
            for (b, &s) in chunk.iter().enumerate() {
                let mut input = Vec::with_capacity(dim);
                input.extend_from_slice(z.row(b));
                let mut feats = train[s + w].external_features();
                self.mask_features(&mut feats);
                input.extend_from_slice(&feats);
                input.extend_from_slice(&Self::recent_tail(w, |t| norm[s + t]));
                inputs.push(input);
                // The network predicts the *delta* from the last
                // observation: deltas are near-stationary, the naive
                // forecast becomes the zero function, and any learned
                // structure (calendar phase, latent dynamics) improves on
                // that floor.
                targets.push(norm[s + w] - norm[s + w - 1]);
            }
        }
        // Fit the input standardization on the training inputs.
        let n = inputs.len() as f64;
        self.input_mean = vec![0.0; dim];
        self.input_std = vec![0.0; dim];
        for input in &inputs {
            for (d, v) in input.iter().enumerate() {
                self.input_mean[d] += v;
            }
        }
        for m in &mut self.input_mean {
            *m /= n;
        }
        for input in &inputs {
            for (d, v) in input.iter().enumerate() {
                self.input_std[d] += (v - self.input_mean[d]).powi(2);
            }
        }
        for sd in &mut self.input_std {
            *sd = (*sd / n).sqrt().max(1e-6);
        }
        for input in &mut inputs {
            for (d, v) in input.iter_mut().enumerate() {
                *v = (*v - self.input_mean[d]) / self.input_std[d];
            }
        }

        // Mini-batched AdamW: averaging gradients over small batches tames
        // the label noise of Poisson-count targets. Each chunk runs as one
        // batched forward/backward.
        let batch = 16;
        let mut adam = Adam::new(4e-3).with_clip(1.0).with_weight_decay(1e-4);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        for _ in 0..self.config.train_epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                self.mlp.zero_grad();
                let mut x = Matrix::zeros(chunk.len(), dim);
                for (r, &i) in chunk.iter().enumerate() {
                    x.row_mut(r).copy_from_slice(&inputs[i]);
                }
                let cache = self.mlp.forward_train_batch(&x, &mut rng);
                let mut d = Matrix::zeros(chunk.len(), 1);
                for (r, &i) in chunk.iter().enumerate() {
                    let mut g = [0.0];
                    mse_into(cache.output.row(r), &[targets[i]], &mut g);
                    d[(r, 0)] = g[0] / chunk.len() as f64;
                }
                self.mlp.backward_batch(&cache, &d);
                adam.step(&mut self.mlp);
            }
        }
        // Heteroscedastic aleatoric residuals (deterministic forward),
        // bucketed by the *level* each prediction lands at. Targets are
        // deltas; the level is last + delta.
        let mut levels = Vec::with_capacity(inputs.len());
        let mut errs = Vec::with_capacity(inputs.len());
        for (i, (input, target)) in inputs.iter().zip(&targets).enumerate() {
            let pred = self.mlp.forward(input)[0];
            let last = norm[self.config.window + i - 1];
            levels.push((last + pred).max(0.0));
            errs.push(pred - target);
        }
        let mut sorted = levels.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let split_idx = ((sorted.len() as f64 * 0.6) as usize).min(sorted.len() - 1);
        let split = sorted[split_idx];
        let mut sse = [0.0f64; 2];
        let mut n = [0usize; 2];
        for (lv, e) in levels.iter().zip(&errs) {
            let b = usize::from(*lv >= split);
            sse[b] += e * e;
            n[b] += 1;
        }
        self.residual_low = (sse[0] / n[0].max(1) as f64).sqrt() * self.scale;
        self.residual_high = (sse[1] / n[1].max(1) as f64).sqrt() * self.scale;
        self.level_split = split * self.scale;
        self.rng = rng;
    }

    fn forecast(&mut self, history: &[SeriesPoint]) -> Forecast {
        let xs = counts(history);
        assert!(!xs.is_empty(), "empty history");
        let window = self.norm_window(&xs);
        // External features describe the *next* window.
        let last = history.last().expect("non-empty");
        let next_point = SeriesPoint::new(0.0, last.minute + 1, last.trigger);
        let mut features = next_point.external_features();
        self.mask_features(&mut features);

        // The latent is deterministic (dropout lives in the prediction
        // network), so encode once and reuse it across the MC passes.
        let z = self.encoder_decoder.encode(&window, false, &mut self.rng);
        let last = window.last().expect("non-empty window")[0];
        let mut base_input = z;
        base_input.extend_from_slice(&features);
        base_input.extend_from_slice(&Self::recent_tail(window.len(), |t| window[t][0]));
        self.standardize(&mut base_input);
        // All T MC-dropout passes share the input and the weights, so they
        // run as ONE batched forward over T broadcast rows; masks are
        // pre-drawn pass-major, so the `t`-row call draws what `t` one-row
        // calls would.
        let t = self.config.mc_passes.max(2);
        let mut mc_in = Matrix::zeros(t, base_input.len());
        for r in 0..t {
            mc_in.row_mut(r).copy_from_slice(&base_input);
        }
        let mc_out = self.mlp.forward_train_batch(&mc_in, &mut self.rng);
        let samples: Vec<f64> = (0..t)
            .map(|r| (last + mc_out.output.row(r)[0]) * self.scale)
            .collect();
        // Deterministic forward for the point estimate (the MC average of a
        // tanh network under dropout is biased upward near zero); the MC
        // spread still supplies the epistemic variance.
        let mean = (last + self.mlp.forward(&base_input)[0]) * self.scale;
        let mc_mean = samples.iter().sum::<f64>() / t as f64;
        let var = samples.iter().map(|s| (s - mc_mean).powi(2)).sum::<f64>() / (t - 1) as f64;
        let aleatoric = if mean.max(0.0) >= self.level_split {
            self.residual_high
        } else {
            self.residual_low
        };
        Forecast {
            mean: mean.max(0.0),
            // Epistemic (MC) + level-matched aleatoric uncertainty.
            std: (var + aleatoric * aleatoric).sqrt(),
        }
    }

    fn min_history(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::TriggerKind;
    use crate::NaiveLast;

    fn tiny_config(seed: u64) -> HybridConfig {
        HybridConfig {
            window: 12,
            horizon: 2,
            enc_hidden: vec![12],
            dec_hidden: vec![8],
            mlp_hidden: vec![16, 8],
            dropout: 0.1,
            pretrain_epochs: 3,
            train_epochs: 8,
            mc_passes: 20,
            seed,
        }
    }

    fn periodic_series(n: usize) -> Vec<SeriesPoint> {
        (0..n)
            .map(|t| {
                let v = 10.0 + 6.0 * (std::f64::consts::TAU * t as f64 / 16.0).sin();
                SeriesPoint::new(v.max(0.0), t as u64, TriggerKind::Http)
            })
            .collect()
    }

    #[test]
    fn beats_naive_on_periodic_load() {
        let series = periodic_series(320);
        let mut model = HybridBayesian::new(tiny_config(11));
        model.fit(&series[..260]);
        let mut naive = NaiveLast::new();
        let mut err_h = 0.0;
        let mut err_n = 0.0;
        for t in 260..319 {
            let f = model.forecast(&series[..t]);
            err_h += (f.mean - series[t].count).abs();
            err_n += (naive.forecast(&series[..t]).mean - series[t].count).abs();
        }
        assert!(err_h < err_n, "hybrid {err_h} vs naive {err_n}");
    }

    #[test]
    fn uncertainty_is_positive_with_dropout() {
        let series = periodic_series(200);
        let mut model = HybridBayesian::new(tiny_config(12));
        model.fit(&series[..150]);
        let f = model.forecast(&series[..150]);
        assert!(f.std > 0.0, "MC dropout must yield nonzero predictive std");
        assert!(f.mean >= 0.0);
    }

    #[test]
    #[should_panic(expected = "shorter than window")]
    fn fit_checks_length() {
        let mut model = HybridBayesian::new(tiny_config(13));
        model.fit(&periodic_series(10));
    }
}
