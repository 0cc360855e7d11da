//! Vanilla LSTM baseline: same backbone capacity as the hybrid model but no
//! external features and no uncertainty (Table 1's third column).

use aqua_linalg::Matrix;
use aqua_nn::{mse, Adam, BatchInput, Linear, Lstm, Parameterized};
use aqua_sim::SimRng;

use crate::point::{counts, Forecast, SeriesPoint};
use crate::Predictor;

/// One-step-ahead LSTM forecaster.
///
/// # Examples
///
/// ```no_run
/// use aqua_forecast::{Predictor, SeriesPoint, TriggerKind, VanillaLstm};
///
/// let series: Vec<SeriesPoint> = (0..300)
///     .map(|i| SeriesPoint::new(10.0 + (i % 12) as f64, i, TriggerKind::Http))
///     .collect();
/// let mut m = VanillaLstm::new(24, 3);
/// m.fit(&series[..240]);
/// let f = m.forecast(&series[..240]);
/// assert!(f.mean >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct VanillaLstm {
    window: usize,
    epochs: usize,
    lstm: Lstm,
    head: Linear,
    rng: SimRng,
    scale: f64,
    residual_std: f64,
}

impl VanillaLstm {
    /// Creates the model with the given input window and training epochs.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize, epochs: usize) -> Self {
        Self::with_seed(window, epochs, 0x5eed)
    }

    /// Like [`VanillaLstm::new`] with an explicit RNG seed.
    pub fn with_seed(window: usize, epochs: usize, seed: u64) -> Self {
        assert!(window >= 2, "window must be at least 2");
        let mut rng = SimRng::seed(seed);
        let lstm = Lstm::new(&[1, 32, 16], 0.0, &mut rng);
        let head = Linear::new(16, 1, &mut rng);
        VanillaLstm {
            window,
            epochs,
            lstm,
            head,
            rng,
            scale: 1.0,
            residual_std: 0.0,
        }
    }

    fn window_of(&self, xs: &[f64]) -> Vec<Vec<f64>> {
        let start = xs.len().saturating_sub(self.window);
        xs[start..].iter().map(|v| vec![v / self.scale]).collect()
    }

    fn predict_norm(&mut self, input: &[Vec<f64>]) -> f64 {
        // Unrecorded rollout: no per-step activations kept, no RNG
        // (inference mode never draws masks).
        let res = self.lstm.forward_infer(input, None);
        self.head.forward(&res.last_output)[0]
    }
}

impl Predictor for VanillaLstm {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn fit(&mut self, train: &[SeriesPoint]) {
        let xs = counts(train);
        assert!(
            xs.len() > self.window + 1,
            "training series shorter than window"
        );
        self.scale = xs.iter().cloned().fold(1.0, f64::max);
        let norm: Vec<f64> = xs.iter().map(|v| v / self.scale).collect();

        // Mini-batched training: gradient averaging over a few sequences
        // stabilizes BPTT against Poisson label noise.
        let batch = 8;
        let mut examples: Vec<usize> = (0..norm.len() - self.window).collect();
        let mut adam = Adam::new(5e-3).with_clip(1.0);
        struct Both<'a>(&'a mut Lstm, &'a mut Linear);
        impl Parameterized for Both<'_> {
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
                self.0.visit_params(f);
                self.1.visit_params(f);
            }
        }
        for _ in 0..self.epochs {
            self.rng.shuffle(&mut examples);
            for chunk in examples.chunks(batch) {
                self.lstm.zero_grad();
                self.head.zero_grad();
                // One batched forward/backward per chunk, a lane per
                // example: gradients land lane-major, in example order.
                let lanes = chunk.len();
                let steps: Vec<Matrix> = (0..self.window)
                    .map(|t| Matrix::from_fn(lanes, 1, |b, _| norm[chunk[b] + t]))
                    .collect();
                let cache = self.lstm.forward_seq_batch(
                    lanes,
                    BatchInput::PerLane(&steps),
                    None,
                    false,
                    true,
                    &mut self.rng,
                );
                let top = cache.outputs.last().expect("non-empty");
                let pred = self.head.forward_batch(top);
                let mut d_pred = Matrix::zeros(lanes, 1);
                for (b, &s) in chunk.iter().enumerate() {
                    let (_, g) = mse(pred.row(b), &[norm[s + self.window]]);
                    d_pred[(b, 0)] = g[0] / lanes as f64;
                }
                let mut d_outputs = vec![Matrix::zeros(lanes, top.cols()); self.window];
                *d_outputs.last_mut().expect("non-empty") = self.head.backward_batch(top, &d_pred);
                self.lstm.backward_seq_batch(&cache, &d_outputs, None);
                adam.step(&mut Both(&mut self.lstm, &mut self.head));
            }
        }

        // One-step residual spread on the training set.
        let mut sse = 0.0;
        let mut n = 0;
        for s in 0..norm.len() - self.window {
            let input: Vec<Vec<f64>> = norm[s..s + self.window].iter().map(|v| vec![*v]).collect();
            let pred = self.predict_norm(&input);
            sse += (pred - norm[s + self.window]).powi(2);
            n += 1;
        }
        self.residual_std = (sse / n.max(1) as f64).sqrt() * self.scale;
    }

    fn forecast(&mut self, history: &[SeriesPoint]) -> Forecast {
        let xs = counts(history);
        assert!(xs.len() >= 2, "history too short");
        let input = self.window_of(&xs);
        let mean = (self.predict_norm(&input) * self.scale).max(0.0);
        Forecast {
            mean,
            std: self.residual_std,
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

    fn pts(xs: &[f64]) -> Vec<SeriesPoint> {
        xs.iter()
            .enumerate()
            .map(|(i, &x)| SeriesPoint::new(x, i as u64, TriggerKind::Http))
            .collect()
    }

    #[test]
    fn learns_short_period_pattern() {
        let series: Vec<f64> = (0..240)
            .map(|t| 10.0 + 8.0 * (std::f64::consts::TAU * t as f64 / 12.0).sin())
            .collect();
        let mut m = VanillaLstm::with_seed(16, 4, 7);
        m.fit(&pts(&series[..200]));
        let mut err_lstm = 0.0;
        let mut err_naive = 0.0;
        for t in 200..239 {
            let f = m.forecast(&pts(&series[..t]));
            err_lstm += (f.mean - series[t]).abs();
            err_naive += (series[t - 1] - series[t]).abs();
        }
        assert!(
            err_lstm < err_naive,
            "LSTM should beat naive: {err_lstm} vs {err_naive}"
        );
    }

    #[test]
    fn forecast_is_deterministic_after_fit() {
        let series: Vec<f64> = (0..80).map(|t| (t % 5) as f64).collect();
        let mut m = VanillaLstm::with_seed(8, 1, 3);
        m.fit(&pts(&series));
        let a = m.forecast(&pts(&series)).mean;
        let b = m.forecast(&pts(&series)).mean;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shorter than window")]
    fn fit_requires_enough_data() {
        let mut m = VanillaLstm::new(24, 1);
        m.fit(&pts(&[1.0; 10]));
    }
}
