//! Time-series predictors for serverless invocation patterns.
//!
//! This crate implements every prediction model compared in the paper's
//! Table 1 plus the model inside the IceBreaker cold-start baseline:
//!
//! * [`NaiveLast`] — "fixed Keep-Alive": the last window's count is the
//!   forecast for the next.
//! * [`Arima`] — the classic ARIMA model used by *Serverless in the Wild*.
//! * [`VanillaLstm`] — an LSTM without external features or uncertainty.
//! * [`FourierPredictor`] — IceBreaker's Fourier-extrapolation model.
//! * [`HybridBayesian`] — AQUATOPE's hybrid Bayesian NN: LSTM
//!   encoder-decoder latent + external features into an MC-dropout MLP,
//!   yielding a predictive mean **and** uncertainty.
//!
//! All models implement [`Predictor`]; [`eval::smape_eval`] computes the
//! Table 1 metric over a held-out split.
//!
//! # Examples
//!
//! ```
//! use aqua_forecast::{NaiveLast, Predictor, SeriesPoint, TriggerKind};
//!
//! let series: Vec<SeriesPoint> = (0..64)
//!     .map(|i| SeriesPoint::new(5.0 + (i % 8) as f64, i, TriggerKind::Http))
//!     .collect();
//! let mut model = NaiveLast::new();
//! model.fit(&series);
//! let f = model.forecast(&series[..32]);
//! assert_eq!(f.mean, series[31].count);
//! ```

pub mod arima;
pub mod eval;
pub mod fourier;
pub mod hybrid;
pub mod naive;
pub mod point;
pub mod vanilla_lstm;

pub use arima::Arima;
pub use eval::{smape_eval, EvalReport};
pub use fourier::FourierPredictor;
pub use hybrid::{HybridBayesian, HybridConfig};
pub use naive::NaiveLast;
pub use point::{Forecast, SeriesPoint, TriggerKind};
pub use vanilla_lstm::VanillaLstm;

/// A model that forecasts the next window's container count from history.
///
/// `fit` sees the training prefix once; `forecast` is called with a rolling
/// history slice (the most recent windows, oldest first) and must return the
/// prediction for the *next* window.
pub trait Predictor {
    /// Short human-readable model name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Trains the model on a historical series.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `train` is shorter than the model's
    /// minimum window.
    fn fit(&mut self, train: &[SeriesPoint]);

    /// Predicts the count in the window following `history`.
    fn forecast(&mut self, history: &[SeriesPoint]) -> Forecast;

    /// Minimum history length `forecast` needs. Defaults to 1.
    fn min_history(&self) -> usize {
        1
    }
}
