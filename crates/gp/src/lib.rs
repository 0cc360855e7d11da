//! Gaussian processes and customized Bayesian-optimization machinery.
//!
//! Implements the surrogate-model layer of AQUATOPE's container resource
//! manager (paper §5.3):
//!
//! * [`Gp`] — fixed-noise Gaussian-process regression with a
//!   [`Matern52`] kernel, hyperparameters selected by log marginal
//!   likelihood over a grid (the role GPyTorch plays in the paper).
//! * [`qmc::Halton`] — a low-discrepancy sequence for quasi-Monte-Carlo
//!   integration and candidate generation (the paper uses Sobol via
//!   BoTorch; Halton is an equivalent low-discrepancy family, documented
//!   substitution).
//! * [`acquisition`] — expected improvement, *noisy* expected improvement
//!   integrated over posterior samples of the incumbent, the
//!   constraint-weighted variant of Gardner et al., and greedy
//!   (Kriging-believer) batch selection.
//! * [`anomaly`] — leave-one-out diagnostic-GP outlier pruning: a sample
//!   whose observation falls outside the 95% predictive interval of a GP
//!   fit to all *other* samples is labeled an anomaly (paper §5.3).
//!
//! # Examples
//!
//! ```
//! use aqua_gp::{Gp, GpConfig};
//!
//! // Fit y = x² on a few noisy points and predict in between.
//! let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
//! let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
//! let (mean, var) = gp.predict(&[0.5]);
//! assert!((mean - 0.25).abs() < 0.05);
//! assert!(var >= 0.0);
//! ```

pub mod acquisition;
pub mod anomaly;
pub mod gp;
pub mod kernel;
pub mod qmc;
pub mod surrogate;

pub use acquisition::{
    constrained_nei, constrained_nei_batch, expected_improvement, probability_feasible,
    propose_batch, NeiConfig,
};
pub use anomaly::detect_anomalies;
pub use gp::{Gp, GpConfig, GpError};
pub use kernel::{euclidean, unit_factors, Matern52};
pub use qmc::Halton;
pub use surrogate::{DtcBasis, SparseGp, SparseGpConfig, Surrogate};
