//! Cloud-noise injection: Gaussian jitter plus non-Gaussian outliers.
//!
//! The paper divides FaaS noise into two categories (§5.3): *inherent*
//! noise well-approximated by a normal distribution, and *irregular* noise
//! (resource contention, networking instability) that is not. We model the
//! first as multiplicative log-normal jitter and the second as rare
//! heavy-tailed (Pareto) slowdown bursts from colocated background jobs —
//! the same injection methodology as the paper's Fig. 15, whose x-axis
//! "noise level" scales the frequency and intensity of those bursts.

use aqua_sim::{LogNormal, Pareto, SimDuration, SimRng};

/// Execution-time noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Extra Gaussian-ish CV added on top of each function's intrinsic CV.
    pub gaussian_cv: f64,
    /// Probability that an invocation hits an interference burst.
    pub outlier_prob: f64,
    /// Pareto tail index of burst slowdowns (smaller = heavier tail).
    pub outlier_shape: f64,
    /// Minimum burst slowdown factor (Pareto scale), e.g. 1.5 = +50%.
    pub outlier_scale: f64,
}

impl NoiseModel {
    /// No environment noise at all (intrinsic CV still applies).
    pub fn quiet() -> Self {
        NoiseModel {
            gaussian_cv: 0.0,
            outlier_prob: 0.0,
            outlier_shape: 2.5,
            outlier_scale: 1.5,
        }
    }

    /// Typical production-cluster noise: mild jitter, rare outliers.
    pub fn production() -> Self {
        NoiseModel {
            gaussian_cv: 0.08,
            outlier_prob: 0.01,
            outlier_shape: 2.0,
            outlier_scale: 1.5,
        }
    }

    /// The Fig. 15 "noise level" dial: level 0 = production-quiet,
    /// levels 1–4 increase both outlier frequency and intensity, emulating
    /// progressively more aggressive colocated background jobs.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or not finite.
    pub fn background_jobs(level: f64) -> Self {
        assert!(
            level.is_finite() && level >= 0.0,
            "noise level must be non-negative"
        );
        NoiseModel {
            gaussian_cv: 0.05 + 0.03 * level,
            outlier_prob: 0.02 * level,
            outlier_shape: (2.5 - 0.3 * level).max(1.2),
            outlier_scale: 1.5 + 0.25 * level,
        }
    }

    /// The sampler for a latency of `base_ms` milliseconds with the
    /// function's `intrinsic_cv`: log-normal jitter at the combined CV
    /// `√(intrinsic² + gaussian²)`, plus a Pareto burst with probability
    /// `outlier_prob`. Derive it once per (function, configuration) and
    /// draw from it per invocation.
    pub fn sampler(&self, base_ms: f64, intrinsic_cv: f64) -> ExecSampler {
        if base_ms <= 0.0 {
            return ExecSampler {
                base_ms,
                jitter: None,
                outlier: None,
            };
        }
        let cv = (intrinsic_cv * intrinsic_cv + self.gaussian_cv * self.gaussian_cv).sqrt();
        ExecSampler {
            base_ms,
            jitter: (cv > 0.0).then(|| LogNormal::with_mean_cv(base_ms, cv)),
            outlier: (self.outlier_prob > 0.0).then(|| {
                (
                    self.outlier_prob,
                    Pareto::new(self.outlier_scale, self.outlier_shape),
                )
            }),
        }
    }
}

/// One noisy latency draw with its distribution parameters derived up
/// front (see [`NoiseModel::sampler`]), so a draw costs only its random
/// numbers: a normal and an `exp` for the jitter, a uniform for the burst
/// check, and a uniform and a `powf` when a burst hits.
///
/// A non-positive base draws no random numbers and samples the 1 µs floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecSampler {
    base_ms: f64,
    /// Log-normal jitter with mean `base_ms` (`None` at a zero CV).
    jitter: Option<LogNormal>,
    /// Burst probability and slowdown factor (`None` without bursts).
    outlier: Option<(f64, Pareto)>,
}

impl ExecSampler {
    /// Draws one latency, floored at 1 µs.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64((self.sample_ms(rng) / 1e3).max(1e-6))
    }

    /// Draws one latency in milliseconds, without the floor.
    fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        let mut value = match &self.jitter {
            Some(jitter) => jitter.sample(rng),
            None => self.base_ms,
        };
        if let Some((p, burst)) = &self.outlier {
            if rng.chance(*p) {
                value *= burst.sample(rng);
            }
        }
        value
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_noise_is_identity() {
        let n = NoiseModel::quiet();
        let mut rng = SimRng::seed(1);
        assert_eq!(n.sampler(100.0, 0.0).sample_ms(&mut rng), 100.0);
    }

    #[test]
    fn gaussian_jitter_preserves_mean() {
        let n = NoiseModel {
            gaussian_cv: 0.2,
            outlier_prob: 0.0,
            ..NoiseModel::quiet()
        };
        let mut rng = SimRng::seed(2);
        let m = 50_000;
        let s = n.sampler(100.0, 0.0);
        let mean: f64 = (0..m).map(|_| s.sample_ms(&mut rng)).sum::<f64>() / m as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn outliers_are_rare_but_large() {
        let n = NoiseModel {
            gaussian_cv: 0.0,
            outlier_prob: 0.05,
            outlier_shape: 2.0,
            outlier_scale: 2.0,
        };
        let mut rng = SimRng::seed(3);
        let s = n.sampler(100.0, 0.0);
        let samples: Vec<f64> = (0..20_000).map(|_| s.sample_ms(&mut rng)).collect();
        let outliers = samples.iter().filter(|s| **s > 150.0).count() as f64 / samples.len() as f64;
        assert!((outliers - 0.05).abs() < 0.01, "outlier rate {outliers}");
        assert!(samples.iter().cloned().fold(0.0, f64::max) > 250.0);
    }

    #[test]
    fn noise_level_dial_is_monotone() {
        let l1 = NoiseModel::background_jobs(1.0);
        let l4 = NoiseModel::background_jobs(4.0);
        assert!(l4.outlier_prob > l1.outlier_prob);
        assert!(l4.gaussian_cv > l1.gaussian_cv);
        assert!(l4.outlier_scale > l1.outlier_scale);
    }

    #[test]
    fn zero_base_stays_zero() {
        let n = NoiseModel::production();
        let mut rng = SimRng::seed(4);
        let before = rng.clone();
        assert_eq!(n.sampler(0.0, 0.5).sample_ms(&mut rng), 0.0);
        assert_eq!(rng, before, "a zero base draws nothing");
    }
}
