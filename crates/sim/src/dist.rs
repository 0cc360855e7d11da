//! Probability distributions used by the workload and interference models.
//!
//! Each distribution is a small value type sampled with a [`SimRng`], keeping
//! all stochasticity attributable to explicit seeded streams.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Examples
///
/// ```
/// use aqua_sim::{Exponential, SimRng};
///
/// let exp = Exponential::with_mean(2.0);
/// let mut rng = SimRng::seed(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates the distribution from its rate parameter.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Exponential { rate }
    }

    /// Creates the distribution from its mean (`1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { rate: 1.0 / mean }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = loop {
            let u = rng.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.rate
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
///
/// Used for function execution-time noise: multiplicative, right-skewed,
/// always positive — the shape measured for FaaS latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given arithmetic mean and coefficient
    /// of variation (`std/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(cv.is_finite() && cv >= 0.0, "cv must be non-negative");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Arithmetic mean of the distribution.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// Pareto (power-law) distribution, used for heavy-tailed outlier noise
/// (the paper's "non-Gaussian" interference component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto with minimum value `scale` and tail index `shape`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        Pareto { scale, shape }
    }

    /// Draws one sample (always `>= scale`).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = loop {
            let u = rng.uniform();
            if u > 0.0 {
                break u;
            }
        };
        self.scale / u.powf(1.0 / self.shape)
    }
}

/// Gamma distribution (shape `k`, scale `theta`), sampled with the
/// Marsaglia–Tsang method. Used to generate inter-arrival times with a
/// controlled coefficient of variation below 1 (`CV = 1/√k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Gamma { shape, scale }
    }

    /// Gamma with a given mean and coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `cv > 0`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(cv > 0.0, "cv must be positive");
        let shape = 1.0 / (cv * cv);
        Gamma::new(shape, mean / shape)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) · U^(1/k).
            let u = loop {
                let u = rng.uniform();
                if u > 0.0 {
                    break u;
                }
            };
            let boosted = Gamma::new(self.shape + 1.0, self.scale).sample(rng);
            return boosted * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = rng.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.uniform();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }
}

/// Two-phase hyperexponential distribution: with probability `p` draw from
/// a fast exponential, else a slow one. Produces inter-arrival times with a
/// coefficient of variation above 1 (bursty serverless traffic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperExp {
    p: f64,
    fast: Exponential,
    slow: Exponential,
}

impl HyperExp {
    /// Builds a balanced two-phase hyperexponential with the given mean and
    /// coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `cv > 1`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(cv > 1.0, "hyperexponential needs cv > 1");
        // Balanced-means parameterization: p chosen so both phases carry
        // half the probability mass of the mean.
        let c2 = cv * cv;
        let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
        let m1 = mean / (2.0 * p);
        let m2 = mean / (2.0 * (1.0 - p));
        HyperExp {
            p,
            fast: Exponential::with_mean(m1),
            slow: Exponential::with_mean(m2),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if rng.chance(self.p) {
            self.fast.sample(rng)
        } else {
            self.slow.sample(rng)
        }
    }
}

/// Generates `n` arrival timestamps whose inter-arrival times have the
/// given mean (seconds) and coefficient of variation. `cv == 0` yields a
/// deterministic arrival stream; `cv < 1` uses a Gamma renewal process,
/// `cv == 1` exponential, `cv > 1` hyperexponential — the knob behind the
/// paper's Fig. 10 sweep.
///
/// # Panics
///
/// Panics if `mean_gap <= 0` or `cv < 0`.
pub fn arrivals_with_cv(n: usize, mean_gap: f64, cv: f64, rng: &mut SimRng) -> Vec<SimTime> {
    assert!(mean_gap > 0.0, "mean gap must be positive");
    assert!(cv >= 0.0, "cv must be non-negative");
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let gap = if cv == 0.0 {
            mean_gap
        } else if cv < 1.0 {
            Gamma::with_mean_cv(mean_gap, cv).sample(rng)
        } else if (cv - 1.0).abs() < 1e-9 {
            Exponential::with_mean(mean_gap).sample(rng)
        } else {
            HyperExp::with_mean_cv(mean_gap, cv).sample(rng)
        };
        t += gap;
        out.push(SimTime::from_secs_f64(t));
    }
    out
}

/// A non-homogeneous Poisson arrival process over 1-minute rate buckets.
///
/// This mirrors the paper's workload generation: "within each one-minute
/// interval provided in the trace, we use a Poisson process to generate
/// workflow invocation traffic with an exponential distribution of
/// inter-arrival times" (§7.2).
///
/// # Examples
///
/// ```
/// use aqua_sim::{PoissonProcess, SimRng};
///
/// // 60 invocations/min for two minutes.
/// let proc_ = PoissonProcess::from_per_minute_rates(&[60.0, 60.0]);
/// let mut rng = SimRng::seed(9);
/// let arrivals = proc_.generate(&mut rng);
/// assert!(!arrivals.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonProcess {
    /// Invocations per minute, one entry per minute bucket.
    rates: Vec<f64>,
}

impl PoissonProcess {
    /// Builds the process from per-minute invocation rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn from_per_minute_rates(rates: &[f64]) -> Self {
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        PoissonProcess {
            rates: rates.to_vec(),
        }
    }

    /// Total simulated horizon covered by the rate buckets.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(60 * self.rates.len() as u64)
    }

    /// Generates the arrival timestamps for the whole horizon.
    ///
    /// Within each minute the inter-arrival gaps are exponential with that
    /// minute's rate; minutes with rate zero produce no arrivals.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<SimTime> {
        let mut arrivals = Vec::new();
        for (i, &rate) in self.rates.iter().enumerate() {
            if rate <= 0.0 {
                continue;
            }
            let start = 60.0 * i as f64;
            let exp = Exponential::new(rate / 60.0); // events per second
            let mut t = start;
            loop {
                t += exp.sample(rng);
                if t >= start + 60.0 {
                    break;
                }
                arrivals.push(SimTime::from_secs_f64(t));
            }
        }
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean() {
        let exp = Exponential::with_mean(3.0);
        let mut rng = SimRng::seed(2);
        let n = 100_000;
        let mean = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn lognormal_mean_and_cv() {
        let ln = LogNormal::with_mean_cv(10.0, 0.5);
        assert!((ln.mean() - 10.0).abs() < 1e-9);
        let mut rng = SimRng::seed(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| ln.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 10.0).abs() < 0.15, "mean = {mean}");
        assert!((cv - 0.5).abs() < 0.02, "cv = {cv}");
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let ln = LogNormal::with_mean_cv(5.0, 0.0);
        let mut rng = SimRng::seed(8);
        for _ in 0..10 {
            assert!((ln.sample(&mut rng) - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pareto_respects_scale() {
        let p = Pareto::new(2.0, 1.5);
        let mut rng = SimRng::seed(6);
        for _ in 0..1_000 {
            assert!(p.sample(&mut rng) >= 2.0);
        }
    }

    #[test]
    fn poisson_process_counts_match_rates() {
        let rates = vec![120.0; 50];
        let proc_ = PoissonProcess::from_per_minute_rates(&rates);
        let mut rng = SimRng::seed(12);
        let arrivals = proc_.generate(&mut rng);
        let expected = 120.0 * 50.0;
        let got = arrivals.len() as f64;
        assert!((got - expected).abs() < 0.05 * expected, "got {got}");
    }

    #[test]
    fn poisson_process_is_sorted_within_horizon() {
        let proc_ = PoissonProcess::from_per_minute_rates(&[10.0, 0.0, 30.0]);
        let mut rng = SimRng::seed(13);
        let arrivals = proc_.generate(&mut rng);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        let horizon = proc_.horizon();
        assert!(arrivals.iter().all(|t| *t < SimTime::ZERO + horizon));
        // No arrivals in the zero-rate minute.
        assert!(!arrivals
            .iter()
            .any(|t| (60.0..120.0).contains(&t.as_secs_f64())));
    }

    #[test]
    fn gamma_moments() {
        let mut rng = SimRng::seed(21);
        for &(shape, scale) in &[(0.5, 2.0), (2.0, 1.5), (9.0, 0.3)] {
            let g = Gamma::new(shape, scale);
            let n = 100_000;
            let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape * scale).abs() < 0.03 * shape * scale + 0.01,
                "k={shape} mean={mean}"
            );
            assert!(
                (var - shape * scale * scale).abs() < 0.06 * shape * scale * scale + 0.02,
                "k={shape} var={var}"
            );
        }
    }

    #[test]
    fn hyperexp_hits_target_cv() {
        let mut rng = SimRng::seed(22);
        for &cv in &[1.5, 2.5, 4.0] {
            let h = HyperExp::with_mean_cv(10.0, cv);
            let n = 300_000;
            let xs: Vec<f64> = (0..n).map(|_| h.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let got_cv = var.sqrt() / mean;
            assert!((mean - 10.0).abs() < 0.3, "cv={cv} mean={mean}");
            assert!(
                (got_cv - cv).abs() < 0.1 * cv,
                "target cv={cv} got {got_cv}"
            );
        }
    }

    #[test]
    fn arrivals_with_cv_spans_regimes() {
        let mut rng = SimRng::seed(23);
        for &cv in &[0.0, 0.5, 1.0, 3.0] {
            let arr = arrivals_with_cv(5_000, 2.0, cv, &mut rng);
            assert_eq!(arr.len(), 5_000);
            assert!(arr.windows(2).all(|w| w[0] <= w[1]));
            let gaps: Vec<f64> = arr
                .windows(2)
                .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            let got = var.sqrt() / mean;
            assert!((mean - 2.0).abs() < 0.25, "cv={cv} mean gap {mean}");
            assert!(
                (got - cv).abs() < 0.15 * cv.max(0.5),
                "target {cv} got {got}"
            );
        }
    }

    #[test]
    fn zero_rate_process_is_empty() {
        let proc_ = PoissonProcess::from_per_minute_rates(&[0.0; 10]);
        let mut rng = SimRng::seed(14);
        assert!(proc_.generate(&mut rng).is_empty());
    }
}
