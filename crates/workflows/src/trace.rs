//! Azure-Functions-dataset-like invocation traces (paper §7.2).
//!
//! The paper scales down invocation-pattern traces from the Azure Function
//! Dataset and, within each one-minute bucket, generates Poisson traffic.
//! [`RateTraceConfig`] synthesizes per-minute rate series with the same
//! statistical structure — diurnal and weekly seasonality, load bursts, and
//! heavy-tailed variability — and [`TraceBundle`] carries both the rates
//! and the sampled arrival timestamps.

use aqua_sim::{PoissonProcess, SimRng, SimTime};

/// Configuration of a synthetic rate trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTraceConfig {
    /// Trace length in minutes.
    pub minutes: usize,
    /// Mean invocations per minute.
    pub mean_rpm: f64,
    /// Diurnal modulation amplitude in `[0, 1]` (0 = flat).
    pub diurnal: f64,
    /// Weekly modulation amplitude in `[0, 1]`.
    pub weekly: f64,
    /// Per-minute probability that a burst starts.
    pub burst_prob: f64,
    /// Multiplicative burst height (e.g. 3.0 = 3× the base rate).
    pub burst_scale: f64,
    /// Mean burst length in minutes.
    pub burst_len: f64,
    /// Multiplicative log-normal noise CV on each minute's rate.
    pub rate_noise_cv: f64,
    /// Business-hours step: rate is multiplied by `1 + business_hours`
    /// between 09:00 and 17:00 of each simulated day. Sharp, phase-locked
    /// transitions that only time-of-day-aware predictors can anticipate.
    pub business_hours: f64,
    /// Timer-trigger component: every `period` minutes the rate spikes by
    /// `amplitude ×` for one minute — the cron-like invocation pattern that
    /// dominates the Azure Functions dataset.
    pub timer_spike: Option<(u64, f64)>,
}

impl Default for RateTraceConfig {
    /// A daytime-peaking trace with occasional 3× bursts, resembling the
    /// moderately bursty HTTP-triggered applications in the Azure dataset.
    fn default() -> Self {
        RateTraceConfig {
            minutes: 24 * 60,
            mean_rpm: 30.0,
            diurnal: 0.5,
            weekly: 0.1,
            burst_prob: 0.01,
            burst_scale: 3.0,
            burst_len: 5.0,
            rate_noise_cv: 0.2,
            business_hours: 0.0,
            timer_spike: None,
        }
    }
}

impl RateTraceConfig {
    /// A steady trace (no seasonality, no bursts) for control experiments.
    pub fn steady(minutes: usize, mean_rpm: f64) -> Self {
        RateTraceConfig {
            minutes,
            mean_rpm,
            diurnal: 0.0,
            weekly: 0.0,
            burst_prob: 0.0,
            burst_scale: 1.0,
            burst_len: 1.0,
            rate_noise_cv: 0.0,
            business_hours: 0.0,
            timer_spike: None,
        }
    }

    /// A highly fluctuating trace (strong bursts and noise) for the
    /// Fig. 11 adaptation experiment.
    pub fn fluctuating(minutes: usize, mean_rpm: f64) -> Self {
        RateTraceConfig {
            minutes,
            mean_rpm,
            diurnal: 0.6,
            weekly: 0.0,
            burst_prob: 0.04,
            burst_scale: 4.0,
            burst_len: 8.0,
            rate_noise_cv: 0.35,
            business_hours: 0.0,
            timer_spike: None,
        }
    }

    /// Generates the per-minute rate series.
    ///
    /// # Panics
    ///
    /// Panics if `minutes == 0` or `mean_rpm < 0`.
    pub fn rates(&self, rng: &mut SimRng) -> Vec<f64> {
        assert!(self.minutes > 0, "trace needs at least one minute");
        assert!(self.mean_rpm >= 0.0, "rate must be non-negative");
        let day = 24.0 * 60.0;
        let week = 7.0 * day;
        let mut rates = Vec::with_capacity(self.minutes);
        let mut burst_left = 0.0;
        for m in 0..self.minutes {
            let t = m as f64;
            // Seasonal base shape, kept non-negative.
            let diurnal = 1.0 + self.diurnal * (std::f64::consts::TAU * t / day).sin();
            let weekly = 1.0 + self.weekly * (std::f64::consts::TAU * t / week).sin();
            let mut rate = self.mean_rpm * diurnal.max(0.0) * weekly.max(0.0);
            // Phase-locked business-hours step.
            let minute_of_day = m % (24 * 60);
            if self.business_hours > 0.0 && (9 * 60..17 * 60).contains(&minute_of_day) {
                rate *= 1.0 + self.business_hours;
            }
            // Cron-like timer spikes.
            if let Some((period, amplitude)) = self.timer_spike {
                if (m as u64).is_multiple_of(period.max(1)) {
                    rate *= 1.0 + amplitude;
                }
            }
            // Burst process: geometric-length load spikes.
            if burst_left > 0.0 {
                rate *= self.burst_scale;
                burst_left -= 1.0;
            } else if rng.chance(self.burst_prob) {
                burst_left = (self.burst_len * (0.5 + rng.uniform())).max(1.0);
                rate *= self.burst_scale;
            }
            // Per-minute noise.
            if self.rate_noise_cv > 0.0 {
                rate *= aqua_sim::LogNormal::with_mean_cv(1.0, self.rate_noise_cv).sample(rng);
            }
            rates.push(rate.max(0.0));
        }
        rates
    }

    /// Generates the full bundle: rates plus Poisson arrivals.
    pub fn generate(&self, rng: &mut SimRng) -> TraceBundle {
        let rates = self.rates(rng);
        let arrivals = PoissonProcess::from_per_minute_rates(&rates).generate(rng);
        TraceBundle { rates, arrivals }
    }
}

/// A generated trace: per-minute rates and the sampled arrival times.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBundle {
    /// Invocations per minute, one entry per minute.
    pub rates: Vec<f64>,
    /// Arrival timestamps.
    pub arrivals: Vec<SimTime>,
}

impl TraceBundle {
    /// Counts arrivals per minute bucket (the series predictors train on).
    pub fn counts_per_minute(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.rates.len()];
        for t in &self.arrivals {
            let m = (t.as_secs_f64() / 60.0) as usize;
            if m < counts.len() {
                counts[m] += 1.0;
            }
        }
        counts
    }

    /// Coefficient of variation of the inter-arrival times.
    pub fn interarrival_cv(&self) -> f64 {
        if self.arrivals.len() < 3 {
            return 0.0;
        }
        let gaps: Vec<f64> = self
            .arrivals
            .windows(2)
            .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
            .collect();
        let mean = aqua_linalg::mean(&gaps);
        if mean == 0.0 {
            return 0.0;
        }
        aqua_linalg::sample_std(&gaps) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_trace_has_flat_rates() {
        let mut rng = SimRng::seed(1);
        let cfg = RateTraceConfig::steady(100, 12.0);
        let rates = cfg.rates(&mut rng);
        assert_eq!(rates.len(), 100);
        assert!(rates.iter().all(|r| (*r - 12.0).abs() < 1e-9));
    }

    #[test]
    fn arrival_volume_matches_mean() {
        let mut rng = SimRng::seed(2);
        let cfg = RateTraceConfig::steady(200, 30.0);
        let bundle = cfg.generate(&mut rng);
        let got = bundle.arrivals.len() as f64;
        let expect = 200.0 * 30.0;
        assert!((got - expect).abs() < 0.05 * expect, "arrivals {got}");
    }

    #[test]
    fn diurnal_shape_peaks_and_dips() {
        let mut rng = SimRng::seed(3);
        let cfg = RateTraceConfig {
            minutes: 24 * 60,
            diurnal: 0.8,
            burst_prob: 0.0,
            rate_noise_cv: 0.0,
            ..RateTraceConfig::default()
        };
        let rates = cfg.rates(&mut rng);
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        let trough = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(peak / trough.max(1e-9) > 3.0, "peak {peak} trough {trough}");
    }

    #[test]
    fn bursts_raise_interarrival_cv() {
        let mut rng = SimRng::seed(4);
        let calm = RateTraceConfig::steady(400, 20.0).generate(&mut rng);
        let bursty = RateTraceConfig {
            minutes: 400,
            mean_rpm: 20.0,
            diurnal: 0.0,
            weekly: 0.0,
            burst_prob: 0.05,
            burst_scale: 6.0,
            burst_len: 6.0,
            rate_noise_cv: 0.5,
            business_hours: 0.0,
            timer_spike: None,
        }
        .generate(&mut rng);
        assert!(
            bursty.interarrival_cv() > calm.interarrival_cv(),
            "bursty {} calm {}",
            bursty.interarrival_cv(),
            calm.interarrival_cv()
        );
    }

    #[test]
    fn counts_per_minute_bucketizes() {
        let bundle = TraceBundle {
            rates: vec![0.0; 3],
            arrivals: vec![
                SimTime::from_secs(10),
                SimTime::from_secs(30),
                SimTime::from_secs(70),
                SimTime::from_secs(150),
            ],
        };
        assert_eq!(bundle.counts_per_minute(), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn arrivals_are_sorted() {
        for cfg in [
            RateTraceConfig::default(),
            RateTraceConfig::fluctuating(120, 5.0),
        ] {
            let arrivals = cfg.generate(&mut SimRng::seed(2)).arrivals;
            assert!(!arrivals.is_empty());
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = RateTraceConfig::default();
        let a = cfg.generate(&mut SimRng::seed(9));
        let b = cfg.generate(&mut SimRng::seed(9));
        assert_eq!(a, b);
    }
}
