//! Replicate and latency statistics shared across the workspace.
//!
//! One home for the percentile/CI/paired-delta arithmetic that the
//! scenario-matrix evaluator, the benches, and the control-plane service
//! all need: replicate confidence intervals ([`mean_ci95`]), an exact
//! paired sign test ([`sign_test_p`], [`Comparison`]), and one-pass
//! latency summaries ([`LatencySummary`]).
//!
//! Cells and benches are replicated over seeds, so "A beats B on
//! scenario C" is a paired comparison: both policies saw the *same*
//! arrival stream per seed, and the per-seed delta cancels the workload
//! draw. The sign test makes no distributional assumption — with a
//! handful of seeds that is the honest choice (a t-test on 5
//! QoS-violation rates is theater).

/// Mean and 95% confidence half-width of seed replicates. Degenerate
/// inputs (no or one replicate) report a zero half-width.
pub fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let m = aqua_linalg::mean(xs);
    if xs.len() < 2 {
        return (m, 0.0);
    }
    let hw = 1.96 * aqua_linalg::sample_std(xs) / (xs.len() as f64).sqrt();
    (m, hw)
}

/// Exact two-sided sign-test p-value for paired deltas. Zero deltas are
/// dropped (the standard treatment); with no informative pair the test is
/// maximally inconclusive (p = 1).
pub fn sign_test_p(deltas: &[f64]) -> f64 {
    let pos = deltas.iter().filter(|&&d| d > 0.0).count();
    let neg = deltas.iter().filter(|&&d| d < 0.0).count();
    let n = pos + neg;
    if n == 0 {
        return 1.0;
    }
    let k = pos.min(neg);
    let tail: f64 = (0..=k).map(|i| binomial(n, i)).sum();
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// Binomial coefficient C(n, k) as f64 (n is a seed count — tiny).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut c = 1.0;
    for i in 0..k {
        c = c * (n - i) as f64 / (i + 1) as f64;
    }
    c
}

/// One head-to-head claim: policy A vs policy B on one scenario and one
/// metric, over paired seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Scenario the pairing ran on.
    pub scenario: String,
    /// Metric compared (lower is better for every matrix metric).
    pub metric: String,
    /// The challenger.
    pub policy_a: String,
    /// The incumbent.
    pub policy_b: String,
    /// Mean of the per-seed deltas `a − b` (negative favors A).
    pub mean_delta: f64,
    /// Seeds where A was strictly lower.
    pub wins: usize,
    /// Seeds where A was strictly higher.
    pub losses: usize,
    /// Exact ties.
    pub ties: usize,
    /// Two-sided sign-test p-value over the non-tied pairs.
    pub p_value: f64,
}

impl Comparison {
    /// Pairs two per-seed metric vectors (same seed order).
    ///
    /// # Panics
    ///
    /// Panics if the replicate vectors differ in length.
    pub fn paired(
        scenario: &str,
        metric: &str,
        (policy_a, a): (&str, &[f64]),
        (policy_b, b): (&str, &[f64]),
    ) -> Self {
        assert_eq!(a.len(), b.len(), "paired comparison needs equal replicates");
        let deltas: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        Comparison {
            scenario: scenario.to_string(),
            metric: metric.to_string(),
            policy_a: policy_a.to_string(),
            policy_b: policy_b.to_string(),
            mean_delta: if deltas.is_empty() {
                0.0
            } else {
                aqua_linalg::mean(&deltas)
            },
            wins: deltas.iter().filter(|&&d| d < 0.0).count(),
            losses: deltas.iter().filter(|&&d| d > 0.0).count(),
            ties: deltas.iter().filter(|&&d| d == 0.0).count(),
            p_value: sign_test_p(&deltas),
        }
    }

    /// Whether A beats B at significance `alpha`: the mean delta favors A
    /// *and* the sign test rejects "coin flip".
    pub fn a_beats_b(&self, alpha: f64) -> bool {
        self.mean_delta < 0.0 && self.p_value <= alpha
    }
}

/// A one-pass percentile summary of a latency (or any lower-is-better)
/// sample — the reduction the scenario matrix applies per cell and the
/// control-plane service applies to its live completion stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes `xs`. An empty sample reports all-zero statistics so
    /// callers (e.g. a run that shed every request) need no special case.
    pub fn of(xs: &[f64]) -> Self {
        LatencySummary::of_in_place(&mut xs.to_vec())
    }

    /// [`LatencySummary::of`] without the copy, for a caller done with
    /// the sample: the mean and max are folded in the sample's own order,
    /// then the percentiles are selected in place
    /// ([`aqua_linalg::select_quantiles`]), which reorders `xs`.
    pub fn of_in_place(xs: &mut [f64]) -> Self {
        if xs.is_empty() {
            return LatencySummary::default();
        }
        let mean = aqua_linalg::mean(xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let [p50, p90, p99] = aqua_linalg::select_quantiles(xs, [0.5, 0.9, 0.99]);
        LatencySummary {
            count: xs.len(),
            mean,
            p50,
            p90,
            p99,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_of_constant_replicates_is_tight() {
        let (m, hw) = mean_ci95(&[0.2, 0.2, 0.2, 0.2]);
        assert_eq!(m, 0.2);
        assert_eq!(hw, 0.0);
    }

    #[test]
    fn ci_degenerate_inputs() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn sign_test_matches_hand_computation() {
        // 5 positive, 0 negative: p = 2 × C(5,0)/2^5 = 1/16.
        let p = sign_test_p(&[1.0, 2.0, 0.5, 3.0, 0.1]);
        assert!((p - 2.0 / 32.0).abs() < 1e-12, "{p}");
        // 3 vs 2: tail = C(5,0)+C(5,1)+C(5,2) = 16, p = 1.
        assert_eq!(sign_test_p(&[1.0, 1.0, 1.0, -1.0, -1.0]), 1.0);
        // All zeros: inconclusive.
        assert_eq!(sign_test_p(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(6, 3), 20.0);
    }

    #[test]
    fn paired_comparison_decides() {
        let a = [0.1, 0.1, 0.2, 0.0, 0.1, 0.1];
        let b = [0.3, 0.4, 0.3, 0.2, 0.2, 0.3];
        let c = Comparison::paired("diurnal", "qos_violation_rate", ("aqua", &a), ("fixed", &b));
        assert_eq!(c.wins, 6);
        assert_eq!(c.losses, 0);
        assert!(c.mean_delta < 0.0);
        assert!((c.p_value - 2.0 / 64.0).abs() < 1e-12);
        assert!(c.a_beats_b(0.05));
        assert!(!c.a_beats_b(0.01), "6 seeds cannot reach 0.01");
    }

    #[test]
    fn symmetric_comparison_never_beats() {
        let a = [0.1, 0.3];
        let b = [0.3, 0.1];
        let c = Comparison::paired("s", "m", ("a", &a), ("b", &b));
        assert!(!c.a_beats_b(0.5));
        assert_eq!(c.p_value, 1.0);
    }

    #[test]
    fn latency_summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::of(&xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
    }

    /// One pass of selections serves all three percentiles and reads what
    /// three `quantile` calls read, on an unsorted sample with duplicates.
    #[test]
    fn latency_summary_percentiles_are_quantile_bits() {
        let xs: Vec<f64> = (0..1_000)
            .map(|i| ((i * 37 % 101) as f64 * 0.73).sin().abs() * 4.0)
            .collect();
        let s = LatencySummary::of(&xs);
        for (got, q) in [(s.p50, 0.5), (s.p90, 0.9), (s.p99, 0.99)] {
            assert_eq!(got.to_bits(), aqua_linalg::quantile(&xs, q).to_bits());
        }
    }

    #[test]
    fn latency_summary_empty_is_zero() {
        assert_eq!(LatencySummary::of(&[]), LatencySummary::default());
    }
}
