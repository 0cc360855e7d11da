//! Small order statistics: medians, and the rule that picks which tail
//! percentile a sample is large enough to report.

/// Tail percentiles the benchmark may report, highest first.
pub const TAILS: [(&str, u32); 3] = [("p99", 99), ("p95", 95), ("p90", 90)];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile chosen for a sample of a given size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPick {
    /// `p99`, `p95` or `p90`.
    pub label: &'static str,
    /// The percentile, 0–100.
    pub pct: u32,
    /// Size of the sample the pick was made for.
    pub samples: usize,
}

/// The highest of p99/p95/p90 with at least [`MIN_BEYOND`] of `samples`
/// beyond it, or `None` when even p90 has fewer.
pub fn tail_pick(samples: usize) -> Option<TailPick> {
    TAILS
        .iter()
        .find(|&&(_, pct)| supports(samples, pct))
        .map(|&(label, pct)| TailPick {
            label,
            pct,
            samples,
        })
}

/// Whether at least [`MIN_BEYOND`] of `samples` lie beyond percentile
/// `pct` (integer arithmetic: `100 × 0.1` is not 10 in floating point).
pub fn supports(samples: usize, pct: u32) -> bool {
    samples * (100 - pct as usize) >= MIN_BEYOND * 100
}

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    aqua_linalg::quantile(xs, 0.5)
}

/// Median wall-clock nanoseconds per call of `f` over `reps` timed calls.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_pick_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_pick(99), None, "p90 of 99 has 9.9 beyond");
        let p = tail_pick(100).expect("p90 of 100 has 10 beyond");
        assert_eq!((p.label, p.samples), ("p90", 100));
        assert_eq!(tail_pick(185).unwrap().label, "p90");
        assert_eq!(tail_pick(199).unwrap().label, "p90");
        assert_eq!(tail_pick(200).unwrap().label, "p95");
        assert_eq!(tail_pick(999).unwrap().label, "p95");
        let p = tail_pick(1000).unwrap();
        assert_eq!((p.label, p.pct, p.samples), ("p99", 99, 1000));
    }

    #[test]
    fn supports_matches_tail_pick() {
        for n in [50, 100, 185, 200, 1000, 20_000] {
            for (_, pct) in TAILS {
                let picked_at_least = tail_pick(n).is_some_and(|p| p.pct >= pct);
                assert_eq!(supports(n, pct), picked_at_least, "n={n} pct={pct}");
            }
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
