//! Property-based tests for the numerical kernels (Cholesky) and the
//! histogram keep-alive policy's edge cases.
use aquatope::faas::sim::FnWindowStats;
use aquatope::faas::{FunctionId, PoolObservation, PrewarmController};
use aquatope::linalg::{Cholesky, Matrix};
use aquatope::pool::HistogramPolicy;
use aquatope::prelude::*;
use proptest::prelude::*;

/// Builds a symmetric positive-definite matrix A = B·Bᵀ + εI from free
/// entries, so any generated `data` yields a valid Cholesky input.
fn spd_from(data: &[f64], n: usize, ridge: f64) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| data[i * n + j]);
    let mut a = b.matmul(&b.transpose());
    a.add_diagonal(ridge);
    a
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    let mut worst = 0.0_f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            worst = worst.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The factor reproduces its input: L·Lᵀ ≈ A for any SPD matrix.
    #[test]
    fn prop_cholesky_factor_roundtrip(
        n in 1usize..6,
        data in prop::collection::vec(-2.0f64..2.0, 36),
        ridge in 0.1f64..2.0,
    ) {
        let a = spd_from(&data, n, ridge);
        let chol = Cholesky::new(&a).expect("SPD by construction");
        let l = chol.factor();
        let rebuilt = l.matmul(&l.transpose());
        let scale = a.max_abs().max(1.0);
        let err = max_abs_diff(&a, &rebuilt);
        prop_assert!(err <= 1e-9 * scale, "‖L·Lᵀ − A‖∞ = {err} (scale {scale})");
    }

    /// Solving A·x = b through the factor leaves a tiny residual.
    #[test]
    fn prop_cholesky_solve_residual(
        n in 1usize..6,
        data in prop::collection::vec(-2.0f64..2.0, 36),
        rhs in prop::collection::vec(-5.0f64..5.0, 6),
        ridge in 0.1f64..2.0,
    ) {
        let a = spd_from(&data, n, ridge);
        let chol = Cholesky::new(&a).expect("SPD by construction");
        let b = &rhs[..n];
        let x = chol.solve_vec(b);
        let ax = a.matvec(&x);
        let residual = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0_f64, f64::max);
        let scale = b.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        prop_assert!(residual <= 1e-8 * scale, "residual {residual} (scale {scale})");
    }
}

fn observation(stats: Vec<FnWindowStats>, minute: u64) -> PoolObservation {
    PoolObservation {
        now: SimTime::from_secs(60 * minute),
        stats,
    }
}

fn stats(function: usize, invocations: u32, peak: u32) -> FnWindowStats {
    FnWindowStats {
        function: FunctionId(function),
        invocations,
        peak_concurrency: peak,
        booting: 0,
        idle: 0,
        busy: 0,
        failed_boots: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An empty window (no per-function stats at all) never panics and
    /// yields no decisions.
    #[test]
    fn prop_histogram_empty_window(minutes in 1u64..50) {
        let mut p = HistogramPolicy::new();
        for m in 0..minutes {
            let d = p.tick(&observation(Vec::new(), m));
            prop_assert!(d.is_empty());
        }
    }

    /// All-zero counts (function present, never invoked): the keep-alive
    /// stays within the policy's clamp and nothing is pre-warmed.
    #[test]
    fn prop_histogram_all_zero_counts(minutes in 1u64..120, funcs in 1usize..4) {
        let mut p = HistogramPolicy::new();
        for m in 0..minutes {
            let window: Vec<_> = (0..funcs).map(|f| stats(f, 0, 0)).collect();
            let d = p.tick(&observation(window, m));
            prop_assert_eq!(d.len(), funcs);
            for dec in &d {
                let ka_min = dec.keep_alive.as_secs_f64() / 60.0;
                prop_assert!((2.0..=60.0).contains(&ka_min), "keep-alive {ka_min} min");
                prop_assert_eq!(dec.prewarm_target, Some(0));
            }
        }
    }

    /// A perfectly periodic workload collapses the gap histogram into a
    /// single bucket; the keep-alive must track that one gap (plus the
    /// clamp), never the 60-minute cap.
    #[test]
    fn prop_histogram_single_bucket_tracks_period(
        period in 2u64..12,
        peak in 1u32..8,
    ) {
        let mut p = HistogramPolicy::new();
        let mut last = Vec::new();
        for m in 0..20 * period {
            let active = m % period == 0;
            let window = vec![stats(0, u32::from(active) * 2, if active { peak } else { 0 })];
            last = p.tick(&observation(window, m));
        }
        let ka_min = last[0].keep_alive.as_secs_f64() / 60.0;
        let expected = period as f64;
        prop_assert!(
            ka_min >= expected.min(2.0) - 1e-9 && ka_min <= expected + 1.0,
            "period {period} min but keep-alive {ka_min} min"
        );
        // Any pre-warm target stays bounded by the observed concurrency.
        prop_assert!(last[0].prewarm_target.unwrap() <= peak as usize);
    }
}
