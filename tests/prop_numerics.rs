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

/// The square-storage factorization [`Cholesky::new`] ran before it
/// stored its factor packed, kept as the oracle for the packed factor's
/// bits: left-looking, column by column, over an `n×n` buffer whose upper
/// half stays zero, with the subtraction chains of four rows interleaved.
/// `None` at a non-positive pivot.
fn square_factor(a: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    let a = a.as_slice();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let (head, below) = l.as_mut_slice().split_at_mut((j + 1) * n);
        let row_j = &mut head[j * n..=j * n + j];
        let mut pivot = a[j * n + j];
        for v in &row_j[..j] {
            pivot -= v * v;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return None;
        }
        let diag = pivot.sqrt();
        row_j[j] = diag;
        let lj = &row_j[..j];
        let mut tiles = below.chunks_exact_mut(4 * n);
        let mut a_tiles = a[(j + 1) * n..].chunks_exact(4 * n);
        for (tile, a_tile) in (&mut tiles).zip(&mut a_tiles) {
            square_column_tile::<4>(tile, a_tile, n, lj, diag);
        }
        let rest = tiles.into_remainder().chunks_exact_mut(n);
        for (row, a_row) in rest.zip(a_tiles.remainder().chunks_exact(n)) {
            square_column_tile::<1>(row, a_row, n, lj, diag);
        }
    }
    Some(l)
}

/// Column `j = lj.len()` of [`square_factor`] for `R` rows `n` apart.
fn square_column_tile<const R: usize>(
    rows: &mut [f64],
    a_rows: &[f64],
    n: usize,
    lj: &[f64],
    diag: f64,
) {
    let j = lj.len();
    let mut sums: [f64; R] = std::array::from_fn(|r| a_rows[r * n + j]);
    {
        let li: [&[f64]; R] = std::array::from_fn(|r| &rows[r * n..r * n + j]);
        for (k, ljk) in lj.iter().enumerate() {
            for r in 0..R {
                sums[r] -= li[r][k] * ljk;
            }
        }
    }
    for r in 0..R {
        rows[r * n + j] = sums[r] / diag;
    }
}

/// [`Cholesky::new_with_jitter`]'s ladder over [`square_factor`]:
/// `(jitter, factor)` of the first rung that factors.
fn square_factor_with_jitter(a: &Matrix) -> Option<(f64, Matrix)> {
    if let Some(l) = square_factor(a) {
        return Some((0.0, l));
    }
    let scale = a.max_abs().max(1.0);
    let mut jitter = 1e-10 * scale;
    while jitter <= 1e-4 * scale {
        let mut aj = a.clone();
        aj.add_diagonal(jitter);
        if let Some(l) = square_factor(&aj) {
            return Some((jitter, l));
        }
        jitter *= 10.0;
    }
    None
}

/// An `n×n` test matrix from free entries: `B·Bᵀ + I/2` (SPD), or, when
/// `deficient`, the Gram matrix of `rank < n` columns, which only the
/// jitter ladder factors.
fn test_matrix(data: &[f64], n: usize, deficient: bool) -> Matrix {
    if deficient {
        let rank = 1 + n / 3;
        let b = Matrix::from_fn(n, rank, |i, j| data[i * rank + j]);
        b.matmul(&b.transpose())
    } else {
        spd_from(data, n, 0.5)
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed factor, read back square, is the square-storage loop's
    /// bit for bit, jitter rung included.
    #[test]
    fn prop_packed_factor_matches_square_oracle(
        n in 1usize..70,
        deficient in 0usize..2,
        data in prop::collection::vec(-2.0f64..2.0, 70 * 70),
    ) {
        let a = test_matrix(&data, n, deficient == 1 && n > 1);
        match (Cholesky::new_with_jitter(&a), square_factor_with_jitter(&a)) {
            (Ok(c), Some((jitter, l))) => {
                prop_assert_eq!(c.jitter().to_bits(), jitter.to_bits());
                prop_assert!(bits(&c.factor()) == bits(&l), "n = {}", n);
            }
            (Err(_), None) => {}
            (got, want) => panic!("ladder disagrees: {got:?} vs {want:?}"),
        }
    }

    /// A chain of in-place row appends is the factor of the bordered
    /// matrix (plus the base's jitter), bit for bit; an append that fails
    /// fails at that matrix's pivot and leaves the factor as it was.
    #[test]
    fn prop_in_place_appends_match_bordered_factor(
        n in 2usize..48,
        base in 1usize..8,
        deficient in 0usize..2,
        data in prop::collection::vec(-2.0f64..2.0, 48 * 48),
    ) {
        let base = base.min(n - 1);
        let a = test_matrix(&data, n, deficient == 1);
        let lead = Matrix::from_fn(base, base, |i, j| a[(i, j)]);
        let Ok(mut c) = Cholesky::new_with_jitter(&lead) else {
            return;
        };
        for t in base..n {
            let col: Vec<f64> = (0..t).map(|i| a[(t, i)]).collect();
            let before = c.clone();
            let copied = c.extend(&col, a[(t, t)]);
            let appended = c.extend_in_place(&col, a[(t, t)]);
            let mut bordered = Matrix::from_fn(t + 1, t + 1, |i, j| a[(i, j)]);
            bordered.add_diagonal(c.jitter());
            match appended {
                Ok(()) => {
                    let full = Cholesky::new(&bordered).expect("same pivots succeed");
                    prop_assert!(bits(&c.factor()) == bits(&full.factor()), "t = {}", t);
                    prop_assert!(copied == Ok(c.clone()));
                }
                Err(e) => {
                    prop_assert_eq!(e.pivot, t);
                    prop_assert_eq!(Cholesky::new(&bordered).map(|_| ()), Err(e.clone()));
                    prop_assert!(copied == Err(e));
                    prop_assert!(c == before, "a failed append changed the factor");
                    break;
                }
            }
        }
    }

    /// The multi-right-hand-side solves equal per-column solves bit for
    /// bit, across the forward solve's 32-row panels.
    #[test]
    fn prop_matrix_solves_match_per_column(
        n in 1usize..80,
        r in 1usize..7,
        data in prop::collection::vec(-2.0f64..2.0, 80 * 80),
        rhs in prop::collection::vec(-5.0f64..5.0, 80 * 6),
    ) {
        let c = Cholesky::new(&spd_from(&data, n, 0.5)).expect("SPD by construction");
        let b = Matrix::from_fn(n, r, |i, j| rhs[i * 6 + j]);
        let fwd = c.forward_solve_matrix(&b);
        let bwd = c.backward_solve_matrix(&b);
        for j in 0..r {
            let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
            let f = c.forward_solve(&col);
            let g = c.backward_solve(&col);
            for i in 0..n {
                prop_assert_eq!(fwd[(i, j)].to_bits(), f[i].to_bits());
                prop_assert_eq!(bwd[(i, j)].to_bits(), g[i].to_bits());
            }
        }
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
