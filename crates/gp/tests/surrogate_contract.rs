//! Accuracy and determinism contract for the surrogate tiers.
//!
//! The sparse tier (DTC inducing-point GP) must stay within a documented
//! tolerance of the exact GP it approximates: at full support (`m = n`)
//! the two posteriors are algebraically identical, so means agree to
//! 1e-5 and standard deviations to 1e-4 on held-out points (DESIGN.md,
//! "Surrogate tiers"). The exact tier itself must be **bit-identical**
//! across the gemm-blocked batch path and the scalar pointwise path —
//! the same to_bits contract `batched_equiv` enforces for the NN engine,
//! and what keeps golden traces byte-stable now that kernel matrices are
//! built through `aqua-linalg` gemm. A `DtcBasis` refit after appends
//! and front drops must equal a from-scratch sparse fit bit for bit,
//! whichever of its two paths (extend or re-derive) it took.

use aqua_gp::{DtcBasis, Gp, GpConfig, Matern52, SparseGp, Surrogate};
use aqua_sim::SimRng;
use proptest::prelude::*;

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SimRng::seed(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.uniform()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (3.0 * x[0]).sin() + x[1..].iter().sum::<f64>() + rng.normal(0.0, 0.01))
        .collect();
    (xs, ys)
}

fn queries(k: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SimRng::seed(seed);
    (0..k)
        .map(|_| (0..d).map(|_| rng.uniform()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-support sparse tier (m = n) reproduces the exact posterior
    /// within the documented tolerance on held-out points, across random
    /// training sets, kernels, and noise levels.
    #[test]
    fn prop_full_support_sparse_matches_exact(seed in 0u64..1000,
                                              n in 8usize..24,
                                              d in 2usize..4,
                                              ls in 0.3f64..1.5,
                                              noise in 1e-4f64..1e-2) {
        let (xs, ys) = dataset(n, d, seed);
        let kernel = Matern52::new(ls, 1.0);
        let cfg = GpConfig {
            noise,
            lengthscale_grid: vec![ls],
            outputscale_grid: vec![1.0],
            refit_every: 0,
        };
        let exact = Gp::fit(xs.clone(), ys.clone(), cfg).unwrap();
        let sparse = SparseGp::fit_points(&xs, &ys, kernel, noise, n).unwrap();
        for q in queries(8, d, seed ^ 0xA5A5) {
            let (me, ve) = Surrogate::predict(&exact, &q);
            let (ms, vs) = Surrogate::predict(&sparse, &q);
            prop_assert!((me - ms).abs() < 1e-5, "mean {me} vs {ms}");
            prop_assert!((ve.sqrt() - vs.sqrt()).abs() < 1e-4,
                         "std {} vs {}", ve.sqrt(), vs.sqrt());
        }
    }

    /// Reduced support stays a sane posterior: finite means near the
    /// target range and non-negative variances that never exceed the
    /// prior (DTC variance is the exact prior minus a PSD correction
    /// plus the A-term, clamped at zero).
    #[test]
    fn prop_reduced_support_posterior_is_sane(seed in 0u64..1000,
                                              n in 16usize..48,
                                              m in 4usize..12,
                                              ls in 0.3f64..1.5) {
        let (xs, ys) = dataset(n, 3, seed);
        let kernel = Matern52::new(ls, 1.0);
        let sparse = SparseGp::fit_points(&xs, &ys, kernel, 1e-3, m).unwrap();
        prop_assert_eq!(sparse.support_size(), m);
        for q in queries(6, 3, seed ^ 0x5A5A) {
            let (mean, var) = Surrogate::predict(&sparse, &q);
            prop_assert!(mean.is_finite() && var.is_finite());
            prop_assert!(var >= 0.0, "variance {var} must be non-negative");
        }
    }

    /// Exact tier: the gemm-routed batch path is bit-identical to the
    /// scalar pointwise path (to_bits, mirroring `batched_equiv`).
    #[test]
    fn prop_exact_batch_bit_identical(seed in 0u64..1000,
                                      n in 6usize..20,
                                      d in 2usize..4,
                                      k in 1usize..9) {
        let (xs, ys) = dataset(n, d, seed);
        let gp = Gp::fit(xs, ys, GpConfig::with_noise(1e-3)).unwrap();
        let qs = queries(k, d, seed ^ 0x1234);
        let batch = Surrogate::predict_batch(&gp, &qs);
        for (i, q) in qs.iter().enumerate() {
            let (mean, var) = Surrogate::predict(&gp, q);
            prop_assert_eq!(batch[i].0.to_bits(), mean.to_bits(), "mean {}", i);
            prop_assert_eq!(batch[i].1.to_bits(), var.to_bits(), "var {}", i);
        }
    }

    /// Sparse tier: the gemm-blocked multi-RHS batch path is
    /// bit-identical to the scalar pointwise path.
    #[test]
    fn prop_sparse_batch_bit_identical(seed in 0u64..1000,
                                       n in 12usize..40,
                                       m in 4usize..12,
                                       k in 1usize..9) {
        let (xs, ys) = dataset(n, 3, seed);
        let sparse = SparseGp::fit_points(&xs, &ys, Matern52::new(0.5, 1.0), 1e-3, m).unwrap();
        let qs = queries(k, 3, seed ^ 0x4321);
        let batch = Surrogate::predict_batch(&sparse, &qs);
        for (i, q) in qs.iter().enumerate() {
            let (mean, var) = Surrogate::predict(&sparse, q);
            prop_assert_eq!(batch[i].0.to_bits(), mean.to_bits(), "mean {}", i);
            prop_assert_eq!(batch[i].1.to_bits(), var.to_bits(), "var {}", i);
        }
    }

    /// Fantasy conditioning is bit-identical to clone-and-absorb on the
    /// sparse tier and to `with_observation` on the exact tier — the
    /// Kriging-believer proposal loop depends on both.
    #[test]
    fn prop_fantasized_matches_incremental(seed in 0u64..1000,
                                           n in 10usize..30,
                                           ynew in -2.0f64..2.0) {
        let (xs, ys) = dataset(n, 3, seed);
        let xnew = queries(1, 3, seed ^ 0x7777).pop().unwrap();
        let qs = queries(5, 3, seed ^ 0x8888);

        let sparse = SparseGp::fit_points(&xs, &ys, Matern52::new(0.5, 1.0), 1e-3, 8).unwrap();
        let fantasy = Surrogate::fantasized(&sparse, xnew.clone(), ynew).unwrap();
        let mut absorbed = sparse.clone();
        absorbed.absorb(&xnew, ynew);
        for q in &qs {
            let (mf, vf) = Surrogate::predict(&fantasy, q);
            let (ma, va) = Surrogate::predict(&absorbed, q);
            prop_assert_eq!(mf.to_bits(), ma.to_bits());
            prop_assert_eq!(vf.to_bits(), va.to_bits());
        }

        let cfg = GpConfig { refit_every: 0, ..GpConfig::with_noise(1e-3) };
        let exact = Gp::fit(xs, ys, cfg).unwrap();
        let efantasy = Surrogate::fantasized(&exact, xnew.clone(), ynew).unwrap();
        let eobs = exact.with_observation(xnew, ynew).unwrap();
        for q in &qs {
            let (mf, vf) = Surrogate::predict(&efantasy, q);
            let (mo, vo) = Surrogate::predict(&eobs, q);
            prop_assert_eq!(mf.to_bits(), mo.to_bits());
            prop_assert_eq!(vf.to_bits(), vo.to_bits());
        }
    }

    /// A `DtcBasis` refit after any sequence of appends and front drops
    /// is a from-scratch `SparseGp::fit` over the rows it holds, bit for
    /// bit: inducing indices, pointwise and batch posteriors, and support
    /// samples. Appends mix copies of a few recurring points (the
    /// saturated-clock regime, where the selection holds and the fold
    /// extends) with fresh points that can win a greedy step.
    #[test]
    fn prop_incremental_basis_matches_scratch_fit(seed in 0u64..1000,
                                                  d in 2usize..4,
                                                  m in 4usize..12,
                                                  ls in 0.3f64..1.5) {
        let mut rng = SimRng::seed(seed);
        let kernel = Matern52::new(ls, 1.0);
        let pool = queries(6, d, seed ^ 0x2468);
        let qs = queries(5, d, seed ^ 0x1357);
        let z: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..m).map(|_| rng.standard_normal()).collect())
            .collect();
        let mut basis = DtcBasis::new(kernel, 1e-3, m);
        let (mut xs, mut ys): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        for _ in 0..12 {
            match rng.below(6) {
                0 => {
                    let k = rng.below(8).min(xs.len());
                    basis.drop_front(k);
                    xs.drain(..k);
                    ys.drain(..k);
                }
                op => {
                    for _ in 0..1 + rng.below(10) {
                        let x = if op == 1 {
                            (0..d).map(|_| rng.uniform_range(-0.3, 1.3)).collect()
                        } else {
                            pool[rng.below(pool.len())].clone()
                        };
                        let y = x.iter().sum::<f64>() + rng.normal(0.0, 0.1);
                        basis.push(&x, y);
                        xs.push(x);
                        ys.push(y);
                    }
                }
            }
            let scratch = SparseGp::fit_points(&xs, &ys, kernel, 1e-3, m);
            let (inc, scratch) = match (basis.fit(), scratch) {
                (Ok(inc), Ok(scratch)) => (inc, scratch),
                (inc, scratch) => {
                    prop_assert_eq!(inc.err(), scratch.err());
                    continue;
                }
            };
            prop_assert_eq!(inc.inducing_indices(), scratch.inducing_indices());
            for q in &qs {
                let (a, b) = (inc.predict(q), scratch.predict(q));
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            let (ba, bb) = (inc.predict_batch(&qs), scratch.predict_batch(&qs));
            for (a, b) in ba.iter().zip(&bb) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            let support = inc.support_size();
            let zs: Vec<Vec<f64>> = z.iter().map(|r| r[..support].to_vec()).collect();
            let (sa, sb) = (
                inc.posterior_samples_at_support(&zs),
                scratch.posterior_samples_at_support(&zs),
            );
            for (ra, rb) in sa.iter().zip(&sb) {
                for (a, b) in ra.iter().zip(rb) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Rank-1 absorption coarsely tracks a from-scratch rebuild with the
    /// same kernel. The rebuild reselects its inducing set and refreshes
    /// target standardization while absorption freezes both, so this is
    /// a drift bound (the online tier rebuilds periodically to reconverge),
    /// not a tight equivalence.
    #[test]
    fn prop_absorb_tracks_rebuild(seed in 0u64..1000, n in 16usize..32) {
        let (xs, ys) = dataset(n + 1, 3, seed);
        let kernel = Matern52::new(0.6, 1.0);
        let mut inc = SparseGp::fit_points(&xs[..n], &ys[..n], kernel, 0.05, n).unwrap();
        inc.absorb(&xs[n], ys[n]);
        let rebuilt = SparseGp::fit_points(&xs, &ys, kernel, 0.05, n).unwrap();
        for q in queries(6, 3, seed ^ 0x9999) {
            let (mi, _) = Surrogate::predict(&inc, &q);
            let (mr, _) = Surrogate::predict(&rebuilt, &q);
            prop_assert!((mi - mr).abs() < 0.5, "{mi} vs {mr}");
        }
    }
}
