//! Acquisition functions: EI, noisy EI, the constraint-weighted variant,
//! and greedy batch selection (paper §5.3, "customized acquisition
//! function").
//!
//! Everything here is generic over [`Surrogate`], so the same proposal
//! machinery runs against the exact [`crate::Gp`] tier and the sparse
//! inducing-point tier. On the exact tier the generic code monomorphizes
//! to exactly the concrete code it replaced — results are bit-identical.

use aqua_linalg::{normal_cdf, normal_pdf};

use crate::qmc::Halton;
use crate::surrogate::Surrogate;

/// EI from posterior statistics — the shared core every candidate
/// evaluation funnels through, so scoring one candidate against many
/// incumbents predicts once.
fn ei_from_stats(mean: f64, sd: f64, best: f64) -> f64 {
    if sd < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / sd;
    // Analytically non-negative; clamp away CDF-approximation rounding.
    ((best - mean) * normal_cdf(z) + sd * normal_pdf(z)).max(0.0)
}

/// Classic expected improvement for minimization against a known incumbent
/// `best`: `EI(x) = E[max(best − f(x), 0)]`.
///
/// # Examples
///
/// ```
/// use aqua_gp::{expected_improvement, Gp, GpConfig};
///
/// let xs = vec![vec![0.0], vec![1.0]];
/// let ys = vec![1.0, 0.5];
/// let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
/// let ei = expected_improvement(&gp, &[0.9], 0.5);
/// assert!(ei >= 0.0);
/// ```
pub fn expected_improvement<S: Surrogate>(gp: &S, x: &[f64], best: f64) -> f64 {
    let (mean, var) = gp.predict(x);
    ei_from_stats(mean, var.sqrt(), best)
}

/// Feasibility weight from posterior statistics — shared by the
/// point-wise and batch scoring paths so both round identically.
fn feasible_from_stats(mean: f64, sd: f64, threshold: f64) -> f64 {
    if sd < 1e-12 {
        return if mean <= threshold { 1.0 } else { 0.0 };
    }
    normal_cdf((threshold - mean) / sd)
}

/// Probability that the constraint GP's latent value at `x` is below
/// `threshold` — Gardner et al.'s feasibility weight.
pub fn probability_feasible<S: Surrogate>(constraint_gp: &S, x: &[f64], threshold: f64) -> f64 {
    let (mean, var) = constraint_gp.predict(x);
    feasible_from_stats(mean, var.sqrt(), threshold)
}

/// Configuration for noisy-EI integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeiConfig {
    /// Number of quasi-Monte-Carlo posterior samples of the incumbent.
    pub qmc_samples: usize,
}

impl Default for NeiConfig {
    fn default() -> Self {
        NeiConfig { qmc_samples: 32 }
    }
}

/// Constrained **noisy** expected improvement.
///
/// Under observation noise the best observed value is not known exactly.
/// Following Letham et al., we integrate EI over joint posterior samples of
/// the latent function at the observed points: each QMC sample yields an
/// incumbent (the best *feasible* latent value under a paired sample of the
/// constraint GP), EI is evaluated against it, and the average is weighted
/// by the probability that `x` itself is feasible.
///
/// `threshold` is the QoS bound on the constraint GP's output (end-to-end
/// latency); `cost_gp` is minimized.
pub fn constrained_nei<C: Surrogate, K: Surrogate>(
    cost_gp: &C,
    constraint_gp: &K,
    threshold: f64,
    x: &[f64],
    config: NeiConfig,
) -> f64 {
    let incumbents = nei_incumbents(cost_gp, constraint_gp, threshold, config);
    nei_score(cost_gp, constraint_gp, threshold, x, &incumbents)
}

/// QMC incumbent samples of the noisy-EI integral — one per posterior
/// draw, independent of the candidate being scored, so a whole candidate
/// pool can share them.
fn nei_incumbents<C: Surrogate, K: Surrogate>(
    cost_gp: &C,
    constraint_gp: &K,
    threshold: f64,
    config: NeiConfig,
) -> Vec<f64> {
    let m = config.qmc_samples.max(1);
    // Quasi-random standard-normal draws per GP. The cost GP may carry
    // extra fantasy observations (batch selection), so each GP gets a
    // stream sized to its own support set; a 16-dim Halton stream is
    // chunked across coordinates.
    let mut h = Halton::new(16);
    let z_cost = h.normal_rows(m, cost_gp.support_len());
    let z_con = h.normal_rows(m, constraint_gp.support_len());

    let cost_samples = cost_gp.posterior_samples_at_support(&z_cost);
    let con_samples = constraint_gp.posterior_samples_at_support(&z_con);
    // Paired support points (training observations on the exact tier);
    // support points beyond this prefix have no constraint sample and are
    // excluded from the incumbent.
    let paired = cost_gp.support_len().min(constraint_gp.support_len());

    cost_samples
        .iter()
        .zip(&con_samples)
        .map(|(cs, ks)| {
            // Incumbent: best sampled cost among feasible points; if no
            // sampled point is feasible, use the overall best (optimistic
            // fallback that keeps exploration alive early on).
            let feasible_best = cs[..paired]
                .iter()
                .zip(&ks[..paired])
                .filter(|(_, k)| **k <= threshold)
                .map(|(c, _)| *c)
                .fold(f64::INFINITY, f64::min);
            if feasible_best.is_finite() {
                feasible_best
            } else {
                cs.iter().cloned().fold(f64::INFINITY, f64::min)
            }
        })
        .collect()
}

/// EI against each incumbent, averaged and feasibility-weighted — the
/// per-candidate half of [`constrained_nei`]. The candidate's posterior
/// is computed once and shared across every incumbent (the prediction is
/// pure, so hoisting it out of the incumbent loop is bit-identical to
/// per-incumbent [`expected_improvement`] calls — and removes the O(n²)
/// solve from all but one of them).
fn nei_score<C: Surrogate, K: Surrogate>(
    cost_gp: &C,
    constraint_gp: &K,
    threshold: f64,
    x: &[f64],
    incumbents: &[f64],
) -> f64 {
    let (mean, var) = cost_gp.predict(x);
    let sd = var.sqrt();
    let mut acc = 0.0;
    for &incumbent in incumbents {
        acc += ei_from_stats(mean, sd, incumbent);
    }
    (acc / incumbents.len() as f64) * probability_feasible(constraint_gp, x, threshold)
}

/// Scores every candidate with one shared QMC incumbent draw instead of
/// regenerating the stream (and re-sampling both posteriors) per call,
/// and one [`Surrogate::predict_batch`] per GP instead of per-candidate
/// predictions — the sparse tier answers the whole pool with a single
/// gemm plus two blocked multi-RHS solves, the exact tier point by point
/// on the caller's thread. Each result is bit-identical to calling
/// [`constrained_nei`] on that candidate alone: a fresh 16-dim Halton
/// stream produces the same draw sequence for every candidate index
/// anyway, and `predict_batch` is contractually bit-identical to
/// point-wise `predict`.
pub fn constrained_nei_batch<C: Surrogate, K: Surrogate>(
    cost_gp: &C,
    constraint_gp: &K,
    threshold: f64,
    candidates: &[Vec<f64>],
    config: NeiConfig,
) -> Vec<f64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let incumbents = nei_incumbents(cost_gp, constraint_gp, threshold, config);
    let cost_stats = cost_gp.predict_batch(candidates);
    let con_stats = constraint_gp.predict_batch(candidates);
    cost_stats
        .iter()
        .zip(&con_stats)
        .map(|(&(mean, var), &(con_mean, con_var))| {
            let sd = var.sqrt();
            let mut acc = 0.0;
            for &incumbent in &incumbents {
                acc += ei_from_stats(mean, sd, incumbent);
            }
            (acc / incumbents.len() as f64)
                * feasible_from_stats(con_mean, con_var.sqrt(), threshold)
        })
        .collect()
}

/// Selects a batch of `q` candidate indices (into `candidates`) by greedy
/// Kriging-believer fantasization: after each pick, the cost GP is
/// conditioned on its own posterior mean at the pick, so later picks spread
/// out instead of piling onto one optimum (paper's batch size is 3).
///
/// Returns fewer than `q` indices only if `candidates` is smaller than `q`.
///
/// # Panics
///
/// Panics if `q == 0` or `candidates` is empty.
pub fn propose_batch<C: Surrogate, K: Surrogate>(
    cost_gp: &C,
    constraint_gp: &K,
    threshold: f64,
    candidates: &[Vec<f64>],
    q: usize,
    config: NeiConfig,
) -> Vec<usize> {
    assert!(q > 0, "batch size must be positive");
    assert!(!candidates.is_empty(), "no candidates supplied");
    let mut picked = Vec::with_capacity(q);
    let mut fantasy = cost_gp.clone();
    for _ in 0..q.min(candidates.len()) {
        // One shared incumbent draw per fantasy round; already-picked
        // indices are scored too (the scorer is pure) but skipped below,
        // preserving the sequential first-best tie-breaking exactly.
        let scores = constrained_nei_batch(&fantasy, constraint_gp, threshold, candidates, config);
        let mut best_idx = None;
        let mut best_val = f64::NEG_INFINITY;
        for (i, &v) in scores.iter().enumerate() {
            if picked.contains(&i) {
                continue;
            }
            if v > best_val {
                best_val = v;
                best_idx = Some(i);
            }
        }
        let idx = best_idx.expect("candidates remain");
        picked.push(idx);
        // Fantasize the observation at the pick (Kriging believer).
        let (mean, _) = fantasy.predict(&candidates[idx]);
        if let Some(updated) = fantasy.fantasized(candidates[idx].clone(), mean) {
            fantasy = updated;
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::{Gp, GpConfig};

    fn toy_gps() -> (Gp, Gp) {
        // Cost decreases with x; latency increases with x (trade-off).
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let cost: Vec<f64> = xs.iter().map(|x| 2.0 - x[0]).collect();
        let lat: Vec<f64> = xs.iter().map(|x| 0.5 + 2.0 * x[0]).collect();
        let cost_gp = Gp::fit(xs.clone(), cost, GpConfig::with_noise(0.01)).unwrap();
        let lat_gp = Gp::fit(xs, lat, GpConfig::with_noise(0.01)).unwrap();
        (cost_gp, lat_gp)
    }

    #[test]
    fn ei_is_nonnegative_and_zero_far_above_best() {
        let (cost_gp, _) = toy_gps();
        for i in 0..10 {
            let x = [i as f64 / 9.0];
            assert!(expected_improvement(&cost_gp, &x, 1.5) >= 0.0);
        }
        // Incumbent far below anything achievable → EI ≈ 0.
        let ei = expected_improvement(&cost_gp, &[0.0], -100.0);
        assert!(ei < 1e-6);
    }

    #[test]
    fn ei_grows_with_better_posterior_mean() {
        let (cost_gp, _) = toy_gps();
        // x = 1 has the lowest cost; EI vs a mid incumbent should be larger there.
        let ei_low = expected_improvement(&cost_gp, &[1.0], 1.5);
        let ei_high = expected_improvement(&cost_gp, &[0.0], 1.5);
        assert!(ei_low > ei_high);
    }

    #[test]
    fn feasibility_reflects_constraint() {
        let (_, lat_gp) = toy_gps();
        // Threshold 1.0: x=0 (lat 0.5) feasible, x=1 (lat 2.5) not.
        assert!(probability_feasible(&lat_gp, &[0.0], 1.0) > 0.9);
        assert!(probability_feasible(&lat_gp, &[1.0], 1.0) < 0.1);
    }

    #[test]
    fn constrained_nei_prefers_feasible_improvement() {
        let (cost_gp, lat_gp) = toy_gps();
        let cfg = NeiConfig { qmc_samples: 16 };
        // With threshold 1.5 (feasible up to x = 0.5), the acquisition
        // should peak in the feasible region near the boundary, not at the
        // infeasible global cost optimum x = 1.
        let a_feasible = constrained_nei(&cost_gp, &lat_gp, 1.5, &[0.45], cfg);
        let a_infeasible = constrained_nei(&cost_gp, &lat_gp, 1.5, &[0.95], cfg);
        assert!(
            a_feasible > a_infeasible,
            "feasible {a_feasible} !> infeasible {a_infeasible}"
        );
    }

    #[test]
    fn batch_scoring_bit_identical_to_single_calls() {
        let (cost_gp, lat_gp) = toy_gps();
        let candidates: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 / 16.0]).collect();
        let cfg = NeiConfig { qmc_samples: 8 };
        let batch = constrained_nei_batch(&cost_gp, &lat_gp, 1.5, &candidates, cfg);
        for (i, c) in candidates.iter().enumerate() {
            let single = constrained_nei(&cost_gp, &lat_gp, 1.5, c, cfg);
            assert_eq!(
                batch[i].to_bits(),
                single.to_bits(),
                "candidate {i}: {} vs {single}",
                batch[i]
            );
        }
    }

    #[test]
    fn batch_scoring_empty_candidates() {
        let (cost_gp, lat_gp) = toy_gps();
        let got = constrained_nei_batch(&cost_gp, &lat_gp, 1.5, &[], NeiConfig::default());
        assert!(got.is_empty());
    }

    #[test]
    fn batch_has_distinct_points() {
        let (cost_gp, lat_gp) = toy_gps();
        let candidates: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let batch = propose_batch(
            &cost_gp,
            &lat_gp,
            1.5,
            &candidates,
            3,
            NeiConfig { qmc_samples: 8 },
        );
        assert_eq!(batch.len(), 3);
        let mut unique = batch.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "batch must not repeat candidates");
    }

    #[test]
    fn batch_larger_than_candidates_truncates() {
        let (cost_gp, lat_gp) = toy_gps();
        let candidates = vec![vec![0.2], vec![0.7]];
        let batch = propose_batch(
            &cost_gp,
            &lat_gp,
            2.0,
            &candidates,
            5,
            NeiConfig { qmc_samples: 4 },
        );
        assert_eq!(batch.len(), 2);
    }
}
