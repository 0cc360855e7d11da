//! AQUATOPE's container resource manager: customized Bayesian optimization
//! (paper §5.3).
//!
//! The differences from conventional BO managers, all implemented here:
//!
//! 1. **Noise-aware by design** — separate *fixed-noise* GPs for cost and
//!    end-to-end latency; acquisition is constrained **noisy** EI
//!    integrated with QMC, and leave-one-out diagnostic GPs prune
//!    non-Gaussian outliers before every model update.
//! 2. **Proactive QoS handling** — an independent latency GP filters
//!    candidates by probability of feasibility instead of a reactive
//!    penalty term.
//! 3. **Batch sampling** — q=3 candidates per iteration via greedy
//!    Kriging-believer fantasies, exploiting serverless scalability.
//! 4. **Incremental retraining** — when fresh observations contradict the
//!    model (input change, function update), old samples are dropped via a
//!    sliding window and exploration resumes (Fig. 16).

use aqua_gp::{
    constrained_nei_batch, detect_anomalies, probability_feasible, propose_batch, Gp, GpConfig,
    Halton, NeiConfig,
};
use aqua_sim::{SimRng, SimTime};
use aqua_telemetry::{SimEvent, Telemetry};

use crate::evaluator::ConfigEvaluator;
use crate::{outcome_from_history, ResourceManager, SearchOutcome, SearchStep};

/// Halton-spread configurations evaluated before the surrogates are fit.
pub const BOOTSTRAP: usize = 5;
/// Candidate pool size per iteration (Halton + local perturbations).
const CANDIDATES: usize = 72;
/// QMC samples for the noisy-EI integral.
const QMC_SAMPLES: usize = 16;
/// Confidence level of the leave-one-out anomaly pruner.
const ANOMALY_CONFIDENCE: f64 = 0.95;
/// Observations kept when a behaviour change is detected.
const SLIDING_WINDOW: usize = 12;

/// The switches of [`AquatopeRm`] that the paper's ablations vary.
#[derive(Debug, Clone, PartialEq)]
pub struct AquatopeRmConfig {
    /// Batch size per BO iteration (paper: 3).
    pub batch: usize,
    /// Fixed observation-noise variance for both GPs (standardized units).
    pub noise: f64,
    /// Disable all noise-awareness (anomaly pruning, noisy EI) — the
    /// *AquaLite* ablation of Fig. 15.
    pub noise_aware: bool,
}

impl Default for AquatopeRmConfig {
    fn default() -> Self {
        AquatopeRmConfig {
            batch: 3,
            noise: 0.05,
            noise_aware: true,
        }
    }
}

/// The customized-BO resource manager. Observations persist across
/// [`ResourceManager::optimize`] calls, so a second call continues the
/// search (and adapts if the workload changed underneath).
#[derive(Debug, Clone)]
pub struct AquatopeRm {
    config: AquatopeRmConfig,
    rng: SimRng,
    observations: Vec<SearchStep>,
    /// Set when change detection fired during the last optimize call.
    changes_detected: usize,
    /// Persistent low-discrepancy stream: every BO iteration draws *fresh*
    /// candidates instead of re-ranking the same fixed point set.
    halton: Option<Halton>,
    /// Evaluations performed across all optimize calls (event numbering).
    evaluations: usize,
    telemetry: Telemetry,
}

impl AquatopeRm {
    /// Creates the manager with default configuration.
    pub fn new(seed: u64) -> Self {
        AquatopeRm::with_config(seed, AquatopeRmConfig::default())
    }

    /// Creates the manager with an explicit configuration.
    pub fn with_config(seed: u64, config: AquatopeRmConfig) -> Self {
        AquatopeRm {
            config,
            rng: SimRng::seed(seed),
            observations: Vec::new(),
            changes_detected: 0,
            halton: None,
            evaluations: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry channel; every profiled configuration is
    /// reported as a [`SimEvent::BoIteration`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The AquaLite ablation: same skeleton, noise handling disabled.
    pub fn aqualite(seed: u64) -> Self {
        AquatopeRm::with_config(
            seed,
            AquatopeRmConfig {
                noise_aware: false,
                noise: 1e-6,
                ..AquatopeRmConfig::default()
            },
        )
    }

    /// All retained observations (post sliding-window truncations).
    pub fn observations(&self) -> &[SearchStep] {
        &self.observations
    }

    /// How many behaviour changes were detected so far.
    pub fn changes_detected(&self) -> usize {
        self.changes_detected
    }

    /// Fits the two surrogates on the non-anomalous observations.
    fn fit_models(&self, qos: f64) -> Option<(Gp, Gp)> {
        if self.observations.len() < 2 {
            return None;
        }
        // Winsorize censored / pathological latencies: a sample that timed
        // out is "very infeasible" — its exact magnitude carries no signal
        // and would stretch the GP's scale until EI goes flat.
        let lat_cap = 5.0 * qos;
        let cost_cap = {
            let feasible_max = self
                .observations
                .iter()
                .filter(|s| s.latency <= qos)
                .map(|s| s.cost)
                .fold(0.0_f64, f64::max);
            if feasible_max > 0.0 {
                5.0 * feasible_max
            } else {
                f64::INFINITY
            }
        };
        let gp_cfg = GpConfig::with_noise(self.config.noise);
        let xs: Vec<Vec<f64>> = self.observations.iter().map(|s| s.u.clone()).collect();
        let lats: Vec<f64> = self
            .observations
            .iter()
            .map(|s| s.latency.min(lat_cap))
            .collect();
        let costs: Vec<f64> = self
            .observations
            .iter()
            .map(|s| s.cost.min(cost_cap))
            .collect();
        let lat_gp = Gp::fit(xs.clone(), lats, gp_cfg.clone()).ok()?;
        let cost_gp = Gp::fit(xs, costs, gp_cfg).ok()?;

        if !self.config.noise_aware {
            return Some((cost_gp, lat_gp));
        }
        // Prune non-Gaussian outliers flagged on either surrogate.
        let mut bad: Vec<usize> = detect_anomalies(&lat_gp, ANOMALY_CONFIDENCE);
        bad.extend(detect_anomalies(&cost_gp, ANOMALY_CONFIDENCE));
        bad.sort_unstable();
        bad.dedup();
        if bad.is_empty() || bad.len() + 2 > self.observations.len() {
            return Some((cost_gp, lat_gp));
        }
        let keep: Vec<usize> = (0..self.observations.len())
            .filter(|i| !bad.contains(i))
            .collect();
        let cost_clean = cost_gp.refit_subset(&keep).ok()?;
        let lat_clean = lat_gp.refit_subset(&keep).ok()?;
        Some((cost_clean, lat_clean))
    }

    /// Generates the iteration's candidate pool: fresh Halton coverage
    /// plus local perturbations of the best feasible point.
    fn candidates(&mut self, dim: usize, qos: f64) -> Vec<Vec<f64>> {
        let halton = self.halton.get_or_insert_with(|| Halton::new(dim.min(32)));
        let mut cands = halton.points(CANDIDATES);
        // Exploit around the best feasible points at two perturbation
        // radii (local refinement matters in the quantized config space).
        let mut feasible: Vec<&SearchStep> = self
            .observations
            .iter()
            .filter(|s| s.latency <= qos)
            .collect();
        feasible.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite"));
        for best in feasible.iter().take(3) {
            for sigma in [0.05, 0.12] {
                for _ in 0..(CANDIDATES / 12).max(2) {
                    let perturbed: Vec<f64> = best
                        .u
                        .iter()
                        .map(|v| (v + self.rng.normal(0.0, sigma)).clamp(0.0, 1.0))
                        .collect();
                    cands.push(perturbed);
                }
            }
        }
        cands
    }

    /// Checks whether the latest batch contradicts the model (behaviour
    /// change); if so, truncates to the sliding window.
    fn detect_change(&mut self, lat_gp: &Gp, batch: &[SearchStep]) {
        if batch.len() < 2 {
            return;
        }
        let surprises = batch
            .iter()
            .filter(|s| {
                let (mean, var) = lat_gp.predict(&s.u);
                let sd = var.sqrt().max(1e-6 * mean.abs().max(1.0));
                let miss = (s.latency - mean).abs();
                // Statistical surprise at confident points, or a scale-free
                // >100% relative miss (exploratory points keep wide GP
                // variance, which would otherwise mask real regime shifts).
                miss > 4.0 * sd || miss > mean.abs().max(0.05)
            })
            .count();
        // Majority of the batch contradicting the model ⇒ behaviour change.
        if surprises * 2 >= batch.len().max(1) && self.observations.len() > SLIDING_WINDOW {
            // Keep only the most recent window of samples.
            let keep_from = self.observations.len() - SLIDING_WINDOW;
            self.observations.drain(..keep_from);
            self.changes_detected += 1;
        }
    }
}

impl ResourceManager for AquatopeRm {
    fn name(&self) -> &'static str {
        "Aquatope"
    }

    fn optimize(
        &mut self,
        eval: &mut dyn ConfigEvaluator,
        qos_secs: f64,
        budget: usize,
    ) -> SearchOutcome {
        let dim = eval.dim();
        let mut history = Vec::with_capacity(budget);
        let mut spent = 0;

        // Bootstrap with Halton-spread random configurations.
        while self.observations.len() < BOOTSTRAP && spent < budget {
            let mut u = self
                .halton
                .get_or_insert_with(|| Halton::new(dim.min(32)))
                .next_point();
            // Jitter to decorrelate repeated optimize calls.
            for v in &mut u {
                *v = (*v + self.rng.normal(0.0, 0.03)).clamp(0.0, 1.0);
            }
            let r = eval.evaluate(&u);
            spent += 1;
            self.evaluations += 1;
            let step = SearchStep {
                u,
                latency: r.latency,
                cost: r.cost,
            };
            self.telemetry.emit_with(|| SimEvent::BoIteration {
                at: SimTime::ZERO,
                iteration: self.evaluations - 1,
                candidate: step.u.clone(),
                ei: 0.0, // bootstrap samples are drawn before any surrogate exists
                latency: step.latency,
                cost: step.cost,
            });
            history.push(step.clone());
            self.observations.push(step);
        }

        // BO iterations with batch sampling.
        while spent < budget {
            let q = self.config.batch.min(budget - spent);
            let models = self.fit_models(qos_secs);
            let batch_points: Vec<(Vec<f64>, f64)> = match &models {
                Some((cost_gp, lat_gp)) => {
                    let cands = self.candidates(dim, qos_secs);
                    let nei = NeiConfig {
                        qmc_samples: if self.config.noise_aware {
                            QMC_SAMPLES
                        } else {
                            1
                        },
                    };
                    let picks = propose_batch(cost_gp, lat_gp, qos_secs, &cands, q, nei);
                    let picked: Vec<Vec<f64>> = picks.iter().map(|&i| cands[i].clone()).collect();
                    // Telemetry EI comes from the *original* surrogates
                    // (not the fantasies), so the whole batch can share
                    // one incumbent-sample pass.
                    let eis = constrained_nei_batch(cost_gp, lat_gp, qos_secs, &picked, nei);
                    picked.into_iter().zip(eis).collect()
                }
                None => (0..q)
                    .map(|_| ((0..dim).map(|_| self.rng.uniform()).collect(), 0.0))
                    .collect(),
            };

            let mut batch_steps = Vec::with_capacity(batch_points.len());
            for (u, ei) in batch_points {
                let r = eval.evaluate(&u);
                spent += 1;
                self.evaluations += 1;
                let step = SearchStep {
                    u,
                    latency: r.latency,
                    cost: r.cost,
                };
                self.telemetry.emit_with(|| SimEvent::BoIteration {
                    at: SimTime::ZERO,
                    iteration: self.evaluations - 1,
                    candidate: step.u.clone(),
                    ei,
                    latency: step.latency,
                    cost: step.cost,
                });
                history.push(step.clone());
                batch_steps.push(step.clone());
                self.observations.push(step);
            }
            if let Some((_, lat_gp)) = &models {
                self.detect_change(lat_gp, &batch_steps);
            }
        }

        // Final selection over everything we know (observations survive
        // truncation only if still trusted). Among configurations whose
        // observed latency met QoS, prefer those the latency surrogate is
        // *confident* about: a pick sitting exactly on the QoS boundary
        // looks cheapest in profiling but violates at runtime under noise
        // — the opposite of the paper's "meet QoS with minimal
        // overprovisioning" objective.
        let all: Vec<SearchStep> = self.observations.clone();
        let mut outcome = outcome_from_history(history, qos_secs, eval.space());
        let models = self.fit_models(qos_secs);
        let confident: Box<dyn Fn(&SearchStep) -> bool> = match &models {
            Some((_, lat_gp)) if self.config.noise_aware => {
                let lat_gp = lat_gp.clone();
                Box::new(move |s: &SearchStep| {
                    // The smoothed posterior mean must itself carry a
                    // margin: a single noise-lucky observation is not
                    // evidence of feasibility.
                    let (mean, _) = lat_gp.predict(&s.u);
                    probability_feasible(&lat_gp, &s.u, qos_secs) >= 0.7 && mean <= 0.92 * qos_secs
                })
            }
            _ => Box::new(|_s: &SearchStep| true),
        };
        // Prefer configurations with an explicit latency margin (observed
        // ≤ 90% of QoS) that the surrogate also deems feasible; fall back
        // to any observed-feasible point.
        let best_overall = all
            .iter()
            .filter(|s| s.latency <= 0.9 * qos_secs && confident(s))
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite"))
            .or_else(|| {
                all.iter()
                    .filter(|s| s.latency <= qos_secs)
                    .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite"))
            });
        if let Some(b) = best_overall {
            outcome.best = Some((
                aqua_faas::StageConfigs::decode(eval.space(), &b.u),
                b.cost,
                b.latency,
            ));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearch;
    use crate::evaluator::SimEvaluator;
    use crate::testkit::tiny_problem;
    use aqua_faas::types::ConfigSpace;

    fn make_eval(seed: u64) -> (SimEvaluator, f64) {
        let (sim, dag, qos) = tiny_problem(seed);
        (
            SimEvaluator::new(sim, dag, ConfigSpace::default(), 2, true),
            qos,
        )
    }

    #[test]
    fn finds_feasible_configuration() {
        let (mut eval, qos) = make_eval(40);
        let mut rm = AquatopeRm::new(1);
        let out = rm.optimize(&mut eval, qos, 24);
        let (_, cost, lat) = out.best.expect("feasible config expected");
        assert!(lat <= qos);
        assert!(cost > 0.0);
    }

    #[test]
    fn beats_random_at_equal_budget() {
        let budget = 24;
        let trials = 3;
        let mut aq = 0.0;
        let mut rnd = 0.0;
        for t in 0..trials {
            let (mut eval, qos) = make_eval(50 + t);
            aq += AquatopeRm::new(t)
                .optimize(&mut eval, qos, budget)
                .best
                .map(|b| b.1)
                .unwrap_or(1e9);
            let (mut eval, qos) = make_eval(50 + t);
            rnd += RandomSearch::new(t)
                .optimize(&mut eval, qos, budget)
                .best
                .map(|b| b.1)
                .unwrap_or(1e9);
        }
        assert!(aq < rnd, "Aquatope {aq} should beat random {rnd}");
    }

    #[test]
    fn second_call_continues_search() {
        let (mut eval, qos) = make_eval(60);
        let mut rm = AquatopeRm::new(2);
        let first = rm.optimize(&mut eval, qos, 12);
        let n_obs = rm.observations().len();
        assert_eq!(n_obs, 12);
        let second = rm.optimize(&mut eval, qos, 6);
        assert_eq!(rm.observations().len(), 18);
        // Bootstrap is skipped on the second call (observations persist).
        assert_eq!(second.evaluations(), 6);
        let b1 = first.best.map(|b| b.1).unwrap_or(f64::INFINITY);
        let b2 = second.best.map(|b| b.1).unwrap_or(f64::INFINITY);
        assert!(
            b2 <= b1 * 1.2,
            "continuation should not regress much: {b1} -> {b2}"
        );
    }

    #[test]
    fn change_detection_slides_window() {
        let (mut eval, qos) = make_eval(70);
        let mut rm = AquatopeRm::new(3);
        rm.optimize(&mut eval, qos, 18);
        assert_eq!(
            rm.changes_detected(),
            0,
            "stable workload: no change events"
        );

        // Swap in a much heavier workload (input-size change).
        let (sim2, dag2, _) = tiny_problem(71);
        let mut registry2 = aqua_faas::FunctionRegistry::new();
        let heavy_a = registry2.register(
            aqua_faas::FunctionSpec::new("a2")
                .with_work_ms(2_000.0)
                .with_exec_cv(0.02),
        );
        let heavy_b = registry2.register(
            aqua_faas::FunctionSpec::new("b2")
                .with_work_ms(1_500.0)
                .with_exec_cv(0.02),
        );
        let heavy_dag = aqua_faas::WorkflowDag::chain("tiny", vec![heavy_a, heavy_b]);
        let heavy_sim = aqua_faas::FaasSim::builder()
            .workers(4, 40.0, 131_072)
            .registry(registry2)
            .noise(aqua_faas::NoiseModel::quiet())
            .seed(72)
            .build();
        drop((sim2, dag2));
        let mut eval2 = SimEvaluator::new(heavy_sim, heavy_dag, ConfigSpace::default(), 2, true);
        rm.optimize(&mut eval2, 6.0, 12);
        assert!(
            rm.changes_detected() >= 1,
            "behaviour change should be detected after the workload swap"
        );
        assert!(
            rm.observations().len() <= SLIDING_WINDOW + 12,
            "sliding window applied"
        );
    }

    #[test]
    fn aqualite_disables_noise_awareness() {
        let rm = AquatopeRm::aqualite(5);
        assert!(!rm.config.noise_aware);
    }
}
