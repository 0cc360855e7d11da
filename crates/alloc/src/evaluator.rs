//! The black-box configuration evaluator backed by the FaaS simulator.

use aqua_faas::types::ConfigSpace;
use aqua_faas::{FaasSim, StageConfigs, WorkflowDag};

/// Aggregated result of profiling one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleResult {
    /// Mean end-to-end latency over the profiling samples, seconds.
    pub latency: f64,
    /// Mean execution cost over the profiling samples.
    pub cost: f64,
}

/// A black-box mapping from configuration points to observed performance.
///
/// Points live in `[0,1]^{3·stages}` and are decoded through the
/// evaluator's [`ConfigSpace`].
pub trait ConfigEvaluator {
    /// Profiles the decoded configuration and returns aggregate metrics.
    fn evaluate(&mut self, u: &[f64]) -> SampleResult;

    /// Number of workflow stages (the dimension is `3 ×` this).
    fn stages(&self) -> usize;

    /// The decoding space.
    fn space(&self) -> &ConfigSpace;

    /// Search dimensionality (3 knobs per stage).
    fn dim(&self) -> usize {
        3 * self.stages()
    }
}

/// Evaluator that profiles configurations on a [`FaasSim`].
#[derive(Debug, Clone)]
pub struct SimEvaluator {
    sim: FaasSim,
    dag: WorkflowDag,
    space: ConfigSpace,
    samples: usize,
    warm: bool,
    price_cpu: f64,
    price_mem: f64,
    evaluations: usize,
}

impl SimEvaluator {
    /// Creates an evaluator profiling `samples` workflow runs per
    /// configuration (`warm = true` routes them through a pre-warmed pool,
    /// the paper's §5.3 batch-evaluation setup).
    pub fn new(
        sim: FaasSim,
        dag: WorkflowDag,
        space: ConfigSpace,
        samples: usize,
        warm: bool,
    ) -> Self {
        assert!(samples > 0, "need at least one sample per evaluation");
        SimEvaluator {
            sim,
            dag,
            space,
            samples,
            warm,
            price_cpu: 1.0,
            price_mem: 1.0,
            evaluations: 0,
        }
    }

    /// Overrides the linear price model (defaults: 1.0 per core·s and per
    /// GB·s, so cost ≈ CPU-time + memory-time).
    pub fn with_prices(mut self, price_cpu: f64, price_mem: f64) -> Self {
        assert!(
            price_cpu >= 0.0 && price_mem >= 0.0,
            "prices must be non-negative"
        );
        self.price_cpu = price_cpu;
        self.price_mem = price_mem;
        self
    }

    /// Total evaluator calls so far (the search-budget meter).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }
}

impl ConfigEvaluator for SimEvaluator {
    fn evaluate(&mut self, u: &[f64]) -> SampleResult {
        assert_eq!(u.len(), self.dim(), "dimension mismatch");
        self.evaluations += 1;
        let configs = StageConfigs::decode(&self.space, u);
        let samples = self.sim.profile_config(
            &self.dag,
            &configs,
            self.samples,
            self.warm,
            self.price_cpu,
            self.price_mem,
        );
        let n = samples.len().max(1) as f64;
        let latency = samples.iter().map(|s| s.0).sum::<f64>() / n;
        let cost = samples.iter().map(|s| s.1).sum::<f64>() / n;
        SampleResult { latency, cost }
    }

    fn stages(&self) -> usize {
        self.dag.num_stages()
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_problem;

    #[test]
    fn evaluation_returns_sane_metrics() {
        let (sim, dag, _) = tiny_problem(1);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 3, true);
        let r = eval.evaluate(&vec![0.5; eval.dim()]);
        assert!(r.latency > 0.0);
        assert!(r.cost > 0.0);
        assert_eq!(eval.evaluations(), 1);
    }

    #[test]
    fn more_cpu_lowers_latency_raises_rate_of_cost() {
        let (sim, dag, _) = tiny_problem(2);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 4, true);
        let dim = eval.dim();
        let mut low = vec![0.1; dim];
        let mut high = vec![0.9; dim];
        // Fix memory and concurrency mid-range; sweep CPU only.
        for s in 0..dim / 3 {
            low[3 * s + 1] = 0.7;
            high[3 * s + 1] = 0.7;
            low[3 * s + 2] = 0.0;
            high[3 * s + 2] = 0.0;
        }
        let r_low = eval.evaluate(&low);
        let r_high = eval.evaluate(&high);
        assert!(
            r_high.latency < r_low.latency,
            "more CPU must be faster: {} vs {}",
            r_high.latency,
            r_low.latency
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_is_rejected() {
        let (sim, dag, _) = tiny_problem(3);
        let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 1, true);
        let _ = eval.evaluate(&[0.5]);
    }
}
