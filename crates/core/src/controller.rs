//! The AQUATOPE controller's batch-run driver: plan per-app resources,
//! then run the workload mix under the dynamic pre-warmed pool.
//!
//! All *decisions* (resource-manager search, fallback plans, pool-policy
//! construction) live in [`crate::decision::DecisionEngine`]; this module
//! only hosts them for batch simulation runs.

use aqua_faas::fault::{FaultPlan, RetryPolicy};
use aqua_faas::sim::WorkflowJob;
use aqua_faas::{FaasSim, FunctionRegistry, NoiseModel};
use aqua_sim::SimTime;
use aqua_workflows::App;

use crate::config::{AquatopeConfig, ClusterSpec};
use crate::decision::DecisionEngine;
use crate::report::EndToEndReport;

pub use crate::decision::AppPlan;

/// One application plus its invocation trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The application (DAG + QoS).
    pub app: App,
    /// Arrival times of workflow instances.
    pub arrivals: Vec<SimTime>,
}

/// The AQUATOPE controller (Fig. 1).
#[derive(Debug, Clone)]
pub struct Aquatope {
    engine: DecisionEngine,
    faults: FaultPlan,
    retry: RetryPolicy,
}

impl Aquatope {
    /// Creates a controller.
    pub fn new(config: AquatopeConfig) -> Self {
        Aquatope {
            engine: DecisionEngine::new(config),
            faults: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
        }
    }

    /// Injects deterministic faults into every simulation this controller
    /// builds (profiling and online execution alike), with the given
    /// retry/timeout policy. With [`FaultPlan::disabled`] this is a strict
    /// no-op.
    pub fn with_faults(mut self, faults: FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = faults;
        self.retry = retry;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &AquatopeConfig {
        self.engine.config()
    }

    /// The decision engine this controller hosts.
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// Builds the simulator for a cluster spec (shared by plan/execute so
    /// profiling sees the same environment as the online run).
    pub fn make_sim(
        &self,
        registry: &FunctionRegistry,
        cluster: ClusterSpec,
        noise: NoiseModel,
    ) -> FaasSim {
        FaasSim::builder()
            .workers(
                cluster.workers,
                cluster.cpu_per_worker,
                cluster.memory_mb_per_worker,
            )
            .registry(registry.clone())
            .noise(noise)
            .seed(cluster.seed)
            .faults(self.faults.clone())
            .retry_policy(self.retry.clone())
            .build()
    }

    /// Runs the container resource manager for one application, returning
    /// the selected per-stage configuration. Falls back to a generous
    /// configuration if the search finds nothing feasible.
    pub fn plan_app(
        &self,
        registry: &FunctionRegistry,
        app: &App,
        cluster: ClusterSpec,
    ) -> AppPlan {
        let sim = self.make_sim(registry, cluster, NoiseModel::production());
        self.engine.plan_app(sim, app)
    }

    /// Plans every application.
    pub fn plan(
        &self,
        registry: &FunctionRegistry,
        workloads: &[Workload],
        cluster: ClusterSpec,
    ) -> Vec<AppPlan> {
        workloads
            .iter()
            .map(|w| self.plan_app(registry, &w.app, cluster))
            .collect()
    }

    /// Executes the workload mix with the given plans under the dynamic
    /// pre-warmed container pool.
    pub fn execute(
        &self,
        registry: &FunctionRegistry,
        workloads: &[Workload],
        plans: &[AppPlan],
        cluster: ClusterSpec,
        horizon: SimTime,
    ) -> EndToEndReport {
        assert_eq!(workloads.len(), plans.len(), "one plan per workload");
        let mut sim = self.make_sim(registry, cluster, NoiseModel::production());
        let jobs: Vec<WorkflowJob> = workloads
            .iter()
            .zip(plans)
            .map(|(w, p)| {
                WorkflowJob::new(w.app.dag.clone(), p.configs.clone(), w.arrivals.clone())
            })
            .collect();
        let dags: Vec<&aqua_faas::WorkflowDag> = workloads.iter().map(|w| &w.app.dag).collect();
        let mut pool = self.engine.make_pool(&dags);
        let raw = sim.run(&jobs, &mut pool, horizon);
        let violation = violation_rate(&raw, workloads, horizon);
        let cfg = self.engine.config();
        EndToEndReport::from_run(raw, violation, cfg.price_cpu, cfg.price_mem)
    }

    /// Full pipeline: plan, then execute.
    pub fn run(
        &mut self,
        registry: &FunctionRegistry,
        workloads: &[Workload],
        cluster: ClusterSpec,
        horizon: SimTime,
    ) -> EndToEndReport {
        let plans = self.plan(registry, workloads, cluster);
        self.execute(registry, workloads, &plans, cluster, horizon)
    }
}

/// Computes the per-instance QoS violation rate for a mixed-workload run:
/// each workflow instance is checked against its own app's QoS; unfinished
/// instances count as violations.
pub fn violation_rate(raw: &aqua_faas::RunReport, workloads: &[Workload], horizon: SimTime) -> f64 {
    // Map global instance index → app QoS, mirroring the simulator's
    // job-major instance numbering.
    let mut qos_of = Vec::new();
    for w in workloads {
        for _ in &w.arrivals {
            qos_of.push(w.app.qos);
        }
    }
    let arrived: usize = workloads
        .iter()
        .flat_map(|w| w.arrivals.iter())
        .filter(|t| **t <= horizon)
        .count();
    if arrived == 0 {
        return 0.0;
    }
    let violated_completed = raw
        .workflows
        .iter()
        .filter(|wf| {
            qos_of
                .get(wf.instance)
                .is_some_and(|qos| wf.latency() > *qos)
        })
        .count();
    (violated_completed + raw.unfinished) as f64 / arrived as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_workflows::apps;

    fn small_workload(n: usize, gap_secs: u64) -> (FunctionRegistry, Workload) {
        let mut registry = FunctionRegistry::new();
        let app = apps::chain(&mut registry, 2);
        let arrivals = (1..=n as u64)
            .map(|i| SimTime::from_secs(i * gap_secs))
            .collect();
        (registry, Workload { app, arrivals })
    }

    #[test]
    fn plan_produces_feasible_configs() {
        let (registry, w) = small_workload(5, 30);
        let controller = Aquatope::new(AquatopeConfig::fast());
        let plan = controller.plan_app(&registry, &w.app, ClusterSpec::default());
        assert_eq!(plan.configs.len(), w.app.dag.num_stages());
        assert!(
            plan.expected_latency.is_nan() || plan.expected_latency <= w.app.qos.as_secs_f64(),
            "planned latency {} vs QoS {}",
            plan.expected_latency,
            w.app.qos.as_secs_f64()
        );
    }

    #[test]
    fn end_to_end_run_completes_instances() {
        let (registry, w) = small_workload(30, 20);
        let mut controller = Aquatope::new(AquatopeConfig::fast());
        let report = controller.run(
            &registry,
            std::slice::from_ref(&w),
            ClusterSpec::default(),
            SimTime::from_secs(900),
        );
        assert!(
            report.completed >= 25,
            "most instances complete: {}",
            report.completed
        );
        assert!(
            report.qos_violation_rate <= 0.4,
            "violations {}",
            report.qos_violation_rate
        );
    }

    #[test]
    fn violation_rate_counts_per_app_qos() {
        use aqua_faas::{RunReport, WorkflowRecord};
        let (_, w) = small_workload(2, 10);
        let raw = RunReport {
            workflows: vec![
                WorkflowRecord {
                    instance: 0,
                    arrived: SimTime::ZERO,
                    finished: SimTime::from_millis(100),
                    cold_starts: 0,
                    invocations: 2,
                },
                WorkflowRecord {
                    instance: 1,
                    arrived: SimTime::ZERO,
                    finished: SimTime::from_secs(100),
                    cold_starts: 0,
                    invocations: 2,
                },
            ],
            ..Default::default()
        };
        let rate = violation_rate(&raw, &[w], SimTime::from_secs(1000));
        assert!((rate - 0.5).abs() < 1e-9);
    }
}
