//! The AQUATOPE controller's shared pieces: the workload type, the
//! simulator every planning and online phase runs on, and the per-app QoS
//! verdict over a mixed run. The plan-then-replay loop itself is
//! [`crate::run_framework`] with [`crate::Framework::Aquatope`].

use aqua_faas::{FaasSim, FunctionRegistry, NoiseModel};
use aqua_sim::{SimDuration, SimTime};
use aqua_workflows::App;

use crate::config::{AquatopeConfig, ClusterSpec};

/// One application plus its invocation trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The application (DAG + QoS).
    pub app: App,
    /// Arrival times of workflow instances.
    pub arrivals: Vec<SimTime>,
}

/// The AQUATOPE controller (Fig. 1): builds the simulated cluster that
/// both the resource manager's profiling and the online replay run on.
#[derive(Debug, Clone)]
pub struct Aquatope;

impl Aquatope {
    /// Creates a controller. The simulator it builds depends only on the
    /// cluster spec and noise model, so `config` is not consulted.
    pub fn new(_config: AquatopeConfig) -> Self {
        Aquatope
    }

    /// Builds the simulator for a cluster spec (shared by planning and the
    /// online replay so profiling sees the same environment as the run).
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
            .build()
    }
}

/// Where each global workflow instance of a mixed run comes from:
/// `(job, local instance, the job's QoS target)`, indexed by the
/// simulator's job-major instance numbering.
pub(crate) fn instance_qos(workloads: &[Workload]) -> Vec<(usize, usize, SimDuration)> {
    workloads
        .iter()
        .enumerate()
        .flat_map(|(job, w)| (0..w.arrivals.len()).map(move |local| (job, local, w.app.qos)))
        .collect()
}

/// Computes the per-instance QoS violation rate for a mixed-workload run:
/// each workflow instance is checked against its own app's QoS; unfinished
/// instances count as violations.
pub fn violation_rate(raw: &aqua_faas::RunReport, workloads: &[Workload], horizon: SimTime) -> f64 {
    violation_rate_over(raw, &instance_qos(workloads), workloads, horizon)
}

/// [`violation_rate`] over an [`instance_qos`] map the caller already
/// built.
pub(crate) fn violation_rate_over(
    raw: &aqua_faas::RunReport,
    qos_of: &[(usize, usize, SimDuration)],
    workloads: &[Workload],
    horizon: SimTime,
) -> f64 {
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
                .is_some_and(|&(_, _, qos)| wf.latency() > qos)
        })
        .count();
    (violated_completed + raw.unfinished) as f64 / arrived as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_framework, run_framework_traced, Framework};
    use aqua_telemetry::{SimEvent, Telemetry};
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
        // The planning phase reports every profiled configuration as a
        // `BoIteration`: the search spends its whole budget and profiles
        // at least one configuration within QoS.
        let (registry, w) = small_workload(5, 30);
        let config = AquatopeConfig::fast();
        let (telemetry, rec) = Telemetry::recording();
        run_framework_traced(
            Framework::Aquatope,
            &registry,
            std::slice::from_ref(&w),
            ClusterSpec::default(),
            SimTime::from_secs(300),
            &config,
            &[],
            telemetry,
        );
        let latencies: Vec<f64> = rec
            .lock()
            .unwrap()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                SimEvent::BoIteration { latency, .. } => Some(latency),
                _ => None,
            })
            .collect();
        assert_eq!(latencies.len(), config.search_budget);
        let qos = w.app.qos.as_secs_f64();
        assert!(
            latencies.iter().any(|&l| l <= qos),
            "no profiled latency within QoS {qos}: {latencies:?}"
        );
    }

    #[test]
    fn end_to_end_run_completes_instances() {
        let (registry, w) = small_workload(30, 20);
        let report = run_framework(
            Framework::Aquatope,
            &registry,
            std::slice::from_ref(&w),
            ClusterSpec::default(),
            SimTime::from_secs(900),
            &AquatopeConfig::fast(),
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
