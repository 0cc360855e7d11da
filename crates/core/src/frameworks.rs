//! End-to-end comparison frameworks (paper §8.3).
//!
//! Each framework pairs a cold-start policy with a resource manager:
//!
//! | Framework | Pool | Allocation |
//! |---|---|---|
//! | [`Framework::Autoscale`] | reactive stem-cell autoscaling | usage-based autoscaling |
//! | [`Framework::IceBreakerClite`] | IceBreaker Fourier pre-warming | CLITE BO |
//! | [`Framework::Aquatope`] | hybrid-Bayesian dynamic pool | customized BO |
//! | [`Framework::AquatopeRmOnly`] | provider keep-alive (no pool) | customized BO — the Fig. 17 ablation |

use aqua_alloc::{AutoscaleRm, Clite, ResourceManager, SimEvaluator};
use aqua_faas::sim::WorkflowJob;
use aqua_faas::types::ConfigSpace;
use aqua_faas::{
    FixedPrewarm, FunctionId, FunctionRegistry, NoiseModel, PrewarmController, StageConfigs,
};
use aqua_pool::{AquatopePool, IceBreakerPolicy, ReactiveAutoscale};
use aqua_sim::SimTime;
use aqua_telemetry::{SimEvent, Telemetry};

use crate::config::{AquatopeConfig, ClusterSpec};
use crate::controller::{instance_qos, violation_rate_over, Aquatope, Workload};
use crate::report::EndToEndReport;

/// Which end-to-end framework to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Reactive autoscaling for both pool and resources.
    Autoscale,
    /// IceBreaker pre-warming + CLITE allocation (best prior combination).
    IceBreakerClite,
    /// Full AQUATOPE (pool + customized BO).
    Aquatope,
    /// AQUATOPE's resource manager without the pre-warmed pool (Fig. 17).
    AquatopeRmOnly,
}

impl Framework {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Framework::Autoscale => "Autoscale",
            Framework::IceBreakerClite => "IceBreaker+CLITE",
            Framework::Aquatope => "Aquatope",
            Framework::AquatopeRmOnly => "Aquatope (RM only)",
        }
    }
}

/// Plans per-app configurations with the framework's resource manager and
/// replays the workload mix under its pool policy, returning the Fig. 18
/// metrics.
pub fn run_framework(
    framework: Framework,
    registry: &FunctionRegistry,
    workloads: &[Workload],
    cluster: ClusterSpec,
    horizon: SimTime,
    config: &AquatopeConfig,
) -> EndToEndReport {
    run_framework_with_history(
        framework,
        registry,
        workloads,
        cluster,
        horizon,
        config,
        &[],
    )
}

/// Like [`run_framework`], additionally pre-loading the predictive pool
/// policies with recorded per-function history (the paper's scheduler
/// trains on the invocation log stored in CouchDB before it starts
/// managing an application). `history` is in the unit
/// [`aqua_workflows::split_history`] produces: task invocations per
/// minute, one `(function, series)` entry per stage.
#[allow(clippy::too_many_arguments)]
pub fn run_framework_with_history(
    framework: Framework,
    registry: &FunctionRegistry,
    workloads: &[Workload],
    cluster: ClusterSpec,
    horizon: SimTime,
    config: &AquatopeConfig,
    history: &[(FunctionId, Vec<f64>)],
) -> EndToEndReport {
    run_framework_traced(
        framework,
        registry,
        workloads,
        cluster,
        horizon,
        config,
        history,
        Telemetry::disabled(),
    )
}

/// Like [`run_framework_with_history`], additionally streaming every
/// simulator, pool, and resource-manager decision to `telemetry`. After the
/// online replay, one [`SimEvent::QosViolation`] is emitted per completed
/// workflow instance that missed its application's QoS target.
#[allow(clippy::too_many_arguments)]
pub fn run_framework_traced(
    framework: Framework,
    registry: &FunctionRegistry,
    workloads: &[Workload],
    cluster: ClusterSpec,
    horizon: SimTime,
    config: &AquatopeConfig,
    history: &[(FunctionId, Vec<f64>)],
    telemetry: Telemetry,
) -> EndToEndReport {
    // --- Planning phase: pick per-stage configs for every app. ---
    let controller = Aquatope;
    let plans: Vec<StageConfigs> = workloads
        .iter()
        .map(|w| {
            let sim = controller.make_sim(registry, cluster, NoiseModel::production());
            let mut eval = SimEvaluator::new(
                sim,
                w.app.dag.clone(),
                config.space,
                config.profile_samples,
                // The RM-only ablation profiles without guaranteed warm
                // starts: its samples mix cold and warm behaviour (§8.3).
                !matches!(framework, Framework::AquatopeRmOnly),
            )
            .with_prices(config.price_cpu, config.price_mem);
            let qos = w.app.qos.as_secs_f64();
            let outcome = match framework {
                Framework::Autoscale => {
                    AutoscaleRm::new().optimize(&mut eval, qos, config.search_budget)
                }
                Framework::IceBreakerClite => {
                    Clite::new(config.seed).optimize(&mut eval, qos, config.search_budget)
                }
                Framework::Aquatope | Framework::AquatopeRmOnly => {
                    aqua_alloc::AquatopeRm::with_config(config.seed, config.rm.clone())
                        .with_telemetry(telemetry.clone())
                        .optimize(&mut eval, qos, config.search_budget)
                }
            };
            match outcome.best {
                Some((configs, _, _)) => configs,
                None => fallback_configs(&config.space, w.app.dag.num_stages()),
            }
        })
        .collect();

    // --- Online phase: replay under the framework's pool policy. ---
    let mut sim = controller.make_sim(registry, cluster, NoiseModel::production());
    sim.set_telemetry(telemetry.clone());
    let jobs: Vec<WorkflowJob> = workloads
        .iter()
        .zip(&plans)
        .map(|(w, c)| WorkflowJob::new(w.app.dag.clone(), c.clone(), w.arrivals.clone()))
        .collect();
    let dags: Vec<&aqua_faas::WorkflowDag> = workloads.iter().map(|w| &w.app.dag).collect();
    let mut pool: Box<dyn PrewarmController> = match framework {
        Framework::Autoscale => Box::new(ReactiveAutoscale::new()),
        Framework::IceBreakerClite => {
            let mut p = IceBreakerPolicy::new();
            for (f, h) in history {
                p.preload_history(*f, h);
            }
            Box::new(p)
        }
        Framework::Aquatope => {
            let mut p =
                AquatopePool::new(config.pool.clone(), &dags).with_telemetry(telemetry.clone());
            for (f, h) in history {
                p.preload_history(*f, h);
            }
            Box::new(p)
        }
        Framework::AquatopeRmOnly => Box::new(FixedPrewarm::provider_default()),
    };
    let raw = sim.run(&jobs, pool.as_mut(), horizon);
    let qos_of = instance_qos(workloads);
    let violation = violation_rate_over(&raw, &qos_of, workloads, horizon);

    // QoS verdicts are only known once per-app targets are joined with the
    // run report, so they are synthesized here rather than inside the
    // simulator, from the same instance map the violation rate reads.
    if telemetry.is_enabled() {
        for wf in &raw.workflows {
            if let Some(&(job, local, qos)) = qos_of.get(wf.instance) {
                if wf.latency() > qos {
                    telemetry.emit_with(|| SimEvent::QosViolation {
                        at: wf.finished,
                        workflow: job,
                        instance: local,
                        latency_secs: wf.latency().as_secs_f64(),
                        qos_secs: qos.as_secs_f64(),
                    });
                }
            }
        }
        telemetry.flush();
    }
    EndToEndReport::from_run(raw, violation, config.price_cpu, config.price_mem)
}

/// The max-resources plan used when a search finds nothing feasible:
/// every stage at the top of the space with concurrency 1.
fn fallback_configs(space: &ConfigSpace, stages: usize) -> StageConfigs {
    let mut u = vec![1.0; 3 * stages];
    for s in 0..stages {
        u[3 * s + 2] = 0.0;
    }
    StageConfigs::decode(space, &u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_workflows::apps;

    fn workload() -> (FunctionRegistry, Vec<Workload>) {
        let mut registry = FunctionRegistry::new();
        let app = apps::chain(&mut registry, 2);
        let arrivals = (1..40u64).map(|i| SimTime::from_secs(i * 15)).collect();
        (registry, vec![Workload { app, arrivals }])
    }

    #[test]
    fn fallback_plan_is_generous_and_sequential() {
        let space = AquatopeConfig::fast().space;
        let plan = fallback_configs(&space, 3);
        assert_eq!(plan.len(), 3);
        for cfg in (0..plan.len()).map(|s| plan.stage(s)) {
            assert_eq!(cfg.cpu, space.cpu.1);
            assert_eq!(cfg.memory_mb, space.memory_mb.1);
            assert_eq!(cfg.concurrency, 1);
        }
    }

    #[test]
    fn all_frameworks_run() {
        let (registry, workloads) = workload();
        let cfg = AquatopeConfig::fast();
        for fw in [
            Framework::Autoscale,
            Framework::IceBreakerClite,
            Framework::Aquatope,
            Framework::AquatopeRmOnly,
        ] {
            let report = run_framework(
                fw,
                &registry,
                &workloads,
                ClusterSpec::default(),
                SimTime::from_secs(700),
                &cfg,
            );
            assert!(
                report.completed > 20,
                "{}: completed {}",
                fw.name(),
                report.completed
            );
        }
    }

    #[test]
    fn aquatope_beats_autoscale_on_violations() {
        let (registry, workloads) = workload();
        let cfg = AquatopeConfig::fast();
        let aq = run_framework(
            Framework::Aquatope,
            &registry,
            &workloads,
            ClusterSpec::default(),
            SimTime::from_secs(700),
            &cfg,
        );
        let auto = run_framework(
            Framework::Autoscale,
            &registry,
            &workloads,
            ClusterSpec::default(),
            SimTime::from_secs(700),
            &cfg,
        );
        assert!(
            aq.qos_violation_rate <= auto.qos_violation_rate + 0.05,
            "Aquatope {} vs Autoscale {}",
            aq.qos_violation_rate,
            auto.qos_violation_rate
        );
    }
}
