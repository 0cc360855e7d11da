//! `svc_azure` and `sim_azure`: one Azure-shaped trace, two engines.
//!
//! Both replay the trace `azure_scale` generates for the seed (the full
//! size is `AzureScaleConfig::full()`: 1100 apps, ~1.08 M arrivals,
//! ~1.4 M stage invocations over a simulated hour) and both seed their
//! platform RNG with the same seed, so a gain for one container-lifecycle
//! engine that costs the other shows as a pair of rows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use aqua_faas::{
    FaasSim, FaultPlan, FixedPrewarm, NoiseModel, QosClass, RunReport, Telemetry, TenantId,
    TenantPlan,
};
use aqua_pool::HistogramPolicy;
use aqua_service::{ControlPlane, PredictiveConfig, ServiceConfig, ServiceReport};
use aqua_sim::{SimDuration, SimTime};
use aqua_workflows::azure::{azure_scale, AzureScaleConfig, AzureWorkload};

use super::{fold_tally, Policy, Probe, Size};
use crate::outcome::{Counts, Replay, SimOutcome};

/// Tenants the trace's apps are split across, round-robin by job.
pub const TENANTS: usize = 4;

/// Workflow latency SLO of every tenant (and the SLO the benchmark
/// applies to `sim_azure`, which has no tenants of its own). The trace's
/// p99 sits near 4 s with a long straggler tail, so 60 s leaves real
/// misses to count without turning a throughput workload into a QoS study.
pub const SLO: SimDuration = SimDuration::from_secs(60);

/// Model consultations the predictive veto may spend per policy window.
pub const PREDICTIVE_CHECKS: u32 = 4;

/// The `sim_azure` cluster: workers × CPUs × MiB.
pub const SIM_CLUSTER: (usize, f64, u64) = (256, 8.0, 16 * 1024);

/// The trace shape for `size`, seeded with `seed`.
pub fn trace_config(seed: u64, size: Size) -> AzureScaleConfig {
    let base = match size {
        Size::Full => AzureScaleConfig::full(),
        Size::Smoke => AzureScaleConfig::smoke(),
    };
    AzureScaleConfig { seed, ..base }
}

/// The workload of one replay: a fixed application population receiving
/// the seed's traffic.
///
/// `azure_scale` draws both the applications (stage counts, work, memory,
/// Zipf rank) and their Poisson arrivals from its one seed, and the
/// head of the Zipf curve carries enough of the load that re-drawing its
/// shape moves the invocation count by ±6 % and the median latency by
/// ±10 % from seed to seed. A deployment's applications do not change
/// between runs; its traffic does. So the population is always the one
/// `AzureScaleConfig::{full, smoke}()` names, and the seed drives the
/// arrivals only: app `i` keeps its shape and its rank's rate and takes
/// the arrival stream the seeded generator drew for rank `i`.
pub fn trace(seed: u64, size: Size) -> (AzureScaleConfig, AzureWorkload) {
    let seeded = trace_config(seed, size);
    let population = AzureScaleConfig {
        seed: AzureScaleConfig::full().seed,
        ..seeded.clone()
    };
    let mut wl = azure_scale(&population);
    let traffic = azure_scale(&seeded);
    wl.arrivals = traffic.arrivals;
    wl.invocations = 0;
    for (job, drawn) in wl.jobs.iter_mut().zip(traffic.jobs) {
        job.arrivals = drawn.arrivals;
        wl.invocations += job.arrivals.len() * job.dag.num_stages();
    }
    (seeded, wl)
}

fn horizon_secs(cfg: &AzureScaleConfig) -> u64 {
    cfg.minutes * 60
}

/// Half the pool guaranteed in equal shares, the other half borrowable
/// slack; in-flight and queue caps effectively unbounded, so the workload
/// measures the tenancy machinery rather than an artificial shed wall.
fn tenant_plan(jobs: usize, budget_mb: f64) -> TenantPlan {
    let share = budget_mb / (2 * TENANTS) as f64;
    TenantPlan {
        classes: (0..TENANTS)
            .map(|_| QosClass::new(SLO, usize::MAX / 2, usize::MAX / 2, share))
            .collect(),
        job_tenants: (0..jobs).map(|j| TenantId(j % TENANTS)).collect(),
    }
}

/// Checks the conservation laws of a service report and folds it.
pub(crate) fn fold_service(
    label: String,
    prep_s: f64,
    wall_s: f64,
    offered: u64,
    report: &ServiceReport,
) -> Replay {
    let on_time: u64 = report
        .tenants
        .iter()
        .map(|t| t.latency.count as u64 - t.qos_misses)
        .sum();
    let adm = &report.admission;
    let pool = &report.pool;
    let mut counts = Counts::new();
    for (name, value) in [
        ("service.events", report.events_processed),
        ("service.demand_boots", pool.demand_boots),
        ("service.prewarm_boots", pool.prewarm_boots),
        ("service.semaphore_deferrals", pool.semaphore_deferrals),
        ("service.memory_deferrals", pool.memory_deferrals),
        ("service.share_deferrals", pool.share_deferrals),
        ("service.shed", adm.shed_arrivals + adm.shed_tasks),
        ("service.predictive_rejects", adm.predictive_rejects),
        ("service.refits", report.refit.refits),
        ("service.absorbed", report.refit.absorbed),
        ("service.tier_switches", report.model.tier_switches),
        ("service.warm_hits", pool.warm_hits),
        ("service.observed", report.model.observed),
    ] {
        counts.insert(name, value as f64);
    }
    let mut replay = Replay {
        label,
        variant: 0,
        prep_s,
        wall_s,
        sim: SimOutcome {
            offered,
            completed: report.completed,
            on_time,
            invocations: report.invocations_executed,
            cold_waits: pool.demand_boots.min(report.invocations_executed),
            cost_gb_s: report.cost_gb_s,
            latency_p50_s: report.latency.p50,
            latency_tail_s: report.latency.p99,
            sim_secs: report.sim_horizon.as_secs_f64(),
        },
        counts,
        failures: Vec::new(),
    };
    let arrivals = adm.arrivals() + report.arrivals_skipped_in_drain;
    replay.check(arrivals == offered, || {
        format!("front door saw {arrivals} of {offered} offered arrivals")
    });
    let closed = report.completed + report.rejected_workflows + report.stranded_instances as u64;
    replay.check(adm.admitted == closed, || {
        format!(
            "admitted {} != completed {} + rejected {} + stranded {}",
            adm.admitted, report.completed, report.rejected_workflows, report.stranded_instances
        )
    });
    let mut tenant_arrivals = 0;
    let mut tenant_completed = 0;
    for (i, t) in report.tenants.iter().enumerate() {
        let a = &t.admission;
        tenant_arrivals += a.arrivals();
        tenant_completed += t.latency.count as u64;
        replay.check(
            a.arrivals() == a.admitted + a.shed_arrivals + a.predictive_rejects
                && a.finished <= a.admitted
                && t.latency.count as u64 <= a.finished,
            || format!("tenant {i} ledger does not balance: {a:?}"),
        );
    }
    replay.check(
        tenant_arrivals == adm.arrivals() && tenant_completed == report.completed,
        || "per-tenant ledgers do not sum to the global one".to_string(),
    );
    replay.check(report.live_containers_at_exit == 0, || {
        format!(
            "{} containers alive at exit",
            report.live_containers_at_exit
        )
    });
    replay
}

/// One `svc_azure` replay: the live `ControlPlane` with four round-robin
/// tenants, `HistogramPolicy`, and a 4-checks-per-window predictive veto.
pub fn svc_replay(seed: u64, size: Size, mut probe: Option<&mut Probe>) -> Replay {
    let prep = Instant::now();
    let (trace, wl) = trace(seed, size);
    let cfg = ServiceConfig {
        predictive: PredictiveConfig::enabled(PREDICTIVE_CHECKS, 1.0),
        run_for: SimDuration::from_secs(horizon_secs(&trace)),
        seed,
        ..ServiceConfig::default()
    };
    let plan = tenant_plan(wl.jobs.len(), cfg.pool.memory_budget_mb);
    let policy = Policy::new(Box::new(HistogramPolicy::default()), probe.as_deref());
    let tally = policy.tally();
    let offered = wl.arrivals as u64;
    let mut plane = ControlPlane::new(
        wl.registry,
        wl.jobs,
        policy.policy,
        &FaultPlan::disabled(),
        cfg,
    )
    .with_tenants(plan);
    if let Some(sink) = probe.as_deref_mut().and_then(|p| p.sink.take()) {
        plane.attach_telemetry(sink, 1 << 16);
    }
    let prep_s = prep.elapsed().as_secs_f64();

    let log = probe.as_deref().map(|p| p.log.clone());
    let timed = Instant::now();
    let report = match &log {
        Some(log) => log.span("replay", || plane.run()),
        None => plane.run(),
    };
    let wall_s = timed.elapsed().as_secs_f64();

    fold_tally(probe, tally);
    fold_service(format!("seed {seed}"), prep_s, wall_s, offered, &report)
}

/// Folds a batch-simulator report, applying `slo` to every workflow.
fn fold_sim(
    label: String,
    prep_s: f64,
    wall_s: f64,
    wl: &AzureWorkload,
    horizon: SimTime,
    report: RunReport,
    tail_pct: u32,
) -> Replay {
    let latencies: Vec<f64> = report
        .workflows
        .iter()
        .map(|w| w.latency().as_secs_f64())
        .collect();
    let on_time = report
        .workflows
        .iter()
        .filter(|w| w.latency() <= SLO)
        .count();
    let cold = report.invocations.iter().filter(|r| r.cold).count();
    let mut counts = Counts::new();
    counts.insert("faas.events", report.events_processed as f64);
    counts.insert("faas.unfinished", report.unfinished as f64);
    let mut replay = Replay {
        label,
        variant: 0,
        prep_s,
        wall_s,
        sim: SimOutcome {
            offered: wl.arrivals as u64,
            completed: report.workflows.len() as u64,
            on_time: on_time as u64,
            invocations: report.invocations.len() as u64,
            cold_waits: cold as u64,
            cost_gb_s: report.memory_gb_seconds,
            latency_p50_s: aqua_linalg::quantile(&latencies, 0.5),
            latency_tail_s: aqua_linalg::quantile(&latencies, tail_pct as f64 / 100.0),
            sim_secs: horizon.as_secs_f64(),
        },
        counts,
        failures: Vec::new(),
    };
    let closed = report.workflows.len() + report.unfinished;
    replay.check(closed == wl.arrivals, || {
        format!(
            "completed {} + unfinished {} != offered {}",
            report.workflows.len(),
            report.unfinished,
            wl.arrivals
        )
    });
    replay
}

/// One `sim_azure` replay: the batch `FaasSim` at `shards` shards under
/// the provider-default keep-alive. The `RunReport` (one record per
/// invocation) is folded and dropped before the function returns.
pub fn sim_replay(seed: u64, size: Size, shards: usize, mut probe: Option<&mut Probe>) -> Replay {
    let prep = Instant::now();
    let (trace, wl) = trace(seed, size);
    let horizon = SimTime::from_secs(horizon_secs(&trace));
    let (workers, cpu, mem) = SIM_CLUSTER;
    let workers = match size {
        Size::Full => workers,
        Size::Smoke => 32,
    };
    let mut builder = FaasSim::builder()
        .workers(workers, cpu, mem)
        .registry(wl.registry.clone())
        .noise(NoiseModel::production())
        .seed(seed)
        .shards(shards);
    if let Some(sink) = probe.as_deref_mut().and_then(|p| p.sink.take()) {
        builder = builder.telemetry(Telemetry::new(Arc::new(Mutex::new(sink))));
    }
    let mut sim = builder.build();
    let policy = Policy::new(Box::new(FixedPrewarm::provider_default()), probe.as_deref());
    let tally = policy.tally();
    let mut controller = policy.policy;
    let prep_s = prep.elapsed().as_secs_f64();

    let log = probe.as_deref().map(|p| p.log.clone());
    let timed = Instant::now();
    let report = match &log {
        Some(log) => log.span("replay", || sim.run(&wl.jobs, controller.as_mut(), horizon)),
        None => sim.run(&wl.jobs, controller.as_mut(), horizon),
    };
    let wall_s = timed.elapsed().as_secs_f64();

    fold_tally(probe, tally);
    fold_sim(
        format!("seed {seed}"),
        prep_s,
        wall_s,
        &wl,
        horizon,
        report,
        super::Workload::SimAzure.tail_pct(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanLog;

    #[test]
    fn svc_smoke_balances_and_is_identical_under_the_probe() {
        let plain = svc_replay(11, Size::Smoke, None);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(plain.sim.completed > 1000);
        let mut probe = Probe::new(SpanLog::new());
        let probed = svc_replay(11, Size::Smoke, Some(&mut probe));
        assert_eq!(
            plain.sim, probed.sim,
            "TimedPolicy must not perturb the replay"
        );
        assert_eq!(plain.counts, probed.counts);
        let ticks = probe.log.lock().named("pool.tick").count();
        assert_eq!(
            ticks,
            4 * 60,
            "one tick per 1 s window of the 4-minute trace"
        );
        assert!(probe.targets.pairs > 0);
        assert_ne!(plain.sim, svc_replay(12, Size::Smoke, None).sim);
    }

    #[test]
    fn the_seed_moves_the_traffic_but_not_the_applications() {
        let (_, a) = trace(1, Size::Smoke);
        let (_, b) = trace(2, Size::Smoke);
        assert_eq!(a.registry.len(), b.registry.len());
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja.dag.num_stages(), jb.dag.num_stages());
        }
        assert_ne!(a.jobs[0].arrivals, b.jobs[0].arrivals);
        let arrivals: usize = a.jobs.iter().map(|j| j.arrivals.len()).sum();
        let invocations: usize = a
            .jobs
            .iter()
            .map(|j| j.arrivals.len() * j.dag.num_stages())
            .sum();
        assert_eq!((a.arrivals, a.invocations), (arrivals, invocations));
    }

    #[test]
    fn sim_smoke_balances_and_is_identical_under_the_probe() {
        let plain = sim_replay(11, Size::Smoke, 1, None);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        let mut probe = Probe::new(SpanLog::new());
        let probed = sim_replay(11, Size::Smoke, 1, Some(&mut probe));
        assert_eq!(plain.sim, probed.sim);
        assert!(probe.log.lock().named("pool.tick").count() >= 4);
        // Same trace, other engine: the offered load is the same number.
        assert_eq!(
            plain.sim.offered,
            svc_replay(11, Size::Smoke, None).sim.offered
        );
    }
}
