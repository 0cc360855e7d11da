//! Lifecycle tests for the control-plane service: graceful shutdown
//! drains in-flight work (with and without predictive rejection in the
//! admission path), the filler task replenishes under injected boot
//! failures while respecting the boot semaphore, a zero-rate fault plan
//! is a strict no-op on service behavior, a zero-budget predictive
//! config is bit-identical to a plane without the feature, and a plane
//! over an Azure-shaped trace drains clean and replays identically.

use aquatope::faas::{
    FaultPlan, FaultRates, FunctionRegistry, FunctionSpec, QosClass, ResourceConfig, StageConfigs,
    TenantId, TenantPlan, WorkflowDag, WorkflowJob,
};
use aquatope::pool::{HistogramPolicy, ReactiveAutoscale};
use aquatope::service::{
    ControlPlane, PredictiveConfig, ServiceConfig, ServiceReport, WarmPoolConfig,
};
use aquatope::sim::{SimDuration, SimTime};
use aquatope::workflows::azure::{azure_scale, AzureScaleConfig};

/// `apps` single-stage jobs, each with `n` arrivals spread over ~n/2 s.
fn workload(apps: usize, n: usize) -> (FunctionRegistry, Vec<WorkflowJob>) {
    let mut reg = FunctionRegistry::new();
    let mut jobs = Vec::new();
    for a in 0..apps {
        let f = reg.register(FunctionSpec::new(format!("fn{a}")).with_work_ms(60.0));
        let dag = WorkflowDag::chain(format!("app{a}"), vec![f]);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
        let arrivals = (0..n)
            .map(|i| SimTime::from_millis(500 * i as u64 + 100 + 53 * a as u64))
            .collect();
        jobs.push(WorkflowJob {
            dag,
            configs,
            arrivals,
        });
    }
    (reg, jobs)
}

fn run_with(faults: &FaultPlan, cfg: ServiceConfig) -> ServiceReport {
    let (reg, jobs) = workload(4, 30);
    ControlPlane::new(reg, jobs, Box::new(HistogramPolicy::default()), faults, cfg).run()
}

fn short_cfg() -> ServiceConfig {
    ServiceConfig {
        run_for: SimDuration::from_secs(30),
        ..ServiceConfig::default()
    }
}

#[test]
fn shutdown_drains_all_inflight_work() {
    // Shutdown fires at 30 s; arrivals continue to ~15 s, so plenty of
    // work is in flight when the horizon is reached on slower settings.
    // Every admitted instance must resolve (complete or abort) and the
    // container ledger must read zero.
    let report = run_with(&FaultPlan::disabled(), short_cfg());
    assert_eq!(report.completed, 120, "all admitted workflows finished");
    assert_eq!(report.stranded_instances, 0, "drain left no open instances");
    assert_eq!(
        report.live_containers_at_exit, 0,
        "graceful shutdown leaves zero orphaned containers"
    );
    assert_eq!(
        report.admission.admitted, report.admission.finished,
        "every admission was balanced by a finish"
    );
    assert_eq!(report.runtime.boots, report.runtime.kills);
}

#[test]
fn shutdown_mid_burst_still_drains() {
    // Cut the horizon into the middle of the arrival trace: later
    // arrivals are skipped, but everything admitted before the cut
    // drains to completion.
    let cfg = ServiceConfig {
        run_for: SimDuration::from_secs(5),
        ..ServiceConfig::default()
    };
    let report = run_with(&FaultPlan::disabled(), cfg);
    assert!(report.arrivals_skipped_in_drain > 0, "cut lands mid-trace");
    assert!(report.completed > 0);
    assert_eq!(report.stranded_instances, 0);
    assert_eq!(report.live_containers_at_exit, 0);
    assert_eq!(report.admission.admitted, report.admission.finished);
}

#[test]
fn filler_replenishes_under_injected_boot_failures() {
    // A third of boots fail. The pool's replacement path (failure →
    // freed memory → replacement demand boot for uncovered waiters) and
    // the filler's target-chasing must still finish every workflow.
    let plan = FaultPlan::from_seed(
        11,
        FaultRates {
            boot_fail: 0.33,
            ..FaultRates::default()
        },
    );
    let report = run_with(&plan, short_cfg());
    assert!(
        report.pool.boot_failures > 0,
        "the fault plan must actually fire"
    );
    assert_eq!(
        report.completed, 120,
        "boot failures delay but never strand workflows"
    );
    assert_eq!(report.stranded_instances, 0);
    assert_eq!(report.live_containers_at_exit, 0);
    assert_eq!(
        report.runtime.boots, report.runtime.kills,
        "every booted container (failed ones included) was reaped"
    );
}

#[test]
fn filler_respects_the_boot_semaphore_under_failures() {
    // A 2-wide boot semaphore against an eager autoscale policy: the
    // filler must defer pre-warm boots rather than exceed the width, and
    // the deferral counter must show it happened.
    let plan = FaultPlan::from_seed(
        7,
        FaultRates {
            boot_fail: 0.25,
            ..FaultRates::default()
        },
    );
    let (reg, jobs) = workload(6, 20);
    let cfg = ServiceConfig {
        pool: WarmPoolConfig {
            max_concurrent_boots: 2,
            ..WarmPoolConfig::default()
        },
        run_for: SimDuration::from_secs(30),
        ..ServiceConfig::default()
    };
    let report = ControlPlane::new(
        reg,
        jobs,
        Box::new(ReactiveAutoscale::default()),
        &plan,
        cfg,
    )
    .run();
    assert!(
        report.pool.semaphore_deferrals > 0,
        "a 2-wide semaphore against 6 eager functions must defer"
    );
    assert!(report.pool.prewarm_boots > 0, "the filler did boot");
    assert_eq!(report.completed, 120);
    assert_eq!(report.live_containers_at_exit, 0);
}

/// A deliberately overloaded plane: a 400 ms body fed every 100 ms
/// against a one-container memory budget, with the latency model
/// sampling every completion so a nonzero-budget predictive veto engages
/// mid-run. `plan` optionally installs tenancy (a finite SLO is what
/// arms the veto); `None` runs the untenanted plane.
fn congested_run(predictive: PredictiveConfig, plan: Option<TenantPlan>) -> ServiceReport {
    let mut reg = FunctionRegistry::new();
    let f = reg.register(FunctionSpec::new("hot").with_work_ms(400.0));
    let dag = WorkflowDag::chain("hot-app", vec![f]);
    let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
    let jobs = vec![WorkflowJob {
        dag,
        configs,
        arrivals: (0..60)
            .map(|i| SimTime::from_millis(100 * (i as u64 + 1)))
            .collect(),
    }];
    let cfg = ServiceConfig {
        pool: WarmPoolConfig {
            memory_budget_mb: ResourceConfig::default().memory_mb,
            ..WarmPoolConfig::default()
        },
        model_sample_every: 1,
        refit_interval: SimDuration::from_secs(2),
        predictive,
        run_for: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    };
    let plane = ControlPlane::new(
        reg,
        jobs,
        Box::new(ReactiveAutoscale::default()),
        &FaultPlan::disabled(),
        cfg,
    );
    match plan {
        Some(p) => plane.with_tenants(p),
        None => plane,
    }
    .run()
}

/// One tenant under a 1 s SLO with caps roomy enough that depth shedding
/// never depends on them (the global queue cap binds first, exactly as
/// on the untenanted plane) and no memory share — so the *only* behavior
/// the plan can introduce is the predictive veto.
fn slo_plan() -> TenantPlan {
    TenantPlan {
        classes: vec![QosClass::new(SimDuration::from_secs(1), 100_000, 2048, 0.0)],
        job_tenants: vec![TenantId(0)],
    }
}

#[test]
fn shutdown_drains_completely_with_predictive_rejection_active() {
    // Predictive rejection removes arrivals *before* admission; the drain
    // guarantee must be unchanged: every admitted instance resolves, the
    // ledger balances arrival-for-arrival, and no container survives.
    let report = congested_run(PredictiveConfig::enabled(u32::MAX, 1.0), Some(slo_plan()));
    assert!(
        report.admission.predictive_rejects > 0,
        "the veto must actually fire for this test to mean anything"
    );
    assert_eq!(
        report.admission.arrivals(),
        60,
        "rejects stay on the ledger"
    );
    assert_eq!(
        report.admission.admitted, report.admission.finished,
        "every admission was balanced by a finish despite mid-run vetoes"
    );
    assert_eq!(report.stranded_instances, 0);
    assert_eq!(report.live_containers_at_exit, 0);
    assert_eq!(report.runtime.boots, report.runtime.kills);
}

#[test]
fn zero_prediction_budget_is_bit_identical_to_a_plane_without_it() {
    // checks_per_window = 0 must make the feature indistinguishable from
    // not existing — even with a finite SLO, an aggressive k·σ, and real
    // congestion that triggers vetoes under any nonzero budget — and the
    // same congested workload must diverge once the budget is nonzero,
    // proving the budget was the only gate.
    let off = congested_run(PredictiveConfig::enabled(0, 5.0), Some(slo_plan()));
    let plain = congested_run(PredictiveConfig::default(), None);
    assert_eq!(off.admission.predictive_rejects, 0);
    assert_eq!(off.completed, plain.completed);
    assert_eq!(off.events_processed, plain.events_processed);
    assert_eq!(off.latency, plain.latency);
    assert_eq!(off.pool, plain.pool);
    assert_eq!(off.runtime, plain.runtime);
    assert_eq!(off.admission, plain.admission);
    let on = congested_run(PredictiveConfig::enabled(u32::MAX, 1.0), Some(slo_plan()));
    assert!(
        on.admission.predictive_rejects > 0,
        "budget was the only gate"
    );
    assert_ne!(on.admission, plain.admission);
}

#[test]
fn zero_rate_fault_plan_is_a_noop() {
    // A zero-rate plan must be indistinguishable from FaultPlan::disabled()
    // in every deterministic counter (wall-clock fields are excluded by
    // comparing the service report, which has none).
    let zero = FaultPlan::from_seed(99, FaultRates::default());
    let a = run_with(&FaultPlan::disabled(), short_cfg());
    let b = run_with(&zero, short_cfg());
    assert_eq!(a.pool.boot_failures, 0);
    assert_eq!(b.pool.boot_failures, 0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.pool, b.pool);
    assert_eq!(a.runtime, b.runtime);
    assert_eq!(a.admission, b.admission);
}

/// A plane over the Azure-shaped trace `azure`, shutting down when its
/// arrivals end.
fn azure_run(azure: &AzureScaleConfig) -> ServiceReport {
    let wl = azure_scale(azure);
    let cfg = ServiceConfig {
        run_for: SimDuration::from_secs(azure.minutes * 60),
        ..ServiceConfig::default()
    };
    ControlPlane::new(
        wl.registry,
        wl.jobs,
        Box::new(HistogramPolicy::default()),
        &FaultPlan::disabled(),
        cfg,
    )
    .run()
}

#[test]
fn azure_trace_completes_and_drains_clean() {
    let azure = AzureScaleConfig {
        apps: 24,
        minutes: 2,
        total_rpm: 600.0,
        ..AzureScaleConfig::smoke()
    };
    let report = azure_run(&azure);
    assert!(report.completed > 0, "workload must make progress");
    assert_eq!(report.live_containers_at_exit, 0);
    assert_eq!(report.stranded_instances, 0);
    assert!(
        report.sim_horizon >= SimTime::from_secs(120),
        "drain runs at least to the shutdown horizon"
    );
}

#[test]
fn azure_trace_replays_identically() {
    let azure = AzureScaleConfig {
        apps: 12,
        minutes: 1,
        total_rpm: 300.0,
        ..AzureScaleConfig::smoke()
    };
    let a = azure_run(&azure);
    let b = azure_run(&azure);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.runtime, b.runtime);
}
