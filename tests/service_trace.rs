//! Golden tenant-tagged JSONL trace of a two-tenant live-service run.
//!
//! The run is shaped so every tenant-facing event kind appears in the
//! trace: a congested tenant with a tight SLO draws `tenant_admit`,
//! `tenant_shed`, *and* `predictive_reject` events once the latency model
//! fits, while a steady tenant completes everything (`tenant_complete`,
//! `warm_hit`, `cold_start_begin`). The trace is compared byte-for-byte
//! against `tests/golden/service_two_tenant.jsonl` and must be identical
//! under `AQUA_THREADS` ∈ {1, 2, 8}. Under `ReactiveAutoscale` the plane
//! has no fan-out, so the sweep guards against a thread-dependent path
//! coming back.
//!
//! After an *intentional* scheduling change, re-bless the golden with
//! `BLESS=1 cargo test`.

use std::sync::{Arc, Mutex};

use aquatope::faas::{
    FaultPlan, FunctionRegistry, FunctionSpec, QosClass, ResourceConfig, StageConfigs, TenantId,
    TenantPlan, WorkflowDag, WorkflowJob,
};
use aquatope::pool::ReactiveAutoscale;
use aquatope::service::{ControlPlane, PredictiveConfig, ServiceConfig, WarmPoolConfig};
use aquatope::sim::{SimDuration, SimTime};
use aquatope::telemetry::golden::assert_golden;
use aquatope::telemetry::{diff_jsonl, Fanout, Recorder, SharedSink};

/// Runs the two-tenant service and returns its JSONL telemetry trace.
///
/// Tenant 0 is overloaded by construction: a 400 ms body fed every
/// 100 ms against a one-container pool share, under a 1 s SLO — queues
/// stay deep, so depth shedding fires early and the predictive veto
/// takes over once the model has seen enough completions. Tenant 1
/// trickles a 40 ms body through its own guaranteed container.
fn two_tenant_trace() -> String {
    let mut reg = FunctionRegistry::new();
    let hot = reg.register(FunctionSpec::new("hot").with_work_ms(400.0));
    let calm = reg.register(FunctionSpec::new("calm").with_work_ms(40.0));
    let job = |name: &str, f, arrivals| {
        let dag = WorkflowDag::chain(name, vec![f]);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
        WorkflowJob {
            dag,
            configs,
            arrivals,
        }
    };
    let jobs = vec![
        job(
            "hot-app",
            hot,
            (0..60)
                .map(|i| SimTime::from_millis(100 * (i as u64 + 1)))
                .collect(),
        ),
        job(
            "calm-app",
            calm,
            (0..12)
                .map(|i| SimTime::from_millis(500 * i + 250))
                .collect(),
        ),
    ];
    let mem = ResourceConfig::default().memory_mb;
    let plan = TenantPlan {
        classes: vec![
            QosClass::new(SimDuration::from_secs(1), 8, 8, mem),
            QosClass::new(SimDuration::from_secs(30), 64, 64, mem),
        ],
        job_tenants: vec![TenantId(0), TenantId(1)],
    };
    let cfg = ServiceConfig {
        pool: WarmPoolConfig {
            memory_budget_mb: 2.0 * mem,
            ..WarmPoolConfig::default()
        },
        model_sample_every: 1,
        refit_interval: SimDuration::from_secs(2),
        predictive: PredictiveConfig::enabled(u32::MAX, 1.0),
        run_for: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    };
    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let mut plane = ControlPlane::new(
        reg,
        jobs,
        Box::new(ReactiveAutoscale::default()),
        &FaultPlan::disabled(),
        cfg,
    )
    .with_tenants(plan);
    plane.attach_telemetry(Box::new(Fanout::new(vec![rec.clone() as SharedSink])), 64);
    let report = plane.run();
    assert_eq!(report.live_containers_at_exit, 0);
    assert_eq!(report.stranded_instances, 0);
    let jsonl = rec.lock().unwrap().to_jsonl();
    jsonl
}

/// One test (not several) because `AQUA_THREADS` is process-global: the
/// sweep, a guard for any fan-out added to the plane, must run
/// sequentially, and the golden comparison rides on the first trace.
#[test]
fn golden_two_tenant_service_trace_is_thread_count_invariant() {
    let mut traces = Vec::new();
    for threads in ["1", "2", "8"] {
        // SAFETY: single-threaded at this point in the test; the env var
        // is read per par_map call, so setting it between runs is safe.
        unsafe { std::env::set_var("AQUA_THREADS", threads) };
        traces.push((threads, two_tenant_trace()));
    }
    unsafe { std::env::remove_var("AQUA_THREADS") };
    let (_, base) = &traces[0];
    for kind in [
        "tenant_admit",
        "tenant_shed",
        "tenant_complete",
        "predictive_reject",
        "warm_hit",
        "cold_start_begin",
    ] {
        assert!(
            base.contains(&format!("\"type\":\"{kind}\"")),
            "trace must exercise {kind} events"
        );
    }
    // Tenant tags ride on the events: both tenants admit, only the hot
    // tenant is ever shed or predictively rejected.
    let tagged = |kind: &str, tenant: usize| {
        let (kind, tenant) = (
            format!("\"type\":\"{kind}\""),
            format!("\"tenant\":{tenant},"),
        );
        base.lines()
            .any(|l| l.contains(&kind) && l.contains(&tenant))
    };
    assert!(tagged("tenant_admit", 0));
    assert!(tagged("tenant_admit", 1));
    assert!(!tagged("tenant_shed", 1), "steady tenant was shed");
    assert!(!tagged("predictive_reject", 1), "steady tenant was vetoed");
    for (threads, trace) in &traces[1..] {
        if let Some(d) = diff_jsonl(base, trace) {
            panic!("AQUA_THREADS={threads} diverged from the single-threaded trace: {d}");
        }
    }
    assert_golden("service_two_tenant.jsonl", base);
}
