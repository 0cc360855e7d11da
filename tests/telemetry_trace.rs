//! Telemetry regression tests: trace determinism, golden JSONL traces, and
//! the online invariant checker riding along full end-to-end runs.
//!
//! Golden files live in `tests/golden/` and are checked through
//! `aquatope::telemetry::golden` (re-bless with `BLESS=1 cargo test`).

use std::sync::{Arc, Mutex};

use aquatope::core::{run_framework_traced, AquatopeConfig, ClusterSpec, Framework, Workload};
use aquatope::faas::prelude::*;
use aquatope::faas::types::ResourceConfig;
use aquatope::telemetry::golden::assert_golden;
use aquatope::telemetry::{diff_jsonl, Fanout, InvariantChecker, Recorder, SimEvent, Telemetry};
use aquatope::workflows::{apps, App};

/// Replays `app` on a fixed arrival trace with a recording sink attached
/// and returns the JSONL trace.
fn trace_app(make_app: fn(&mut FunctionRegistry) -> App, seed: u64) -> String {
    let mut registry = FunctionRegistry::new();
    let app = make_app(&mut registry);
    let (tel, rec) = Telemetry::recording();
    let mut sim = FaasSim::builder()
        .workers(4, 40.0, 65_536)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(seed)
        .telemetry(tel)
        .build();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=30u64).map(|i| SimTime::from_secs(i * 7)).collect();
    sim.run_workflow_trace(&app.dag, &configs, &arrivals, SimTime::from_secs(400));
    let jsonl = rec.lock().unwrap().to_jsonl();
    jsonl
}

fn chain3(registry: &mut FunctionRegistry) -> App {
    apps::chain(registry, 3)
}

#[test]
fn same_seed_produces_byte_identical_traces() {
    let a = trace_app(apps::ml_pipeline, 11);
    let b = trace_app(apps::ml_pipeline, 11);
    assert!(!a.is_empty(), "trace must not be empty");
    assert!(
        diff_jsonl(&a, &b).is_none(),
        "same seed must replay byte for byte"
    );
}

#[test]
fn different_seeds_diverge() {
    let a = trace_app(apps::ml_pipeline, 11);
    let b = trace_app(apps::ml_pipeline, 12);
    let d = diff_jsonl(&a, &b).expect("different noise seeds must alter the trace");
    // The divergence report points at a concrete first event.
    assert!(d.left.is_some() || d.right.is_some());
}

#[test]
fn golden_trace_ml_pipeline() {
    assert_golden("ml_pipeline.jsonl", &trace_app(apps::ml_pipeline, 7));
}

#[test]
fn golden_trace_chain() {
    assert_golden("chain.jsonl", &trace_app(chain3, 7));
}

#[test]
fn invariants_hold_on_plain_replay() {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let (tel, checker) = Telemetry::attach(InvariantChecker::new(4, 65_536.0));
    let mut sim = FaasSim::builder()
        .workers(4, 40.0, 65_536)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(3)
        .telemetry(tel)
        .build();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=40u64).map(|i| SimTime::from_secs(i * 5)).collect();
    sim.run_workflow_trace(&app.dag, &configs, &arrivals, SimTime::from_secs(300));
    let checker = checker.lock().unwrap();
    assert!(
        checker.events_seen() > 100,
        "checker saw {} events",
        checker.events_seen()
    );
    checker.assert_ok();
}

#[test]
fn framework_run_emits_all_layers_and_upholds_invariants() {
    let mut registry = FunctionRegistry::new();
    let app = apps::chain(&mut registry, 2);
    let workloads = vec![Workload {
        app,
        arrivals: (1..40u64).map(|i| SimTime::from_secs(i * 15)).collect(),
    }];
    let cluster = ClusterSpec::default();

    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let checker = Arc::new(Mutex::new(InvariantChecker::new(
        cluster.workers,
        cluster.memory_mb_per_worker as f64,
    )));
    let tel = Telemetry::new(Arc::new(Mutex::new(Fanout::new(vec![
        rec.clone() as aquatope::telemetry::SharedSink,
        checker.clone() as aquatope::telemetry::SharedSink,
    ]))));

    let report = run_framework_traced(
        Framework::Aquatope,
        &registry,
        &workloads,
        cluster,
        SimTime::from_secs(700),
        &AquatopeConfig::fast(),
        &[],
        tel,
    );
    assert!(report.completed > 20);

    let events = rec.lock().unwrap().events();
    let count = |pred: fn(&SimEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    assert!(
        count(|e| matches!(e, SimEvent::BoIteration { .. })) > 0,
        "resource manager must report BO iterations"
    );
    assert!(
        count(|e| matches!(e, SimEvent::PoolResize { .. })) > 0,
        "pool must report resize decisions"
    );
    assert!(
        count(|e| matches!(e, SimEvent::StageComplete { .. })) >= report.completed,
        "every completed workflow finishes at least one stage"
    );
    let violations = count(|e| matches!(e, SimEvent::QosViolation { .. }));
    let arrived = workloads[0].arrivals.len();
    assert!(
        violations <= arrived,
        "{violations} violation events for {arrived} arrivals"
    );

    let checker = checker.lock().unwrap();
    assert!(checker.events_seen() > 0);
    checker.assert_ok();
}
