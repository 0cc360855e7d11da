//! Golden-trace equivalence for the fast-refit BO engine.
//!
//! The incremental-Cholesky / shared-precompute / parallel-acquisition
//! paths in `aqua-linalg` and `aqua-gp` replace exact computations and
//! must be *bit-compatible*: a full `run_framework_traced` replay — BO
//! iterations, pool resizes, per-stage scheduling — has to produce the
//! same JSONL trace byte for byte as the pre-fast-path code. The golden
//! files below were blessed from the slow path; any divergence means the
//! "optimization" changed a decision.
//!
//! Re-bless after an *intentional* behaviour change with
//! `BLESS=1 cargo test`.

use aquatope::core::{run_framework_traced, AquatopeConfig, ClusterSpec, Framework, Workload};
use aquatope::faas::prelude::*;
use aquatope::telemetry::golden::assert_golden;
use aquatope::telemetry::Telemetry;
use aquatope::workflows::{apps, App};

/// Plans and replays `app` under the full Aquatope framework with a
/// recording sink attached, returning the JSONL trace.
fn framework_trace(make_app: fn(&mut FunctionRegistry) -> App) -> String {
    let mut registry = FunctionRegistry::new();
    let app = make_app(&mut registry);
    let workloads = vec![Workload {
        app,
        arrivals: (1..30u64).map(|i| SimTime::from_secs(i * 15)).collect(),
    }];
    let (tel, rec) = Telemetry::recording();
    run_framework_traced(
        Framework::Aquatope,
        &registry,
        &workloads,
        ClusterSpec::default(),
        SimTime::from_secs(500),
        &AquatopeConfig::fast(),
        &[],
        tel,
    );
    let jsonl = rec.lock().unwrap().to_jsonl();
    jsonl
}

fn chain3(registry: &mut FunctionRegistry) -> App {
    apps::chain(registry, 3)
}

#[test]
fn framework_trace_ml_pipeline_byte_identical() {
    assert_golden(
        "framework_ml_pipeline.jsonl",
        &framework_trace(apps::ml_pipeline),
    );
}

#[test]
fn framework_trace_chain_byte_identical() {
    assert_golden("framework_chain.jsonl", &framework_trace(chain3));
}
