//! Bit-level pin on the AQUATOPE controller's end-to-end report: plan every
//! application with the customized-BO resource manager, then replay the
//! mix under the dynamic pre-warmed pool. Two workloads, the ones
//! `tests/end_to_end.rs` runs:
//!
//! * the ML pipeline alone, 20 steady minutes at 6 invocations/min;
//! * a three-stage chain beside a four-way fan-out/fan-in, 15 minutes
//!   each at 4 and 3 invocations/min.
//!
//! Every float of the report is pinned by `to_bits` in
//! `tests/golden/pins.txt`, beside the completed and unfinished counts and
//! the event loop's event count. They were captured before the batch
//! replay path under them was changed, in debug and `--release`, and must
//! not move when only the way the controller is assembled does.

use aquatope::core::{
    run_framework, AquatopeConfig, ClusterSpec, EndToEndReport, Framework, Workload,
};
use aquatope::faas::FunctionRegistry;
use aquatope::prelude::*;
use aquatope::telemetry::golden::assert_pinned;
use aquatope::telemetry::pin_fields;
use aquatope::workflows::{apps, RateTraceConfig};

fn trace_arrivals(minutes: usize, rpm: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed(seed);
    RateTraceConfig::steady(minutes, rpm)
        .generate(&mut rng)
        .arrivals
}

fn run(registry: &FunctionRegistry, workloads: &[Workload], horizon: SimTime) -> EndToEndReport {
    run_framework(
        Framework::Aquatope,
        registry,
        workloads,
        ClusterSpec::default(),
        horizon,
        &AquatopeConfig::fast(),
    )
}

fn assert_report_pinned(test: &str, r: &EndToEndReport) {
    let mut pins = pin_fields!("", r; qos_violation_rate, cold_start_rate, cpu_core_seconds,
        memory_gb_seconds, execution_cost, completed, unfinished);
    pins.extend(pin_fields!("", r.raw; events_processed));
    assert_pinned(test, &pins);
}

#[test]
fn ml_pipeline_report_bits_are_pinned() {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let workload = Workload {
        app,
        arrivals: trace_arrivals(20, 6.0, 1),
    };
    let r = run(
        &registry,
        std::slice::from_ref(&workload),
        SimTime::from_secs(22 * 60),
    );
    assert_report_pinned("ml_pipeline_report", &r);
}

#[test]
fn mixed_workload_report_bits_are_pinned() {
    let mut registry = FunctionRegistry::new();
    let chain = apps::chain(&mut registry, 3);
    let fan = apps::fan_out_in(&mut registry, 4);
    let workloads = [
        Workload {
            app: chain,
            arrivals: trace_arrivals(15, 4.0, 2),
        },
        Workload {
            app: fan,
            arrivals: trace_arrivals(15, 3.0, 3),
        },
    ];
    let r = run(&registry, &workloads, SimTime::from_secs(17 * 60));
    assert_report_pinned("mixed_workload_report", &r);
}
