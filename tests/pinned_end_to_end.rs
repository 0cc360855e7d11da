//! Bit-level pin on the AQUATOPE controller's end-to-end report: plan every
//! application with the customized-BO resource manager, then replay the
//! mix under the dynamic pre-warmed pool. Two workloads, the ones
//! `tests/end_to_end.rs` runs:
//!
//! * the ML pipeline alone, 20 steady minutes at 6 invocations/min;
//! * a three-stage chain beside a four-way fan-out/fan-in, 15 minutes
//!   each at 4 and 3 invocations/min.
//!
//! Every float of the report is compared by `to_bits`, beside the
//! completed and unfinished counts and the event loop's event count. The
//! literals were captured before the batch driver under them was changed,
//! in debug and `--release`, and must not move when only the way the
//! controller is assembled does (a mismatch prints the observed values).

use aquatope::core::{
    run_framework, AquatopeConfig, ClusterSpec, EndToEndReport, Framework, Workload,
};
use aquatope::faas::FunctionRegistry;
use aquatope::prelude::*;
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

fn bits(r: &EndToEndReport) -> [u64; 8] {
    [
        r.qos_violation_rate.to_bits(),
        r.cold_start_rate.to_bits(),
        r.cpu_core_seconds.to_bits(),
        r.memory_gb_seconds.to_bits(),
        r.execution_cost.to_bits(),
        r.completed as u64,
        r.unfinished as u64,
        r.raw.events_processed,
    ]
}

#[test]
fn ml_pipeline_report_bits_are_pinned() {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let workload = Workload {
        app,
        arrivals: trace_arrivals(20, 6.0, 1),
    };
    let got = bits(&run(
        &registry,
        std::slice::from_ref(&workload),
        SimTime::from_secs(22 * 60),
    ));
    let want: [u64; 8] = [
        0x3f90410410410410,
        0x3f88618618618618,
        0x4073b13d674a4a5e,
        0x40d3c226eb96f218,
        0x407fdf579ac4cb2e,
        0x7e,
        0x0,
        0x2bd,
    ];
    assert_eq!(got, want, "observed {got:#x?}");
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
    let got = bits(&run(&registry, &workloads, SimTime::from_secs(17 * 60)));
    let want: [u64; 8] = [
        0x3f9f07c1f07c1f08,
        0x3f95c9882b931057,
        0x405dfce45e21acb0,
        0x40d8c2b713e4ef00,
        0x4066f6eb65cb35fa,
        0x63,
        0x0,
        0x25f,
    ];
    assert_eq!(got, want, "observed {got:#x?}");
}
