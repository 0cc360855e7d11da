//! Cross-crate integration tests: the full AQUATOPE pipeline on real
//! application workloads.

use aquatope::core::{run_framework, AquatopeConfig, ClusterSpec, Framework, Workload};
use aquatope::faas::FunctionRegistry;
use aquatope::prelude::*;
use aquatope::workflows::{apps, RateTraceConfig};

fn trace_arrivals(minutes: usize, rpm: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed(seed);
    RateTraceConfig::steady(minutes, rpm)
        .generate(&mut rng)
        .arrivals
}

#[test]
fn full_pipeline_meets_qos_on_ml_pipeline() {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let workload = Workload {
        app,
        arrivals: trace_arrivals(20, 6.0, 1),
    };
    let report = run_framework(
        Framework::Aquatope,
        &registry,
        std::slice::from_ref(&workload),
        ClusterSpec::default(),
        SimTime::from_secs(22 * 60),
        &AquatopeConfig::fast(),
    );
    assert!(report.completed > 100, "completed {}", report.completed);
    assert!(
        report.qos_violation_rate < 0.10,
        "violations {:.1}%",
        report.qos_violation_rate * 100.0
    );
}

#[test]
fn mixed_workload_all_apps_complete() {
    let mut registry = FunctionRegistry::new();
    let chain = apps::chain(&mut registry, 3);
    let fan = apps::fan_out_in(&mut registry, 4);
    let workloads = vec![
        Workload {
            app: chain,
            arrivals: trace_arrivals(15, 4.0, 2),
        },
        Workload {
            app: fan,
            arrivals: trace_arrivals(15, 3.0, 3),
        },
    ];
    let report = run_framework(
        Framework::Aquatope,
        &registry,
        &workloads,
        ClusterSpec::default(),
        SimTime::from_secs(17 * 60),
        &AquatopeConfig::fast(),
    );
    let arrived: usize = workloads.iter().map(|w| w.arrivals.len()).sum();
    assert!(
        report.completed + report.unfinished >= arrived * 95 / 100,
        "completed {} + unfinished {} of {arrived}",
        report.completed,
        report.unfinished
    );
    assert!(report.qos_violation_rate < 0.15);
}

#[test]
fn aquatope_framework_dominates_autoscale_on_violations() {
    let mut registry = FunctionRegistry::new();
    let app = apps::video_processing(&mut registry);
    let workloads = vec![Workload {
        app,
        arrivals: trace_arrivals(18, 4.0, 5),
    }];
    let cfg = AquatopeConfig::fast();
    let horizon = SimTime::from_secs(20 * 60);
    let aq = run_framework(
        Framework::Aquatope,
        &registry,
        &workloads,
        ClusterSpec::default(),
        horizon,
        &cfg,
    );
    let auto = run_framework(
        Framework::Autoscale,
        &registry,
        &workloads,
        ClusterSpec::default(),
        horizon,
        &cfg,
    );
    // Dense steady traffic is the autoscaler-friendly regime (everything
    // stays warm), so parity within a small tolerance is the expectation
    // here; the decisive intermittent-traffic comparisons live in the
    // fig09/fig18 experiment harness.
    assert!(
        aq.qos_violation_rate <= (auto.qos_violation_rate + 0.10).max(0.12),
        "aquatope {:.2} vs autoscale {:.2}",
        aq.qos_violation_rate,
        auto.qos_violation_rate
    );
}

#[test]
fn reports_are_deterministic_given_seeds() {
    let build = || {
        let mut registry = FunctionRegistry::new();
        let app = apps::chain(&mut registry, 2);
        (
            registry,
            Workload {
                app,
                arrivals: trace_arrivals(10, 5.0, 9),
            },
        )
    };
    let (r1, w1) = build();
    let (r2, w2) = build();
    let horizon = SimTime::from_secs(12 * 60);
    let run = |registry, workload| {
        run_framework(
            Framework::Aquatope,
            registry,
            std::slice::from_ref(workload),
            ClusterSpec::default(),
            horizon,
            &AquatopeConfig::fast(),
        )
    };
    let a = run(&r1, &w1);
    let b = run(&r2, &w2);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.cold_start_rate, b.cold_start_rate);
    assert_eq!(a.cpu_core_seconds, b.cpu_core_seconds);
}
