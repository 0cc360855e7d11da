//! Fig. 17: the cost of dropping the pre-warmed container pool — the
//! resource manager alone vs the full system.
//!
//! Paper shape: without the pool, profiling mixes cold- and warm-start
//! behaviour, the manager over-provisions, and the run pays ~64% more CPU
//! time and ~28% more memory time than the full system.

use aqua_sim::{SimRng, SimTime};
use aqua_workflows::RateTraceConfig;
use aquatope_core::{run_framework, AquatopeConfig, ClusterSpec, Framework, Workload};
use serde_json::json;

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let minutes = 150;
    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = aqua_workflows::apps::ml_pipeline(&mut registry);
    // An Azure-like trace: diurnal load with occasional bursts at a mean
    // of 5 invocations/minute.
    let arrivals = RateTraceConfig {
        minutes,
        mean_rpm: 5.0,
        diurnal: 0.4,
        weekly: 0.0,
        burst_prob: 0.01,
        burst_scale: 2.5,
        burst_len: 5.0,
        rate_noise_cv: 0.15,
        business_hours: 0.0,
        timer_spike: None,
    }
    .generate(&mut SimRng::seed(0xF1617))
    .arrivals;
    let workloads = vec![Workload { app, arrivals }];
    let mut cfg = AquatopeConfig::fast();
    cfg.search_budget = 20;
    let horizon = SimTime::from_secs(60 * (minutes as u64 + 2));

    let full = run_framework(
        Framework::Aquatope,
        &registry,
        &workloads,
        ClusterSpec::default(),
        horizon,
        &cfg,
    );
    let rm_only = run_framework(
        Framework::AquatopeRmOnly,
        &registry,
        &workloads,
        ClusterSpec::default(),
        horizon,
        &cfg,
    );

    json!({
        "experiment": "fig17",
        "full": { "cpu": full.cpu_core_seconds, "mem": full.memory_gb_seconds,
                  "cold": full.cold_start_rate, "violations": full.qos_violation_rate },
        "rm_only": { "cpu": rm_only.cpu_core_seconds, "mem": rm_only.memory_gb_seconds,
                     "cold": rm_only.cold_start_rate, "violations": rm_only.qos_violation_rate },
    })
}
