//! Fig. 17: the cost of dropping the pre-warmed container pool — the
//! resource manager alone vs the full system.
//!
//! Paper shape: without the pool, profiling mixes cold- and warm-start
//! behaviour, the manager over-provisions, and the run pays ~64% more CPU
//! time and ~28% more memory time than the full system.

use aqua_sim::SimTime;
use aquatope_core::{run_framework, AquatopeConfig, ClusterSpec, Framework, Workload};
use serde_json::json;

use crate::common::azure_like_arrivals;

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let minutes = 150;
    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = aqua_workflows::apps::ml_pipeline(&mut registry);
    let workloads = vec![Workload {
        app,
        arrivals: azure_like_arrivals(minutes, 5.0, 0xF1617),
    }];
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
