//! Fig. 9: cold-start rate (a) and provisioned memory time (b) of the six
//! pool policies on the same Azure-like workload.
//!
//! Paper shape: Keep ≈ 51% cold starts, Autoscale ≈ 44%, FaaSCache similar
//! to Autoscale, Hist and IceBreaker substantially better, Aquatope < 4%.
//! Memory: Autoscale ≈ 105% of Keep, IceBreaker ≈ 75%, Aquatope lowest.

use aqua_faas::sim::WorkflowJob;
use aqua_faas::types::ResourceConfig;
use aqua_faas::{
    FixedPrewarm, FunctionId, FunctionRegistry, NoiseModel, PrewarmController, StageConfigs,
};
use aqua_pool::{
    AquatopePool, AquatopePoolConfig, FaasCachePolicy, HistogramPolicy, IceBreakerPolicy,
    ReactiveAutoscale,
};
use aqua_sim::{SimRng, SimTime};
use aqua_workflows::{apps, split_history};
use serde_json::json;

use super::common::cluster_sim;

/// The measured window starts after `HISTORY_MINUTES` of recorded
/// invocations; predictive policies train on that history first, as the
/// paper's scheduler does with the CouchDB invocation log.
const HISTORY_MINUTES: usize = 360;
/// Length of the measured window.
const MINUTES: usize = 420;

/// The Fig. 9 workload: intermittent Azure-like traffic where invocation
/// gaps routinely exceed provider keep-alives (the dominant pattern in the
/// Azure dataset — rarely-invoked functions with periodic timer components
/// plus irregular arrivals). This is the regime in which keep-alive and
/// pre-warming decisions decide the cold-start rate.
///
/// Registers the apps in `registry` and returns the live jobs and the
/// per-function pre-load history.
fn workload(
    registry: &mut FunctionRegistry,
    seed: u64,
) -> (Vec<WorkflowJob>, Vec<(FunctionId, Vec<f64>)>) {
    let total = HISTORY_MINUTES + MINUTES;
    let fan = apps::fan_out_in(registry, 6);
    let chain = apps::chain(registry, 3);

    let mut rng = SimRng::seed(seed);
    // App A: timer-driven every 20 min plus rare extra invocations —
    // predictable for pattern-aware policies, always past a 10-min
    // keep-alive for reactive ones.
    let mut all_a = Vec::new();
    for m in (2..total as u64).step_by(20) {
        all_a.push(m * 60 + 5);
        if rng.chance(0.15) {
            all_a.push(m * 60 + 5 + 60 * rng.below(12) as u64 + 30);
        }
    }
    all_a.sort_unstable();
    // App B: irregular sparse bursts with mean gap ≈ 14 minutes,
    // diurnally modulated.
    let rates_b: Vec<f64> = (0..total)
        .map(|m| {
            let diurnal = 1.0 + 0.6 * (std::f64::consts::TAU * m as f64 / (24.0 * 60.0)).sin();
            if rng.chance(0.07 * diurnal.max(0.1)) {
                2.0
            } else {
                0.0
            }
        })
        .collect();
    let all_b: Vec<u64> = aqua_sim::PoissonProcess::from_per_minute_rates(&rates_b)
        .generate(&mut rng)
        .iter()
        .map(|t| t.as_secs_f64() as u64)
        .collect();

    // Split at the history boundary (a whole number of hours, so calendar
    // phases stay aligned); live arrivals start at 0.
    let mut jobs = Vec::new();
    let mut preload = Vec::new();
    for (app, secs) in [(&fan, &all_a), (&chain, &all_b)] {
        let arrivals: Vec<SimTime> = secs.iter().map(|s| SimTime::from_secs(*s)).collect();
        let split = split_history(&app.dag, &arrivals, HISTORY_MINUTES);
        let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(1.0, 1024.0, 1));
        jobs.push(WorkflowJob::new(app.dag.clone(), configs, split.live));
        preload.extend(split.history);
    }
    (jobs, preload)
}

fn pool_config() -> AquatopePoolConfig {
    let mut cfg = AquatopePoolConfig {
        warmup_windows: 48,
        retrain_every: 240,
        training_window: 360,
        ..AquatopePoolConfig::default()
    };
    cfg.hybrid.pretrain_epochs = 4;
    cfg.hybrid.train_epochs = 10;
    cfg
}

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let seed = 0xF1609;
    let mut registry = FunctionRegistry::new();
    let (jobs, preload) = workload(&mut registry, seed);
    let horizon = SimTime::from_secs(60 * (MINUTES as u64 + 2));
    let dags: Vec<&aqua_faas::WorkflowDag> = jobs.iter().map(|j| &j.dag).collect();

    let mut ice = IceBreakerPolicy::new();
    let mut aqua = AquatopePool::new(pool_config(), &dags);
    for (function, history) in &preload {
        ice.preload_history(*function, history);
        aqua.preload_history(*function, history);
    }

    let policies: Vec<(&str, Box<dyn PrewarmController>)> = vec![
        ("Keep", Box::new(FixedPrewarm::provider_default())),
        ("Autoscale", Box::new(ReactiveAutoscale::new())),
        ("Hist", Box::new(HistogramPolicy::new())),
        ("FaaSCache", Box::new(FaasCachePolicy::new())),
        ("IceBreaker", Box::new(ice)),
        ("Aquatope", Box::new(aqua)),
    ];

    let mut results = Vec::new();
    for (name, mut policy) in policies {
        let mut sim = cluster_sim(registry.clone(), NoiseModel::production(), seed);
        let report = sim.run(&jobs, policy.as_mut(), horizon);
        results.push((
            name,
            report.cold_start_rate(),
            report.memory_gb_seconds,
            report.workflows.len(),
        ));
    }

    let keep_memory = results[0].2;
    json!({
        "experiment": "fig09",
        "policies": results.iter().map(|(n, c, m, d)| json!({
            "policy": n, "cold_start_rate": c,
            "memory_gb_s": m, "memory_pct_of_keep": 100.0 * m / keep_memory,
            "completed": d,
        })).collect::<Vec<_>>(),
    })
}
