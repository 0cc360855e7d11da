//! Fig. 9: cold-start rate (a) and provisioned memory time (b) of the six
//! pool policies on the same Azure-like workload.
//!
//! Paper shape: Keep ≈ 51% cold starts, Autoscale ≈ 44%, FaaSCache similar
//! to Autoscale, Hist and IceBreaker substantially better, Aquatope < 4%.
//! Memory: Autoscale ≈ 105% of Keep, IceBreaker ≈ 75%, Aquatope lowest.

use aqua_faas::sim::WorkflowJob;
use aqua_faas::types::ResourceConfig;
use aqua_faas::{FixedPrewarm, NoiseModel, PrewarmController, StageConfigs};
use aqua_pool::{
    AquatopePool, AquatopePoolConfig, FaasCachePolicy, HistogramPolicy, IceBreakerPolicy,
    ReactiveAutoscale,
};
use aqua_sim::{SimRng, SimTime};
use aqua_workflows::{apps, App};
use serde_json::json;

use crate::common::{cluster_sim, print_table, Scale};

/// The Fig. 9 workload: intermittent Azure-like traffic where invocation
/// gaps routinely exceed provider keep-alives (the dominant pattern in the
/// Azure dataset — rarely-invoked functions with periodic timer components
/// plus irregular arrivals). This is the regime in which keep-alive and
/// pre-warming decisions decide the cold-start rate.
fn workload(
    scale: Scale,
    seed: u64,
) -> (
    aqua_faas::FunctionRegistry,
    Vec<WorkflowJob>,
    SimTime,
    Vec<App>,
    Vec<Vec<f64>>, // per-app historical per-minute arrival counts
) {
    // The measured window starts after `history` minutes of recorded
    // invocations; predictive policies train on that history first, as the
    // paper's scheduler does with the CouchDB invocation log.
    let history = scale.pick(360usize, 960);
    let minutes = scale.pick(420usize, 900);
    let total = history + minutes;
    let mut registry = aqua_faas::FunctionRegistry::new();
    let fan = apps::fan_out_in(&mut registry, 6);
    let chain = apps::chain(&mut registry, 3);

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

    // Split at the history boundary; live arrivals are shifted so the
    // measured run starts at 0 (history is a whole number of hours, so
    // calendar phases stay aligned).
    let split_secs = history as u64 * 60;
    let live = |secs: &[u64]| -> Vec<SimTime> {
        secs.iter()
            .filter(|s| **s >= split_secs)
            .map(|s| SimTime::from_secs(s - split_secs))
            .collect()
    };
    let hist_counts = |secs: &[u64], tasks_per_arrival: f64| -> Vec<f64> {
        let mut counts = vec![0.0; history];
        for s in secs.iter().filter(|s| **s < split_secs) {
            counts[(*s / 60) as usize] += tasks_per_arrival;
        }
        counts
    };
    // Historical concurrency approximation: each workflow arrival briefly
    // occupies one container per stage task.
    let hist_a = hist_counts(&all_a, 1.0);
    let hist_b = hist_counts(&all_b, 1.0);

    let cfg_fan = StageConfigs::uniform(&fan.dag, ResourceConfig::new(1.0, 1024.0, 1));
    let cfg_chain = StageConfigs::uniform(&chain.dag, ResourceConfig::new(1.0, 1024.0, 1));
    let jobs = vec![
        WorkflowJob::new(fan.dag.clone(), cfg_fan, live(&all_a)),
        WorkflowJob::new(chain.dag.clone(), cfg_chain, live(&all_b)),
    ];
    let horizon = SimTime::from_secs(60 * (minutes as u64 + 2));
    (
        registry,
        jobs,
        horizon,
        vec![fan, chain],
        vec![hist_a, hist_b],
    )
}

fn pool_config(scale: Scale) -> AquatopePoolConfig {
    let mut cfg = AquatopePoolConfig {
        warmup_windows: scale.pick(48, 64),
        retrain_every: scale.pick(240, 180),
        training_window: scale.pick(360, 960),
        ..AquatopePoolConfig::default()
    };
    cfg.hybrid.pretrain_epochs = scale.pick(4, 6);
    cfg.hybrid.train_epochs = scale.pick(10, 14);
    cfg
}

/// Runs the experiment and returns its JSON record.
pub fn run(scale: Scale) -> serde_json::Value {
    let seed = 0xF1609;
    let (registry, jobs, horizon, the_apps, histories) = workload(scale, seed);
    let dags: Vec<&aqua_faas::WorkflowDag> = the_apps.iter().map(|a| &a.dag).collect();

    // Per-function scaled histories: a stage with k tasks sees k× the
    // workflow arrival concurrency.
    let mut ice = IceBreakerPolicy::new();
    let mut aqua = AquatopePool::new(pool_config(scale), &dags);
    for (app, hist) in the_apps.iter().zip(&histories) {
        for stage in app.dag.stages() {
            let scaled: Vec<f64> = hist.iter().map(|c| c * stage.tasks as f64).collect();
            ice.preload_history(stage.function, &scaled);
            aqua.preload_history(stage.function, &scaled);
        }
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
    let paper_cold = [51.0, 44.0, 34.0, 43.0, 28.0, 4.0];
    let paper_mem = [100.0, 105.0, 90.0, 103.0, 75.0, 58.0];
    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, (name, cold, mem, done))| {
            vec![
                name.to_string(),
                format!("{:.1}%", cold * 100.0),
                format!("{:.0}%", paper_cold[i]),
                format!("{:.0}%", 100.0 * mem / keep_memory),
                format!("{:.0}%", paper_mem[i]),
                done.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 9: cold starts (a) and provisioned memory time (b), relative to Keep",
        &[
            "Policy",
            "Cold",
            "Paper-cold",
            "Mem (%Keep)",
            "Paper-mem",
            "Completed",
        ],
        &rows,
    );

    json!({
        "experiment": "fig09",
        "policies": results.iter().map(|(n, c, m, d)| json!({
            "policy": n, "cold_start_rate": c,
            "memory_gb_s": m, "memory_pct_of_keep": 100.0 * m / keep_memory,
            "completed": d,
        })).collect::<Vec<_>>(),
    })
}
