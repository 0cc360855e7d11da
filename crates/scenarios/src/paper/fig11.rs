//! Fig. 11: provisioned container memory over time under fluctuating load —
//! Aquatope vs AquaLite (no uncertainty) vs the actual demand.
//!
//! Paper shape: Aquatope tracks the actual memory demand more closely than
//! AquaLite, reducing both cold starts and over-provisioned memory.

use aqua_faas::sim::WorkflowJob;
use aqua_faas::types::ResourceConfig;
use aqua_faas::{NoiseModel, PrewarmController, StageConfigs};
use aqua_pool::{AquatopePool, AquatopePoolConfig};
use aqua_sim::{SimRng, SimTime};
use aqua_workflows::{apps, concurrency_series, RateTraceConfig};
use serde_json::json;

use super::common::cluster_sim;

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let minutes = 300;
    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = apps::chain(&mut registry, 2);
    let mut rng = SimRng::seed(0xF1611);
    let trace = RateTraceConfig::fluctuating(minutes, 5.0).generate(&mut rng);
    let per_container_mb = 1024.0;
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(1.0, per_container_mb, 1));
    let job = WorkflowJob::new(app.dag.clone(), configs, trace.arrivals.clone());
    let horizon = SimTime::from_secs(60 * (minutes as u64 + 2));

    let pool_cfg = {
        let mut cfg = AquatopePoolConfig {
            warmup_windows: 48,
            ..AquatopePoolConfig::default()
        };
        cfg.hybrid.pretrain_epochs = 2;
        cfg.hybrid.train_epochs = 4;
        cfg
    };

    let run_policy = |policy: &mut dyn PrewarmController, seed: u64| {
        let mut sim = cluster_sim(registry.clone(), NoiseModel::production(), seed);
        let report = sim.run(std::slice::from_ref(&job), policy, horizon);
        // Provisioned GB per minute from pool snapshots.
        let series: Vec<f64> = report
            .pool_snapshots
            .iter()
            .map(|(_, mb)| mb / 1024.0)
            .collect();
        // "Actual" demand: concurrent containers × container size.
        let demand: Vec<f64> = app
            .dag
            .functions()
            .iter()
            .map(|f| concurrency_series(&report, *f, minutes))
            .fold(vec![0.0; minutes], |acc, s| {
                acc.iter().zip(&s).map(|(a, b)| a + b).collect()
            })
            .iter()
            .map(|c| c * per_container_mb / 1024.0)
            .collect();
        (
            series,
            demand,
            report.cold_start_rate(),
            report.memory_gb_seconds,
        )
    };

    let mut aqua = AquatopePool::new(pool_cfg.clone(), &[&app.dag]);
    let (aqua_series, demand, aqua_cold, aqua_mem) = run_policy(&mut aqua, 31);
    let mut lite = AquatopePool::aqualite(pool_cfg, &[&app.dag]);
    let (lite_series, _, lite_cold, lite_mem) = run_policy(&mut lite, 31);

    // Tracking error after the warm-up phase: mean |provisioned − demand|.
    let start = 64.min(demand.len());
    let track = |series: &[f64]| -> f64 {
        let n = series.len().min(demand.len());
        if n <= start {
            return 0.0;
        }
        (start..n)
            .map(|i| (series[i] - demand[i]).abs())
            .sum::<f64>()
            / (n - start) as f64
    };
    let aqua_track = track(&aqua_series);
    let lite_track = track(&lite_series);

    json!({
        "experiment": "fig11",
        "aquatope": {"cold": aqua_cold, "memory_gb_s": aqua_mem, "tracking_gb": aqua_track, "series": aqua_series},
        "aqualite": {"cold": lite_cold, "memory_gb_s": lite_mem, "tracking_gb": lite_track, "series": lite_series},
        "demand_gb": demand,
    })
}
