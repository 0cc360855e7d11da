//! Fig. 10: cold-start rate of IceBreaker vs Aquatope as the workload's
//! coefficient of variation grows (0–4).
//!
//! Paper shape: similar at CV ≈ 0, Aquatope progressively better at CV 1–4
//! (13–41% fewer cold starts), because the uncertainty-aware pool keeps
//! head-room exactly when the load is erratic.

use aqua_faas::sim::WorkflowJob;
use aqua_faas::types::ResourceConfig;
use aqua_faas::{NoiseModel, PrewarmController, StageConfigs};
use aqua_pool::{AquatopePool, AquatopePoolConfig, IceBreakerPolicy};
use aqua_sim::{arrivals_with_cv, SimDuration, SimRng, SimTime};
use aqua_workflows::{apps, split_history};
use serde_json::json;

use crate::common::cluster_sim;

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    // Sparse traffic: mean inter-arrival of 4 minutes straddles the
    // policies' keep-alives, so the gap distribution (the CV) decides how
    // many invocations land cold.
    let n_total = 500;
    let mean_gap = 240.0;
    let cvs = [0.0, 1.0, 2.0, 3.0, 4.0];

    let mut records = Vec::new();
    for (ci, &cv) in cvs.iter().enumerate() {
        let mut registry = aqua_faas::FunctionRegistry::new();
        let app = apps::chain(&mut registry, 2);
        let mut rng = SimRng::seed(0xF1610 + ci as u64);
        let all = arrivals_with_cv(n_total, mean_gap, cv, &mut rng);

        // First half is recorded history the models train on; second half
        // is the measured run (hour-aligned split, whole-second arrivals).
        let split_min = (all[n_total / 2].as_secs_f64() / 3600.0).ceil() as usize * 60;
        let whole_secs: Vec<SimTime> = all
            .iter()
            .map(|t| SimTime::from_secs(t.as_secs_f64() as u64))
            .collect();
        let split = split_history(&app.dag, &whole_secs, split_min);
        // +5 s phase offset so arrivals land just after the minute tick
        // (a deterministic CV=0 stream would otherwise race the pool
        // adjustment at exactly the tick instant).
        let live: Vec<SimTime> = split
            .live
            .iter()
            .map(|t| *t + SimDuration::from_secs(5))
            .collect();
        let Some(&last) = live.last() else {
            continue;
        };
        let horizon = last + SimDuration::from_secs(300);
        let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(1.0, 1024.0, 1));
        let job = WorkflowJob::new(app.dag.clone(), configs, live);

        let run_policy = |policy: &mut dyn PrewarmController| {
            let mut sim = cluster_sim(registry.clone(), NoiseModel::production(), 7 + ci as u64);
            let report = sim.run(std::slice::from_ref(&job), policy, horizon);
            report.cold_start_rate()
        };

        let mut ice = IceBreakerPolicy::new();
        let mut pool_cfg = AquatopePoolConfig {
            warmup_windows: 40,
            retrain_every: 600,
            training_window: 480,
            ..AquatopePoolConfig::default()
        };
        pool_cfg.hybrid.pretrain_epochs = 3;
        pool_cfg.hybrid.train_epochs = 8;
        let mut aqua = AquatopePool::new(pool_cfg, &[&app.dag]);
        for (function, history) in &split.history {
            ice.preload_history(*function, history);
            aqua.preload_history(*function, history);
        }

        let ice_cold = run_policy(&mut ice);
        let aqua_cold = run_policy(&mut aqua);
        records.push(json!({
            "cv": cv,
            "icebreaker_cold": ice_cold,
            "aquatope_cold": aqua_cold,
        }));
    }
    json!({ "experiment": "fig10", "points": records })
}
