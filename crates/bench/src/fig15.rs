//! Fig. 15: robustness to irregular cloud noise — execution cost (% of
//! oracle) as intermittent background jobs inject heavy-tailed outliers.
//!
//! Paper shape: Aquatope stays near-optimal at every noise level; AquaLite
//! (no anomaly pruning / noisy EI) pays 10–33% more; CLITE 37–64% more.
//!
//! Chosen configurations are re-validated with fresh samples and averaged
//! over seeds; QoS-violating picks are excluded and counted.

use aqua_alloc::{AquatopeRm, Clite, ResourceManager};
use aqua_faas::{NoiseModel, StageConfigs};
use aqua_workflows::apps;
use serde_json::json;

use crate::common::{oracle, revalidate, sim_evaluator, PickScore};

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let budget = 30;
    let samples = 3;
    let seeds = 3;
    let levels = [0.0, 1.0, 2.0, 3.0, 4.0];

    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let qos = app.qos.as_secs_f64();

    // Oracle configuration under quiet conditions (the offline reference).
    let (oracle_cfg, _) = oracle(&registry, &app.dag, qos, 0xF1615);

    let mut records = Vec::new();
    for (li, &level) in levels.iter().enumerate() {
        let noise = NoiseModel::background_jobs(level);
        let (_, oracle_cost) =
            revalidate(&registry, &app.dag, &oracle_cfg, noise, 0xF1615 + li as u64);

        let mut scores = [PickScore::default(); 3];
        for seed in 0..seeds {
            let base = 0xF1615 + li as u64 * 100 + seed;
            let eval_for = |sd: u64| sim_evaluator(&registry, &app.dag, noise, samples, sd);
            let picks: [Option<StageConfigs>; 3] = [
                Clite::new(base)
                    .optimize(&mut eval_for(base), qos, budget)
                    .best
                    .map(|b| b.0),
                AquatopeRm::aqualite(base)
                    .optimize(&mut eval_for(base), qos, budget)
                    .best
                    .map(|b| b.0),
                AquatopeRm::new(base)
                    .optimize(&mut eval_for(base), qos, budget)
                    .best
                    .map(|b| b.0),
            ];
            for (score, pick) in scores.iter_mut().zip(picks) {
                let truth =
                    pick.map(|cfg| revalidate(&registry, &app.dag, &cfg, noise, 7_000 + seed));
                score.add(truth, qos, oracle_cost);
            }
        }
        let [clite, aqualite, aquatope] = scores;
        records.push(json!({
            "noise_level": level,
            "clite_pct": clite.pct(), "aqualite_pct": aqualite.pct(), "aquatope_pct": aquatope.pct(),
            "violations": {
                "clite": clite.violations,
                "aqualite": aqualite.violations,
                "aquatope": aquatope.violations,
            },
        }));
    }
    json!({ "experiment": "fig15", "points": records })
}
