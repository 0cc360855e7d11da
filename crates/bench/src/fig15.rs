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
use aqua_linalg::mean;
use aqua_workflows::apps;
use serde_json::json;

use crate::common::{cluster_sim, oracle, print_table, sim_evaluator, Scale};

/// Runs the experiment and returns its JSON record.
pub fn run(scale: Scale) -> serde_json::Value {
    let budget = scale.pick(30, 55);
    let samples = scale.pick(3, 4);
    let seeds = scale.pick(3, 6);
    let levels = [0.0, 1.0, 2.0, 3.0, 4.0];

    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let qos = app.qos.as_secs_f64();

    // Oracle configuration under quiet conditions (the offline reference).
    let (oracle_cfg, _) = oracle(&registry, &app.dag, qos, 0xF1615);

    let truth = |configs: &StageConfigs, noise: NoiseModel, seed: u64| -> (f64, f64) {
        let mut sim = cluster_sim(registry.clone(), noise, seed);
        let raw = sim.profile_config(&app.dag, configs, 16, true, 1.0, 1.0);
        (
            mean(&raw.iter().map(|s| s.0).collect::<Vec<_>>()),
            mean(&raw.iter().map(|s| s.1).collect::<Vec<_>>()),
        )
    };

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (li, &level) in levels.iter().enumerate() {
        let noise = NoiseModel::background_jobs(level);
        let (_, oracle_cost) = truth(&oracle_cfg, noise, 0xF1615 + li as u64);

        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        let mut viols = [0usize; 3];
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
            for (mi, pick) in picks.into_iter().enumerate() {
                match pick {
                    Some(cfg) => {
                        let (lat, cost) = truth(&cfg, noise, 7_000 + seed);
                        if lat <= qos * 1.05 {
                            sums[mi] += 100.0 * cost / oracle_cost;
                            counts[mi] += 1;
                        } else {
                            viols[mi] += 1;
                        }
                    }
                    None => viols[mi] += 1,
                }
            }
        }
        let pct = |mi: usize| {
            if counts[mi] > 0 {
                sums[mi] / counts[mi] as f64
            } else {
                f64::NAN
            }
        };
        rows.push(vec![
            format!("{level:.0}"),
            format!("{:.0}% ({})", pct(0), viols[0]),
            format!("{:.0}% ({})", pct(1), viols[1]),
            format!("{:.0}% ({})", pct(2), viols[2]),
        ]);
        records.push(json!({
            "noise_level": level,
            "clite_pct": pct(0), "aqualite_pct": pct(1), "aquatope_pct": pct(2),
            "violations": { "clite": viols[0], "aqualite": viols[1], "aquatope": viols[2] },
        }));
    }
    print_table(
        "Fig. 15: true execution cost (% oracle) vs noise level — (n) = QoS-violating picks",
        &["Noise", "CLITE", "AquaLite", "Aquatope"],
        &rows,
    );
    json!({ "experiment": "fig15", "points": records })
}
