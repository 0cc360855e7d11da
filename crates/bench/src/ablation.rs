//! Ablations of AQUATOPE's design choices (the hooks DESIGN.md calls out):
//!
//! * **batch sampling** (q=3) vs sequential proposals (q=1) — the paper
//!   credits batching with a ~3× wall-clock reduction at equal quality;
//! * **noise awareness** (anomaly pruning + noisy EI + fixed-noise GPs) on
//!   vs off, under production noise.

use aqua_alloc::aquatope::BOOTSTRAP;
use aqua_alloc::{AquatopeRm, AquatopeRmConfig, ResourceManager};
use aqua_faas::NoiseModel;
use aqua_linalg::mean;
use aqua_workflows::apps;
use serde_json::json;

use crate::common::sim_evaluator;

/// Runs the ablations and returns the JSON record.
pub fn run() -> serde_json::Value {
    let budget = 30;
    let samples = 2;
    let seeds = 3;

    let mut registry = aqua_faas::FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let qos = app.qos.as_secs_f64();

    let variants: Vec<(&str, AquatopeRmConfig)> = vec![
        ("full (q=3, noise-aware)", AquatopeRmConfig::default()),
        (
            "sequential (q=1)",
            AquatopeRmConfig {
                batch: 1,
                ..AquatopeRmConfig::default()
            },
        ),
        (
            "no noise awareness",
            AquatopeRmConfig {
                noise_aware: false,
                noise: 1e-6,
                ..AquatopeRmConfig::default()
            },
        ),
        (
            "no batching, no noise",
            AquatopeRmConfig {
                batch: 1,
                noise_aware: false,
                noise: 1e-6,
            },
        ),
    ];

    let mut records = Vec::new();
    for (name, cfg) in &variants {
        let mut costs = Vec::new();
        let mut feasible = 0usize;
        // Profiling rounds ≈ wall-clock: a batch of q evaluates in parallel
        // on the platform, so rounds = bootstrap + (budget − bootstrap)/q.
        let rounds = BOOTSTRAP + (budget - BOOTSTRAP).div_ceil(cfg.batch.max(1));
        for seed in 0..seeds {
            let mut eval = sim_evaluator(
                &registry,
                &app.dag,
                NoiseModel::production(),
                samples,
                77 + seed,
            );
            let out = AquatopeRm::with_config(seed, cfg.clone()).optimize(&mut eval, qos, budget);
            if let Some((_, cost, _)) = out.best {
                costs.push(cost);
                feasible += 1;
            }
        }
        let cost = if costs.is_empty() {
            f64::NAN
        } else {
            mean(&costs)
        };
        records.push(json!({
            "variant": name,
            "mean_cost": cost,
            "feasible_runs": feasible,
            "profiling_rounds": rounds,
        }));
    }
    json!({ "experiment": "ablation", "variants": records })
}
