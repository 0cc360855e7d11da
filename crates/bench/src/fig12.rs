//! Fig. 12: search-budget vs execution-cost convergence curves for the
//! four resource managers across the five workflows.
//!
//! Paper shape: Aquatope converges fastest and to the lowest cost at every
//! budget level; Random/Autoscale plateau high; CLITE lands in between.

use aqua_alloc::{AquatopeRm, AutoscaleRm, Clite, RandomSearch, ResourceManager, SearchOutcome};
use aqua_faas::NoiseModel;
use serde_json::json;

use crate::common::{five_workflows, oracle, sim_evaluator};

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let budget = 30;
    let samples = 2;
    let seeds: u64 = 4;
    let checkpoints = [0.2, 0.4, 0.6, 0.8, 1.0];
    let manager_names = ["Random", "Autoscale", "CLITE", "Aquatope"];

    let mut records = Vec::new();
    for (registry, app) in five_workflows() {
        let qos = app.qos.as_secs_f64();
        let (_, oracle_cost) = oracle(&registry, &app.dag, qos, 0xF1612);

        // Seed-averaged convergence curves (search stochasticity is large
        // at these budgets; the paper also averages repeated trials).
        let mut sums = vec![vec![0.0f64; checkpoints.len()]; manager_names.len()];
        let mut counts = vec![vec![0usize; checkpoints.len()]; manager_names.len()];
        for seed in 0..seeds {
            let mut run = |rm: &mut dyn ResourceManager, mi: usize| {
                let mut eval = sim_evaluator(
                    &registry,
                    &app.dag,
                    NoiseModel::production(),
                    samples,
                    0xF1612 + seed,
                );
                let outcome: SearchOutcome = rm.optimize(&mut eval, qos, budget);
                for (ci, &frac) in checkpoints.iter().enumerate() {
                    let k = ((budget as f64) * frac).round() as usize;
                    if let Some(c) = outcome.best_cost_after(k.max(1), qos) {
                        sums[mi][ci] += 100.0 * c / oracle_cost;
                        counts[mi][ci] += 1;
                    }
                }
            };
            run(&mut RandomSearch::new(seed), 0);
            run(&mut AutoscaleRm::new(), 1);
            run(&mut Clite::new(seed), 2);
            run(&mut AquatopeRm::new(seed), 3);
        }

        let curves: Vec<serde_json::Value> = manager_names
            .iter()
            .enumerate()
            .map(|(mi, name)| {
                let curve: Vec<Option<f64>> = (0..checkpoints.len())
                    .map(|ci| (counts[mi][ci] > 0).then(|| sums[mi][ci] / counts[mi][ci] as f64))
                    .collect();
                json!({ "manager": name, "pct_of_oracle": curve })
            })
            .collect();
        records.push(
            json!({ "workflow": app.kind.name(), "curves": curves, "oracle_cost": oracle_cost }),
        );
    }
    json!({ "experiment": "fig12", "budget": budget, "workflows": records })
}
