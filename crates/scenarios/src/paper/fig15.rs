//! Fig. 15: robustness to irregular cloud noise — execution cost (% of
//! oracle) as intermittent background jobs inject heavy-tailed outliers.
//!
//! Paper shape: Aquatope stays near-optimal at every noise level; AquaLite
//! (no anomaly pruning / noisy EI) pays 10–33% more; CLITE 37–64% more.
//!
//! Chosen configurations are re-validated with fresh samples and averaged
//! over seeds; QoS-violating picks are excluded and counted.

use aqua_alloc::{AquatopeRm, Clite};
use aqua_faas::NoiseModel;
use aqua_workflows::apps;
use serde_json::json;

use super::common::{compare, oracle, revalidate};

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
        let [clite, aqualite, aquatope] = compare(
            &registry,
            &app.dag,
            qos,
            noise,
            budget,
            samples,
            seeds,
            [
                |s| Box::new(Clite::new(s)),
                |s| Box::new(AquatopeRm::aqualite(s)),
                |s| Box::new(AquatopeRm::new(s)),
            ],
            oracle_cost,
            (0xF1615 + li as u64 * 100, 7_000),
        );
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
