//! Integration tests of the Bayesian-optimization stack: GP + acquisition
//! + anomaly pruning against the simulated evaluator.

use aquatope::alloc::{
    AquatopeRm, AquatopeRmConfig, Clite, OracleSearch, RandomSearch, ResourceManager, SimEvaluator,
};
use aquatope::faas::types::ConfigSpace;
use aquatope::faas::{FaasSim, FunctionRegistry, NoiseModel};
use aquatope::workflows::apps;

fn ml_eval(noise: NoiseModel, samples: usize, seed: u64) -> (SimEvaluator, f64) {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let sim = FaasSim::builder()
        .workers(6, 40.0, 131_072)
        .registry(registry)
        .noise(noise)
        .seed(seed)
        .build();
    let qos = app.qos.as_secs_f64();
    (
        SimEvaluator::new(sim, app.dag, ConfigSpace::default(), samples, true),
        qos,
    )
}

#[test]
fn aquatope_converges_near_oracle_on_ml_pipeline() {
    let (mut eval, qos) = ml_eval(NoiseModel::quiet(), 2, 1);
    let oracle = OracleSearch::default().optimize(&mut eval, qos, 400);
    let oracle_cost = oracle.best.expect("oracle feasible").1;

    let (mut eval, qos) = ml_eval(NoiseModel::quiet(), 2, 1);
    let out = AquatopeRm::new(3).optimize(&mut eval, qos, 36);
    let (_, cost, lat) = out.best.expect("aquatope feasible");
    assert!(lat <= qos);
    assert!(
        cost <= oracle_cost * 1.25,
        "Aquatope {cost} should be within 25% of oracle {oracle_cost}"
    );
}

#[test]
fn aquatope_beats_clite_under_noise() {
    // Noisy environment with outliers (Fig. 15's point): aggregate over
    // seeds so the comparison is about robustness, not luck.
    let noise = NoiseModel::background_jobs(2.0);
    let mut aq_total = 0.0;
    let mut clite_total = 0.0;
    for seed in 0..3 {
        let (mut eval, qos) = ml_eval(noise, 3, 100 + seed);
        aq_total += AquatopeRm::new(seed)
            .optimize(&mut eval, qos, 30)
            .best
            .map(|b| b.1)
            .unwrap_or(1e6);
        let (mut eval, qos) = ml_eval(noise, 3, 100 + seed);
        clite_total += Clite::new(seed)
            .optimize(&mut eval, qos, 30)
            .best
            .map(|b| b.1)
            .unwrap_or(1e6);
    }
    assert!(
        aq_total < clite_total * 1.1,
        "Aquatope {aq_total:.1} should not lose to CLITE {clite_total:.1} under noise"
    );
}

#[test]
fn batch_sampling_respects_budget_exactly() {
    let (mut eval, qos) = ml_eval(NoiseModel::production(), 2, 7);
    let cfg = AquatopeRmConfig {
        batch: 3,
        ..AquatopeRmConfig::default()
    };
    let out = AquatopeRm::with_config(7, cfg).optimize(&mut eval, qos, 20);
    assert_eq!(out.evaluations(), 20);
    assert_eq!(eval.evaluations(), 20);
}

#[test]
fn convergence_curves_are_monotone() {
    let (mut eval, qos) = ml_eval(NoiseModel::production(), 2, 8);
    // A relaxed QoS so plain random sampling finds feasible points.
    let qos = qos * 2.0;
    let out = RandomSearch::new(8).optimize(&mut eval, qos, 30);
    let mut last = f64::INFINITY;
    for k in 1..=30 {
        if let Some(c) = out.best_cost_after(k, qos) {
            assert!(c <= last + 1e-12, "best-so-far must not increase");
            last = c;
        }
    }
    assert!(last.is_finite(), "random should find something feasible");
}
