//! Fig. 14: Aquatope vs CLITE (a) across chain lengths 1/3/5 with a single
//! end-to-end QoS, and (b) on a single-function workflow with growing
//! execution-time variability.
//!
//! Paper shape: Aquatope beats CLITE by 7–39% as chains lengthen (its
//! independent latency surrogate handles end-to-end constraints), and by
//! 7–45% as intrinsic noise grows (noisy-EI + fixed-noise GPs).
//!
//! Every chosen configuration is re-validated with many fresh samples:
//! under heavy noise a manager can *believe* a config is feasible when its
//! true mean latency violates QoS — those picks are reported as violations
//! and excluded from the cost average, as in the paper (where every
//! compared manager meets QoS).

use aqua_alloc::{AquatopeRm, Clite, ResourceManager};
use aqua_faas::{FunctionRegistry, FunctionSpec, NoiseModel, StageConfigs, WorkflowDag};
use aqua_workflows::apps;
use serde_json::json;

use crate::common::{oracle, print_table, revalidate, sim_evaluator, PickScore, Scale};

/// CLITE's and Aquatope's scores, in that order.
#[allow(clippy::too_many_arguments)]
fn compare(
    registry: &FunctionRegistry,
    dag: &WorkflowDag,
    qos: f64,
    noise: NoiseModel,
    budget: usize,
    samples: usize,
    seeds: u64,
    base_seed: u64,
) -> [PickScore; 2] {
    let (oracle_cfg, _) = oracle(registry, dag, qos, base_seed);
    let (_, oracle_cost) = revalidate(registry, dag, &oracle_cfg, noise, base_seed);

    let mut scores = [PickScore::default(); 2];
    for seed in 0..seeds {
        let eval_for = |sd: u64| sim_evaluator(registry, dag, noise, samples, sd);
        let picks: [Option<StageConfigs>; 2] = [
            Clite::new(base_seed + seed)
                .optimize(&mut eval_for(base_seed + seed), qos, budget)
                .best
                .map(|b| b.0),
            AquatopeRm::new(base_seed + seed)
                .optimize(&mut eval_for(base_seed + seed), qos, budget)
                .best
                .map(|b| b.0),
        ];
        for (score, pick) in scores.iter_mut().zip(picks) {
            let truth = pick.map(|cfg| revalidate(registry, dag, &cfg, noise, 999 + seed));
            score.add(truth, qos, oracle_cost);
        }
    }
    scores
}

/// Runs the experiment and returns its JSON record.
pub fn run(scale: Scale) -> serde_json::Value {
    let budget = scale.pick(28, 55);
    let samples = scale.pick(2, 3);
    let seeds = scale.pick(3, 6);

    // (a) Chain length sweep.
    let mut rows_a = Vec::new();
    let mut rec_a = Vec::new();
    for n in [1usize, 3, 5] {
        let mut registry = FunctionRegistry::new();
        let app = apps::chain(&mut registry, n);
        let [clite, aqua] = compare(
            &registry,
            &app.dag,
            app.qos.as_secs_f64(),
            NoiseModel::production(),
            budget,
            samples,
            seeds,
            0xF1614 + n as u64,
        );
        rows_a.push(vec![
            n.to_string(),
            format!("{:.0}% ({})", clite.pct(), clite.violations),
            format!("{:.0}% ({})", aqua.pct(), aqua.violations),
        ]);
        rec_a.push(json!({
            "stages": n, "clite_pct": clite.pct(), "aquatope_pct": aqua.pct(),
            "clite_violations": clite.violations, "aquatope_violations": aqua.violations,
        }));
    }
    print_table(
        "Fig. 14a: true execution cost (% oracle) vs chain length — (n) = QoS-violating picks",
        &["Stages", "CLITE", "Aquatope"],
        &rows_a,
    );

    // (b) Execution-time CV sweep on a single function.
    let mut rows_b = Vec::new();
    let mut rec_b = Vec::new();
    for &cv in &[0.0, 0.5, 1.0] {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("noisy-fn")
                .with_work_ms(400.0)
                .with_io_ms(30.0)
                .with_mem_demand(1024.0)
                .with_parallelism(2.0)
                .with_cold_start(600.0, 400.0)
                .with_exec_cv(cv),
        );
        let dag = WorkflowDag::chain("noisy", vec![f]);
        let qos = 0.9;
        let [clite, aqua] = compare(
            &registry,
            &dag,
            qos,
            NoiseModel::production(),
            budget,
            samples.max(3),
            seeds,
            0xF1614 + (cv * 10.0) as u64,
        );
        rows_b.push(vec![
            format!("{cv:.1}"),
            format!("{:.0}% ({})", clite.pct(), clite.violations),
            format!("{:.0}% ({})", aqua.pct(), aqua.violations),
        ]);
        rec_b.push(json!({
            "exec_cv": cv, "clite_pct": clite.pct(), "aquatope_pct": aqua.pct(),
            "clite_violations": clite.violations, "aquatope_violations": aqua.violations,
        }));
    }
    print_table(
        "Fig. 14b: true execution cost (% oracle) vs execution-time CV — (n) = QoS-violating picks",
        &["CV", "CLITE", "Aquatope"],
        &rows_b,
    );

    json!({ "experiment": "fig14", "chain_sweep": rec_a, "cv_sweep": rec_b })
}
