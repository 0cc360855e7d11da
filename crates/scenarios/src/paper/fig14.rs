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

use aqua_alloc::{AquatopeRm, Clite};
use aqua_faas::{FunctionRegistry, FunctionSpec, NoiseModel, WorkflowDag};
use aqua_workflows::apps;
use serde_json::json;

use super::common::{compare, oracle, revalidate, PickScore};

/// CLITE's and Aquatope's scores, in that order, against the oracle's
/// re-validated cost, each over three searches at budget 28.
fn clite_vs_aquatope(
    registry: &FunctionRegistry,
    dag: &WorkflowDag,
    qos: f64,
    samples: usize,
    base_seed: u64,
) -> [PickScore; 2] {
    let noise = NoiseModel::production();
    let (oracle_cfg, _) = oracle(registry, dag, qos, base_seed);
    let (_, oracle_cost) = revalidate(registry, dag, &oracle_cfg, noise, base_seed);
    compare(
        registry,
        dag,
        qos,
        noise,
        28,
        samples,
        3,
        [
            |s| Box::new(Clite::new(s)),
            |s| Box::new(AquatopeRm::new(s)),
        ],
        oracle_cost,
        (base_seed, 999),
    )
}

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let samples = 2;

    // (a) Chain length sweep.
    let mut rec_a = Vec::new();
    for n in [1usize, 3, 5] {
        let mut registry = FunctionRegistry::new();
        let app = apps::chain(&mut registry, n);
        let [clite, aqua] = clite_vs_aquatope(
            &registry,
            &app.dag,
            app.qos.as_secs_f64(),
            samples,
            0xF1614 + n as u64,
        );
        rec_a.push(json!({
            "stages": n, "clite_pct": clite.pct(), "aquatope_pct": aqua.pct(),
            "clite_violations": clite.violations, "aquatope_violations": aqua.violations,
        }));
    }

    // (b) Execution-time CV sweep on a single function.
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
        let [clite, aqua] = clite_vs_aquatope(
            &registry,
            &dag,
            0.9,
            samples.max(3),
            0xF1614 + (cv * 10.0) as u64,
        );
        rec_b.push(json!({
            "exec_cv": cv, "clite_pct": clite.pct(), "aquatope_pct": aqua.pct(),
            "clite_violations": clite.violations, "aquatope_violations": aqua.violations,
        }));
    }
    json!({ "experiment": "fig14", "chain_sweep": rec_a, "cv_sweep": rec_b })
}
