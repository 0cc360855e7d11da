//! Fig. 13: final CPU time and memory time (% of oracle) of each resource
//! manager's chosen configuration, per workflow, averaged over repeats.
//!
//! Paper shape: Aquatope within ~5% of oracle on average, using 25–62%
//! less CPU and 18–51% less memory than the second-best manager.

use aqua_alloc::{AquatopeRm, AutoscaleRm, Clite, RandomSearch, ResourceManager};
use aqua_faas::{NoiseModel, StageConfigs};
use aqua_linalg::mean;
use aqua_workflows::App;
use serde_json::json;

use crate::common::{cluster_sim, five_workflows, oracle, sim_evaluator};

/// Measures the chosen configuration's warm-path CPU and memory time per
/// invocation (averaged over profiling samples) on a quiet cluster.
fn measure(
    app: &App,
    registry: &aqua_faas::FunctionRegistry,
    configs: &StageConfigs,
    seed: u64,
) -> (f64, f64) {
    let mut sim = cluster_sim(registry.clone(), NoiseModel::quiet(), seed);
    let detail = sim.profile_detail(&app.dag, configs, 4, true);
    let cpu = mean(&detail.iter().map(|d| d.1).collect::<Vec<_>>());
    let mem = mean(&detail.iter().map(|d| d.2).collect::<Vec<_>>());
    (cpu, mem)
}

/// Mean % of oracle over a manager's feasible repeats; NaN (written as
/// `null`) when it found nothing feasible in any repeat, never 0 %.
fn mean_pct(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        mean(xs)
    }
}

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let budget = 30;
    let repeats = 2;
    let samples = 2;

    let manager_names = ["Random", "Autoscale", "CLITE", "Aquatope"];
    let mut records = Vec::new();
    for (registry, app) in five_workflows() {
        let qos = app.qos.as_secs_f64();
        // Oracle reference CPU/memory time.
        let (oracle_cfg, _) = oracle(&registry, &app.dag, qos, 0xF1613);
        let (oracle_cpu, oracle_mem) = measure(&app, &registry, &oracle_cfg, 0xF1613);

        let mut cpu_pct = vec![Vec::new(); manager_names.len()];
        let mut mem_pct = vec![Vec::new(); manager_names.len()];
        for rep in 0..repeats {
            let seed = 0xF1613 + rep as u64;
            let managers: Vec<Box<dyn ResourceManager>> = vec![
                Box::new(RandomSearch::new(seed)),
                Box::new(AutoscaleRm::new()),
                Box::new(Clite::new(seed)),
                Box::new(AquatopeRm::new(seed)),
            ];
            for (mi, mut rm) in managers.into_iter().enumerate() {
                let mut eval =
                    sim_evaluator(&registry, &app.dag, NoiseModel::production(), samples, seed);
                let out = rm.optimize(&mut eval, qos, budget);
                if let Some((cfg, _, _)) = out.best {
                    let (cpu, mem) = measure(&app, &registry, &cfg, seed);
                    cpu_pct[mi].push(100.0 * cpu / oracle_cpu);
                    mem_pct[mi].push(100.0 * mem / oracle_mem);
                }
            }
        }

        records.push(json!({
            "workflow": app.kind.name(),
            "managers": manager_names,
            "cpu_pct_of_oracle": cpu_pct.iter().map(|v| mean_pct(v)).collect::<Vec<_>>(),
            "mem_pct_of_oracle": mem_pct.iter().map(|v| mean_pct(v)).collect::<Vec<_>>(),
        }));
    }
    json!({ "experiment": "fig13", "workflows": records })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manager_with_no_feasible_pick_is_recorded_as_null() {
        assert_eq!(mean_pct(&[90.0, 110.0]), 100.0);
        let record = json!({ "cpu_pct_of_oracle": vec![mean_pct(&[80.0]), mean_pct(&[])] });
        assert_eq!(
            serde_json::to_string(&record).expect("record serializes"),
            r#"{"cpu_pct_of_oracle":[80.0,null]}"#
        );
    }
}
