//! Shared experiment infrastructure: scale control, table printing, JSON
//! output, and workload construction.

use std::io;
use std::path::{Path, PathBuf};

use aqua_alloc::{OracleSearch, ResourceManager, SimEvaluator};
use aqua_faas::types::ConfigSpace;
use aqua_faas::{FaasSim, FunctionRegistry, NoiseModel, StageConfigs, WorkflowDag};
use aqua_linalg::mean;
use aqua_sim::{SimRng, SimTime};
use aqua_workflows::{apps, App, RateTraceConfig};

/// Experiment scale, selected with the `AQUA_SCALE` environment variable
/// (`quick` default, `full` for paper-scale runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long runs: short traces, few repeats.
    Quick,
    /// Paper-scale runs: long traces, more repeats.
    Full,
}

impl Scale {
    /// Reads `AQUA_SCALE` (default quick).
    pub fn from_env() -> Self {
        match std::env::var("AQUA_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Prints a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes `value` as pretty-printed JSON to `path` — relative paths are
/// taken from the workspace root, wherever the binary was started —
/// creating missing parent directories, and returns the path written.
/// Errors carry that path.
pub fn write_json(path: impl AsRef<Path>, value: &serde_json::Value) -> io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate sits two levels below the workspace root");
    let path = root.join(path);
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
        std::fs::write(&path, body + "\n")
    };
    match write() {
        Ok(()) => Ok(path),
        Err(e) => Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
    }
}

/// The standard simulated cluster (the paper's invoker fleet).
pub fn cluster_sim(registry: FunctionRegistry, noise: NoiseModel, seed: u64) -> FaasSim {
    FaasSim::builder()
        .workers(6, 40.0, 131_072)
        .registry(registry)
        .noise(noise)
        .seed(seed)
        .build()
}

/// An evaluator for `dag` on the standard cluster: the default
/// configuration space, `samples` profiling runs per configuration, warm
/// starts.
pub(crate) fn sim_evaluator(
    registry: &FunctionRegistry,
    dag: &WorkflowDag,
    noise: NoiseModel,
    samples: usize,
    seed: u64,
) -> SimEvaluator {
    let sim = cluster_sim(registry.clone(), noise, seed);
    SimEvaluator::new(sim, dag.clone(), ConfigSpace::default(), samples, true)
}

/// The offline reference every resource-manager figure scores against:
/// [`OracleSearch`] at budget 500 on a quiet cluster (two samples per
/// configuration). Returns the best feasible configuration and its cost.
pub(crate) fn oracle(
    registry: &FunctionRegistry,
    dag: &WorkflowDag,
    qos: f64,
    seed: u64,
) -> (StageConfigs, f64) {
    let mut eval = sim_evaluator(registry, dag, NoiseModel::quiet(), 2, seed);
    let (configs, cost, _) = OracleSearch::default()
        .optimize(&mut eval, qos, 500)
        .best
        .expect("oracle must find a feasible configuration");
    (configs, cost)
}

/// The true mean `(latency, cost)` of a configuration under `noise`: the
/// mean of 16 fresh warm-start profiling runs. The RM figures re-validate
/// every pick with it, because under heavy noise a manager can believe a
/// configuration is feasible when its true mean latency violates QoS.
pub(crate) fn revalidate(
    registry: &FunctionRegistry,
    dag: &WorkflowDag,
    configs: &StageConfigs,
    noise: NoiseModel,
    seed: u64,
) -> (f64, f64) {
    let mut sim = cluster_sim(registry.clone(), noise, seed);
    let raw = sim.profile_config(dag, configs, 16, true, 1.0, 1.0);
    (
        mean(&raw.iter().map(|s| s.0).collect::<Vec<_>>()),
        mean(&raw.iter().map(|s| s.1).collect::<Vec<_>>()),
    )
}

/// One manager's re-validated picks scored against the oracle. A pick
/// whose true latency is within 1.05 × QoS adds its true cost as % of the
/// oracle's; any other pick, and a search that picked nothing, counts as a
/// QoS violation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PickScore {
    pct_sum: f64,
    scored: usize,
    /// Picks that violated QoS (or were missing).
    pub(crate) violations: usize,
}

impl PickScore {
    /// Scores one pick's [`revalidate`]d `(latency, cost)`, or a missing
    /// pick (`None`).
    pub(crate) fn add(&mut self, truth: Option<(f64, f64)>, qos: f64, oracle_cost: f64) {
        match truth {
            Some((lat, cost)) if lat <= qos * 1.05 => {
                self.pct_sum += 100.0 * cost / oracle_cost;
                self.scored += 1;
            }
            _ => self.violations += 1,
        }
    }

    /// Mean true cost of the qualifying picks, % of oracle; NaN if none
    /// qualified.
    pub(crate) fn pct(&self) -> f64 {
        if self.scored > 0 {
            self.pct_sum / self.scored as f64
        } else {
            f64::NAN
        }
    }
}

/// Builds all five applications into one registry.
pub fn all_apps() -> (FunctionRegistry, Vec<App>) {
    let mut registry = FunctionRegistry::new();
    let apps: Vec<App> = apps::AppKind::ALL
        .iter()
        .map(|k| k.build(&mut registry))
        .collect();
    (registry, apps)
}

/// An Azure-like workload trace for one app: diurnal + bursts, scaled to
/// `rpm` mean invocations/minute over `minutes`.
pub fn azure_like_arrivals(minutes: usize, rpm: f64, seed: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed(seed);
    RateTraceConfig {
        minutes,
        mean_rpm: rpm,
        diurnal: 0.4,
        weekly: 0.0,
        burst_prob: 0.01,
        burst_scale: 2.5,
        burst_len: 5.0,
        rate_noise_cv: 0.15,
        business_hours: 0.0,
        timer_spike: None,
    }
    .generate(&mut rng)
    .arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn apps_and_cluster_build() {
        let (registry, apps) = all_apps();
        assert_eq!(apps.len(), 5);
        assert!(registry.len() >= 20);
        let _sim = cluster_sim(registry, NoiseModel::quiet(), 1);
    }

    #[test]
    fn arrivals_are_sorted() {
        let arr = azure_like_arrivals(30, 5.0, 2);
        assert!(!arr.is_empty());
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn write_json_reports_failure_and_round_trips_success() {
        let dir = std::env::temp_dir().join(format!("aqua-bench-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let value = serde_json::json!({ "name": "fig18", "rows": [1, 2.5, "x"] });

        let path = write_json(dir.join("nested/record.json"), &value).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, serde_json::to_string_pretty(&value).unwrap() + "\n");

        let file = dir.join("plain-file");
        std::fs::write(&file, "").unwrap();
        let err = write_json(file.join("record.json"), &value).unwrap_err();
        assert!(err.to_string().contains("plain-file"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
