//! The scenario-matrix evaluator: every policy × every scenario × N
//! seeds, reduced to per-cell metrics with replicate confidence
//! intervals, sanity-ordering gates, and a deterministic JSON report.

use aqua_faas::{FaultRates, NoiseModel};
use aqua_sim::par_map;
use aqua_sim::stats::{mean_ci95, Comparison, LatencySummary};
use serde_json::{json, Value};

use crate::policy::PolicyKind;
use crate::scenario::{default_fault_rates, ScenarioSpec};

/// What the matrix runs: rows × columns × replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixConfig {
    /// Scenario rows.
    pub scenarios: Vec<ScenarioSpec>,
    /// Policy columns.
    pub policies: Vec<PolicyKind>,
    /// Seed replicates (each cell runs once per seed).
    pub seeds: Vec<u64>,
    /// Event-loop shards per cell run (see [`aqua_faas::FaasSim`]'s
    /// `shards`). The committed report pins 1 — the sequential reference
    /// model — so its bytes stay comparable across releases;
    /// sharded-path equivalence is asserted by the determinism test
    /// matrix instead.
    pub shards: usize,
}

impl MatrixConfig {
    /// The committed `MATRIX_REPORT.json` configuration: all 5 scenarios ×
    /// all 5 policies × 6 seeds at 90 minutes — long enough for the
    /// AQUATOPE cells to leave reactive warm-up and train their models,
    /// and enough replicates that a clean sweep reaches sign-test
    /// significance (two-sided p = 2/2⁶ ≈ 0.031; 5 seeds bottom out at
    /// 0.0625 and could never clear α = 0.05).
    pub fn full() -> Self {
        MatrixConfig {
            scenarios: ScenarioSpec::all_kinds(90, 3.0),
            policies: PolicyKind::ALL.to_vec(),
            seeds: vec![1, 2, 3, 4, 5, 6],
            shards: 1,
        }
    }
}

impl ScenarioSpec {
    /// One spec per [`crate::ScenarioKind`] at a common length and rate.
    pub fn all_kinds(minutes: usize, mean_rpm: f64) -> Vec<ScenarioSpec> {
        crate::ScenarioKind::ALL
            .into_iter()
            .map(|k| ScenarioSpec::new(k, minutes, mean_rpm))
            .collect()
    }
}

/// One seed-replicate's scores for one (scenario, policy) cell. Every
/// metric is lower-is-better.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Fraction of primary workflow instances that missed the QoS target
    /// (unfinished instances count as misses).
    pub qos_violation_rate: f64,
    /// Provisioned memory-time over the whole cluster, GB·s — the paper's
    /// cost axis, and the one pre-warming actually moves.
    pub cost_gb_s: f64,
    /// Median primary end-to-end latency, seconds.
    pub p50_s: f64,
    /// Tail primary end-to-end latency, seconds.
    pub p99_s: f64,
    /// Fraction of primary invocations that paid a cold start.
    pub cold_start_ratio: f64,
}

/// Scores one cell-seed on the batch simulator: instantiate the scenario
/// with fault `rates`, build the policy, run through `shards` event loops,
/// reduce.
pub fn evaluate_cell(
    spec: &ScenarioSpec,
    policy: PolicyKind,
    seed: u64,
    rates: FaultRates,
    shards: usize,
) -> CellMetrics {
    let inst = spec.instantiate_with_rates(seed, rates);
    let mut controller = policy.build(&inst);
    let mut sim = crate::fleet()
        .registry(inst.registry.clone())
        .noise(NoiseModel::quiet())
        .seed(seed)
        .faults(inst.faults.clone())
        .retry_policy(inst.retry.clone())
        .shards(shards)
        .build();
    let report = sim.run(&inst.jobs, controller.as_mut(), spec.horizon());

    // Score the primary application only: its instances hold the global
    // indices 0..n_primary because the primary job is always first.
    let mut finished: Vec<f64> = report
        .workflows
        .iter()
        .filter(|w| w.instance < inst.n_primary)
        .map(|w| w.latency().as_secs_f64())
        .collect();
    let violated = report
        .workflows
        .iter()
        .filter(|w| w.instance < inst.n_primary && w.latency() > inst.qos)
        .count()
        + (inst.n_primary - finished.len());
    let (cold, invocations) = report
        .invocations
        .iter()
        .filter(|r| r.workflow_instance < inst.n_primary)
        .fold((0usize, 0usize), |(c, n), r| {
            (c + usize::from(r.cold), n + 1)
        });
    let latency = LatencySummary::of_in_place(&mut finished);
    CellMetrics {
        qos_violation_rate: violated as f64 / inst.n_primary.max(1) as f64,
        cost_gb_s: report.memory_gb_seconds,
        p50_s: latency.p50,
        p99_s: latency.p99,
        cold_start_ratio: if invocations == 0 {
            0.0
        } else {
            cold as f64 / invocations as f64
        },
    }
}

/// One (scenario, policy) cell with its seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scenario name (row).
    pub scenario: String,
    /// Policy name (column).
    pub policy: String,
    /// One entry per seed, in the config's seed order.
    pub per_seed: Vec<CellMetrics>,
}

impl Cell {
    /// Per-seed values of one metric.
    pub fn metric(&self, pick: fn(&CellMetrics) -> f64) -> Vec<f64> {
        self.per_seed.iter().map(pick).collect()
    }

    /// Replicate mean of every metric.
    pub fn mean(&self) -> CellMetrics {
        self.reduce(|xs| mean_ci95(xs).0)
    }

    /// 95% confidence half-width of every metric.
    pub fn ci95(&self) -> CellMetrics {
        self.reduce(|xs| mean_ci95(xs).1)
    }

    fn reduce(&self, f: impl Fn(&[f64]) -> f64) -> CellMetrics {
        CellMetrics {
            qos_violation_rate: f(&self.metric(|m| m.qos_violation_rate)),
            cost_gb_s: f(&self.metric(|m| m.cost_gb_s)),
            p50_s: f(&self.metric(|m| m.p50_s)),
            p99_s: f(&self.metric(|m| m.p99_s)),
            cold_start_ratio: f(&self.metric(|m| m.cold_start_ratio)),
        }
    }
}

/// The full matrix result.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Scenario rows as configured.
    pub specs: Vec<ScenarioSpec>,
    /// Policy columns as configured.
    pub policies: Vec<PolicyKind>,
    /// Seed replicates as configured.
    pub seeds: Vec<u64>,
    /// Event-loop shards per cell run.
    pub shards: usize,
    /// Cells, scenario-major in config order.
    pub cells: Vec<Cell>,
}

/// Scores every scenario × policy × seed through [`aqua_sim::par_map`]
/// (bit-identical whatever `AQUA_THREADS` says) and groups the scores
/// into cells, scenario-major.
pub(crate) fn score_cells(
    scenarios: &[ScenarioSpec],
    policies: &[PolicyKind],
    seeds: &[u64],
    score: impl Fn(&ScenarioSpec, PolicyKind, u64) -> CellMetrics + Sync,
) -> Vec<Cell> {
    let mut work = Vec::new();
    for spec in scenarios {
        for &policy in policies {
            for &seed in seeds {
                work.push((spec, policy, seed));
            }
        }
    }
    let scores = par_map(&work, |_, &(spec, policy, seed)| score(spec, policy, seed));
    scores
        .chunks(seeds.len())
        .zip(work.chunks(seeds.len()))
        .map(|(metrics, cell_work)| Cell {
            scenario: cell_work[0].0.kind.name().to_string(),
            policy: cell_work[0].1.name().to_string(),
            per_seed: metrics.to_vec(),
        })
        .collect()
}

/// Runs the whole matrix on the batch simulator.
pub fn run_matrix(config: &MatrixConfig) -> MatrixReport {
    let cells = score_cells(
        &config.scenarios,
        &config.policies,
        &config.seeds,
        |spec, policy, seed| {
            evaluate_cell(spec, policy, seed, default_fault_rates(), config.shards)
        },
    );
    MatrixReport {
        specs: config.scenarios.clone(),
        policies: config.policies.clone(),
        seeds: config.seeds.clone(),
        shards: config.shards,
        cells,
    }
}

impl MatrixReport {
    /// Looks up one cell by names.
    pub fn cell(&self, scenario: &str, policy: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.policy == policy)
    }

    /// The sanity-ordering gates: on every scenario, the clairvoyant
    /// oracle must not violate QoS more than AQUATOPE, and AQUATOPE must
    /// not violate more than the fixed keep-alive — each up to the summed
    /// replicate CI half-widths plus a 2-point epsilon. Returns one
    /// message per violated gate (empty = all gates hold).
    pub fn sanity_violations(&self) -> Vec<String> {
        const EPSILON: f64 = 0.02;
        let mut out = Vec::new();
        for spec in &self.specs {
            let scenario = spec.kind.name();
            for (better, worse) in [("oracle", "aquatope"), ("aquatope", "fixed")] {
                let (Some(a), Some(b)) = (self.cell(scenario, better), self.cell(scenario, worse))
                else {
                    continue;
                };
                let (ma, ca) = mean_ci95(&a.metric(|m| m.qos_violation_rate));
                let (mb, cb) = mean_ci95(&b.metric(|m| m.qos_violation_rate));
                let tol = ca + cb + EPSILON;
                if ma > mb + tol {
                    out.push(format!(
                        "{scenario}: qos_violation({better}) = {ma:.4} exceeds \
                         qos_violation({worse}) = {mb:.4} by more than tol {tol:.4}"
                    ));
                }
            }
        }
        out
    }

    /// Paired seed-wise comparison of two policies on one scenario's
    /// QoS-violation rate.
    pub fn compare(&self, scenario: &str, policy_a: &str, policy_b: &str) -> Option<Comparison> {
        let a = self.cell(scenario, policy_a)?;
        let b = self.cell(scenario, policy_b)?;
        Some(Comparison::paired(
            scenario,
            "qos_violation_rate",
            (policy_a, &a.metric(|m| m.qos_violation_rate)),
            (policy_b, &b.metric(|m| m.qos_violation_rate)),
        ))
    }

    /// The report's head-to-head panel: every policy against the fixed
    /// keep-alive incumbent, plus the oracle against AQUATOPE, per
    /// scenario.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut out = Vec::new();
        for spec in &self.specs {
            let scenario = spec.kind.name();
            for policy in &self.policies {
                if *policy != PolicyKind::Fixed {
                    out.extend(self.compare(scenario, policy.name(), "fixed"));
                }
            }
            out.extend(self.compare(scenario, "oracle", "aquatope"));
        }
        out
    }

    /// Deterministic JSON: cells in run order, floats rounded to 1e-9 (the
    /// values themselves are already bit-stable; rounding only keeps the
    /// textual form short).
    pub fn to_json(&self) -> Value {
        let cells = cells_json(&self.cells);
        let comparisons: Vec<Value> = self.comparisons().iter().map(comparison_json).collect();
        let scenarios: Vec<Value> = self
            .specs
            .iter()
            .map(|s| {
                json!({
                    "name": s.kind.name(),
                    "minutes": s.minutes as u64,
                    "mean_rpm": round9(s.mean_rpm),
                })
            })
            .collect();
        let policies: Vec<Value> = self
            .policies
            .iter()
            .map(|p| Value::from(p.name()))
            .collect();
        json!({
            "schema": "aquatope.matrix_report.v1",
            "seeds": self.seeds.clone(),
            "shards": self.shards as u64,
            "scenarios": scenarios,
            "policies": policies,
            "cells": cells,
            "comparisons": comparisons,
            "sanity_violations": self.sanity_violations(),
        })
    }
}

impl MatrixReport {
    /// The pretty-printed report exactly as `MATRIX_REPORT.json` stores
    /// it (trailing newline included) — the byte-stable golden form.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self.to_json()).expect("report serializes") + "\n"
    }
}

/// Cells in run order, in the byte-stable v1 shape (shared with the
/// service-mode v2 report so sim and service cells render identically).
pub(crate) fn cells_json(cells: &[Cell]) -> Vec<Value> {
    cells
        .iter()
        .map(|c| {
            let per_seed: Vec<Value> = c.per_seed.iter().map(metrics_json).collect();
            json!({
                "scenario": c.scenario.clone(),
                "policy": c.policy.clone(),
                "mean": metrics_json(&c.mean()),
                "ci95": metrics_json(&c.ci95()),
                "per_seed": per_seed,
            })
        })
        .collect()
}

/// One paired sign-test comparison in the v1 report shape.
pub(crate) fn comparison_json(c: &Comparison) -> Value {
    json!({
        "scenario": c.scenario.clone(),
        "metric": c.metric.clone(),
        "policy_a": c.policy_a.clone(),
        "policy_b": c.policy_b.clone(),
        "mean_delta": round9(c.mean_delta),
        "wins": c.wins as u64,
        "losses": c.losses as u64,
        "ties": c.ties as u64,
        "p_value": round9(c.p_value),
        "a_beats_b_at_0_05": c.a_beats_b(0.05),
    })
}

fn metrics_json(m: &CellMetrics) -> Value {
    json!({
        "qos_violation_rate": round9(m.qos_violation_rate),
        "cost_gb_s": round9(m.cost_gb_s),
        "p50_s": round9(m.p50_s),
        "p99_s": round9(m.p99_s),
        "cold_start_ratio": round9(m.cold_start_ratio),
    })
}

pub(crate) fn round9(x: f64) -> f64 {
    (x * 1e9).round() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    fn tiny() -> MatrixConfig {
        MatrixConfig {
            scenarios: vec![ScenarioSpec::new(ScenarioKind::Diurnal, 8, 3.0)],
            policies: vec![PolicyKind::Fixed, PolicyKind::Oracle],
            seeds: vec![1, 2],
            shards: 1,
        }
    }

    #[test]
    fn matrix_shape_and_replicates() {
        let r = run_matrix(&tiny());
        assert_eq!(r.cells.len(), 2);
        for c in &r.cells {
            assert_eq!(c.per_seed.len(), 2);
            for m in &c.per_seed {
                assert!(m.qos_violation_rate >= 0.0 && m.qos_violation_rate <= 1.0);
                assert!(m.cost_gb_s.is_finite() && m.cost_gb_s >= 0.0);
                assert!(m.p99_s >= m.p50_s);
                assert!(m.cold_start_ratio >= 0.0 && m.cold_start_ratio <= 1.0);
            }
        }
    }

    #[test]
    fn run_matrix_is_deterministic() {
        let a = run_matrix(&tiny());
        let b = run_matrix(&tiny());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(a.to_json()).unwrap(),
            serde_json::to_string_pretty(b.to_json()).unwrap()
        );
    }

    #[test]
    fn report_json_has_the_contracted_shape() {
        let r = run_matrix(&tiny());
        let v = r.to_json();
        assert_eq!(v["schema"].as_str(), Some("aquatope.matrix_report.v1"));
        assert_eq!(v["cells"].as_array().unwrap().len(), 2);
        let cell = &v["cells"].as_array().unwrap()[0];
        for key in [
            "qos_violation_rate",
            "cost_gb_s",
            "p50_s",
            "p99_s",
            "cold_start_ratio",
        ] {
            assert!(cell["mean"][key].as_f64().is_some(), "missing {key}");
        }
        // One comparison (oracle vs fixed) plus oracle vs aquatope is
        // absent (no aquatope cell in the tiny config).
        assert_eq!(v["comparisons"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn sharded_matrix_is_deterministic_and_sane() {
        let cfg = MatrixConfig {
            shards: 2,
            ..tiny()
        };
        let a = run_matrix(&cfg);
        let b = run_matrix(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.shards, 2);
        assert_eq!(a.to_json()["shards"], serde_json::json!(2));
        for c in &a.cells {
            for m in &c.per_seed {
                assert!(m.qos_violation_rate >= 0.0 && m.qos_violation_rate <= 1.0);
                assert!(m.cost_gb_s.is_finite() && m.cost_gb_s >= 0.0);
                assert!(m.p99_s >= m.p50_s);
            }
        }
    }

    #[test]
    fn cell_lookup_and_mean() {
        let r = run_matrix(&tiny());
        let c = r.cell("diurnal", "oracle").unwrap();
        let mean = c.mean();
        let by_hand = c.metric(|m| m.qos_violation_rate).iter().sum::<f64>() / 2.0;
        assert!((mean.qos_violation_rate - by_hand).abs() < 1e-12);
        assert!(r.cell("diurnal", "histogram").is_none());
    }
}
