//! Service execution mode for the scenario matrix: every policy ×
//! scenario cell re-run against the **live control plane**
//! ([`aqua_service::ControlPlane`]) instead of the batch simulator, so
//! sim-vs-service QoS drift is a first-class, machine-checked quantity.
//!
//! Two live cluster profiles are used:
//!
//! * [`ClusterProfile::sim_matched`] — the simulator's aggregate capacity
//!   (the paper's invoker fleet). The **service** matrix runs every
//!   configured policy × scenario cell here, with the scenario's
//!   multi-tenant plan installed
//!   ([`crate::ScenarioInstance::tenant_plan`]); its cells are
//!   seed-paired against the sim cells to produce per-cell QoS-violation
//!   **drift** with 95% CIs, and the same oracle ≤ aquatope ≤ fixed
//!   sanity-ordering gates are applied to the live cells.
//! * [`ClusterProfile::constrained`] — a deliberately tiny pool fed a
//!   rate-amplified trace ([`PREDICTIVE_STRESS`]×), so bursts genuinely
//!   overload it. The **predictive** section runs bursty/faulted cells
//!   here twice — predictive rejection off, then on — and pairs them
//!   seed-wise with a sign test. Prediction only has something to win
//!   under contention: a veto counts as a QoS miss either way, so its
//!   value is the queueing it spares the *survivors*, and an uncontended
//!   pool would make the comparison vacuously a tie.
//!
//! The combined report serializes as `aquatope.matrix_report.v2`: the
//! byte-stable v1 report embedded verbatim, service cells in the same
//! shape, drift rows, service-side sanity gates, and the
//! predictive-vs-depth-shedding verdicts.
//!
//! Known, deliberate drift sources on the live plane: only boot failures
//! of the fault plan are injected (crashes, stragglers, and hand-off
//! delays are simulator-loop mechanisms), and the cold-start ratio is
//! pool-wide (the live pool does not attribute boots to tenants), which
//! is exact on single-tenant rows and an approximation on
//! `noisy_neighbor`.

use aqua_faas::FaultRates;
use aqua_service::{ControlPlane, PredictiveConfig, ServiceConfig, WarmPoolConfig};
use aqua_sim::stats::{mean_ci95, Comparison};
use aqua_sim::SimDuration;
use aquatope_core::ClusterSpec;
use serde_json::{json, Value};

use crate::matrix::{
    cells_json, comparison_json, round9, run_matrix, score_cells, CellMetrics, MatrixConfig,
    MatrixReport,
};
use crate::policy::PolicyKind;
use crate::scenario::{default_fault_rates, ScenarioKind, ScenarioSpec};

/// Live-cluster sizing for one service-mode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterProfile {
    /// Warm-pool memory budget, MiB.
    pub memory_budget_mb: f64,
    /// Boot-semaphore width (concurrent pre-warm boots).
    pub max_concurrent_boots: usize,
    /// Control window the policy is ticked at. Forecasting policies
    /// (histogram, AQUATOPE) learn *per-window* demand, so this must
    /// match the batch simulator's 60 s pool tick wherever live cells
    /// are compared against sim cells — a 1 s window would starve them
    /// of 59/60ths of their forecast.
    pub policy_window: SimDuration,
}

impl ClusterProfile {
    /// The simulator's aggregate cluster: the fleet's memory
    /// ([`ClusterSpec::default`]) ticked at the simulator's 60 s pool
    /// cadence. Service cells on this profile are directly comparable to
    /// sim cells.
    pub fn sim_matched() -> Self {
        let fleet = ClusterSpec::default();
        ClusterProfile {
            memory_budget_mb: fleet.workers as f64 * fleet.memory_mb_per_worker as f64,
            max_concurrent_boots: 64,
            policy_window: SimDuration::from_secs(60),
        }
    }

    /// A four-container pool behind a two-wide boot semaphore: the
    /// overload stage for the predictive-rejection comparison. Ticked at
    /// the live plane's fine-grained 1 s window so the predictive veto
    /// budget replenishes per second under burst.
    pub fn constrained() -> Self {
        ClusterProfile {
            memory_budget_mb: 4.0 * 1024.0,
            max_concurrent_boots: 2,
            policy_window: SimDuration::from_secs(1),
        }
    }
}

/// Rate amplification of the predictive section's traces: stressed cells
/// run at `mean_rpm × PREDICTIVE_STRESS` so 4× bursts exceed the
/// constrained pool's throughput and queueing cascades actually form.
/// 15× is the mildest sustained overload at which the predictive twin
/// beats depth-only shedding on every seed of both stressed rows;
/// higher factors only push both planes deeper into saturation.
pub const PREDICTIVE_STRESS: f64 = 15.0;

/// Scenario rows the predictive section runs (the overload-prone ones;
/// a smooth row would compare two near-idle planes).
pub const PREDICTIVE_SCENARIOS: [ScenarioKind; 2] = [ScenarioKind::Bursty, ScenarioKind::Faulted];

/// Policy columns that get a predictive twin: the incumbent and the
/// paper's policy (running every column twice would double the matrix
/// for comparisons the report never makes).
pub const PREDICTIVE_POLICIES: [PolicyKind; 2] = [PolicyKind::Fixed, PolicyKind::Aquatope];

/// The predictive-admission knobs the predictive section runs with: the
/// model may veto up to 8 arrivals per 1 s policy window at `mean + 1σ`.
pub fn service_predictive() -> PredictiveConfig {
    PredictiveConfig::enabled(8, 1.0)
}

fn service_config(
    spec: &ScenarioSpec,
    seed: u64,
    predictive: PredictiveConfig,
    profile: ClusterProfile,
) -> ServiceConfig {
    ServiceConfig {
        pool: WarmPoolConfig {
            max_concurrent_boots: profile.max_concurrent_boots,
            memory_budget_mb: profile.memory_budget_mb,
            ..WarmPoolConfig::default()
        },
        policy_window: profile.policy_window,
        // Feed every completion to the latency model: cell traces are a
        // few thousand workflows at most, nowhere near the sampling
        // regime the 100k inv/s bench needs.
        model_sample_every: 1,
        refit_interval: SimDuration::from_secs(5),
        run_for: SimDuration::from_secs(spec.minutes as u64 * 60 + 120),
        seed,
        predictive,
        ..ServiceConfig::default()
    }
}

/// Scores one cell-seed on the live control plane: instantiate the
/// scenario, install its tenancy plan, run the service to drain, and
/// reduce the primary tenant's report to the matrix metrics.
///
/// Metrics mirror [`crate::matrix::evaluate_cell`]: the QoS-violation
/// rate counts every primary arrival that did not complete on time —
/// sheds, predictive rejects, and queue-abort casualties all count as
/// misses.
pub fn evaluate_cell_service(
    spec: &ScenarioSpec,
    policy: PolicyKind,
    seed: u64,
    rates: FaultRates,
    predictive: PredictiveConfig,
    profile: ClusterProfile,
) -> CellMetrics {
    let inst = spec.instantiate_with_rates(seed, rates);
    let controller = policy.build(&inst);
    let cfg = service_config(spec, seed, predictive, profile);
    let plan = inst.tenant_plan(cfg.pool.memory_budget_mb);
    let plane = ControlPlane::new(
        inst.registry.clone(),
        inst.jobs.clone(),
        controller,
        &inst.faults,
        cfg,
    )
    .with_tenants(plan);
    let report = plane.run();

    let t0 = &report.tenants[0];
    debug_assert_eq!(
        t0.admission.arrivals() as usize,
        inst.n_primary,
        "every primary arrival lands before drain"
    );
    let on_time = (t0.latency.count as u64).saturating_sub(t0.qos_misses);
    let violated = inst.n_primary as u64 - on_time.min(inst.n_primary as u64);
    let pool_boots = report.pool.warm_hits + report.pool.demand_boots;
    CellMetrics {
        qos_violation_rate: violated as f64 / inst.n_primary.max(1) as f64,
        cost_gb_s: report.cost_gb_s,
        p50_s: t0.latency.p50,
        p99_s: t0.latency.p99,
        cold_start_ratio: if pool_boots == 0 {
            0.0
        } else {
            report.pool.demand_boots as f64 / pool_boots as f64
        },
    }
}

/// Runs `policies × scenarios × seeds` on the live plane (cells scored
/// as the sim matrix scores its own) and packs the result as a
/// [`MatrixReport`] so cell lookup, sanity gates, and JSON shape are
/// shared with the sim matrix. `shards` is pinned 1: the live control
/// plane has no sharded mode.
pub fn run_service_cells(
    scenarios: &[ScenarioSpec],
    policies: &[PolicyKind],
    seeds: &[u64],
    predictive: PredictiveConfig,
    profile: ClusterProfile,
) -> MatrixReport {
    let cells = score_cells(scenarios, policies, seeds, |spec, policy, seed| {
        evaluate_cell_service(
            spec,
            policy,
            seed,
            default_fault_rates(),
            predictive,
            profile,
        )
    });
    MatrixReport {
        specs: scenarios.to_vec(),
        policies: policies.to_vec(),
        seeds: seeds.to_vec(),
        shards: 1,
        cells,
    }
}

/// One cell's sim-vs-service QoS drift: the seed-paired delta
/// `service − sim` on the QoS-violation rate, with its replicate 95% CI.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Scenario name (row).
    pub scenario: String,
    /// Policy name (column).
    pub policy: String,
    /// Replicate-mean sim QoS-violation rate.
    pub sim_mean: f64,
    /// Replicate-mean service QoS-violation rate.
    pub service_mean: f64,
    /// Mean of the per-seed deltas `service − sim`.
    pub delta_mean: f64,
    /// 95% confidence half-width of the per-seed deltas.
    pub delta_ci95: f64,
}

/// The combined sim + service + predictive matrix result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMatrixReport {
    /// The batch-simulator matrix, exactly as [`run_matrix`] returns it.
    pub sim: MatrixReport,
    /// The same cells on the live plane's sim-matched cluster.
    pub service: MatrixReport,
    /// Stressed constrained-cluster cells with predictive rejection OFF
    /// (the depth-only-shedding baseline).
    pub predictive_off: MatrixReport,
    /// The same stressed cells with predictive rejection ON.
    pub predictive_on: MatrixReport,
    /// The predictive knobs the ON cells ran with.
    pub predictive_cfg: PredictiveConfig,
}

/// The stressed specs of the predictive section for one matrix config:
/// the config's [`PREDICTIVE_SCENARIOS`] rows at
/// [`PREDICTIVE_STRESS`]-times their configured rate.
pub fn stressed_specs(config: &MatrixConfig) -> Vec<ScenarioSpec> {
    config
        .scenarios
        .iter()
        .filter(|s| PREDICTIVE_SCENARIOS.contains(&s.kind))
        .map(|s| ScenarioSpec::new(s.kind, s.minutes, s.mean_rpm * PREDICTIVE_STRESS))
        .collect()
}

/// Runs the full service-mode matrix: sim cells, live-plane cells on the
/// sim-matched cluster, and the stressed predictive on/off pair on the
/// constrained cluster.
pub fn run_service_matrix(config: &MatrixConfig) -> ServiceMatrixReport {
    let sim = run_matrix(config);
    let service = run_service_cells(
        &config.scenarios,
        &config.policies,
        &config.seeds,
        PredictiveConfig::default(),
        ClusterProfile::sim_matched(),
    );
    let twin_policies: Vec<PolicyKind> = config
        .policies
        .iter()
        .copied()
        .filter(|p| PREDICTIVE_POLICIES.contains(p))
        .collect();
    let stressed = stressed_specs(config);
    let predictive_off = run_service_cells(
        &stressed,
        &twin_policies,
        &config.seeds,
        PredictiveConfig::default(),
        ClusterProfile::constrained(),
    );
    let predictive_cfg = service_predictive();
    let predictive_on = run_service_cells(
        &stressed,
        &twin_policies,
        &config.seeds,
        predictive_cfg,
        ClusterProfile::constrained(),
    );
    ServiceMatrixReport {
        sim,
        service,
        predictive_off,
        predictive_on,
        predictive_cfg,
    }
}

impl ServiceMatrixReport {
    /// Per-cell sim-vs-service QoS-violation drift, cells in run order.
    pub fn drift(&self) -> Vec<DriftRow> {
        self.sim
            .cells
            .iter()
            .filter_map(|s| {
                let l = self.service.cell(&s.scenario, &s.policy)?;
                let sim_vals = s.metric(|m| m.qos_violation_rate);
                let svc_vals = l.metric(|m| m.qos_violation_rate);
                let deltas: Vec<f64> = svc_vals.iter().zip(&sim_vals).map(|(a, b)| a - b).collect();
                let (delta_mean, delta_ci95) = mean_ci95(&deltas);
                Some(DriftRow {
                    scenario: s.scenario.clone(),
                    policy: s.policy.clone(),
                    sim_mean: mean_ci95(&sim_vals).0,
                    service_mean: mean_ci95(&svc_vals).0,
                    delta_mean,
                    delta_ci95,
                })
            })
            .collect()
    }

    /// Seed-paired sign tests of predictive rejection against plain
    /// depth-only shedding on the stressed constrained cluster, per
    /// scenario and twin policy: `a` is the predictive plane, `b` the
    /// depth-only one, so a negative delta (and `a_beats_b`) favors
    /// prediction.
    pub fn predictive_comparisons(&self) -> Vec<Comparison> {
        let mut out = Vec::new();
        for on in &self.predictive_on.cells {
            let Some(off) = self.predictive_off.cell(&on.scenario, &on.policy) else {
                continue;
            };
            out.push(Comparison::paired(
                &on.scenario,
                "qos_violation_rate",
                (
                    &format!("{}+predictive", on.policy),
                    &on.metric(|m| m.qos_violation_rate),
                ),
                (&on.policy, &off.metric(|m| m.qos_violation_rate)),
            ));
        }
        out
    }

    /// Stressed cells where the predictive twin beat depth-only shedding
    /// at the 0.05 sign-test level — the matrix's headline predictive
    /// verdicts.
    pub fn predictive_wins(&self) -> Vec<Comparison> {
        self.predictive_comparisons()
            .into_iter()
            .filter(|c| c.a_beats_b(0.05))
            .collect()
    }

    /// Sanity-ordering gates over the *service* cells (the sim gates live
    /// in the embedded v1 report), each message prefixed `service:`.
    pub fn service_sanity_violations(&self) -> Vec<String> {
        self.service
            .sanity_violations()
            .into_iter()
            .map(|v| format!("service: {v}"))
            .collect()
    }

    /// The combined deterministic report: the byte-stable v1 sim report
    /// embedded verbatim under `"sim"`, service and predictive cells in
    /// the same cell shape, drift rows, and the predictive verdicts.
    pub fn to_json(&self) -> Value {
        let drift: Vec<Value> = self
            .drift()
            .iter()
            .map(|d| {
                json!({
                    "scenario": d.scenario.clone(),
                    "policy": d.policy.clone(),
                    "metric": "qos_violation_rate",
                    "sim_mean": round9(d.sim_mean),
                    "service_mean": round9(d.service_mean),
                    "delta_mean": round9(d.delta_mean),
                    "delta_ci95": round9(d.delta_ci95),
                })
            })
            .collect();
        let predictive_comparisons: Vec<Value> = self
            .predictive_comparisons()
            .iter()
            .map(comparison_json)
            .collect();
        let sim_matched = ClusterProfile::sim_matched();
        let constrained = ClusterProfile::constrained();
        json!({
            "schema": "aquatope.matrix_report.v2",
            "sim": self.sim.to_json(),
            "service": {
                "memory_budget_mb": round9(sim_matched.memory_budget_mb),
                "max_concurrent_boots": sim_matched.max_concurrent_boots as u64,
                "policy_window_s": round9(sim_matched.policy_window.as_secs_f64()),
                "cells": cells_json(&self.service.cells),
                "sanity_violations": self.service_sanity_violations(),
            },
            "drift": drift,
            "predictive": {
                "checks_per_window": self.predictive_cfg.checks_per_window as u64,
                "k_sigma": round9(self.predictive_cfg.k_sigma),
                "stress_factor": round9(PREDICTIVE_STRESS),
                "memory_budget_mb": round9(constrained.memory_budget_mb),
                "max_concurrent_boots": constrained.max_concurrent_boots as u64,
                "policy_window_s": round9(constrained.policy_window.as_secs_f64()),
                "baseline_cells": cells_json(&self.predictive_off.cells),
                "cells": cells_json(&self.predictive_on.cells),
                "comparisons": predictive_comparisons,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    fn tiny() -> MatrixConfig {
        MatrixConfig {
            scenarios: vec![
                ScenarioSpec::new(ScenarioKind::Diurnal, 6, 3.0),
                ScenarioSpec::new(ScenarioKind::Bursty, 6, 3.0),
            ],
            policies: vec![PolicyKind::Fixed, PolicyKind::Oracle],
            seeds: vec![1, 2],
            shards: 1,
        }
    }

    #[test]
    fn service_cells_are_deterministic_and_sane() {
        let cfg = tiny();
        let run = || {
            run_service_cells(
                &cfg.scenarios[..1],
                &cfg.policies,
                &cfg.seeds,
                PredictiveConfig::default(),
                ClusterProfile::sim_matched(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), 2);
        for c in &a.cells {
            assert_eq!(c.per_seed.len(), 2);
            for m in &c.per_seed {
                assert!(m.qos_violation_rate >= 0.0 && m.qos_violation_rate <= 1.0);
                assert!(m.cost_gb_s.is_finite() && m.cost_gb_s > 0.0);
                assert!(m.p99_s >= m.p50_s);
                assert!(m.cold_start_ratio >= 0.0 && m.cold_start_ratio <= 1.0);
            }
        }
    }

    #[test]
    fn noisy_neighbor_service_cell_scores_the_primary_tenant() {
        let spec = ScenarioSpec::new(ScenarioKind::NoisyNeighbor, 6, 3.0);
        let m = evaluate_cell_service(
            &spec,
            PolicyKind::Fixed,
            3,
            default_fault_rates(),
            PredictiveConfig::default(),
            ClusterProfile::sim_matched(),
        );
        assert!(m.qos_violation_rate >= 0.0 && m.qos_violation_rate <= 1.0);
        assert!(m.cost_gb_s > 0.0, "two tenants still bill memory-time");
    }

    #[test]
    fn v2_report_embeds_v1_and_carries_drift_and_verdicts() {
        let r = run_service_matrix(&tiny());
        // Only the fixed column gets a predictive twin in this config,
        // and only the bursty row is stress-eligible.
        assert_eq!(r.predictive_on.policies, vec![PolicyKind::Fixed]);
        assert_eq!(r.predictive_on.specs.len(), 1);
        assert!(
            (r.predictive_on.specs[0].mean_rpm - 3.0 * PREDICTIVE_STRESS).abs() < 1e-12,
            "stressed row runs at the amplified rate"
        );
        let drift = r.drift();
        assert_eq!(drift.len(), 4, "one drift row per sim cell");
        for d in &drift {
            assert!(d.delta_ci95 >= 0.0);
            assert!((d.delta_mean - (d.service_mean - d.sim_mean)).abs() < 1e-12);
        }
        assert_eq!(r.predictive_comparisons().len(), 1);
        let v = r.to_json();
        assert_eq!(v["schema"].as_str(), Some("aquatope.matrix_report.v2"));
        assert_eq!(
            v["sim"]["schema"].as_str(),
            Some("aquatope.matrix_report.v1")
        );
        assert_eq!(v["sim"], r.sim.to_json(), "v1 report embedded verbatim");
        assert_eq!(v["drift"].as_array().unwrap().len(), 4);
        let c = &v["predictive"]["comparisons"].as_array().unwrap()[0];
        assert_eq!(c["policy_a"].as_str(), Some("fixed+predictive"));
        assert_eq!(c["policy_b"].as_str(), Some("fixed"));
        assert_eq!(c["scenario"].as_str(), Some("bursty"));
    }
}
