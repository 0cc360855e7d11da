//! `svc_overload`: the live `ControlPlane` on the constrained cluster
//! under the repo's own stressed predictive section.
//!
//! The same `service` crate as `svc_azure`, used differently: a
//! four-container pool behind a two-wide boot semaphore, ticked every
//! second, fed a bursty or faulted trace at 15× its nominal rate with the
//! predictive veto on and every completion fed to the latency model. Per
//! cell that is ~21 600 policy ticks, ~108 000 filler ticks and ~4 300
//! refit ticks against ~17 000 admitted workflows, so timer, `alloc` and
//! `gp` work dominate where `svc_azure` is dominated by the per-event
//! path. The plane is built here (the scenario crate's `service_config`
//! is private, and its cell evaluator keeps only five numbers of the
//! `ServiceReport`).

use std::time::Instant;

use aqua_alloc::OnlineLatencyModel;
use aqua_scenarios::service_mode::{service_predictive, PREDICTIVE_STRESS};
use aqua_scenarios::{default_fault_rates, ClusterProfile, PolicyKind, ScenarioKind, ScenarioSpec};
use aqua_service::{ControlPlane, PredictiveConfig, ServiceConfig, WarmPoolConfig};
use aqua_sim::SimDuration;

use super::azure::fold_service;
use super::{fold_tally, Cell, Policy, Probe, Size};
use crate::outcome::Replay;

/// The scenario rows a seed is replayed under, in cell order.
pub const KINDS: [ScenarioKind; 2] = [ScenarioKind::Bursty, ScenarioKind::Faulted];

/// Nominal primary arrivals per minute before [`PREDICTIVE_STRESS`].
pub const BASE_RPM: f64 = 3.0;

/// The stressed spec of one cell.
pub fn spec(kind: ScenarioKind, size: Size) -> ScenarioSpec {
    let minutes = match size {
        Size::Full => 360,
        Size::Smoke => 10,
    };
    ScenarioSpec::new(kind, minutes, BASE_RPM * PREDICTIVE_STRESS)
}

/// The plane configuration of the scenario crate's predictive section on
/// [`ClusterProfile::constrained`], with `predictive` as given.
pub fn service_config(
    spec: &ScenarioSpec,
    seed: u64,
    predictive: PredictiveConfig,
) -> ServiceConfig {
    let profile = ClusterProfile::constrained();
    ServiceConfig {
        pool: WarmPoolConfig {
            max_concurrent_boots: profile.max_concurrent_boots,
            memory_budget_mb: profile.memory_budget_mb,
            ..WarmPoolConfig::default()
        },
        policy_window: profile.policy_window,
        model_sample_every: 1,
        refit_interval: SimDuration::from_secs(5),
        run_for: SimDuration::from_secs(spec.minutes as u64 * 60 + 120),
        seed,
        predictive,
        ..ServiceConfig::default()
    }
}

/// One cell: `KINDS[cell.variant]` at `cell.seed`. With `arrivals` false
/// the same plane runs the same horizon with an empty trace — the pure
/// timer-tick floor.
pub fn replay_with(
    cell: Cell,
    size: Size,
    arrivals: bool,
    mut probe: Option<&mut Probe>,
) -> Replay {
    let prep = Instant::now();
    let kind = KINDS[cell.variant];
    let spec = spec(kind, size);
    let mut inst = spec.instantiate_with_rates(cell.seed, default_fault_rates());
    if !arrivals {
        for job in &mut inst.jobs {
            job.arrivals.clear();
        }
    }
    let cfg = service_config(&spec, cell.seed, service_predictive());
    let plan = inst.tenant_plan(cfg.pool.memory_budget_mb);
    let policy = Policy::new(PolicyKind::Fixed.build(&inst), probe.as_deref());
    let tally = policy.tally();
    let offered: usize = inst.jobs.iter().map(|j| j.arrivals.len()).sum();
    // Every completion feeds the model, so a cell's ~17 000 observations
    // would pin the default 64-point window; the scalable model keeps a
    // 4096-point window and moves each app to the sparse tier past 256.
    let mut plane = ControlPlane::new(inst.registry, inst.jobs, policy.policy, &inst.faults, cfg)
        .with_tenants(plan)
        .with_model(OnlineLatencyModel::scalable_default());
    if let Some(sink) = probe.as_deref_mut().and_then(|p| p.sink.take()) {
        plane.attach_telemetry(sink, 1 << 16);
    }
    let prep_s = prep.elapsed().as_secs_f64();

    let log = probe.as_deref().map(|p| p.log.clone());
    let timed = Instant::now();
    let report = match &log {
        Some(log) => log.span("replay", || plane.run()),
        None => plane.run(),
    };
    let wall_s = timed.elapsed().as_secs_f64();

    fold_tally(probe, tally);
    let label = format!("{} seed {}", kind.name(), cell.seed);
    fold_service(label, prep_s, wall_s, offered as u64, &report)
}

/// One `svc_overload` cell.
pub fn replay(cell: Cell, size: Size, probe: Option<&mut Probe>) -> Replay {
    replay_with(cell, size, true, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanLog;

    #[test]
    fn smoke_cells_balance_and_are_identical_under_the_probe() {
        for variant in 0..KINDS.len() {
            let cell = Cell { seed: 5, variant };
            let plain = replay(cell, Size::Smoke, None);
            assert!(plain.failures.is_empty(), "{:?}", plain.failures);
            assert!(plain.sim.completed > 100);
            let mut probe = Probe::new(SpanLog::new());
            let probed = replay(cell, Size::Smoke, Some(&mut probe));
            assert_eq!(plain.sim, probed.sim);
            assert_eq!(plain.counts, probed.counts);
        }
    }

    #[test]
    fn the_idle_twin_ticks_but_serves_nothing() {
        let cell = Cell {
            seed: 5,
            variant: 0,
        };
        let idle = replay_with(cell, Size::Smoke, false, None);
        assert_eq!(idle.sim.offered, 0);
        assert_eq!(idle.sim.invocations, 0);
        assert!(idle.counts["service.events"] > 3000.0, "ticks still fire");
    }
}
