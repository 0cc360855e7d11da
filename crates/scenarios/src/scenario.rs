//! Workload scenarios: the rows of the evaluation matrix.
//!
//! Every scenario serves the same primary application (the §7.1 3-stage
//! chain with its 1.5 s end-to-end QoS) so cells are comparable across
//! rows; what varies is the arrival process, the fault environment, and
//! the presence of a competing tenant. Arrival streams are derived from
//! seed-forked [`SimRng`] streams, so two instantiations with the same
//! seed are identical — and the `faulted` scenario reuses the *diurnal*
//! stream verbatim, which is what lets the regression tests assert that a
//! zero-rate fault plan reproduces the clean cells bit-for-bit.

use aqua_faas::{
    FaultPlan, FaultRates, FunctionRegistry, QosClass, ResourceConfig, RetryPolicy, StageConfigs,
    TenantId, TenantPlan, WorkflowJob,
};
use aqua_sim::{arrivals_with_cv, SimDuration, SimRng, SimTime};
use aqua_workflows::{apps, RateTraceConfig};

/// The workload regimes in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Smooth daytime-peaking rate (the Azure-like baseline regime).
    Diurnal,
    /// Mild diurnal shape with frequent 4× bursts of a few minutes.
    Bursty,
    /// Hyperexponential inter-arrivals at CV 4 (the paper's Fig. 10 sweep
    /// end-point): maximal clumping at the same mean rate.
    CvSwept,
    /// The diurnal arrivals with boot failures, crashes, stragglers, and
    /// hand-off delays injected (PR-4's `FaultPlan`), plus task timeouts.
    Faulted,
    /// The diurnal primary sharing the cluster with a bursty fan-out/in
    /// neighbor tenant; metrics still score the primary only.
    NoisyNeighbor,
}

impl ScenarioKind {
    /// Every scenario, in matrix row order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Diurnal,
        ScenarioKind::Bursty,
        ScenarioKind::CvSwept,
        ScenarioKind::Faulted,
        ScenarioKind::NoisyNeighbor,
    ];

    /// Stable snake_case name used in reports and goldens.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::Bursty => "bursty",
            ScenarioKind::CvSwept => "cv_swept",
            ScenarioKind::Faulted => "faulted",
            ScenarioKind::NoisyNeighbor => "noisy_neighbor",
        }
    }
}

/// The fault environment of [`ScenarioKind::Faulted`]: every fault class
/// at a rate high enough to matter over a short horizon, with the default
/// magnitudes (4× stragglers, 2 s hand-off delays).
pub fn default_fault_rates() -> FaultRates {
    FaultRates {
        boot_fail: 0.08,
        crash: 0.04,
        straggler: 0.08,
        handoff_delay: 0.05,
        ..FaultRates::default()
    }
}

/// One matrix row: a scenario kind at a given length and mean rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Which regime.
    pub kind: ScenarioKind,
    /// Trace length in minutes.
    pub minutes: usize,
    /// Mean primary arrivals per minute.
    pub mean_rpm: f64,
}

/// A fully materialized scenario for one seed: registry, jobs, fault
/// environment, and the bookkeeping the evaluator needs to score the
/// primary application in isolation.
#[derive(Debug, Clone)]
pub struct ScenarioInstance {
    /// Functions of every job, primary first.
    pub registry: FunctionRegistry,
    /// Jobs to run; the primary application is always `jobs[0]`.
    pub jobs: Vec<WorkflowJob>,
    /// Per-job end-to-end deadlines, parallel to `jobs`.
    pub deadlines: Vec<SimDuration>,
    /// Tenant of each job, parallel to `jobs`: the primary application
    /// is [`TenantId`]`(0)`, a noisy neighbor is `TenantId(1)`. Shared
    /// with the live service via [`ScenarioInstance::tenant_plan`] so
    /// "tenant" means the same thing in sim and service mode.
    pub tenants: Vec<TenantId>,
    /// The primary application's QoS target (`deadlines[0]`).
    pub qos: SimDuration,
    /// Number of primary workflow instances; the simulator assigns the
    /// primary job the global instance indices `0..n_primary`.
    pub n_primary: usize,
    /// Trace length in minutes (the oracle's schedule horizon).
    pub minutes: usize,
    /// Fault plan (disabled outside [`ScenarioKind::Faulted`]).
    pub faults: FaultPlan,
    /// Retry policy paired with the fault plan.
    pub retry: RetryPolicy,
}

impl ScenarioInstance {
    /// The tenancy plan for running this scenario on the live service:
    /// each tenant's SLO is the deadline of its first job, and with more
    /// than one tenant the warm-pool budget is split into equal
    /// guaranteed shares covering 90% of `memory_budget_mb` (the last
    /// 10% stays unguaranteed, work-conserving borrowing slack). A
    /// single-tenant scenario gets a zero share, which keeps the pool on
    /// its untenanted fast path.
    pub fn tenant_plan(&self, memory_budget_mb: f64) -> TenantPlan {
        let n = self.tenants.iter().map(|t| t.0 + 1).max().unwrap_or(1);
        let share = if n > 1 {
            memory_budget_mb * 0.9 / n as f64
        } else {
            0.0
        };
        let classes = (0..n)
            .map(|t| {
                let slo = self
                    .tenants
                    .iter()
                    .position(|x| x.0 == t)
                    .map(|j| self.deadlines[j])
                    .expect("tenant with no job");
                QosClass::new(slo, usize::MAX, usize::MAX, share)
            })
            .collect();
        TenantPlan {
            classes,
            job_tenants: self.tenants.clone(),
        }
    }
}

impl ScenarioSpec {
    /// Creates a spec.
    pub fn new(kind: ScenarioKind, minutes: usize, mean_rpm: f64) -> Self {
        ScenarioSpec {
            kind,
            minutes,
            mean_rpm,
        }
    }

    /// Simulation horizon: the trace length plus drain time for the tail.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes as u64 * 60 + 120)
    }

    /// Materializes the scenario for `seed` (faulted rows use
    /// [`default_fault_rates`]).
    pub fn instantiate(&self, seed: u64) -> ScenarioInstance {
        self.instantiate_with_rates(seed, default_fault_rates())
    }

    /// Materializes the scenario with explicit fault rates — only the
    /// [`ScenarioKind::Faulted`] row reads them, which is how the tests
    /// build a zero-rate faulted twin of the diurnal row.
    pub fn instantiate_with_rates(&self, seed: u64, rates: FaultRates) -> ScenarioInstance {
        let root = SimRng::seed(seed);
        let mut registry = FunctionRegistry::new();
        let primary = apps::chain(&mut registry, 3);
        // Faulted shares the diurnal stream so its clean twin is exact.
        let primary_arrivals = match self.kind {
            ScenarioKind::Diurnal | ScenarioKind::Faulted | ScenarioKind::NoisyNeighbor => {
                self.rate_config(0.6, 0.0, 0.15)
                    .generate(&mut root.fork("arrivals-diurnal"))
                    .arrivals
            }
            ScenarioKind::Bursty => {
                self.rate_config(0.2, 0.08, 0.3)
                    .generate(&mut root.fork("arrivals-bursty"))
                    .arrivals
            }
            ScenarioKind::CvSwept => {
                let n = (self.minutes as f64 * self.mean_rpm).round() as usize;
                let end = self.minutes as f64 * 60.0;
                arrivals_with_cv(n, 60.0 / self.mean_rpm, 4.0, &mut root.fork("arrivals-cv"))
                    .into_iter()
                    .filter(|t| t.as_secs_f64() < end)
                    .collect()
            }
        };
        let n_primary = primary_arrivals.len();
        let mut jobs = vec![WorkflowJob::new(
            primary.dag.clone(),
            StageConfigs::uniform(&primary.dag, ResourceConfig::default()),
            primary_arrivals,
        )];
        let mut deadlines = vec![primary.qos];
        let mut tenants = vec![TenantId(0)];
        if self.kind == ScenarioKind::NoisyNeighbor {
            let neighbor = apps::fan_out_in(&mut registry, 6);
            let arrivals = ScenarioSpec::new(ScenarioKind::Bursty, self.minutes, self.mean_rpm)
                .rate_config(0.2, 0.1, 0.3)
                .generate(&mut root.fork("arrivals-neighbor"))
                .arrivals;
            jobs.push(WorkflowJob::new(
                neighbor.dag.clone(),
                StageConfigs::uniform(&neighbor.dag, ResourceConfig::default()),
                arrivals,
            ));
            deadlines.push(neighbor.qos);
            tenants.push(TenantId(1));
        }
        let (faults, retry) = if self.kind == ScenarioKind::Faulted {
            (
                FaultPlan::from_seed(seed ^ 0xFA17_FA17, rates),
                RetryPolicy {
                    task_timeout: Some(SimDuration::from_secs(30)),
                    ..RetryPolicy::default()
                },
            )
        } else {
            (FaultPlan::disabled(), RetryPolicy::default())
        };
        ScenarioInstance {
            registry,
            jobs,
            deadlines,
            tenants,
            qos: primary.qos,
            n_primary,
            minutes: self.minutes,
            faults,
            retry,
        }
    }

    fn rate_config(&self, diurnal: f64, burst_prob: f64, noise_cv: f64) -> RateTraceConfig {
        RateTraceConfig {
            minutes: self.minutes,
            mean_rpm: self.mean_rpm,
            diurnal,
            weekly: 0.0,
            burst_prob,
            burst_scale: 4.0,
            burst_len: 3.0,
            rate_noise_cv: noise_cv,
            business_hours: 0.0,
            timer_spike: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: ScenarioKind) -> ScenarioSpec {
        ScenarioSpec::new(kind, 30, 3.0)
    }

    #[test]
    fn every_kind_produces_primary_arrivals_within_horizon() {
        for kind in ScenarioKind::ALL {
            let inst = spec(kind).instantiate(7);
            assert!(inst.n_primary > 0, "{}: no arrivals", kind.name());
            assert_eq!(inst.n_primary, inst.jobs[0].arrivals.len());
            let end = spec(kind).horizon();
            for t in &inst.jobs[0].arrivals {
                assert!(*t < end, "{}: arrival beyond horizon", kind.name());
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        for kind in ScenarioKind::ALL {
            let a = spec(kind).instantiate(11);
            let b = spec(kind).instantiate(11);
            assert_eq!(a.jobs[0].arrivals, b.jobs[0].arrivals);
            let c = spec(kind).instantiate(12);
            assert_ne!(
                a.jobs[0].arrivals,
                c.jobs[0].arrivals,
                "{}: seeds must differ",
                kind.name()
            );
        }
    }

    #[test]
    fn faulted_shares_the_diurnal_arrival_stream() {
        let clean = spec(ScenarioKind::Diurnal).instantiate(5);
        let faulted = spec(ScenarioKind::Faulted).instantiate(5);
        assert_eq!(clean.jobs[0].arrivals, faulted.jobs[0].arrivals);
        assert_eq!(clean.faults, FaultPlan::disabled());
        assert_ne!(faulted.faults.rates, FaultRates::default());
    }

    #[test]
    fn zero_rates_yield_a_disabled_faulted_plan() {
        // A zero-rate faulted row carries a plan that can never fire —
        // the simulator treats it as a strict no-op, which is what makes
        // the bit-identical-to-clean assertion in
        // tests/scenario_matrix.rs meaningful.
        let faulted = spec(ScenarioKind::Faulted).instantiate_with_rates(5, FaultRates::default());
        assert_eq!(faulted.faults.rates, FaultRates::default());
        assert!(faulted.faults.scripted.is_empty());
        assert!(faulted.retry.task_timeout.is_some(), "timeouts stay armed");
    }

    #[test]
    fn noisy_neighbor_adds_a_second_tenant() {
        let inst = spec(ScenarioKind::NoisyNeighbor).instantiate(3);
        assert_eq!(inst.jobs.len(), 2);
        assert_eq!(inst.deadlines.len(), 2);
        assert_eq!(inst.tenants, vec![TenantId(0), TenantId(1)]);
        assert!(inst.n_primary < inst.jobs[0].arrivals.len() + inst.jobs[1].arrivals.len());
    }

    #[test]
    fn tenant_plan_maps_deadlines_to_slos_and_splits_the_budget() {
        let inst = spec(ScenarioKind::NoisyNeighbor).instantiate(3);
        let plan = inst.tenant_plan(10_000.0);
        plan.validate();
        assert_eq!(plan.tenants(), 2);
        assert_eq!(plan.classes[0].latency_slo, Some(inst.deadlines[0]));
        assert_eq!(plan.classes[1].latency_slo, Some(inst.deadlines[1]));
        assert!((plan.classes[0].memory_share_mb - 4500.0).abs() < 1e-9);
        assert!((plan.classes[1].memory_share_mb - 4500.0).abs() < 1e-9);
    }

    #[test]
    fn single_tenant_plan_keeps_the_untenanted_fast_path() {
        let inst = spec(ScenarioKind::Diurnal).instantiate(3);
        let plan = inst.tenant_plan(10_000.0);
        assert_eq!(plan.tenants(), 1);
        assert_eq!(plan.classes[0].memory_share_mb, 0.0);
        assert_eq!(plan.classes[0].latency_slo, Some(inst.qos));
        assert_eq!(plan.job_tenants, vec![TenantId(0)]);
    }
}
