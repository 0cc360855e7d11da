//! The control plane: a long-running service process around one
//! virtual-clock event loop.
//!
//! [`ControlPlane`] hosts everything the batch simulator used to drive in
//! one shot, as a resident event loop:
//!
//! * **request path** — workflow arrivals are admitted ([`Admission`]),
//!   their root stages dispatched against the warm pool
//!   ([`WarmPoolManager`]), and stage completions unlock dependents until
//!   the workflow finishes;
//! * **warm-pool control** — once per second a policy tick hands any
//!   [`PrewarmController`] a [`PoolObservation`] built from the warm pool's
//!   container counts and the window's dispatch and boot-failure counters,
//!   and a filler tick works toward the resulting pre-warm targets under
//!   the boot semaphore;
//! * **model maintenance** — workflow latencies stream into an
//!   [`OnlineLatencyModel`] in O(1); the [`RefitScheduler`] folds them
//!   into the GP on its own budgeted cadence, never on the request path;
//! * **graceful shutdown** — a `Shutdown` event flips the plane into
//!   drain mode: intake stops, periodic ticks stop re-arming, demand
//!   boots stay allowed so queued work can finish, and once the event
//!   queue runs dry a final sweep kills every remaining container and
//!   asserts the runtime ledger reads zero.
//!
//! Everything is deterministic given the [`ServiceConfig`] seed and the
//! fault plan: the event queue pops in `(time, insertion)` order and all
//! sampling flows through forked [`aqua_sim::SimRng`] streams.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use aqua_alloc::{OnlineLatencyModel, OnlineModelStats};
use aqua_faas::runtime::{BootTicket, RuntimeStats};
use aqua_faas::types::ConfigSpace;
use aqua_faas::{
    ContainerId, FaultPlan, FnWindowStats, FunctionId, FunctionRegistry, NoiseModel,
    PoolObservation, PrewarmController, SimContainerRuntime, StageConfigs, TenantId, TenantPlan,
    WorkflowDag, WorkflowJob,
};
use aqua_sim::{EventQueue, LatencySummary, SimDuration, SimTime};
use aqua_telemetry::{EventSink, LiveSink, ShedReason, SimEvent, Telemetry};

use crate::admission::{Admission, AdmissionConfig, AdmissionStats};
use crate::refit::{RefitScheduler, RefitStats};
use crate::warm_pool::{Acquired, WarmPoolConfig, WarmPoolManager, WarmPoolStats};

/// Events the control plane's event loop delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcEvent {
    /// The `k`-th arrival of `job` (lazily re-armed: handling arrival `k`
    /// schedules arrival `k + 1`, so the event heap stays O(jobs), not
    /// O(total arrivals)).
    Arrival { job: usize, k: usize },
    /// A container boot finished warm.
    BootDone { container: ContainerId },
    /// A container boot failed at the moment it would have turned warm.
    BootFailed { container: ContainerId },
    /// One task execution finished on `container`.
    ExecDone {
        wf: InstanceRef,
        stage: u32,
        container: ContainerId,
    },
    /// Cut a pool-signal window and run the pre-warm policy.
    PolicyTick,
    /// Run the warm-pool filler task.
    FillerTick,
    /// Run the budgeted model-refit scheduler.
    RefitTick,
    /// Begin graceful drain.
    Shutdown,
}

/// Predictive-admission knobs: how often and how conservatively the
/// plane consults the online latency model at the front door.
///
/// An arrival of a tenant with a finite SLO is rejected when the model's
/// workflow-latency prediction `mean + k_sigma · σ` already exceeds the
/// SLO — the work is doomed, so shedding it *now* keeps queues short for
/// arrivals that can still make it. The budget counts prediction *checks*
/// per policy window (not rejects), bounding the per-arrival GP cost on
/// the hot path; `0` disables the mechanism entirely, and a disabled
/// plane is bit-identical to one without the feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveConfig {
    /// Model consultations allowed per policy window (0 = disabled).
    pub checks_per_window: u32,
    /// Uncertainty multiplier in the reject criterion `mean + k·σ > SLO`.
    pub k_sigma: f64,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            checks_per_window: 0,
            k_sigma: 1.0,
        }
    }
}

impl PredictiveConfig {
    /// An enabled config with a per-window check budget.
    pub fn enabled(checks_per_window: u32, k_sigma: f64) -> Self {
        PredictiveConfig {
            checks_per_window,
            k_sigma,
        }
    }
}

/// Tunables for [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Warm-pool sizing (semaphore width, keep-alive, memory budget).
    pub pool: WarmPoolConfig,
    /// Admission bounds (in-flight cap, queue caps).
    pub admission: AdmissionConfig,
    /// Pre-warm policy control window; 1 s by default, which suits
    /// reactive policies and the per-window predictive-veto budget. The
    /// batch simulator's pool tick is 60 s: a plane hosting a forecasting
    /// policy (histogram, AQUATOPE) tuned on simulator runs should match
    /// it, or per-window demand shrinks 60-fold.
    pub policy_window: SimDuration,
    /// Filler-task cadence (shorter than the policy window so targets are
    /// approached smoothly within one window).
    pub filler_interval: SimDuration,
    /// Model-refit cadence.
    pub refit_interval: SimDuration,
    /// Maximum apps refit per refit tick.
    pub refit_budget: usize,
    /// Feed every n-th completed workflow per app into the latency model
    /// (bounds GP growth under heavy traffic).
    pub model_sample_every: u64,
    /// Virtual time at which graceful shutdown begins.
    pub run_for: SimDuration,
    /// Seed for the runtime's boot/exec sampling streams.
    pub seed: u64,
    /// Predictive-admission knobs (disabled by default).
    pub predictive: PredictiveConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool: WarmPoolConfig::default(),
            admission: AdmissionConfig::default(),
            policy_window: SimDuration::from_secs(1),
            filler_interval: SimDuration::from_millis(200),
            refit_interval: SimDuration::from_secs(10),
            refit_budget: 4,
            model_sample_every: 32,
            run_for: SimDuration::from_secs(3600),
            seed: 0xA9_5EED,
            predictive: PredictiveConfig::default(),
        }
    }
}

/// Per-tenant slice of the end-of-run report.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's admission/shedding ledger.
    pub admission: AdmissionStats,
    /// End-to-end latency summary over this tenant's completions, seconds.
    pub latency: LatencySummary,
    /// Completed workflows that still missed the tenant's SLO.
    pub qos_misses: u64,
    /// The SLO the misses were counted against (+inf = best-effort).
    pub slo_secs: f64,
}

/// End-of-run report of a [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Virtual time when the loop ran dry.
    pub sim_horizon: SimTime,
    /// Events delivered over the whole run.
    pub events_processed: u64,
    /// Workflow instances that completed every stage.
    pub completed: u64,
    /// Admitted instances aborted because a task was shed at a full queue.
    pub rejected_workflows: u64,
    /// Arrival events ignored because they fired during drain.
    pub arrivals_skipped_in_drain: u64,
    /// Task executions completed.
    pub invocations_executed: u64,
    /// End-to-end workflow latency summary, seconds.
    pub latency: LatencySummary,
    /// Admission/shedding counters.
    pub admission: AdmissionStats,
    /// Warm-pool counters.
    pub pool: WarmPoolStats,
    /// Container-runtime counters.
    pub runtime: RuntimeStats,
    /// Refit-scheduler counters.
    pub refit: RefitStats,
    /// Online-model counters.
    pub model: OnlineModelStats,
    /// Runtime ledger size after the shutdown sweep (0 = clean).
    pub live_containers_at_exit: usize,
    /// Containers the final sweep had to kill.
    pub swept_at_exit: usize,
    /// Workflow instances still open when the loop ran dry (0 = clean).
    pub stranded_instances: usize,
    /// Billable memory footprint of the run, GB·s.
    pub cost_gb_s: f64,
    /// Per-tenant ledgers and latency summaries, indexed by `TenantId`.
    pub tenants: Vec<TenantReport>,
}

/// Per-job state: what the plane derives once at construction, and where
/// the job's completions go.
///
/// **Slot rule.** `arrivals` is the job's trace, and it also holds the
/// job's completion latencies: the `c`-th completion (0-based) writes its
/// latency, whole microseconds as a [`SimTime`], into slot `c`. Arrival
/// `k` is read when arrival `k − 1` re-arms it (arrival 0 when the run
/// starts), and never again. A workflow completes only after the arrival
/// that admitted it fired, so when the `c`-th completion lands at least
/// `c + 1` arrivals have fired, and slot `c` has been read. Slots
/// `..completions` hold the latencies in completion order.
struct JobState {
    dag: WorkflowDag,
    arrivals: Vec<SimTime>,
    /// Stage-0 config normalized into `[0,1]^3` — the model coordinate
    /// for this app's workflow latency observations.
    u: [f64; 3],
    /// Arrivals of this job that have fired, the drain's included.
    fired: usize,
    completions: u64,
}

/// A handle on an in-flight workflow instance: its slot in the plane's
/// instance slab, plus the low 32 bits of its sequential id, which debug
/// builds check on every access (see `InstanceSlab` for why a live
/// handle never meets a recycled slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceRef {
    slot: u32,
    tag: u32,
}

/// One in-flight workflow instance.
#[derive(Default)]
struct WfInstance {
    /// Sequential instance id, as telemetry reports it.
    id: u64,
    job: usize,
    admitted_at: SimTime,
    /// Tasks left per stage.
    remaining: Vec<u32>,
    /// Unmet dependencies per stage.
    deps_left: Vec<u32>,
    stages_left: u32,
    /// Pending-queue entries plus in-flight `ExecDone` events of this
    /// instance: its tasks dispatched or queued and not yet retired.
    outstanding: u32,
    aborted: bool,
}

/// In-flight workflow instances in recycled slots. A freed slot keeps its
/// `remaining`/`deps_left` buffers, so once every slot has held the
/// longest workflow, admitting one allocates nothing.
///
/// **Invariant.** A slot is freed only when its instance has completed or
/// been aborted *and* `outstanding == 0`. Every pending-queue entry and
/// every in-flight `ExecDone` holding an [`InstanceRef`] is counted in
/// `outstanding` until it is retired, so no handle outlives its instance
/// and none can reach a slot that was recycled under it.
#[derive(Default)]
struct InstanceSlab {
    slots: Vec<WfInstance>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl InstanceSlab {
    /// Takes a slot for instance `id` of `job` (whose DAG is `dag`).
    fn admit(&mut self, id: u64, job: usize, dag: &WorkflowDag, now: SimTime) -> InstanceRef {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(WfInstance::default());
            (self.slots.len() - 1) as u32
        });
        let inst = &mut self.slots[slot as usize];
        inst.id = id;
        inst.job = job;
        inst.admitted_at = now;
        inst.remaining.clear();
        inst.remaining.extend(dag.stages().map(|s| s.tasks));
        inst.deps_left.clear();
        inst.deps_left
            .extend(dag.stages().map(|s| s.deps.len() as u32));
        inst.stages_left = dag.num_stages() as u32;
        inst.outstanding = 0;
        inst.aborted = false;
        InstanceRef {
            slot,
            tag: id as u32,
        }
    }

    fn get(&self, wf: InstanceRef) -> &WfInstance {
        let inst = &self.slots[wf.slot as usize];
        debug_assert_eq!(inst.id as u32, wf.tag, "handle on a recycled slot");
        inst
    }

    fn get_mut(&mut self, wf: InstanceRef) -> &mut WfInstance {
        let inst = &mut self.slots[wf.slot as usize];
        debug_assert_eq!(inst.id as u32, wf.tag, "handle on a recycled slot");
        inst
    }

    /// Hands the slot back; see the invariant above.
    fn free(&mut self, wf: InstanceRef) {
        debug_assert_eq!(self.get(wf).outstanding, 0, "freed with work in flight");
        self.free.push(wf.slot);
    }

    /// Instances still in flight.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// The summary of the latencies in `slots`, whole microseconds each,
/// whose completion-order sum is `sum`: bit for bit [`LatencySummary::of`]
/// over the completion-order sample. The quantiles and the maximum do not
/// depend on the order they are read in, `as_secs_f64` is non-decreasing
/// in the microseconds, and the sum is the fold `aqua_linalg::mean` makes.
fn summary<'a>(slots: impl Iterator<Item = &'a [SimTime]> + Clone, sum: f64) -> LatencySummary {
    let count = slots.clone().map(<[_]>::len).sum();
    if count == 0 {
        return LatencySummary::default();
    }
    let [p50, p90, p99, max] = aqua_linalg::chunked_quantiles_by_key(
        slots,
        |t| t.as_micros(),
        |us| SimTime::from_micros(us).as_secs_f64(),
        [0.5, 0.9, 0.99, 1.0],
    );
    LatencySummary {
        count,
        mean: sum / count as f64,
        p50,
        p90,
        p99,
        max,
    }
}

/// The long-running AQUATOPE control plane.
pub struct ControlPlane {
    cfg: ServiceConfig,
    queue: EventQueue<SvcEvent>,
    /// Events popped from `queue` so far.
    events_processed: u64,
    pool: WarmPoolManager,
    admission: Admission,
    /// What the next policy tick hands out, refilled in place. Between
    /// ticks its window counters (invocations, peak in-flight tasks and
    /// failed boots) accumulate; container counts are read from the warm
    /// pool at the tick.
    obs: PoolObservation,
    policy: Box<dyn PrewarmController>,
    model: OnlineLatencyModel,
    refit: RefitScheduler,
    jobs: Vec<JobState>,
    instances: InstanceSlab,
    next_instance: u64,
    /// Per-function queues of `(instance, stage)` tasks waiting for a
    /// container.
    pending: Vec<VecDeque<(InstanceRef, u32)>>,
    /// Tasks across all `pending` queues: the front door's congestion gate
    /// reads this instead of scanning every queue per arrival.
    pending_tasks: usize,
    /// Functions whose waiters found no capacity, in discovery order.
    starved: VecDeque<FunctionId>,
    starved_flag: Vec<bool>,
    draining: bool,
    telemetry: Telemetry,
    /// Every completion latency summed in completion order.
    latency_sum: f64,
    completed: u64,
    rejected: u64,
    skipped_in_drain: u64,
    invocations_executed: u64,
    /// Tenancy: QoS classes plus the job → tenant map. Defaults to one
    /// unlimited tenant, which reproduces the untenanted plane exactly.
    plan: TenantPlan,
    /// Per-tenant completed-but-late counts.
    tenant_qos_misses: Vec<u64>,
    /// Per-tenant latency sums, each in completion order.
    tenant_latency_sums: Vec<f64>,
    /// Predictive checks left in the current policy window.
    predictive_left: u32,
}

/// Normalizes a stage-0 config into the default [`ConfigSpace`] unit cube.
fn stage0_u(configs: &StageConfigs) -> [f64; 3] {
    let cs = ConfigSpace::default();
    let c = configs.stage(0);
    let norm = |v: f64, (lo, hi): (f64, f64)| ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    [
        norm(c.cpu, cs.cpu),
        norm(c.memory_mb, cs.memory_mb),
        norm(c.concurrency as f64, (1.0, cs.concurrency_max as f64)),
    ]
}

impl ControlPlane {
    /// A control plane serving `jobs` over `registry`'s functions, with
    /// `policy` deciding pre-warm targets and `faults` driving boot
    /// failures.
    ///
    /// Each function's containers boot under the config of the first
    /// job stage that uses it ([`aqua_faas::boot_configs`], the batch
    /// simulator's rule too; jobs come popularity-ordered from the
    /// workload generators, so popular apps pin their functions' shapes).
    pub fn new(
        registry: FunctionRegistry,
        jobs: Vec<WorkflowJob>,
        policy: Box<dyn PrewarmController>,
        faults: &FaultPlan,
        cfg: ServiceConfig,
    ) -> Self {
        let functions = registry.len();
        let configs = aqua_faas::boot_configs(&jobs, functions)
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        let runtime = SimContainerRuntime::new(registry, NoiseModel::default(), cfg.seed, faults);
        let jobs: Vec<JobState> = jobs
            .into_iter()
            .map(|job| JobState {
                u: stage0_u(&job.configs),
                dag: job.dag,
                arrivals: job.arrivals,
                fired: 0,
                completions: 0,
            })
            .collect();
        let plan = TenantPlan::single(jobs.len());
        let predictive_left = cfg.predictive.checks_per_window;
        ControlPlane {
            queue: EventQueue::with_capacity(jobs.len() + 64),
            events_processed: 0,
            pool: WarmPoolManager::new(cfg.pool, Box::new(runtime), configs),
            admission: Admission::new(cfg.admission),
            obs: PoolObservation {
                now: SimTime::ZERO,
                stats: (0..functions)
                    .map(|i| FnWindowStats {
                        function: FunctionId(i),
                        invocations: 0,
                        peak_concurrency: 0,
                        booting: 0,
                        idle: 0,
                        busy: 0,
                        failed_boots: 0,
                    })
                    .collect(),
            },
            policy,
            model: OnlineLatencyModel::service_default(),
            refit: RefitScheduler::new(cfg.refit_interval, cfg.refit_budget),
            jobs,
            instances: InstanceSlab::default(),
            next_instance: 0,
            pending: (0..functions).map(|_| VecDeque::new()).collect(),
            pending_tasks: 0,
            starved: VecDeque::new(),
            starved_flag: vec![false; functions],
            draining: false,
            telemetry: Telemetry::disabled(),
            latency_sum: 0.0,
            completed: 0,
            rejected: 0,
            skipped_in_drain: 0,
            invocations_executed: 0,
            tenant_qos_misses: vec![0],
            tenant_latency_sums: vec![0.0],
            predictive_left,
            plan,
            cfg,
        }
    }

    /// Installs a multi-tenant plan: per-tenant admission budgets, and —
    /// when any class carries a nonzero memory share — a partitioned
    /// warm-pool budget with work-conserving borrowing. Call before
    /// [`ControlPlane::run`]. A plan of all-[`aqua_faas::QosClass::unlimited`]
    /// classes leaves every decision identical to the untenanted plane.
    ///
    /// # Panics
    ///
    /// Panics when the plan doesn't cover this plane's jobs or a job
    /// names an unknown tenant.
    #[must_use]
    pub fn with_tenants(mut self, plan: TenantPlan) -> Self {
        plan.validate();
        assert_eq!(
            plan.job_tenants.len(),
            self.jobs.len(),
            "tenant plan must cover every job"
        );
        self.admission = Admission::with_tenants(self.cfg.admission, plan.classes.clone());
        if plan.classes.iter().any(|c| c.memory_share_mb > 0.0) {
            // Functions inherit the tenant of the first job stage that
            // uses them — the same pinning rule as boot configs.
            let mut fn_tenant = vec![TenantId(0); self.pool.functions()];
            let mut pinned = vec![false; self.pool.functions()];
            for (j, job) in self.jobs.iter().enumerate() {
                for s in job.dag.stages() {
                    if !pinned[s.function.0] {
                        pinned[s.function.0] = true;
                        fn_tenant[s.function.0] = plan.job_tenants[j];
                    }
                }
            }
            let shares: Vec<f64> = plan.classes.iter().map(|c| c.memory_share_mb).collect();
            self.pool.set_tenancy(fn_tenant, shares);
        }
        self.tenant_qos_misses = vec![0; plan.tenants()];
        self.tenant_latency_sums = vec![0.0; plan.tenants()];
        self.plan = plan;
        self
    }

    /// Replaces the online latency model — e.g.
    /// [`OnlineLatencyModel::scalable_default`] for high-traffic planes
    /// whose per-app training sets should auto-switch to the sparse
    /// surrogate tier (each switch is surfaced as a
    /// [`SimEvent::SurrogateTierSwitch`] telemetry event at the refit
    /// tick that performed it). Call before [`ControlPlane::run`].
    #[must_use]
    pub fn with_model(mut self, model: OnlineLatencyModel) -> Self {
        self.model = model;
        self
    }

    /// Attaches a live telemetry sink flushed every `flush_every` events.
    /// Only coarse events are emitted, keeping the request path cheap:
    /// warm hits, cold-start begins, tenant admissions, sheds and
    /// completions, predictive rejections and surrogate-tier switches.
    pub fn attach_telemetry(&mut self, sink: Box<dyn EventSink + Send>, flush_every: u64) {
        self.telemetry = Telemetry::new(Arc::new(Mutex::new(LiveSink::new(sink, flush_every))));
    }

    /// Runs the service to completion: arrivals are injected lazily, the
    /// periodic ticks re-arm themselves, `Shutdown` fires at
    /// [`ServiceConfig::run_for`], and the loop exits when the drain
    /// finishes. Consumes the plane and returns its report.
    pub fn run(mut self) -> ServiceReport {
        for j in 0..self.jobs.len() {
            if let Some(&t) = self.jobs[j].arrivals.first() {
                self.queue.push(t, SvcEvent::Arrival { job: j, k: 0 });
            }
        }
        self.after(self.cfg.policy_window, SvcEvent::PolicyTick);
        self.after(self.cfg.filler_interval, SvcEvent::FillerTick);
        self.after(self.cfg.refit_interval, SvcEvent::RefitTick);
        self.after(self.cfg.run_for, SvcEvent::Shutdown);
        while let Some((now, ev)) = self.queue.pop() {
            self.events_processed += 1;
            self.handle(now, ev);
        }
        self.finish()
    }

    fn handle(&mut self, now: SimTime, ev: SvcEvent) {
        match ev {
            SvcEvent::Arrival { job, k } => {
                self.jobs[job].fired = k + 1;
                if self.draining {
                    self.skipped_in_drain += 1;
                    return;
                }
                if let Some(&t) = self.jobs[job].arrivals.get(k + 1) {
                    self.queue.push(t, SvcEvent::Arrival { job, k: k + 1 });
                }
                self.admit(job, now);
            }
            SvcEvent::BootDone { container } => {
                let (f, _) = self.pool.on_boot_done(container, now);
                self.serve_pending(f, now);
                self.relieve_starved(now);
            }
            SvcEvent::BootFailed { container } => {
                let f = self.pool.on_boot_failed(container, now);
                self.obs.stats[f.0].failed_boots += 1;
                // Replacement boots for waiters the failed boot was
                // covering, then let other starved functions at the
                // freed memory.
                self.cover(f, now);
                self.relieve_starved(now);
            }
            SvcEvent::ExecDone {
                wf,
                stage,
                container,
            } => {
                let f = {
                    let job = self.instances.get(wf).job;
                    self.jobs[job].dag.stage(stage as usize).function
                };
                self.pool.release(container, now);
                self.invocations_executed += 1;
                self.serve_pending(f, now);
                self.relieve_starved(now);
                self.task_complete(wf, stage, now);
            }
            SvcEvent::PolicyTick => {
                self.obs.now = now;
                for s in &mut self.obs.stats {
                    s.idle = self.pool.idle_count(s.function) as u32;
                    s.booting = self.pool.booting_count(s.function);
                    s.busy = self.pool.busy_count(s.function);
                }
                let decisions = self.policy.tick(&self.obs);
                self.pool.apply_decisions(&decisions);
                // The next window's peak restarts from the tasks carried
                // over. The simulator's restarts from 0 instead, so a
                // window with carried-over work and no new dispatch reads
                // the in-flight count here and 0 there.
                for i in 0..self.obs.stats.len() {
                    let in_flight = self.in_flight(FunctionId(i));
                    let s = &mut self.obs.stats[i];
                    s.invocations = 0;
                    s.failed_boots = 0;
                    s.peak_concurrency = in_flight;
                }
                self.predictive_left = self.cfg.predictive.checks_per_window;
                if !self.draining {
                    self.after(self.cfg.policy_window, SvcEvent::PolicyTick);
                }
            }
            SvcEvent::FillerTick => {
                let tickets = self.pool.filler_tick(now);
                for t in &tickets {
                    self.emit_cold_start(t, now, true);
                    self.schedule_boot(t);
                }
                // Keep-alive reaping may have freed memory for starved
                // waiters even when no boot started.
                self.relieve_starved(now);
                if !self.draining {
                    self.after(self.cfg.filler_interval, SvcEvent::FillerTick);
                }
            }
            SvcEvent::RefitTick => {
                self.refit.tick(&mut self.model);
                for sw in self.model.drain_tier_switches() {
                    self.telemetry.emit_with(|| SimEvent::SurrogateTierSwitch {
                        at: now,
                        app: sw.app,
                        train: sw.train,
                        inducing: sw.inducing,
                    });
                }
                if !self.draining {
                    self.after(self.cfg.refit_interval, SvcEvent::RefitTick);
                }
            }
            SvcEvent::Shutdown => {
                self.draining = true;
                self.pool.begin_drain();
                self.relieve_starved(now);
            }
        }
    }

    /// Predictive front-door check: consumes one budgeted model
    /// consultation and returns `true` when the arrival should be
    /// rejected because its predicted latency already misses the SLO.
    fn predictive_veto(&mut self, job: usize, tenant: TenantId, now: SimTime) -> bool {
        if self.predictive_left == 0 {
            return false;
        }
        let slo = self.plan.classes[tenant.0].slo_secs();
        if !slo.is_finite() {
            return false; // best-effort tenants are never vetoed
        }
        // Only consult the model under visible congestion: with every
        // function queue empty a fresh arrival inherits nobody's wait,
        // and — crucially — admitting freely while uncongested keeps
        // completions flowing into the model, so a pessimistic forecast
        // learned during a burst can never starve its own correction.
        debug_assert_eq!(
            self.pending_tasks,
            self.pending.iter().map(VecDeque::len).sum::<usize>()
        );
        if self.pending_tasks == 0 {
            return false;
        }
        self.predictive_left -= 1;
        let u = self.jobs[job].u;
        let Some((mean, var)) = self.model.predict(job, &u, now.as_secs_f64()) else {
            return false; // model not fitted yet: admit optimistically
        };
        let sigma = var.max(0.0).sqrt();
        let predicted = mean + self.cfg.predictive.k_sigma * sigma;
        if predicted <= slo {
            return false;
        }
        self.admission.predictive_reject(tenant);
        self.telemetry.emit_with(|| SimEvent::PredictiveReject {
            at: now,
            tenant: tenant.0,
            workflow: job,
            predicted_secs: predicted,
            sigma_secs: sigma,
            slo_secs: slo,
        });
        true
    }

    fn admit(&mut self, job: usize, now: SimTime) {
        let tenant = self.plan.job_tenants[job];
        if self.predictive_veto(job, tenant, now) {
            return;
        }
        if !self.admission.try_admit(tenant) {
            // Shed at the front door, counted by the limiter.
            self.telemetry.emit_with(|| SimEvent::TenantShed {
                at: now,
                tenant: tenant.0,
                workflow: job,
                reason: ShedReason::Inflight,
            });
            return;
        }
        let id = self.next_instance;
        self.next_instance += 1;
        self.telemetry.emit_with(|| SimEvent::TenantAdmit {
            at: now,
            tenant: tenant.0,
            workflow: job,
            instance: id,
        });
        let wf = self.instances.admit(id, job, &self.jobs[job].dag, now);
        // Indexed loop: `dispatch_stage` needs `&mut self`, and cloning the
        // root list here would put an allocation on every admission.
        for r in 0..self.jobs[job].dag.roots().len() {
            let s = self.jobs[job].dag.roots()[r];
            if !self.dispatch_stage(wf, s, now) {
                break;
            }
        }
    }

    /// Dispatches every task of one stage. Returns `false` when the
    /// instance was aborted part-way (a task was shed).
    fn dispatch_stage(&mut self, wf: InstanceRef, stage: usize, now: SimTime) -> bool {
        let (f, tasks) = {
            let job = self.instances.get(wf).job;
            let s = self.jobs[job].dag.stage(stage);
            (s.function, s.tasks)
        };
        for _ in 0..tasks {
            if !self.dispatch_task(wf, stage as u32, f, now) {
                return false;
            }
        }
        true
    }

    /// Dispatches one task: warm container, else demand boot, else queue,
    /// else shed (aborting the instance). Returns `false` on shed.
    fn dispatch_task(&mut self, wf: InstanceRef, stage: u32, f: FunctionId, now: SimTime) -> bool {
        // The window peak counts this task as in flight even when it is
        // shed below.
        let in_flight = self.in_flight(f) + 1;
        let s = &mut self.obs.stats[f.0];
        s.invocations += 1;
        s.peak_concurrency = s.peak_concurrency.max(in_flight);
        match self.pool.acquire(f, now) {
            Acquired::Warm(id) => {
                self.bump_outstanding(wf);
                self.start_exec(wf, stage, f, id, now);
                true
            }
            Acquired::Cold(ticket) => {
                self.bump_outstanding(wf);
                self.emit_cold_start(&ticket, now, false);
                self.schedule_boot(&ticket);
                self.pending[f.0].push_back((wf, stage));
                self.pending_tasks += 1;
                true
            }
            Acquired::NoCapacity => {
                let job = self.instances.get(wf).job;
                let tenant = self.plan.job_tenants[job];
                if self.admission.may_queue(tenant, self.pending[f.0].len()) {
                    self.bump_outstanding(wf);
                    self.pending[f.0].push_back((wf, stage));
                    self.pending_tasks += 1;
                    self.mark_starved(f);
                    true
                } else {
                    self.telemetry.emit_with(|| SimEvent::TenantShed {
                        at: now,
                        tenant: tenant.0,
                        workflow: job,
                        reason: ShedReason::Queue,
                    });
                    self.abort(wf);
                    false
                }
            }
        }
    }

    /// Tasks of `f` running in a container or queued for one.
    fn in_flight(&self, f: FunctionId) -> u32 {
        self.pool.busy_count(f) + self.pending[f.0].len() as u32
    }

    fn bump_outstanding(&mut self, wf: InstanceRef) {
        self.instances.get_mut(wf).outstanding += 1;
    }

    fn start_exec(
        &mut self,
        wf: InstanceRef,
        stage: u32,
        f: FunctionId,
        container: ContainerId,
        now: SimTime,
    ) {
        let d = self.pool.sample_exec(f);
        self.after(
            d,
            SvcEvent::ExecDone {
                wf,
                stage,
                container,
            },
        );
        self.telemetry.emit_with(|| SimEvent::WarmHit {
            at: now,
            function: f.0,
            container: container.0,
        });
    }

    /// Schedules `event` `delay` after the current virtual time.
    fn after(&mut self, delay: SimDuration, event: SvcEvent) {
        self.queue.push(self.queue.now() + delay, event);
    }

    fn schedule_boot(&mut self, t: &BootTicket) {
        let ev = if t.fails {
            SvcEvent::BootFailed {
                container: t.container,
            }
        } else {
            SvcEvent::BootDone {
                container: t.container,
            }
        };
        self.after(t.boot, ev);
    }

    fn emit_cold_start(&self, ticket: &BootTicket, now: SimTime, prewarmed: bool) {
        self.telemetry.emit_with(|| SimEvent::ColdStartBegin {
            at: now,
            function: ticket.function.0,
            container: ticket.container.0,
            worker: 0,
            memory_mb: self.pool.config(ticket.function).memory_mb,
            slots: 1,
            prewarmed,
        });
    }

    /// Serves waiting tasks from idle containers until one side runs out.
    fn serve_pending(&mut self, f: FunctionId, now: SimTime) {
        while self.pool.idle_count(f) > 0 {
            let Some((wf, stage)) = self.pending[f.0].pop_front() else {
                return;
            };
            self.pending_tasks -= 1;
            if self.instances.get(wf).aborted {
                // Dead waiter: retire it without consuming a container.
                self.retire_aborted_task(wf);
                continue;
            }
            match self.pool.acquire(f, now) {
                Acquired::Warm(id) => self.start_exec(wf, stage, f, id, now),
                _ => unreachable!("idle_count > 0 guarantees a warm acquire"),
            }
        }
    }

    /// Makes sure every waiter of `f` is covered by a booting container,
    /// starting demand boots as memory allows.
    fn cover(&mut self, f: FunctionId, now: SimTime) {
        self.serve_pending(f, now);
        while self.pending[f.0].len() > self.pool.booting_count(f) as usize {
            match self.pool.acquire(f, now) {
                Acquired::Warm(_) => unreachable!("serve_pending drained idle first"),
                Acquired::Cold(t) => {
                    self.emit_cold_start(&t, now, false);
                    self.schedule_boot(&t);
                }
                Acquired::NoCapacity => {
                    self.mark_starved(f);
                    break;
                }
            }
        }
    }

    fn mark_starved(&mut self, f: FunctionId) {
        if !self.starved_flag[f.0] {
            self.starved_flag[f.0] = true;
            self.starved.push_back(f);
        }
    }

    /// Gives each starved function one chance at newly-freed capacity, in
    /// discovery order; stops at the first function that stays starved.
    fn relieve_starved(&mut self, now: SimTime) {
        for _ in 0..self.starved.len() {
            let Some(f) = self.starved.pop_front() else {
                break;
            };
            self.starved_flag[f.0] = false;
            self.cover(f, now);
            if self.starved_flag[f.0] {
                break;
            }
        }
    }

    /// Retires one outstanding task of an aborted instance, finishing the
    /// instance when its last task drains.
    fn retire_aborted_task(&mut self, wf: InstanceRef) {
        let (done, job) = {
            let inst = self.instances.get_mut(wf);
            inst.outstanding -= 1;
            (inst.aborted && inst.outstanding == 0, inst.job)
        };
        if done {
            self.instances.free(wf);
            self.admission.finish(self.plan.job_tenants[job]);
        }
    }

    fn abort(&mut self, wf: InstanceRef) {
        let (finish_now, job) = {
            let inst = self.instances.get_mut(wf);
            if inst.aborted {
                return;
            }
            inst.aborted = true;
            (inst.outstanding == 0, inst.job)
        };
        self.rejected += 1;
        if finish_now {
            self.instances.free(wf);
            self.admission.finish(self.plan.job_tenants[job]);
        }
    }

    fn task_complete(&mut self, wf: InstanceRef, stage: u32, now: SimTime) {
        let stage = stage as usize;
        let (aborted, stage_done, wf_done, job) = {
            let inst = self.instances.get_mut(wf);
            if inst.aborted {
                (true, false, false, inst.job)
            } else {
                inst.outstanding -= 1;
                inst.remaining[stage] -= 1;
                let sd = inst.remaining[stage] == 0;
                if sd {
                    inst.stages_left -= 1;
                }
                (false, sd, sd && inst.stages_left == 0, inst.job)
            }
        };
        if aborted {
            self.retire_aborted_task(wf);
            return;
        }
        if wf_done {
            let (id, admitted_at) = {
                let inst = self.instances.get(wf);
                (inst.id, inst.admitted_at)
            };
            self.instances.free(wf);
            let tenant = self.plan.job_tenants[job];
            self.admission.finish(tenant);
            self.completed += 1;
            let took = now - admitted_at;
            let latency = took.as_secs_f64();
            self.latency_sum += latency;
            self.tenant_latency_sums[tenant.0] += latency;
            if latency > self.plan.classes[tenant.0].slo_secs() {
                self.tenant_qos_misses[tenant.0] += 1;
            }
            self.telemetry.emit_with(|| SimEvent::TenantComplete {
                at: now,
                tenant: tenant.0,
                workflow: job,
                instance: id,
                latency_secs: latency,
            });
            let js = &mut self.jobs[job];
            // The slot rule at `JobState`.
            let slot = js.completions as usize;
            debug_assert!(slot < js.fired, "job {job} completes more than arrived");
            js.arrivals[slot] = SimTime::ZERO + took;
            js.completions += 1;
            if js.completions.is_multiple_of(self.cfg.model_sample_every) {
                let u = js.u;
                self.model.observe(job, &u, now.as_secs_f64(), latency);
            }
            return;
        }
        if !stage_done {
            return;
        }
        // Indexed loop for the same reason as `admit`: stage completions
        // are hot, and the dependent list is immutable while we dispatch.
        for di in 0..self.jobs[job].dag.dependents(stage).len() {
            let d = self.jobs[job].dag.dependents(stage)[di];
            let ready = {
                // A dispatch that aborts the instance returns `false` and
                // ends the loop (the abort may free the slot), so here the
                // instance is live.
                let inst = self.instances.get_mut(wf);
                debug_assert!(!inst.aborted);
                inst.deps_left[d] -= 1;
                inst.deps_left[d] == 0
            };
            if ready && !self.dispatch_stage(wf, d, now) {
                break;
            }
        }
    }

    fn finish(mut self) -> ServiceReport {
        let stranded = self.instances.live();
        let cost_gb_s = self.pool.memory_gb_seconds(self.queue.now());
        let swept = self.pool.shutdown_sweep(self.queue.now());
        let live = self.pool.live_containers();
        self.telemetry.flush();
        // Each job's completion latencies (the slot rule at `JobState`).
        let slots = self
            .jobs
            .iter()
            .map(|job| &job.arrivals[..job.completions as usize]);
        let tenants = (0..self.plan.tenants())
            .map(|t| {
                let of_t = slots
                    .clone()
                    .zip(&self.plan.job_tenants)
                    .filter(move |(_, tenant)| tenant.0 == t)
                    .map(|(s, _)| s);
                TenantReport {
                    admission: self.admission.tenant_stats(TenantId(t)),
                    latency: summary(of_t, self.tenant_latency_sums[t]),
                    qos_misses: self.tenant_qos_misses[t],
                    slo_secs: self.plan.classes[t].slo_secs(),
                }
            })
            .collect();
        let latency = summary(slots, self.latency_sum);
        ServiceReport {
            sim_horizon: self.queue.now(),
            events_processed: self.events_processed,
            completed: self.completed,
            rejected_workflows: self.rejected,
            arrivals_skipped_in_drain: self.skipped_in_drain,
            invocations_executed: self.invocations_executed,
            latency,
            admission: self.admission.stats(),
            pool: self.pool.stats(),
            runtime: self.pool.runtime_stats(),
            refit: self.refit.stats(),
            model: self.model.stats(),
            live_containers_at_exit: live,
            swept_at_exit: swept,
            stranded_instances: stranded,
            cost_gb_s,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_faas::{FunctionSpec, StageConfigs};
    use aqua_telemetry::{Fanout, Recorder, SharedSink};

    /// Attaches a recorder to `plane` and returns it.
    fn record(plane: &mut ControlPlane) -> Arc<Mutex<Recorder>> {
        let rec = Arc::new(Mutex::new(Recorder::unbounded()));
        plane.attach_telemetry(Box::new(Fanout::new(vec![rec.clone() as SharedSink])), 64);
        rec
    }

    /// The recorded events of `kind`.
    fn count(rec: &Mutex<Recorder>, kind: &str) -> u64 {
        let events = rec.lock().unwrap().events();
        events.iter().filter(|e| e.kind() == kind).count() as u64
    }

    fn chain_jobs(apps: usize, arrivals_per_app: usize) -> (FunctionRegistry, Vec<WorkflowJob>) {
        let mut reg = FunctionRegistry::new();
        let mut jobs = Vec::new();
        for a in 0..apps {
            let f = reg.register(FunctionSpec::new(format!("f{a}")).with_work_ms(40.0));
            let dag = WorkflowDag::chain(format!("app{a}"), vec![f]);
            let configs = StageConfigs::uniform(&dag, aqua_faas::ResourceConfig::default());
            let arrivals = (0..arrivals_per_app)
                .map(|i| SimTime::from_millis(500 * (i as u64 + 1) + 37 * a as u64))
                .collect();
            jobs.push(WorkflowJob {
                dag,
                configs,
                arrivals,
            });
        }
        (reg, jobs)
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            run_for: SimDuration::from_secs(120),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn completes_every_arrival_and_shuts_down_clean() {
        let (reg, jobs) = chain_jobs(3, 20);
        let plane = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            small_cfg(),
        );
        let report = plane.run();
        assert_eq!(report.completed, 60);
        assert_eq!(report.rejected_workflows, 0);
        assert_eq!(report.live_containers_at_exit, 0, "no orphaned containers");
        assert_eq!(report.stranded_instances, 0);
        assert_eq!(report.invocations_executed, 60);
        assert!(report.latency.p50 > 0.0);
        assert_eq!(report.admission.admitted, 60);
        assert_eq!(report.admission.finished, 60);
    }

    /// Window counters accumulate between ticks and reset at each tick;
    /// the peak restarts at the tasks carried over (`aqua_faas::sim`
    /// restarts it at 0 instead, so its later windows here would read 0).
    #[test]
    fn window_counters_accumulate_and_reset() {
        struct Record(Arc<Mutex<Vec<[u32; 4]>>>);
        impl PrewarmController for Record {
            fn tick(&mut self, obs: &PoolObservation) -> Vec<aqua_faas::PoolDecision> {
                let s = &obs.stats[0];
                let seen = [s.invocations, s.peak_concurrency, s.failed_boots, s.busy];
                self.0.lock().unwrap().push(seen);
                Vec::new()
            }
        }
        let mut reg = FunctionRegistry::new();
        let f = reg.register(
            FunctionSpec::new("long")
                .with_work_ms(5_000.0)
                .with_exec_cv(0.0)
                .with_cold_start(100.0, 0.0),
        );
        let dag = WorkflowDag::chain("long", vec![f]);
        let configs = StageConfigs::uniform(&dag, aqua_faas::ResourceConfig::default());
        let arrivals = vec![SimTime::from_millis(200), SimTime::from_millis(250)];
        let jobs = vec![WorkflowJob::new(dag, configs, arrivals)];
        let seen = Arc::new(Mutex::new(Vec::new()));
        // Room for one container, whose first boot fails: both tasks are
        // dispatched in the first window, and through every later one a
        // task runs in the one busy container while the other waits in
        // the queue.
        let cfg = ServiceConfig {
            pool: WarmPoolConfig {
                memory_budget_mb: 1024.0,
                ..WarmPoolConfig::default()
            },
            run_for: SimDuration::from_millis(3_500),
            ..ServiceConfig::default()
        };
        let faults = FaultPlan::scripted(1, vec![(aqua_telemetry::FaultKind::BootFail, 0)]);
        let report =
            ControlPlane::new(reg, jobs, Box::new(Record(Arc::clone(&seen))), &faults, cfg).run();
        assert_eq!(report.completed, 2);
        assert_eq!(report.pool.boot_failures, 1);
        // Ticks at 1 s to 4 s (the one armed before the 3.5 s shutdown
        // still fires).
        let carried = [0, 2, 0, 1];
        assert_eq!(
            *seen.lock().unwrap(),
            [[2, 2, 1, 1], carried, carried, carried]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (reg, jobs) = chain_jobs(4, 15);
            ControlPlane::new(
                reg,
                jobs,
                Box::new(aqua_pool::HistogramPolicy::default()),
                &FaultPlan::disabled(),
                small_cfg(),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.runtime, b.runtime);
    }

    #[test]
    fn multi_stage_chains_respect_dependencies() {
        let mut reg = FunctionRegistry::new();
        let f0 = reg.register(FunctionSpec::new("extract").with_work_ms(30.0));
        let f1 = reg.register(FunctionSpec::new("transform").with_work_ms(30.0));
        let dag = WorkflowDag::chain("etl", vec![f0, f1]);
        let configs = StageConfigs::uniform(&dag, aqua_faas::ResourceConfig::default());
        let jobs = vec![WorkflowJob {
            dag,
            configs,
            arrivals: (0..10).map(|i| SimTime::from_secs(i + 1)).collect(),
        }];
        let report = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            small_cfg(),
        )
        .run();
        assert_eq!(report.completed, 10);
        assert_eq!(report.invocations_executed, 20, "two stages per workflow");
        assert_eq!(report.live_containers_at_exit, 0);
    }

    #[test]
    fn tight_admission_sheds_instead_of_queueing_unboundedly() {
        let (reg, jobs) = chain_jobs(2, 40);
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                max_inflight: 1,
                queue_cap: 1,
            },
            ..small_cfg()
        };
        let report = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            cfg,
        )
        .run();
        assert!(report.admission.shed_arrivals > 0, "cap must bite");
        assert_eq!(
            report.admission.admitted + report.admission.shed_arrivals,
            80
        );
        assert_eq!(report.live_containers_at_exit, 0);
        assert_eq!(report.stranded_instances, 0);
    }

    #[test]
    fn latency_sampling_feeds_the_online_model() {
        let (reg, jobs) = chain_jobs(1, 30);
        let cfg = ServiceConfig {
            model_sample_every: 2,
            refit_interval: SimDuration::from_secs(5),
            ..small_cfg()
        };
        let report = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            cfg,
        )
        .run();
        assert_eq!(report.completed, 30);
        assert_eq!(report.model.observed, 15, "every 2nd completion sampled");
        assert!(report.refit.ticks > 0);
        assert!(report.refit.absorbed > 0, "refits folded observations in");
    }

    #[test]
    fn refit_tick_switches_tier_and_emits_telemetry() {
        let (reg, jobs) = chain_jobs(1, 60);
        let cfg = ServiceConfig {
            model_sample_every: 1,
            refit_interval: SimDuration::from_secs(5),
            ..small_cfg()
        };
        let mut plane = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            cfg,
        )
        .with_model(
            OnlineLatencyModel::scalable_default()
                .with_tier_threshold(16)
                .with_inducing(8),
        );
        let rec = record(&mut plane);
        let report = plane.run();
        assert_eq!(report.completed, 60);
        assert_eq!(report.model.tier_switches, 1, "exact tier crossed 16 obs");
        assert_eq!(count(&rec, "surrogate_tier_switch"), 1);
    }

    #[test]
    fn telemetry_sees_warm_hits_and_cold_starts() {
        let (reg, jobs) = chain_jobs(2, 10);
        let mut plane = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            small_cfg(),
        );
        let rec = record(&mut plane);
        plane.run();
        assert!(count(&rec, "cold_start_begin") > 0);
        assert!(count(&rec, "warm_hit") > 0);
        assert_eq!(
            count(&rec, "warm_hit")
                + count(&rec, "cold_start_begin")
                + count(&rec, "tenant_admit")
                + count(&rec, "tenant_complete"),
            rec.lock().unwrap().events().len() as u64
        );
        assert_eq!(count(&rec, "tenant_admit"), 20, "one admit per arrival");
        assert_eq!(count(&rec, "tenant_complete"), 20);
    }

    #[test]
    fn tenant_plan_partitions_admission_and_reports_per_tenant() {
        use aqua_faas::QosClass;
        let (reg, jobs) = chain_jobs(2, 20);
        let plan = TenantPlan {
            classes: vec![
                QosClass::new(SimDuration::from_secs(30), 1, 4, 0.0),
                QosClass::unlimited(),
            ],
            job_tenants: vec![TenantId(0), TenantId(1)],
        };
        let report = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            small_cfg(),
        )
        .with_tenants(plan)
        .run();
        assert_eq!(report.tenants.len(), 2);
        let t0 = &report.tenants[0];
        let t1 = &report.tenants[1];
        assert_eq!(t1.admission.admitted, 20, "unlimited tenant admits all");
        assert_eq!(t1.admission.shed_arrivals, 0);
        assert_eq!(t0.admission.arrivals(), 20, "tenant ledger balances");
        assert_eq!(
            t0.admission.admitted + t1.admission.admitted,
            report.admission.admitted,
            "tenant ledgers sum to the global one"
        );
        assert_eq!(t0.slo_secs, 30.0);
        assert!(t1.slo_secs.is_infinite());
        assert_eq!(report.stranded_instances, 0);
        assert_eq!(report.live_containers_at_exit, 0);
        assert!(report.cost_gb_s > 0.0, "containers held memory for a while");
    }

    /// The latencies the jobs keep in their spent arrival slots reduce to
    /// what the completion-order log does: each tenant's sample filtered
    /// out of it, and the whole log, through [`LatencySummary::of`].
    #[test]
    fn arrival_slot_summaries_match_the_completion_order_log() {
        use aqua_faas::QosClass;
        let (mut reg, mut jobs) = chain_jobs(4, 40);
        // Tenant 2's job arrives faster than one slot serves it, so it
        // sheds; tenant 1's job arrives only after shutdown, so its first
        // arrival is skipped in drain and it completes nothing.
        jobs[1].arrivals = (0..40).map(|i| SimTime::from_millis(20 * i + 5)).collect();
        jobs[3].arrivals = (0..40).map(|i| SimTime::from_secs(200 + i)).collect();
        // A burst of 60 arrivals 1 ms apart, each waiting out a cold start
        // and a 300 ms run: the job's first completion lands after its
        // last arrival fired, 60 slots behind its arrivals.
        let slow = reg.register(
            FunctionSpec::new("slow")
                .with_work_ms(300.0)
                .with_exec_cv(0.0)
                .with_cold_start(100.0, 0.0),
        );
        let dag = WorkflowDag::chain("burst", vec![slow]);
        let configs = StageConfigs::uniform(&dag, aqua_faas::ResourceConfig::default());
        let burst = (0..60).map(|i| SimTime::from_millis(3_000 + i)).collect();
        jobs.push(WorkflowJob::new(dag, configs, burst));
        // Tenant 0's second job runs past the shutdown at 120 s: its 300
        // arrivals before it are admitted, and those still in flight
        // complete into their slots during the drain; the one at
        // 120.39 s is skipped and re-arms no more.
        jobs[2].arrivals = (0..320)
            .map(|i| SimTime::from_millis(400 * i + 390))
            .collect();
        let plan = TenantPlan {
            classes: vec![
                QosClass::unlimited(),
                QosClass::unlimited(),
                QosClass::new(SimDuration::from_secs(30), 1, 1, 0.0),
                QosClass::unlimited(),
            ],
            job_tenants: vec![
                TenantId(0),
                TenantId(2),
                TenantId(0),
                TenantId(1),
                TenantId(3),
            ],
        };
        let mut plane = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            small_cfg(),
        )
        .with_tenants(plan);
        let rec = record(&mut plane);
        let report = plane.run();
        let events = rec.lock().unwrap().events();
        let log: Vec<(usize, f64)> = events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::TenantComplete {
                    tenant,
                    latency_secs,
                    ..
                } => Some((tenant, latency_secs)),
                _ => None,
            })
            .collect();
        let oracle = |keep: &dyn Fn(usize) -> bool| {
            let sample: Vec<f64> = log.iter().filter(|(t, _)| keep(*t)).map(|l| l.1).collect();
            LatencySummary::of(&sample)
        };
        let shed = &report.tenants[2];
        assert!(shed.admission.shed_arrivals > 0, "tenant 2 must shed");
        assert!(
            (1..40).contains(&shed.latency.count),
            "part of tenant 2 completes"
        );
        assert_eq!(report.tenants[1].latency, LatencySummary::default());
        assert_eq!(report.arrivals_skipped_in_drain, 2, "jobs 2 and 3");
        assert_eq!(report.tenants[0].latency.count, 40 + 300);
        // The burst's first completion lands after its last arrival fired.
        let first_done = events
            .iter()
            .find_map(|e| match *e {
                SimEvent::TenantComplete { at, tenant: 3, .. } => Some(at),
                _ => None,
            })
            .expect("the burst completes");
        assert!(first_done > SimTime::from_millis(3_059), "{first_done:?}");
        assert_eq!(report.tenants[3].latency.count, 60);
        let in_drain = |e: &SimEvent| {
            matches!(*e, SimEvent::TenantComplete { at, tenant: 0, .. }
                if at > SimTime::from_secs(120))
        };
        assert!(events.iter().any(in_drain), "job 2 completes in the drain");
        for (t, tenant) in report.tenants.iter().enumerate() {
            assert_eq!(tenant.latency, oracle(&|of| of == t), "tenant {t}");
        }
        assert_eq!(report.latency, oracle(&|_| true));
        assert_eq!(report.latency.count as u64, report.completed);
    }

    #[test]
    fn predictive_rejection_vetoes_doomed_arrivals() {
        use aqua_faas::QosClass;
        // One slow single-container function fed faster than it serves:
        // the queue never drains, so arrivals face real congestion (the
        // veto only consults the model while queues are non-empty).
        let mut reg = FunctionRegistry::new();
        let f = reg.register(FunctionSpec::new("slow").with_work_ms(400.0));
        let dag = WorkflowDag::chain("app0", vec![f]);
        let configs = StageConfigs::uniform(&dag, aqua_faas::ResourceConfig::default());
        let arrivals = (0..60)
            .map(|i| SimTime::from_millis(100 * (i as u64 + 1)))
            .collect();
        let jobs = vec![WorkflowJob {
            dag,
            configs,
            arrivals,
        }];
        let cfg = ServiceConfig {
            pool: crate::warm_pool::WarmPoolConfig {
                memory_budget_mb: 1024.0,
                ..Default::default()
            },
            model_sample_every: 1,
            refit_interval: SimDuration::from_secs(2),
            predictive: PredictiveConfig::enabled(u32::MAX, 0.0),
            ..small_cfg()
        };
        // An SLO far below any achievable latency: once the model fits,
        // every checked arrival is predictively rejected.
        let plan = TenantPlan {
            classes: vec![QosClass::new(SimDuration::from_micros(1), 1000, 1000, 0.0)],
            job_tenants: vec![TenantId(0)],
        };
        let mut plane = ControlPlane::new(
            reg,
            jobs,
            Box::new(aqua_pool::ReactiveAutoscale::default()),
            &FaultPlan::disabled(),
            cfg,
        )
        .with_tenants(plan);
        let rec = record(&mut plane);
        let report = plane.run();
        let s = report.admission;
        assert!(s.predictive_rejects > 0, "model must veto once fitted");
        assert_eq!(s.arrivals(), 60, "rejects balance the arrival ledger");
        assert_eq!(s.admitted, s.finished, "every admitted instance drained");
        assert_eq!(count(&rec, "predictive_reject"), s.predictive_rejects);
        assert_eq!(report.live_containers_at_exit, 0);
    }

    #[test]
    fn zero_predictive_budget_is_identical_to_default_plane() {
        let run = |predictive: PredictiveConfig| {
            let (reg, jobs) = chain_jobs(3, 20);
            ControlPlane::new(
                reg,
                jobs,
                Box::new(aqua_pool::HistogramPolicy::default()),
                &FaultPlan::disabled(),
                ServiceConfig {
                    predictive,
                    ..small_cfg()
                },
            )
            .run()
        };
        let off = run(PredictiveConfig::default());
        let zero = run(PredictiveConfig {
            checks_per_window: 0,
            k_sigma: 3.0,
        });
        assert_eq!(off.events_processed, zero.events_processed);
        assert_eq!(off.latency, zero.latency);
        assert_eq!(off.pool, zero.pool);
        assert_eq!(off.runtime, zero.runtime);
        assert_eq!(off.admission, zero.admission);
    }
}
