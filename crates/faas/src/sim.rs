//! The discrete-event FaaS simulation driver.
//!
//! [`FaasSim`] replays workflow arrival traces over a [`Cluster`], invoking
//! a pluggable [`PrewarmController`] every pool-adjustment interval (1 min,
//! the paper's container keep-alive timescale).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use aqua_sim::{EventQueue, FxHashMap, SimDuration, SimRng, SimTime};
use aqua_telemetry::{EvictionReason, FaultKind, SimEvent, Telemetry};

use crate::cluster::{Cluster, ClusterSnapshot};
use crate::fault::{FaultPlan, FaultState, RetryPolicy};
use crate::function::FunctionRegistry;
use crate::interference::NoiseModel;
use crate::metrics::{InvocationRecord, RunReport, WorkflowRecord};
use crate::types::{ContainerId, FunctionId, ResourceConfig, StageConfigs};
use crate::workflow::WorkflowDag;

/// Per-function statistics for one pool window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnWindowStats {
    /// The function observed.
    pub function: FunctionId,
    /// Invocations that became runnable during the window.
    pub invocations: u32,
    /// Peak outstanding tasks (demand, not containers) during the window.
    pub peak_concurrency: u32,
    /// Containers currently booting.
    pub booting: u32,
    /// Containers currently warm and idle.
    pub idle: u32,
    /// Containers currently busy.
    pub busy: u32,
    /// Container boots that failed during the window (injected faults).
    /// Capacity the policy ordered but never received — without this a
    /// policy counts dead containers as provisioned.
    pub failed_boots: u32,
}

/// Everything a pool policy sees at a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolObservation {
    /// Current simulated time.
    pub now: SimTime,
    /// Window length since the previous tick.
    pub window: SimDuration,
    /// Per-function stats, indexed by function id order.
    pub stats: Vec<FnWindowStats>,
    /// Cluster-level state.
    pub cluster: ClusterSnapshot,
}

/// A pool policy's instruction for one function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolDecision {
    /// Which function this applies to.
    pub function: FunctionId,
    /// Desired number of warm-idle (plus in-flight pre-warm) containers.
    /// `None` leaves the pool size to demand (keep-alive only).
    pub prewarm_target: Option<usize>,
    /// Idle containers older than this are reaped.
    pub keep_alive: SimDuration,
    /// Whether exceeding the target may kill idle containers immediately
    /// (`false` = the target is only a floor for pre-warm creation;
    /// reclamation is left to the keep-alive, as reactive autoscalers do).
    pub shrink: bool,
}

/// Lifts a policy's base pre-warm target by the boots that failed in the
/// observed window, so every policy replaces fault-killed capacity instead
/// of counting dead containers as provisioned. A `None` base stays `None`
/// when nothing failed, keeping pure keep-alive policies strict no-ops on
/// fault-free runs.
///
/// Every [`PrewarmController`] implementation in the workspace routes its
/// target through this one helper — the lift semantics are part of the
/// pool-policy contract (see `tests/pool_contract.rs`).
pub fn replacement_target(base: Option<usize>, failed_boots: u32) -> Option<usize> {
    match (base, failed_boots) {
        (None, 0) => None,
        (base, failed) => Some(base.unwrap_or(0) + failed as usize),
    }
}

/// A dynamic pre-warmed-container-pool policy.
///
/// Called once per adjustment interval with the window's observation;
/// returns one decision per function it manages. Functions without a
/// decision keep a conservative default (10-minute keep-alive, no
/// pre-warming) — the behaviour of stock FaaS platforms.
pub trait PrewarmController {
    /// Computes pool decisions for the elapsed window.
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision>;
}

/// The provider-default policy: no pre-warming, fixed keep-alive, plus
/// optional static pre-warm targets (used for profiling with guaranteed
/// warm starts, and as the paper's "fixed Keep-Alive" baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPrewarm {
    /// Keep-alive applied to every function.
    pub keep_alive: SimDuration,
    /// Static pre-warm targets (empty = none).
    pub targets: HashMap<FunctionId, usize>,
}

impl FixedPrewarm {
    /// The 10-minute fixed keep-alive of most providers.
    pub fn provider_default() -> Self {
        FixedPrewarm {
            keep_alive: SimDuration::from_secs(600),
            targets: HashMap::new(),
        }
    }
}

impl PrewarmController for FixedPrewarm {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| {
                // Boots that failed during the window are capacity this
                // policy believed it had; eagerly re-provision them (any
                // overshoot is shrunk at the next tick) instead of
                // counting dead containers toward the target.
                let base = self.targets.get(&s.function).copied();
                let prewarm_target = replacement_target(base, s.failed_boots);
                PoolDecision {
                    function: s.function,
                    prewarm_target,
                    keep_alive: self.keep_alive,
                    shrink: true,
                }
            })
            .collect()
    }
}

/// One workload: a workflow, its per-stage resources, and its arrivals.
#[derive(Debug, Clone)]
pub struct WorkflowJob {
    /// The DAG to run.
    pub dag: WorkflowDag,
    /// Per-stage resource configurations.
    pub configs: StageConfigs,
    /// Arrival times of workflow instances.
    pub arrivals: Vec<SimTime>,
}

impl WorkflowJob {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `configs` does not cover every stage.
    pub fn new(dag: WorkflowDag, configs: StageConfigs, arrivals: Vec<SimTime>) -> Self {
        assert_eq!(
            configs.len(),
            dag.num_stages(),
            "one config per stage required"
        );
        WorkflowJob {
            dag,
            configs,
            arrivals,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    BootDone {
        container: ContainerId,
    },
    /// An injected boot fault fires: the container dies instead of
    /// turning warm.
    BootFailed {
        container: ContainerId,
    },
    /// Execution attempt `seq` finishes. Keyed by a unique sequence
    /// number so crashes and timeouts can cancel the attempt by removing
    /// its metadata — the stale event is then ignored.
    ExecDone {
        seq: u64,
    },
    /// An injected crash fires on `container` unless attempt `seq`
    /// already finished.
    ContainerCrash {
        container: ContainerId,
        seq: u64,
    },
    /// Attempt `seq` hits the per-stage timeout unless already finished.
    TaskTimeout {
        seq: u64,
    },
    /// A failed attempt re-enters scheduling after its backoff.
    Retry {
        task: Task,
    },
    /// A stage dispatch delayed by an injected handoff fault, or a
    /// cross-shard dispatch delivered at a synchronization boundary.
    StageReady {
        job: usize,
        inst: usize,
        stage: usize,
    },
    /// Cross-shard notification that a stage of (job, inst) finished on
    /// its owner shard; the home shard advances the DAG bookkeeping.
    /// `finished` is the true completion time on the owner — the event
    /// itself fires at the synchronization boundary, so workflow records
    /// use `finished` to stay free of handoff quantization.
    StageDoneRemote {
        job: usize,
        inst: usize,
        stage: usize,
        finished: SimTime,
    },
    PoolTick,
}

/// A cross-shard handoff produced mid-window and exchanged at the next
/// conservative synchronization boundary. Delivery order is fully
/// deterministic: messages are collected in shard order and kept in each
/// shard's emission order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardMsg {
    /// A stage of (job, inst) became ready; its owner shard dispatches it.
    StageStart {
        to: usize,
        job: usize,
        inst: usize,
        stage: usize,
    },
    /// A stage of (job, inst) finished on its owner at `finished`; the
    /// home shard advances the instance's DAG bookkeeping.
    StageDone {
        to: usize,
        job: usize,
        inst: usize,
        stage: usize,
        finished: SimTime,
    },
}

impl ShardMsg {
    /// The shard this message is addressed to.
    pub(crate) fn to(&self) -> usize {
        match *self {
            ShardMsg::StageStart { to, .. } | ShardMsg::StageDone { to, .. } => to,
        }
    }
}

/// What the loop runs next: a workflow arrival from the cursor, or an
/// event from the heap.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Next {
    Arrival { job: usize, inst: usize },
    Event(Event),
}

/// The loop's event source: a cursor over the time-sorted arrivals merged
/// with the future-event heap, so the heap holds only what running work
/// scheduled, never the trace.
///
/// The next event is the earlier of the cursor's head and the heap's, and
/// **the arrival wins a tie**: a loop that pushed every arrival before its
/// first pop gave arrivals the lowest sequence numbers, which is the pop
/// order every golden trace was recorded under. Equal-time arrivals fire in
/// `(job, inst)` order for the same reason (the sort is stable).
#[derive(Debug)]
pub(crate) struct Agenda {
    /// `(time, job, inst)`, sorted by time.
    arrivals: Vec<(SimTime, u32, u32)>,
    /// Index of the next arrival to fire: the count fired so far.
    cursor: usize,
    queue: EventQueue<Event>,
}

impl Agenda {
    /// An agenda over `arrivals`, given in `(job, inst)` order.
    fn new(mut arrivals: Vec<(SimTime, u32, u32)>) -> Self {
        arrivals.sort_by_key(|&(at, _, _)| at);
        Agenda {
            arrivals,
            cursor: 0,
            queue: EventQueue::new(),
        }
    }

    /// Time of the next event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        let arrival = self.arrivals.get(self.cursor).map(|a| a.0);
        match (arrival, self.queue.peek_time()) {
            (Some(a), Some(q)) => Some(a.min(q)),
            (a, q) => a.or(q),
        }
    }

    /// Takes the next event, advancing the clock that clamps past pushes.
    fn pop(&mut self) -> Option<(SimTime, Next)> {
        if let Some(&(at, job, inst)) = self.arrivals.get(self.cursor) {
            if self.queue.peek_time().is_none_or(|queued| at <= queued) {
                self.cursor += 1;
                self.queue.advance_to(at);
                let (job, inst) = (job as usize, inst as usize);
                return Some((at, Next::Arrival { job, inst }));
            }
        }
        let (at, event) = self.queue.pop()?;
        Some((at, Next::Event(event)))
    }

    /// Schedules `event` at `at` (clamped to the clock, like
    /// [`EventQueue::push`]).
    pub(crate) fn push(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, event);
    }

    /// Arrivals fired so far.
    pub(crate) fn arrivals_fired(&self) -> usize {
        self.cursor
    }
}

/// Interval between pool-controller ticks.
pub(crate) const POOL_TICK: SimDuration = SimDuration::from_secs(60);

/// Slot-table mark: the instance has not been touched yet.
const UNSEEN: u32 = u32::MAX;
/// Slot-table mark: the instance completed and its slot was handed back.
const DONE: u32 = u32::MAX - 1;

/// Live bookkeeping of one workflow instance, held in the slab from the
/// instance's first touch until (in the sequential loop) its workflow
/// record is written.
#[derive(Debug, Clone, Default)]
struct InstanceState {
    /// Unsatisfied dependency count per stage.
    deps_left: Vec<usize>,
    /// Tasks still running per stage.
    tasks_left: Vec<u32>,
    stages_left: usize,
    cold_starts: u32,
    invocations: u32,
    /// A task exhausted its retries; the instance can never finish.
    rejected: bool,
}

impl InstanceState {
    /// Re-initialises a fresh or recycled entry for an instance of `dag`,
    /// reusing the stage buffers.
    fn reset(&mut self, dag: &WorkflowDag) {
        self.deps_left.clear();
        self.deps_left.extend(dag.stages().map(|s| s.deps.len()));
        self.tasks_left.clear();
        self.tasks_left.extend(dag.stages().map(|s| s.tasks));
        self.stages_left = dag.num_stages();
        self.cold_starts = 0;
        self.invocations = 0;
        self.rejected = false;
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    job: usize,
    inst: usize,
    stage: usize,
    requested: SimTime,
    /// Execution attempt, 0 for the first try.
    attempt: u32,
}

/// The work riding on one container: tasks waiting for its boot, then the
/// attempts executing on it (for crash cancellation). An entry exists only
/// while one of the two is non-empty, so the table never outlives the
/// containers the cluster kills on its own (those are idle: no work).
#[derive(Debug, Default)]
struct ContainerWork {
    attached: Vec<Task>,
    running: Vec<u64>,
}

/// Metadata of one in-flight execution attempt, keyed by its `seq`.
#[derive(Debug, Clone, Copy)]
struct ExecInfo {
    container: ContainerId,
    task: Task,
    /// Index of the attempt's [`InvocationRecord`] in the report, so a
    /// cancellation can truncate the billed window.
    record: usize,
}

/// Builder for [`FaasSim`].
#[derive(Debug, Clone)]
pub struct FaasSimBuilder {
    pub(crate) workers: usize,
    pub(crate) cpu_per_worker: f64,
    pub(crate) memory_mb_per_worker: f64,
    pub(crate) registry: FunctionRegistry,
    pub(crate) noise: NoiseModel,
    pub(crate) seed: u64,
    pub(crate) telemetry: Telemetry,
    pub(crate) faults: FaultPlan,
    pub(crate) retry: RetryPolicy,
    pub(crate) shards: usize,
}

impl Default for FaasSimBuilder {
    fn default() -> Self {
        FaasSimBuilder {
            workers: 6,
            cpu_per_worker: 40.0,
            memory_mb_per_worker: 128.0 * 1024.0,
            registry: FunctionRegistry::new(),
            noise: NoiseModel::production(),
            seed: 42,
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            shards: 1,
        }
    }
}

impl FaasSimBuilder {
    /// Sets cluster shape: `n` workers with `cpu` cores and `memory_mb` each.
    pub fn workers(mut self, n: usize, cpu: f64, memory_mb: u64) -> Self {
        self.workers = n;
        self.cpu_per_worker = cpu;
        self.memory_mb_per_worker = memory_mb as f64;
        self
    }

    /// Installs the function registry.
    pub fn registry(mut self, registry: FunctionRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the environment noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Seeds all stochastic components.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes scheduling events to `telemetry` (default: the null sink).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Installs a fault-injection plan (default: disabled). Each run
    /// builds fresh fault streams from the plan, so repeated runs replay
    /// identical fault sequences.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Overrides the retry/timeout policy that absorbs injected faults.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Splits the run into `n` parallel per-invoker-group event loops
    /// (default 1 = the sequential reference loop). Each shard owns a
    /// contiguous slice of workers plus the functions with `id % n ==
    /// shard`; cross-shard stage handoffs are exchanged at conservative
    /// synchronization windows. `n = 1` is bit-identical to the sequential
    /// simulator; each `n >= 2` is its own deterministic model whose output
    /// is independent of `AQUA_THREADS`. See `docs/DESIGN.md`.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        self.shards = n;
        self
    }

    /// Builds the simulator.
    pub fn build(self) -> FaasSim {
        FaasSim { params: self }
    }
}

/// The simulator. Each [`FaasSim::run`] starts from a fresh cluster, so one
/// instance can profile many configurations back to back.
#[derive(Debug, Clone)]
pub struct FaasSim {
    params: FaasSimBuilder,
}

impl FaasSim {
    /// Starts a builder.
    pub fn builder() -> FaasSimBuilder {
        FaasSimBuilder::default()
    }

    /// Replaces the telemetry sink for subsequent runs.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.params.telemetry = telemetry;
    }

    /// The registry this simulator was built with.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.params.registry
    }

    /// Runs a single-workflow trace under the provider-default pool policy.
    pub fn run_workflow_trace(
        &mut self,
        dag: &WorkflowDag,
        configs: &StageConfigs,
        arrivals: &[SimTime],
        horizon: SimTime,
    ) -> RunReport {
        let job = WorkflowJob::new(dag.clone(), configs.clone(), arrivals.to_vec());
        let mut controller = FixedPrewarm::provider_default();
        self.run(&[job], &mut controller, horizon)
    }

    /// Profiles one resource configuration: runs `samples` sequential
    /// workflow invocations with all containers pre-warmed (the paper's
    /// batch-evaluation path sends requests via the pre-warmed pool so
    /// samples observe warm-start behaviour), returning per-sample
    /// `(end-to-end latency seconds, execution cost)`.
    ///
    /// `price_cpu`/`price_mem` follow the linear §5.1 cost model.
    pub fn profile_config(
        &mut self,
        dag: &WorkflowDag,
        configs: &StageConfigs,
        samples: usize,
        warm: bool,
        price_cpu: f64,
        price_mem: f64,
    ) -> Vec<(f64, f64)> {
        assert!(samples > 0, "need at least one sample");
        // First arrival lands well after the first pool tick (60 s) so the
        // pinned pre-warm targets are already booted and warm. Each sample
        // window launches a PAIR of instances 8 s apart: production traffic
        // arrives in bursts, and a configuration must hold its latency under
        // mild concurrency, not just in isolation.
        let spacing = SimDuration::from_secs(120);
        let burst = 2u64;
        let mut arrivals: Vec<SimTime> = Vec::with_capacity(samples * burst as usize);
        for i in 0..samples {
            let base = SimTime::from_secs(150) + spacing * i as u64;
            for b in 0..burst {
                arrivals.push(base + SimDuration::from_secs(8 * b));
            }
        }
        let horizon = *arrivals.last().expect("non-empty") + spacing * 4;
        let job = WorkflowJob::new(dag.clone(), configs.clone(), arrivals);

        let mut targets = HashMap::new();
        if warm {
            for (si, stage) in dag.stages().enumerate() {
                let entry = targets.entry(stage.function).or_insert(0usize);
                // Enough warm capacity for the stage's fan-out at the
                // profiled burst width.
                let slots = configs.stage(si).concurrency.max(1);
                *entry += (stage.tasks as usize * burst as usize).div_ceil(slots as usize);
            }
        }
        let mut controller = FixedPrewarm {
            keep_alive: SimDuration::from_secs(1_000_000),
            targets,
        };
        let report = self.run(std::slice::from_ref(&job), &mut controller, horizon);

        let mut out = Vec::with_capacity(samples * burst as usize);
        for wf in &report.workflows {
            let cost: f64 = report
                .invocations
                .iter()
                .filter(|r| r.workflow_instance == wf.instance)
                .map(|r| r.cpu_seconds * price_cpu + r.memory_gb_seconds * price_mem)
                .sum();
            out.push((wf.latency().as_secs_f64(), cost));
        }
        // Instances that never finished within the horizon are censored:
        // report the elapsed time as a (large) lower bound on latency plus
        // the cost accrued so far, so searchers see the region is terrible
        // instead of silently dropping the sample.
        let finished: std::collections::HashSet<usize> =
            report.workflows.iter().map(|w| w.instance).collect();
        for (i, &arrival) in job.arrivals.iter().enumerate() {
            if finished.contains(&i) {
                continue;
            }
            let censored = horizon.saturating_since(arrival).as_secs_f64();
            // Bill each attempt only up to the horizon: an execution still
            // in flight when the run was cut off contributes the cost it
            // accrued so far, not its full planned window — otherwise a
            // censored sample double-penalizes long configurations with
            // resource time that was never simulated.
            let cost: f64 = report
                .invocations
                .iter()
                .filter(|r| r.workflow_instance == i)
                .map(|r| {
                    let planned = r.finished.saturating_since(r.started).as_secs_f64();
                    let billed = r
                        .finished
                        .min(horizon)
                        .saturating_since(r.started)
                        .as_secs_f64();
                    let frac = if planned > 0.0 { billed / planned } else { 1.0 };
                    (r.cpu_seconds * price_cpu + r.memory_gb_seconds * price_mem) * frac
                })
                .sum();
            out.push((censored, cost.max(censored)));
        }
        out
    }

    /// Like [`FaasSim::profile_config`] but returns, per completed sample,
    /// `(latency s, CPU core·s, memory GB·s)` — the split Fig. 13 reports.
    pub fn profile_detail(
        &mut self,
        dag: &WorkflowDag,
        configs: &StageConfigs,
        samples: usize,
        warm: bool,
    ) -> Vec<(f64, f64, f64)> {
        assert!(samples > 0, "need at least one sample");
        let spacing = SimDuration::from_secs(120);
        let arrivals: Vec<SimTime> = (0..samples)
            .map(|i| SimTime::from_secs(150) + spacing * i as u64)
            .collect();
        let horizon = *arrivals.last().expect("non-empty") + spacing * 4;
        let job = WorkflowJob::new(dag.clone(), configs.clone(), arrivals);
        let mut targets = HashMap::new();
        if warm {
            for (si, stage) in dag.stages().enumerate() {
                let entry = targets.entry(stage.function).or_insert(0usize);
                let slots = configs.stage(si).concurrency.max(1);
                *entry += (stage.tasks as usize).div_ceil(slots as usize);
            }
        }
        let mut controller = FixedPrewarm {
            keep_alive: SimDuration::from_secs(1_000_000),
            targets,
        };
        let report = self.run(std::slice::from_ref(&job), &mut controller, horizon);
        report
            .workflows
            .iter()
            .map(|wf| {
                let (cpu, mem) = report
                    .invocations
                    .iter()
                    .filter(|r| r.workflow_instance == wf.instance)
                    .fold((0.0, 0.0), |acc, r| {
                        (acc.0 + r.cpu_seconds, acc.1 + r.memory_gb_seconds)
                    });
                (wf.latency().as_secs_f64(), cpu, mem)
            })
            .collect()
    }

    /// Runs a full workload mix under `controller` until `horizon`.
    pub fn run(
        &mut self,
        jobs: &[WorkflowJob],
        controller: &mut dyn PrewarmController,
        horizon: SimTime,
    ) -> RunReport {
        if self.params.shards > 1 {
            return crate::shard::run_sharded(&self.params, jobs, controller, horizon);
        }
        let state = RunState::new(&self.params, jobs);
        state.execute(controller, horizon)
    }
}

/// All mutable state of one simulation run — or, in sharded runs, of one
/// shard's slice of the run.
pub(crate) struct RunState<'a> {
    params: &'a FaasSimBuilder,
    jobs: &'a [WorkflowJob],
    pub(crate) cluster: Cluster,
    rng: SimRng,
    pub(crate) agenda: Agenda,
    /// Slab index of each workflow instance's live state, dense over
    /// global instance ids ([`UNSEEN`] before the first touch, [`DONE`]
    /// once the slot was handed back).
    slot_of: Vec<u32>,
    /// Live instance states. The sequential loop hands a slot back when
    /// the workflow record is written, so the slab is as long as the peak
    /// number of instances in flight; sharded states keep every entry for
    /// the driver's end-of-run fold.
    slab: Vec<InstanceState>,
    /// Handed-back slab slots, reused before the slab grows.
    free_slots: Vec<u32>,
    /// Tasks waiting for cluster capacity.
    pending: VecDeque<Task>,
    /// Per-container work, for containers that have any.
    work: FxHashMap<ContainerId, ContainerWork>,
    /// Current resource config per function id, dense over function ids
    /// (`None` = no workload uses the id).
    config_of: Vec<Option<ResourceConfig>>,
    /// Per-function invocation count in the current window (dense).
    window_invocations: Vec<u32>,
    /// Per-function peak *demand* concurrency in the current window:
    /// tasks outstanding (runnable or executing), independent of how many
    /// containers actually served them — the signal pool policies must
    /// see, otherwise under-provisioning suppresses its own evidence.
    /// Sampled only when a task starts, and reset to 0 at every tick, so
    /// a window in which no new task of a function starts reports 0 even
    /// while carried-over tasks still run. (The live plane's
    /// `LivePoolSignal` restarts the peak at the carried-over in-flight
    /// level instead.) Dense over function ids.
    window_peak: Vec<u32>,
    /// Currently outstanding tasks per function (dense over function ids).
    demand_now: Vec<i64>,
    /// Live fault-draw streams for this run.
    faults: FaultState,
    /// In-flight execution attempts by sequence number.
    exec_meta: FxHashMap<u64, ExecInfo>,
    /// Next execution-attempt sequence number.
    next_seq: u64,
    /// Per-function failed-boot count in the current window (dense).
    window_boot_failures: Vec<u32>,
    /// This state's event sink: the run's own telemetry for the sequential
    /// loop, or a per-shard recorder merged by the sharded driver.
    telemetry: Telemetry,
    /// This state's shard index (0 for the sequential loop).
    pub(crate) shard: usize,
    /// Total shard count (1 for the sequential loop).
    pub(crate) num_shards: usize,
    /// Home shard per job: the shard owning the first root stage's
    /// function, where the job's DAG bookkeeping lives.
    home: Vec<usize>,
    /// Prefix sums of per-job arrival counts: `inst_base[job] + inst` is
    /// the global workflow-instance index (O(1) on the per-invocation
    /// hot path instead of an O(jobs) rescan).
    inst_base: Vec<usize>,
    /// Cross-shard messages produced since the last synchronization window.
    pub(crate) outbox: Vec<ShardMsg>,
    pub(crate) report: RunReport,
}

impl<'a> RunState<'a> {
    fn new(params: &'a FaasSimBuilder, jobs: &'a [WorkflowJob]) -> Self {
        RunState::new_shard(params, jobs, 0, 1, params.telemetry.clone())
    }

    /// Builds the state for `shard` of `num_shards`. With `num_shards == 1`
    /// this is exactly the sequential simulator: full cluster, the legacy
    /// RNG and fault streams, and a self-scheduled pool tick. With more
    /// shards, the shard gets a contiguous worker slice, container ids
    /// minted at `shard + k * num_shards`, RNG/fault streams forked by
    /// shard id, and only the arrivals of jobs homed on it; pool ticks are
    /// driven externally by [`crate::shard::run_sharded`].
    ///
    /// Nothing here is built per arrival except the sorted arrival index
    /// and the instance slot table: instance state is created on first
    /// touch and the heap starts empty.
    pub(crate) fn new_shard(
        params: &'a FaasSimBuilder,
        jobs: &'a [WorkflowJob],
        shard: usize,
        num_shards: usize,
        telemetry: Telemetry,
    ) -> Self {
        let sharded = num_shards > 1;
        let (worker_count, worker_base) = if sharded {
            let w = params.workers;
            let base = (w / num_shards) * shard + shard.min(w % num_shards);
            let count = w / num_shards + usize::from(shard < w % num_shards);
            (count, base)
        } else {
            (params.workers, 0)
        };
        let mut cluster = if sharded {
            Cluster::new_partition(
                worker_count,
                params.cpu_per_worker,
                params.memory_mb_per_worker,
                worker_base,
                shard as u64,
                num_shards as u64,
            )
        } else {
            Cluster::new(
                params.workers,
                params.cpu_per_worker,
                params.memory_mb_per_worker,
            )
        };
        cluster.set_telemetry(telemetry.clone());

        // Dense per-function tables sized to cover every id in play.
        let mut nfn = params.registry.len();
        for job in jobs {
            for stage in job.dag.stages() {
                nfn = nfn.max(stage.function.0 + 1);
            }
        }
        let mut config_of: Vec<Option<ResourceConfig>> = vec![None; nfn];
        for job in jobs {
            for (si, stage) in job.dag.stages().enumerate() {
                config_of[stage.function.0] = Some(job.configs.stage(si));
            }
        }

        let home: Vec<usize> = jobs
            .iter()
            .map(|j| j.dag.stage(j.dag.roots()[0]).function.0 % num_shards)
            .collect();

        let inst_base: Vec<usize> = jobs
            .iter()
            .scan(0usize, |base, j| {
                let b = *base;
                *base += j.arrivals.len();
                Some(b)
            })
            .collect();

        let total_instances: usize = jobs.iter().map(|j| j.arrivals.len()).sum();
        assert!(
            total_instances < DONE as usize,
            "instance slots are u32: {total_instances} arrivals"
        );
        let mut arrivals = Vec::new();
        for (ji, job) in jobs.iter().enumerate().filter(|(ji, _)| home[*ji] == shard) {
            let times = job.arrivals.iter().enumerate();
            arrivals.extend(times.map(|(ii, &at)| (at, ji as u32, ii as u32)));
        }
        let mut agenda = Agenda::new(arrivals);
        if !sharded {
            agenda.push(SimTime::ZERO + POOL_TICK, Event::PoolTick);
        }
        let (rng, faults) = if sharded {
            (
                SimRng::seed(params.seed).fork(&format!("shard-{shard}")),
                FaultState::for_shard(&params.faults, shard),
            )
        } else {
            (SimRng::seed(params.seed), FaultState::new(&params.faults))
        };
        RunState {
            params,
            jobs,
            cluster,
            rng,
            agenda,
            slot_of: vec![UNSEEN; total_instances],
            slab: Vec::new(),
            free_slots: Vec::new(),
            pending: VecDeque::new(),
            work: FxHashMap::default(),
            config_of,
            window_invocations: vec![0; nfn],
            window_peak: vec![0; nfn],
            demand_now: vec![0; nfn],
            faults,
            exec_meta: FxHashMap::default(),
            next_seq: 0,
            window_boot_failures: vec![0; nfn],
            telemetry,
            shard,
            num_shards,
            home,
            inst_base,
            outbox: Vec::new(),
            report: RunReport::default(),
        }
    }

    fn execute(mut self, controller: &mut dyn PrewarmController, horizon: SimTime) -> RunReport {
        while self.agenda.next_time().is_some_and(|t| t <= horizon) {
            self.step(Some(&mut *controller), horizon);
        }
        self.cluster.finalize(horizon);
        self.report.cpu_core_seconds = self.cluster.cpu_core_seconds();
        self.report.memory_gb_seconds = self.cluster.memory_gb_seconds();
        self.report.busy_memory_gb_seconds = self.cluster.busy_memory_gb_seconds();
        // Every arrival within the horizon has fired, and each either wrote
        // its workflow record or is still in flight (`rejected` counts as it
        // happens, in `retry_or_reject`).
        self.report.unfinished = self.agenda.arrivals_fired() - self.report.workflows.len();
        self.telemetry.flush();
        self.report
    }

    /// Runs every event strictly before `bound` (and within the horizon).
    /// Used by the sharded driver, which runs pool ticks itself between
    /// windows.
    pub(crate) fn advance_until(&mut self, bound: SimTime, horizon: SimTime) {
        while self
            .agenda
            .next_time()
            .is_some_and(|t| t < bound && t <= horizon)
        {
            self.step(None, horizon);
        }
    }

    /// Runs the next event; the caller has checked that there is one inside
    /// its stop condition. `controller` is absent on shard-driven states,
    /// whose agenda never holds a pool tick.
    fn step(&mut self, controller: Option<&mut dyn PrewarmController>, horizon: SimTime) {
        let (now, next) = self.agenda.pop().expect("step needs a pending event");
        self.report.events_processed += 1;
        match next {
            Next::Arrival { job, inst } => self.on_arrival(job, inst, now),
            Next::Event(event) => match event {
                Event::BootDone { container } => self.on_boot_done(container, now),
                Event::BootFailed { container } => self.on_boot_failed(container, now),
                Event::ExecDone { seq } => self.on_exec_done(seq, now),
                Event::ContainerCrash { container, seq } => {
                    self.on_container_crash(container, seq, now)
                }
                Event::TaskTimeout { seq } => self.on_task_timeout(seq, now),
                Event::Retry { task } => self.start_task(task, now),
                Event::StageReady { job, inst, stage } => {
                    self.dispatch_stage(job, inst, stage, now)
                }
                Event::StageDoneRemote {
                    job,
                    inst,
                    stage,
                    finished,
                } => self.home_stage_complete(job, inst, stage, finished, now),
                Event::PoolTick => {
                    let controller = controller.expect("pool ticks are driver-run when sharded");
                    self.on_pool_tick(controller, now, horizon)
                }
            },
        }
        self.drain_pending(now);
    }

    /// Enqueues a cross-shard message on this (receiving) shard at the
    /// synchronization boundary `bound`. The receiver's clock is strictly
    /// below `bound`, so the push is never clamped.
    pub(crate) fn deliver(&mut self, msg: ShardMsg, bound: SimTime) {
        match msg {
            ShardMsg::StageStart {
                job, inst, stage, ..
            } => {
                self.agenda
                    .push(bound, Event::StageReady { job, inst, stage });
            }
            ShardMsg::StageDone {
                job,
                inst,
                stage,
                finished,
                ..
            } => {
                self.agenda.push(
                    bound,
                    Event::StageDoneRemote {
                        job,
                        inst,
                        stage,
                        finished,
                    },
                );
            }
        }
    }

    fn on_arrival(&mut self, job: usize, inst: usize, now: SimTime) {
        let jobs = self.jobs;
        for &stage in jobs[job].dag.roots() {
            self.dispatch_stage(job, inst, stage, now);
        }
    }

    /// Routes a ready stage to the shard owning its function: dispatched
    /// locally, or sent through the outbox for delivery at the next
    /// synchronization boundary.
    fn dispatch_stage(&mut self, job: usize, inst: usize, stage: usize, now: SimTime) {
        let to = self.jobs[job].dag.stage(stage).function.0 % self.num_shards;
        if to == self.shard {
            self.start_stage(job, inst, stage, now);
        } else {
            self.outbox.push(ShardMsg::StageStart {
                to,
                job,
                inst,
                stage,
            });
        }
    }

    fn start_stage(&mut self, job: usize, inst: usize, stage: usize, now: SimTime) {
        let tasks = self.jobs[job].dag.stage(stage).tasks;
        self.telemetry.emit_with(|| SimEvent::StageDispatch {
            at: now,
            workflow: job,
            instance: inst,
            stage,
            function: self.jobs[job].dag.stage(stage).function.0,
            tasks,
        });
        for _ in 0..tasks {
            self.start_task(
                Task {
                    job,
                    inst,
                    stage,
                    requested: now,
                    attempt: 0,
                },
                now,
            );
        }
    }

    fn start_task(&mut self, task: Task, now: SimTime) {
        let dag = &self.jobs[task.job].dag;
        let function = dag.stage(task.stage).function;
        let config = self.jobs[task.job].configs.stage(task.stage);
        self.window_invocations[function.0] += 1;
        self.instance(task.job, task.inst).invocations += 1;
        self.demand_now[function.0] += 1;
        let demand = self.demand_now[function.0];
        self.window_peak[function.0] = self.window_peak[function.0].max(demand.max(0) as u32);

        // 1. Warm container with a free slot → immediate warm start.
        if let Some(cid) = self.cluster.find_warm(function, &config) {
            self.begin_exec(cid, task, now, false);
            return;
        }
        // 2. In-flight booting container with unclaimed capacity → wait for it.
        if let Some(cid) = self.cluster.find_booting(function, &config) {
            self.attach(cid, task);
            return;
        }
        // 3. Boot a dedicated container.
        let spec = self.params.registry.spec(function);
        let boot = spec.sample_cold_start(&config, &self.params.noise, &mut self.rng);
        let cid = match self
            .cluster
            .boot_container(function, config, now, boot, false)
        {
            Some(cid) => Some(cid),
            None => {
                // Try LRU eviction, then retry once.
                if self.cluster.evict_for(config.memory_mb, now) {
                    self.cluster
                        .boot_container(function, config, now, boot, false)
                } else {
                    None
                }
            }
        };
        match cid {
            Some(cid) => {
                self.schedule_boot_outcome(cid, now + boot);
                self.attach(cid, task);
            }
            None => {
                // No capacity anywhere: queue until something frees up.
                self.telemetry.emit_with(|| SimEvent::StageQueued {
                    at: now,
                    workflow: task.job,
                    instance: task.inst,
                    stage: task.stage,
                    function: function.0,
                });
                self.pending.push_back(task);
            }
        }
    }

    /// Parks `task` on the booting container `cid`: it claims one of the
    /// container's future slots and pays the boot as its cold start.
    fn attach(&mut self, cid: ContainerId, task: Task) {
        self.cluster.claim(cid);
        self.work.entry(cid).or_default().attached.push(task);
        self.instance(task.job, task.inst).cold_starts += 1;
    }

    /// Forgets that attempt `seq` runs on `cid` (it finished or timed out).
    fn detach_running(&mut self, cid: ContainerId, seq: u64) {
        if let Entry::Occupied(mut work) = self.work.entry(cid) {
            work.get_mut().running.retain(|s| *s != seq);
            if work.get().running.is_empty() {
                work.remove();
            }
        }
    }

    fn begin_exec(&mut self, cid: ContainerId, task: Task, now: SimTime, cold: bool) {
        let function = self.jobs[task.job].dag.stage(task.stage).function;
        let config = self.jobs[task.job].configs.stage(task.stage);
        let spec = self.params.registry.spec(function);
        if !cold {
            // Cold tasks were charged at boot completion; only warm reuse
            // is a warm hit.
            self.telemetry.emit_with(|| SimEvent::WarmHit {
                at: now,
                function: function.0,
                container: cid.0,
            });
        }
        self.cluster.assign(cid, now);

        let mut exec = spec.sample_exec(&config, &self.params.noise, &mut self.rng);
        // Straggler fault: stretch this attempt's execution time. The
        // draw comes from the dedicated straggler stream, so the main
        // noise stream — and with it every fault-free run — is untouched.
        if let Some(factor) = self.faults.next_straggler() {
            exec = SimDuration::from_secs_f64(exec.as_secs_f64() * factor);
            self.telemetry.emit_with(|| SimEvent::FaultInjected {
                at: now,
                kind_of: FaultKind::Straggler,
                function: function.0,
                container: Some(cid.0),
                magnitude: factor,
            });
        }
        let finish = now + exec;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.agenda.push(finish, Event::ExecDone { seq });
        // Crash fault: the container dies partway through this attempt,
        // taking every invocation running on it down with it.
        if let Some(frac) = self.faults.next_crash() {
            let crash_at = now + SimDuration::from_secs_f64(exec.as_secs_f64() * frac);
            self.agenda.push(
                crash_at,
                Event::ContainerCrash {
                    container: cid,
                    seq,
                },
            );
        }
        if let Some(timeout) = self.params.retry.task_timeout {
            if timeout < exec {
                self.agenda.push(now + timeout, Event::TaskTimeout { seq });
            }
        }
        let secs = exec.as_secs_f64();
        let record = self.report.invocations.len();
        self.report.invocations.push(InvocationRecord {
            function,
            workflow_instance: self.global_instance(task.job, task.inst),
            stage: task.stage,
            requested: task.requested,
            started: now,
            finished: finish,
            cold,
            cpu_seconds: config.cpu_per_slot() * secs,
            memory_gb_seconds: config.memory_per_slot() / 1024.0 * secs,
        });
        self.exec_meta.insert(
            seq,
            ExecInfo {
                container: cid,
                task,
                record,
            },
        );
        self.work.entry(cid).or_default().running.push(seq);
    }

    /// Truncates a cancelled attempt's billed window at `now`: the crash
    /// or timeout ends both the latency and the resource consumption.
    fn truncate_record(&mut self, record: usize, now: SimTime) {
        let r = &mut self.report.invocations[record];
        let planned = r.finished.saturating_since(r.started).as_secs_f64();
        let actual = now.saturating_since(r.started).as_secs_f64();
        if planned > 0.0 {
            let scale = actual / planned;
            r.cpu_seconds *= scale;
            r.memory_gb_seconds *= scale;
        }
        r.finished = now;
    }

    /// Reschedules a failed attempt with exponential backoff, or marks
    /// the instance rejected once retries are exhausted.
    fn retry_or_reject(&mut self, task: Task, now: SimTime) {
        let attempt = task.attempt + 1;
        if attempt <= self.params.retry.max_retries {
            let function = self.jobs[task.job].dag.stage(task.stage).function;
            self.telemetry.emit_with(|| SimEvent::InvocationRetried {
                at: now,
                workflow: task.job,
                instance: task.inst,
                stage: task.stage,
                function: function.0,
                attempt,
            });
            let task = Task { attempt, ..task };
            self.agenda.push(
                now + self.params.retry.backoff_for(attempt),
                Event::Retry { task },
            );
        } else {
            let newly = !std::mem::replace(&mut self.instance(task.job, task.inst).rejected, true);
            self.report.rejected += usize::from(newly);
        }
    }

    fn global_instance(&self, job: usize, inst: usize) -> usize {
        self.inst_base[job] + inst
    }

    /// The live state of instance (job, inst), created on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the instance already completed and handed its slot back:
    /// nothing may reference a workflow after its record is written.
    fn instance(&mut self, job: usize, inst: usize) -> &mut InstanceState {
        let global = self.global_instance(job, inst);
        let slot = match self.slot_of[global] {
            UNSEEN => {
                let slot = self.free_slots.pop().unwrap_or_else(|| {
                    self.slab.push(InstanceState::default());
                    (self.slab.len() - 1) as u32
                });
                self.slab[slot as usize].reset(&self.jobs[job].dag);
                self.slot_of[global] = slot;
                slot
            }
            DONE => panic!("workflow instance {global} touched after it completed"),
            slot => slot,
        };
        &mut self.slab[slot as usize]
    }

    /// Folds this shard's per-instance counters into dense global-instance
    /// vectors `(cold_starts, invocations, rejected)`. Shard-local by
    /// construction — the sharded driver sums the per-shard folds after
    /// the final barrier.
    pub(crate) fn instance_fold(&self) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
        let total = self.slot_of.len();
        let mut cold = vec![0u32; total];
        let mut invs = vec![0u32; total];
        let mut rejected = vec![false; total];
        for (global, &slot) in self.slot_of.iter().enumerate() {
            // The `UNSEEN` / `DONE` marks index past any slab.
            if let Some(is) = self.slab.get(slot as usize) {
                cold[global] = is.cold_starts;
                invs[global] = is.invocations;
                rejected[global] = is.rejected;
            }
        }
        (cold, invs, rejected)
    }

    /// An injected boot fault fires: the container dies at the moment it
    /// would have turned warm, and every task waiting on it is retried.
    fn on_boot_failed(&mut self, cid: ContainerId, now: SimTime) {
        let function = match self.cluster.container(cid) {
            Some(c) => c.function,
            None => return,
        };
        self.telemetry.emit_with(|| SimEvent::FaultInjected {
            at: now,
            kind_of: FaultKind::BootFail,
            function: function.0,
            container: Some(cid.0),
            magnitude: 0.0,
        });
        self.cluster.kill(cid, now, EvictionReason::Fault);
        self.window_boot_failures[function.0] += 1;
        let work = self.work.remove(&cid).unwrap_or_default();
        for task in work.attached {
            // The waiting task is no longer outstanding until its retry
            // re-enters scheduling.
            self.demand_now[function.0] -= 1;
            self.retry_or_reject(task, now);
        }
    }

    /// An injected crash fires: unless the triggering attempt already
    /// finished, the container dies and all attempts running on it are
    /// cancelled and retried.
    fn on_container_crash(&mut self, cid: ContainerId, seq: u64, now: SimTime) {
        if !self.exec_meta.contains_key(&seq) {
            return; // attempt finished (or was cancelled) before the crash
        }
        let function = match self.cluster.container(cid) {
            Some(c) => c.function,
            None => return,
        };
        self.telemetry.emit_with(|| SimEvent::FaultInjected {
            at: now,
            kind_of: FaultKind::Crash,
            function: function.0,
            container: Some(cid.0),
            magnitude: 0.0,
        });
        let work = self.work.remove(&cid).unwrap_or_default();
        self.cluster.kill_faulted(cid, now);
        for s in work.running {
            let Some(info) = self.exec_meta.remove(&s) else {
                continue;
            };
            let f = self.jobs[info.task.job].dag.stage(info.task.stage).function;
            self.demand_now[f.0] -= 1;
            self.truncate_record(info.record, now);
            self.retry_or_reject(info.task, now);
        }
    }

    /// The per-stage timeout fires: unless the attempt already finished,
    /// cancel it, free its slot, and retry.
    fn on_task_timeout(&mut self, seq: u64, now: SimTime) {
        let Some(info) = self.exec_meta.remove(&seq) else {
            return; // attempt finished before the timeout
        };
        let cid = info.container;
        self.detach_running(cid, seq);
        self.cluster.release(cid, now);
        let task = info.task;
        let function = self.jobs[task.job].dag.stage(task.stage).function;
        self.demand_now[function.0] -= 1;
        self.truncate_record(info.record, now);
        self.telemetry.emit_with(|| SimEvent::InvocationTimedOut {
            at: now,
            workflow: task.job,
            instance: task.inst,
            stage: task.stage,
            function: function.0,
            container: cid.0,
        });
        self.retry_or_reject(task, now);
    }

    /// Schedules a boot's outcome: normally `BootDone` at `ready`, but a
    /// boot-fail fault turns it into `BootFailed` at the same instant —
    /// the boot hangs until its deadline and then dies.
    fn schedule_boot_outcome(&mut self, cid: ContainerId, ready: SimTime) {
        if self.faults.next_boot_fail() {
            self.agenda
                .push(ready, Event::BootFailed { container: cid });
        } else {
            self.agenda.push(ready, Event::BootDone { container: cid });
        }
    }

    fn on_boot_done(&mut self, cid: ContainerId, now: SimTime) {
        let (function, worker) = match self.cluster.container(cid) {
            Some(c) => (c.function, c.worker),
            None => return, // reaped while booting cannot happen, but stay safe
        };
        self.cluster.boot_complete(cid, now);
        let tasks = match self.work.get_mut(&cid) {
            Some(work) => std::mem::take(&mut work.attached),
            None => Vec::new(), // a pre-warm nobody waited for
        };
        self.telemetry.emit_with(|| SimEvent::ColdStartEnd {
            at: now,
            function: function.0,
            container: cid.0,
            worker: worker.0,
            tasks_attached: tasks.len() as u32,
        });
        for task in tasks {
            // Attached tasks experienced the boot as their cold start.
            self.begin_exec(cid, task, now, true);
        }
    }

    fn on_exec_done(&mut self, seq: u64, now: SimTime) {
        let Some(info) = self.exec_meta.remove(&seq) else {
            return; // attempt was cancelled by a crash or timeout
        };
        let cid = info.container;
        self.detach_running(cid, seq);
        let Task {
            job, inst, stage, ..
        } = info.task;
        self.cluster.release(cid, now);
        let function = self.jobs[job].dag.stage(stage).function;
        self.demand_now[function.0] -= 1;
        self.telemetry.emit_with(|| SimEvent::TaskComplete {
            at: now,
            workflow: job,
            instance: inst,
            stage,
            container: cid.0,
        });
        let tasks_left = &mut self.instance(job, inst).tasks_left[stage];
        *tasks_left -= 1;
        if *tasks_left > 0 {
            return;
        }
        // Stage complete.
        self.telemetry.emit_with(|| SimEvent::StageComplete {
            at: now,
            workflow: job,
            instance: inst,
            stage,
        });
        if self.home[job] == self.shard {
            self.home_stage_complete(job, inst, stage, now, now);
        } else {
            // The instance's DAG bookkeeping lives on its home shard.
            self.outbox.push(ShardMsg::StageDone {
                to: self.home[job],
                job,
                inst,
                stage,
                finished: now,
            });
        }
    }

    /// Home-shard half of stage completion: DAG bookkeeping, workflow
    /// records, and dispatch of newly-ready dependent stages. In the
    /// sequential loop every stage completes here directly.
    /// `finished` is the stage's true completion time on its owner shard
    /// (== `now` except for cross-shard completions, which are processed
    /// at the synchronization boundary after they happened); it stamps
    /// workflow records so reported latency carries no handoff
    /// quantization. Dependent stages still dispatch at `now` — work
    /// cannot start before the notification arrives.
    fn home_stage_complete(
        &mut self,
        job: usize,
        inst: usize,
        stage: usize,
        finished: SimTime,
        now: SimTime,
    ) {
        let global = self.global_instance(job, inst);
        let job_spec = &self.jobs[job];
        let dag = &job_spec.dag;
        let instance = self.instance(job, inst);
        instance.stages_left -= 1;
        if instance.stages_left == 0 {
            let record = WorkflowRecord {
                instance: global,
                arrived: job_spec.arrivals[inst],
                finished,
                cold_starts: instance.cold_starts,
                invocations: instance.invocations,
            };
            self.report.workflows.push(record);
            if self.num_shards == 1 {
                // Nothing references a finished workflow: hand the slot
                // back. Sharded states keep theirs for `instance_fold`.
                let slot = std::mem::replace(&mut self.slot_of[global], DONE);
                self.free_slots.push(slot);
            }
            return;
        }
        // Dispatching never reaches this function synchronously, so
        // unlocking and dispatching each dependent in turn meets the same
        // `deps_left` as unlocking them all first.
        for &d in dag.dependents(stage) {
            let deps_left = &mut self.instance(job, inst).deps_left[d];
            *deps_left -= 1;
            if *deps_left > 0 {
                continue;
            }
            // Handoff fault: the dependent stage's dispatch is delayed.
            if let Some(delay) = self.faults.next_handoff() {
                let function = dag.stage(d).function;
                self.telemetry.emit_with(|| SimEvent::FaultInjected {
                    at: now,
                    kind_of: FaultKind::HandoffDelay,
                    function: function.0,
                    container: None,
                    magnitude: delay.as_secs_f64(),
                });
                self.agenda.push(
                    now + delay,
                    Event::StageReady {
                        job,
                        inst,
                        stage: d,
                    },
                );
            } else {
                self.dispatch_stage(job, inst, d, now);
            }
        }
    }

    fn on_pool_tick(
        &mut self,
        controller: &mut dyn PrewarmController,
        now: SimTime,
        horizon: SimTime,
    ) {
        let stats: Vec<FnWindowStats> = self
            .params
            .registry
            .iter()
            .map(|(fid, _)| self.stats_for(fid))
            .collect();
        let obs = PoolObservation {
            now,
            window: POOL_TICK,
            stats,
            cluster: self.cluster.snapshot(),
        };
        self.report
            .pool_snapshots
            .push((now, self.cluster.reserved_memory_mb()));
        let decisions = controller.tick(&obs);
        for d in decisions {
            self.apply_decision(&d, now);
        }
        self.clear_window();
        let next = now + POOL_TICK;
        if next <= horizon {
            self.agenda.push(next, Event::PoolTick);
        }
    }

    /// Window stats for one function, from this state's counters and
    /// cluster slice. The sharded driver sums these across shards.
    pub(crate) fn stats_for(&self, fid: FunctionId) -> FnWindowStats {
        let (booting, idle, busy) = self.cluster.counts(fid);
        FnWindowStats {
            function: fid,
            invocations: self.window_invocations.get(fid.0).copied().unwrap_or(0),
            peak_concurrency: self.window_peak.get(fid.0).copied().unwrap_or(0),
            booting: booting as u32,
            idle: idle as u32,
            busy: busy as u32,
            failed_boots: self.window_boot_failures.get(fid.0).copied().unwrap_or(0),
        }
    }

    /// Applies one pool decision — reap stale idle containers first, then
    /// grow or shrink toward the pre-warm target — to this state's cluster.
    pub(crate) fn apply_decision(&mut self, d: &PoolDecision, now: SimTime) {
        self.cluster.reap_idle(d.function, d.keep_alive, now);
        if let Some(target) = d.prewarm_target {
            self.apply_prewarm_target(d.function, target, d.shrink, now);
        }
    }

    /// Resets the per-window counters at a pool tick.
    pub(crate) fn clear_window(&mut self) {
        self.window_invocations.fill(0);
        self.window_peak.fill(0);
        self.window_boot_failures.fill(0);
    }

    fn apply_prewarm_target(
        &mut self,
        function: FunctionId,
        target: usize,
        shrink: bool,
        now: SimTime,
    ) {
        let (booting, idle, _) = self.cluster.counts(function);
        let available = booting + idle;
        if available < target {
            let Some(config) = self.config_of.get(function.0).copied().flatten() else {
                return;
            };
            let spec = self.params.registry.spec(function);
            for _ in 0..(target - available) {
                let boot = spec.sample_cold_start(&config, &self.params.noise, &mut self.rng);
                match self
                    .cluster
                    .boot_container(function, config, now, boot, true)
                {
                    Some(cid) => self.schedule_boot_outcome(cid, now + boot),
                    None => break, // cluster full; stop pre-warming
                }
            }
        } else if shrink && idle > 0 && available > target {
            self.cluster.shrink_idle(function, available - target, now);
        }
    }

    pub(crate) fn drain_pending(&mut self, now: SimTime) {
        // Retry queued tasks (FIFO); stop at the first that still can't run
        // to preserve ordering fairness.
        while let Some(task) = self.pending.front().copied() {
            let function = self.jobs[task.job].dag.stage(task.stage).function;
            let config = self.jobs[task.job].configs.stage(task.stage);
            let can_warm = self.cluster.find_warm(function, &config).is_some();
            let can_attach = self.cluster.find_booting(function, &config).is_some();
            if !can_warm && !can_attach && !self.cluster.evict_for(config.memory_mb, now) {
                break;
            }
            self.pending.pop_front();
            // Undo the double count in start_task (the task was already
            // counted as an invocation and as outstanding demand). The
            // window counter saturates because a pool tick may have cleared
            // the window while the task sat queued.
            self.window_invocations[function.0] =
                self.window_invocations[function.0].saturating_sub(1);
            self.instance(task.job, task.inst).invocations -= 1;
            self.demand_now[function.0] -= 1;
            self.start_task(task, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionSpec;
    use crate::types::ResourceConfig;

    fn setup(work_ms: f64) -> (FaasSim, WorkflowDag, StageConfigs) {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("f")
                .with_work_ms(work_ms)
                .with_cold_start(500.0, 500.0)
                .with_exec_cv(0.0),
        );
        let dag = WorkflowDag::chain("wf", vec![f]);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
        let sim = FaasSim::builder()
            .workers(2, 8.0, 16_384)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .seed(1)
            .build();
        (sim, dag, configs)
    }

    #[test]
    fn replacement_target_lifts_by_failed_boots() {
        // No base, no failures: stays None (strict no-op for keep-alive
        // policies on fault-free runs).
        assert_eq!(replacement_target(None, 0), None);
        // Failures force a target even without a base.
        assert_eq!(replacement_target(None, 3), Some(3));
        // A base target is lifted by exactly the failed count.
        assert_eq!(replacement_target(Some(4), 0), Some(4));
        assert_eq!(replacement_target(Some(4), 2), Some(6));
        // Zero base with failures still replaces the lost boots.
        assert_eq!(replacement_target(Some(0), 1), Some(1));
    }

    #[test]
    fn single_invocation_pays_cold_start() {
        let (mut sim, dag, configs) = setup(100.0);
        let report = sim.run_workflow_trace(
            &dag,
            &configs,
            &[SimTime::from_secs(1)],
            SimTime::from_secs(120),
        );
        assert_eq!(report.workflows.len(), 1);
        assert_eq!(report.invocations.len(), 1);
        assert!(report.invocations[0].cold);
        // Latency ≈ boot (0.5s) + init (0.5s) + exec (0.11s).
        let lat = report.workflows[0].latency().as_secs_f64();
        assert!((lat - 1.11).abs() < 0.02, "latency {lat}");
    }

    #[test]
    fn back_to_back_invocations_reuse_warm_container() {
        let (mut sim, dag, configs) = setup(100.0);
        let arrivals = vec![SimTime::from_secs(1), SimTime::from_secs(10)];
        let report = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(120));
        assert_eq!(report.invocations.len(), 2);
        assert!(report.invocations[0].cold);
        assert!(!report.invocations[1].cold, "second call should be warm");
        assert!((report.cold_start_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn keep_alive_expiry_causes_second_cold_start() {
        let (mut sim, dag, configs) = setup(100.0);
        // Default keep-alive is 600 s; arrive again after 700 s idle.
        let arrivals = vec![SimTime::from_secs(1), SimTime::from_secs(750)];
        let report = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(1000));
        assert_eq!(report.invocations.iter().filter(|r| r.cold).count(), 2);
    }

    #[test]
    fn prewarm_target_eliminates_cold_start() {
        let (mut sim, dag, configs) = setup(100.0);
        let f = dag.stage(0).function;
        let mut targets = HashMap::new();
        targets.insert(f, 1usize);
        let mut controller = FixedPrewarm {
            keep_alive: SimDuration::from_secs(10_000),
            targets,
        };
        // Pool tick at 60 s pre-warms; arrival at 120 s is warm.
        let job = WorkflowJob::new(dag.clone(), configs.clone(), vec![SimTime::from_secs(120)]);
        let report = sim.run(&[job], &mut controller, SimTime::from_secs(300));
        assert_eq!(report.invocations.len(), 1);
        assert!(
            !report.invocations[0].cold,
            "pre-warmed container should serve warm"
        );
    }

    /// A task running through a whole window with no new task beside it
    /// leaves that window's peak at 0 while its container reads busy
    /// (`aqua_pool::LivePoolSignal` reads 1 for the same window).
    #[test]
    fn window_peak_restarts_at_zero_over_carried_over_work() {
        struct Record(Vec<(u32, u32)>);
        impl PrewarmController for Record {
            fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
                self.0
                    .push((obs.stats[0].peak_concurrency, obs.stats[0].busy));
                Vec::new()
            }
        }
        // 200 s of work arriving at 30 s runs through the ticks at 60 s,
        // 120 s and 180 s.
        let (mut sim, dag, configs) = setup(200_000.0);
        let job = WorkflowJob::new(dag, configs, vec![SimTime::from_secs(30)]);
        let mut rec = Record(Vec::new());
        sim.run(&[job], &mut rec, SimTime::from_secs(180));
        assert_eq!(rec.0, [(1, 1), (0, 1), (0, 1)]);
    }

    #[test]
    fn chain_runs_stages_sequentially() {
        let mut registry = FunctionRegistry::new();
        let a = registry.register(
            FunctionSpec::new("a")
                .with_work_ms(100.0)
                .with_exec_cv(0.0)
                .with_cold_start(100.0, 0.0),
        );
        let b = registry.register(
            FunctionSpec::new("b")
                .with_work_ms(100.0)
                .with_exec_cv(0.0)
                .with_cold_start(100.0, 0.0),
        );
        let dag = WorkflowDag::chain("c", vec![a, b]);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
        let mut sim = FaasSim::builder()
            .workers(1, 8.0, 8192)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        let report = sim.run_workflow_trace(
            &dag,
            &configs,
            &[SimTime::from_secs(1)],
            SimTime::from_secs(60),
        );
        assert_eq!(report.invocations.len(), 2);
        let first = &report.invocations[0];
        let second = &report.invocations[1];
        assert!(
            second.requested >= first.finished,
            "stage 2 starts after stage 1"
        );
    }

    #[test]
    fn fan_out_runs_in_parallel() {
        let mut registry = FunctionRegistry::new();
        let s = registry.register(
            FunctionSpec::new("s")
                .with_work_ms(10.0)
                .with_exec_cv(0.0)
                .with_cold_start(10.0, 0.0),
        );
        let w = registry.register(
            FunctionSpec::new("w")
                .with_work_ms(1000.0)
                .with_exec_cv(0.0)
                .with_cold_start(10.0, 0.0),
        );
        let a = registry.register(
            FunctionSpec::new("a")
                .with_work_ms(10.0)
                .with_exec_cv(0.0)
                .with_cold_start(10.0, 0.0),
        );
        let dag = WorkflowDag::fan_out_in("f", s, w, 8, a);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::new(1.0, 512.0, 1));
        let mut sim = FaasSim::builder()
            .workers(4, 16.0, 32_768)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        let report = sim.run_workflow_trace(
            &dag,
            &configs,
            &[SimTime::from_secs(1)],
            SimTime::from_secs(120),
        );
        assert_eq!(report.invocations.len(), 10);
        // Parallel workers: total latency far below 8 sequential seconds.
        let lat = report.workflows[0].latency().as_secs_f64();
        assert!(lat < 3.0, "fan-out should parallelize: {lat}");
    }

    #[test]
    fn capacity_pressure_queues_tasks() {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("big")
                .with_work_ms(500.0)
                .with_exec_cv(0.0)
                .with_cold_start(10.0, 0.0)
                .with_mem_demand(512.0),
        );
        let dag = WorkflowDag::chain("w", vec![f]);
        // Containers of 4 GiB on a single 8 GiB worker: only 2 fit.
        let configs = StageConfigs::uniform(&dag, ResourceConfig::new(1.0, 4096.0, 1));
        let mut sim = FaasSim::builder()
            .workers(1, 8.0, 8192)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        let arrivals: Vec<SimTime> = (0..4).map(|_| SimTime::from_secs(1)).collect();
        let report = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(300));
        // All four eventually complete despite capacity for two at a time.
        assert_eq!(report.workflows.len(), 4);
    }

    #[test]
    fn profile_config_warm_measures_warm_latency() {
        let (mut sim, dag, configs) = setup(200.0);
        let samples = sim.profile_config(&dag, &configs, 5, true, 1.0, 1.0);
        // Each profiling window launches a burst of two instances.
        assert_eq!(samples.len(), 10);
        for (lat, cost) in &samples {
            // Warm exec ≈ 0.21 s, no cold-start second.
            assert!(*lat < 0.5, "warm latency {lat}");
            assert!(*cost > 0.0);
        }
    }

    #[test]
    fn profile_config_cold_is_slower() {
        let (mut sim, dag, configs) = setup(200.0);
        let warm = sim.profile_config(&dag, &configs, 3, true, 1.0, 1.0);
        let mut sim2 = {
            let (s, _, _) = setup(200.0);
            s
        };
        let cold = sim2.profile_config(&dag, &configs, 3, false, 1.0, 1.0);
        let warm_mean: f64 = warm.iter().map(|s| s.0).sum::<f64>() / warm.len() as f64;
        // Without pinning, the first call is cold; later ones reuse, so
        // compare the max (the cold one).
        let cold_max = cold.iter().map(|s| s.0).fold(0.0, f64::max);
        assert!(
            cold_max > warm_mean * 2.0,
            "cold {cold_max} vs warm {warm_mean}"
        );
    }

    #[test]
    fn profile_config_censors_unfinished_samples_once() {
        // 600 s of work per invocation: with one profiling window the
        // horizon lands at `last arrival + 480 s`, so neither instance in
        // the burst can finish and both must be censored.
        let (mut sim, dag, configs) = setup(600_000.0);
        let samples = sim.profile_config(&dag, &configs, 1, true, 1.0, 1.0);
        // Exactly one entry per launched instance — censored samples are
        // reported once, never dropped and never double-counted.
        assert_eq!(samples.len(), 2);
        // The censored latency is the elapsed-time lower bound
        // `horizon - arrival`: arrivals at 150 s and 158 s, horizon at
        // 158 + 480 = 638 s.
        let mut lats: Vec<f64> = samples.iter().map(|s| s.0).collect();
        lats.sort_by(f64::total_cmp);
        assert_eq!(lats, vec![480.0, 488.0]);
        for (lat, cost) in &samples {
            // Cost is horizon-capped: the full 600 s execution would bill
            // 600 cpu·s + 600 GB·s = 1200 at unit prices, but only the
            // simulated prefix (< 488 s of 600 s) may be charged...
            assert!(*cost < 1150.0, "cost {cost} must be horizon-capped");
            // ...while staying at least the censored elapsed time, so a
            // searcher still sees the region as expensive.
            assert!(*cost >= *lat, "cost {cost} below censored floor {lat}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut sim, dag, configs) = setup(100.0);
        let arrivals = vec![SimTime::from_secs(1), SimTime::from_secs(5)];
        let a = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(60));
        let b = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(60));
        assert_eq!(a, b);
    }

    /// A workload wide enough to exercise several shards: six functions,
    /// three two-stage chains, interleaved arrivals.
    fn sharded_setup() -> (FunctionRegistry, Vec<WorkflowJob>) {
        let mut registry = FunctionRegistry::new();
        let fns: Vec<_> = (0..6)
            .map(|i| {
                registry.register(
                    FunctionSpec::new(format!("f{i}"))
                        .with_work_ms(80.0 + 20.0 * i as f64)
                        .with_cold_start(300.0, 200.0)
                        .with_exec_cv(0.1),
                )
            })
            .collect();
        let jobs: Vec<WorkflowJob> = (0..3)
            .map(|c| {
                let dag = WorkflowDag::chain(format!("chain{c}"), vec![fns[2 * c], fns[2 * c + 1]]);
                let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
                let arrivals = (0..40)
                    .map(|i| SimTime::from_millis(1_000 + 700 * i + 137 * c as u64))
                    .collect();
                WorkflowJob::new(dag, configs, arrivals)
            })
            .collect();
        (registry, jobs)
    }

    fn run_sharded_setup(shards: usize) -> RunReport {
        let (registry, jobs) = sharded_setup();
        let mut sim = FaasSim::builder()
            .workers(4, 16.0, 32_768)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .seed(9)
            .shards(shards)
            .build();
        let mut controller = FixedPrewarm::provider_default();
        sim.run(&jobs, &mut controller, SimTime::from_secs(300))
    }

    #[test]
    fn sharded_run_completes_every_workflow() {
        for shards in [1, 2, 4] {
            let report = run_sharded_setup(shards);
            assert_eq!(
                report.workflows.len(),
                120,
                "all instances complete at {shards} shards"
            );
            assert_eq!(report.unfinished, 0);
            // Two invocations per chain instance.
            let total: u32 = report.workflows.iter().map(|w| w.invocations).sum();
            assert_eq!(total, 240);
            assert!(report.events_processed > 0);
        }
    }

    #[test]
    fn sharded_run_is_deterministic_given_seed() {
        for shards in [2, 4] {
            let a = run_sharded_setup(shards);
            let b = run_sharded_setup(shards);
            assert_eq!(a, b, "sharded run must replay identically at {shards}");
        }
    }

    #[test]
    fn sharded_latencies_track_sequential() {
        // Different shard counts are different deterministic models, but
        // on a lightly loaded cluster they must agree statistically:
        // handoff quantization adds at most one 1 s window per stage edge.
        let seq = run_sharded_setup(1);
        let par = run_sharded_setup(4);
        let mean_seq = seq.mean_latency_secs();
        let mean_par = par.mean_latency_secs();
        assert!(
            (mean_par - mean_seq).abs() < 1.5,
            "mean latency diverged: sequential {mean_seq} vs 4 shards {mean_par}"
        );
    }

    /// What firing `next` at `now` schedules in the merge-order script: a
    /// boot per arrival (sometimes at the arrival's own instant), an
    /// exec-done per boot (sometimes in the past, which the queue clamps
    /// to its clock), a re-armed tick plus a pre-warm boot per tick. Ids
    /// are minted in firing order, so any divergence in order snowballs
    /// into different labels.
    fn script(
        next: Next,
        now: SimTime,
        offsets: &[u64],
        minted: &mut u64,
    ) -> Vec<(SimTime, Event)> {
        let after = |k: usize, back: u64| {
            let micros = now.as_micros() + 500_000 * offsets[k % offsets.len()];
            SimTime::from_micros(micros.saturating_sub(500_000 * back))
        };
        *minted += 1;
        let container = ContainerId(*minted);
        match next {
            Next::Arrival { job, inst } => {
                vec![(after(job + inst, 0), Event::BootDone { container })]
            }
            Next::Event(Event::BootDone { container }) => {
                vec![(
                    after(container.0 as usize, 3),
                    Event::ExecDone { seq: *minted },
                )]
            }
            Next::Event(Event::PoolTick) if now < SimTime::from_secs(24) => vec![
                (after(*minted as usize, 0), Event::BootDone { container }),
                (now + SimDuration::from_secs(2), Event::PoolTick),
            ],
            Next::Event(_) => Vec::new(),
        }
    }

    proptest::proptest! {
        /// The cursor+heap source pops in exactly the order of the source
        /// it replaced: one `EventQueue` with every arrival pushed in
        /// `(job, inst)` order before the first pop, then the first tick.
        /// Arrival lists are unsorted and full of duplicates within and
        /// across jobs; half-second granularity lands them on the 2 s
        /// ticks and on scripted boot instants.
        #[test]
        fn prop_agenda_pops_like_a_preloaded_queue(
            jobs in proptest::collection::vec(proptest::collection::vec(0u64..44, 0..14), 1..5),
            offsets in proptest::collection::vec(0u64..7, 1..6),
        ) {
            let first_tick = SimTime::from_secs(2);
            let mut arrivals = Vec::new();
            let mut oracle: EventQueue<Next> = EventQueue::new();
            for (job, times) in jobs.iter().enumerate() {
                for (inst, half_secs) in times.iter().enumerate() {
                    let at = SimTime::from_millis(500 * half_secs);
                    arrivals.push((at, job as u32, inst as u32));
                    oracle.push(at, Next::Arrival { job, inst });
                }
            }
            oracle.push(first_tick, Next::Event(Event::PoolTick));
            let mut agenda = Agenda::new(arrivals);
            agenda.push(first_tick, Event::PoolTick);

            let (mut minted_a, mut minted_o) = (0u64, 0u64);
            loop {
                proptest::prop_assert_eq!(agenda.next_time(), oracle.peek_time());
                let (got, want) = (agenda.pop(), oracle.pop());
                proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                let (Some((now, got)), Some((_, want))) = (got, want) else { break };
                for (at, event) in script(got, now, &offsets, &mut minted_a) {
                    agenda.push(at, event);
                }
                for (at, event) in script(want, now, &offsets, &mut minted_o) {
                    oracle.push(at, Next::Event(event));
                }
            }
            let total: usize = jobs.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(agenda.arrivals_fired(), total);
        }
    }

    #[test]
    fn live_state_is_bounded_by_overlap_not_by_trace_length() {
        let (sim, dag, configs) = setup(100.0);
        // 60 000 arrivals in bursts of three every 6 s, 0.11 s of work
        // each: only one burst is ever in flight.
        let bursts = 20_000u64;
        let arrivals: Vec<SimTime> = (0..bursts)
            .flat_map(|b| [SimTime::from_secs(1 + 6 * b); 3])
            .collect();
        let total = arrivals.len();
        let jobs = [WorkflowJob::new(dag, configs, arrivals)];
        let horizon = SimTime::from_secs(6 * bursts + 60);
        let mut controller = FixedPrewarm::provider_default();
        let mut state = RunState::new(&sim.params, &jobs);
        let mut peak_queued = 0;
        while state.agenda.next_time().is_some_and(|t| t <= horizon) {
            state.step(Some(&mut controller), horizon);
            peak_queued = peak_queued.max(state.agenda.queue.len());
        }
        assert_eq!(state.report.workflows.len(), total);
        // The heap holds the tick plus what the burst in flight scheduled;
        // the slab grows only when no slot is free, so its length is the
        // peak number of live instances. Neither may scale with `total`.
        assert!(peak_queued <= 8, "heap peaked at {peak_queued} events");
        assert!(state.slab.len() <= 4, "{} live instances", state.slab.len());
        assert_eq!(state.free_slots.len(), state.slab.len(), "slot leaked");
        assert!(state.work.is_empty() && state.exec_meta.is_empty());
    }

    #[test]
    #[should_panic(expected = "touched after it completed")]
    fn touching_a_completed_instance_is_a_bug() {
        let (sim, dag, configs) = setup(100.0);
        let jobs = [WorkflowJob::new(dag, configs, vec![SimTime::from_secs(1)])];
        let horizon = SimTime::from_secs(30);
        let mut controller = FixedPrewarm::provider_default();
        let mut state = RunState::new(&sim.params, &jobs);
        while state.agenda.next_time().is_some_and(|t| t <= horizon) {
            state.step(Some(&mut controller), horizon);
        }
        assert_eq!(state.report.workflows.len(), 1);
        state.instance(0, 0);
    }

    #[test]
    fn unfinished_workflows_counted() {
        let (mut sim, dag, configs) = setup(100_000.0); // 100 s of work
        let report = sim.run_workflow_trace(
            &dag,
            &configs,
            &[SimTime::from_secs(1)],
            SimTime::from_secs(10),
        );
        assert_eq!(report.workflows.len(), 0);
        assert_eq!(report.unfinished, 1);
    }
}
