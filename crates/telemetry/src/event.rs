//! The simulator event taxonomy and its line-oriented JSON encoding.
//!
//! Events reference functions, containers, workers, and workflow jobs by
//! their raw integer ids (`usize` / `u64`) rather than the `aqua-faas`
//! newtypes: the simulator depends on this crate, so the event layer cannot
//! depend back on the simulator's types.

use std::fmt::Write as _;

use aqua_sim::SimTime;

/// Why a container was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionReason {
    /// Idle longer than the pool policy's keep-alive.
    KeepAlive,
    /// Pool shrunk below the current idle count by an explicit target.
    Shrink,
    /// LRU eviction to make room for a new container under memory pressure.
    Pressure,
    /// Killed by an injected fault (boot failure, OOM, crash).
    Fault,
}

impl EvictionReason {
    /// Stable lowercase identifier used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictionReason::KeepAlive => "keep_alive",
            EvictionReason::Shrink => "shrink",
            EvictionReason::Pressure => "pressure",
            EvictionReason::Fault => "fault",
        }
    }
}

/// Class of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A container boot that never completes; the container dies instead
    /// of turning warm.
    BootFail,
    /// A warm or busy container killed mid-run (OOM / crash); in-flight
    /// invocations on it are lost.
    Crash,
    /// One invocation slowed down by a multiplicative straggler factor.
    Straggler,
    /// A stage handoff delayed between a stage finishing and its
    /// dependents dispatching.
    HandoffDelay,
}

impl FaultKind {
    /// Stable lowercase identifier used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::BootFail => "boot_fail",
            FaultKind::Crash => "crash",
            FaultKind::Straggler => "straggler",
            FaultKind::HandoffDelay => "handoff_delay",
        }
    }
}

/// Why a tenant's load was shed by queue-depth admission control (as
/// opposed to the model-driven [`SimEvent::PredictiveReject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The arrival found the in-flight cap (global or tenant) exhausted.
    Inflight,
    /// A task found its function queue (global or tenant cap) full and
    /// its workflow instance was aborted.
    Queue,
}

impl ShedReason {
    /// Stable lowercase identifier used in the JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Inflight => "inflight",
            ShedReason::Queue => "queue",
        }
    }
}

/// One scheduling-relevant moment in a simulation run.
///
/// Every variant carries its simulated timestamp `at`. Identifier fields
/// are raw ids: `function` and `worker` index into the registry and the
/// cluster's worker list, `container` is the cluster-unique container id,
/// and `workflow`/`instance` name a job in the workload mix and an arrival
/// within it.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A container started booting on a worker.
    ColdStartBegin {
        at: SimTime,
        function: usize,
        container: u64,
        worker: usize,
        /// Memory reserved on the worker for this container's lifetime.
        memory_mb: f64,
        /// Concurrent execution slots the container will offer when warm.
        slots: u32,
        /// True when booted speculatively by the pool controller rather
        /// than on demand by a waiting task.
        prewarmed: bool,
    },
    /// A container finished booting and became warm.
    ColdStartEnd {
        at: SimTime,
        function: usize,
        container: u64,
        worker: usize,
        /// Tasks that waited on this boot and start executing now; each
        /// is charged one cold start. Zero for pre-warmed boots.
        tasks_attached: u32,
    },
    /// A task found a warm container with a free slot and starts
    /// immediately — no cold-start accounting.
    WarmHit {
        at: SimTime,
        function: usize,
        container: u64,
    },
    /// A warm container was killed.
    Eviction {
        at: SimTime,
        function: usize,
        container: u64,
        worker: usize,
        /// Memory released back to the worker.
        memory_mb: f64,
        reason: EvictionReason,
    },
    /// A pool controller chose a pre-warm target for one function.
    PoolResize {
        at: SimTime,
        function: usize,
        /// Desired warm + in-flight container count.
        target: usize,
        /// Predicted demand (containers) for the next window.
        predicted_mean: f64,
        /// Predictive uncertainty (standard deviation) behind the
        /// target's head-room.
        predicted_std: f64,
        /// Containers booting at decision time.
        booting: u32,
        /// Warm-idle containers at decision time.
        idle: u32,
        /// Busy containers at decision time.
        busy: u32,
    },
    /// A workflow stage became runnable and its tasks were dispatched.
    StageDispatch {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
        function: usize,
        /// Number of parallel tasks in the stage.
        tasks: u32,
    },
    /// A dispatched task found no capacity anywhere and was queued.
    StageQueued {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
        function: usize,
    },
    /// One task of a stage finished executing.
    TaskComplete {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
        container: u64,
    },
    /// Every task of a stage finished; downstream stages may unblock.
    StageComplete {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
    },
    /// One Bayesian-optimization iteration of the resource allocator.
    ///
    /// Stamped with the (simulated) time of the profiling run it follows;
    /// during offline planning this is [`SimTime::ZERO`].
    BoIteration {
        at: SimTime,
        /// Evaluation index within the search (bootstrap samples included).
        iteration: usize,
        /// The evaluated resource configuration, flattened per stage.
        candidate: Vec<f64>,
        /// Acquisition value (constrained noisy EI) of the candidate;
        /// bootstrap samples carry `0.0`.
        ei: f64,
        /// Observed end-to-end latency (seconds) of the candidate.
        latency: f64,
        /// Observed execution cost of the candidate.
        cost: f64,
    },
    /// A fault from the run's `FaultPlan` fired.
    ///
    /// `container` is `None` for faults not tied to a container
    /// (stage-handoff delays). `magnitude` is fault-specific: the
    /// straggler slowdown factor, the handoff delay in seconds, or `0.0`
    /// for boot failures and crashes.
    FaultInjected {
        at: SimTime,
        kind_of: FaultKind,
        function: usize,
        container: Option<u64>,
        magnitude: f64,
    },
    /// A failed or timed-out invocation was rescheduled with backoff.
    InvocationRetried {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
        function: usize,
        /// Attempt number being scheduled (first retry is 1).
        attempt: u32,
    },
    /// An invocation exceeded the per-stage timeout and was cancelled.
    InvocationTimedOut {
        at: SimTime,
        workflow: usize,
        instance: usize,
        stage: usize,
        function: usize,
        container: u64,
    },
    /// A completed workflow instance exceeded its QoS latency target.
    ///
    /// Synthesized while the run report is analyzed, after the event loop
    /// ends, so it is exempt from the monotone-time invariant.
    QosViolation {
        at: SimTime,
        workflow: usize,
        instance: usize,
        /// Achieved end-to-end latency in seconds.
        latency_secs: f64,
        /// The QoS target it missed, in seconds.
        qos_secs: f64,
    },
    /// An online latency model crossed its size threshold and was rebuilt
    /// on the sparse (inducing-point) surrogate tier. Emitted by the
    /// service control plane during refit ticks; the simulator's exact
    /// tier never produces it, so golden sim traces are unaffected.
    SurrogateTierSwitch {
        at: SimTime,
        /// Application whose model switched.
        app: usize,
        /// Training-set size at the switch.
        train: usize,
        /// Inducing-set size of the new sparse model.
        inducing: usize,
    },
    /// A workflow arrival was admitted on a multi-tenant control plane.
    /// Emitted by the live service only; the batch simulator has no
    /// tenant vocabulary, so sim golden traces never contain it.
    TenantAdmit {
        at: SimTime,
        /// Tenant the workflow belongs to.
        tenant: usize,
        /// Job (workflow template) index.
        workflow: usize,
        /// Plane-unique workflow instance id.
        instance: u64,
    },
    /// An admitted workflow instance finished every stage.
    TenantComplete {
        at: SimTime,
        tenant: usize,
        workflow: usize,
        instance: u64,
        /// Achieved end-to-end latency, seconds.
        latency_secs: f64,
    },
    /// A tenant's load was shed by queue-depth admission control — at the
    /// front door (`reason = inflight`, nothing was dispatched) or at a
    /// full function queue (`reason = queue`, the instance aborts).
    TenantShed {
        at: SimTime,
        tenant: usize,
        workflow: usize,
        reason: ShedReason,
    },
    /// A workflow arrival was rejected *before admission* because the
    /// online latency model predicted its end-to-end latency
    /// (`mean + k·σ`) would already miss the tenant's SLO. Distinct from
    /// queue-depth shedding: nothing about the queues triggered it.
    PredictiveReject {
        at: SimTime,
        tenant: usize,
        workflow: usize,
        /// Predicted end-to-end latency mean, seconds.
        predicted_secs: f64,
        /// Predictive standard deviation, seconds.
        sigma_secs: f64,
        /// The SLO the prediction already misses, seconds.
        slo_secs: f64,
    },
}

impl SimEvent {
    /// The event's simulated timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::ColdStartBegin { at, .. }
            | SimEvent::ColdStartEnd { at, .. }
            | SimEvent::WarmHit { at, .. }
            | SimEvent::Eviction { at, .. }
            | SimEvent::PoolResize { at, .. }
            | SimEvent::StageDispatch { at, .. }
            | SimEvent::StageQueued { at, .. }
            | SimEvent::TaskComplete { at, .. }
            | SimEvent::StageComplete { at, .. }
            | SimEvent::BoIteration { at, .. }
            | SimEvent::FaultInjected { at, .. }
            | SimEvent::InvocationRetried { at, .. }
            | SimEvent::InvocationTimedOut { at, .. }
            | SimEvent::QosViolation { at, .. }
            | SimEvent::SurrogateTierSwitch { at, .. }
            | SimEvent::TenantAdmit { at, .. }
            | SimEvent::TenantComplete { at, .. }
            | SimEvent::TenantShed { at, .. }
            | SimEvent::PredictiveReject { at, .. } => at,
        }
    }

    /// Stable lowercase name of the variant, the `"type"` field of the
    /// JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::ColdStartBegin { .. } => "cold_start_begin",
            SimEvent::ColdStartEnd { .. } => "cold_start_end",
            SimEvent::WarmHit { .. } => "warm_hit",
            SimEvent::Eviction { .. } => "eviction",
            SimEvent::PoolResize { .. } => "pool_resize",
            SimEvent::StageDispatch { .. } => "stage_dispatch",
            SimEvent::StageQueued { .. } => "stage_queued",
            SimEvent::TaskComplete { .. } => "task_complete",
            SimEvent::StageComplete { .. } => "stage_complete",
            SimEvent::BoIteration { .. } => "bo_iteration",
            SimEvent::FaultInjected { .. } => "fault_injected",
            SimEvent::InvocationRetried { .. } => "invocation_retried",
            SimEvent::InvocationTimedOut { .. } => "invocation_timed_out",
            SimEvent::QosViolation { .. } => "qos_violation",
            SimEvent::SurrogateTierSwitch { .. } => "surrogate_tier_switch",
            SimEvent::TenantAdmit { .. } => "tenant_admit",
            SimEvent::TenantComplete { .. } => "tenant_complete",
            SimEvent::TenantShed { .. } => "tenant_shed",
            SimEvent::PredictiveReject { .. } => "predictive_reject",
        }
    }

    /// Encodes the event as one deterministic JSON object (no trailing
    /// newline). Field order is fixed, floats use Rust's shortest
    /// round-trip formatting, so identical events always produce
    /// byte-identical lines — the property the golden-trace and
    /// determinism tests rely on.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        push_str_field(&mut s, "type", self.kind());
        push_u64_field(&mut s, "at_us", self.at().as_micros());
        match *self {
            SimEvent::ColdStartBegin {
                function,
                container,
                worker,
                memory_mb,
                slots,
                prewarmed,
                ..
            } => {
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "container", container);
                push_u64_field(&mut s, "worker", worker as u64);
                push_f64_field(&mut s, "memory_mb", memory_mb);
                push_u64_field(&mut s, "slots", slots as u64);
                push_bool_field(&mut s, "prewarmed", prewarmed);
            }
            SimEvent::ColdStartEnd {
                function,
                container,
                worker,
                tasks_attached,
                ..
            } => {
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "container", container);
                push_u64_field(&mut s, "worker", worker as u64);
                push_u64_field(&mut s, "tasks_attached", tasks_attached as u64);
            }
            SimEvent::WarmHit {
                function,
                container,
                ..
            } => {
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "container", container);
            }
            SimEvent::Eviction {
                function,
                container,
                worker,
                memory_mb,
                reason,
                ..
            } => {
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "container", container);
                push_u64_field(&mut s, "worker", worker as u64);
                push_f64_field(&mut s, "memory_mb", memory_mb);
                push_str_field(&mut s, "reason", reason.as_str());
            }
            SimEvent::PoolResize {
                function,
                target,
                predicted_mean,
                predicted_std,
                booting,
                idle,
                busy,
                ..
            } => {
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "target", target as u64);
                push_f64_field(&mut s, "predicted_mean", predicted_mean);
                push_f64_field(&mut s, "predicted_std", predicted_std);
                push_u64_field(&mut s, "booting", booting as u64);
                push_u64_field(&mut s, "idle", idle as u64);
                push_u64_field(&mut s, "busy", busy as u64);
            }
            SimEvent::StageDispatch {
                workflow,
                instance,
                stage,
                function,
                tasks,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "tasks", tasks as u64);
            }
            SimEvent::StageQueued {
                workflow,
                instance,
                stage,
                function,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
                push_u64_field(&mut s, "function", function as u64);
            }
            SimEvent::TaskComplete {
                workflow,
                instance,
                stage,
                container,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
                push_u64_field(&mut s, "container", container);
            }
            SimEvent::StageComplete {
                workflow,
                instance,
                stage,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
            }
            SimEvent::BoIteration {
                iteration,
                ref candidate,
                ei,
                latency,
                cost,
                ..
            } => {
                push_u64_field(&mut s, "iteration", iteration as u64);
                s.push_str("\"candidate\":[");
                for (i, x) in candidate.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_f64(&mut s, *x);
                }
                s.push_str("],");
                push_f64_field(&mut s, "ei", ei);
                push_f64_field(&mut s, "latency", latency);
                push_f64_field(&mut s, "cost", cost);
            }
            SimEvent::FaultInjected {
                kind_of,
                function,
                container,
                magnitude,
                ..
            } => {
                push_str_field(&mut s, "kind", kind_of.as_str());
                push_u64_field(&mut s, "function", function as u64);
                push_opt_u64_field(&mut s, "container", container);
                push_f64_field(&mut s, "magnitude", magnitude);
            }
            SimEvent::InvocationRetried {
                workflow,
                instance,
                stage,
                function,
                attempt,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "attempt", attempt as u64);
            }
            SimEvent::InvocationTimedOut {
                workflow,
                instance,
                stage,
                function,
                container,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_u64_field(&mut s, "stage", stage as u64);
                push_u64_field(&mut s, "function", function as u64);
                push_u64_field(&mut s, "container", container);
            }
            SimEvent::QosViolation {
                workflow,
                instance,
                latency_secs,
                qos_secs,
                ..
            } => {
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance as u64);
                push_f64_field(&mut s, "latency_secs", latency_secs);
                push_f64_field(&mut s, "qos_secs", qos_secs);
            }
            SimEvent::SurrogateTierSwitch {
                app,
                train,
                inducing,
                ..
            } => {
                push_u64_field(&mut s, "app", app as u64);
                push_u64_field(&mut s, "train", train as u64);
                push_u64_field(&mut s, "inducing", inducing as u64);
            }
            SimEvent::TenantAdmit {
                tenant,
                workflow,
                instance,
                ..
            } => {
                push_u64_field(&mut s, "tenant", tenant as u64);
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance);
            }
            SimEvent::TenantComplete {
                tenant,
                workflow,
                instance,
                latency_secs,
                ..
            } => {
                push_u64_field(&mut s, "tenant", tenant as u64);
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_u64_field(&mut s, "instance", instance);
                push_f64_field(&mut s, "latency_secs", latency_secs);
            }
            SimEvent::TenantShed {
                tenant,
                workflow,
                reason,
                ..
            } => {
                push_u64_field(&mut s, "tenant", tenant as u64);
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_str_field(&mut s, "reason", reason.as_str());
            }
            SimEvent::PredictiveReject {
                tenant,
                workflow,
                predicted_secs,
                sigma_secs,
                slo_secs,
                ..
            } => {
                push_u64_field(&mut s, "tenant", tenant as u64);
                push_u64_field(&mut s, "workflow", workflow as u64);
                push_f64_field(&mut s, "predicted_secs", predicted_secs);
                push_f64_field(&mut s, "sigma_secs", sigma_secs);
                push_f64_field(&mut s, "slo_secs", slo_secs);
            }
        }
        // Every field helper appends a trailing comma; replace the last
        // with the closing brace.
        let last = s.pop();
        debug_assert_eq!(last, Some(','));
        s.push('}');
        s
    }
}

fn push_key(s: &mut String, key: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    push_key(s, key);
    s.push('"');
    s.push_str(value);
    s.push_str("\",");
}

fn push_u64_field(s: &mut String, key: &str, value: u64) {
    push_key(s, key);
    let _ = write!(s, "{value},");
}

fn push_opt_u64_field(s: &mut String, key: &str, value: Option<u64>) {
    push_key(s, key);
    match value {
        Some(v) => {
            let _ = write!(s, "{v},");
        }
        None => s.push_str("null,"),
    }
}

fn push_bool_field(s: &mut String, key: &str, value: bool) {
    push_key(s, key);
    s.push_str(if value { "true," } else { "false," });
}

fn push_f64(s: &mut String, value: f64) {
    if value.is_finite() {
        // Shortest round-trip formatting; force a decimal point so the
        // value reads back as a float rather than an integer.
        let mut t = String::with_capacity(24);
        let _ = write!(t, "{value}");
        if !t.contains(['.', 'e', 'E']) {
            t.push_str(".0");
        }
        s.push_str(&t);
    } else {
        // JSON has no NaN/inf; encode as null.
        s.push_str("null");
    }
}

fn push_f64_field(s: &mut String, key: &str, value: f64) {
    push_key(s, key);
    push_f64(s, value);
    s.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_are_ordered_and_typed() {
        let ev = SimEvent::ColdStartBegin {
            at: SimTime::from_millis(1500),
            function: 2,
            container: 7,
            worker: 1,
            memory_mb: 512.0,
            slots: 4,
            prewarmed: true,
        };
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"cold_start_begin\",\"at_us\":1500000,\"function\":2,\
             \"container\":7,\"worker\":1,\"memory_mb\":512.0,\"slots\":4,\
             \"prewarmed\":true}"
        );
    }

    #[test]
    fn float_encoding_round_trips() {
        let ev = SimEvent::QosViolation {
            at: SimTime::from_micros(3),
            workflow: 0,
            instance: 5,
            latency_secs: 1.25,
            qos_secs: 1.0,
        };
        let j = ev.to_json();
        assert!(j.contains("\"latency_secs\":1.25"), "{j}");
        assert!(j.contains("\"qos_secs\":1.0"), "{j}");
    }

    #[test]
    fn candidate_vector_encodes_as_array() {
        let ev = SimEvent::BoIteration {
            at: SimTime::ZERO,
            iteration: 3,
            candidate: vec![1.0, 2.5],
            ei: 0.125,
            latency: 2.0,
            cost: 3.5,
        };
        let j = ev.to_json();
        assert!(j.contains("\"candidate\":[1.0,2.5]"), "{j}");
    }

    #[test]
    fn fault_injected_encodes_optional_container() {
        let with = SimEvent::FaultInjected {
            at: SimTime::from_millis(250),
            kind_of: FaultKind::Crash,
            function: 3,
            container: Some(12),
            magnitude: 0.0,
        };
        assert_eq!(
            with.to_json(),
            "{\"type\":\"fault_injected\",\"at_us\":250000,\"kind\":\"crash\",\
             \"function\":3,\"container\":12,\"magnitude\":0.0}"
        );
        let without = SimEvent::FaultInjected {
            at: SimTime::from_millis(250),
            kind_of: FaultKind::HandoffDelay,
            function: 3,
            container: None,
            magnitude: 1.5,
        };
        assert!(
            without.to_json().contains("\"container\":null"),
            "{}",
            without.to_json()
        );
    }

    #[test]
    fn retry_and_timeout_round_trip() {
        let retry = SimEvent::InvocationRetried {
            at: SimTime::from_secs(2),
            workflow: 0,
            instance: 4,
            stage: 1,
            function: 6,
            attempt: 2,
        };
        assert_eq!(retry.kind(), "invocation_retried");
        assert!(
            retry.to_json().contains("\"attempt\":2"),
            "{}",
            retry.to_json()
        );
        let timeout = SimEvent::InvocationTimedOut {
            at: SimTime::from_secs(3),
            workflow: 1,
            instance: 0,
            stage: 2,
            function: 5,
            container: 9,
        };
        assert_eq!(timeout.kind(), "invocation_timed_out");
        assert!(
            timeout.to_json().contains("\"container\":9"),
            "{}",
            timeout.to_json()
        );
        assert_eq!(timeout.at(), SimTime::from_secs(3));
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(FaultKind::BootFail.as_str(), "boot_fail");
        assert_eq!(FaultKind::Crash.as_str(), "crash");
        assert_eq!(FaultKind::Straggler.as_str(), "straggler");
        assert_eq!(FaultKind::HandoffDelay.as_str(), "handoff_delay");
        assert_eq!(EvictionReason::Fault.as_str(), "fault");
    }

    #[test]
    fn tenant_events_encode_deterministically() {
        let admit = SimEvent::TenantAdmit {
            at: SimTime::from_millis(750),
            tenant: 1,
            workflow: 0,
            instance: 42,
        };
        assert_eq!(
            admit.to_json(),
            "{\"type\":\"tenant_admit\",\"at_us\":750000,\"tenant\":1,\
             \"workflow\":0,\"instance\":42}"
        );
        let shed = SimEvent::TenantShed {
            at: SimTime::from_secs(2),
            tenant: 0,
            workflow: 3,
            reason: ShedReason::Queue,
        };
        assert!(shed.to_json().contains("\"reason\":\"queue\""));
        assert_eq!(ShedReason::Inflight.as_str(), "inflight");
        let done = SimEvent::TenantComplete {
            at: SimTime::from_secs(3),
            tenant: 1,
            workflow: 0,
            instance: 42,
            latency_secs: 0.5,
        };
        assert!(done.to_json().contains("\"latency_secs\":0.5"));
        assert_eq!(done.kind(), "tenant_complete");
    }

    #[test]
    fn predictive_reject_carries_the_criterion() {
        let ev = SimEvent::PredictiveReject {
            at: SimTime::from_secs(9),
            tenant: 2,
            workflow: 1,
            predicted_secs: 2.5,
            sigma_secs: 0.25,
            slo_secs: 1.5,
        };
        assert_eq!(ev.kind(), "predictive_reject");
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"predictive_reject\",\"at_us\":9000000,\"tenant\":2,\
             \"workflow\":1,\"predicted_secs\":2.5,\"sigma_secs\":0.25,\
             \"slo_secs\":1.5}"
        );
        assert_eq!(ev.at(), SimTime::from_secs(9));
    }

    #[test]
    fn at_accessor_matches_stamp() {
        let ev = SimEvent::WarmHit {
            at: SimTime::from_secs(9),
            function: 0,
            container: 1,
        };
        assert_eq!(ev.at(), SimTime::from_secs(9));
        assert_eq!(ev.kind(), "warm_hit");
    }
}
