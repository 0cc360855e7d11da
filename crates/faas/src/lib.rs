//! Discrete-event FaaS cluster simulator.
//!
//! This crate is the substitute for the paper's OpenWhisk testbed (see
//! DESIGN.md): an event-driven model of a cluster of invoker servers that
//! host function containers. It reproduces the mechanisms every experiment
//! in the paper exercises:
//!
//! * **container lifecycle** — cold boots, warm reuse, keep-alive reaping,
//!   pre-warm targets ([`Cluster`], [`container`]);
//! * **resource-dependent latency** — per-function execution-time model
//!   with CPU speedup, memory-pressure penalty, cold-start init work
//!   ([`FunctionSpec`]);
//! * **cloud noise** — Gaussian (log-normal) execution jitter plus
//!   heavy-tailed non-Gaussian outliers from colocated background jobs
//!   ([`NoiseModel`]);
//! * **multi-stage workflows** — DAG composition with fan-out/fan-in
//!   ([`WorkflowDag`]);
//! * **cost accounting** — CPU-seconds and GB-seconds, as billed by
//!   production FaaS platforms ([`metrics`]).
//!
//! The event loop lives in [`sim::FaasSim`]; pre-warm policies plug in via
//! [`sim::PrewarmController`].
//!
//! # Examples
//!
//! ```
//! use aqua_faas::prelude::*;
//!
//! // One-function workflow on a 2-worker cluster.
//! let mut registry = FunctionRegistry::new();
//! let f = registry.register(FunctionSpec::new("hello").with_work_ms(50.0));
//! let dag = WorkflowDag::chain("hello-wf", vec![f]);
//! let mut sim = FaasSim::builder()
//!     .workers(2, 8.0, 16_384)
//!     .registry(registry)
//!     .seed(7)
//!     .build();
//! let config = StageConfigs::uniform(&dag, ResourceConfig::default());
//! let arrivals = vec![SimTime::from_secs(1)];
//! let report = sim.run_workflow_trace(&dag, &config, &arrivals, SimTime::from_secs(60));
//! assert_eq!(report.workflows.len(), 1);
//! ```

pub mod cluster;
pub mod container;
pub mod fault;
pub mod function;
pub mod interference;
pub mod metrics;
pub mod runtime;
pub(crate) mod shard;
pub mod sim;
pub mod tenant;
pub mod types;
pub mod workflow;

pub use cluster::Cluster;
pub use container::{Container, ContainerState};
pub use fault::{FaultPlan, FaultRates, FaultState, RetryPolicy};
pub use function::{FunctionRegistry, FunctionSpec};
pub use interference::{ExecSampler, NoiseModel};
pub use metrics::{InvocationRecord, RunReport, WorkflowRecord};
pub use runtime::{BootTicket, ContainerRuntime, RuntimeStats, SimContainerRuntime};
pub use sim::{
    boot_configs, replacement_target, FaasSim, FaasSimBuilder, FixedPrewarm, FnWindowStats,
    PoolDecision, PoolObservation, PrewarmController, WorkflowJob,
};
pub use tenant::{QosClass, TenantId, TenantPlan};
pub use types::{ContainerId, FunctionId, ResourceConfig, StageConfigs, WorkerId};
pub use workflow::{Stage, WorkflowDag};

/// Re-export of the telemetry layer the simulator emits through.
pub use aqua_telemetry as telemetry;
pub use aqua_telemetry::{EventSink, EvictionReason, FaultKind, SimEvent, Telemetry};

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::cluster::Cluster;
    pub use crate::fault::{FaultPlan, FaultRates, RetryPolicy};
    pub use crate::function::{FunctionRegistry, FunctionSpec};
    pub use crate::interference::NoiseModel;
    pub use crate::metrics::{InvocationRecord, RunReport, WorkflowRecord};
    pub use crate::sim::{FaasSim, FixedPrewarm, PoolDecision, PoolObservation, PrewarmController};
    pub use crate::types::{FunctionId, ResourceConfig, StageConfigs};
    pub use crate::workflow::{Stage, WorkflowDag};
    pub use aqua_sim::{SimDuration, SimTime};
}
