//! The AQUATOPE control-plane service.
//!
//! Everything in the rest of the workspace runs the controller as a
//! *batch*: build a workload, run the simulator to completion, read the
//! report. This crate lifts the same components into a **long-running
//! service process** shaped the way a production control plane is:
//!
//! * [`Reactor`] — a hand-rolled, deterministic-when-seeded event loop
//!   over the simulation engine's future-event list. No tokio, no OS
//!   timers; the existing `par_map`/`AQUA_THREADS` contract remains the
//!   workspace's only concurrency substrate.
//! * [`WarmPoolManager`] — owns the containers: per-function idle pools,
//!   a background filler task working toward any
//!   [`aqua_faas::PrewarmController`]'s targets under a boot-concurrency
//!   semaphore and a memory budget, keep-alive reaping, and a
//!   drain-aware shutdown path that provably leaves zero containers.
//! * [`Admission`] — workflow in-flight caps and bounded per-function
//!   task queues with load-shedding counters.
//! * [`RefitScheduler`] — budgeted incremental GP refits
//!   ([`aqua_alloc::OnlineLatencyModel`]) on a cadence decoupled from
//!   the request path.
//! * [`ControlPlane`] — the service itself: admission → warm pool →
//!   execution → completion bookkeeping, policy/filler/refit ticks, and
//!   graceful shutdown that drains in-flight work.
//!
//! # Example
//!
//! ```
//! use aqua_service::{ControlPlane, ServiceConfig};
//! use aqua_faas::prelude::*;
//! use aqua_faas::WorkflowJob;
//!
//! let mut registry = FunctionRegistry::new();
//! let f = registry.register(FunctionSpec::new("hello").with_work_ms(40.0));
//! let dag = WorkflowDag::chain("hello-wf", vec![f]);
//! let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
//! let job = WorkflowJob {
//!     dag,
//!     configs,
//!     arrivals: (1..=10).map(SimTime::from_secs).collect(),
//! };
//!
//! let cfg = ServiceConfig {
//!     run_for: SimDuration::from_secs(60),
//!     ..ServiceConfig::default()
//! };
//! let plane = ControlPlane::new(
//!     registry,
//!     vec![job],
//!     Box::new(aqua_pool::ReactiveAutoscale::default()),
//!     &FaultPlan::disabled(),
//!     cfg,
//! );
//! let report = plane.run();
//! assert_eq!(report.completed, 10);
//! assert_eq!(report.live_containers_at_exit, 0);
//! ```

pub mod admission;
pub mod reactor;
pub mod refit;
pub mod service;
pub mod warm_pool;

pub use admission::{Admission, AdmissionConfig, AdmissionStats};
pub use reactor::Reactor;
pub use refit::{RefitScheduler, RefitStats};
pub use service::{
    ControlPlane, InstanceRef, PredictiveConfig, ServiceConfig, ServiceReport, SvcEvent,
    TenantReport,
};
pub use warm_pool::{Acquired, BootPurpose, WarmPoolConfig, WarmPoolManager, WarmPoolStats};
