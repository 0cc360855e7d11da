//! The paper's application suite and workload generation.
//!
//! * [`apps`] — the five evaluated multi-stage serverless applications:
//!   generic **Chain** and **Fan-out/Fan-in** workflows built from a
//!   synthetic function generator, the **ML pipeline** (Fig. 6), the
//!   **video-processing framework** (Fig. 7), and the **social network**
//!   (Fig. 8, with a socfb-Reed98-scale synthetic graph from [`graph`]).
//! * [`trace`] — Azure-Function-dataset-like invocation traces: diurnal +
//!   weekly shape, bursts, Poisson intra-minute arrivals, and direct
//!   CV-controlled renewal traces for the Fig. 10 sweep.
//! * [`loadgen`] — open-loop workload assembly (the Locust role),
//!   per-window concurrency series extraction for training predictors,
//!   and [`split_history`], the one split of a trace into pre-load
//!   history and live traffic.
//! * [`azure`] — cluster-scale Azure-like workload synthesis (~1 k apps
//!   with Zipf popularity), the trace of `aqua-benchmark`'s `sim_azure`
//!   and `svc_azure` workloads.
//!
//! # Examples
//!
//! ```
//! use aqua_faas::FunctionRegistry;
//! use aqua_workflows::apps;
//!
//! let mut registry = FunctionRegistry::new();
//! let app = apps::ml_pipeline(&mut registry);
//! assert_eq!(app.dag.num_stages(), 4);
//! ```

pub mod apps;
pub mod azure;
pub mod graph;
pub mod loadgen;
pub mod trace;

pub use apps::{App, AppKind};
pub use azure::{azure_scale, AzureScaleConfig, AzureWorkload};
pub use graph::SocialGraph;
pub use loadgen::{concurrency_series, make_job, split_history, HistorySplit};
pub use trace::{RateTraceConfig, TraceBundle};
