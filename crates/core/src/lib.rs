//! The AQUATOPE controller: QoS-and-uncertainty-aware resource management
//! for multi-stage serverless workflows.
//!
//! This crate assembles the paper's two components into the end-to-end
//! system of Fig. 1:
//!
//! * the **dynamic pre-warmed container pool** (`aqua-pool`'s
//!   [`AquatopePool`]), sized every minute by the hybrid Bayesian NN, and
//! * the **container resource manager** (`aqua-alloc`'s [`AquatopeRm`]),
//!   which searches per-stage CPU/memory/concurrency with customized BO,
//!
//! plus the baseline *frameworks* the paper compares against end to end
//! (§8.3): pure autoscaling, and IceBreaker pre-warming combined with
//! CLITE allocation.
//!
//! # Examples
//!
//! ```no_run
//! use aquatope_core::{run_framework, AquatopeConfig, ClusterSpec, Framework, Workload};
//! use aqua_faas::FunctionRegistry;
//! use aqua_workflows::apps;
//! use aqua_sim::SimTime;
//!
//! let mut registry = FunctionRegistry::new();
//! let app = apps::ml_pipeline(&mut registry);
//! let workload = Workload {
//!     app,
//!     arrivals: (1..200).map(|i| SimTime::from_secs(6 * i)).collect(),
//! };
//! let report = run_framework(
//!     Framework::Aquatope,
//!     &registry,
//!     &[workload],
//!     ClusterSpec::default(),
//!     SimTime::from_secs(1800),
//!     &AquatopeConfig::fast(),
//! );
//! println!("QoS violations: {:.1}%", 100.0 * report.qos_violation_rate);
//! ```

pub mod config;
pub mod controller;
pub mod frameworks;
pub mod report;

pub use config::{AquatopeConfig, ClusterSpec};
pub use controller::{Aquatope, Workload};
pub use frameworks::{run_framework, run_framework_traced, run_framework_with_history, Framework};
pub use report::EndToEndReport;

pub use aqua_alloc::{AquatopeRm, AquatopeRmConfig};
pub use aqua_pool::{AquatopePool, AquatopePoolConfig};
