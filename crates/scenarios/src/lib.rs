//! Head-to-head evaluation harness for the pre-warm policy zoo.
//!
//! The paper's §8 compares AQUATOPE against one baseline at a time on one
//! workload at a time. This crate makes the comparison systematic: a
//! *scenario matrix* runs every policy (fixed keep-alive, histogram and
//! AQUATOPE from the paper's line-up, plus the slack-aware policy and a
//! clairvoyant oracle) over every workload regime (diurnal, bursty, CV-swept, fault-injected,
//! noisy-neighbor) over N seeds, and reduces each cell to QoS-violation
//! rate, provisioned cost, latency quantiles, and cold-start ratio with
//! seed-replicate confidence intervals.
//!
//! On top of the raw cells sits a small statistics layer
//! ([`Comparison`]): paired seed-wise deltas and an exact sign test make
//! "policy A beats policy B on scenario C" a machine-checkable claim
//! rather than a glance at a table, which is what the regression gates in
//! `tests/scenario_matrix.rs` and the CI smoke job check.
//!
//! Everything is deterministic: scenarios derive their arrival processes
//! from forked [`aqua_sim::SimRng`] streams, cells are evaluated through
//! [`aqua_sim::par_map`] (order-preserving, `AQUA_THREADS`-independent),
//! and [`matrix::MatrixReport::to_json`] emits a byte-stable report
//! (`MATRIX_REPORT.json` at the workspace root).
//!
//! The [`service_mode`] module re-runs the same cells against the live
//! control plane (`aqua-service`) with multi-tenant admission and,
//! optionally, predictive rejection enabled, and reports sim-vs-service
//! QoS drift plus predictive-vs-shedding sign-test verdicts as the
//! `aquatope.matrix_report.v2` schema.

pub mod matrix;
pub mod policy;
pub mod scenario;
pub mod service_mode;

pub use aqua_sim::stats::{mean_ci95, sign_test_p, Comparison};
pub use matrix::{run_matrix, Cell, CellMetrics, MatrixConfig, MatrixReport};
pub use policy::{OraclePrewarm, PolicyKind};
pub use scenario::{default_fault_rates, ScenarioInstance, ScenarioKind, ScenarioSpec};
pub use service_mode::{
    evaluate_cell_service, run_service_cells, run_service_matrix, ClusterProfile, DriftRow,
    ServiceMatrixReport,
};
