//! The reproduction's evaluation: the paper's §8 results and the
//! policy-zoo scenario matrix, on one invoker fleet
//! ([`aquatope_core::ClusterSpec::default`]).
//!
//! The [`paper`] module regenerates every table and figure of the paper
//! (Table 1, Figs. 9–18 and the ablations), one JSON record each. The
//! paper compares AQUATOPE against one baseline at a time on one workload
//! at a time; the *scenario matrix* makes that comparison systematic: it
//! runs every policy (fixed keep-alive, histogram and AQUATOPE from the
//! paper's line-up, plus the slack-aware policy and a clairvoyant oracle)
//! over every workload regime (diurnal, bursty, CV-swept, fault-injected,
//! noisy-neighbor) over N seeds, and reduces each cell to QoS-violation
//! rate, provisioned cost, latency quantiles, and cold-start ratio with
//! seed-replicate confidence intervals.
//!
//! On top of the raw cells sits a small statistics layer
//! ([`Comparison`]): paired seed-wise deltas and an exact sign test make
//! "policy A beats policy B on scenario C" a machine-checkable claim
//! rather than a glance at a table, which is what the regression gates in
//! `tests/scenario_matrix.rs` and the `matrix` command check.
//!
//! Everything is deterministic: scenarios derive their arrival processes
//! from forked [`aqua_sim::SimRng`] streams, cells are evaluated through
//! [`aqua_sim::par_map`] (order-preserving, `AQUA_THREADS`-independent),
//! and the reports serialize byte-stably.
//!
//! The [`service_mode`] module re-runs the same cells against the live
//! control plane (`aqua-service`) with multi-tenant admission and,
//! optionally, predictive rejection enabled, and reports sim-vs-service
//! QoS drift plus predictive-vs-shedding sign-test verdicts as the
//! `aquatope.matrix_report.v2` schema — the committed
//! `MATRIX_REPORT.json` at the workspace root.
//!
//! The `aqua-scenarios` binary takes `matrix` or `paper <name>` and
//! writes the corresponding record.

pub mod matrix;
pub mod paper;
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

use aqua_faas::{FaasSim, FaasSimBuilder};
use aquatope_core::ClusterSpec;

/// A batch simulator on the paper's invoker fleet, the one cluster every
/// matrix cell and paper harness runs on.
pub(crate) fn fleet() -> FaasSimBuilder {
    let fleet = ClusterSpec::default();
    FaasSim::builder().workers(
        fleet.workers,
        fleet.cpu_per_worker,
        fleet.memory_mb_per_worker,
    )
}
