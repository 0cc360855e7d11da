//! The policy-zoo scenario matrix — the record behind `MATRIX_REPORT.json`
//! (written by the `aqua-bench` binary, `cargo run -p aqua-bench --release
//! -- matrix`; add `--smoke` for the seconds-long CI variant).
//!
//! Runs every pre-warm policy against every workload scenario over seed
//! replicates (see `aqua-scenarios`), prints the per-cell QoS/cost table,
//! and returns the deterministic report plus any violated sanity-ordering
//! gate (oracle ≤ aquatope ≤ fixed on QoS violations, up to replicate
//! CIs) so the binary can fail CI on a regression.
//!
//! With `--mode service` the same cells are additionally replayed
//! against the live control plane (`aqua-service`) with the scenario's
//! multi-tenant plan installed, plus a stressed predictive-rejection
//! on/off pair on a constrained cluster; the record becomes the
//! `aquatope.matrix_report.v2` schema with the v1 sim report embedded
//! verbatim. Service cells are gated by the same sanity orderings; full
//! (non-smoke) runs additionally require predictive rejection to beat
//! depth-only shedding in at least one stressed bursty/faulted cell at
//! the 0.05 sign-test level — smoke's three seeds bottom the sign test
//! out at p = 0.25, so that gate would be vacuously red in CI.

use aqua_scenarios::{run_matrix, run_service_matrix, Comparison, MatrixConfig, MatrixReport};

use crate::common::print_table;

fn print_cell_table(title: &str, report: &MatrixReport) {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            let m = c.mean();
            let ci = c.ci95();
            vec![
                c.scenario.clone(),
                c.policy.clone(),
                format!("{:.3}±{:.3}", m.qos_violation_rate, ci.qos_violation_rate),
                format!("{:.0}", m.cost_gb_s),
                format!("{:.2}", m.p50_s),
                format!("{:.2}", m.p99_s),
                format!("{:.3}", m.cold_start_ratio),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "scenario",
            "policy",
            "qos_viol",
            "cost GB·s",
            "p50 s",
            "p99 s",
            "cold",
        ],
        &rows,
    );
}

fn print_comparison_table(title: &str, comparisons: &[Comparison]) {
    let wins: Vec<Vec<String>> = comparisons
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                format!("{} vs {}", c.policy_a, c.policy_b),
                format!("{:+.3}", c.mean_delta),
                format!("{}-{}-{}", c.wins, c.ties, c.losses),
                format!("{:.3}", c.p_value),
                if c.a_beats_b(0.05) { "yes" } else { "" }.to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &["scenario", "pair", "Δ mean", "W-T-L", "p", "beats@.05"],
        &wins,
    );
}

/// Runs the matrix and returns `(report json, sanity violations)`.
pub fn run(smoke: bool) -> (serde_json::Value, Vec<String>) {
    let config = if smoke {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::full()
    };
    let report = run_matrix(&config);
    print_cell_table("Scenario matrix (mean over seeds)", &report);
    print_comparison_table(
        "Head-to-head (paired sign test on QoS violations)",
        &report.comparisons(),
    );
    let violations = report.sanity_violations();
    (report.to_json(), violations)
}

/// Runs the matrix in service mode — sim cells, the same cells replayed
/// on the live control plane, and the stressed predictive-rejection
/// on/off pair — and returns `(v2 report json, gate violations)`.
///
/// Gates: the sim and service sanity orderings always; full (non-smoke)
/// runs additionally require at least one stressed cell where predictive
/// rejection beats depth-only shedding at the 0.05 sign-test level.
/// Smoke's three seeds bottom the sign test out at p = 0.25, so that
/// gate would be vacuously red in CI and is skipped there.
pub fn run_service(smoke: bool) -> (serde_json::Value, Vec<String>) {
    let config = if smoke {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::full()
    };
    let report = run_service_matrix(&config);

    print_cell_table("Scenario matrix, simulator (mean over seeds)", &report.sim);
    print_cell_table(
        "Scenario matrix, live control plane (mean over seeds)",
        &report.service,
    );

    let drift_rows: Vec<Vec<String>> = report
        .drift()
        .iter()
        .map(|d| {
            vec![
                d.scenario.clone(),
                d.policy.clone(),
                format!("{:.3}", d.sim_mean),
                format!("{:.3}", d.service_mean),
                format!("{:+.3}±{:.3}", d.delta_mean, d.delta_ci95),
            ]
        })
        .collect();
    print_table(
        "Sim-vs-service QoS-violation drift (service − sim)",
        &["scenario", "policy", "sim", "service", "Δ ± ci95"],
        &drift_rows,
    );

    print_cell_table(
        "Stressed constrained cluster, predictive OFF",
        &report.predictive_off,
    );
    print_cell_table(
        "Stressed constrained cluster, predictive ON",
        &report.predictive_on,
    );
    print_comparison_table(
        "Predictive rejection vs depth-only shedding (paired sign test)",
        &report.predictive_comparisons(),
    );

    let mut violations = report.sim.sanity_violations();
    violations.extend(report.service_sanity_violations());
    if !smoke && report.predictive_wins().is_empty() {
        violations.push(
            "predictive: no stressed cell where predictive rejection beats \
             depth-only shedding at the 0.05 sign-test level"
                .to_string(),
        );
    }
    (report.to_json(), violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cover_the_required_matrix() {
        for cfg in [MatrixConfig::full(), MatrixConfig::smoke()] {
            assert!(cfg.scenarios.len() >= 5);
            assert!(cfg.policies.len() >= 5);
            assert!(cfg.seeds.len() >= 3);
        }
        assert!(MatrixConfig::full().seeds.len() >= 5);
    }
}
