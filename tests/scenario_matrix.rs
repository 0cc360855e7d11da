//! Regression gates over the scenario-matrix evaluator:
//!
//! * **golden** small matrix reports, one from the batch simulator
//!   (`tests/golden/matrix_small.json`) and one from the live control
//!   plane (`tests/golden/matrix_small_service.json`), byte-identical;
//!   re-bless with `BLESS=1 cargo test`,
//! * the **zero-rate fault identity**: a faulted cell whose fault plan
//!   has every rate at zero must reproduce its clean diurnal counterpart
//!   bit-for-bit (same arrival stream by construction),
//! * the **sanity ordering** on every scenario: the clairvoyant oracle
//!   never violates QoS more than AQUATOPE, which never violates more
//!   than the fixed keep-alive, each up to the replicate CI widths,
//! * the statistical layer's verdicts on the same matrix, and
//! * the committed `MATRIX_REPORT.json` naming exactly the policy zoo.

use std::collections::BTreeSet;

use aquatope::faas::FaultRates;
use aquatope::scenarios::service_mode::{run_service_cells, ClusterProfile};
use aquatope::scenarios::{
    default_fault_rates, matrix::evaluate_cell, run_matrix, MatrixConfig, PolicyKind, ScenarioKind,
    ScenarioSpec,
};
use aquatope::service::PredictiveConfig;
use aquatope::telemetry::golden::assert_golden;

/// The golden configuration: 2 scenarios × 2 cheap policies × 2 seeds at
/// 30 minutes. No neural nets involved, so it runs in milliseconds and
/// blesses identically everywhere.
fn golden_config() -> MatrixConfig {
    MatrixConfig {
        scenarios: vec![
            ScenarioSpec::new(ScenarioKind::Diurnal, 30, 3.0),
            ScenarioSpec::new(ScenarioKind::Faulted, 30, 3.0),
        ],
        policies: vec![PolicyKind::Fixed, PolicyKind::SlackAware],
        seeds: vec![11, 12],
        shards: 1,
    }
}

#[test]
fn golden_small_matrix_report() {
    assert_golden(
        "matrix_small.json",
        &run_matrix(&golden_config()).to_json_string(),
    );
}

/// The golden configuration's scenarios and seeds on the live control
/// plane's sim-matched cluster, with the fixed, histogram and slack-aware
/// policies (`tests/golden/matrix_small_service.json`, byte-identical).
#[test]
fn golden_small_service_matrix_report() {
    let config = golden_config();
    let report = run_service_cells(
        &config.scenarios,
        &[
            PolicyKind::Fixed,
            PolicyKind::Histogram,
            PolicyKind::SlackAware,
        ],
        &config.seeds,
        PredictiveConfig::default(),
        ClusterProfile::sim_matched(),
    );
    assert_golden("matrix_small_service.json", &report.to_json_string());
}

#[test]
fn zero_rate_faulted_cells_match_clean_counterparts() {
    // The faulted row reuses the diurnal arrival stream, so with every
    // fault rate at zero the whole cell must be bit-identical — the
    // fault machinery must be a strict no-op, not merely statistically
    // invisible.
    let clean = ScenarioSpec::new(ScenarioKind::Diurnal, 20, 3.0);
    let faulted = ScenarioSpec::new(ScenarioKind::Faulted, 20, 3.0);
    for policy in [
        PolicyKind::Fixed,
        PolicyKind::SlackAware,
        PolicyKind::Histogram,
    ] {
        for seed in [1u64, 9] {
            let a = evaluate_cell(&clean, policy, seed, default_fault_rates(), 1);
            let b = evaluate_cell(&faulted, policy, seed, FaultRates::default(), 1);
            assert_eq!(a, b, "{} seed {seed}", policy.name());
        }
    }
}

#[test]
fn nonzero_fault_rates_actually_change_the_cells() {
    // Guard the guard: the identity above would pass vacuously if the
    // faulted row ignored its rates entirely.
    let faulted = ScenarioSpec::new(ScenarioKind::Faulted, 20, 3.0);
    let clean = evaluate_cell(&faulted, PolicyKind::Fixed, 1, FaultRates::default(), 1);
    let hot = evaluate_cell(&faulted, PolicyKind::Fixed, 1, default_fault_rates(), 1);
    assert_ne!(clean, hot, "default fault rates must perturb the run");
}

#[test]
fn sanity_ordering_holds_on_every_scenario() {
    // oracle ≤ aquatope ≤ fixed on QoS violations, per scenario, up to
    // replicate CIs. Deterministic: once green, always green.
    let config = MatrixConfig {
        scenarios: ScenarioSpec::all_kinds(30, 3.0),
        policies: vec![PolicyKind::Fixed, PolicyKind::Aquatope, PolicyKind::Oracle],
        seeds: vec![1, 2, 3],
        shards: 1,
    };
    let report = run_matrix(&config);
    let violations = report.sanity_violations();
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn statistical_layer_verdicts_on_the_sanity_matrix() {
    let config = MatrixConfig {
        scenarios: vec![ScenarioSpec::new(ScenarioKind::Faulted, 30, 3.0)],
        policies: vec![PolicyKind::Fixed, PolicyKind::Oracle],
        seeds: vec![1, 2, 3, 4, 5, 6],
        shards: 1,
    };
    let report = run_matrix(&config);
    let c = report.compare("faulted", "oracle", "fixed").unwrap();
    // Under injected faults the clairvoyant oracle wins every seed: the
    // paired sign test must be able to reach significance at 6 seeds
    // (p = 2/64), and the reversed comparison must not claim a win.
    assert!(c.wins + c.ties + c.losses == 6);
    assert!(
        c.a_beats_b(0.05),
        "oracle should significantly beat fixed under faults: {c:?}"
    );
    let rev = report.compare("faulted", "fixed", "oracle").unwrap();
    assert!(!rev.a_beats_b(0.05));
}

#[test]
fn committed_matrix_report_names_exactly_the_zoo() {
    // Reads the record, reruns nothing: a zoo change that leaves the
    // committed report stale fails here. The vendored JSON shim only
    // writes, so the pretty-printed record is read by its key layout.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("MATRIX_REPORT.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let zoo: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
    let stale = "MATRIX_REPORT.json is stale; regenerate with \
                 `cargo run -p aqua-scenarios --release -- matrix`";

    let sim = between(&text, "\"sim\": {", "\"service\": {");
    let listed: Vec<&str> = between(sim, "\"policies\": [", "]")
        .split('"')
        .skip(1)
        .step_by(2)
        .collect();
    assert_eq!(listed, zoo, "sim.policies: {stale}");

    let service = between(&text, "\"service\": {", "\"drift\": [");
    let cells: BTreeSet<&str> = service
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"policy\": \""))
        .map(|v| v.trim_end_matches([',', '"']))
        .collect();
    assert_eq!(cells, zoo.into_iter().collect(), "service.cells: {stale}");
}

/// The text of `text` after the first `from` and before the next `to`.
fn between<'a>(text: &'a str, from: &str, to: &str) -> &'a str {
    let start = text
        .find(from)
        .unwrap_or_else(|| panic!("no `{from}` in the record"))
        + from.len();
    let len = text[start..]
        .find(to)
        .unwrap_or_else(|| panic!("no `{to}` after `{from}`"));
    &text[start..start + len]
}
