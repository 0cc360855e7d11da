//! `aqua-scenarios` binary: the paper's evaluation and the policy-zoo
//! scenario matrix, written as JSON records. Performance is measured by
//! `aqua-benchmark`, not here.
//!
//! * `cargo run -p aqua-scenarios --release -- matrix` — policy zoo ×
//!   scenario matrix, replayed on the batch simulator and on the live
//!   control plane (multi-tenant admission installed) →
//!   `MATRIX_REPORT.json`, the deterministic `aquatope.matrix_report.v2`
//!   record with sim-vs-service drift and predictive-rejection verdicts.
//!   Exits non-zero if a sanity-ordering gate (oracle ≤ aquatope ≤ fixed
//!   on QoS violations) regresses on the sim or the service cells, or if
//!   predictive rejection beats depth-only shedding in no stressed cell.
//!   Prints only the record's path; gate violations go to stderr.
//! * `cargo run -p aqua-scenarios --release -- paper <name>` — one table
//!   or figure of the paper's evaluation (`table1`, `fig09` … `fig18`,
//!   `ablation`) → `target/experiments/<name>.json`. Prints only the
//!   record's path.
//!
//! Anything else — an extra argument, an unknown or missing `paper` name
//! — prints usage and exits 2. Records land relative to the workspace
//! root; a record that cannot be written exits 1.

use std::process::exit;

use aqua_scenarios::paper::{write_json, EXPERIMENTS};
use aqua_scenarios::{run_service_matrix, MatrixConfig};

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: aqua-scenarios matrix\n       aqua-scenarios paper <{}>",
        names.join("|")
    );
    exit(2);
}

fn write_record(path: &str, record: &serde_json::Value) {
    match write_json(path, record) {
        Ok(written) => println!("[json] {}", written.display()),
        Err(e) => {
            eprintln!("cannot write record {e}");
            exit(1);
        }
    }
}

/// A parsed command line.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    /// `matrix`.
    Matrix,
    /// `paper <name>`: the index of `name` in [`EXPERIMENTS`].
    Paper(usize),
}

/// Parses the arguments after the program name; `None` is a usage error.
fn parse(args: &[String]) -> Option<Command> {
    match args {
        [cmd] if cmd == "matrix" => Some(Command::Matrix),
        [cmd, name] if cmd == "paper" => EXPERIMENTS
            .iter()
            .position(|(n, _)| n == name)
            .map(Command::Paper),
        _ => None,
    }
}

/// Runs the committed matrix configuration on both engines (see
/// `aqua_scenarios::service_mode`), writes `MATRIX_REPORT.json` and exits
/// 1 on any violated gate: the sim and service sanity orderings, and one
/// stressed cell where predictive rejection beats depth-only shedding at
/// the 0.05 sign-test level.
fn run_matrix() {
    let report = run_service_matrix(&MatrixConfig::full());
    let mut violations = report.sim.sanity_violations();
    violations.extend(report.service_sanity_violations());
    if report.predictive_wins().is_empty() {
        violations.push(
            "predictive: no stressed cell where predictive rejection beats \
             depth-only shedding at the 0.05 sign-test level"
                .to_string(),
        );
    }
    write_record("MATRIX_REPORT.json", &report.to_json());
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("sanity-ordering violation: {v}");
        }
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Some(Command::Matrix) => run_matrix(),
        Some(Command::Paper(i)) => {
            let (name, run) = EXPERIMENTS[i];
            write_record(&format!("target/experiments/{name}.json"), &run());
        }
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Option<Command> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn configs_cover_the_required_matrix() {
        let cfg = MatrixConfig::full();
        assert!(cfg.scenarios.len() >= 5);
        assert!(cfg.policies.len() >= 5);
        assert!(cfg.seeds.len() >= 5);
    }

    #[test]
    fn accepts_every_documented_form() {
        assert_eq!(parsed("matrix"), Some(Command::Matrix));
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(parsed(&format!("paper {name}")), Some(Command::Paper(i)));
        }
    }

    #[test]
    fn rejects_anything_else() {
        for line in [
            "",
            "matrix --smoke",
            "matrix --mode service",
            "matrix extra",
            "paper",
            "paper fig99",
            "paper fig09 fig10",
            "paper fig09 --smoke",
            "fig09",
        ] {
            assert_eq!(parsed(line), None, "{line:?}");
        }
    }
}
