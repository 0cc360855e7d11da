//! `aqua-bench` binary: the paper's evaluation and the policy-zoo
//! scenario matrix, written as JSON records. Performance is measured by
//! `aqua-benchmark`, not here.
//!
//! * `cargo run -p aqua-bench --release -- matrix` — policy zoo ×
//!   scenario matrix → `MATRIX_REPORT.json` (deterministic; `--smoke`
//!   writes the reduced CI variant to `target/MATRIX_REPORT_SMOKE.json`).
//!   Exits non-zero if a sanity-ordering gate (oracle ≤ aquatope ≤ fixed
//!   on QoS violations) regresses. Add `--mode service` to replay every
//!   cell on the live control plane too (multi-tenant admission
//!   installed) and emit the `aquatope.matrix_report.v2` record with
//!   sim-vs-service drift and predictive-rejection verdicts; service
//!   cells are sanity-gated the same way, and full service runs also
//!   fail unless predictive rejection beats depth-only shedding in at
//!   least one stressed cell. Prints only the record's path; gate
//!   violations go to stderr.
//! * `cargo run -p aqua-bench --release -- paper <name>` — one table or
//!   figure of the paper's evaluation (`table1`, `fig09` … `fig18`,
//!   `ablation`) → `target/experiments/<name>.json`. Prints only the
//!   record's path.
//!
//! Anything else — an unknown flag, a missing or unknown `--mode` value,
//! an unknown or extra `paper` argument — prints usage and exits 2.
//! Records land relative to the workspace root; a record that cannot be
//! written exits 1.

use std::process::exit;

use aqua_bench::*;
use aqua_scenarios::{run_service_matrix, MatrixConfig};

type Experiment = fn() -> serde_json::Value;

const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table1", table1::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("ablation", ablation::run),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: aqua-bench matrix [--smoke] [--mode service]\n       aqua-bench paper <{}>",
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
    /// `matrix [--smoke] [--mode service]`.
    Matrix { smoke: bool, service: bool },
    /// `paper <name>`: the index of `name` in [`EXPERIMENTS`].
    Paper(usize),
}

/// Parses the arguments after the program name; `None` is a usage error.
fn parse(args: &[String]) -> Option<Command> {
    match args.split_first() {
        Some((cmd, rest)) if cmd == "matrix" => {
            let (mut smoke, mut service) = (false, false);
            let mut rest = rest.iter().map(String::as_str);
            while let Some(arg) = rest.next() {
                match arg {
                    "--smoke" => smoke = true,
                    "--mode" if rest.next() == Some("service") => service = true,
                    _ => return None,
                }
            }
            Some(Command::Matrix { smoke, service })
        }
        Some((cmd, [name])) if cmd == "paper" => EXPERIMENTS
            .iter()
            .position(|(n, _)| n == name)
            .map(Command::Paper),
        _ => None,
    }
}

/// Runs the policy-zoo scenario matrix (see `aqua-scenarios`), writes its
/// record and exits 1 on any violated gate.
///
/// The sim and, in service mode, the live-plane sanity orderings always
/// gate. Full service runs also need one stressed cell where predictive
/// rejection beats depth-only shedding at the 0.05 sign-test level; smoke's
/// three seeds bottom the sign test out at p = 0.25, so that gate would be
/// vacuously red in CI and is skipped there.
fn run_matrix(smoke: bool, service: bool) {
    let config = if smoke {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::full()
    };
    let (record, violations) = if service {
        let report = run_service_matrix(&config);
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
    } else {
        let report = aqua_scenarios::run_matrix(&config);
        (report.to_json(), report.sanity_violations())
    };
    let path = if smoke {
        "target/MATRIX_REPORT_SMOKE.json"
    } else {
        "MATRIX_REPORT.json"
    };
    write_record(path, &record);
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
        Some(Command::Matrix { smoke, service }) => run_matrix(smoke, service),
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
        for cfg in [MatrixConfig::full(), MatrixConfig::smoke()] {
            assert!(cfg.scenarios.len() >= 5);
            assert!(cfg.policies.len() >= 5);
            assert!(cfg.seeds.len() >= 3);
        }
        assert!(MatrixConfig::full().seeds.len() >= 5);
    }

    #[test]
    fn accepts_every_documented_form() {
        let matrix = |smoke, service| Some(Command::Matrix { smoke, service });
        assert_eq!(parsed("matrix"), matrix(false, false));
        assert_eq!(parsed("matrix --smoke"), matrix(true, false));
        assert_eq!(parsed("matrix --mode service"), matrix(false, true));
        assert_eq!(parsed("matrix --mode service --smoke"), matrix(true, true));
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(parsed(&format!("paper {name}")), Some(Command::Paper(i)));
        }
    }

    #[test]
    fn rejects_anything_else() {
        for line in [
            "",
            "matrix --smok",
            "matrix --smoke extra",
            "matrix --mode",
            "matrix --mode servce",
            "matrix --mode --smoke",
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
