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
//!   least one stressed cell.
//! * `cargo run -p aqua-bench --release -- paper <name>` — one table or
//!   figure of the paper's evaluation (`table1`, `fig09` … `fig18`,
//!   `ablation`) → `target/experiments/<name>.json`; `AQUA_SCALE=full`
//!   for paper-scale runs.
//!
//! Anything else prints usage and exits 2. Records land relative to the
//! workspace root; a record that cannot be written exits 1.

use std::process::exit;

use aqua_bench::*;

type Experiment = fn(Scale) -> serde_json::Value;

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

fn run_matrix(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let service_mode = args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .is_some_and(|m| m == "service");
    let (record, violations) = if service_mode {
        matrix::run_service(smoke)
    } else {
        matrix::run(smoke)
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
    match args.first().map(String::as_str) {
        Some("matrix") => run_matrix(&args[1..]),
        Some("paper") => {
            let which = args.get(1).map(String::as_str);
            let Some((name, run)) = EXPERIMENTS.iter().find(|(name, _)| Some(*name) == which)
            else {
                usage()
            };
            write_record(
                &format!("target/experiments/{name}.json"),
                &run(Scale::from_env()),
            );
        }
        _ => usage(),
    }
}
