//! `aqua-bench` binary: machine-readable micro-benchmarks written to the
//! workspace root.
//!
//! * `cargo run -p aqua-bench --release` (or `-- gp`) — BO engine hot
//!   kernels on both surrogate tiers → `BENCH_GP.json` (`--smoke` →
//!   `target/BENCH_GP_SMOKE.json`). Exits non-zero if `gp_extend` or the
//!   sparse `propose_batch` median regresses past its ceiling (the full
//!   run gates sparse proposals at 1 ms).
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
//! * `cargo run -p aqua-bench --release -- sim` — Azure-scale simulator
//!   throughput over a shard-count sweep → `BENCH_SIM.json` (`--smoke`
//!   → `target/BENCH_SIM_SMOKE.json`). Exits non-zero if best events/sec
//!   falls below a sanity floor.
//! * `cargo run -p aqua-bench --release -- svc` — long-running
//!   control-plane service under the Azure-scale open-loop load driver →
//!   `BENCH_SVC.json` (`--smoke` → `target/BENCH_SVC_SMOKE.json`). Exits
//!   non-zero if the sustained simulated-invocation rate falls below the
//!   floor (100k/s full, 20k/s smoke) or the shutdown leaves orphaned
//!   containers.
//! * `cargo run -p aqua-bench --release -- all` — GP + SIM + SVC records
//!   in one invocation.
//! * `cargo run -p aqua-bench --release -- paper <name>` — one table or
//!   figure of the paper's evaluation (`table1`, `fig09` … `fig18`,
//!   `ablation`) → `target/experiments/<name>.json`; `AQUA_SCALE=full`
//!   for paper-scale runs.
//!
//! The bench records carry `"schema": "aquatope.bench.v1"` and a `"kind"`
//! field (`gp` / `sim` / `svc`) so downstream tooling can dispatch on one
//! tag. Debug timings are not meaningful; always run with `--release`.

fn write_record(name: &str, record: &serde_json::Value) {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let body = serde_json::to_string_pretty(record).expect("record serializes") + "\n";
    std::fs::write(&path, body).expect("write benchmark record");
    println!("[json] {path}");
}

/// Ceilings on the GP record's gated medians, ns/op. Generous multiples
/// of measured release-build numbers (extend at n=256 runs ~0.2 ms;
/// a sparse proposal ~0.5 ms at any n) — they catch order-of-magnitude
/// regressions and accidental debug-profile runs, not noise. The full
/// run's sparse-proposal ceiling is the sub-millisecond acceptance
/// headline itself.
const GP_EXTEND_CEIL_NS: u64 = 20_000_000;
const GP_SPARSE_PROPOSE_CEIL_NS: u64 = 1_000_000;
const GP_SPARSE_PROPOSE_CEIL_NS_SMOKE: u64 = 10_000_000;

fn run_gp(smoke: bool) {
    let record = aqua_bench::gp_bench::run(smoke);
    let name = if smoke {
        "target/BENCH_GP_SMOKE.json"
    } else {
        "BENCH_GP.json"
    };
    write_record(name, &record);
    let (n, extend) = aqua_bench::gp_bench::extend_ns_largest(&record).expect("gp_extend present");
    if extend > GP_EXTEND_CEIL_NS {
        eprintln!("gp_extend regression: {extend} ns at n={n} > {GP_EXTEND_CEIL_NS} ns ceiling");
        std::process::exit(1);
    }
    let (n, propose) =
        aqua_bench::gp_bench::sparse_propose_ns_largest(&record).expect("sparse sweep present");
    let ceil = if smoke {
        GP_SPARSE_PROPOSE_CEIL_NS_SMOKE
    } else {
        GP_SPARSE_PROPOSE_CEIL_NS
    };
    if propose > ceil {
        eprintln!("sparse propose_batch regression: {propose} ns at n={n} > {ceil} ns ceiling");
        std::process::exit(1);
    }
}

/// Sanity floor on the best point of the shard-scaling curve, events/sec.
/// Deliberately far below measured numbers (hundreds of thousands on a
/// release build) — it catches order-of-magnitude regressions and
/// accidental debug-profile runs, not noise.
const SIM_EVENTS_PER_SEC_FLOOR: f64 = 20_000.0;

fn run_sim(smoke: bool) {
    let record = aqua_bench::sim_bench::run(smoke);
    let name = if smoke {
        "target/BENCH_SIM_SMOKE.json"
    } else {
        "BENCH_SIM.json"
    };
    write_record(name, &record);
    let best = aqua_bench::sim_bench::best_events_per_sec(&record);
    if best < SIM_EVENTS_PER_SEC_FLOOR {
        eprintln!(
            "sim throughput sanity floor violated: best {best:.0} events/sec < {SIM_EVENTS_PER_SEC_FLOOR:.0}"
        );
        std::process::exit(1);
    }
}

/// Floor on the service's sustained simulated-invocation rate. The full
/// trace must clear 100k invocations/sec (the acceptance headline); smoke
/// runs are too short to amortize startup, so their floor is lower.
const SVC_INVOCATIONS_PER_SEC_FLOOR: f64 = 100_000.0;
const SVC_INVOCATIONS_PER_SEC_FLOOR_SMOKE: f64 = 20_000.0;

fn run_svc(smoke: bool) {
    let record = aqua_bench::svc_bench::run(smoke);
    let name = if smoke {
        "target/BENCH_SVC_SMOKE.json"
    } else {
        "BENCH_SVC.json"
    };
    write_record(name, &record);
    let rate = aqua_bench::svc_bench::invocations_per_sec(&record);
    let floor = if smoke {
        SVC_INVOCATIONS_PER_SEC_FLOOR_SMOKE
    } else {
        SVC_INVOCATIONS_PER_SEC_FLOOR
    };
    if rate < floor {
        eprintln!("service throughput floor violated: {rate:.0} invocations/sec < {floor:.0}");
        std::process::exit(1);
    }
    let orphans = record["live_containers_at_exit"]
        .as_f64()
        .unwrap_or(f64::MAX);
    if orphans != 0.0 {
        eprintln!("graceful shutdown left {orphans} orphaned containers");
        std::process::exit(1);
    }
}

/// One table or figure of the paper's evaluation, by record name.
fn run_paper(which: Option<&String>) {
    use aqua_bench::*;
    type Experiment = fn(Scale) -> serde_json::Value;
    let experiments: [(&str, Experiment); 12] = [
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
    let found = experiments
        .iter()
        .find(|(name, _)| Some(*name) == which.map(String::as_str));
    let Some((name, run)) = found else {
        let names: Vec<&str> = experiments.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: aqua-bench -- paper <{}>", names.join("|"));
        std::process::exit(2);
    };
    write_json(name, &run(Scale::from_env()));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("gp");
    match which {
        "gp" => run_gp(smoke),
        "matrix" => {
            let service_mode = args
                .iter()
                .position(|a| a == "--mode")
                .and_then(|i| args.get(i + 1))
                .is_some_and(|m| m == "service");
            let (record, violations) = if service_mode {
                aqua_bench::matrix::run_service(smoke)
            } else {
                aqua_bench::matrix::run(smoke)
            };
            let name = if smoke {
                "target/MATRIX_REPORT_SMOKE.json"
            } else {
                "MATRIX_REPORT.json"
            };
            write_record(name, &record);
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("sanity-ordering violation: {v}");
                }
                std::process::exit(1);
            }
        }
        "sim" => run_sim(smoke),
        "svc" => run_svc(smoke),
        "all" => {
            run_gp(smoke);
            run_sim(smoke);
            run_svc(smoke);
        }
        "paper" => run_paper(args.iter().filter(|a| !a.starts_with("--")).nth(1)),
        other => {
            eprintln!(
                "unknown benchmark '{other}' (expected 'gp', 'matrix', 'sim', 'svc', 'all', or 'paper')"
            );
            std::process::exit(2);
        }
    }
}
