//! `aqua-benchmark`: the repo benchmark.
//!
//! ```text
//! aqua-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! aqua-benchmark --print-spec
//! ```
//!
//! With `--trace 0` it measures the eleven end-to-end metrics of one
//! workload with tracing off; with `--trace 1` it runs the same replays
//! in untraced/traced pairs and reports the per-layer metrics. Everything
//! goes to stdout (the last line is the machine-readable result) except
//! the span log, which goes to the path given with `--spans`.

mod drills;
mod host;
mod layers;
mod measure;
mod outcome;
mod seams;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use serde_json::{json, Value};

use crate::outcome::Replay;
use crate::spans::SpanLog;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = spec::DEV_SEED;
    let mut seconds = spec::RUN_SECONDS;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => spans = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn print_replays(workload: Workload, replays: &[Replay]) {
    println!("replays (wall_s is the timed call only):");
    for r in replays {
        let s = &r.sim;
        println!(
            "  {:<18} prep_s {:.4} wall_s {:.4} offered {} completed {} on_time {} invocations {} cold {} p50_s {:.4} tail_s {:.4} cost_gb_s {:.1}",
            r.label, r.prep_s, r.wall_s, s.offered, s.completed, s.on_time, s.invocations,
            s.cold_waits, s.latency_p50_s, s.latency_tail_s, s.cost_gb_s
        );
    }
    println!(
        "wall_s: {} replays, count x median wall within each variant = {:.4} s (plain sum {:.4} s)",
        replays.len(),
        outcome::wall_secs(replays),
        replays.iter().map(|r| r.wall_s).sum::<f64>()
    );
    let fewest = replays.iter().map(|r| r.sim.completed).min().unwrap_or(0);
    let supported = stats::tail_pick(fewest as usize).map_or("none", |p| p.label);
    println!(
        "tail percentile: p{} reported; the smallest replay completed {fewest} workflows, which supports {supported} (>= {} samples beyond it)",
        workload.tail_pct(),
        stats::MIN_BEYOND
    );
}

fn metrics_json(declared: &[Metric], values: &[(&'static str, f64)]) -> Value {
    Value::Object(
        declared
            .iter()
            .zip(values)
            .map(|(m, (name, value))| {
                assert_eq!(m.name, *name, "metrics are reported in declared order");
                (
                    m.name.to_string(),
                    json!({ "value": *value, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

/// Prints the human-readable metric table and the final result line.
fn report(
    declared: &[Metric],
    values: &[(&'static str, f64)],
    attempted: usize,
    failures: &[String],
    failed_replays: usize,
) -> ExitCode {
    for (m, (_, v)) in declared.iter().zip(values) {
        println!("  {:<36} {:>20} {}", m.name, format!("{v}"), m.unit);
    }
    let finite = values.iter().all(|(_, v)| v.is_finite());
    if !finite {
        println!("FAILED: a metric is not finite");
    }
    for f in failures {
        println!("FAILED: {f}");
    }
    let correct = failures.is_empty() && finite;
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_replays,
        "metrics": metrics_json(declared, values),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let threads = w.threads(host::nproc());
    // Set before any replay starts a worker thread; `par_map` reads it.
    std::env::set_var("AQUA_THREADS", threads.to_string());
    let count = w.replays_for(args.seconds);
    println!(
        "workload {} seed {}{} seconds {} replays {} trace {}",
        w.name(),
        args.seed,
        if w.seeded() { "" } else { " (IGNORED)" },
        args.seconds,
        count,
        u8::from(args.trace)
    );
    println!(
        "host {}",
        serde_json::to_string(host::facts(threads)).expect("facts serialize")
    );
    if w.seeded() {
        println!(
            "seed policy: {} while developing a change; a claim must also hold on the held-out seed {}",
            spec::DEV_SEED,
            spec::HELD_OUT_SEED
        );
    } else {
        println!(
            "seed policy: --seed is IGNORED by {}: it replays one fixed trace (seed {:#x}) on the repo's default platform seed, so its simulated metrics are identical on every seed, there is no held-out run of it, and only its host-time metrics are measured anew",
            w.name(),
            workloads::mix::TRACE_SEED
        );
    }
    println!(
        "load model: open loop in virtual time; arrivals fire at their trace timestamps, latency counts from the due time, generator_lag_s: 0"
    );

    if args.trace {
        return run_traced(args, count);
    }
    let setup = measure::setup(w, args.seed);
    let replays = measure::replays(w, args.seed, count);
    print_replays(w, &replays);
    let mut failures = setup.failures.clone();
    failures.extend(replays.iter().flat_map(|r| r.failures.iter().cloned()));
    let failed_replays = replays.iter().filter(|r| !r.failures.is_empty()).count();
    let values = measure::end_to_end(&setup, &replays);
    println!("end-to-end metrics:");
    report(
        &END_TO_END,
        &values,
        replays.len(),
        &failures,
        failed_replays,
    )
}

fn run_traced(args: &Args, count: usize) -> ExitCode {
    let log = SpanLog::new();
    let run = layers::measure(args.workload, args.seed, count, &log);
    println!("untraced replays of each pair:");
    let plain: Vec<Replay> = run.pairs.iter().map(|p| p.plain.clone()).collect();
    print_replays(args.workload, &plain);
    println!("traced replays of each pair (simulated outcome must be bit-equal):");
    let traced: Vec<Replay> = run.pairs.iter().map(|p| p.traced.clone()).collect();
    print_replays(args.workload, &traced);
    println!(
        "where the traced replays' {:.3} s of wall went, by layer:",
        run.traced_wall_s
    );
    for r in &run.attribution {
        println!(
            "  {}{:<12} {:>9.4} s {:>6.1} %  {}",
            if r.nested { "  " } else { "" },
            r.layer,
            r.secs,
            100.0 * r.secs / run.traced_wall_s,
            r.how
        );
    }
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| log.lock().write_jsonl(&mut f));
        match written {
            Ok(()) => println!("spans: {} written to {path}", log.lock().all().len()),
            Err(e) => {
                eprintln!("aqua-benchmark: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failed = run
        .pairs
        .iter()
        .filter(|p| !p.plain.failures.is_empty() || !p.traced.failures.is_empty())
        .count();
    println!("per-layer metrics (0 where the layer does no work on this workload):");
    report(
        &PER_LAYER,
        &run.values,
        2 * run.pairs.len(),
        &run.failures,
        failed,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-spec"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match parse(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("aqua-benchmark: {e}");
            eprintln!(
                "usage: aqua-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "sim_azure",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::SimAzure,
                seed: 42,
                seconds: 10,
                trace: true,
                spans: None
            }
        );
        assert!(
            parse(&strings(&["--seed", "1"])).is_err(),
            "workload is required"
        );
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--workload", "svc_azure", "--trace", "2"])).is_err());
        assert!(parse(&strings(&["--workload", "svc_azure", "--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--workload"])).is_err());
    }
}
