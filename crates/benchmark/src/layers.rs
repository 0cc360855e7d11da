//! The traced run: the same replays as the untraced run, in
//! untraced/traced pairs, plus the drills — folded into the per-layer
//! metrics and a table of where each layer's share of the wall went.
//!
//! Nothing here reaches inside the program: layer time is either the
//! duration of a span one of the benchmark's own wrappers recorded
//! (`pool.tick`, `alloc.optimize`, `alloc.evaluate`, `core.plan`,
//! `core.online`), or a drill's per-operation cost multiplied by the count
//! the replay itself reported. The second kind is an estimate and is
//! labelled so.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use aqua_telemetry::SimEvent;

use crate::drills::{self, Values};
use crate::host::peak_rss_mb;
use crate::measure::setup;
use crate::outcome::{add_counts, Counts, Replay};
use crate::seams::{NullSink, StampSink, StampTally, TargetTally};
use crate::spans::{SpanLog, Spans};
use crate::spec::PER_LAYER;
use crate::workloads::{azure, mix, overload, Cell, Probe, Size, Workload};

/// One untraced/traced pair of the same cell.
pub struct Pair {
    /// The replay with nothing interposed.
    pub plain: Replay,
    /// The replay with the seam wrappers interposed.
    pub traced: Replay,
}

/// One row of the layer-attribution table.
pub struct LayerTime {
    /// Layer (crate) the time is attributed to.
    pub layer: &'static str,
    /// Seconds of the traced replays' wall.
    pub secs: f64,
    /// How the number was obtained: a seam span, or a drill estimate.
    pub how: &'static str,
    /// A breakdown of the row above it, not added to the total.
    pub nested: bool,
}

fn row(layer: &'static str, secs: f64, how: &'static str) -> LayerTime {
    LayerTime {
        layer,
        secs,
        how,
        nested: false,
    }
}

/// Everything the traced run measured.
pub struct TraceRun {
    /// Per-layer metric values in `BENCHMARK.json` order.
    pub values: Vec<(&'static str, f64)>,
    /// The pairs, in cell order.
    pub pairs: Vec<Pair>,
    /// Estimated seconds of the traced replays' wall per layer.
    pub attribution: Vec<LayerTime>,
    /// Summed wall of the traced replays, host seconds.
    pub traced_wall_s: f64,
    /// Correctness failures (pair mismatches included).
    pub failures: Vec<String>,
}

fn sum_counts<'a>(replays: impl Iterator<Item = &'a Replay>) -> Counts {
    let mut total = Counts::new();
    for r in replays {
        add_counts(&mut total, &r.counts);
    }
    total
}

fn quantile_ms(durations_s: &[f64], q: f64) -> f64 {
    aqua_linalg::quantile(durations_s, q) * 1e3
}

/// Gaps between consecutive `alloc.evaluate` spans under one
/// `alloc.optimize`: the resource manager's own work per iteration
/// (surrogate fit plus acquisition).
fn bo_iteration_gaps(spans: &Spans) -> Vec<f64> {
    let all = spans.all();
    let mut gaps = Vec::new();
    for (id, parent) in all.iter().enumerate() {
        if parent.name != "alloc.optimize" {
            continue;
        }
        let evals: Vec<_> = all
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == "alloc.evaluate")
            .collect();
        for pair in evals.windows(2) {
            gaps.push((pair[1].start_ns - pair[0].end_ns) as f64 * 1e-9);
        }
    }
    gaps
}

/// Runs a stamped replay of `cell` and returns what the sink saw.
fn stamped_replay(
    workload: Workload,
    cell: Cell,
    checker: (usize, f64),
) -> (Replay, Arc<Mutex<StampTally>>) {
    let (sink, tally) = StampSink::new(checker.0, checker.1);
    let mut probe = Probe::new(SpanLog::new());
    probe.sink = Some(Box::new(sink));
    let replay = workload.replay(cell, Size::Full, Some(&mut probe));
    (replay, tally)
}

/// The cluster the invariant checker models for `workload`: the batch
/// simulator's workers, or one worker holding the live pool's budget.
fn checker_cluster(workload: Workload) -> (usize, f64) {
    match workload {
        Workload::SvcAzure => (1, aqua_service::WarmPoolConfig::default().memory_budget_mb),
        Workload::SvcOverload => (
            1,
            aqua_scenarios::ClusterProfile::constrained().memory_budget_mb,
        ),
        Workload::SimAzure => (azure::SIM_CLUSTER.0, azure::SIM_CLUSTER.2 as f64),
        Workload::AquatopeMix => {
            let c = aquatope_core::ClusterSpec::default();
            (c.workers, c.memory_mb_per_worker as f64)
        }
    }
}

/// Telemetry numbers of one stamped stream: the whole stream goes
/// through the repo's `InvariantChecker`, and whatever it flags is the
/// number reported.
fn telemetry_values(tally: &StampTally, invocations: u64, out: &mut Out) {
    out.insert(
        "telemetry.events_per_inv",
        tally.events as f64 / invocations as f64,
    );
    if let Some((first, last)) = tally.first_last_ns {
        println!(
            "telemetry stream: {} events over {:.3} host s, {} checked by InvariantChecker",
            tally.events,
            (last - first) as f64 * 1e-9,
            tally.checker.events_seen()
        );
    }
    let violations = tally.checker.violations();
    out.insert("telemetry.invariant_violations", violations.len() as f64);
    if !violations.is_empty() {
        println!(
            "NOT MET: telemetry.invariant_violations must be 0 and is {}; the first of them:",
            violations.len()
        );
    }
    for v in violations.iter().take(5) {
        println!("  invariant violation: {v}");
    }
}

use Workload::{AquatopeMix, SimAzure, SvcAzure, SvcOverload};

/// The workloads that run the live plane, and the ones that run the
/// batch simulator.
const LIVE: &[Workload] = &[SvcAzure, SvcOverload];
const BATCH: &[Workload] = &[SimAzure, AquatopeMix];

/// Declared per-layer metrics that only some workloads produce; every
/// other declared metric is produced by all four. A traced run reports 0
/// for a metric its workload is not listed for here, and panics on
/// anything else that does not line up: a declared metric nobody
/// measured, or a measured one that is undeclared or not listed for the
/// workload.
const ONLY_ON: [(&str, &[Workload]); 31] = [
    ("faas.events", BATCH),
    ("faas.unfinished", BATCH),
    ("faas.ns_per_event", BATCH),
    ("faas.rss_mb_per_minv", &[SimAzure]),
    ("faas.shard2_wall_ratio", &[SimAzure]),
    ("service.events", LIVE),
    ("service.ns_per_event", LIVE),
    ("service.demand_boots", LIVE),
    ("service.prewarm_boots", LIVE),
    ("service.semaphore_deferrals", LIVE),
    ("service.memory_deferrals", LIVE),
    ("service.share_deferrals", LIVE),
    ("service.shed", LIVE),
    ("service.predictive_rejects", LIVE),
    ("service.refits", LIVE),
    ("service.absorbed", LIVE),
    ("service.tier_switches", LIVE),
    ("service.warm_served_share", LIVE),
    ("service.idle_run_s", &[SvcOverload]),
    ("service.tick_floor_share", &[SvcOverload]),
    ("telemetry.null_sink_overhead_share", &[SvcAzure]),
    (
        "pool.target_coverage",
        &[SvcAzure, AquatopeMix, SvcOverload],
    ),
    ("pool.target_excess", &[SvcAzure, AquatopeMix, SvcOverload]),
    ("alloc.evals", &[AquatopeMix]),
    ("alloc.search_s", &[AquatopeMix]),
    ("alloc.bo_iter_ms_p50", &[AquatopeMix]),
    ("alloc.bo_iter_ms_p95", &[AquatopeMix]),
    ("alloc.evaluate_ms_p50", &[AquatopeMix]),
    ("alloc.feasible_share", &[AquatopeMix]),
    ("core.plan_s", &[AquatopeMix]),
    ("core.online_s", &[AquatopeMix]),
];

/// Whether `workload` produces the declared metric `name`.
fn produces(workload: Workload, name: &str) -> bool {
    ONLY_ON
        .iter()
        .find(|(n, _)| *n == name)
        .is_none_or(|(_, on)| on.contains(&workload))
}

/// Per-layer values gathered so far, by declared name.
#[derive(Default)]
struct Out(BTreeMap<&'static str, f64>);

impl Out {
    /// Records a measured value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not declared in [`PER_LAYER`] or was already
    /// recorded: a mistyped name must not quietly turn into a 0.
    fn insert(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is measured but not declared"
        );
        let first = self.0.insert(name, value).is_none();
        assert!(first, "{name} is measured twice");
    }

    /// A value recorded earlier.
    fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} has not been measured"))
    }

    /// Every declared metric in `BENCHMARK.json` order: the measured
    /// value, or 0 where [`ONLY_ON`] says `workload` has none.
    fn declared(&self, workload: Workload) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = match (self.0.get(m.name), produces(workload, m.name)) {
                    (Some(v), true) => *v,
                    (None, false) => 0.0,
                    (None, true) => panic!(
                        "{} is declared for {} but was not measured",
                        m.name,
                        workload.name()
                    ),
                    (Some(_), false) => panic!(
                        "{} was measured on {}, which ONLY_ON does not list for it",
                        m.name,
                        workload.name()
                    ),
                };
                (m.name, value)
            })
            .collect()
    }
}

/// The untraced/traced pairs of a traced run and what their probes saw.
struct Paired {
    pairs: Vec<Pair>,
    /// Calibration tallies of the wrapped policies, all traced replays.
    targets: TargetTally,
    /// The stamping sink `aquatope_mix`'s traced replay carried: it is too
    /// long to replay a third time just to stream telemetry.
    mix_stamp: Option<Arc<Mutex<StampTally>>>,
    /// `VmHWM` growth over the pairs, MiB.
    rss_growth_mb: f64,
    failures: Vec<String>,
}

fn run_pairs(workload: Workload, cells: &[Cell], log: &SpanLog) -> Paired {
    let mut paired = Paired {
        pairs: Vec::new(),
        targets: TargetTally::default(),
        mix_stamp: None,
        rss_growth_mb: 0.0,
        failures: Vec::new(),
    };
    let rss_before = peak_rss_mb();
    for (i, &cell) in cells.iter().enumerate() {
        log.set_replay(i as u32);
        let mut traced = || {
            let mut probe = Probe::new(log.clone());
            if workload == Workload::AquatopeMix {
                let (workers, mem) = checker_cluster(workload);
                let (sink, tally) = StampSink::new(workers, mem);
                probe.sink = Some(Box::new(sink));
                paired.mix_stamp = Some(tally);
            }
            let replay = workload.replay(cell, Size::Full, Some(&mut probe));
            paired.targets.add(&probe.targets);
            replay
        };
        // Alternate which side runs first, so neither always inherits
        // the other's warm caches.
        let pair = if i % 2 == 0 {
            let plain = workload.replay(cell, Size::Full, None);
            let traced = traced();
            Pair { plain, traced }
        } else {
            let traced = traced();
            let plain = workload.replay(cell, Size::Full, None);
            Pair { plain, traced }
        };
        if pair.plain.sim != pair.traced.sim {
            paired.failures.push(format!(
                "{}: traced replay diverged from the untraced one: {:?} vs {:?}",
                pair.plain.label, pair.traced.sim, pair.plain.sim
            ));
        }
        paired.failures.extend(pair.plain.failures.iter().cloned());
        paired.failures.extend(pair.traced.failures.iter().cloned());
        paired.pairs.push(pair);
    }
    paired.rss_growth_mb = peak_rss_mb() - rss_before;
    paired
}

/// What the seam spans of the traced replays add up to.
struct SeamTimes {
    tick_s: Vec<f64>,
    tick_busy_s: f64,
    optimize_self_s: f64,
    evaluate_s: f64,
    online_self_s: f64,
}

/// Folds the span log into the seam metrics: the pool's on every
/// workload, the resource manager's and the framework phases' on
/// `aquatope_mix`, the only workload that runs them.
fn seam_metrics(
    workload: Workload,
    log: &SpanLog,
    targets: &TargetTally,
    out: &mut Out,
) -> SeamTimes {
    let spans = log.lock();
    let tick_s: Vec<f64> = spans.named("pool.tick").map(|s| s.secs()).collect();
    let times = SeamTimes {
        tick_busy_s: spans.total_secs("pool.tick"),
        optimize_self_s: spans.self_secs("alloc.optimize"),
        evaluate_s: spans.total_secs("alloc.evaluate"),
        online_self_s: spans.self_secs("core.online"),
        tick_s,
    };
    println!("samples: pool.tick {}", times.tick_s.len());
    out.insert("pool.ticks", times.tick_s.len() as f64);
    out.insert("pool.tick_busy_s", times.tick_busy_s);
    out.insert("pool.tick_ms_p50", quantile_ms(&times.tick_s, 0.5));
    out.insert("pool.tick_ms_p95", quantile_ms(&times.tick_s, 0.95));
    // `sim_azure`'s provider-default policy only sets keep-alives: it
    // issues no targets to score.
    if let (Some(coverage), Some(excess)) = (targets.coverage(), targets.excess_ratio()) {
        out.insert("pool.target_coverage", coverage);
        out.insert("pool.target_excess", excess);
    }
    if workload == AquatopeMix {
        let eval_s: Vec<f64> = spans.named("alloc.evaluate").map(|s| s.secs()).collect();
        let gaps_s = bo_iteration_gaps(&spans);
        println!(
            "samples: alloc.evaluate {} bo iterations {}",
            eval_s.len(),
            gaps_s.len()
        );
        out.insert("alloc.search_s", spans.total_secs("alloc.optimize"));
        out.insert("alloc.bo_iter_ms_p50", quantile_ms(&gaps_s, 0.5));
        out.insert("alloc.bo_iter_ms_p95", quantile_ms(&gaps_s, 0.95));
        out.insert("alloc.evaluate_ms_p50", quantile_ms(&eval_s, 0.5));
        out.insert("core.plan_s", spans.total_secs("core.plan"));
        out.insert("core.online_s", spans.total_secs("core.online"));
    }
    times
}

/// The one-off twin replay of the first cell: a null sink on
/// `svc_azure`, two shards on `sim_azure`, zero arrivals on
/// `svc_overload`.
fn twin_replay(workload: Workload, first: Cell, plain_wall_s: f64, out: &mut Out) {
    match workload {
        SvcAzure => {
            let mut probe = Probe::new(SpanLog::new());
            probe.sink = Some(Box::new(NullSink));
            let with_sink = azure::svc_replay(first.seed, Size::Full, Some(&mut probe));
            out.insert(
                "telemetry.null_sink_overhead_share",
                with_sink.wall_s / plain_wall_s - 1.0,
            );
        }
        SimAzure => {
            let sharded = azure::sim_replay(first.seed, Size::Full, 2, None);
            out.insert("faas.shard2_wall_ratio", sharded.wall_s / plain_wall_s);
        }
        SvcOverload => {
            let idle = overload::replay_with(first, Size::Full, false, None);
            out.insert("service.idle_run_s", idle.wall_s);
            out.insert("service.tick_floor_share", idle.wall_s / plain_wall_s);
        }
        AquatopeMix => {}
    }
}

/// Runs every drill into `out`; `sample` feeds the JSONL one.
fn run_drills(
    workload: Workload,
    seed: u64,
    counts: &Counts,
    sample: &[SimEvent],
    log: &SpanLog,
    out: &mut Out,
) {
    // What the drills are sized by: the functions a filler pass scans, and
    // the completions one sparse-tier refit folds. `svc_overload` reports
    // both itself (the scenario chain's three functions); elsewhere the
    // Azure population's function count, and the 4 completions a 5 s
    // refit interval brings the overloaded plane.
    let (functions, pending_per_refit) = match workload {
        SvcOverload => {
            let per_refit = counts["service.absorbed"] / counts["service.refits"];
            (3, per_refit.round().max(1.0) as usize)
        }
        _ => (1350, 4),
    };
    println!(
        "drills: filler pass over {functions} functions, {pending_per_refit} completions per sparse refit"
    );
    let drilled: Values = log.span("drills", || {
        let mut v = drills::workflows(seed);
        v.extend(drills::sim());
        v.extend(drills::faas());
        v.extend(drills::service(functions));
        v.extend(drills::telemetry(sample));
        v.extend(drills::forecast());
        v.extend(drills::nn());
        v.extend(drills::linalg());
        v.extend(drills::gp());
        v.extend(drills::alloc(seed, pending_per_refit));
        v.extend(drills::scenarios(seed));
        v
    });
    for (name, value) in drilled {
        out.insert(name, value);
    }
}

/// What the attribution table is computed from: one method throughout, a
/// seam span where a wrapper sits on the boundary and drill × count where
/// none does.
struct Attribution<'a> {
    workload: Workload,
    /// Counts the traced replays reported, summed.
    counts: &'a Counts,
    /// The measured values (the drills among them).
    out: &'a Out,
    seams: &'a SeamTimes,
    /// Totals over the traced replays.
    sim_secs: f64,
    invocations: f64,
    offered: f64,
}

impl Attribution<'_> {
    /// Seconds the event queue accounts for: events × the drill at the
    /// depth the engine holds the queue at.
    fn event_queue_secs(&self) -> f64 {
        let (events, ns) = match self.workload {
            SvcAzure | SvcOverload => (self.counts["service.events"], "sim.eq_ns_d4k"),
            SimAzure => (self.counts["faas.events"], "sim.eq_ns_d256k"),
            AquatopeMix => (self.counts["faas.events"], "sim.eq_ns_d4k"),
        };
        events * self.out.get(ns) * 1e-9
    }

    /// Rows for a live-plane workload: drill × count estimates.
    fn service_rows(&self) -> [LayerTime; 3] {
        let count = |name: &str| self.counts[name];
        let drill = |name: &str| self.out.get(name);
        let boots = count("service.demand_boots") + count("service.prewarm_boots");
        // Both live workloads run the filler at the plane's default cadence.
        let filler_interval = aqua_service::ServiceConfig::default().filler_interval;
        let filler_ticks = self.sim_secs / filler_interval.as_secs_f64();
        let miss_only_ns = (drill("service.pool_miss_ns")
            - drill("service.pool_hit_ns")
            - drill("faas.boot_kill_ns"))
        .max(0.0);
        // Each refit drill is sized by the workload that uses its tier.
        let refit_ms = match self.workload {
            SvcOverload => drill("alloc.online_refit_ms_sparse"),
            _ => drill("alloc.online_refit_ms_exact"),
        };
        [
            row(
                "faas",
                (self.invocations * drill("faas.exec_sample_ns")
                    + boots * drill("faas.boot_kill_ns"))
                    * 1e-9,
                "estimate: execs x exec_sample_ns + boots x boot_kill_ns",
            ),
            row(
                "service",
                (count("service.warm_hits") * drill("service.pool_hit_ns")
                    + boots * miss_only_ns
                    + self.offered * drill("service.admit_finish_ns")
                    + filler_ticks * drill("service.filler_tick_us") * 1e3)
                    * 1e-9,
                "estimate: pool hit/miss + admission + filler passes x drills",
            ),
            row(
                "alloc+gp",
                count("service.refits") * refit_ms * 1e-3
                    + count("service.observed") * drill("alloc.online_observe_ns") * 1e-9
                    + count("service.predictive_rejects") * drill("alloc.online_predict_us") * 1e-6,
                "estimate: refits x refit_ms + observes + (rejects as a floor on predicts)",
            ),
        ]
    }

    /// Rows for `aquatope_mix`: every phase sits under a seam.
    fn mix_rows(&self) -> [LayerTime; 3] {
        // Training ticks are the ones that take about as long as a fit;
        // every tick forecasts every function. Both fan out over the
        // workload's threads.
        let threads = self.workload.threads(crate::host::nproc()) as f64;
        let train_s = self.out.get("forecast.hybrid_train_ms") * 1e-3;
        let ticks = &self.seams.tick_s;
        let rounds = ticks.iter().filter(|t| **t > train_s / 2.0).count() as f64;
        let per_function = rounds * train_s
            + ticks.len() as f64 * self.out.get("forecast.hybrid_predict_ms") * 1e-3;
        [
            LayerTime {
                layer: "forecast+nn",
                secs: per_function * mix::FUNCTIONS as f64 / threads,
                how: "estimate, part of pool: (training rounds x train_ms + ticks x predict_ms) x functions / threads",
                nested: true,
            },
            row(
                "alloc+gp",
                self.seams.optimize_self_s,
                "seam: alloc.optimize self time",
            ),
            row(
                "faas",
                self.seams.evaluate_s + self.seams.online_self_s,
                "seam: alloc.evaluate spans + core.online self time",
            ),
        ]
    }

    fn rows(&self) -> Vec<LayerTime> {
        let mut rows = vec![
            row("pool", self.seams.tick_busy_s, "seam: pool.tick spans"),
            row(
                "sim",
                self.event_queue_secs(),
                "estimate: events x drill eq_ns",
            ),
        ];
        match self.workload {
            SvcAzure | SvcOverload => rows.extend(self.service_rows()),
            AquatopeMix => {
                let [nested, alloc, faas] = self.mix_rows();
                rows.insert(1, nested);
                rows.extend([alloc, faas]);
            }
            // The batch loop has no seam or drill beyond its event queue.
            SimAzure => {}
        }
        rows
    }
}

/// Counts a replay's report carries under a declared per-layer name
/// (the other keys of [`Counts`] only feed the attribution).
const REPORTED_COUNTS: [&str; 14] = [
    "faas.events",
    "faas.unfinished",
    "service.events",
    "service.demand_boots",
    "service.prewarm_boots",
    "service.semaphore_deferrals",
    "service.memory_deferrals",
    "service.share_deferrals",
    "service.shed",
    "service.predictive_rejects",
    "service.refits",
    "service.absorbed",
    "service.tier_switches",
    "alloc.evals",
];

/// The traced run of `workload`: `setup`, then half of `replays` cells
/// from `seed` (in whole seeds), each replayed untraced and traced.
pub fn measure(workload: Workload, seed: u64, replays: usize, log: &SpanLog) -> TraceRun {
    let mut failures = setup(workload, seed).failures;
    let cells = workload.cells(seed, workload.whole_seeds(replays / 2));
    let paired = run_pairs(workload, &cells, log);
    failures.extend(paired.failures);
    let pairs = paired.pairs;

    let mut out = Out::default();
    let plain_wall: f64 = pairs.iter().map(|p| p.plain.wall_s).sum();
    let traced_wall: f64 = pairs.iter().map(|p| p.traced.wall_s).sum();
    let counts = sum_counts(pairs.iter().map(|p| &p.traced));
    let invocations: u64 = pairs.iter().map(|p| p.traced.sim.invocations).sum();
    out.insert("bench.trace_overhead_share", traced_wall / plain_wall - 1.0);

    // --- Counts the replays reported, and what follows from them. ---
    for name in REPORTED_COUNTS {
        if let Some(value) = counts.get(name) {
            out.insert(name, *value);
        }
    }
    let seams = seam_metrics(workload, log, &paired.targets, &mut out);
    match workload {
        SvcAzure | SvcOverload => {
            out.insert(
                "service.warm_served_share",
                1.0 - counts["service.demand_boots"] / invocations as f64,
            );
            out.insert(
                "service.ns_per_event",
                plain_wall * 1e9 / counts["service.events"],
            );
        }
        SimAzure => {
            let largest = pairs.iter().map(|p| p.plain.sim.invocations).max();
            out.insert(
                "faas.rss_mb_per_minv",
                paired.rss_growth_mb / (largest.expect("at least one pair") as f64 / 1e6),
            );
            out.insert(
                "faas.ns_per_event",
                plain_wall * 1e9 / counts["faas.events"],
            );
        }
        AquatopeMix => {
            out.insert(
                "faas.ns_per_event",
                seams.online_self_s * 1e9 / counts["faas.events"],
            );
            out.insert(
                "alloc.feasible_share",
                counts["alloc.feasible"] / counts["alloc.evals"],
            );
        }
    }

    // --- The twin replay of the first cell, and its telemetry stream. ---
    twin_replay(workload, cells[0], pairs[0].plain.wall_s, &mut out);
    let (stamp, streamed_invocations) = match paired.mix_stamp {
        Some(tally) => (tally, invocations),
        None => {
            let (replay, tally) = stamped_replay(workload, cells[0], checker_cluster(workload));
            if replay.sim != pairs[0].plain.sim {
                failures.push(format!("{}: telemetry changed the outcome", replay.label));
            }
            (tally, replay.sim.invocations)
        }
    };
    let sample = {
        let mut stamp = stamp.lock().expect("tally lock is never poisoned");
        telemetry_values(&stamp, streamed_invocations, &mut out);
        std::mem::take(&mut stamp.sample)
    };

    run_drills(workload, seed, &counts, &sample, log, &mut out);

    let attribution = Attribution {
        workload,
        counts: &counts,
        out: &out,
        seams: &seams,
        sim_secs: pairs.iter().map(|p| p.traced.sim.sim_secs).sum(),
        invocations: invocations as f64,
        offered: pairs.iter().map(|p| p.traced.sim.offered).sum::<u64>() as f64,
    };
    let eq_share = attribution.event_queue_secs() / traced_wall;
    let attribution = attribution.rows();
    let attributed: f64 = attribution
        .iter()
        .filter(|r| !r.nested)
        .map(|r| r.secs)
        .sum();
    out.insert("sim.eq_share", eq_share);
    out.insert("bench.attributed_share", attributed / traced_wall);

    TraceRun {
        values: out.declared(workload),
        pairs,
        attribution,
        traced_wall_s: traced_wall,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bo_gaps_pair_consecutive_evaluations_of_one_search() {
        let log = SpanLog::new();
        for _ in 0..2 {
            log.span("alloc.optimize", || {
                for _ in 0..3 {
                    log.span("alloc.evaluate", || ());
                }
            });
        }
        assert_eq!(
            bo_iteration_gaps(&log.lock()).len(),
            4,
            "two gaps per search"
        );
    }

    #[test]
    fn only_on_names_are_declared_and_listed_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, on) in ONLY_ON {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not declared"
            );
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(!on.is_empty() && on.len() < Workload::ALL.len(), "{name}");
        }
        assert!(produces(SvcAzure, "pool.ticks"), "unlisted: all workloads");
        assert!(produces(SimAzure, "faas.events"));
        assert!(!produces(SvcAzure, "faas.events"));
    }

    #[test]
    fn declared_values_are_strict_both_ways() {
        let mut out = Out::default();
        for m in PER_LAYER.iter().filter(|m| produces(SimAzure, m.name)) {
            out.insert(m.name, 1.0);
        }
        let values = out.declared(SimAzure);
        assert_eq!(values.len(), PER_LAYER.len());
        for (name, v) in values {
            assert_eq!(v, if produces(SimAzure, name) { 1.0 } else { 0.0 });
        }
        // The same values are not `svc_azure`'s: some are missing there
        // and some are not its to report.
        assert!(std::panic::catch_unwind(|| out.declared(SvcAzure)).is_err());
        let undeclared = std::panic::catch_unwind(|| Out::default().insert("faas.evnts", 1.0));
        assert!(undeclared.is_err(), "a mistyped name must not vanish");
    }

    #[test]
    fn quantiles_are_in_milliseconds() {
        assert_eq!(quantile_ms(&[0.002], 0.5), 2.0);
    }
}
