//! Parallel per-invoker-group event loops with conservative time windows.
//!
//! A sharded run splits the cluster into `n` independent event loops
//! ("shards"): shard `s` owns a contiguous slice of the workers plus every
//! function with `id % n == s`, and runs its own future-event list, RNG
//! stream, and fault streams (forked from the run seed by shard id). The
//! driver below advances all shards in parallel inside conservative time
//! windows and exchanges cross-shard stage handoffs at window boundaries,
//! so the result is a deterministic function of `(workload, seed, n)` —
//! independent of `AQUA_THREADS` and of scheduling order on the host.
//!
//! # Determinism contract
//!
//! * Within a window `[t, bound)` no shard can influence another: tasks of
//!   a function only ever run on its owner shard, and inter-stage handoffs
//!   travel through per-shard outboxes that are drained — in (shard,
//!   emission-order) order — only when every shard has reached `bound`.
//! * `bound` is the earlier of the next pool tick and the next
//!   synchronization-quantum boundary after the earliest pending event, so
//!   windows self-pace: dense regions synchronize every quantum
//!   ([`SYNC_QUANTUM_SECS`] simulated seconds), idle regions fast-forward
//!   tick to tick.
//! * Messages are enqueued on the receiver exactly at `bound`. Every
//!   receiver clock is strictly below `bound`, so delivery never clamps
//!   and cross-shard handoffs quantize to at most one synchronization
//!   window (≤ [`SYNC_QUANTUM_SECS`] s of simulated time).
//! * Pool ticks run on the driver thread between windows: per-function
//!   window stats are summed across shards in registry id order, the
//!   controller sees one global [`PoolObservation`], and its decisions are
//!   applied on each function's owner shard in decision order.
//!
//! `shards(1)` bypasses this module entirely and is bit-identical to the
//! sequential simulator. Each `n >= 2` is its own deterministic model —
//! statistically equivalent but not event-for-event identical to `n = 1`,
//! because fault/noise streams fork per shard and handoffs quantize.

use aqua_sim::{par_map_owned, SimDuration, SimTime};
use aqua_telemetry::{SimEvent, Telemetry};

use crate::metrics::RunReport;
use crate::sim::{
    FaasSimBuilder, FnWindowStats, PoolObservation, PrewarmController, RunState, WorkflowJob,
    POOL_TICK,
};

/// Synchronization quantum: cross-shard handoffs quantize to at most one
/// quantum of simulated time. Wider quanta amortize the per-window barrier
/// (and the max-vs-mean shard load noise it serializes) over more events;
/// narrower quanta tighten cross-shard latency fidelity. Two seconds keeps
/// chain-handoff error well under typical cold-start magnitudes while
/// roughly halving the barrier count of a 1 s quantum.
const SYNC_QUANTUM_SECS: u64 = 2;

/// Floors a time to the synchronization quantum containing it.
fn floor_to_quantum(t: SimTime) -> SimTime {
    let q = 1_000_000 * SYNC_QUANTUM_SECS;
    SimTime::from_micros(t.as_micros() / q * q)
}

/// Runs `jobs` under `controller` across `params.shards` parallel event
/// loops. See the module docs for the synchronization protocol.
pub(crate) fn run_sharded(
    params: &FaasSimBuilder,
    jobs: &[WorkflowJob],
    controller: &mut dyn PrewarmController,
    horizon: SimTime,
) -> RunReport {
    let n = params.shards;
    assert!(n >= 2, "sharded driver needs at least two shards");
    assert!(
        params.workers >= n,
        "need at least one worker per shard ({} workers, {n} shards)",
        params.workers
    );

    // Each shard records telemetry locally; the driver merges the streams
    // time-sorted into the run's sink at the end.
    let mut recorders = Vec::with_capacity(n);
    let mut shards: Vec<RunState<'_>> = Vec::with_capacity(n);
    for s in 0..n {
        let (telemetry, recorder) = if params.telemetry.is_enabled() {
            let (t, r) = Telemetry::recording();
            (t, Some(r))
        } else {
            (Telemetry::disabled(), None)
        };
        recorders.push(recorder);
        shards.push(RunState::new_shard(params, jobs, s, n, telemetry));
    }

    let quantum = SimDuration::from_secs(SYNC_QUANTUM_SECS);
    let mut next_tick = SimTime::ZERO + POOL_TICK;
    let mut pool_snapshots: Vec<(SimTime, f64)> = Vec::new();

    loop {
        let min_peek = shards.iter().filter_map(|s| s.agenda.next_time()).min();
        let event_bound = min_peek
            .filter(|t| *t <= horizon)
            .map(|t| floor_to_quantum(t) + quantum);
        let tick_due = next_tick <= horizon;
        let bound = match (event_bound, tick_due) {
            (Some(eb), true) => eb.min(next_tick),
            (Some(eb), false) => eb,
            (None, true) => next_tick,
            (None, false) => break,
        };

        // Advance every shard to the bound in parallel. Each shard is a
        // deterministic sequential loop over its own state, so the result
        // is identical for any thread count.
        shards = par_map_owned(std::mem::take(&mut shards), |_, mut st| {
            st.advance_until(bound, horizon);
            st
        });

        // Exchange cross-shard handoffs at the boundary, in (sender shard,
        // emission order) — a total order, independent of host scheduling.
        let mut msgs = Vec::new();
        for st in shards.iter_mut() {
            msgs.append(&mut st.outbox);
        }
        for msg in msgs {
            shards[msg.to()].deliver(msg, bound);
        }

        // Pool ticks run globally on the driver thread.
        if tick_due && bound == next_tick {
            let now = next_tick;
            let stats: Vec<FnWindowStats> = params
                .registry
                .iter()
                .map(|(fid, _)| {
                    // A function's tasks and containers live only on its
                    // owner shard, so summing recovers the global stats.
                    let mut acc = shards[0].stats_for(fid);
                    for st in &shards[1..] {
                        let s = st.stats_for(fid);
                        acc.invocations += s.invocations;
                        acc.peak_concurrency += s.peak_concurrency;
                        acc.booting += s.booting;
                        acc.idle += s.idle;
                        acc.busy += s.busy;
                        acc.failed_boots += s.failed_boots;
                    }
                    acc
                })
                .collect();
            let reserved = shards
                .iter()
                .fold(0.0, |acc, st| acc + st.cluster.reserved_memory_mb());
            pool_snapshots.push((now, reserved));
            let obs = PoolObservation { now, stats };
            let decisions = controller.tick(&obs);
            for d in decisions {
                shards[d.function.0 % n].apply_decision(&d, now);
            }
            for st in shards.iter_mut() {
                st.clear_window();
                st.drain_pending(now);
            }
            next_tick += POOL_TICK;
        }
    }

    // Per-shard epilogue — resource-integral finalization and dense
    // per-instance counter folds — is shard-local, so it runs in the same
    // parallel regime as the windows.
    let (shards, folds): (Vec<_>, Vec<_>) = par_map_owned(shards, |_, mut st| {
        st.cluster.finalize(horizon);
        let fold = st.instance_fold();
        (st, fold)
    })
    .into_iter()
    .unzip();

    merge_reports(params, shards, folds, recorders, pool_snapshots)
}

/// Folds the per-shard run states into one [`RunReport`] and replays the
/// per-shard telemetry streams time-sorted into the run's sink.
fn merge_reports(
    params: &FaasSimBuilder,
    mut shards: Vec<RunState<'_>>,
    folds: Vec<(Vec<u32>, Vec<u32>, Vec<bool>)>,
    recorders: Vec<Option<std::sync::Arc<std::sync::Mutex<aqua_telemetry::Recorder>>>>,
    pool_snapshots: Vec<(SimTime, f64)>,
) -> RunReport {
    let n = shards.len();
    let mut report = RunReport {
        pool_snapshots,
        ..RunReport::default()
    };
    let mut inv_lists = Vec::with_capacity(n);
    let mut wf_lists = Vec::with_capacity(n);
    let mut arrivals_fired = 0usize;
    for st in shards.iter_mut() {
        arrivals_fired += st.agenda.arrivals_fired();
        report.cpu_core_seconds += st.cluster.cpu_core_seconds();
        report.memory_gb_seconds += st.cluster.memory_gb_seconds();
        report.busy_memory_gb_seconds += st.cluster.busy_memory_gb_seconds();
        report.events_processed += st.report.events_processed;
        inv_lists.push(std::mem::take(&mut st.report.invocations));
        wf_lists.push(std::mem::take(&mut st.report.workflows));
    }
    // Global record order: time-major, ties broken by shard index. Each
    // shard emits invocation records in its own (monotone) clock order, so
    // a stable pairwise merge tree of the already-sorted lists replaces a
    // full sort — and its inner rounds overlap given enough cores.
    // Workflow records carry true completion times that can trail a
    // shard's clock by up to one handoff window, so they get a stable
    // sort (cheap: the concatenation is nearly sorted).
    report.invocations = merge_sorted(inv_lists, |r| r.started);
    for mut wf in wf_lists {
        report.workflows.append(&mut wf);
    }
    report.workflows.sort_by_key(|w| w.finished);

    // Cold-start / invocation counters accrue on the shards that executed
    // the stages, while workflow records are written on the instance's
    // home shard — recombine them per global instance.
    let mut folds = folds.into_iter();
    let (mut cold, mut invs, mut rejected) = folds.next().expect("at least two shards");
    for (c, i, r) in folds {
        for (acc, v) in cold.iter_mut().zip(c) {
            *acc += v;
        }
        for (acc, v) in invs.iter_mut().zip(i) {
            *acc += v;
        }
        for (acc, v) in rejected.iter_mut().zip(r) {
            *acc |= v;
        }
    }
    for w in &mut report.workflows {
        w.cold_starts = cold[w.instance];
        w.invocations = invs[w.instance];
    }

    // Every arrival within the horizon fired on its home shard and either
    // wrote its workflow record there or is unfinished. Rejection happens
    // on whichever owner shard exhausted a task's retries — possibly more
    // than one per instance, hence the OR-fold rather than a sum of the
    // shards' own counters.
    report.unfinished = arrivals_fired - report.workflows.len();
    report.rejected = rejected.iter().filter(|r| **r).count();

    if params.telemetry.is_enabled() {
        let mut events: Vec<SimEvent> = recorders
            .iter()
            .flatten()
            .flat_map(|r| r.lock().unwrap().events())
            .collect();
        // Stable by-time sort: equal-time events keep shard order, which
        // preserves each shard's causal order (per-container and
        // per-worker sequences never span shards).
        events.sort_by_key(|e| e.at());
        for e in &events {
            params.telemetry.emit(e);
        }
        params.telemetry.flush();
    }
    report
}

/// Merges `n` lists, each already sorted by `key`, into one list sorted by
/// `(key, list index)` — time-major, ties resolved in shard order, exactly
/// the order a stable sort of the concatenation would produce. Uses a
/// bottom-up pairwise merge tree; each round's merges are independent, so
/// they run through [`par_map_owned`].
fn merge_sorted<T: Send, K: Ord>(mut lists: Vec<Vec<T>>, key: impl Fn(&T) -> K + Sync) -> Vec<T> {
    while lists.len() > 1 {
        let mut pairs = Vec::with_capacity(lists.len().div_ceil(2));
        let mut it = lists.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        lists = par_map_owned(pairs, |_, (a, b)| match b {
            Some(b) => merge_pair(a, b, &key),
            None => a,
        });
    }
    lists.pop().unwrap_or_default()
}

/// Stable two-way merge: ties take from `a` (the lower shard indices).
fn merge_pair<T, K: Ord>(a: Vec<T>, b: Vec<T>, key: &(impl Fn(&T) -> K + Sync)) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if key(y) < key(x) {
                    out.push(ib.next().expect("peeked"));
                } else {
                    out.push(ia.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(ia);
                break;
            }
            (None, _) => {
                out.extend(ib);
                break;
            }
        }
    }
    out
}
