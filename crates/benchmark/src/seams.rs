//! Seam wrappers: the benchmark's own implementations of the program's
//! public traits, each forwarding to the real implementation and
//! recording a span (and the counts that belong to that boundary) around
//! the call. They change nothing the wrapped object sees or returns, so
//! a replay with them interposed is bit-identical to one without — the
//! traced run checks that on every pair of replays.

use aqua_alloc::{ConfigEvaluator, SampleResult};
use aqua_faas::types::ConfigSpace;
use aqua_faas::{PoolDecision, PoolObservation, PrewarmController};
use aqua_telemetry::{EventSink, InvariantChecker, SimEvent};
use std::sync::{Arc, Mutex};

use crate::spans::SpanLog;

/// Calibration tallies of a pre-warm policy: how its targets compared
/// with the demand realised in the window they were issued for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TargetTally {
    /// (function, window) pairs with a target and a realised next window.
    pub pairs: u64,
    /// Pairs whose realised peak demand was within the target.
    pub covered: u64,
    /// Σ max(0, target − demand) over the pairs, containers.
    pub excess: f64,
    /// Σ demand over the pairs, containers.
    pub demand: f64,
}

impl TargetTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &TargetTally) {
        self.pairs += other.pairs;
        self.covered += other.covered;
        self.excess += other.excess;
        self.demand += other.demand;
    }

    /// Share of pairs whose demand the target covered; `None` when the
    /// policy issued no targets (a keep-alive-only policy).
    pub fn coverage(&self) -> Option<f64> {
        (self.pairs > 0).then(|| self.covered as f64 / self.pairs as f64)
    }

    /// Over-provision as a multiple of demand; `None` without demand.
    pub fn excess_ratio(&self) -> Option<f64> {
        (self.demand > 0.0).then(|| self.excess / self.demand)
    }
}

/// A [`PrewarmController`] that times every tick of the policy it wraps
/// and scores each target against the next window's realised demand.
pub struct TimedPolicy<P: ?Sized> {
    inner: Box<P>,
    log: SpanLog,
    tally: Arc<Mutex<TargetTally>>,
    /// Targets issued at the previous tick, indexed like `obs.stats`.
    last_targets: Vec<Option<usize>>,
}

impl<P: PrewarmController + ?Sized> TimedPolicy<P> {
    /// Wraps `inner` (boxed, so `Box<dyn PrewarmController>` from the
    /// scenario crate's policy zoo fits too); spans go to `log`,
    /// calibration tallies to the returned handle (the wrapper itself is
    /// usually moved into the program under test).
    pub fn new(inner: Box<P>, log: SpanLog) -> (Self, Arc<Mutex<TargetTally>>) {
        let tally = Arc::new(Mutex::new(TargetTally::default()));
        let policy = TimedPolicy {
            inner,
            log,
            tally: Arc::clone(&tally),
            last_targets: Vec::new(),
        };
        (policy, tally)
    }
}

impl<P: PrewarmController + ?Sized> PrewarmController for TimedPolicy<P> {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        let id = self.log.lock().open("pool.tick");
        let decisions = self.inner.tick(obs);
        self.log.lock().close(id);

        // `obs` is the window the previous tick's targets were meant to
        // cover: score them before remembering the new ones.
        if self.last_targets.len() == obs.stats.len() {
            let mut t = self.tally.lock().expect("tally lock is never poisoned");
            for (s, target) in obs.stats.iter().zip(&self.last_targets) {
                let Some(target) = *target else { continue };
                let demand = s.peak_concurrency as f64;
                t.pairs += 1;
                t.covered += u64::from(demand <= target as f64);
                t.excess += (target as f64 - demand).max(0.0);
                t.demand += demand;
            }
        }
        // Every policy in the repo answers in `obs.stats` order; a decision
        // out of that order is left unscored rather than misattributed.
        self.last_targets.clear();
        self.last_targets.resize(obs.stats.len(), None);
        for ((slot, s), d) in self.last_targets.iter_mut().zip(&obs.stats).zip(&decisions) {
            if s.function == d.function {
                *slot = d.prewarm_target;
            }
        }
        decisions
    }
}

/// What one [`TimedEvaluator`] saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalTally {
    /// Evaluations whose mean latency met the QoS target.
    pub feasible: u64,
    /// Evaluations performed.
    pub evals: u64,
}

/// A [`ConfigEvaluator`] that times every `evaluate` of the evaluator it
/// wraps; the gap between consecutive calls is the resource manager's
/// own work (surrogate fit + acquisition).
pub struct TimedEvaluator<E> {
    inner: E,
    log: SpanLog,
    qos_secs: f64,
    tally: EvalTally,
}

impl<E: ConfigEvaluator> TimedEvaluator<E> {
    /// Wraps `inner`, scoring feasibility against `qos_secs`.
    pub fn new(inner: E, qos_secs: f64, log: SpanLog) -> Self {
        TimedEvaluator {
            inner,
            log,
            qos_secs,
            tally: EvalTally::default(),
        }
    }

    /// Counts so far.
    pub fn tally(&self) -> &EvalTally {
        &self.tally
    }
}

impl<E: ConfigEvaluator> ConfigEvaluator for TimedEvaluator<E> {
    fn evaluate(&mut self, u: &[f64]) -> SampleResult {
        let id = self.log.lock().open("alloc.evaluate");
        let out = self.inner.evaluate(u);
        self.log.lock().close(id);
        self.tally.evals += 1;
        self.tally.feasible += u64::from(out.latency <= self.qos_secs);
        out
    }

    fn stages(&self) -> usize {
        self.inner.stages()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
}

/// An [`EventSink`] that does nothing: what attaching telemetry costs
/// before any consumer does work.
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: &SimEvent) {}
}

/// What a [`StampSink`] saw.
#[derive(Debug)]
pub struct StampTally {
    /// Events recorded.
    pub events: u64,
    /// Host nanoseconds (span-log clock) of the first and last event.
    pub first_last_ns: Option<(u64, u64)>,
    /// The invariant checker fed with every event.
    pub checker: InvariantChecker,
    /// The first events of the stream, kept for the serialisation drill.
    pub sample: Vec<SimEvent>,
}

/// Events kept by a [`StampSink`] for the JSONL drill.
pub const STAMP_SAMPLE: usize = 4096;

/// An [`EventSink`] that stamps the host clock on the stream, counts it,
/// and runs the repo's own [`InvariantChecker`] over all of it.
pub struct StampSink {
    epoch: std::time::Instant,
    tally: Arc<Mutex<StampTally>>,
}

impl StampSink {
    /// A sink whose checker models `workers` × `memory_mb_per_worker`.
    pub fn new(workers: usize, memory_mb_per_worker: f64) -> (Self, Arc<Mutex<StampTally>>) {
        let tally = Arc::new(Mutex::new(StampTally {
            events: 0,
            first_last_ns: None,
            checker: InvariantChecker::new(workers, memory_mb_per_worker),
            sample: Vec::with_capacity(STAMP_SAMPLE),
        }));
        let sink = StampSink {
            epoch: std::time::Instant::now(),
            tally: Arc::clone(&tally),
        };
        (sink, tally)
    }
}

impl EventSink for StampSink {
    fn record(&mut self, event: &SimEvent) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut t = self.tally.lock().expect("tally lock is never poisoned");
        t.events += 1;
        t.first_last_ns = Some((t.first_last_ns.map_or(now, |(first, _)| first), now));
        if t.sample.len() < STAMP_SAMPLE {
            t.sample.push(event.clone());
        }
        t.checker.record(event);
    }
}
