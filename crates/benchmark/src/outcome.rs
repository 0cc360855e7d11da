//! What one replay produced, and how replays fold into the eleven
//! end-to-end metrics.
//!
//! Everything in [`SimOutcome`] is simulated and therefore a pure
//! function of the seed; the host-side numbers (`prep_s`, `wall_s`) are
//! the only noisy ones.

use std::collections::BTreeMap;

use aqua_linalg::mean;

use crate::stats::{median, supports};

/// The simulated result of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Workflows the trace offered.
    pub offered: u64,
    /// Workflows that completed every stage.
    pub completed: u64,
    /// Completed workflows that met their SLO.
    pub on_time: u64,
    /// Stage invocations executed.
    pub invocations: u64,
    /// Invocations that waited on a demand boot.
    pub cold_waits: u64,
    /// Provisioned memory-time, idle warm containers included, GB·s.
    pub cost_gb_s: f64,
    /// Median workflow latency over completed workflows, simulated s.
    pub latency_p50_s: f64,
    /// Tail workflow latency at the workload's fixed percentile.
    pub latency_tail_s: f64,
    /// Simulated seconds the replay covered.
    pub sim_secs: f64,
}

/// Layer counts a replay reports, keyed by per-layer metric name; summed
/// across replays.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `from` into `into`, key by key.
pub fn add_counts(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        *into.entry(k).or_insert(0.0) += v;
    }
}

/// One replay: its simulated outcome plus the two host timings.
#[derive(Debug, Clone)]
pub struct Replay {
    /// What was replayed (`seed 7`, `bursty seed 7`, …).
    pub label: String,
    /// Which of the workload's variants this is (the scenario kind of
    /// `svc_overload`; 0 elsewhere). Set by `Workload::replay`.
    pub variant: usize,
    /// Untimed preparation of this replay (trace generation, registry and
    /// tenant-plan construction), host seconds.
    pub prep_s: f64,
    /// The timed call only, host seconds.
    pub wall_s: f64,
    /// The simulated outcome.
    pub sim: SimOutcome,
    /// Counts the layers reported for this replay.
    pub counts: Counts,
    /// Correctness failures found in this replay's own report.
    pub failures: Vec<String>,
}

impl Replay {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{}: {}", self.label, what()));
        }
    }

    /// The checks every workload shares: `completed + failed == offered`
    /// holds by construction of `failed`, so what is checked is that the
    /// parts are consistent, the tail percentile has its samples, and
    /// every number is finite.
    pub fn check_common(&mut self, tail_pct: u32) {
        let s = self.sim.clone();
        self.check(s.completed <= s.offered, || {
            format!("completed {} > offered {}", s.completed, s.offered)
        });
        self.check(s.on_time <= s.completed, || {
            format!("on time {} > completed {}", s.on_time, s.completed)
        });
        self.check(s.cold_waits <= s.invocations, || {
            format!(
                "cold waits {} > invocations {}",
                s.cold_waits, s.invocations
            )
        });
        self.check(s.offered > 0 && s.invocations > 0, || {
            "empty replay".to_string()
        });
        self.check(supports(s.completed as usize, tail_pct), || {
            format!(
                "p{tail_pct} needs 10 samples beyond it, {} completed",
                s.completed
            )
        });
        let nums = [
            s.cost_gb_s,
            s.latency_p50_s,
            s.latency_tail_s,
            s.sim_secs,
            self.wall_s,
            self.prep_s,
        ];
        self.check(nums.iter().all(|v| v.is_finite() && *v >= 0.0), || {
            format!("non-finite or negative metric in {nums:?}")
        });
    }
}

/// The simulated end-to-end metrics of a set of replays, in the order and
/// under the names of [`crate::spec::END_TO_END`]. Shares are emitted as
/// `1 + share` so a metric is never 0 and a relative bound on it reads as
/// an absolute bound on the share.
pub fn simulated_metrics(replays: &[Replay]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&SimOutcome) -> u64| replays.iter().map(|r| f(&r.sim)).sum::<u64>() as f64;
    let offered = sum(|s| s.offered);
    let invocations = sum(|s| s.invocations);
    let p50s: Vec<f64> = replays.iter().map(|r| r.sim.latency_p50_s).collect();
    let tails: Vec<f64> = replays.iter().map(|r| r.sim.latency_tail_s).collect();
    vec![
        ("qos_violation_rate", 2.0 - sum(|s| s.on_time) / offered),
        // Means, not medians: `svc_overload` alternates two scenario
        // kinds, and the median of a two-cluster sample sits on whichever
        // cluster's edge the seed happens to move.
        ("latency_p50_s", mean(&p50s)),
        ("latency_tail_s", mean(&tails)),
        (
            "cost_gb_s",
            replays.iter().map(|r| r.sim.cost_gb_s).sum::<f64>(),
        ),
        (
            "cold_start_ratio",
            1.0 + sum(|s| s.cold_waits) / invocations,
        ),
        ("failed_share", 2.0 - sum(|s| s.completed) / offered),
    ]
}

/// `wall_s`: for each variant, its replay count times the median wall of
/// its replays, summed over the variants. A noisy neighbour only ever
/// slows a replay down, in bursts that hit some replays of a run and not
/// others; the median keeps such a burst out of the total where the plain
/// sum (printed beside it) carries all of it. The median is taken within
/// a variant because `svc_overload`'s two scenario kinds need not cost
/// the same: one median over two clusters would sit between them, on
/// whichever two replays happen to be at their edges.
pub fn wall_secs(replays: &[Replay]) -> f64 {
    let mut by_variant: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in replays {
        by_variant.entry(r.variant).or_default().push(r.wall_s);
    }
    by_variant
        .values()
        .map(|walls| walls.len() as f64 * median(walls))
        .sum()
}

/// The host-time end-to-end metrics that derive from the replay walls.
pub fn host_metrics(replays: &[Replay]) -> Vec<(&'static str, f64)> {
    let wall = wall_secs(replays);
    let invocations: u64 = replays.iter().map(|r| r.sim.invocations).sum();
    let sim_secs: f64 = replays.iter().map(|r| r.sim.sim_secs).sum();
    vec![
        ("wall_s", wall),
        ("inv_per_s", invocations as f64 / wall),
        ("sim_s_per_host_s", sim_secs / wall),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(offered: u64, completed: u64, on_time: u64, wall_s: f64) -> Replay {
        Replay {
            label: "t".into(),
            variant: 0,
            prep_s: 0.0,
            wall_s,
            sim: SimOutcome {
                offered,
                completed,
                on_time,
                invocations: 2 * completed,
                cold_waits: completed / 2,
                cost_gb_s: 10.0,
                latency_p50_s: wall_s,
                latency_tail_s: 2.0 * wall_s,
                sim_secs: 100.0,
            },
            counts: Counts::new(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn shares_pool_counts_across_replays_and_are_offset_by_one() {
        let rs = [replay(1000, 900, 800, 1.0), replay(3000, 3000, 3000, 3.0)];
        let m: BTreeMap<_, _> = simulated_metrics(&rs).into_iter().collect();
        assert!((m["qos_violation_rate"] - (1.0 + 200.0 / 4000.0)).abs() < 1e-12);
        assert!((m["failed_share"] - (1.0 + 100.0 / 4000.0)).abs() < 1e-12);
        assert!((m["cold_start_ratio"] - (1.0 + 1950.0 / 7800.0)).abs() < 1e-12);
        assert_eq!(m["cost_gb_s"], 20.0);
        assert_eq!(m["latency_p50_s"], 2.0);
        assert_eq!(m["latency_tail_s"], 4.0);
        let h: BTreeMap<_, _> = host_metrics(&rs).into_iter().collect();
        assert_eq!(h["wall_s"], 4.0, "two replays x their median wall of 2 s");
        assert_eq!(h["inv_per_s"], 7800.0 / 4.0);
        assert_eq!(h["sim_s_per_host_s"], 50.0);
    }

    #[test]
    fn wall_takes_the_median_within_each_variant() {
        // Two cheap and two dear cells, one of the dear ones hit by a burst.
        let mut rs = vec![
            replay(10, 10, 10, 1.0),
            replay(10, 10, 10, 3.0),
            replay(10, 10, 10, 1.2),
            replay(10, 10, 10, 9.0),
            replay(10, 10, 10, 1.1),
            replay(10, 10, 10, 3.2),
        ];
        for (i, r) in rs.iter_mut().enumerate() {
            r.variant = i % 2;
        }
        assert!((wall_secs(&rs) - (3.0 * 1.1 + 3.0 * 3.2)).abs() < 1e-12);
    }

    #[test]
    fn common_checks_catch_inconsistent_reports() {
        let mut ok = replay(2000, 1900, 1800, 1.0);
        ok.check_common(99);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let mut few = replay(200, 190, 180, 1.0);
        few.check_common(99);
        assert_eq!(few.failures.len(), 1, "p99 of 190 samples is refused");
        let mut bad = replay(10, 2000, 3000, f64::NAN);
        bad.check_common(90);
        assert!(bad.failures.len() >= 3);
    }
}
