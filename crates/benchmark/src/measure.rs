//! The untraced run: set-up, the fixed replays, and the eleven
//! end-to-end metrics.

use std::time::Instant;

use crate::host::peak_rss_mb;
use crate::outcome::{host_metrics, simulated_metrics, Replay};
use crate::stats::median;
use crate::workloads::{Cell, Size, Workload};

/// Smoke-sized replays `setup` runs: they fill caches and lazy set-up,
/// and must all produce the same simulated outcome (the determinism
/// check). Several, so that `setup_s` can be a median that one slow
/// replay (a few tenths of a second of thread start-up and page faults,
/// easily doubled by a neighbour) does not move.
pub const SMOKE_REPLAYS: usize = 7;

/// What `setup` measured.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Host seconds of each smoke replay (generation + run).
    pub smoke_s: Vec<f64>,
    /// Failures of the smoke replays' own checks or of determinism.
    pub failures: Vec<String>,
}

/// Runs the smoke replays: same seed, so bit-equal simulated outcomes.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let cell = Cell { seed, variant: 0 };
    let mut smoke_s = Vec::new();
    let mut failures = Vec::new();
    let mut first = None;
    for _ in 0..SMOKE_REPLAYS {
        let t = Instant::now();
        let replay = workload.replay(cell, Size::Smoke, None);
        smoke_s.push(t.elapsed().as_secs_f64());
        failures.extend(replay.failures.iter().map(|f| format!("smoke {f}")));
        match &first {
            None => first = Some(replay.sim),
            Some(sim) if *sim != replay.sim => failures.push(format!(
                "smoke replay of seed {seed} is not deterministic: {sim:?} vs {:?}",
                replay.sim
            )),
            Some(_) => {}
        }
    }
    Setup { smoke_s, failures }
}

/// `setup_s`: all untimed preparation, each repeated part taken at its
/// median — the smoke replays plus every replay's own preparation.
pub fn setup_secs(setup: &Setup, replays: &[Replay]) -> f64 {
    let preps: Vec<f64> = replays.iter().map(|r| r.prep_s).collect();
    setup.smoke_s.len() as f64 * median(&setup.smoke_s) + preps.len() as f64 * median(&preps)
}

/// The end-to-end metrics of a finished run, in `BENCHMARK.json` order.
pub fn end_to_end(setup: &Setup, replays: &[Replay]) -> Vec<(&'static str, f64)> {
    let mut named = vec![("setup_s", setup_secs(setup, replays))];
    named.extend(host_metrics(replays));
    named.push(("peak_rss_mb", peak_rss_mb()));
    named.extend(simulated_metrics(replays));
    crate::spec::END_TO_END
        .iter()
        .map(|m| {
            let (_, v) = named
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} is declared but not measured", m.name));
            (m.name, *v)
        })
        .collect()
}

/// Runs the untraced replays of `workload` from `seed`.
pub fn replays(workload: Workload, seed: u64, count: usize) -> Vec<Replay> {
    workload
        .cells(seed, count)
        .into_iter()
        .map(|cell| workload.replay(cell, Size::Full, None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_deterministic_and_every_declared_metric_is_measured() {
        let s = setup(Workload::SvcAzure, 3);
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        assert_eq!(s.smoke_s.len(), SMOKE_REPLAYS);
        let rs = vec![Workload::SvcAzure.replay(
            Cell {
                seed: 3,
                variant: 0,
            },
            Size::Smoke,
            None,
        )];
        let m = end_to_end(&s, &rs);
        assert_eq!(m.len(), crate::spec::END_TO_END.len());
        for ((name, value), declared) in m.iter().zip(&crate::spec::END_TO_END) {
            assert_eq!(*name, declared.name);
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
