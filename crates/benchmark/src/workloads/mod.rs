//! The four workloads. Each is a function from `(seed, size)` to a
//! [`Replay`]: it prepares its inputs from the seed (untimed, reported as
//! `prep_s`), makes exactly one timed call into the program, and folds
//! the program's report into a [`crate::outcome::SimOutcome`].
//!
//! A replay is traced by handing it a [`Probe`]: the same code then
//! interposes the seam wrappers, which must leave the simulated outcome
//! bit-identical.

pub mod azure;
pub mod mix;
pub mod overload;

use std::sync::{Arc, Mutex};

use aqua_faas::PrewarmController;
use aqua_telemetry::EventSink;

use crate::outcome::Replay;
use crate::seams::{TargetTally, TimedPolicy};
use crate::spans::SpanLog;

/// How large a replay is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Seconds-sized: the warm-up and determinism replay of `setup`, and
    /// the unit tests.
    Smoke,
}

/// What a traced replay is observed with.
pub struct Probe {
    /// Where the seam wrappers record spans.
    pub log: SpanLog,
    /// Calibration tallies of the wrapped pre-warm policy, summed over
    /// the replays this probe observed.
    pub targets: TargetTally,
    /// A telemetry sink to attach, when the replay should stream events.
    pub sink: Option<Box<dyn EventSink + Send>>,
}

impl Probe {
    /// A probe recording spans into `log`, with no telemetry sink.
    pub fn new(log: SpanLog) -> Self {
        Probe {
            log,
            targets: TargetTally::default(),
            sink: None,
        }
    }
}

/// A pre-warm policy, wrapped in a [`TimedPolicy`] when probed.
pub(crate) struct Policy {
    pub(crate) policy: Box<dyn PrewarmController>,
    tally: Option<Arc<Mutex<TargetTally>>>,
}

impl Policy {
    pub(crate) fn new(policy: Box<dyn PrewarmController>, probe: Option<&Probe>) -> Self {
        match probe {
            Some(p) => {
                let (timed, tally) = TimedPolicy::new(policy, p.log.clone());
                Policy {
                    policy: Box::new(timed),
                    tally: Some(tally),
                }
            }
            None => Policy {
                policy,
                tally: None,
            },
        }
    }

    /// A handle that folds the wrapped policy's tallies into a probe once
    /// the replay is over (the policy itself may have been moved away).
    pub(crate) fn tally(&self) -> Option<Arc<Mutex<TargetTally>>> {
        self.tally.clone()
    }
}

/// Folds a finished replay's policy tallies into its probe.
pub(crate) fn fold_tally(probe: Option<&mut Probe>, tally: Option<Arc<Mutex<TargetTally>>>) {
    if let (Some(probe), Some(tally)) = (probe, tally) {
        let t = tally.lock().expect("tally lock is never poisoned");
        probe.targets.add(&t);
    }
}

/// One workload: its name, thread setting, replay plan and replay function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Live control plane on the Azure-shaped trace.
    SvcAzure,
    /// Batch simulator on the same trace.
    SimAzure,
    /// The paper's Fig. 18 end to end.
    AquatopeMix,
    /// Live control plane under the stressed predictive section.
    SvcOverload,
}

/// One replay a run performs: a label plus what to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Trace and platform seed.
    pub seed: u64,
    /// Index into the workload's variants (the scenario kind of
    /// `svc_overload`; 0 elsewhere).
    pub variant: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SvcAzure,
        Workload::SimAzure,
        Workload::AquatopeMix,
        Workload::SvcOverload,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcAzure => "svc_azure",
            Workload::SimAzure => "sim_azure",
            Workload::AquatopeMix => "aquatope_mix",
            Workload::SvcOverload => "svc_overload",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `AQUA_THREADS` for this workload on a host with `nproc` cores. The
    /// three event-loop workloads are single-threaded whatever it says;
    /// `aquatope_mix` fans per-function BNN training out through
    /// `par_map_owned`, and two threads is how users run it here.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::AquatopeMix => nproc.min(2),
            _ => 1,
        }
    }

    /// Variants per seed (`svc_overload` runs a bursty and a faulted cell
    /// for each seed).
    fn variants(self) -> usize {
        match self {
            Workload::SvcOverload => overload::KINDS.len(),
            _ => 1,
        }
    }

    /// Replays of a run measuring for the default
    /// [`crate::spec::RUN_SECONDS`]. Fixed counts, never "until N seconds
    /// have passed", so the simulated metrics of a seed repeat exactly.
    pub fn base_replays(self) -> usize {
        match self {
            Workload::SvcAzure | Workload::SimAzure | Workload::SvcOverload => 8,
            Workload::AquatopeMix => 1,
        }
    }

    /// Replays of a run that measures for `seconds`: the fixed count
    /// scaled from the default [`crate::spec::RUN_SECONDS`] and rounded
    /// down to whole seeds (every seed runs every variant), at least one
    /// seed. `aquatope_mix` is one replay whatever `seconds` says: it
    /// replays one fixed trace, so more replays would be the same replay.
    pub fn replays_for(self, seconds: u64) -> usize {
        if !self.seeded() {
            return 1;
        }
        let scaled = self.base_replays() as u64 * seconds / crate::spec::RUN_SECONDS;
        self.whole_seeds(scaled as usize)
    }

    /// `replays` rounded down to a multiple of the variants per seed, at
    /// least one seed's worth.
    pub fn whole_seeds(self, replays: usize) -> usize {
        let per_seed = self.variants();
        (replays / per_seed).max(1) * per_seed
    }

    /// Whether `--seed` drives this workload's inputs. `aquatope_mix`
    /// replays one fixed trace on a fixed platform seed (see
    /// [`mix::input`] for the measurements behind that).
    pub fn seeded(self) -> bool {
        self != Workload::AquatopeMix
    }

    /// The tail percentile reported for this workload, fixed so that it
    /// has at least ten samples beyond it in every replay.
    pub fn tail_pct(self) -> u32 {
        match self {
            Workload::AquatopeMix => 90,
            _ => 99,
        }
    }

    /// The cells of a run with `replays` replays from `seed`: seeds
    /// `seed, seed+1, …`, each with every variant.
    ///
    /// # Panics
    ///
    /// Panics unless `replays` is a whole number of seeds
    /// ([`Workload::whole_seeds`]).
    pub fn cells(self, seed: u64, replays: usize) -> Vec<Cell> {
        let per_seed = self.variants();
        assert_eq!(replays % per_seed, 0, "every seed runs every variant");
        let seeds = replays / per_seed;
        (0..seeds as u64)
            .flat_map(|s| {
                (0..per_seed).map(move |variant| Cell {
                    seed: seed + s,
                    variant,
                })
            })
            .collect()
    }

    /// Runs one replay.
    pub fn replay(self, cell: Cell, size: Size, probe: Option<&mut Probe>) -> Replay {
        let mut replay = match self {
            Workload::SvcAzure => azure::svc_replay(cell.seed, size, probe),
            Workload::SimAzure => azure::sim_replay(cell.seed, size, 1, probe),
            Workload::AquatopeMix => mix::replay(size, probe),
            Workload::SvcOverload => overload::replay(cell, size, probe),
        };
        replay.variant = cell.variant;
        if size == Size::Full {
            replay.check_common(self.tail_pct());
        }
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_walk_seeds_then_variants() {
        let c = Workload::SvcOverload.cells(7, 8);
        assert_eq!(c.len(), 8);
        assert_eq!(
            c[0],
            Cell {
                seed: 7,
                variant: 0
            }
        );
        assert_eq!(
            c[1],
            Cell {
                seed: 7,
                variant: 1
            }
        );
        assert_eq!(
            c[7],
            Cell {
                seed: 10,
                variant: 1
            }
        );
        let c = Workload::SvcAzure.cells(7, 8);
        assert_eq!(c.len(), 8);
        assert_eq!(
            c[7],
            Cell {
                seed: 14,
                variant: 0
            }
        );
        assert_eq!(
            Workload::AquatopeMix.cells(3, 1),
            vec![Cell {
                seed: 3,
                variant: 0
            }]
        );
    }

    #[test]
    fn replay_counts_scale_with_seconds_in_whole_seeds() {
        use crate::spec::RUN_SECONDS;
        assert_eq!(Workload::SvcAzure.replays_for(RUN_SECONDS), 8);
        assert_eq!(Workload::SvcAzure.replays_for(RUN_SECONDS / 2), 4);
        assert_eq!(Workload::SvcAzure.replays_for(1), 1);
        // `svc_overload` runs two variants per seed: never an odd count.
        assert_eq!(Workload::SvcOverload.replays_for(RUN_SECONDS), 8);
        assert_eq!(Workload::SvcOverload.replays_for(8), 2);
        assert_eq!(Workload::SvcOverload.replays_for(1), 2);
        assert_eq!(Workload::SvcOverload.whole_seeds(3), 2);
        for seconds in 1..=60 {
            let n = Workload::SvcOverload.replays_for(seconds);
            assert_eq!(Workload::SvcOverload.cells(1, n).len(), n);
        }
        // One fixed trace: more seconds would only repeat the same replay.
        assert_eq!(Workload::AquatopeMix.replays_for(1), 1);
        assert_eq!(Workload::AquatopeMix.replays_for(3 * RUN_SECONDS), 1);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
