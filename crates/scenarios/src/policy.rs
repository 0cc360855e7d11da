//! The policy zoo: the columns of the evaluation matrix.
//!
//! [`PolicyKind`] names every competitor and knows how to build it for a
//! given [`ScenarioInstance`]. Four are real contenders (fixed keep-alive,
//! histogram, AQUATOPE, slack-aware); the fifth is [`OraclePrewarm`], a
//! deliberately clairvoyant upper bound that reads the arrival trace and
//! provisions next-window demand exactly. No real policy can see the
//! future, so the oracle's QoS-violation rate anchors the top of the
//! sanity ordering every matrix run is checked against.

use std::collections::HashMap;

use aqua_faas::{
    replacement_target, FixedPrewarm, FunctionId, PoolDecision, PoolObservation, PrewarmController,
};
use aqua_forecast::HybridConfig;
use aqua_pool::{AquatopePool, AquatopePoolConfig, HistogramPolicy, SlackAwarePolicy};
use aqua_sim::SimDuration;

use crate::scenario::ScenarioInstance;

/// Every competitor in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Provider-default 10-minute keep-alive, no pre-warming.
    Fixed,
    /// *Serverless in the Wild* histogram keep-alive + pre-warming.
    Histogram,
    /// AQUATOPE's uncertainty-aware hybrid-Bayesian pool.
    Aquatope,
    /// Fifer-style slack-aware deferral with bucketed boots.
    SlackAware,
    /// Clairvoyant upper bound: provisions the true next-window demand.
    Oracle,
}

impl PolicyKind {
    /// Every policy, in matrix column order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Fixed,
        PolicyKind::Histogram,
        PolicyKind::Aquatope,
        PolicyKind::SlackAware,
        PolicyKind::Oracle,
    ];

    /// Stable snake_case name used in reports and goldens.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fixed => "fixed",
            PolicyKind::Histogram => "histogram",
            PolicyKind::Aquatope => "aquatope",
            PolicyKind::SlackAware => "slack_aware",
            PolicyKind::Oracle => "oracle",
        }
    }

    /// Builds the controller for one scenario instance.
    pub fn build(self, inst: &ScenarioInstance) -> Box<dyn PrewarmController> {
        match self {
            PolicyKind::Fixed => Box::new(FixedPrewarm::provider_default()),
            PolicyKind::Histogram => Box::new(HistogramPolicy::new()),
            PolicyKind::Aquatope => {
                let dags: Vec<_> = inst.jobs.iter().map(|j| &j.dag).collect();
                Box::new(AquatopePool::new(matrix_aquatope_config(), &dags))
            }
            PolicyKind::SlackAware => {
                let workflows: Vec<_> = inst
                    .jobs
                    .iter()
                    .zip(&inst.deadlines)
                    .map(|(j, &d)| (&j.dag, d))
                    .collect();
                Box::new(SlackAwarePolicy::new(&workflows, &inst.registry))
            }
            PolicyKind::Oracle => Box::new(OraclePrewarm::new(inst)),
        }
    }
}

/// A small hybrid-model configuration so AQUATOPE cells stay affordable
/// inside a 150-run matrix: ~40 minutes of reactive warm-up, then one
/// compact model per function. Longer matrices retrain on cadence.
fn matrix_aquatope_config() -> AquatopePoolConfig {
    AquatopePoolConfig {
        warmup_windows: 40,
        retrain_every: 200,
        training_window: 200,
        hybrid: HybridConfig {
            window: 12,
            horizon: 2,
            enc_hidden: vec![8],
            dec_hidden: vec![6],
            mlp_hidden: vec![12, 8],
            dropout: 0.1,
            pretrain_epochs: 2,
            train_epochs: 4,
            mc_passes: 10,
            seed: 7,
        },
        ..AquatopePoolConfig::default()
    }
}

/// The clairvoyant pre-warmer: knows the arrival trace, provisions each
/// function's true demand for the window it is deciding for. It pays real
/// cost for that capacity — the oracle bounds *QoS*, not spend.
#[derive(Debug, Clone)]
pub struct OraclePrewarm {
    /// Per-function containers wanted per minute window.
    schedule: HashMap<FunctionId, Vec<u32>>,
    keep_alive: SimDuration,
}

impl OraclePrewarm {
    /// Builds the oracle from a scenario's known jobs: each arrival in
    /// minute `m` contributes every stage's task count to that minute's
    /// demand for the stage's function (a chain finishes well within its
    /// arrival window at these rates, so the window of the arrival is the
    /// window of the work).
    pub fn new(inst: &ScenarioInstance) -> Self {
        let mut schedule: HashMap<FunctionId, Vec<u32>> = HashMap::new();
        for job in &inst.jobs {
            for stage in job.dag.stages() {
                let lane = schedule
                    .entry(stage.function)
                    .or_insert_with(|| vec![0; inst.minutes + 3]);
                for t in &job.arrivals {
                    let m = (t.as_secs_f64() / 60.0) as usize;
                    if m < lane.len() {
                        lane[m] += stage.tasks;
                    }
                }
            }
        }
        OraclePrewarm::from_schedule(schedule, SimDuration::from_secs(120))
    }

    /// Builds the oracle from an explicit per-minute schedule (used by the
    /// trait-level contract tests).
    pub fn from_schedule(schedule: HashMap<FunctionId, Vec<u32>>, keep_alive: SimDuration) -> Self {
        OraclePrewarm {
            schedule,
            keep_alive,
        }
    }
}

impl PrewarmController for OraclePrewarm {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        // Ticks land on window boundaries: the tick at t decides for
        // [t, t + window), i.e. minute t/60.
        let minute = (obs.now.as_secs_f64() / 60.0) as usize;
        obs.stats
            .iter()
            .map(|s| {
                let want = self
                    .schedule
                    .get(&s.function)
                    .and_then(|lane| lane.get(minute))
                    .copied()
                    .unwrap_or(0) as usize;
                PoolDecision {
                    function: s.function,
                    prewarm_target: replacement_target(Some(want), s.failed_boots),
                    keep_alive: self.keep_alive,
                    shrink: true,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioKind, ScenarioSpec};
    use aqua_faas::sim::FnWindowStats;
    use aqua_sim::SimTime;

    fn obs(now_min: u64, fns: &[usize], failed: u32) -> PoolObservation {
        PoolObservation {
            now: SimTime::from_secs(60 * now_min),
            stats: fns
                .iter()
                .map(|&f| FnWindowStats {
                    function: FunctionId(f),
                    invocations: 1,
                    peak_concurrency: 1,
                    booting: 0,
                    idle: 0,
                    busy: 1,
                    failed_boots: failed,
                })
                .collect(),
        }
    }

    #[test]
    fn every_policy_builds_and_ticks() {
        let inst = ScenarioSpec::new(ScenarioKind::NoisyNeighbor, 10, 3.0).instantiate(1);
        for kind in PolicyKind::ALL {
            let mut p = kind.build(&inst);
            let d = p.tick(&obs(0, &[0, 1, 2], 0));
            assert_eq!(d.len(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn oracle_tracks_its_schedule() {
        let mut schedule = HashMap::new();
        schedule.insert(FunctionId(0), vec![2, 0, 5]);
        let mut oracle = OraclePrewarm::from_schedule(schedule, SimDuration::from_secs(60));
        for (minute, want) in [(0u64, 2usize), (1, 0), (2, 5), (9, 0)] {
            let d = oracle.tick(&obs(minute, &[0], 0));
            assert_eq!(d[0].prewarm_target, Some(want), "minute {minute}");
        }
    }

    #[test]
    fn oracle_replaces_failed_boots() {
        let mut schedule = HashMap::new();
        schedule.insert(FunctionId(0), vec![2]);
        let mut oracle = OraclePrewarm::from_schedule(schedule, SimDuration::from_secs(60));
        let d = oracle.tick(&obs(0, &[0], 3));
        assert_eq!(d[0].prewarm_target, Some(5));
    }

    #[test]
    fn oracle_schedule_covers_chain_arrivals() {
        let inst = ScenarioSpec::new(ScenarioKind::Diurnal, 20, 3.0).instantiate(2);
        let oracle = OraclePrewarm::new(&inst);
        let total: u32 = oracle
            .schedule
            .values()
            .map(|lane| lane.iter().sum::<u32>())
            .sum();
        // 3 chain stages × one task each × every arrival.
        assert_eq!(total as usize, 3 * inst.n_primary);
    }
}
