//! Fifer-style slack-aware pre-warm policy (Gunasekaran et al.,
//! Middleware'20).
//!
//! Fifer's observation: a multi-stage workflow with an end-to-end deadline
//! has per-stage *slack* — the gap between the deadline and the critical
//! path. Stages whose slack covers a container cold start never need
//! pre-warmed capacity at all: requests are queued briefly and served by
//! lazily booted containers without violating the deadline. Only
//! slack-poor stages get proactive pre-warming, and those boots happen in
//! *buckets* (batched container launches) sized from a smoothed demand
//! estimate, which is what keeps Fifer's container footprint low.
//!
//! This adaptation works against the repo's [`PrewarmController`]
//! interface: per-stage slack is estimated once from the registered
//! workflow deadlines and the per-function execution model; at runtime the
//! policy only smooths observed demand and defers or buckets pre-warming
//! accordingly. It never peeks at the future trace.

use std::collections::HashMap;

use aqua_faas::{
    replacement_target, FunctionId, FunctionRegistry, PoolDecision, PoolObservation,
    PrewarmController, ResourceConfig, WorkflowDag,
};
use aqua_sim::SimDuration;

/// Container boots are batched in multiples of this bucket size.
const BUCKET: usize = 2;
/// EWMA smoothing factor for the per-window demand estimate.
const EWMA_ALPHA: f64 = 0.4;
/// Head-room multiplier over smoothed demand for slack-poor stages.
const HEADROOM: f64 = 1.25;
/// Keep-alive for idle containers: Fifer holds queued requests rather
/// than capacity, so its keep-alive sits between the pure caches and the
/// predictive poolers.
const KEEP_ALIVE: SimDuration = SimDuration::from_secs(300);

#[derive(Debug, Clone, Default)]
struct FnSlackState {
    /// Smoothed per-window demand (EWMA of peak concurrency).
    ewma_demand: f64,
}

/// The slack-aware batching/queueing pre-warm policy.
#[derive(Debug, Clone)]
pub struct SlackAwarePolicy {
    /// Per-function slack estimate in milliseconds (functions absent from
    /// every registered workflow get zero slack — treated conservatively).
    slack_ms: HashMap<FunctionId, f64>,
    /// Per-function cold-start estimate in milliseconds.
    cold_ms: HashMap<FunctionId, f64>,
    state: HashMap<FunctionId, FnSlackState>,
}

impl SlackAwarePolicy {
    /// Creates the policy from the workflows it will serve.
    ///
    /// `workflows` pairs each DAG with its end-to-end deadline; the
    /// per-stage slack model distributes `deadline − critical path`
    /// proportionally to stage execution time (Fifer's proportional slack
    /// allocation) and a function inherits the *smallest* slack of any
    /// stage it serves.
    pub fn new(workflows: &[(&WorkflowDag, SimDuration)], registry: &FunctionRegistry) -> Self {
        let base = ResourceConfig::default();
        let mut slack_ms: HashMap<FunctionId, f64> = HashMap::new();
        let mut cold_ms = HashMap::new();
        for (dag, deadline) in workflows {
            let exec_ms: Vec<f64> = dag
                .stages()
                .map(|s| registry.spec(s.function).base_exec_ms(&base))
                .collect();
            // Longest path through the DAG (stage deps always point at
            // earlier indices, so one forward pass suffices).
            let mut finish = vec![0.0f64; exec_ms.len()];
            for (i, stage) in dag.stages().enumerate() {
                let ready = stage.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
                finish[i] = ready + exec_ms[i];
            }
            let critical = finish.iter().copied().fold(0.0f64, f64::max);
            let total_slack = (deadline.as_secs_f64() * 1000.0 - critical).max(0.0);
            let exec_sum: f64 = exec_ms.iter().sum::<f64>().max(1e-9);
            for (i, stage) in dag.stages().enumerate() {
                let share = total_slack * exec_ms[i] / exec_sum;
                slack_ms
                    .entry(stage.function)
                    .and_modify(|s| *s = s.min(share))
                    .or_insert(share);
                let spec = registry.spec(stage.function);
                cold_ms.insert(stage.function, spec.boot_ms + spec.init_work_ms);
            }
        }
        SlackAwarePolicy {
            slack_ms,
            cold_ms,
            state: HashMap::new(),
        }
    }

    /// The estimated slack for `function`, ms (zero when unknown).
    pub fn slack_of(&self, function: FunctionId) -> f64 {
        self.slack_ms.get(&function).copied().unwrap_or(0.0)
    }

    /// Whether pre-warming is deferred for `function` (its slack covers one
    /// full cold start, so queueing is free deadline-wise).
    pub fn defers(&self, function: FunctionId) -> bool {
        let cold = self.cold_ms.get(&function).copied().unwrap_or(f64::MAX);
        self.slack_of(function) >= cold
    }

    /// Rounds a demand estimate up to the bucket size (batched boots).
    /// Near-zero estimates release the pool entirely — without the floor,
    /// a decayed EWMA residue would keep one bucket warm forever.
    fn bucketize(&self, demand: f64) -> usize {
        if demand < 0.25 {
            return 0;
        }
        let raw = demand.ceil() as usize;
        raw.div_ceil(BUCKET) * BUCKET
    }
}

impl PrewarmController for SlackAwarePolicy {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| {
                let st = self.state.entry(s.function).or_default();
                st.ewma_demand =
                    EWMA_ALPHA * s.peak_concurrency as f64 + (1.0 - EWMA_ALPHA) * st.ewma_demand;
                let demand = st.ewma_demand;
                let base = if self.defers(s.function) {
                    // Slack covers the cold start: queue requests instead
                    // of holding capacity (no pre-warm target at all, so
                    // the fault-free path stays a strict no-op).
                    None
                } else {
                    Some(self.bucketize(demand * HEADROOM))
                };
                PoolDecision {
                    function: s.function,
                    prewarm_target: replacement_target(base, s.failed_boots),
                    keep_alive: KEEP_ALIVE,
                    shrink: true,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_faas::sim::FnWindowStats;
    use aqua_faas::FunctionSpec;
    use aqua_sim::SimTime;

    fn obs(peaks: &[u32], failed_boots: u32) -> PoolObservation {
        PoolObservation {
            now: SimTime::from_secs(60),
            stats: peaks
                .iter()
                .enumerate()
                .map(|(i, &p)| FnWindowStats {
                    function: FunctionId(i),
                    invocations: p,
                    peak_concurrency: p,
                    booting: 0,
                    idle: 0,
                    busy: p,
                    failed_boots,
                })
                .collect(),
        }
    }

    /// Two-stage chain: a fast function (tiny cold start) and a slow one
    /// (huge cold start), under the given deadline.
    fn two_stage(deadline_secs: f64) -> (SlackAwarePolicy, FunctionId, FunctionId) {
        let mut registry = FunctionRegistry::new();
        let fast = registry.register(
            FunctionSpec::new("fast")
                .with_work_ms(100.0)
                .with_cold_start(50.0, 20.0),
        );
        let slow = registry.register(
            FunctionSpec::new("slow")
                .with_work_ms(200.0)
                .with_cold_start(10_000.0, 5_000.0),
        );
        let dag = WorkflowDag::chain("w", vec![fast, slow]);
        let policy = SlackAwarePolicy::new(
            &[(&dag, SimDuration::from_secs_f64(deadline_secs))],
            &registry,
        );
        (policy, fast, slow)
    }

    #[test]
    fn slack_rich_stage_defers_prewarming() {
        // 10 s deadline over ~0.3 s of work: plenty of slack. The fast
        // function's share covers its 70 ms cold start → defer; the slow
        // function's 15 s cold start exceeds its ~6.5 s share → prewarm.
        let (mut p, fast, slow) = two_stage(10.0);
        assert!(p.defers(fast), "slack {} ms", p.slack_of(fast));
        assert!(!p.defers(slow), "slack {} ms", p.slack_of(slow));
        let d = p.tick(&obs(&[3, 3], 0));
        assert_eq!(d[fast.0].prewarm_target, None, "deferred: keep-alive only");
        assert!(d[slow.0].prewarm_target.unwrap() >= 1);
    }

    #[test]
    fn tight_deadline_prewarms_everything() {
        // Deadline barely above the critical path: no slack anywhere.
        let (mut p, fast, slow) = two_stage(0.4);
        assert!(!p.defers(fast));
        assert!(!p.defers(slow));
        let d = p.tick(&obs(&[2, 2], 0));
        assert!(d[fast.0].prewarm_target.unwrap() >= 1);
        assert!(d[slow.0].prewarm_target.unwrap() >= 1);
    }

    #[test]
    fn targets_are_bucketed() {
        let (mut p, _, slow) = two_stage(10.0);
        // Sustained demand of 5: EWMA converges toward 5, headroom 1.25 →
        // 7 raw, bucketed up to the next multiple of 2.
        let mut d = Vec::new();
        for _ in 0..30 {
            d = p.tick(&obs(&[5, 5], 0));
        }
        let t = d[slow.0].prewarm_target.unwrap();
        assert!(t.is_multiple_of(2), "bucketed target, got {t}");
        assert!((6..=10).contains(&t), "near demand × headroom, got {t}");
    }

    #[test]
    fn response_is_bounded_by_observed_demand() {
        let (mut p, _, slow) = two_stage(10.0);
        for _ in 0..50 {
            let d = p.tick(&obs(&[4, 4], 0));
            let t = d[slow.0].prewarm_target.unwrap();
            // EWMA ≤ peak, so target ≤ bucketized(peak × headroom).
            assert!(t <= 6, "bounded response, got {t}");
        }
    }

    #[test]
    fn failed_boots_lift_both_regimes() {
        let (mut p, fast, slow) = two_stage(10.0);
        let d = p.tick(&obs(&[2, 2], 3));
        // Deferred function still replaces lost boots…
        assert!(d[fast.0].prewarm_target.unwrap() >= 3);
        // …and the prewarming one lifts its base target.
        let clean = {
            let (mut q, _, _) = two_stage(10.0);
            q.tick(&obs(&[2, 2], 0))[slow.0].prewarm_target.unwrap()
        };
        assert!(d[slow.0].prewarm_target.unwrap() >= clean + 3);
    }

    #[test]
    fn unknown_function_gets_zero_slack() {
        let (p, _, _) = two_stage(10.0);
        assert_eq!(p.slack_of(FunctionId(99)), 0.0);
        assert!(!p.defers(FunctionId(99)));
    }

    #[test]
    fn zero_demand_releases_the_pool() {
        let (mut p, _, slow) = two_stage(10.0);
        p.tick(&obs(&[4, 4], 0));
        let mut d = Vec::new();
        for _ in 0..40 {
            d = p.tick(&obs(&[0, 0], 0));
        }
        assert_eq!(d[slow.0].prewarm_target, Some(0), "EWMA decays to zero");
    }
}
