//! Autoscaling, FaaSCache, and IceBreaker pool baselines. The fixed
//! keep-alive baseline is [`aqua_faas::FixedPrewarm`].

use std::collections::HashMap;

use aqua_faas::{replacement_target, FunctionId, PoolDecision, PoolObservation, PrewarmController};
use aqua_forecast::{FourierPredictor, Predictor};
use aqua_sim::SimDuration;

use crate::to_series;

/// OpenWhisk-style reactive stem-cell autoscaling: scale the warm pool up
/// quickly toward observed demand plus head-room, and decay it slowly —
/// the paper's "Autoscale" baseline, which reacts too late under rapid
/// load fluctuation (§8.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveAutoscale {
    headroom: f64,
    keep_alive: SimDuration,
    targets: HashMap<FunctionId, usize>,
}

impl ReactiveAutoscale {
    /// Default: 25% head-room over the last window's peak, 5-minute
    /// keep-alive.
    pub fn new() -> Self {
        ReactiveAutoscale {
            headroom: 1.25,
            keep_alive: SimDuration::from_secs(600),
            targets: HashMap::new(),
        }
    }
}

impl Default for ReactiveAutoscale {
    fn default() -> Self {
        ReactiveAutoscale::new()
    }
}

impl PrewarmController for ReactiveAutoscale {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| {
                let demand = (s.peak_concurrency as f64 * self.headroom).ceil() as usize;
                let prev = self.targets.get(&s.function).copied().unwrap_or(0);
                // Scale up in one step; scale down one container at a time
                // (the asymmetry the paper attributes to autoscaling). The
                // target is a creation floor only — reactive autoscalers do
                // not evict early; reclamation is left to the keep-alive,
                // which is why they hold over-provisioned memory for long.
                let target = if demand >= prev {
                    demand
                } else {
                    prev.saturating_sub(1)
                };
                self.targets.insert(s.function, target);
                PoolDecision {
                    function: s.function,
                    prewarm_target: replacement_target(Some(target), s.failed_boots),
                    keep_alive: self.keep_alive,
                    shrink: false,
                }
            })
            .collect()
    }
}

/// FaaSCache: containers are cached greedily (no pre-warming) and evicted
/// by a greedy-dual priority that decays with recency — approximated here
/// by a 15-minute keep-alive plus the simulator's LRU eviction under
/// memory pressure. When memory is plentiful this behaves like a
/// conservative keep-alive extension, matching the paper's observation
/// that FaaSCache tracks autoscaling on uncontended clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasCachePolicy {
    keep_alive: SimDuration,
}

impl FaasCachePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FaasCachePolicy {
            keep_alive: SimDuration::from_secs(900),
        }
    }
}

impl Default for FaasCachePolicy {
    fn default() -> Self {
        FaasCachePolicy::new()
    }
}

impl PrewarmController for FaasCachePolicy {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| PoolDecision {
                function: s.function,
                prewarm_target: replacement_target(None, s.failed_boots),
                keep_alive: self.keep_alive,
                shrink: true,
            })
            .collect()
    }
}

/// IceBreaker: per-function Fourier extrapolation of the concurrency
/// series decides next-window pre-warm counts; containers are reclaimed
/// promptly after use (the paper credits IceBreaker's memory savings to
/// exactly this).
#[derive(Debug, Clone)]
pub struct IceBreakerPolicy {
    history: HashMap<FunctionId, Vec<f64>>,
    window: usize,
    harmonics: usize,
    keep_alive: SimDuration,
}

impl IceBreakerPolicy {
    /// Default: top-6 harmonics over a 128-window history, 2-minute
    /// keep-alive.
    pub fn new() -> Self {
        IceBreakerPolicy {
            history: HashMap::new(),
            window: 128,
            harmonics: 6,
            keep_alive: SimDuration::from_secs(120),
        }
    }
}

impl Default for IceBreakerPolicy {
    fn default() -> Self {
        IceBreakerPolicy::new()
    }
}

impl IceBreakerPolicy {
    /// Pre-loads historical per-window concurrency (IceBreaker fits its
    /// Fourier model on stored invocation histories).
    pub fn preload_history(&mut self, function: FunctionId, history: &[f64]) {
        self.history
            .entry(function)
            .or_default()
            .extend_from_slice(history);
    }
}

impl PrewarmController for IceBreakerPolicy {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| {
                let hist = self.history.entry(s.function).or_default();
                hist.push(s.peak_concurrency as f64);
                let target = if hist.len() >= 8 {
                    let series = to_series(hist);
                    // forecast() alone extrapolates the truncated Fourier
                    // series; fit() only estimates residual spread, which
                    // the policy does not use (and is O(history) per call).
                    let mut model = FourierPredictor::new(self.harmonics, self.window);
                    model.forecast(&series).mean.ceil() as usize
                } else {
                    s.peak_concurrency as usize
                };
                PoolDecision {
                    function: s.function,
                    prewarm_target: replacement_target(Some(target), s.failed_boots),
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
    use aqua_faas::sim::FnWindowStats;
    use aqua_faas::FixedPrewarm;
    use aqua_sim::SimTime;

    fn obs(peaks: &[u32]) -> PoolObservation {
        obs_with_failures(peaks, 0)
    }

    fn obs_with_failures(peaks: &[u32], failed_boots: u32) -> PoolObservation {
        PoolObservation {
            now: SimTime::from_secs(60),
            stats: peaks
                .iter()
                .enumerate()
                .map(|(i, &p)| FnWindowStats {
                    function: FunctionId(i),
                    invocations: p * 2,
                    peak_concurrency: p,
                    booting: 0,
                    idle: 0,
                    busy: 0,
                    failed_boots,
                })
                .collect(),
        }
    }

    #[test]
    fn keep_alive_never_prewarms() {
        let mut p = FixedPrewarm::provider_default();
        let d = p.tick(&obs(&[5]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].prewarm_target, None);
        assert_eq!(d[0].keep_alive, SimDuration::from_secs(600));
    }

    #[test]
    fn autoscale_scales_up_fast_down_slow() {
        let mut p = ReactiveAutoscale::new();
        let up = p.tick(&obs(&[8]));
        assert_eq!(up[0].prewarm_target, Some(10)); // 8 × 1.25
                                                    // Demand drops to zero: target shrinks one per tick.
        let down1 = p.tick(&obs(&[0]));
        assert_eq!(down1[0].prewarm_target, Some(9));
        let down2 = p.tick(&obs(&[0]));
        assert_eq!(down2[0].prewarm_target, Some(8));
    }

    #[test]
    fn faascache_uses_long_keep_alive() {
        // Greedy-dual decay timescale: longer than the provider default.
        let mut p = FaasCachePolicy::new();
        let d = p.tick(&obs(&[4]));
        assert!(d[0].keep_alive >= SimDuration::from_secs(900));
        assert_eq!(d[0].prewarm_target, None, "pure cache: no pre-warming");
    }

    #[test]
    fn icebreaker_tracks_periodic_demand() {
        // Strict period-4 pattern; run long enough that the 128-window
        // holds exactly 32 periods (no spectral leakage).
        let mut p = IceBreakerPolicy::new();
        let pattern = [0u32, 0, 8, 0];
        let mut high = Vec::new();
        let mut quiet = Vec::new();
        for cycle in 0..200usize {
            let peak = pattern[cycle % 4];
            let d = p.tick(&obs(&[peak]));
            if cycle >= 160 {
                let t = d[0].prewarm_target.unwrap();
                if pattern[(cycle + 1) % 4] == 8 {
                    high.push(t);
                } else {
                    quiet.push(t);
                }
            }
        }
        let high_mean = high.iter().sum::<usize>() as f64 / high.len() as f64;
        let quiet_mean = quiet.iter().sum::<usize>() as f64 / quiet.len() as f64;
        assert!(
            high_mean > quiet_mean + 2.0,
            "busy-phase targets {high_mean} should exceed quiet {quiet_mean}"
        );
    }

    #[test]
    fn icebreaker_bootstraps_reactively() {
        let mut p = IceBreakerPolicy::new();
        let d = p.tick(&obs(&[5]));
        assert_eq!(d[0].prewarm_target, Some(5));
    }

    #[test]
    fn every_baseline_replaces_failed_boots() {
        // Each policy must provision at least the capacity lost to boot
        // failures in the window, on top of its base target.
        let policies: Vec<(&str, Box<dyn PrewarmController>)> = vec![
            ("keep", Box::new(FixedPrewarm::provider_default())),
            ("autoscale", Box::new(ReactiveAutoscale::new())),
            ("faascache", Box::new(FaasCachePolicy::new())),
            ("icebreaker", Box::new(IceBreakerPolicy::new())),
        ];
        for (name, mut policy) in policies {
            let clean = policy.tick(&obs(&[4]));
            let base = clean[0].prewarm_target.unwrap_or(0);
            let faulty = policy.tick(&obs_with_failures(&[4], 3));
            let lifted = faulty[0].prewarm_target;
            assert!(
                lifted.unwrap_or(0) >= base.saturating_sub(1) + 3,
                "{name}: target {lifted:?} does not replace 3 failed boots over base {base}"
            );
        }
    }

    #[test]
    fn zero_failures_keep_pure_caches_passive() {
        // The no-fault path must stay a strict no-op: pure keep-alive
        // policies still emit no pre-warm target at all.
        let mut keep = FixedPrewarm::provider_default();
        let mut cache = FaasCachePolicy::new();
        assert_eq!(keep.tick(&obs(&[4]))[0].prewarm_target, None);
        assert_eq!(cache.tick(&obs(&[4]))[0].prewarm_target, None);
    }
}
