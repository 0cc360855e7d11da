//! Histogram-based keep-alive policy (*Serverless in the Wild*, Shahrad et
//! al., ATC'20).
//!
//! Per function, the policy maintains a histogram of idle-time gaps
//! between invocations (in 1-minute buckets). The keep-alive is set to the
//! 99th percentile of observed gaps (capped), and a pre-warm is scheduled
//! just before the histogram's likely next invocation — approximated per
//! tick: if the time since the last invocation is close to a histogram
//! mode, warm containers are provisioned at the recently observed
//! concurrency.

use aqua_faas::{replacement_target, PoolDecision, PoolObservation, PrewarmController};
use aqua_sim::SimDuration;

const MAX_GAP_MINUTES: usize = 240;

#[derive(Debug, Clone, Default)]
struct FnHistogram {
    /// gap histogram in minutes.
    buckets: Vec<u32>,
    /// `Σ buckets`, kept as a counter: the buckets only change in windows
    /// that saw an invocation, the policy reads the total every window.
    total: u32,
    /// The 99th-percentile gap: the first bucket at which the running sum
    /// of `buckets` reaches `⌈0.99 · total⌉` (`None` while empty).
    p99_gap: Option<usize>,
    /// `Σ buckets[..p99_gap]`, the running sum just short of that bucket.
    /// With it an increment moves the percentile a bucket or two along
    /// instead of re-summing the histogram from zero.
    below_p99: u32,
    minutes_since_invocation: usize,
    recent_peak: f64,
    seen_any: bool,
}

impl FnHistogram {
    fn record_window(&mut self, invocations: u32, peak: u32) {
        if invocations > 0 {
            if self.seen_any {
                let gap = self.minutes_since_invocation.min(MAX_GAP_MINUTES);
                if self.buckets.len() <= gap {
                    self.buckets.resize(gap + 1, 0);
                }
                self.buckets[gap] += 1;
                self.total += 1;
                self.advance_p99(gap);
            }
            self.seen_any = true;
            self.minutes_since_invocation = 0;
            // Exponential moving average of the observed concurrency.
            self.recent_peak = 0.6 * self.recent_peak + 0.4 * peak as f64;
        } else {
            self.minutes_since_invocation += 1;
        }
    }

    /// Re-establishes `below_p99 < ⌈0.99 · total⌉ ≤ below_p99 +
    /// buckets[p99_gap]` after bucket `incremented` and `total` grew by one
    /// — the bucket a from-zero scan would stop at.
    fn advance_p99(&mut self, incremented: usize) {
        let target = (self.total as f64 * 0.99).ceil() as u32;
        let mut gap = self.p99_gap.unwrap_or(0);
        if incremented < gap {
            self.below_p99 += 1;
        }
        while self.below_p99 + self.buckets[gap] < target {
            self.below_p99 += self.buckets[gap];
            gap += 1;
        }
        while self.below_p99 >= target {
            gap -= 1;
            self.below_p99 -= self.buckets[gap];
        }
        self.p99_gap = Some(gap);
    }

    /// Probability mass of gaps equal to `gap ± 1` minutes.
    fn arrival_likely_at(&self, gap: usize) -> bool {
        if self.total < 5 {
            return true; // not enough data: stay warm
        }
        let mass: u32 = (gap.saturating_sub(1)..=gap + 1)
            .filter_map(|g| self.buckets.get(g))
            .sum();
        mass as f64 / self.total as f64 > 0.15
    }
}

/// The histogram keep-alive policy.
#[derive(Debug, Clone, Default)]
pub struct HistogramPolicy {
    /// Indexed by [`aqua_faas::FunctionId`]; grows to the largest id seen.
    /// A slot no tick has touched yet is the empty histogram a first
    /// sighting starts from.
    histograms: Vec<FnHistogram>,
}

impl HistogramPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        HistogramPolicy::default()
    }
}

impl PrewarmController for HistogramPolicy {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        obs.stats
            .iter()
            .map(|s| {
                if self.histograms.len() <= s.function.0 {
                    self.histograms
                        .resize_with(s.function.0 + 1, FnHistogram::default);
                }
                let h = &mut self.histograms[s.function.0];
                h.record_window(s.invocations, s.peak_concurrency);
                // Keep-alive: p99 of gap distribution, min 2, max 60 min.
                let ka_min = h.p99_gap.unwrap_or(10).clamp(2, 60) as u64;
                // Pre-warm if the histogram says an arrival is imminent.
                let next_gap = h.minutes_since_invocation + 1;
                let target = if h.arrival_likely_at(next_gap) {
                    h.recent_peak.ceil() as usize
                } else {
                    0
                };
                PoolDecision {
                    function: s.function,
                    // Boots lost to faults this window are replaced on top
                    // of the histogram's own target.
                    prewarm_target: replacement_target(Some(target), s.failed_boots),
                    keep_alive: SimDuration::from_secs(60 * ka_min),
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
    use aqua_faas::FunctionId;
    use aqua_sim::SimTime;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn obs_one(invocations: u32, peak: u32) -> PoolObservation {
        PoolObservation {
            now: SimTime::from_secs(60),
            stats: vec![FnWindowStats {
                function: FunctionId(0),
                invocations,
                peak_concurrency: peak,
                booting: 0,
                idle: 0,
                busy: 0,
                failed_boots: 0,
            }],
        }
    }

    #[test]
    fn histogram_learns_periodic_gap() {
        let mut p = HistogramPolicy::new();
        // Invocations every 5 minutes (gap = 4 idle windows... pattern below
        // yields gap 5 in histogram terms: 4 empty windows + 1 active).
        let mut decisions = Vec::new();
        for round in 0..100 {
            let active = round % 5 == 0;
            decisions = p.tick(&obs_one(
                if active { 3 } else { 0 },
                if active { 2 } else { 0 },
            ));
        }
        // Keep-alive should have converged to roughly the observed gap, not
        // the 10-minute default or the 60-minute cap.
        let ka_minutes = decisions[0].keep_alive.as_secs_f64() / 60.0;
        assert!(
            (2.0..=10.0).contains(&ka_minutes),
            "keep-alive {ka_minutes} min"
        );
    }

    #[test]
    fn prewarms_when_arrival_imminent() {
        let mut p = HistogramPolicy::new();
        // Period 4: minute indices 0,4,8,... are active.
        let mut target_before_arrival = 0;
        for round in 0..80 {
            let active = round % 4 == 0;
            let d = p.tick(&obs_one(
                if active { 4 } else { 0 },
                if active { 3 } else { 0 },
            ));
            // One window before the next arrival (round % 4 == 3).
            if round > 40 && round % 4 == 3 {
                target_before_arrival = d[0].prewarm_target.unwrap();
            }
        }
        assert!(
            target_before_arrival >= 1,
            "histogram policy should pre-warm before a predicted arrival"
        );
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let h = FnHistogram::default();
        assert_eq!(h.p99_gap, None);
    }

    #[test]
    fn new_function_stays_warm_by_default() {
        let mut p = HistogramPolicy::new();
        let d = p.tick(&obs_one(2, 2));
        // Not enough histogram data → keeps warm reactively.
        assert!(d[0].prewarm_target.unwrap() >= 1);
    }

    /// The pre-cache policy, kept as the oracle: a `HashMap` of histograms
    /// whose total and p99 are recomputed from the buckets on every tick.
    #[derive(Default)]
    struct RefHistogram {
        buckets: Vec<u32>,
        minutes_since_invocation: usize,
        recent_peak: f64,
        seen_any: bool,
    }

    impl RefHistogram {
        fn record_window(&mut self, invocations: u32, peak: u32) {
            if invocations > 0 {
                if self.seen_any {
                    let gap = self.minutes_since_invocation.min(MAX_GAP_MINUTES);
                    if self.buckets.len() <= gap {
                        self.buckets.resize(gap + 1, 0);
                    }
                    self.buckets[gap] += 1;
                }
                self.seen_any = true;
                self.minutes_since_invocation = 0;
                self.recent_peak = 0.6 * self.recent_peak + 0.4 * peak as f64;
            } else {
                self.minutes_since_invocation += 1;
            }
        }

        fn percentile_gap(&self, q: f64) -> Option<usize> {
            let total: u32 = self.buckets.iter().sum();
            if total == 0 {
                return None;
            }
            let target = (total as f64 * q).ceil() as u32;
            let mut acc = 0;
            for (gap, &count) in self.buckets.iter().enumerate() {
                acc += count;
                if acc >= target {
                    return Some(gap);
                }
            }
            Some(self.buckets.len() - 1)
        }

        fn arrival_likely_at(&self, gap: usize) -> bool {
            let total: u32 = self.buckets.iter().sum();
            if total < 5 {
                return true;
            }
            let mass: u32 = (gap.saturating_sub(1)..=gap + 1)
                .filter_map(|g| self.buckets.get(g))
                .sum();
            mass as f64 / total as f64 > 0.15
        }
    }

    #[derive(Default)]
    struct RefPolicy {
        histograms: HashMap<FunctionId, RefHistogram>,
    }

    impl RefPolicy {
        fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
            obs.stats
                .iter()
                .map(|s| {
                    let h = self.histograms.entry(s.function).or_default();
                    h.record_window(s.invocations, s.peak_concurrency);
                    let ka_min = h.percentile_gap(0.99).unwrap_or(10).clamp(2, 60) as u64;
                    let next_gap = h.minutes_since_invocation + 1;
                    let target = if h.arrival_likely_at(next_gap) {
                        h.recent_peak.ceil() as usize
                    } else {
                        0
                    };
                    PoolDecision {
                        function: s.function,
                        prewarm_target: replacement_target(Some(target), s.failed_boots),
                        keep_alive: SimDuration::from_secs(60 * ka_min),
                        shrink: true,
                    }
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Cached total and p99 change no decision: every window's decision
        /// vector equals the recompute-from-buckets oracle's. Each function
        /// draws its activity at one of three densities (so the run holds
        /// short gaps, gaps past the 240-bucket cap and too few gaps to
        /// trust), and functions join the observation mid-run, listed in
        /// descending id order, so slots are created both by growth and
        /// ahead of their first sighting.
        #[test]
        fn prop_cached_policy_matches_recompute_reference(
            seed in 0u64..u64::MAX,
            funcs in 1usize..5,
        ) {
            let mut rng = TestRng::new(seed);
            let busy_in_1000: Vec<u64> = (0..funcs)
                .map(|_| [400, 30, 3][rng.below(3) as usize])
                .collect();
            let first_seen: Vec<u64> = (0..funcs).map(|_| rng.below(320)).collect();
            let mut cached = HistogramPolicy::new();
            let mut oracle = RefPolicy::default();
            for w in 0..640 {
                let stats: Vec<FnWindowStats> = (0..funcs)
                    .rev()
                    .filter(|&f| w >= first_seen[f])
                    .map(|f| {
                        let busy = rng.below(1000) < busy_in_1000[f];
                        FnWindowStats {
                            function: FunctionId(f),
                            invocations: if busy { 1 + rng.below(5) as u32 } else { 0 },
                            peak_concurrency: rng.below(9) as u32,
                            booting: 0,
                            idle: 0,
                            busy: 0,
                            failed_boots: u32::from(rng.below(40) == 0),
                        }
                    })
                    .collect();
                let obs = PoolObservation {
                    stats,
                    ..obs_one(0, 0)
                };
                prop_assert_eq!(cached.tick(&obs), oracle.tick(&obs), "window {}", w);
            }
        }
    }
}
