//! Service-facing (non-sim-clock) pool observation accumulation.
//!
//! Inside the batch simulator, [`PoolObservation`]s are assembled by the
//! event loop from the cluster's own ledgers. A live control plane has no
//! simulator cluster — it owns the containers itself — so it needs a way
//! to *accumulate* the same per-window statistics from the raw signals it
//! sees (task arrivals, boots failing, containers changing state) and
//! hand any [`aqua_faas::PrewarmController`] an observation that is
//! indistinguishable from a simulator tick. [`LivePoolSignal`] is that
//! accumulator: the service feeds it signals as they happen, then calls
//! [`LivePoolSignal::observe`] once per control window to cut the window
//! and obtain the observation.
//!
//! Keeping this in the pool crate (rather than the service) means every
//! policy in the zoo is service-hosted for free: the policies only ever
//! see `PoolObservation`, which this module produces bit-compatibly.

use aqua_faas::{ClusterSnapshot, FnWindowStats, FunctionId, PoolObservation};
use aqua_sim::{SimDuration, SimTime};

/// Accumulates live per-function window statistics and cuts
/// [`PoolObservation`]s for a [`aqua_faas::PrewarmController`].
#[derive(Debug, Clone)]
pub struct LivePoolSignal {
    /// Invocations that became runnable this window, per function.
    invocations: Vec<u32>,
    /// Current number of in-flight (busy-equivalent) invocations.
    in_flight: Vec<u32>,
    /// Peak of `in_flight` within the window.
    peak: Vec<u32>,
    /// Boot failures observed this window.
    failed_boots: Vec<u32>,
    /// Window start time.
    window_start: SimTime,
    /// The observation [`LivePoolSignal::observe`] hands out, refilled in
    /// place every window instead of being allocated afresh.
    obs: PoolObservation,
}

impl LivePoolSignal {
    /// A signal accumulator for `functions` functions on a cluster with
    /// `total_memory_mb` of memory, starting its first window at `start`.
    pub fn new(functions: usize, total_memory_mb: f64, start: SimTime) -> Self {
        LivePoolSignal {
            invocations: vec![0; functions],
            in_flight: vec![0; functions],
            peak: vec![0; functions],
            failed_boots: vec![0; functions],
            window_start: start,
            obs: PoolObservation {
                now: start,
                window: SimDuration::ZERO,
                stats: (0..functions)
                    .map(|i| FnWindowStats {
                        function: FunctionId(i),
                        invocations: 0,
                        peak_concurrency: 0,
                        booting: 0,
                        idle: 0,
                        busy: 0,
                        failed_boots: 0,
                    })
                    .collect(),
                cluster: ClusterSnapshot {
                    reserved_memory_mb: 0.0,
                    total_memory_mb,
                    containers: 0,
                },
            },
        }
    }

    /// Records an invocation of `function` becoming runnable and entering
    /// execution (or a queue slot counted against concurrency).
    pub fn on_dispatch(&mut self, function: FunctionId) {
        self.invocations[function.0] += 1;
        self.in_flight[function.0] += 1;
        self.peak[function.0] = self.peak[function.0].max(self.in_flight[function.0]);
    }

    /// Records the completion (or rejection after dispatch) of one
    /// in-flight invocation of `function`.
    pub fn on_complete(&mut self, function: FunctionId) {
        self.in_flight[function.0] = self.in_flight[function.0].saturating_sub(1);
    }

    /// Records a failed container boot for `function`.
    pub fn on_boot_failure(&mut self, function: FunctionId) {
        self.failed_boots[function.0] += 1;
    }

    /// Current in-flight count for `function` (the live analogue of the
    /// cluster's busy-container count).
    pub fn in_flight(&self, function: FunctionId) -> u32 {
        self.in_flight[function.0]
    }

    /// Cuts the window at `now` and builds the observation a
    /// [`aqua_faas::PrewarmController`] expects. The caller supplies the
    /// container ledger view (`(idle, booting)` per function, in function
    /// order, plus reserved memory and live-container totals) because the
    /// warm pool, not the signal accumulator, owns containers. Window
    /// counters reset; the next window starts at `now`. The observation
    /// lives in the accumulator and is overwritten by the next call.
    ///
    /// # Panics
    ///
    /// Panics unless `ledger` yields exactly one pair per function.
    pub fn observe(
        &mut self,
        now: SimTime,
        ledger: impl IntoIterator<Item = (u32, u32)>,
        reserved_memory_mb: f64,
        containers: usize,
    ) -> &PoolObservation {
        let mut ledger = ledger.into_iter();
        for (i, s) in self.obs.stats.iter_mut().enumerate() {
            let (idle, booting) = ledger.next().expect("ledger shorter than the functions");
            s.invocations = self.invocations[i];
            s.peak_concurrency = self.peak[i];
            s.booting = booting;
            s.idle = idle;
            s.busy = self.in_flight[i];
            s.failed_boots = self.failed_boots[i];
        }
        assert!(ledger.next().is_none(), "ledger longer than the functions");
        self.obs.now = now;
        self.obs.window = now - self.window_start;
        self.obs.cluster.reserved_memory_mb = reserved_memory_mb;
        self.obs.cluster.containers = containers;
        self.invocations.iter_mut().for_each(|v| *v = 0);
        self.failed_boots.iter_mut().for_each(|v| *v = 0);
        // Peak concurrency restarts from the carried-over in-flight level.
        // The simulator's window peak restarts from 0 instead, so a window
        // with carried-over work and no new dispatch reads `in_flight` here
        // and 0 there (`window_peak_restarts_at_zero_over_carried_over_work`
        // in `aqua_faas::sim`).
        self.peak.copy_from_slice(&self.in_flight);
        self.window_start = now;
        &self.obs
    }

    /// Number of functions tracked.
    pub fn functions(&self) -> usize {
        self.obs.stats.len()
    }

    /// The default control-window length the service ticks policies at:
    /// a fine-grained 1 s window suited to reactive policies and the
    /// per-window predictive-veto budget. The batch simulator's pool
    /// tick is 60 s — services hosting *forecasting* policies
    /// (histogram, AQUATOPE) that were tuned against sim runs should set
    /// their window to match, or per-window demand shrinks 60-fold.
    pub fn default_window() -> SimDuration {
        SimDuration::from_secs(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counters_accumulate_and_reset() {
        let mut sig = LivePoolSignal::new(2, 4096.0, SimTime::ZERO);
        let f0 = FunctionId(0);
        let f1 = FunctionId(1);
        sig.on_dispatch(f0);
        sig.on_dispatch(f0);
        sig.on_complete(f0);
        sig.on_dispatch(f1);
        sig.on_boot_failure(f1);

        let obs = sig.observe(SimTime::from_secs(1), [(3, 1), (0, 2)], 512.0, 6);
        assert_eq!(obs.window, SimDuration::from_secs(1));
        assert_eq!(obs.stats[0].invocations, 2);
        assert_eq!(obs.stats[0].peak_concurrency, 2);
        assert_eq!(obs.stats[0].busy, 1);
        assert_eq!(obs.stats[0].idle, 3);
        assert_eq!(obs.stats[0].booting, 1);
        assert_eq!(obs.stats[0].failed_boots, 0);
        assert_eq!(obs.stats[1].invocations, 1);
        assert_eq!(obs.stats[1].failed_boots, 1);
        assert_eq!(obs.cluster.reserved_memory_mb, 512.0);
        assert_eq!(obs.cluster.total_memory_mb, 4096.0);
        assert_eq!(obs.cluster.containers, 6);

        // Next window: per-window counters reset, in-flight carries over.
        let obs2 = sig.observe(SimTime::from_secs(2), [(0, 0), (0, 0)], 0.0, 0);
        assert_eq!(obs2.stats[0].invocations, 0);
        assert_eq!(obs2.stats[0].failed_boots, 0);
        assert_eq!(obs2.stats[0].busy, 1, "in-flight carries across windows");
        // Unlike the simulator's window peak, which restarts at 0.
        assert_eq!(
            obs2.stats[0].peak_concurrency, 1,
            "peak restarts at carry-over"
        );
        assert_eq!(obs2.stats[1].failed_boots, 0);
    }

    #[test]
    fn observation_feeds_a_real_policy() {
        use aqua_faas::PrewarmController;

        let mut sig = LivePoolSignal::new(1, 16_384.0, SimTime::ZERO);
        for _ in 0..8 {
            sig.on_dispatch(FunctionId(0));
        }
        let obs = sig.observe(SimTime::from_secs(1), [(0, 0)], 0.0, 8);
        let mut policy = crate::ReactiveAutoscale::default();
        let decisions = policy.tick(obs);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].function, FunctionId(0));
    }

    #[test]
    fn complete_never_underflows() {
        let mut sig = LivePoolSignal::new(1, 1024.0, SimTime::ZERO);
        sig.on_complete(FunctionId(0));
        assert_eq!(sig.in_flight(FunctionId(0)), 0);
    }
}
