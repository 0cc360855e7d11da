//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes *which* faults a run should experience —
//! either stochastically (per-fault-class rates drawn from dedicated RNG
//! streams) or as an explicit scripted schedule ("the 3rd boot fails").
//! The plan is a pure specification: [`FaasSimBuilder`] holds one and each
//! run builds a fresh [`FaultState`] from it, so repeated runs of the same
//! simulator replay identical fault sequences.
//!
//! # Determinism contract
//!
//! Every fault class draws from its **own** RNG stream, forked from the
//! plan seed by class label (`boot_fail`, `crash`, `straggler`,
//! `handoff`). Fault draws never touch the simulator's main noise stream,
//! so:
//!
//! * a plan with all rates at `0.0` is a strict no-op — the run's event
//!   trace is byte-identical to one without a fault layer at all;
//! * enabling one fault class never perturbs the draw sequence of
//!   another;
//! * the `n`-th draw of a class depends only on the plan seed and `n`,
//!   which is what makes scripted schedules ("fire on draw `n`") stable.
//!
//! [`FaasSimBuilder`]: crate::sim::FaasSimBuilder

use aqua_sim::{SimDuration, SimRng};
use aqua_telemetry::FaultKind;

/// Mean delay of a delayed stage handoff, milliseconds (each draw jitters
/// it by ×0.5–1.5).
const HANDOFF_DELAY_MS: f64 = 2000.0;
/// Base backoff before a retry; attempt `k` waits `RETRY_BACKOFF · 2^(k-1)`.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Per-class fault probabilities and magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRates {
    /// Probability that a container boot fails (the container dies at the
    /// moment it would have turned warm).
    pub boot_fail: f64,
    /// Probability that an invocation's container crashes mid-execution
    /// (OOM / segfault), killing every invocation running on it.
    pub crash: f64,
    /// Probability that an individual invocation is a straggler.
    pub straggler: f64,
    /// Multiplicative slowdown applied to a straggler invocation's
    /// execution time (the straggler runs `straggler_factor`× longer).
    pub straggler_factor: f64,
    /// Probability that a stage handoff (parent stage complete → dependent
    /// stage dispatch) is delayed, by about 2 s.
    pub handoff_delay: f64,
}

impl Default for FaultRates {
    /// All rates zero; the straggler slowdown at a representative 4× so
    /// enabling that rate alone is meaningful.
    fn default() -> Self {
        FaultRates {
            boot_fail: 0.0,
            crash: 0.0,
            straggler: 0.0,
            straggler_factor: 4.0,
            handoff_delay: 0.0,
        }
    }
}

/// Specification of the faults a run should experience.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-class fault streams (independent of the
    /// simulator's noise seed).
    pub seed: u64,
    /// Stochastic fault rates.
    pub rates: FaultRates,
    /// Scripted faults: `(class, n)` forces the `n`-th draw (0-based) of
    /// `class` to fire regardless of its rate. Magnitudes still come from
    /// [`FaultRates`].
    pub scripted: Vec<(FaultKind, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// A stochastic plan from a seed and per-class rates.
    pub fn from_seed(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            seed,
            rates,
            scripted: Vec::new(),
        }
    }

    /// A purely scripted plan: only the listed `(class, draw-index)` pairs
    /// fire.
    pub fn scripted(seed: u64, schedule: Vec<(FaultKind, u64)>) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::default(),
            scripted: schedule,
        }
    }
}

/// One fault class's live draw state: a dedicated RNG stream, a draw
/// counter, and the scripted draw indices for the class.
#[derive(Debug, Clone)]
struct ClassState {
    rng: SimRng,
    draws: u64,
    scripted: Vec<u64>,
}

impl ClassState {
    fn new(root: &SimRng, label: &str, kind: FaultKind, plan: &FaultPlan) -> Self {
        ClassState {
            rng: root.fork(label),
            draws: 0,
            scripted: plan
                .scripted
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| *n)
                .collect(),
        }
    }

    /// One Bernoulli draw: fires with `rate`, or when scripted. Always
    /// consumes exactly one uniform so draw `n` is position-stable.
    fn fire(&mut self, rate: f64) -> bool {
        let n = self.draws;
        self.draws += 1;
        let stochastic = self.rng.uniform() < rate.clamp(0.0, 1.0);
        stochastic || self.scripted.contains(&n)
    }
}

/// Live fault-draw state for one simulation run, built fresh from a
/// [`FaultPlan`] at run start.
#[derive(Debug, Clone)]
pub struct FaultState {
    rates: FaultRates,
    boot_fail: ClassState,
    crash: ClassState,
    straggler: ClassState,
    handoff: ClassState,
}

impl FaultState {
    /// Instantiates the plan's per-class streams.
    pub fn new(plan: &FaultPlan) -> Self {
        let root = SimRng::seed(plan.seed);
        FaultState::from_root(&root, plan)
    }

    /// Instantiates per-class streams for one shard of a partitioned run:
    /// the plan root is forked by shard id first (the same label-forking
    /// pattern the classes themselves use), so each shard draws from an
    /// independent, position-stable stream. Scripted draw indices apply
    /// per shard.
    pub fn for_shard(plan: &FaultPlan, shard: usize) -> Self {
        let root = SimRng::seed(plan.seed).fork(&format!("shard-{shard}"));
        FaultState::from_root(&root, plan)
    }

    fn from_root(root: &SimRng, plan: &FaultPlan) -> Self {
        FaultState {
            rates: plan.rates.clone(),
            boot_fail: ClassState::new(root, "boot_fail", FaultKind::BootFail, plan),
            crash: ClassState::new(root, "crash", FaultKind::Crash, plan),
            straggler: ClassState::new(root, "straggler", FaultKind::Straggler, plan),
            handoff: ClassState::new(root, "handoff", FaultKind::HandoffDelay, plan),
        }
    }

    /// Draws the fate of one container boot: `true` = the boot fails.
    pub fn next_boot_fail(&mut self) -> bool {
        self.boot_fail.fire(self.rates.boot_fail)
    }

    /// Draws the fate of one invocation's container: `Some(frac)` = the
    /// container crashes after fraction `frac ∈ [0.1, 0.9]` of the
    /// invocation's execution time.
    pub fn next_crash(&mut self) -> Option<f64> {
        if self.crash.fire(self.rates.crash) {
            Some(0.1 + 0.8 * self.crash.rng.uniform())
        } else {
            None
        }
    }

    /// Draws one invocation's straggler fate: `Some(factor)` = multiply
    /// its execution time by `factor > 1`.
    pub fn next_straggler(&mut self) -> Option<f64> {
        if self.straggler.fire(self.rates.straggler) {
            // Jitter around the configured factor so stragglers are not
            // all identical (±25%), keeping the factor ≥ 1.5.
            let jitter = 0.75 + 0.5 * self.straggler.rng.uniform();
            Some((self.rates.straggler_factor * jitter).max(1.5))
        } else {
            None
        }
    }

    /// Draws one stage handoff's fate: `Some(delay)` = delay the dependent
    /// stage's dispatch.
    pub fn next_handoff(&mut self) -> Option<SimDuration> {
        if self.handoff.fire(self.rates.handoff_delay) {
            let jitter = 0.5 + self.handoff.rng.uniform();
            Some(SimDuration::from_secs_f64(
                HANDOFF_DELAY_MS * jitter / 1000.0,
            ))
        } else {
            None
        }
    }
}

/// Retry-with-backoff and per-stage timeout policy absorbing injected
/// faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per task after the initial attempt; a task that
    /// exhausts them is **rejected** and its workflow instance never
    /// completes.
    pub max_retries: u32,
    /// Per-invocation timeout: an attempt running longer is cancelled
    /// (its slot freed) and retried. `None` disables timeouts.
    pub task_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    /// Two retries with 500 ms base backoff, no timeout. Dormant unless a
    /// fault or timeout actually fires.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            task_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry attempt `attempt` (1-based), exponential with
    /// a capped exponent.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        RETRY_BACKOFF * (1u64 << attempt.saturating_sub(1).min(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let mut st = FaultState::new(&FaultPlan::disabled());
        for _ in 0..1000 {
            assert!(!st.next_boot_fail());
            assert!(st.next_crash().is_none());
            assert!(st.next_straggler().is_none());
            assert!(st.next_handoff().is_none());
        }
    }

    #[test]
    fn draws_are_reproducible_per_seed() {
        let plan = FaultPlan::from_seed(
            9,
            FaultRates {
                boot_fail: 0.3,
                crash: 0.3,
                straggler: 0.3,
                handoff_delay: 0.3,
                ..FaultRates::default()
            },
        );
        let mut a = FaultState::new(&plan);
        let mut b = FaultState::new(&plan);
        for _ in 0..200 {
            assert_eq!(a.next_boot_fail(), b.next_boot_fail());
            assert_eq!(a.next_crash(), b.next_crash());
            assert_eq!(a.next_straggler(), b.next_straggler());
            assert_eq!(a.next_handoff(), b.next_handoff());
        }
    }

    #[test]
    fn classes_are_independent_streams() {
        // Enabling the crash class must not change boot-fail draws.
        let quiet = FaultPlan::from_seed(
            5,
            FaultRates {
                boot_fail: 0.5,
                ..FaultRates::default()
            },
        );
        let noisy = FaultPlan::from_seed(
            5,
            FaultRates {
                boot_fail: 0.5,
                crash: 0.9,
                ..FaultRates::default()
            },
        );
        let mut a = FaultState::new(&quiet);
        let mut b = FaultState::new(&noisy);
        for _ in 0..100 {
            // b draws crashes interleaved; boot-fail stream unaffected.
            let _ = b.next_crash();
            assert_eq!(a.next_boot_fail(), b.next_boot_fail());
        }
    }

    #[test]
    fn scripted_draw_fires_exactly_once() {
        let plan = FaultPlan::scripted(1, vec![(FaultKind::BootFail, 2)]);
        let mut st = FaultState::new(&plan);
        let fired: Vec<bool> = (0..5).map(|_| st.next_boot_fail()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
    }

    #[test]
    fn straggler_factor_is_meaningful() {
        let plan = FaultPlan::from_seed(
            3,
            FaultRates {
                straggler: 1.0,
                straggler_factor: 4.0,
                ..FaultRates::default()
            },
        );
        let mut st = FaultState::new(&plan);
        for _ in 0..100 {
            let f = st.next_straggler().expect("rate 1.0 always fires");
            assert!((1.5..=6.0).contains(&f), "factor {f}");
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let rp = RetryPolicy::default();
        assert_eq!(rp.backoff_for(1), SimDuration::from_millis(500));
        assert_eq!(rp.backoff_for(2), SimDuration::from_millis(1000));
        assert_eq!(rp.backoff_for(3), SimDuration::from_millis(2000));
        // Exponent caps instead of overflowing.
        assert_eq!(rp.backoff_for(60), SimDuration::from_millis(500 * 1024));
    }
}
