//! Trait-level contract tests over *every* pre-warm pool policy — the
//! paper's line-up plus the slack-aware and oracle competitors from the
//! policy zoo. Each policy must, for any window statistics:
//!
//! * return exactly one decision per observed function with sane values,
//! * honor the `failed_boots` replacement lift (every policy routes its
//!   target through `aqua_faas::replacement_target`),
//! * keep its response bounded by the observed demand (no runaway
//!   targets from bounded inputs), and
//! * release capacity after sustained silence.
//!
//! The property block fuzzes observation streams with proptest; the named
//! tests below pin the sharper per-policy behaviors.

use aquatope::faas::sim::FnWindowStats;
use aquatope::faas::{
    FixedPrewarm, FunctionId, FunctionRegistry, FunctionSpec, PoolObservation, PrewarmController,
    WorkflowDag,
};
use aquatope::pool::{
    AquatopePool, AquatopePoolConfig, FaasCachePolicy, HistogramPolicy, IceBreakerPolicy,
    ReactiveAutoscale, SlackAwarePolicy,
};
use aquatope::prelude::*;
use aquatope::scenarios::OraclePrewarm;
use proptest::prelude::*;
use std::collections::HashMap;

fn obs(peaks: &[u32], minute: u64) -> PoolObservation {
    obs_failed(peaks, minute, 0)
}

fn obs_failed(peaks: &[u32], minute: u64, failed_boots: u32) -> PoolObservation {
    PoolObservation {
        now: SimTime::from_secs(60 * minute),
        stats: peaks
            .iter()
            .enumerate()
            .map(|(i, &p)| FnWindowStats {
                function: FunctionId(i),
                invocations: p,
                peak_concurrency: p,
                booting: 0,
                idle: (p / 2),
                busy: p,
                failed_boots,
            })
            .collect(),
    }
}

/// A three-function chain workflow for the policies that need one
/// (slack-aware reads deadlines, the oracle reads a schedule).
fn chain_fixture() -> (FunctionRegistry, WorkflowDag) {
    let mut registry = FunctionRegistry::new();
    let fns: Vec<FunctionId> = (0..3)
        .map(|i| {
            registry.register(
                FunctionSpec::new(format!("f{i}"))
                    .with_work_ms(150.0)
                    .with_cold_start(700.0, 200.0),
            )
        })
        .collect();
    (registry, WorkflowDag::chain("contract", fns))
}

fn all_policies() -> Vec<(&'static str, Box<dyn PrewarmController>)> {
    let cfg = AquatopePoolConfig {
        warmup_windows: 10_000, // stay in the reactive regime for speed
        ..AquatopePoolConfig::default()
    };
    let (registry, dag) = chain_fixture();
    let slack = SlackAwarePolicy::new(&[(&dag, SimDuration::from_millis(1500))], &registry);
    // A periodic oracle schedule over the three fixture functions.
    let schedule: HashMap<FunctionId, Vec<u32>> = (0..3)
        .map(|f| {
            (
                FunctionId(f),
                (0..240u32)
                    .map(|m| if m % 7 == 0 { 4 } else { 0 })
                    .collect(),
            )
        })
        .collect();
    vec![
        ("keep", Box::new(FixedPrewarm::provider_default())),
        ("autoscale", Box::new(ReactiveAutoscale::new())),
        ("hist", Box::new(HistogramPolicy::new())),
        ("faascache", Box::new(FaasCachePolicy::new())),
        ("icebreaker", Box::new(IceBreakerPolicy::new())),
        ("aquatope", Box::new(AquatopePool::new(cfg, &[]))),
        ("slack", Box::new(slack)),
        (
            "oracle",
            Box::new(OraclePrewarm::from_schedule(
                schedule,
                SimDuration::from_secs(120),
            )),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any short observation stream, every policy keeps its targets
    /// inside a generous envelope of the demand it has seen, and replaces
    /// fault-killed boots: with `failed > 0` the decision must carry a
    /// target at least that large.
    #[test]
    fn targets_bounded_and_failed_boots_honored(
        stream in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 3), 1..12),
        failed in 1u32..4,
    ) {
        for (name, mut policy) in all_policies() {
            let mut max_peak = 0u32;
            for (minute, peaks) in stream.iter().enumerate() {
                max_peak = max_peak.max(*peaks.iter().max().unwrap());
                let d = policy.tick(&obs(peaks, minute as u64));
                prop_assert_eq!(d.len(), peaks.len(), "{}: decision count", name);
                for dec in &d {
                    if let Some(t) = dec.prewarm_target {
                        // Generous bound: the worst extrapolator in the
                        // zoo (IceBreaker's Fourier fit) still stays well
                        // inside a few multiples of the observed peak.
                        prop_assert!(
                            t <= 8 * max_peak as usize + 16,
                            "{}: target {} from peaks ≤ {}", name, t, max_peak
                        );
                    }
                }
            }
            // One more window with fault-killed boots: the replacement
            // lift is mandatory for every policy.
            let last = stream.len() as u64;
            let d = policy.tick(&obs_failed(&[2, 0, 5], last, failed));
            for dec in &d {
                let t = dec.prewarm_target;
                prop_assert!(
                    t.is_some() && t.unwrap() >= failed as usize,
                    "{}: failed_boots={} must lift the target, got {:?}",
                    name, failed, t
                );
            }
        }
    }

    /// Decisions cover exactly the observed functions, once each, with
    /// positive keep-alives — for any peak vector.
    #[test]
    fn one_decision_per_function(peaks in proptest::collection::vec(0u32..8, 1..5)) {
        for (name, mut policy) in all_policies() {
            let d = policy.tick(&obs(&peaks, 0));
            let mut fns: Vec<usize> = d.iter().map(|dec| dec.function.0).collect();
            fns.sort_unstable();
            prop_assert_eq!(fns, (0..peaks.len()).collect::<Vec<_>>(), "{}", name);
            for dec in &d {
                prop_assert!(dec.keep_alive > SimDuration::ZERO, "{}", name);
            }
        }
    }
}

#[test]
fn one_decision_per_function_with_sane_values() {
    for (name, mut policy) in all_policies() {
        for minute in 0..30u64 {
            let peaks = [minute as u32 % 5, 3, 0];
            let decisions = policy.tick(&obs(&peaks, minute));
            assert_eq!(decisions.len(), peaks.len(), "{name}: decision count");
            for d in &decisions {
                assert!(
                    d.keep_alive > SimDuration::ZERO,
                    "{name}: keep-alive must be positive"
                );
                if let Some(t) = d.prewarm_target {
                    assert!(t < 10_000, "{name}: absurd target {t}");
                }
            }
            // Exactly one decision per observed function id.
            let mut fns: Vec<usize> = decisions.iter().map(|d| d.function.0).collect();
            fns.sort_unstable();
            assert_eq!(fns, vec![0, 1, 2], "{name}: function coverage");
        }
    }
}

#[test]
fn zero_load_eventually_releases_predictive_pools() {
    // After sustained zero demand, predictive policies must not keep
    // requesting capacity. (The oracle's fixture schedule is periodic, so
    // it is exempt by construction — its "demand" is the schedule.)
    for (name, mut policy) in all_policies() {
        if name == "oracle" {
            continue;
        }
        let mut last = Vec::new();
        for minute in 0..60u64 {
            last = policy.tick(&obs(&[0, 0, 0], minute));
        }
        for d in &last {
            if let Some(t) = d.prewarm_target {
                assert!(
                    t <= 1,
                    "{name}: still holding {t} containers after an hour of silence"
                );
            }
        }
    }
}

#[test]
fn oracle_releases_when_its_schedule_is_empty() {
    // The oracle's counterpart to the zero-load contract: beyond its
    // schedule (or on an all-zero one) it requests nothing.
    let mut oracle = OraclePrewarm::from_schedule(
        HashMap::from([(FunctionId(0), vec![3, 0])]),
        SimDuration::from_secs(120),
    );
    for minute in [1u64, 2, 50] {
        let d = oracle.tick(&obs(&[0], minute));
        assert_eq!(d[0].prewarm_target, Some(0), "minute {minute}");
    }
}

#[test]
fn preloaded_history_feeds_the_predictive_policies() {
    // A strongly periodic preloaded history should let IceBreaker predict
    // the busy phase with no live warm-up.
    let mut ice = IceBreakerPolicy::new();
    let hist: Vec<f64> = (0..256)
        .map(|m| if m % 8 == 0 { 6.0 } else { 0.0 })
        .collect();
    ice.preload_history(FunctionId(0), &hist);
    // History ends at index 255 (phase 7); the first live window is phase 0
    // (busy). After observing it, the next prediction targets phase 1
    // (quiet); at phase 7 the prediction targets phase 0 (busy).
    let mut targets = Vec::new();
    for minute in 0..16u64 {
        let phase = (256 + minute) % 8;
        let peak = if phase == 0 { 6 } else { 0 };
        let d = ice.tick(&obs(&[peak], minute));
        targets.push(d[0].prewarm_target.unwrap());
    }
    // Predictions made at phase 7 (minute indices 7 and 15, targeting the
    // busy next-phase 0) should be high.
    let before_busy: usize = targets[7].max(targets[15]);
    let mid_quiet = targets[2].min(targets[10]);
    assert!(
        before_busy > mid_quiet,
        "periodic history should shape predictions: {targets:?}"
    );
}

#[test]
fn aquatope_pool_trains_from_preloaded_history_alone() {
    let mut cfg = AquatopePoolConfig {
        warmup_windows: 64,
        training_window: 256,
        ..AquatopePoolConfig::default()
    };
    cfg.hybrid.window = 12;
    cfg.hybrid.enc_hidden = vec![8];
    cfg.hybrid.dec_hidden = vec![6];
    cfg.hybrid.mlp_hidden = vec![12, 8];
    cfg.hybrid.pretrain_epochs = 1;
    cfg.hybrid.train_epochs = 2;
    cfg.hybrid.mc_passes = 6;
    let mut pool = AquatopePool::new(cfg, &[]);
    let hist: Vec<f64> = (0..256)
        .map(|m| if m % 8 < 2 { 4.0 } else { 0.0 })
        .collect();
    pool.preload_history(FunctionId(0), &hist);
    // First live tick: with ≥ warmup history preloaded, the model trains
    // immediately and the decision is model-driven (not the 1.25× reactive
    // fallback, which would return exactly ceil(0 × 1.25) = 0 at peak 0
    // and ceil(4×1.25) = 5 at peak 4 forever).
    let d = pool.tick(&obs(&[0], 0));
    assert!(d[0].prewarm_target.is_some());
}
