//! AQUATOPE's dynamic pre-warmed container pool (paper §4) and its
//! no-uncertainty ablation *AquaLite* (§8.1).
//!
//! Per function, the policy keeps the per-window concurrency history,
//! periodically (re)trains the hybrid Bayesian NN on a sliding window, and
//! sizes the pool to the predictive **upper confidence bound**
//! `mean + z·std` — the uncertainty-aware head-room that makes it robust
//! to fluctuating load (Figs. 10–11). Before enough history accumulates it
//! falls back to reactive provisioning. Workflow dependencies are
//! exploited by boosting a downstream function's target when its upstream
//! stages were active in the current window (§4.1's dependency-aware
//! prediction).

use std::collections::HashMap;

use aqua_faas::{
    replacement_target, FunctionId, PoolDecision, PoolObservation, PrewarmController, WorkflowDag,
};
use aqua_forecast::{HybridBayesian, HybridConfig, Predictor};
use aqua_sim::SimDuration;
use aqua_telemetry::{SimEvent, Telemetry};

use crate::to_series;

/// Uncertainty head-room: the pool target is ⌈mean + `UNCERTAINTY_Z`·std⌉.
const UNCERTAINTY_Z: f64 = 1.3;
/// Keep-alive for idle containers (short: the pool is predictive).
const KEEP_ALIVE: SimDuration = SimDuration::from_secs(120);

/// Configuration of [`AquatopePool`].
#[derive(Debug, Clone, PartialEq)]
pub struct AquatopePoolConfig {
    /// Windows of history before the first model training (reactive until
    /// then).
    pub warmup_windows: usize,
    /// Retrain the hybrid model every this many windows.
    pub retrain_every: usize,
    /// Sliding training-window length (most recent windows kept).
    pub training_window: usize,
    /// Whether to use MC-dropout uncertainty at all (false = AquaLite).
    pub uncertainty: bool,
    /// Hybrid-model hyperparameters.
    pub hybrid: HybridConfig,
}

impl AquatopePoolConfig {
    /// Windows of history a function's state retains: the longer of the
    /// training window and the forecast input window.
    fn history_cap(&self) -> usize {
        self.training_window.max(self.hybrid.window)
    }
}

impl Default for AquatopePoolConfig {
    fn default() -> Self {
        AquatopePoolConfig {
            warmup_windows: 64,
            retrain_every: 120,
            training_window: 480,
            uncertainty: true,
            hybrid: HybridConfig {
                window: 24,
                horizon: 2,
                enc_hidden: vec![32],
                dec_hidden: vec![12],
                mlp_hidden: vec![48, 24],
                dropout: 0.05,
                pretrain_epochs: 6,
                train_epochs: 14,
                mc_passes: 25,
                seed: 0xA00A,
            },
        }
    }
}

#[derive(Debug, Default)]
struct FnState {
    /// The most recent [`AquatopePoolConfig::history_cap`] windows — all a
    /// retrain or a forecast ever reads, so a resident policy stays bounded.
    history: Vec<f64>,
    /// Windows observed so far (pre-loaded ones included). Drives the
    /// retrain cadence and the per-retrain seed, which therefore do not
    /// notice that `history` forgets.
    seen: usize,
    model: Option<HybridBayesian>,
    /// `seen` at the last training.
    trained_at: usize,
}

impl FnState {
    fn record(&mut self, windows: &[f64], cap: usize) {
        self.seen += windows.len();
        self.history.extend_from_slice(windows);
        let excess = self.history.len().saturating_sub(cap);
        self.history.drain(..excess);
    }
}

/// The AQUATOPE dynamic pre-warmed container pool.
#[derive(Debug)]
pub struct AquatopePool {
    config: AquatopePoolConfig,
    state: HashMap<FunctionId, FnState>,
    /// Upstream functions per downstream function (with task-ratio scale).
    upstream: HashMap<FunctionId, Vec<(FunctionId, f64)>>,
    telemetry: Telemetry,
}

/// What one [`AquatopePool::predict_target`] call decided for a function.
struct TargetPrediction {
    target: usize,
    /// False during reactive warm-up (no trained model yet).
    trained: bool,
    /// Predicted demand for the next window (containers).
    mean: f64,
    /// Predictive standard deviation behind the UCB head-room (0 when
    /// uncertainty is disabled or the policy is still reactive).
    std: f64,
}

impl AquatopePool {
    /// Creates the pool policy; `dags` enables dependency-aware boosts for
    /// the registered workflows (pass `&[]` to disable).
    pub fn new(config: AquatopePoolConfig, dags: &[&WorkflowDag]) -> Self {
        let mut upstream: HashMap<FunctionId, Vec<(FunctionId, f64)>> = HashMap::new();
        for dag in dags {
            for stage in dag.stages() {
                for &dep in &stage.deps {
                    let dep_stage = dag.stage(dep);
                    let ratio = stage.tasks as f64 / dep_stage.tasks.max(1) as f64;
                    upstream
                        .entry(stage.function)
                        .or_default()
                        .push((dep_stage.function, ratio));
                }
            }
        }
        AquatopePool {
            config,
            state: HashMap::new(),
            upstream,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes pool-resize decisions (with predicted demand + uncertainty)
    /// to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The AquaLite ablation: same model, no uncertainty estimation. Its
    /// point forecast has `std = 0`, so the target is ⌈mean⌉.
    pub fn aqualite(mut config: AquatopePoolConfig, dags: &[&WorkflowDag]) -> Self {
        config.uncertainty = false;
        AquatopePool::new(config, dags)
    }

    /// Pre-loads historical per-window concurrency for `function` — the
    /// paper's pool scheduler trains on invocation histories stored in
    /// CouchDB before it starts managing an application. The model trains
    /// on the first tick once enough history is present.
    pub fn preload_history(&mut self, function: FunctionId, history: &[f64]) {
        let cap = self.config.history_cap();
        self.state.entry(function).or_default().record(history, cap);
    }

    /// Computes the pool target (plus the prediction behind it) for one
    /// function. An associated function (not `&mut self`) so that
    /// [`AquatopePool::tick`] can fan independent functions out across
    /// worker threads — each call touches only its own `FnState`.
    fn predict_target(
        config: &AquatopePoolConfig,
        function: FunctionId,
        st: &mut FnState,
        fallback_peak: u32,
    ) -> TargetPrediction {
        let n = st.seen;
        let len = st.history.len();
        // (Re)train when due.
        let min_len = config.hybrid.window + config.hybrid.horizon + 8;
        let due = st.model.is_none() || n >= st.trained_at + config.retrain_every;
        if n >= config.warmup_windows.max(min_len) && due {
            let start = len.saturating_sub(config.training_window);
            let series = to_series(&st.history[start..]);
            let mut hybrid_cfg = config.hybrid.clone();
            hybrid_cfg.seed ^= function.0 as u64 ^ ((n as u64) << 20);
            let mut model = HybridBayesian::new(hybrid_cfg);
            model.fit(&series);
            st.model = Some(model);
            st.trained_at = n;
        }
        match st.model.as_mut() {
            Some(model) => {
                let start = len.saturating_sub(config.hybrid.window);
                let series = to_series(&st.history[start..]);
                // The predictive MEAN gates the pool on/off: confidently
                // idle minutes release everything (just-in-time behaviour
                // on sparse series). When demand is expected, the target is
                // rounded *up* from the upper confidence bound, so the
                // uncertainty margin sizes the head-room without pinning
                // insurance containers through provably quiet periods.
                let forecast = if config.uncertainty {
                    model.forecast(&series)
                } else {
                    aqua_forecast::Forecast::point(model.forecast_point(&series))
                };
                let raw = forecast.ucb(UNCERTAINTY_Z);
                let target = if raw < 0.45 { 0 } else { raw.ceil() as usize };
                TargetPrediction {
                    target,
                    trained: true,
                    mean: forecast.mean,
                    std: forecast.std,
                }
            }
            // Reactive fallback during warm-up.
            None => {
                let mean = fallback_peak as f64 * 1.25;
                TargetPrediction {
                    target: mean.ceil() as usize,
                    trained: false,
                    mean,
                    std: 0.0,
                }
            }
        }
    }
}

impl PrewarmController for AquatopePool {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        // Record this window's observation for every function first.
        let cap = self.config.history_cap();
        for s in &obs.stats {
            let st = self.state.entry(s.function).or_default();
            st.record(&[s.peak_concurrency as f64], cap);
        }
        // Current-window peaks for dependency boosts.
        let peaks: HashMap<FunctionId, u32> = obs
            .stats
            .iter()
            .map(|s| (s.function, s.peak_concurrency))
            .collect();

        // Per-function model work (training and the MC forecast) is
        // independent across functions: take each function's state out of
        // the map and fan the calls out with the deterministic,
        // order-preserving parallel map. Results (and therefore telemetry
        // emission below) come back in `obs.stats` order, and each model's
        // RNG lives in its own `FnState`, so replays are bit-identical to
        // the sequential loop this replaces.
        let config = self.config.clone();
        let jobs: Vec<FnState> = obs
            .stats
            .iter()
            .map(|s| self.state.remove(&s.function).expect("recorded above"))
            .collect();
        let predictions = aqua_sim::par_map_owned(jobs, |i, mut st| {
            let s = &obs.stats[i];
            let p = Self::predict_target(&config, s.function, &mut st, s.peak_concurrency);
            (st, p)
        });

        obs.stats
            .iter()
            .zip(predictions)
            .map(|(s, (st, p))| {
                self.state.insert(s.function, st);
                let mut target = p.target;
                // Dependency-aware boost: active upstream stages imply
                // imminent downstream invocations. Once the function's own
                // model is trained, its history already reflects the
                // dependency, so the boost only bridges the warm-up phase.
                if !p.trained {
                    if let Some(ups) = self.upstream.get(&s.function) {
                        for (u, ratio) in ups {
                            let up_peak = peaks.get(u).copied().unwrap_or(0) as f64;
                            target = target.max((up_peak * ratio).ceil() as usize);
                        }
                    }
                }
                // Replace capacity lost to boot failures in this window on
                // top of the model's target.
                target = replacement_target(Some(target), s.failed_boots).expect("base is Some");
                self.telemetry.emit_with(|| SimEvent::PoolResize {
                    at: obs.now,
                    function: s.function.0,
                    target,
                    predicted_mean: p.mean,
                    predicted_std: p.std,
                    booting: s.booting,
                    idle: s.idle,
                    busy: s.busy,
                });
                PoolDecision {
                    function: s.function,
                    prewarm_target: Some(target),
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
    use aqua_faas::Stage;
    use aqua_sim::SimTime;

    fn obs(peaks: &[u32], minute: u64) -> PoolObservation {
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
                    idle: 0,
                    busy: 0,
                    failed_boots: 0,
                })
                .collect(),
        }
    }

    fn fast_config() -> AquatopePoolConfig {
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

    #[test]
    fn reactive_before_warmup() {
        let mut p = AquatopePool::new(fast_config(), &[]);
        let d = p.tick(&obs(&[4], 0));
        assert_eq!(d[0].prewarm_target, Some(5)); // 4 × 1.25
    }

    #[test]
    fn trains_and_tracks_periodic_load() {
        let mut p = AquatopePool::new(fast_config(), &[]);
        // Period-8 load: 6 containers for 4 windows, 0 for 4 windows.
        let mut last_targets = Vec::new();
        for minute in 0..120u64 {
            let peak = if (minute / 4) % 2 == 0 { 6 } else { 0 };
            let d = p.tick(&obs(&[peak], minute));
            if minute >= 100 {
                last_targets.push(d[0].prewarm_target.unwrap());
            }
        }
        // After training, targets must vary with the pattern rather than
        // sit at a constant reactive value.
        let max = *last_targets.iter().max().unwrap();
        let min = *last_targets.iter().min().unwrap();
        assert!(max >= 4, "peaks should be pre-warmed: {last_targets:?}");
        assert!(min <= 3, "quiet phases should shrink: {last_targets:?}");
    }

    #[test]
    fn uncertainty_adds_headroom_over_aqualite() {
        let run = |uncertainty: bool| -> usize {
            let mut cfg = fast_config();
            cfg.uncertainty = uncertainty;
            let mut p = AquatopePool::new(cfg, &[]);
            let mut total = 0usize;
            let mut rngish = 1u64;
            for minute in 0..100u64 {
                // Noisy load around 5.
                rngish = rngish.wrapping_mul(6364136223846793005).wrapping_add(1);
                let peak = 3 + (rngish >> 33) % 5;
                let d = p.tick(&obs(&[peak as u32], minute));
                if minute >= 60 {
                    total += d[0].prewarm_target.unwrap();
                }
            }
            total
        };
        let with_unc = run(true);
        let without = run(false);
        assert!(
            with_unc > without,
            "UCB targets should exceed point targets: {with_unc} vs {without}"
        );
    }

    #[test]
    fn dependency_boost_prewarms_downstream() {
        // Workflow: f0 → f1 with 3× fan-out.
        let dag = WorkflowDag::new(
            "w",
            vec![
                Stage::new(FunctionId(0), 1, vec![]),
                Stage::new(FunctionId(1), 3, vec![0]),
            ],
        );
        let mut p = AquatopePool::new(fast_config(), &[&dag]);
        // Upstream saw 2 concurrent; downstream history is flat zero.
        let d = p.tick(&obs(&[2, 0], 0));
        let downstream = d.iter().find(|x| x.function == FunctionId(1)).unwrap();
        assert!(
            downstream.prewarm_target.unwrap() >= 6,
            "expected ≥ 2×3 boost, got {:?}",
            downstream.prewarm_target
        );
    }

    #[test]
    fn aqualite_disables_uncertainty() {
        let (tel, rec) = Telemetry::recording();
        let mut p = AquatopePool::aqualite(fast_config(), &[]).with_telemetry(tel);
        assert!(!p.config.uncertainty);
        // Once trained, every target rests on a point forecast: σ = 0.
        for minute in 0..60u64 {
            p.tick(&obs(&[3 + (minute % 4) as u32], minute));
        }
        let trained: Vec<f64> = rec
            .lock()
            .expect("recorder lock")
            .events()
            .into_iter()
            .skip(40)
            .filter_map(|e| match e {
                SimEvent::PoolResize { predicted_std, .. } => Some(predicted_std),
                _ => None,
            })
            .collect();
        assert_eq!(trained, vec![0.0; 20]);
    }

    /// A resident policy's memory is bounded, and forgetting old windows
    /// changes no decision: the hash is of the first 1 000 targets the
    /// unbounded history produced on this load before the cap existed.
    #[test]
    fn history_is_capped_without_moving_a_decision() {
        let cfg = fast_config();
        let cap = cfg.history_cap();
        let mut p = AquatopePool::new(cfg, &[]);
        let mut hash: u64 = 0xcbf29ce484222325;
        let mut x = 1u64;
        for minute in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let peak = (if (minute / 6) % 2 == 0 { 5 } else { 1 }) + (x >> 33) % 3;
            let d = p.tick(&obs(&[peak as u32], minute));
            if minute < 1000 {
                let target = d[0].prewarm_target.unwrap() as u64;
                hash = (hash ^ target).wrapping_mul(0x100000001b3);
            }
        }
        aqua_telemetry::golden::assert_pinned("aquatope_history_cap", &[("fnv", hash)]);
        let st = &p.state[&FunctionId(0)];
        assert_eq!((st.history.len(), st.seen), (cap, 5000));
    }
}
