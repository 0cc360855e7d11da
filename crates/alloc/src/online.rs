//! Online (service-clock) latency modelling with budgeted incremental
//! refits.
//!
//! The batch resource managers fit their GPs inside one `optimize` call;
//! a live control plane instead sees a *stream* of completed invocations
//! and must fold them into its models without ever blocking the request
//! path. [`OnlineLatencyModel`] is the alloc crate's service-facing entry
//! point for that: completions are **buffered** (O(1), request path), and
//! a refit scheduler running on its own cadence calls
//! [`OnlineLatencyModel::refit`] per application, which drains the buffer
//! through [`Gp::extend`] — the O(n²) rank-1 `Cholesky::extend_in_place`
//! append, with the full hyperparameter grid search only every
//! [`GpConfig::refit_every`] appends. A sliding window
//! ([`Gp::refit_subset`]) caps the training set so per-append cost stays
//! bounded over an unbounded run. The exact tier's GP is the one copy of
//! an app's training window: a tier switch hands its rows
//! ([`Gp::train_x`], [`Gp::train_y`]) to the sparse tier.
//!
//! Inputs are `(config ∈ [0,1]³, t ∈ [0,1])`: the normalized resource
//! coordinates plus a normalized-time coordinate, `t = at_secs /
//! time_horizon` clamped to 1. Within the first horizon the time
//! coordinate models drift (recent observations dominate nearby
//! predictions) and spreads repeated observations of one configuration
//! apart, which keeps the exact tier's kernel matrix factorable. Past the
//! horizon it saturates at 1.0, and every later observation of a
//! configuration is the *same* input point: an app that runs one
//! configuration then sees a window of duplicates. On `svc_overload`
//! (360-minute cells) a sparse-tier rebuild sees ≈ 2 800 rows holding on
//! average ≈ 510 distinct points, and in two rebuilds of three exactly
//! one; its 64 inducing points average ≈ 23 distinct ones, because
//! greedy selection, once every distinct point is chosen, keeps taking
//! row 0 again. The sparse tier stays factorable through the jitter its
//! factorizations add, and singular exact-tier appends are counted in
//! [`OnlineModelStats::rejected`].

use aqua_gp::{DtcBasis, Gp, GpConfig, SparseGp};
use aqua_sim::fxhash::FxHashMap;

/// One buffered observation: normalized input coordinates and an observed
/// latency (seconds).
#[derive(Debug, Clone, PartialEq)]
struct PendingObs {
    x: Vec<f64>,
    latency: f64,
}

/// Which surrogate tier an application's model currently runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateTier {
    /// Exact GP: O(n²) per append, O(n²) per prediction.
    Exact,
    /// Sparse inducing-point GP: O(m²) per append and prediction.
    Sparse,
}

/// One exact→sparse tier transition, recorded by [`OnlineLatencyModel::refit`]
/// and drained by the host (the service emits a telemetry event per entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSwitch {
    /// Application whose model switched.
    pub app: usize,
    /// Training-set size at the moment of the switch.
    pub train: usize,
    /// Inducing-set size of the new sparse model.
    pub inducing: usize,
}

/// The fitted model behind one application, on either tier. The sparse
/// tier carries the fit state it is rebuilt from, whose rows are the
/// app's training window.
#[derive(Debug, Clone)]
enum TierGp {
    Exact(Gp),
    Sparse(SparseGp, Box<DtcBasis>),
}

/// Per-application online model state.
#[derive(Debug, Clone, Default)]
struct AppModel {
    model: Option<TierGp>,
    pending: Vec<PendingObs>,
    /// Completions recorded since the last successful refit.
    staleness: u64,
    /// Warm-up observations held until there are enough to fit.
    warmup: Vec<PendingObs>,
    /// Appends absorbed on the sparse tier since its last full rebuild.
    sparse_appends: usize,
}

/// Counters describing the work an [`OnlineLatencyModel`] has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineModelStats {
    /// Observations recorded (buffered).
    pub observed: u64,
    /// Observations folded into a GP.
    pub absorbed: u64,
    /// Sliding-window compactions applied.
    pub compactions: u64,
    /// Appends rejected by the GP (singular kernel); dropped.
    pub rejected: u64,
    /// Exact→sparse tier switches performed.
    pub tier_switches: u64,
}

/// Streaming per-application latency models with incremental GP refits.
#[derive(Debug, Clone)]
pub struct OnlineLatencyModel {
    /// Seed-free hashing: the map's iteration order, and so the order a
    /// dropped model frees its apps in, is the same in every process. With
    /// a per-process random order the heap the next replay allocates from
    /// differed between runs, and a host's peak RSS with it.
    apps: FxHashMap<usize, AppModel>,
    /// Apps whose `pending` buffer is non-empty, in no particular order:
    /// a refit tick ranks these few instead of walking every app.
    with_pending: Vec<usize>,
    config: GpConfig,
    /// Training-set size cap; exceeding it triggers a sliding-window
    /// compaction keeping the most recent half.
    window: usize,
    /// Observations needed before the first fit.
    min_fit: usize,
    /// Horizon (seconds) the time coordinate is normalized by.
    time_horizon: f64,
    /// Training size past which refits switch an app's model to the
    /// sparse tier. Windows at or below the threshold never switch.
    tier_threshold: usize,
    /// Inducing-set size for the sparse tier.
    inducing: usize,
    /// Tier switches not yet drained by the host.
    switches: Vec<TierSwitch>,
    stats: OnlineModelStats,
}

impl OnlineLatencyModel {
    /// A model set with the given GP config, training-window cap, and
    /// time-normalization horizon in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `window ≥ 8` and `time_horizon > 0`.
    pub fn new(config: GpConfig, window: usize, time_horizon: f64) -> Self {
        assert!(window >= 8, "window must hold at least 8 observations");
        assert!(time_horizon > 0.0, "time horizon must be positive");
        OnlineLatencyModel {
            apps: FxHashMap::default(),
            with_pending: Vec::new(),
            config,
            window,
            min_fit: 4,
            time_horizon,
            tier_threshold: 256,
            inducing: 64,
            switches: Vec::new(),
            stats: OnlineModelStats::default(),
        }
    }

    /// Sensible service defaults: a 64-point window and a 1-hour time
    /// horizon. The hyperparameter grid search (24 full Cholesky fits)
    /// runs every 32nd append rather than the batch default of 8 —
    /// an online model absorbs thousands of appends per hour, and at
    /// that volume the search dominates total refit cost while the
    /// hyperparameters barely move between consecutive windows.
    pub fn service_default() -> Self {
        let config = GpConfig {
            refit_every: 32,
            ..GpConfig::default()
        };
        OnlineLatencyModel::new(config, 64, 3600.0)
    }

    /// Service defaults sized for heavy per-app traffic: a 4096-point
    /// window with the surrogate switching to the sparse tier once an
    /// app's training set crosses 256 points. The exact tier's O(n²)
    /// append and O(n³) periodic grid search would dominate refit budget
    /// long before the window fills; past the threshold every append is
    /// an O(m²) rank-1 update against `m = 64` inducing points.
    pub fn scalable_default() -> Self {
        let config = GpConfig {
            refit_every: 32,
            ..GpConfig::default()
        };
        OnlineLatencyModel::new(config, 4096, 3600.0)
    }

    /// Overrides the exact→sparse switch threshold (training-set size).
    /// `usize::MAX` pins every app to the exact tier.
    #[must_use]
    pub fn with_tier_threshold(mut self, threshold: usize) -> Self {
        self.tier_threshold = threshold;
        self
    }

    /// Overrides the sparse tier's inducing-set size.
    ///
    /// # Panics
    ///
    /// Panics if `inducing < 2` (the sparse fit would always fail).
    #[must_use]
    pub fn with_inducing(mut self, inducing: usize) -> Self {
        assert!(inducing >= 2, "need at least 2 inducing points");
        self.inducing = inducing;
        self
    }

    /// Records one completed invocation of `app`: resource coordinates
    /// `u ∈ [0,1]³` (or `3·stages`), completion time `at_secs` on the
    /// service clock, observed end-to-end latency in seconds. O(1); no GP
    /// work happens here.
    pub fn observe(&mut self, app: usize, u: &[f64], at_secs: f64, latency_secs: f64) {
        let mut x = Vec::with_capacity(u.len() + 1);
        x.extend_from_slice(u);
        x.push((at_secs / self.time_horizon).clamp(0.0, 1.0));
        let entry = self.apps.entry(app).or_default();
        if entry.pending.is_empty() {
            self.with_pending.push(app);
        }
        entry.pending.push(PendingObs {
            x,
            latency: latency_secs,
        });
        entry.staleness += 1;
        self.stats.observed += 1;
    }

    /// Completions recorded for `app` since its last successful refit —
    /// the priority key a refit scheduler sorts by.
    pub fn staleness(&self, app: usize) -> u64 {
        self.apps.get(&app).map_or(0, |m| m.staleness)
    }

    /// Applications with at least one buffered observation, sorted by
    /// (staleness descending, app id ascending) — deterministic refit
    /// order for a budgeted scheduler.
    pub fn pending_apps(&self) -> Vec<usize> {
        let mut apps: Vec<(u64, usize)> = self
            .with_pending
            .iter()
            .map(|&id| (self.apps[&id].staleness, id))
            .collect();
        apps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        apps.into_iter().map(|(_, id)| id).collect()
    }

    /// Drains `app`'s buffer into its model: warm-up observations
    /// accumulate until the first [`Gp::fit`]; afterwards each
    /// observation is a rank-1 append — [`Gp::extend`] on the exact tier
    /// (full grid search every `refit_every`-th), [`SparseGp::absorb`] on
    /// the sparse tier. Exceeding the window cap triggers a compaction
    /// keeping the newest half. A refit that leaves the exact tier's
    /// training set above the tier threshold rebuilds the model as a
    /// [`SparseGp`] inheriting the exact tier's kernel; the transition is
    /// recorded for [`OnlineLatencyModel::drain_tier_switches`]. On the
    /// sparse tier every `refit_every`-th absorb and every compaction
    /// rebuilds the model from the app's [`DtcBasis`], which extends its
    /// fold over the new rows while the inducing set provably holds and
    /// re-derives it otherwise — the same bits either way. Returns the
    /// number of observations absorbed.
    pub fn refit(&mut self, app: usize) -> usize {
        let Some(model) = self.apps.get_mut(&app) else {
            return 0;
        };
        let drained = std::mem::take(&mut model.pending);
        if !drained.is_empty() {
            self.with_pending.retain(|&id| id != app);
        }
        let mut absorbed = 0;
        for obs in drained {
            match &mut model.model {
                None => {
                    model.warmup.push(obs);
                    absorbed += 1;
                    if model.warmup.len() >= self.min_fit {
                        let xs: Vec<Vec<f64>> = model.warmup.iter().map(|o| o.x.clone()).collect();
                        let ys: Vec<f64> = model.warmup.iter().map(|o| o.latency).collect();
                        match Gp::fit(xs, ys, self.config.clone()) {
                            Ok(gp) => {
                                model.warmup = Vec::new();
                                model.model = Some(TierGp::Exact(gp));
                            }
                            Err(_) => {
                                // Keep accumulating; more spread may fix a
                                // singular kernel.
                            }
                        }
                    }
                }
                Some(TierGp::Exact(gp)) => {
                    if gp.extend(obs.x, obs.latency).is_ok() {
                        absorbed += 1;
                    } else {
                        self.stats.rejected += 1;
                    }
                    if gp.len() > self.window {
                        let keep: Vec<usize> = (gp.len() - self.window / 2..gp.len()).collect();
                        if let Ok(compact) = gp.refit_subset(&keep) {
                            *gp = compact;
                            self.stats.compactions += 1;
                        }
                    }
                    if gp.len() > self.tier_threshold {
                        // Inherit the exact tier's selected kernel — the
                        // sparse fit is pure linear algebra, no search —
                        // and its training window: the absorbed
                        // observations still held, oldest first.
                        let mut basis =
                            DtcBasis::new(*gp.kernel(), self.config.noise, self.inducing);
                        let xs = gp.train_x();
                        for (i, &y) in gp.train_y().iter().enumerate() {
                            basis.push(xs.row(i), y);
                        }
                        if let Ok(sparse) = basis.fit() {
                            self.switches.push(TierSwitch {
                                app,
                                train: sparse.len(),
                                inducing: sparse.support_size(),
                            });
                            self.stats.tier_switches += 1;
                            model.sparse_appends = 0;
                            model.model = Some(TierGp::Sparse(sparse, Box::new(basis)));
                        }
                    }
                }
                Some(TierGp::Sparse(sgp, basis)) => {
                    sgp.absorb(&obs.x, obs.latency);
                    basis.push(&obs.x, obs.latency);
                    absorbed += 1;
                    model.sparse_appends += 1;
                    let compact = basis.len() > self.window;
                    let rebuild_due = self.config.refit_every > 0
                        && model.sparse_appends >= self.config.refit_every;
                    if compact {
                        basis.drop_front(basis.len() - self.window / 2);
                        self.stats.compactions += 1;
                    }
                    if compact || rebuild_due {
                        // Rebuild over the raw window: the basis keeps or
                        // re-selects the inducing points and re-standardizes
                        // the target, so absorb's frozen standardization
                        // tracks drift at a bounded cadence. On failure the
                        // absorbed model stands.
                        if let Ok(next) = basis.fit() {
                            *sgp = next;
                            model.sparse_appends = 0;
                        }
                    }
                }
            }
        }
        model.staleness = 0;
        self.stats.absorbed += absorbed as u64;
        absorbed
    }

    /// Predicted `(mean, variance)` latency for `app` at coordinates `u`
    /// and service time `at_secs`, or `None` before the first fit.
    pub fn predict(&self, app: usize, u: &[f64], at_secs: f64) -> Option<(f64, f64)> {
        let model = self.apps.get(&app)?.model.as_ref()?;
        let mut x = Vec::with_capacity(u.len() + 1);
        x.extend_from_slice(u);
        x.push((at_secs / self.time_horizon).clamp(0.0, 1.0));
        Some(match model {
            TierGp::Exact(gp) => gp.predict(&x),
            TierGp::Sparse(sgp, _) => sgp.predict(&x),
        })
    }

    /// Training points currently held for `app` (0 before the first fit).
    pub fn model_size(&self, app: usize) -> usize {
        self.apps.get(&app).map_or(0, |m| match &m.model {
            Some(TierGp::Exact(gp)) => gp.len(),
            Some(TierGp::Sparse(sgp, _)) => sgp.len(),
            None => 0,
        })
    }

    /// The tier `app`'s model currently runs on, or `None` before the
    /// first fit.
    pub fn tier(&self, app: usize) -> Option<SurrogateTier> {
        self.apps.get(&app).and_then(|m| match m.model {
            Some(TierGp::Exact(_)) => Some(SurrogateTier::Exact),
            Some(TierGp::Sparse(..)) => Some(SurrogateTier::Sparse),
            None => None,
        })
    }

    /// Tier switches performed since the last drain, oldest first — the
    /// host turns these into telemetry events.
    pub fn drain_tier_switches(&mut self) -> Vec<TierSwitch> {
        std::mem::take(&mut self.switches)
    }

    /// Work counters.
    pub fn stats(&self) -> OnlineModelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(model: &mut OnlineLatencyModel, app: usize, n: usize, offset: f64) {
        for i in 0..n {
            let v = (i as f64 / n.max(2) as f64 + offset).fract();
            model.observe(app, &[v, 1.0 - v, 0.5], i as f64 * 10.0, 1.0 + v);
        }
    }

    #[test]
    fn buffering_is_decoupled_from_fitting() {
        let mut m = OnlineLatencyModel::service_default();
        feed(&mut m, 0, 6, 0.05);
        assert!(
            m.predict(0, &[0.5, 0.5, 0.5], 0.0).is_none(),
            "no refit yet"
        );
        assert_eq!(m.staleness(0), 6);
        let absorbed = m.refit(0);
        assert_eq!(absorbed, 6);
        assert_eq!(m.staleness(0), 0);
        assert!(m.predict(0, &[0.5, 0.5, 0.5], 0.0).is_some());
    }

    #[test]
    fn pending_apps_sorts_stalest_first_then_id() {
        let mut m = OnlineLatencyModel::service_default();
        feed(&mut m, 2, 3, 0.0);
        feed(&mut m, 0, 5, 0.1);
        feed(&mut m, 1, 5, 0.2);
        assert_eq!(m.pending_apps(), vec![0, 1, 2]);
        m.refit(0);
        assert_eq!(m.pending_apps(), vec![1, 2]);
        // An app rejoins once, however often it is refit while drained.
        m.refit(0);
        feed(&mut m, 0, 2, 0.3);
        assert_eq!(m.pending_apps(), vec![1, 2, 0]);
    }

    #[test]
    fn window_cap_bounds_model_size() {
        let mut m = OnlineLatencyModel::new(GpConfig::default(), 16, 3600.0);
        for batch in 0..10 {
            feed(&mut m, 0, 5, batch as f64 * 0.37);
            m.refit(0);
        }
        assert!(
            m.model_size(0) <= 16,
            "window cap violated: {}",
            m.model_size(0)
        );
        assert!(m.stats().compactions > 0, "cap was exercised");
    }

    #[test]
    fn repeated_identical_configs_do_not_kill_the_model() {
        // Without the time coordinate these would be duplicate rows and a
        // singular kernel; with it the model keeps absorbing.
        let mut m = OnlineLatencyModel::service_default();
        for i in 0..12 {
            m.observe(0, &[0.5, 0.5, 0.5], i as f64 * 60.0, 1.2);
        }
        m.refit(0);
        let (mean, _) = m.predict(0, &[0.5, 0.5, 0.5], 720.0).expect("fitted");
        assert!((mean - 1.2).abs() < 0.2, "mean {mean}");
        assert_eq!(m.stats().rejected, 0);
    }

    #[test]
    fn prediction_tracks_observed_latency() {
        let mut m = OnlineLatencyModel::service_default();
        // Latency rises with the first coordinate.
        for i in 0..20 {
            let v = i as f64 / 20.0;
            m.observe(0, &[v, 0.5, 0.5], i as f64, 1.0 + 2.0 * v);
        }
        m.refit(0);
        let (lo, _) = m.predict(0, &[0.1, 0.5, 0.5], 20.0).unwrap();
        let (hi, _) = m.predict(0, &[0.9, 0.5, 0.5], 20.0).unwrap();
        assert!(hi > lo, "monotone trend not captured: {lo} vs {hi}");
    }

    #[test]
    fn crossing_the_threshold_switches_to_the_sparse_tier() {
        let mut m = OnlineLatencyModel::new(GpConfig::default(), 128, 3600.0)
            .with_tier_threshold(24)
            .with_inducing(8);
        feed(&mut m, 0, 20, 0.01);
        m.refit(0);
        assert_eq!(m.tier(0), Some(SurrogateTier::Exact));
        assert!(m.drain_tier_switches().is_empty());

        feed(&mut m, 0, 10, 0.43);
        m.refit(0);
        assert_eq!(m.tier(0), Some(SurrogateTier::Sparse));
        let switches = m.drain_tier_switches();
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].app, 0);
        assert!(switches[0].train > 24, "switched at {}", switches[0].train);
        assert_eq!(switches[0].inducing, 8);
        assert_eq!(m.stats().tier_switches, 1);
        assert!(m.drain_tier_switches().is_empty(), "drain is one-shot");

        // The sparse tier keeps absorbing and predicting.
        feed(&mut m, 0, 10, 0.77);
        m.refit(0);
        assert_eq!(m.tier(0), Some(SurrogateTier::Sparse));
        assert_eq!(m.stats().tier_switches, 1, "no repeat switch");
        let (lo, _) = m.predict(0, &[0.1, 0.9, 0.5], 400.0).unwrap();
        let (hi, _) = m.predict(0, &[0.9, 0.1, 0.5], 400.0).unwrap();
        assert!(hi > lo, "sparse tier lost the trend: {lo} vs {hi}");
    }

    #[test]
    fn default_threshold_is_unreachable_for_service_window() {
        // service_default's window (64) sits below the tier threshold
        // (256): existing service behavior stays on the exact tier.
        let mut m = OnlineLatencyModel::service_default();
        for batch in 0..8 {
            feed(&mut m, 0, 20, batch as f64 * 0.13);
            m.refit(0);
        }
        assert_eq!(m.tier(0), Some(SurrogateTier::Exact));
        assert_eq!(m.stats().tier_switches, 0);
        assert!(m.drain_tier_switches().is_empty());
    }

    #[test]
    fn sparse_window_cap_bounds_history() {
        let mut m = OnlineLatencyModel::new(GpConfig::default(), 32, 3600.0)
            .with_tier_threshold(16)
            .with_inducing(8);
        for batch in 0..12 {
            feed(&mut m, 0, 8, batch as f64 * 0.29);
            m.refit(0);
        }
        assert_eq!(m.tier(0), Some(SurrogateTier::Sparse));
        assert!(
            m.model_size(0) <= 32,
            "window cap violated: {}",
            m.model_size(0)
        );
        assert!(m.stats().compactions > 0, "cap was exercised");
    }

    #[test]
    fn exact_tier_window_is_the_newest_absorbed_observations_in_order() {
        // What a tier switch hands the sparse tier: after compactions and
        // further appends, the GP's rows are the newest observations it
        // absorbed, oldest first, and a rejected append left no row.
        let mut m = OnlineLatencyModel::new(GpConfig::default(), 16, 3600.0);
        let mut absorbed: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut rejected = 0;
        for i in 0..60 {
            let v = (i as f64 * 0.618_033_988_75).fract();
            let at = i as f64 * 30.0;
            let latency = 1.0 + v + 0.1 * (at / 600.0).sin();
            if i >= 8 && i % 7 == 3 {
                // No kernel matrix over a NaN input factors: rejected.
                m.observe(0, &[f64::NAN, 0.5, 0.5], at, latency);
                rejected += 1;
            } else {
                m.observe(0, &[v, 1.0 - v, 0.5], at, latency);
                absorbed.push((vec![v, 1.0 - v, 0.5, at / 3600.0], latency));
            }
            if i % 3 == 2 {
                m.refit(0);
            }
        }
        m.refit(0);
        let stats = m.stats();
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.absorbed, absorbed.len() as u64);
        assert!(stats.compactions >= 2, "{stats:?}");
        let Some(TierGp::Exact(gp)) = &m.apps[&0].model else {
            panic!("exact tier expected");
        };
        let newest = &absorbed[absorbed.len() - gp.len()..];
        for (r, (x, y)) in newest.iter().enumerate() {
            let row: Vec<u64> = gp.train_x().row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, want, "row {r}");
            assert_eq!(gp.train_y()[r].to_bits(), y.to_bits(), "row {r}");
        }
    }

    #[test]
    fn unknown_app_is_harmless() {
        let mut m = OnlineLatencyModel::service_default();
        assert_eq!(m.refit(99), 0);
        assert_eq!(m.staleness(99), 0);
        assert!(m.predict(99, &[0.5, 0.5, 0.5], 0.0).is_none());
    }
}
