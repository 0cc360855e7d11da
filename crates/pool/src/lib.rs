//! Pre-warmed-container-pool policies.
//!
//! Every cold-start mitigation compared in the paper's §8.1, implemented
//! against the simulator's [`aqua_faas::PrewarmController`] interface. The fixed
//! 10-minute keep-alive of most providers (the paper's "Keep") is
//! [`aqua_faas::FixedPrewarm`]; this crate holds the rest:
//!
//! * [`ReactiveAutoscale`] — OpenWhisk's reactive stem-cell autoscaling.
//! * [`FaasCachePolicy`] — FaaSCache's greedy-dual caching: containers are
//!   kept until memory pressure evicts them (LRU fallback in the
//!   simulator), with conservative reactive scaling.
//! * [`HistogramPolicy`] — the histogram-based keep-alive of *Serverless
//!   in the Wild* (Shahrad et al.).
//! * [`IceBreakerPolicy`] — IceBreaker's Fourier-based pre-warming.
//! * [`AquatopePool`] — AQUATOPE's dynamic pool driven by the hybrid
//!   Bayesian NN with an uncertainty-aware head-room margin; its
//!   [`AquatopePool::aqualite`] constructor is the ablation without
//!   uncertainty (paper's "AquaLite").
//!
//! Plus one competitor beyond the paper's line-up:
//!
//! * [`SlackAwarePolicy`] — Fifer-style slack-aware batching/queueing:
//!   per-stage slack from the workflow deadline decides which functions
//!   defer pre-warming entirely and which get bucketed proactive boots.
//!
//! All predictive policies observe the same per-window statistics and keep
//! per-function history; none peeks at the future trace. Every policy
//! routes its target through [`aqua_faas::replacement_target`] so
//! fault-killed boots are replaced uniformly (the `failed_boots` contract
//! in `tests/pool_contract.rs`).

pub mod aquatope;
pub mod baselines;
pub mod histogram;
pub mod slack;

pub use aquatope::{AquatopePool, AquatopePoolConfig};
pub use baselines::{FaasCachePolicy, IceBreakerPolicy, ReactiveAutoscale};
pub use histogram::HistogramPolicy;
pub use slack::SlackAwarePolicy;

use aqua_forecast::{SeriesPoint, TriggerKind};

/// Converts a per-window concurrency history into the forecasting crate's
/// series points (1-minute windows, HTTP trigger by default).
pub fn to_series(history: &[f64]) -> Vec<SeriesPoint> {
    history
        .iter()
        .enumerate()
        .map(|(i, &c)| SeriesPoint::new(c, i as u64, TriggerKind::Http))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_series_preserves_counts_and_minutes() {
        let s = to_series(&[1.0, 4.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].count, 4.0);
        assert_eq!(s[2].minute, 2);
    }
}
