//! Azure-Functions-dataset-scale workload synthesis.
//!
//! [`azure_scale`] builds a cluster-scale workload shaped like the Azure
//! Functions traces the paper's forecaster targets: on the order of a
//! thousand applications with Zipf-skewed popularity, mostly
//! single-function apps plus a tail of short chains, and per-app Poisson
//! arrivals. The generator is deliberately split from the simulation
//! engine: it emits plain [`WorkflowJob`]s that any simulator
//! configuration — sequential or sharded — and the live control plane
//! replay byte-identically, so `aqua-benchmark`'s `sim_azure` and
//! `svc_azure` workloads see the same trace.
//!
//! # Examples
//!
//! ```
//! use aqua_workflows::azure::{azure_scale, AzureScaleConfig};
//!
//! let wl = azure_scale(&AzureScaleConfig::smoke());
//! assert!(wl.registry.len() >= 64);
//! assert_eq!(wl.jobs.iter().map(|j| j.arrivals.len()).sum::<usize>(), wl.arrivals);
//! ```

use aqua_faas::{FunctionRegistry, ResourceConfig, StageConfigs, WorkflowDag, WorkflowJob};
use aqua_sim::{SimRng, SimTime};

use crate::apps::synthetic_function;

/// Zipf popularity exponent across apps (0 would be uniform).
const ZIPF_S: f64 = 0.8;

/// Shape of an [`azure_scale`] workload.
#[derive(Debug, Clone)]
pub struct AzureScaleConfig {
    /// Number of distinct applications (each is one [`WorkflowJob`]).
    pub apps: usize,
    /// Trace length in minutes.
    pub minutes: u64,
    /// Aggregate arrival rate across all apps, workflows per minute.
    pub total_rpm: f64,
    /// Fraction of apps that are 2–3-stage chains instead of a single
    /// function (the Azure dataset is dominated by single-function apps).
    pub chain_fraction: f64,
    /// Seed for every stream the generator forks.
    pub seed: u64,
}

impl AzureScaleConfig {
    /// The full `sim_azure` / `svc_azure` trace: ≥ 1 M function invocations over
    /// ≥ 1 k functions in one simulated hour.
    pub fn full() -> Self {
        AzureScaleConfig {
            apps: 1_100,
            minutes: 60,
            total_rpm: 18_000.0,
            chain_fraction: 0.15,
            seed: 0xA2_0423,
        }
    }

    /// A CI-sized workload with the same shape (a few thousand arrivals
    /// over a few minutes).
    pub fn smoke() -> Self {
        AzureScaleConfig {
            apps: 96,
            minutes: 4,
            total_rpm: 1_500.0,
            chain_fraction: 0.15,
            seed: 0xA2_0423,
        }
    }
}

/// An [`azure_scale`] workload: registry, jobs, and arrival counts.
#[derive(Debug, Clone)]
pub struct AzureWorkload {
    /// Every generated function.
    pub registry: FunctionRegistry,
    /// One job per application, in popularity order.
    pub jobs: Vec<WorkflowJob>,
    /// Total workflow arrivals across all jobs.
    pub arrivals: usize,
    /// Total function invocations those arrivals will trigger (arrivals
    /// weighted by each app's stage count).
    pub invocations: usize,
}

/// Builds the workload for `cfg`. Deterministic in `cfg` alone: every
/// random stream is forked from `cfg.seed` by app index.
pub fn azure_scale(cfg: &AzureScaleConfig) -> AzureWorkload {
    assert!(cfg.apps > 0, "need at least one app");
    assert!(cfg.minutes > 0, "need a non-empty trace");
    let root = SimRng::seed(cfg.seed);
    let mut shape_rng = root.fork("app-shapes");
    let horizon_secs = (cfg.minutes * 60) as f64;

    // Zipf popularity: weight 1/(rank+1)^s, normalized to total_rpm.
    let weights: Vec<f64> = (0..cfg.apps)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
        .collect();
    let norm: f64 = weights.iter().sum();

    let mut registry = FunctionRegistry::new();
    let mut jobs = Vec::with_capacity(cfg.apps);
    let mut arrivals_total = 0usize;
    let mut invocations_total = 0usize;
    for (i, w) in weights.iter().enumerate() {
        // App shape: single function, or a short chain for the tail the
        // paper's multi-stage workflows model.
        let stages = if shape_rng.uniform() < cfg.chain_fraction {
            2 + (shape_rng.uniform() * 2.0) as usize // 2 or 3
        } else {
            1
        };
        let fns: Vec<_> = (0..stages)
            .map(|s| {
                // Log-uniform work in [20, 250) ms, memory in [128, 768) MiB.
                let work_ms = 20.0 * (250.0f64 / 20.0).powf(shape_rng.uniform());
                let mem_mb = 128.0 + shape_rng.uniform() * 640.0;
                registry.register(synthetic_function(
                    format!("az{i}-s{s}"),
                    work_ms,
                    mem_mb,
                    1.0 + shape_rng.uniform(),
                ))
            })
            .collect();
        let dag = WorkflowDag::chain(format!("az{i}"), fns);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::new(1.0, 1024.0, 2));

        // Poisson arrivals: exponential gaps at this app's Zipf share of
        // the aggregate rate, from a per-app stream.
        let rate_per_sec = cfg.total_rpm * (w / norm) / 60.0;
        let gap_mean = 1.0 / rate_per_sec.max(1e-9);
        let mut arr_rng = root.fork(&format!("arrivals-{i}"));
        let mut arrivals = Vec::new();
        let mut t = gap_mean * arr_rng.uniform(); // random phase
        while t < horizon_secs {
            arrivals.push(SimTime::from_secs_f64(t));
            t += -gap_mean * (1.0 - arr_rng.uniform()).ln();
        }
        // Drop the doubling slack: the trace is held for a whole replay.
        arrivals.shrink_to_fit();
        arrivals_total += arrivals.len();
        invocations_total += arrivals.len() * stages;
        jobs.push(WorkflowJob::new(dag, configs, arrivals));
    }
    AzureWorkload {
        registry,
        jobs,
        arrivals: arrivals_total,
        invocations: invocations_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_workload_meets_bench_floor() {
        let wl = azure_scale(&AzureScaleConfig::full());
        assert!(
            wl.invocations >= 1_000_000,
            "need ≥ 1M invocations, got {}",
            wl.invocations
        );
        assert!(
            wl.registry.len() >= 1_000,
            "need ≥ 1k functions, got {}",
            wl.registry.len()
        );
        assert_eq!(wl.jobs.len(), 1_100);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = AzureScaleConfig::smoke();
        let a = azure_scale(&cfg);
        let b = azure_scale(&cfg);
        assert_eq!(a.arrivals, b.arrivals);
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja.arrivals, jb.arrivals);
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let wl = azure_scale(&AzureScaleConfig::smoke());
        let first = wl.jobs.first().expect("apps").arrivals.len();
        let last = wl.jobs.last().expect("apps").arrivals.len();
        assert!(
            first > last * 2,
            "head app ({first}) should dominate tail app ({last})"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let cfg = AzureScaleConfig::smoke();
        let horizon = SimTime::from_secs(cfg.minutes * 60);
        let wl = azure_scale(&cfg);
        for job in &wl.jobs {
            for pair in job.arrivals.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
            if let Some(&last) = job.arrivals.last() {
                assert!(last <= horizon);
            }
        }
    }
}
