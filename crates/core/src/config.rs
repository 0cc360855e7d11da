//! Controller and cluster configuration.

use aqua_alloc::AquatopeRmConfig;
use aqua_faas::types::ConfigSpace;
use aqua_pool::AquatopePoolConfig;

/// Shape of the simulated cluster (stand-in for the paper's §7.3 testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of invoker servers.
    pub workers: usize,
    /// Cores per worker.
    pub cpu_per_worker: f64,
    /// Memory per worker, MiB.
    pub memory_mb_per_worker: u64,
    /// RNG seed for the cluster's stochastic components.
    pub seed: u64,
}

impl Default for ClusterSpec {
    /// Six 40-core / 128-GiB workers — the paper's invoker fleet, and its
    /// one definition: the paper harnesses and the scenario matrix build
    /// their simulators from it.
    fn default() -> Self {
        ClusterSpec {
            workers: 6,
            cpu_per_worker: 40.0,
            memory_mb_per_worker: 128 * 1024,
            seed: 42,
        }
    }
}

/// Top-level AQUATOPE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AquatopeConfig {
    /// Dynamic pre-warmed container-pool settings.
    pub pool: AquatopePoolConfig,
    /// Customized-BO resource-manager settings.
    pub rm: AquatopeRmConfig,
    /// Evaluation budget of the per-app configuration search.
    pub search_budget: usize,
    /// Profiling samples per candidate configuration.
    pub profile_samples: usize,
    /// Resource-configuration search space.
    pub space: ConfigSpace,
    /// Price per CPU core-second (linear §5.1 cost model).
    pub price_cpu: f64,
    /// Price per GB-second.
    pub price_mem: f64,
    /// RNG seed for the search.
    pub seed: u64,
}

impl Default for AquatopeConfig {
    fn default() -> Self {
        AquatopeConfig {
            pool: AquatopePoolConfig::default(),
            rm: AquatopeRmConfig::default(),
            search_budget: 36,
            profile_samples: 3,
            space: ConfigSpace::default(),
            price_cpu: 1.0,
            price_mem: 1.0,
            seed: 0xACA7,
        }
    }
}

impl AquatopeConfig {
    /// A configuration with smaller budgets and a lighter pool model, for
    /// tests and examples that need to run in seconds.
    pub fn fast() -> Self {
        let mut cfg = AquatopeConfig {
            search_budget: 18,
            profile_samples: 2,
            ..AquatopeConfig::default()
        };
        cfg.pool.warmup_windows = 30;
        cfg.pool.retrain_every = 60;
        cfg.pool.hybrid.window = 12;
        cfg.pool.hybrid.horizon = 2;
        cfg.pool.hybrid.enc_hidden = vec![8];
        cfg.pool.hybrid.dec_hidden = vec![6];
        cfg.pool.hybrid.mlp_hidden = vec![12, 8];
        cfg.pool.hybrid.pretrain_epochs = 2;
        cfg.pool.hybrid.train_epochs = 3;
        cfg.pool.hybrid.mc_passes = 10;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_matches_paper_fleet() {
        let c = ClusterSpec::default();
        assert_eq!(c.workers, 6);
        assert_eq!(c.memory_mb_per_worker, 131_072);
    }

    #[test]
    fn fast_config_shrinks_budgets() {
        let fast = AquatopeConfig::fast();
        let full = AquatopeConfig::default();
        assert!(fast.search_budget < full.search_budget);
        assert!(fast.pool.hybrid.train_epochs < full.pool.hybrid.train_epochs);
    }
}
