//! Function specifications and the resource-dependent latency model.

use aqua_sim::{SimDuration, SimRng};

use crate::interference::{ExecSampler, NoiseModel};
use crate::types::{FunctionId, ResourceConfig};

/// A serverless function's performance profile.
///
/// The latency model captures the behaviours the paper's evaluation
/// depends on:
///
/// * compute work speeds up with allocated CPU up to the function's
///   inherent `parallelism`;
/// * an I/O floor does not scale with resources;
/// * under-provisioned memory inflates runtime (paging / GC pressure);
/// * a **cold start** pays a container boot plus initialization work
///   (dependency download, model loading) that itself consumes resources —
///   the cold/warm asymmetry that motivates jointly solving pre-warming and
///   allocation (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Human-readable name.
    pub name: String,
    /// Compute work at 1 CPU, in milliseconds.
    pub work_ms: f64,
    /// Non-scalable I/O floor, in milliseconds.
    pub io_ms: f64,
    /// Memory the function wants, in MiB; less slows it down.
    pub mem_demand_mb: f64,
    /// Penalty slope when under-provisioned: factor `1 + p·(demand/got − 1)`.
    pub mem_penalty: f64,
    /// Maximum useful CPU parallelism (cores).
    pub parallelism: f64,
    /// Container boot time (cold start), milliseconds.
    pub boot_ms: f64,
    /// Initialization work run on cold start at 1 CPU, milliseconds.
    pub init_work_ms: f64,
    /// Intrinsic execution-time coefficient of variation (log-normal).
    pub exec_cv: f64,
}

impl FunctionSpec {
    /// A CPU-light default profile; customize with the `with_*` builders.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionSpec {
            name: name.into(),
            work_ms: 100.0,
            io_ms: 10.0,
            mem_demand_mb: 512.0,
            mem_penalty: 1.5,
            parallelism: 2.0,
            boot_ms: 600.0,
            init_work_ms: 400.0,
            exec_cv: 0.05,
        }
    }

    /// Sets the compute work at 1 CPU (ms).
    pub fn with_work_ms(mut self, v: f64) -> Self {
        assert!(v >= 0.0, "work must be non-negative");
        self.work_ms = v;
        self
    }

    /// Sets the I/O floor (ms).
    pub fn with_io_ms(mut self, v: f64) -> Self {
        assert!(v >= 0.0, "io must be non-negative");
        self.io_ms = v;
        self
    }

    /// Sets the memory demand (MiB).
    pub fn with_mem_demand(mut self, v: f64) -> Self {
        assert!(v > 0.0, "memory demand must be positive");
        self.mem_demand_mb = v;
        self
    }

    /// Sets the maximum useful parallelism (cores).
    pub fn with_parallelism(mut self, v: f64) -> Self {
        assert!(v > 0.0, "parallelism must be positive");
        self.parallelism = v;
        self
    }

    /// Sets cold-start boot time and init work (ms).
    pub fn with_cold_start(mut self, boot_ms: f64, init_work_ms: f64) -> Self {
        assert!(
            boot_ms >= 0.0 && init_work_ms >= 0.0,
            "cold-start times must be non-negative"
        );
        self.boot_ms = boot_ms;
        self.init_work_ms = init_work_ms;
        self
    }

    /// Sets the intrinsic execution-time CV.
    pub fn with_exec_cv(mut self, cv: f64) -> Self {
        assert!(cv >= 0.0, "cv must be non-negative");
        self.exec_cv = cv;
        self
    }

    /// Effective CPU an invocation gets under `config`, considering the
    /// concurrency split and the function's parallelism cap.
    pub fn effective_cpu(&self, config: &ResourceConfig) -> f64 {
        config.cpu_per_slot().min(self.parallelism).max(1e-3)
    }

    /// Memory-pressure slowdown factor under `config` (≥ 1).
    pub fn memory_factor(&self, config: &ResourceConfig) -> f64 {
        let got = config.memory_per_slot();
        if got >= self.mem_demand_mb {
            1.0
        } else {
            1.0 + self.mem_penalty * (self.mem_demand_mb / got - 1.0)
        }
    }

    /// Deterministic warm-start execution time under `config` (no noise).
    pub fn base_exec_ms(&self, config: &ResourceConfig) -> f64 {
        self.io_ms + self.work_ms / self.effective_cpu(config) * self.memory_factor(config)
    }

    /// The warm-start execution-time sampler under `config`: the base time
    /// with intrinsic and environment noise applied.
    pub fn exec_sampler(&self, config: &ResourceConfig, noise: &NoiseModel) -> ExecSampler {
        noise.sampler(self.base_exec_ms(config), self.exec_cv)
    }

    /// Samples the extra latency a cold start adds before execution: boot
    /// plus initialization work at the allocated CPU.
    pub fn sample_cold_start(
        &self,
        config: &ResourceConfig,
        noise: &NoiseModel,
        rng: &mut SimRng,
    ) -> SimDuration {
        let init = self.init_work_ms / self.effective_cpu(config) * self.memory_factor(config);
        noise.sampler(self.boot_ms + init, self.exec_cv).sample(rng)
    }
}

/// Registry mapping [`FunctionId`]s to specs for one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionRegistry {
    specs: Vec<FunctionSpec>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FunctionRegistry { specs: Vec::new() }
    }

    /// Registers a function, returning its id.
    pub fn register(&mut self, spec: FunctionSpec) -> FunctionId {
        self.specs.push(spec);
        FunctionId(self.specs.len() - 1)
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this registry.
    pub fn spec(&self, id: FunctionId) -> &FunctionSpec {
        &self.specs[id.0]
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (FunctionId(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> NoiseModel {
        NoiseModel::quiet()
    }

    #[test]
    fn more_cpu_is_faster_until_parallelism_cap() {
        let f = FunctionSpec::new("f")
            .with_work_ms(1000.0)
            .with_parallelism(2.0);
        let t1 = f.base_exec_ms(&ResourceConfig::new(1.0, 1024.0, 1));
        let t2 = f.base_exec_ms(&ResourceConfig::new(2.0, 1024.0, 1));
        let t4 = f.base_exec_ms(&ResourceConfig::new(4.0, 1024.0, 1));
        assert!(t2 < t1);
        assert!((t4 - t2).abs() < 1e-9, "beyond the cap CPU does not help");
    }

    #[test]
    fn memory_underprovisioning_slows_down() {
        let f = FunctionSpec::new("f").with_mem_demand(1024.0);
        let ok = f.base_exec_ms(&ResourceConfig::new(1.0, 2048.0, 1));
        let tight = f.base_exec_ms(&ResourceConfig::new(1.0, 512.0, 1));
        assert!(tight > ok);
        assert_eq!(f.memory_factor(&ResourceConfig::new(1.0, 2048.0, 1)), 1.0);
    }

    #[test]
    fn concurrency_divides_resources() {
        let f = FunctionSpec::new("f")
            .with_work_ms(400.0)
            .with_parallelism(4.0);
        let solo = f.base_exec_ms(&ResourceConfig::new(2.0, 2048.0, 1));
        let shared = f.base_exec_ms(&ResourceConfig::new(2.0, 2048.0, 2));
        assert!(shared > solo);
    }

    #[test]
    fn cold_start_slower_with_less_cpu() {
        let f = FunctionSpec::new("f").with_cold_start(500.0, 1000.0);
        let mut rng = SimRng::seed(1);
        let n = quiet();
        let small = f.sample_cold_start(&ResourceConfig::new(0.25, 1024.0, 1), &n, &mut rng);
        let big = f.sample_cold_start(&ResourceConfig::new(4.0, 1024.0, 1), &n, &mut rng);
        assert!(small > big);
    }

    #[test]
    fn io_floor_does_not_scale() {
        let f = FunctionSpec::new("f").with_work_ms(0.0).with_io_ms(80.0);
        let t = f.base_exec_ms(&ResourceConfig::new(4.0, 2048.0, 1));
        assert!((t - 80.0).abs() < 1e-9);
    }

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut reg = FunctionRegistry::new();
        let a = reg.register(FunctionSpec::new("a"));
        let b = reg.register(FunctionSpec::new("b"));
        assert_eq!(a, FunctionId(0));
        assert_eq!(b, FunctionId(1));
        assert_eq!(reg.spec(b).name, "b");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn sampled_exec_is_positive_and_near_base() {
        let f = FunctionSpec::new("f").with_work_ms(200.0).with_exec_cv(0.0);
        let mut rng = SimRng::seed(2);
        let cfg = ResourceConfig::default();
        let t = f.exec_sampler(&cfg, &quiet()).sample(&mut rng);
        assert!((t.as_secs_f64() * 1e3 - f.base_exec_ms(&cfg)).abs() < 1e-6);
    }
}
