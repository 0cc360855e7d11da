//! Identifier newtypes and the per-function resource configuration.

use crate::workflow::WorkflowDag;

/// Index of a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub usize);

/// Index of a worker server (invoker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

/// Unique id of a container instance over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

/// Per-function resource allocation: the knobs AQUATOPE's resource manager
/// optimizes, matching the interface of major FaaS providers (§5.1):
/// CPU, memory, and container concurrency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceConfig {
    /// CPU cores allocated to the container (fractional allowed).
    pub cpu: f64,
    /// Memory limit in MiB.
    pub memory_mb: f64,
    /// Maximum concurrent invocations per container.
    pub concurrency: u32,
}

impl Default for ResourceConfig {
    /// 1 core, 1 GiB, single-invocation containers.
    fn default() -> Self {
        ResourceConfig {
            cpu: 1.0,
            memory_mb: 1024.0,
            concurrency: 1,
        }
    }
}

impl ResourceConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `cpu > 0`, `memory_mb > 0`, and `concurrency >= 1`.
    pub fn new(cpu: f64, memory_mb: f64, concurrency: u32) -> Self {
        assert!(cpu.is_finite() && cpu > 0.0, "cpu must be positive");
        assert!(
            memory_mb.is_finite() && memory_mb > 0.0,
            "memory must be positive"
        );
        assert!(concurrency >= 1, "concurrency must be at least 1");
        ResourceConfig {
            cpu,
            memory_mb,
            concurrency,
        }
    }

    /// CPU share each invocation receives when the container runs at its
    /// configured concurrency.
    pub fn cpu_per_slot(&self) -> f64 {
        self.cpu / self.concurrency as f64
    }

    /// Memory share attributed to each invocation slot.
    pub fn memory_per_slot(&self) -> f64 {
        self.memory_mb / self.concurrency as f64
    }
}

/// The bounds of the resource configuration space used by the resource
/// managers (search space of the BO engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigSpace {
    /// Minimum / maximum CPU cores.
    pub cpu: (f64, f64),
    /// Minimum / maximum memory in MiB.
    pub memory_mb: (f64, f64),
    /// Allowed concurrency settings.
    pub concurrency_max: u32,
}

impl Default for ConfigSpace {
    fn default() -> Self {
        ConfigSpace {
            cpu: (0.25, 4.0),
            memory_mb: (128.0, 3072.0),
            concurrency_max: 4,
        }
    }
}

impl ConfigSpace {
    /// Maps a point in `[0,1]^3` to a configuration, quantizing CPU to
    /// quarter cores, memory to 128-MiB steps and concurrency to whole
    /// slots — the discrete knobs real platforms expose.
    pub fn decode(&self, u: &[f64]) -> ResourceConfig {
        assert!(u.len() >= 3, "need 3 coordinates per stage");
        let q = |v: f64, lo: f64, hi: f64, step: f64| -> f64 {
            let raw = lo + v.clamp(0.0, 1.0) * (hi - lo);
            (raw / step).round() * step
        };
        let cpu = q(u[0], self.cpu.0, self.cpu.1, 0.25).clamp(self.cpu.0, self.cpu.1);
        let mem = q(u[1], self.memory_mb.0, self.memory_mb.1, 128.0)
            .clamp(self.memory_mb.0, self.memory_mb.1);
        let conc = (1.0 + u[2].clamp(0.0, 1.0) * (self.concurrency_max - 1) as f64).round() as u32;
        ResourceConfig::new(cpu, mem, conc.clamp(1, self.concurrency_max))
    }
}

/// Resource configuration for every stage of a workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfigs {
    configs: Vec<ResourceConfig>,
}

impl StageConfigs {
    /// The same configuration for every stage of `dag`.
    pub fn uniform(dag: &WorkflowDag, config: ResourceConfig) -> Self {
        StageConfigs {
            configs: vec![config; dag.num_stages()],
        }
    }

    /// Configuration of stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> ResourceConfig {
        self.configs[i]
    }

    /// Number of stages covered.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether there are no configs (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Decodes a flat `[0,1]^{3·stages}` vector into per-stage configs.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != 3 * stages`.
    pub fn decode(space: &ConfigSpace, u: &[f64]) -> Self {
        assert!(
            u.len().is_multiple_of(3) && !u.is_empty(),
            "need 3 coords per stage"
        );
        let configs = u.chunks(3).map(|c| space.decode(c)).collect();
        StageConfigs { configs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_config_slots() {
        let c = ResourceConfig::new(2.0, 2048.0, 4);
        assert_eq!(c.cpu_per_slot(), 0.5);
        assert_eq!(c.memory_per_slot(), 512.0);
    }

    #[test]
    #[should_panic(expected = "cpu must be positive")]
    fn rejects_zero_cpu() {
        let _ = ResourceConfig::new(0.0, 128.0, 1);
    }

    #[test]
    fn decode_bounds_and_quantization() {
        let space = ConfigSpace::default();
        let lo = space.decode(&[0.0, 0.0, 0.0]);
        assert_eq!(lo.cpu, 0.25);
        assert_eq!(lo.memory_mb, 128.0);
        assert_eq!(lo.concurrency, 1);
        let hi = space.decode(&[1.0, 1.0, 1.0]);
        assert_eq!(hi.cpu, 4.0);
        assert_eq!(hi.memory_mb, 3072.0);
        assert_eq!(hi.concurrency, 4);
        // Quarter-core / 128-MiB quantization.
        let mid = space.decode(&[0.5, 0.5, 0.5]);
        assert!((mid.cpu * 4.0).fract().abs() < 1e-9);
        assert!((mid.memory_mb / 128.0).fract().abs() < 1e-9);
    }

    #[test]
    fn decode_clamps_out_of_range() {
        let space = ConfigSpace::default();
        let c = space.decode(&[-3.0, 7.0, 2.0]);
        assert_eq!(c.cpu, 0.25);
        assert_eq!(c.memory_mb, 3072.0);
        assert_eq!(c.concurrency, 4);
    }

    #[test]
    fn stage_configs_decode_roundtrip() {
        let space = ConfigSpace::default();
        let u = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let sc = StageConfigs::decode(&space, &u);
        assert_eq!(sc.len(), 2);
        assert_eq!(sc.stage(0).cpu, 0.25);
        assert_eq!(sc.stage(1).cpu, 4.0);
    }
}
