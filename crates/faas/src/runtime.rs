//! Container boot/kill as service callbacks.
//!
//! The batch simulator drives container lifecycles from inside its own
//! event loop; a long-running control plane needs the same mechanisms as
//! an *imperative* interface it can call from its event loop: "boot a
//! container for function `f` under config `c` and tell me how long that
//! takes and whether it fails", "sample one execution", "kill container
//! `id`". [`ContainerRuntime`] is that interface and
//! [`SimContainerRuntime`] its simulated implementation — the same
//! [`crate::FunctionSpec`] latency model, [`NoiseModel`] jitter, and
//! [`FaultState`] boot-failure stream the simulator uses, behind
//! callbacks.
//!
//! The runtime keeps a **live-container ledger**: every ticket issued by
//! [`ContainerRuntime::boot`] stays on the ledger until explicitly
//! [`ContainerRuntime::kill`]ed (failed boots included — the caller
//! observes the failure when the ticket says so and must reap it). A
//! graceful service shutdown is correct exactly when the ledger drains to
//! zero, which is what the service's shutdown path asserts.

use aqua_sim::{FxHashMap, SimDuration, SimRng};

use crate::fault::{FaultPlan, FaultState};
use crate::function::FunctionRegistry;
use crate::interference::{ExecSampler, NoiseModel};
use crate::types::{ContainerId, FunctionId, ResourceConfig};

/// The outcome of asking the runtime to boot one container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootTicket {
    /// Ledger id of the new container (live from this moment).
    pub container: ContainerId,
    /// Function the container is specialized for.
    pub function: FunctionId,
    /// Boot latency: cold-start boot plus initialization work under the
    /// requested config.
    pub boot: SimDuration,
    /// True when the boot fails (drawn from the fault plan's dedicated
    /// `boot_fail` stream): the container dies at the moment it would have
    /// turned warm. The caller still owns the ledger entry and must
    /// [`ContainerRuntime::kill`] it when the failure lands.
    pub fails: bool,
}

/// Imperative container lifecycle callbacks for a service control plane.
pub trait ContainerRuntime {
    /// Starts booting a container for `function` under `config`.
    fn boot(&mut self, function: FunctionId, config: &ResourceConfig) -> BootTicket;

    /// Samples one warm execution of `function` under `config`.
    fn exec(&mut self, function: FunctionId, config: &ResourceConfig) -> SimDuration;

    /// Removes `container` from the live ledger. Returns `false` when the
    /// id was not live (double kill or unknown id) — callers treat that as
    /// an accounting bug.
    fn kill(&mut self, container: ContainerId) -> bool;

    /// Containers currently on the ledger (booting, warm, or failed and
    /// not yet reaped).
    fn live(&self) -> usize;

    /// Lifetime counters. The default returns zeros for runtimes that do
    /// not track them.
    fn stats(&self) -> RuntimeStats {
        RuntimeStats::default()
    }
}

/// Lifetime counters of a [`SimContainerRuntime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Boot tickets issued.
    pub boots: u64,
    /// Tickets issued with `fails = true`.
    pub failed_boots: u64,
    /// Executions sampled.
    pub execs: u64,
    /// Containers killed.
    pub kills: u64,
}

/// Simulated [`ContainerRuntime`]: deterministic given a seed and a fault
/// plan, using the registry's latency model and the noise model's jitter.
#[derive(Debug, Clone)]
pub struct SimContainerRuntime {
    registry: FunctionRegistry,
    noise: NoiseModel,
    boot_rng: SimRng,
    exec_rng: SimRng,
    faults: FaultState,
    /// Per function id, the exec sampler of the configuration its last
    /// execution ran under, rebuilt only when a call's configuration
    /// differs.
    exec_samplers: Vec<Option<(ResourceConfig, ExecSampler)>>,
    next_id: u64,
    live: FxHashMap<ContainerId, FunctionId>,
    stats: RuntimeStats,
}

impl SimContainerRuntime {
    /// A runtime over `registry` with `noise` jitter, fault draws from
    /// `faults`, and all sampling streams forked from `seed`.
    ///
    /// Boot and exec latencies draw from **separate** forked streams, so
    /// the mix of boots vs execs a workload happens to issue never
    /// perturbs either sequence — the same position-stability contract the
    /// fault layer keeps.
    pub fn new(
        registry: FunctionRegistry,
        noise: NoiseModel,
        seed: u64,
        faults: &FaultPlan,
    ) -> Self {
        let root = SimRng::seed(seed);
        SimContainerRuntime {
            exec_samplers: vec![None; registry.len()],
            registry,
            noise,
            boot_rng: root.fork("svc-boot"),
            exec_rng: root.fork("svc-exec"),
            faults: FaultState::new(faults),
            next_id: 0,
            live: FxHashMap::default(),
            stats: RuntimeStats::default(),
        }
    }
}

impl ContainerRuntime for SimContainerRuntime {
    fn boot(&mut self, function: FunctionId, config: &ResourceConfig) -> BootTicket {
        let spec = self.registry.spec(function);
        let boot = spec.sample_cold_start(config, &self.noise, &mut self.boot_rng);
        let fails = self.faults.next_boot_fail();
        let container = ContainerId(self.next_id);
        self.next_id += 1;
        self.live.insert(container, function);
        self.stats.boots += 1;
        if fails {
            self.stats.failed_boots += 1;
        }
        BootTicket {
            container,
            function,
            boot,
            fails,
        }
    }

    fn exec(&mut self, function: FunctionId, config: &ResourceConfig) -> SimDuration {
        self.stats.execs += 1;
        let cached = &mut self.exec_samplers[function.0];
        let sampler = match cached {
            Some((built_for, sampler)) if built_for == config => sampler,
            _ => {
                let sampler = self
                    .registry
                    .spec(function)
                    .exec_sampler(config, &self.noise);
                &mut cached.insert((*config, sampler)).1
            }
        };
        sampler.sample(&mut self.exec_rng)
    }

    fn kill(&mut self, container: ContainerId) -> bool {
        let removed = self.live.remove(&container).is_some();
        if removed {
            self.stats.kills += 1;
        }
        removed
    }

    fn live(&self) -> usize {
        self.live.len()
    }

    fn stats(&self) -> RuntimeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use crate::function::FunctionSpec;

    fn runtime(seed: u64, faults: &FaultPlan) -> SimContainerRuntime {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("f").with_cold_start(500.0, 200.0));
        SimContainerRuntime::new(reg, NoiseModel::quiet(), seed, faults)
    }

    #[test]
    fn ledger_conserves_boot_minus_kill() {
        let mut rt = runtime(1, &FaultPlan::disabled());
        let cfg = ResourceConfig::default();
        let tickets: Vec<BootTicket> = (0..5).map(|_| rt.boot(FunctionId(0), &cfg)).collect();
        assert_eq!(rt.live(), 5);
        for t in &tickets {
            assert!(rt.kill(t.container));
        }
        assert_eq!(rt.live(), 0);
        assert_eq!(rt.stats().boots, 5);
        assert_eq!(rt.stats().kills, 5);
    }

    #[test]
    fn double_kill_is_reported() {
        let mut rt = runtime(1, &FaultPlan::disabled());
        let t = rt.boot(FunctionId(0), &ResourceConfig::default());
        assert!(rt.kill(t.container));
        assert!(!rt.kill(t.container), "second kill of the same id");
        assert_eq!(rt.stats().kills, 1);
    }

    #[test]
    fn deterministic_given_seed_and_plan() {
        let plan = FaultPlan::from_seed(
            7,
            FaultRates {
                boot_fail: 0.3,
                ..FaultRates::default()
            },
        );
        let mut a = runtime(42, &plan);
        let mut b = runtime(42, &plan);
        let cfg = ResourceConfig::default();
        for _ in 0..50 {
            let ta = a.boot(FunctionId(0), &cfg);
            let tb = b.boot(FunctionId(0), &cfg);
            assert_eq!(ta, tb);
            assert_eq!(a.exec(FunctionId(0), &cfg), b.exec(FunctionId(0), &cfg));
        }
    }

    #[test]
    fn boot_and_exec_streams_are_independent() {
        // Interleaving execs must not change the boot latency sequence.
        let mut pure = runtime(9, &FaultPlan::disabled());
        let mut mixed = runtime(9, &FaultPlan::disabled());
        let cfg = ResourceConfig::default();
        for _ in 0..20 {
            let _ = mixed.exec(FunctionId(0), &cfg);
            assert_eq!(
                pure.boot(FunctionId(0), &cfg).boot,
                mixed.boot(FunctionId(0), &cfg).boot
            );
        }
    }

    #[test]
    fn zero_rate_plan_never_fails_a_boot() {
        let mut rt = runtime(3, &FaultPlan::disabled());
        let cfg = ResourceConfig::default();
        for _ in 0..500 {
            assert!(!rt.boot(FunctionId(0), &cfg).fails);
        }
    }

    #[test]
    fn fault_plan_drives_failed_boot_counter() {
        let plan = FaultPlan::from_seed(
            5,
            FaultRates {
                boot_fail: 0.5,
                ..FaultRates::default()
            },
        );
        let mut rt = runtime(3, &plan);
        let cfg = ResourceConfig::default();
        let fails = (0..200)
            .filter(|_| rt.boot(FunctionId(0), &cfg).fails)
            .count() as u64;
        assert!(fails > 50, "rate 0.5 over 200 draws fired only {fails}×");
        assert_eq!(rt.stats().failed_boots, fails);
    }
}
