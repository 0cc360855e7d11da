//! The warm-pool manager: per-function container pools with a background
//! filler task, a boot-concurrency semaphore, and drain-aware shutdown.
//!
//! The manager owns the [`ContainerRuntime`] and all container ledgers
//! (idle / booting / busy, plus a memory budget). Control is split the
//! same way the simulator splits it:
//!
//! * a **policy** ([`aqua_faas::PrewarmController`]) decides per-function
//!   pre-warm *targets* and keep-alives once per control window — the
//!   service applies its decisions via [`WarmPoolManager::apply_decisions`];
//! * the **filler task** ([`WarmPoolManager::filler_tick`], scheduled by
//!   the event loop on its own shorter cadence) works toward those targets:
//!   it reaps keep-alive-expired idle containers, shrinks over-target
//!   pools when the policy asked for it, and boots replacements —
//!   never more than [`WarmPoolConfig::max_concurrent_boots`] pre-warm
//!   boots in flight at once (the boot semaphore). Demand boots (a
//!   request is waiting) bypass the semaphore: user-facing latency beats
//!   background-boot smoothing, but they still respect the memory budget.
//!
//! During shutdown ([`WarmPoolManager::begin_drain`]) the filler stops
//! creating pre-warm capacity; demand boots stay allowed so queued work
//! can still drain. [`WarmPoolManager::shutdown_sweep`] then reaps every
//! remaining container — after the service's event loop runs dry, the
//! runtime ledger must read zero or containers leaked.

//!
//! With [`WarmPoolManager::set_tenancy`] the memory budget is further
//! partitioned into per-tenant **guaranteed shares**: a tenant may always
//! reserve up to its share, and may *borrow* beyond it — but only for
//! demand boots, and only as long as the remaining budget still covers
//! every other tenant's unused guarantee, so no amount of borrowing can
//! ever deny another tenant its share. Pre-warm boots never borrow:
//! background headroom is a per-tenant luxury, not a reason to squat on a
//! neighbor's guarantee.

use std::collections::VecDeque;

use aqua_faas::runtime::{BootTicket, ContainerRuntime};
use aqua_faas::tenant::TenantId;
use aqua_faas::{FunctionId, PoolDecision, ResourceConfig};
use aqua_sim::{FxHashMap, SimDuration, SimTime};

/// Sizing knobs for the warm pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmPoolConfig {
    /// Boot semaphore: maximum pre-warm boots in flight at once across
    /// all functions.
    pub max_concurrent_boots: usize,
    /// Keep-alive applied before the policy's first decision.
    pub default_keep_alive: SimDuration,
    /// Total memory the pool may reserve, MiB.
    pub memory_budget_mb: f64,
}

impl Default for WarmPoolConfig {
    fn default() -> Self {
        WarmPoolConfig {
            max_concurrent_boots: 64,
            default_keep_alive: SimDuration::from_secs(600),
            memory_budget_mb: 256.0 * 16.0 * 1024.0,
        }
    }
}

/// Why a boot was started — determines semaphore accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootPurpose {
    /// A request is waiting on this container.
    Demand,
    /// The filler is building headroom toward a pre-warm target.
    Prewarm,
}

/// What a container the pool does not hold idle is doing (idle ones sit
/// in their function's ring instead).
#[derive(Debug, Clone, Copy)]
enum Lease {
    /// Booting, for this purpose.
    Booting(BootPurpose),
    /// Running a task.
    Busy,
}

/// Result of asking the pool for a container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquired {
    /// A warm container was available; it is now busy.
    Warm(aqua_faas::ContainerId),
    /// A demand boot was started; schedule its completion and queue the
    /// task.
    Cold(BootTicket),
    /// No warm container and no memory headroom to boot: queue or shed.
    NoCapacity,
}

/// Pool-manager lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmPoolStats {
    /// Acquisitions served from a warm container.
    pub warm_hits: u64,
    /// Demand boots started.
    pub demand_boots: u64,
    /// Pre-warm boots started by the filler.
    pub prewarm_boots: u64,
    /// Boots that failed (ticket said so and the failure landed).
    pub boot_failures: u64,
    /// Idle containers reaped by keep-alive expiry.
    pub reaped: u64,
    /// Idle containers killed by policy shrink decisions.
    pub shrunk: u64,
    /// Pre-warm boots the filler wanted but the semaphore deferred.
    pub semaphore_deferrals: u64,
    /// Pre-warm boots the filler wanted but the memory budget denied.
    pub memory_deferrals: u64,
    /// Idle containers LRU-evicted to make room for a demand boot.
    pub pressure_evictions: u64,
    /// Boots denied by the tenant-share borrowing rule while the global
    /// budget still had room (pre-warm beyond share, or a demand borrow
    /// that would have eaten a neighbor's guarantee).
    pub share_deferrals: u64,
    /// Containers killed by the final shutdown sweep.
    pub swept: u64,
}

/// Per-function pool state. Everything a filler pass reads to learn that
/// a pool needs nothing (idle length, oldest idle stamp, booting, target,
/// keep-alive, shrink) sits inline, so the 18 000 passes an hour never
/// touch the heap buffer of an inactive function's idle ring.
#[derive(Debug, Clone, Default)]
struct FnPool {
    /// Warm idle containers, most recently used last (LIFO reuse keeps
    /// the warmest container hot and lets the oldest expire).
    idle: VecDeque<(aqua_faas::ContainerId, SimTime)>,
    /// Idle-since stamp of `idle.front()`, mirrored by the three methods
    /// that push and pop; meaningless while `idle` is empty.
    oldest_idle: SimTime,
    /// Containers currently booting (either purpose).
    booting: u32,
    /// Containers currently running a task.
    busy: u32,
    /// Policy pre-warm target (`None` = demand-driven only).
    target: Option<usize>,
    /// Keep-alive horizon for idle containers.
    keep_alive: SimDuration,
    /// Whether the policy allows killing over-target idle containers.
    shrink: bool,
}

impl FnPool {
    fn push_idle(&mut self, id: aqua_faas::ContainerId, now: SimTime) {
        if self.idle.is_empty() {
            self.oldest_idle = now;
        }
        self.idle.push_back((id, now));
    }

    /// Takes the most recently used idle container (the front, and so
    /// `oldest_idle`, stays).
    fn pop_newest(&mut self) -> Option<aqua_faas::ContainerId> {
        self.idle.pop_back().map(|(id, _)| id)
    }

    /// Takes the least recently used idle container.
    fn pop_oldest(&mut self) -> Option<aqua_faas::ContainerId> {
        let (id, _) = self.idle.pop_front()?;
        if let Some(&(_, since)) = self.idle.front() {
            self.oldest_idle = since;
        }
        Some(id)
    }

    /// Idle plus booting containers: what counts toward a target.
    fn headroom(&self) -> usize {
        self.idle.len() + self.booting as usize
    }
}

/// The warm-pool manager.
pub struct WarmPoolManager {
    cfg: WarmPoolConfig,
    runtime: Box<dyn ContainerRuntime>,
    pools: Vec<FnPool>,
    configs: Vec<ResourceConfig>,
    /// Booting and busy containers: the function each serves and what it
    /// is doing.
    leases: FxHashMap<aqua_faas::ContainerId, (FunctionId, Lease)>,
    /// Pre-warm boots currently in flight (semaphore counter).
    prewarm_inflight: usize,
    reserved_memory_mb: f64,
    /// Tenant of each function; all zeros until [`Self::set_tenancy`].
    fn_tenant: Vec<usize>,
    /// Guaranteed memory share per tenant, MiB. Empty = tenancy off
    /// (the single-tenant fast path skips all share accounting).
    tenant_shares_mb: Vec<f64>,
    /// Memory currently reserved by each tenant, MiB.
    tenant_reserved_mb: Vec<f64>,
    /// ∫ reserved_memory dt, MiB·s — the run's billable footprint.
    mem_integral_mb_s: f64,
    /// Virtual instant `mem_integral_mb_s` is integrated up to.
    last_mem_update: SimTime,
    draining: bool,
    stats: WarmPoolStats,
}

impl WarmPoolManager {
    /// A pool manager over `runtime` with one canonical [`ResourceConfig`]
    /// per function.
    pub fn new(
        cfg: WarmPoolConfig,
        runtime: Box<dyn ContainerRuntime>,
        configs: Vec<ResourceConfig>,
    ) -> Self {
        let pools = configs
            .iter()
            .map(|_| FnPool {
                keep_alive: cfg.default_keep_alive,
                ..FnPool::default()
            })
            .collect();
        WarmPoolManager {
            cfg,
            runtime,
            pools,
            configs,
            leases: FxHashMap::default(),
            prewarm_inflight: 0,
            reserved_memory_mb: 0.0,
            fn_tenant: Vec::new(),
            tenant_shares_mb: Vec::new(),
            tenant_reserved_mb: Vec::new(),
            mem_integral_mb_s: 0.0,
            last_mem_update: SimTime::ZERO,
            draining: false,
            stats: WarmPoolStats::default(),
        }
    }

    /// Partitions the memory budget into per-tenant guaranteed shares.
    /// `fn_tenant[i]` is the owning tenant of function `i`; `shares_mb`
    /// holds each tenant's guarantee. Must be called before any boot.
    ///
    /// # Panics
    ///
    /// Panics when the mapping doesn't cover the functions, a function
    /// names an unknown tenant, the guarantees oversubscribe the budget,
    /// or containers already hold memory.
    pub fn set_tenancy(&mut self, fn_tenant: Vec<TenantId>, shares_mb: Vec<f64>) {
        assert_eq!(
            fn_tenant.len(),
            self.pools.len(),
            "tenancy must cover every function"
        );
        assert!(
            fn_tenant.iter().all(|t| t.0 < shares_mb.len()),
            "function owned by unknown tenant"
        );
        let total: f64 = shares_mb.iter().sum();
        assert!(
            total <= self.cfg.memory_budget_mb + 1e-6,
            "tenant shares ({total:.1} MiB) oversubscribe the budget \
             ({:.1} MiB)",
            self.cfg.memory_budget_mb
        );
        assert_eq!(
            self.reserved_memory_mb, 0.0,
            "set_tenancy after containers were booted"
        );
        self.fn_tenant = fn_tenant.into_iter().map(|t| t.0).collect();
        self.tenant_reserved_mb = vec![0.0; shares_mb.len()];
        self.tenant_shares_mb = shares_mb;
    }

    /// Number of functions managed.
    pub fn functions(&self) -> usize {
        self.pools.len()
    }

    /// The canonical config a function's containers boot with.
    pub fn config(&self, f: FunctionId) -> &ResourceConfig {
        &self.configs[f.0]
    }

    /// Tries to serve a task: warm container, else a demand boot, else
    /// [`Acquired::NoCapacity`].
    pub fn acquire(&mut self, f: FunctionId, now: SimTime) -> Acquired {
        self.advance_mem_clock(now);
        if let Some(id) = self.pools[f.0].pop_newest() {
            self.pools[f.0].busy += 1;
            self.leases.insert(id, (f, Lease::Busy));
            self.stats.warm_hits += 1;
            return Acquired::Warm(id);
        }
        match self.start_boot(f, BootPurpose::Demand) {
            Some(ticket) => Acquired::Cold(ticket),
            None => Acquired::NoCapacity,
        }
    }

    /// Samples one warm execution for `f` under its canonical config.
    pub fn sample_exec(&mut self, f: FunctionId) -> SimDuration {
        let cfg = self.configs[f.0];
        self.runtime.exec(f, &cfg)
    }

    /// Returns a busy container to the idle pool.
    pub fn release(&mut self, container: aqua_faas::ContainerId, now: SimTime) {
        let Some((f, Lease::Busy)) = self.leases.remove(&container) else {
            panic!("release of a container that is not busy");
        };
        self.pools[f.0].busy -= 1;
        self.pools[f.0].push_idle(container, now);
    }

    /// Marks a finished boot warm-idle; returns the function and purpose
    /// so the service can match waiting tasks.
    pub fn on_boot_done(
        &mut self,
        container: aqua_faas::ContainerId,
        now: SimTime,
    ) -> (FunctionId, BootPurpose) {
        let Some((f, Lease::Booting(purpose))) = self.leases.remove(&container) else {
            panic!("boot-done for a container that is not booting");
        };
        self.finish_boot_accounting(f, purpose);
        self.pools[f.0].push_idle(container, now);
        (f, purpose)
    }

    /// Handles a failed boot: the container is reaped immediately and its
    /// memory freed. Returns the function so the service can record the
    /// failure and consider a replacement.
    pub fn on_boot_failed(
        &mut self,
        container: aqua_faas::ContainerId,
        now: SimTime,
    ) -> FunctionId {
        self.advance_mem_clock(now);
        let Some((f, Lease::Booting(purpose))) = self.leases.remove(&container) else {
            panic!("boot-failed for a container that is not booting");
        };
        self.finish_boot_accounting(f, purpose);
        self.free_container(f);
        assert!(self.runtime.kill(container), "failed boot not on ledger");
        self.stats.boot_failures += 1;
        f
    }

    /// Applies one control window's policy decisions (targets,
    /// keep-alives, shrink permissions). The filler works toward them on
    /// its own cadence.
    pub fn apply_decisions(&mut self, decisions: &[PoolDecision]) {
        for d in decisions {
            let pool = &mut self.pools[d.function.0];
            pool.target = d.prewarm_target;
            pool.keep_alive = d.keep_alive;
            pool.shrink = d.shrink;
        }
    }

    /// One background filler pass: reap expired idle containers, shrink
    /// over-target pools where allowed, then boot toward targets within
    /// the boot semaphore and memory budget. Returns the pre-warm boot
    /// tickets started (the service schedules their completions).
    pub fn filler_tick(&mut self, now: SimTime) -> Vec<BootTicket> {
        self.advance_mem_clock(now);
        let mut tickets = Vec::new();
        for i in 0..self.pools.len() {
            let f = FunctionId(i);
            // Keep-alive reaping: idle front is oldest.
            while !self.pools[i].idle.is_empty()
                && now - self.pools[i].oldest_idle >= self.pools[i].keep_alive
            {
                let id = self.pools[i].pop_oldest().expect("idle is non-empty");
                self.free_container(f);
                assert!(self.runtime.kill(id), "reaped container not on ledger");
                self.stats.reaped += 1;
            }
            let target = self.pools[i].target;
            // Policy-sanctioned shrink of over-target idle capacity. A
            // `None` target means "size the pool by demand" (the sim's
            // reading of [`PoolDecision`]), so reclamation is left to the
            // keep-alive above — shrinking to zero here would annihilate
            // every keep-alive-only policy's warm capacity on the spot.
            if let (true, Some(target)) = (self.pools[i].shrink, target) {
                while self.pools[i].headroom() > target {
                    let Some(id) = self.pools[i].pop_oldest() else {
                        break;
                    };
                    self.free_container(f);
                    assert!(self.runtime.kill(id), "shrunk container not on ledger");
                    self.stats.shrunk += 1;
                }
            }
            // Pre-warm boots toward the target (never during drain).
            if self.draining {
                continue;
            }
            let Some(target) = target else {
                continue;
            };
            let mut deficit = target.saturating_sub(self.pools[i].headroom());
            while deficit > 0 {
                if self.prewarm_inflight >= self.cfg.max_concurrent_boots {
                    self.stats.semaphore_deferrals += deficit as u64;
                    break;
                }
                match self.start_boot(f, BootPurpose::Prewarm) {
                    Some(t) => tickets.push(t),
                    None => {
                        self.stats.memory_deferrals += deficit as u64;
                        break;
                    }
                }
                deficit -= 1;
            }
        }
        tickets
    }

    /// Enters drain mode: the filler stops creating pre-warm capacity.
    /// Demand boots remain allowed so queued work can finish.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Kills every remaining container (idle, booting, busy). Call after
    /// the event loop has drained; any busy/booting entry at that point
    /// is a leak this sweep both cleans up and reports.
    pub fn shutdown_sweep(&mut self, now: SimTime) -> usize {
        self.advance_mem_clock(now);
        let mut killed = 0;
        for i in 0..self.pools.len() {
            let f = FunctionId(i);
            while let Some(id) = self.pools[i].pop_oldest() {
                self.free_container(f);
                assert!(self.runtime.kill(id), "swept container not on ledger");
                killed += 1;
            }
        }
        // Anything still booting or busy after a drained loop is a bug;
        // sweep it so the ledger ends clean, and count it.
        for (id, (f, lease)) in std::mem::take(&mut self.leases) {
            match lease {
                Lease::Booting(purpose) => self.finish_boot_accounting(f, purpose),
                Lease::Busy => self.pools[f.0].busy -= 1,
            }
            self.free_container(f);
            let _ = self.runtime.kill(id);
            killed += 1;
        }
        self.stats.swept += killed as u64;
        killed
    }

    /// Live containers on the runtime ledger (0 after a clean shutdown).
    pub fn live_containers(&self) -> usize {
        self.runtime.live()
    }

    /// Memory currently reserved, MiB.
    pub fn reserved_memory_mb(&self) -> f64 {
        self.reserved_memory_mb
    }

    /// Memory currently reserved by one tenant, MiB (0 with tenancy off).
    pub fn tenant_reserved_mb(&self, tenant: TenantId) -> f64 {
        self.tenant_reserved_mb
            .get(tenant.0)
            .copied()
            .unwrap_or(0.0)
    }

    /// The billable memory footprint so far: ∫ reserved dt in GB·s,
    /// integrated up to `now`.
    pub fn memory_gb_seconds(&mut self, now: SimTime) -> f64 {
        self.advance_mem_clock(now);
        self.mem_integral_mb_s / 1024.0
    }

    /// Idle containers for one function (allocation-free hot-path query).
    pub fn idle_count(&self, f: FunctionId) -> usize {
        self.pools[f.0].idle.len()
    }

    /// Containers of `f` currently booting (either purpose).
    pub fn booting_count(&self, f: FunctionId) -> u32 {
        self.pools[f.0].booting
    }

    /// Containers of `f` currently running a task.
    pub fn busy_count(&self, f: FunctionId) -> u32 {
        self.pools[f.0].busy
    }

    /// Pre-warm boots currently holding the semaphore.
    pub fn prewarm_inflight(&self) -> usize {
        self.prewarm_inflight
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WarmPoolStats {
        self.stats
    }

    /// The underlying runtime's lifetime counters.
    pub fn runtime_stats(&self) -> aqua_faas::runtime::RuntimeStats {
        self.runtime.stats()
    }

    fn start_boot(&mut self, f: FunctionId, purpose: BootPurpose) -> Option<BootTicket> {
        let cfg = self.configs[f.0];
        // Demand boots may evict idle capacity under memory pressure —
        // the same LRU reclamation the simulator's cluster performs.
        // Without it, idle containers of the wrong function pin memory
        // for their whole keep-alive while queued work starves. Under
        // tenancy, victims are restricted to the booting tenant's own
        // pools: evicting a neighbor's idle container frees its memory
        // but grows its unused guarantee by exactly as much, so it can
        // never legalize a borrow — it would only destroy the
        // neighbor's warmth.
        if purpose == BootPurpose::Demand {
            let tenant = (!self.tenant_shares_mb.is_empty()).then(|| self.fn_tenant[f.0]);
            self.evict_lru_for(cfg.memory_mb, tenant);
        }
        if !self.tenant_shares_mb.is_empty() {
            let t = self.fn_tenant[f.0];
            let mem = cfg.memory_mb;
            let within_share = self.tenant_reserved_mb[t] + mem <= self.tenant_shares_mb[t];
            if !within_share {
                // Borrowing beyond the guarantee: demand boots only, and
                // the leftover budget must still cover every other
                // tenant's unused guarantee — so no tenant can ever be
                // denied a within-share boot by a neighbor's borrowing.
                // Note the borrow condition subsumes the global budget
                // check, so an over-share demand against a full budget is
                // counted here, as a share deferral.
                let others_guarantee: f64 = self
                    .tenant_shares_mb
                    .iter()
                    .zip(&self.tenant_reserved_mb)
                    .enumerate()
                    .filter(|&(s, _)| s != t)
                    .map(|(_, (share, reserved))| (share - reserved).max(0.0))
                    .sum();
                let may_borrow = purpose == BootPurpose::Demand
                    && self.reserved_memory_mb + mem
                        <= self.cfg.memory_budget_mb - others_guarantee;
                if !may_borrow {
                    self.stats.share_deferrals += 1;
                    return None;
                }
            }
        }
        if self.reserved_memory_mb + cfg.memory_mb > self.cfg.memory_budget_mb {
            return None;
        }
        if !self.tenant_shares_mb.is_empty() {
            self.tenant_reserved_mb[self.fn_tenant[f.0]] += cfg.memory_mb;
        }
        let ticket = self.runtime.boot(f, &cfg);
        self.reserved_memory_mb += cfg.memory_mb;
        self.pools[f.0].booting += 1;
        self.leases
            .insert(ticket.container, (f, Lease::Booting(purpose)));
        match purpose {
            BootPurpose::Demand => self.stats.demand_boots += 1,
            BootPurpose::Prewarm => {
                self.prewarm_inflight += 1;
                self.stats.prewarm_boots += 1;
            }
        }
        Some(ticket)
    }

    fn finish_boot_accounting(&mut self, f: FunctionId, purpose: BootPurpose) {
        self.pools[f.0].booting -= 1;
        if purpose == BootPurpose::Prewarm {
            self.prewarm_inflight -= 1;
        }
    }

    /// Kills least-recently-used idle containers until `mem` MiB fits in
    /// the budget or no idle capacity remains. `tenant` restricts the
    /// victim set to one tenant's functions (`None` = every function).
    /// Deterministic: victims are ordered by (idle-since, container id).
    fn evict_lru_for(&mut self, mem: f64, tenant: Option<usize>) {
        while self.reserved_memory_mb + mem > self.cfg.memory_budget_mb {
            let victim = self
                .pools
                .iter()
                .enumerate()
                .filter(|&(i, _)| tenant.is_none_or(|t| self.fn_tenant[i] == t))
                .filter_map(|(i, p)| p.idle.front().map(|&(id, since)| (since, id, i)))
                .min();
            let Some((_, id, i)) = victim else {
                return;
            };
            self.pools[i].pop_oldest();
            self.free_container(FunctionId(i));
            assert!(self.runtime.kill(id), "evicted container not on ledger");
            self.stats.pressure_evictions += 1;
        }
    }

    fn free_container(&mut self, f: FunctionId) {
        let mem = self.configs[f.0].memory_mb;
        self.reserved_memory_mb = (self.reserved_memory_mb - mem).max(0.0);
        if !self.tenant_shares_mb.is_empty() {
            let t = self.fn_tenant[f.0];
            self.tenant_reserved_mb[t] = (self.tenant_reserved_mb[t] - mem).max(0.0);
        }
    }

    /// Integrates reserved memory up to `now` (no-op when time stands
    /// still; every public mutator calls this before touching memory).
    fn advance_mem_clock(&mut self, now: SimTime) {
        if now > self.last_mem_update {
            self.mem_integral_mb_s +=
                self.reserved_memory_mb * (now - self.last_mem_update).as_secs_f64();
            self.last_mem_update = now;
        }
    }
}

impl std::fmt::Debug for WarmPoolManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmPoolManager")
            .field("functions", &self.pools.len())
            .field("live", &self.runtime.live())
            .field("reserved_memory_mb", &self.reserved_memory_mb)
            .field("prewarm_inflight", &self.prewarm_inflight)
            .field("draining", &self.draining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_faas::runtime::SimContainerRuntime;
    use aqua_faas::{FaultPlan, FunctionRegistry, FunctionSpec, NoiseModel};

    /// Idle containers of the two test functions.
    fn idle(p: &WarmPoolManager) -> [usize; 2] {
        [p.idle_count(FunctionId(0)), p.idle_count(FunctionId(1))]
    }

    fn pool(max_boots: usize, budget_mb: f64) -> WarmPoolManager {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("f0"));
        reg.register(FunctionSpec::new("f1"));
        let rt = SimContainerRuntime::new(reg, NoiseModel::quiet(), 7, &FaultPlan::disabled());
        WarmPoolManager::new(
            WarmPoolConfig {
                max_concurrent_boots: max_boots,
                default_keep_alive: SimDuration::from_secs(600),
                memory_budget_mb: budget_mb,
            },
            Box::new(rt),
            vec![ResourceConfig::default(); 2],
        )
    }

    fn target(f: usize, n: usize) -> PoolDecision {
        PoolDecision {
            function: FunctionId(f),
            prewarm_target: Some(n),
            keep_alive: SimDuration::from_secs(600),
            shrink: false,
        }
    }

    #[test]
    fn cold_then_warm_acquisition() {
        let mut p = pool(8, 1e9);
        let f = FunctionId(0);
        let t0 = SimTime::ZERO;
        let Acquired::Cold(ticket) = p.acquire(f, t0) else {
            panic!("empty pool must boot");
        };
        p.on_boot_done(ticket.container, t0);
        let Acquired::Warm(id) = p.acquire(f, t0) else {
            panic!("booted container must be reusable");
        };
        assert_eq!(id, ticket.container);
        assert_eq!(p.busy_count(f), 1);
        p.release(id, t0);
        assert_eq!(p.busy_count(f), 0);
        assert_eq!(idle(&p), [1, 0]);
        assert_eq!(p.stats().warm_hits, 1);
        assert_eq!(p.stats().demand_boots, 1);
    }

    #[test]
    fn filler_respects_the_boot_semaphore() {
        let mut p = pool(3, 1e9);
        p.apply_decisions(&[target(0, 10)]);
        let tickets = p.filler_tick(SimTime::ZERO);
        assert_eq!(tickets.len(), 3, "semaphore caps pre-warm boots");
        assert_eq!(p.prewarm_inflight(), 3);
        assert!(p.stats().semaphore_deferrals > 0);
        // Semaphore slots free as boots land; the next tick continues.
        for t in &tickets {
            p.on_boot_done(t.container, SimTime::from_secs(1));
        }
        assert_eq!(p.prewarm_inflight(), 0);
        let more = p.filler_tick(SimTime::from_secs(1));
        assert_eq!(more.len(), 3);
        assert_eq!(p.idle_count(FunctionId(0)), 3);
    }

    #[test]
    fn demand_boots_bypass_the_semaphore_but_not_memory() {
        let mut p = pool(1, 3.5 * 1024.0);
        p.apply_decisions(&[target(0, 5)]);
        let _ = p.filler_tick(SimTime::ZERO); // 1 pre-warm boot holds the semaphore
        let Acquired::Cold(_) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!("demand boot must bypass the semaphore");
        };
        let Acquired::Cold(_) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!("budget still has room for a third container");
        };
        // 3 × 1024 MiB reserved; a fourth container exceeds 3.5 GiB.
        assert_eq!(
            p.acquire(FunctionId(0), SimTime::ZERO),
            Acquired::NoCapacity
        );
    }

    #[test]
    fn keep_alive_reaps_expired_idle() {
        let mut p = pool(8, 1e9);
        let Acquired::Cold(t) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!()
        };
        p.on_boot_done(t.container, SimTime::ZERO);
        let Acquired::Warm(id) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!()
        };
        p.release(id, SimTime::from_secs(10));
        p.apply_decisions(&[PoolDecision {
            function: FunctionId(0),
            prewarm_target: None,
            keep_alive: SimDuration::from_secs(60),
            shrink: false,
        }]);
        let _ = p.filler_tick(SimTime::from_secs(30));
        assert_eq!(p.idle_count(FunctionId(0)), 1, "young idle survives");
        let _ = p.filler_tick(SimTime::from_secs(90));
        assert_eq!(p.idle_count(FunctionId(0)), 0, "expired idle reaped");
        assert_eq!(p.stats().reaped, 1);
        assert_eq!(p.live_containers(), 0);
    }

    #[test]
    fn drain_stops_prewarm_but_allows_demand() {
        let mut p = pool(8, 1e9);
        p.apply_decisions(&[target(0, 4)]);
        p.begin_drain();
        assert!(
            p.filler_tick(SimTime::ZERO).is_empty(),
            "no pre-warm in drain"
        );
        match p.acquire(FunctionId(0), SimTime::ZERO) {
            Acquired::Cold(_) => {}
            other => panic!("demand boot must stay allowed in drain: {other:?}"),
        }
    }

    #[test]
    fn failed_boot_frees_memory_and_ledger() {
        use aqua_faas::FaultRates;
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new("f"));
        let plan = FaultPlan::from_seed(
            1,
            FaultRates {
                boot_fail: 1.0,
                ..FaultRates::default()
            },
        );
        let rt = SimContainerRuntime::new(reg, NoiseModel::quiet(), 7, &plan);
        let mut p = WarmPoolManager::new(
            WarmPoolConfig::default(),
            Box::new(rt),
            vec![ResourceConfig::default()],
        );
        let Acquired::Cold(t) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!()
        };
        assert!(t.fails);
        let f = p.on_boot_failed(t.container, SimTime::from_secs(1));
        assert_eq!(f, FunctionId(0));
        assert_eq!(p.reserved_memory_mb(), 0.0);
        assert_eq!(p.live_containers(), 0);
        assert_eq!(p.stats().boot_failures, 1);
    }

    #[test]
    fn shutdown_sweep_clears_everything() {
        let mut p = pool(8, 1e9);
        p.apply_decisions(&[target(0, 3), target(1, 2)]);
        let tickets = p.filler_tick(SimTime::ZERO);
        for t in &tickets {
            p.on_boot_done(t.container, SimTime::ZERO);
        }
        assert_eq!(p.live_containers(), 5);
        // One container is left busy, as a leaked task would leave it.
        assert!(matches!(
            p.acquire(FunctionId(0), SimTime::ZERO),
            Acquired::Warm(_)
        ));
        p.begin_drain();
        let killed = p.shutdown_sweep(SimTime::from_secs(1));
        assert_eq!(killed, 5);
        assert_eq!(p.live_containers(), 0, "zero orphaned containers");
        assert_eq!(p.reserved_memory_mb(), 0.0);
        assert_eq!(p.busy_count(FunctionId(0)), 0);
    }

    /// Two functions, one per tenant, 1024 MiB containers, 4 GiB budget
    /// split `shares` between the tenants.
    fn tenanted_pool(share0: f64, share1: f64) -> WarmPoolManager {
        let mut p = pool(8, 4.0 * 1024.0);
        p.set_tenancy(vec![TenantId(0), TenantId(1)], vec![share0, share1]);
        p
    }

    #[test]
    fn demand_borrowing_never_eats_a_neighbors_guarantee() {
        // Tenant 0 guaranteed 1 GiB, tenant 1 guaranteed 2 GiB; 1 GiB of
        // the 4 GiB budget is unguaranteed slack.
        let mut p = tenanted_pool(1024.0, 2.0 * 1024.0);
        let t0 = SimTime::ZERO;
        // Tenant 0: 1 within share + 1 borrowed from slack.
        assert!(matches!(p.acquire(FunctionId(0), t0), Acquired::Cold(_)));
        assert!(matches!(p.acquire(FunctionId(0), t0), Acquired::Cold(_)));
        // A third boot would leave only 1 GiB for tenant 1's untouched
        // 2 GiB guarantee: the borrowing rule must refuse while the
        // global budget still has room.
        assert_eq!(p.acquire(FunctionId(0), t0), Acquired::NoCapacity);
        assert_eq!(p.stats().share_deferrals, 1);
        assert_eq!(p.reserved_memory_mb(), 2.0 * 1024.0);
        // Tenant 1 can still claim its full guarantee.
        assert!(matches!(p.acquire(FunctionId(1), t0), Acquired::Cold(_)));
        assert!(matches!(p.acquire(FunctionId(1), t0), Acquired::Cold(_)));
        assert_eq!(p.tenant_reserved_mb(TenantId(1)), 2.0 * 1024.0);
    }

    #[test]
    fn prewarm_never_borrows_beyond_the_share() {
        let mut p = tenanted_pool(1024.0, 1024.0);
        p.apply_decisions(&[target(0, 3)]);
        let tickets = p.filler_tick(SimTime::ZERO);
        assert_eq!(tickets.len(), 1, "pre-warm stops at the 1-container share");
        assert!(p.stats().share_deferrals > 0);
        // The same deficit as a demand boot may borrow the slack.
        assert!(matches!(
            p.acquire(FunctionId(0), SimTime::ZERO),
            Acquired::Cold(_)
        ));
    }

    #[test]
    fn pressure_eviction_never_crosses_tenants() {
        // 2 + 2 GiB shares, no slack. Tenant 1 parks two idle warm
        // containers; tenant 0 fills its own share and then demands a
        // third container. The borrow is illegal (it would eat tenant
        // 1's guarantee), and crucially the attempt must not evict
        // tenant 1's idle warmth on the way to being refused.
        let mut p = tenanted_pool(2.0 * 1024.0, 2.0 * 1024.0);
        let t0 = SimTime::ZERO;
        let mut warm = Vec::new();
        for _ in 0..2 {
            let Acquired::Cold(t) = p.acquire(FunctionId(1), t0) else {
                panic!("tenant 1 within-share boot");
            };
            warm.push(t.container);
        }
        for (i, c) in warm.into_iter().enumerate() {
            p.on_boot_done(c, t0);
            let Acquired::Warm(id) = p.acquire(FunctionId(1), t0) else {
                panic!("warm after boot");
            };
            p.release(id, SimTime::from_secs(i as u64 + 1));
        }
        assert_eq!(idle(&p), [0, 2]);
        // Tenant 0: two busy within-share containers.
        let mut boots = Vec::new();
        for _ in 0..2 {
            let got = p.acquire(FunctionId(0), t0);
            let Acquired::Cold(t) = got else {
                panic!("tenant 0 within-share boot: {got:?}");
            };
            boots.push(t.container);
        }
        for c in boots {
            p.on_boot_done(c, SimTime::from_secs(3));
            let Acquired::Warm(_) = p.acquire(FunctionId(0), SimTime::from_secs(3)) else {
                panic!("tenant 0 container stays busy");
            };
        }
        // The over-share demand: refused, and tenant 1's idle intact.
        assert_eq!(
            p.acquire(FunctionId(0), SimTime::from_secs(4)),
            Acquired::NoCapacity
        );
        assert_eq!(p.stats().pressure_evictions, 0);
        assert_eq!(idle(&p), [0, 2], "neighbor warmth untouched");
        assert_eq!(p.stats().share_deferrals, 1);
    }

    #[test]
    fn set_tenancy_rejects_oversubscribed_shares() {
        let mut p = pool(8, 1024.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.set_tenancy(vec![TenantId(0), TenantId(0)], vec![2048.0]);
        }));
        assert!(r.is_err(), "shares beyond the budget must panic");
    }

    #[test]
    fn memory_integral_tracks_reserved_area() {
        let mut p = pool(8, 1e9);
        let Acquired::Cold(t) = p.acquire(FunctionId(0), SimTime::ZERO) else {
            panic!()
        };
        p.on_boot_done(t.container, SimTime::ZERO);
        // One default container (1024 MiB) held for 10 s = 10 GB·s.
        let gbs = p.memory_gb_seconds(SimTime::from_secs(10));
        let expect = ResourceConfig::default().memory_mb / 1024.0 * 10.0;
        assert!((gbs - expect).abs() < 1e-9, "{gbs} vs {expect}");
        // Clock never runs backwards and idles at zero reservation.
        p.begin_drain();
        p.shutdown_sweep(SimTime::from_secs(10));
        let after = p.memory_gb_seconds(SimTime::from_secs(20));
        assert!(
            (after - expect).abs() < 1e-9,
            "freed memory accrues nothing"
        );
    }

    #[test]
    fn shrink_decision_kills_over_target_idle() {
        let mut p = pool(8, 1e9);
        p.apply_decisions(&[target(0, 4)]);
        let tickets = p.filler_tick(SimTime::ZERO);
        for t in &tickets {
            p.on_boot_done(t.container, SimTime::ZERO);
        }
        assert_eq!(p.idle_count(FunctionId(0)), 4);
        p.apply_decisions(&[PoolDecision {
            function: FunctionId(0),
            prewarm_target: Some(1),
            keep_alive: SimDuration::from_secs(600),
            shrink: true,
        }]);
        let _ = p.filler_tick(SimTime::from_secs(1));
        assert_eq!(p.idle_count(FunctionId(0)), 1);
        assert_eq!(p.stats().shrunk, 3);
    }

    #[test]
    fn demand_boot_evicts_lru_idle_under_memory_pressure() {
        // Budget fits exactly two default (1024 MiB) containers.
        let mut p = pool(8, 2048.0);
        // Warm one container of each function.
        for f in [FunctionId(0), FunctionId(1)] {
            let Acquired::Cold(t) = p.acquire(f, SimTime::ZERO) else {
                panic!("empty pool must boot");
            };
            p.on_boot_done(t.container, SimTime::ZERO);
            let Acquired::Warm(id) = p.acquire(f, SimTime::ZERO) else {
                panic!("boot-done container must be warm");
            };
            p.release(id, SimTime::from_secs(f.0 as u64 + 1));
        }
        // The pool is full. A fresh demand for f0 finds f0's idle warm...
        let Acquired::Warm(id) = p.acquire(FunctionId(0), SimTime::from_secs(5)) else {
            panic!("f0 idle container expected");
        };
        // ...so a concurrent f0 demand has no idle f0 capacity and must
        // evict f1's idle container (the LRU victim) to boot.
        let Acquired::Cold(t) = p.acquire(FunctionId(0), SimTime::from_secs(5)) else {
            panic!("demand boot must evict idle capacity, not starve");
        };
        assert_eq!(p.stats().pressure_evictions, 1);
        assert_eq!(idle(&p), [0, 0]);
        // Prewarm boots never evict: a filler target for f1 defers.
        p.apply_decisions(&[target(1, 1)]);
        let tickets = p.filler_tick(SimTime::from_secs(5));
        assert!(tickets.is_empty(), "prewarm must not evict for room");
        assert_eq!(p.stats().memory_deferrals, 1);
        assert_eq!(p.stats().pressure_evictions, 1);
        p.release(id, SimTime::from_secs(6));
        p.on_boot_done(t.container, SimTime::from_secs(6));
        p.begin_drain();
        p.shutdown_sweep(SimTime::from_secs(7));
    }

    #[test]
    fn shrink_with_demand_sized_target_leaves_idle_to_keep_alive() {
        let mut p = pool(8, 1e9);
        p.apply_decisions(&[target(0, 2)]);
        let tickets = p.filler_tick(SimTime::ZERO);
        for t in &tickets {
            p.on_boot_done(t.container, SimTime::ZERO);
        }
        assert_eq!(p.idle_count(FunctionId(0)), 2);
        // A keep-alive-only policy: no target, shrink permitted. The
        // pool must NOT treat the absent target as zero.
        p.apply_decisions(&[PoolDecision {
            function: FunctionId(0),
            prewarm_target: None,
            keep_alive: SimDuration::from_secs(600),
            shrink: true,
        }]);
        let _ = p.filler_tick(SimTime::from_secs(1));
        assert_eq!(
            p.idle_count(FunctionId(0)),
            2,
            "idle capacity left to keep-alive"
        );
        assert_eq!(p.stats().shrunk, 0);
        // The keep-alive still reaps once containers actually expire.
        let _ = p.filler_tick(SimTime::from_secs(601));
        assert_eq!(p.idle_count(FunctionId(0)), 0);
        assert_eq!(p.stats().reaped, 2);
    }
}
