//! The worker cluster: container placement, warm-pool bookkeeping, and
//! resource-time accounting.

use aqua_sim::{SimDuration, SimTime};
use aqua_telemetry::{EvictionReason, SimEvent, Telemetry};

use crate::container::{Container, ContainerState};
use crate::types::{ContainerId, FunctionId, ResourceConfig, WorkerId};

/// One invoker server.
#[derive(Debug, Clone, PartialEq)]
struct Worker {
    id: WorkerId,
    memory_capacity_mb: f64,
    memory_used_mb: f64,
}

impl Worker {
    fn free_memory(&self) -> f64 {
        self.memory_capacity_mb - self.memory_used_mb
    }
}

/// Slot-table mark: the container was killed.
const DEAD: u32 = u32::MAX;

/// The simulated cluster of invoker servers.
///
/// All memory-time and CPU-time integrals are maintained here so every
/// experiment reports resource usage the same way.
///
/// Containers live in a recycled slab reached through a slot table over
/// container ids, so a lookup by id is two array reads and nothing is
/// hashed. Slot numbers are internal: every selection minimises or
/// maximises a key that ends in the container id, so which slot a
/// container landed in never decides anything.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: Vec<Worker>,
    /// Global id of `workers[0]` — non-zero when this cluster is one shard
    /// of a partitioned run.
    worker_base: usize,
    /// Live containers; a killed container's slot is `None` until the next
    /// boot takes it.
    slab: Vec<Option<Container>>,
    /// Freed slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Slab slot of every container id minted so far, indexed by
    /// `(id − container_base) / id_stride` ([`DEAD`] once killed): one
    /// `u32` per container the run boots.
    slot_of: Vec<u32>,
    /// Slab slots of each function's live containers (`by_function[fid.0]`),
    /// so the hot lookups (`find_warm`, `find_booting`, `counts`, reaping)
    /// touch only the function's own containers.
    by_function: Vec<Vec<u32>>,
    /// Id of the first container this cluster mints.
    container_base: u64,
    next_id: u64,
    /// Container-id step — the shard count in a partitioned run, so every
    /// shard mints globally unique ids.
    id_stride: u64,
    // Resource-time integrals (updated lazily at every state change).
    last_account: SimTime,
    reserved_mb_now: f64,
    busy_cpu_now: f64,
    busy_mem_mb_now: f64,
    memory_mb_seconds: f64,
    cpu_core_seconds: f64,
    busy_memory_mb_seconds: f64,
    telemetry: Telemetry,
}

impl Cluster {
    /// Creates a cluster of `n` identical workers. Workers bound memory
    /// only: `cpu_per_worker` is checked and not otherwise read.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or capacities are non-positive.
    pub fn new(n: usize, cpu_per_worker: f64, memory_mb_per_worker: f64) -> Self {
        Cluster::new_partition(n, cpu_per_worker, memory_mb_per_worker, 0, 0, 1)
    }

    /// Creates one shard of a partitioned cluster: `n` workers whose global
    /// ids start at `worker_base`, minting container ids
    /// `container_base, container_base + stride, …` so ids never collide
    /// across shards.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, capacities are non-positive, or `stride == 0`.
    pub fn new_partition(
        n: usize,
        cpu_per_worker: f64,
        memory_mb_per_worker: f64,
        worker_base: usize,
        container_base: u64,
        stride: u64,
    ) -> Self {
        assert!(n > 0, "need at least one worker");
        assert!(
            cpu_per_worker > 0.0 && memory_mb_per_worker > 0.0,
            "capacities must be positive"
        );
        assert!(stride > 0, "container-id stride must be positive");
        Cluster {
            workers: (0..n)
                .map(|i| Worker {
                    id: WorkerId(worker_base + i),
                    memory_capacity_mb: memory_mb_per_worker,
                    memory_used_mb: 0.0,
                })
                .collect(),
            worker_base,
            slab: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            by_function: Vec::new(),
            container_base,
            next_id: container_base,
            id_stride: stride,
            last_account: SimTime::ZERO,
            reserved_mb_now: 0.0,
            busy_cpu_now: 0.0,
            busy_mem_mb_now: 0.0,
            memory_mb_seconds: 0.0,
            cpu_core_seconds: 0.0,
            busy_memory_mb_seconds: 0.0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes this cluster's container-lifecycle events to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn account(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_account).as_secs_f64();
        if dt > 0.0 {
            self.memory_mb_seconds += self.reserved_mb_now * dt;
            self.cpu_core_seconds += self.busy_cpu_now * dt;
            self.busy_memory_mb_seconds += self.busy_mem_mb_now * dt;
            self.last_account = now;
        } else if now > self.last_account {
            self.last_account = now;
        }
    }

    /// Live container count.
    pub fn num_containers(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.slot(id).map(|slot| self.at(slot))
    }

    /// `id`'s entry in the slot table, if this cluster minted it.
    fn table_index(&self, id: ContainerId) -> Option<usize> {
        let k = id.0.checked_sub(self.container_base)?;
        let k = if self.id_stride == 1 {
            k
        } else {
            k / self.id_stride
        };
        usize::try_from(k).ok().filter(|&k| k < self.slot_of.len())
    }

    /// The slab slot of live container `id`. Slots are dense from 0 and
    /// reused after a kill, so a caller can keep per-container state in a
    /// table of its own indexed by slot, as long as it empties an entry
    /// before the container dies.
    pub(crate) fn slot(&self, id: ContainerId) -> Option<usize> {
        let slot = self.slot_of[self.table_index(id)?] as usize;
        // A foreign id can land on another container's table entry.
        self.slab
            .get(slot)?
            .as_ref()
            .is_some_and(|c| c.id == id)
            .then_some(slot)
    }

    /// The live container in `slot`.
    fn at(&self, slot: usize) -> &Container {
        self.slab[slot]
            .as_ref()
            .expect("indexed slot holds a container")
    }

    /// The live container `id`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown.
    fn live_mut(&mut self, id: ContainerId) -> &mut Container {
        let slot = self.slot(id).expect("unknown container");
        self.slab[slot]
            .as_mut()
            .expect("indexed slot holds a container")
    }

    /// The live containers of `function` (possibly none).
    fn of_function(&self, function: FunctionId) -> impl Iterator<Item = &Container> {
        self.by_function
            .get(function.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&slot| self.at(slot as usize))
    }

    /// Starts booting a container for `function` with `config`; the boot
    /// completes `boot_time` later (caller schedules the event). Returns
    /// `None` if no worker has enough free memory.
    pub fn boot_container(
        &mut self,
        function: FunctionId,
        config: ResourceConfig,
        now: SimTime,
        boot_time: SimDuration,
        prewarmed: bool,
    ) -> Option<ContainerId> {
        self.account(now);
        // Place on the worker with the most free memory (balance).
        let worker = self
            .workers
            .iter_mut()
            .filter(|w| w.free_memory() >= config.memory_mb)
            .max_by(|a, b| {
                a.free_memory()
                    .partial_cmp(&b.free_memory())
                    .expect("finite")
            })?;
        worker.memory_used_mb += config.memory_mb;
        let wid = worker.id;
        self.reserved_mb_now += config.memory_mb;
        let id = ContainerId(self.next_id);
        self.next_id += self.id_stride;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                u32::try_from(self.slab.len() - 1).expect("container slots are u32")
            }
        };
        self.slot_of.push(slot);
        if self.by_function.len() <= function.0 {
            self.by_function.resize(function.0 + 1, Vec::new());
        }
        self.by_function[function.0].push(slot);
        self.telemetry.emit_with(|| SimEvent::ColdStartBegin {
            at: now,
            function: function.0,
            container: id.0,
            worker: wid.0,
            memory_mb: config.memory_mb,
            slots: config.concurrency,
            prewarmed,
        });
        self.slab[slot as usize] = Some(Container {
            id,
            function,
            worker: wid,
            config,
            state: ContainerState::Booting,
            ready_at: now + boot_time,
            last_used: now + boot_time,
            busy_slots: 0,
            claimed: 0,
        });
        Some(id)
    }

    /// Marks a booted container warm and idle.
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown or not booting.
    pub fn boot_complete(&mut self, id: ContainerId, now: SimTime) {
        self.account(now);
        let c = self.live_mut(id);
        assert_eq!(c.state, ContainerState::Booting, "container not booting");
        c.state = ContainerState::Idle;
        c.claimed = 0;
        c.ready_at = now;
        c.last_used = now;
    }

    /// Finds a warm container for `function` with a free slot and matching
    /// resource configuration, preferring the most recently used (better
    /// cache locality, standard practice).
    pub fn find_warm(&self, function: FunctionId, config: &ResourceConfig) -> Option<ContainerId> {
        self.of_function(function)
            .filter(|c| c.config == *config && c.can_serve())
            .max_by_key(|c| (c.last_used, c.id.0))
            .map(|c| c.id)
    }

    /// Finds a booting container for `function` (matching `config`) that
    /// still has unclaimed future capacity (used to piggyback an arriving
    /// invocation on an in-flight pre-warm instead of booting again).
    pub fn find_booting(
        &self,
        function: FunctionId,
        config: &ResourceConfig,
    ) -> Option<ContainerId> {
        self.of_function(function)
            .filter(|c| {
                c.config == *config
                    && c.state == ContainerState::Booting
                    && c.claimed < c.config.concurrency
            })
            .min_by_key(|c| (c.ready_at, c.id.0))
            .map(|c| c.id)
    }

    /// Promises one future slot of a booting container to an invocation
    /// that will wait for the boot (see [`Cluster::find_booting`]).
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown, not booting, or fully claimed.
    pub fn claim(&mut self, id: ContainerId) {
        let c = self.live_mut(id);
        assert_eq!(c.state, ContainerState::Booting, "container not booting");
        assert!(c.claimed < c.config.concurrency, "container fully claimed");
        c.claimed += 1;
    }

    /// Occupies one invocation slot.
    ///
    /// # Panics
    ///
    /// Panics if the container cannot serve (booting or full).
    pub fn assign(&mut self, id: ContainerId, now: SimTime) {
        self.account(now);
        let c = self.live_mut(id);
        assert!(c.can_serve(), "container cannot serve");
        c.busy_slots += 1;
        c.state = ContainerState::Busy;
        let config = c.config;
        self.busy_cpu_now += config.cpu_per_slot();
        self.busy_mem_mb_now += config.memory_per_slot();
    }

    /// Releases one invocation slot.
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown or has no busy slots.
    pub fn release(&mut self, id: ContainerId, now: SimTime) {
        self.account(now);
        let c = self.live_mut(id);
        assert!(c.busy_slots > 0, "release on an idle container");
        c.busy_slots -= 1;
        if c.busy_slots == 0 {
            c.state = ContainerState::Idle;
            c.last_used = now;
        }
        let config = c.config;
        self.busy_cpu_now -= config.cpu_per_slot();
        self.busy_mem_mb_now -= config.memory_per_slot();
    }

    /// Destroys a container, freeing its memory. `reason` is recorded in
    /// the telemetry trace.
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown or currently busy.
    pub fn kill(&mut self, id: ContainerId, now: SimTime, reason: EvictionReason) {
        self.account(now);
        let slot = self.slot(id).expect("unknown container");
        let c = self.slab[slot]
            .take()
            .expect("indexed slot holds a container");
        assert_eq!(c.busy_slots, 0, "cannot kill a busy container");
        let k = self
            .table_index(id)
            .expect("a live container has a table entry");
        self.slot_of[k] = DEAD;
        self.free.push(slot as u32);
        self.by_function[c.function.0].retain(|&s| s as usize != slot);
        let w = &mut self.workers[c.worker.0 - self.worker_base];
        w.memory_used_mb -= c.config.memory_mb;
        self.reserved_mb_now -= c.config.memory_mb;
        self.telemetry.emit_with(|| SimEvent::Eviction {
            at: now,
            function: c.function.0,
            container: c.id.0,
            worker: c.worker.0,
            memory_mb: c.config.memory_mb,
            reason,
        });
    }

    /// Destroys a container killed by an injected fault (OOM / crash),
    /// force-releasing any in-flight invocation slots — their work dies
    /// with the container. Unlike [`Cluster::kill`] this accepts busy
    /// containers; the caller is responsible for rescheduling the lost
    /// invocations.
    ///
    /// # Panics
    ///
    /// Panics if the container is unknown.
    pub fn kill_faulted(&mut self, id: ContainerId, now: SimTime) {
        self.account(now);
        let c = self.live_mut(id);
        let (config, busy) = (c.config, std::mem::take(&mut c.busy_slots));
        self.busy_cpu_now -= config.cpu_per_slot() * busy as f64;
        self.busy_mem_mb_now -= config.memory_per_slot() * busy as f64;
        self.kill(id, now, EvictionReason::Fault);
    }

    /// Kills idle containers of `function` idle for longer than
    /// `keep_alive`. Returns the number killed.
    pub fn reap_idle(
        &mut self,
        function: FunctionId,
        keep_alive: SimDuration,
        now: SimTime,
    ) -> usize {
        let mut victims: Vec<ContainerId> = self
            .of_function(function)
            .filter(|c| c.state == ContainerState::Idle && c.idle_for(now) > keep_alive)
            .map(|c| c.id)
            .collect();
        // Index order is insertion order, not id order; kill in id order so
        // accounting and the event trace are bit-for-bit reproducible.
        victims.sort_unstable_by_key(|id| id.0);
        for id in &victims {
            self.kill(*id, now, EvictionReason::KeepAlive);
        }
        victims.len()
    }

    /// Kills up to `count` idle containers of `function`, newest-idle first
    /// (used to shrink an over-provisioned pre-warm pool).
    pub fn shrink_idle(&mut self, function: FunctionId, count: usize, now: SimTime) -> usize {
        let mut idle: Vec<(SimTime, ContainerId)> = self
            .of_function(function)
            .filter(|c| c.state == ContainerState::Idle)
            .map(|c| (c.last_used, c.id))
            .collect();
        // Newest first: keep the containers most likely to be cache-warm.
        idle.sort_by_key(|(t, id)| (std::cmp::Reverse(*t), id.0));
        let n = count.min(idle.len());
        for (_, id) in idle.iter().take(n) {
            self.kill(*id, now, EvictionReason::Shrink);
        }
        n
    }

    /// Evicts least-recently-used idle containers (of any function) until a
    /// worker can host `memory_mb` more, or no idle containers remain.
    /// Returns true on success.
    pub fn evict_for(&mut self, memory_mb: f64, now: SimTime) -> bool {
        loop {
            if self.workers.iter().any(|w| w.free_memory() >= memory_mb) {
                return true;
            }
            let victim = self
                .slab
                .iter()
                .flatten()
                .filter(|c| c.state == ContainerState::Idle)
                .min_by_key(|c| (c.last_used, c.id.0))
                .map(|c| c.id);
            match victim {
                Some(id) => self.kill(id, now, EvictionReason::Pressure),
                None => return false,
            }
        }
    }

    /// Counts per-state containers of `function`: `(booting, idle, busy)`.
    pub fn counts(&self, function: FunctionId) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in self.of_function(function) {
            match c.state {
                ContainerState::Booting => counts.0 += 1,
                ContainerState::Idle => counts.1 += 1,
                ContainerState::Busy => counts.2 += 1,
            }
        }
        counts
    }

    /// Brings the resource-time integrals up to `now`.
    pub fn finalize(&mut self, now: SimTime) {
        self.account(now);
    }

    /// Provisioned (reserved) memory integral, GB·s.
    pub fn memory_gb_seconds(&self) -> f64 {
        self.memory_mb_seconds / 1024.0
    }

    /// Busy CPU integral, core·s.
    pub fn cpu_core_seconds(&self) -> f64 {
        self.cpu_core_seconds
    }

    /// Memory-time attributed to executing slots, GB·s (the billed part).
    pub fn busy_memory_gb_seconds(&self) -> f64 {
        self.busy_memory_mb_seconds / 1024.0
    }

    /// Currently reserved memory, MiB.
    pub fn reserved_memory_mb(&self) -> f64 {
        self.reserved_mb_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(2, 8.0, 4096.0)
    }

    fn cfg() -> ResourceConfig {
        ResourceConfig::new(1.0, 1024.0, 1)
    }

    #[test]
    fn boot_and_complete_lifecycle() {
        let mut cl = cluster();
        let id = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::from_millis(500),
                false,
            )
            .unwrap();
        assert_eq!(cl.counts(FunctionId(0)), (1, 0, 0));
        assert!(cl.find_warm(FunctionId(0), &cfg()).is_none());
        cl.boot_complete(id, SimTime::from_millis(500));
        assert_eq!(cl.counts(FunctionId(0)), (0, 1, 0));
        assert_eq!(cl.find_warm(FunctionId(0), &cfg()), Some(id));
    }

    #[test]
    fn capacity_limit_respected() {
        let mut cl = Cluster::new(1, 4.0, 2048.0);
        let c = ResourceConfig::new(1.0, 1024.0, 1);
        assert!(cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .is_some());
        assert!(cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .is_some());
        // Third does not fit.
        assert!(cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .is_none());
    }

    #[test]
    fn eviction_frees_idle_lru() {
        let mut cl = Cluster::new(1, 4.0, 2048.0);
        let c = ResourceConfig::new(1.0, 1024.0, 1);
        let a = cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .unwrap();
        let b = cl
            .boot_container(FunctionId(1), c, SimTime::ZERO, SimDuration::ZERO, false)
            .unwrap();
        cl.boot_complete(a, SimTime::from_secs(1));
        cl.boot_complete(b, SimTime::from_secs(2));
        assert!(cl.evict_for(1024.0, SimTime::from_secs(3)));
        // LRU = a (older last_used) was evicted.
        assert!(cl.container(a).is_none());
        assert!(cl.container(b).is_some());
    }

    #[test]
    fn eviction_fails_without_idle_victims() {
        let mut cl = Cluster::new(1, 4.0, 1024.0);
        let c = ResourceConfig::new(1.0, 1024.0, 1);
        let a = cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .unwrap();
        cl.boot_complete(a, SimTime::ZERO);
        cl.assign(a, SimTime::ZERO);
        assert!(!cl.evict_for(512.0, SimTime::from_secs(1)));
    }

    #[test]
    fn assign_release_cycle_counts_slots() {
        let mut cl = cluster();
        let c = ResourceConfig::new(2.0, 1024.0, 2);
        let id = cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .unwrap();
        cl.boot_complete(id, SimTime::ZERO);
        cl.assign(id, SimTime::ZERO);
        cl.assign(id, SimTime::ZERO);
        assert_eq!(cl.counts(FunctionId(0)), (0, 0, 1));
        assert!(cl.find_warm(FunctionId(0), &c).is_none(), "both slots busy");
        cl.release(id, SimTime::from_secs(1));
        assert!(
            cl.find_warm(FunctionId(0), &c).is_some(),
            "one slot free again"
        );
        cl.release(id, SimTime::from_secs(2));
        assert_eq!(cl.counts(FunctionId(0)), (0, 1, 0));
    }

    #[test]
    fn reap_respects_keep_alive() {
        let mut cl = cluster();
        let id = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        cl.boot_complete(id, SimTime::ZERO);
        assert_eq!(
            cl.reap_idle(
                FunctionId(0),
                SimDuration::from_secs(60),
                SimTime::from_secs(30)
            ),
            0
        );
        assert_eq!(
            cl.reap_idle(
                FunctionId(0),
                SimDuration::from_secs(60),
                SimTime::from_secs(61)
            ),
            1
        );
        assert_eq!(cl.num_containers(), 0);
    }

    #[test]
    fn memory_time_integral_accumulates() {
        let mut cl = cluster();
        let id = cl
            .boot_container(
                FunctionId(0),
                ResourceConfig::new(1.0, 2048.0, 1),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        cl.boot_complete(id, SimTime::ZERO);
        cl.kill(id, SimTime::from_secs(10), EvictionReason::Shrink);
        cl.finalize(SimTime::from_secs(20));
        // 2048 MiB for 10 s = 20 GB·s; nothing after the kill.
        assert!((cl.memory_gb_seconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_time_integral_counts_busy_only() {
        let mut cl = cluster();
        let id = cl
            .boot_container(
                FunctionId(0),
                ResourceConfig::new(2.0, 1024.0, 1),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        cl.boot_complete(id, SimTime::ZERO);
        cl.assign(id, SimTime::from_secs(5));
        cl.release(id, SimTime::from_secs(8));
        cl.finalize(SimTime::from_secs(100));
        // 2 cores busy for 3 s.
        assert!((cl.cpu_core_seconds() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn shrink_idle_kills_newest_first() {
        let mut cl = cluster();
        let a = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        let b = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        cl.boot_complete(a, SimTime::from_secs(1));
        cl.boot_complete(b, SimTime::from_secs(2));
        assert_eq!(cl.shrink_idle(FunctionId(0), 1, SimTime::from_secs(3)), 1);
        assert!(
            cl.container(b).is_none(),
            "newest-idle container killed first"
        );
        assert!(cl.container(a).is_some());
    }

    #[test]
    fn evict_for_fails_with_all_containers_busy() {
        // Two workers, every container busy: LRU eviction has no victim on
        // either worker and must report failure without killing anything.
        let mut cl = Cluster::new(2, 4.0, 1024.0);
        let c = ResourceConfig::new(1.0, 1024.0, 1);
        let mut ids = Vec::new();
        for _ in 0..2 {
            let id = cl
                .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
                .unwrap();
            cl.boot_complete(id, SimTime::ZERO);
            cl.assign(id, SimTime::ZERO);
            ids.push(id);
        }
        assert!(!cl.evict_for(512.0, SimTime::from_secs(1)));
        assert_eq!(cl.num_containers(), 2, "busy containers must survive");
        for id in ids {
            assert!(cl.container(id).is_some());
        }
    }

    #[test]
    fn shrink_idle_with_count_above_idle_kills_only_idle() {
        let mut cl = cluster();
        let idle = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        let busy = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        let booting = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::from_secs(5),
                false,
            )
            .unwrap();
        cl.boot_complete(idle, SimTime::from_secs(1));
        cl.boot_complete(busy, SimTime::from_secs(1));
        cl.assign(busy, SimTime::from_secs(1));
        // Ask for far more than the single idle container.
        assert_eq!(cl.shrink_idle(FunctionId(0), 10, SimTime::from_secs(2)), 1);
        assert!(cl.container(idle).is_none());
        assert!(cl.container(busy).is_some(), "busy survives shrink");
        assert!(cl.container(booting).is_some(), "booting survives shrink");
        // And shrinking an empty idle pool is a no-op.
        assert_eq!(cl.shrink_idle(FunctionId(0), 3, SimTime::from_secs(3)), 0);
    }

    #[test]
    fn find_booting_skips_fully_claimed_containers() {
        let mut cl = cluster();
        let two_slots = ResourceConfig::new(2.0, 1024.0, 2);
        let boot = |cl: &mut Cluster, at_ms| {
            cl.boot_container(
                FunctionId(0),
                two_slots,
                SimTime::from_millis(at_ms),
                SimDuration::from_secs(1),
                true,
            )
            .unwrap()
        };
        let a = boot(&mut cl, 0);
        let b = boot(&mut cl, 1);
        // The earliest boot is offered until both of its slots are promised.
        for _ in 0..2 {
            assert_eq!(cl.find_booting(FunctionId(0), &two_slots), Some(a));
            cl.claim(a);
        }
        assert_eq!(cl.find_booting(FunctionId(0), &two_slots), Some(b));
        // Claims are a boot-time notion: once warm, capacity is busy_slots.
        cl.boot_complete(a, SimTime::from_secs(1));
        assert_eq!(cl.container(a).unwrap().claimed, 0);
        assert_eq!(cl.find_warm(FunctionId(0), &two_slots), Some(a));
    }

    #[test]
    fn find_booting_ignores_killed_containers() {
        let mut cl = cluster();
        let a = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::from_secs(1),
                false,
            )
            .unwrap();
        let b = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::from_millis(1),
                SimDuration::from_secs(1),
                false,
            )
            .unwrap();
        // `a` boots earliest so it is preferred...
        assert_eq!(cl.find_booting(FunctionId(0), &cfg()), Some(a));
        // ...but once a fault kills it mid-boot the later boot is found.
        cl.kill(a, SimTime::from_millis(500), EvictionReason::Fault);
        assert_eq!(cl.find_booting(FunctionId(0), &cfg()), Some(b));
        cl.kill(b, SimTime::from_millis(600), EvictionReason::Fault);
        assert_eq!(cl.find_booting(FunctionId(0), &cfg()), None);
    }

    #[test]
    fn kill_faulted_force_releases_busy_slots() {
        let mut cl = cluster();
        let c = ResourceConfig::new(2.0, 1024.0, 2);
        let id = cl
            .boot_container(FunctionId(0), c, SimTime::ZERO, SimDuration::ZERO, false)
            .unwrap();
        cl.boot_complete(id, SimTime::ZERO);
        cl.assign(id, SimTime::ZERO);
        cl.assign(id, SimTime::ZERO);
        cl.kill_faulted(id, SimTime::from_secs(3));
        assert!(cl.container(id).is_none());
        assert_eq!(cl.counts(FunctionId(0)), (0, 0, 0));
        // Busy-CPU integral stops at the crash: 2 slots × 1 core × 3 s.
        cl.finalize(SimTime::from_secs(10));
        assert!((cl.cpu_core_seconds() - 6.0).abs() < 1e-9);
        // Memory reservation is fully returned.
        assert_eq!(cl.reserved_memory_mb(), 0.0);
        assert!(cl
            .boot_container(
                FunctionId(1),
                c,
                SimTime::from_secs(10),
                SimDuration::ZERO,
                false
            )
            .is_some());
    }

    #[test]
    fn partitioned_shards_mint_disjoint_ids_and_global_worker_ids() {
        // Shard 1 of 3: workers start at global id 4, container ids walk
        // 1, 4, 7, … so no two shards can ever mint the same id.
        let mut cl = Cluster::new_partition(2, 8.0, 4096.0, 4, 1, 3);
        let a = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        let b = cl
            .boot_container(
                FunctionId(0),
                cfg(),
                SimTime::ZERO,
                SimDuration::ZERO,
                false,
            )
            .unwrap();
        assert_eq!(a.0, 1);
        assert_eq!(b.0, 4);
        assert!(cl.container(a).unwrap().worker.0 >= 4);
        // Kill must map the global worker id back to the local slot.
        cl.boot_complete(a, SimTime::ZERO);
        cl.kill(a, SimTime::from_secs(1), EvictionReason::Shrink);
        assert!(cl.container(a).is_none());
        assert_eq!(cl.counts(FunctionId(0)), (1, 0, 0));
    }
}
