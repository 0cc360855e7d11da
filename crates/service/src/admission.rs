//! Admission control and load shedding, tenant-aware.
//!
//! Two bounded resources protect the control plane from overload:
//!
//! * a **workflow in-flight cap** — an arrival beyond it is shed at the
//!   front door (cheapest possible rejection, nothing was dispatched);
//! * **bounded per-function task queues** — a task that finds neither a
//!   warm container nor boot capacity waits in its function's queue, and
//!   a full queue sheds the task (aborting its workflow instance).
//!
//! Both bounds exist at two scopes. The **global** [`AdmissionConfig`]
//! protects the plane as a whole; each tenant's [`QosClass`] additionally
//! caps that tenant's own in-flight instances and queue depth, so a noisy
//! neighbor exhausts *its* budget and sheds *its* arrivals while other
//! tenants' admission paths never see it. A third, distinct outcome is
//! the **predictive reject**: admission consults the online latency model
//! and refuses work whose predicted latency already misses its SLO (see
//! `ControlPlane`); it is counted separately from depth-based shedding
//! because the two mechanisms fail for different reasons and the matrix
//! report compares them head-to-head.
//!
//! Every shed increments a counter, globally and per tenant; the load
//! driver reports the shed rate alongside latency percentiles, because an
//! overloaded service that silently queues unboundedly would report
//! beautiful percentiles for the requests it ever finishes. Per tenant,
//! the counters form a ledger: every arrival is exactly one of admitted,
//! shed, or predictively rejected, and at drain `admitted == finished`.

use aqua_faas::tenant::{QosClass, TenantId};

/// Global bounds for [`Admission`], shared by all tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum workflow instances in flight at once.
    pub max_inflight: usize,
    /// Maximum waiting tasks per function queue.
    pub queue_cap: usize,
}

impl Default for AdmissionConfig {
    /// Generous service defaults: shedding should mean overload, not
    /// normal operation.
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 100_000,
            queue_cap: 1024,
        }
    }
}

/// Shedding and admission counters (kept globally and per tenant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Workflow instances admitted.
    pub admitted: u64,
    /// Arrivals shed at an in-flight cap (global or tenant).
    pub shed_arrivals: u64,
    /// Tasks shed at a full function queue (each aborts its workflow).
    pub shed_tasks: u64,
    /// Arrivals refused because the latency model predicted an SLO miss.
    pub predictive_rejects: u64,
    /// Admitted instances that finished (completed or aborted).
    pub finished: u64,
}

impl AdmissionStats {
    /// Front-door arrivals seen: every one was admitted, shed, or
    /// predictively rejected (task sheds abort instances already counted
    /// as admitted, so they are not arrivals).
    pub fn arrivals(&self) -> u64 {
        self.admitted + self.shed_arrivals + self.predictive_rejects
    }
}

/// The admission/concurrency limiter.
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    inflight: usize,
    stats: AdmissionStats,
    /// One QoS class per tenant; `TenantId(i)` indexes this list.
    classes: Vec<QosClass>,
    tenant_inflight: Vec<usize>,
    tenant_stats: Vec<AdmissionStats>,
}

impl Default for Admission {
    fn default() -> Self {
        Admission::new(AdmissionConfig::default())
    }
}

impl Admission {
    /// A single-tenant limiter with the given global bounds; the one
    /// tenant is unlimited, so only the global config ever binds.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission::with_tenants(cfg, vec![QosClass::unlimited()])
    }

    /// A limiter with one QoS class per tenant on top of the global
    /// bounds. The effective cap for a tenant is the tighter of the two.
    pub fn with_tenants(cfg: AdmissionConfig, classes: Vec<QosClass>) -> Self {
        assert!(!classes.is_empty(), "at least one tenant class required");
        let n = classes.len();
        Admission {
            cfg,
            inflight: 0,
            stats: AdmissionStats::default(),
            classes,
            tenant_inflight: vec![0; n],
            tenant_stats: vec![AdmissionStats::default(); n],
        }
    }

    /// Tries to admit one workflow instance for `tenant`.
    /// `false` = shed (counted globally and against the tenant).
    pub fn try_admit(&mut self, tenant: TenantId) -> bool {
        let t = tenant.0;
        if self.inflight >= self.cfg.max_inflight
            || self.tenant_inflight[t] >= self.classes[t].max_inflight
        {
            self.stats.shed_arrivals += 1;
            self.tenant_stats[t].shed_arrivals += 1;
            return false;
        }
        self.inflight += 1;
        self.tenant_inflight[t] += 1;
        self.stats.admitted += 1;
        self.tenant_stats[t].admitted += 1;
        true
    }

    /// Whether a task of `tenant` may join a function queue currently
    /// holding `queue_len` waiters. `false` = shed (counted).
    pub fn may_queue(&mut self, tenant: TenantId, queue_len: usize) -> bool {
        let t = tenant.0;
        if queue_len >= self.cfg.queue_cap || queue_len >= self.classes[t].queue_cap {
            self.stats.shed_tasks += 1;
            self.tenant_stats[t].shed_tasks += 1;
            return false;
        }
        true
    }

    /// Counts one predictive rejection for `tenant` (the arrival was
    /// never admitted, so in-flight counts are untouched).
    pub fn predictive_reject(&mut self, tenant: TenantId) {
        self.stats.predictive_rejects += 1;
        self.tenant_stats[tenant.0].predictive_rejects += 1;
    }

    /// Marks one in-flight instance of `tenant` finished (completed or
    /// aborted).
    pub fn finish(&mut self, tenant: TenantId) {
        let t = tenant.0;
        debug_assert!(self.inflight > 0, "finish without admit");
        debug_assert!(self.tenant_inflight[t] > 0, "tenant finish without admit");
        self.inflight = self.inflight.saturating_sub(1);
        self.tenant_inflight[t] = self.tenant_inflight[t].saturating_sub(1);
        self.stats.finished += 1;
        self.tenant_stats[t].finished += 1;
    }

    /// Instances currently in flight across all tenants.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Instances currently in flight for one tenant.
    pub fn tenant_inflight(&self, tenant: TenantId) -> usize {
        self.tenant_inflight[tenant.0]
    }

    /// Global counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Counter snapshot for one tenant.
    pub fn tenant_stats(&self, tenant: TenantId) -> AdmissionStats {
        self.tenant_stats[tenant.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::SimDuration;

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);

    #[test]
    fn caps_inflight_and_counts_sheds() {
        let mut a = Admission::new(AdmissionConfig {
            max_inflight: 2,
            queue_cap: 1,
        });
        assert!(a.try_admit(T0));
        assert!(a.try_admit(T0));
        assert!(!a.try_admit(T0), "third admit over the cap");
        assert_eq!(a.inflight(), 2);
        a.finish(T0);
        assert!(a.try_admit(T0), "slot freed by finish");
        let s = a.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed_arrivals, 1);
        assert_eq!(a.tenant_stats(T0), s, "single tenant mirrors globals");
    }

    #[test]
    fn queue_cap_sheds_tasks() {
        let mut a = Admission::new(AdmissionConfig {
            max_inflight: 10,
            queue_cap: 2,
        });
        assert!(a.may_queue(T0, 0));
        assert!(a.may_queue(T0, 1));
        assert!(!a.may_queue(T0, 2));
        assert_eq!(a.stats().shed_tasks, 1);
    }

    #[test]
    fn empty_limiter_sheds_nothing() {
        let a = Admission::new(AdmissionConfig::default());
        assert_eq!(a.stats(), AdmissionStats::default());
        assert_eq!(a.inflight(), 0);
    }

    fn two_tenants(cap_a: usize, queue_a: usize) -> Admission {
        Admission::with_tenants(
            AdmissionConfig::default(),
            vec![
                QosClass::new(SimDuration::from_secs(1), cap_a, queue_a, 1024.0),
                QosClass::unlimited(),
            ],
        )
    }

    #[test]
    fn tenant_cap_binds_before_global_and_isolates_the_neighbor() {
        let mut a = two_tenants(1, 8);
        assert!(a.try_admit(T0));
        assert!(!a.try_admit(T0), "tenant 0 over its own cap");
        assert!(a.try_admit(T1), "tenant 1 untouched by tenant 0's sheds");
        assert_eq!(a.tenant_stats(T0).shed_arrivals, 1);
        assert_eq!(a.tenant_stats(T1).shed_arrivals, 0);
        assert_eq!(a.tenant_inflight(T0), 1);
        assert_eq!(a.tenant_inflight(T1), 1);
        a.finish(T0);
        assert!(a.try_admit(T0), "tenant slot freed by tenant finish");
    }

    #[test]
    fn tenant_queue_cap_tightens_the_global_one() {
        let mut a = two_tenants(8, 2);
        assert!(a.may_queue(T0, 1));
        assert!(!a.may_queue(T0, 2), "tenant queue cap binds");
        assert!(
            a.may_queue(T1, 2),
            "unlimited tenant sees only the global cap"
        );
        assert_eq!(a.tenant_stats(T0).shed_tasks, 1);
        assert_eq!(a.tenant_stats(T1).shed_tasks, 0);
    }

    #[test]
    fn predictive_rejects_balance_the_arrival_ledger() {
        let mut a = two_tenants(1, 8);
        assert!(a.try_admit(T0));
        assert!(!a.try_admit(T0));
        a.predictive_reject(T0);
        let s = a.tenant_stats(T0);
        assert_eq!(s.arrivals(), 3, "admit + shed + reject all count");
        assert_eq!(s.predictive_rejects, 1);
        assert_eq!(a.stats().predictive_rejects, 1);
        assert_eq!(a.inflight(), 1, "reject never touches in-flight");
    }
}
