//! Multi-tenant vocabulary: tenant identities and per-tenant QoS classes.
//!
//! A *tenant* is an isolation domain sharing one control plane: it owns a
//! subset of the workload's jobs (and, transitively, the functions those
//! jobs pin), an admission budget, and a guaranteed slice of the warm
//! pool's memory. The scenario generators and the live service share this
//! vocabulary so a "noisy neighbor" means the same thing whether a cell
//! runs in the batch simulator or against the live control plane.

use aqua_sim::SimDuration;

/// Index of a tenant sharing the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub usize);

/// A tenant's QoS class: the latency promise the plane makes to it and
/// the resource budget that promise is backed by.
#[derive(Debug, Clone, PartialEq)]
pub struct QosClass {
    /// End-to-end workflow latency SLO (`None` = best-effort tier: the
    /// plane never counts a QoS miss and never predictively rejects).
    pub latency_slo: Option<SimDuration>,
    /// Maximum workflow instances this tenant may have in flight; beyond
    /// it the tenant's own arrivals are shed without touching the others.
    pub max_inflight: usize,
    /// Maximum waiting tasks in any function queue owned by this tenant.
    pub queue_cap: usize,
    /// Warm-pool memory guaranteed to this tenant, MiB. The pool will
    /// always let the tenant reserve up to this much; anything beyond is
    /// borrowed work-conservingly from global slack (and only for demand
    /// boots, never pre-warm).
    pub memory_share_mb: f64,
}

impl QosClass {
    /// The unconstrained class: no SLO, no caps, no guaranteed share.
    /// A plane whose every tenant is unlimited behaves bit-identically to
    /// a single-tenant plane bounded only by the global admission config.
    pub fn unlimited() -> Self {
        QosClass {
            latency_slo: None,
            max_inflight: usize::MAX,
            queue_cap: usize::MAX,
            memory_share_mb: 0.0,
        }
    }

    /// A class with an SLO and explicit budgets.
    pub fn new(
        latency_slo: SimDuration,
        max_inflight: usize,
        queue_cap: usize,
        memory_share_mb: f64,
    ) -> Self {
        QosClass {
            latency_slo: Some(latency_slo),
            max_inflight,
            queue_cap,
            memory_share_mb,
        }
    }

    /// The SLO in seconds, `+inf` for best-effort tenants.
    pub fn slo_secs(&self) -> f64 {
        self.latency_slo
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::INFINITY)
    }
}

/// A full tenancy description for one control-plane run: the QoS classes
/// and which tenant each job belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPlan {
    /// One class per tenant; `TenantId(i)` indexes this list.
    pub classes: Vec<QosClass>,
    /// Tenant of each job, parallel to the plane's job list.
    pub job_tenants: Vec<TenantId>,
}

impl TenantPlan {
    /// The default single-tenant plan: every job belongs to one
    /// unlimited tenant, which reproduces the untenanted plane exactly.
    pub fn single(jobs: usize) -> Self {
        TenantPlan {
            classes: vec![QosClass::unlimited()],
            job_tenants: vec![TenantId(0); jobs],
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.classes.len()
    }

    /// Validates internal consistency (every job's tenant exists).
    ///
    /// # Panics
    ///
    /// Panics when a job references a tenant with no class.
    pub fn validate(&self) {
        for t in &self.job_tenants {
            assert!(
                t.0 < self.classes.len(),
                "job assigned to unknown tenant {}",
                t.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_class_never_binds() {
        let c = QosClass::unlimited();
        assert_eq!(c.max_inflight, usize::MAX);
        assert_eq!(c.queue_cap, usize::MAX);
        assert_eq!(c.memory_share_mb, 0.0);
        assert!(c.latency_slo.is_none());
        assert!(c.slo_secs().is_infinite());
    }

    #[test]
    fn single_plan_covers_every_job() {
        let p = TenantPlan::single(5);
        assert_eq!(p.tenants(), 1);
        assert_eq!(p.job_tenants, vec![TenantId(0); 5]);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn validate_rejects_dangling_tenant() {
        let p = TenantPlan {
            classes: vec![QosClass::unlimited()],
            job_tenants: vec![TenantId(1)],
        };
        p.validate();
    }

    #[test]
    fn explicit_class_carries_its_slo() {
        let c = QosClass::new(SimDuration::from_millis(1500), 64, 32, 4096.0);
        assert_eq!(c.slo_secs(), 1.5);
        assert_eq!(c.max_inflight, 64);
    }
}
