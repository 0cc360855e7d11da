//! Per-invocation and per-workflow records plus run-level summaries.

use aqua_sim::{SimDuration, SimTime};

use crate::types::FunctionId;

/// Outcome of one function invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Function invoked.
    pub function: FunctionId,
    /// Workflow instance this task belonged to.
    pub workflow_instance: usize,
    /// Stage index within the workflow (`u32` keeps the record at 64
    /// bytes: a trace replay holds one per invocation).
    pub stage: u32,
    /// When the task became runnable (dependencies satisfied).
    pub requested: SimTime,
    /// When execution actually began (after any cold start / queueing).
    pub started: SimTime,
    /// When execution finished.
    pub finished: SimTime,
    /// Whether the invocation paid a cold start.
    pub cold: bool,
    /// CPU·seconds billed to this invocation.
    pub cpu_seconds: f64,
    /// GB·seconds billed to this invocation.
    pub memory_gb_seconds: f64,
}

impl InvocationRecord {
    /// Total latency the workflow observed for this task.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.requested)
    }
}

/// Outcome of one workflow instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRecord {
    /// Index of the instance in arrival order.
    pub instance: usize,
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time of the final stage.
    pub finished: SimTime,
    /// Number of cold-started invocations inside this instance.
    pub cold_starts: u32,
    /// Total invocations inside this instance.
    pub invocations: u32,
}

impl WorkflowRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.arrived)
    }
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Every invocation, in completion order.
    pub invocations: Vec<InvocationRecord>,
    /// Every completed workflow instance.
    pub workflows: Vec<WorkflowRecord>,
    /// Busy CPU integral over the cluster, core·s.
    pub cpu_core_seconds: f64,
    /// Provisioned (reserved) memory integral, GB·s — the paper's
    /// "provisioned memory time" (Fig. 9b).
    pub memory_gb_seconds: f64,
    /// Memory-time attributed to executing slots only, GB·s.
    pub busy_memory_gb_seconds: f64,
    /// Workflow instances that never finished within the horizon.
    pub unfinished: usize,
    /// Workflow instances abandoned because a task exhausted its retries
    /// under injected faults. Always a subset of `unfinished`.
    pub rejected: usize,
    /// Reserved (provisioned) memory in MiB sampled at every pool tick —
    /// the Fig. 11 time series.
    pub pool_snapshots: Vec<(SimTime, f64)>,
    /// Discrete events processed by the run's event loop(s) — what
    /// `aqua-benchmark` reports as `faas.events` and divides wall time by
    /// for `faas.ns_per_event`.
    pub events_processed: u64,
}

impl RunReport {
    /// Fraction of invocations that were cold starts.
    pub fn cold_start_rate(&self) -> f64 {
        if self.invocations.is_empty() {
            return 0.0;
        }
        self.invocations.iter().filter(|r| r.cold).count() as f64 / self.invocations.len() as f64
    }

    /// Mean end-to-end workflow latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.workflows.is_empty() {
            return 0.0;
        }
        self.workflows
            .iter()
            .map(|w| w.latency().as_secs_f64())
            .sum::<f64>()
            / self.workflows.len() as f64
    }

    /// Sum of per-invocation billed cost under a linear price model
    /// (`price_cpu` per core·s + `price_mem` per GB·s), the paper's §5.1
    /// cost function.
    pub fn execution_cost(&self, price_cpu: f64, price_mem: f64) -> f64 {
        self.invocations
            .iter()
            .map(|r| r.cpu_seconds * price_cpu + r.memory_gb_seconds * price_mem)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cold: bool, req: u64, start: u64, fin: u64) -> InvocationRecord {
        InvocationRecord {
            function: FunctionId(0),
            workflow_instance: 0,
            stage: 0,
            requested: SimTime::from_millis(req),
            started: SimTime::from_millis(start),
            finished: SimTime::from_millis(fin),
            cold,
            cpu_seconds: 1.0,
            memory_gb_seconds: 0.5,
        }
    }

    #[test]
    fn invocation_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<InvocationRecord>(), 64);
    }

    #[test]
    fn latency_and_startup_delay() {
        let r = record(true, 100, 700, 900);
        assert_eq!(r.latency(), SimDuration::from_millis(800));
    }

    #[test]
    fn cold_start_rate() {
        let report = RunReport {
            invocations: vec![
                record(true, 0, 0, 1),
                record(false, 0, 0, 1),
                record(false, 0, 0, 1),
                record(true, 0, 0, 1),
            ],
            ..Default::default()
        };
        assert_eq!(report.cold_start_rate(), 0.5);
    }

    #[test]
    fn execution_cost_is_linear() {
        let report = RunReport {
            invocations: vec![record(false, 0, 0, 1), record(false, 0, 0, 1)],
            ..Default::default()
        };
        let cost = report.execution_cost(2.0, 4.0);
        assert!((cost - (2.0 * 2.0 + 2.0 * 0.5 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = RunReport::default();
        assert_eq!(report.cold_start_rate(), 0.0);
        assert_eq!(report.mean_latency_secs(), 0.0);
    }
}
