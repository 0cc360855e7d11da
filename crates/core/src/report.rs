//! End-to-end run reports.

use aqua_faas::RunReport;

/// Aggregate outcome of an end-to-end run (the Fig. 18 metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndReport {
    /// Fraction of workflow instances that violated their QoS.
    pub qos_violation_rate: f64,
    /// Fraction of invocations that were cold starts.
    pub cold_start_rate: f64,
    /// Busy CPU time over the run, core·s.
    pub cpu_core_seconds: f64,
    /// Provisioned memory time over the run, GB·s.
    pub memory_gb_seconds: f64,
    /// Total billed execution cost (linear price model).
    pub execution_cost: f64,
    /// Completed workflow instances.
    pub completed: usize,
    /// Instances that never finished within the horizon.
    pub unfinished: usize,
    /// The raw per-invocation / per-workflow records.
    pub raw: RunReport,
}

impl EndToEndReport {
    /// Builds the aggregate view from a raw run report and per-instance
    /// QoS outcomes already folded into `qos_violation_rate`.
    pub fn from_run(
        raw: RunReport,
        qos_violation_rate: f64,
        price_cpu: f64,
        price_mem: f64,
    ) -> Self {
        EndToEndReport {
            qos_violation_rate,
            cold_start_rate: raw.cold_start_rate(),
            cpu_core_seconds: raw.cpu_core_seconds,
            memory_gb_seconds: raw.memory_gb_seconds,
            execution_cost: raw.execution_cost(price_cpu, price_mem),
            completed: raw.workflows.len(),
            unfinished: raw.unfinished,
            raw,
        }
    }
}

impl std::fmt::Display for EndToEndReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QoS violations {:5.1}% | cold starts {:5.1}% | CPU {:9.1} core·s | mem {:9.1} GB·s | {} done / {} unfinished",
            self.qos_violation_rate * 100.0,
            self.cold_start_rate * 100.0,
            self.cpu_core_seconds,
            self.memory_gb_seconds,
            self.completed,
            self.unfinished,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_run_copies_metrics() {
        let raw = RunReport {
            cpu_core_seconds: 12.0,
            memory_gb_seconds: 7.0,
            ..Default::default()
        };
        let r = EndToEndReport::from_run(raw, 0.25, 1.0, 1.0);
        assert_eq!(r.qos_violation_rate, 0.25);
        assert_eq!(r.cpu_core_seconds, 12.0);
        assert_eq!(r.memory_gb_seconds, 7.0);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn display_is_humane() {
        let r = EndToEndReport::from_run(RunReport::default(), 0.031, 1.0, 1.0);
        let s = r.to_string();
        assert!(s.contains("3.1%"), "{s}");
    }
}
