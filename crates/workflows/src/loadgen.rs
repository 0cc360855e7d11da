//! Open-loop workload assembly (the role Locust plays in the paper),
//! per-window concurrency extraction for predictor training, and the split
//! of a trace into recorded history and live traffic.

use std::collections::HashMap;

use aqua_faas::sim::WorkflowJob;
use aqua_faas::{FunctionId, RunReport, StageConfigs, WorkflowDag};
use aqua_sim::SimTime;

use crate::apps::App;

/// Builds a [`WorkflowJob`] from an app, a per-stage configuration and a
/// list of arrival times.
///
/// # Panics
///
/// Panics if `configs` does not cover every stage of the app's DAG.
pub fn make_job(app: &App, configs: StageConfigs, arrivals: Vec<SimTime>) -> WorkflowJob {
    WorkflowJob::new(app.dag.clone(), configs, arrivals)
}

/// Extracts, for each minute of the run, the peak number of simultaneously
/// executing containers of `function` — the "number of active containers
/// per window" series AQUATOPE's hybrid model predicts (§4.1).
///
/// Returns one entry per minute from 0 to `minutes`.
pub fn concurrency_series(report: &RunReport, function: FunctionId, minutes: usize) -> Vec<f64> {
    // Sweep-line over (start, +1) / (finish, −1) events, tracking the peak
    // within each minute bucket.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for inv in report.invocations.iter().filter(|r| r.function == function) {
        events.push((inv.started.as_micros(), 1));
        events.push((inv.finished.as_micros(), -1));
    }
    events.sort_unstable();
    let mut out = vec![0.0; minutes];
    let mut level: i64 = 0;
    let mut idx = 0;
    for (m, slot) in out.iter_mut().enumerate() {
        let end = ((m + 1) as u64) * 60_000_000;
        let mut peak = level;
        while idx < events.len() && events[idx].0 < end {
            level += events[idx].1;
            peak = peak.max(level);
            idx += 1;
        }
        *slot = peak as f64;
    }
    out
}

/// A workflow's arrival trace split into recorded history and live
/// traffic; see [`split_history`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySplit {
    /// Workflow arrivals per minute before the split, one entry per
    /// history minute.
    pub counts: Vec<f64>,
    /// The pre-load history of each stage, in stage order: `counts`
    /// multiplied by the stage's `tasks`.
    pub history: Vec<(FunctionId, Vec<f64>)>,
    /// The arrivals at or after the split, shifted so the split is time 0.
    pub live: Vec<SimTime>,
}

/// Splits `arrivals` (workflow arrival times of `dag`) at minute
/// `history_minutes`: arrivals before the split become per-minute history
/// the predictive pools pre-load, the rest (an arrival exactly at the
/// split included) is the measured live traffic.
///
/// The history's unit is **task invocations per minute**: each workflow
/// arrival counts `tasks` for every stage it runs. That is not the unit a
/// pool observes live, which is each window's peak concurrency.
pub fn split_history(
    dag: &WorkflowDag,
    arrivals: &[SimTime],
    history_minutes: usize,
) -> HistorySplit {
    let split = SimTime::from_secs(history_minutes as u64 * 60);
    let mut counts = vec![0.0f64; history_minutes];
    for t in arrivals.iter().filter(|t| **t < split) {
        counts[(t.as_micros() / 60_000_000) as usize] += 1.0;
    }
    let history = dag
        .stages()
        .map(|stage| {
            let series = counts.iter().map(|c| c * stage.tasks as f64).collect();
            (stage.function, series)
        })
        .collect();
    let live = arrivals
        .iter()
        .filter(|t| **t >= split)
        .map(|t| SimTime::ZERO + (*t - split))
        .collect();
    HistorySplit {
        counts,
        history,
        live,
    }
}

/// Sums, per function, the invocation counts of a report (sanity metric
/// for workload assembly).
pub fn invocations_per_function(report: &RunReport) -> HashMap<FunctionId, usize> {
    let mut map = HashMap::new();
    for inv in &report.invocations {
        *map.entry(inv.function).or_insert(0) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_faas::prelude::*;
    use aqua_faas::types::ResourceConfig;

    use crate::apps;

    #[test]
    fn job_runs_ml_pipeline_end_to_end() {
        let mut registry = FunctionRegistry::new();
        let app = apps::ml_pipeline(&mut registry);
        let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(2.0, 2048.0, 1));
        let mut sim = FaasSim::builder()
            .workers(4, 40.0, 131_072)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .seed(3)
            .build();
        let job = make_job(
            &app,
            configs,
            vec![SimTime::from_secs(5), SimTime::from_secs(200)],
        );
        let mut controller = FixedPrewarm::provider_default();
        let report = sim.run(&[job], &mut controller, SimTime::from_secs(600));
        assert_eq!(report.workflows.len(), 2);
        // 4 stages → 4 invocations per instance.
        assert_eq!(report.invocations.len(), 8);
        // Second run should be mostly warm (within keep-alive).
        let second: Vec<_> = report
            .invocations
            .iter()
            .filter(|r| r.workflow_instance == 1)
            .collect();
        assert!(
            second.iter().all(|r| !r.cold),
            "second instance should be warm"
        );
    }

    #[test]
    fn concurrency_series_tracks_overlap() {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("f")
                .with_work_ms(30_000.0) // 30 s execution
                .with_exec_cv(0.0)
                .with_cold_start(100.0, 0.0),
        );
        let dag = WorkflowDag::chain("w", vec![f]);
        let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
        let mut sim = FaasSim::builder()
            .workers(2, 16.0, 32_768)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        // Three overlapping invocations in minute 0.
        let arrivals = vec![
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            SimTime::from_secs(15),
        ];
        let report = sim.run_workflow_trace(&dag, &configs, &arrivals, SimTime::from_secs(300));
        let series = concurrency_series(&report, f, 3);
        assert_eq!(series.len(), 3);
        assert!(series[0] >= 3.0, "three concurrent in minute 0: {series:?}");
        assert_eq!(series[2], 0.0, "all done by minute 2: {series:?}");
    }

    #[test]
    fn invocation_counts_match_dag_tasks() {
        let mut registry = FunctionRegistry::new();
        let app = apps::video_processing(&mut registry);
        let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(2.0, 2048.0, 1));
        let mut sim = FaasSim::builder()
            .workers(6, 40.0, 131_072)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        let job = make_job(&app, configs, vec![SimTime::from_secs(5)]);
        let mut controller = FixedPrewarm::provider_default();
        let report = sim.run(&[job], &mut controller, SimTime::from_secs(900));
        let per_fn = invocations_per_function(&report);
        let total: usize = per_fn.values().sum();
        assert_eq!(total as u32, app.dag.total_tasks());
        // Face recognition ran its fan-out width.
        let face = app.dag.stage(2).function;
        assert_eq!(per_fn[&face] as u32, app.dag.stage(2).tasks);
    }

    #[test]
    fn qos_is_meetable_with_generous_resources() {
        let mut registry = FunctionRegistry::new();
        let app = apps::ml_pipeline(&mut registry);
        let configs = StageConfigs::uniform(&app.dag, ResourceConfig::new(4.0, 3072.0, 1));
        let mut sim = FaasSim::builder()
            .workers(6, 40.0, 131_072)
            .registry(registry)
            .noise(NoiseModel::quiet())
            .build();
        let samples = sim.profile_config(&app.dag, &configs, 5, true, 1.0, 1.0);
        let qos = app.qos.as_secs_f64();
        for (lat, _) in &samples {
            assert!(*lat <= qos, "warm latency {lat} must meet QoS {qos}");
        }
    }

    /// A two-stage chain whose second stage fans out to three tasks.
    fn fan_dag() -> WorkflowDag {
        WorkflowDag::new(
            "w",
            vec![
                Stage::new(FunctionId(0), 1, vec![]),
                Stage::new(FunctionId(1), 3, vec![0]),
            ],
        )
    }

    #[test]
    fn an_arrival_at_the_split_instant_is_live() {
        let arrivals = [SimTime::from_secs(119), SimTime::from_secs(120)];
        let split = split_history(&fan_dag(), &arrivals, 2);
        assert_eq!(split.counts, vec![0.0, 1.0]);
        assert_eq!(split.live, vec![SimTime::ZERO]);
    }

    #[test]
    fn history_has_one_count_per_minute_and_live_starts_at_zero() {
        let arrivals: Vec<SimTime> = [5, 65, 70, 300, 301]
            .into_iter()
            .map(SimTime::from_secs)
            .collect();
        let split = split_history(&fan_dag(), &arrivals, 4);
        assert_eq!(split.counts, vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(
            split.live,
            vec![SimTime::from_secs(60), SimTime::from_secs(61)]
        );
    }

    #[test]
    fn each_stage_history_is_counts_times_tasks() {
        let dag = fan_dag();
        let arrivals: Vec<SimTime> = [10, 20, 130].into_iter().map(SimTime::from_secs).collect();
        let split = split_history(&dag, &arrivals, 3);
        assert_eq!(split.history.len(), dag.num_stages());
        for (stage, (f, series)) in dag.stages().zip(&split.history) {
            assert_eq!(*f, stage.function);
            let expected: Vec<f64> = split
                .counts
                .iter()
                .map(|c| c * stage.tasks as f64)
                .collect();
            assert_eq!(*series, expected);
        }
        assert_eq!(split.history[1].1, vec![6.0, 0.0, 3.0]);
    }

    #[test]
    fn an_empty_trace_splits_into_zero_counts_and_no_live_traffic() {
        let split = split_history(&fan_dag(), &[], 3);
        assert_eq!(split.counts, vec![0.0; 3]);
        assert!(split.live.is_empty());
        let empty = split_history(&fan_dag(), &[], 0);
        assert!(empty.counts.is_empty());
        assert!(empty.history.iter().all(|(_, s)| s.is_empty()));
    }

    #[test]
    fn empty_minutes_give_zero_concurrency() {
        let report = RunReport::default();
        let series = concurrency_series(&report, FunctionId(0), 5);
        assert_eq!(series, vec![0.0; 5]);
    }
}
