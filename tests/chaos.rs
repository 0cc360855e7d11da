//! Chaos / property test harness for the deterministic fault-injection
//! layer: randomized DAGs × arrival traces × fault plans × seeds, with the
//! online invariant checker riding along every run.
//!
//! Also holds the faulted golden trace (`tests/golden/ml_pipeline_faulted
//! .jsonl` — re-bless with `BLESS=1 cargo test`), the
//! strict no-op check (an all-zero fault plan must not move a single
//! byte of the fault-free trace) and differential same-seed replays.

use std::sync::{Arc, Mutex};

use aquatope::alloc::{AquatopeRm, AquatopeRmConfig, ResourceManager, SimEvaluator};
use aquatope::faas::prelude::*;
use aquatope::faas::sim::WorkflowJob;
use aquatope::faas::types::{ConfigSpace, ResourceConfig};
use aquatope::telemetry::golden::{assert_golden, assert_matches_golden};
use aquatope::telemetry::{diff_jsonl, Fanout, InvariantChecker, Recorder, SimEvent, Telemetry};
use aquatope::workflows::apps;
use proptest::prelude::*;

const WORKERS: usize = 3;
const MEM_MB: u64 = 32_768;

/// Registers three moderately sized functions shared by all random DAGs.
fn registry3() -> (FunctionRegistry, Vec<FunctionId>) {
    let mut registry = FunctionRegistry::new();
    let fns = (0..3)
        .map(|i| {
            registry.register(
                FunctionSpec::new(format!("f{i}"))
                    .with_work_ms(120.0 + 60.0 * i as f64)
                    .with_io_ms(20.0)
                    .with_mem_demand(512.0)
                    .with_cold_start(400.0, 200.0),
            )
        })
        .collect();
    (registry, fns)
}

/// Decodes one of three DAG shapes from the fuzzed selector.
fn random_dag(shape: u8, width: u32, fns: &[FunctionId]) -> WorkflowDag {
    match shape % 3 {
        0 => WorkflowDag::chain("chaos-chain", fns.to_vec()),
        1 => WorkflowDag::fan_out_in("chaos-fan", fns[0], fns[1], width, fns[2]),
        _ => WorkflowDag::new(
            "chaos-diamond",
            vec![
                Stage::new(fns[0], 1, vec![]),
                Stage::new(fns[1], 2, vec![0]),
                Stage::new(fns[2], 1, vec![0]),
                Stage::new(fns[0], 1, vec![1, 2]),
            ],
        ),
    }
}

struct ChaosCase {
    shape: u8,
    width: u32,
    arrivals: usize,
    gap_secs: u64,
    sim_seed: u64,
    plan: FaultPlan,
    retry: RetryPolicy,
}

/// Runs one randomized case with recorder + invariant checker attached and
/// returns `(trace, report, checker, arrivals_in_horizon, horizon)`.
fn run_case(case: &ChaosCase) -> (String, RunReport, Arc<Mutex<InvariantChecker>>, usize) {
    let (registry, fns) = registry3();
    let dag = random_dag(case.shape, case.width, &fns);
    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let checker = Arc::new(Mutex::new(InvariantChecker::new(WORKERS, MEM_MB as f64)));
    let tel = Telemetry::new(Arc::new(Mutex::new(Fanout::new(vec![
        rec.clone() as aquatope::telemetry::SharedSink,
        checker.clone() as aquatope::telemetry::SharedSink,
    ]))));
    let mut sim = FaasSim::builder()
        .workers(WORKERS, 24.0, MEM_MB)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(case.sim_seed)
        .faults(case.plan.clone())
        .retry_policy(case.retry.clone())
        .telemetry(tel)
        .build();
    let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=case.arrivals as u64)
        .map(|i| SimTime::from_secs(i * case.gap_secs))
        .collect();
    let horizon = *arrivals.last().unwrap() + SimDuration::from_secs(180);
    let in_horizon = arrivals.iter().filter(|t| **t <= horizon).count();
    let report = sim.run_workflow_trace(&dag, &configs, &arrivals, horizon);
    let trace = rec.lock().unwrap().to_jsonl();
    (trace, report, checker, in_horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The conservation law under arbitrary fault plans: every arrival
    /// within the horizon either completes or is counted unfinished
    /// (rejections are a subset of the latter); no latency is NaN, no
    /// resource integral goes negative, and the full event-stream
    /// invariant suite holds.
    #[test]
    fn prop_chaos_conservation(
        shape in 0u8..3,
        width in 2u32..5,
        arrivals in 1usize..12,
        gap_secs in 3u64..25,
        sim_seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        boot_fail in 0.0f64..0.35,
        crash in 0.0f64..0.30,
        straggler in 0.0f64..0.40,
        handoff in 0.0f64..0.30,
        timeout_sel in 0u8..2,
    ) {
        let with_timeout = timeout_sel == 1;
        let plan = FaultPlan::from_seed(fault_seed, FaultRates {
            boot_fail,
            crash,
            straggler,
            handoff_delay: handoff,
            ..FaultRates::default()
        });
        let retry = RetryPolicy {
            task_timeout: if with_timeout {
                Some(SimDuration::from_secs(20))
            } else {
                None
            },
            ..RetryPolicy::default()
        };
        let case = ChaosCase { shape, width, arrivals, gap_secs, sim_seed, plan, retry };
        let (trace, report, checker, in_horizon) = run_case(&case);

        prop_assert!(!trace.is_empty(), "a run must emit events");
        prop_assert_eq!(
            report.workflows.len() + report.unfinished,
            in_horizon,
            "arrivals lost: {} completed + {} unfinished for {} arrivals",
            report.workflows.len(), report.unfinished, in_horizon
        );
        prop_assert!(
            report.rejected <= report.unfinished,
            "rejected {} exceeds unfinished {}",
            report.rejected, report.unfinished
        );
        for wf in &report.workflows {
            let lat = wf.latency().as_secs_f64();
            prop_assert!(lat.is_finite() && lat >= 0.0, "workflow latency {lat}");
        }
        for inv in &report.invocations {
            let lat = inv.latency().as_secs_f64();
            prop_assert!(lat.is_finite() && lat >= 0.0, "invocation latency {lat}");
            prop_assert!(inv.cpu_seconds >= 0.0, "negative cpu {}", inv.cpu_seconds);
            prop_assert!(
                inv.memory_gb_seconds >= 0.0,
                "negative memory {}", inv.memory_gb_seconds
            );
        }
        prop_assert!(report.cpu_core_seconds >= 0.0);
        prop_assert!(report.memory_gb_seconds >= 0.0);
        prop_assert!(report.busy_memory_gb_seconds >= 0.0);

        let checker = checker.lock().unwrap();
        prop_assert!(checker.events_seen() > 0);
        prop_assert!(
            checker.is_ok(),
            "invariant violations: {:?}",
            checker.violations()
        );
    }

    /// Same workload + same fault plan + same seeds ⇒ byte-identical
    /// traces, for any fault mix.
    #[test]
    fn prop_same_seed_faulted_runs_are_byte_identical(
        shape in 0u8..3,
        sim_seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        crash in 0.0f64..0.3,
        straggler in 0.0f64..0.4,
    ) {
        let plan = FaultPlan::from_seed(fault_seed, FaultRates {
            boot_fail: 0.1,
            crash,
            straggler,
            ..FaultRates::default()
        });
        let case = ChaosCase {
            shape,
            width: 3,
            arrivals: 6,
            gap_secs: 11,
            sim_seed,
            plan,
            retry: RetryPolicy::default(),
        };
        let (a, ra, _, _) = run_case(&case);
        let (b, rb, _, _) = run_case(&case);
        prop_assert!(diff_jsonl(&a, &b).is_none(), "same-seed faulted replay diverged");
        prop_assert_eq!(ra.workflows.len(), rb.workflows.len());
        prop_assert_eq!(ra.rejected, rb.rejected);
    }
}

/// Replays the `ml_pipeline` golden-trace workload (same cluster, seed,
/// and arrivals as `telemetry_trace::trace_app`) with `plan` attached.
fn trace_ml_pipeline(plan: FaultPlan, retry: RetryPolicy) -> String {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let (tel, rec) = Telemetry::recording();
    let mut sim = FaasSim::builder()
        .workers(4, 40.0, 65_536)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(7)
        .faults(plan)
        .retry_policy(retry)
        .telemetry(tel)
        .build();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=30u64).map(|i| SimTime::from_secs(i * 7)).collect();
    sim.run_workflow_trace(&app.dag, &configs, &arrivals, SimTime::from_secs(400));
    let jsonl = rec.lock().unwrap().to_jsonl();
    jsonl
}

/// A fault plan with every probability at zero is a strict no-op: the
/// trace must be byte-identical to the checked-in fault-free golden.
#[test]
fn zero_rate_plan_reproduces_fault_free_golden() {
    // A non-zero plan seed proves the seed alone changes nothing.
    let jsonl = trace_ml_pipeline(
        FaultPlan::from_seed(987_654_321, FaultRates::default()),
        RetryPolicy::default(),
    );
    assert_matches_golden("ml_pipeline.jsonl", &jsonl);
}

/// Golden JSONL trace for a faulted `ml_pipeline` run: boot failures,
/// crashes, stragglers, and handoff delays all active, with retries and a
/// per-stage timeout.
#[test]
fn golden_trace_ml_pipeline_faulted() {
    let plan = FaultPlan::from_seed(
        42,
        FaultRates {
            boot_fail: 0.12,
            crash: 0.08,
            straggler: 0.15,
            handoff_delay: 0.10,
            ..FaultRates::default()
        },
    );
    let retry = RetryPolicy {
        task_timeout: Some(SimDuration::from_secs(25)),
        ..RetryPolicy::default()
    };
    let jsonl = trace_ml_pipeline(plan, retry);
    assert!(
        jsonl.contains("\"type\":\"fault_injected\""),
        "faulted run must actually inject faults"
    );
    assert_golden("ml_pipeline_faulted.jsonl", &jsonl);
}

/// The testkit's two-stage chain (same spec as
/// `aqua_alloc::testkit::tiny_problem`) with a fault plan attached:
/// returns `(simulator, dag, qos_secs)`.
fn tiny_faulted_problem(seed: u64, plan: FaultPlan) -> (FaasSim, WorkflowDag, f64) {
    let mut registry = FunctionRegistry::new();
    let a = registry.register(
        FunctionSpec::new("stage-a")
            .with_work_ms(300.0)
            .with_io_ms(20.0)
            .with_mem_demand(768.0)
            .with_parallelism(2.0)
            .with_cold_start(500.0, 300.0)
            .with_exec_cv(0.03),
    );
    let b = registry.register(
        FunctionSpec::new("stage-b")
            .with_work_ms(200.0)
            .with_io_ms(20.0)
            .with_mem_demand(512.0)
            .with_parallelism(2.0)
            .with_cold_start(500.0, 300.0)
            .with_exec_cv(0.03),
    );
    let dag = WorkflowDag::chain("tiny", vec![a, b]);
    let sim = FaasSim::builder()
        .workers(4, 40.0, 131_072)
        .registry(registry)
        .noise(NoiseModel::quiet())
        .seed(seed)
        .faults(plan)
        .build();
    (sim, dag, 0.8)
}

/// A straggler-corrupted profiling evaluator over the tiny problem.
fn faulted_tiny_evaluator(seed: u64, plan: FaultPlan) -> (SimEvaluator, f64) {
    let (sim, dag, qos) = tiny_faulted_problem(seed, plan);
    (
        SimEvaluator::new(sim, dag, ConfigSpace::default(), 3, true),
        qos,
    )
}

/// End-to-end anomaly-pruning benefit: profile through a simulator whose
/// fault layer injects stragglers, so a fraction of the BO's observations
/// are corrupted with heavy-tailed latency outliers. The noise-aware
/// search (diagnostic-GP anomaly pruning + margin-gated final pick) must
/// choose a configuration whose *true* (fault-free) tail latency is no
/// worse than the AquaLite ablation that trusts every sample, on the same
/// seeds.
#[test]
fn straggler_pruning_beats_ablation_on_clean_p99() {
    let plan = FaultPlan::from_seed(
        31,
        FaultRates {
            straggler: 0.15,
            straggler_factor: 3.0,
            ..FaultRates::default()
        },
    );
    let budget = 30;
    let (mut eval_pruned, qos) = faulted_tiny_evaluator(3, plan.clone());
    let (mut eval_plain, _) = faulted_tiny_evaluator(3, plan);
    let mut pruned = AquatopeRm::with_config(17, AquatopeRmConfig::default());
    let mut plain = AquatopeRm::aqualite(17);
    let best_pruned = pruned
        .optimize(&mut eval_pruned, qos, budget)
        .best
        .expect("noise-aware search must find a feasible config");
    let best_plain = plain
        .optimize(&mut eval_plain, qos, budget)
        .best
        .expect("ablation must find a feasible config");

    // Replay both picks on a fault-free simulator and compare true tails.
    let clean_p99 = |configs: &StageConfigs| {
        let (mut sim, dag, _) = tiny_faulted_problem(1, FaultPlan::disabled());
        let raw = sim.profile_config(&dag, configs, 16, true, 1.0, 1.0);
        let lats: Vec<f64> = raw.iter().map(|s| s.0).collect();
        aquatope::linalg::quantile(&lats, 0.99)
    };
    let p99_pruned = clean_p99(&best_pruned.0);
    let p99_plain = clean_p99(&best_plain.0);
    assert!(
        p99_pruned < p99_plain,
        "pruning must win on true tail latency: pruned P99 {p99_pruned:.3}s vs \
         ablation P99 {p99_plain:.3}s (QoS {qos}s)"
    );
    assert!(
        p99_pruned <= qos,
        "the pruned pick must actually meet QoS on the clean cluster: {p99_pruned:.3}s"
    );
}

/// The faulted `ml_pipeline` workload of `tests/thread_determinism.rs`
/// under the provider-default pool, with a recorder and the invariant
/// checker on the run's own sink: returns `(events, checker)`.
fn sharded_faulted_run(shards: usize) -> (Vec<SimEvent>, Arc<Mutex<InvariantChecker>>) {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let checker = Arc::new(Mutex::new(InvariantChecker::new(4, 65_536.0)));
    let tel = Telemetry::new(Arc::new(Mutex::new(Fanout::new(vec![
        rec.clone() as aquatope::telemetry::SharedSink,
        checker.clone() as aquatope::telemetry::SharedSink,
    ]))));
    let plan = FaultPlan::from_seed(
        77,
        FaultRates {
            boot_fail: 0.10,
            crash: 0.06,
            straggler: 0.12,
            handoff_delay: 0.08,
            ..FaultRates::default()
        },
    );
    let retry = RetryPolicy {
        task_timeout: Some(SimDuration::from_secs(30)),
        ..RetryPolicy::default()
    };
    let mut sim = FaasSim::builder()
        .workers(4, 40.0, 65_536)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(13)
        .faults(plan)
        .retry_policy(retry)
        .telemetry(tel)
        .shards(shards)
        .build();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=25u64).map(|i| SimTime::from_secs(i * 9)).collect();
    let job = WorkflowJob::new(app.dag.clone(), configs, arrivals);
    let mut controller = FixedPrewarm::provider_default();
    sim.run(&[job], &mut controller, SimTime::from_secs(400));
    let events = rec.lock().unwrap().events();
    (events, checker)
}

/// Every emitter of a sharded state must write to the shard's own
/// recorder, which the driver merges time-sorted into the run's sink at
/// the end. An emitter that bypasses it (retries once did) reaches the
/// sink from worker threads ahead of the faults that caused it: the
/// checker then sees retries without a prior fault and time running
/// backwards.
#[test]
fn sharded_faulted_trace_is_clean_and_time_sorted() {
    for shards in [1usize, 2, 4] {
        let (events, checker) = sharded_faulted_run(shards);
        let retries = events
            .iter()
            .filter(|e| matches!(e, SimEvent::InvocationRetried { .. }))
            .count();
        assert!(retries > 0, "shards={shards}: the plan must force retries");
        for pair in events.windows(2) {
            assert!(
                pair[0].at() <= pair[1].at(),
                "shards={shards}: trace steps back from {:?} to {:?}",
                pair[0],
                pair[1]
            );
        }
        checker.lock().unwrap().assert_ok();
    }
}

/// A faulted single-job run with recorder attached; `arrivals` may reach
/// past `horizon`.
fn counted_run(
    shape: u8,
    sim_seed: u64,
    rates: FaultRates,
    arrivals: &[SimTime],
    horizon: SimTime,
) -> (WorkflowDag, Vec<SimEvent>, RunReport) {
    let (registry, fns) = registry3();
    let dag = random_dag(shape, 3, &fns);
    let (tel, rec) = Telemetry::recording();
    // One retry only, so crashes, boot failures and timeouts exhaust it
    // often enough to reject instances.
    let retry = RetryPolicy {
        max_retries: 1,
        task_timeout: Some(SimDuration::from_secs(20)),
    };
    let mut sim = FaasSim::builder()
        .workers(WORKERS, 24.0, MEM_MB)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(sim_seed)
        .faults(FaultPlan::from_seed(sim_seed ^ 0xC0FFEE, rates))
        .retry_policy(retry)
        .telemetry(tel)
        .build();
    let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
    let report = sim.run_workflow_trace(&dag, &configs, arrivals, horizon);
    let events = rec.lock().unwrap().events();
    (dag, events, report)
}

/// What a trace says about each instance of a single-job run: how many
/// of its stages completed, and whether some dispatched stage is still
/// short of task completions.
#[derive(Default, Clone)]
struct InstanceRecount {
    stages_complete: usize,
    /// `(tasks, completions)` per dispatched stage.
    dispatched: std::collections::BTreeMap<usize, (u32, u32)>,
}

fn recount(events: &[SimEvent]) -> std::collections::BTreeMap<usize, InstanceRecount> {
    let mut out = std::collections::BTreeMap::<usize, InstanceRecount>::new();
    for e in events {
        match *e {
            SimEvent::StageDispatch {
                instance,
                stage,
                tasks,
                ..
            } => {
                out.entry(instance)
                    .or_default()
                    .dispatched
                    .entry(stage)
                    .or_default()
                    .0 = tasks
            }
            SimEvent::TaskComplete {
                instance, stage, ..
            } => {
                out.entry(instance)
                    .or_default()
                    .dispatched
                    .entry(stage)
                    .or_default()
                    .1 += 1
            }
            SimEvent::StageComplete { instance, .. } => {
                out.entry(instance).or_default().stages_complete += 1
            }
            _ => {}
        }
    }
    out
}

/// `unfinished` and `rejected` are counters kept as the run goes (arrivals
/// fired minus workflow records; a bump when an instance is first
/// rejected), not scans over per-instance state. Recount both from the
/// trace, on runs with crashes, boot failures, timeouts, exhausted
/// retries, work in flight at the horizon and arrivals beyond it.
#[test]
fn unfinished_and_rejected_match_a_recount_from_the_trace() {
    let rates = FaultRates {
        boot_fail: 0.15,
        crash: 0.20,
        straggler: 0.25,
        straggler_factor: 40.0,
        handoff_delay: 0.10,
    };
    let last = 30u64 * 4;
    // Thirty arrivals 4 s apart, then three the horizon never reaches.
    let arrivals: Vec<SimTime> = (1..=30u64)
        .map(|i| SimTime::from_secs(i * 4))
        .chain((1..=3u64).map(|i| SimTime::from_secs(100_000 + i)))
        .collect();
    let (mut rejected_total, mut in_flight_total) = (0, 0);
    for seed in 0..12u64 {
        let shape = (seed % 3) as u8;
        // Cut mid-run: the last arrivals are still in flight.
        let cut = SimTime::from_secs(last - 10);
        let (dag, events, report) = counted_run(shape, seed, rates.clone(), &arrivals, cut);
        let fired = arrivals.iter().filter(|t| **t <= cut).count();
        let seen = recount(&events);
        let complete = seen
            .values()
            .filter(|i| i.stages_complete == dag.num_stages())
            .count();
        assert_eq!(report.workflows.len(), complete, "seed {seed}");
        assert_eq!(report.unfinished, fired - complete, "seed {seed}");
        assert!(report.rejected <= report.unfinished, "seed {seed}");
        in_flight_total += report.unfinished - report.rejected;

        // Run to quiescence: every dispatched task has then completed or
        // exhausted its retries, so the rejected instances are exactly
        // those with a dispatched stage short of completions — and
        // nothing else is unfinished.
        let settle = SimTime::from_secs(last + 3_600);
        let (dag, events, report) = counted_run(shape, seed, rates.clone(), &arrivals, settle);
        let seen = recount(&events);
        let stuck = seen
            .values()
            .filter(|i| i.dispatched.values().any(|(tasks, done)| done < tasks))
            .count();
        let complete = seen
            .values()
            .filter(|i| i.stages_complete == dag.num_stages())
            .count();
        assert_eq!(
            report.unfinished, report.rejected,
            "seed {seed}: not quiescent"
        );
        assert_eq!(report.rejected, stuck, "seed {seed}");
        assert_eq!(report.workflows.len(), complete, "seed {seed}");
        assert_eq!(report.unfinished + complete, 30, "seed {seed}");
        rejected_total += report.rejected;
    }
    assert!(rejected_total > 0, "the plan must exhaust some retries");
    assert!(in_flight_total > 0, "the cut must catch work in flight");
}

/// The sequential loop recycles an instance's bookkeeping slot once its
/// workflow record is written. A recycled slot must start from zero: each
/// record's counters equal what the invocation list says about that
/// instance alone, even when faults inflate a predecessor's counters.
/// (Boot failures are off: a task waiting on a failed boot is counted as
/// scheduled without ever producing an invocation record.)
#[test]
fn recycled_slots_do_not_leak_counters_into_workflow_records() {
    let rates = FaultRates {
        crash: 0.15,
        straggler: 0.2,
        handoff_delay: 0.1,
        ..FaultRates::default()
    };
    let arrivals: Vec<SimTime> = (1..=60u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let horizon = SimTime::from_secs(60 * 5 + 600);
    for seed in 0..6u64 {
        let (_, _, report) = counted_run((seed % 3) as u8, seed, rates.clone(), &arrivals, horizon);
        assert!(report.workflows.len() > 30, "seed {seed}: most complete");
        let attempts = |w: &WorkflowRecord| w.invocations;
        let fewest = report.workflows.iter().map(attempts).min();
        let most = report.workflows.iter().map(attempts).max();
        assert!(fewest < most, "seed {seed}: retries must inflate some");
        for w in &report.workflows {
            let own: Vec<_> = report
                .invocations
                .iter()
                .filter(|r| r.workflow_instance == w.instance)
                .collect();
            assert_eq!(w.invocations as usize, own.len(), "seed {seed} {w:?}");
            let cold = own.iter().filter(|r| r.cold).count();
            assert_eq!(w.cold_starts as usize, cold, "seed {seed} {w:?}");
        }
    }
}
