//! Seed stability across worker-thread counts and shard counts: for each
//! simulator shard count, the same workload and fault plan must replay to
//! a byte-identical JSONL trace whether the parallel kernels run on 1, 2,
//! or 8 threads.
//!
//! The pool's per-function model work (its ticks run on the driver
//! thread) and, for `shards >= 2`, the per-shard event loops fan out
//! through `aqua_sim::par_map_owned`, which reads `AQUA_THREADS` per call:
//! a thread-count change may affect wall clock, never a decision. Shard
//! counts are **not** compared to each other — each count is its own
//! deterministic model (per-shard RNG and fault streams; see `DESIGN.md`,
//! "Sharded execution"). Faults are active so the fault streams, retries,
//! and kills are covered by the guarantee too.
//!
//! The live control plane's `AQUA_THREADS` ∈ {1, 2, 8} sweep lives in
//! `tests/service_trace.rs`: a two-tenant run pinned to a golden trace,
//! with no fan-out today, so it guards against one returning.

use aquatope::faas::prelude::*;
use aquatope::faas::sim::WorkflowJob;
use aquatope::faas::types::ResourceConfig;
use aquatope::faas::FaultPlan;
use aquatope::pool::{AquatopePool, AquatopePoolConfig};
use aquatope::telemetry::{diff_jsonl, Telemetry};
use aquatope::workflows::apps;

/// Runs the faulted `ml_pipeline` workload under the AQUATOPE pool (the
/// code path that actually fans work out across threads) at the given
/// simulator shard count and returns the JSONL trace.
fn faulted_pool_trace(shards: usize) -> String {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let (tel, rec) = Telemetry::recording();
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
        .telemetry(tel.clone())
        .shards(shards)
        .build();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let arrivals: Vec<SimTime> = (1..=25u64).map(|i| SimTime::from_secs(i * 9)).collect();
    let job = WorkflowJob::new(app.dag.clone(), configs, arrivals);
    let cfg = AquatopePoolConfig {
        warmup_windows: 2, // exercise the model-driven (parallel) path
        ..AquatopePoolConfig::default()
    };
    let mut pool = AquatopePool::new(cfg, &[&app.dag]).with_telemetry(tel);
    sim.run(&[job], &mut pool, SimTime::from_secs(400));
    let jsonl = rec.lock().unwrap().to_jsonl();
    jsonl
}

/// One test (not a matrix of tests) because `AQUA_THREADS` is
/// process-global state: the settings must be applied sequentially, never
/// concurrently with another test's parallel region.
#[test]
fn faulted_trace_is_identical_across_thread_counts_per_shard_count() {
    // 4 workers in the cluster, so 4 shards still leaves one worker per
    // shard.
    for shards in [1usize, 2, 4] {
        let mut traces = Vec::new();
        for threads in ["1", "2", "8"] {
            // SAFETY: single-threaded at this point in the test; the env
            // var is read per par_map call, so setting it between runs is
            // safe.
            unsafe { std::env::set_var("AQUA_THREADS", threads) };
            traces.push((threads, faulted_pool_trace(shards)));
        }
        unsafe { std::env::remove_var("AQUA_THREADS") };
        let (_, base) = &traces[0];
        assert!(!base.is_empty(), "runs must emit events");
        assert!(
            base.contains("\"type\":\"fault_injected\""),
            "fault plan must actually fire for the guarantee to mean \
             anything (shards={shards})"
        );
        for (threads, trace) in &traces[1..] {
            if let Some(d) = diff_jsonl(base, trace) {
                panic!("shards={shards} AQUA_THREADS={threads} diverged from one thread: {d}");
            }
        }
    }
}
