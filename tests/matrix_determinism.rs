//! Thread- and shard-count independence of the scenario matrix: for every
//! shard count, the full report — cells, CIs, comparisons, sign-test
//! p-values, serialized JSON — must be byte-identical whether the cell
//! fan-out (and, for `shards >= 2`, the per-cell event loops) runs on 1,
//! 2, or 8 threads.
//!
//! Shard counts are **not** compared to each other: each count partitions
//! the cluster differently and is its own deterministic model. The
//! contract is determinism *within* a shard count, independent of
//! `AQUA_THREADS` (see `DESIGN.md`, "Sharded execution").
//!
//! One test (not a matrix of tests) because `AQUA_THREADS` is
//! process-global state: the settings must be applied sequentially, never
//! concurrently with another test's parallel region.

use aquatope::scenarios::{run_matrix, MatrixConfig, PolicyKind, ScenarioKind, ScenarioSpec};
use aquatope::telemetry::diff_jsonl;

fn small_matrix_json(shards: usize) -> String {
    let config = MatrixConfig {
        scenarios: vec![
            ScenarioSpec::new(ScenarioKind::Bursty, 15, 3.0),
            ScenarioSpec::new(ScenarioKind::Faulted, 15, 3.0),
        ],
        policies: vec![PolicyKind::Fixed, PolicyKind::Histogram, PolicyKind::Oracle],
        seeds: vec![3, 4],
        shards,
    };
    run_matrix(&config).to_json_string()
}

#[test]
fn matrix_report_is_identical_across_thread_counts_per_shard_count() {
    // The matrix cluster has 6 workers, so 4 shards still leaves at least
    // one worker per shard.
    for shards in [1usize, 2, 4] {
        let mut reports = Vec::new();
        for threads in ["1", "2", "8"] {
            // SAFETY: single-threaded at this point in the test; the env
            // var is read per par_map call, so setting it between runs is
            // safe.
            unsafe { std::env::set_var("AQUA_THREADS", threads) };
            reports.push((threads, small_matrix_json(shards)));
        }
        unsafe { std::env::remove_var("AQUA_THREADS") };
        let (_, base) = &reports[0];
        assert!(base.contains("\"cells\""), "report must contain cells");
        for (threads, report) in &reports[1..] {
            if let Some(d) = diff_jsonl(base, report) {
                panic!("shards={shards} AQUA_THREADS={threads} diverged from one thread: {d}");
            }
        }
    }
}
