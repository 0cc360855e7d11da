//! Heap budget of the control plane's request path, measured with a
//! counting global allocator (hence its own test binary).
//!
//! *Allocator calls.* A plane that serves five times the workflows at the
//! same arrival rate allocates no more than `O(log N)` times more, the
//! `Vec` growth of its queues and in-flight tables. Admission, dispatch,
//! warm hits, completions and the event queue reuse their storage, so a
//! workflow in steady state costs no allocation.
//!
//! *Memory.* Nothing the run allocates scales with the trace: each
//! completion's latency goes into an arrival slot its job has already
//! read, and everything else the run holds scales with what is in flight.
//! So at a fixed arrival rate four times the workflows peak at the same
//! heap, up to a fixed slack.
//!
//! The policy decides nothing and the latency model observes nothing, so
//! the periodic ticks — whose count grows with the run's length, not with
//! its workflows — allocate nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aqua_faas::{
    FaultPlan, FunctionRegistry, FunctionSpec, PoolDecision, PoolObservation, PrewarmController,
    ResourceConfig, Stage, StageConfigs, WorkflowDag, WorkflowJob,
};
use aqua_service::{ControlPlane, ServiceConfig};
use aqua_sim::{SimDuration, SimTime};

thread_local! {
    /// Allocations and reallocations this thread has made (tests run on
    /// threads of their own, and the plane spawns none).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(by: usize) {
    CALLS.with(|calls| calls.set(calls.get() + 1));
    LIVE.with(|live| {
        live.set(live.get() + by);
        PEAK.with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(by: usize) {
    // A block freed on another thread than the one that allocated it is
    // not this test's to count; saturate rather than wrap.
    LIVE.with(|live| live.set(live.get().saturating_sub(by)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is thread-local counters without destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the allocate-copy-free it may be: both blocks live.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the peak at what is live now and returns that level.
fn reset_peak() -> usize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// A policy that never asks for pre-warm capacity.
struct Idle;

impl PrewarmController for Idle {
    fn tick(&mut self, _obs: &PoolObservation) -> Vec<PoolDecision> {
        Vec::new()
    }
}

/// Four apps — a single function, a two-stage chain, and two fan-outs of
/// three and five tasks — each receiving one workflow every 400 ms, for
/// `n` workflows in all.
fn jobs(n: usize) -> (FunctionRegistry, Vec<WorkflowJob>) {
    let mut reg = FunctionRegistry::new();
    let mut f = |name: &str, ms: f64| reg.register(FunctionSpec::new(name).with_work_ms(ms));
    let dags = [
        WorkflowDag::chain("single", vec![f("s0", 30.0)]),
        WorkflowDag::chain("chain", vec![f("c0", 20.0), f("c1", 45.0)]),
        WorkflowDag::fan_out_in("fan3", f("a0", 10.0), f("a1", 60.0), 3, f("a2", 15.0)),
        WorkflowDag::new(
            "fan5",
            vec![
                Stage::new(f("b0", 25.0), 5, vec![]),
                Stage::new(f("b1", 35.0), 1, vec![0]),
            ],
        ),
    ];
    let jobs = dags
        .into_iter()
        .enumerate()
        .map(|(a, dag)| {
            let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
            let arrivals = (0..n / 4)
                .map(|i| SimTime::from_millis(400 * i as u64 + 97 * a as u64))
                .collect();
            WorkflowJob {
                dag,
                configs,
                arrivals,
            }
        })
        .collect();
    (reg, jobs)
}

/// What one `run` serving `n` workflows cost the heap.
struct Run {
    /// Allocator calls the run made.
    calls: u64,
    /// Peak heap above the level the run started at, bytes.
    peak: usize,
}

fn run(n: usize) -> Run {
    let (reg, jobs) = jobs(n);
    let cfg = ServiceConfig {
        model_sample_every: u64::MAX,
        run_for: SimDuration::from_millis(100 * n as u64 + 5_000),
        ..ServiceConfig::default()
    };
    let plane = ControlPlane::new(reg, jobs, Box::new(Idle), &FaultPlan::disabled(), cfg);
    let calls = CALLS.with(Cell::get);
    let before = reset_peak();
    let report = plane.run();
    let run = Run {
        calls: CALLS.with(Cell::get) - calls,
        peak: PEAK.with(Cell::get) - before,
    };
    assert_eq!(report.completed, n as u64, "every workflow completes");
    assert_eq!(report.rejected_workflows, 0);
    assert!(report.pool.warm_hits > 0);
    run
}

#[test]
fn five_times_the_workflows_cost_only_vec_growth() {
    let n = 2_000;
    let (small, large) = (run(n).calls, run(5 * n).calls);
    let slack = 4 * (5 * n).ilog2() as u64;
    assert!(
        large <= small + slack,
        "{n} workflows allocate {small} times, {} allocate {large} (slack {slack})",
        5 * n
    );
}

#[test]
fn four_times_the_workflows_peak_within_16_kib_of_one() {
    let n = 4_000;
    let (small, large) = (run(n).peak, run(4 * n).peak);
    // In-flight state (≈ 8 KB at `n`) reaches the same peak at the same
    // arrival rate; the slack absorbs a queue that happens to double once
    // more. A buffer of one `f64` per offered arrival would add 96 KB.
    const SLACK: usize = 16 << 10;
    assert!(
        large <= small + SLACK,
        "{n} workflows peak at {small} B, {} at {large} B: {} B more (slack {SLACK})",
        4 * n,
        large.saturating_sub(small)
    );
}
