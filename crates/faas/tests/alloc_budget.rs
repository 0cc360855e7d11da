//! Peak heap and allocator calls of a batch replay, measured with a
//! counting global allocator (hence its own test binary).
//!
//! *Memory.* A run holds its report — one record per invocation and per
//! workflow, reserved up front — and one `u32` slot per workflow instance
//! (the instance slot table). Everything else it holds scales with what
//! is in flight: the arrivals of one refill window, the live instances,
//! the event heap, the containers. So at a fixed arrival rate, a trace
//! four times as long may raise the peak by no more than its larger
//! report and slot table.
//!
//! *Allocator calls.* Every table the loop works in keeps its buffer and
//! only grows to its in-flight peak, so at a fixed arrival rate a trace
//! four times as long makes as many allocator calls as the short one:
//! none per invocation, per event or per pool tick. The controller's own
//! calls (one decision vector per tick) are counted apart.
//!
//! The arrivals are sorted per job, as every trace generator writes them:
//! an unsorted job adds one `u32` per arrival for its time-order
//! permutation, and none is built here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use aqua_faas::{
    FaasSim, FixedPrewarm, FunctionRegistry, FunctionSpec, InvocationRecord, PoolDecision,
    PoolObservation, PrewarmController, ResourceConfig, RunReport, StageConfigs, WorkflowDag,
    WorkflowJob, WorkflowRecord,
};
use aqua_sim::SimTime;

thread_local! {
    /// Bytes this thread holds (tests run on threads of their own, and
    /// the sequential simulator spawns none).
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
    /// Allocations and reallocations this thread has made.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn calls() -> usize {
    CALLS.with(Cell::get)
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

const JOBS: usize = 200;

/// `JOBS` apps — every fifth a two-stage chain, the rest single functions
/// — each receiving one workflow every 4 s, for `n` workflows in all.
fn jobs(n: usize) -> (FunctionRegistry, Vec<WorkflowJob>) {
    let mut reg = FunctionRegistry::new();
    let jobs = (0..JOBS)
        .map(|a| {
            let mut f = |s: usize| {
                let work = 20.0 + (a * 7 + s * 13) as f64 % 60.0;
                reg.register(FunctionSpec::new(format!("f{a}.{s}")).with_work_ms(work))
            };
            let functions = if a % 5 == 0 {
                vec![f(0), f(1)]
            } else {
                vec![f(0)]
            };
            let dag = WorkflowDag::chain(format!("app{a}"), functions);
            let configs = StageConfigs::uniform(&dag, ResourceConfig::default());
            let arrivals = (0..n / JOBS)
                .map(|i| SimTime::from_millis(4_000 * i as u64 + 19 * a as u64))
                .collect();
            WorkflowJob::new(dag, configs, arrivals)
        })
        .collect();
    (reg, jobs)
}

/// Bytes the report's vectors hold.
fn report_bytes(report: &RunReport) -> usize {
    report.invocations.capacity() * size_of::<InvocationRecord>()
        + report.workflows.capacity() * size_of::<WorkflowRecord>()
        + report.pool_snapshots.capacity() * size_of::<(SimTime, f64)>()
}

/// The provider default, with the allocator calls its ticks make counted
/// apart from the simulator's.
struct Counted {
    inner: FixedPrewarm,
    calls: usize,
}

impl PrewarmController for Counted {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        let before = calls();
        let decisions = self.inner.tick(obs);
        self.calls += calls() - before;
        decisions
    }
}

/// What one run of `n` workflows cost the heap.
struct Replay {
    /// Peak held beyond the report and the instance slot table, bytes.
    peak_beyond_report: usize,
    /// Allocator calls the run made, not counting the controller's.
    calls: usize,
}

fn replay(n: usize) -> Replay {
    let (registry, jobs) = jobs(n);
    let horizon = SimTime::from_secs(4 * (n / JOBS) as u64 + 60);
    let mut sim = FaasSim::builder()
        .workers(16, 32.0, 256 * 1024)
        .registry(registry)
        .seed(7)
        .build();
    let mut controller = Counted {
        inner: FixedPrewarm::provider_default(),
        calls: 0,
    };
    let before = reset_peak();
    let calls_before = calls();
    let report = sim.run(&jobs, &mut controller, horizon);
    let run_calls = calls() - calls_before;
    let peak = PEAK.with(Cell::get) - before;
    assert_eq!(report.workflows.len(), n, "every workflow completes");
    let slot_table = n * size_of::<u32>();
    Replay {
        peak_beyond_report: peak.saturating_sub(report_bytes(&report) + slot_table),
        calls: run_calls - controller.calls,
    }
}

#[test]
fn four_times_the_arrivals_make_no_more_allocator_calls() {
    let n = 50_000;
    let (small, large) = (replay(n).calls, replay(4 * n).calls);
    // A per-invocation allocation would add ≈ 3 n calls here (the loop
    // this replaced allocated a work list each time a container went from
    // idle to busy); a buffer that reaches a larger peak in the longer
    // trace adds one call per doubling.
    const SLACK: usize = 16;
    assert!(
        large <= small + SLACK,
        "{n} arrivals made {small} allocator calls, {} made {large} (slack {SLACK})",
        4 * n
    );
}

#[test]
fn four_times_the_arrivals_hold_only_a_larger_report() {
    let n = 50_000;
    let (small, large) = (
        replay(n).peak_beyond_report,
        replay(4 * n).peak_beyond_report,
    );
    // What the run holds besides its records, from in-flight state alone
    // (≈ 220 KB here); the arrival index this replaced held 16 B per
    // arrival, 0.8 MB at `n` and 3.2 MB at `4 n`.
    const SLACK: usize = 512 << 10;
    assert!(
        small <= SLACK && large <= SLACK,
        "{n} arrivals peak {small} B beyond the report, {} peak {large} B (slack {SLACK})",
        4 * n
    );
    assert!(
        large <= small + (64 << 10),
        "the peak beyond the report grew from {small} B to {large} B with the trace"
    );
}
