//! Allocation budget of the control plane's request path, measured with a
//! counting global allocator (hence its own test binary): a plane that
//! serves five times the workflows at the same arrival rate allocates no
//! more than `O(log N)` times more, the `Vec` growth of its latency record
//! and queues. Admission, dispatch, warm hits, completions and the event
//! queue reuse their storage, so a workflow in steady state costs no
//! allocation.
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
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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

/// Allocations of one `run` serving `n` workflows.
fn run_allocations(n: usize) -> u64 {
    let (reg, jobs) = jobs(n);
    let cfg = ServiceConfig {
        model_sample_every: u64::MAX,
        run_for: SimDuration::from_millis(100 * n as u64 + 5_000),
        ..ServiceConfig::default()
    };
    let plane = ControlPlane::new(reg, jobs, Box::new(Idle), &FaultPlan::disabled(), cfg);
    let before = ALLOCATIONS.with(Cell::get);
    let report = plane.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(report.completed, n as u64, "every workflow completes");
    assert_eq!(report.rejected_workflows, 0);
    assert!(report.pool.warm_hits > 0);
    allocations
}

#[test]
fn five_times_the_workflows_cost_only_vec_growth() {
    let n = 2_000;
    let (small, large) = (run_allocations(n), run_allocations(5 * n));
    let slack = 4 * (5 * n).ilog2() as u64;
    assert!(
        large <= small + slack,
        "{n} workflows allocate {small} times, {} allocate {large} (slack {slack})",
        5 * n
    );
}
