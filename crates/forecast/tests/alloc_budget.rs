//! Allocation budget of one `HybridBayesian::fit` at the pre-warm pool's
//! default model, measured with a counting global allocator (hence its own
//! test binary). `aqua-nn`'s `alloc_budget` test shows that pre-training
//! allocates nothing per step; this one bounds what is left around it —
//! the example set, the stage-2 inputs and the prediction network's
//! mini-batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aqua_forecast::{HybridBayesian, HybridConfig, Predictor, SeriesPoint, TriggerKind};

thread_local! {
    /// Allocations made by this thread.
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

#[test]
fn pool_default_fit_stays_within_its_allocation_budget() {
    let series: Vec<SeriesPoint> = (0..720)
        .map(|t| {
            let v = 6 + (t * 7) % 13 + 2 * (t % 5);
            SeriesPoint::new(v as f64, t as u64, TriggerKind::Http)
        })
        .collect();
    let mut model = HybridBayesian::new(HybridConfig {
        window: 24,
        horizon: 2,
        enc_hidden: vec![32],
        dec_hidden: vec![12],
        mlp_hidden: vec![48, 24],
        dropout: 0.05,
        // Pre-training steps allocate nothing, so the count does not depend
        // on their number: an unoptimized build runs one epoch of the
        // pool's six to stay quick.
        pretrain_epochs: if cfg!(debug_assertions) { 1 } else { 6 },
        train_epochs: 14,
        mc_passes: 25,
        seed: 0xA00A,
    });
    let before = ALLOCATIONS.with(Cell::get);
    model.fit(&series);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    // 1 846 844 before the training step kept a workspace.
    assert!(
        allocations < 50_000,
        "a pool-default fit on 720 windows allocated {allocations} times"
    );
    println!("pool-default fit: {allocations} allocations");
}
