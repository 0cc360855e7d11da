//! Heap budget of the online latency model, measured with a counting
//! global allocator (hence its own test binary).
//!
//! An app on the exact tier holds its training window once, inside its
//! GP: the `n × d` inputs, the `n` raw targets, the `n` weights `alpha`
//! and one packed lower-triangular Cholesky factor of `n(n+1)/2` floats.
//! With the plane's `d = 4` (three resource coordinates and time) that is
//! `n(n+1)/2 + 6n` floats. Nothing else the model keeps grows with `n`:
//! no pairwise-distance matrix, no square factor, no second copy of the
//! observations.
//!
//! The counters are process-wide, not per thread: the hyperparameter grid
//! search factors its candidates on worker threads, and the model keeps
//! the winning factor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use aqua_alloc::{OnlineLatencyModel, SurrogateTier};

/// Bytes the process holds.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is an atomic byte counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Floats per training point beyond the factor: four input coordinates,
/// the raw target and the weight.
const PER_POINT: usize = 6;

/// Bytes that do not grow with the window: the app map's table (buckets
/// for a few per-app records, ≈ 1.7 KiB), the two copies of the
/// hyperparameter grids (the model's and its GP's) and the pending-app
/// list: ≈ 1.9 KiB on x86-64, so half the slack is headroom.
const SLACK: usize = 4096;

#[test]
fn exact_tier_holds_one_packed_factor_and_one_copy_of_its_window() {
    let before = LIVE.load(Ordering::Relaxed);
    let mut model = OnlineLatencyModel::service_default();
    let mut i = 0;
    // One observation and one refit at a time, as a busy app's refit
    // ticks see them, until the window has compacted once (65 → 32
    // points) and filled again to 64.
    while !(model.stats().compactions == 1 && model.model_size(0) == 64) {
        assert!(i < 1000, "window never refilled: {:?}", model.stats());
        let v = (i as f64 * 0.618_033_988_75).fract();
        let at = i as f64 * 10.0;
        model.observe(
            0,
            &[v, 1.0 - v, 0.5],
            at,
            1.0 + v + (at / 600.0).sin() * 0.1,
        );
        model.refit(0);
        i += 1;
    }
    assert_eq!(model.tier(0), Some(SurrogateTier::Exact));
    assert_eq!(model.stats().rejected, 0);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let n = model.model_size(0);
    let budget = 8 * (n * (n + 1) / 2 + PER_POINT * n) + SLACK;
    assert!(
        held <= budget,
        "the model holds {held} B at n = {n}; budget {budget} B"
    );
    drop(model);
}
