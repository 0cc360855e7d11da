//! Allocation budget of encoder-decoder pre-training, measured with a
//! counting global allocator (hence its own test binary): after its first
//! step `train_batched` allocates nothing. (That the workspace it reuses to
//! get there leaves the bits of a fresh one per step is a unit test of
//! `seq2seq`, where the buffers are NaN-poisoned between steps.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aqua_nn::{EncoderDecoder, Seq2SeqConfig, SeqPair};
use aqua_sim::SimRng;

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

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The pre-warm pool's default encoder-decoder (`aqua_pool`'s
/// `AquatopePoolConfig::default().hybrid`).
fn pool_default(rng: &mut SimRng) -> EncoderDecoder {
    EncoderDecoder::new(
        Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: vec![32],
            dec_hidden: vec![12],
            horizon: 2,
            dropout: 0.05,
        },
        rng,
    )
}

fn sine_pairs(n: usize, window: usize, horizon: usize) -> Vec<SeqPair> {
    let at = |i: usize| vec![(i as f64 * 0.31).sin() * 0.4 + 0.5];
    (0..n)
        .map(|s| {
            let xs = (s..s + window).map(at).collect();
            let ys = (s + window..s + window + horizon).map(at).collect();
            (xs, ys)
        })
        .collect()
}

/// One epoch and five epochs cost the same number of allocations — every
/// step after the first allocates nothing — with one example per Adam step
/// and with sixteen (40 examples: two full chunks and a ragged one of 8).
#[test]
fn train_batched_steps_allocate_nothing_after_the_first() {
    let data = sine_pairs(40, 24, 2);
    for batch in [1, 16] {
        let count = |epochs: usize| {
            let mut rng = SimRng::seed(7);
            let mut model = pool_default(&mut rng);
            allocations_of(|| {
                model.train_batched(&data, epochs, 1.5e-3, batch, &mut rng);
            })
        };
        let (one, five) = (count(1), count(5));
        assert_eq!(
            one, five,
            "batch {batch}: 1 epoch allocates {one} times, 5 epochs {five}"
        );
        assert!(one < 200, "batch {batch}: {one} allocations to set up");
    }
}
