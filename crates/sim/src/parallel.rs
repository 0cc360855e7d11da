//! Deterministic, order-preserving parallel map: the one place the
//! workspace spawns threads.
//!
//! Its fan-outs are whole runs or whole models: the scenario matrix's
//! cells, the AQUATOPE pool's per-function model work, the sharded
//! simulator's shards and the benchmark's forecaster drill. Golden-trace
//! tests demand *bit-identical* replays, and this helper keeps that
//! contract by construction:
//!
//! * the closure receives the item **index** and must be pure (no shared
//!   mutable state, no RNG of its own);
//! * items are split into contiguous chunks, one `std::thread::scope`
//!   worker per chunk — no work stealing, no reordering;
//! * results come back **in input order**, the `Vec` a sequential `map`
//!   would produce whatever the thread count;
//! * a fan-out inside a fan-out runs inline: a call on a worker thread
//!   maps sequentially on that worker, so threads are spawned at one
//!   level only.
//!
//! Thread count adapts to `std::thread::available_parallelism`, can be
//! pinned with the `AQUA_THREADS` environment variable (`AQUA_THREADS=1`
//! forces the sequential path), and never affects results — only wall
//! clock.

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

thread_local! {
    /// Set for the life of a worker thread.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads to use for `len` items; 1 on a worker thread.
///
/// `AQUA_THREADS` is read on every call (tests toggle it in-process); the
/// hardware count it falls back to costs affinity and cgroup syscalls, so
/// that one is probed once per process.
fn worker_threads(len: usize) -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.get() {
        return 1;
    }
    let cap = std::env::var("AQUA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *HARDWARE.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
        });
    cap.min(len).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`
/// for any pure `f`, bit for bit. Runs [`par_map_owned`] over the item
/// references, so it falls back to the sequential loop in the same cases.
///
/// # Panics
///
/// Propagates a panic from `f`.
///
/// # Examples
///
/// ```
/// use aqua_sim::par_map;
///
/// let squares = par_map(&[1, 2, 3, 4], |i, x| (i, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_owned(items.iter().collect(), f)
}

/// Like [`par_map`] but takes **ownership** of the items and passes them to
/// `f` by value — for fan-outs whose work items carry non-`Sync` state that
/// each worker must mutate (e.g. a per-function model with its own RNG).
///
/// Results come back in input order; the same determinism contract as
/// [`par_map`] applies (contiguous chunks, no work stealing, thread count
/// affects only wall clock). Runs sequentially for fewer than two items,
/// under `AQUA_THREADS=1`, on a single-core host and on a worker thread of
/// another fan-out.
///
/// # Panics
///
/// Propagates a panic from `f`.
///
/// # Examples
///
/// ```
/// use aqua_sim::par_map_owned;
///
/// let items = vec![String::from("a"), String::from("bb")];
/// let lens = par_map_owned(items, |i, s| (i, s.len()));
/// assert_eq!(lens, vec![(0, 1), (1, 2)]);
/// ```
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = worker_threads(items.len());
    let chunk = items.len().div_ceil(threads);
    let run = |ci: usize, slice: Vec<T>| -> Vec<R> {
        slice
            .into_iter()
            .enumerate()
            .map(|(j, t)| f(ci * chunk + j, t))
            .collect()
    };
    if threads <= 1 {
        return run(0, items);
    }
    let workers = items.len().div_ceil(chunk);
    let mut rest = items.into_iter();
    thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|ci| {
                let slice: Vec<T> = rest.by_ref().take(chunk).collect();
                s.spawn(move || {
                    IN_WORKER.set(true);
                    run(ci, slice)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..103).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 + x * 3)
            .collect();
        assert_eq!(par_map(&items, |i, x| i as u64 + x * 3), seq);
    }

    #[test]
    fn preserves_order_for_uneven_chunks() {
        // Lengths that don't divide evenly across typical core counts.
        for len in [1usize, 2, 5, 7, 17, 33, 100] {
            let items: Vec<usize> = (0..len).collect();
            let out = par_map(&items, |i, _| i);
            assert_eq!(out, items, "len {len}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(&[] as &[i32], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let out = par_map(&items, |i, x| (i, *x));
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, i as f64);
        }
    }

    #[test]
    fn owned_map_preserves_order_and_moves_items() {
        for len in [0usize, 1, 2, 5, 7, 17, 33, 100] {
            let items: Vec<Vec<usize>> = (0..len).map(|i| vec![i]).collect();
            let out = par_map_owned(items, |i, mut v| {
                v.push(i);
                v
            });
            let expected: Vec<Vec<usize>> = (0..len).map(|i| vec![i, i]).collect();
            assert_eq!(out, expected, "len {len}");
        }
    }

    #[test]
    fn nested_fan_out_runs_on_the_worker_thread() {
        // Whether every item of a nested map ran on the calling thread.
        let inline = |_: usize, _: &usize| {
            let me = thread::current().id();
            par_map(&[0; 16], |_, _| thread::current().id())
                .iter()
                .all(|&id| id == me)
        };
        let outer: Vec<usize> = (0..4).collect();
        assert!(par_map(&outer, inline).into_iter().all(|ok| ok));
        assert!(par_map_owned(outer, |i, t| inline(i, &t))
            .into_iter()
            .all(|ok| ok));
    }
}
