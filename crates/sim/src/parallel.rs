//! Deterministic, order-preserving parallel map.
//!
//! The BO hot paths (hyperparameter grid search, acquisition scoring over
//! candidate pools) are embarrassingly parallel, but the repository's
//! golden-trace tests demand *bit-identical* replays. This helper keeps
//! that contract by construction:
//!
//! * the closure receives the item **index** and must be pure (no shared
//!   mutable state, no RNG of its own);
//! * items are split into contiguous chunks, one `std::thread::scope`
//!   worker per chunk — no work stealing, no reordering;
//! * results are collected back **in input order**, so the output is the
//!   same `Vec` a sequential `map` would produce regardless of how many
//!   threads actually ran.
//!
//! Thread count adapts to `std::thread::available_parallelism`, can be
//! pinned with the `AQUA_THREADS` environment variable (`AQUA_THREADS=1`
//! forces the sequential path), and never affects results — only wall
//! clock.

use std::sync::OnceLock;
use std::thread;

/// Number of worker threads to use for `len` items.
///
/// `AQUA_THREADS` is read on every call (tests toggle it in-process); the
/// hardware count it falls back to costs affinity and cgroup syscalls, so
/// that one is probed once per process.
fn worker_threads(len: usize) -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
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
/// for any pure `f`, bit for bit. Falls back to the sequential loop for
/// single-item inputs or single-threaded machines.
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
    let threads = worker_threads(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(threads);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                s.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(ci * chunk + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("par_map worker panicked"));
        }
    });
    chunks.into_iter().flatten().collect()
}

/// Like [`par_map`] but takes **ownership** of the items and passes them to
/// `f` by value — for fan-outs whose work items carry non-`Sync` state that
/// each worker must mutate (e.g. a per-function model with its own RNG).
///
/// Results come back in input order; the same determinism contract as
/// [`par_map`] applies (contiguous chunks, no work stealing, thread count
/// affects only wall clock, `AQUA_THREADS=1` forces the sequential path).
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
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut owned: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        owned.push(c);
    }
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(owned.len());
    thread::scope(|s| {
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                s.spawn(move || {
                    slice
                        .into_iter()
                        .enumerate()
                        .map(|(j, t)| f(ci * chunk + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("par_map_owned worker panicked"));
        }
    });
    chunks.into_iter().flatten().collect()
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
}
