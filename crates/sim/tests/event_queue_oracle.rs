//! `EventQueue` against the queue it replaced: a `std` binary heap of
//! entries ordered on `(at, seq)`, kept here as the oracle. Any priority
//! queue over unique `(at, seq)` keys pops the same sequence, so the two
//! must agree on every pop, peek, length and clock reading under heavy
//! ties, interleaved pushes and pops, pushes into the past (clamped to the
//! clock) and `advance_to`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use aqua_sim::{EventQueue, SimTime};
use proptest::prelude::*;

struct Entry {
    at: SimTime,
    seq: u64,
    event: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The binary-heap future-event list, with its clamp and clock.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    now: SimTime,
}

impl Oracle {
    fn push(&mut self, at: SimTime, event: u32) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + offset − 3` ms: a few distinct instants, so ties are
    /// heavy, and offsets below 3 land in the past and clamp.
    Push(u64),
    Pop,
    /// Advance the clock by up to this many ms, never past the next event.
    Advance(u64),
}

/// Pushes, pops and advances in the ratio 4 : 3 : 1.
fn op() -> impl Strategy<Value = Op> {
    (0u64..8 * 12).prop_map(|v| match v % 8 {
        0..=3 => Op::Push(v / 8),
        4..=6 => Op::Pop,
        _ => Op::Advance(v / 8 % 6),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_exactly_like_the_binary_heap(ops in prop::collection::vec(op(), 0..400)) {
        let mut q = EventQueue::new();
        let mut oracle = Oracle::default();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push(offset) => {
                    let at = SimTime::from_millis((q.now().as_micros() / 1000 + offset).saturating_sub(3));
                    q.push(at, i as u32);
                    oracle.push(at, i as u32);
                }
                Op::Pop => prop_assert_eq!(q.pop(), oracle.pop()),
                Op::Advance(ms) => {
                    let mut at = SimTime::from_micros(q.now().as_micros() + ms * 1000);
                    if let Some(next) = oracle.peek_time() {
                        at = at.min(next);
                    }
                    q.advance_to(at);
                    oracle.advance_to(at);
                }
            }
            prop_assert_eq!(q.peek_time(), oracle.peek_time());
            prop_assert_eq!(q.len(), oracle.heap.len());
            prop_assert_eq!(q.now(), oracle.now);
        }
        while let Some(want) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }

    /// Deep queues: every group of four is full on most levels, so the
    /// branch-free path of a pop runs, not just the partial-group scan.
    #[test]
    fn deep_queues_drain_in_oracle_order(times in prop::collection::vec(0u64..50, 1..3000)) {
        let mut q = EventQueue::with_capacity(times.len());
        let mut oracle = Oracle::default();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(*t), i as u32);
            oracle.push(SimTime::from_millis(*t), i as u32);
        }
        // Pop half, re-push each popped event a little later, drain.
        for _ in 0..times.len() / 2 {
            let (at, e) = oracle.pop().expect("non-empty");
            prop_assert_eq!(q.pop(), Some((at, e)));
            let later = SimTime::from_micros(at.as_micros() + u64::from(e % 7) * 1000);
            q.push(later, e);
            oracle.push(later, e);
        }
        while let Some(want) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.is_empty());
    }
}
