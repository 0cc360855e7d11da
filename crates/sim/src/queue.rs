//! A deterministic future-event list.
//!
//! [`EventQueue`] pops events in ascending `(time, sequence)` order, where
//! the sequence number counts pushes, so events scheduled for the same
//! instant pop in insertion (FIFO) order. Determinism of the pop order is
//! what makes whole-simulation replays reproducible.
//!
//! **Order contract.** Each entry carries the packed key
//! `at << 64 | seq` (`at` in microseconds). Sequence numbers are unique,
//! so keys are unique and *any* correct priority queue over them pops the
//! same sequence; the heap's shape is an implementation detail that cannot
//! reach the pop order. The queue is a 4-ary heap: half the depth of a
//! binary heap, and a pop moves the last entry to the root and walks it
//! straight to the bottom along the smallest child of each group of four
//! (two pairwise minima and a final one, branch-free), then sifts it back
//! up — which, since the last entry is usually among the latest, stops at
//! once. The key is stored as its two halves so an entry needs no 16-byte
//! alignment (48 → 40 bytes for a 24-byte event).

use crate::time::SimTime;

/// Children per heap node.
const ARITY: usize = 4;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The packed order key `at << 64 | seq`.
    #[inline(always)]
    fn key(&self) -> u128 {
        (self.at.as_micros() as u128) << 64 | self.seq as u128
    }
}

/// A future-event list ordered by simulated time with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use aqua_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Entries in 4-ary min-heap order on [`Entry::key`].
    heap: Vec<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Like [`EventQueue::new`] but with heap space for `capacity` events
    /// reserved up front, so a loop that knows how many events it holds at
    /// once never reallocates mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current clock so that the
    /// simulation clock never moves backwards.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        let n = self.heap.len();
        if n > 1 {
            // The last entry, now at the root, goes to the bottom along the
            // smallest child of each group, then back up past larger parents.
            let mut i = 0;
            loop {
                let c = ARITY * i + 1;
                if c >= n {
                    break;
                }
                let m = {
                    let key = |j: usize| self.heap[j].key();
                    if c + ARITY <= n {
                        let a = c + usize::from(key(c + 1) < key(c));
                        let b = c + 2 + usize::from(key(c + 3) < key(c + 2));
                        if key(b) < key(a) {
                            b
                        } else {
                            a
                        }
                    } else {
                        (c + 1..n).fold(c, |m, j| if key(j) < key(m) { j } else { m })
                    }
                };
                self.heap.swap(i, m);
                i = m;
            }
            self.sift_up(i);
        }
        debug_assert!(top.at >= self.now, "event queue clock went backwards");
        self.now = top.at;
        Some((top.at, top.event))
    }

    /// Moves the entry at `i` toward the root past every larger parent.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i].key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// The current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `at` without popping, for a caller that merges
    /// this queue with another time-ordered source (an arrival cursor) and
    /// has just taken an event from that source: later pushes in the past
    /// clamp to `at`, exactly as if the event had been popped from here.
    /// The clock never moves backwards.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| at <= t),
            "clock advanced past a pending event"
        );
        self.now = self.now.max(at);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_clamps_past_pushes() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "a");
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Scheduling in the past clamps to now.
        q.push(SimTime::from_secs(1), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn advance_to_moves_the_clamp_but_never_backwards() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(9), "later");
        q.advance_to(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.push(SimTime::from_secs(1), "clamped");
        q.advance_to(SimTime::from_secs(3));
        assert_eq!(q.now(), SimTime::from_secs(5), "clock never rewinds");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "clamped")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(9), "later")));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn with_capacity_reserves_and_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        assert!(b.capacity() >= 64);
        for i in (0..50u64).rev() {
            a.push(SimTime::from_millis(i), i);
            b.push(SimTime::from_millis(i), i);
        }
        assert!(b.capacity() >= 64, "pre-sized heap must not shrink");
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert!(b.pop().is_none());
    }

    proptest! {
        /// Pop order is always non-decreasing in time, for arbitrary pushes.
        #[test]
        fn prop_pop_times_monotonic(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every pushed event is popped exactly once.
        #[test]
        fn prop_conservation(times in prop::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
