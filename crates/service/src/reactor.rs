//! A hand-rolled, deterministic-when-seeded reactor.
//!
//! No tokio, no OS timers: the reactor is a virtual-clock timer wheel
//! over the simulation engine's [`EventQueue`] — the same future-event
//! list (time order, FIFO on ties) that makes whole-simulation replays
//! reproducible. The control plane runs as an ordinary event loop:
//!
//! ```text
//! while let Some((t, ev)) = reactor.next() { service.handle(t, ev) }
//! ```
//!
//! Determinism comes from three properties: the pop order is a pure
//! function of the pushed `(time, insertion-order)` pairs, all stochastic
//! sampling happens through seeded [`aqua_sim::SimRng`] streams owned by
//! the components, and wall-clock time is only ever *measured* (for
//! throughput metrics) — never consulted for control flow. The existing
//! `par_map`/`AQUA_THREADS` contract remains the sole concurrency
//! substrate elsewhere in the workspace; the reactor itself is
//! single-threaded by design, which is what makes shutdown draining and
//! replay proofs tractable.

use aqua_sim::{EventQueue, SimDuration, SimTime};

/// A virtual-clock event loop driver.
#[derive(Debug, Default)]
pub struct Reactor<E> {
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Reactor<E> {
    /// An empty reactor with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Reactor {
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Pre-sizes the heap for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        Reactor {
            queue: EventQueue::with_capacity(capacity),
            processed: 0,
        }
    }

    /// The current virtual time (timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to `now`
    /// so the clock never runs backwards).
    pub fn at(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Schedules `event` after a virtual delay.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.queue.now() + delay, event);
    }

    /// Delivers the next event, advancing the virtual clock to its
    /// timestamp. `None` means the loop is drained and the process can
    /// exit.
    ///
    /// Named like `Iterator::next` on purpose — the reactor *is* an event
    /// stream — but it stays an inherent method: an `Iterator` impl would
    /// freeze the `(SimTime, E)` item shape into the public API and
    /// invite combinator use that hides the mutation of virtual time.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let ev = self.queue.pop();
        if ev.is_some() {
            self.processed += 1;
        }
        ev
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_fifo_order() {
        let mut r = Reactor::new();
        r.at(SimTime::from_millis(20), "b");
        r.at(SimTime::from_millis(10), "a1");
        r.at(SimTime::from_millis(10), "a2");
        let order: Vec<&str> = std::iter::from_fn(|| r.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a1", "a2", "b"]);
        assert_eq!(r.processed(), 3);
        assert_eq!(r.now(), SimTime::from_millis(20));
    }

    #[test]
    fn after_is_relative_to_the_virtual_clock() {
        let mut r = Reactor::new();
        r.at(SimTime::from_secs(5), ());
        r.next();
        r.after(SimDuration::from_secs(2), ());
        let (t, _) = r.next().unwrap();
        assert_eq!(t, SimTime::from_secs(7));
    }

    #[test]
    fn rearming_inside_the_loop_keeps_running() {
        // The tick-re-arm pattern the service's filler task uses.
        let mut r = Reactor::new();
        r.at(SimTime::ZERO, 0u32);
        let mut ticks = 0;
        while let Some((_, n)) = r.next() {
            ticks += 1;
            if n < 4 {
                r.after(SimDuration::from_secs(1), n + 1);
            }
        }
        assert_eq!(ticks, 5);
        assert_eq!(r.now(), SimTime::from_secs(4));
    }
}
