//! Live (non-replay) sink mode for a long-running control plane.
//!
//! Replay sinks ([`crate::Recorder`], [`crate::JsonlWriter`]) assume a
//! bounded run: buffer everything, flush once at the end. A service that
//! never ends needs its output on disk as it goes. [`LiveSink`] provides
//! that: it wraps any downstream [`EventSink`], forwards every event, and
//! force-flushes the downstream every `flush_every` events.

use crate::event::SimEvent;
use crate::sink::EventSink;

/// An [`EventSink`] adapter for long-running processes: forwards to a
/// downstream sink and flushes it every `flush_every` events.
pub struct LiveSink<S> {
    downstream: S,
    flush_every: u64,
    since_flush: u64,
}

impl<S: EventSink> LiveSink<S> {
    /// Wraps `downstream`, flushing it after every `flush_every` events.
    ///
    /// # Panics
    ///
    /// Panics if `flush_every` is zero.
    pub fn new(downstream: S, flush_every: u64) -> Self {
        assert!(flush_every > 0, "flush cadence must be positive");
        LiveSink {
            downstream,
            flush_every,
            since_flush: 0,
        }
    }
}

impl<S: EventSink> EventSink for LiveSink<S> {
    fn record(&mut self, event: &SimEvent) {
        self.downstream.record(event);
        self.since_flush += 1;
        if self.since_flush >= self.flush_every {
            self.since_flush = 0;
            self.downstream.flush();
        }
    }

    fn flush(&mut self) {
        self.since_flush = 0;
        self.downstream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;
    use aqua_sim::SimTime;

    /// A sink that counts flushes, for asserting the cadence.
    #[derive(Default)]
    struct FlushCounter {
        records: u64,
        flushes: u64,
    }

    impl EventSink for FlushCounter {
        fn record(&mut self, _event: &SimEvent) {
            self.records += 1;
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    fn hit(us: u64) -> SimEvent {
        SimEvent::WarmHit {
            at: SimTime::from_micros(us),
            function: 0,
            container: us,
        }
    }

    #[test]
    fn flushes_on_cadence() {
        let mut live = LiveSink::new(FlushCounter::default(), 3);
        for i in 0..8 {
            live.record(&hit(i));
        }
        // 8 events at cadence 3 → flushes after events 3 and 6.
        assert_eq!(live.downstream.flushes, 2);
        assert_eq!(live.downstream.records, 8);
    }

    #[test]
    fn explicit_flush_resets_the_cadence() {
        let mut live = LiveSink::new(FlushCounter::default(), 3);
        live.record(&hit(0));
        live.record(&hit(1));
        live.flush();
        // The cadence restarted: two more events stay under the threshold.
        live.record(&hit(2));
        live.record(&hit(3));
        assert_eq!(live.downstream.flushes, 1);
    }

    #[test]
    #[should_panic(expected = "flush cadence must be positive")]
    fn zero_cadence_is_rejected() {
        let _ = LiveSink::new(Recorder::unbounded(), 0);
    }
}
