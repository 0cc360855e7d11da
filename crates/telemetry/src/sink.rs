//! Pluggable event sinks and the cheap [`Telemetry`] handle the simulator
//! threads through its hot path.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::SimEvent;

/// A consumer of simulator events.
///
/// Implementations must be cheap per call: `record` runs inline in the
/// simulator's event loop.
pub trait EventSink {
    /// Consumes one event.
    fn record(&mut self, event: &SimEvent);

    /// Flushes any buffered output. Called at the end of a run; the
    /// default does nothing.
    fn flush(&mut self) {}
}

impl EventSink for Box<dyn EventSink + Send> {
    fn record(&mut self, event: &SimEvent) {
        (**self).record(event)
    }

    fn flush(&mut self) {
        (**self).flush()
    }
}

/// A shared, interiorly-mutable sink handle.
///
/// `Send` so a [`Telemetry`] clone can ride inside per-shard simulator
/// state across the `par_map` worker threads; the mutex is uncontended in
/// practice because each shard writes to its own private recorder.
pub type SharedSink = Arc<Mutex<dyn EventSink + Send>>;

/// The handle the simulator and controllers emit through.
///
/// `Telemetry::default()` is the **null sink**: the `Option` is `None`,
/// [`Telemetry::emit_with`] never runs its closure, and the hot path pays
/// a single branch — no event construction, no allocation, no dynamic
/// dispatch.
///
/// Cloning is shallow: all clones feed the same sink, which is how one
/// recorder observes the simulator, the cluster, and the controllers at
/// once.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<SharedSink>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The null sink: every emit is a no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A telemetry handle feeding `sink`.
    pub fn new(sink: SharedSink) -> Self {
        Telemetry { sink: Some(sink) }
    }

    /// Wraps a concrete sink, returning the emit handle plus a typed
    /// handle for inspecting the sink afterwards.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_telemetry::{Recorder, Telemetry};
    ///
    /// let (tel, rec) = Telemetry::attach(Recorder::unbounded());
    /// assert!(tel.is_enabled());
    /// assert!(rec.lock().unwrap().events().is_empty());
    /// ```
    pub fn attach<S: EventSink + Send + 'static>(sink: S) -> (Telemetry, Arc<Mutex<S>>) {
        let shared = Arc::new(Mutex::new(sink));
        (
            Telemetry {
                sink: Some(shared.clone()),
            },
            shared,
        )
    }

    /// Shorthand for [`Telemetry::attach`] with a [`Recorder`].
    pub fn recording() -> (Telemetry, Arc<Mutex<Recorder>>) {
        Telemetry::attach(Recorder::unbounded())
    }

    /// True when events reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an already-built event.
    pub fn emit(&self, event: &SimEvent) {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().record(event);
        }
    }

    /// Emits the event produced by `build`, constructing it only when a
    /// sink is attached. Use this on hot paths so the disabled case pays
    /// nothing beyond the branch.
    #[inline]
    pub fn emit_with<F: FnOnce() -> SimEvent>(&self, build: F) {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().record(&build());
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().flush();
        }
    }
}

/// An in-memory trace recorder that keeps every event.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<SimEvent>,
}

impl Recorder {
    /// A recorder that keeps every event.
    pub fn unbounded() -> Self {
        Recorder::default()
    }

    /// The recorded events in arrival order (oldest first).
    pub fn events(&self) -> Vec<SimEvent> {
        self.events.clone()
    }

    /// Encodes the recorded trace as JSONL (one event per line, trailing
    /// newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in &self.events {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }
}

impl EventSink for Recorder {
    fn record(&mut self, event: &SimEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as line-delimited JSON to any writer.
pub struct JsonlWriter<W: Write> {
    out: W,
    /// First I/O error observed, surfaced via [`JsonlWriter::error`].
    error: Option<io::Error>,
}

impl JsonlWriter<BufWriter<File>> {
    /// Creates a writer streaming to a fresh file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlWriter { out, error: None }
    }

    /// The first I/O error hit while writing, if any. Write failures do
    /// not panic the simulation; check this after the run.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Consumes the sink, flushing and returning the inner writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> EventSink for JsonlWriter<W> {
    fn record(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Broadcasts each event to several sinks in order — e.g. a [`Recorder`]
/// plus an [`crate::InvariantChecker`] watching the same run.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<SharedSink>,
}

impl Fanout {
    /// A fan-out over `sinks`.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        Fanout { sinks }
    }

    /// Adds another downstream sink.
    pub fn push(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }
}

impl EventSink for Fanout {
    fn record(&mut self, event: &SimEvent) {
        for sink in &self.sinks {
            sink.lock().unwrap().record(event);
        }
    }

    fn flush(&mut self) {
        for sink in &self.sinks {
            sink.lock().unwrap().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::SimTime;

    fn hit(us: u64) -> SimEvent {
        SimEvent::WarmHit {
            at: SimTime::from_micros(us),
            function: 0,
            container: us,
        }
    }

    #[test]
    fn null_sink_never_builds_the_event() {
        let tel = Telemetry::disabled();
        let mut built = false;
        tel.emit_with(|| {
            built = true;
            hit(1)
        });
        assert!(!built, "disabled telemetry must not construct events");
        assert!(!tel.is_enabled());
    }

    #[test]
    fn recorder_keeps_arrival_order() {
        let (tel, rec) = Telemetry::recording();
        for i in 0..5 {
            tel.emit(&hit(i));
        }
        let evs = rec.lock().unwrap().events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].at(), SimTime::from_micros(0));
        assert_eq!(evs[4].at(), SimTime::from_micros(4));
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let (tel, sink) = Telemetry::attach(JsonlWriter::new(Vec::new()));
        tel.emit(&hit(1));
        tel.emit(&hit(2));
        tel.flush();
        drop(tel);
        let sink = Arc::try_unwrap(sink)
            .map_err(|_| ())
            .expect("sole owner")
            .into_inner()
            .expect("unpoisoned");
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"warm_hit\""));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::unbounded()));
        let b: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::unbounded()));
        let tel = Telemetry::new(Arc::new(Mutex::new(Fanout::new(vec![
            a.clone() as SharedSink,
            b.clone() as SharedSink,
        ]))));
        tel.emit(&hit(9));
        assert_eq!(a.lock().unwrap().events().len(), 1);
        assert_eq!(b.lock().unwrap().events().len(), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let (tel, rec) = Telemetry::recording();
        let tel2 = tel.clone();
        tel.emit(&hit(1));
        tel2.emit(&hit(2));
        assert_eq!(rec.lock().unwrap().events().len(), 2);
    }
}
