//! In-memory span log for the traced run.
//!
//! Spans are recorded only at the seams the benchmark itself owns (the
//! wrappers in [`crate::seams`], the timed call of each replay, and the
//! drills), kept in memory, and written once at exit. A span's parent is
//! whichever span was open when it started, so a layer's self time is its
//! duration minus the part its children cover.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Seam name, `layer.what`.
    pub name: &'static str,
    /// Host nanoseconds since the log was created.
    pub start_ns: u64,
    /// Host nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Replay the span belongs to (spans of one replay share it).
    pub replay: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span log. Single-threaded in practice (every seam is called from
/// the thread driving the replay); see [`SpanLog`] for why it still sits
/// behind a mutex.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    replay: u32,
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            replay: self.replay,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Closed spans named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'static str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns > 0)
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_secs(&self, name: &'static str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, which would print as "-0".
        self.named(name).map(Span::secs).sum::<f64>() + 0.0
    }

    /// Summed self time of the spans named `name`: their durations minus
    /// their direct children's.
    pub fn self_secs(&self, name: &'static str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.end_ns > 0)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::secs)
            .sum();
        self.total_secs(name) - children
    }

    /// Writes the log as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.replay
            )?;
        }
        out.flush()
    }
}

/// Shared handle to the span log. The wrappers are moved into the
/// program under test (`ControlPlane` owns its policy, the telemetry sink
/// must be `Send`), so they reach the log through an `Arc<Mutex<_>>`;
/// the lock is never contended.
#[derive(Debug, Clone)]
pub struct SpanLog(Arc<Mutex<Spans>>);

impl SpanLog {
    /// A fresh log whose clock starts now.
    pub fn new() -> Self {
        SpanLog(Arc::new(Mutex::new(Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            replay: 0,
        })))
    }

    /// Locks the log.
    pub fn lock(&self) -> MutexGuard<'_, Spans> {
        self.0.lock().expect("no seam panics while holding the log")
    }

    /// Tags spans opened from now on with `replay`.
    pub fn set_replay(&self, replay: u32) {
        self.lock().replay = replay;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.lock().open(name);
        let out = f();
        self.lock().close(id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let log = SpanLog::new();
        log.set_replay(3);
        log.span("root", || {
            log.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            log.span("child", || ());
        });
        let spans = log.lock();
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert!(all.iter().all(|s| s.replay == 3));
        assert_eq!(spans.named("child").count(), 2);
        let covered = spans.total_secs("child");
        assert!(covered >= 0.002);
        assert!((spans.self_secs("root") - (all[0].secs() - covered)).abs() < 1e-12);
        assert_eq!(
            spans.self_secs("child"),
            covered,
            "leaves keep all their time"
        );
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let log = SpanLog::new();
        log.span("a", || log.span("b", || ()));
        let mut buf = Vec::new();
        log.lock().write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
