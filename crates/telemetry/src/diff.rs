//! Replay comparison: find the first divergent event between two traces.
//!
//! The determinism and golden-trace tests boil down to "these two runs
//! must have produced the same event stream"; when they did not, pointing
//! at the **first** differing event localizes the bug far better than a
//! whole-trace dump.

use std::fmt;

use crate::event::SimEvent;

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the first differing event (or line).
    pub index: usize,
    /// The left trace's event at `index` (JSON, or a line with its
    /// terminator), `None` if it ended early.
    pub left: Option<String>,
    /// The right trace's event at `index`, as `left`.
    pub right: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traces diverge at event {}:", self.index)?;
        // Spell out line terminators: lines may differ only in them.
        let show = |l: &str| l.replace('\r', "\\r").replace('\n', "\\n");
        match &self.left {
            Some(l) => writeln!(f, "  left : {}", show(l))?,
            None => writeln!(f, "  left : <trace ended after {} events>", self.index)?,
        }
        match &self.right {
            Some(r) => write!(f, "  right: {}", show(r)),
            None => write!(f, "  right: <trace ended after {} events>", self.index),
        }
    }
}

/// Compares two event traces, returning the first divergence or `None`
/// when they are identical.
///
/// # Examples
///
/// ```
/// use aqua_sim::SimTime;
/// use aqua_telemetry::{diff_traces, SimEvent};
///
/// let a = vec![SimEvent::WarmHit { at: SimTime::ZERO, function: 0, container: 1 }];
/// let b = vec![SimEvent::WarmHit { at: SimTime::ZERO, function: 0, container: 2 }];
/// let d = diff_traces(&a, &b).expect("differs");
/// assert_eq!(d.index, 0);
/// ```
pub fn diff_traces(left: &[SimEvent], right: &[SimEvent]) -> Option<Divergence> {
    first_divergence(left.iter(), right.iter(), SimEvent::to_json)
}

/// Line-by-line comparison of two JSONL trace exports, returning the
/// first divergent line or `None` when identical. Works on anything
/// line-oriented, so golden files can be diffed without re-parsing.
///
/// Lines are compared with their terminators, so a missing final newline
/// or a CRLF ending diverges: the result is `None` exactly when
/// `left == right`.
pub fn diff_jsonl(left: &str, right: &str) -> Option<Divergence> {
    let lines = |s| str::split_inclusive(s, '\n');
    first_divergence(lines(left), lines(right), str::to_string)
}

/// The first position where `left` and `right` differ, rendered by `show`.
fn first_divergence<T: PartialEq>(
    mut left: impl Iterator<Item = T>,
    mut right: impl Iterator<Item = T>,
    show: impl Fn(T) -> String,
) -> Option<Divergence> {
    let mut index = 0;
    loop {
        match (left.next(), right.next()) {
            (None, None) => return None,
            (l, r) if l != r => {
                let (left, right) = (l.map(&show), r.map(&show));
                return Some(Divergence { index, left, right });
            }
            _ => index += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::SimTime;

    fn hit(us: u64, container: u64) -> SimEvent {
        SimEvent::WarmHit {
            at: SimTime::from_micros(us),
            function: 0,
            container,
        }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = vec![hit(1, 1), hit(2, 2)];
        assert_eq!(diff_traces(&a, &a.clone()), None);
        let j = "{\"a\":1}\n{\"b\":2}\n";
        assert_eq!(diff_jsonl(j, j), None);
    }

    #[test]
    fn first_difference_is_reported() {
        let a = vec![hit(1, 1), hit(2, 2), hit(3, 3)];
        let b = vec![hit(1, 1), hit(2, 9), hit(3, 9)];
        let d = diff_traces(&a, &b).expect("differs");
        assert_eq!(d.index, 1);
        assert!(d.left.as_deref().unwrap().contains("\"container\":2"));
        assert!(d.right.as_deref().unwrap().contains("\"container\":9"));
    }

    #[test]
    fn length_mismatch_diverges_at_truncation() {
        let a = vec![hit(1, 1), hit(2, 2)];
        let b = vec![hit(1, 1)];
        let d = diff_traces(&a, &b).expect("differs");
        assert_eq!(d.index, 1);
        assert!(d.left.is_some());
        assert_eq!(d.right, None);
    }

    #[test]
    fn jsonl_diff_finds_first_line() {
        let a = "one\ntwo\nthree";
        let b = "one\nTWO\nthree";
        let d = diff_jsonl(a, b).expect("differs");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.as_deref(), Some("two\n"));
        assert_eq!(d.right.as_deref(), Some("TWO\n"));
    }

    #[test]
    fn jsonl_diff_sees_a_missing_final_newline_and_crlf_endings() {
        let d = diff_jsonl("one\ntwo\n", "one\ntwo").expect("differs");
        assert_eq!((d.index, d.right.as_deref()), (1, Some("two")));
        assert!(d.to_string().contains("left : two\\n"), "{d}");
        let text = diff_jsonl("one\n", "one\r\n").expect("differs").to_string();
        assert!(text.contains("event 0:\n  left : one\\n\n  right: one\\r\\n"));
        assert_eq!(diff_jsonl("", "\n").map(|d| d.index), Some(0));
    }

    #[test]
    fn divergence_display_mentions_index() {
        let d = Divergence {
            index: 4,
            left: Some("x".into()),
            right: None,
        };
        let text = d.to_string();
        assert!(text.contains("event 4"));
        assert!(text.contains("<trace ended"));
    }
}
