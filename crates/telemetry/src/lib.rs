//! Typed event-trace telemetry for the AQUATOPE reproduction.
//!
//! Every scheduling-relevant moment in the simulator and its controllers —
//! container cold starts, warm hits, keep-alive evictions, pool-resize
//! decisions with their predicted demand and uncertainty, stage
//! dispatch/queue/complete, Bayesian-optimization iterations, and QoS
//! violations — is emitted as a [`SimEvent`] through a pluggable
//! [`EventSink`]. On top of the stream sit:
//!
//! * [`Recorder`] — an in-memory trace recorder;
//! * [`JsonlWriter`] — line-delimited JSON export for offline analysis;
//! * [`InvariantChecker`] — online checks of simulator accounting
//!   invariants (per-worker container conservation, no memory
//!   oversubscription, monotone event time, warm-hit ⇔ no cold-start
//!   accounting);
//! * [`diff_traces`] / [`diff_jsonl`] — replay comparison reporting the
//!   first divergent event between two traces, the backbone of the
//!   determinism and golden-trace regression tests;
//! * [`golden`] — the golden files and named-pin ledger those tests check.
//!
//! The default [`Telemetry`] handle is a **null sink**: one `Option`
//! branch on the hot path and the event is never even constructed (use
//! [`Telemetry::emit_with`]), so an uninstrumented run pays nothing.
//!
//! # Examples
//!
//! ```
//! use aqua_telemetry::{Recorder, SimEvent, Telemetry};
//! use aqua_sim::SimTime;
//!
//! let (tel, rec) = Telemetry::recording();
//! tel.emit_with(|| SimEvent::WarmHit {
//!     at: SimTime::from_millis(5),
//!     function: 0,
//!     container: 42,
//! });
//! assert_eq!(rec.lock().unwrap().events().len(), 1);
//! ```

pub mod diff;
pub mod event;
pub mod golden;
pub mod invariant;
pub mod live;
pub mod sink;

pub use diff::{diff_jsonl, diff_traces, Divergence};
pub use event::{EvictionReason, FaultKind, ShedReason, SimEvent};
pub use invariant::InvariantChecker;
pub use live::LiveSink;
pub use sink::{EventSink, Fanout, JsonlWriter, Recorder, SharedSink, Telemetry};
