//! Discrete-event simulation engine underpinning the AQUATOPE reproduction.
//!
//! The engine is intentionally small and deterministic: a monotonic
//! [`SimTime`] clock, a heap-based [`EventQueue`] with stable FIFO ordering
//! for simultaneous events, and seeded random-number streams plus the
//! probability distributions the FaaS simulator and workload generators need.
//!
//! # Examples
//!
//! ```
//! use aqua_sim::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(10), "b");
//! queue.push(SimTime::from_millis(5), "a");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(5));
//! assert_eq!(ev, "a");
//! ```

pub mod dist;
pub mod fxhash;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{arrivals_with_cv, Exponential, Gamma, HyperExp, LogNormal, Pareto, PoissonProcess};
pub use fxhash::FxHashMap;
pub use parallel::{par_map, par_map_owned};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{mean_ci95, sign_test_p, Comparison, LatencySummary};
pub use time::{SimDuration, SimTime};
