//! Experiment harness regenerating every table and figure of the AQUATOPE
//! paper's evaluation (§8).
//!
//! Each module reproduces one result as a JSON record; `cargo run -p
//! aqua-bench --release -- paper <name>` writes it under
//! `target/experiments/` and prints only the record's path. Every
//! experiment runs at one fixed scale that finishes in minutes.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not a 7-node OpenWhisk testbed); the reproduced *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the target, and
//! `EXPERIMENTS.md` records paper-vs-measured for every entry.

pub mod ablation;
pub mod common;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod table1;

pub use common::write_json;
