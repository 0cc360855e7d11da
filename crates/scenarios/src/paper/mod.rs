//! Every table and figure of the AQUATOPE paper's evaluation (§8).
//!
//! Each module reproduces one result as a JSON record; `cargo run -p
//! aqua-scenarios --release -- paper <name>` writes it under
//! `target/experiments/` and prints only the record's path. Every
//! experiment runs at one fixed scale that finishes in minutes.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not a 7-node OpenWhisk testbed); the reproduced *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the target, and
//! `EXPERIMENTS.md` records paper-vs-measured for every entry.

pub mod ablation;
mod common;
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

/// One experiment: runs at its fixed scale and returns its JSON record.
pub type Experiment = fn() -> serde_json::Value;

/// Every experiment by the name its record is written under
/// (`target/experiments/<name>.json`), in paper order.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table1", table1::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("ablation", ablation::run),
];
