//! Bit-level pin on the sparse tier as the live plane drives it:
//! `OnlineLatencyModel::scalable_default()` (a 4096-point window, the
//! switch to 64 inducing points past 256 rows, a rebuild every 32nd
//! absorb) fed one scripted app stream. The stream crosses
//!
//! * the exact → sparse tier switch while the clock coordinate still moves;
//! * dozens of `refit_every` rebuilds after the clock coordinate has
//!   saturated at 1.0, where nearly every row duplicates an earlier one;
//! * rows at configurations the inducing set has never seen, which beat
//!   a distance the greedy selection recorded and so move the selection;
//! * one sliding-window compaction (4097 rows → 2048).
//!
//! The posterior bits and the model's counters are pinned in
//! `tests/golden/pins.txt`. They were captured before the rebuild path
//! under them was changed, in debug and `--release`, and must not move
//! when only the way a rebuild reaches its factors does.

use aquatope::alloc::OnlineLatencyModel;
use aquatope::telemetry::golden::assert_pinned;
use aquatope::telemetry::pin_fields;

/// The three resource configurations the app runs at, plus a fourth it
/// visits only twice after the clock has saturated.
const CONFIGS: [[f64; 3]; 4] = [
    [0.25, 0.5, 0.5],
    [0.5, 0.75, 0.25],
    [0.75, 0.25, 0.5],
    [0.95, 0.05, 0.9],
];

/// Latency of the `i`-th completion at configuration `c`: a per-config
/// level plus a deterministic integer jitter (no transcendental calls).
fn latency(i: usize, c: usize) -> f64 {
    1.0 + 0.4 * c as f64 + ((i * 37) % 11) as f64 * 0.02
}

/// Posterior bits at every configuration, at the current clock, named
/// `probe<k>.config<c>.{mean,var}` for the `k`-th probe.
fn probe(m: &OnlineLatencyModel, at: f64, out: &mut Vec<(String, u64)>) {
    let k = out.len() / (2 * CONFIGS.len());
    for (c, u) in CONFIGS.iter().enumerate() {
        let (mean, var) = m.predict(0, u, at).expect("fitted");
        out.push((format!("probe{k}.config{c}.mean"), mean.to_bits()));
        out.push((format!("probe{k}.config{c}.var"), var.to_bits()));
    }
}

#[test]
fn scalable_default_sparse_tier_bits_are_pinned() {
    let mut m = OnlineLatencyModel::scalable_default();
    let mut pins = Vec::new();
    let mut at = 0.0;
    for i in 0..4300usize {
        // Before t = 3600 s the clock coordinate spreads the rows; after
        // it every row at a configuration is the same input point.
        at = if i < 300 {
            i as f64 * 10.0
        } else {
            3600.0 + i as f64
        };
        // The fourth configuration appears twice, both after saturation:
        // once before the compaction and once after it.
        let c = if i == 1500 || i == 4200 { 3 } else { i % 3 };
        m.observe(0, &CONFIGS[c], at, latency(i, c));
        // A refit tick every 20 completions, as a busy app sees them.
        if i % 20 == 19 {
            m.refit(0);
            if i % 800 == 799 {
                probe(&m, at, &mut pins);
            }
        }
    }
    m.refit(0);
    probe(&m, at, &mut pins);
    let s = m.stats();
    pins.extend(pin_fields!("stats.", s; observed, absorbed, compactions, rejected, tier_switches));
    pins.push(("model_size".into(), m.model_size(0) as u64));
    assert_pinned("sparse_tier", &pins);
}
