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
//! The literals were captured before the rebuild path under them was
//! changed, in debug and `--release`, and must not move when only the
//! way a rebuild reaches its factors does (run with `--nocapture`; a
//! mismatch prints the observed bits).

use aqua_alloc::OnlineLatencyModel;

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

/// Posterior bits at every configuration, at the current clock.
fn probe(m: &OnlineLatencyModel, at: f64, out: &mut Vec<u64>) {
    for u in &CONFIGS {
        let (mean, var) = m.predict(0, u, at).expect("fitted");
        out.push(mean.to_bits());
        out.push(var.to_bits());
    }
}

#[test]
fn scalable_default_sparse_tier_bits_are_pinned() {
    let mut m = OnlineLatencyModel::scalable_default();
    let mut bits = Vec::new();
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
                probe(&m, at, &mut bits);
            }
        }
    }
    m.refit(0);
    probe(&m, at, &mut bits);
    let s = m.stats();
    let counters = [
        s.observed,
        s.absorbed,
        s.compactions,
        s.rejected,
        s.tier_switches,
    ];
    let want_counters: [u64; 5] = [4300, 4300, 1, 0, 1];
    assert_eq!(counters, want_counters, "stats {s:?}");
    assert_eq!(m.model_size(0), 2251);
    let want: [u64; 48] = [
        0x3ff19627e48098e2,
        0x3e71e317d252173f,
        0x3ff8007fb28e7574,
        0x3e71e317d722504d,
        0x3ffe685ec5e3658c,
        0x3e71fead8f896bd7,
        0x3ff7fda8113630f7,
        0x3fcc7cd4d96be1bf,
        0x3ff197b4dbab2067,
        0x3e5b8e8f806d9bc8,
        0x3ff80123016104f7,
        0x3e5b8e8f80c0cccc,
        0x3ffe6666386df116,
        0x3e5b8e8f762cbf13,
        0x400266517293467d,
        0x3ee74dc42f3f780a,
        0x3ff198c7547c68c2,
        0x3e5108a6cb109462,
        0x3ff8012bd8490058,
        0x3e51026c0b1c8ee4,
        0x3ffe65b2887a5ee6,
        0x3e51026c05fa2de0,
        0x400266516fd36324,
        0x3ee74103a0ea8b69,
        0x3ff19a05f6c0dbd8,
        0x3e48a5380af2ec96,
        0x3ff80015de92f2c5,
        0x3e489eb1c507c3ba,
        0x3ffe65f9c575d696,
        0x3e48a538056bcf7b,
        0x400266516f703fb6,
        0x3ee73f90459a5048,
        0x3ff1992265565ddc,
        0x3e43500883e80986,
        0x3ff80000249672ab,
        0x3e435008858aafb0,
        0x3ffe66aa5f004b48,
        0x3e4350087fd3d8d8,
        0x400266516ffc2dba,
        0x3ee740d21f5cb0e8,
        0x3ff198d5e4d10a0d,
        0x3e4fb5bd5748e405,
        0x3ff8001bf648ef92,
        0x3e4fc1b75f47d393,
        0x3ffe676207be2386,
        0x3e4fc1b7602aa131,
        0x40021466f01a4754,
        0x3ee7392daf0a189a,
    ];
    assert_eq!(bits, want, "observed {bits:#x?}");
}
