//! A tiny deterministic hasher for the event loops' hot-path maps.
//!
//! Both container-lifecycle engines key their ledgers by dense integer
//! ids they mint themselves (instance counters, container ids, execution
//! attempt numbers). The standard library's default SipHash is
//! DoS-resistant but costs tens of nanoseconds per lookup — measurable
//! when the control plane serves over a hundred thousand invocations per
//! second through two or three map operations each. These keys are
//! process-internal (never attacker-controlled), so a multiply-rotate
//! hash in the Firefox `FxHasher` family is safe and several times
//! faster. It is also seed-free, which makes map iteration order a pure
//! function of the insert/remove sequence — one less source of run-to-run
//! divergence for the determinism tests. Code must still not depend on
//! that order for anything it reports.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for small internal integer keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier from the `fxhash` lineage (derived from the golden
/// ratio); spreads consecutive integer keys across the table.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`] — drop-in for id-keyed ledgers.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_integer_keys() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k * 7, (k % 97) as u32);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&(k * 7)), Some(&((k % 97) as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |n: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(42), h(42), "seed-free: same input, same hash");
        // Consecutive ids must not collide in the low bits the table uses.
        let low: std::collections::HashSet<u64> = (0..64).map(|n| h(n) & 0x3f).collect();
        assert!(low.len() > 32, "consecutive keys spread across buckets");
    }

    #[test]
    fn byte_writes_cover_the_fallback_path() {
        let mut a = FxHasher::default();
        a.write(b"container-17");
        let mut b = FxHasher::default();
        b.write(b"container-18");
        assert_ne!(a.finish(), b.finish());
    }
}
