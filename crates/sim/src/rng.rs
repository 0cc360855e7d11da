//! Seeded random-number streams.
//!
//! [`SimRng`] wraps a SplitMix64/xoshiro256++-style generator implemented
//! locally so the whole reproduction depends on one tiny, inspectable PRNG.
//! Independent named streams can be forked from a root seed so that, e.g.,
//! arrival noise and execution noise do not perturb each other when one
//! component draws more samples.

/// Deterministic 64-bit PRNG (xoshiro256++) with cheap stream forking,
/// fully reproducible from a `u64` seed.
///
/// # Examples
///
/// ```
/// use aqua_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut fork = a.fork("arrivals");
/// let _ = fork.uniform(); // independent stream, same reproducibility
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent stream from this generator and a label.
    ///
    /// Forking does not consume randomness from `self`, so adding a new
    /// forked stream never perturbs existing draws.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::seed(self.state[0] ^ h.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > 1e-300 {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Bernoulli trial returning true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = SimRng::seed(99);
        let mut f1 = root.fork("arrivals");
        let mut f2 = root.fork("arrivals");
        let mut g = root.fork("exec");
        assert_eq!(f1.next_u64(), f2.next_u64());
        assert_ne!(f1.next_u64(), g.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = SimRng::seed(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed(5);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn below_covers_range() {
        let mut r = SimRng::seed(23);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(31);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(41);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
