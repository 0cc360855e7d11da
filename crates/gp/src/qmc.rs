//! Quasi-Monte-Carlo: the Halton low-discrepancy sequence.
//!
//! The paper approximates the constrained-NEI integral with quasi-Monte-
//! Carlo (BoTorch uses scrambled Sobol). We use the Halton sequence — the
//! same low-discrepancy family of tools — which needs no direction-number
//! tables and is exact to implement; the substitution is recorded in
//! DESIGN.md.

use aqua_linalg::normal_quantile;

const PRIMES: [u32; 32] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131,
];

/// Generator of Halton points in `[0, 1)^d`.
///
/// # Examples
///
/// ```
/// use aqua_gp::Halton;
///
/// let mut h = Halton::new(2);
/// let p = h.next_point();
/// assert_eq!(p.len(), 2);
/// assert!(p.iter().all(|x| (0.0..1.0).contains(x)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Halton {
    dim: usize,
    index: u64,
}

/// Radical inverse of `n` in the given base.
fn radical_inverse(mut n: u64, base: u64) -> f64 {
    let mut inv = 0.0;
    let mut denom = 1.0;
    while n > 0 {
        denom *= base as f64;
        inv += (n % base) as f64 / denom;
        n /= base;
    }
    inv
}

impl Halton {
    /// Creates a generator for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or exceeds the supported 32 dimensions.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            dim <= PRIMES.len(),
            "at most {} dimensions supported",
            PRIMES.len()
        );
        // Skip the first few points, which are degenerate (all small).
        Halton { dim, index: 20 }
    }

    /// Returns the next point of the sequence.
    pub fn next_point(&mut self) -> Vec<f64> {
        self.index += 1;
        (0..self.dim)
            .map(|d| radical_inverse(self.index, PRIMES[d] as u64))
            .collect()
    }

    /// Generates `n` points.
    pub fn points(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.next_point()).collect()
    }

    /// Generates `n` points mapped through the standard normal quantile —
    /// quasi-random standard normal draws for QMC integration.
    pub fn normal_points(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                self.next_point()
                    .into_iter()
                    .map(|u| normal_quantile(u.clamp(1e-9, 1.0 - 1e-9)))
                    .collect()
            })
            .collect()
    }

    /// Generates `count` rows of `width` standard-normal draws by chunking
    /// the stream's `dim`-dimensional points across row coordinates
    /// (surplus coordinates of the last chunk are discarded per row).
    ///
    /// This is the draw layout the noisy-EI integral uses for posterior
    /// samples whose width (the GP's training-set size) differs from the
    /// stream dimension; hoisting it here lets a whole batch of candidate
    /// evaluations share one stream instead of regenerating it per call.
    pub fn normal_rows(&mut self, count: usize, width: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|_| {
                let mut row = Vec::with_capacity(width);
                while row.len() < width {
                    let p = self.normal_points(1);
                    row.extend(p[0].iter().take(width - row.len()).cloned());
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radical_inverse_base2_known() {
        assert_eq!(radical_inverse(1, 2), 0.5);
        assert_eq!(radical_inverse(2, 2), 0.25);
        assert_eq!(radical_inverse(3, 2), 0.75);
        assert_eq!(radical_inverse(4, 2), 0.125);
    }

    #[test]
    fn points_in_unit_cube() {
        let mut h = Halton::new(5);
        for p in h.points(500) {
            assert_eq!(p.len(), 5);
            assert!(p.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn low_discrepancy_beats_grid_imbalance() {
        // Mean of each coordinate over many points should be near 0.5
        // with tight tolerance (much tighter than random sampling noise).
        let mut h = Halton::new(3);
        let pts = h.points(2_000);
        for d in 0..3 {
            let mean: f64 = pts.iter().map(|p| p[d]).sum::<f64>() / pts.len() as f64;
            assert!((mean - 0.5).abs() < 0.01, "dim {d} mean {mean}");
        }
    }

    #[test]
    fn stratification_in_2d() {
        // Every quadrant of [0,1)² should receive close to a quarter of points.
        let mut h = Halton::new(2);
        let pts = h.points(1_000);
        let mut counts = [0usize; 4];
        for p in &pts {
            let q = (p[0] >= 0.5) as usize * 2 + (p[1] >= 0.5) as usize;
            counts[q] += 1;
        }
        for c in counts {
            let frac = c as f64 / pts.len() as f64;
            assert!((frac - 0.25).abs() < 0.02, "quadrant fraction {frac}");
        }
    }

    #[test]
    fn normal_points_have_standard_moments() {
        let mut h = Halton::new(1);
        let pts = h.normal_points(4_000);
        let xs: Vec<f64> = pts.iter().map(|p| p[0]).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "dimensions supported")]
    fn rejects_too_many_dims() {
        let _ = Halton::new(33);
    }
}
