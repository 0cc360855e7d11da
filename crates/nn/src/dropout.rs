//! Monte-Carlo dropout.
//!
//! Dropout here is not just a regularizer: kept **active at inference**, `T`
//! stochastic forward passes approximate Bayesian posterior sampling (Gal &
//! Ghahramani, ICML'16), which is how AQUATOPE obtains epistemic uncertainty
//! for its container-pool predictions.

use aqua_sim::SimRng;

/// Inverted dropout with rate `p`: kept units are scaled by `1/(1-p)` so the
/// expected activation is unchanged.
///
/// # Examples
///
/// ```
/// use aqua_nn::Dropout;
/// use aqua_sim::SimRng;
///
/// let drop = Dropout::new(0.5);
/// let mut rng = SimRng::seed(1);
/// let mut mask = [0.0; 4];
/// drop.sample_mask_into(&mut mask, &mut rng);
/// assert!(mask.iter().all(|m| *m == 0.0 || *m == 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dropout {
    p: f64,
}

impl Dropout {
    /// Creates a dropout operator with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Dropout { p }
    }

    /// Fills `out` with a fresh multiplicative mask: each entry is `0` with
    /// probability `p`, otherwise `1/(1-p)`.
    ///
    /// A rate of zero writes all-ones (dropout disabled) **without
    /// consuming any randomness**; the engine's batch-size invariance of
    /// the RNG stream relies on that.
    pub fn sample_mask_into(&self, out: &mut [f64], rng: &mut SimRng) {
        if self.p == 0.0 {
            out.fill(1.0);
            return;
        }
        let keep = 1.0 / (1.0 - self.p);
        for v in out {
            *v = if rng.chance(self.p) { 0.0 } else { keep };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(d: Dropout, n: usize, rng: &mut SimRng) -> Vec<f64> {
        let mut mask = vec![0.0; n];
        d.sample_mask_into(&mut mask, rng);
        mask
    }

    #[test]
    fn zero_rate_is_identity() {
        let mut rng = SimRng::seed(2);
        assert_eq!(sample(Dropout::new(0.0), 8, &mut rng), vec![1.0; 8]);
    }

    #[test]
    fn mask_preserves_expectation() {
        let mut rng = SimRng::seed(7);
        let n = 200_000;
        let mean: f64 = sample(Dropout::new(0.3), n, &mut rng).iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn drop_fraction_close_to_rate() {
        let mut rng = SimRng::seed(8);
        let mask = sample(Dropout::new(0.5), 100_000, &mut rng);
        let dropped = mask.iter().filter(|m| **m == 0.0).count() as f64 / mask.len() as f64;
        assert!((dropped - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rejects_rate_one() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn zero_rate_mask_consumes_no_randomness() {
        let mut rng = SimRng::seed(3);
        let before = rng.clone();
        assert_eq!(sample(Dropout::new(0.0), 16, &mut rng), vec![1.0; 16]);
        assert_eq!(rng, before, "p = 0 must not draw from the RNG");
    }
}
