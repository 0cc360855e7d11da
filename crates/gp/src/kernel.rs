//! Covariance kernels.

/// Matérn 5/2 kernel with a shared lengthscale and an output scale — the
/// covariance the paper picks for its fixed-noise GP surrogates (§5.3).
///
/// `k(x, x') = σ² (1 + √5 r + 5r²/3) exp(−√5 r)` with
/// `r = ‖x − x'‖ / ℓ`.
///
/// # Examples
///
/// ```
/// use aqua_gp::Matern52;
///
/// let k = Matern52::new(1.0, 1.0);
/// assert_eq!(k.eval(&[0.0], &[0.0]), 1.0);
/// assert!(k.eval(&[0.0], &[3.0]) < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    lengthscale: f64,
    outputscale: f64,
}

impl Matern52 {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(lengthscale: f64, outputscale: f64) -> Self {
        assert!(
            lengthscale.is_finite() && lengthscale > 0.0,
            "lengthscale must be positive"
        );
        assert!(
            outputscale.is_finite() && outputscale > 0.0,
            "outputscale must be positive"
        );
        Matern52 {
            lengthscale,
            outputscale,
        }
    }

    /// The lengthscale ℓ.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Evaluates the kernel between two points.
    ///
    /// # Panics
    ///
    /// Panics if the points have different dimensionality.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_dist(euclidean(a, b))
    }

    /// Evaluates the kernel from a precomputed Euclidean distance.
    ///
    /// Performs exactly the arithmetic [`Matern52::eval`] performs after
    /// its distance pass, so kernel matrices built from a precomputed
    /// distance matrix are bit-identical to ones built pairwise from the
    /// points.
    pub fn eval_dist(&self, d: f64) -> f64 {
        let (poly, decay) = unit_factors(d, self.lengthscale);
        (self.outputscale * poly) * decay
    }
}

/// Euclidean distance with [`Matern52::eval`]'s exact summation order.
///
/// # Panics
///
/// Panics if the points have different dimensionality.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let dist2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    dist2.sqrt()
}

/// The outputscale-independent factors of the Matérn 5/2 kernel at
/// distance `d`: a polynomial term and an exponential decay with
/// `k = (outputscale · poly) · decay` in exactly [`Matern52::eval`]'s
/// operation order. Lets a hyperparameter grid search share one factor
/// pass per lengthscale and reduce outputscale candidates to elementwise
/// scaling without changing a single bit.
pub fn unit_factors(d: f64, lengthscale: f64) -> (f64, f64) {
    let r = d / lengthscale;
    let s5r = 5.0f64.sqrt() * r;
    (1.0 + s5r + 5.0 * r * r / 3.0, (-s5r).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_at_zero_is_outputscale() {
        let k = Matern52::new(0.7, 2.5);
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn decays_with_distance() {
        let k = Matern52::new(1.0, 1.0);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[1.0]);
        let farther = k.eval(&[0.0], &[3.0]);
        assert!(near > far && far > farther);
    }

    #[test]
    fn longer_lengthscale_smoother() {
        let short = Matern52::new(0.2, 1.0);
        let long = Matern52::new(2.0, 1.0);
        assert!(long.eval(&[0.0], &[1.0]) > short.eval(&[0.0], &[1.0]));
    }

    proptest! {
        /// Symmetric and bounded by the outputscale.
        #[test]
        fn prop_symmetric_bounded(a in prop::collection::vec(-3.0f64..3.0, 3),
                                  b in prop::collection::vec(-3.0f64..3.0, 3),
                                  ls in 0.1f64..3.0, os in 0.1f64..3.0) {
            let k = Matern52::new(ls, os);
            let kab = k.eval(&a, &b);
            let kba = k.eval(&b, &a);
            prop_assert!((kab - kba).abs() < 1e-12);
            prop_assert!(kab > 0.0 && kab <= os + 1e-12);
        }

        /// Distance-cached evaluation and the factored form are
        /// bit-identical to the direct pairwise evaluation — the contract
        /// the shared grid-search precompute relies on.
        #[test]
        fn prop_eval_dist_bit_identical(a in prop::collection::vec(-3.0f64..3.0, 4),
                                        b in prop::collection::vec(-3.0f64..3.0, 4),
                                        ls in 0.1f64..3.0, os in 0.1f64..3.0) {
            let k = Matern52::new(ls, os);
            let direct = k.eval(&a, &b);
            let d = euclidean(&a, &b);
            prop_assert!(k.eval_dist(d).to_bits() == direct.to_bits());
            let (poly, decay) = unit_factors(d, ls);
            prop_assert!(((os * poly) * decay).to_bits() == direct.to_bits());
        }
    }
}
