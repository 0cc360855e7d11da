//! Fixed-noise Gaussian-process regression.
//!
//! A [`Gp`] holds its training window once: the inputs, the raw targets,
//! the weight vector `alpha` and one packed lower-triangular Cholesky
//! factor, about `n²/2 + (d + 2)·n` floats. [`Gp::extend`] appends one
//! point: the factor grows by one row in place, and the inputs and
//! targets move to buffers of the new exact size. Pairwise distances are
//! not kept: a hyperparameter grid search computes them once for its
//! candidates, and the fixed-kernel paths (subset refits, posterior
//! sampling, the append fallback) evaluate the kernel from the points.

use std::error::Error;
use std::fmt;

use aqua_linalg::{Cholesky, Matrix};
use aqua_sim::SimRng;

use crate::kernel::{euclidean, unit_factors, Matern52};

/// Configuration for [`Gp::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Observation noise variance (in *standardized* target units). The
    /// paper uses fixed-noise GPs; pass the noise level you inject/expect.
    pub noise: f64,
    /// Candidate lengthscales for the marginal-likelihood grid search
    /// (inputs are expected in `[0, 1]^d`).
    pub lengthscale_grid: Vec<f64>,
    /// Candidate output scales (targets are standardized, so ≈ 1).
    pub outputscale_grid: Vec<f64>,
    /// Hyperparameter re-selection cadence for [`Gp::extend`]: every
    /// `refit_every`-th appended observation triggers a full grid search;
    /// appends in between keep the selected kernel and update the
    /// factorization in O(n²). `1` re-selects on every append (identical
    /// to calling [`Gp::fit`] from scratch each time); `0` never
    /// re-selects.
    pub refit_every: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            noise: 1e-4,
            lengthscale_grid: vec![0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0],
            outputscale_grid: vec![0.5, 1.0, 2.0],
            refit_every: 8,
        }
    }
}

impl GpConfig {
    /// Same grids with a different fixed noise variance.
    pub fn with_noise(noise: f64) -> Self {
        GpConfig {
            noise,
            ..Self::default()
        }
    }
}

/// Errors from GP construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Fewer than two observations, or mismatched lengths.
    InsufficientData,
    /// The kernel matrix could not be factored for any hyperparameters.
    SingularKernel,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::InsufficientData => write!(f, "need at least two observations"),
            GpError::SingularKernel => write!(f, "kernel matrix is singular"),
        }
    }
}

impl Error for GpError {}

/// A trained Gaussian process.
///
/// Targets are standardized internally; predictions are returned in the
/// original units.
#[derive(Debug, Clone)]
pub struct Gp {
    /// Training inputs, one point per row (`n × d`, row-major flat
    /// storage — no per-point allocations on the refit hot path).
    x: Matrix,
    y_raw: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
    kernel: Matern52,
    noise: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    lml: f64,
    config: GpConfig,
    /// Observations appended by [`Gp::extend`] since the last full
    /// hyperparameter selection.
    since_refit: usize,
}

/// Target standardization shared by every (re)fit path.
pub(crate) fn standardize(ys: &[f64]) -> (f64, f64, Vec<f64>) {
    let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let var = ys.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / ys.len() as f64;
    let y_scale = var.sqrt().max(1e-9);
    let y_std: Vec<f64> = ys.iter().map(|v| (v - y_mean) / y_scale).collect();
    (y_mean, y_scale, y_std)
}

/// Pairwise Euclidean distance matrix with [`Matern52::eval`]'s summation
/// order, mirrored across the diagonal. Points are rows of a row-major
/// `n × d` matrix, so each pair is one unit-stride slice pass.
fn pairwise_dists(x: &Matrix) -> Matrix {
    let n = x.rows();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let v = euclidean(x.row(i), x.row(j));
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

/// [`unit_factors`] of every entry of a symmetric distance matrix, as flat
/// row-major `(poly, decay)` buffers. Only the lower triangle is evaluated
/// (the `exp` is the expensive part) and mirrored: equal distances give
/// equal factors, so this is the full-matrix pass bit for bit.
fn unit_factor_matrices(dists: &Matrix, lengthscale: f64) -> (Vec<f64>, Vec<f64>) {
    let n = dists.rows();
    let mut poly = vec![0.0; n * n];
    let mut decay = vec![0.0; n * n];
    for i in 0..n {
        for (j, &d) in dists.row(i)[..=i].iter().enumerate() {
            let (p, e) = unit_factors(d, lengthscale);
            poly[i * n + j] = p;
            decay[i * n + j] = e;
            poly[j * n + i] = p;
            decay[j * n + i] = e;
        }
    }
    (poly, decay)
}

/// The kernel matrix over the rows of `x`, each pair evaluated once and
/// mirrored across the diagonal. [`euclidean`] is bitwise symmetric, so
/// this is the every-entry [`Matern52::eval`] matrix bit for bit.
fn kernel_matrix(x: &Matrix, kernel: &Matern52) -> Matrix {
    let n = x.rows();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(x.row(i), x.row(j));
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
    }
    k
}

/// Packs per-point vectors into the row-major `n × d` form the GP stores.
///
/// # Panics
///
/// Panics if the points are ragged.
pub(crate) fn points_to_matrix(x: &[Vec<f64>]) -> Matrix {
    let n = x.len();
    let d = x.first().map_or(0, Vec::len);
    let mut data = Vec::with_capacity(n * d);
    for p in x {
        assert_eq!(p.len(), d, "ragged training points");
        data.extend_from_slice(p);
    }
    Matrix::from_vec(n, d, data)
}

impl Gp {
    /// Fits a GP, selecting kernel hyperparameters by log marginal
    /// likelihood over the configured grid.
    ///
    /// The distance matrix is computed once and shared by every
    /// lengthscale candidate, and outputscale candidates reduce to
    /// elementwise scaling of per-lengthscale kernel factors — both
    /// bit-identical to one kernel build per candidate.
    ///
    /// # Errors
    ///
    /// [`GpError::InsufficientData`] for fewer than 2 points or mismatched
    /// lengths; [`GpError::SingularKernel`] if no hyperparameter choice
    /// yields a factorable kernel matrix.
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>, config: GpConfig) -> Result<Self, GpError> {
        if x.len() < 2 || x.len() != y.len() {
            return Err(GpError::InsufficientData);
        }
        Self::fit_flat(points_to_matrix(&x), y, config)
    }

    /// [`Gp::fit`] over points already packed row-major (`n × d`) — the
    /// allocation-free entry point for callers that keep flat storage.
    ///
    /// # Errors
    ///
    /// As [`Gp::fit`].
    pub fn fit_flat(x: Matrix, y: Vec<f64>, config: GpConfig) -> Result<Self, GpError> {
        if x.rows() < 2 || x.rows() != y.len() {
            return Err(GpError::InsufficientData);
        }
        let (y_mean, y_scale, y_std_units) = standardize(&y);
        let (lml, kernel, chol, alpha) =
            Self::select_hyperparams(&pairwise_dists(&x), &y_std_units, &config)
                .ok_or(GpError::SingularKernel)?;
        Ok(Gp {
            x,
            y_raw: y,
            y_mean,
            y_scale,
            kernel,
            noise: config.noise,
            chol,
            alpha,
            lml,
            config,
            since_refit: 0,
        })
    }

    /// Grid search over (lengthscale, outputscale), lengthscale-outer and
    /// outputscale-inner. Each lengthscale keeps its first-best
    /// outputscale under strict `>`, and an ordered strict-`>` pick across
    /// lengthscales keeps the first best overall. A NaN log likelihood
    /// therefore replaces no earlier candidate, and one kept first is
    /// replaced by none.
    fn select_hyperparams(
        dists: &Matrix,
        y: &[f64],
        config: &GpConfig,
    ) -> Option<(f64, Matern52, Cholesky, Vec<f64>)> {
        let n = dists.rows();
        let noise = config.noise.max(1e-9);
        // One kernel buffer for the whole search, overwritten per candidate.
        let mut k = Matrix::zeros(n, n);
        let mut best: Option<(f64, Matern52, Cholesky, Vec<f64>)> = None;
        for &ls in &config.lengthscale_grid {
            // One factor pass per lengthscale, shared by all outputscales.
            let (poly, decay) = unit_factor_matrices(dists, ls);
            let mut best_ls: Option<(f64, Matern52, Cholesky, Vec<f64>)> = None;
            for &os in &config.outputscale_grid {
                for ((k, p), e) in k.as_mut_slice().iter_mut().zip(&poly).zip(&decay) {
                    *k = (os * p) * e;
                }
                k.add_diagonal(noise);
                let Ok(chol) = Cholesky::new_with_jitter(&k) else {
                    continue;
                };
                let (lml, alpha) = Self::marginal_likelihood(&chol, y);
                if best_ls.as_ref().is_none_or(|(b, ..)| lml > *b) {
                    best_ls = Some((lml, Matern52::new(ls, os), chol, alpha));
                }
            }
            if let Some(cand) = best_ls {
                if best.as_ref().is_none_or(|(b, ..)| cand.0 > *b) {
                    best = Some(cand);
                }
            }
        }
        best
    }

    /// Log marginal likelihood and weight vector for a factored kernel.
    fn marginal_likelihood(chol: &Cholesky, y: &[f64]) -> (f64, Vec<f64>) {
        let alpha = chol.solve_vec(y);
        let fit_term: f64 = y.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * fit_term
            - 0.5 * chol.log_det()
            - 0.5 * y.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        (lml, alpha)
    }

    /// Reference evaluation for a fixed kernel: full kernel build plus
    /// from-scratch factorization. Subset refits run this; the incremental
    /// paths fall back to it when a rank-1 extension hits a non-positive
    /// pivot, reproducing the fresh jitter ladder a from-scratch refit
    /// would run.
    fn evaluate(
        x: &Matrix,
        y: &[f64],
        kernel: &Matern52,
        noise: f64,
    ) -> Option<(f64, Cholesky, Vec<f64>)> {
        let mut k = kernel_matrix(x, kernel);
        k.add_diagonal(noise.max(1e-9));
        let chol = Cholesky::new_with_jitter(&k).ok()?;
        let (lml, alpha) = Self::marginal_likelihood(&chol, y);
        Some((lml, chol, alpha))
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True if the GP has no training data (never constructible; kept for
    /// API symmetry).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// The training inputs, one point per row (`n × d`).
    pub fn train_x(&self) -> &Matrix {
        &self.x
    }

    /// The training targets in original units.
    pub fn train_y(&self) -> &[f64] {
        &self.y_raw
    }

    /// The selected kernel.
    pub fn kernel(&self) -> &Matern52 {
        &self.kernel
    }

    /// Log marginal likelihood of the selected hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Posterior mean and variance of the *latent* function at `x`, in
    /// original units. The variance excludes observation noise.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let kstar: Vec<f64> = (0..self.x.rows())
            .map(|i| self.kernel.eval(self.x.row(i), x))
            .collect();
        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = self.chol.forward_solve(&kstar);
        let var_std = (self.kernel.eval(x, x) - v.iter().map(|a| a * a).sum::<f64>()).max(0.0);
        (
            mean_std * self.y_scale + self.y_mean,
            var_std * self.y_scale * self.y_scale,
        )
    }

    /// Draws `m` joint posterior samples of the latent function at the
    /// training inputs (needed by noisy expected improvement, which must
    /// not assume the incumbent is known exactly). Returned in original
    /// units, using the supplied standard-normal draws `z[m][n]` (e.g. QMC).
    ///
    /// # Panics
    ///
    /// Panics if any `z` row has the wrong length.
    pub fn posterior_samples_at_train(&self, z: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = self.x.rows();
        // Posterior over latent f at train points:
        //   mean = K alpha, cov = K - K (K + σ²I)^{-1} K.
        let k = kernel_matrix(&self.x, &self.kernel);
        let mean_std = k.matvec(&self.alpha);
        let kinv_k = self.chol.solve_matrix(&k);
        let mut cov = k.add(&k.matmul(&kinv_k).scale(-1.0));
        // Symmetrize (rounding) and factor with jitter.
        for i in 0..n {
            for j in 0..i {
                let s = (cov[(i, j)] + cov[(j, i)]) / 2.0;
                cov[(i, j)] = s;
                cov[(j, i)] = s;
            }
        }
        let factor = match Cholesky::new_with_jitter(&cov) {
            Ok(f) => f,
            Err(_) => {
                // Degenerate posterior (almost-exact interpolation):
                // fall back to the mean.
                return z
                    .iter()
                    .map(|_| {
                        mean_std
                            .iter()
                            .map(|m| m * self.y_scale + self.y_mean)
                            .collect()
                    })
                    .collect();
            }
        };
        z.iter()
            .map(|zrow| {
                assert_eq!(zrow.len(), n, "z row length must equal train size");
                let corr = factor.correlate(zrow);
                mean_std
                    .iter()
                    .zip(&corr)
                    .map(|(m, c)| (m + c) * self.y_scale + self.y_mean)
                    .collect()
            })
            .collect()
    }

    /// Core of the incremental path: appends `(x, y)` in place, keeping
    /// the current kernel. The point joins the training matrix, the
    /// factor grows by one rank-1 bordering row (O(n²)) and `alpha` is
    /// re-solved. If the new pivot is not positive — the augmented matrix
    /// needs a larger jitter than the factor carries — it falls back to
    /// the from-scratch jitter ladder, which is what a non-incremental
    /// refit would have run anyway. On error the GP is left unchanged.
    fn append_observation(&mut self, x: &[f64], y: f64) -> Result<(), GpError> {
        let kcol: Vec<f64> = (0..self.x.rows())
            .map(|i| self.kernel.eval(self.x.row(i), x))
            .collect();
        let kdiag = self.kernel.eval_dist(0.0) + self.noise.max(1e-9);
        let (xs, ys) = self.with_point(x, y);
        // Keep hyperparameters: re-standardize and re-factor only.
        let (y_mean, y_scale, y_std_units) = standardize(&ys);
        let (lml, alpha) = match self.chol.extend_in_place(&kcol, kdiag) {
            Ok(()) => Self::marginal_likelihood(&self.chol, &y_std_units),
            Err(_) => {
                let (lml, chol, alpha) =
                    Self::evaluate(&xs, &y_std_units, &self.kernel, self.noise)
                        .ok_or(GpError::SingularKernel)?;
                self.chol = chol;
                (lml, alpha)
            }
        };
        self.x = xs;
        self.y_raw = ys;
        self.y_mean = y_mean;
        self.y_scale = y_scale;
        self.alpha = alpha;
        self.lml = lml;
        self.since_refit += 1;
        Ok(())
    }

    /// The training inputs and targets with one point appended, each in a
    /// buffer of exactly the new size, so a failed append leaves the GP
    /// as it was. Copying these `(d + 1)·n` floats costs little next to
    /// the O(n²) factor row, and growing the old buffers in place read
    /// 1.3 MiB more peak RSS on `svc_azure` (EXPERIMENTS.md "Each GP
    /// holds its training window once").
    fn with_point(&self, x: &[f64], y: f64) -> (Matrix, Vec<f64>) {
        let (n, d) = (self.x.rows(), self.x.cols());
        assert_eq!(x.len(), d, "dimension mismatch");
        let mut xs = Vec::with_capacity((n + 1) * d);
        xs.extend_from_slice(self.x.as_slice());
        xs.extend_from_slice(x);
        let mut ys = Vec::with_capacity(n + 1);
        ys.extend_from_slice(&self.y_raw);
        ys.push(y);
        (Matrix::from_vec(n + 1, d, xs), ys)
    }

    /// Returns a new GP conditioned on one extra (possibly fantasized)
    /// observation, keeping the current kernel hyperparameters — the
    /// Kriging-believer step used for batch selection. O(n²) via a rank-1
    /// extension of a copy of the Cholesky factor, bit-identical to a full
    /// refactorization.
    ///
    /// # Errors
    ///
    /// [`GpError::SingularKernel`] if the augmented kernel matrix cannot be
    /// factored.
    pub fn with_observation(&self, x: Vec<f64>, y: f64) -> Result<Gp, GpError> {
        let mut next = self.clone();
        next.append_observation(&x, y)?;
        Ok(next)
    }

    /// Appends one real observation in place in O(n²), reusing the
    /// selected hyperparameters and refreshing `alpha` — the paper's
    /// incremental retraining step. Every [`GpConfig::refit_every`]-th
    /// append runs the full grid search instead, so hyperparameters track
    /// the data at a bounded cadence. On error the GP is left unchanged.
    ///
    /// # Errors
    ///
    /// [`GpError::SingularKernel`] if the augmented kernel matrix cannot be
    /// factored for any hyperparameter choice.
    pub fn extend(&mut self, x: Vec<f64>, y: f64) -> Result<(), GpError> {
        let due = self.config.refit_every > 0 && self.since_refit + 1 >= self.config.refit_every;
        if !due {
            return self.append_observation(&x, y);
        }
        // Full re-selection over the grown training set, its pairwise
        // distances computed once for every candidate.
        let (xs, ys) = self.with_point(&x, y);
        let (y_mean, y_scale, y_std_units) = standardize(&ys);
        let (lml, kernel, chol, alpha) =
            Self::select_hyperparams(&pairwise_dists(&xs), &y_std_units, &self.config)
                .ok_or(GpError::SingularKernel)?;
        self.x = xs;
        self.y_raw = ys;
        self.y_mean = y_mean;
        self.y_scale = y_scale;
        self.kernel = kernel;
        self.chol = chol;
        self.alpha = alpha;
        self.lml = lml;
        self.since_refit = 0;
        Ok(())
    }

    /// Refits on a subset of the current data (used by leave-one-out
    /// anomaly detection and sliding-window retraining), keeping the
    /// selected hyperparameters.
    ///
    /// # Errors
    ///
    /// [`GpError::InsufficientData`] if fewer than two indices;
    /// [`GpError::SingularKernel`] on factorization failure.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn refit_subset(&self, keep: &[usize]) -> Result<Gp, GpError> {
        if keep.len() < 2 {
            return Err(GpError::InsufficientData);
        }
        let m = keep.len();
        let d = self.x.cols();
        let mut xdata = Vec::with_capacity(m * d);
        for &i in keep {
            xdata.extend_from_slice(self.x.row(i));
        }
        let xs = Matrix::from_vec(m, d, xdata);
        let ys: Vec<f64> = keep.iter().map(|&i| self.y_raw[i]).collect();
        let (y_mean, y_scale, y_std_units) = standardize(&ys);
        let (lml, chol, alpha) = Self::evaluate(&xs, &y_std_units, &self.kernel, self.noise)
            .ok_or(GpError::SingularKernel)?;
        Ok(Gp {
            x: xs,
            y_raw: ys,
            y_mean,
            y_scale,
            kernel: self.kernel,
            noise: self.noise,
            chol,
            alpha,
            lml,
            config: self.config.clone(),
            since_refit: 0,
        })
    }

    /// Convenience: i.i.d. standard-normal draws shaped for
    /// [`Gp::posterior_samples_at_train`].
    pub fn standard_normal_draws(&self, m: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        (0..m)
            .map(|_| (0..self.x.rows()).map(|_| rng.standard_normal()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_smooth_function() {
        let xs = grid_1d(12);
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin()).collect();
        let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
        for &t in &[0.15, 0.45, 0.85] {
            let (mean, _) = gp.predict(&[t]);
            assert!((mean - (3.0 * t).sin()).abs() < 0.05, "at {t}: {mean}");
        }
    }

    #[test]
    fn variance_shrinks_near_data() {
        let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
        let ys = vec![0.0, 1.0, 0.0];
        let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
        let (_, var_at_data) = gp.predict(&[0.5]);
        let (_, var_far) = gp.predict(&[0.25]);
        assert!(var_at_data < var_far, "{var_at_data} !< {var_far}");
    }

    #[test]
    fn predictions_in_original_units() {
        // Targets far from zero: standardization must round-trip.
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 50.0 * x[0]).collect();
        let gp = Gp::fit(xs.clone(), ys.clone(), GpConfig::default()).unwrap();
        let (mean, _) = gp.predict(&xs[3]);
        assert!((mean - ys[3]).abs() < 2.0, "{mean} vs {}", ys[3]);
    }

    #[test]
    fn rejects_insufficient_data() {
        assert_eq!(
            Gp::fit(vec![vec![0.0]], vec![1.0], GpConfig::default()).unwrap_err(),
            GpError::InsufficientData
        );
        assert_eq!(
            Gp::fit(vec![vec![0.0], vec![1.0]], vec![1.0], GpConfig::default()).unwrap_err(),
            GpError::InsufficientData
        );
    }

    #[test]
    fn lml_prefers_matching_lengthscale() {
        // Fast-varying data should select a short lengthscale.
        let xs = grid_1d(20);
        let fast: Vec<f64> = xs.iter().map(|x| (20.0 * x[0]).sin()).collect();
        let gp_fast = Gp::fit(xs.clone(), fast, GpConfig::default()).unwrap();
        let slow: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp_slow = Gp::fit(xs, slow, GpConfig::default()).unwrap();
        assert!(gp_fast.kernel().lengthscale() < gp_slow.kernel().lengthscale());
    }

    #[test]
    fn with_observation_updates_posterior() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0, 1.0];
        let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
        let (_, var_before) = gp.predict(&[0.5]);
        let gp2 = gp.with_observation(vec![0.5], 5.0).unwrap();
        let (mean_after, var_after) = gp2.predict(&[0.5]);
        assert!(var_after < var_before);
        assert!(
            mean_after > 1.0,
            "conditioning should pull the mean up: {mean_after}"
        );
        assert_eq!(gp2.len(), 3);
    }

    #[test]
    fn refit_subset_drops_points() {
        let xs = grid_1d(6);
        let ys = vec![0.0, 1.0, 2.0, 3.0, 4.0, 100.0]; // last point is junk
        let gp = Gp::fit(xs, ys, GpConfig::default()).unwrap();
        let clean = gp.refit_subset(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(clean.len(), 5);
        let (mean, _) = clean.predict(&[1.0]);
        assert!(mean < 20.0, "outlier removed, mean should be sane: {mean}");
    }

    #[test]
    fn posterior_samples_center_on_mean() {
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let gp = Gp::fit(xs, ys, GpConfig::with_noise(0.05)).unwrap();
        let mut rng = SimRng::seed(5);
        let z = gp.standard_normal_draws(300, &mut rng);
        let samples = gp.posterior_samples_at_train(&z);
        assert_eq!(samples.len(), 300);
        // Average over samples approximates the posterior mean at each point.
        for i in 0..gp.len() {
            let avg: f64 = samples.iter().map(|s| s[i]).sum::<f64>() / samples.len() as f64;
            let (mean, _) = gp.predict(gp.train_x().row(i));
            assert!((avg - mean).abs() < 0.15, "point {i}: {avg} vs {mean}");
        }
    }

    #[test]
    fn extend_with_refit_matches_fit_bitwise() {
        // refit_every = 1: every append reruns the grid search, so the
        // incremental GP must equal a from-scratch fit exactly.
        let mut rng = SimRng::seed(9);
        let xs: Vec<Vec<f64>> = (0..14)
            .map(|_| (0..3).map(|_| rng.uniform()).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().sum::<f64>() + rng.normal(0.0, 0.02))
            .collect();
        let cfg = GpConfig {
            refit_every: 1,
            ..GpConfig::with_noise(0.01)
        };
        let mut inc = Gp::fit(xs[..10].to_vec(), ys[..10].to_vec(), cfg.clone()).unwrap();
        for i in 10..14 {
            inc.extend(xs[i].clone(), ys[i]).unwrap();
        }
        let full = Gp::fit(xs.clone(), ys.clone(), cfg).unwrap();
        assert_eq!(inc.kernel(), full.kernel());
        assert_eq!(
            inc.log_marginal_likelihood().to_bits(),
            full.log_marginal_likelihood().to_bits()
        );
        for _ in 0..5 {
            let probe: Vec<f64> = (0..3).map(|_| rng.uniform()).collect();
            let (mi, vi) = inc.predict(&probe);
            let (mf, vf) = full.predict(&probe);
            assert_eq!(mi.to_bits(), mf.to_bits());
            assert_eq!(vi.to_bits(), vf.to_bits());
        }
    }

    #[test]
    fn extend_posterior_tracks_fit_within_tolerance() {
        // refit_every = 0: hyperparameters are frozen at the initial
        // selection, so the posterior may drift from a full refit — but
        // only within a small tolerance on smooth data.
        let mut rng = SimRng::seed(12);
        let xs: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 / 23.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (2.5 * x[0]).sin()).collect();
        let cfg = GpConfig {
            refit_every: 0,
            ..GpConfig::with_noise(0.01)
        };
        let mut inc = Gp::fit(xs[..16].to_vec(), ys[..16].to_vec(), cfg.clone()).unwrap();
        for i in 16..24 {
            inc.extend(xs[i].clone(), ys[i]).unwrap();
        }
        let full = Gp::fit(xs.clone(), ys.clone(), cfg).unwrap();
        assert_eq!(inc.len(), full.len());
        for _ in 0..10 {
            let t = rng.uniform();
            let (mi, vi) = inc.predict(&[t]);
            let (mf, vf) = full.predict(&[t]);
            assert!((mi - mf).abs() < 0.05, "mean drift at {t}: {mi} vs {mf}");
            assert!(
                (vi.sqrt() - vf.sqrt()).abs() < 0.05,
                "std drift at {t}: {vi} vs {vf}"
            );
        }
    }

    #[test]
    fn with_observation_bit_identical_to_full_refactorization() {
        // The rank-1 path must reproduce the exact (from-scratch) kernel
        // rebuild + refactorization the pre-fast-path code ran.
        let mut rng = SimRng::seed(21);
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..4).map(|_| rng.uniform()).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - x[2]).collect();
        let gp = Gp::fit(xs, ys, GpConfig::with_noise(0.02)).unwrap();
        let xnew: Vec<f64> = (0..4).map(|_| rng.uniform()).collect();
        let fast = gp.with_observation(xnew.clone(), 0.7).unwrap();

        let mut xdata = gp.train_x().as_slice().to_vec();
        xdata.extend_from_slice(&xnew);
        let xs2 = Matrix::from_vec(gp.len() + 1, 4, xdata);
        let mut ys2 = gp.train_y().to_vec();
        ys2.push(0.7);
        let (_, _, y_std) = standardize(&ys2);
        let (lml, chol, alpha) =
            Gp::evaluate(&xs2, &y_std, gp.kernel(), 0.02).expect("reference refit");
        assert_eq!(fast.log_marginal_likelihood().to_bits(), lml.to_bits());
        assert_eq!(fast.chol.factor(), chol.factor());
        for (a, b) in fast.alpha.iter().zip(&alpha) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The grid search as it ran before the symmetric factor pass: every
    /// entry of the distance matrix through `unit_factors`, one freshly
    /// allocated kernel matrix per candidate. Kept as the oracle.
    fn reference_select(
        dists: &Matrix,
        y: &[f64],
        config: &GpConfig,
    ) -> Option<(f64, Matern52, Cholesky, Vec<f64>)> {
        let n = dists.rows();
        let mut best: Option<(f64, Matern52, Cholesky, Vec<f64>)> = None;
        for &ls in &config.lengthscale_grid {
            let mut poly = Matrix::zeros(n, n);
            let mut decay = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let (p, e) = unit_factors(dists[(i, j)], ls);
                    poly[(i, j)] = p;
                    decay[(i, j)] = e;
                }
            }
            for &os in &config.outputscale_grid {
                let mut k = Matrix::from_fn(n, n, |i, j| (os * poly[(i, j)]) * decay[(i, j)]);
                k.add_diagonal(config.noise.max(1e-9));
                let Ok(chol) = Cholesky::new_with_jitter(&k) else {
                    continue;
                };
                let (lml, alpha) = Gp::marginal_likelihood(&chol, y);
                if best.as_ref().is_none_or(|(b, ..)| lml > *b) {
                    best = Some((lml, Matern52::new(ls, os), chol, alpha));
                }
            }
        }
        best
    }

    #[test]
    fn fit_bit_identical_to_full_matrix_factor_pass() {
        // Sizes 2..=80 with clustered points (near-duplicate rows, the
        // ill-conditioned kernels an online model sees) and a noisy target.
        let mut rng = SimRng::seed(77);
        for n in 2..=80 {
            let d = 1 + n % 4;
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..d)
                        .map(|_| (i % 7) as f64 / 7.0 + 1e-3 * rng.uniform())
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| x[0] + rng.normal(0.0, 0.3)).collect();
            let cfg = GpConfig::with_noise([1e-6, 1e-2][n % 2]);
            let gp = Gp::fit(xs, ys, cfg.clone()).expect("fits");
            let (_, _, y_std) = standardize(gp.train_y());
            let (lml, kernel, chol, alpha) =
                reference_select(&pairwise_dists(gp.train_x()), &y_std, &cfg).expect("fits");
            assert_eq!(*gp.kernel(), kernel, "n={n}");
            assert_eq!(gp.lml.to_bits(), lml.to_bits(), "n={n}");
            assert_eq!(gp.chol, chol, "n={n}");
            for (a, b) in gp.alpha.iter().zip(&alpha) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn extend_chains_many_points() {
        // Long extend chains (crossing several refit boundaries) stay
        // numerically sane and keep interpolating.
        let xs = grid_1d(30);
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).cos()).collect();
        let mut gp = Gp::fit(xs[..4].to_vec(), ys[..4].to_vec(), GpConfig::default()).unwrap();
        for i in 4..30 {
            gp.extend(xs[i].clone(), ys[i]).unwrap();
        }
        assert_eq!(gp.len(), 30);
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - (4.0f64 * 0.5).cos()).abs() < 0.05, "{mean}");
    }

    #[test]
    fn noise_config_controls_fit_tightness() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let tight = Gp::fit(xs.clone(), ys.clone(), GpConfig::with_noise(1e-6)).unwrap();
        let loose = Gp::fit(xs.clone(), ys, GpConfig::with_noise(1.0)).unwrap();
        // High noise smooths toward the mean; low noise interpolates.
        let (m_tight, _) = tight.predict(&xs[1]);
        let (m_loose, _) = loose.predict(&xs[1]);
        assert!(
            (m_tight - 1.0).abs() < 0.15,
            "tight fit should interpolate: {m_tight}"
        );
        assert!(
            (m_loose - 0.5).abs() < 0.4,
            "loose fit should shrink: {m_loose}"
        );
    }
}
