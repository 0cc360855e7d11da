//! Surrogate tiers: the common posterior interface the acquisition layer
//! optimizes over, and the sparse (inducing-point) tier that keeps
//! proposal cost bounded at service scale.
//!
//! The exact [`Gp`] is O(n³) to fit and O(n²) per prediction; a
//! long-running control plane accumulating thousands of observations per
//! function needs a surrogate whose per-proposal cost does not grow with
//! the observation count. [`SparseGp`] is that tier: a
//! subset-of-regressors / deterministic-training-conditional (DTC)
//! approximation over `m ≪ n` inducing points chosen by deterministic
//! greedy farthest-point selection. All O(n) work happens once at fit
//! time (the `n × m` cross-kernel matrix is built by the blocked
//! [`aqua_linalg::gemm()`] engine with runtime SIMD dispatch); predictions,
//! posterior sampling, and fantasy conditioning are O(m²) regardless of
//! how many observations the model has absorbed. A caller that refits a
//! growing window keeps a [`DtcBasis`], which pays the O(n) work only for
//! rows appended since its last fit while the inducing set holds.
//!
//! # Accuracy contract
//!
//! With the same kernel and noise, the DTC posterior is *algebraically
//! identical* to the exact GP when the inducing set equals the training
//! set (`m = n`) — the tier boundary introduces no approximation until
//! the inducing set is actually a subset. With `m < n` on data the kernel
//! resolves (lengthscale not far below inducing-point spacing), the
//! sparse posterior mean and standard deviation stay within a few percent
//! of the exact GP's in standardized units; `tests/surrogate_contract.rs`
//! enforces both halves with proptest. Variance uses the DTC form, which
//! reverts to the prior away from the inducing set instead of collapsing
//! to zero like plain subset-of-regressors.
//!
//! # Determinism
//!
//! Inducing selection, kernel-matrix construction, and every solve are
//! deterministic: greedy selection breaks ties toward the lowest index,
//! and the gemm kernels contract in fixed increasing-`k` order per output
//! element regardless of SIMD tier. The exact tier is untouched by this
//! module — golden traces on the exact-tier path stay byte-identical.

use aqua_linalg::{gemm, gemm_tn, pack_transpose, Cholesky, Matrix};

use crate::gp::{points_to_matrix, standardize, Gp, GpConfig, GpError};
use crate::kernel::{euclidean, Matern52};

/// The posterior interface shared by the exact and sparse tiers — what
/// the acquisition layer needs and nothing more.
///
/// `posterior_samples_at_support` draws joint posterior samples at the
/// model's *support set* (training points for the exact tier, inducing
/// points for the sparse tier); noisy-EI incumbent sampling integrates
/// over these. `fantasized` conditions on one (possibly hallucinated)
/// observation without changing hyperparameters — the Kriging-believer
/// step of batch proposal.
pub trait Surrogate: Clone + Send + Sync {
    /// Observations the model is conditioned on (fantasies included).
    fn num_train(&self) -> usize;

    /// Size of the support set posterior samples are drawn over.
    fn support_len(&self) -> usize;

    /// Posterior `(mean, variance)` of the latent function at `x`, in
    /// original target units.
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// Posterior `(mean, variance)` at many points. Implementations must
    /// return exactly what point-wise [`Surrogate::predict`] calls would.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Joint posterior samples of the latent function at the support set,
    /// one per row of standard-normal draws `z[k][support_len()]`, in
    /// original units.
    fn posterior_samples_at_support(&self, z: &[Vec<f64>]) -> Vec<Vec<f64>>;

    /// The model conditioned on one extra observation, keeping
    /// hyperparameters; `None` if conditioning fails.
    fn fantasized(&self, x: Vec<f64>, y: f64) -> Option<Self>;
}

impl Surrogate for Gp {
    fn num_train(&self) -> usize {
        self.len()
    }

    fn support_len(&self) -> usize {
        self.len()
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        Gp::predict(self, x)
    }

    fn posterior_samples_at_support(&self, z: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.posterior_samples_at_train(z)
    }

    fn fantasized(&self, x: Vec<f64>, y: f64) -> Option<Self> {
        self.with_observation(x, y).ok()
    }
}

/// Configuration for [`SparseGp::fit_auto`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGpConfig {
    /// Number of inducing points `m` (capped at the training size).
    pub inducing: usize,
    /// Exact-GP config whose noise and hyperparameter grids drive kernel
    /// selection (on the inducing subset) and the DTC noise term.
    pub gp: GpConfig,
}

impl Default for SparseGpConfig {
    fn default() -> Self {
        SparseGpConfig {
            inducing: 64,
            gp: GpConfig::default(),
        }
    }
}

/// The sparse surrogate tier: a DTC inducing-point GP with O(m²) cost
/// per prediction and per absorbed observation.
///
/// Posterior, with `U` the inducing rows, `K_uu = k(U, U)`,
/// `K_fu = k(X, U)`, `A = σ² K_uu + K_fuᵀ K_fu`, `w = A⁻¹ K_fuᵀ y`:
///
/// * mean: `k_u(x)ᵀ w`
/// * variance: `k(x,x) − k_u(x)ᵀ K_uu⁻¹ k_u(x) + σ² k_u(x)ᵀ A⁻¹ k_u(x)`
///
/// `A`'s Cholesky factor grows by one rank-1 update
/// ([`Cholesky::rank_one_update_in_place`], O(m²)) per absorbed or fantasized
/// observation, so the model never refactors on the hot path.
#[derive(Debug, Clone)]
pub struct SparseGp {
    /// Inducing inputs, one per row (`m × d`).
    u: Matrix,
    /// Indices of the inducing rows in the training matrix they were
    /// selected from.
    inducing_idx: Vec<usize>,
    /// Squared norms of the inducing rows, in gemm summation order.
    unorms: Vec<f64>,
    kernel: Matern52,
    noise: f64,
    /// Factor of `K_uu` (+ recorded jitter).
    chol_uu: Cholesky,
    /// Factor of `A = σ² K_uu + K_fuᵀ K_fu` (+ recorded jitter).
    chol_a: Cholesky,
    /// RHS `K_fuᵀ y` in standardized units; grows with absorbed points.
    b: Vec<f64>,
    /// `A⁻¹ b` — the weight vector behind the posterior mean.
    w: Vec<f64>,
    /// Factor of the support-set posterior covariance
    /// `σ² K_uu A⁻¹ K_uu`, cached at fit time for O(m²) incumbent
    /// sampling; `None` when degenerate (sampling falls back to the
    /// mean). Fantasy conditioning reuses the base factor — fantasies
    /// move the incumbent mean, and keeping the slightly wider base
    /// covariance is conservative.
    support_chol: Option<Cholesky>,
    /// `K_uu` rows, kept for support-mean evaluation (`K_uu w`).
    kuu: Matrix,
    y_mean: f64,
    y_scale: f64,
    n_obs: usize,
}

/// Squared distance from cached squared norms and an in-order dot
/// product. One shared expression so the scalar and gemm-blocked paths
/// round identically.
#[inline]
fn normed_sq_dist(xn: f64, un: f64, dot: f64) -> f64 {
    ((xn + un) - 2.0 * dot).max(0.0)
}

/// Squared norm of a point with gemm's increasing-index accumulation
/// order.
#[inline]
fn sq_norm(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in x {
        acc += v * v;
    }
    acc
}

/// Row `i` of a flat row-major matrix with rows `d` wide.
#[inline]
fn row(x: &[f64], d: usize, i: usize) -> &[f64] {
    &x[i * d..(i + 1) * d]
}

/// Greedy farthest-point selection over the `n` rows of flat `x`: start
/// from row 0, repeatedly add the row with the largest distance to the
/// chosen set, ties toward the lowest index. Deterministic, O(n·m)
/// distance evaluations. Returns the chosen rows and, per step `j ≥ 1`,
/// the distance that won it (`gaps[j - 1]`).
fn select_inducing(x: &[f64], d: usize, n: usize, m: usize) -> (Vec<usize>, Vec<f64>) {
    let m = m.min(n);
    let mut chosen = Vec::with_capacity(m);
    let mut gaps = Vec::with_capacity(m.saturating_sub(1));
    if m == 0 {
        return (chosen, gaps);
    }
    chosen.push(0);
    // min_d[i]: distance from row i to the nearest chosen row so far.
    let mut min_d: Vec<f64> = (0..n)
        .map(|i| euclidean(row(x, d, i), row(x, d, 0)))
        .collect();
    while chosen.len() < m {
        let mut best = 0;
        let mut best_d = f64::NEG_INFINITY;
        for (i, &dist) in min_d.iter().enumerate() {
            if dist > best_d {
                best_d = dist;
                best = i;
            }
        }
        chosen.push(best);
        gaps.push(best_d);
        for (i, md) in min_d.iter_mut().enumerate() {
            let dist = euclidean(row(x, d, i), row(x, d, best));
            if dist < *md {
                *md = dist;
            }
        }
    }
    (chosen, gaps)
}

/// What a [`DtcBasis`] derived from the greedy selection over its first
/// `rows` rows. It stays valid, and can be extended, for as long as no
/// earlier row changes and no appended row would win a greedy step.
#[derive(Debug, Clone)]
struct Folded {
    /// Rows `K_fu` and `a` cover.
    rows: usize,
    /// Selected row indices, and the distance that won each step after
    /// the first (see [`select_inducing`]).
    chosen: Vec<usize>,
    gaps: Vec<f64>,
    /// Inducing inputs `U` (`m × d`), their packed transpose for the
    /// `X·Uᵀ` gemm, and their squared norms.
    u: Matrix,
    ut: Vec<f64>,
    unorms: Vec<f64>,
    /// `K_uu` plus the jitter `chol_uu` needed, and that factor.
    kuu: Matrix,
    chol_uu: Cholesky,
    /// `A = σ² K_uu + K_fuᵀ K_fu` over the covered rows.
    a: Matrix,
}

/// The reusable fit state behind a [`SparseGp`]: the training rows with
/// their norms and targets, the greedy inducing selection with the
/// distance that won each step, `U`, the jittered `K_uu` and its factor,
/// the `n × m` cross-kernel `K_fu` and the partial
/// `A = σ² K_uu + K_fuᵀ K_fu`.
///
/// Rows are appended with [`DtcBasis::push`] and retired from the front
/// with [`DtcBasis::drop_front`]; [`DtcBasis::fit`] returns the model over
/// every row held. [`SparseGp::fit`] is a basis built over all rows and
/// fit once, so the two share one derivation.
///
/// # Rebuild contract
///
/// A fit checks the rows appended since the last one. Greedy selection
/// is unchanged iff, at every step `j`, each appended row's running
/// minimum distance to `chosen[0..j]` is at most the distance that won
/// step `j`: appended rows come after every earlier row, and the scan
/// takes the first strict maximum, so an equal distance never wins. When
/// the selection holds, only the appended rows' `K_fu` entries are
/// computed, and `gemm_tn` continues into the cached `A` — it contracts
/// rows in order starting from the value in its output, so old rows then
/// new rows round exactly as all rows at once. `b = K_fuᵀ y_std` is
/// recomputed over all rows, because the target standardization moves.
/// Otherwise (an appended row wins a step, the front of the window moved,
/// fewer rows than the requested inducing count were held, or the last
/// derivation failed) everything is derived again, reusing the `K_fu`
/// buffer. Both paths give the bits a from-scratch
/// [`SparseGp::fit`] over the same rows gives.
#[derive(Debug, Clone)]
pub struct DtcBasis {
    kernel: Matern52,
    /// DTC noise `σ²`, floored as [`SparseGp::fit`] documents.
    sigma2: f64,
    /// Requested inducing-set size (capped at the row count).
    inducing: usize,
    /// Row width, fixed by the first row.
    d: usize,
    /// Training rows (flat, row-major), squared norms and targets.
    x: Vec<f64>,
    xnorms: Vec<f64>,
    y: Vec<f64>,
    /// `K_fu` over the folded rows, row-major `rows × m`. Kept across
    /// re-derivations as a buffer.
    kfu: Vec<f64>,
    /// `None` until the first fit, after a front drop, or after a failed
    /// derivation.
    folded: Option<Folded>,
}

impl DtcBasis {
    /// An empty basis for the given kernel, noise and inducing-set size.
    pub fn new(kernel: Matern52, noise: f64, inducing: usize) -> Self {
        DtcBasis {
            kernel,
            sigma2: noise.max(1e-9),
            inducing,
            d: 0,
            x: Vec::new(),
            xnorms: Vec::new(),
            y: Vec::new(),
            kfu: Vec::new(),
            folded: None,
        }
    }

    /// Number of training rows held.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True if no rows are held.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Appends one training row; folded into the model at the next
    /// [`DtcBasis::fit`].
    ///
    /// # Panics
    ///
    /// Panics if `x` differs in width from the first row.
    pub fn push(&mut self, x: &[f64], y: f64) {
        if self.y.is_empty() {
            self.d = x.len();
        }
        assert_eq!(x.len(), self.d, "ragged training points");
        self.x.extend_from_slice(x);
        self.xnorms.push(sq_norm(x));
        self.y.push(y);
    }

    /// Retires the `k` oldest rows (all of them if fewer are held). The
    /// next fit re-derives: selection starts from the first row.
    pub fn drop_front(&mut self, k: usize) {
        let k = k.min(self.len());
        self.x.drain(..k * self.d);
        self.xnorms.drain(..k);
        self.y.drain(..k);
        self.folded = None;
    }

    /// The DTC model over every row held, extending the cached fold when
    /// the greedy selection provably holds and re-deriving it otherwise
    /// (see the type's rebuild contract).
    ///
    /// # Errors
    ///
    /// As [`SparseGp::fit`].
    pub fn fit(&mut self) -> Result<SparseGp, GpError> {
        let folded = self.refold()?;
        let model = self.model(&folded);
        self.folded = Some(folded);
        model
    }

    fn row(&self, i: usize) -> &[f64] {
        row(&self.x, self.d, i)
    }

    /// A fold covering every row: the cached one extended when it holds,
    /// a fresh derivation otherwise.
    fn refold(&mut self) -> Result<Folded, GpError> {
        let n = self.len();
        if n < 2 || self.inducing < 2 {
            return Err(GpError::InsufficientData);
        }
        match self.folded.take() {
            Some(mut f) if self.holds(&f) => {
                self.fold_rows(&mut f);
                Ok(f)
            }
            _ => self.derive(),
        }
    }

    /// Whether greedy selection over all rows picks `f.chosen` again.
    fn holds(&self, f: &Folded) -> bool {
        f.chosen.len() == self.inducing.min(self.len())
            && (f.rows..self.len()).all(|r| {
                let x = self.row(r);
                let mut md = euclidean(x, self.row(f.chosen[0]));
                for (&c, &gap) in f.chosen[1..].iter().zip(&f.gaps) {
                    if md > gap {
                        return false;
                    }
                    let dist = euclidean(x, self.row(c));
                    if dist < md {
                        md = dist;
                    }
                }
                true
            })
    }

    /// Selects the inducing set over all rows, factors `K_uu` and folds
    /// every row into a fresh `A`.
    fn derive(&mut self) -> Result<Folded, GpError> {
        let (n, d) = (self.len(), self.d);
        let (chosen, gaps) = select_inducing(&self.x, d, n, self.inducing);
        let m = chosen.len();
        let mut udata = Vec::with_capacity(m * d);
        for &i in &chosen {
            udata.extend_from_slice(self.row(i));
        }
        let u = Matrix::from_vec(m, d, udata);

        // K_uu from direct pairwise distances (m², small).
        let mut kuu = Matrix::from_fn(m, m, |i, j| self.kernel.eval(u.row(i), u.row(j)));
        let chol_uu = Cholesky::new_with_jitter(&kuu).map_err(|_| GpError::SingularKernel)?;
        // Record the jitter K_uu actually carries so A is built from the
        // same (factorable) matrix the uu-solves see.
        kuu.add_diagonal(chol_uu.jitter());

        let unorms = chosen.iter().map(|&i| self.xnorms[i]).collect();
        let mut ut = vec![0.0; d * m];
        pack_transpose(m, d, u.as_slice(), &mut ut);
        let a = Matrix::from_fn(m, m, |i, j| self.sigma2 * kuu[(i, j)]);
        let mut f = Folded {
            rows: 0,
            chosen,
            gaps,
            u,
            ut,
            unorms,
            kuu,
            chol_uu,
            a,
        };
        self.fold_rows(&mut f);
        Ok(f)
    }

    /// Folds rows `f.rows..` into `f`: their `K_fu` rows through the
    /// blocked gemm engine (squared distances from norms plus one `X·Uᵀ`
    /// product, kernel applied elementwise), then `A += K_fuᵀ K_fu` over
    /// them by the in-order `gemm_tn` kernel.
    fn fold_rows(&mut self, f: &mut Folded) {
        let (n, d, m) = (self.len(), self.d, f.chosen.len());
        let from = f.rows;
        self.kfu.resize(n * m, 0.0);
        let new = &mut self.kfu[from * m..];
        gemm(n - from, m, d, &self.x[from * d..], &f.ut, new);
        for (krow, &xn) in new.chunks_exact_mut(m).zip(&self.xnorms[from..]) {
            for (k, &un) in krow.iter_mut().zip(&f.unorms) {
                let sq = normed_sq_dist(xn, un, *k);
                *k = self.kernel.eval_dist(sq.sqrt());
            }
        }
        gemm_tn(n - from, m, m, new, new, f.a.as_mut_slice());
        f.rows = n;
    }

    /// The model over a fold covering every row: `b = K_fuᵀ y_std` under
    /// the current standardization, then `A`'s factor and the weights.
    fn model(&self, f: &Folded) -> Result<SparseGp, GpError> {
        let (n, m) = (self.len(), f.chosen.len());
        let (y_mean, y_scale, y_std) = standardize(&self.y);
        let mut b = vec![0.0; m];
        gemm_tn(n, m, 1, &self.kfu, &y_std, &mut b);
        let chol_a = Cholesky::new_with_jitter(&f.a).map_err(|_| GpError::SingularKernel)?;
        let w = chol_a.solve_vec(&b);
        let support_chol = SparseGp::support_factor(&f.kuu, &chol_a, self.sigma2);
        Ok(SparseGp {
            u: f.u.clone(),
            inducing_idx: f.chosen.clone(),
            unorms: f.unorms.clone(),
            kernel: self.kernel,
            noise: self.sigma2,
            chol_uu: f.chol_uu.clone(),
            chol_a,
            b,
            w,
            support_chol,
            kuu: f.kuu.clone(),
            y_mean,
            y_scale,
            n_obs: n,
        })
    }
}

impl SparseGp {
    /// Fits the sparse tier on `n × d` training data with a given kernel
    /// and noise (e.g. inherited from the exact GP at a tier switch).
    /// `m` inducing points are selected greedily; `m ≥ n` degenerates to
    /// the full training set, where the DTC posterior equals the exact
    /// GP's. The noise is floored at `1e-9`. This is a [`DtcBasis`] over
    /// all rows, fit once; keep the basis instead to refit a growing row
    /// set without starting over.
    ///
    /// # Errors
    ///
    /// [`GpError::InsufficientData`] for fewer than 2 points, fewer than 2
    /// inducing points or mismatched lengths; [`GpError::SingularKernel`]
    /// if a factorization fails even with jitter.
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        kernel: Matern52,
        noise: f64,
        m: usize,
    ) -> Result<Self, GpError> {
        if x.rows() != y.len() {
            return Err(GpError::InsufficientData);
        }
        let mut basis = DtcBasis::new(kernel, noise, m);
        for (i, &yi) in y.iter().enumerate() {
            basis.push(x.row(i), yi);
        }
        basis.fit()
    }

    /// Fits the sparse tier end to end: selects kernel hyperparameters by
    /// exact-GP grid search *on the inducing subset* (O(m³) per
    /// candidate, deterministic), then builds the DTC model over all `n`
    /// points with the selected kernel.
    ///
    /// # Errors
    ///
    /// As [`SparseGp::fit`].
    pub fn fit_auto(x: &Matrix, y: &[f64], config: &SparseGpConfig) -> Result<Self, GpError> {
        let n = x.rows();
        if n < 2 || n != y.len() {
            return Err(GpError::InsufficientData);
        }
        let d = x.cols();
        let (idx, _) = select_inducing(x.as_slice(), d, n, config.inducing);
        let mut sub_x = Vec::with_capacity(idx.len() * d);
        let mut sub_y = Vec::with_capacity(idx.len());
        for &i in &idx {
            sub_x.extend_from_slice(x.row(i));
            sub_y.push(y[i]);
        }
        let pilot = Gp::fit_flat(
            Matrix::from_vec(idx.len(), d, sub_x),
            sub_y,
            config.gp.clone(),
        )?;
        Self::fit(x, y, *pilot.kernel(), config.gp.noise, config.inducing)
    }

    /// As [`SparseGp::fit_auto`], from per-point vectors.
    ///
    /// # Errors
    ///
    /// As [`SparseGp::fit`].
    ///
    /// # Panics
    ///
    /// Panics if the points are ragged.
    pub fn fit_auto_points(
        x: &[Vec<f64>],
        y: &[f64],
        config: &SparseGpConfig,
    ) -> Result<Self, GpError> {
        Self::fit_auto(&points_to_matrix(x), y, config)
    }

    /// Builds the sparse tier from per-point vectors (convenience mirror
    /// of [`Gp::fit`]).
    ///
    /// # Errors
    ///
    /// As [`SparseGp::fit`].
    ///
    /// # Panics
    ///
    /// Panics if the points are ragged.
    pub fn fit_points(
        x: &[Vec<f64>],
        y: &[f64],
        kernel: Matern52,
        noise: f64,
        m: usize,
    ) -> Result<Self, GpError> {
        Self::fit(&points_to_matrix(x), y, kernel, noise, m)
    }

    /// Factor of the support-set posterior covariance
    /// `σ² K_uu A⁻¹ K_uu`, or `None` when it is numerically degenerate.
    fn support_factor(kuu: &Matrix, chol_a: &Cholesky, sigma2: f64) -> Option<Cholesky> {
        let s = chol_a.solve_matrix(kuu);
        let mut cov = kuu.matmul(&s).scale(sigma2);
        let m = kuu.rows();
        for i in 0..m {
            for j in 0..i {
                let v = (cov[(i, j)] + cov[(j, i)]) / 2.0;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        Cholesky::new_with_jitter(&cov).ok()
    }

    /// Cross-kernel row `k_u(x)` with the same rounding as the blocked
    /// batch path: squared norms plus an in-order dot product.
    fn kstar(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.u.cols(), "dimension mismatch");
        let xn = sq_norm(x);
        let m = self.u.rows();
        let mut k = Vec::with_capacity(m);
        for i in 0..m {
            let urow = self.u.row(i);
            let mut dot = 0.0;
            for (a, b) in x.iter().zip(urow) {
                dot += a * b;
            }
            let sq = normed_sq_dist(xn, self.unorms[i], dot);
            k.push(self.kernel.eval_dist(sq.sqrt()));
        }
        k
    }

    /// Posterior `(mean, variance)` in standardized units from a
    /// cross-kernel row.
    fn predict_std_from_kstar(&self, kx: &[f64]) -> (f64, f64) {
        let mean: f64 = kx.iter().zip(&self.w).map(|(a, b)| a * b).sum();
        let v1 = self.chol_uu.forward_solve(kx);
        let v2 = self.chol_a.forward_solve(kx);
        let qff: f64 = v1.iter().map(|v| v * v).sum();
        let av: f64 = v2.iter().map(|v| v * v).sum();
        let var = (self.kernel.eval_dist(0.0) - qff + self.noise * av).max(0.0);
        (mean, var)
    }

    /// Number of inducing points `m`.
    pub fn support_size(&self) -> usize {
        self.u.rows()
    }

    /// Observations conditioned on (fantasies included).
    pub fn len(&self) -> usize {
        self.n_obs
    }

    /// True if no observations were absorbed (never constructible; kept
    /// for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n_obs == 0
    }

    /// Indices of the inducing rows in the training set the model was
    /// fit from.
    pub fn inducing_indices(&self) -> &[usize] {
        &self.inducing_idx
    }

    /// Posterior mean and variance of the latent function at `x`, in
    /// original units — O(m²).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let kx = self.kstar(x);
        let (mean, var) = self.predict_std_from_kstar(&kx);
        (
            mean * self.y_scale + self.y_mean,
            var * self.y_scale * self.y_scale,
        )
    }

    /// Posterior mean/variance at many points through the blocked
    /// engine: one gemm builds every cross-kernel row, one multi-RHS
    /// forward solve per factor covers all variances. Identical results
    /// to point-wise [`SparseGp::predict`] (the gemm kernels contract in
    /// the same in-order sequence the scalar path uses).
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let nb = xs.len();
        if nb == 0 {
            return Vec::new();
        }
        let d = self.u.cols();
        let m = self.u.rows();
        let c = points_to_matrix(xs);
        assert_eq!(c.cols(), d, "dimension mismatch");
        let cnorms: Vec<f64> = (0..nb).map(|i| sq_norm(c.row(i))).collect();
        let mut ut = vec![0.0; d * m];
        pack_transpose(m, d, self.u.as_slice(), &mut ut);
        let mut kstar = vec![0.0; nb * m];
        gemm(nb, m, d, c.as_slice(), &ut, &mut kstar);
        for i in 0..nb {
            for j in 0..m {
                let sq = normed_sq_dist(cnorms[i], self.unorms[j], kstar[i * m + j]);
                kstar[i * m + j] = self.kernel.eval_dist(sq.sqrt());
            }
        }
        // Means: K* w. Variances: multi-RHS forward solves over K*ᵀ.
        let kstar_m = Matrix::from_vec(nb, m, kstar);
        let means = kstar_m.matvec(&self.w);
        let kt = kstar_m.transpose();
        let v1 = self.chol_uu.forward_solve_matrix(&kt);
        let v2 = self.chol_a.forward_solve_matrix(&kt);
        let prior = self.kernel.eval_dist(0.0);
        (0..nb)
            .map(|i| {
                let mut qff = 0.0;
                let mut av = 0.0;
                for r in 0..m {
                    qff += v1[(r, i)] * v1[(r, i)];
                    av += v2[(r, i)] * v2[(r, i)];
                }
                let var = (prior - qff + self.noise * av).max(0.0);
                (
                    means[i] * self.y_scale + self.y_mean,
                    var * self.y_scale * self.y_scale,
                )
            })
            .collect()
    }

    /// Absorbs one observation in place: `A += k_u(x) k_u(x)ᵀ` by a
    /// rank-1 Cholesky update, `b += k_u(x)·y`, `w` re-solved — O(m²),
    /// independent of how many observations came before. Target
    /// standardization stays frozen at the last fit (the online tier
    /// refits periodically to track drift).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn absorb(&mut self, x: &[f64], y: f64) {
        let kx = self.kstar(x);
        let y_std = (y - self.y_mean) / self.y_scale;
        self.chol_a.rank_one_update_in_place(&kx);
        for (bi, ki) in self.b.iter_mut().zip(&kx) {
            *bi += ki * y_std;
        }
        self.w = self.chol_a.solve_vec(&self.b);
        self.n_obs += 1;
    }

    /// Joint posterior samples at the inducing points (mean `K_uu w`,
    /// covariance `σ² K_uu A⁻¹ K_uu` factored at fit time), in original
    /// units. Falls back to the mean when the covariance factor is
    /// degenerate.
    ///
    /// # Panics
    ///
    /// Panics if any `z` row is not `support_size()` long.
    pub fn posterior_samples_at_support(&self, z: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mean_std = self.kuu.matvec(&self.w);
        match &self.support_chol {
            Some(factor) => z
                .iter()
                .map(|zrow| {
                    assert_eq!(
                        zrow.len(),
                        self.u.rows(),
                        "z row length must equal support size"
                    );
                    let corr = factor.correlate(zrow);
                    mean_std
                        .iter()
                        .zip(&corr)
                        .map(|(m, c)| (m + c) * self.y_scale + self.y_mean)
                        .collect()
                })
                .collect(),
            None => z
                .iter()
                .map(|_| {
                    mean_std
                        .iter()
                        .map(|m| m * self.y_scale + self.y_mean)
                        .collect()
                })
                .collect(),
        }
    }
}

impl Surrogate for SparseGp {
    fn num_train(&self) -> usize {
        self.len()
    }

    fn support_len(&self) -> usize {
        self.support_size()
    }

    fn predict(&self, x: &[f64]) -> (f64, f64) {
        SparseGp::predict(self, x)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        SparseGp::predict_batch(self, xs)
    }

    fn posterior_samples_at_support(&self, z: &[Vec<f64>]) -> Vec<Vec<f64>> {
        SparseGp::posterior_samples_at_support(self, z)
    }

    fn fantasized(&self, x: Vec<f64>, y: f64) -> Option<Self> {
        let mut next = self.clone();
        next.absorb(&x, y);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::SimRng;

    fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = SimRng::seed(seed);
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            data.push(rng.uniform());
        }
        let x = Matrix::from_vec(n, d, data);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let r = x.row(i);
                (3.0 * r[0]).sin() + r[1..].iter().sum::<f64>() + rng.normal(0.0, 0.01)
            })
            .collect();
        (x, y)
    }

    #[test]
    fn inducing_selection_is_deterministic_and_distinct() {
        let (x, _) = dataset(40, 3, 1);
        let (a, gaps) = select_inducing(x.as_slice(), 3, 40, 12);
        let (b, _) = select_inducing(x.as_slice(), 3, 40, 12);
        assert_eq!(a, b);
        assert_eq!(
            gaps.len(),
            11,
            "one winning distance per step after the first"
        );
        assert!(
            gaps.windows(2).all(|g| g[1] <= g[0]),
            "farthest-point gaps never grow: {gaps:?}"
        );
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 12, "indices must be distinct");
        assert_eq!(a[0], 0, "selection starts at row 0");
    }

    /// One fit of `basis`, which must carry a from-scratch fit's bits;
    /// true if it extended the cached fold rather than re-deriving it.
    fn fit_matches_scratch(basis: &mut DtcBasis) -> bool {
        let extends = basis.folded.as_ref().is_some_and(|f| basis.holds(f));
        let model = basis.fit().unwrap();
        let x = Matrix::from_vec(basis.len(), basis.d, basis.x.clone());
        let scratch = SparseGp::fit(&x, &basis.y, basis.kernel, 0.01, basis.inducing).unwrap();
        assert_eq!(model.inducing_indices(), scratch.inducing_indices());
        for i in 0..x.rows() {
            let (got, want) = (model.predict(x.row(i)), scratch.predict(x.row(i)));
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "mean at row {i}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "var at row {i}");
        }
        extends
    }

    #[test]
    fn basis_extends_while_selection_holds_and_rederives_otherwise() {
        let (x, y) = dataset(40, 3, 29);
        let mut basis = DtcBasis::new(Matern52::new(0.5, 1.0), 0.01, 8);
        let push = |basis: &mut DtcBasis, rows: std::ops::Range<usize>, dy: f64| {
            for i in rows {
                basis.push(x.row(i), y[i] + dy);
            }
        };
        push(&mut basis, 0..30, 0.0);
        assert!(!fit_matches_scratch(&mut basis));
        // Copies of held rows are never farther from a chosen prefix than
        // the row that won that step.
        push(&mut basis, 0..10, 0.25);
        assert!(fit_matches_scratch(&mut basis));
        assert!(fit_matches_scratch(&mut basis));
        // A point outside the unit cube beats the first recorded gap.
        basis.push(&[3.0, -2.0, 3.0], 1.0);
        assert!(!fit_matches_scratch(&mut basis));
        push(&mut basis, 30..40, 0.0);
        fit_matches_scratch(&mut basis);
        // Selection starts from the first row, which just changed.
        basis.drop_front(7);
        assert!(!fit_matches_scratch(&mut basis));
        assert_eq!(basis.len(), 44);
    }

    #[test]
    fn full_support_matches_exact_gp() {
        // m = n: the DTC posterior is algebraically the exact posterior.
        let (x, y) = dataset(24, 3, 3);
        let exact = Gp::fit_flat(x.clone(), y.clone(), GpConfig::with_noise(0.01)).unwrap();
        let sparse = SparseGp::fit(&x, &y, *exact.kernel(), 0.01, x.rows()).unwrap();
        let mut rng = SimRng::seed(5);
        for _ in 0..20 {
            let p: Vec<f64> = (0..3).map(|_| rng.uniform()).collect();
            let (me, ve) = Gp::predict(&exact, &p);
            let (ms, vs) = SparseGp::predict(&sparse, &p);
            assert!((me - ms).abs() < 1e-5, "mean {me} vs {ms}");
            assert!(
                (ve.sqrt() - vs.sqrt()).abs() < 1e-4,
                "std {} vs {}",
                ve.sqrt(),
                vs.sqrt()
            );
        }
    }

    #[test]
    fn batch_predict_matches_pointwise_bitwise() {
        let (x, y) = dataset(50, 4, 7);
        let sparse = SparseGp::fit(&x, &y, Matern52::new(0.5, 1.0), 0.01, 16).unwrap();
        let mut rng = SimRng::seed(9);
        let pts: Vec<Vec<f64>> = (0..13)
            .map(|_| (0..4).map(|_| rng.uniform()).collect())
            .collect();
        let batch = SparseGp::predict_batch(&sparse, &pts);
        for (i, p) in pts.iter().enumerate() {
            let (m, v) = SparseGp::predict(&sparse, p);
            assert_eq!(batch[i].0.to_bits(), m.to_bits(), "mean {i}");
            assert_eq!(batch[i].1.to_bits(), v.to_bits(), "var {i}");
        }
    }

    #[test]
    fn absorb_matches_refit_within_tolerance() {
        // Rank-1 absorption ≈ rebuilding the model with the point in the
        // training set (same inducing set, frozen standardization aside).
        let (x, y) = dataset(40, 3, 11);
        let kernel = Matern52::new(0.6, 1.0);
        let mut inc = SparseGp::fit(&x, &y, kernel, 0.05, 40).unwrap();
        let mut rng = SimRng::seed(13);
        let xnew: Vec<f64> = (0..3).map(|_| rng.uniform()).collect();
        let ynew = 1.1;
        inc.absorb(&xnew, ynew);
        assert_eq!(inc.len(), 41);

        let mut x2 = x.as_slice().to_vec();
        x2.extend_from_slice(&xnew);
        let x2 = Matrix::from_vec(41, 3, x2);
        let mut y2 = y.clone();
        y2.push(ynew);
        // Same inducing set: the first 40 rows are unchanged and m = 40
        // selects greedily among all 41; rebuild with m = 40 may pick the
        // new point, so compare predictions, not internals.
        let rebuilt = SparseGp::fit(&x2, &y2, kernel, 0.05, 40).unwrap();
        for _ in 0..10 {
            let p: Vec<f64> = (0..3).map(|_| rng.uniform()).collect();
            let (mi, _) = SparseGp::predict(&inc, &p);
            let (mr, _) = SparseGp::predict(&rebuilt, &p);
            assert!((mi - mr).abs() < 0.1, "{mi} vs {mr}");
        }
    }

    #[test]
    fn support_samples_center_on_support_mean() {
        let (x, y) = dataset(30, 3, 17);
        let sparse = SparseGp::fit(&x, &y, Matern52::new(0.5, 1.0), 0.05, 12).unwrap();
        let m = sparse.support_size();
        let mut rng = SimRng::seed(19);
        let z: Vec<Vec<f64>> = (0..400)
            .map(|_| (0..m).map(|_| rng.standard_normal()).collect())
            .collect();
        let samples = SparseGp::posterior_samples_at_support(&sparse, &z);
        assert_eq!(samples.len(), 400);
        let mean_std = sparse.kuu.matvec(&sparse.w);
        for i in 0..m {
            let avg: f64 = samples.iter().map(|s| s[i]).sum::<f64>() / samples.len() as f64;
            let want = mean_std[i] * sparse.y_scale + sparse.y_mean;
            assert!(
                (avg - want).abs() < 0.2,
                "support point {i}: {avg} vs {want}"
            );
        }
    }

    #[test]
    fn fit_auto_selects_reasonable_kernel() {
        let (x, y) = dataset(60, 3, 23);
        let cfg = SparseGpConfig {
            inducing: 20,
            gp: GpConfig::with_noise(0.01),
        };
        let sparse = SparseGp::fit_auto(&x, &y, &cfg).unwrap();
        assert_eq!(sparse.support_size(), 20);
        // Smooth-ish data: prediction at a training point tracks the target.
        let (mean, _) = SparseGp::predict(&sparse, x.row(0));
        assert!((mean - y[0]).abs() < 0.5, "{mean} vs {}", y[0]);
    }

    #[test]
    fn rejects_insufficient_data() {
        let x = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        assert_eq!(
            SparseGp::fit(&x, &[1.0], Matern52::new(1.0, 1.0), 0.01, 8).unwrap_err(),
            GpError::InsufficientData
        );
    }
}
