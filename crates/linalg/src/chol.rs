//! Cholesky factorization and SPD solves.
//!
//! The GP surrogate models factor their kernel matrices here. The
//! factorization also exposes log-determinant (for marginal likelihood) and
//! rank-1-friendly triangular solves (for posterior covariance).
//!
//! The factor is stored packed by rows: row `i` of `L` is its `i + 1`
//! entries on and below the diagonal, back to back, so an `n×n` factor
//! holds `n(n+1)/2` floats and grows by one row in place
//! ([`Cholesky::extend_in_place`]).

use std::error::Error;
use std::fmt;

use crate::matrix::Matrix;

/// Error returned when a matrix is not (numerically) positive definite.
///
/// # Examples
///
/// ```
/// use aqua_linalg::{Cholesky, Matrix};
///
/// let not_spd = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// assert!(Cholesky::new(&not_spd).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefiniteError {
    /// Pivot index at which factorization failed.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl Error for NotPositiveDefiniteError {}

/// Offset of row `i` in packed lower-triangular storage: rows `0..i` hold
/// `1 + 2 + … + i` entries.
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use aqua_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let chol = Cholesky::new(&a).unwrap();
/// let x = chol.solve_vec(&[3.0, 3.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// `L` packed by rows: row `i` is `L[i][0..=i]`, at
    /// `tri(i)..tri(i + 1)`.
    l: Vec<f64>,
    /// Dimension of the factored matrix (`l.len() == tri(n)`).
    n: usize,
    /// Diagonal jitter that was added to the factored matrix (0 when the
    /// plain factorization succeeded). [`Cholesky::extend`] adds the same
    /// jitter to the new diagonal entry so an extended factor is
    /// bit-identical to refactoring the augmented matrix from scratch.
    jitter: f64,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if a pivot is non-positive
    /// (the matrix is singular or indefinite).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefiniteError> {
        assert_eq!(a.rows(), a.cols(), "Cholesky of a non-square matrix");
        let n = a.rows();
        let a = a.as_slice();
        let mut l = vec![0.0; tri(n)];
        // Left-looking, one column at a time: column `j` needs only the
        // finished columns `0..j`, so the elements below the diagonal are
        // independent of each other and their subtraction chains can be
        // interleaved. Per element the arithmetic is the textbook loop's —
        // start from `a[i][j]`, subtract `l[i][k]·l[j][k]` for ascending
        // `k`, divide (or take the root) last — so the factor, and the
        // first non-positive pivot, are bit-identical to it and to
        // [`Cholesky::extend`]. Only the lower triangle of `a` is read.
        for j in 0..n {
            let (head, mut below) = l.split_at_mut(tri(j + 1));
            let row_j = &mut head[tri(j)..];
            let mut pivot = a[j * n + j];
            for v in &row_j[..j] {
                pivot -= v * v;
            }
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(NotPositiveDefiniteError { pivot: j });
            }
            let diag = pivot.sqrt();
            row_j[j] = diag;
            let lj = &row_j[..j];
            let mut i = j + 1;
            while i + 4 <= n {
                let (tile, rest) = std::mem::take(&mut below).split_at_mut(tri(i + 4) - tri(i));
                column_tile::<4>(tile, i, &a[i * n..], n, lj, diag);
                below = rest;
                i += 4;
            }
            while i < n {
                let (row, rest) = std::mem::take(&mut below).split_at_mut(i + 1);
                column_tile::<1>(row, i, &a[i * n..], n, lj, diag);
                below = rest;
                i += 1;
            }
        }
        Ok(Cholesky { l, n, jitter: 0.0 })
    }

    /// Factors `a` after adding progressively larger diagonal jitter until it
    /// succeeds (up to `1e-4 * max|a|`). Standard practice for kernel
    /// matrices that are PSD up to rounding.
    ///
    /// # Errors
    ///
    /// Returns the final [`NotPositiveDefiniteError`] if even the largest
    /// jitter fails.
    pub fn new_with_jitter(a: &Matrix) -> Result<Self, NotPositiveDefiniteError> {
        if let Ok(c) = Cholesky::new(a) {
            return Ok(c);
        }
        let scale = a.max_abs().max(1.0);
        let mut jitter = 1e-10 * scale;
        let mut last_err = NotPositiveDefiniteError { pivot: 0 };
        // One copy for the whole ladder: each rung rewrites only the
        // diagonal, from `a`'s own entries, so no jitter accumulates.
        let mut aj = a.clone();
        while jitter <= 1e-4 * scale {
            for i in 0..a.rows() {
                aj[(i, i)] = a[(i, i)] + jitter;
            }
            match Cholesky::new(&aj) {
                Ok(mut c) => {
                    c.jitter = jitter;
                    return Ok(c);
                }
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// The diagonal jitter added before the factorization succeeded (0 for
    /// a plain [`Cholesky::new`]).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Rank-1 extension: the factor of the `(n+1)×(n+1)` matrix obtained by
    /// bordering the factored matrix with column `col` and diagonal entry
    /// `diag` (to which the recorded jitter is re-applied). A copy of this
    /// factor, sized for the new row, extended by
    /// [`Cholesky::extend_in_place`].
    ///
    /// Runs in O(n²) — one forward solve plus a row append — and performs
    /// *exactly* the arithmetic [`Cholesky::new`] would perform for the new
    /// row, so the result is bit-identical to refactoring the augmented
    /// matrix from scratch (the leading `n×n` block of that factorization
    /// only depends on the already-factored block).
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] if the new pivot is
    /// non-positive; callers should fall back to a full factorization with
    /// a fresh jitter ladder.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != dim()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqua_linalg::{Cholesky, Matrix};
    ///
    /// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
    /// let base = Cholesky::new(&a).unwrap();
    /// let ext = base.extend(&[0.5, 0.2], 2.0).unwrap();
    /// let full = Matrix::from_rows(&[
    ///     &[4.0, 1.0, 0.5],
    ///     &[1.0, 3.0, 0.2],
    ///     &[0.5, 0.2, 2.0],
    /// ]);
    /// assert_eq!(ext, Cholesky::new(&full).unwrap());
    /// ```
    pub fn extend(&self, col: &[f64], diag: f64) -> Result<Cholesky, NotPositiveDefiniteError> {
        let mut l = Vec::with_capacity(tri(self.n + 1));
        l.extend_from_slice(&self.l);
        let mut next = Cholesky { l, ..*self };
        next.extend_in_place(col, diag)?;
        Ok(next)
    }

    /// [`Cholesky::extend`] applied to this factor itself: the new row
    /// `[w, √pivot]`, where `L w = col`, is forward-solved straight onto
    /// the end of the packed storage, which grows by exactly `n + 1`
    /// entries. On error the factor is left as it was.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::extend`].
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != dim()`.
    pub fn extend_in_place(
        &mut self,
        col: &[f64],
        diag: f64,
    ) -> Result<(), NotPositiveDefiniteError> {
        let n = self.n;
        assert_eq!(col.len(), n, "dimension mismatch");
        self.l.reserve_exact(n + 1);
        // `forward_solve`'s loop, its output `w` being the
        // first entries of the row under construction.
        for (i, &c) in col.iter().enumerate() {
            let (rows, w) = self.l.split_at(tri(n));
            let lrow = &rows[tri(i)..tri(i + 1)];
            let mut sum = c;
            for (lik, wk) in lrow[..i].iter().zip(w) {
                sum -= lik * wk;
            }
            let wi = sum / lrow[i];
            self.l.push(wi);
        }
        let mut pivot = diag + self.jitter;
        for wk in &self.l[tri(n)..] {
            pivot -= wk * wk;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            self.l.truncate(tri(n));
            return Err(NotPositiveDefiniteError { pivot: n });
        }
        self.l.push(pivot.sqrt());
        self.n = n + 1;
        Ok(())
    }

    /// The lower-triangular factor as a square matrix, zeros above the
    /// diagonal (built on each call from the packed storage).
    pub fn factor(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            m.row_mut(i)[..=i].copy_from_slice(self.row(i));
        }
        m
    }

    /// Row `i` of `L` up to and including the diagonal.
    fn row(&self, i: usize) -> &[f64] {
        &self.l[tri(i)..tri(i + 1)]
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn forward_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let lrow = self.row(i);
            let mut sum = b[i];
            for (lik, yk) in lrow[..i].iter().zip(&y[..i]) {
                sum -= lik * yk;
            }
            y[i] = sum / lrow[i];
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn backward_solve(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "dimension mismatch");
        let l = &self.l;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            // Column `i` of `L` below the diagonal, nearest row first:
            // entry `(k, i)` sits at `tri(k) + i`.
            let mut at = tri(i + 1) + i;
            for (k, xk) in (i + 1..n).zip(&x[i + 1..]) {
                sum -= l[at] * xk;
                at += k + 1;
            }
            x[i] = sum / l[tri(i) + i];
        }
        x
    }

    /// Solves `A x = b` for the original matrix `A = L Lᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        self.backward_solve(&self.forward_solve(b))
    }

    /// Solves `L Y = B` for all RHS columns at once, cache-blocked.
    ///
    /// Panel form: a `PB`-row triangle is solved row by row (vectorized
    /// across the RHS columns, unit stride), then every row below the
    /// panel subtracts its panel contribution in one
    /// [`crate::gemm::gemm_sub_acc`] trailing update. Per output element
    /// the subtractions still land in increasing-`k` order followed by the
    /// final division — bit-identical to calling [`Cholesky::forward_solve`]
    /// per column.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn forward_solve_matrix(&self, b: &Matrix) -> Matrix {
        const PB: usize = 32;
        let n = self.dim();
        assert_eq!(b.rows(), n, "dimension mismatch");
        let r = b.cols();
        let mut y = b.clone();
        let mut panel = Vec::new();
        let mut p0 = 0;
        while p0 < n {
            let p1 = (p0 + PB).min(n);
            for i in p0..p1 {
                let (solved, rest) = y.as_mut_slice().split_at_mut(i * r);
                let yi = &mut rest[..r];
                let lrow = self.row(i);
                for k in p0..i {
                    let lik = lrow[k];
                    let yk = &solved[k * r..(k + 1) * r];
                    for (a, b) in yi.iter_mut().zip(yk) {
                        *a -= lik * b;
                    }
                }
                let div = lrow[i];
                for v in yi {
                    *v /= div;
                }
            }
            if p1 < n {
                // Pack the strided sub-diagonal block L[p1.., p0..p1] so the
                // trailing update is a contiguous row-major gemm.
                let pw = p1 - p0;
                panel.clear();
                for i in p1..n {
                    panel.extend_from_slice(&self.row(i)[p0..p1]);
                }
                let (solved, rest) = y.as_mut_slice().split_at_mut(p1 * r);
                crate::gemm::gemm_sub_acc(n - p1, r, pw, &panel, &solved[p0 * r..], rest);
            }
            p0 = p1;
        }
        y
    }

    /// Solves `Lᵀ X = Y` for all RHS columns at once.
    ///
    /// Row-form substitution vectorized across the RHS columns (unit
    /// stride on the rows, where the O(n²·cols) work is). The update for
    /// row `i` must run nearest-`k`-first *after* rows below it are final,
    /// so a gemm trailing update would reorder the accumulation and break
    /// the bit contract — this stays a per-row loop, but reads each `L`
    /// column once instead of once per RHS column. Bit-identical to
    /// calling [`Cholesky::backward_solve`] per column.
    ///
    /// # Panics
    ///
    /// Panics if `y.rows() != dim()`.
    pub fn backward_solve_matrix(&self, y: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(y.rows(), n, "dimension mismatch");
        let r = y.cols();
        let mut x = y.clone();
        for i in (0..n).rev() {
            for k in i + 1..n {
                let lki = self.l[tri(k) + i];
                let (head, rest) = x.as_mut_slice().split_at_mut(k * r);
                let xi = &mut head[i * r..(i + 1) * r];
                let xk = &rest[..r];
                for (a, b) in xi.iter_mut().zip(xk) {
                    *a -= lki * b;
                }
            }
            let div = self.l[tri(i) + i];
            for v in x.row_mut(i) {
                *v /= div;
            }
        }
        x
    }

    /// Solves `A X = B` for all RHS columns at once via the blocked
    /// multi-RHS substitutions — bit-identical to solving column by
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "dimension mismatch");
        self.backward_solve_matrix(&self.forward_solve_matrix(b))
    }

    /// The factor of `A + v vᵀ` (rank-1 update, "cholupdate") in O(n²),
    /// keeping the recorded jitter. A positive-semidefinite update of an
    /// SPD matrix stays SPD, so this cannot fail for finite inputs.
    ///
    /// The sparse surrogate's fantasy appends lean on this: its `m×m`
    /// system grows by one observation as `A + (k_u/σ)(k_u/σ)ᵀ` without a
    /// refactorization.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn rank_one_update(&self, v: &[f64]) -> Cholesky {
        let mut next = self.clone();
        next.rank_one_update_in_place(v);
        next
    }

    /// [`Cholesky::rank_one_update`] applied to this factor itself, so a
    /// caller that keeps only the updated factor copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn rank_one_update_in_place(&mut self, v: &[f64]) {
        let n = self.dim();
        assert_eq!(v.len(), n, "dimension mismatch");
        let l = &mut self.l;
        let mut w = v.to_vec();
        for k in 0..n {
            let kk = tri(k) + k;
            let lkk = l[kk];
            let wk = w[k];
            let r = (lkk * lkk + wk * wk).sqrt();
            let c = r / lkk;
            let s = wk / lkk;
            l[kk] = r;
            // Entry `(i, k)`, walking down column `k`.
            let mut ik = kk + k + 1;
            for (i, wi) in w.iter_mut().enumerate().skip(k + 1) {
                let lik = (l[ik] + s * *wi) / c;
                *wi = c * *wi - s * lik;
                l[ik] = lik;
                ik += i + 1;
            }
        }
    }

    /// Log-determinant of the original matrix: `2 Σ ln L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.l[tri(i) + i].ln()).sum::<f64>() * 2.0
    }

    /// Draws `z ↦ L z`, mapping i.i.d. standard normals to samples with
    /// covariance `A`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != dim()`.
    pub fn correlate(&self, z: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(z.len(), n, "dimension mismatch");
        (0..n)
            .map(|i| self.row(i).iter().zip(z).map(|(l, zz)| l * zz).sum())
            .collect()
    }
}

/// Column `j = lj.len()` of the factor for the `R` consecutive rows
/// `i0..i0 + R` below the diagonal: `rows` holds them packed back to back
/// and `a_rows` starts at row `i0` of the `n×n` matrix being factored.
/// The `R` subtraction chains advance together, one `k` at a time, so the
/// floating-point latency of one hides behind the others; each chain on
/// its own is the sequential ascending-`k` loop.
fn column_tile<const R: usize>(
    rows: &mut [f64],
    i0: usize,
    a_rows: &[f64],
    n: usize,
    lj: &[f64],
    diag: f64,
) {
    let j = lj.len();
    let start: [usize; R] = std::array::from_fn(|r| tri(i0 + r) - tri(i0));
    let mut sums: [f64; R] = std::array::from_fn(|r| a_rows[r * n + j]);
    {
        let li: [&[f64]; R] = std::array::from_fn(|r| &rows[start[r]..start[r] + j]);
        for (k, ljk) in lj.iter().enumerate() {
            for r in 0..R {
                sums[r] -= li[r][k] * ljk;
            }
        }
    }
    for r in 0..R {
        rows[start[r] + j] = sums[r] / diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reconstruct(c: &Cholesky) -> Matrix {
        c.factor().matmul(&c.factor().transpose())
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]);
        let c = Cholesky::new(&a).unwrap();
        let r = reconstruct(&c);
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve_vec(&[9.0, 8.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn log_det_known_value() {
        // det([[2,0],[0,8]]) = 16.
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - 16.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 PSD matrix: plain Cholesky fails, jitter succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
        assert!(Cholesky::new_with_jitter(&a).is_ok());
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let c = Cholesky::new(&a).unwrap();
        let inv = c.solve_matrix(&Matrix::identity(2));
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn correlate_matches_factor_product() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let c = Cholesky::new(&a).unwrap();
        let z = vec![1.0, -2.0];
        let got = c.correlate(&z);
        let want = c.factor().matvec(&z);
        assert!((got[0] - want[0]).abs() < 1e-12);
        assert!((got[1] - want[1]).abs() < 1e-12);
    }

    fn arb_spd(n: usize) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
            let b = Matrix::from_vec(n, n, data);
            let mut g = b.matmul(&b.transpose());
            g.add_diagonal(0.5); // ensure strictly PD
            g
        })
    }

    proptest! {
        /// Solving and re-multiplying recovers the RHS for random SPD systems.
        #[test]
        fn prop_solve_roundtrip(a in arb_spd(4), b in prop::collection::vec(-5.0f64..5.0, 4)) {
            let c = Cholesky::new(&a).unwrap();
            let x = c.solve_vec(&b);
            let back = a.matvec(&x);
            for i in 0..4 {
                prop_assert!((back[i] - b[i]).abs() < 1e-6);
            }
        }

        /// log det agrees with the product of squared pivots.
        #[test]
        fn prop_log_det_positive_definite(a in arb_spd(3)) {
            let c = Cholesky::new(&a).unwrap();
            prop_assert!(c.log_det().is_finite());
        }

        /// Extending the factor of the leading block with the last
        /// column reproduces the full factorization — bit for bit, and in
        /// particular within the 1e-8 the GP layer relies on.
        #[test]
        fn prop_extend_matches_scratch(a in arb_spd(5)) {
            let lead = Matrix::from_fn(4, 4, |i, j| a[(i, j)]);
            let base = Cholesky::new(&lead).unwrap();
            let col: Vec<f64> = (0..4).map(|i| a[(i, 4)]).collect();
            let ext = base.extend(&col, a[(4, 4)]).unwrap();
            let full = Cholesky::new(&a).unwrap();
            for i in 0..5 {
                for j in 0..=i {
                    let (e, f) = (ext.factor()[(i, j)], full.factor()[(i, j)]);
                    prop_assert!((e - f).abs() < 1e-8, "({i},{j}): {e} vs {f}");
                    prop_assert!(e.to_bits() == f.to_bits(), "({i},{j}) not bit-identical");
                }
            }
        }

        /// Extension under a jittered base matches refactoring the
        /// jitter-augmented matrix, keeping the recorded jitter.
        #[test]
        fn prop_extend_respects_jitter(b in arb_matrix_vec(5)) {
            // Rank-deficient Gram matrix: plain Cholesky fails, the jitter
            // ladder kicks in.
            let m = Matrix::from_vec(5, 1, b);
            let gram = m.matmul(&m.transpose());
            let lead = Matrix::from_fn(4, 4, |i, j| gram[(i, j)]);
            if let Ok(base) = Cholesky::new_with_jitter(&lead) {
                let col: Vec<f64> = (0..4).map(|i| gram[(i, 4)]).collect();
                if let Ok(ext) = base.extend(&col, gram[(4, 4)]) {
                    prop_assert!(ext.jitter() == base.jitter());
                    let mut aug = gram.clone();
                    aug.add_diagonal(base.jitter());
                    let full = Cholesky::new(&aug).unwrap();
                    for i in 0..5 {
                        for j in 0..=i {
                            prop_assert!(ext.factor()[(i, j)].to_bits() == full.factor()[(i, j)].to_bits());
                        }
                    }
                }
            }
        }
    }

    /// The textbook row-by-row factorization [`Cholesky::new`] replaced,
    /// kept as the oracle for its bits and its failing pivot.
    fn reference_factor(a: &Matrix) -> Result<Matrix, NotPositiveDefiniteError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// [`Cholesky::new_with_jitter`]'s ladder over the reference loop.
    fn reference_jitter(a: &Matrix) -> Option<(f64, Matrix)> {
        if let Ok(l) = reference_factor(a) {
            return Some((0.0, l));
        }
        let scale = a.max_abs().max(1.0);
        let mut jitter = 1e-10 * scale;
        while jitter <= 1e-4 * scale {
            let mut aj = a.clone();
            aj.add_diagonal(jitter);
            if let Ok(l) = reference_factor(&aj) {
                return Some((jitter, l));
            }
            jitter *= 10.0;
        }
        None
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix) {
        assert_eq!(got.rows(), want.rows());
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "flat index {i}: {g} vs {w}");
        }
    }

    #[test]
    fn factor_bit_identical_to_reference_loop_for_every_size() {
        // 1..=97 covers every row-tile remainder in every column position.
        for n in 1..=97 {
            let a = big_spd(n, 3 + n as u64);
            let got = Cholesky::new(&a).expect("SPD");
            assert_same_bits(&got.factor(), &reference_factor(&a).expect("SPD"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random SPD matrices of random size factor to the reference
        /// loop's bits.
        #[test]
        fn prop_factor_bit_identical_to_reference(n in 1usize..98, seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let b = Matrix::from_fn(n, n, |_, _| rng.unit() * 4.0 - 2.0);
            let mut a = b.matmul(&b.transpose());
            a.add_diagonal(0.5);
            let got = Cholesky::new(&a).expect("SPD");
            assert_same_bits(&got.factor(), &reference_factor(&a).expect("SPD"));
        }

        /// An indefinite matrix fails at the reference loop's pivot, at
        /// whatever row of a tile that pivot falls.
        #[test]
        fn prop_indefinite_fails_at_reference_pivot(
            n in 2usize..98,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let mut a = big_spd(n, seed);
            // Sink one diagonal entry: the leading block stays SPD, the
            // Schur complement at `bad` (or shortly after) does not.
            let bad = rng.below(n as u64) as usize;
            a[(bad, bad)] = -a[(bad, bad)];
            let want = reference_factor(&a).expect_err("indefinite");
            prop_assert_eq!(Cholesky::new(&a).expect_err("indefinite"), want);
        }

        /// Rank-deficient Gram matrices walk the jitter ladder to the same
        /// rung, and the same factor, as the reference loop does.
        #[test]
        fn prop_jitter_ladder_picks_reference_rung(
            n in 2usize..40,
            rank in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let b = Matrix::from_fn(n, rank.min(n - 1), |_, _| rng.unit() * 2.0 - 1.0);
            let gram = b.matmul(&b.transpose());
            match (Cholesky::new_with_jitter(&gram), reference_jitter(&gram)) {
                (Ok(c), Some((jitter, l))) => {
                    prop_assert_eq!(c.jitter().to_bits(), jitter.to_bits());
                    assert_same_bits(&c.factor(), &l);
                }
                (Err(_), None) => {}
                (got, want) => panic!("ladder disagrees: {got:?} vs {want:?}"),
            }
        }
    }

    fn arb_matrix_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(0.1f64..2.0, n)
    }

    /// Deterministic pseudo-random SPD matrix large enough to exercise
    /// several 32-row solve panels.
    fn big_spd(n: usize, seed: u64) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| {
            let x = ((i * n + j) as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        });
        let mut g = b.matmul(&b.transpose());
        g.add_diagonal(n as f64); // diagonally dominant → comfortably SPD
        g
    }

    #[test]
    fn blocked_solves_bit_identical_to_per_column() {
        // 83 rows straddles two full panels plus a 19-row tail; 5 RHS
        // columns exercise the gemm scalar column tail as well.
        for &(n, r) in &[(5usize, 3usize), (32, 8), (83, 5), (70, 70)] {
            let a = big_spd(n, 21);
            let c = Cholesky::new(&a).unwrap();
            let b = Matrix::from_fn(n, r, |i, j| ((i * r + j) as f64).sin());
            let fwd = c.forward_solve_matrix(&b);
            let full = c.solve_matrix(&b);
            for j in 0..r {
                let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
                let yf = c.forward_solve(&col);
                let ys = c.solve_vec(&col);
                for i in 0..n {
                    assert_eq!(
                        fwd[(i, j)].to_bits(),
                        yf[i].to_bits(),
                        "forward ({i},{j}) n={n}"
                    );
                    assert_eq!(
                        full[(i, j)].to_bits(),
                        ys[i].to_bits(),
                        "solve ({i},{j}) n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_one_update_matches_refactorization() {
        let n = 17;
        let a = big_spd(n, 7);
        let c = Cholesky::new(&a).unwrap();
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let up = c.rank_one_update(&v);
        let mut avv = a.clone();
        for i in 0..n {
            for j in 0..n {
                avv[(i, j)] += v[i] * v[j];
            }
        }
        let want = Cholesky::new(&avv).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let (g, w) = (up.factor()[(i, j)], want.factor()[(i, j)]);
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "({i},{j}): {g} vs {w}"
                );
            }
        }
        assert_eq!(up.jitter(), c.jitter());
    }

    #[test]
    fn extend_rejects_indefinite_border() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let c = Cholesky::new(&a).unwrap();
        // Bordering with a huge column makes the Schur complement negative.
        let err = c.extend(&[10.0, 10.0], 1.0).unwrap_err();
        assert_eq!(err.pivot, 2);
    }
}
