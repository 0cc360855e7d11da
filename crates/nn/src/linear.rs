//! Fully connected layer with manual backpropagation.

use aqua_linalg::{col_sum_acc, gemm, gemm_tn, pack_transpose, Matrix};
use aqua_sim::SimRng;

use crate::lstm::grown;
use crate::Parameterized;

/// A dense affine layer `y = W x + b` with accumulated gradients.
///
/// # Examples
///
/// ```
/// use aqua_nn::Linear;
/// use aqua_sim::SimRng;
///
/// let mut rng = SimRng::seed(0);
/// let layer = Linear::new(3, 2, &mut rng);
/// let y = layer.forward(&[1.0, 0.0, -1.0]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform initial weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SimRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be positive");
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.uniform_range(-bound, bound))
            .collect();
        Linear {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        let mut y = self.b.clone();
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            *yo += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        y
    }

    /// Batched forward pass over `B` rows: `Y = X Wᵀ + b` for row-major
    /// `x (B×in)`. Row `r` of the result is bit-identical to
    /// `self.forward(x.row(r))` — the GEMM keeps the per-element
    /// contraction in input-index order and adds the bias to the completed
    /// dot product, exactly like [`Linear::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "input dimension mismatch");
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        self.forward_rows(x.rows(), x.as_slice(), &mut Vec::new(), y.as_mut_slice());
        y
    }

    /// [`Linear::forward_batch`] on flat row-major buffers: `y (B×out)`
    /// receives the result, `wt` is scratch for the packed transposed
    /// weights (grown once, re-packed on every call — the weights may have
    /// moved).
    pub(crate) fn forward_rows(&self, bsz: usize, x: &[f64], wt: &mut Vec<f64>, y: &mut [f64]) {
        assert_eq!(x.len(), bsz * self.in_dim, "input dimension mismatch");
        let wt = grown(wt, self.w.len());
        pack_transpose(self.out_dim, self.in_dim, &self.w, wt);
        gemm(bsz, self.out_dim, self.in_dim, x, wt, y);
        for row in y.chunks_exact_mut(self.out_dim) {
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    /// Backward pass: accumulates weight/bias gradients for the recorded
    /// inputs `x (B×in)` and upstream gradients `dy (B×out)`, all `B` rows
    /// at once, and returns `dL/dX (B×in)`. Gradient accumulation order per
    /// weight element is row-major over the batch — identical to `B`
    /// one-row calls.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward_batch(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "input dimension mismatch");
        assert_eq!(dy.cols(), self.out_dim, "gradient dimension mismatch");
        assert_eq!(x.rows(), dy.rows(), "batch size mismatch");
        let mut dx = Matrix::zeros(x.rows(), self.in_dim);
        self.backward_rows(x.rows(), x.as_slice(), dy.as_slice(), dx.as_mut_slice());
        dx
    }

    /// [`Linear::backward_batch`] on flat row-major buffers: `dx (B×in)`
    /// receives `dL/dX`.
    pub(crate) fn backward_rows(&mut self, bsz: usize, x: &[f64], dy: &[f64], dx: &mut [f64]) {
        col_sum_acc(bsz, self.out_dim, dy, &mut self.gb);
        gemm_tn(bsz, self.out_dim, self.in_dim, dy, x, &mut self.gw);
        gemm(bsz, self.in_dim, self.out_dim, dy, &self.w, dx);
    }
}

impl Parameterized for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mse;

    /// Summed per-row MSE through the single-vector forward pass.
    fn loss_of(layer: &Linear, x: &Matrix, targets: &Matrix) -> f64 {
        (0..x.rows())
            .map(|r| mse(&layer.forward(x.row(r)), targets.row(r)).0)
            .sum()
    }

    /// Runs forward + backward on `x`, returning `dL/dX` of [`loss_of`].
    fn backprop(layer: &mut Linear, x: &Matrix, targets: &Matrix) -> Matrix {
        let y = layer.forward_batch(x);
        let mut dy = Matrix::zeros(x.rows(), targets.cols());
        for r in 0..x.rows() {
            dy.row_mut(r)
                .copy_from_slice(&mse(y.row(r), targets.row(r)).1);
        }
        layer.backward_batch(x, &dy)
    }

    fn inputs(rows: usize) -> (Matrix, Matrix) {
        let x = Matrix::from_fn(rows, 3, |i, j| [0.5, -1.0, 2.0][j] + 0.3 * i as f64);
        let targets = Matrix::from_fn(rows, 2, |i, j| 1.0 - 2.0 * j as f64 - 0.4 * i as f64);
        (x, targets)
    }

    /// Finite-difference check of the analytic gradients, at one row and at
    /// several.
    #[test]
    fn gradients_match_finite_differences() {
        for rows in [1, 3] {
            let mut rng = SimRng::seed(3);
            let mut layer = Linear::new(3, 2, &mut rng);
            let (x, targets) = inputs(rows);

            layer.zero_grad();
            backprop(&mut layer, &x, &targets);
            crate::assert_grads_match_finite_differences(
                &mut layer,
                |l| loss_of(l, &x, &targets),
                usize::MAX,
                (1e-6, 1e-5),
            );
        }
    }

    #[test]
    fn backward_returns_input_gradient() {
        for rows in [1, 3] {
            let mut rng = SimRng::seed(4);
            let mut layer = Linear::new(3, 2, &mut rng);
            let (x, targets) = inputs(rows);
            let dx = backprop(&mut layer, &x, &targets);
            assert_eq!((dx.rows(), dx.cols()), (rows, 3));

            // dL/dx via finite differences.
            let eps = 1e-6;
            for r in 0..rows {
                for i in 0..3 {
                    let mut xp = x.clone();
                    xp[(r, i)] += eps;
                    let lp = loss_of(&layer, &xp, &targets);
                    xp[(r, i)] -= 2.0 * eps;
                    let lm = loss_of(&layer, &xp, &targets);
                    let numeric = (lp - lm) / (2.0 * eps);
                    assert!((numeric - dx[(r, i)]).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = SimRng::seed(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let (x, targets) = inputs(1);
        backprop(&mut layer, &x, &targets);
        layer.zero_grad();
        let mut all_zero = true;
        layer.visit_params(&mut |_, g| all_zero &= g.iter().all(|v| *v == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn param_count_matches_shape() {
        let mut rng = SimRng::seed(6);
        let mut layer = Linear::new(7, 3, &mut rng);
        assert_eq!(layer.param_count(), 7 * 3 + 3);
    }

    /// A `B`-row call leaves the bits of `B` one-row calls in order, and the
    /// batched forward pass those of the single-vector one.
    #[test]
    fn batch_paths_bitwise_match_sequential() {
        let mut rng = SimRng::seed(7);
        let layer = Linear::new(5, 3, &mut rng);
        let bsz = 4;
        let x = Matrix::from_fn(bsz, 5, |i, j| ((i * 5 + j) as f64 * 0.7).sin());
        let yb = layer.forward_batch(&x);
        for r in 0..bsz {
            let ys = layer.forward(x.row(r));
            for (a, b) in yb.row(r).iter().zip(&ys) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let dy = Matrix::from_fn(bsz, 3, |i, j| ((i + 2 * j) as f64 * 0.37).cos());
        let mut l_batch = layer.clone();
        let mut l_seq = layer;
        l_batch.zero_grad();
        l_seq.zero_grad();
        let dxb = l_batch.backward_batch(&x, &dy);
        let one_row = |m: &Matrix, r: usize| Matrix::from_vec(1, m.cols(), m.row(r).to_vec());
        for r in 0..bsz {
            let dxs = l_seq.backward_batch(&one_row(&x, r), &one_row(&dy, r));
            for (a, b) in dxb.row(r).iter().zip(dxs.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let mut ga = Vec::new();
        l_batch.visit_params(&mut |_, g| ga.extend_from_slice(g));
        let mut gs = Vec::new();
        l_seq.visit_params(&mut |_, g| gs.extend_from_slice(g));
        assert_eq!(ga.len(), gs.len());
        for (a, b) in ga.iter().zip(&gs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
