//! Dense linear algebra and statistics kernels for the AQUATOPE reproduction.
//!
//! Everything the Gaussian processes and neural networks need, implemented
//! from scratch: a row-major dense [`Matrix`], Cholesky factorization with
//! triangular solves, and scalar statistics (normal PDF/CDF/quantile, sample
//! moments, SMAPE).
//!
//! # Examples
//!
//! ```
//! use aqua_linalg::{Cholesky, Matrix};
//!
//! // Solve the SPD system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Cholesky::new(&a).unwrap();
//! let x = chol.solve_vec(&[1.0, 2.0]);
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! ```

pub mod chol;
pub mod gemm;
pub mod matrix;
pub mod stats;

pub use chol::{Cholesky, NotPositiveDefiniteError};
pub use gemm::{col_sum_acc, gemm, gemm_acc, gemm_sub_acc, gemm_tn, pack_transpose};
pub use matrix::Matrix;
pub use stats::{
    chunked_quantiles, chunked_quantiles_by_key, mean, normal_cdf, normal_pdf, normal_quantile,
    quantile, quantile_sorted, sample_std, sample_var, select_quantiles, smape, sorted,
};
