//! Dense linear algebra kernels for the PERQ power-management stack.
//!
//! PERQ's model-predictive controller, system-identification pipeline, and
//! quadratic-programming solvers all operate on small-to-medium dense
//! matrices (state dimension 3, horizon ≤ 8, a few hundred concurrent jobs).
//! This crate provides exactly the kernels those layers need, implemented
//! from scratch with no external dependencies:
//!
//! - [`Matrix`]: a row-major dense matrix with the usual arithmetic.
//! - [`Lu`]: LU with partial pivoting for general square systems,
//!   determinants and inverses.
//! - [`Qr`]: Householder QR for least-squares problems, the workhorse of
//!   ARX system identification.
//! - [`lstsq`]: convenience least-squares driver.
//! - [`vecops`]: free functions over scalar slices (dot products, norms,
//!   scaled additions) used by the iterative QP solvers — generic over
//!   [`Scalar`] (`f64`/`f32`) for the precision-profiled solve paths.
//!
//! # Example
//!
//! ```
//! use perq_linalg::{Lu, Matrix};
//!
//! // Solve the system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
//! let lu = Lu::factor(&a).unwrap();
//! let x = lu.solve(&[1.0, 2.0]).unwrap();
//! let r = a.matvec(&x).unwrap();
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

mod error;
mod lu;
mod matrix;
mod qr;
pub mod scalar;
pub mod vecops;

pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::{lstsq, Qr};
pub use scalar::Scalar;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
