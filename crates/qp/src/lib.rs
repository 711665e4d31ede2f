//! Convex quadratic programming for PERQ's model-predictive controller.
//!
//! The paper solves Eq. 4 — `min ½ PᵀQP + cᵀP` subject to per-node
//! power-cap bounds and the system power budget — with the Python CVXOPT
//! package every decision instance. This crate is the from-scratch Rust
//! substitute: [`ProjGradSolver`], accelerated projected gradient (FISTA)
//! specialised to the feasible set PERQ actually has — a box `[lo, hi]`
//! intersected with budget half-spaces `aᵀx ≤ b` with non-negative
//! coefficients. The projection onto that set is computed exactly by
//! bisection on the budget's dual multiplier ([`project_box_budget`]). The
//! PERQ controller runs it at every decision interval; it supports warm
//! starting from the previous interval's solution.
//!
//! The solvers access the QP through the [`QpOperator`] trait, which only
//! exposes matrix-vector products. [`BoxBudgetQp`] materialises the dense
//! Hessian (O(n²) memory and per-iteration cost); [`StructuredQp`] stores
//! the block-diagonal + low-rank factorisation PERQ's MPC produces and
//! costs O(jobs · horizon²) per iteration — the representation that makes
//! the per-decision cost linear instead of quadratic in the job count.
//! Long-lived callers reuse a [`Workspace`] (and optionally an
//! [`LmaxCache`] of the previous Hessian's dominant eigenvector) to make
//! repeated solves allocation-free and the Lipschitz estimate nearly free.
//!
//! The projected-gradient path is generic over the iterate scalar
//! ([`perq_linalg::Scalar`], `f64` or `f32`). [`SoaQp`] transposes a
//! [`StructuredQp`] into structure-of-arrays lanes whose matvec, gradient
//! step, and budget projection are straight-line loops the autovectorizer
//! handles. [`SolverProfile`] names a precision × layout choice
//! (`f64_aos`, `f64_soa`, `mixed_soa`) and [`solve_profiled`] runs it,
//! including the `mixed` mode that iterates in `f32` and accepts only
//! after an `f64` KKT residual check (falling back to an `f64` polish
//! otherwise).
//!
//! Every solve reports convergence diagnostics in [`QpSolution`], and the
//! test suite checks the answers against the KKT optimality conditions
//! and against a direct KKT solve of the active-set problem.
//!
//! # Example
//!
//! ```
//! use perq_qp::{BoxBudgetQp, Budget, ProjGradSolver};
//! use perq_linalg::Matrix;
//!
//! // min ½‖x‖² − [3,3]ᵀx  s.t. 0 ≤ x ≤ 2, x₀ + x₁ ≤ 3.
//! let qp = BoxBudgetQp {
//!     q: Matrix::identity(2),
//!     c: vec![-3.0, -3.0],
//!     lo: vec![0.0, 0.0],
//!     hi: vec![2.0, 2.0],
//!     budgets: vec![Budget { coeffs: vec![1.0, 1.0], limit: 3.0 }],
//! };
//! let sol = ProjGradSolver::default().solve(&qp, None).unwrap();
//! assert!((sol.x[0] - 1.5).abs() < 1e-5);
//! assert!((sol.x[1] - 1.5).abs() < 1e-5);
//! ```

mod error;
#[cfg(test)]
mod kkt;
mod problem;
mod profile;
mod projection;
mod projgrad;
mod soa;
mod structured;

pub use error::QpError;
pub use problem::{BoxBudgetQp, Budget, QpOperator, QpSolution};
pub use profile::{
    f64_kkt_residual, solve_profiled, Layout, Precision, ProfiledQpState, ProfiledSolution,
    SolverProfile, MIXED_ACCEPT_FACTOR,
};
pub use projection::{
    project_box_budget, project_box_budgets, project_box_budgets_scratch, ProjectionScratch,
};
pub use projgrad::{estimate_lmax, LmaxCache, ProjGradSettings, ProjGradSolver, Workspace};
pub use soa::SoaQp;
pub use structured::{Coupling, StructuredQp};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QpError>;
