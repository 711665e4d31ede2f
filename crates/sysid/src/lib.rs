//! System identification for PERQ's power-cap ↔ performance model.
//!
//! The paper builds a 3rd-order state-space model of a compute node's
//! power-cap → IPS relationship with MATLAB's System Identification
//! Toolbox, trained on NAS Parallel Benchmark runs under randomly switched
//! power-caps. This crate is the from-scratch Rust substitute:
//!
//! - [`ArxModel`] / [`fit_arx`]: least-squares ARX identification
//!   `y(k) = Σ aᵢ y(k−i) + Σ bⱼ u(k−j) + offset` via Householder QR.
//! - [`StateSpaceModel`]: the controllable-canonical realization
//!   `x(k+1) = A x(k) + B u(k)`, `y(k) = C x(k) + d`, with step simulation,
//!   DC gain, Markov parameters (the impulse response the MPC prediction
//!   matrices are built from), and a spectral-radius stability check.
//! - [`KalmanObserver`]: steady-state Kalman filter (Riccati iteration)
//!   that tracks the node's internal state from noisy IPS measurements;
//!   this is how "the internal state X(k) of the node gets updated every
//!   decision instance based on the active input-output relationship of
//!   the currently running job" (paper §2.4.2).
//! - [`Rls`]: recursive least squares with exponential forgetting, used by
//!   the controller for per-job gain/offset adaptation and local
//!   sensitivity (slope) estimation.
//! - [`MonotoneCurve`] / [`fit_monotone_curve`]: Hammerstein-style static
//!   nonlinearity fitted with least squares followed by an isotonic
//!   (pool-adjacent-violators) projection — the saturating power→perf
//!   curve the target generator evaluates at TDP and at the fair power.
//! - [`excite`]: PRBS and uniform random power-cap switching signals, the
//!   paper's training excitation ("switching the power-cap frequently
//!   using a uniform distribution").
//! - [`fit_percent`] / [`rmse`]: the model-quality metrics used to accept
//!   or reject an identified model.

mod arx;
pub mod excite;
mod hammerstein;
mod metrics;
mod observer;
mod rls;
mod ss;

pub use arx::{fit_arx, fit_arx_segments, ArxModel};
pub use hammerstein::{fit_monotone_curve, MonotoneCurve};
pub use metrics::{fit_percent, rmse};
pub use observer::KalmanObserver;
pub use rls::Rls;
pub use ss::StateSpaceModel;

/// Scratch up to this length lives on the stack; the estimators in use
/// need 2 (RLS over one parameter) and 3 (third-order node model).
const STACK_SCRATCH: usize = 8;

/// Lends `f` a zeroed buffer of `len` floats, heap-backed only beyond
/// [`STACK_SCRATCH`]. Estimators borrow their temporaries here instead of
/// owning them: a policy holds a pair per running job, so owned scratch
/// is memory per job.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if len <= STACK_SCRATCH {
        f(&mut [0.0; STACK_SCRATCH][..len])
    } else {
        f(&mut vec![0.0; len])
    }
}

/// Errors produced by the identification routines.
#[derive(Debug, Clone, PartialEq)]
pub enum SysIdError {
    /// Not enough data points for the requested model order.
    NotEnoughData {
        /// Samples provided.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// Input and output series have different lengths.
    LengthMismatch {
        /// Input series length.
        input: usize,
        /// Output series length.
        output: usize,
    },
    /// The regression problem was singular (e.g. constant input).
    Degenerate(String),
    /// An underlying linear-algebra kernel failed.
    Linalg(perq_linalg::LinalgError),
}

impl std::fmt::Display for SysIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysIdError::NotEnoughData { have, need } => {
                write!(f, "not enough data: have {have}, need {need}")
            }
            SysIdError::LengthMismatch { input, output } => {
                write!(f, "length mismatch: input {input}, output {output}")
            }
            SysIdError::Degenerate(msg) => write!(f, "degenerate identification problem: {msg}"),
            SysIdError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for SysIdError {}

impl From<perq_linalg::LinalgError> for SysIdError {
    fn from(e: perq_linalg::LinalgError) -> Self {
        SysIdError::Linalg(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SysIdError>;
