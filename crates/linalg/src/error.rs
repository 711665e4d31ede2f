use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Dimensions of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Actual dimensions as `(rows, cols)`.
        dims: (usize, usize),
    },
    /// LU or QR factorization encountered a (numerically) singular matrix.
    Singular {
        /// Index of the failing pivot/column.
        pivot: usize,
    },
    /// A least-squares problem had fewer rows than columns.
    Underdetermined {
        /// Number of rows (observations).
        rows: usize,
        /// Number of columns (unknowns).
        cols: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "matrix must be square, got {}x{}", dims.0, dims.1)
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is numerically singular at pivot {pivot}")
            }
            LinalgError::Underdetermined { rows, cols } => write!(
                f,
                "least-squares problem is underdetermined: {rows} rows < {cols} cols"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}
