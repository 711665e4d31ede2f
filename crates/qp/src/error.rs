use std::fmt;

/// Errors produced by the QP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum QpError {
    /// Problem fields have inconsistent dimensions.
    BadProblem(String),
    /// The feasible set is empty (e.g. `lo > hi`, or the budget limit is
    /// below the sum of lower bounds).
    Infeasible(String),
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::BadProblem(msg) => write!(f, "malformed QP: {msg}"),
            QpError::Infeasible(msg) => write!(f, "infeasible QP: {msg}"),
        }
    }
}

impl std::error::Error for QpError {}
