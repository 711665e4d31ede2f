//! Floating-point scalar abstraction for the precision-profiled solvers.
//!
//! The QP stack iterates in either `f64` (the reference precision) or
//! `f32` (the bandwidth-halving profile used by the SoA SIMD kernels).
//! This trait captures exactly the operations those loops need, plus the
//! handful of precision-dependent tuning constants that cannot be shared
//! verbatim: the norm underflow floor (`1e-300` would flush to zero in
//! `f32`) and the projection bisection depth (80 halvings resolve far
//! below `f32`'s 24-bit mantissa; 40 reach its round-off floor with
//! margin).
//!
//! The `f64` implementation is a transparent passthrough: generic code
//! instantiated at `S = f64` performs bit-identical operations to the
//! pre-generic scalar code, which is what keeps the default solver
//! profile byte-reproducible.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar the iterative solvers can run on.
pub trait Scalar:
    Copy
    + PartialOrd
    + PartialEq
    + Default
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Machine epsilon.
    const EPSILON: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Norm floor below which power iterations treat a vector as zero
    /// (precision-dependent: `1e-300` underflows in `f32`).
    const NORM_FLOOR: Self;
    /// Bisection depth for the exact box∩budget projection. Each halving
    /// adds one bit of the budget multiplier; the depth is chosen so the
    /// multiplier is resolved past the precision's round-off floor.
    const BISECT_ITERS: usize;
    /// Whether FISTA's adaptive restart compares objective values
    /// (`true`, the reference `f64` discipline — kept byte-identical) or
    /// uses the gradient-mapping sign test (`false`, the reduced-precision
    /// discipline: one fused O(n) pass instead of a full objective
    /// evaluation per iteration, and no dependence on objective increments
    /// that sit below one ulp of the narrow type).
    const OBJECTIVE_RESTART: bool;
    /// Short lowercase name ("f64" / "f32") for labels and reports.
    const NAME: &'static str;

    /// Converts from `f64` (rounding for narrower scalars).
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` (exact for `f64` and `f32`).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// IEEE maximum (propagates the other operand on NaN, like
    /// `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// Whether the value is finite.
    fn is_finite(self) -> bool;
    /// Whether the value is NaN.
    fn is_nan(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const MIN_POSITIVE: Self = f64::MIN_POSITIVE;
    const EPSILON: Self = f64::EPSILON;
    const INFINITY: Self = f64::INFINITY;
    const NORM_FLOOR: Self = 1e-300;
    const BISECT_ITERS: usize = 80;
    const OBJECTIVE_RESTART: bool = true;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const MIN_POSITIVE: Self = f32::MIN_POSITIVE;
    const EPSILON: Self = f32::EPSILON;
    const INFINITY: Self = f32::INFINITY;
    const NORM_FLOOR: Self = 1e-30;
    const BISECT_ITERS: usize = 40;
    const OBJECTIVE_RESTART: bool = false;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: Scalar>() {
        assert_eq!(S::ZERO.to_f64(), 0.0);
        assert_eq!(S::ONE.to_f64(), 1.0);
        assert_eq!(S::from_f64(2.0) * S::from_f64(3.0), S::from_f64(6.0));
        assert!(S::from_f64(-4.0).abs() == S::from_f64(4.0));
        assert!(S::from_f64(9.0).sqrt() == S::from_f64(3.0));
        assert!(S::NORM_FLOOR > S::ZERO, "norm floor must not underflow");
        assert!(S::BISECT_ITERS >= 32);
    }

    #[test]
    fn both_scalars_roundtrip() {
        roundtrip::<f64>();
        roundtrip::<f32>();
    }

    #[test]
    fn f32_floor_is_representable() {
        // The whole point of the per-scalar floor: 1e-300 would flush to
        // zero in f32 and break every `max(floor)` guard.
        assert_eq!(f64::NORM_FLOOR, 1e-300);
        assert!(f32::NORM_FLOOR.is_normal() && f32::NORM_FLOOR.is_sign_positive());
    }
}
