//! Structure-of-arrays storage profile for the structured MPC QP.
//!
//! [`crate::StructuredQp`] stores the decision vector job-major
//! (`x[job*m + step]`) and its Hessian as per-job `m×m` blocks, so every
//! inner loop strides by the horizon `m` and each budget's support is a
//! strided comb. This module transposes everything step-major:
//!
//! - variables: `x_t[step*nb + job]` — each horizon step is one
//!   contiguous lane of `nb` jobs;
//! - blocks: `blocks_t[(r*m + s)*nb + job] = B_job[r,s]` — each block
//!   entry becomes a contiguous lane, so the block-diagonal matvec is `m²`
//!   elementwise multiply-accumulates over dense lanes;
//! - budgets and couplings: transposed alongside, which turns the PERQ
//!   budget for horizon step `j` (support `job*m + j` for all jobs) into
//!   the contiguous slice `[j*nb, (j+1)*nb)`.
//!
//! The payoff is in the projection, which dominates the decide cost at
//! large job counts: the bisection's usage evaluation becomes a dense
//! branch-free loop over one contiguous range per budget, which the
//! autovectorizer keeps in vector registers.
//!
//! Reductions (dots, usage sums) always use fixed 8-lane accumulators
//! that carry `f64` partial sums at every scalar precision. For
//! `S = f64` this is the identical arithmetic, so the SoA `f64` path
//! keeps its results. For `S = f32` it is the load-bearing
//! half of the mixed-precision design: the *storage* (and hence memory
//! traffic and SIMD width of the elementwise kernels) stays `f32`, but
//! the long dot products — coupling terms and budget-usage sums over
//! tens of thousands of elements with O(10³) magnitudes — would
//! otherwise floor the gradient at ~1e-3 absolute noise, parking the
//! KKT residual three decades above the solver tolerance and defeating
//! the mixed profile's `f64` acceptance check on every solve. Widening
//! only the accumulators drops the reduction error to one final
//! rounding, leaving elementwise `f32` rounding (~1e-7) as the floor.
//! Pinning one summation order also makes a given profile's results
//! bitwise reproducible.

use crate::problem::{validate_constraints, Budget, QpOperator};
use crate::projection::ProjectionScratch;
use crate::{Result, StructuredQp};
use perq_linalg::Scalar;

/// Number of accumulator lanes used by every reduction.
const ACC_LANES: usize = 8;

/// One transposed coupling term of the low-rank Hessian tail.
#[derive(Debug, Clone)]
struct SoaCoupling<S> {
    weight: S,
    s_t: Vec<S>,
}

/// A budget in step-major layout plus its precomputed support range.
#[derive(Debug, Clone)]
struct SoaBudget<S: Scalar> {
    budget: Budget<S>,
    /// `[start, end)` bounding the nonzero coefficients in the transposed
    /// layout (`start == end` for an all-zero budget).
    support: (usize, usize),
}

/// [`crate::StructuredQp`] re-laid-out as structure-of-arrays lanes, at
/// scalar precision `S`.
///
/// Built from a `StructuredQp` via [`SoaQp::from_structured`]; iterates
/// and projects in the transposed step-major layout described in the
/// module docs. Use [`SoaQp::to_soa`] / [`SoaQp::from_soa`] to move
/// vectors between the layouts (and precisions).
#[derive(Debug, Clone)]
pub struct SoaQp<S: Scalar> {
    /// Jobs (diagonal blocks).
    nb: usize,
    /// Horizon (block edge length).
    m: usize,
    /// Transposed blocks: entry `(r,s)` of every job's block, contiguous
    /// per `(r,s)` pair.
    blocks_t: Vec<S>,
    couplings: Vec<SoaCoupling<S>>,
    c_t: Vec<S>,
    lo_t: Vec<S>,
    hi_t: Vec<S>,
    budgets: Vec<SoaBudget<S>>,
    /// Budgets as a plain slice (what [`QpOperator::budgets`] must borrow).
    budgets_plain: Vec<Budget<S>>,
    /// Whether every budget's support range is disjoint from the others,
    /// enabling the specialised contiguous-range projection.
    disjoint_ranges: bool,
    /// Certified λ_max bound inherited from the source problem (layout
    /// and precision of the iterate do not change the spectrum).
    lmax_bound: f64,
}

impl<S: Scalar> SoaQp<S> {
    /// Transposes (and precision-casts) a [`StructuredQp`] into SoA form.
    pub fn from_structured(sq: &StructuredQp) -> Self {
        let m = sq.block_size();
        let nb = sq.num_blocks();
        let n = sq.dim();

        let mut blocks_t = vec![S::ZERO; nb * m * m];
        for i in 0..nb {
            let b = sq.block(i);
            for r in 0..m {
                for s in 0..m {
                    blocks_t[(r * m + s) * nb + i] = S::from_f64(b[r * m + s]);
                }
            }
        }

        let couplings = sq
            .couplings()
            .iter()
            .map(|cp| SoaCoupling {
                weight: S::from_f64(cp.weight),
                s_t: transpose(&cp.s, m, nb),
            })
            .collect();

        let qp_lo = QpOperator::lo(sq);
        let qp_hi = QpOperator::hi(sq);
        let budgets: Vec<SoaBudget<S>> = QpOperator::budgets(sq)
            .iter()
            .map(|b| {
                let coeffs = transpose(&b.coeffs, m, nb);
                let first = coeffs.iter().position(|&a| a != S::ZERO).unwrap_or(n);
                let last = coeffs
                    .iter()
                    .rposition(|&a| a != S::ZERO)
                    .map_or(n, |i| i + 1);
                SoaBudget {
                    budget: Budget {
                        coeffs,
                        limit: S::from_f64(b.limit.to_f64()),
                    },
                    support: (first.min(last), last),
                }
            })
            .collect();
        let disjoint_ranges = ranges_disjoint(&budgets);
        let budgets_plain = budgets.iter().map(|b| b.budget.clone()).collect();

        SoaQp {
            nb,
            m,
            blocks_t,
            couplings,
            c_t: transpose(sq.c(), m, nb),
            lo_t: transpose(qp_lo, m, nb),
            hi_t: transpose(qp_hi, m, nb),
            budgets,
            budgets_plain,
            disjoint_ranges,
            lmax_bound: sq.lmax_bound(),
        }
    }

    /// Number of decision variables.
    pub fn dim(&self) -> usize {
        self.nb * self.m
    }

    /// Converts a job-major `f64` vector into this problem's step-major
    /// scalar layout.
    pub fn to_soa(&self, x_aos: &[f64]) -> Vec<S> {
        debug_assert_eq!(x_aos.len(), self.dim());
        let (m, nb) = (self.m, self.nb);
        let mut out = vec![S::ZERO; x_aos.len()];
        for i in 0..nb {
            for j in 0..m {
                out[j * nb + i] = S::from_f64(x_aos[i * m + j]);
            }
        }
        out
    }

    /// Converts a step-major scalar vector back to job-major `f64`.
    pub fn from_soa(&self, x_t: &[S]) -> Vec<f64> {
        debug_assert_eq!(x_t.len(), self.dim());
        let (m, nb) = (self.m, self.nb);
        let mut out = vec![0.0; x_t.len()];
        for i in 0..nb {
            for j in 0..m {
                out[i * m + j] = x_t[j * nb + i].to_f64();
            }
        }
        out
    }
}

/// Job-major `f64` → step-major `S` for a full-length vector.
fn transpose<S: Scalar>(v: &[f64], m: usize, nb: usize) -> Vec<S> {
    debug_assert_eq!(v.len(), m * nb);
    let mut out = vec![S::ZERO; v.len()];
    for i in 0..nb {
        for j in 0..m {
            out[j * nb + i] = S::from_f64(v[i * m + j]);
        }
    }
    out
}

/// Pairwise-disjointness of the budgets' support ranges.
fn ranges_disjoint<S: Scalar>(budgets: &[SoaBudget<S>]) -> bool {
    for (k, a) in budgets.iter().enumerate() {
        for b in &budgets[k + 1..] {
            let (a0, a1) = a.support;
            let (b0, b1) = b.support;
            if a0 < b1 && b0 < a1 {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------
// Reduction kernels: fixed 8-lane accumulators (see the module docs).
// ---------------------------------------------------------------------

/// `Σ x[i]·y[i]` with split `f64` accumulators.
#[inline]
fn lane_dot<S: Scalar>(x: &[S], y: &[S]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = [0.0_f64; ACC_LANES];
    let mut xc = x.chunks_exact(ACC_LANES);
    let mut yc = y.chunks_exact(ACC_LANES);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for l in 0..ACC_LANES {
            acc[l] += xs[l].to_f64() * ys[l].to_f64();
        }
    }
    let mut tail = 0.0_f64;
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a.to_f64() * b.to_f64();
    }
    reduce_lanes(acc) + tail
}

/// `Σ x[i]·w[i]·y[i]` with split `f64` accumulators (three-operand form
/// used by the objective's `x_rᵀ B_rs x_s` terms).
#[inline]
fn lane_dot3<S: Scalar>(x: &[S], w: &[S], y: &[S]) -> f64 {
    let n = x.len().min(w.len()).min(y.len());
    let (x, w, y) = (&x[..n], &w[..n], &y[..n]);
    let mut acc = [0.0_f64; ACC_LANES];
    let mut xc = x.chunks_exact(ACC_LANES);
    let mut wc = w.chunks_exact(ACC_LANES);
    let mut yc = y.chunks_exact(ACC_LANES);
    for ((xs, ws), ys) in (&mut xc).zip(&mut wc).zip(&mut yc) {
        for l in 0..ACC_LANES {
            acc[l] += xs[l].to_f64() * ws[l].to_f64() * ys[l].to_f64();
        }
    }
    let mut tail = 0.0_f64;
    for ((&a, &b), &c) in xc
        .remainder()
        .iter()
        .zip(wc.remainder())
        .zip(yc.remainder())
    {
        tail += a.to_f64() * b.to_f64() * c.to_f64();
    }
    reduce_lanes(acc) + tail
}

/// Pairwise tree reduction of the lane accumulators (fixed order).
#[inline]
fn reduce_lanes(acc: [f64; ACC_LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

// ---------------------------------------------------------------------
// Elementwise kernels: plain loops, no reassociation.
// ---------------------------------------------------------------------

/// `out[i] = a[i]·b[i]`.
#[inline]
fn mul_into<S: Scalar>(out: &mut [S], a: &[S], b: &[S]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

/// `out[i] += a[i]·b[i]`.
#[inline]
fn fma_into<S: Scalar>(out: &mut [S], a: &[S], b: &[S]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += x * y;
    }
}

/// `out[i] += t·a[i]`.
#[inline]
fn axpy_lanes<S: Scalar>(t: S, a: &[S], out: &mut [S]) {
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o += t * x;
    }
}

impl<S: Scalar> QpOperator<S> for SoaQp<S> {
    fn dim(&self) -> usize {
        SoaQp::dim(self)
    }

    fn lo(&self) -> &[S] {
        &self.lo_t
    }

    fn hi(&self) -> &[S] {
        &self.hi_t
    }

    fn budgets(&self) -> &[Budget<S>] {
        &self.budgets_plain
    }

    fn validate(&self) -> Result<()> {
        validate_constraints(self.dim(), &self.lo_t, &self.hi_t, &self.budgets_plain)
    }

    fn objective(&self, x: &[S]) -> S {
        S::from_f64(self.objective_f64(x))
    }

    /// Full-`f64` objective: every block term, coupling term, and the
    /// linear term accumulate in `f64`, with no intermediate rounding to
    /// `S`. This is what keeps the solver's restart discipline working
    /// at `f32` — successive objectives differ by far less than one
    /// `f32` ulp of the total near convergence.
    fn objective_f64(&self, x: &[S]) -> f64 {
        let (m, nb) = (self.m, self.nb);
        let mut quad = 0.0_f64;
        for r in 0..m {
            let x_r = &x[r * nb..(r + 1) * nb];
            for s in 0..m {
                let brs = &self.blocks_t[(r * m + s) * nb..(r * m + s + 1) * nb];
                let x_s = &x[s * nb..(s + 1) * nb];
                quad += lane_dot3(x_r, brs, x_s);
            }
        }
        for cp in &self.couplings {
            if cp.weight == S::ZERO {
                continue;
            }
            let t = lane_dot(&cp.s_t, x);
            quad += cp.weight.to_f64() * t * t;
        }
        0.5 * quad + lane_dot(&self.c_t, x)
    }

    fn gradient_into(&self, x: &[S], out: &mut [S]) {
        self.hess_matvec_into(x, out);
        axpy_lanes(S::ONE, &self.c_t, out);
    }

    /// Fused explicit gradient step: after the Hessian product lands in
    /// `out`, a single pass computes `yᵢ − step·(outᵢ + cᵢ)` — folding
    /// the linear term and the step transform that would otherwise each
    /// sweep the iterate separately.
    fn gradient_step_into(&self, y: &[S], step: S, out: &mut [S]) {
        self.hess_matvec_into(y, out);
        let n = out.len().min(y.len()).min(self.c_t.len());
        for i in 0..n {
            out[i] = y[i] - step * (out[i] + self.c_t[i]);
        }
    }

    fn hess_matvec_into(&self, x: &[S], out: &mut [S]) {
        let (m, nb) = (self.m, self.nb);
        debug_assert_eq!(x.len(), self.dim());
        debug_assert_eq!(out.len(), self.dim());
        // Block-diagonal part: out_r = Σ_s B[r,s] ∘ x_s, dense lanes.
        for r in 0..m {
            let out_r = &mut out[r * nb..(r + 1) * nb];
            for s in 0..m {
                let brs = &self.blocks_t[(r * m + s) * nb..(r * m + s + 1) * nb];
                let x_s = &x[s * nb..(s + 1) * nb];
                if s == 0 {
                    mul_into(out_r, brs, x_s);
                } else {
                    fma_into(out_r, brs, x_s);
                }
            }
        }
        // Low-rank tail: out += Σ_r w_r (s_rᵀ x) s_r. The scalar weight
        // rounds to S once, after the full-f64 dot.
        for cp in &self.couplings {
            if cp.weight == S::ZERO {
                continue;
            }
            let t = S::from_f64(cp.weight.to_f64() * lane_dot(&cp.s_t, x));
            if t != S::ZERO {
                axpy_lanes(t, &cp.s_t, out);
            }
        }
    }

    fn lmax_upper_bound(&self) -> Option<f64> {
        Some(self.lmax_bound.max(1e-12))
    }

    /// Layout-specialised exact projection onto box ∩ budgets.
    ///
    /// When every budget's nonzero support is a range disjoint from the
    /// others (always true for the PERQ per-step budgets once
    /// transposed), each budget projects independently over its
    /// contiguous slice with a dense branch-free bisection; everything
    /// outside the ranges is a plain clamp. Otherwise falls back to the
    /// generic projection.
    fn project(&self, x: &mut [S], scratch: &mut ProjectionScratch<S>) {
        if !self.disjoint_ranges {
            crate::projection::project_box_budgets_scratch(
                x,
                &self.lo_t,
                &self.hi_t,
                &self.budgets_plain,
                scratch,
            );
            return;
        }
        // Clamp everything; budget ranges are re-projected below from the
        // original coordinates held in the scratch copy.
        scratch.base.clear();
        scratch.base.extend_from_slice(x);
        for ((v, &lo), &hi) in x.iter_mut().zip(&self.lo_t).zip(&self.hi_t) {
            *v = v.max(lo).min(hi);
        }
        if scratch.lambda_warm.len() < self.budgets.len() {
            scratch.lambda_warm.resize(self.budgets.len(), 0.0);
        }
        for (bi, sb) in self.budgets.iter().enumerate() {
            let (s0, s1) = sb.support;
            if s0 >= s1 {
                continue;
            }
            project_range(
                &mut x[s0..s1],
                &scratch.base[s0..s1],
                &sb.budget.coeffs[s0..s1],
                &self.lo_t[s0..s1],
                &self.hi_t[s0..s1],
                sb.budget.limit,
                &mut scratch.lambda_warm[bi],
            );
        }
    }
}

/// Exact projection of one contiguous budget range.
///
/// Solves `aᵀ clamp(base − λa, lo, hi) = limit` for the multiplier `λ`
/// with safeguarded Newton on the piecewise-linear usage function: each
/// dense pass evaluates both the usage and its (negated) slope — the
/// active-set `Σ a²` — so a Newton step lands on or near the correct
/// breakpoint in a handful of passes, while a `[l, r]` bisection bracket
/// guarantees progress where the local slope misleads (usage is not
/// globally convex once upper clamps engage). `base` holds the ORIGINAL
/// pre-clamp coordinates, which the KKT form `z = clamp(base − λa)`
/// requires. `warm` carries the multiplier found by the previous call
/// through the same scratch (0 when cold) and receives the new one.
fn project_range<S: Scalar>(
    x: &mut [S],
    base: &[S],
    a: &[S],
    lo: &[S],
    hi: &[S],
    limit: S,
    warm: &mut f64,
) {
    let limit = limit.to_f64();
    let (u0, d0) = range_usage(base, a, S::ZERO, lo, hi);
    if u0 <= limit {
        // λ = 0: the pure clamp (already written by the caller) is exact.
        *warm = 0.0;
        return;
    }
    // Bracket invariant: usage(l) > limit ≥ usage(r). The feasible upper
    // endpoint starts at +∞ and is only resolved to the explicit cap
    // λ_max = max (baseᵢ − loᵢ)/aᵢ — a division-heavy O(n) scan — when a
    // bisection midpoint is actually needed: Newton from the infeasible
    // side converges monotonically upward without ever touching `r`, so
    // the common path (warm seed or clean Newton) skips the scan
    // entirely. λ_max clamps every positive-coefficient element to its
    // lower bound, and feasibility validation guarantees that box
    // minimum fits the budget.
    let mut l = 0.0_f64;
    let mut r = f64::INFINITY;
    // Seed from the previous projection through this scratch when
    // available: solver iterates move slowly, so the old root is usually
    // within a Newton step or two of the new one.
    let mut cand = if *warm > 0.0 {
        *warm
    } else if d0 > 0.0 {
        (u0 - limit) / d0
    } else {
        f64::NAN
    };
    let eps = S::EPSILON.to_f64();
    for _ in 0..S::BISECT_ITERS {
        if !(l < cand && cand < r) {
            if !r.is_finite() {
                r = explicit_lambda_cap(base, a, lo).max(S::MIN_POSITIVE.to_f64());
            }
            cand = 0.5 * (l + r);
        }
        let lam = S::from_f64(cand);
        let (u, d) = range_usage(base, a, lam, lo, hi);
        if u > limit {
            l = cand;
        } else {
            r = cand;
        }
        if r.is_finite() && r - l <= eps * r {
            // The bracket collapsed to one ulp of the scalar type;
            // further passes cannot move it. `r` stays the feasible
            // (usage ≤ limit) endpoint.
            break;
        }
        let step = if d > 0.0 { (u - limit) / d } else { 0.0 };
        if d > 0.0 && step.abs() <= eps * cand {
            // Newton stalled at scalar resolution. The usage is convex
            // decreasing in λ, so tangent steps from the infeasible side
            // land on or short of the root and never tighten `r` on
            // their own; once the step is below one ulp the remaining
            // passes would re-evaluate the same point.
            if u <= limit {
                // Feasible and within resolution of the root: done.
                break;
            }
            // Probe a couple of ulps up; either that point is feasible
            // (collapse `r` onto it) or the bracket floor advances by
            // the same amount and the next pass promotes again.
            cand *= 1.0 + 2.0 * eps;
            if cand >= r {
                break;
            }
            let (up, _) = range_usage(base, a, S::from_f64(cand), lo, hi);
            if up <= limit {
                r = cand;
                break;
            }
            l = cand;
            cand *= 1.0 + 2.0 * eps;
            continue;
        }
        cand = if d > 0.0 {
            cand + step
        } else if r.is_finite() {
            0.5 * (l + r)
        } else {
            f64::NAN
        };
    }
    if !r.is_finite() {
        // Iteration budget exhausted before Newton ever crossed to the
        // feasible side (pathological); fall back to the explicit cap,
        // which is feasible by validation.
        r = explicit_lambda_cap(base, a, lo).max(S::MIN_POSITIVE.to_f64());
    }
    let lambda = S::from_f64(r);
    *warm = r;
    for i in 0..x.len() {
        x[i] = (base[i] - lambda * a[i]).max(lo[i]).min(hi[i]);
    }
}

/// Explicit upper bound on the budget multiplier: the λ at which every
/// positive-coefficient element clamps to its lower bound. Only computed
/// when the Newton search actually needs a finite bisection bracket (the
/// scan is one division per element, which the common path avoids).
fn explicit_lambda_cap<S: Scalar>(base: &[S], a: &[S], lo: &[S]) -> f64 {
    let mut cap = S::ZERO;
    for i in 0..base.len() {
        if a[i] > S::ZERO {
            cap = cap.max((base[i] - lo[i]) / a[i]);
        }
    }
    cap.to_f64()
}

/// One dense pass over a budget range: returns
/// `(aᵀ clamp(base − λa, lo, hi), Σ_{i active} a_i²)` split-accumulated
/// in `f64`, where "active" means the clamp is strictly between its
/// bounds (the negated local slope of the usage in λ). Zero coefficients
/// contribute zero to both sums without a branch.
#[inline]
fn range_usage<S: Scalar>(base: &[S], a: &[S], lambda: S, lo: &[S], hi: &[S]) -> (f64, f64) {
    let n = base.len().min(a.len()).min(lo.len()).min(hi.len());
    let (base, a, lo, hi) = (&base[..n], &a[..n], &lo[..n], &hi[..n]);
    let mut acc = [0.0_f64; ACC_LANES];
    let mut slope = [0.0_f64; ACC_LANES];
    let mut bc = base.chunks_exact(ACC_LANES);
    let mut ac = a.chunks_exact(ACC_LANES);
    let mut lc = lo.chunks_exact(ACC_LANES);
    let mut hc = hi.chunks_exact(ACC_LANES);
    for (((bs, as_), ls), hs) in (&mut bc).zip(&mut ac).zip(&mut lc).zip(&mut hc) {
        for l in 0..ACC_LANES {
            let raw = bs[l] - lambda * as_[l];
            let z = raw.max(ls[l]).min(hs[l]);
            let av = as_[l].to_f64();
            let active = ((raw > ls[l]) & (raw < hs[l])) as u8 as f64;
            acc[l] += av * z.to_f64();
            slope[l] += active * av * av;
        }
    }
    let mut usage = 0.0_f64;
    let mut d = 0.0_f64;
    for (((&b, &av), &lv), &hv) in bc
        .remainder()
        .iter()
        .zip(ac.remainder())
        .zip(lc.remainder())
        .zip(hc.remainder())
    {
        let raw = b - lambda * av;
        let z = raw.max(lv).min(hv);
        let a64 = av.to_f64();
        let active = ((raw > lv) & (raw < hv)) as u8 as f64;
        usage += a64 * z.to_f64();
        d += active * a64 * a64;
    }
    (reduce_lanes(acc) + usage, reduce_lanes(slope) + d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProjGradSettings, ProjGradSolver};
    use perq_linalg::vecops;

    /// Deterministic pseudo-random stream (no external crates needed).
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Mirrors `structured::tests::random_structured` (PERQ-shaped:
    /// per-step budgets with disjoint strided supports).
    fn random_structured(k: usize, m: usize, seed: u64) -> StructuredQp {
        let mut rng = Lcg(seed);
        let n = k * m;
        let mut blocks = vec![0.0; k * m * m];
        for b in blocks.chunks_exact_mut(m * m) {
            let g: Vec<f64> = (0..m * m).map(|_| rng.range(-1.0, 1.0)).collect();
            for r in 0..m {
                for s in 0..m {
                    let mut dot = 0.0;
                    for t in 0..m {
                        dot += g[t * m + r] * g[t * m + s];
                    }
                    b[r * m + s] = dot + if r == s { 0.5 } else { 0.0 };
                }
            }
        }
        let couplings: Vec<crate::Coupling> = (0..m)
            .map(|j| crate::Coupling {
                weight: rng.range(0.0, 2.0),
                s: (0..n)
                    .map(|a| {
                        if a % m <= j {
                            rng.range(-1.0, 1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            })
            .collect();
        let c: Vec<f64> = (0..n).map(|_| rng.range(-2.0, 2.0)).collect();
        let lo = vec![0.0; n];
        let hi: Vec<f64> = (0..n).map(|_| rng.range(0.5, 1.5)).collect();
        let budgets: Vec<Budget> = (0..m)
            .map(|j| Budget {
                coeffs: (0..n)
                    .map(|a| if a % m == j { rng.range(0.5, 4.0) } else { 0.0 })
                    .collect(),
                limit: 0.4 * n as f64,
            })
            .collect();
        StructuredQp::new(m, blocks, couplings, c, lo, hi, budgets).expect("well-formed")
    }

    #[test]
    fn transpose_round_trips() {
        let sq = random_structured(5, 3, 7);
        let soa: SoaQp<f64> = SoaQp::from_structured(&sq);
        let x: Vec<f64> = (0..sq.dim()).map(|i| i as f64 * 0.1).collect();
        assert_eq!(soa.from_soa(&soa.to_soa(&x)), x);
    }

    #[test]
    fn per_step_budgets_become_contiguous_disjoint_ranges() {
        let sq = random_structured(6, 4, 11);
        let soa: SoaQp<f64> = SoaQp::from_structured(&sq);
        assert!(soa.disjoint_ranges);
        let nb = 6;
        for (j, sb) in soa.budgets.iter().enumerate() {
            assert_eq!(sb.support, (j * nb, (j + 1) * nb));
        }
    }

    #[test]
    fn soa_f64_matches_structured_operator() {
        for seed in 1..6 {
            let sq = random_structured(7, 4, seed);
            let soa: SoaQp<f64> = SoaQp::from_structured(&sq);
            let n = sq.dim();
            let mut rng = Lcg(seed ^ 0xabcdef);
            let x: Vec<f64> = (0..n).map(|_| rng.range(-1.5, 1.5)).collect();
            let x_t = soa.to_soa(&x);

            let o_ref = StructuredQp::objective(&sq, &x);
            let o_soa = QpOperator::objective(&soa, &x_t);
            assert!(
                (o_ref - o_soa).abs() < 1e-9 * (1.0 + o_ref.abs()),
                "objective {o_ref} vs {o_soa}"
            );

            let mut g_ref = vec![0.0; n];
            StructuredQp::gradient_into(&sq, &x, &mut g_ref);
            let mut g_soa_t = vec![0.0; n];
            QpOperator::gradient_into(&soa, &x_t, &mut g_soa_t);
            let g_soa = soa.from_soa(&g_soa_t);
            assert!(
                vecops::max_abs_diff(&g_ref, &g_soa) < 1e-9,
                "gradient mismatch"
            );
        }
    }

    #[test]
    fn soa_projection_matches_generic_projection() {
        for seed in [2u64, 9, 31] {
            let sq = random_structured(9, 3, seed);
            let soa: SoaQp<f64> = SoaQp::from_structured(&sq);
            let n = sq.dim();
            let mut rng = Lcg(seed ^ 0x51);
            let x: Vec<f64> = (0..n).map(|_| rng.range(-0.5, 3.0)).collect();

            // Generic path on the transposed problem.
            let mut generic = soa.to_soa(&x);
            crate::projection::project_box_budgets(
                &mut generic,
                &soa.lo_t,
                &soa.hi_t,
                &soa.budgets_plain,
            );
            // Specialised path.
            let mut fast = soa.to_soa(&x);
            let mut scratch = ProjectionScratch::default();
            soa.project(&mut fast, &mut scratch);

            assert!(
                vecops::max_abs_diff(&generic, &fast) < 1e-12,
                "projection mismatch at seed {seed}"
            );
        }
    }

    #[test]
    fn f64_soa_solve_agrees_with_aos_solve() {
        for seed in [3u64, 17, 99] {
            let sq = random_structured(5, 3, seed);
            let soa: SoaQp<f64> = SoaQp::from_structured(&sq);
            let solver = ProjGradSolver::new(ProjGradSettings {
                max_iters: 200_000,
                tol: 1e-12,
                power_iters: 60,
            });
            let aos = solver.solve(&sq, None).unwrap();
            let soa_sol = solver.solve(&soa, None).unwrap();
            let x_soa = soa.from_soa(&soa_sol.x);
            assert!(aos.converged && soa_sol.converged);
            assert!(
                vecops::max_abs_diff(&aos.x, &x_soa) < 1e-8,
                "seed {seed}: AoS {:?} vs SoA {:?}",
                aos.x,
                x_soa
            );
        }
    }

    #[test]
    fn f32_soa_solve_tracks_f64_solution() {
        for seed in [5u64, 23] {
            let sq = random_structured(8, 4, seed);
            let soa32: SoaQp<f32> = SoaQp::from_structured(&sq);
            let solver = ProjGradSolver::new(ProjGradSettings {
                max_iters: 20_000,
                tol: 1e-6,
                power_iters: 30,
            });
            let aos = solver.solve(&sq, None).unwrap();
            let sol32 = solver.solve(&soa32, None).unwrap();
            let x32 = soa32.from_soa(&sol32.x);
            let f_ref = StructuredQp::objective(&sq, &aos.x);
            let f_32 = StructuredQp::objective(&sq, &x32);
            let rel = (f_32 - f_ref).abs() / (1.0 + f_ref.abs());
            assert!(rel < 1e-3, "seed {seed}: objective rel err {rel}");
        }
    }

    #[test]
    fn f32_soa_solve_is_bitwise_deterministic() {
        let sq = random_structured(6, 4, 41);
        let solve_once = || {
            let soa32: SoaQp<f32> = SoaQp::from_structured(&sq);
            let solver = ProjGradSolver::default();
            solver.solve(&soa32, None).unwrap().x
        };
        let a = solve_once();
        let b = solve_once();
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}
