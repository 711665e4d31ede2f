use crate::problem::Budget;
use perq_linalg::Scalar;

/// Reusable buffers for the projection routines.
///
/// The projections need a copy of the pre-projection point (the bisection
/// on the budget multiplier must always restart from the original
/// coordinates); callers that project once per solver iteration pass a
/// scratch so that copy does not allocate every time.
#[derive(Debug, Clone, Default)]
pub struct ProjectionScratch<S: Scalar = f64> {
    pub(crate) base: Vec<S>,
    orig: Vec<S>,
    sub: Vec<S>,
    /// Which variables some budget already covers (`disjoint_supports`).
    seen: Vec<bool>,
    /// Per-budget multiplier from the previous projection through this
    /// scratch; the SoA fast path seeds its Newton search from it
    /// (solver iterates move slowly, so the previous λ is usually within
    /// a step or two of the new root). Zero means cold.
    pub(crate) lambda_warm: Vec<f64>,
}

/// Euclidean projection of `x` onto `{ lo ≤ z ≤ hi, aᵀz ≤ limit }` with
/// `a ≥ 0`, in place.
///
/// By the KKT conditions of the projection problem, the projection has the
/// closed form `z = clamp(x − λ a, lo, hi)` where `λ ≥ 0` is the budget
/// constraint's multiplier: `λ = 0` if the clamped point already satisfies
/// the budget, otherwise the unique root of the continuous, non-increasing
/// function `g(λ) = aᵀ clamp(x − λa, lo, hi) − limit`. The root is found by
/// bisection; `g` is piecewise linear so [`Scalar::BISECT_ITERS`] halvings
/// resolve the multiplier past the precision's round-off floor at O(n) per
/// iteration.
///
/// # Panics
///
/// Debug-panics if dimensions disagree. The feasibility pre-condition
/// `aᵀ lo ≤ limit` must hold (checked by [`crate::BoxBudgetQp::validate`]);
/// if it does not, the result is the box projection of the most-constrained
/// point rather than a feasible point.
pub fn project_box_budget<S: Scalar>(x: &mut [S], lo: &[S], hi: &[S], budget: &Budget<S>) {
    let mut base = Vec::new();
    project_box_budget_in(x, lo, hi, budget, &mut base);
}

/// [`project_box_budget`] with a caller-provided copy buffer (grown on
/// demand, never shrunk), so per-iteration callers do not allocate.
fn project_box_budget_in<S: Scalar>(
    x: &mut [S],
    lo: &[S],
    hi: &[S],
    budget: &Budget<S>,
    base: &mut Vec<S>,
) {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    debug_assert_eq!(x.len(), budget.coeffs.len());

    let a = &budget.coeffs;
    // KKT form: z = clamp(x_original − λa). λ = 0 (pure box projection)
    // if that already satisfies the budget. The bisection must use the
    // ORIGINAL x, not a pre-clamped copy, or components outside the box
    // would stop responding to λ.
    base.clear();
    base.extend_from_slice(x);
    if usage_at(base, a, S::ZERO, lo, hi) <= budget.limit {
        for i in 0..x.len() {
            x[i] = x[i].max(lo[i]).min(hi[i]);
        }
        return;
    }

    // Bisection on λ over [0, λ_max]. At λ_max every component with a
    // positive coefficient has been pushed to its lower bound, so the usage
    // equals aᵀlo ≤ limit (feasibility precondition).
    let mut lambda_max = S::ZERO;
    for i in 0..base.len() {
        if a[i] > S::ZERO {
            lambda_max = lambda_max.max((base[i] - lo[i]) / a[i]);
        }
    }
    let half = S::from_f64(0.5);
    let (mut l, mut r) = (S::ZERO, lambda_max.max(S::MIN_POSITIVE));
    for _ in 0..S::BISECT_ITERS {
        let mid = half * (l + r);
        if usage_at(base, a, mid, lo, hi) > budget.limit {
            l = mid;
        } else {
            r = mid;
        }
    }
    let lambda = r;
    for i in 0..x.len() {
        x[i] = (base[i] - lambda * a[i]).max(lo[i]).min(hi[i]);
    }
}

/// Usage `aᵀ clamp(base − λ a, lo, hi)`.
#[inline]
fn usage_at<S: Scalar>(base: &[S], a: &[S], lambda: S, lo: &[S], hi: &[S]) -> S {
    let mut s = S::ZERO;
    for i in 0..base.len() {
        if a[i] == S::ZERO {
            continue;
        }
        let z = (base[i] - lambda * a[i]).max(lo[i]).min(hi[i]);
        s += a[i] * z;
    }
    s
}

/// Projects onto the intersection of a box and several budgets.
///
/// When the budgets have pairwise-disjoint supports (the PERQ case: one
/// budget per prediction-horizon step, each covering only that step's
/// variables) the projections are independent and a single pass is exact.
/// For overlapping budgets this falls back to Dykstra's alternating
/// projection algorithm, which converges to the exact projection onto the
/// intersection of convex sets.
pub fn project_box_budgets<S: Scalar>(x: &mut [S], lo: &[S], hi: &[S], budgets: &[Budget<S>]) {
    let mut scratch = ProjectionScratch::default();
    project_box_budgets_scratch(x, lo, hi, budgets, &mut scratch);
}

/// [`project_box_budgets`] with caller-provided scratch buffers.
///
/// The solvers call this once per iteration; routing the two internal
/// working copies through [`ProjectionScratch`] keeps the iteration loop
/// allocation-free. (The rarely-taken Dykstra fallback for overlapping
/// budgets still allocates its per-budget increments.)
pub fn project_box_budgets_scratch<S: Scalar>(
    x: &mut [S],
    lo: &[S],
    hi: &[S],
    budgets: &[Budget<S>],
    scratch: &mut ProjectionScratch<S>,
) {
    match budgets {
        [] => {
            for i in 0..x.len() {
                x[i] = x[i].max(lo[i]).min(hi[i]);
            }
        }
        [b] => project_box_budget_in(x, lo, hi, b, &mut scratch.base),
        _ if disjoint_supports(budgets, &mut scratch.seen) => {
            // The projection decomposes over the disjoint supports, but each
            // budget's sub-projection must start from the ORIGINAL point.
            scratch.orig.clear();
            scratch.orig.extend_from_slice(x);
            for i in 0..x.len() {
                x[i] = scratch.orig[i].max(lo[i]).min(hi[i]);
            }
            for b in budgets {
                scratch.sub.clear();
                scratch.sub.extend_from_slice(&scratch.orig);
                project_box_budget_in(&mut scratch.sub, lo, hi, b, &mut scratch.base);
                for (i, &a) in b.coeffs.iter().enumerate() {
                    if a > S::ZERO {
                        x[i] = scratch.sub[i];
                    }
                }
            }
        }
        _ => dykstra(x, lo, hi, budgets),
    }
}

/// Returns `true` if no variable has a positive coefficient in two budgets.
/// `seen` is caller-kept scratch, overwritten.
fn disjoint_supports<S: Scalar>(budgets: &[Budget<S>], seen: &mut Vec<bool>) -> bool {
    seen.clear();
    seen.resize(budgets[0].coeffs.len(), false);
    for b in budgets {
        for (i, &a) in b.coeffs.iter().enumerate() {
            if a > S::ZERO {
                if seen[i] {
                    return false;
                }
                seen[i] = true;
            }
        }
    }
    true
}

/// Dykstra's algorithm over the sets `{box ∩ budget_k}`.
fn dykstra<S: Scalar>(x: &mut [S], lo: &[S], hi: &[S], budgets: &[Budget<S>]) {
    const SWEEPS: usize = 60;
    let n = x.len();
    let m = budgets.len();
    let tol = S::from_f64(1e-12);
    let mut increments = vec![vec![S::ZERO; n]; m];
    for _ in 0..SWEEPS {
        let mut moved = S::ZERO;
        for (k, b) in budgets.iter().enumerate() {
            let mut y: Vec<S> = (0..n).map(|i| x[i] + increments[k][i]).collect();
            project_box_budget(&mut y, lo, hi, b);
            for i in 0..n {
                let new_inc = x[i] + increments[k][i] - y[i];
                moved = moved.max((y[i] - x[i]).abs());
                increments[k][i] = new_inc;
                x[i] = y[i];
            }
        }
        if moved < tol {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(coeffs: Vec<f64>, limit: f64) -> Budget {
        Budget { coeffs, limit }
    }

    #[test]
    fn inactive_budget_is_pure_clamp() {
        let mut x = vec![-1.0, 0.5, 2.0];
        project_box_budget(&mut x, &[0.0; 3], &[1.0; 3], &budget(vec![1.0; 3], 10.0));
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn symmetric_overflow_split_evenly() {
        // Projecting (1,1) onto {0≤x≤1, x₀+x₁ ≤ 1} gives (0.5, 0.5).
        let mut x = vec![1.0, 1.0];
        project_box_budget(&mut x, &[0.0; 2], &[1.0; 2], &budget(vec![1.0; 2], 1.0));
        assert!((x[0] - 0.5).abs() < 1e-9);
        assert!((x[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lower_bounds_respected_under_budget_pressure() {
        // Budget forces reduction but lo stops one component.
        let mut x = vec![1.0, 1.0];
        let lo = [0.8, 0.0];
        project_box_budget(&mut x, &lo, &[1.0; 2], &budget(vec![1.0; 2], 1.0));
        assert!(x[0] >= 0.8 - 1e-12);
        assert!((x[0] + x[1] - 1.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn zero_coefficient_components_untouched_by_budget() {
        let mut x = vec![5.0, 5.0];
        let lo = [0.0, 0.0];
        let hi = [10.0, 10.0];
        project_box_budget(&mut x, &lo, &hi, &budget(vec![1.0, 0.0], 2.0));
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert_eq!(x[1], 5.0);
    }

    #[test]
    fn weighted_budget() {
        // min ‖z − (4,4)‖ s.t. 2 z₀ + z₁ ≤ 6, 0 ≤ z ≤ 10.
        // Solution: z = (4,4) − λ(2,1) with 2z₀+z₁ = 6 → λ = 6/5 ⇒ z = (1.6, 2.8).
        let mut x = vec![4.0, 4.0];
        project_box_budget(&mut x, &[0.0; 2], &[10.0; 2], &budget(vec![2.0, 1.0], 6.0));
        assert!((x[0] - 1.6).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 2.8).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn disjoint_budgets_single_pass() {
        let mut x = vec![1.0, 1.0, 1.0, 1.0];
        let budgets = vec![
            budget(vec![1.0, 1.0, 0.0, 0.0], 1.0),
            budget(vec![0.0, 0.0, 1.0, 1.0], 1.0),
        ];
        project_box_budgets(&mut x, &[0.0; 4], &[1.0; 4], &budgets);
        for pair in [(0, 1), (2, 3)] {
            assert!((x[pair.0] + x[pair.1] - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn overlapping_budgets_dykstra_feasible() {
        let mut x = vec![2.0, 2.0, 2.0];
        let budgets = vec![
            budget(vec![1.0, 1.0, 0.0], 1.0),
            budget(vec![0.0, 1.0, 1.0], 1.0),
        ];
        project_box_budgets(&mut x, &[0.0; 3], &[2.0; 3], &budgets);
        for b in &budgets {
            assert!(b.satisfied(&x, 1e-6), "violated: {x:?}");
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let lo = [0.0; 3];
        let hi = [1.0; 3];
        let b = budget(vec![1.0, 2.0, 0.5], 1.2);
        let mut x = vec![0.9, 0.8, 0.7];
        project_box_budget(&mut x, &lo, &hi, &b);
        let once = x.clone();
        project_box_budget(&mut x, &lo, &hi, &b);
        for (a, c) in x.iter().zip(once.iter()) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn f32_projection_matches_f64_within_tolerance() {
        let b64 = budget(vec![2.0, 1.0], 6.0);
        let b32: Budget<f32> = b64.cast();
        let mut x64 = vec![4.0, 4.0];
        let mut x32 = vec![4.0_f32, 4.0];
        project_box_budget(&mut x64, &[0.0; 2], &[10.0; 2], &b64);
        project_box_budget(&mut x32, &[0.0_f32; 2], &[10.0_f32; 2], &b32);
        for (a, c) in x64.iter().zip(x32.iter()) {
            assert!((a - *c as f64).abs() < 1e-5, "{x64:?} vs {x32:?}");
        }
    }
}
