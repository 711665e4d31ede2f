use crate::problem::{QpOperator, QpSolution};
use crate::Result;
use perq_linalg::{vecops, Scalar};
use perq_telemetry::Recorder;
use std::time::Instant;

/// How many FISTA iterations run between deadline checks. `Instant::now`
/// costs a vdso call — cheap, but not free next to an O(jobs)
/// Hessian-vector product at small job counts.
const DEADLINE_STRIDE: usize = 16;

/// Tuning knobs for the accelerated projected-gradient solver.
#[derive(Debug, Clone)]
pub struct ProjGradSettings {
    /// Maximum FISTA iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the fixed-point residual
    /// `‖x − proj(x − ∇f(x)/L)‖∞` scaled by `L`.
    pub tol: f64,
    /// Power-iteration steps used to estimate the Lipschitz constant
    /// (largest eigenvalue of `Q`) when the operator does not provide a
    /// cheap upper bound.
    pub power_iters: usize,
}

impl Default for ProjGradSettings {
    fn default() -> Self {
        ProjGradSettings {
            max_iters: 2000,
            tol: 1e-7,
            power_iters: 30,
        }
    }
}

/// Reusable solver buffers: one per long-lived solver owner.
///
/// Holds every vector the FISTA iteration touches (`y`, gradient,
/// candidate iterate, power-iteration vectors, projection scratch), so a
/// solve performs no per-iteration allocation and repeated solves with
/// the same workspace perform no allocation at all beyond the returned
/// solution vector.
///
/// Generic over the iterate [`Scalar`]; the default `S = f64` keeps every
/// existing owner unchanged.
#[derive(Debug, Clone, Default)]
pub struct Workspace<S: Scalar = f64> {
    y: Vec<S>,
    grad: Vec<S>,
    x_next: Vec<S>,
    pow: Vec<S>,
    pow_next: Vec<S>,
    proj: crate::projection::ProjectionScratch<S>,
}

impl<S: Scalar> Workspace<S> {
    fn resize(&mut self, n: usize) {
        self.y.resize(n, S::ZERO);
        self.grad.resize(n, S::ZERO);
        self.x_next.resize(n, S::ZERO);
    }
}

/// Cached spectral information carried across solves.
///
/// PERQ solves one QP per control interval and the job set changes
/// slowly, so the dominant eigenvector of the previous instance's Hessian
/// is an excellent power-iteration seed: the re-estimate converges in a
/// couple of matrix-vector products instead of `power_iters`. The cached
/// `λ_max` also rides along for diagnostics.
#[derive(Debug, Clone, Default)]
pub struct LmaxCache<S: Scalar = f64> {
    /// Last Lipschitz estimate.
    lmax: Option<f64>,
    /// Last dominant-eigenvector estimate (empty until the first solve).
    eigvec: Vec<S>,
}

impl<S: Scalar> LmaxCache<S> {
    /// The last cached `λ_max` estimate, if any solve has populated it.
    pub fn lmax(&self) -> Option<f64> {
        self.lmax
    }
}

/// Accelerated projected-gradient (FISTA) solver for any [`QpOperator`]
/// (dense [`crate::BoxBudgetQp`], matrix-free [`crate::StructuredQp`], or
/// the SoA profile [`crate::SoaQp`] at either scalar precision).
///
/// This is the solver PERQ's MPC controller runs every decision interval.
/// The feasible set (box ∩ per-step power budgets) admits an exact O(n)
/// projection, so each iteration costs one Hessian-vector product plus one
/// projection. With warm starting from the previous interval's power-caps
/// the solver typically converges in a few dozen iterations.
///
/// Gradient-mapping monotonicity is enforced with an adaptive restart: if
/// the objective increases, the momentum sequence is reset, restoring the
/// plain projected-gradient descent guarantee.
///
/// The solver itself holds no scalar state: the iterate precision is the
/// `S` of the operator/workspace it is handed, and at `S = f64` every
/// operation is bit-identical to the pre-generic implementation.
#[derive(Debug, Clone, Default)]
pub struct ProjGradSolver {
    /// Solver settings.
    pub settings: ProjGradSettings,
    recorder: Recorder,
    /// Anytime-mode deadline: when set, the FISTA loop stops at the
    /// first stride boundary past this instant and returns its best
    /// iterate so far (monotone by the restart discipline), instead of
    /// running to `max_iters` or tolerance.
    deadline: Option<Instant>,
}

impl ProjGradSolver {
    /// Creates a solver with custom settings.
    pub fn new(settings: ProjGradSettings) -> Self {
        ProjGradSolver {
            settings,
            recorder: Recorder::noop(),
            deadline: None,
        }
    }

    /// Arms (or clears) the anytime deadline for subsequent solves.
    ///
    /// The deadline is a wall-clock instant, not a duration: the caller
    /// owning the control tick computes `tick_start + decide_budget`
    /// once and every solve in that tick shares the remaining time.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The currently armed anytime deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Attaches a telemetry recorder (builder form). Every solve then
    /// reports `perq_qp_*` metrics: solve/restart/convergence counters,
    /// an iteration histogram, the final residual, and `LmaxCache`
    /// hit/miss counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a telemetry recorder in place.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Solves the QP, optionally warm starting from `x0`.
    ///
    /// `x0` is projected onto the feasible set before use, so any previous
    /// solution is a valid warm start even after the constraint set moved.
    pub fn solve<S: Scalar, Q: QpOperator<S> + ?Sized>(
        &self,
        qp: &Q,
        x0: Option<&[S]>,
    ) -> Result<QpSolution<S>> {
        let mut ws: Workspace<S> = Workspace::default();
        self.solve_with(qp, x0, &mut ws, None)
    }

    /// [`ProjGradSolver::solve`] with caller-owned buffers and an optional
    /// spectral cache.
    ///
    /// The iteration loop allocates nothing: all working vectors live in
    /// `ws`. When `lmax_cache` is provided, the Lipschitz constant is
    /// re-estimated by a power iteration seeded with the cached dominant
    /// eigenvector (a few matrix-vector products once warm); without it,
    /// the operator's [`QpOperator::lmax_upper_bound`] is used when
    /// available and a cold power iteration otherwise.
    pub fn solve_with<S: Scalar, Q: QpOperator<S> + ?Sized>(
        &self,
        qp: &Q,
        x0: Option<&[S]>,
        ws: &mut Workspace<S>,
        lmax_cache: Option<&mut LmaxCache<S>>,
    ) -> Result<QpSolution<S>> {
        qp.validate()?;
        let n = qp.dim();
        ws.resize(n);

        let lipschitz = self.lipschitz(qp, ws, lmax_cache).max(1e-12);
        let step = S::from_f64(1.0 / lipschitz);

        let mut x: Vec<S> = match x0 {
            Some(v) if v.len() == n => v.to_vec(),
            _ => {
                let half = S::from_f64(0.5);
                qp.lo()
                    .iter()
                    .zip(qp.hi().iter())
                    .map(|(&l, &h)| half * (l + h))
                    .collect()
            }
        };
        qp.project(&mut x, &mut ws.proj);

        ws.y.copy_from_slice(&x);
        // Restart discipline is precision-gated (see
        // [`Scalar::OBJECTIVE_RESTART`]): the reference `f64` path
        // compares objective values in f64 — byte-identical to the
        // pre-generic solver — while reduced-precision iterates use the
        // gradient-mapping sign test, which fuses into the residual pass
        // and costs no objective evaluation per iteration.
        let ascent_eps = 1e-12_f64;
        let mut t = 1.0_f64;
        let mut f_prev = if S::OBJECTIVE_RESTART {
            qp.objective_f64(&x)
        } else {
            0.0
        };
        let mut residual = f64::INFINITY;
        let mut iterations = 0;
        let mut restarts = 0u64;
        let mut deadline_hit = false;

        for k in 0..self.settings.max_iters {
            // Anytime mode: past the deadline, stop and return the best
            // iterate found so far. Checked on a stride so the common
            // (no-deadline or fast-converging) path pays nothing per
            // iteration beyond a branch.
            if k % DEADLINE_STRIDE == 0 {
                if let Some(dl) = self.deadline {
                    if Instant::now() >= dl {
                        deadline_hit = true;
                        break;
                    }
                }
            }
            iterations = k + 1;
            if S::OBJECTIVE_RESTART {
                // Gradient step from the extrapolated point, then project.
                qp.gradient_into(&ws.y, &mut ws.grad);
                for ((xn, &yi), &gi) in ws.x_next.iter_mut().zip(ws.y.iter()).zip(ws.grad.iter()) {
                    *xn = yi - step * gi;
                }
                qp.project(&mut ws.x_next, &mut ws.proj);

                // Fixed-point residual scaled back to gradient units.
                residual = vecops::max_abs_diff(&ws.x_next, &ws.y).to_f64() * lipschitz;

                let f_next = qp.objective_f64(&ws.x_next);
                if f_next > f_prev + ascent_eps {
                    // Adaptive restart: drop momentum, retry from the best
                    // point.
                    restarts += 1;
                    t = 1.0;
                    ws.y.copy_from_slice(&x);
                    f_prev = qp.objective_f64(&x);
                    continue;
                }

                let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
                let beta = S::from_f64((t - 1.0) / t_next);
                for ((yi, &xn), &xo) in ws.y.iter_mut().zip(ws.x_next.iter()).zip(x.iter()) {
                    *yi = xn + beta * (xn - xo);
                }
                std::mem::swap(&mut x, &mut ws.x_next);
                f_prev = f_next;
                t = t_next;
            } else {
                // Reduced precision: fused gradient step, then one fused
                // pass for the residual and the gradient-mapping restart
                // test `(y − x₊)·(x₊ − x) > 0` (O'Donoghue-Candès).
                qp.gradient_step_into(&ws.y, step, &mut ws.x_next);
                qp.project(&mut ws.x_next, &mut ws.proj);

                let (diff, ascent) = diff_and_restart_dot(&ws.x_next, &ws.y, &x);
                residual = diff * lipschitz;
                if ascent > 0.0 {
                    restarts += 1;
                    t = 1.0;
                    ws.y.copy_from_slice(&x);
                    continue;
                }

                let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
                let beta = S::from_f64((t - 1.0) / t_next);
                for ((yi, &xn), &xo) in ws.y.iter_mut().zip(ws.x_next.iter()).zip(x.iter()) {
                    *yi = xn + beta * (xn - xo);
                }
                std::mem::swap(&mut x, &mut ws.x_next);
                t = t_next;
            }

            if residual < self.settings.tol * lipschitz.max(1.0) {
                break;
            }
        }

        // Final safety projection (momentum extrapolation never leaves x
        // infeasible, but guard against accumulated round-off).
        qp.project(&mut x, &mut ws.proj);
        let objective = qp.objective_f64(&x);
        let converged = residual < self.settings.tol * lipschitz.max(1.0);
        if self.recorder.enabled() {
            self.recorder.counter_inc("perq_qp_solves_total");
            if converged {
                self.recorder.counter_inc("perq_qp_converged_total");
            }
            if deadline_hit {
                self.recorder.counter_inc("perq_qp_deadline_hits_total");
            }
            self.recorder
                .counter_add("perq_qp_restarts_total", restarts);
            self.recorder
                .observe("perq_qp_iterations", iterations as f64);
            self.recorder.gauge_set("perq_qp_residual", residual);
        }
        Ok(QpSolution {
            x,
            objective,
            iterations,
            converged,
            residual,
        })
    }

    /// Picks the Lipschitz constant for the gradient step.
    ///
    /// - With a cache: power-iterate, seeded from the cached eigenvector
    ///   when the dimension matches (early-exits once the estimate
    ///   stabilises, so a warm re-estimate costs ~2-3 products), and clamp
    ///   to the operator's certified upper bound if one exists (the bound
    ///   is always a valid — if looser — Lipschitz constant).
    /// - Without a cache: trust the certified bound when available, fall
    ///   back to a cold power iteration otherwise.
    fn lipschitz<S: Scalar, Q: QpOperator<S> + ?Sized>(
        &self,
        qp: &Q,
        ws: &mut Workspace<S>,
        cache: Option<&mut LmaxCache<S>>,
    ) -> f64 {
        let bound = qp.lmax_upper_bound();
        match cache {
            None => bound.unwrap_or_else(|| power_iterate(qp, self.settings.power_iters, ws, None)),
            Some(cache) => {
                let n = qp.dim();
                let seed = if cache.eigvec.len() == n {
                    Some(cache.eigvec.as_slice())
                } else {
                    None
                };
                if self.recorder.enabled() {
                    self.recorder.counter_inc(if seed.is_some() {
                        "perq_qp_lmax_cache_hits_total"
                    } else {
                        "perq_qp_lmax_cache_misses_total"
                    });
                }
                let mut est = power_iterate(qp, self.settings.power_iters, ws, seed);
                if let Some(b) = bound {
                    est = est.min(b);
                }
                cache.lmax = Some(est);
                cache.eigvec.clear();
                cache.eigvec.extend_from_slice(&ws.pow);
                est
            }
        }
    }
}

/// Estimates `λ_max(Q)` by power iteration from a cold deterministic
/// start (exposed so tests can compare certified bounds against it).
pub fn estimate_lmax<S: Scalar, Q: QpOperator<S> + ?Sized>(qp: &Q, iters: usize) -> f64 {
    let mut ws: Workspace<S> = Workspace::default();
    power_iterate(qp, iters, &mut ws, None)
}

/// Power iteration on `Q` using the workspace's `pow`/`pow_next` buffers;
/// the final iterate is left in `ws.pow` so callers can cache it as a
/// seed. Early-exits once successive estimates agree to 0.1% (with a
/// good seed that happens after a couple of products).
fn power_iterate<S: Scalar, Q: QpOperator<S> + ?Sized>(
    qp: &Q,
    iters: usize,
    ws: &mut Workspace<S>,
    seed: Option<&[S]>,
) -> f64 {
    let n = qp.dim();
    if n == 0 {
        return 1.0;
    }
    ws.pow.clear();
    match seed {
        Some(v) if v.len() == n && vecops::norm2(v) > S::NORM_FLOOR => {
            ws.pow.extend_from_slice(v);
        }
        _ => {
            // Deterministic pseudo-random start vector avoids adversarial
            // alignment with a null eigenvector while keeping runs
            // reproducible.
            ws.pow.extend(
                (0..n).map(|i| S::from_f64(((i as f64 * 0.754_877_666 + 0.1).sin() + 1.5) / 2.0)),
            );
        }
    }
    ws.pow_next.resize(n, S::ZERO);

    let mut lmax = 1.0_f64;
    let mut lmax_prev = f64::NAN;
    for _ in 0..iters {
        qp.hess_matvec_into(&ws.pow, &mut ws.pow_next);
        let norm = vecops::norm2(&ws.pow_next);
        if norm < S::NORM_FLOOR {
            return 1.0;
        }
        lmax = norm.to_f64() / vecops::norm2(&ws.pow).to_f64().max(S::NORM_FLOOR.to_f64());
        let inv = S::ONE / norm;
        for (p, &w) in ws.pow.iter_mut().zip(ws.pow_next.iter()) {
            *p = w * inv;
        }
        if (lmax - lmax_prev).abs() <= 1e-3 * lmax {
            break;
        }
        lmax_prev = lmax;
    }
    // Rayleigh quotient for a tighter final estimate.
    qp.hess_matvec_into(&ws.pow, &mut ws.pow_next);
    let rq = vecops::dot(&ws.pow, &ws.pow_next).to_f64()
        / vecops::dot(&ws.pow, &ws.pow)
            .to_f64()
            .max(S::NORM_FLOOR.to_f64());
    // Small inflation guards against underestimation from finite iterations.
    (rq.max(lmax) * 1.01).max(1e-12)
}

/// One fused pass over the iterate triple computing `‖x₊ − y‖∞` and the
/// gradient-mapping restart indicator `(y − x₊)·(x₊ − x)`, both in `f64`.
///
/// The dot uses 8 split accumulators reduced in a fixed order, so
/// reduced-precision solves stay bitwise deterministic across runs and
/// thread counts while long sums do not lose the sub-ulp increments the
/// restart sign test depends on.
fn diff_and_restart_dot<S: Scalar>(xn: &[S], y: &[S], x: &[S]) -> (f64, f64) {
    const LANES: usize = 8;
    let n = xn.len().min(y.len()).min(x.len());
    let (xn, y, x) = (&xn[..n], &y[..n], &x[..n]);
    // Both reductions carry per-lane accumulators: the dot so long sums
    // keep f64 increments, the max so the loop has no serial dependency
    // chain (max is order-independent, so lane-splitting is exact).
    let mut dmax = [S::ZERO; LANES];
    let mut acc = [0.0_f64; LANES];
    let mut nc = xn.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    let mut oc = x.chunks_exact(LANES);
    for ((ns, ys), os) in (&mut nc).zip(&mut yc).zip(&mut oc) {
        for l in 0..LANES {
            let d = ns[l] - ys[l];
            dmax[l] = dmax[l].max(d.abs());
            acc[l] += (-d).to_f64() * (ns[l] - os[l]).to_f64();
        }
    }
    let mut diff = S::ZERO;
    for &m in &dmax {
        diff = diff.max(m);
    }
    let mut tail = 0.0_f64;
    for ((&ni, &yi), &oi) in nc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .zip(oc.remainder())
    {
        let d = ni - yi;
        diff = diff.max(d.abs());
        tail += (-d).to_f64() * (ni - oi).to_f64();
    }
    let dot = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    (diff.to_f64(), dot + tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kkt::solve_equality_qp;
    use crate::problem::{BoxBudgetQp, Budget};
    use perq_linalg::Matrix;

    fn solve(qp: &BoxBudgetQp) -> QpSolution {
        ProjGradSolver::default().solve(qp, None).unwrap()
    }

    #[test]
    fn past_deadline_returns_a_feasible_iterate_immediately() {
        let qp = BoxBudgetQp {
            q: Matrix::diag(&[2.0, 4.0]),
            c: vec![-2.0, -8.0],
            lo: vec![0.0; 2],
            hi: vec![1.0; 2],
            budgets: vec![Budget {
                coeffs: vec![1.0, 1.0],
                limit: 1.5,
            }],
        };
        let mut solver = ProjGradSolver::default();
        solver.set_deadline(Some(Instant::now() - std::time::Duration::from_secs(1)));
        // Warm start far outside the feasible set: anytime mode must
        // still hand back a projected (feasible) point.
        let s = solver.solve(&qp, Some(&[50.0, 50.0])).unwrap();
        assert_eq!(s.iterations, 0, "no iteration budget past the deadline");
        assert!(!s.converged);
        for &xi in &s.x {
            assert!((0.0..=1.0).contains(&xi), "box violated: {:?}", s.x);
        }
        assert!(s.x.iter().sum::<f64>() <= 1.5 + 1e-9, "budget violated");
    }

    #[test]
    fn future_deadline_does_not_perturb_convergence() {
        let qp = BoxBudgetQp {
            q: Matrix::diag(&[2.0, 4.0]),
            c: vec![-2.0, -8.0],
            lo: vec![-10.0; 2],
            hi: vec![10.0; 2],
            budgets: vec![],
        };
        let mut solver = ProjGradSolver::default();
        solver.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        let s = solver.solve(&qp, None).unwrap();
        let reference = solve(&qp);
        assert!(s.converged);
        assert_eq!(s.iterations, reference.iterations);
        assert_eq!(s.x, reference.x);
    }

    #[test]
    fn unconstrained_interior_minimum() {
        // Minimum at (1,2), box is wide, no budget.
        let qp = BoxBudgetQp {
            q: Matrix::diag(&[2.0, 4.0]),
            c: vec![-2.0, -8.0],
            lo: vec![-10.0; 2],
            hi: vec![10.0; 2],
            budgets: vec![],
        };
        let s = solve(&qp);
        assert!(s.converged);
        assert!((s.x[0] - 1.0).abs() < 1e-5, "{:?}", s.x);
        assert!((s.x[1] - 2.0).abs() < 1e-5, "{:?}", s.x);
    }

    #[test]
    fn box_active_at_solution() {
        // Unconstrained min at (5,5) but hi = 1 ⇒ solution at (1,1).
        let qp = BoxBudgetQp {
            q: Matrix::identity(2),
            c: vec![-5.0, -5.0],
            lo: vec![0.0; 2],
            hi: vec![1.0; 2],
            budgets: vec![],
        };
        let s = solve(&qp);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
        assert!((s.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn budget_active_matches_kkt_oracle() {
        // With the budget active and no box activity, the solution matches
        // the equality-constrained QP with aᵀx = limit.
        let q = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
        let c = vec![-4.0, -3.0];
        let qp = BoxBudgetQp {
            q: q.clone(),
            c: c.clone(),
            lo: vec![0.0; 2],
            hi: vec![10.0; 2],
            budgets: vec![Budget {
                coeffs: vec![1.0, 1.0],
                limit: 2.0,
            }],
        };
        let s = solve(&qp);
        let e = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let (x_eq, _) = solve_equality_qp(&q, &c, Some((&e, &[2.0]))).unwrap();
        assert!(
            vecops::max_abs_diff(&s.x, &x_eq) < 1e-4,
            "{:?} vs {x_eq:?}",
            s.x
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 40;
        let q = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let qp = BoxBudgetQp {
            q,
            c: (0..n).map(|i| -((i % 7) as f64)).collect(),
            lo: vec![0.0; n],
            hi: vec![3.0; n],
            budgets: vec![Budget {
                coeffs: vec![1.0; n],
                limit: 30.0,
            }],
        };
        let cold = solve(&qp);
        let warm = ProjGradSolver::default().solve(&qp, Some(&cold.x)).unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} > cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.objective <= cold.objective + 1e-6);
    }

    #[test]
    fn solution_is_feasible_and_kkt_stationary() {
        // Random-ish QP; verify no feasible descent direction exists by
        // checking the projected gradient vanishes.
        let q = Matrix::from_rows(&[&[3.0, 0.2, 0.1], &[0.2, 2.0, 0.0], &[0.1, 0.0, 1.5]]).unwrap();
        let qp = BoxBudgetQp {
            q,
            c: vec![-10.0, 1.0, -2.0],
            lo: vec![0.0; 3],
            hi: vec![2.0; 3],
            budgets: vec![Budget {
                coeffs: vec![1.0, 1.0, 1.0],
                limit: 3.5,
            }],
        };
        let s = solve(&qp);
        assert!(qp.is_feasible(&s.x, 1e-7));
        // Projected-gradient stationarity: proj(x − t∇f(x)) == x.
        let grad = qp.gradient(&s.x);
        let mut probe = s.x.clone();
        vecops::axpy(-1e-3, &grad, &mut probe);
        crate::projection::project_box_budgets(&mut probe, &qp.lo, &qp.hi, &qp.budgets);
        assert!(vecops::max_abs_diff(&probe, &s.x) < 1e-5);
    }

    #[test]
    fn infeasible_problem_rejected() {
        let qp = BoxBudgetQp {
            q: Matrix::identity(2),
            c: vec![0.0; 2],
            lo: vec![1.0; 2],
            hi: vec![2.0; 2],
            budgets: vec![Budget {
                coeffs: vec![1.0; 2],
                limit: 1.0,
            }],
        };
        assert!(ProjGradSolver::default().solve(&qp, None).is_err());
    }

    #[test]
    fn workspace_and_cache_reuse_matches_plain_solve() {
        let q = Matrix::from_rows(&[&[3.0, 0.4], &[0.4, 2.0]]).unwrap();
        let qp = BoxBudgetQp {
            q,
            c: vec![-2.0, -3.0],
            lo: vec![0.0; 2],
            hi: vec![1.5; 2],
            budgets: vec![Budget {
                coeffs: vec![1.0, 1.0],
                limit: 2.0,
            }],
        };
        let solver = ProjGradSolver::default();
        let plain = solver.solve(&qp, None).unwrap();

        let mut ws = Workspace::default();
        let mut cache = LmaxCache::default();
        let first = solver
            .solve_with(&qp, None, &mut ws, Some(&mut cache))
            .unwrap();
        assert!(cache.lmax().is_some());
        // Re-solving with the warm cache and workspace converges to the
        // same point.
        let second = solver
            .solve_with(&qp, Some(&first.x), &mut ws, Some(&mut cache))
            .unwrap();
        assert!(vecops::max_abs_diff(&plain.x, &second.x) < 1e-6);
        assert!(second.iterations <= first.iterations);
    }
}
