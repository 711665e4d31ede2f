//! Property-based tests: the iterative QP solver must always return
//! feasible points that satisfy the optimality conditions, and the dense
//! and structured operators must agree on random problems.

use perq_linalg::{vecops, Matrix};
use perq_qp::{
    estimate_lmax, project_box_budget, BoxBudgetQp, Budget, Coupling, ProjGradSettings,
    ProjGradSolver, QpOperator, StructuredQp,
};
use proptest::prelude::*;

/// Random SPD Hessian of size n: Gram of a random matrix plus ridge.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |d| {
        let b = Matrix::from_vec(n, n, d).unwrap();
        let mut g = b.gram();
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    })
}

fn random_qp(n: usize) -> impl Strategy<Value = BoxBudgetQp> {
    (
        spd(n),
        prop::collection::vec(-5.0f64..5.0, n),
        prop::collection::vec(0.1f64..2.0, n),
        0.3f64..0.9,
    )
        .prop_map(move |(q, c, widths, budget_frac)| {
            let lo: Vec<f64> = vec![0.0; n];
            let hi: Vec<f64> = widths;
            let max_usage: f64 = hi.iter().sum();
            BoxBudgetQp {
                q,
                c,
                lo,
                hi,
                budgets: vec![Budget {
                    coeffs: vec![1.0; n],
                    limit: budget_frac * max_usage,
                }],
            }
        })
}

/// Random structured QP: `k` SPD `m × m` blocks plus `m` rank-one
/// couplings, with per-step budgets (the PERQ shape).
fn random_structured(k: usize, m: usize) -> impl Strategy<Value = StructuredQp> {
    let n = k * m;
    (
        prop::collection::vec(-1.0f64..1.0, k * m * m),
        prop::collection::vec(0.0f64..1.5, m),
        prop::collection::vec(-1.0f64..1.0, m * n),
        prop::collection::vec(-2.0f64..2.0, n),
        0.3f64..0.9,
    )
        .prop_map(move |(raw, weights, svals, c, budget_frac)| {
            // Each block: Gram of a random m×m matrix plus ridge (SPD and
            // exactly symmetric).
            let mut blocks = vec![0.0; k * m * m];
            for b in 0..k {
                let a = &raw[b * m * m..(b + 1) * m * m];
                let blk = &mut blocks[b * m * m..(b + 1) * m * m];
                for r in 0..m {
                    for cidx in 0..m {
                        let mut s = if r == cidx { 1.0 } else { 0.0 };
                        for t in 0..m {
                            s += a[t * m + r] * a[t * m + cidx];
                        }
                        blk[r * m + cidx] = s;
                    }
                }
            }
            let couplings: Vec<Coupling> = (0..m)
                .map(|j| Coupling {
                    weight: weights[j],
                    s: svals[j * n..(j + 1) * n].to_vec(),
                })
                .collect();
            // One budget per horizon step, PERQ-style disjoint supports.
            let budgets: Vec<Budget> = (0..m)
                .map(|j| {
                    let mut coeffs = vec![0.0; n];
                    for i in 0..k {
                        coeffs[i * m + j] = 1.0;
                    }
                    Budget {
                        coeffs,
                        limit: budget_frac * k as f64,
                    }
                })
                .collect();
            StructuredQp::new(m, blocks, couplings, c, vec![0.0; n], vec![1.0; n], budgets)
                .expect("generated operator is well-formed")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn projection_feasible_and_idempotent(
        x in prop::collection::vec(-5.0f64..5.0, 6),
        limit in 0.5f64..4.0,
    ) {
        let lo = vec![0.0; 6];
        let hi = vec![1.0; 6];
        let b = Budget { coeffs: vec![1.0; 6], limit };
        let mut p = x.clone();
        project_box_budget(&mut p, &lo, &hi, &b);
        // Feasible.
        prop_assert!(b.satisfied(&p, 1e-7));
        for (i, &v) in p.iter().enumerate() {
            prop_assert!(v >= lo[i] - 1e-9 && v <= hi[i] + 1e-9);
        }
        // Idempotent.
        let mut p2 = p.clone();
        project_box_budget(&mut p2, &lo, &hi, &b);
        prop_assert!(vecops::max_abs_diff(&p, &p2) < 1e-7);
    }

    #[test]
    fn projection_is_nearest_feasible_point(
        x in prop::collection::vec(-3.0f64..3.0, 4),
        probe in prop::collection::vec(0.0f64..1.0, 4),
        limit in 0.5f64..3.0,
    ) {
        // The projection must be at least as close to x as any feasible probe.
        let lo = vec![0.0; 4];
        let hi = vec![1.0; 4];
        let b = Budget { coeffs: vec![1.0; 4], limit };
        let mut p = x.clone();
        project_box_budget(&mut p, &lo, &hi, &b);
        // Make the probe feasible by projecting it too (any feasible point works).
        let mut q = probe.clone();
        project_box_budget(&mut q, &lo, &hi, &b);
        let d_p = vecops::norm2(&vecops::sub(&p, &x));
        let d_q = vecops::norm2(&vecops::sub(&q, &x));
        prop_assert!(d_p <= d_q + 1e-6, "projection {d_p} farther than probe {d_q}");
    }

    #[test]
    fn projgrad_solution_feasible_and_stationary(qp in random_qp(5)) {
        let s = ProjGradSolver::default().solve(&qp, None).unwrap();
        prop_assert!(qp.is_feasible(&s.x, 1e-6));
        // No feasible descent: a small projected gradient step must not
        // improve the objective by more than numerical noise.
        let grad = qp.gradient(&s.x);
        let mut probe = s.x.clone();
        vecops::axpy(-1e-4, &grad, &mut probe);
        let b = &qp.budgets[0];
        project_box_budget(&mut probe, &qp.lo, &qp.hi, b);
        prop_assert!(qp.objective(&probe) >= s.objective - 1e-5);
    }

    /// The KKT conditions of `min ½xᵀQx + cᵀx` over `lo ≤ x ≤ hi`,
    /// `aᵀx ≤ b`, checked directly on the solver's answer: a budget
    /// multiplier `λ ≥ 0` with complementary slackness, a reduced
    /// gradient `g + λa` that vanishes on the free coordinates, points
    /// into the box at a lower bound and out of it at an upper one.
    #[test]
    fn projgrad_answer_satisfies_kkt(qp in random_qp(4)) {
        let s = ProjGradSolver::default().solve(&qp, None).unwrap();
        let (x, b) = (&s.x, &qp.budgets[0]);
        let g = qp.gradient(x);
        let tol = 1e-4 * (1.0 + vecops::norm_inf(&g));
        let at_lo: Vec<bool> = (0..x.len()).map(|i| x[i] - qp.lo[i] <= 1e-9).collect();
        let at_hi: Vec<bool> = (0..x.len()).map(|i| qp.hi[i] - x[i] <= 1e-9).collect();
        let free: Vec<usize> = (0..x.len()).filter(|&i| !at_lo[i] && !at_hi[i]).collect();

        let slack = b.limit - vecops::dot(&b.coeffs, x);
        prop_assert!(slack >= -1e-7, "budget exceeded by {}", -slack);
        // λ: zero off the budget; on it, the least-squares fit over the
        // free coordinates, or — every coordinate at a bound — the
        // smallest value that keeps the lower-bound coordinates in.
        let lambda = if slack > 1e-6 {
            0.0
        } else if !free.is_empty() {
            let num: f64 = free.iter().map(|&i| g[i] * b.coeffs[i]).sum();
            let den: f64 = free.iter().map(|&i| b.coeffs[i] * b.coeffs[i]).sum();
            -num / den
        } else {
            (0..x.len())
                .filter(|&i| at_lo[i])
                .map(|i| -g[i] / b.coeffs[i])
                .fold(0.0, f64::max)
        };
        prop_assert!(lambda >= -tol, "budget multiplier {lambda} < 0");
        for i in 0..x.len() {
            let reduced = g[i] + lambda * b.coeffs[i];
            if at_lo[i] {
                prop_assert!(reduced >= -tol, "x[{i}] at lo with reduced gradient {reduced}");
            } else if at_hi[i] {
                prop_assert!(reduced <= tol, "x[{i}] at hi with reduced gradient {reduced}");
            } else {
                prop_assert!(reduced.abs() <= tol, "free x[{i}]: reduced gradient {reduced}");
            }
        }
    }

    #[test]
    fn warm_start_never_worse(qp in random_qp(5)) {
        let solver = ProjGradSolver::default();
        let cold = solver.solve(&qp, None).unwrap();
        let warm = solver.solve(&qp, Some(&cold.x)).unwrap();
        prop_assert!(warm.objective <= cold.objective + 1e-6);
        prop_assert!(qp.is_feasible(&warm.x, 1e-6));
    }

    #[test]
    fn structured_matches_dense_operator(
        sqp in random_structured(4, 3),
        xraw in prop::collection::vec(-2.0f64..2.0, 12),
    ) {
        let dense = sqp.to_dense();
        let n = QpOperator::dim(&sqp);
        let x = &xraw[..n];
        let fo = dense.objective(x);
        let fs = QpOperator::objective(&sqp, x);
        prop_assert!((fo - fs).abs() <= 1e-9 * (1.0 + fo.abs()), "{fo} vs {fs}");
        let mut gd = vec![0.0; n];
        let mut gs = vec![0.0; n];
        dense.gradient_into(x, &mut gd);
        sqp.gradient_into(x, &mut gs);
        let mut hd = vec![0.0; n];
        let mut hs = vec![0.0; n];
        QpOperator::hess_matvec_into(&dense, x, &mut hd);
        sqp.hess_matvec_into(x, &mut hs);
        for i in 0..n {
            prop_assert!((gd[i] - gs[i]).abs() <= 1e-9 * (1.0 + gd[i].abs()));
            prop_assert!((hd[i] - hs[i]).abs() <= 1e-9 * (1.0 + hd[i].abs()));
        }
    }

    #[test]
    fn structured_lmax_bound_dominates(sqp in random_structured(3, 3)) {
        // The certified Gershgorin + coupling-trace bound must dominate
        // the power-iteration estimate (up to its 1% inflation).
        let est = estimate_lmax(&sqp, 200);
        prop_assert!(
            sqp.lmax_bound() >= est / 1.02,
            "bound {} below estimate {est}", sqp.lmax_bound()
        );
    }

    #[test]
    fn structured_and_dense_solves_agree(sqp in random_structured(3, 3)) {
        let dense = sqp.to_dense();
        let solver = ProjGradSolver::new(ProjGradSettings {
            max_iters: 200_000,
            tol: 1e-12,
            power_iters: 60,
        });
        let ss = solver.solve(&sqp, None).unwrap();
        let sd = solver.solve(&dense, None).unwrap();
        prop_assert!(
            vecops::max_abs_diff(&ss.x, &sd.x) < 1e-8,
            "structured {:?} vs dense {:?}", ss.x, sd.x
        );
    }
}
