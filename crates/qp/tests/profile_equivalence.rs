//! Property-based equivalence of the precision/layout profiles against
//! the `f64` dense-oracle path on random PERQ-shaped structured QPs:
//!
//! - every profile's objective lands within 1e-3 relative of the
//!   `f64_aos` reference (the mixed profile's accuracy contract);
//! - no profile violates the box/budget constraints by more than the
//!   `f64` path plus tolerance (f32-derived answers are re-projected in
//!   `f64`, so they should be *exactly* feasible);
//! - a fixed profile is bitwise deterministic: re-solving the same
//!   instance — in this thread or any spawned thread — reproduces the
//!   identical bit pattern, because the SoA kernels pin one summation
//!   order regardless of host parallelism.

use perq_qp::{
    solve_profiled, Budget, Coupling, ProfiledQpState, ProjGradSettings, ProjGradSolver,
    QpOperator, QpSolution, SolverProfile, StructuredQp,
};
use proptest::prelude::*;

/// Random structured QP: `k` SPD `m × m` blocks plus `m` rank-one
/// couplings, with per-step budgets (the PERQ shape).
fn random_structured(k: usize, m: usize) -> impl Strategy<Value = StructuredQp> {
    let n = k * m;
    (
        prop::collection::vec(-1.0f64..1.0, k * m * m),
        prop::collection::vec(0.0f64..2.0, m),
        prop::collection::vec(-1.0f64..1.0, m * n),
        prop::collection::vec(-2.0f64..2.0, n),
        prop::collection::vec(0.5f64..1.5, n),
        prop::collection::vec(0.5f64..4.0, n * m),
    )
        .prop_map(move |(raw, weights, dirs, c, hi, coeffs)| {
            let mut blocks = vec![0.0; k * m * m];
            for (b, g) in blocks.chunks_exact_mut(m * m).zip(raw.chunks_exact(m * m)) {
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
            let couplings: Vec<Coupling> = (0..m)
                .map(|j| Coupling {
                    weight: weights[j],
                    s: (0..n)
                        .map(|a| if a % m <= j { dirs[j * n + a] } else { 0.0 })
                        .collect(),
                })
                .collect();
            // Per-step budgets with disjoint supports — the shape the SoA
            // projection fast path specialises.
            let budgets: Vec<Budget> = (0..m)
                .map(|j| Budget {
                    coeffs: (0..n)
                        .map(|a| if a % m == j { coeffs[j * n + a] } else { 0.0 })
                        .collect(),
                    limit: 0.4 * n as f64,
                })
                .collect();
            StructuredQp::new(m, blocks, couplings, c, vec![0.0; n], hi, budgets).unwrap()
        })
}

fn solver() -> ProjGradSolver {
    ProjGradSolver::new(ProjGradSettings {
        max_iters: 4000,
        tol: 1e-8,
        power_iters: 25,
    })
}

/// Worst budget overshoot of a point, in budget units (≤ 0 = feasible).
fn budget_violation(sq: &StructuredQp, x: &[f64]) -> f64 {
    QpOperator::budgets(sq)
        .iter()
        .map(|b| {
            let usage: f64 = b.coeffs.iter().zip(x.iter()).map(|(&a, &v)| a * v).sum();
            usage - b.limit
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Worst box overshoot of a point (≤ 0 = inside the box).
fn box_violation(sq: &StructuredQp, x: &[f64]) -> f64 {
    let lo = QpOperator::lo(sq);
    let hi = QpOperator::hi(sq);
    x.iter()
        .enumerate()
        .map(|(i, &v)| (lo[i] - v).max(v - hi[i]))
        .fold(f64::NEG_INFINITY, f64::max)
}

fn solve(sq: &StructuredQp, profile: SolverProfile) -> QpSolution {
    let mut state = ProfiledQpState::default();
    solve_profiled(&solver(), sq, None, profile, &mut state)
        .expect("profiled solve succeeds on validated problems")
        .solution
}

const NON_REFERENCE: [SolverProfile; 2] = [
    SolverProfile {
        precision: perq_qp::Precision::F64,
        layout: perq_qp::Layout::Soa,
    },
    SolverProfile {
        precision: perq_qp::Precision::Mixed,
        layout: perq_qp::Layout::Soa,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Objective agreement: every profile within 1e-3 relative of the
    /// f64 oracle (SoA f64 should be far tighter; asserted at 1e-6).
    #[test]
    fn profiles_agree_with_f64_oracle(sq in random_structured(7, 3)) {
        let oracle = solve(&sq, SolverProfile::f64_aos());
        for profile in NON_REFERENCE {
            let got = solve(&sq, profile);
            let rel = (got.objective - oracle.objective).abs()
                / (1.0 + oracle.objective.abs());
            let bound = if profile.precision == perq_qp::Precision::F64 { 1e-6 } else { 1e-3 };
            prop_assert!(
                rel <= bound,
                "{} objective {} vs oracle {} (rel {rel:.3e} > {bound:.0e})",
                profile.label(), got.objective, oracle.objective
            );
        }
    }

    /// Feasibility: no profile exceeds the f64 path's constraint
    /// violation by more than tolerance. The f64 reference itself can
    /// carry a hair of bisection slack, so profiles are compared against
    /// it rather than against exact zero.
    #[test]
    fn profiles_do_not_violate_more_than_f64(sq in random_structured(6, 4)) {
        const TOL: f64 = 1e-9;
        let oracle = solve(&sq, SolverProfile::f64_aos());
        let oracle_budget = budget_violation(&sq, &oracle.x).max(0.0);
        let oracle_box = box_violation(&sq, &oracle.x).max(0.0);
        for profile in NON_REFERENCE {
            let got = solve(&sq, profile);
            let budget = budget_violation(&sq, &got.x).max(0.0);
            let boxv = box_violation(&sq, &got.x).max(0.0);
            prop_assert!(
                budget <= oracle_budget + TOL,
                "{} budget violation {budget:.3e} > f64's {oracle_budget:.3e} + {TOL:.0e}",
                profile.label()
            );
            prop_assert!(
                boxv <= oracle_box + TOL,
                "{} box violation {boxv:.3e} > f64's {oracle_box:.3e} + {TOL:.0e}",
                profile.label()
            );
        }
    }

    /// Bitwise determinism: for a fixed profile the solve is a pure
    /// function of the instance — identical bits across repeat solves in
    /// this thread and across spawned threads (thread count must never
    /// leak into the answer).
    #[test]
    fn fixed_profile_is_bitwise_deterministic(sq in random_structured(5, 3)) {
        for profile in [
            SolverProfile::f64_aos(),
            SolverProfile::f64_soa(),
            SolverProfile::mixed_soa(),
        ] {
            let reference = solve(&sq, profile);
            let repeat = solve(&sq, profile);
            prop_assert_eq!(reference.iterations, repeat.iterations);
            let threaded: Vec<QpSolution> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| solve(&sq, profile)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for got in std::iter::once(&repeat).chain(threaded.iter()) {
                prop_assert_eq!(reference.x.len(), got.x.len());
                for (a, b) in reference.x.iter().zip(got.x.iter()) {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{} drifted: {a} vs {b}",
                        profile.label()
                    );
                }
            }
        }
    }
}
