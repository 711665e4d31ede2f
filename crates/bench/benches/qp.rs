//! Criterion micro-benchmarks for the QP solver: solve time vs problem
//! size for the box+budget projected-gradient solver (the one the PERQ
//! controller runs every decision interval), cold and warm-started.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perq_linalg::Matrix;
use perq_qp::{BoxBudgetQp, Budget, ProjGradSolver};

/// A banded SPD Hessian mimicking the MPC's structure.
fn problem(n: usize) -> BoxBudgetQp {
    let q = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    });
    BoxBudgetQp {
        q,
        c: (0..n).map(|i| -((i % 5) as f64) - 0.5).collect(),
        lo: vec![0.31; n],
        hi: vec![1.0; n],
        budgets: vec![Budget {
            coeffs: vec![1.0; n],
            limit: 0.55 * n as f64,
        }],
    }
}

fn bench_projgrad(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp/projgrad");
    group.sample_size(20);
    for n in [16usize, 64, 256] {
        let qp = problem(n);
        let solver = ProjGradSolver::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| solver.solve(&qp, None).expect("solvable"))
        });
    }
    group.finish();
}

fn bench_projgrad_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp/projgrad-warm");
    group.sample_size(20);
    for n in [64usize, 256] {
        let qp = problem(n);
        let solver = ProjGradSolver::default();
        let cold = solver.solve(&qp, None).expect("solvable");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| solver.solve(&qp, Some(&cold.x)).expect("solvable"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_projgrad, bench_projgrad_warm);
criterion_main!(benches);
