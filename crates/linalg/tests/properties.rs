//! Property-based tests for the linear-algebra kernels.

use perq_linalg::{lstsq, Lu, Matrix};
use proptest::prelude::*;

/// Strategy: a random well-conditioned square matrix built as `R + n·I`,
/// which is diagonally dominated and therefore invertible.
fn invertible_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).unwrap();
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_round_trip(a in invertible_matrix(6), x in prop::collection::vec(-10.0f64..10.0, 6)) {
        let b = a.matvec(&x).unwrap();
        let x_hat = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x_hat.iter().zip(x.iter()) {
            prop_assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn lu_det_of_product_is_product_of_dets(a in invertible_matrix(4), b in invertible_matrix(4)) {
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        let dab = Lu::factor(&a.matmul(&b).unwrap()).unwrap().det();
        let scale = da.abs().max(db.abs()).max(1.0);
        prop_assert!((dab - da * db).abs() / (scale * scale) < 1e-6);
    }

    #[test]
    fn lstsq_gradient_vanishes(
        data in prop::collection::vec(-1.0f64..1.0, 8 * 3),
        b in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let mut a = Matrix::from_vec(8, 3, data).unwrap();
        // Ensure full column rank by salting the top 3x3 block.
        for i in 0..3 {
            a[(i, i)] += 4.0;
        }
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let grad = a.tmatvec(&r).unwrap();
        for g in grad {
            prop_assert!(g.abs() < 1e-7, "KKT residual {g}");
        }
    }

    #[test]
    fn transpose_preserves_frobenius(data in prop::collection::vec(-10.0f64..10.0, 12)) {
        let a = Matrix::from_vec(3, 4, data).unwrap();
        let t = a.transpose();
        prop_assert!((a.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
    }

    #[test]
    fn matmul_associative(
        d1 in prop::collection::vec(-1.0f64..1.0, 6),
        d2 in prop::collection::vec(-1.0f64..1.0, 6),
        d3 in prop::collection::vec(-1.0f64..1.0, 6),
    ) {
        let a = Matrix::from_vec(2, 3, d1).unwrap();
        let b = Matrix::from_vec(3, 2, d2).unwrap();
        let c = Matrix::from_vec(2, 3, d3).unwrap();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.sub(&right).unwrap().max_abs() < 1e-10);
    }
}
