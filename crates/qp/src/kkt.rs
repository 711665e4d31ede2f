use perq_linalg::{Lu, Matrix, Result};

/// Solves the equality-constrained convex QP
///
/// ```text
/// minimize   ½ xᵀ Q x + cᵀ x
/// subject to E x = d
/// ```
///
/// by a direct solve of the KKT system
///
/// ```text
/// [ Q  Eᵀ ] [ x ]   [ −c ]
/// [ E  0  ] [ ν ] = [  d ]
/// ```
///
/// Returns `(x, nu)` — the primal minimizer and the equality multipliers.
/// Pass an `E` with zero rows (`Matrix::zeros(0, n)` is not representable;
/// use `None`) to solve the unconstrained problem `Qx = −c`.
///
/// This is the ground-truth oracle the unit tests validate the iterative
/// solver against.
pub(crate) fn solve_equality_qp(
    q: &Matrix,
    c: &[f64],
    eq: Option<(&Matrix, &[f64])>,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = c.len();
    match eq {
        None => {
            let lu = Lu::factor(q)?;
            let neg_c: Vec<f64> = c.iter().map(|&v| -v).collect();
            Ok((lu.solve(&neg_c)?, Vec::new()))
        }
        Some((e, d)) => {
            let m = e.rows();
            let mut kkt = Matrix::zeros(n + m, n + m);
            kkt.set_block(0, 0, q)?;
            kkt.set_block(0, n, &e.transpose())?;
            kkt.set_block(n, 0, e)?;
            let mut rhs = vec![0.0; n + m];
            for i in 0..n {
                rhs[i] = -c[i];
            }
            rhs[n..].copy_from_slice(d);
            let sol = Lu::factor(&kkt)?.solve(&rhs)?;
            Ok((sol[..n].to_vec(), sol[n..].to_vec()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perq_linalg::vecops;

    #[test]
    fn unconstrained_minimum() {
        // min ½xᵀQx + cᵀx with Q = diag(2,4), c = (−2,−8) ⇒ x = (1, 2).
        let q = Matrix::diag(&[2.0, 4.0]);
        let c = [-2.0, -8.0];
        let (x, nu) = solve_equality_qp(&q, &c, None).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!(nu.is_empty());
    }

    #[test]
    fn equality_constrained_known_solution() {
        // min ½‖x‖² s.t. x₀ + x₁ = 2 ⇒ x = (1,1), ν = −1.
        let q = Matrix::identity(2);
        let c = [0.0, 0.0];
        let e = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let d = [2.0];
        let (x, nu) = solve_equality_qp(&q, &c, Some((&e, &d))).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((nu[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kkt_conditions_hold() {
        let q = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 2.0, 0.5], &[0.0, 0.5, 4.0]]).unwrap();
        let c = [1.0, -2.0, 0.5];
        let e = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 0.0, -1.0]]).unwrap();
        let d = [1.0, 0.0];
        let (x, nu) = solve_equality_qp(&q, &c, Some((&e, &d))).unwrap();
        // Stationarity: Qx + c + Eᵀν = 0.
        let mut grad = q.matvec(&x).unwrap();
        vecops::axpy(1.0, &c, &mut grad);
        let etnu = e.tmatvec(&nu).unwrap();
        vecops::axpy(1.0, &etnu, &mut grad);
        assert!(vecops::norm_inf(&grad) < 1e-10, "stationarity {grad:?}");
        // Primal feasibility.
        let ex = e.matvec(&x).unwrap();
        assert!(vecops::max_abs_diff(&ex, &d) < 1e-10);
    }
}
