use perq_linalg::{vecops, Matrix};

/// Recursive least squares with exponential forgetting.
///
/// Estimates `θ` in `y ≈ θᵀ φ` online. The PERQ controller runs one RLS
/// instance per job to adapt the shared node model to the job at hand:
///
/// - gain/offset adaptation: `φ = [y_model, 1]`, so `θ` scales and shifts
///   the base model's prediction to the job's observed IPS;
/// - local sensitivity: `φ = [p, 1]`, estimating the slope `∂IPS/∂cap`
///   around the operating point for the successive-linearisation MPC.
///
/// The forgetting factor `λ ∈ (0, 1]` discounts old samples with weight
/// `λ^age`, which is what lets the estimate follow phase changes
/// (Observation 2 of the paper) without re-identifying the whole model.
#[derive(Debug, Clone)]
pub struct Rls {
    theta: Vec<f64>,
    /// Inverse covariance (information) matrix `P`.
    p: Matrix,
    lambda: f64,
    updates: usize,
}

impl Rls {
    /// Creates an estimator with `dim` parameters, forgetting factor
    /// `lambda`, and initial covariance `p0·I` (larger `p0` = faster
    /// initial adaptation).
    pub fn new(dim: usize, lambda: f64, p0: f64) -> Self {
        assert!(dim > 0, "RLS needs at least one parameter");
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "forgetting factor must be in (0, 1]"
        );
        Rls {
            theta: vec![0.0; dim],
            p: Matrix::identity(dim).scale(p0),
            lambda,
            updates: 0,
        }
    }

    /// Creates an estimator with an initial parameter guess.
    pub fn with_initial(theta0: Vec<f64>, lambda: f64, p0: f64) -> Self {
        let mut rls = Self::new(theta0.len(), lambda, p0);
        rls.theta = theta0;
        rls
    }

    /// Current parameter estimate.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Number of updates processed.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Predicted output for a regressor.
    pub fn predict(&self, phi: &[f64]) -> f64 {
        vecops::dot(&self.theta, phi)
    }

    /// Processes one sample; returns the a-priori prediction error.
    pub fn update(&mut self, phi: &[f64], y: f64) -> f64 {
        debug_assert_eq!(phi.len(), self.theta.len());
        let err = y - self.predict(phi);
        let n = phi.len();
        crate::with_scratch(2 * n, |scratch| {
            let (k, phi_p) = scratch.split_at_mut(n);
            // k = P φ / (λ + φᵀ P φ)
            self.p.matvec_into(phi, k).expect("dims");
            let inv_denom = 1.0 / (self.lambda + vecops::dot(phi, k));
            k.iter_mut().for_each(|v| *v *= inv_denom);
            // θ ← θ + k e
            vecops::axpy(err, k, &mut self.theta);
            // P ← (P − k φᵀ P) / λ
            self.p.tmatvec_into(phi, phi_p).expect("dims");
            for (i, &ki) in k.iter().enumerate() {
                for (j, &pj) in phi_p.iter().enumerate() {
                    self.p[(i, j)] = (self.p[(i, j)] - ki * pj) / self.lambda;
                }
            }
        });
        self.updates += 1;
        err
    }

    /// Estimate confidence proxy: trace of the covariance. Large values
    /// mean the estimate is still mostly prior.
    pub fn covariance_trace(&self) -> f64 {
        (0..self.theta.len()).map(|i| self.p[(i, i)]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_static_linear_map() {
        let mut rls = Rls::new(2, 1.0, 1e6);
        // y = 3 x + 2. The residual error is the ridge-prior bias
        // ~ θ/(p0 · N), so a large p0 gives a near-exact fit.
        for k in 0..200 {
            let x = ((k * 7) % 13) as f64 / 13.0;
            rls.update(&[x, 1.0], 3.0 * x + 2.0);
        }
        assert!((rls.theta()[0] - 3.0).abs() < 1e-4, "{:?}", rls.theta());
        assert!((rls.theta()[1] - 2.0).abs() < 1e-4, "{:?}", rls.theta());
    }

    #[test]
    fn tracks_parameter_jump_with_forgetting() {
        let mut rls = Rls::new(2, 0.9, 100.0);
        for k in 0..100 {
            let x = ((k * 5) % 11) as f64 / 11.0;
            rls.update(&[x, 1.0], 1.0 * x);
        }
        // Phase change: slope becomes 4.
        for k in 0..100 {
            let x = ((k * 5) % 11) as f64 / 11.0;
            rls.update(&[x, 1.0], 4.0 * x);
        }
        assert!((rls.theta()[0] - 4.0).abs() < 0.05, "{:?}", rls.theta());
    }

    #[test]
    fn without_forgetting_converges_slower_after_jump() {
        let mut fast = Rls::new(1, 0.8, 100.0);
        let mut slow = Rls::new(1, 1.0, 100.0);
        for _ in 0..50 {
            fast.update(&[1.0], 1.0);
            slow.update(&[1.0], 1.0);
        }
        for _ in 0..20 {
            fast.update(&[1.0], 5.0);
            slow.update(&[1.0], 5.0);
        }
        let fast_err = (fast.theta()[0] - 5.0).abs();
        let slow_err = (slow.theta()[0] - 5.0).abs();
        assert!(fast_err < slow_err, "fast {fast_err} vs slow {slow_err}");
    }

    #[test]
    fn prediction_error_returned_is_a_priori() {
        let mut rls = Rls::new(1, 1.0, 10.0);
        let e1 = rls.update(&[1.0], 2.0);
        assert!((e1 - 2.0).abs() < 1e-12); // θ started at 0
        let e2 = rls.update(&[1.0], 2.0).abs();
        assert!(e2 < e1.abs());
    }

    #[test]
    fn covariance_shrinks_with_data() {
        let mut rls = Rls::new(2, 1.0, 100.0);
        let before = rls.covariance_trace();
        for k in 0..50 {
            let x = (k % 7) as f64;
            rls.update(&[x, 1.0], x);
        }
        assert!(rls.covariance_trace() < before * 0.01);
    }

    #[test]
    fn with_initial_starts_from_guess() {
        let rls = Rls::with_initial(vec![2.0, -1.0], 0.95, 1.0);
        assert_eq!(rls.predict(&[1.0, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn invalid_lambda_panics() {
        Rls::new(1, 0.0, 1.0);
    }
}
