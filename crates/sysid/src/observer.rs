use crate::ss::StateSpaceModel;
use perq_linalg::{vecops, Matrix};
use std::sync::Arc;

/// Steady-state Kalman observer for a [`StateSpaceModel`].
///
/// The paper's node model (Fig. 5) includes a disturbance signal `D(k)`
/// that "accounts for system noise and uncertainties"; the observer is the
/// component that absorbs it: every decision interval the measured IPS is
/// compared with the model prediction and the internal state estimate is
/// corrected with the steady-state Kalman gain. This is what lets a single
/// identified node model track jobs with different behaviour — the state
/// drifts to whatever makes the model's output match the job at hand.
///
/// The gain is computed once at construction by iterating the discrete
/// Riccati difference equation to a fixed point, with scalar measurement
/// noise `r` and process noise `q·I`.
///
/// A clone shares the model and the gain with its original and copies
/// only the state estimate: a policy hands one observer to every
/// arriving job, and what differs between jobs is the state.
#[derive(Debug, Clone)]
pub struct KalmanObserver {
    shared: Arc<Shared>,
    /// Current state estimate.
    x_hat: Vec<f64>,
}

/// What every copy of an observer has in common.
#[derive(Debug)]
struct Shared {
    model: StateSpaceModel,
    /// Steady-state Kalman gain (n × 1).
    gain: Vec<f64>,
}

impl KalmanObserver {
    /// Builds an observer for `model` with process-noise intensity `q` and
    /// measurement-noise variance `r` (both must be positive; `r` sets how
    /// much the observer trusts IPS samples).
    pub fn new(model: StateSpaceModel, q: f64, r: f64) -> Self {
        let gain = steady_state_gain(&model, q.max(1e-12), r.max(1e-12));
        let n = model.order();
        KalmanObserver {
            shared: Arc::new(Shared { model, gain }),
            x_hat: vec![0.0; n],
        }
    }

    /// Borrows the underlying model.
    pub fn model(&self) -> &StateSpaceModel {
        &self.shared.model
    }

    /// Current state estimate.
    pub fn state(&self) -> &[f64] {
        &self.x_hat
    }

    /// Resets the state estimate (e.g. when a new job phase is detected).
    pub fn reset(&mut self) {
        self.x_hat.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Seeds the state estimate so the model output matches `y` at
    /// steady state for input `u` — used when a job first appears so the
    /// controller does not start from a wild transient.
    pub fn seed_steady_state(&mut self, u: f64, y: f64) {
        // Equilibrium state for constant input: (I − A) x = B (u + u₀),
        // then scale the state part so the full output (including the
        // feedthrough and offsets) matches the observation.
        let model = &self.shared.model;
        let n = model.order();
        let mut ima = Matrix::identity(n);
        ima.axpy(-1.0, model.a()).expect("square");
        if let Ok(lu) = perq_linalg::Lu::factor(&ima) {
            let drive: Vec<f64> = model
                .b()
                .iter()
                .map(|&bi| bi * (u + model.input_offset()))
                .collect();
            if let Ok(xeq) = lu.solve(&drive) {
                let state_part = vecops::dot(model.c(), &xeq);
                let want_state =
                    y - model.feedthrough() * (u + model.input_offset()) - model.output_offset();
                let scale = if state_part.abs() > 1e-9 {
                    want_state / state_part
                } else {
                    1.0
                };
                self.x_hat = vecops::scale(scale, &xeq);
                return;
            }
        }
        self.reset();
    }

    /// Predicted output for the *current* state estimate under input `u`.
    pub fn predicted_output(&self, u: f64) -> f64 {
        self.shared.model.output(&self.x_hat, u)
    }

    /// Processes one decision interval: the input `u` that was applied and
    /// the output `y` that was measured. Returns the innovation
    /// (measurement minus prediction) before the correction.
    pub fn update(&mut self, u: f64, y: f64) -> f64 {
        let Shared { model, gain } = &*self.shared;
        let innovation = y - model.output(&self.x_hat, u);
        // Correct in place, then predict forward.
        vecops::axpy(innovation, gain, &mut self.x_hat);
        crate::with_scratch(self.x_hat.len(), |next| {
            model.step_state_into(&self.x_hat, u, next);
            self.x_hat.copy_from_slice(next);
        });
        innovation
    }
}

/// Iterates the Riccati difference equation
/// `P⁺ = A P Aᵀ + qI − A P Cᵀ (C P Cᵀ + r)⁻¹ C P Aᵀ`
/// to a fixed point and returns the filter gain `K = P Cᵀ / (C P Cᵀ + r)`.
fn steady_state_gain(model: &StateSpaceModel, q: f64, r: f64) -> Vec<f64> {
    let n = model.order();
    let a = model.a();
    let c = model.c();
    let mut p = Matrix::identity(n);
    for _ in 0..500 {
        // s = C P Cᵀ + r  (scalar), k = P Cᵀ / s.
        let pct = p.matvec(c).expect("dims");
        let s = vecops::dot(c, &pct) + r;
        let k = vecops::scale(1.0 / s, &pct);
        // P⁺ = A (P − k (C P)) Aᵀ + qI.
        let cp = p.tmatvec(c).expect("dims"); // row vector C P
        let mut inner = p.clone();
        for i in 0..n {
            for j in 0..n {
                inner[(i, j)] -= k[i] * cp[j];
            }
        }
        let ap = a.matmul(&inner).expect("dims");
        let mut p_next = ap.matmul(&a.transpose()).expect("dims");
        for i in 0..n {
            p_next[(i, i)] += q;
        }
        let diff = p_next.sub(&p).expect("dims").max_abs();
        p = p_next;
        if diff < 1e-12 {
            break;
        }
    }
    let pct = p.matvec(c).expect("dims");
    let s = vecops::dot(c, &pct) + r;
    vecops::scale(1.0 / s, &pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perq_linalg::Matrix;

    fn plant() -> StateSpaceModel {
        StateSpaceModel::new(
            Matrix::from_rows(&[&[0.7, 0.1], &[1.0, 0.0]]).unwrap(),
            vec![1.0, 0.0],
            vec![0.4, 0.2],
            0.3,
            0.0,
        )
    }

    #[test]
    fn observer_tracks_noiseless_plant() {
        let model = plant();
        let mut obs = KalmanObserver::new(model.clone(), 1e-4, 1e-2);
        let mut x = vec![0.3, -0.2]; // true state unknown to the observer
        let mut last_err = f64::INFINITY;
        for k in 0..200 {
            let u = ((k as f64) * 0.3).sin();
            let y = model.output(&x, u);
            obs.update(u, y);
            x = model.step_state(&x, u);
            let u_next = ((k as f64 + 1.0) * 0.3).sin();
            last_err = (model.output(&x, u_next) - obs.predicted_output(u_next)).abs();
        }
        assert!(last_err < 1e-6, "tracking error {last_err}");
    }

    #[test]
    fn innovation_shrinks_over_time() {
        let model = plant();
        let mut obs = KalmanObserver::new(model.clone(), 1e-4, 1e-2);
        let mut x = vec![1.0, 1.0];
        let mut first = 0.0;
        let mut last = 0.0;
        for k in 0..100 {
            let u = if k % 11 < 5 { 1.0 } else { -1.0 };
            let y = model.output(&x, u);
            let innov = obs.update(u, y).abs();
            if k == 0 {
                first = innov;
            }
            last = innov;
            x = model.step_state(&x, u);
        }
        assert!(last < first * 0.01 + 1e-9, "first {first}, last {last}");
    }

    #[test]
    fn observer_absorbs_constant_disturbance_bias() {
        // The plant output is offset by a constant the model doesn't know.
        // A steady-state Kalman filter has no integral action, so it cannot
        // reject the bias completely (that is the job of the per-job RLS
        // layer in the controller), but with a high process-noise setting
        // the state drifts to absorb most of it.
        let model = plant();
        let mut obs = KalmanObserver::new(model.clone(), 1.0, 1e-3);
        let mut x = vec![0.0, 0.0];
        let bias = 0.5;
        let mut err = f64::INFINITY;
        for k in 0..500 {
            let u = ((k as f64) * 0.17).cos();
            let y = model.output(&x, u) + bias;
            obs.update(u, y);
            x = model.step_state(&x, u);
            let u_next = ((k as f64 + 1.0) * 0.17).cos();
            err = (model.output(&x, u_next) + bias - obs.predicted_output(u_next)).abs();
        }
        assert!(err < 0.75 * bias, "residual bias {err}");
    }

    #[test]
    fn seed_steady_state_matches_observation() {
        let model = plant();
        let mut obs = KalmanObserver::new(model, 1e-4, 1e-2);
        obs.seed_steady_state(1.0, 3.0);
        assert!((obs.predicted_output(1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes_state() {
        let model = plant();
        let mut obs = KalmanObserver::new(model, 1e-4, 1e-2);
        obs.update(1.0, 1.0);
        obs.reset();
        assert!(obs.state().iter().all(|&v| v == 0.0));
    }
}
