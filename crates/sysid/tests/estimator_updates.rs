//! The per-job estimators update in place: no heap traffic per sample,
//! and bit for bit the arithmetic of the allocating implementations they
//! replaced, which are kept here as the oracle.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use perq_linalg::{vecops, Matrix};
use perq_sysid::{KalmanObserver, Rls, StateSpaceModel};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A stable third-order plant with every coupling non-zero, so a
/// reordered row sum shows in the last bits.
fn plant() -> StateSpaceModel {
    StateSpaceModel::with_offsets(
        Matrix::from_rows(&[
            &[0.61, 0.17, -0.09],
            &[0.23, 0.48, 0.11],
            &[-0.13, 0.07, 0.37],
        ])
        .unwrap(),
        vec![0.31, -0.12, 0.07],
        vec![0.83, 0.29, -0.41],
        0.35,
        0.013,
        -0.021,
    )
}

/// Deterministic, aperiodic-looking drive in roughly `[-1, 1]`.
fn wobble(k: usize, a: f64, b: f64) -> f64 {
    (k as f64 * a).sin() * 0.7 + (k as f64 * b).cos() * 0.3
}

/// `Rls::update` as it was: three vectors per sample.
struct OldRls {
    theta: Vec<f64>,
    p: Matrix,
    lambda: f64,
}

impl OldRls {
    fn with_initial(theta0: Vec<f64>, lambda: f64, p0: f64) -> Self {
        OldRls {
            p: Matrix::identity(theta0.len()).scale(p0),
            theta: theta0,
            lambda,
        }
    }

    fn update(&mut self, phi: &[f64], y: f64) -> f64 {
        let err = y - vecops::dot(&self.theta, phi);
        let p_phi = self.p.matvec(phi).expect("dims");
        let denom = self.lambda + vecops::dot(phi, &p_phi);
        let k = vecops::scale(1.0 / denom, &p_phi);
        vecops::axpy(err, &k, &mut self.theta);
        let phi_p = self.p.tmatvec(phi).expect("dims");
        for (i, &ki) in k.iter().enumerate() {
            for (j, &pj) in phi_p.iter().enumerate() {
                self.p[(i, j)] = (self.p[(i, j)] - ki * pj) / self.lambda;
            }
        }
        err
    }
}

/// `KalmanObserver::update` as it was: a clone and a fresh state vector
/// per sample. The gain is read off a real observer (it did not change).
struct OldObserver {
    model: StateSpaceModel,
    gain: Vec<f64>,
    x_hat: Vec<f64>,
}

impl OldObserver {
    fn update(&mut self, u: f64, y: f64) -> f64 {
        let innovation = y - self.model.output(&self.x_hat, u);
        let mut corrected = self.x_hat.clone();
        vecops::axpy(innovation, &self.gain, &mut corrected);
        let mut next = self.model.a().matvec(&corrected).expect("state dimension");
        vecops::axpy(u + self.model.input_offset(), self.model.b(), &mut next);
        self.x_hat = next;
        innovation
    }
}

/// The steady-state gain of [`KalmanObserver::new`], which keeps it
/// private: the Riccati iteration of `observer.rs`, restated. It is not
/// under test (this change did not touch it); the oracle needs its value.
fn gain_of(model: &StateSpaceModel, q: f64, r: f64) -> Vec<f64> {
    let n = model.order();
    let (a, c) = (model.a(), model.c());
    let mut p = Matrix::identity(n);
    for _ in 0..500 {
        let pct = p.matvec(c).unwrap();
        let s = vecops::dot(c, &pct) + r;
        let k = vecops::scale(1.0 / s, &pct);
        let cp = p.tmatvec(c).unwrap();
        let mut inner = p.clone();
        for i in 0..n {
            for j in 0..n {
                inner[(i, j)] -= k[i] * cp[j];
            }
        }
        let mut p_next = a.matmul(&inner).unwrap().matmul(&a.transpose()).unwrap();
        for i in 0..n {
            p_next[(i, i)] += q;
        }
        let diff = p_next.sub(&p).unwrap().max_abs();
        p = p_next;
        if diff < 1e-12 {
            break;
        }
    }
    let pct = p.matvec(c).unwrap();
    let s = vecops::dot(c, &pct) + r;
    vecops::scale(1.0 / s, &pct)
}

#[test]
fn rls_update_matches_the_allocating_implementation_bit_for_bit() {
    for dim in [1usize, 2, 3, 5] {
        let theta0: Vec<f64> = (0..dim).map(|i| 1.0 - 0.3 * i as f64).collect();
        let mut new = Rls::with_initial(theta0.clone(), 0.998, 50.0);
        let mut old = OldRls::with_initial(theta0, 0.998, 50.0);
        for k in 0..1_000 {
            let phi: Vec<f64> = (0..dim)
                .map(|i| wobble(k, 0.37 + i as f64 * 0.11, 0.91 - i as f64 * 0.07))
                .collect();
            let y = 0.8 * phi[0] + 0.05 * wobble(k, 1.7, 0.3);
            let (e_new, e_old) = (new.update(&phi, y), old.update(&phi, y));
            assert_eq!(e_new.to_bits(), e_old.to_bits(), "dim {dim} step {k}");
        }
        for (a, b) in new.theta().iter().zip(&old.theta) {
            assert_eq!(a.to_bits(), b.to_bits(), "dim {dim} theta");
        }
        let trace: f64 = (0..dim).map(|i| old.p[(i, i)]).sum();
        assert_eq!(new.covariance_trace().to_bits(), trace.to_bits());
        assert_eq!(new.updates(), 1_000);
    }
}

#[test]
fn observer_update_matches_the_allocating_implementation_bit_for_bit() {
    let model = plant();
    let mut new = KalmanObserver::new(model.clone(), 0.05, 1e-3);
    new.seed_steady_state(0.6, 0.55);
    let mut old = OldObserver {
        gain: gain_of(&model, 0.05, 1e-3),
        x_hat: new.state().to_vec(),
        model,
    };
    // A copy made mid-stream shares the model and diverges in state only.
    let mut copy = None;
    for k in 0..1_000 {
        let u = 0.6 + 0.3 * wobble(k, 0.23, 0.71);
        let y = 0.55 + 0.2 * wobble(k, 0.19, 1.3);
        let (i_new, i_old) = (new.update(u, y), old.update(u, y));
        assert_eq!(i_new.to_bits(), i_old.to_bits(), "step {k}");
        for (a, b) in new.state().iter().zip(&old.x_hat) {
            assert_eq!(a.to_bits(), b.to_bits(), "step {k}");
        }
        if k == 500 {
            copy = Some(new.clone());
        }
    }
    let copy = copy.expect("taken at step 500");
    assert_eq!(copy.model(), new.model());
    assert_ne!(copy.state(), new.state());
}

#[test]
fn estimator_updates_do_not_allocate() {
    let mut slope = Rls::with_initial(vec![1.0], 0.998, 50.0);
    let mut pair = Rls::new(2, 0.99, 100.0);
    let mut observer = KalmanObserver::new(plant(), 0.05, 1e-3);
    observer.seed_steady_state(0.6, 0.55);
    let (allocations, ()) = allocations_in(|| {
        for k in 0..200 {
            let x = wobble(k, 0.37, 0.91);
            slope.update(&[x], 0.8 * x);
            pair.update(&[x, 1.0], 3.0 * x + 2.0);
            observer.update(0.6 + 0.3 * x, 0.55 + 0.1 * x);
        }
    });
    assert_eq!(allocations, 0);
    // The counter does count: beyond the stack bound an update takes its
    // scratch from the heap, one block per call.
    let mut wide = Rls::new(5, 0.99, 100.0);
    let phi = [0.1, 0.2, 0.3, 0.4, 0.5];
    let (allocations, _) = allocations_in(|| wide.update(&phi, 1.0));
    assert_eq!(allocations, 1);
}
