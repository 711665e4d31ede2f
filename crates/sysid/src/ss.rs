use perq_linalg::{vecops, Lu, Matrix};

/// A discrete-time, single-input single-output, affine state-space model
/// with direct feedthrough:
///
/// ```text
/// x(k+1) = A x(k) + B (u(k) + u₀)
/// y(k)   = C x(k) + D (u(k) + u₀) + y₀
/// ```
///
/// This mirrors Fig. 5 of the paper (the node model `X(k+1) = AX(k) +
/// BP(k) + VD(k)`, `Y(k+1) = CX(k) + D(k)`), with the disturbance path
/// absorbed into the affine offsets `u₀`/`y₀` identified from data, and a
/// direct term `D` because a power cap applied during a control interval
/// already affects the IPS measured at the end of that same interval
/// (RAPL actuates in milliseconds; intervals are seconds). The
/// uncertainty signal of the paper is handled one level up by the Kalman
/// observer, which corrects the state with the measured IPS innovation.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpaceModel {
    a: Matrix,
    b: Vec<f64>,
    c: Vec<f64>,
    d: f64,
    input_offset: f64,
    output_offset: f64,
}

impl StateSpaceModel {
    /// Creates a model with an input offset (and zero output offset).
    ///
    /// `a` must be `n×n`, `b` and `c` length `n`.
    pub fn new(a: Matrix, b: Vec<f64>, c: Vec<f64>, d: f64, input_offset: f64) -> Self {
        assert!(a.is_square(), "A must be square");
        assert_eq!(a.rows(), b.len(), "B length must match state dimension");
        assert_eq!(a.rows(), c.len(), "C length must match state dimension");
        StateSpaceModel {
            a,
            b,
            c,
            d,
            input_offset,
            output_offset: 0.0,
        }
    }

    /// Creates a model with explicit input and output offsets.
    pub fn with_offsets(
        a: Matrix,
        b: Vec<f64>,
        c: Vec<f64>,
        d: f64,
        input_offset: f64,
        output_offset: f64,
    ) -> Self {
        let mut m = Self::new(a, b, c, d, input_offset);
        m.output_offset = output_offset;
        m
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.b.len()
    }

    /// Borrows the state matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Borrows the input vector `B`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Borrows the output vector `C`.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// The direct feedthrough `D`.
    pub fn feedthrough(&self) -> f64 {
        self.d
    }

    /// The identified input offset `u₀`.
    pub fn input_offset(&self) -> f64 {
        self.input_offset
    }

    /// The identified output offset `y₀`.
    pub fn output_offset(&self) -> f64 {
        self.output_offset
    }

    /// Advances the state one step for input `u`; returns the new state.
    pub fn step_state(&self, x: &[f64], u: f64) -> Vec<f64> {
        let mut next = vec![0.0; self.order()];
        self.step_state_into(x, u, &mut next);
        next
    }

    /// [`StateSpaceModel::step_state`] into a caller-provided buffer.
    pub fn step_state_into(&self, x: &[f64], u: f64, next: &mut [f64]) {
        self.a.matvec_into(x, next).expect("state dimension");
        vecops::axpy(u + self.input_offset, &self.b, next);
    }

    /// Output `y = Cx + D(u + u₀) + y₀` for a given state and the input
    /// applied over the current interval.
    pub fn output(&self, x: &[f64], u: f64) -> f64 {
        vecops::dot(&self.c, x) + self.d * (u + self.input_offset) + self.output_offset
    }

    /// Simulates from zero initial state: `y[k]` is the output at the end
    /// of interval `k`, during which input `u[k]` was applied.
    pub fn simulate(&self, u: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.order()];
        let mut y = Vec::with_capacity(u.len());
        for &uk in u {
            y.push(self.output(&x, uk));
            x = self.step_state(&x, uk);
        }
        y
    }

    /// Markov parameters `h_j = C A^{j−1} B` for `j = 1..=count` — the
    /// delayed impulse-response coefficients. The same-interval response
    /// is [`StateSpaceModel::feedthrough`].
    pub fn markov_parameters(&self, count: usize) -> Vec<f64> {
        let mut h = Vec::with_capacity(count);
        let mut v = self.b.clone();
        for _ in 0..count {
            h.push(vecops::dot(&self.c, &v));
            v = self.a.matvec(&v).expect("state dimension");
        }
        h
    }

    /// Output-response rows `C Aʲ` for `j = 0..count`, as rows.
    ///
    /// Row `j` maps the current state to the zero-input output at the end
    /// of interval `j` from now (`j = 0` is the upcoming interval); this
    /// is the `G` matrix of Eq. 4.
    pub fn output_response_rows(&self, count: usize) -> Matrix {
        let mut rows = Matrix::zeros(count, self.order());
        let mut v = self.c.clone();
        for j in 0..count {
            rows.row_mut(j).copy_from_slice(&v);
            v = self.a.tmatvec(&v).expect("state dimension");
        }
        rows
    }

    /// DC gain `C (I − A)⁻¹ B + D` of the input→output path.
    ///
    /// Returns `None` if `(I − A)` is singular (integrating model).
    pub fn dc_gain(&self) -> Option<f64> {
        let n = self.order();
        let mut ima = Matrix::identity(n);
        ima.axpy(-1.0, &self.a).expect("square");
        let lu = Lu::factor(&ima).ok()?;
        let w = lu.solve(&self.b).ok()?;
        Some(vecops::dot(&self.c, &w) + self.d)
    }

    /// Steady-state output for a constant input `u`.
    pub fn dc_output(&self, u: f64) -> Option<f64> {
        Some(self.dc_gain()? * (u + self.input_offset) + self.output_offset)
    }

    /// Spectral radius estimate of `A` via power iteration; the model is
    /// asymptotically stable iff this is `< 1`.
    pub fn spectral_radius(&self, iters: usize) -> f64 {
        let n = self.order();
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.37).collect();
        let mut radius = 0.0;
        for _ in 0..iters {
            let w = self.a.matvec(&v).expect("square");
            let norm = vecops::norm2(&w);
            if norm < 1e-300 {
                return 0.0;
            }
            radius = norm / vecops::norm2(&v).max(1e-300);
            v = vecops::scale(1.0 / norm, &w);
        }
        radius
    }

    /// Returns `true` if the model is (estimated to be) asymptotically
    /// stable.
    pub fn is_stable(&self) -> bool {
        self.spectral_radius(200) < 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First-order lag: x' = 0.5x + u, y = x. DC gain = 1/(1−0.5) = 2.
    fn lag() -> StateSpaceModel {
        StateSpaceModel::new(
            Matrix::from_rows(&[&[0.5]]).unwrap(),
            vec![1.0],
            vec![1.0],
            0.0,
            0.0,
        )
    }

    /// Same lag plus unit feedthrough: DC gain 3.
    fn lag_with_d() -> StateSpaceModel {
        StateSpaceModel::new(
            Matrix::from_rows(&[&[0.5]]).unwrap(),
            vec![1.0],
            vec![1.0],
            1.0,
            0.0,
        )
    }

    #[test]
    fn dc_gain_first_order() {
        assert!((lag().dc_gain().unwrap() - 2.0).abs() < 1e-12);
        assert!((lag().dc_output(3.0).unwrap() - 6.0).abs() < 1e-12);
        assert!((lag_with_d().dc_gain().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn simulate_converges_to_dc() {
        let y = lag_with_d().simulate(&vec![1.0; 200]);
        assert!((y[199] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn markov_parameters_match_impulse_response() {
        let m = lag_with_d();
        let mut impulse = vec![0.0; 6];
        impulse[0] = 1.0;
        let y = m.simulate(&impulse);
        // y[0] = D, y[j] = h_j afterwards.
        assert!((y[0] - 1.0).abs() < 1e-12);
        let h = m.markov_parameters(5);
        for j in 0..5 {
            assert!((y[j + 1] - h[j]).abs() < 1e-12, "j={j}");
        }
        assert!((h[0] - 1.0).abs() < 1e-12);
        assert!((h[1] - 0.5).abs() < 1e-12);
        assert!((h[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn output_response_rows_match_powers() {
        let m = lag();
        let g = m.output_response_rows(3);
        assert!((g[(0, 0)] - 1.0).abs() < 1e-12); // C A^0
        assert!((g[(1, 0)] - 0.5).abs() < 1e-12);
        assert!((g[(2, 0)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stability_detection() {
        assert!(lag().is_stable());
        let unstable = StateSpaceModel::new(
            Matrix::from_rows(&[&[1.1]]).unwrap(),
            vec![1.0],
            vec![1.0],
            0.0,
            0.0,
        );
        assert!(!unstable.is_stable());
    }

    #[test]
    fn input_offset_shifts_dc() {
        let m = StateSpaceModel::new(
            Matrix::from_rows(&[&[0.5]]).unwrap(),
            vec![1.0],
            vec![1.0],
            0.0,
            1.0,
        );
        // Steady output for u=0 is gain * (0 + 1) = 2.
        assert!((m.dc_output(0.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn feedthrough_appears_immediately_in_output() {
        let m = lag_with_d();
        // Zero state, input 2: y = D·2 = 2 before any state has built up.
        assert!((m.output(&[0.0], 2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "B length")]
    fn dimension_mismatch_panics() {
        StateSpaceModel::new(Matrix::identity(2), vec![1.0], vec![1.0, 0.0], 0.0, 0.0);
    }
}
