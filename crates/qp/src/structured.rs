//! Matrix-free representation of PERQ's MPC decision QP.
//!
//! The Hessian of the paper's Eq. 4 over `n = jobs × M` variables is
//!
//! ```text
//! Q = blockdiag(B_1, …, B_jobs)  +  Σ_{j<M} w_j s_j s_jᵀ
//! ```
//!
//! where each `B_i` is the job's `M×M` tracking + ΔP-smoothing block and
//! the rank-`M` tail couples the jobs through the system-throughput rows
//! `s_j`. Materialising `Q` densely costs O(jobs²·M²) memory and the same
//! per matrix-vector product; this module stores the factored form —
//! O(jobs·M²) memory — and evaluates `objective`/`gradient` in
//! O(jobs·M²) time, which is what keeps the per-instance MPC decision
//! cost linear in the job count (§2.4.2 of the paper).

use crate::problem::{validate_constraints, Budget, QpOperator};
use crate::{QpError, Result};
use perq_linalg::vecops;

/// One rank-1 coupling term `weight · s sᵀ` of the Hessian's low-rank
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Coupling {
    /// Non-negative weight `w` of the term.
    pub weight: f64,
    /// The coupling vector `s` (length = problem dimension).
    pub s: Vec<f64>,
}

/// A box-and-budget QP whose Hessian is block-diagonal plus low-rank:
/// `Q = blockdiag(B_1..B_k) + Σ_r w_r s_r s_rᵀ` with every `B_i` a dense
/// symmetric PSD `m×m` block.
///
/// Stores O(k·m² + rank·k·m) floats instead of the dense `(k·m)²` and
/// performs Hessian-vector products in the same order, so both assembly
/// and every solver iteration are linear in the number of blocks (= jobs
/// in the PERQ MPC).
#[derive(Debug, Clone)]
pub struct StructuredQp {
    /// Number of diagonal blocks (jobs).
    nblocks: usize,
    /// Block edge length (the MPC horizon `M`).
    block: usize,
    /// The diagonal blocks, concatenated row-major: block `i` occupies
    /// `blocks[i·m²..(i+1)·m²]`.
    blocks: Vec<f64>,
    /// Low-rank coupling terms.
    couplings: Vec<Coupling>,
    /// Linear cost term.
    c: Vec<f64>,
    /// Component-wise lower bounds.
    lo: Vec<f64>,
    /// Component-wise upper bounds.
    hi: Vec<f64>,
    /// Coupling budget constraints (may be empty).
    budgets: Vec<Budget>,
    /// Precomputed Gershgorin + coupling-trace upper bound on `λ_max(Q)`.
    lmax_bound: f64,
}

impl StructuredQp {
    /// Builds a structured QP from its parts.
    ///
    /// `blocks` holds `c.len() / block` dense `block×block` matrices
    /// concatenated row-major; each must be symmetric (checked to 1e-9).
    /// Coupling weights must be non-negative. Bounds and budgets are
    /// validated exactly like [`crate::BoxBudgetQp::validate`].
    pub fn new(
        block: usize,
        blocks: Vec<f64>,
        couplings: Vec<Coupling>,
        c: Vec<f64>,
        lo: Vec<f64>,
        hi: Vec<f64>,
        budgets: Vec<Budget>,
    ) -> Result<Self> {
        if block == 0 {
            return Err(QpError::BadProblem("block size must be positive".into()));
        }
        let n = c.len();
        if !n.is_multiple_of(block) {
            return Err(QpError::BadProblem(format!(
                "dimension {n} is not a multiple of block size {block}"
            )));
        }
        let nblocks = n / block;
        if blocks.len() != nblocks * block * block {
            return Err(QpError::BadProblem(format!(
                "expected {nblocks}×{block}×{block} block storage, got {}",
                blocks.len()
            )));
        }
        for (i, b) in blocks.chunks_exact(block * block).enumerate() {
            for r in 0..block {
                for s in (r + 1)..block {
                    if (b[r * block + s] - b[s * block + r]).abs() > 1e-9 {
                        return Err(QpError::BadProblem(format!(
                            "diagonal block {i} is not symmetric at ({r},{s})"
                        )));
                    }
                }
            }
        }
        for (r, cp) in couplings.iter().enumerate() {
            if cp.s.len() != n {
                return Err(QpError::BadProblem(format!(
                    "coupling {r} has length {}, expected {n}",
                    cp.s.len()
                )));
            }
            if cp.weight < 0.0 || cp.weight.is_nan() {
                return Err(QpError::BadProblem(format!(
                    "coupling {r} has negative or NaN weight {}",
                    cp.weight
                )));
            }
        }
        validate_constraints(n, &lo, &hi, &budgets)?;
        let lmax_bound = lmax_bound(block, &blocks, &couplings);
        Ok(StructuredQp {
            nblocks,
            block,
            blocks,
            couplings,
            c,
            lo,
            hi,
            budgets,
            lmax_bound,
        })
    }

    /// Number of decision variables.
    pub fn dim(&self) -> usize {
        self.c.len()
    }

    /// Block edge length (the MPC horizon).
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of diagonal blocks (jobs).
    pub fn num_blocks(&self) -> usize {
        self.nblocks
    }

    /// Borrows diagonal block `i` as a row-major `block×block` slice.
    pub fn block(&self, i: usize) -> &[f64] {
        let mm = self.block * self.block;
        &self.blocks[i * mm..(i + 1) * mm]
    }

    /// The low-rank coupling terms.
    pub fn couplings(&self) -> &[Coupling] {
        &self.couplings
    }

    /// The linear cost term.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Total `f64`s held by the Hessian representation (blocks +
    /// couplings). This is the quantity the scaling tests pin down: it
    /// grows as O(jobs·M²), not O(jobs²·M²).
    pub fn hessian_stored_floats(&self) -> usize {
        self.blocks.len() + self.couplings.iter().map(|cp| cp.s.len()).sum::<usize>()
    }

    /// Cheap guaranteed upper bound on `λ_max(Q)`:
    /// `max_i gershgorin(B_i) + Σ_r w_r‖s_r‖²`. The first term bounds the
    /// block-diagonal part (Gershgorin circles of a symmetric matrix);
    /// the second bounds the low-rank tail by its trace, since each
    /// `w s sᵀ` is PSD with the single nonzero eigenvalue `w‖s‖²`.
    pub fn lmax_bound(&self) -> f64 {
        self.lmax_bound
    }

    /// Densifies into a [`crate::BoxBudgetQp`] (test oracle; O(n²)).
    pub fn to_dense(&self) -> crate::BoxBudgetQp {
        let n = self.dim();
        let m = self.block;
        let mut q = perq_linalg::Matrix::zeros(n, n);
        for i in 0..self.nblocks {
            let b = self.block(i);
            for r in 0..m {
                for s in 0..m {
                    q[(i * m + r, i * m + s)] = b[r * m + s];
                }
            }
        }
        for cp in &self.couplings {
            for a in 0..n {
                if cp.s[a] == 0.0 {
                    continue;
                }
                for b in 0..n {
                    q[(a, b)] += cp.weight * cp.s[a] * cp.s[b];
                }
            }
        }
        crate::BoxBudgetQp {
            q,
            c: self.c.clone(),
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            budgets: self.budgets.clone(),
        }
    }

    /// Writes `Qx` into `out` in O(blocks·m² + rank·n) time.
    pub fn hess_matvec_into(&self, x: &[f64], out: &mut [f64]) {
        let m = self.block;
        debug_assert_eq!(x.len(), self.dim());
        debug_assert_eq!(out.len(), self.dim());

        // Block-diagonal part: out_i = B_i x_i, independent per block.
        let mm = m * m;
        for ((out_i, x_i), b) in out
            .chunks_mut(m)
            .zip(x.chunks(m))
            .zip(self.blocks.chunks(mm))
        {
            block_matvec(m, b, x_i, out_i);
        }

        // Low-rank tail: out += Σ_r w_r (s_rᵀx) s_r.
        for cp in &self.couplings {
            if cp.weight == 0.0 {
                continue;
            }
            let t = cp.weight * vecops::dot(&cp.s, x);
            if t != 0.0 {
                vecops::axpy(t, &cp.s, out);
            }
        }
    }

    /// Evaluates `½xᵀQx + cᵀx` without allocating.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let m = self.block;
        let mm = m * m;
        let mut quad = 0.0;
        for (x_i, b) in x.chunks(m).zip(self.blocks.chunks(mm)) {
            for (r, &xr) in x_i.iter().enumerate() {
                if xr == 0.0 {
                    continue;
                }
                quad += xr * vecops::dot(&b[r * m..(r + 1) * m], x_i);
            }
        }
        for cp in &self.couplings {
            if cp.weight == 0.0 {
                continue;
            }
            let t = vecops::dot(&cp.s, x);
            quad += cp.weight * t * t;
        }
        0.5 * quad + vecops::dot(&self.c, x)
    }

    /// Writes the gradient `Qx + c` into `out` without allocating.
    pub fn gradient_into(&self, x: &[f64], out: &mut [f64]) {
        self.hess_matvec_into(x, out);
        vecops::axpy(1.0, &self.c, out);
    }
}

/// `out = B x` for a row-major `m×m` block.
#[inline]
fn block_matvec(m: usize, b: &[f64], x: &[f64], out: &mut [f64]) {
    for (r, o) in out.iter_mut().enumerate() {
        *o = vecops::dot(&b[r * m..(r + 1) * m], x);
    }
}

/// See [`StructuredQp::lmax_bound`].
fn lmax_bound(block: usize, blocks: &[f64], couplings: &[Coupling]) -> f64 {
    let mm = block * block;
    let mut block_bound = 0.0_f64;
    for b in blocks.chunks_exact(mm) {
        for r in 0..block {
            let radius: f64 = b[r * block..(r + 1) * block].iter().map(|v| v.abs()).sum();
            block_bound = block_bound.max(radius);
        }
    }
    let tail: f64 = couplings
        .iter()
        .map(|cp| cp.weight * vecops::dot(&cp.s, &cp.s))
        .sum();
    block_bound + tail
}

impl QpOperator for StructuredQp {
    fn dim(&self) -> usize {
        StructuredQp::dim(self)
    }

    fn lo(&self) -> &[f64] {
        &self.lo
    }

    fn hi(&self) -> &[f64] {
        &self.hi
    }

    fn budgets(&self) -> &[Budget] {
        &self.budgets
    }

    fn validate(&self) -> Result<()> {
        // Structural invariants were checked in `new`; bounds/budgets may
        // have been rebuilt by the caller, so re-check the cheap parts.
        validate_constraints(self.dim(), &self.lo, &self.hi, &self.budgets)
    }

    fn objective(&self, x: &[f64]) -> f64 {
        StructuredQp::objective(self, x)
    }

    fn gradient_into(&self, x: &[f64], out: &mut [f64]) {
        StructuredQp::gradient_into(self, x, out)
    }

    fn hess_matvec_into(&self, x: &[f64], out: &mut [f64]) {
        StructuredQp::hess_matvec_into(self, x, out)
    }

    fn lmax_upper_bound(&self) -> Option<f64> {
        Some(self.lmax_bound.max(1e-12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projgrad::estimate_lmax;
    use crate::ProjGradSolver;

    /// Deterministic pseudo-random stream (no external crates needed).
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            // Numerical Recipes LCG; top bits → [0, 1).
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Random structured QP with `k` blocks of size `m` and `m` coupling
    /// terms; blocks are Gram matrices plus ridge so they are SPD.
    fn random_structured(k: usize, m: usize, seed: u64) -> StructuredQp {
        let mut rng = Lcg(seed);
        let n = k * m;
        let mut blocks = vec![0.0; k * m * m];
        for b in blocks.chunks_exact_mut(m * m) {
            let g: Vec<f64> = (0..m * m).map(|_| rng.range(-1.0, 1.0)).collect();
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
                weight: rng.range(0.0, 2.0),
                s: (0..n)
                    .map(|a| {
                        if a % m <= j {
                            rng.range(-1.0, 1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            })
            .collect();
        let c: Vec<f64> = (0..n).map(|_| rng.range(-2.0, 2.0)).collect();
        let lo = vec![0.0; n];
        let hi: Vec<f64> = (0..n).map(|_| rng.range(0.5, 1.5)).collect();
        let budgets: Vec<Budget> = (0..m)
            .map(|j| Budget {
                coeffs: (0..n)
                    .map(|a| if a % m == j { rng.range(0.5, 4.0) } else { 0.0 })
                    .collect(),
                limit: 0.4 * n as f64,
            })
            .collect();
        StructuredQp::new(m, blocks, couplings, c, lo, hi, budgets).expect("well-formed")
    }

    #[test]
    fn matches_dense_objective_gradient_and_matvec() {
        for seed in 1..6 {
            let sq = random_structured(7, 4, seed);
            let dense = sq.to_dense();
            let n = sq.dim();
            let mut rng = Lcg(seed ^ 0xabcdef);
            let x: Vec<f64> = (0..n).map(|_| rng.range(-1.5, 1.5)).collect();
            assert!(
                (sq.objective(&x) - dense.objective(&x)).abs()
                    < 1e-9 * (1.0 + dense.objective(&x).abs()),
                "objective mismatch"
            );
            let mut gs = vec![0.0; n];
            sq.gradient_into(&x, &mut gs);
            let gd = dense.gradient(&x);
            assert!(vecops::max_abs_diff(&gs, &gd) < 1e-9, "gradient mismatch");
            let mut hs = vec![0.0; n];
            sq.hess_matvec_into(&x, &mut hs);
            let hd = dense.q.matvec(&x).unwrap();
            assert!(vecops::max_abs_diff(&hs, &hd) < 1e-9, "matvec mismatch");
        }
    }

    #[test]
    fn lmax_bound_dominates_power_iteration_estimate() {
        for seed in 1..8 {
            let sq = random_structured(6, 3, seed);
            let dense = sq.to_dense();
            // The power iteration converges to λ_max from below (modulo its
            // 1% final inflation), so the certified bound must dominate it
            // up to that slack.
            let est = estimate_lmax(&dense, 200);
            assert!(
                sq.lmax_bound() >= est / 1.02,
                "bound {} < estimate {est}",
                sq.lmax_bound()
            );
        }
    }

    #[test]
    fn solver_agrees_with_dense_path() {
        for seed in [3u64, 17, 99] {
            let sq = random_structured(5, 3, seed);
            let dense = sq.to_dense();
            let solver = ProjGradSolver::new(crate::ProjGradSettings {
                max_iters: 200_000,
                tol: 1e-12,
                power_iters: 60,
            });
            let xs = solver.solve(&sq, None).unwrap();
            let xd = solver.solve(&dense, None).unwrap();
            assert!(xs.converged && xd.converged);
            assert!(
                vecops::max_abs_diff(&xs.x, &xd.x) < 1e-8,
                "structured {:?} vs dense {:?}",
                xs.x,
                xd.x
            );
        }
    }

    #[test]
    fn hessian_storage_is_linear_in_blocks() {
        let m = 4;
        let small = random_structured(16, m, 1);
        let large = random_structured(256, m, 1);
        // 16× the blocks must cost ~16× the floats (exactly linear here),
        // far below the dense nv² footprint.
        assert_eq!(
            large.hessian_stored_floats(),
            16 * small.hessian_stored_floats()
        );
        let nv = large.dim();
        assert!(large.hessian_stored_floats() < nv * nv / 64);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let ok = random_structured(3, 2, 5);
        // Non-symmetric block.
        let mut blocks = ok.blocks.clone();
        blocks[1] += 1.0;
        assert!(StructuredQp::new(
            2,
            blocks,
            ok.couplings.clone(),
            ok.c.clone(),
            ok.lo.clone(),
            ok.hi.clone(),
            ok.budgets.clone(),
        )
        .is_err());
        // Wrong coupling length.
        let mut couplings = ok.couplings.clone();
        couplings[0].s.pop();
        assert!(StructuredQp::new(
            2,
            ok.blocks.clone(),
            couplings,
            ok.c.clone(),
            ok.lo.clone(),
            ok.hi.clone(),
            ok.budgets.clone(),
        )
        .is_err());
        // Dimension not a multiple of the block size.
        assert!(StructuredQp::new(
            4,
            ok.blocks.clone(),
            vec![],
            ok.c.clone(),
            ok.lo.clone(),
            ok.hi.clone(),
            vec![],
        )
        .is_err());
    }
}
