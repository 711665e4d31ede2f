//! Assembly of the MPC decision QP (Eq. 4) from per-job inputs.
//!
//! This module is deliberately free of dependencies beyond `perq-linalg`
//! and `perq-qp`: it contains the pure math that turns one decision
//! instance into a QP, in two equivalent representations:
//!
//! - [`assemble_dense_qp`] materialises the full `nv × nv` Hessian
//!   (`nv = jobs · horizon`) — O(jobs²) memory and assembly time. Kept as
//!   the test oracle and for diagnostics.
//! - [`assemble_structured_qp`] builds a [`StructuredQp`]: per-job `M × M`
//!   Hessian blocks plus `M` rank-one coupling vectors — O(jobs · M²)
//!   memory and assembly time, which is what makes large-cluster decision
//!   cost linear in the number of jobs.
//!
//! # Why the Hessian factors this way
//!
//! The dense assembly accumulates `Q = Σ w·rᵀr` over three row families:
//!
//! 1. **Job tracking rows** (one per job `i` and step `j`): the row only
//!    touches job `i`'s block, and equals `gsᵢ · tⱼ` where
//!    `tⱼ[l] = D` if `l = j`, `h_{j−l}` if `l < j` (the model's Markov
//!    template, identical for every job) and `gsᵢ = gainᵢ · slopeᵢ`.
//!    Summed over `j`, job `i`'s block gains `gsᵢ² · T` with the
//!    job-independent `T = Σⱼ w_t(j) · tⱼ tⱼᵀ`.
//! 2. **ΔP smoothing rows**: tridiagonal within each block, identical for
//!    every job (`D_ΔP`).
//! 3. **System throughput rows** (one per step `j`): the only coupling
//!    across jobs — a single rank-one term `w_s(j) · sⱼ sⱼᵀ` with
//!    `sⱼ[(i,l)] = scaleᵢ · gsᵢ · tⱼ[l]`.
//!
//! Hence `Q = blockdiag(B₁.. B_n) + Σⱼ w_s(j)·sⱼsⱼᵀ` with
//! `Bᵢ = gsᵢ²·T + D_ΔP`: per-job assembly is an `M × M` AXPY after the
//! two `M × M` templates are built once per decision.

use perq_linalg::Matrix;
use perq_qp::{BoxBudgetQp, Budget, Coupling, StructuredQp};

/// Per-job inputs to one MPC decision, produced from the job's adapter.
#[derive(Debug, Clone, Default)]
pub struct MpcJobState {
    /// Node count of the job.
    pub size: usize,
    /// Normalized per-node IPS target (fairness target from the target
    /// generator).
    pub target: f64,
    /// Cap fraction currently applied (`P0` of Eq. 4).
    pub current_cap_frac: f64,
    /// Adapted sensitivity gain `g` of this job.
    pub gain: f64,
    /// Free response `C Aʲ x̂` for `j = 1..=M` (what the job's output
    /// would do if the curve-transformed input were zero) — `G·X0` of
    /// Eq. 4.
    pub free_response: Vec<f64>,
    /// Static curve value `φ(P0)` at the current cap.
    pub curve_value: f64,
    /// Static curve slope `φ'(P0)` at the current cap (successive
    /// linearisation).
    pub curve_slope: f64,
    /// Constant output-disturbance estimate for this job (offset-free
    /// correction added to every predicted output).
    pub bias: f64,
    /// Whether this job's cap is charged against the power budget. Jobs
    /// observed to draw comfortably less than their cap are *slack*: the
    /// caller charges their estimated demand as a constant (already
    /// subtracted from [`MpcInput::budget_nodes`]) and their cap headroom
    /// is free — this is the usage-based budget accounting that lets PERQ
    /// over-commit caps (§2.4.1: the constraint is on "overall power
    /// usage", not on the sum of caps).
    pub charged: bool,
}

/// Cluster-level inputs to one MPC decision.
#[derive(Debug, Clone)]
pub struct MpcInput<'a> {
    /// Running jobs.
    pub jobs: &'a [MpcJobState],
    /// System throughput target (normalized by `N_WP`).
    pub system_target: f64,
    /// Remaining power budget for *charged* jobs in units of `TDP·nodes`:
    /// `Σ_{charged} sizeᵢ·pᵢ(j) ≤ budget_nodes` must hold at every
    /// horizon step (the slack jobs' estimated demands have already been
    /// subtracted by the caller).
    pub budget_nodes: f64,
    /// Lowest admissible cap fraction.
    pub cap_min_frac: f64,
    /// `N_WP`, used to normalize the system output row.
    pub wp_nodes: f64,
}

/// Everything the assembly needs from the controller: weights, horizon,
/// and the identified node model's impulse-response data.
#[derive(Debug, Clone)]
pub struct AssemblyParams<'a> {
    /// Prediction horizon `M`.
    pub horizon: usize,
    /// Weight on job-level tracking errors (`W_Tjob`).
    pub wt_job: f64,
    /// Weight on the system-throughput tracking error (`W_Tsys`).
    pub wt_sys: f64,
    /// Weight on power-cap changes between instances (`W_ΔP`).
    pub w_dp: f64,
    /// Multiplier applied to the tracking weights at the last horizon step.
    pub terminal_weight: f64,
    /// Delayed Markov parameters `h_1..h_M` of the node model.
    pub markov: &'a [f64],
    /// Direct feedthrough `D` (same-interval response).
    pub feedthrough: f64,
    /// Identified input offset `u₀` of the node model.
    pub input_offset: f64,
}

impl AssemblyParams<'_> {
    /// Tracking weight at horizon step `j` (0-based): the base weight with
    /// the terminal multiplier on the last step.
    #[inline]
    fn step_weight(&self, base: f64, j: usize) -> f64 {
        base * if j + 1 == self.horizon {
            self.terminal_weight
        } else {
            1.0
        }
    }

    /// Cumulative input response `h0cum[j] = D + Σ_{l=1..j} h_l`: the total
    /// response at output step `j` of a constant unit input held from
    /// step 0 (multiplies the constant part of the linearised input).
    fn h0cum(&self) -> Vec<f64> {
        let m = self.horizon;
        let mut h0cum = vec![0.0; m];
        h0cum[0] = self.feedthrough;
        for j in 1..m {
            h0cum[j] = h0cum[j - 1] + self.markov[j - 1];
        }
        h0cum
    }

    /// Row templates `tⱼ` (row-major `M × M`, lower triangular):
    /// `tⱼ[l] = D` if `l == j`, `h_{j−l}` if `l < j`, `0` above the
    /// diagonal. Row `j` is the coefficient pattern of every output
    /// prediction at step `j`, before per-job scaling.
    fn templates(&self) -> Vec<f64> {
        let m = self.horizon;
        let mut tmpl = vec![0.0; m * m];
        for j in 0..m {
            tmpl[j * m + j] = self.feedthrough;
            for l in 0..j {
                tmpl[j * m + l] = self.markov[j - l - 1];
            }
        }
        tmpl
    }

    /// Job-independent tracking Gram `T = Σⱼ w_t(j)·tⱼtⱼᵀ` (exactly
    /// symmetric by construction).
    fn tracking_gram(&self, tmpl: &[f64]) -> Vec<f64> {
        let m = self.horizon;
        let mut t = vec![0.0; m * m];
        for j in 0..m {
            let w = self.step_weight(self.wt_job, j);
            let row = &tmpl[j * m..(j + 1) * m];
            for r in 0..=j {
                let wr = w * row[r];
                if wr == 0.0 {
                    continue;
                }
                for c in 0..=j {
                    t[r * m + c] += wr * row[c];
                }
            }
        }
        t
    }

    /// Job-independent ΔP smoothing block (tridiagonal):
    /// `w_dp·(e₀e₀ᵀ + Σ_{j≥1}(eⱼ−e_{j−1})(eⱼ−e_{j−1})ᵀ)`.
    fn dp_block(&self) -> Vec<f64> {
        let m = self.horizon;
        let mut d = vec![0.0; m * m];
        d[0] += self.w_dp;
        for j in 1..m {
            d[j * m + j] += self.w_dp;
            d[(j - 1) * m + (j - 1)] += self.w_dp;
            d[j * m + (j - 1)] -= self.w_dp;
            d[(j - 1) * m + j] -= self.w_dp;
        }
        d
    }
}

/// Constraint set shared by both assemblies: box on every cap, one budget
/// per horizon step over charged jobs only. Also returns the warm start
/// (current caps held across the horizon).
fn constraints_and_warm(
    input: &MpcInput<'_>,
    m: usize,
) -> (Vec<f64>, Vec<f64>, Vec<Budget>, Vec<f64>) {
    let nj = input.jobs.len();
    let nv = nj * m;
    let lo = vec![input.cap_min_frac; nv];
    let hi = vec![1.0; nv];
    let min_commit: f64 = input
        .jobs
        .iter()
        .filter(|jb| jb.charged)
        .map(|jb| jb.size as f64 * input.cap_min_frac)
        .sum();
    let any_charged = input.jobs.iter().any(|jb| jb.charged);
    let budget_limit = input.budget_nodes.max(min_commit);
    let budgets: Vec<Budget> = if any_charged {
        (0..m)
            .map(|j| {
                let mut coeffs = vec![0.0; nv];
                for (i, job) in input.jobs.iter().enumerate() {
                    if job.charged {
                        coeffs[i * m + j] = job.size as f64;
                    }
                }
                Budget {
                    coeffs,
                    limit: budget_limit,
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut warm = Vec::with_capacity(nv);
    for jb in input.jobs {
        warm.extend(std::iter::repeat_n(jb.current_cap_frac, m));
    }
    (lo, hi, budgets, warm)
}

/// Constant part of the linearised input for a job:
/// `φ(p₀) − g·φ'(p₀)·p₀ + u₀`.
#[inline]
fn const_input(job: &MpcJobState, input_offset: f64) -> f64 {
    job.curve_value - job.gain * job.curve_slope * job.current_cap_frac + input_offset
}

/// Assembles the decision QP with a dense Hessian — O((jobs·M)²) memory
/// and time. This is the reference implementation the structured path is
/// tested against; production decisions use [`assemble_structured_qp`].
///
/// Returns the QP together with the warm-start point and the per-(job,
/// step) affine constants `k_ij` of the output predictions (variable
/// layout `i·M + j`).
pub fn assemble_dense_qp(
    params: &AssemblyParams<'_>,
    input: &MpcInput<'_>,
) -> Option<(BoxBudgetQp, Vec<f64>, Vec<f64>)> {
    let nj = input.jobs.len();
    if nj == 0 {
        return None;
    }
    let m = params.horizon;
    let nv = nj * m;
    let var = |i: usize, j: usize| i * m + j; // j = 0-based horizon step

    let h0cum = params.h0cum();

    // Row accumulation: Q += w rᵀr, c += −w·resid·r for each output
    // row, where the predicted output is `r·p + k` and resid = T − k.
    let mut q = Matrix::zeros(nv, nv);
    let mut c = vec![0.0; nv];
    let mut consts = vec![0.0; nv];
    let add_row =
        |q: &mut Matrix, c: &mut Vec<f64>, w: f64, entries: &[(usize, f64)], resid: f64| {
            for &(a, va) in entries {
                c[a] -= w * resid * va;
                for &(b, vb) in entries {
                    q[(a, b)] += w * va * vb;
                }
            }
        };

    // Per-job constants k_i(j) and row templates. With the input at
    // step mᵢ linearised as u(m) = φ(p0) + g·s0·(p(m) − p0), the
    // predicted output is
    //   y_i(j) = free_i(j) + (φ(p0) − g·s0·p0 + u0)·h0cum(j)
    //          + g·s0·[ D·p_i(j) + Σ_{l<j} h_{j−l}·p_i(l) ].
    let mut row_buf: Vec<(usize, f64)> = Vec::with_capacity(nv);
    let mut sys_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    let mut sys_consts = vec![0.0; m];

    for (i, job) in input.jobs.iter().enumerate() {
        debug_assert_eq!(job.free_response.len(), m, "free response length");
        let gs = job.gain * job.curve_slope;
        let const_in = const_input(job, params.input_offset);
        for j in 0..m {
            // Constant part of y_i at output step j.
            let k_ij = job.free_response[j] + const_in * h0cum[j] + job.bias;
            consts[var(i, j)] = k_ij;
            row_buf.clear();
            for l in 0..=j {
                let coeff = if l == j {
                    gs * params.feedthrough
                } else {
                    gs * params.markov[j - l - 1]
                };
                if coeff != 0.0 {
                    row_buf.push((var(i, l), coeff));
                }
            }
            let w = params.step_weight(params.wt_job, j);
            add_row(&mut q, &mut c, w, &row_buf, job.target - k_ij);

            // Contribute to the system row for step j.
            let scale = job.size as f64 / input.wp_nodes;
            sys_consts[j] += scale * k_ij;
            for &(idx, v) in &row_buf {
                sys_rows[j].push((idx, scale * v));
            }
        }
    }

    // System throughput rows.
    for j in 0..m {
        let w = params.step_weight(params.wt_sys, j);
        add_row(
            &mut q,
            &mut c,
            w,
            &sys_rows[j],
            input.system_target - sys_consts[j],
        );
    }

    // ΔP smoothing rows: p_i(0) − p0_i, then p_i(j) − p_i(j−1).
    for (i, job) in input.jobs.iter().enumerate() {
        add_row(
            &mut q,
            &mut c,
            params.w_dp,
            &[(var(i, 0), 1.0)],
            job.current_cap_frac,
        );
        for j in 1..m {
            add_row(
                &mut q,
                &mut c,
                params.w_dp,
                &[(var(i, j), 1.0), (var(i, j - 1), -1.0)],
                0.0,
            );
        }
    }

    let (lo, hi, budgets, warm) = constraints_and_warm(input, m);
    let qp = BoxBudgetQp {
        q,
        c,
        lo,
        hi,
        budgets,
    };
    Some((qp, warm, consts))
}

/// Assembles the decision QP in structured (block + low-rank) form —
/// O(jobs·M²) memory and time after two O(M³) template products.
///
/// The returned operator represents exactly the same QP as
/// [`assemble_dense_qp`] (up to floating-point summation order): per-job
/// blocks `Bᵢ = gsᵢ²·T + D_ΔP` and one coupling `(w_s(j), sⱼ)` per
/// horizon step. Returns the operator, the warm-start point, and the
/// `k_ij` constants.
pub fn assemble_structured_qp(
    params: &AssemblyParams<'_>,
    input: &MpcInput<'_>,
) -> Option<(StructuredQp, Vec<f64>, Vec<f64>)> {
    let nj = input.jobs.len();
    if nj == 0 {
        return None;
    }
    let m = params.horizon;
    let nv = nj * m;

    let h0cum = params.h0cum();
    let tmpl = params.templates();
    let tgram = params.tracking_gram(&tmpl);
    let dp = params.dp_block();

    let mut blocks = vec![0.0; nj * m * m];
    let mut c = vec![0.0; nv];
    let mut consts = vec![0.0; nv];

    // Per-job block, linear term, and affine constants.
    for (((block, cj), kj), job) in blocks
        .chunks_mut(m * m)
        .zip(c.chunks_mut(m))
        .zip(consts.chunks_mut(m))
        .zip(input.jobs.iter())
    {
        debug_assert_eq!(job.free_response.len(), m, "free response length");
        let gs = job.gain * job.curve_slope;
        let const_in = const_input(job, params.input_offset);
        // Bᵢ = gsᵢ²·T + D_ΔP.
        let gs2 = gs * gs;
        for (b, (&t, &d)) in block.iter_mut().zip(tgram.iter().zip(dp.iter())) {
            *b = gs2 * t + d;
        }
        // Constants k_ij and the tracking part of the linear term:
        // cᵢ −= Σⱼ w_t(j)·(target − k_ij)·gs·tⱼ.
        for j in 0..m {
            let k_ij = job.free_response[j] + const_in * h0cum[j] + job.bias;
            kj[j] = k_ij;
            let wr = params.step_weight(params.wt_job, j) * (job.target - k_ij) * gs;
            if wr != 0.0 {
                for l in 0..=j {
                    cj[l] -= wr * tmpl[j * m + l];
                }
            }
        }
        // ΔP anchoring toward the currently applied cap.
        cj[0] -= params.w_dp * job.current_cap_frac;
    }

    // System-throughput couplings: sⱼ[(i,l)] = scaleᵢ·gsᵢ·tⱼ[l], one
    // rank-one term per step. Their contribution to the linear term uses
    // the step's aggregate constant Σᵢ scaleᵢ·k_ij.
    let mut couplings = Vec::with_capacity(m);
    for j in 0..m {
        let weight = params.step_weight(params.wt_sys, j);
        let mut s = vec![0.0; nv];
        let mut sys_const = 0.0;
        for (i, job) in input.jobs.iter().enumerate() {
            let scale = job.size as f64 / input.wp_nodes;
            let gs = job.gain * job.curve_slope;
            sys_const += scale * consts[i * m + j];
            let sg = scale * gs;
            if sg != 0.0 {
                for l in 0..=j {
                    s[i * m + l] = sg * tmpl[j * m + l];
                }
            }
        }
        let wr = weight * (input.system_target - sys_const);
        if wr != 0.0 {
            for (ci, &si) in c.iter_mut().zip(s.iter()) {
                *ci -= wr * si;
            }
        }
        couplings.push(Coupling { weight, s });
    }

    let (lo, hi, budgets, warm) = constraints_and_warm(input, m);
    let qp = StructuredQp::new(m, blocks, couplings, c, lo, hi, budgets)
        .unwrap_or_else(|e| panic!("structured MPC QP assembly produced invalid operator: {e}"));
    Some((qp, warm, consts))
}
