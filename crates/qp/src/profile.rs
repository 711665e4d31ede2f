//! Solver precision/layout profiles and the mixed-precision driver.
//!
//! A [`SolverProfile`] names how one MPC decision QP is iterated:
//!
//! | profile     | iterates | layout | accuracy contract                    |
//! |-------------|----------|--------|--------------------------------------|
//! | `f64_aos`   | `f64`    | AoS    | reference; byte-reproducible exports |
//! | `f64_soa`   | `f64`    | SoA    | ≈ reference to solver tolerance      |
//! | `mixed_soa` | `f32`+`f64` | SoA | f64-checked: falls back on residual  |
//!
//! The mixed profile iterates in `f32` over [`crate::SoaQp`] lanes, then
//! measures the **f64** KKT fixed-point residual of the result on the
//! original [`crate::StructuredQp`]. If the measured residual is within
//! [`MIXED_ACCEPT_FACTOR`]× the solver's own convergence threshold the
//! f32 answer is accepted; otherwise the driver re-solves in `f64`
//! warm-started from the f32 iterate (a short polish — the f32 point is
//! already near-optimal) and reports the fallback so callers can count it
//! in telemetry. Every f32-derived answer is re-projected in `f64` before
//! being returned, so feasibility is always at reference precision.

use crate::problem::{QpOperator, QpSolution};
use crate::projection::{project_box_budgets_scratch, ProjectionScratch};
use crate::projgrad::{LmaxCache, ProjGradSolver, Workspace};
use crate::soa::SoaQp;
use crate::{Result, StructuredQp};
use perq_linalg::vecops;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Iterate precision of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Precision {
    /// Reference double precision.
    #[default]
    F64,
    /// Iterate in `f32`, accept only after an `f64` residual check, fall
    /// back to an `f64` polish otherwise.
    Mixed,
}

/// Memory layout the iteration runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Layout {
    /// Job-major array-of-structures ([`StructuredQp`]'s native layout).
    #[default]
    Aos,
    /// Step-major structure-of-arrays lanes ([`SoaQp`]).
    Soa,
}

/// How the MPC decision QP is iterated: precision × layout. The default
/// (`f64`/AoS) is the pre-profile behaviour and keeps every existing
/// export byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct SolverProfile {
    /// Iterate precision.
    pub precision: Precision,
    /// Storage layout (`mixed` always runs SoA — there is no f32 AoS
    /// operator — so `layout` is only meaningful at `f64`).
    pub layout: Layout,
}

impl Default for SolverProfile {
    fn default() -> Self {
        SolverProfile {
            precision: Precision::F64,
            layout: Layout::Aos,
        }
    }
}

impl SolverProfile {
    /// The reference profile (`f64`/AoS).
    pub fn f64_aos() -> Self {
        SolverProfile::default()
    }

    /// `f64` iterates over SoA lanes.
    pub fn f64_soa() -> Self {
        SolverProfile {
            precision: Precision::F64,
            layout: Layout::Soa,
        }
    }

    /// Mixed `f32`-iterate / `f64`-check profile over SoA lanes.
    pub fn mixed_soa() -> Self {
        SolverProfile {
            precision: Precision::Mixed,
            layout: Layout::Soa,
        }
    }

    /// Stable label used in metric names, bench rows, and reports.
    pub fn label(&self) -> &'static str {
        match (self.precision, self.layout) {
            (Precision::F64, Layout::Aos) => "f64_aos",
            (Precision::F64, Layout::Soa) => "f64_soa",
            (Precision::Mixed, _) => "mixed_soa",
        }
    }

    /// Per-profile iteration-counter metric name (static, since the
    /// telemetry recorder interns `&'static str` names only).
    pub fn iterations_metric(&self) -> &'static str {
        match (self.precision, self.layout) {
            (Precision::F64, Layout::Aos) => "perq_qp_iterations_f64_aos_total",
            (Precision::F64, Layout::Soa) => "perq_qp_iterations_f64_soa_total",
            (Precision::Mixed, _) => "perq_qp_iterations_mixed_soa_total",
        }
    }
}

impl fmt::Display for SolverProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SolverProfile {
    type Err = String;

    /// Parses the CLI `precision=` spellings (`f64`, `f64_soa`, `mixed`)
    /// plus the explicit profile labels (`f64_aos`, `mixed_soa`).
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "f64" | "f64_aos" => Ok(SolverProfile::f64_aos()),
            "f64_soa" => Ok(SolverProfile::f64_soa()),
            "mixed" | "mixed_soa" => Ok(SolverProfile::mixed_soa()),
            other => Err(format!(
                "unknown precision profile {other:?} (expected f64|f64_soa|mixed, \
                 or a profile label f64_aos|f64_soa|mixed_soa)"
            )),
        }
    }
}

/// Accepted slack of the mixed profile's f64 residual check, as a
/// multiple of the solver's own convergence threshold `tol·max(L,1)`.
///
/// The f32 iterate resolves the solution to roughly `f32::EPSILON`-level
/// coordinates, which lands the measured f64 residual near (not below)
/// the f64 threshold for well-conditioned instances; accepting within
/// 10× keeps the fallback an exception (ill-conditioned or budget-tight
/// instances) instead of the common case, while still bounding the
/// objective gap at ~1e-5 relative — two orders of magnitude inside the
/// 1e-3 accuracy contract.
pub const MIXED_ACCEPT_FACTOR: f64 = 10.0;

/// Reusable buffers for [`solve_profiled`]: per-precision solver
/// workspaces and spectral caches (SoA and AoS eigenvector seeds live in
/// different layouts, so each profile keeps its own cache), plus the f64
/// residual-check scratch.
#[derive(Debug, Clone, Default)]
pub struct ProfiledQpState {
    ws64: Workspace<f64>,
    lmax64: LmaxCache<f64>,
    ws_soa64: Workspace<f64>,
    lmax_soa64: LmaxCache<f64>,
    ws32: Workspace<f32>,
    lmax32: LmaxCache<f32>,
    grad: Vec<f64>,
    probe: Vec<f64>,
    proj: ProjectionScratch<f64>,
}

impl ProfiledQpState {
    /// The cached `f64` AoS Lipschitz estimate, if a reference-profile
    /// solve has warmed it (diagnostics and tests).
    pub fn f64_lmax(&self) -> Option<f64> {
        self.lmax64.lmax()
    }
}

/// Result of a profiled solve: the solution in the canonical job-major
/// `f64` layout, plus mixed-profile accounting.
#[derive(Debug, Clone)]
pub struct ProfiledSolution {
    /// Solution and diagnostics (x is job-major `f64` for every profile).
    pub solution: QpSolution,
    /// Whether the mixed profile's f64 check rejected the f32 iterate and
    /// an f64 polish ran (always `false` for non-mixed profiles).
    pub fell_back: bool,
}

/// Solves a [`StructuredQp`] under the given [`SolverProfile`].
///
/// - `f64_aos` performs *exactly* the same operations as calling
///   [`ProjGradSolver::solve_with`] directly (byte-identity anchor).
/// - SoA profiles transpose the warm start into lane layout, solve, and
///   transpose back.
/// - Every f32-derived answer is re-projected in `f64` so the returned
///   point is feasible at reference precision, and its reported
///   `objective`/`residual` are measured in `f64` on the original
///   problem.
pub fn solve_profiled(
    solver: &ProjGradSolver,
    sq: &StructuredQp,
    warm: Option<&[f64]>,
    profile: SolverProfile,
    state: &mut ProfiledQpState,
) -> Result<ProfiledSolution> {
    match (profile.precision, profile.layout) {
        (Precision::F64, Layout::Aos) => {
            let solution = solver.solve_with(sq, warm, &mut state.ws64, Some(&mut state.lmax64))?;
            Ok(ProfiledSolution {
                solution,
                fell_back: false,
            })
        }
        (Precision::F64, Layout::Soa) => {
            let soa: SoaQp<f64> = SoaQp::from_structured(sq);
            let warm_t = warm.map(|w| soa.to_soa(w));
            let sol = solver.solve_with(
                &soa,
                warm_t.as_deref(),
                &mut state.ws_soa64,
                Some(&mut state.lmax_soa64),
            )?;
            let x = soa.from_soa(&sol.x);
            Ok(ProfiledSolution {
                solution: finish_f64(sq, x, sol.iterations, sol.converged, state),
                fell_back: false,
            })
        }
        (Precision::Mixed, _) => {
            let (x, iterations, converged) = solve_f32(solver, sq, warm, state)?;
            let mut solution = finish_f64(sq, x, iterations, converged, state);
            let lipschitz = sq.lmax_bound().max(1e-12);
            let threshold = solver.settings.tol * lipschitz.max(1.0) * MIXED_ACCEPT_FACTOR;
            if solution.residual <= threshold {
                return Ok(ProfiledSolution {
                    solution,
                    fell_back: false,
                });
            }
            // The f32 iterate missed the contract: polish in f64,
            // warm-started from it (typically a handful of iterations).
            let polish = solver.solve_with(
                sq,
                Some(&solution.x),
                &mut state.ws64,
                Some(&mut state.lmax64),
            )?;
            solution = QpSolution {
                iterations: solution.iterations + polish.iterations,
                ..polish
            };
            Ok(ProfiledSolution {
                solution,
                fell_back: true,
            })
        }
    }
}

/// Floor on the single-precision stop tolerance: `f32` cannot resolve
/// iterate differences much below its machine epsilon (~1.2e-7 on
/// unit-scale caps), so a tighter request would spin to `max_iters`
/// chasing digits the format does not have. ~40× `f32::EPSILON` is
/// reliably reachable; anything the floor leaves on the table is caught
/// by the mixed profile's f64 residual check.
const F32_TOL_FLOOR: f64 = 5e-6;

/// Runs the f32 SoA solve and returns the job-major `f64` iterate.
fn solve_f32(
    solver: &ProjGradSolver,
    sq: &StructuredQp,
    warm: Option<&[f64]>,
    state: &mut ProfiledQpState,
) -> Result<(Vec<f64>, usize, bool)> {
    let soa: SoaQp<f32> = SoaQp::from_structured(sq);
    let warm_t = warm.map(|w| soa.to_soa(w));
    let solver = if solver.settings.tol < F32_TOL_FLOOR {
        let mut floored = solver.clone();
        floored.settings.tol = F32_TOL_FLOOR;
        std::borrow::Cow::Owned(floored)
    } else {
        std::borrow::Cow::Borrowed(solver)
    };
    let sol = solver.solve_with(
        &soa,
        warm_t.as_deref(),
        &mut state.ws32,
        Some(&mut state.lmax32),
    )?;
    Ok((soa.from_soa(&sol.x), sol.iterations, sol.converged))
}

/// Re-projects an iterate in `f64` on the original problem and measures
/// its `f64` objective and KKT fixed-point residual.
fn finish_f64(
    sq: &StructuredQp,
    mut x: Vec<f64>,
    iterations: usize,
    converged: bool,
    state: &mut ProfiledQpState,
) -> QpSolution {
    project_box_budgets_scratch(
        &mut x,
        QpOperator::lo(sq),
        QpOperator::hi(sq),
        QpOperator::budgets(sq),
        &mut state.proj,
    );
    let residual = f64_kkt_residual(sq, &x, state);
    QpSolution {
        objective: StructuredQp::objective(sq, &x),
        iterations,
        converged,
        residual,
        x,
    }
}

/// Measures the `f64` KKT fixed-point residual `‖x − Π(x − ∇f(x)/L)‖∞·L`
/// of a point on the original problem — the same optimality measure the
/// f64 solver converges on, so mixed-profile acceptance is apples to
/// apples with the reference path.
pub fn f64_kkt_residual(sq: &StructuredQp, x: &[f64], state: &mut ProfiledQpState) -> f64 {
    let lipschitz = sq.lmax_bound().max(1e-12);
    let step = 1.0 / lipschitz;
    state.grad.resize(x.len(), 0.0);
    state.probe.clear();
    state.probe.extend_from_slice(x);
    StructuredQp::gradient_into(sq, x, &mut state.grad);
    for (p, &g) in state.probe.iter_mut().zip(state.grad.iter()) {
        *p -= step * g;
    }
    project_box_budgets_scratch(
        &mut state.probe,
        QpOperator::lo(sq),
        QpOperator::hi(sq),
        QpOperator::budgets(sq),
        &mut state.proj,
    );
    vecops::max_abs_diff(&state.probe, x) * lipschitz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, Coupling, ProjGradSettings};

    fn tiny_structured(seed: u64) -> StructuredQp {
        // Small PERQ-shaped instance: 6 jobs, horizon 3, per-step budgets.
        let (k, m) = (6usize, 3usize);
        let n = k * m;
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut blocks = vec![0.0; k * m * m];
        for b in blocks.chunks_exact_mut(m * m) {
            let g: Vec<f64> = (0..m * m).map(|_| next() * 2.0 - 1.0).collect();
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
        let couplings = vec![Coupling {
            weight: 0.5,
            s: (0..n).map(|_| next()).collect(),
        }];
        let c: Vec<f64> = (0..n).map(|_| next() * 4.0 - 2.0).collect();
        let budgets: Vec<Budget> = (0..m)
            .map(|j| Budget {
                coeffs: (0..n)
                    .map(|a| if a % m == j { 1.0 + next() } else { 0.0 })
                    .collect(),
                limit: 0.4 * n as f64,
            })
            .collect();
        StructuredQp::new(m, blocks, couplings, c, vec![0.0; n], vec![1.0; n], budgets).unwrap()
    }

    #[test]
    fn labels_and_parsing_round_trip() {
        for (spec, label) in [
            ("f64", "f64_aos"),
            ("f64_soa", "f64_soa"),
            ("mixed", "mixed_soa"),
        ] {
            let p: SolverProfile = spec.parse().unwrap();
            assert_eq!(p.label(), label);
            assert_eq!(p.label().parse::<SolverProfile>().unwrap(), p);
        }
        for retired in ["f32", "f32_soa", "quad"] {
            let err = retired.parse::<SolverProfile>().unwrap_err();
            assert!(err.contains("f64|f64_soa|mixed"), "{err}");
        }
        assert_eq!(SolverProfile::default().label(), "f64_aos");
    }

    #[test]
    fn f64_aos_profile_is_bitwise_identical_to_direct_solve() {
        let sq = tiny_structured(3);
        let solver = ProjGradSolver::default();
        let mut ws = Workspace::default();
        let mut cache = LmaxCache::default();
        let direct = solver
            .solve_with(&sq, None, &mut ws, Some(&mut cache))
            .unwrap();

        let mut state = ProfiledQpState::default();
        let profiled =
            solve_profiled(&solver, &sq, None, SolverProfile::f64_aos(), &mut state).unwrap();
        assert!(!profiled.fell_back);
        assert_eq!(direct.iterations, profiled.solution.iterations);
        assert!(direct
            .x
            .iter()
            .zip(profiled.solution.x.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn every_profile_meets_the_objective_contract() {
        let solver = ProjGradSolver::new(ProjGradSettings {
            max_iters: 10_000,
            tol: 1e-7,
            power_iters: 30,
        });
        for seed in [1u64, 7, 19] {
            let sq = tiny_structured(seed);
            let mut state = ProfiledQpState::default();
            let reference =
                solve_profiled(&solver, &sq, None, SolverProfile::f64_aos(), &mut state)
                    .unwrap()
                    .solution;
            for profile in [SolverProfile::f64_soa(), SolverProfile::mixed_soa()] {
                let got = solve_profiled(&solver, &sq, None, profile, &mut state).unwrap();
                let rel = (got.solution.objective - reference.objective).abs()
                    / (1.0 + reference.objective.abs());
                assert!(
                    rel <= 1e-3,
                    "{} objective off by {rel} at seed {seed}",
                    profile.label()
                );
            }
        }
    }

    #[test]
    fn mixed_profile_counts_fallbacks_when_tolerance_is_unreachable() {
        // A tolerance far below f32 resolution forces the f64 check to
        // reject the f32 iterate and polish.
        let solver = ProjGradSolver::new(ProjGradSettings {
            max_iters: 50_000,
            tol: 1e-12,
            power_iters: 30,
        });
        let sq = tiny_structured(5);
        let mut state = ProfiledQpState::default();
        let got =
            solve_profiled(&solver, &sq, None, SolverProfile::mixed_soa(), &mut state).unwrap();
        assert!(got.fell_back, "1e-12 tol must defeat the f32 iterate");
        // And the polish must actually deliver f64-grade optimality.
        let reference = solve_profiled(&solver, &sq, None, SolverProfile::f64_aos(), &mut state)
            .unwrap()
            .solution;
        assert!((got.solution.objective - reference.objective).abs() < 1e-9);
    }
}
