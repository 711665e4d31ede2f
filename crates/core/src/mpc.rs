use crate::grouping::GroupScratch;
use crate::model::NodeModel;
use crate::mpc_assembly::{assemble_dense_qp, assemble_structured_qp, AssemblyParams};
use perq_linalg::Matrix;
use perq_qp::{
    solve_profiled, BoxBudgetQp, ProfiledQpState, ProjGradSettings, ProjGradSolver, SolverProfile,
    StructuredQp,
};
use perq_telemetry::Recorder;
use std::sync::Mutex;

pub use crate::mpc_assembly::{MpcInput, MpcJobState};

/// MPC controller settings (the weights of Eq. 2/Eq. 3 and the horizon).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct MpcSettings {
    /// Prediction horizon `M` in control intervals (paper uses ~4 and
    /// reports insensitivity to the exact value).
    pub horizon: usize,
    /// Weight on job-level tracking errors (`W_Tjob`).
    pub wt_job: f64,
    /// Weight on the system-throughput tracking error (`W_Tsys`).
    pub wt_sys: f64,
    /// Weight on power-cap changes between instances (`W_ΔP`).
    pub w_dp: f64,
    /// Multiplier applied to the tracking weights at the last horizon
    /// step — the "terminal cost" that enforces convergence by the end of
    /// the horizon (§2.3.2).
    pub terminal_weight: f64,
    /// QP solver iteration cap (bounds the decision time).
    pub max_qp_iters: usize,
    /// QP solver convergence tolerance.
    pub qp_tol: f64,
}

impl Default for MpcSettings {
    fn default() -> Self {
        MpcSettings {
            horizon: 4,
            wt_job: 1.0,
            wt_sys: 1.0,
            w_dp: 1.0,
            terminal_weight: 2.0,
            max_qp_iters: 400,
            qp_tol: 1e-6,
        }
    }
}

/// Result of one decision.
#[derive(Debug, Clone, Default)]
pub struct MpcDecision {
    /// First-step cap fraction per job (what gets applied).
    pub caps_frac: Vec<f64>,
    /// Predicted normalized per-node IPS per job at the first step.
    pub predicted_ips: Vec<f64>,
    /// The full optimized cap trajectory, job-major (`x[i·M + j]` is job
    /// `i`'s cap at horizon step `j`). Shift it one step and feed it to
    /// [`MpcController::decide_warm`] as the next interval's warm start:
    /// consecutive instances differ by one interval of feedback, so the
    /// previous optimum is a far better start than holding current caps.
    pub x: Vec<f64>,
    /// QP iterations used.
    pub qp_iterations: usize,
    /// Whether the QP converged within the iteration cap.
    pub converged: bool,
}

/// Per-controller solver state reused across decisions: per-precision
/// FISTA workspaces (so repeated decisions allocate almost nothing) and
/// Lipschitz caches (the previous Hessian's dominant eigenvector seeds
/// the next power iteration — consecutive decisions see nearly the same
/// spectrum, so the re-estimate converges in a couple of products).
#[derive(Debug, Default)]
struct ControllerScratch {
    state: ProfiledQpState,
}

/// The PERQ model-predictive controller (§2.4.3).
///
/// Every decision interval it assembles the quadratic program of Eq. 4 —
/// `find P to minimize ½PᵀQP + cᵀP` with `Q = HᵀW_TH + DᵀW_ΔPD` — from the
/// node model's Markov parameters, each job's observer state (free
/// response) and adapted gain, and solves it with the projected-gradient
/// solver under box and per-step budget constraints.
///
/// The Hessian is kept in structured block + low-rank form
/// ([`StructuredQp`]) rather than as a dense matrix, so both assembly and
/// each solver iteration cost O(jobs·horizon²) instead of
/// O(jobs²·horizon²) — see [`crate::mpc_assembly`] for the derivation.
/// The dense path survives as [`MpcController::assemble_dense_qp`] /
/// [`MpcController::decide_dense`] for testing and diagnostics.
///
/// Timing convention: cap `p(j)` is applied during prediction interval
/// `j` and the output `y(j)` is measured at its end, so `y(j)` sees
/// `p(j)` through the model's direct feedthrough and earlier caps through
/// the Markov parameters. The per-job sensitivity gain `g` scales the
/// response to cap *changes*; absolute levels are tracked by the
/// observer's free response.
#[derive(Debug)]
pub struct MpcController {
    settings: MpcSettings,
    /// Delayed Markov parameters `h_1..h_M` of the node model.
    markov: Vec<f64>,
    /// Direct feedthrough `D` (same-interval response).
    feedthrough: f64,
    /// Identified input offset `u₀` of the node model.
    input_offset: f64,
    /// Free-response rows `C Aʲ`, `j = 0..M`, of the node model — the
    /// same for every job and every decision.
    response_rows: Matrix,
    /// Identified output offset `y₀` of the node model.
    output_offset: f64,
    solver: ProjGradSolver,
    profile: SolverProfile,
    recorder: Recorder,
    /// Interior-mutable so [`MpcController::decide`] keeps its `&self`
    /// signature while reusing buffers and the spectral cache.
    scratch: Mutex<ControllerScratch>,
    /// Likewise for [`MpcController::decide_grouped`], which holds it
    /// across the `decide` over its pseudo-jobs.
    pub(crate) grouping: Mutex<GroupScratch>,
}

impl Clone for MpcController {
    fn clone(&self) -> Self {
        // The scratches are pure caches: a clone starts cold and re-warms
        // on its first decision.
        MpcController {
            settings: self.settings.clone(),
            markov: self.markov.clone(),
            feedthrough: self.feedthrough,
            input_offset: self.input_offset,
            response_rows: self.response_rows.clone(),
            output_offset: self.output_offset,
            solver: self.solver.clone(),
            profile: self.profile,
            recorder: self.recorder.clone(),
            scratch: Mutex::new(ControllerScratch::default()),
            grouping: Mutex::default(),
        }
    }
}

impl MpcController {
    /// Builds a controller for an identified node model.
    pub fn new(model: &NodeModel, settings: MpcSettings) -> Self {
        assert!(settings.horizon >= 1, "horizon must be at least 1");
        let markov = model.ss.markov_parameters(settings.horizon);
        let response_rows = model.ss.output_response_rows(settings.horizon);
        let solver = ProjGradSolver::new(ProjGradSettings {
            max_iters: settings.max_qp_iters,
            tol: settings.qp_tol,
            power_iters: 20,
        });
        MpcController {
            settings,
            markov,
            feedthrough: model.ss.feedthrough(),
            input_offset: model.ss.input_offset(),
            response_rows,
            output_offset: model.ss.output_offset(),
            solver,
            profile: SolverProfile::default(),
            recorder: Recorder::noop(),
            scratch: Mutex::new(ControllerScratch::default()),
            grouping: Mutex::default(),
        }
    }

    /// Selects the solver precision/layout profile for subsequent
    /// decisions. The default (`f64_aos`) reproduces the pre-profile
    /// behaviour bit for bit; `f32`/`mixed` profiles trade reference
    /// precision for decide latency and are strictly opt-in.
    pub fn set_solver_profile(&mut self, profile: SolverProfile) {
        self.profile = profile;
    }

    /// The active solver precision/layout profile.
    pub fn solver_profile(&self) -> SolverProfile {
        self.profile
    }

    /// Attaches a telemetry recorder. Decisions then report
    /// `perq_core_*` metrics (decide span, job/horizon gauges, QP
    /// iteration histogram) and the handle is forwarded to the inner QP
    /// solver for its `perq_qp_*` metrics.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.solver.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The controller's settings.
    pub fn settings(&self) -> &MpcSettings {
        &self.settings
    }

    /// Arms (or clears) a wall-clock deadline for subsequent decisions:
    /// the QP solver switches to anytime mode and returns its best
    /// iterate when the deadline passes instead of running to
    /// convergence. A batched control loop sets `tick_start + budget`
    /// once per tick so one hard QP cannot stall the cap fan-out.
    pub fn set_decide_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.solver.set_deadline(deadline);
    }

    /// The assembly view of this controller's parameters.
    fn params(&self) -> AssemblyParams<'_> {
        AssemblyParams {
            horizon: self.settings.horizon,
            wt_job: self.settings.wt_job,
            wt_sys: self.settings.wt_sys,
            w_dp: self.settings.w_dp,
            terminal_weight: self.settings.terminal_weight,
            markov: &self.markov,
            feedthrough: self.feedthrough,
            input_offset: self.input_offset,
        }
    }

    /// Free-response horizon rows `C Aʲ x̂ + y₀` for `j = 0..M` — the
    /// zero-input output trajectory from a job's state estimate; helper so
    /// callers build [`MpcJobState`] without touching the model internals.
    /// `model` is the model the controller was built for: like the Markov
    /// parameters, the rows `C Aʲ` are taken from it once, at construction
    /// — building them is a matrix, a vector per power of `A` and O(M·n²)
    /// products for a value no job and no decision changes.
    pub fn free_response(&self, model: &NodeModel, state: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.free_response_into(model, state, &mut out);
        out
    }

    /// [`MpcController::free_response`] written over `out`, so a caller
    /// that decides every interval keeps one buffer per job.
    pub fn free_response_into(&self, model: &NodeModel, state: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(
            model.ss.output_offset().to_bits(),
            self.output_offset.to_bits(),
            "free_response called with a model other than the controller's"
        );
        out.clear();
        out.extend((0..self.settings.horizon).map(|j| {
            self.response_rows
                .row(j)
                .iter()
                .zip(state.iter())
                .map(|(&a, &b)| a * b)
                .sum::<f64>()
                + self.output_offset
        }));
    }

    /// Assembles the decision QP of Eq. 4 in structured form — the
    /// representation [`MpcController::decide`] solves (exposed for
    /// diagnostics and benchmarks). Returns the operator together with
    /// the warm-start point (current caps held across the horizon) and
    /// the per-(job, step) affine constants `k_ij` of the output
    /// predictions.
    pub fn assemble_qp(&self, input: &MpcInput<'_>) -> Option<(StructuredQp, Vec<f64>, Vec<f64>)> {
        assemble_structured_qp(&self.params(), input)
    }

    /// Assembles the same QP with a dense Hessian — O(jobs²) memory; the
    /// test oracle for the structured path.
    pub fn assemble_dense_qp(
        &self,
        input: &MpcInput<'_>,
    ) -> Option<(BoxBudgetQp, Vec<f64>, Vec<f64>)> {
        assemble_dense_qp(&self.params(), input)
    }

    /// Solves one decision instance via the structured O(jobs) path.
    /// Returns `None` when there are no jobs.
    pub fn decide(&self, input: &MpcInput<'_>) -> Option<MpcDecision> {
        self.decide_warm(input, None)
    }

    /// Like [`MpcController::decide`], but seeded from a caller-provided
    /// warm start — typically the previous interval's
    /// [`MpcDecision::x`] shifted by one step. A hint of the wrong
    /// length (the job population changed shape) falls back to the
    /// assembled default (current caps held across the horizon); any
    /// hint is projected into the feasible set before the first
    /// iteration, so stale values cost iterations, never correctness.
    pub fn decide_warm(
        &self,
        input: &MpcInput<'_>,
        warm_hint: Option<&[f64]>,
    ) -> Option<MpcDecision> {
        let _span = self.recorder.span("perq_core_decide");
        let (qp, assembled_warm, _consts) = self.assemble_qp(input)?;
        let warm = match warm_hint {
            Some(hint) if hint.len() == assembled_warm.len() => hint,
            _ => &assembled_warm[..],
        };
        let mut scratch = self.scratch.lock().expect("controller scratch poisoned");
        let profiled = solve_profiled(
            &self.solver,
            &qp,
            Some(warm),
            self.profile,
            &mut scratch.state,
        )
        .expect("MPC QP is validated feasible");
        let sol = profiled.solution;
        if self.recorder.enabled() {
            self.recorder.counter_inc("perq_core_decides_total");
            self.recorder
                .gauge_set("perq_core_jobs", input.jobs.len() as f64);
            self.recorder
                .gauge_set("perq_core_horizon", self.settings.horizon as f64);
            self.recorder
                .observe("perq_core_qp_iterations", sol.iterations as f64);
            self.recorder
                .counter_add(self.profile.iterations_metric(), sol.iterations as u64);
            if self.profile.precision == perq_qp::Precision::Mixed {
                // Register the series even for clean decisions, so
                // "0 fallbacks" is an export, not an absence.
                self.recorder.counter_add(
                    "perq_qp_precision_fallbacks_total",
                    u64::from(profiled.fell_back),
                );
            }
        }
        Some(self.extract_decision(input, &sol))
    }

    /// Solves one decision instance via the dense reference path (kept as
    /// the oracle the structured path is validated against).
    pub fn decide_dense(&self, input: &MpcInput<'_>) -> Option<MpcDecision> {
        let (qp, warm, _consts) = self.assemble_dense_qp(input)?;
        let sol = self
            .solver
            .solve(&qp, Some(&warm))
            .expect("MPC QP is validated feasible");
        Some(self.extract_decision(input, &sol))
    }

    /// Extracts first-step caps and predicted outputs from a QP solution.
    fn extract_decision(&self, input: &MpcInput<'_>, sol: &perq_qp::QpSolution) -> MpcDecision {
        let nj = input.jobs.len();
        let m = self.settings.horizon;
        let mut caps = Vec::with_capacity(nj);
        let mut predicted = Vec::with_capacity(nj);
        for (i, job) in input.jobs.iter().enumerate() {
            let p1 = sol.x[i * m];
            caps.push(p1);
            let const_in = job.curve_value - job.gain * job.curve_slope * job.current_cap_frac
                + self.input_offset;
            let y1 = job.free_response[0]
                + const_in * self.feedthrough
                + job.bias
                + job.gain * job.curve_slope * self.feedthrough * p1;
            predicted.push(y1);
        }
        MpcDecision {
            caps_frac: caps,
            predicted_ips: predicted,
            x: sol.x.clone(),
            qp_iterations: sol.iterations,
            converged: sol.converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::train_node_model;

    fn model() -> NodeModel {
        train_node_model(3).0
    }

    /// Builds a steady-state job input: observer state at equilibrium for
    /// the given cap, targets as requested.
    fn job_at(
        ctrl: &MpcController,
        model: &NodeModel,
        size: usize,
        cap: f64,
        target: f64,
        gain: f64,
    ) -> MpcJobState {
        job_at_output(
            ctrl,
            model,
            size,
            cap,
            target,
            gain,
            gain * model.curve.eval(cap),
        )
    }

    #[test]
    fn free_response_into_overwrites_whatever_the_buffer_held() {
        let model = model();
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let mut obs = perq_sysid::KalmanObserver::new(model.ss.clone(), 0.05, 1e-3);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One buffer through longer, shorter and empty previous contents.
        let mut buf = vec![f64::NAN; 3 * ctrl.settings().horizon];
        for (cap, y) in [(0.4, 0.3), (0.9, 1.1), (0.6, 0.0)] {
            obs.seed_steady_state(model.curve.eval(cap), y);
            ctrl.free_response_into(&model, obs.state(), &mut buf);
            assert_eq!(bits(&buf), bits(&ctrl.free_response(&model, obs.state())));
            assert_eq!(buf.len(), ctrl.settings().horizon);
            buf.truncate(buf.len() / 2);
        }
        buf.clear();
        ctrl.free_response_into(&model, obs.state(), &mut buf);
        assert_eq!(bits(&buf), bits(&ctrl.free_response(&model, obs.state())));
    }

    /// Like [`job_at`] but with the job's current output level seeded
    /// explicitly.
    fn job_at_output(
        ctrl: &MpcController,
        model: &NodeModel,
        size: usize,
        cap: f64,
        target: f64,
        gain: f64,
        y_now: f64,
    ) -> MpcJobState {
        // Equilibrium state: x = (I−A)⁻¹ B (u + u0) with u = φ(cap); the
        // free response of that state decays from the current output.
        let mut obs = perq_sysid::KalmanObserver::new(model.ss.clone(), 0.05, 1e-3);
        let u = model.curve.eval(cap);
        obs.seed_steady_state(u, y_now);
        MpcJobState {
            size,
            target,
            current_cap_frac: cap,
            gain,
            free_response: ctrl.free_response(model, obs.state()),
            curve_value: model.curve.eval(cap),
            curve_slope: model.curve.secant_slope(cap, 0.10),
            bias: 0.0,
            charged: true,
        }
    }

    /// Settings that track only the job-level targets (no system pull).
    fn job_only_settings() -> MpcSettings {
        MpcSettings {
            wt_sys: 0.0,
            ..MpcSettings::default()
        }
    }

    #[test]
    fn past_decide_deadline_still_yields_feasible_caps() {
        let m = model();
        let mut ctrl = MpcController::new(&m, job_only_settings());
        let job = job_at(&ctrl, &m, 10, 0.5, 0.95, 1.0);
        let input = MpcInput {
            jobs: std::slice::from_ref(&job),
            system_target: 0.0,
            budget_nodes: 10.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        ctrl.set_decide_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_secs(1),
        ));
        let d = ctrl.decide(&input).unwrap();
        // Anytime mode: the decision is the projected warm start — a
        // feasible, sane cap vector — produced without iterating.
        assert_eq!(d.qp_iterations, 0);
        for &cap in &d.caps_frac {
            assert!((0.0..=1.0).contains(&cap), "infeasible cap {cap}");
        }
        // Disarming restores full convergence on the same controller.
        ctrl.set_decide_deadline(None);
        let d2 = ctrl.decide(&input).unwrap();
        assert!(d2.converged);
        assert!(d2.qp_iterations > 0);
    }

    #[test]
    fn raises_power_for_underperforming_job() {
        let m = model();
        let ctrl = MpcController::new(&m, job_only_settings());
        // One job below target with plenty of budget: cap must rise.
        let job = job_at(&ctrl, &m, 10, 0.5, 0.95, 1.0);
        let input = MpcInput {
            jobs: std::slice::from_ref(&job),
            system_target: 0.0,
            budget_nodes: 10.0, // up to TDP on all nodes
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        let d = ctrl.decide(&input).unwrap();
        assert!(
            d.caps_frac[0] > job.current_cap_frac + 0.02,
            "cap {} should exceed {}",
            d.caps_frac[0],
            job.current_cap_frac
        );
    }

    #[test]
    fn lowers_power_for_overperforming_job() {
        let m = model();
        let ctrl = MpcController::new(&m, job_only_settings());
        // Job at a high cap, producing well above its target: tracking
        // pushes the cap down.
        let mut job = job_at(&ctrl, &m, 10, 0.9, 0.6, 1.0);
        for f in job.free_response.iter_mut() {
            *f = 0.95;
        }
        let input = MpcInput {
            jobs: std::slice::from_ref(&job),
            system_target: 0.0,
            budget_nodes: 10.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        let d = ctrl.decide(&input).unwrap();
        assert!(
            d.caps_frac[0] < 0.85,
            "overperforming job should shed power, got {}",
            d.caps_frac[0]
        );
    }

    #[test]
    fn budget_constraint_binds_and_favors_sensitive_job() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        // Two equal-size jobs at the same current output, both below
        // target; budget allows an average cap of 0.6. The sensitive job
        // (g=1.5) gains more per watt, so it should receive more power
        // than the insensitive one (g=0.2).
        let sensitive = job_at_output(&ctrl, &m, 10, 0.6, 0.95, 1.5, 0.7);
        let insensitive = job_at_output(&ctrl, &m, 10, 0.6, 0.95, 0.2, 0.7);
        let jobs = vec![sensitive, insensitive];
        let input = MpcInput {
            jobs: &jobs,
            system_target: 2.0, // unreachable: push throughput
            budget_nodes: 12.0, // avg cap 0.6 over 20 nodes
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        let d = ctrl.decide(&input).unwrap();
        // Budget respected.
        let commit = 10.0 * d.caps_frac[0] + 10.0 * d.caps_frac[1];
        assert!(commit <= 12.0 + 1e-6, "commit {commit}");
        assert!(
            d.caps_frac[0] > d.caps_frac[1],
            "sensitive {} vs insensitive {}",
            d.caps_frac[0],
            d.caps_frac[1]
        );
    }

    #[test]
    fn caps_stay_in_admissible_window() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        let jobs: Vec<MpcJobState> = (0..8)
            .map(|i| job_at(&ctrl, &m, 4, 0.5, 1.2, 0.5 + 0.2 * i as f64))
            .collect();
        let input = MpcInput {
            jobs: &jobs,
            system_target: 5.0,
            budget_nodes: 18.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 16.0,
        };
        let d = ctrl.decide(&input).unwrap();
        for &cap in &d.caps_frac {
            assert!((90.0 / 290.0 - 1e-9..=1.0 + 1e-9).contains(&cap));
        }
        assert!(d.converged);
    }

    #[test]
    fn no_jobs_no_decision() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        let input = MpcInput {
            jobs: &[],
            system_target: 1.0,
            budget_nodes: 10.0,
            cap_min_frac: 0.31,
            wp_nodes: 10.0,
        };
        assert!(ctrl.decide(&input).is_none());
        assert!(ctrl.decide_dense(&input).is_none());
    }

    #[test]
    fn infeasible_budget_degrades_to_floor() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        let job = job_at(&ctrl, &m, 10, 0.5, 0.9, 1.0);
        let input = MpcInput {
            jobs: std::slice::from_ref(&job),
            system_target: 1.0,
            budget_nodes: 1.0, // below 10 nodes at the floor
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        let d = ctrl.decide(&input).unwrap();
        assert!((d.caps_frac[0] - 90.0 / 290.0).abs() < 1e-6);
    }

    #[test]
    fn higher_dp_weight_slows_cap_movement() {
        let m = model();
        let settle = |w_dp: f64| -> f64 {
            let ctrl = MpcController::new(
                &m,
                MpcSettings {
                    w_dp,
                    wt_sys: 0.0,
                    ..MpcSettings::default()
                },
            );
            let job = job_at(&ctrl, &m, 10, 0.4, 1.0, 1.0);
            let input = MpcInput {
                jobs: std::slice::from_ref(&job),
                system_target: 0.0,
                budget_nodes: 10.0,
                cap_min_frac: 90.0 / 290.0,
                wp_nodes: 10.0,
            };
            ctrl.decide(&input).unwrap().caps_frac[0]
        };
        let fast = settle(0.01);
        let slow = settle(5.0);
        assert!(
            fast - 0.4 > slow - 0.4,
            "w_dp=0.01 moved {fast}, w_dp=5 moved {slow}"
        );
        assert!(slow >= 0.4 - 1e-9);
    }

    #[test]
    fn structured_and_dense_paths_agree() {
        let m = model();
        // Tight solver tolerance so both paths land on the optimum rather
        // than on path-dependent approximations of it.
        let ctrl = MpcController::new(
            &m,
            MpcSettings {
                max_qp_iters: 200_000,
                qp_tol: 1e-12,
                ..MpcSettings::default()
            },
        );
        let jobs: Vec<MpcJobState> = (0..6)
            .map(|i| {
                job_at_output(
                    &ctrl,
                    &m,
                    3 + i,
                    0.45 + 0.05 * i as f64,
                    0.9,
                    0.4 + 0.25 * i as f64,
                    0.6 + 0.03 * i as f64,
                )
            })
            .collect();
        let input = MpcInput {
            jobs: &jobs,
            system_target: 1.5,
            budget_nodes: 18.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 30.0,
        };
        let structured = ctrl.decide(&input).unwrap();
        let dense = ctrl.decide_dense(&input).unwrap();
        for (s, d) in structured.caps_frac.iter().zip(dense.caps_frac.iter()) {
            assert!((s - d).abs() < 1e-9, "structured {s} vs dense {d}");
        }
    }

    #[test]
    fn structured_assembly_matches_dense_objective() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        let jobs: Vec<MpcJobState> = (0..5)
            .map(|i| {
                job_at(
                    &ctrl,
                    &m,
                    2 + i,
                    0.4 + 0.1 * i as f64,
                    1.0,
                    0.3 + 0.3 * i as f64,
                )
            })
            .collect();
        let input = MpcInput {
            jobs: &jobs,
            system_target: 1.2,
            budget_nodes: 12.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 20.0,
        };
        let (sqp, swarm, sconsts) = ctrl.assemble_qp(&input).unwrap();
        let (dqp, dwarm, dconsts) = ctrl.assemble_dense_qp(&input).unwrap();
        assert_eq!(swarm, dwarm);
        assert_eq!(sconsts, dconsts);
        use perq_qp::QpOperator;
        // Probe objective/gradient agreement at several points.
        let n = dqp.dim();
        for seed in 0..4u32 {
            let x: Vec<f64> = (0..n)
                .map(|i| 0.31 + 0.6 * (((i as f64 + 1.3) * (seed as f64 + 0.7)).sin() + 1.0) / 2.0)
                .collect();
            let fo = dqp.objective(&x);
            let fs = QpOperator::objective(&sqp, &x);
            assert!(
                (fo - fs).abs() <= 1e-9 * (1.0 + fo.abs()),
                "objective {fo} vs {fs}"
            );
            let mut gd = vec![0.0; n];
            let mut gs = vec![0.0; n];
            dqp.gradient_into(&x, &mut gd);
            sqp.gradient_into(&x, &mut gs);
            for (a, b) in gd.iter().zip(gs.iter()) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "grad {a} vs {b}");
            }
        }
        // The structured operator must not materialise anything close to
        // an nv×nv Hessian.
        let nv = input.jobs.len() * ctrl.settings().horizon;
        assert!(sqp.hessian_stored_floats() < nv * nv / 2);
    }

    #[test]
    fn warm_hint_reaches_the_same_optimum() {
        let m = model();
        let ctrl = MpcController::new(
            &m,
            MpcSettings {
                max_qp_iters: 200_000,
                qp_tol: 1e-12,
                ..MpcSettings::default()
            },
        );
        let jobs: Vec<MpcJobState> = (0..4)
            .map(|i| {
                job_at(
                    &ctrl,
                    &m,
                    5,
                    0.4 + 0.1 * i as f64,
                    0.9,
                    0.5 + 0.3 * i as f64,
                )
            })
            .collect();
        let input = MpcInput {
            jobs: &jobs,
            system_target: 1.2,
            budget_nodes: 12.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 20.0,
        };
        let horizon = ctrl.settings().horizon;
        let cold = ctrl.decide(&input).unwrap();
        assert_eq!(cold.x.len(), jobs.len() * horizon);

        // Shift-by-one feedback of the previous trajectory, plus a
        // deliberately out-of-range value: the solver projects the start,
        // so the optimum is unchanged.
        let mut shifted = Vec::with_capacity(cold.x.len());
        for traj in cold.x.chunks(horizon) {
            shifted.extend_from_slice(&traj[1..]);
            shifted.push(traj[horizon - 1]);
        }
        shifted[0] = 5.0;
        let warm = ctrl.decide_warm(&input, Some(&shifted)).unwrap();
        for (a, b) in cold.caps_frac.iter().zip(warm.caps_frac.iter()) {
            assert!((a - b).abs() < 1e-9, "cold {a} vs warm {b}");
        }

        // A wrong-length hint (population changed shape) must fall back
        // to the assembled default, not panic.
        let warm2 = ctrl.decide_warm(&input, Some(&shifted[..3])).unwrap();
        for (a, b) in cold.caps_frac.iter().zip(warm2.caps_frac.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn lipschitz_cache_warms_across_decisions() {
        let m = model();
        let ctrl = MpcController::new(&m, MpcSettings::default());
        let job = job_at(&ctrl, &m, 10, 0.5, 0.95, 1.0);
        let input = MpcInput {
            jobs: std::slice::from_ref(&job),
            system_target: 1.0,
            budget_nodes: 10.0,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 10.0,
        };
        let first = ctrl.decide(&input).unwrap();
        assert!(ctrl.scratch.lock().unwrap().state.f64_lmax().is_some());
        let second = ctrl.decide(&input).unwrap();
        for (a, b) in first.caps_frac.iter().zip(second.caps_frac.iter()) {
            assert!((a - b).abs() < 1e-7, "decisions drifted: {a} vs {b}");
        }
    }
}
