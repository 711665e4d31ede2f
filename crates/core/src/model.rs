use perq_apps::{npb_training_suite, AppProfile, MIN_CAP_WATTS, TDP_WATTS};
use perq_sysid::{
    excite, fit_arx_segments, fit_monotone_curve, fit_percent, KalmanObserver, MonotoneCurve, Rls,
    StateSpaceModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// The identified node model: what the controller believes about the
/// power-cap → IPS relationship of a node (§2.4.2).
///
/// Structure is Hammerstein: a static monotone curve `φ(cap)` capturing
/// the saturating steady-state relationship, followed by 3rd-order linear
/// dynamics identified on `u = φ(cap)`. Everything is in normalized
/// units: caps as fractions of TDP, IPS as fractions of the base node
/// rate, so the model transfers across node counts.
#[derive(Debug, Clone)]
pub struct NodeModel {
    /// Static power→performance curve (cap fraction → normalized IPS).
    pub curve: MonotoneCurve,
    /// Linear dynamics on the curve-transformed input.
    pub ss: StateSpaceModel,
    /// Control decision interval the model was sampled at, seconds.
    pub interval_s: f64,
}

/// Diagnostics of the identification run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// MATLAB-style NRMSE fit of the dynamic model on held-out data, %.
    pub dynamic_fit_pct: f64,
    /// Number of training samples used.
    pub samples: usize,
    /// Benchmarks in the training suite.
    pub benchmarks: usize,
}

impl NodeModel {
    /// Predicted steady-state normalized IPS at a cap fraction.
    pub fn steady_state(&self, cap_frac: f64) -> f64 {
        self.curve.eval(cap_frac)
    }
}

/// Identifies the node model from the NPB-like training suite (§2.4.2).
///
/// Reproduces the paper's protocol: each training benchmark is run under
/// power caps "switching … frequently using a uniform distribution", the
/// static curve is fitted to the (cap, IPS) cloud, and a 3rd-order model
/// is identified on the curve-transformed input with rows pooled across
/// benchmarks. The evaluation applications are never touched.
pub fn train_node_model(seed: u64) -> (NodeModel, TrainingReport) {
    train_node_model_with(npb_training_suite(), 10.0, 600, seed)
}

/// Identification with explicit suite, interval, and record length —
/// exposed for ablation experiments (e.g. "what if the model were trained
/// on the evaluation apps?").
pub fn train_node_model_with(
    suite: Vec<AppProfile>,
    interval_s: f64,
    steps_per_app: usize,
    seed: u64,
) -> (NodeModel, TrainingReport) {
    assert!(!suite.is_empty(), "training suite is empty");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e50_425f_7472);
    let noise = Normal::new(0.0, 0.01).expect("valid sigma");
    let min_frac = MIN_CAP_WATTS / TDP_WATTS;

    // 1. Generate switching-cap records per benchmark.
    let mut caps_all: Vec<f64> = Vec::new();
    let mut ips_all: Vec<f64> = Vec::new();
    let mut records: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for app in &suite {
        let caps = excite::uniform_switching(&mut rng, steps_per_app, min_frac, 1.0, 6);
        let mut ips = Vec::with_capacity(steps_per_app);
        for (k, &cap) in caps.iter().enumerate() {
            let t = k as f64 * interval_s;
            let perf = app.perf_frac(cap, t);
            ips.push((perf * (1.0 + noise.sample(&mut rng))).max(0.0));
        }
        caps_all.extend_from_slice(&caps);
        ips_all.extend_from_slice(&ips);
        records.push((caps, ips));
    }

    // 2. Static Hammerstein curve over the pooled cloud.
    let curve = fit_monotone_curve(&caps_all, &ips_all, 21).expect("training data is well-formed");

    // 3. Dynamics on the curve-transformed input, pooled across
    //    benchmarks with an 80/20 train/validation split per record.
    //    Orders follow §2.4.2: the model "uses the previous three
    //    power-caps (P(k−3), P(k−2) and P(k−1)) and outputs IPS at the
    //    current instance … based on the current power-cap P(k)" — i.e.
    //    na = 3 autoregressive lags, nb = 4 input taps including the
    //    direct (same-interval) term.
    let transformed: Vec<(Vec<f64>, Vec<f64>)> = records
        .iter()
        .map(|(caps, ips)| {
            let u: Vec<f64> = caps.iter().map(|&c| curve.eval(c)).collect();
            (u, ips.clone())
        })
        .collect();
    let split = |v: &[f64]| -> usize { v.len() * 4 / 5 };
    let train_segments: Vec<(&[f64], &[f64])> = transformed
        .iter()
        .map(|(u, y)| (&u[..split(u)], &y[..split(y)]))
        .collect();
    let arx = fit_arx_segments(&train_segments, 3, 4).expect("training regression solvable");
    let ss = arx.to_state_space();

    // 4. Validation: one-step-ahead prediction fit on the held-out tails
    //    (the quantity the observer-corrected controller actually relies
    //    on each interval).
    let mut predicted = Vec::new();
    let mut reference = Vec::new();
    for (u, y) in &transformed {
        let s = split(u);
        for k in (s + 4)..y.len() {
            predicted.push(arx.predict_one(&y[..k], &u[..=k]));
            reference.push(y[k]);
        }
    }
    let fit = fit_percent(&predicted, &reference);

    (
        NodeModel {
            curve,
            ss,
            interval_s,
        },
        TrainingReport {
            dynamic_fit_pct: fit,
            samples: caps_all.len(),
            benchmarks: suite.len(),
        },
    )
}

/// Per-job online adaptation layer (§2.4.2: "the internal state X(k) of
/// the node gets updated every decision instance based on the active
/// input-output relationship of the currently running job").
///
/// Combines a Kalman observer on the shared node model (state tracking /
/// transient prediction) with an RLS-estimated affine correction
/// `y_job ≈ g·φ(cap) + b` (steady-state gain/offset of *this* job relative
/// to the average training behaviour). `g` is the job's power sensitivity
/// relative to the model: a job whose IPS barely moves when its cap moves
/// settles at a small `g`.
#[derive(Debug, Clone)]
pub struct JobAdapter {
    observer: KalmanObserver,
    /// First-difference slope estimator: regresses `Δy` on `Δφ(cap)`.
    /// Differencing removes the job's constant offset and slow phase
    /// drift, isolating the *causal* same-interval response to cap
    /// changes — level-based regression in closed loop would conflate the
    /// controller's reactions to phase changes with power sensitivity.
    slope: Rls,
    /// Low-passed post-correction prediction residual — the constant
    /// output disturbance the observer state cannot express (the node
    /// model is feedthrough-dominated, so its state has little authority
    /// over the output level). Added to the MPC prediction constants,
    /// this is the standard offset-free MPC bias correction.
    bias: f64,
    /// Low-passed measured output level (for steady-state extrapolation).
    y_smooth: f64,
    /// Decaying-peak estimate of the job's per-node power demand
    /// (fraction of TDP). `None` until the first power reading. When the
    /// cap is not binding this tracks the observed draw; when the cap is
    /// binding, the true demand is only known to be above the cap.
    demand_frac: Option<f64>,
    /// Previous `(φ(cap), y)` sample for differencing.
    prev: Option<(f64, f64)>,
    /// Last cap fraction applied to this job, and the curve's value there.
    last_cap_frac: f64,
    last_phi: f64,
    updates: usize,
    /// Decision epoch in which the owning policy last listed this job —
    /// departure bookkeeping, not part of the estimate.
    pub(crate) last_seen: u64,
    /// The job's position in the job list of the decision before this
    /// epoch's (where its optimized trajectory lies in that decision's
    /// `x`) and in the latest list; `None` for a job not listed then.
    pub(crate) traj_at: Option<usize>,
    pub(crate) listed_at: Option<usize>,
}

/// Minimum `|Δφ|` that carries slope information; below this the sample
/// is noise-dominated and skipped.
const MIN_DPHI: f64 = 0.01;

/// Bounds for the adapted gain — a safety rail against noise-driven
/// excursions (a negative gain would tell the MPC that more power slows
/// the job down).
const GAIN_RANGE: (f64, f64) = (0.02, 5.0);

impl JobAdapter {
    /// Creates an adapter for a newly started job. `initial_cap_frac` is
    /// the cap the job starts under; the observer is seeded at the model's
    /// steady state for that cap so the first predictions are sane.
    pub fn new(model: &NodeModel, initial_cap_frac: f64) -> Self {
        Self::with_observer(Self::observer_for(model), model, initial_cap_frac)
    }

    /// The unseeded observer every adapter on `model` starts from. Its
    /// steady-state Kalman gain is a Riccati iteration over the model
    /// alone — some 15 µs and 500 allocations, five two-job decisions'
    /// worth — so a policy builds it once and hands each arriving job a
    /// copy through [`Self::with_observer`].
    pub(crate) fn observer_for(model: &NodeModel) -> KalmanObserver {
        KalmanObserver::new(model.ss.clone(), 0.05, 1e-3)
    }

    /// [`Self::new`] from a copy of [`Self::observer_for`]`(model)`.
    pub(crate) fn with_observer(
        mut observer: KalmanObserver,
        model: &NodeModel,
        initial_cap_frac: f64,
    ) -> Self {
        let u0 = model.curve.eval(initial_cap_frac);
        observer.seed_steady_state(u0, model.curve.eval(initial_cap_frac));
        // Prior: the job responds like the average training benchmark
        // (relative slope 1), held with moderate confidence; the start-up
        // transient — caps sweep from TDP down to the operating point —
        // carries enough Δφ excitation to re-estimate the slope quickly.
        let slope = Rls::with_initial(vec![1.0], 0.998, 50.0);
        JobAdapter {
            observer,
            slope,
            bias: 0.0,
            y_smooth: model.curve.eval(initial_cap_frac),
            demand_frac: None,
            prev: None,
            last_cap_frac: initial_cap_frac,
            last_phi: u0,
            updates: 0,
            last_seen: 0,
            traj_at: None,
            listed_at: None,
        }
    }

    /// Number of feedback updates absorbed so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// The adapted sensitivity gain `g = Δy/Δφ` relative to the node
    /// model's static curve.
    pub fn gain(&self) -> f64 {
        self.slope.theta()[0].clamp(GAIN_RANGE.0, GAIN_RANGE.1)
    }

    /// Low-passed measured output level.
    pub fn level(&self) -> f64 {
        self.y_smooth
    }

    /// Current observer state estimate (for MPC free-response prediction).
    pub fn state(&self) -> &[f64] {
        self.observer.state()
    }

    /// Absorbs one interval of feedback: the cap that was applied and the
    /// measured normalized per-node IPS.
    pub fn update(&mut self, model: &NodeModel, cap_frac: f64, ips_norm: f64) {
        self.update_at(model.curve.eval(cap_frac), cap_frac, ips_norm);
    }

    /// [`Self::update`] for a caller that already holds `u = φ(cap_frac)`.
    pub(crate) fn update_at(&mut self, u: f64, cap_frac: f64, ips_norm: f64) {
        self.observer.update(u, ips_norm);
        // Slope from first differences, only when the cap actually moved.
        if let Some((prev_u, prev_y)) = self.prev {
            let dphi = u - prev_u;
            let dy = ips_norm - prev_y;
            // Reject phase-transition jumps: an output change far larger
            // than any physical power response (|Δy| > 5|Δφ|) is a phase
            // boundary, not slope information.
            if dphi.abs() > MIN_DPHI && dy.abs() <= 5.0 * dphi.abs() {
                self.slope.update(&[dphi], dy);
            }
        }
        self.prev = Some((u, ips_norm));
        self.y_smooth += if self.updates == 0 {
            ips_norm - self.y_smooth
        } else {
            0.4 * (ips_norm - self.y_smooth)
        };
        // Residual after the state correction: the part of the output the
        // state has no authority over. Low-pass filtered so measurement
        // noise does not whip the MPC constants around.
        let residual = ips_norm - self.observer.predicted_output(u);
        self.bias += 0.4 * (residual - self.bias);
        self.last_cap_frac = cap_frac;
        self.last_phi = u;
        self.updates += 1;
    }

    /// The output-bias correction to add to model predictions for this
    /// job (offset-free MPC disturbance estimate).
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Absorbs one RAPL power reading: per-node consumption and the cap
    /// that was in force, both as fractions of TDP.
    ///
    /// When the job draws visibly less than its cap, the demand is
    /// directly observed (decaying-peak tracked so phase peaks are
    /// retained but stale peaks fade); when the draw is pinned at the
    /// cap, the demand is only known to exceed it, so the estimate is
    /// ratcheted slightly above the cap — raising the cap then reveals
    /// more, which is the gradual power transfer of Fig. 12.
    pub fn observe_power(&mut self, power_frac: f64, cap_frac: f64) {
        const CAP_BINDING_TOL: f64 = 0.015;
        let est = if power_frac < cap_frac - CAP_BINDING_TOL {
            match self.demand_frac {
                None => power_frac,
                Some(old) => (0.9 * old + 0.1 * power_frac).max(power_frac),
            }
        } else {
            let above = cap_frac + 0.03;
            match self.demand_frac {
                None => above,
                Some(old) => old.max(above),
            }
        };
        self.demand_frac = Some(est.clamp(0.0, 1.0));
    }

    /// Current per-node demand estimate (fraction of TDP), if any power
    /// reading has been absorbed.
    pub fn demand_frac(&self) -> Option<f64> {
        self.demand_frac
    }

    /// Steady-state normalized IPS prediction for this job at an arbitrary
    /// cap fraction — the quantity the target generator needs at TDP and
    /// at `P_fair`. Extrapolates from the job's smoothed level along its
    /// adapted slope: `ŷ(c) = y_level + g·(φ(c) − φ(c_now))`.
    pub fn predict_steady_state(&self, model: &NodeModel, cap_frac: f64) -> f64 {
        self.predict_at(model.curve.eval(cap_frac))
    }

    /// [`Self::predict_steady_state`] given `phi = φ(cap_frac)`, which is
    /// the same for every job a caller predicts at one cap.
    pub(crate) fn predict_at(&self, phi: f64) -> f64 {
        if self.updates == 0 {
            return phi;
        }
        (self.y_smooth + self.gain() * (phi - self.last_phi)).clamp(0.0, 1.5)
    }

    /// Local sensitivity `∂IPS/∂cap_frac` at a cap fraction, in normalized
    /// units — the successive-linearisation slope the MPC uses. A secant
    /// slope (±5% of TDP) bridges the locally flat blocks of the isotonic
    /// curve fit.
    pub fn sensitivity(&self, model: &NodeModel, cap_frac: f64) -> f64 {
        (self.gain() * model.curve.secant_slope(cap_frac, 0.10)).max(0.0)
    }

    /// Cap fraction applied at the last update.
    pub fn last_cap_frac(&self) -> f64 {
        self.last_cap_frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perq_apps::ecp_suite;

    fn model() -> NodeModel {
        train_node_model(7).0
    }

    #[test]
    fn training_produces_stable_accurate_model() {
        let (model, report) = train_node_model(42);
        assert!(model.ss.is_stable(), "identified model must be stable");
        assert!(
            report.dynamic_fit_pct > 60.0,
            "validation fit too poor: {:.1}%",
            report.dynamic_fit_pct
        );
        assert_eq!(report.benchmarks, 8);
    }

    #[test]
    fn curve_is_saturating_and_monotone() {
        let m = model();
        let lo = m.steady_state(90.0 / 290.0);
        let mid = m.steady_state(0.6);
        let hi = m.steady_state(1.0);
        assert!(lo < mid && mid <= hi + 1e-9);
        assert!(hi > 0.9, "near-TDP performance should be ~1, got {hi}");
        assert!(lo > 0.2, "even the floor keeps some throughput, got {lo}");
    }

    #[test]
    fn adapter_learns_low_sensitivity_job() {
        // Feed the adapter a ground-truth low-sensitivity app (ASPA) and
        // check the learned gain is below that of a high-sensitivity app
        // (SimpleMOC) — this is the signal PERQ exploits.
        let m = model();
        let suite = ecp_suite();
        let learn = |name: &str| -> f64 {
            let app = suite.iter().find(|a| a.name == name).unwrap();
            let mut adapter = JobAdapter::new(&m, 0.6);
            // Sweep caps so the RLS sees slope information.
            for k in 0..120 {
                let cap = 0.35 + 0.55 * ((k as f64 * 0.7).sin().abs());
                let ips = app.perf_frac(cap, k as f64 * 10.0);
                adapter.update(&m, cap, ips);
            }
            adapter.gain()
        };
        let g_low = learn("ASPA");
        let g_high = learn("SimpleMOC");
        assert!(
            g_low < g_high,
            "low-sensitivity gain {g_low} should be below high-sensitivity {g_high}"
        );
    }

    #[test]
    fn adapter_prediction_tracks_observations() {
        let m = model();
        let suite = ecp_suite();
        let app = &suite[2]; // CoMD, medium
        let mut adapter = JobAdapter::new(&m, 0.5);
        for k in 0..100 {
            let cap = 0.4 + 0.3 * ((k as f64 * 0.9).cos().abs());
            adapter.update(&m, cap, app.perf_frac(cap, k as f64 * 10.0));
        }
        // Steady-state prediction at a cap inside the explored range.
        let cap = 0.55;
        let predicted = adapter.predict_steady_state(&m, cap);
        let actual = app.perf_frac(cap, 1000.0);
        assert!(
            (predicted - actual).abs() < 0.12,
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn gain_clamped_against_noise() {
        let m = model();
        let mut adapter = JobAdapter::new(&m, 0.5);
        // Pathological feedback: constant output regardless of cap.
        for k in 0..200 {
            let cap = if k % 2 == 0 { 0.4 } else { 0.9 };
            adapter.update(&m, cap, 0.5);
        }
        let g = adapter.gain();
        assert!((GAIN_RANGE.0..=GAIN_RANGE.1).contains(&g));
        // A flat job should learn a (near-)zero sensitivity.
        assert!(g < 0.2, "flat job gain {g}");
        assert!(adapter.sensitivity(&m, 0.6) < 0.1);
    }

    #[test]
    fn sensitivity_never_negative() {
        let m = model();
        let mut adapter = JobAdapter::new(&m, 0.5);
        for k in 0..50 {
            // Adversarial: IPS anti-correlated with cap.
            let cap = if k % 2 == 0 { 0.4 } else { 0.9 };
            let ips = if k % 2 == 0 { 0.9 } else { 0.4 };
            adapter.update(&m, cap, ips);
        }
        assert!(adapter.sensitivity(&m, 0.6) >= 0.0);
    }

    #[test]
    fn training_is_reproducible() {
        let (a, _) = train_node_model(123);
        let (b, _) = train_node_model(123);
        assert_eq!(a.curve.values(), b.curve.values());
        assert_eq!(a.ss, b.ss);
    }
}
