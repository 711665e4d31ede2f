use crate::model::{train_node_model, JobAdapter, NodeModel};
use crate::mpc::{MpcController, MpcDecision, MpcInput, MpcJobState, MpcSettings};
use crate::targets::TargetGenerator;
use perq_apps::{BASE_NODE_IPS, IDLE_WATTS};
use perq_sim::{JobView, PolicyContext, PowerAssignment, PowerPolicy};
use perq_telemetry::Recorder;
use std::collections::HashMap;

/// Configuration of the full PERQ policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct PerqConfig {
    /// MPC weights and horizon.
    pub mpc: MpcSettings,
    /// System-throughput improvement ratio `T_ratio` (§2.4.1; ≥ 4
    /// recommended — Fig. 10a).
    pub improvement_ratio: f64,
    /// Seed for the one-time node-model identification.
    pub training_seed: u64,
    /// Identification dither amplitude as a fraction of TDP. A small
    /// alternating perturbation is added to each job's cap so the
    /// per-job sensitivity estimator always sees cap variation — without
    /// it, a job whose cap has converged becomes unidentifiable and its
    /// sensitivity estimate goes stale. Set to 0 to disable.
    pub dither_frac: f64,
    /// Concurrent-job count above which the controller switches to
    /// grouped (hierarchical) decisions — the paper's §3 remedy for
    /// 10,000-job scaling. Set to `usize::MAX` to always solve exactly.
    pub group_threshold: usize,
    /// Maximum pseudo-job groups for grouped decisions.
    pub max_groups: usize,
    /// QP solver precision/layout profile. `f64_aos` (the default)
    /// reproduces the reference decide path bit for bit; `f64_soa` and
    /// `mixed_soa` trade bit-reproducibility (and, for `mixed_soa`,
    /// iterate precision) for decide latency (see
    /// [`perq_qp::SolverProfile`]).
    pub solver_profile: perq_qp::SolverProfile,
}

impl Default for PerqConfig {
    fn default() -> Self {
        PerqConfig {
            mpc: MpcSettings::default(),
            improvement_ratio: 4.0,
            training_seed: 0x5045_5251,
            dither_frac: 0.025,
            group_threshold: 150,
            max_groups: 64,
            solver_profile: perq_qp::SolverProfile::default(),
        }
    }
}

/// The complete PERQ power-allocation policy (Fig. 4): target generator +
/// MPC controller + per-job adaptation, wired into the simulator's
/// [`PowerPolicy`] interface.
///
/// PERQ never reads oracle fields (remaining runtimes) and never sees the
/// ground-truth application curves — it interacts with jobs exclusively
/// through applied caps and measured IPS.
pub struct PerqPolicy {
    model: NodeModel,
    controller: MpcController,
    target_gen: TargetGenerator,
    /// [`JobAdapter::observer_for`] the model, copied per arriving job.
    observer: perq_sysid::KalmanObserver,
    adapters: HashMap<u64, JobAdapter>,
    /// Last decision, overwritten in place by the next. Its `x` holds the
    /// optimized cap trajectory of every job it listed, in list order;
    /// each adapter remembers its job's position ([`JobAdapter::traj_at`]),
    /// so the trajectory, shifted one step, is the next decision's FISTA
    /// warm start — consecutive MPC instances differ by one interval of
    /// feedback, so this cuts solver iterations without changing what
    /// the solver converges to.
    decision: MpcDecision,
    /// Last decision's per-job MPC inputs, overwritten in place each
    /// decision so the per-job `free_response` buffers are reused; the
    /// exact path's warm start, each job's prediction at TDP and the
    /// target generator's FCFS order, kept likewise.
    job_states: Vec<MpcJobState>,
    warm: Vec<f64>,
    at_tdp: Vec<f64>,
    fcfs: Vec<usize>,
    /// The post-dither projection's working copy of the caps, kept
    /// likewise.
    projection: perq_qp::ProjectionScratch,
    dither_frac: f64,
    group_threshold: usize,
    max_groups: usize,
    step: u64,
    name: String,
    recorder: Recorder,
}

impl PerqPolicy {
    /// Creates the policy, identifying the node model from the NPB-like
    /// training suite (one-time cost, §2.4.4).
    pub fn new(config: PerqConfig) -> Self {
        let (model, _report) = train_node_model(config.training_seed);
        Self::with_model(model, config)
    }

    /// Creates the policy with a pre-identified node model (so sweeps
    /// don't re-train per run).
    pub fn with_model(model: NodeModel, config: PerqConfig) -> Self {
        let mut controller = MpcController::new(&model, config.mpc.clone());
        controller.set_solver_profile(config.solver_profile);
        PerqPolicy {
            observer: JobAdapter::observer_for(&model),
            model,
            controller,
            target_gen: TargetGenerator::new(config.improvement_ratio),
            adapters: HashMap::new(),
            decision: MpcDecision::default(),
            job_states: Vec::new(),
            warm: Vec::new(),
            at_tdp: Vec::new(),
            fcfs: Vec::new(),
            projection: perq_qp::ProjectionScratch::default(),
            dither_frac: config.dither_frac,
            group_threshold: config.group_threshold,
            max_groups: config.max_groups,
            step: 0,
            name: "PERQ".to_string(),
            recorder: Recorder::noop(),
        }
    }

    /// A throughput-only variant: orders-of-magnitude higher weight on
    /// the system target than on job fairness (§3 reports this gains up
    /// to ~5% throughput but pushes worst-case degradation toward 70%).
    pub fn throughput_focused(config: PerqConfig) -> Self {
        let mut cfg = config;
        cfg.mpc.wt_sys *= 1000.0;
        let mut p = Self::new(cfg);
        p.name = "PERQ-T".to_string();
        p
    }

    /// The identified node model in use.
    pub fn model(&self) -> &NodeModel {
        &self.model
    }

    /// Number of jobs currently tracked.
    pub fn tracked_jobs(&self) -> usize {
        self.adapters.len()
    }

    /// The adapter state for a tracked job (diagnostics).
    pub fn adapter(&self, job_id: u64) -> Option<&JobAdapter> {
        self.adapters.get(&job_id)
    }

    /// The MPC controller (diagnostics).
    pub fn controller(&self) -> &MpcController {
        &self.controller
    }

    /// All tracked adapters keyed by job id (diagnostics).
    pub fn adapters(&self) -> &HashMap<u64, JobAdapter> {
        &self.adapters
    }

    /// The target generator in use (diagnostics).
    pub fn target_generator(&self) -> &TargetGenerator {
        &self.target_gen
    }
}

impl PowerPolicy for PerqPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.controller.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    fn set_decide_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.controller.set_decide_deadline(deadline);
    }

    fn solver_profile_label(&self) -> &'static str {
        self.controller.solver_profile().label()
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        if ctx.jobs.is_empty() {
            return Vec::new();
        }
        let cap_max = ctx.cap_max_w;

        // Usage-based budget accounting (§2.4.1: the constraint is on
        // power *usage*): a job observed to draw comfortably below its
        // cap is "slack" — its estimated demand (plus a safety margin)
        // is charged as a constant and its cap headroom is free. Jobs
        // whose caps bind (or whose demand is still unknown) are
        // charged their full cap.
        const SLACK_MARGIN: f64 = 0.04; // cap must exceed demand by this
        const CHARGE_MARGIN: f64 = 0.02; // safety margin on charged demand
                                         // Global reserve against simultaneous phase-driven demand rises in
                                         // slack jobs: the demand estimates are decaying *peak* trackers,
                                         // so in aggregate only a first-visit phase peak can overshoot its
                                         // charge; 2% of the budget absorbs that transient.
        const RESERVE_FRAC: f64 = 0.02;

        let n = ctx.jobs.len();
        let m = self.controller.settings().horizon;
        // The grouped path solves in group space, where last interval's
        // per-job trajectories don't map onto the variables; it warm-starts
        // from held caps internally.
        let grouped = n > self.group_threshold;
        let curve = &self.model.curve;
        // Every job is predicted at the same two caps: `P_fair` for its
        // fairness target, TDP for the system target.
        let phi_fair = curve.eval(ctx.fair_cap_w() / cap_max);
        let phi_tdp = curve.eval(1.0);
        self.job_states.truncate(n);
        let mut slack_charge_nodes = 0.0;

        // What the decision takes from a job's adapter once its feedback
        // is in — targets, MPC state and (exact path) the warm start: last
        // interval's optimized trajectory advanced one step (the classic
        // MPC shift), the current cap held across the horizon for a job
        // the last decision did not list.
        let (controller, model) = (&self.controller, &self.model);
        let (job_states, at_tdp, warm) = (&mut self.job_states, &mut self.at_tdp, &mut self.warm);
        let prev_x = &self.decision.x;
        let slack_charge = &mut slack_charge_nodes;
        let mut derive = |i: usize, job: &JobView, cap_frac, phi, adapter: &JobAdapter| {
            if i == 0 {
                // A pass over the job list starts here.
                *slack_charge = 0.0;
                at_tdp.clear();
                warm.clear();
            }
            let demand = adapter.demand_frac();
            // A job is only treated as slack once it has been observed for
            // several intervals (roughly one application phase), so a
            // fresh job's yet-unseen phase peaks cannot blow the budget.
            let seasoned = adapter.updates() >= 6;
            let slack = seasoned && matches!(demand, Some(d) if d + SLACK_MARGIN < cap_frac);
            if slack {
                let d = demand.expect("slack implies known demand");
                *slack_charge += job.size as f64 * (d + CHARGE_MARGIN);
            }
            let mut free_response = job_states
                .get_mut(i)
                .map(|prev| std::mem::take(&mut prev.free_response))
                .unwrap_or_default();
            controller.free_response_into(model, adapter.state(), &mut free_response);
            let state = MpcJobState {
                size: job.size,
                target: adapter.predict_at(phi_fair),
                current_cap_frac: cap_frac,
                gain: adapter.gain(),
                free_response,
                curve_value: phi,
                curve_slope: model.curve.secant_slope(cap_frac, 0.10),
                bias: adapter.bias(),
                charged: !slack,
            };
            match job_states.get_mut(i) {
                Some(prev) => *prev = state,
                None => job_states.push(state),
            }
            at_tdp.push(adapter.predict_at(phi_tdp));
            if !grouped {
                let traj = adapter
                    .traj_at
                    .and_then(|at| prev_x.get(at * m..(at + 1) * m));
                match traj {
                    Some(traj) => {
                        warm.extend_from_slice(&traj[1..]);
                        warm.push(traj[m - 1]);
                    }
                    None => warm.extend(std::iter::repeat_n(cap_frac, m)),
                }
            }
        };

        // 1. Feedback: absorb last interval's measurements into the
        //    per-job adapters; create adapters for new arrivals. Each
        //    adapter listed is stamped with this decision's epoch, which
        //    counts the distinct live jobs as a by-product. One lookup
        //    and one φ(cap) per job serve feedback, targets and MPC state.
        let epoch = self.step + 1;
        let mut live = 0;
        let cap_frac_of = |job: &JobView| (job.current_cap_w / cap_max).clamp(0.0, 1.0);
        for (i, job) in ctx.jobs.iter().enumerate() {
            let cap_frac = cap_frac_of(job);
            let phi = curve.eval(cap_frac);
            let adapter = self.adapters.entry(job.id).or_insert_with(|| {
                JobAdapter::with_observer(self.observer.clone(), &self.model, cap_frac)
            });
            if adapter.last_seen != epoch {
                adapter.last_seen = epoch;
                live += 1;
                adapter.traj_at = adapter.listed_at;
            }
            adapter.listed_at = Some(i);
            if let Some(ips) = job.measured_ips {
                let ips_norm = ips / (job.size as f64 * BASE_NODE_IPS);
                adapter.update_at(phi, cap_frac, ips_norm);
            }
            if let Some(power) = job.measured_power_w {
                // Degradation guard: a corrupted sensor can report a
                // physically impossible per-node power (far above TDP, or
                // below the idle floor). Feeding it into the peak-tracking
                // demand estimator would mis-budget the job for several
                // intervals, so implausible readings are discarded — the
                // estimator simply coasts through the gap.
                let plausible = (0.5 * IDLE_WATTS..=cap_max * 1.1).contains(&power);
                if plausible {
                    adapter.observe_power(power / cap_max, cap_frac);
                } else {
                    self.recorder
                        .counter_inc("perq_core_implausible_power_total");
                }
            }
            derive(i, job, cap_frac, phi, adapter);
        }
        if live < n {
            // A job listed twice must be seen after both of its updates,
            // everywhere: derive again, from the settled adapters.
            for (i, job) in ctx.jobs.iter().enumerate() {
                let cap_frac = cap_frac_of(job);
                derive(
                    i,
                    job,
                    cap_frac,
                    curve.eval(cap_frac),
                    &self.adapters[&job.id],
                );
            }
        }
        // Forget jobs the context no longer lists. Every listed job has an
        // adapter by now, so a larger map means some job left without a
        // `job_departed` call; otherwise there is nothing to prune.
        if self.adapters.len() > live {
            self.adapters.retain(|_, a| a.last_seen == epoch);
        }

        // 2. Targets: each job's is in its state already; the system's is
        //    over the FCFS prefix, predicted at TDP.
        let at_tdp = &self.at_tdp;
        let system_target = self
            .target_gen
            .system_target(ctx, &mut self.fcfs, |i| at_tdp[i]);

        // 3. Decide, over the buffers of the previous decision.
        let job_states = &self.job_states;
        let budget_nodes = ctx.busy_budget_w * (1.0 - RESERVE_FRAC) / cap_max - slack_charge_nodes;
        let input = MpcInput {
            jobs: job_states,
            system_target,
            budget_nodes,
            cap_min_frac: ctx.cap_min_w / cap_max,
            wp_nodes: ctx.wp_nodes as f64,
        };
        if grouped {
            let decided =
                self.controller
                    .decide_grouped_into(&input, self.max_groups, &mut self.decision);
            assert!(decided, "non-empty job list always yields a decision");
        } else {
            let decision = self
                .controller
                .decide_warm(&input, Some(&self.warm))
                .expect("non-empty job list always yields a decision");
            // Copied over the kept buffers, not moved in: what outlives
            // this call would be freed next time by whichever thread
            // decides then (`HierSim` moves enclaves between threads), and
            // a block freed by a thread other than the one that allocated
            // it takes the allocator's slow path. Only these two are read.
            self.decision.x.clone_from(&decision.x);
            self.decision.caps_frac.clone_from(&decision.caps_frac);
        }
        debug_assert_eq!(self.decision.x.len(), n * m);
        let caps = &mut self.decision.caps_frac;

        // 4. Identification dither: alternate a small perturbation per
        //    job (the sign flips each interval and across jobs, so the
        //    net budget effect is near zero), then project the dithered
        //    caps of the *charged* jobs back onto the remaining budget.
        self.step += 1;
        if self.dither_frac > 0.0 {
            for (i, cap) in caps.iter_mut().enumerate() {
                let sign = if (i as u64 + self.step).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                *cap += sign * self.dither_frac;
            }
            let coeffs: Vec<f64> = job_states
                .iter()
                .map(|j| if j.charged { j.size as f64 } else { 0.0 })
                .collect();
            let min_commit: f64 = job_states
                .iter()
                .filter(|j| j.charged)
                .map(|j| j.size as f64 * ctx.cap_min_w / cap_max)
                .sum();
            let budget = perq_qp::Budget {
                coeffs,
                limit: budget_nodes.max(min_commit),
            };
            let lo = vec![ctx.cap_min_w / cap_max; caps.len()];
            let hi = vec![1.0; caps.len()];
            // One budget: the single-budget bisection of
            // `project_box_budget`, over a copy buffer that is kept.
            perq_qp::project_box_budgets_scratch(
                caps,
                &lo,
                &hi,
                std::slice::from_ref(&budget),
                &mut self.projection,
            );
        }

        // 5. Emit caps in watts with the fairness target published for
        //    tracing.
        caps.iter()
            .zip(ctx.jobs.iter())
            .zip(job_states.iter())
            .map(|((&frac, job), state)| PowerAssignment {
                cap_w: frac * cap_max,
                target_ips: Some(state.target * job.size as f64 * BASE_NODE_IPS),
            })
            .collect()
    }

    fn job_departed(&mut self, job_id: u64) {
        self.adapters.remove(&job_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perq_sim::{
        compare_fairness, Cluster, ClusterConfig, FairPolicy, SystemModel, TraceGenerator,
    };

    fn run_tardis(
        policy: &mut dyn PowerPolicy,
        f: f64,
        hours: f64,
        seed: u64,
    ) -> perq_sim::SimResult {
        let system = SystemModel::tardis();
        let jobs = TraceGenerator::new(system.clone(), seed).generate(500);
        let mut config = ClusterConfig::for_system(&system, f, hours * 3600.0);
        config.ips_noise_rel = 0.01;
        let mut cluster = Cluster::new(config, jobs, seed);
        cluster.run(policy)
    }

    #[test]
    fn perq_beats_fop_throughput_when_overprovisioned() {
        let seed = 42;
        let fop = run_tardis(&mut FairPolicy::new(), 2.0, 3.0, seed);
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let perq_res = run_tardis(&mut perq, 2.0, 3.0, seed);
        assert!(
            perq_res.throughput() >= fop.throughput(),
            "PERQ {} < FOP {}",
            perq_res.throughput(),
            fop.throughput()
        );
    }

    #[test]
    fn perq_respects_budget() {
        // The budget bounds consumed power. PERQ's usage accounting uses
        // peak-tracking demand estimates plus a reserve, so sustained
        // violations are impossible; on a tiny cluster a single job's
        // first-visit phase peak can still produce an isolated transient
        // (no averaging across jobs), which must stay rare and shallow.
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let res = run_tardis(&mut perq, 1.6, 2.0, 7);
        let intervals = res.intervals.len() as f64;
        assert!(
            (res.budget_violations as f64) <= 0.01 * intervals,
            "violations {} / {} intervals",
            res.budget_violations,
            intervals
        );
        // And any transient is small: consumed power never exceeds the
        // budget by more than the largest single job's phase swing.
        let budget = 8.0 * 290.0;
        for log in &res.intervals {
            assert!(
                log.total_power_w <= budget * 1.05,
                "overshoot {} W at t={}",
                log.total_power_w,
                log.t_s
            );
        }
    }

    #[test]
    fn perq_remains_fair_relative_to_fop() {
        let seed = 11;
        let fop = run_tardis(&mut FairPolicy::new(), 2.0, 3.0, seed);
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let perq_res = run_tardis(&mut perq, 2.0, 3.0, seed);
        let report = compare_fairness(&perq_res, &fop);
        assert!(
            report.mean_degradation_pct < 15.0,
            "mean degradation {}%",
            report.mean_degradation_pct
        );
    }

    #[test]
    fn warm_started_policy_replays_bit_for_bit() {
        // The warm-start feedback loop (prev_traj → decide_warm) must not
        // introduce any nondeterminism: same seed, same simulation.
        let run = || {
            let mut p = PerqPolicy::new(PerqConfig::default());
            run_tardis(&mut p, 1.6, 1.0, 9)
        };
        assert!(run().same_simulation(&run()));
    }

    #[test]
    fn adapters_follow_job_population() {
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let _ = run_tardis(&mut perq, 1.5, 1.0, 3);
        // After the run every adapter belongs to a job that was still
        // running at the window close (departures pruned).
        assert!(perq.tracked_jobs() <= 16);
    }

    /// Job lists that drop, permute, re-add and even repeat ids, and ids
    /// that depart and come straight back (`bounced`, told to both). The
    /// `untold` policy otherwise only ever sees the lists; its twin is
    /// told of every departure first, as the simulators do. Both must
    /// track exactly the ids of the last list, decide bit-identically, and
    /// warm-start every exact decision from what a map from job id to the
    /// last decision's trajectory would have held. Returns, per step,
    /// whether the decision was grouped.
    fn run_departure_script(config: PerqConfig) -> Vec<bool> {
        use std::collections::{BTreeMap, BTreeSet};
        let script: [(&[u64], &[u64]); 11] = [
            (&[1, 2, 3, 4, 5], &[]),
            (&[1, 2, 3, 4, 5], &[]),
            (&[5, 3, 1], &[]),
            (&[5, 3, 1, 2], &[3]),
            (&[2, 1], &[]),
            (&[2, 1], &[2]),
            (&[6, 7, 1], &[]),
            (&[1, 1, 7], &[]),
            (&[1, 1, 7], &[]),
            (&[7, 8, 9, 10], &[]),
            (&[3], &[]),
        ];
        let (model, _) = train_node_model(config.training_seed);
        let mut untold = PerqPolicy::with_model(model.clone(), config.clone());
        let mut told = PerqPolicy::with_model(model, config.clone());
        let m = config.mpc.horizon;
        let cap_max = 290.0;
        let mut caps: BTreeMap<u64, f64> = BTreeMap::new();
        let mut last: BTreeSet<u64> = BTreeSet::new();
        // Job id -> its trajectory in the last decision (last listing wins).
        let mut by_id: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut grouped_steps = Vec::new();
        for (step, (ids, bounced)) in script.iter().enumerate() {
            let live: BTreeSet<u64> = ids.iter().copied().collect();
            for gone in last.difference(&live) {
                told.job_departed(*gone);
                caps.remove(gone);
            }
            for id in *bounced {
                told.job_departed(*id);
                untold.job_departed(*id);
                by_id.remove(id);
            }
            let jobs: Vec<JobView> = ids
                .iter()
                .map(|&id| {
                    let cap = *caps.get(&id).unwrap_or(&cap_max);
                    JobView {
                        id,
                        size: 2,
                        elapsed_s: step as f64 * 10.0,
                        measured_ips: Some(2.0 * (1.0e9 + 1.0e8 * id as f64) * cap / cap_max),
                        current_cap_w: cap,
                        measured_power_w: Some((60.0 + 15.0 * id as f64).min(cap)),
                        remaining_node_hours: 5.0,
                        is_new: !last.contains(&id) || bounced.contains(&id),
                    }
                })
                .collect();
            let ctx = perq_sim::PolicyContext {
                time_s: step as f64 * 10.0,
                interval_s: 10.0,
                busy_budget_w: 0.6 * cap_max * 2.0 * jobs.len() as f64,
                cap_min_w: 90.0,
                cap_max_w: cap_max,
                total_nodes: 2 * jobs.len(),
                wp_nodes: jobs.len(),
                queue_depth: 0,
                violation_s: 0.0,
                jobs: &jobs,
            };
            let grouped = jobs.len() > config.group_threshold;
            grouped_steps.push(grouped);
            let mut expected_warm: Vec<u64> = Vec::new();
            for job in jobs.iter().filter(|_| !grouped) {
                match by_id.get(&job.id) {
                    Some(traj) => {
                        expected_warm.extend(traj[1..].iter().map(|v| v.to_bits()));
                        expected_warm.push(traj[m - 1].to_bits());
                    }
                    None => {
                        let held = (job.current_cap_w / cap_max).clamp(0.0, 1.0);
                        expected_warm.extend(std::iter::repeat_n(held.to_bits(), m));
                    }
                }
            }
            let a = untold.assign(&ctx);
            let b = told.assign(&ctx);
            assert_eq!(a.len(), jobs.len());
            for ((x, y), job) in a.iter().zip(&b).zip(&jobs) {
                assert_eq!(x.cap_w.to_bits(), y.cap_w.to_bits(), "step {step}");
                caps.insert(job.id, x.cap_w);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for policy in [&untold, &told] {
                assert_eq!(policy.tracked_jobs(), live.len(), "step {step}");
                let tracked: BTreeSet<u64> = policy.adapters().keys().copied().collect();
                assert_eq!(tracked, live, "step {step}");
                assert_eq!(bits(&policy.warm), expected_warm, "step {step}: warm start");
                assert_eq!(policy.decision.x.len(), jobs.len() * m, "step {step}");
                for id in &live {
                    let listed_last = ids.iter().rposition(|other| other == id);
                    assert_eq!(policy.adapter(*id).unwrap().listed_at, listed_last);
                }
                for gone in last.difference(&live) {
                    assert!(policy.adapter(*gone).is_none());
                }
            }
            assert_eq!(bits(&untold.decision.x), bits(&told.decision.x));
            by_id.clear();
            for (id, traj) in ids.iter().zip(untold.decision.x.chunks_exact(m)) {
                by_id.insert(*id, traj.to_vec());
            }
            for id in &live {
                let (x, y) = (untold.adapter(*id).unwrap(), told.adapter(*id).unwrap());
                assert_eq!(x.updates(), y.updates(), "step {step} job {id}");
                assert_eq!(x.gain().to_bits(), y.gain().to_bits());
                assert_eq!(x.bias().to_bits(), y.bias().to_bits());
                assert_eq!(x.demand_frac(), y.demand_frac());
            }
            last = live;
        }
        grouped_steps
    }

    #[test]
    fn untold_departures_are_pruned_exactly_like_told_ones() {
        let grouped = run_departure_script(PerqConfig::default());
        assert!(grouped.iter().all(|g| !g), "every decision exact");
    }

    #[test]
    fn an_exact_decision_after_a_grouped_one_warm_starts_from_its_trajectories() {
        // Over three jobs the decision is grouped (two pseudo-jobs), else
        // exact: the script crosses over in both directions, and every
        // exact decision must start from the expanded group trajectories
        // exactly as if they had been filed per job id.
        let grouped = run_departure_script(PerqConfig {
            group_threshold: 3,
            max_groups: 2,
            ..PerqConfig::default()
        });
        assert!(grouped.windows(2).any(|w| w == [true, false]));
        assert!(grouped.windows(2).any(|w| w == [false, true]));
    }

    #[test]
    fn an_arriving_job_starts_from_the_adapter_job_adapter_new_builds() {
        // The policy copies one observer per arrival instead of solving
        // for its gain again; with nothing measured yet, the tracked
        // adapter must be `JobAdapter::new`'s, bit for bit.
        use perq_sim::JobView;
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let jobs = [JobView {
            id: 7,
            size: 2,
            elapsed_s: 0.0,
            measured_ips: None,
            current_cap_w: 200.0,
            measured_power_w: None,
            remaining_node_hours: 5.0,
            is_new: true,
        }];
        let ctx = perq_sim::PolicyContext {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: 400.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 2,
            wp_nodes: 1,
            queue_depth: 0,
            violation_s: 0.0,
            jobs: &jobs,
        };
        assert_eq!(perq.assign(&ctx).len(), 1);
        let fresh = JobAdapter::new(perq.model(), 200.0 / 290.0);
        let tracked = perq.adapter(7).expect("listed job is tracked");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tracked.state()), bits(fresh.state()));
        assert_eq!(tracked.gain().to_bits(), fresh.gain().to_bits());
        assert_eq!(tracked.bias().to_bits(), fresh.bias().to_bits());
        assert_eq!(tracked.level().to_bits(), fresh.level().to_bits());
        assert_eq!(tracked.updates(), 0);
        assert_eq!(tracked.demand_frac(), None);
    }

    #[test]
    fn usage_accounting_overcommits_caps_but_not_consumption() {
        // Two jobs on a 16-node machine with an 8-node budget: one draws
        // far below any cap (slack after seasoning), one draws at its
        // cap. After the adapters season, the sum of CAPS may exceed the
        // busy budget (that is the reclaimed headroom), while the sum of
        // charged power stays within it.
        use perq_sim::JobView;
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let cap_max = 290.0;
        let mut caps = [145.0_f64, 145.0];
        for step in 0..12 {
            let jobs = vec![
                JobView {
                    id: 0,
                    size: 8,
                    elapsed_s: step as f64 * 10.0,
                    measured_ips: Some(8.0 * 1.9e9),
                    current_cap_w: caps[0],
                    measured_power_w: Some(80.0), // low draw: slack
                    remaining_node_hours: 5.0,
                    is_new: step == 0,
                },
                JobView {
                    id: 1,
                    size: 8,
                    elapsed_s: step as f64 * 10.0,
                    measured_ips: Some(8.0 * 1.2e9),
                    current_cap_w: caps[1],
                    measured_power_w: Some(caps[1]), // pinned at cap
                    remaining_node_hours: 5.0,
                    is_new: step == 0,
                },
            ];
            let ctx = perq_sim::PolicyContext {
                time_s: step as f64 * 10.0,
                interval_s: 10.0,
                busy_budget_w: 8.0 * cap_max, // 8-node budget, 16 busy nodes
                cap_min_w: 90.0,
                cap_max_w: cap_max,
                total_nodes: 16,
                wp_nodes: 8,
                queue_depth: 0,
                violation_s: 0.0,
                jobs: &jobs,
            };
            let out = perq.assign(&ctx);
            caps = [out[0].cap_w, out[1].cap_w];
        }
        // The slack job's demand (80 W + margins) is charged, not its cap,
        // so the pinned job can hold far more than half the budget.
        let total_caps = 8.0 * caps[0] + 8.0 * caps[1];
        let charged = 8.0 * (80.0 + 0.02 * cap_max) + 8.0 * caps[1];
        assert!(
            charged <= 8.0 * cap_max * 1.01,
            "charged {charged} exceeds budget"
        );
        // Remaining budget for the pinned job after charging the slack
        // job's demand: (0.98·2320 − 8·(80+5.8)) / 8 ≈ 198 W per node.
        assert!(
            caps[1] > 180.0,
            "pinned job should receive most of the remaining budget, got {}",
            caps[1]
        );
        assert!(
            total_caps > 8.0 * cap_max,
            "caps should over-commit the budget (reclaimed headroom), got {total_caps}"
        );
    }

    #[test]
    fn implausible_power_readings_do_not_move_the_demand_estimate() {
        // Degradation guard: a corrupted sensor (e.g. a telemetry fault
        // injected by the simulator) can report power far above TDP or
        // below the idle floor. Such readings must be discarded before
        // they reach the peak-tracking demand estimator, so the estimate
        // is bit-identical to a run where the reading never arrived.
        use perq_sim::JobView;
        let cap_max = 290.0;
        let step_once = |perq: &mut PerqPolicy, step: usize, cap: f64, power: Option<f64>| {
            let jobs = vec![JobView {
                id: 0,
                size: 4,
                elapsed_s: step as f64 * 10.0,
                measured_ips: Some(4.0 * 1.5e9),
                current_cap_w: cap,
                measured_power_w: power,
                remaining_node_hours: 5.0,
                is_new: step == 0,
            }];
            let ctx = perq_sim::PolicyContext {
                time_s: step as f64 * 10.0,
                interval_s: 10.0,
                busy_budget_w: 4.0 * cap_max,
                cap_min_w: 90.0,
                cap_max_w: cap_max,
                total_nodes: 4,
                wp_nodes: 4,
                queue_depth: 0,
                violation_s: 0.0,
                jobs: &jobs,
            };
            perq.assign(&ctx)[0].cap_w
        };

        let mut perq = PerqPolicy::new(PerqConfig::default());
        let mut cap = 145.0;
        for step in 0..8 {
            cap = step_once(&mut perq, step, cap, Some(150.0));
        }
        let seasoned = perq.adapter(0).expect("tracked").demand_frac();
        assert!(seasoned.is_some(), "sane readings must season the tracker");

        // Garbage: 10x TDP, then a reading below half the idle floor.
        cap = step_once(&mut perq, 8, cap, Some(10.0 * cap_max));
        cap = step_once(&mut perq, 9, cap, Some(0.2 * IDLE_WATTS));
        assert_eq!(
            perq.adapter(0).expect("tracked").demand_frac(),
            seasoned,
            "implausible readings must leave the demand estimate untouched"
        );

        // A plausible high reading still gets through the gate.
        let _ = step_once(&mut perq, 10, cap, Some(280.0));
        let after = perq.adapter(0).expect("tracked").demand_frac();
        assert!(
            after > seasoned,
            "plausible readings must still update the estimate: {after:?} vs {seasoned:?}"
        );
    }

    #[test]
    fn at_f1_perq_is_equivalent_to_tdp_operation() {
        // With no over-provisioning the fair cap is TDP and the budget
        // allows TDP everywhere: PERQ should keep caps near TDP and not
        // slow jobs down.
        let mut perq = PerqPolicy::new(PerqConfig::default());
        let res = run_tardis(&mut perq, 1.0, 2.0, 5);
        for rec in res.completed() {
            assert!(
                rec.slowdown() < 1.25,
                "job {} slowed {}x at f=1",
                rec.spec.id,
                rec.slowdown()
            );
        }
    }
}
