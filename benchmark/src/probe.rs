//! The probe phase: public layer functions timed on state captured from
//! a traced run.
//!
//! A wrapper at a trait seam cannot see inside `PerqPolicy::assign`. But
//! the policy exposes its adapters, model, controller and target
//! generator, and the wrapper kept the last `PolicyContext`; from those
//! the probes rebuild the decision the policy was about to take and time
//! its stages one by one through the crates' public functions: adapter
//! update, target generation, grouping, MPC assembly, the QP solve, the
//! budget projection, and the frame codec.

use crate::metrics::{median, MetricSet};
use crate::trace::AssignStats;
use perq_apps::{BASE_NODE_IPS, TDP_WATTS};
use perq_core::{group_jobs, MpcInput, MpcJobState, PerqConfig, PerqPolicy};
use perq_proto::{Command, FrameDecoder, FrameEncoder, Report};
use perq_qp::{
    project_box_budget, solve_profiled, Budget, ProfiledQpState, ProjGradSettings, ProjGradSolver,
};
use perq_sim::{JobView, PolicyContext};
use perq_sysid::{KalmanObserver, Rls};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median seconds of `f` over repeated calls: at least 3, then until
/// 50 ms have been spent or 200 calls made.
fn time_median<R>(mut f: impl FnMut() -> R) -> f64 {
    let budget = Duration::from_millis(50);
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (begin.elapsed() < budget && samples.len() < 200) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// The MPC input `PerqPolicy::assign` builds from a context (its steps
/// 2-4: targets, usage-based budget accounting, per-job MPC state). The
/// margins are the policy's own; a probe cannot reach them, so they are
/// restated here.
struct Decision {
    jobs: Vec<MpcJobState>,
    system_target: f64,
    budget_nodes: f64,
    cap_min_frac: f64,
    wp_nodes: f64,
}

impl Decision {
    /// The same cluster-level inputs over another job list.
    fn with_jobs(&self, jobs: Vec<MpcJobState>) -> Decision {
        Decision {
            jobs,
            system_target: self.system_target,
            budget_nodes: self.budget_nodes,
            cap_min_frac: self.cap_min_frac,
            wp_nodes: self.wp_nodes,
        }
    }

    fn input(&self) -> MpcInput<'_> {
        MpcInput {
            jobs: &self.jobs,
            system_target: self.system_target,
            budget_nodes: self.budget_nodes,
            cap_min_frac: self.cap_min_frac,
            wp_nodes: self.wp_nodes,
        }
    }
}

fn rebuild_decision(policy: &PerqPolicy, ctx: &PolicyContext<'_>) -> Decision {
    const SLACK_MARGIN: f64 = 0.04;
    const CHARGE_MARGIN: f64 = 0.02;
    const RESERVE_FRAC: f64 = 0.02;
    let model = policy.model();
    let controller = policy.controller();
    let cap_max = ctx.cap_max_w;
    let targets = policy
        .target_generator()
        .generate(model, ctx, policy.adapters());
    let mut slack_charge_nodes = 0.0;
    let mut jobs = Vec::with_capacity(ctx.jobs.len());
    for (job, &target) in ctx.jobs.iter().zip(&targets.job_targets) {
        let adapter = &policy.adapters()[&job.id];
        let cap_frac = (job.current_cap_w / cap_max).clamp(0.0, 1.0);
        let slack = adapter.updates() >= 6
            && matches!(adapter.demand_frac(), Some(d) if d + SLACK_MARGIN < cap_frac);
        if let (true, Some(d)) = (slack, adapter.demand_frac()) {
            slack_charge_nodes += job.size as f64 * (d + CHARGE_MARGIN);
        }
        jobs.push(MpcJobState {
            size: job.size,
            target,
            current_cap_frac: cap_frac,
            gain: adapter.gain(),
            free_response: controller.free_response(model, adapter.state()),
            curve_value: model.curve.eval(cap_frac),
            curve_slope: model.curve.secant_slope(cap_frac, 0.10),
            bias: adapter.bias(),
            charged: !slack,
        });
    }
    Decision {
        jobs,
        system_target: targets.system_target,
        budget_nodes: ctx.busy_budget_w * (1.0 - RESERVE_FRAC) / cap_max - slack_charge_nodes,
        cap_min_frac: ctx.cap_min_w / cap_max,
        wp_nodes: ctx.wp_nodes as f64,
    }
}

/// The size-weighted pseudo-job of a group, as `decide_grouped` builds
/// it. That function is private to `perq-core`; [`core_probes`] checks
/// this restatement against it through `decide_grouped`'s answer.
fn aggregate(jobs: &[MpcJobState], members: &[usize]) -> MpcJobState {
    let total: usize = members.iter().map(|&i| jobs[i].size).sum();
    let mut out = MpcJobState {
        size: total,
        target: 0.0,
        current_cap_frac: 0.0,
        gain: 0.0,
        free_response: vec![0.0; jobs[members[0]].free_response.len()],
        curve_value: 0.0,
        curve_slope: 0.0,
        bias: 0.0,
        charged: jobs[members[0]].charged,
    };
    for &i in members {
        let j = &jobs[i];
        let w = j.size as f64 / total.max(1) as f64;
        out.target += w * j.target;
        out.current_cap_frac += w * j.current_cap_frac;
        out.gain += w * j.gain;
        out.curve_value += w * j.curve_value;
        out.curve_slope += w * j.curve_slope;
        out.bias += w * j.bias;
        for (f, &v) in out.free_response.iter_mut().zip(&j.free_response) {
            *f += w * v;
        }
    }
    out
}

/// Times the stages of one decision on the captured state. `config` is
/// the configuration `policy` was built with: it says whether the policy
/// takes the grouped path at this job count. Returns a defect
/// description if the rebuilt decision disagrees with the product's.
pub fn core_probes(
    policy: &PerqPolicy,
    stats: &AssignStats,
    config: &PerqConfig,
    out: &mut MetricSet,
) -> Option<String> {
    // Jobs that finished in the run's last interval have left the policy
    // (`job_departed`); the decision is rebuilt over those it still
    // tracks.
    let (jobs, caps_w): (Vec<JobView>, Vec<f64>) = stats
        .last_jobs
        .iter()
        .zip(&stats.last_caps_w)
        .filter(|(job, _)| policy.adapters().contains_key(&job.id))
        .map(|(job, &cap)| (job.clone(), cap))
        .unzip();
    let ctx = stats.context(&jobs)?;
    if jobs.is_empty() {
        return None;
    }
    let model = policy.model();
    let cap_max = ctx.cap_max_w;
    let grouped = jobs.len() > config.group_threshold;
    let max_groups = config.max_groups;

    // core.adapter: one feedback update per job with a fresh measurement,
    // as `(job id, cap fraction, normalized IPS)`.
    let measured: Vec<(u64, f64, f64)> = ctx
        .jobs
        .iter()
        .filter_map(|job| {
            let cap_frac = (job.current_cap_w / cap_max).clamp(0.0, 1.0);
            let ips_norm = job.measured_ips? / (job.size as f64 * BASE_NODE_IPS);
            Some((job.id, cap_frac, ips_norm))
        })
        .collect();
    if let Some(&(_, cap_frac, y)) = measured.first() {
        // Cloning the adapters is preparation; only the loop is timed.
        let loop_s = median(
            &(0..7)
                .map(|_| {
                    let mut adapters = policy.adapters().clone();
                    let t0 = Instant::now();
                    for &(id, cap_frac, ips_norm) in &measured {
                        if let Some(a) = adapters.get_mut(&id) {
                            a.update(model, cap_frac, ips_norm);
                        }
                    }
                    let elapsed = t0.elapsed().as_secs_f64();
                    black_box(adapters);
                    elapsed
                })
                .collect::<Vec<_>>(),
        );
        out.set(
            "core.adapter.update_ns_per_job",
            loop_s * 1e9 / measured.len() as f64,
        );

        // sysid: the adapter's two estimators on their own, fed the
        // first measured job's sample (constants as `JobAdapter::new`).
        let u = model.curve.eval(cap_frac);
        let mut observer = KalmanObserver::new(model.ss.clone(), 0.05, 1e-3);
        observer.seed_steady_state(u, y);
        let observer_s = time_median(|| {
            for _ in 0..100 {
                black_box(observer.update(black_box(u), black_box(y)));
            }
        });
        out.set("sysid.observer.update_ns", observer_s * 1e9 / 100.0);
        let mut rls = Rls::with_initial(vec![1.0], 0.998, 50.0);
        let rls_s = time_median(|| {
            for _ in 0..100 {
                black_box(rls.update(black_box(&[u]), black_box(y)));
            }
        });
        out.set("sysid.rls.update_ns", rls_s * 1e9 / 100.0);
    }

    // core.targets
    let targets_s = time_median(|| {
        policy
            .target_generator()
            .generate(model, &ctx, policy.adapters())
    });
    out.set("core.targets.generate_ms", targets_s * 1e3);

    let decision = rebuild_decision(policy, &ctx);
    let input = decision.input();
    let mut defect = None;

    // core.grouping, and the QP the solver actually sees: over the
    // pseudo-jobs on the grouped path, over the jobs otherwise.
    let pseudo;
    let qp_decision = if grouped {
        let groups = group_jobs(&decision.jobs, max_groups);
        out.set(
            "core.grouping.group_ms",
            time_median(|| group_jobs(&decision.jobs, max_groups)) * 1e3,
        );
        out.set("core.grouping.groups", groups.len() as f64);
        pseudo = decision.with_jobs(
            groups
                .iter()
                .map(|members| aggregate(&decision.jobs, members))
                .collect(),
        );
        // Fresh controllers start from the same cold solver state, so
        // the product's grouped decision and a plain decision over the
        // restated pseudo-jobs must agree exactly.
        let by_product = policy
            .controller()
            .clone()
            .decide_grouped(&input, max_groups)
            .expect("non-empty");
        let by_probe = policy
            .controller()
            .clone()
            .decide(&pseudo.input())
            .expect("non-empty");
        let agree = by_product.qp_iterations == by_probe.qp_iterations
            && groups
                .iter()
                .zip(&by_probe.caps_frac)
                .all(|(members, &cap)| by_product.caps_frac[members[0]] == cap);
        if !agree {
            defect = Some(
                "probe pseudo-jobs disagree with perq-core's decide_grouped: \
                 the aggregate() restated in probe.rs is stale"
                    .to_string(),
            );
        }
        &pseudo
    } else {
        &decision
    };
    let qp_input = qp_decision.input();

    // core.mpc: the whole decide, as the policy calls it.
    let controller = policy.controller().clone();
    let decide_s = time_median(|| {
        if grouped {
            controller.decide_grouped(&input, max_groups)
        } else {
            controller.decide(&input)
        }
    });
    out.set("core.mpc.decide_ms", decide_s * 1e3);

    // core.mpc_assembly
    out.set(
        "core.mpc_assembly.assemble_ms",
        time_median(|| controller.assemble_qp(&qp_input)) * 1e3,
    );

    // qp: assemble once, solve repeatedly from the assembled warm start
    // with solver settings as `MpcController::new` derives them.
    let (qp, warm, _) = controller.assemble_qp(&qp_input).expect("non-empty");
    let settings = controller.settings();
    let solver = ProjGradSolver::new(ProjGradSettings {
        max_iters: settings.max_qp_iters,
        tol: settings.qp_tol,
        power_iters: 20,
    });
    let mut state = ProfiledQpState::default();
    let mut iterations = 0;
    let solve_s = time_median(|| {
        let solved = solve_profiled(&solver, &qp, Some(&warm), config.solver_profile, &mut state)
            .expect("MPC QP is feasible");
        iterations = solved.solution.iterations;
    });
    let nv = qp.dim();
    out.set("qp.nv", nv as f64);
    out.set("qp.solve_ms", solve_s * 1e3);
    out.set(
        "qp.ns_per_iter_per_var",
        solve_s * 1e9 / (iterations.max(1) * nv) as f64,
    );

    // qp.project: the post-dither budget projection over per-job caps.
    let caps: Vec<f64> = caps_w.iter().map(|w| w / cap_max).collect();
    let coeffs: Vec<f64> = decision
        .jobs
        .iter()
        .map(|j| if j.charged { j.size as f64 } else { 0.0 })
        .collect();
    let min_commit: f64 = decision
        .jobs
        .iter()
        .filter(|j| j.charged)
        .map(|j| j.size as f64 * decision.cap_min_frac)
        .sum();
    let budget = Budget {
        coeffs,
        limit: decision.budget_nodes.max(min_commit),
    };
    let lo = vec![decision.cap_min_frac; caps.len()];
    let hi = vec![1.0; caps.len()];
    let project_s = time_median(|| {
        // Dithered caps, as the policy projects them.
        let mut x: Vec<f64> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| c + if i % 2 == 0 { 0.025 } else { -0.025 })
            .collect();
        project_box_budget(&mut x, &lo, &hi, &budget);
        x
    });
    out.set("qp.project_ms", project_s * 1e3);
    defect
}

/// Times the frame codec on the reports and commands of the captured
/// round: one `Report` per worker in, `SetCap` + `Tick` per worker out.
/// Returns a defect description if a frame does not survive the round
/// trip.
pub fn codec_probes(stats: &AssignStats, out: &mut MetricSet) -> Option<String> {
    let reports: Vec<Report> = stats
        .last_jobs
        .iter()
        .map(|j| Report {
            // The server names node n's service job n + 1.
            node_id: (j.id - 1) as u32,
            job_id: Some(j.id),
            ips: j.measured_ips.unwrap_or(0.0),
            power_w: j.measured_power_w.unwrap_or(TDP_WATTS),
            job_done: false,
        })
        .collect();
    if reports.is_empty() {
        return None;
    }
    let commands: Vec<Command> = stats
        .last_caps_w
        .iter()
        .flat_map(|&cap_w| [Command::SetCap { cap_w }, Command::Tick])
        .collect();
    let encoder = FrameEncoder::new();
    let frames = (reports.len() + commands.len()) as f64;

    let mut wire_reports = Vec::new();
    let mut wire_commands = Vec::new();
    let encode_s = time_median(|| {
        wire_reports.clear();
        wire_commands.clear();
        for r in &reports {
            encoder.encode_into(r, &mut wire_reports).expect("encodes");
        }
        for c in &commands {
            encoder.encode_into(c, &mut wire_commands).expect("encodes");
        }
    });
    out.set("proto.codec.encode_ns_per_frame", encode_s * 1e9 / frames);
    out.set(
        "proto.codec.bytes_per_report",
        wire_reports.len() as f64 / reports.len() as f64,
    );

    let mut decoded_reports: Vec<Report> = Vec::new();
    let mut decoded_commands: Vec<Command> = Vec::new();
    let decode_s = time_median(|| {
        decoded_reports.clear();
        decoded_commands.clear();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire_reports);
        while let Ok(Some(r)) = decoder.next_frame::<Report>() {
            decoded_reports.push(r);
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire_commands);
        while let Ok(Some(c)) = decoder.next_frame::<Command>() {
            decoded_commands.push(c);
        }
    });
    out.set("proto.codec.decode_ns_per_frame", decode_s * 1e9 / frames);
    (decoded_reports != reports || decoded_commands != commands)
        .then(|| "frame codec round trip changed a Report or Command".to_string())
}
