//! Robustness of the MPC controller to job churn.
//!
//! Node failures and job kills (the fault model in `perq-sim` /
//! `perq-proto`) change the decision problem's dimension between
//! consecutive `decide()` calls on the *same* controller: jobs vanish
//! mid-horizon, recovered capacity lets new ones start. The controller's
//! cached solver state (warm starts, eigenvector cache) is keyed to the
//! previous dimension, so these tests hammer one shared controller with
//! shrinking and growing job sets and assert every decision stays
//! feasible and finite.

use perq_core::{
    train_node_model, JobAdapter, MpcController, MpcInput, MpcJobState, MpcSettings, NodeModel,
    PerqConfig, PerqPolicy,
};
use perq_sim::{JobView, PolicyContext, PowerPolicy};
use proptest::prelude::*;
use std::sync::OnceLock;

const CAP_MIN_FRAC: f64 = 90.0 / 290.0;

/// One shared model + controller for the whole test binary: re-training
/// per case would dominate the runtime, and sharing is the point — the
/// fault scenarios reuse a long-lived controller across churn.
fn stack() -> &'static (NodeModel, MpcController) {
    static STACK: OnceLock<(NodeModel, MpcController)> = OnceLock::new();
    STACK.get_or_init(|| {
        let (model, _report) = train_node_model(0x5045_5251);
        let controller = MpcController::new(&model, MpcSettings::default());
        (model, controller)
    })
}

/// Builds the per-job MPC state exactly the way `PerqPolicy` does for a
/// freshly adopted job.
fn job_state(size: usize, cap_frac: f64, target: f64) -> MpcJobState {
    let (model, controller) = stack();
    let adapter = JobAdapter::new(model, cap_frac);
    MpcJobState {
        size,
        target,
        current_cap_frac: cap_frac,
        gain: adapter.gain(),
        free_response: controller.free_response(model, adapter.state()),
        curve_value: model.curve.eval(cap_frac),
        curve_slope: model.curve.secant_slope(cap_frac, 0.10),
        bias: adapter.bias(),
        charged: true,
    }
}

/// Runs one decision on the shared controller and checks the feasibility
/// invariants: a decision exists, has one finite cap per job inside the
/// RAPL window, and the committed power of charged jobs respects the
/// budget.
fn decide_and_check(jobs: &[MpcJobState], budget_nodes: f64) {
    let (_, controller) = stack();
    let input = MpcInput {
        jobs,
        system_target: 0.8,
        budget_nodes,
        cap_min_frac: CAP_MIN_FRAC,
        wp_nodes: jobs.iter().map(|j| j.size as f64).sum(),
    };
    let decision = controller
        .decide(&input)
        .expect("non-empty job list must yield a decision");
    assert_eq!(decision.caps_frac.len(), jobs.len());
    assert_eq!(decision.predicted_ips.len(), jobs.len());
    let mut committed = 0.0;
    for (cap, job) in decision.caps_frac.iter().zip(jobs) {
        assert!(cap.is_finite(), "non-finite cap {cap}");
        assert!(
            (CAP_MIN_FRAC - 1e-9..=1.0 + 1e-9).contains(cap),
            "cap {cap} outside the RAPL window"
        );
        if job.charged {
            committed += job.size as f64 * cap;
        }
    }
    assert!(
        committed <= budget_nodes + 1e-6,
        "committed {committed} exceeds budget {budget_nodes}"
    );
    for ips in &decision.predicted_ips {
        assert!(ips.is_finite(), "non-finite predicted IPS {ips}");
    }
}

fn budget_for(jobs: &[MpcJobState]) -> f64 {
    // Binding but feasible: 60% of full TDP commitment, always above the
    // cap-min floor (cap_min_frac ≈ 0.31 per node).
    0.6 * jobs.iter().map(|j| j.size as f64).sum::<f64>()
}

#[test]
fn one_controller_survives_a_scripted_shrink_and_regrow() {
    // The deterministic skeleton of the fault scenario: 8 jobs running,
    // a crash kills all but 3, recovery lets 12 start. Same controller
    // throughout — each call re-dimensions the cached QP structures.
    let mk = |n: usize| -> Vec<MpcJobState> {
        (0..n)
            .map(|i| {
                job_state(
                    1 + i % 4,
                    0.4 + 0.05 * (i % 12) as f64,
                    0.3 + 0.05 * (i % 8) as f64,
                )
            })
            .collect()
    };
    for n in [8, 3, 12, 1, 12] {
        let jobs = mk(n);
        decide_and_check(&jobs, budget_for(&jobs));
    }
}

#[test]
fn a_long_lived_policy_decides_like_a_fresh_one_as_its_job_list_shrinks_and_regrows() {
    // `PerqPolicy` keeps its per-job MPC inputs, `free_response` buffers
    // included, from one decision to the next and overwrites them in
    // place. The job list shrinks, regrows and changes which job sits
    // at which index; a twin built fresh for every decision has nothing
    // to reuse, so any stale entry or stale tail shows up as a cap that
    // differs from the twin's.
    //
    // The policy is made history-free in every other respect: nothing is
    // measured and every job's cap is held, so an adapter is what a new
    // arrival's would be; no dither (its sign follows the decision
    // count); always the grouped path (it never takes the previous
    // trajectory as a warm start); and consecutive decisions differ in
    // QP dimension, so the solver's spectral cache starts cold each time.
    let (model, _) = stack();
    let config = PerqConfig {
        dither_frac: 0.0,
        group_threshold: 0,
        max_groups: 4,
        ..PerqConfig::default()
    };
    let cap_max = 290.0;
    let mut lived = PerqPolicy::with_model(model.clone(), config.clone());
    for (tick, n) in [8usize, 3, 12, 1, 12, 2, 9].into_iter().enumerate() {
        let jobs: Vec<JobView> = (0..n as u64)
            .map(|k| {
                // Ids rotate, so index `k` holds another job every tick.
                let id = (k + 5 * tick as u64) % 13;
                JobView {
                    id,
                    size: 1 + (id % 4) as usize,
                    elapsed_s: tick as f64 * 10.0,
                    measured_ips: None,
                    current_cap_w: cap_max * (0.4 + 0.045 * id as f64),
                    measured_power_w: None,
                    remaining_node_hours: 5.0,
                    is_new: false,
                }
            })
            .collect();
        let nodes: usize = jobs.iter().map(|j| j.size).sum();
        let ctx = PolicyContext {
            time_s: tick as f64 * 10.0,
            interval_s: 10.0,
            busy_budget_w: 0.6 * cap_max * nodes as f64,
            cap_min_w: 90.0,
            cap_max_w: cap_max,
            total_nodes: nodes,
            wp_nodes: nodes,
            queue_depth: 0,
            violation_s: 0.0,
            jobs: &jobs,
        };
        let by_lived = lived.assign(&ctx);
        let by_fresh = PerqPolicy::with_model(model.clone(), config.clone()).assign(&ctx);
        assert_eq!(by_lived.len(), n, "tick {tick}");
        assert_eq!(lived.tracked_jobs(), n, "tick {tick}");
        for (k, (a, b)) in by_lived.iter().zip(&by_fresh).enumerate() {
            assert_eq!(
                a.cap_w.to_bits(),
                b.cap_w.to_bits(),
                "tick {tick} job {k}: {} vs {}",
                a.cap_w,
                b.cap_w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized churn: full set → surviving subset → regrown superset,
    /// all against the shared controller. Shapes and caps vary per case.
    #[test]
    fn decide_stays_feasible_under_random_job_churn(
        specs in proptest::collection::vec(
            (1usize..=4, 0.35f64..1.0, 0.2f64..1.0),
            2..10,
        ),
        keep_mask in proptest::collection::vec(any::<bool>(), 10),
        regrow in proptest::collection::vec(
            (1usize..=4, 0.35f64..1.0, 0.2f64..1.0),
            1..5,
        ),
    ) {
        let full: Vec<MpcJobState> = specs
            .iter()
            .map(|&(size, cap, target)| job_state(size, cap, target))
            .collect();
        decide_and_check(&full, budget_for(&full));

        // A crash removes an arbitrary subset (at least one survivor).
        let mut survivors: Vec<MpcJobState> = full
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter(|(_, &keep)| keep)
            .map(|(j, _)| j.clone())
            .collect();
        if survivors.is_empty() {
            survivors.push(full[0].clone());
        }
        decide_and_check(&survivors, budget_for(&survivors));

        // Recovery grows the set past its original size.
        let mut regrown = full;
        regrown.extend(
            regrow
                .iter()
                .map(|&(size, cap, target)| job_state(size, cap, target)),
        );
        decide_and_check(&regrown, budget_for(&regrown));
    }
}
