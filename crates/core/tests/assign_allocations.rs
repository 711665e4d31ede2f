//! What a decision allocates does not grow with the job count: per-job
//! buffers (adapters, MPC states, estimator scratch, the dither
//! projection's working set) are kept or live on the stack, so a
//! steady-state `assign` over 2N jobs performs exactly as many heap
//! allocations as one over N — longer ones, not more. The grouped path
//! keeps everything it adds (sort keys, group lists, pseudo-jobs, the
//! expanded decision), so it allocates exactly what the exact decision
//! over its pseudo-jobs does. Also pins the slice-taking target
//! generator to its map-taking wrapper.

#[path = "../../sysid/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use perq_core::{train_node_model, JobAdapter, NodeModel, PerqConfig, PerqPolicy, TargetGenerator};
use perq_sim::{JobView, PolicyContext, PowerPolicy};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CAP_MAX: f64 = 290.0;

fn model() -> &'static NodeModel {
    static MODEL: OnceLock<NodeModel> = OnceLock::new();
    MODEL.get_or_init(|| train_node_model(PerqConfig::default().training_seed).0)
}

fn ctx<'a>(jobs: &'a [JobView], tick: usize) -> PolicyContext<'a> {
    let wp_nodes = (jobs.len() / 2).max(1);
    PolicyContext {
        time_s: tick as f64 * 10.0,
        interval_s: 10.0,
        busy_budget_w: wp_nodes as f64 * CAP_MAX,
        cap_min_w: 90.0,
        cap_max_w: CAP_MAX,
        total_nodes: jobs.len(),
        wp_nodes,
        queue_depth: 0,
        violation_s: 0.0,
        jobs,
    }
}

/// Runs size-1 jobs `1..=n` for one tick per entry of `counts` (`n` that
/// tick's entry) and returns the allocations of the last decision. Every
/// job reports every tick with a moving cap, so both estimators of every
/// adapter update. The QP solver runs the product's iteration settings:
/// a solve allocates nothing per iteration, so however many it takes the
/// count is the same.
fn allocations_of_the_last_decision(counts: &[usize]) -> u64 {
    let mut policy = PerqPolicy::with_model(model().clone(), PerqConfig::default());
    let most = counts.iter().copied().max().unwrap_or(0);
    let mut caps = vec![CAP_MAX; most];
    let mut jobs: Vec<JobView> = Vec::with_capacity(most);
    let mut counted = 0;
    for (tick, &n) in counts.iter().enumerate() {
        jobs.clear();
        jobs.extend((0..n).map(|i| {
            let response = 0.6 + 0.4 * ((i % 7) as f64 / 7.0);
            JobView {
                id: i as u64 + 1,
                size: 1,
                elapsed_s: tick as f64 * 10.0,
                measured_ips: Some(1.0e9 * response * caps[i] / CAP_MAX),
                current_cap_w: caps[i],
                measured_power_w: Some(0.9 * caps[i]),
                remaining_node_hours: 1.0,
                is_new: tick == 0,
            }
        }));
        let (allocations, out) = allocations_in(|| policy.assign(&ctx(&jobs, tick)));
        assert_eq!(out.len(), n);
        for (cap, a) in caps.iter_mut().zip(&out) {
            *cap = a.cap_w;
        }
        counted = allocations;
    }
    assert_eq!(policy.tracked_jobs(), *counts.last().expect("a tick"));
    counted
}

/// `n` jobs run to a steady state, then one more decision.
fn steady_state_allocations(n: usize) -> u64 {
    allocations_of_the_last_decision(&[n; 12])
}

#[test]
fn flat_assign_allocations_do_not_grow_with_the_job_count() {
    // Both under `group_threshold` (150): the exact per-job QP.
    let (small, large) = (steady_state_allocations(64), steady_state_allocations(128));
    assert_eq!(small, large, "64 jobs vs 128 jobs");
}

#[test]
fn grouped_assign_allocations_do_not_grow_with_the_job_count() {
    // Both over the threshold: 64 pseudo-jobs either way.
    let (small, large) = (
        steady_state_allocations(512),
        steady_state_allocations(1024),
    );
    assert_eq!(small, large, "512 jobs vs 1024 jobs");
    assert_eq!(large, steady_state_allocations(2048), "1024 vs 2048 jobs");
    // 64 pseudo-jobs: the exact decision over 64 jobs, and nothing more.
    assert_eq!(large, steady_state_allocations(64), "grouped vs exact");
    // Fewer jobs than last tick (the sort restarts from job order, groups
    // and expanded buffers shrink): still nothing new.
    let mut shrinking = [1024; 12];
    shrinking[10..].fill(768);
    for upto in [11, 12] {
        let after = allocations_of_the_last_decision(&shrinking[..upto]);
        assert_eq!(after, large, "1024 jobs, then 768 ({upto} ticks)");
    }
}

fn arb_view() -> impl Strategy<Value = (u64, usize, f64, bool)> {
    // Ids collide often, so contexts list jobs twice; `tracked` decides
    // whether the map knows the id.
    (1u64..24, 1usize..9, 90.0f64..290.0, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generate_for_is_generate_with_the_lookups_done(
        views in proptest::collection::vec(arb_view(), 1..20),
        wp_nodes in 1usize..40,
        updates in 0usize..4,
        ratio in 1.0f64..6.0,
    ) {
        let model = model();
        let mut adapters: HashMap<u64, JobAdapter> = HashMap::new();
        let jobs: Vec<JobView> = views
            .iter()
            .map(|&(id, size, cap_w, tracked)| {
                if tracked {
                    let adapter = adapters
                        .entry(id)
                        .or_insert_with(|| JobAdapter::new(model, cap_w / CAP_MAX));
                    for k in 0..updates {
                        adapter.update(model, cap_w / CAP_MAX, 0.5 + 0.1 * k as f64);
                    }
                }
                JobView {
                    id,
                    size,
                    elapsed_s: 50.0,
                    measured_ips: None,
                    current_cap_w: cap_w,
                    measured_power_w: None,
                    remaining_node_hours: 1.0,
                    is_new: false,
                }
            })
            .collect();
        let mut context = ctx(&jobs, 0);
        context.wp_nodes = wp_nodes;
        let generator = TargetGenerator::new(ratio);
        let listed: Vec<Option<&JobAdapter>> = jobs.iter().map(|j| adapters.get(&j.id)).collect();
        // A slot is empty exactly when no listing of that id was tracked.
        for (job, slot) in jobs.iter().zip(&listed) {
            prop_assert_eq!(slot.is_some(), views.iter().any(|v| v.0 == job.id && v.3));
        }
        let by_map = generator.generate(model, &context, &adapters);
        let by_slice = generator.generate_for(model, &context, &listed);
        prop_assert_eq!(by_map.system_target.to_bits(), by_slice.system_target.to_bits());
        prop_assert_eq!(by_map.fair_cap_frac.to_bits(), by_slice.fair_cap_frac.to_bits());
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&by_map.job_targets), bits(&by_slice.job_targets));
    }
}
