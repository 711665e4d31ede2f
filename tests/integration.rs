//! Workspace-level integration tests: the full stack (trace generation →
//! scheduling → power policies → metrics) exercised end-to-end through
//! the public facade, asserting the paper's headline orderings.

use perq::core::{baselines, train_node_model, PerqConfig, PerqPolicy};
use perq::prelude::*;
use perq::sim::JobOutcome;
use perq_bench::figures::{headline, Scale, Table};
use perq_bench::shapes;

/// The four policies at each of `factors` on the small system, serial: a
/// Fig. 6-style table on this test's own trace seed and NPB model seed.
fn tardis_headline(factors: &[f64], hours: f64, seed: u64, model_seed: u64) -> Table {
    let scale = Scale {
        duration_s: hours * 3600.0,
        system: SystemModel::tardis(),
        threads: 1,
    };
    headline(&scale, factors, seed, model_seed).remove(0)
}

#[test]
fn headline_ordering_holds_on_tardis() {
    // The paper's central claim, on the small system so it runs in test
    // time: at f = 2 PERQ out-produces SRN and FOP and stays fairer than
    // SJS — the shape Fig. 11 shows on sockets, here in simulation.
    let model_seed = PerqConfig::default().training_seed;
    let table = tardis_headline(&[2.0], 3.0, 1234, model_seed);
    let tables = [table];
    assert_eq!(shapes::f11_prototype_orders_like_sim(&tables), Ok(()));
    // The predicate is shared with the socket prototype and carries no
    // absolute bound (20.9% there); this cell's own is 15%.
    let perq_mean_deg = tables[0].num(3, "meandeg(%)");
    assert_eq!(tables[0].text(3, "policy"), "PERQ");
    assert!(
        perq_mean_deg < 15.0,
        "PERQ mean degradation {perq_mean_deg}"
    );
}

#[test]
fn throughput_grows_with_overprovisioning_under_perq() {
    let factors = [1.0, 1.5, 2.0];
    let tables = [tardis_headline(&factors, 2.0, 77, 7)];
    assert_eq!(shapes::f6_throughput_grows_with_f(&tables), Ok(()));
    // The predicate forgives a 5% dip (Mira and Trinity at f ≤ 1.4); at
    // this size that is more than the two jobs this test allows.
    let mut best = 0.0_f64;
    for (step, f) in factors.into_iter().enumerate() {
        let jobs = tables[0].num(4 * step + 3, "jobs");
        assert!(
            jobs + 2.0 >= best,
            "throughput fell from {best} to {jobs} at f={f}"
        );
        best = best.max(jobs);
    }
}

#[test]
fn fop_never_violates_and_all_jobs_accounted() {
    let system = SystemModel::tardis();
    let jobs = TraceGenerator::new(system.clone(), 5).generate(300);
    let n_jobs = jobs.len();
    let config = ClusterConfig::for_system(&system, 1.8, 2.0 * 3600.0);
    let mut cluster = Cluster::new(config, jobs, 5);
    let result = cluster.run(&mut FairPolicy::new());
    assert_eq!(result.budget_violations, 0);
    // Every record is completed, crashed, or unfinished; completed +
    // running + queued = trace size.
    let completed = result.throughput();
    let unfinished = result
        .records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Unfinished)
        .count();
    assert!(completed + unfinished <= n_jobs);
    for rec in result.completed() {
        assert!(rec.runtime_s() > 0.0);
        assert!(rec.slowdown() >= 0.99, "job faster than TDP?");
    }
}

#[test]
fn oracle_policy_uses_oracle_and_perq_does_not_need_it() {
    // SRN reads remaining_node_hours; PERQ must produce identical output
    // whether or not the oracle field is perturbed — guaranteeing it
    // never reads future knowledge.
    use perq::sim::{JobView, PolicyContext, PowerPolicy as _};
    let model = train_node_model(3).0;
    let mk_jobs = |oracle_scale: f64| -> Vec<JobView> {
        (0..4)
            .map(|i| JobView {
                id: i,
                size: 2,
                elapsed_s: 100.0,
                measured_ips: Some(2.0e9 + i as f64 * 1.0e8),
                current_cap_w: 150.0,
                measured_power_w: Some(120.0),
                remaining_node_hours: (i as f64 + 1.0) * oracle_scale,
                is_new: false,
            })
            .collect()
    };
    fn ctx<'a>(jobs: &'a [JobView]) -> PolicyContext<'a> {
        PolicyContext {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: 8.0 * 200.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 16,
            wp_nodes: 8,
            queue_depth: 0,
            violation_s: 0.0,
            jobs,
        }
    }

    // PERQ: identical decisions regardless of the oracle values.
    let jobs_a = mk_jobs(1.0);
    let jobs_b = mk_jobs(100.0);
    let mut perq_a = PerqPolicy::with_model(model.clone(), PerqConfig::default());
    let mut perq_b = PerqPolicy::with_model(model.clone(), PerqConfig::default());
    let out_a = perq_a.assign(&ctx(&jobs_a));
    let out_b = perq_b.assign(&ctx(&jobs_b));
    for (a, b) in out_a.iter().zip(out_b.iter()) {
        assert!((a.cap_w - b.cap_w).abs() < 1e-9, "PERQ read the oracle!");
    }

    // SRN: different priorities when the oracle changes order.
    let mut jobs_c = mk_jobs(1.0);
    jobs_c[0].remaining_node_hours = 50.0; // job 0 now farthest from done
    let mut srn = baselines::srn();
    let out_c = srn.assign(&ctx(&jobs_c));
    let out_d = srn.assign(&ctx(&mk_jobs(1.0)));
    assert!(
        (out_c[0].cap_w - out_d[0].cap_w).abs() > 1.0,
        "SRN should react to the oracle"
    );
}

#[test]
fn crash_and_dropout_do_not_wedge_perq() {
    let system = SystemModel::tardis();
    let mut config = ClusterConfig::for_system(&system, 2.0, 1.0 * 3600.0);
    config.crash_prob = 0.01;
    config.ips_dropout_prob = 0.3;
    let jobs = TraceGenerator::new(system, 21).generate(200);
    let mut perq = PerqPolicy::new(PerqConfig::default());
    let mut cluster = Cluster::new(config, jobs, 21);
    let result = cluster.run(&mut perq);
    assert!(result.throughput() > 0, "nothing completed under faults");
    assert!(result
        .records
        .iter()
        .any(|r| r.outcome == JobOutcome::Crashed));
}

#[test]
fn facade_prelude_compiles_and_runs_quickstart_flow() {
    let system = SystemModel::tardis();
    let jobs = TraceGenerator::new(system.clone(), 7).generate(50);
    let config = ClusterConfig::for_system(&system, 1.5, 1800.0);
    let result = Cluster::new(config, jobs, 7).run(&mut FairPolicy::new());
    assert!(result.intervals.len() == 180);
}
