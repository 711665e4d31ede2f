//! The zoo ablation grid's determinism contract: results, telemetry
//! exports, and the rendered table are byte-identical at any campaign
//! thread count, and re-runs reproduce them exactly.

use perq_campaign::{
    ablation_table, run_campaign, try_run_campaign, zoo_ablation_grid, CampaignOptions, PolicySpec,
    Scenario, TopologySpec,
};
use perq_gym::{BudgetSchedule, ZooSpec};
use perq_sim::SystemModel;
use perq_telemetry::Recorder;

fn fixture(name: &str) -> String {
    format!("{}/../trace/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A trimmed copy of the ablation grid (shorter regimes, fewer jobs)
/// so the 3× thread sweep stays test-sized while still crossing every
/// policy with every regime axis.
fn small_grid() -> Vec<perq_campaign::Scenario> {
    let mut grid = zoo_ablation_grid(7, Some(&fixture("tardis_tiny.swf")));
    for s in &mut grid {
        s.duration_s = s.duration_s.min(600.0);
        if let perq_campaign::WorkloadSpec::SyntheticLight { jobs } = &mut s.workload {
            *jobs = (*jobs).min(16);
        }
        if let Some(schedule) = &s.budget_schedule {
            // Re-fit the diurnal curve to the shorter run.
            let base = schedule.budget_at(0.0);
            s.budget_schedule = Some(BudgetSchedule::diurnal(base, 0.8, 1.0, 150.0, 600.0));
        }
    }
    grid
}

fn run(grid: &[perq_campaign::Scenario], threads: usize) -> (Vec<String>, String, String, String) {
    let recorder = Recorder::manual();
    let outcomes = run_campaign(
        grid,
        &CampaignOptions {
            threads,
            ..Default::default()
        },
        &recorder,
    );
    let table = ablation_table(&outcomes);
    let digests = outcomes
        .iter()
        .map(|o| {
            format!(
                "{}/{}: completed={} violations={} violation_s={} records={}",
                o.scenario.name,
                o.result.policy,
                o.result.throughput(),
                o.result.budget_violations,
                o.result.budget_violation_s,
                serde_json::to_string(&o.result.records).unwrap()
            )
        })
        .collect();
    (
        digests,
        recorder.export_prometheus(),
        recorder.export_jsonl(),
        table.render(),
    )
}

#[test]
fn ablation_grid_is_byte_identical_across_thread_counts() {
    let grid = small_grid();
    let (digests_1, prom_1, jsonl_1, table_1) = run(&grid, 1);
    assert_eq!(grid.len(), 20);
    assert!(table_1.contains("ZOO-PERQ"));
    for threads in [2, 4] {
        let (digests_n, prom_n, jsonl_n, table_n) = run(&grid, threads);
        assert_eq!(
            digests_1, digests_n,
            "results diverged at {threads} threads"
        );
        assert_eq!(
            prom_1, prom_n,
            "Prometheus export diverged at {threads} threads"
        );
        assert_eq!(
            jsonl_1, jsonl_n,
            "JSONL journal diverged at {threads} threads"
        );
        assert_eq!(
            table_1, table_n,
            "rendered table diverged at {threads} threads"
        );
    }
}

#[test]
fn ablation_reruns_reproduce_byte_for_byte() {
    let grid = small_grid();
    let a = run(&grid, 2);
    let b = run(&grid, 2);
    assert_eq!(a, b);
}

#[test]
fn gym_metrics_land_on_the_campaign_recorder() {
    let mut grid = small_grid();
    grid.truncate(4); // one regime × all four policies
    let recorder = Recorder::manual();
    run_campaign(&grid, &CampaignOptions::default(), &recorder);
    let prom = recorder.export_prometheus();
    assert!(prom.contains("perq_gym_decisions_total"), "{prom}");
    assert!(prom.contains("perq_gym_reward_total"));
    assert!(prom.contains("perq_gym_epsilon"));
    assert!(prom.contains("perq_gym_q_updates_total"));
}

#[test]
fn scheduled_enclave_scenarios_fail_fast() {
    let scenario = Scenario::new(
        "bad",
        SystemModel::tardis(),
        2.0,
        600.0,
        1,
        PolicySpec::zoo(ZooSpec::FairShare),
    )
    .with_budget_schedule(BudgetSchedule::flat(2320.0))
    .with_topology(TopologySpec::enclaves(2));
    let err = try_run_campaign(
        std::slice::from_ref(&scenario),
        &CampaignOptions::default(),
        &Recorder::noop(),
    )
    .unwrap_err();
    assert!(err.message.contains("flat topologies only"), "{err}");
}
