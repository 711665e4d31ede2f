//! Flat-vs-hierarchical differential harness.
//!
//! The one-enclave hierarchy is *defined* to be the flat simulator: same
//! seed, same cluster, same policy loop, same recorder. These tests pin
//! that down to the byte — [`SimResult::same_simulation`] plus identical
//! Prometheus and JSONL exports — over random workloads, fault plans,
//! and the SWF fixture, under `run` and the `run_stepper` oracle. A wide
//! hierarchy (64 enclaves)
//! cannot be byte-identical (the coordinator quantises power to enclave
//! granularity and the scheduler loses cross-enclave backfill), so it is
//! held to the documented tolerance instead: per-node mean power within
//! 5% of flat and throughput within 15% on a shared saturating trace
//! (DESIGN.md §11 explains where the gap comes from).

use perq_sim::{
    enclave_outage_plan, partition_config, Cluster, ClusterConfig, FairPolicy, FaultPlan,
    FaultRates, HierSim, HierTopology, JobSpec, PowerPolicy, SimResult, SystemModel,
    TraceGenerator, TraceSource,
};
use perq_telemetry::Recorder;
use proptest::prelude::*;

const TARDIS_TINY_SWF: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/fixtures/tardis_tiny.swf"
);

fn tardis_config(f: f64, duration_s: f64) -> ClusterConfig {
    ClusterConfig::for_system(&SystemModel::tardis(), f, duration_s)
}

/// Flat reference run with telemetry exports.
fn run_flat(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    plan: Option<&FaultPlan>,
    stepper: bool,
) -> (SimResult, String, String) {
    let recorder = Recorder::manual();
    let mut cluster =
        Cluster::new(config.clone(), jobs.to_vec(), seed).with_recorder(recorder.clone());
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan.clone());
    }
    let result = if stepper {
        cluster.run_stepper(&mut FairPolicy::new())
    } else {
        cluster.run(&mut FairPolicy::new())
    };
    (
        result,
        recorder.export_prometheus(),
        recorder.export_jsonl(),
    )
}

/// Hierarchical run (FairPolicy in every enclave) with telemetry
/// exports of the *merged* recorder.
fn run_hier(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    topology: HierTopology,
    plans: Vec<FaultPlan>,
    stepper: bool,
    threads: usize,
) -> (perq_sim::HierResult, String, String) {
    let recorder = Recorder::manual();
    let policies: Vec<Box<dyn PowerPolicy + Send>> = (0..topology.enclaves)
        .map(|_| Box::new(FairPolicy::new()) as Box<dyn PowerPolicy + Send>)
        .collect();
    let sim = HierSim::new(config.clone(), jobs.to_vec(), seed, topology, policies)
        .with_threads(threads)
        .with_recorder(recorder.clone())
        .with_enclave_fault_plans(plans);
    let result = if stepper {
        sim.run_stepper()
    } else {
        sim.run()
    };
    (
        result,
        recorder.export_prometheus(),
        recorder.export_jsonl(),
    )
}

/// Asserts the one-enclave hierarchy reproduces the flat run to the
/// byte, under one loop, and returns the flat result.
fn assert_single_enclave_identity(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    plan: Option<&FaultPlan>,
    stepper: bool,
) -> SimResult {
    let (flat, flat_prom, flat_jsonl) = run_flat(config, jobs, seed, plan, stepper);
    let (hier, hier_prom, hier_jsonl) = run_hier(
        config,
        jobs,
        seed,
        HierTopology::enclaves(1),
        plan.cloned().into_iter().collect(),
        stepper,
        1,
    );
    assert!(
        hier.rounds.is_empty(),
        "one enclave must bypass the coordinator entirely"
    );
    assert_eq!(hier.enclaves.len(), 1);
    assert!(
        flat.same_simulation(&hier.enclaves[0]),
        "1-enclave hierarchy diverged from flat (seed {seed}, stepper: {stepper}): \
         flat {} records / {} intervals, hier {} records / {} intervals",
        flat.records.len(),
        flat.intervals.len(),
        hier.enclaves[0].records.len(),
        hier.enclaves[0].intervals.len()
    );
    assert!(flat.same_simulation(&hier.combined()));
    assert_eq!(flat_prom, hier_prom, "Prometheus export diverged");
    assert_eq!(flat_jsonl, hier_jsonl, "JSONL journal diverged");
    flat
}

#[test]
fn single_enclave_matches_flat_on_swf_fixture() {
    let text = std::fs::read_to_string(TARDIS_TINY_SWF).expect("fixture must exist");
    let report = perq_trace::parse_swf_report(&text, perq_trace::ParseMode::Lenient)
        .expect("fixture parses");
    for stepper in [true, false] {
        for honor_arrivals in [false, true] {
            let (jobs, summary) = TraceSource::new(report.trace.clone(), 5)
                .with_arrivals(honor_arrivals)
                .jobs();
            assert!(summary.imported > 0);
            let mut config = tardis_config(2.0, 4.0 * 3600.0);
            config.honor_arrivals = honor_arrivals;
            assert_single_enclave_identity(&config, &jobs, 5, None, stepper);
        }
    }
}

#[test]
fn single_enclave_matches_flat_under_faults() {
    let config = tardis_config(1.5, 2.0 * 3600.0);
    let jobs = TraceGenerator::new(SystemModel::tardis(), 9)
        .generate_saturating(config.nodes, config.duration_s);
    let steps = (config.duration_s / config.interval_s) as usize;
    let plan = FaultPlan::generate(13, steps, &FaultRates::aggressive());
    for stepper in [true, false] {
        let flat = assert_single_enclave_identity(&config, &jobs, 9, Some(&plan), stepper);
        assert!(
            !flat.faults.is_empty(),
            "aggressive fault rates must inject something"
        );
    }
}

#[test]
fn hierarchy_matches_its_stepper() {
    // The multi-enclave epoch loop must preserve the run/run_stepper
    // equivalence the flat loop guarantees: identical results and
    // exports either way.
    let mut config = tardis_config(2.0, 2.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs = TraceGenerator::new(SystemModel::tardis(), 21)
        .generate_saturating(config.nodes, config.duration_s);
    let topo = HierTopology::enclaves(4).with_tenant_weights(&[1.0, 2.0]);
    let (step, step_prom, step_jsonl) =
        run_hier(&config, &jobs, 21, topo.clone(), Vec::new(), true, 1);
    let (event, event_prom, event_jsonl) = run_hier(&config, &jobs, 21, topo, Vec::new(), false, 1);
    assert_eq!(step.rounds, event.rounds, "grant rounds diverged");
    for (s, e) in step.enclaves.iter().zip(event.enclaves.iter()) {
        assert!(s.same_simulation(e), "an enclave diverged from its stepper");
    }
    assert_eq!(step_prom, event_prom);
    assert_eq!(step_jsonl, event_jsonl);
}

#[test]
fn idle_enclaves_skip_inside_epochs_and_faults_land_in_idle_gaps() {
    // Four enclaves, six jobs arriving the better part of an hour
    // apart: every enclave is idle for most epochs, and enclave 3
    // (whose first job arrives at step 901) suffers a whole-enclave
    // outage in the middle of its idle gap — crash and recovery both
    // off the epoch grid (steps 250 and 605, epochs are 6 steps). The
    // skip must wake for both, apply them at their exact step, and
    // leave results, grant rounds and exports byte-identical to the
    // every-interval oracle at any thread count.
    let mut config = tardis_config(2.0, 6.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| JobSpec {
            id: i,
            app_index: (i % 5) as usize,
            size: 1 + (i % 2) as usize,
            runtime_tdp_s: 300.0 + 90.0 * i as f64,
            runtime_estimate_s: (300.0 + 90.0 * i as f64) * 1.3,
            submit_s: 3_000.0 * i as f64 + 15.0,
        })
        .collect();
    let topo = HierTopology::enclaves(4).with_tenant_weights(&[1.0, 2.0]);
    let enclave_nodes = partition_config(&config, 4)[3].nodes;
    let mut plans = vec![FaultPlan::default(); 3];
    plans.push(enclave_outage_plan(enclave_nodes, 250, Some(605)));
    let (step, step_prom, step_jsonl) =
        run_hier(&config, &jobs, 33, topo.clone(), plans.clone(), true, 1);
    assert_eq!(step.enclaves[3].faults.len(), 2, "outage must apply");
    assert_eq!(step.enclaves[3].faults[0].step, 250);
    assert_eq!(step.enclaves[3].faults[1].step, 605);
    assert!(
        !step.enclaves[3].records.is_empty()
            && step.enclaves[3].records.iter().all(|r| r.start_s > 6050.0),
        "enclave 3 must be idle across the outage and busy after it"
    );
    for threads in [1, 3] {
        let (skip, skip_prom, skip_jsonl) = run_hier(
            &config,
            &jobs,
            33,
            topo.clone(),
            plans.clone(),
            false,
            threads,
        );
        assert_eq!(step.rounds, skip.rounds, "grant rounds diverged");
        for (s, e) in step.enclaves.iter().zip(skip.enclaves.iter()) {
            assert!(s.same_simulation(e), "an enclave diverged from its stepper");
            assert_eq!(s.decision_times_s.len(), s.intervals.len());
            assert!(
                e.decision_times_s.len() * 10 < e.intervals.len(),
                "an idle enclave must skip inside its epochs ({} of {})",
                e.decision_times_s.len(),
                e.intervals.len()
            );
        }
        assert_eq!(step_prom, skip_prom);
        assert_eq!(step_jsonl, skip_jsonl);
    }
}

/// A machine wide enough for 64 enclaves (Tardis is an 8-WP-node
/// testbed, so this scales its node model up: 256 over-provisioned
/// nodes over a 128-node worst-case budget — 4-node enclaves, enough
/// for the largest Tardis job size).
fn wide_config(duration_s: f64) -> ClusterConfig {
    let mut config = tardis_config(2.0, duration_s);
    config.nodes = 256;
    config.wp_nodes = 128;
    config
}

#[test]
fn wide_hierarchy_tracks_flat_within_tolerance() {
    let config = wide_config(2.0 * 3600.0);
    let jobs = TraceGenerator::new(SystemModel::tardis(), 11)
        .generate_saturating(config.nodes, config.duration_s);
    let (flat, _, _) = run_flat(&config, &jobs, 11, None, false);
    let (hier, _, _) = run_hier(
        &config,
        &jobs,
        11,
        HierTopology::enclaves(64),
        Vec::new(),
        false,
        4,
    );
    assert!(!hier.rounds.is_empty(), "64 enclaves must coordinate");
    let combined = hier.combined();

    // Tolerance contract (DESIGN.md §11): per-node mean power within 5%
    // of flat, throughput within 15%; the flat run never violates the
    // budget, the hierarchy is allowed re-grant transients — at most 1%
    // of intervals, and only at coordination-epoch boundaries (the one
    // interval where consumption can overshoot a freshly lowered grant).
    let mean_power = |r: &SimResult| {
        r.intervals.iter().map(|i| i.total_power_w).sum::<f64>()
            / r.intervals.len().max(1) as f64
            / config.nodes as f64
    };
    let flat_power = mean_power(&flat);
    let hier_power = mean_power(&combined);
    assert!(
        (hier_power - flat_power).abs() <= 0.05 * flat_power,
        "per-node mean power diverged: flat {flat_power:.1} W, hier {hier_power:.1} W"
    );
    let flat_jobs = flat.throughput() as f64;
    let hier_jobs = combined.throughput() as f64;
    assert!(
        (hier_jobs - flat_jobs).abs() <= 0.15 * flat_jobs,
        "throughput diverged: flat {flat_jobs}, hier {hier_jobs}"
    );
    assert_eq!(flat.budget_violations, 0, "flat reference broke the budget");
    assert!(
        combined.budget_violations <= combined.intervals.len() / 100,
        "more than 1% re-grant transients: {} of {}",
        combined.budget_violations,
        combined.intervals.len()
    );
    let coordination = HierTopology::enclaves(64).coordination_intervals;
    for (index, interval) in combined.intervals.iter().enumerate() {
        assert!(
            !interval.violation || index % coordination == 0,
            "violation away from an epoch boundary (interval {index})"
        );
    }
}

/// Random jobs with explicit arrival times (same generator as the
/// `event_parity` suite, so counterexamples shrink the same way).
fn arb_arrival_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((1usize..6, 120.0f64..3000.0, 0.0f64..20_000.0), 1..24).prop_map(
        |specs| {
            let mut submit = 0.0;
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (size, rt, gap))| {
                    submit += gap;
                    JobSpec {
                        id: i as u64,
                        app_index: i % 10,
                        size,
                        runtime_tdp_s: rt,
                        runtime_estimate_s: rt * 1.3,
                        submit_s: submit,
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn single_enclave_matches_flat_on_random_workloads(
        jobs in arb_arrival_jobs(),
        seed in 0u64..1000,
        f in 1.0f64..2.0,
    ) {
        let mut config = tardis_config(f, 6.0 * 3600.0);
        config.honor_arrivals = true;
        for stepper in [true, false] {
            assert_single_enclave_identity(&config, &jobs, seed, None, stepper);
        }
    }

    #[test]
    fn single_enclave_matches_flat_on_random_fault_plans(
        trace_seed in 0u64..200,
        plan_seed in 0u64..200,
    ) {
        let config = tardis_config(1.8, 3600.0);
        let jobs = TraceGenerator::new(SystemModel::tardis(), trace_seed)
            .generate_saturating(config.nodes, config.duration_s);
        let steps = (config.duration_s / config.interval_s) as usize;
        let plan = FaultPlan::generate(plan_seed, steps, &FaultRates::aggressive());
        for stepper in [true, false] {
            assert_single_enclave_identity(&config, &jobs, trace_seed, Some(&plan), stepper);
        }
    }
}
