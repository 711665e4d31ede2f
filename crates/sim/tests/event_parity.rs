//! `run` vs `run_stepper`: the idle-skip loop must reproduce the
//! every-interval stepper **exactly** — same [`SimResult`] (records,
//! interval logs, job traces, faults) and byte-identical telemetry
//! exports — over random workloads, fault plans, and SWF fixture
//! replays. The speedup comes only from skipping intervals where
//! nothing can happen, so any divergence here means the skip logic
//! changed physics.

use perq_sim::{
    BudgetSchedule, Cluster, ClusterConfig, FairPolicy, FaultPlan, FaultRates, JobSpec,
    PolicyContext, PowerAssignment, PowerPolicy, SimResult, SystemModel, TraceGenerator,
    TraceSource,
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

/// `Cluster::run`, or the `run_stepper` oracle.
fn run_cluster(cluster: &mut Cluster, policy: &mut dyn PowerPolicy, stepper: bool) -> SimResult {
    if stepper {
        cluster.run_stepper(policy)
    } else {
        cluster.run(policy)
    }
}

/// Runs the same fully-specified simulation under one loop, returning
/// the result plus both telemetry export encodings.
fn run_one(
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
    let result = run_cluster(&mut cluster, &mut FairPolicy::new(), stepper);
    (
        result,
        recorder.export_prometheus(),
        recorder.export_jsonl(),
    )
}

/// Asserts byte-identity between the two loops and hands back the
/// stepper's result for further checks.
fn assert_parity(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    plan: Option<&FaultPlan>,
) -> SimResult {
    let (step, step_prom, step_jsonl) = run_one(config, jobs, seed, plan, true);
    let (event, event_prom, event_jsonl) = run_one(config, jobs, seed, plan, false);
    assert!(
        step.same_simulation(&event),
        "loops diverged (seed {seed}): stepper {} records / {} intervals, \
         run {} records / {} intervals",
        step.records.len(),
        step.intervals.len(),
        event.records.len(),
        event.intervals.len()
    );
    assert_eq!(step_prom, event_prom, "Prometheus export diverged");
    assert_eq!(step_jsonl, event_jsonl, "JSONL journal diverged");
    step
}

/// A workload whose submissions leave long idle gaps — the skip's
/// best case.
fn sparse_jobs() -> Vec<JobSpec> {
    (0..8)
        .map(|i| JobSpec {
            id: i,
            app_index: (i % 5) as usize,
            size: 2 + (i % 3) as usize,
            runtime_tdp_s: 400.0 + 130.0 * i as f64,
            runtime_estimate_s: (400.0 + 130.0 * i as f64) * 1.3,
            // Hours of dead time between consecutive arrivals.
            submit_s: 7_200.0 * i as f64,
        })
        .collect()
}

#[test]
fn sparse_arrival_replay_matches_and_skips_dead_time() {
    let mut config = tardis_config(2.0, 24.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs = sparse_jobs();
    let step = assert_parity(&config, &jobs, 42, None);

    // The skip has to be observable — and impossible to disable
    // silently: an order of magnitude fewer policy decisions than
    // intervals, and the loop diagnostics must account for every one.
    let diag = Recorder::manual();
    let mut cluster = Cluster::new(config, jobs, 42).with_engine_recorder(diag.clone());
    let event = cluster.run(&mut FairPolicy::new());
    assert!(event.same_simulation(&step));
    assert_eq!(step.decision_times_s.len(), step.intervals.len());
    assert!(
        event.decision_times_s.len() * 10 < event.intervals.len(),
        "a sparse day must skip most control decisions ({} of {})",
        event.decision_times_s.len(),
        event.intervals.len()
    );
    let executed = diag.counter_value("perq_sim_intervals_executed_total");
    let skipped = diag.counter_value("perq_sim_intervals_skipped_total");
    assert_eq!(executed as usize, event.decision_times_s.len());
    assert_eq!((executed + skipped) as usize, event.intervals.len());
    assert!(
        diag.export_prometheus()
            .contains("perq_sim_wall_per_sim_day_seconds"),
        "a full simulated day must be timed"
    );
}

#[test]
fn recycled_interval_buffer_changes_nothing() {
    // Reusing a previous run's interval log (the allocation-recycling
    // path benchmark medians and repeated what-if replays use) must be
    // invisible in the results, under both loops — even when the donor
    // run came from a different workload.
    let mut config = tardis_config(2.0, 12.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs = sparse_jobs();
    let donor = TraceGenerator::new(SystemModel::tardis(), 3)
        .generate_saturating(config.nodes, config.duration_s);
    for stepper in [true, false] {
        let (fresh, fresh_prom, fresh_jsonl) = run_one(&config, &jobs, 42, None, stepper);
        let mut donor_cluster = Cluster::new(config.clone(), donor.clone(), 7);
        let buffer = run_cluster(&mut donor_cluster, &mut FairPolicy::new(), stepper).intervals;
        let recorder = Recorder::manual();
        let mut cluster = Cluster::new(config.clone(), jobs.clone(), 42)
            .with_recorder(recorder.clone())
            .with_recycled_intervals(buffer);
        let recycled = run_cluster(&mut cluster, &mut FairPolicy::new(), stepper);
        assert!(
            fresh.same_simulation(&recycled),
            "recycled buffer changed the results (stepper: {stepper})"
        );
        assert_eq!(fresh_prom, recorder.export_prometheus());
        assert_eq!(fresh_jsonl, recorder.export_jsonl());
    }
}

#[test]
fn saturated_workload_matches_with_faults() {
    let config = tardis_config(1.5, 2.0 * 3600.0);
    let jobs = TraceGenerator::new(SystemModel::tardis(), 9)
        .generate_saturating(config.nodes, config.duration_s);
    let steps = (config.duration_s / config.interval_s) as usize;
    let plan = FaultPlan::generate(13, steps, &FaultRates::aggressive());
    let result = assert_parity(&config, &jobs, 9, Some(&plan));
    assert!(
        !result.faults.is_empty(),
        "aggressive fault rates must inject something"
    );
}

#[test]
fn swf_fixture_replay_matches_the_stepper() {
    let text = std::fs::read_to_string(TARDIS_TINY_SWF).expect("fixture must exist");
    let report = perq_trace::parse_swf_report(&text, perq_trace::ParseMode::Lenient)
        .expect("fixture parses");
    for honor_arrivals in [false, true] {
        let (jobs, summary) = TraceSource::new(report.trace.clone(), 5)
            .with_arrivals(honor_arrivals)
            .jobs();
        assert!(summary.imported > 0);
        let mut config = tardis_config(2.0, 4.0 * 3600.0);
        config.honor_arrivals = honor_arrivals;
        assert_parity(&config, &jobs, 5, None);
    }
}

/// A policy that digests everything the simulator tells it: every
/// non-empty [`PolicyContext`] (all scalar fields and every job view,
/// floats by bit pattern) and every `job_departed`, in call order.
/// Empty contexts are not digested — an idle interval is exactly the
/// call the skip elides, and a policy must not be able to tell (the
/// zoo driver and every shipped policy treat it as a no-op).
struct DigestPolicy {
    inner: FairPolicy,
    digest: u64,
    calls: usize,
    departures: usize,
}

impl DigestPolicy {
    fn new() -> Self {
        DigestPolicy {
            inner: FairPolicy::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            calls: 0,
            departures: 0,
        }
    }

    fn mix(&mut self, word: u64) {
        self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl PowerPolicy for DigestPolicy {
    fn name(&self) -> &str {
        "DIGEST"
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        if !ctx.jobs.is_empty() {
            self.calls += 1;
            for word in [
                ctx.time_s.to_bits(),
                ctx.interval_s.to_bits(),
                ctx.busy_budget_w.to_bits(),
                ctx.cap_min_w.to_bits(),
                ctx.cap_max_w.to_bits(),
                ctx.total_nodes as u64,
                ctx.wp_nodes as u64,
                ctx.queue_depth as u64,
                ctx.violation_s.to_bits(),
                ctx.jobs.len() as u64,
            ] {
                self.mix(word);
            }
            for j in ctx.jobs {
                for word in [
                    j.id,
                    j.size as u64,
                    j.elapsed_s.to_bits(),
                    j.measured_ips.map_or(u64::MAX, f64::to_bits),
                    j.current_cap_w.to_bits(),
                    j.measured_power_w.map_or(u64::MAX, f64::to_bits),
                    j.remaining_node_hours.to_bits(),
                    j.is_new as u64,
                ] {
                    self.mix(word);
                }
            }
        }
        self.inner.assign(ctx)
    }

    fn job_departed(&mut self, job_id: u64) {
        self.departures += 1;
        self.mix(0xDEAD_0000_0000_0000 ^ job_id);
    }
}

#[test]
fn policies_see_the_same_call_stream_under_both_loops() {
    // Sparse arrivals under a diurnal budget curve with lying sensors:
    // the regime where the two loops' code paths differ most. The
    // policy-visible stream — contexts and departures — must not.
    let mut config = tardis_config(2.0, 12.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs = sparse_jobs();
    let steps = (config.duration_s / config.interval_s) as usize;
    let plan = FaultPlan::generate(5, steps, &FaultRates::adversarial_telemetry());
    let schedule = BudgetSchedule::diurnal(config.budget_w(), 0.8, 1.0, 3600.0, config.duration_s);
    let run = |stepper: bool| {
        let mut policy = DigestPolicy::new();
        let mut cluster = Cluster::new(config.clone(), jobs.clone(), 42)
            .with_fault_plan(plan.clone())
            .with_budget_schedule(schedule.clone());
        let result = run_cluster(&mut cluster, &mut policy, stepper);
        (result, policy)
    };
    let (step, step_policy) = run(true);
    let (skip, skip_policy) = run(false);
    assert!(step.same_simulation(&skip));
    assert!(!step.faults.is_empty(), "the plan must lie at least once");
    assert!(step_policy.calls > 0 && step_policy.departures > 0);
    assert_eq!(step_policy.calls, skip_policy.calls);
    assert_eq!(step_policy.departures, skip_policy.departures);
    assert_eq!(
        step_policy.digest, skip_policy.digest,
        "the skip changed what the policy was told"
    );
}

/// Random jobs with explicit arrival times: sizes, runtimes, and submit
/// gaps all drawn by proptest so the shrunk counterexample (if any) is
/// a minimal diverging workload.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_matches_stepper_on_random_arrival_workloads(
        jobs in arb_arrival_jobs(),
        seed in 0u64..1000,
        f in 1.0f64..2.0,
    ) {
        let mut config = tardis_config(f, 6.0 * 3600.0);
        config.honor_arrivals = true;
        assert_parity(&config, &jobs, seed, None);
    }

    #[test]
    fn run_matches_stepper_on_random_fault_plans(
        trace_seed in 0u64..200,
        plan_seed in 0u64..200,
        aggressive in proptest::bool::ANY,
    ) {
        let config = tardis_config(1.8, 3600.0);
        let jobs = TraceGenerator::new(SystemModel::tardis(), trace_seed)
            .generate_saturating(config.nodes, config.duration_s);
        let steps = (config.duration_s / config.interval_s) as usize;
        let rates = if aggressive {
            FaultRates::aggressive()
        } else {
            FaultRates::default()
        };
        let plan = FaultPlan::generate(plan_seed, steps, &rates);
        assert_parity(&config, &jobs, trace_seed, Some(&plan));
    }

    #[test]
    fn run_matches_stepper_on_saturated_random_traces(seed in 0u64..500) {
        let config = tardis_config(2.0, 1800.0);
        let jobs = TraceGenerator::new(SystemModel::tardis(), seed)
            .generate_saturating(config.nodes, config.duration_s);
        assert_parity(&config, &jobs, seed, None);
    }
}
