//! Time-varying budget schedules: the schedule must change the physics
//! (differential vs the flat budget), stay identical between `run` and
//! the `run_stepper` oracle down to the exported byte, and surface
//! through the policy context exactly like the flat budget does. Also
//! pins the two new [`PolicyContext`]
//! observables (`queue_depth`, `violation_s`) the gym builds rewards
//! from.

use perq_sim::{
    BudgetSchedule, Cluster, ClusterConfig, FairPolicy, JobSpec, PolicyContext, PowerAssignment,
    PowerPolicy, SimResult, SystemModel, TraceGenerator,
};
use perq_telemetry::Recorder;
use proptest::prelude::*;

fn tardis_config(f: f64, duration_s: f64) -> ClusterConfig {
    ClusterConfig::for_system(&SystemModel::tardis(), f, duration_s)
}

/// Jobs with hours of dead time between arrivals, so the
/// bulk idle skip (and its budget-gauge writes) is actually exercised
/// while the schedule steps through levels.
fn sparse_jobs() -> Vec<JobSpec> {
    (0..6)
        .map(|i| JobSpec {
            id: i,
            app_index: (i % 5) as usize,
            size: 2 + (i % 3) as usize,
            runtime_tdp_s: 500.0 + 170.0 * i as f64,
            runtime_estimate_s: (500.0 + 170.0 * i as f64) * 1.3,
            submit_s: 5_400.0 * i as f64,
        })
        .collect()
}

fn run_one(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    schedule: Option<&BudgetSchedule>,
    stepper: bool,
) -> (SimResult, String, String) {
    let recorder = Recorder::manual();
    let mut cluster =
        Cluster::new(config.clone(), jobs.to_vec(), seed).with_recorder(recorder.clone());
    if let Some(s) = schedule {
        cluster = cluster.with_budget_schedule(s.clone());
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

#[test]
fn schedule_changes_the_simulation_and_flat_schedule_does_not() {
    let config = tardis_config(2.0, 4.0 * 3600.0);
    let jobs = TraceGenerator::new(SystemModel::tardis(), 11)
        .generate_saturating(config.nodes, config.duration_s);

    let (base, base_prom, _) = run_one(&config, &jobs, 11, None, false);

    // A flat schedule at exactly the configured budget is the identity.
    let flat = BudgetSchedule::flat(config.budget_w());
    let (flat_res, flat_prom, _) = run_one(&config, &jobs, 11, Some(&flat), false);
    assert!(
        base.same_simulation(&flat_res),
        "flat schedule must be a no-op"
    );
    assert_eq!(base_prom, flat_prom);

    // A diurnal curve with scarce hours must actually bite: the fair
    // share drops with the budget, so the runs diverge.
    let diurnal = BudgetSchedule::diurnal(config.budget_w(), 0.8, 1.0, 1800.0, config.duration_s);
    let (tight, tight_prom, _) = run_one(&config, &jobs, 11, Some(&diurnal), false);
    assert!(
        !base.same_simulation(&tight),
        "a 20% scarce-hour budget cut must change the simulation"
    );
    assert_ne!(base_prom, tight_prom);
    // FOP divides whatever budget is in force; it never violates either.
    assert_eq!(tight.budget_violations, 0);
}

#[test]
fn scheduled_sparse_replay_matches_the_stepper() {
    // The regression this pins: during a bulk idle skip the stepper's
    // last budget-gauge write is at the final idle interval, not at the
    // wake step — under a schedule those can be different levels.
    let mut config = tardis_config(2.0, 10.0 * 3600.0);
    config.honor_arrivals = true;
    let jobs = sparse_jobs();
    let schedule = BudgetSchedule::diurnal(config.budget_w(), 0.85, 1.0, 3600.0, config.duration_s);
    let (step, step_prom, step_jsonl) = run_one(&config, &jobs, 42, Some(&schedule), true);
    let (event, event_prom, event_jsonl) = run_one(&config, &jobs, 42, Some(&schedule), false);
    assert!(
        step.same_simulation(&event),
        "run diverged from the stepper under a schedule"
    );
    assert_eq!(step_prom, event_prom, "Prometheus export diverged");
    assert_eq!(step_jsonl, event_jsonl, "JSONL journal diverged");
}

#[test]
#[should_panic(expected = "idle")]
fn schedule_below_idle_floor_is_rejected() {
    let config = tardis_config(2.0, 3600.0);
    let jobs = sparse_jobs();
    // 10 W for the whole machine cannot even idle it.
    let schedule = BudgetSchedule::piecewise(vec![(0.0, config.budget_w()), (600.0, 10.0)]);
    let _ = Cluster::new(config, jobs, 1).with_budget_schedule(schedule);
}

/// Records the cluster-level observables each decision instance while
/// delegating the actual decision.
struct ProbePolicy {
    inner: FairPolicy,
    queue_depths: Vec<usize>,
    violation_s: Vec<f64>,
    over_commit: bool,
}

impl PowerPolicy for ProbePolicy {
    fn name(&self) -> &str {
        "PROBE"
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        self.queue_depths.push(ctx.queue_depth);
        self.violation_s.push(ctx.violation_s);
        if self.over_commit {
            // Pin every job at TDP: with all nodes busy at f = 2 the
            // consumed power exceeds the budget every interval.
            ctx.jobs
                .iter()
                .map(|_| PowerAssignment::cap(ctx.cap_max_w))
                .collect()
        } else {
            self.inner.assign(ctx)
        }
    }
}

#[test]
fn context_exposes_queue_depth_and_violation_seconds() {
    let config = tardis_config(2.0, 1800.0);
    let jobs = TraceGenerator::new(SystemModel::tardis(), 3)
        .generate_saturating(config.nodes, config.duration_s);
    let mut probe = ProbePolicy {
        inner: FairPolicy::new(),
        queue_depths: Vec::new(),
        violation_s: Vec::new(),
        over_commit: true,
    };
    let result = Cluster::new(config.clone(), jobs, 3).run(&mut probe);

    // Saturated queue on a small machine: the backlog is visible.
    assert!(
        probe.queue_depths.first().copied().unwrap_or(0) > 0,
        "saturated workload must show a non-empty queue at the first decision"
    );
    // The over-committing policy violates; the running total the policy
    // observes is monotone, starts at zero (first decision precedes any
    // interval), and ends one interval behind the final tally.
    assert!(result.budget_violations > 0);
    assert_eq!(probe.violation_s[0], 0.0);
    assert!(probe.violation_s.windows(2).all(|w| w[1] >= w[0]));
    let last = *probe.violation_s.last().unwrap();
    assert!(
        last > 0.0 && last <= result.budget_violation_s,
        "observed violation seconds {last} vs final {}",
        result.budget_violation_s
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn run_matches_stepper_on_random_schedules(
        seed in 0u64..200,
        low in 0.75f64..1.0,
        period_s in 600.0f64..7200.0,
    ) {
        let mut config = tardis_config(2.0, 6.0 * 3600.0);
        config.honor_arrivals = true;
        let jobs = sparse_jobs();
        let schedule =
            BudgetSchedule::diurnal(config.budget_w(), low, 1.0, period_s, config.duration_s);
        let (step, step_prom, step_jsonl) = run_one(&config, &jobs, seed, Some(&schedule), true);
        let (event, event_prom, event_jsonl) =
            run_one(&config, &jobs, seed, Some(&schedule), false);
        prop_assert!(step.same_simulation(&event));
        prop_assert_eq!(step_prom, event_prom);
        prop_assert_eq!(step_jsonl, event_jsonl);
    }
}
