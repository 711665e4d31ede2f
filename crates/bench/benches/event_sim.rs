//! Idle-skip speedup: `Cluster::run` against its `run_stepper` oracle
//! on workloads at both ends of the density spectrum.
//!
//! Two modes:
//!
//! - Default (criterion): `cargo bench --bench event_sim`.
//! - Snapshot: `cargo bench --bench event_sim -- --snapshot` times the
//!   headline rows and writes `BENCH_event_sim.json` at the repo root
//!   (the committed artifact).
//!
//! Every timed pair is asserted equivalent first — `same_simulation`
//! plus byte-identical Prometheus and JSONL exports — so the snapshot
//! can never record the speed of a wrong answer.
//!
//! The two regimes:
//!
//! - **Sparse**: a year of Mira with a thin arrival stream. Almost
//!   every control interval is dead time; `run` jumps between
//!   arrivals and bulk-synthesizes the idle interval logs. This is
//!   where "a year in seconds" comes from (gate: ≥ 20x).
//! - **Dense**: a saturated Tardis trace. Nothing can be skipped, so
//!   `run` must track the stepper's wall-clock (gate: ratio within
//!   1.0 ± 0.1).

use criterion::{criterion_group, Criterion};
use perq_bench::timing::wall_s;
use perq_sim::{
    Cluster, ClusterConfig, FairPolicy, JobSpec, PowerPolicy, SimResult, SystemModel,
    TraceGenerator,
};
use perq_telemetry::Recorder;

/// The two loops under comparison.
#[derive(Clone, Copy)]
enum Loop {
    /// `Cluster::run_stepper`: every interval executes.
    Stepper,
    /// `Cluster::run`: idle intervals are skipped.
    Run,
}

impl Loop {
    fn name(self) -> &'static str {
        match self {
            Loop::Stepper => "run_stepper",
            Loop::Run => "run",
        }
    }

    fn run(self, cluster: &mut Cluster, policy: &mut dyn PowerPolicy) -> SimResult {
        match self {
            Loop::Stepper => cluster.run_stepper(policy),
            Loop::Run => cluster.run(policy),
        }
    }
}

/// A thin arrival stream across `duration_s`: `n_jobs` jobs capped at
/// 20 minutes with hours of dead time between consecutive submissions,
/// so busy intervals are a small sliver of the horizon.
fn sparse_jobs(system: &SystemModel, duration_s: f64, n_jobs: usize, seed: u64) -> Vec<JobSpec> {
    let mut jobs = TraceGenerator::new(system.clone(), seed).generate(n_jobs);
    let gap_s = duration_s / (n_jobs as f64 + 1.0);
    for (i, job) in jobs.iter_mut().enumerate() {
        job.submit_s = gap_s * (i as f64 + 0.5);
        job.runtime_tdp_s = job.runtime_tdp_s.min(1200.0);
        job.runtime_estimate_s = job.runtime_tdp_s * 1.3;
    }
    jobs
}

/// One run with live telemetry, returning the result and both export
/// encodings.
fn run_one(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
    which: Loop,
) -> (SimResult, String, String) {
    let recorder = Recorder::manual();
    let mut cluster =
        Cluster::new(config.clone(), jobs.to_vec(), seed).with_recorder(recorder.clone());
    let result = which.run(&mut cluster, &mut FairPolicy::new());
    (
        result,
        recorder.export_prometheus(),
        recorder.export_jsonl(),
    )
}

/// Asserts the two loops agree on this workload — simulation state and
/// export bytes — before anything is timed.
fn assert_equivalent(
    config: &ClusterConfig,
    jobs: &[JobSpec],
    seed: u64,
) -> (SimResult, SimResult) {
    let (step, step_prom, step_jsonl) = run_one(config, jobs, seed, Loop::Stepper);
    let (event, event_prom, event_jsonl) = run_one(config, jobs, seed, Loop::Run);
    assert!(
        step.same_simulation(&event),
        "run diverged from run_stepper"
    );
    assert_eq!(step_prom, event_prom, "Prometheus export diverged");
    assert_eq!(step_jsonl, event_jsonl, "JSONL journal diverged");
    (step, event)
}

/// Median wall-clock of `runs` timing runs of one loop, with live
/// telemetry attached — the configuration the byte-identity contract
/// covers, and how instrumented campaigns actually run. The stepper
/// pays the recorder on every interval; `run` folds a whole idle gap
/// into one recorder update. Each run recycles the previous
/// run's interval log (`with_recycled_intervals`), so the median
/// measures the simulator, not the kernel zeroing a fresh ~150 MB
/// first-touch allocation per run — the first (cold) sample falls out
/// of the median.
fn time_loop(config: &ClusterConfig, jobs: &[JobSpec], seed: u64, which: Loop, runs: usize) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    let mut recycled = Vec::new();
    for _ in 0..runs {
        let mut cluster = Cluster::new(config.clone(), jobs.to_vec(), seed)
            .with_recorder(Recorder::manual())
            .with_recycled_intervals(std::mem::take(&mut recycled));
        let mut policy = FairPolicy::new();
        let mut result = None;
        samples.push(wall_s(|| {
            result = Some(which.run(&mut cluster, &mut policy));
        }));
        recycled = result.expect("run completed").intervals;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// The headline row: a year of Mira under a sparse arrival stream.
fn sparse_row(hours: f64, n_jobs: usize) -> String {
    let system = SystemModel::mira();
    let duration_s = hours * 3600.0;
    let mut config = ClusterConfig::for_system(&system, 2.0, duration_s);
    config.honor_arrivals = true;
    let jobs = sparse_jobs(&system, duration_s, n_jobs, 11);

    let (step_result, event_result) = assert_equivalent(&config, &jobs, 11);
    let intervals = step_result.intervals.len();
    let decided = event_result.decision_times_s.len();

    // The step baseline walks every interval of the year; a median of
    // three keeps a one-off scheduler hiccup out of the denominator.
    let step_s = time_loop(&config, &jobs, 11, Loop::Stepper, 3);
    let run_s = time_loop(&config, &jobs, 11, Loop::Run, 3);
    let speedup = step_s / run_s;
    println!(
        "sparse   {} h of {} ({} jobs): run_stepper {step_s:7.2} s, run {run_s:7.3} s \
         ({speedup:6.1}x, {decided} of {intervals} intervals decided)",
        hours, system.name, n_jobs
    );
    assert!(
        speedup >= 20.0,
        "gate: the sparse year must run >= 20x faster than the stepper, got {speedup:.1}x"
    );
    format!(
        "{{\"regime\": \"sparse\", \"system\": \"{}\", \"hours\": {hours}, \"jobs\": {n_jobs}, \
         \"intervals\": {intervals}, \"intervals_decided\": {decided}, \
         \"stepper_wall_s\": {step_s:.4}, \"run_wall_s\": {run_s:.4}, \
         \"speedup\": {speedup:.2}}}",
        system.name
    )
}

/// The adversarial row: a saturated machine, where no interval can be
/// skipped and the idle check's overhead must stay in the noise.
fn dense_row(hours: f64) -> String {
    let system = SystemModel::tardis();
    let duration_s = hours * 3600.0;
    let config = ClusterConfig::for_system(&system, 2.0, duration_s);
    let jobs =
        TraceGenerator::new(system.clone(), 11).generate_saturating(config.nodes, duration_s);

    let (step_result, event_result) = assert_equivalent(&config, &jobs, 11);
    let intervals = step_result.intervals.len();
    let decided = event_result.decision_times_s.len();

    // Medians of seven: the two loops run the same work here, so the
    // ratio is pure noise floor — single-digit-percent wobble on a
    // shared host would otherwise dominate it.
    let step_s = time_loop(&config, &jobs, 11, Loop::Stepper, 7);
    let run_s = time_loop(&config, &jobs, 11, Loop::Run, 7);
    let ratio = run_s / step_s;
    println!(
        "dense    {} h of {} ({} jobs): run_stepper {step_s:7.3} s, run {run_s:7.3} s \
         (run/stepper {ratio:5.3}, {decided} of {intervals} intervals decided)",
        hours,
        system.name,
        jobs.len()
    );
    assert!(
        (ratio - 1.0).abs() <= 0.1,
        "gate: on a saturated trace run must cost what the stepper costs, got {ratio:.3}"
    );
    format!(
        "{{\"regime\": \"dense\", \"system\": \"{}\", \"hours\": {hours}, \"jobs\": {}, \
         \"intervals\": {intervals}, \"intervals_decided\": {decided}, \
         \"stepper_wall_s\": {step_s:.4}, \"run_wall_s\": {run_s:.4}, \
         \"run_over_stepper\": {ratio:.3}}}",
        system.name,
        jobs.len()
    )
}

fn snapshot() {
    let header = perq_bench::snapshot_header();
    println!("event_sim snapshot\n  {header}");
    let sparse = sparse_row(8760.0, 120);
    let dense = dense_row(96.0);
    // Hand-formatted JSON: the snapshot must also run in minimal
    // environments where serde_json is stubbed out.
    let doc = format!(
        "{{\n  \"bench\": \"event_sim\",\n  \"description\": \"Cluster::run (idle intervals \
         skipped) vs its every-interval oracle Cluster::run_stepper, wall-clock. Sparse: one \
         year of Mira under a thin arrival stream (run skips dead intervals and \
         bulk-synthesizes their logs). Dense: a saturated Tardis trace where nothing is \
         skippable. Each pair is asserted equivalent — same_simulation plus byte-identical \
         Prometheus/JSONL exports — before timing; both gates are asserted before the file \
         is written.\",\n  {header},\n  \
         \"acceptance\": \"sparse speedup >= 20x; dense run_over_stepper within 1.0 +/- 0.1\",\n  \
         \"rows\": [\n    {sparse},\n    {dense}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_event_sim.json");
    std::fs::write(path, doc).unwrap();
    println!("wrote {path}");
}

fn bench_loops(c: &mut Criterion) {
    let system = SystemModel::tardis();
    let duration_s = 24.0 * 3600.0;
    let mut config = ClusterConfig::for_system(&system, 2.0, duration_s);
    config.honor_arrivals = true;
    let jobs = sparse_jobs(&system, duration_s, 12, 7);
    assert_equivalent(&config, &jobs, 7);
    let mut group = c.benchmark_group("event_sim_sparse_day");
    group.sample_size(10);
    for which in [Loop::Stepper, Loop::Run] {
        group.bench_function(which.name(), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(config.clone(), jobs.clone(), 7);
                which.run(&mut cluster, &mut FairPolicy::new())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_loops);

fn main() {
    if std::env::args().any(|a| a == "--snapshot") {
        snapshot();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
