//! Hierarchical-simulator scaling: wall-clock of a 64-enclave epoch
//! loop at 1/2/4/8 enclave threads, the coordinator's solve cost per
//! round at growing enclave counts, and latency-bound fan-out (which
//! asserts the near-linear concurrency of `parallel_for_mut`
//! independently of the host's core count).
//!
//! Two modes:
//!
//! - Default (criterion): `cargo bench --bench hier_scaling`.
//! - Snapshot: `cargo bench --bench hier_scaling -- --snapshot`
//!   hand-times the sections and writes `BENCH_hier.json` at the repo
//!   root (the committed artifact).
//!
//! Every thread count is asserted to produce the same grant rounds and
//! `same_simulation` enclave results before its timing is recorded.

use criterion::{criterion_group, Criterion};
use perq_bench::timing::wall_s;
use perq_core::CouplingAuthority;
use perq_sim::{
    parallel_for_mut, BudgetAuthority, ClusterConfig, EnclaveDemand, FairPolicy, GrantContext,
    HierResult, HierSim, HierTopology, JobSpec, PowerPolicy, SystemModel, TraceGenerator,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A 256-node machine over a 128-node budget: 64 four-node enclaves,
/// the widest legal partition for Tardis-sized (≤ 4 node) jobs.
fn wide_config(duration_s: f64) -> ClusterConfig {
    let mut config = ClusterConfig::for_system(&SystemModel::tardis(), 2.0, duration_s);
    config.nodes = 256;
    config.wp_nodes = 128;
    config
}

fn wide_jobs(config: &ClusterConfig) -> Vec<JobSpec> {
    TraceGenerator::new(SystemModel::tardis(), 11)
        .generate_saturating(config.nodes, config.duration_s)
}

fn run_wide(config: &ClusterConfig, jobs: &[JobSpec], threads: usize) -> HierResult {
    let policies: Vec<Box<dyn PowerPolicy + Send>> = (0..64)
        .map(|_| Box::new(FairPolicy::new()) as Box<dyn PowerPolicy + Send>)
        .collect();
    HierSim::new(
        config.clone(),
        jobs.to_vec(),
        11,
        HierTopology::enclaves(64),
        policies,
    )
    .with_threads(threads)
    .run()
}

fn bench_hier(c: &mut Criterion) {
    let config = wide_config(900.0);
    let jobs = wide_jobs(&config);
    let mut group = c.benchmark_group("hier_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        group.bench_function(format!("enclave-threads/{threads}"), |b| {
            b.iter(|| run_wide(&config, &jobs, threads))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hier);

/// The 64-enclave epoch loop timed at each enclave thread count, with
/// the determinism cross-check. Returns JSON rows.
fn epoch_section() -> Vec<String> {
    let config = wide_config(2.0 * 3600.0);
    let jobs = wide_jobs(&config);
    let mut rows = Vec::new();
    let mut serial_s = 0.0;
    let mut serial: Option<HierResult> = None;
    for threads in THREAD_COUNTS {
        let mut result = None;
        let t = wall_s(|| result = Some(run_wide(&config, &jobs, threads)));
        let result = result.expect("run completed");
        match &serial {
            None => {
                serial_s = t;
                serial = Some(result);
            }
            Some(reference) => {
                assert_eq!(reference.rounds, result.rounds, "grant rounds diverged");
                for (a, b) in reference.enclaves.iter().zip(result.enclaves.iter()) {
                    assert!(
                        a.same_simulation(b),
                        "an enclave diverged at {threads} threads"
                    );
                }
            }
        }
        let speedup = serial_s / t;
        println!(
            "epochs   threads={threads}: {t:7.2} s  (speedup {speedup:4.2}x, results identical)"
        );
        rows.push(format!(
            "{{\"threads\": {threads}, \"wall_s\": {t:.4}, \"speedup_vs_serial\": {speedup:.3}}}"
        ));
    }
    rows
}

/// Coordinator solve cost per round at growing enclave counts: the
/// coupling QP over synthetic saturated demand summaries.
fn coordinator_section() -> Vec<String> {
    let mut rows = Vec::new();
    for enclaves in [8usize, 64, 256, 1024] {
        let ctx = GrantContext {
            time_s: 0.0,
            budget_w: 290.0 * 2.0 * enclaves as f64,
            tdp_w: 290.0,
            cap_min_w: 80.0,
            idle_w: 45.0,
        };
        let demands: Vec<EnclaveDemand> = (0..enclaves)
            .map(|e| EnclaveDemand {
                enclave: e,
                tenant: e % 3,
                weight: 1.0 + (e % 3) as f64,
                wp_nodes: 2,
                live_nodes: 4,
                busy_nodes: 4,
                pending_jobs: 3,
                floor_w: 4.0 * 80.0,
                ceil_w: 4.0 * 290.0,
            })
            .collect();
        let mut authority = CouplingAuthority::new();
        const ROUNDS: usize = 50;
        let t = wall_s(|| {
            for _ in 0..ROUNDS {
                let grants = authority.grant(&ctx, &demands);
                assert_eq!(grants.len(), enclaves);
            }
        });
        let per_round_us = 1e6 * t / ROUNDS as f64;
        println!("solver   enclaves={enclaves}: {per_round_us:8.1} us/round (warm-started)");
        rows.push(format!(
            "{{\"enclaves\": {enclaves}, \"us_per_round\": {per_round_us:.2}}}"
        ));
    }
    rows
}

/// Latency-bound fan-out through `parallel_for_mut` (each enclave
/// "epoch" sleeps a fixed 40 ms): measures true concurrency and
/// dispatch overhead independently of core count, and asserts the
/// near-linear scaling the epoch loop's determinism is supposed to
/// come at no concurrency cost.
fn fanout_section() -> Vec<String> {
    const ITEMS: usize = 16;
    const SLEEP_MS: u64 = 40;
    let mut rows = Vec::new();
    let mut serial_s = 0.0;
    for threads in THREAD_COUNTS {
        let mut items: Vec<u64> = (0..ITEMS as u64).collect();
        let t = wall_s(|| {
            parallel_for_mut(&mut items, threads, |i, x| {
                std::thread::sleep(std::time::Duration::from_millis(SLEEP_MS));
                *x += i as u64;
            });
        });
        assert_eq!(items, (0..ITEMS as u64).map(|x| x * 2).collect::<Vec<_>>());
        if threads == 1 {
            serial_s = t;
        }
        let speedup = serial_s / t;
        println!("fan-out  threads={threads}: {t:7.2} s  (speedup {speedup:4.2}x)");
        if threads == 8 {
            assert!(
                speedup >= 4.0,
                "latency-bound fan-out must scale near-linearly (got {speedup:.2}x at 8 threads)"
            );
        }
        rows.push(format!(
            "{{\"threads\": {threads}, \"wall_s\": {t:.4}, \"speedup_vs_serial\": {speedup:.3}}}"
        ));
    }
    rows
}

fn snapshot() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hier_scaling snapshot (host cores: {host_cores})");
    let epoch_rows = epoch_section();
    let coordinator_rows = coordinator_section();
    let fanout_rows = fanout_section();
    // Hand-formatted JSON: the snapshot must also run in minimal
    // environments where serde_json is stubbed out.
    let doc = format!(
        "{{\n  \"bench\": \"hier_scaling\",\n  \"description\": \"Hierarchical simulator \
         wall-clock at 1/2/4/8 enclave threads (64 four-node enclaves, 256 nodes, Tardis node \
         model, 2 h saturated), coupling-QP coordinator solve cost per round at growing enclave \
         counts, and latency-bound fan-out through parallel_for_mut. Grant rounds and enclave \
         results are asserted identical across thread counts before timings are recorded; the \
         fan-out section asserts >= 4x speedup at 8 threads.\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"note\": \"CPU-bound epoch speedup is bounded by host_cores; the fan-out section \
         measures the engine's concurrency with latency-bound epochs, which is \
         core-count-independent.\",\n  \"epochs\": [\n    {}\n  ],\n  \
         \"coordinator\": [\n    {}\n  ],\n  \"fanout\": [\n    {}\n  ]\n}}\n",
        epoch_rows.join(",\n    "),
        coordinator_rows.join(",\n    "),
        fanout_rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hier.json");
    std::fs::write(path, doc).unwrap();
    println!("wrote {path}");
}

fn main() {
    if std::env::args().any(|a| a == "--snapshot") {
        snapshot();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
