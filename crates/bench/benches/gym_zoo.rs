//! The policy-zoo ablation snapshot: every `perq-gym` zoo policy
//! crossed with the five evaluation regimes (sparse Mira, dense Tardis,
//! SWF replay, carbon-diurnal budget, adversarial telemetry), run on
//! the campaign engine.
//!
//! Two modes:
//!
//! - Default (criterion): `cargo bench --bench gym_zoo` times single
//!   zoo episodes per policy.
//! - Snapshot: `cargo bench --bench gym_zoo -- --snapshot` runs the
//!   full 4 × 5 grid at 1/2/4 campaign threads, asserts the results are
//!   byte-identical across thread counts, and writes `BENCH_gym.json`
//!   at the repo root (the committed artifact).

use criterion::{criterion_group, Criterion};
use perq_campaign::{ablation_table, run_campaign, zoo_ablation_grid, CampaignOptions};
use perq_gym::{EnvConfig, GymEnv, ZooSpec};
use perq_telemetry::Recorder;
use std::time::Instant;

const SEED: u64 = 7;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn swf_fixture() -> String {
    format!(
        "{}/../trace/fixtures/tardis_tiny.swf",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn bench_episodes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gym_zoo");
    group.sample_size(10);
    for spec in [ZooSpec::FairShare, ZooSpec::bandit(SEED), ZooSpec::perq()] {
        let name = spec.name().to_string();
        group.bench_function(format!("episode/{name}"), |b| {
            let mut agent = spec.build(None);
            let mut env = GymEnv::new(EnvConfig::tardis(SEED)).without_capture();
            b.iter(|| env.run_episode(&mut *agent))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_episodes);

/// One full-grid campaign run; returns (wall seconds, per-cell digests,
/// the rendered table).
fn run_grid(threads: usize) -> (f64, Vec<String>, perq_campaign::AblationTable) {
    let fixture = swf_fixture();
    let grid = zoo_ablation_grid(SEED, Some(&fixture));
    let recorder = Recorder::manual();
    let t0 = Instant::now();
    let outcomes = run_campaign(
        &grid,
        &CampaignOptions {
            threads,
            ..Default::default()
        },
        &recorder,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let table = ablation_table(&outcomes);
    let mut digests: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{}/{}: completed={} violation_s={:.3}",
                o.scenario.name,
                o.result.policy,
                o.result.throughput(),
                o.result.budget_violation_s
            )
        })
        .collect();
    digests.push(recorder.export_prometheus());
    (wall_s, digests, table)
}

fn snapshot() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("gym_zoo snapshot (host cores: {host_cores})");

    let mut wall_rows = Vec::new();
    let mut serial: Option<(f64, Vec<String>, perq_campaign::AblationTable)> = None;
    for threads in THREAD_COUNTS {
        let (wall_s, digests, table) = run_grid(threads);
        if let Some((serial_s, serial_digests, serial_table)) = &serial {
            assert_eq!(
                serial_digests, &digests,
                "ablation results diverged at {threads} threads"
            );
            assert_eq!(serial_table, &table, "table diverged at {threads} threads");
            println!(
                "grid threads={threads}: {wall_s:7.2} s  (speedup {:4.2}x, byte-identical)",
                serial_s / wall_s
            );
            wall_rows.push(format!(
                "{{\"threads\": {threads}, \"wall_s\": {wall_s:.4}, \
                 \"speedup_vs_serial\": {:.3}}}",
                serial_s / wall_s
            ));
        } else {
            println!("grid threads={threads}: {wall_s:7.2} s");
            wall_rows.push(format!(
                "{{\"threads\": {threads}, \"wall_s\": {wall_s:.4}, \
                 \"speedup_vs_serial\": 1.000}}"
            ));
            serial = Some((wall_s, digests, table));
        }
    }
    let (_, _, table) = serial.expect("at least one thread count ran");

    print!("{}", table.render());

    let cell_rows: Vec<String> = table
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"regime\": \"{}\", \"policy\": \"{}\", \"completed\": {}, \
                 \"violation_s\": {:.3}, \"mean_runtime_s\": {:.3}}}",
                c.regime, c.policy, c.completed, c.violation_s, c.mean_runtime_s
            )
        })
        .collect();

    // Hand-formatted JSON so the snapshot also runs in minimal
    // environments where serde_json is stubbed out.
    let doc = format!(
        "{{\n  \"bench\": \"gym_zoo\",\n  \"description\": \"Policy-zoo ablation: four perq-gym \
         policies (fair-share, greedy, tabular-Q bandit, wrapped PERQ) \
         crossed with five evaluation regimes (sparse Mira, dense Tardis, SWF replay, \
         carbon-diurnal budget, adversarial telemetry), run on the deterministic campaign \
         engine. Results are asserted byte-identical at 1/2/4 worker threads before anything \
         is recorded; regenerate with cargo bench --bench gym_zoo -- --snapshot (or inspect \
         live with perq zoo).\",\n  \"host_cores\": {host_cores},\n  \"seed\": {SEED},\n  \
         \"wall\": [\n    {}\n  ],\n  \"cells\": [\n    {}\n  ]\n}}\n",
        wall_rows.join(",\n    "),
        cell_rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gym.json");
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
