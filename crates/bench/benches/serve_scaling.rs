//! Control-plane scaling: per-tick latency of the perq-serve event loop
//! at 64 → 8192 in-memory workers.
//!
//! The rig is the loopback harness shape: a [`perq_serve::Server`] over
//! the deterministic [`perq_serve::MemPoller`], one sans-io
//! [`perq_serve::SwarmWorker`] per node on a bounded duplex pipe. Each
//! measured round is: pump every pending report into the batch, run the
//! decide tick, fan the caps out — with only the server's own wall time
//! (pump + tick) attributed to the tick latency, since worker stepping
//! is harness cost a real deployment pays on other machines.
//!
//! Two modes:
//!
//! - Default (criterion): `cargo bench --bench serve_scaling`.
//! - Snapshot: `cargo bench --bench serve_scaling -- --snapshot` writes
//!   `BENCH_serve.json` at the repo root, one FOP and one PERQ row per
//!   size, and asserts the paper-shaped acceptance bound on both: p99
//!   tick latency at 8192 workers stays under one 50 ms decide interval.

use criterion::{criterion_group, Criterion};
use perq_bench::timing::percentile;
use perq_serve::{
    make_policy, mem_pair, MemIo, MemPoller, ServeConfig, Server, SwarmStatus, SwarmWorker,
};
use perq_telemetry::Recorder;
use std::time::{Duration, Instant};

const PIPE_CAP: usize = 16 * 1024;
const DECIDE_INTERVAL_S: f64 = 0.050;

struct Rig {
    server: Server<MemPoller>,
    workers: Vec<SwarmWorker<MemIo>>,
    scratch: Vec<u8>,
}

fn build_rig(nodes: u32, policy: &str) -> Rig {
    // Half the workers' worth of budget, so PERQ's caps bind and its
    // dither moves every cap every tick; FOP then holds one constant cap.
    let cfg = ServeConfig {
        wp_nodes: nodes as usize / 2,
        ..ServeConfig::default()
    };
    let server = Server::with_recorders(
        MemPoller::new(0),
        cfg,
        make_policy(policy).unwrap(),
        Recorder::noop(),
        Recorder::noop(),
    );
    let mut rig = Rig {
        server,
        workers: Vec::with_capacity(nodes as usize),
        scratch: vec![0u8; 64 * 1024],
    };
    for node_id in 0..nodes {
        let (server_io, worker_io) = mem_pair(PIPE_CAP);
        rig.server.attach_worker(server_io).unwrap();
        rig.workers.push(SwarmWorker::new(
            node_id,
            perq_apps::ecp_suite(),
            1.0,
            42,
            worker_io,
        ));
    }
    rig
}

/// One full control round: settle all in-flight frames, then tick.
/// Returns (server wall seconds, frames the server handled).
fn round(rig: &mut Rig) -> (f64, u64) {
    let mut server_s = 0.0;
    let mut frames = 0u64;
    loop {
        let t0 = Instant::now();
        let handled = rig.server.pump(Some(Duration::ZERO)).unwrap().handled;
        server_s += t0.elapsed().as_secs_f64();
        frames += handled as u64;
        let mut any = handled > 0;
        for w in rig.workers.iter_mut() {
            if w.finished().is_none() && w.step(&mut rig.scratch) == SwarmStatus::Progress {
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    let t0 = Instant::now();
    rig.server.tick();
    server_s += t0.elapsed().as_secs_f64();
    (server_s, frames)
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_scaling");
    group.sample_size(20);
    for nodes in [64u32, 1024] {
        let mut rig = build_rig(nodes, "fop");
        round(&mut rig); // registration + first launch settle
        group.bench_function(format!("tick/{nodes}"), |b| b.iter(|| round(&mut rig)));
    }
    group.finish();
}

criterion_group!(benches, bench_serve);

fn snapshot() {
    const TICKS: usize = 20;
    const WARMUP: usize = 3;
    let mut rows = Vec::new();
    for (nodes, policy) in [64u32, 512, 2048, 8192]
        .into_iter()
        .flat_map(|n| [(n, "fop"), (n, "perq")])
    {
        let mut rig = build_rig(nodes, policy);
        for _ in 0..WARMUP {
            round(&mut rig);
        }
        let mut lat = Vec::with_capacity(TICKS);
        let mut frames = 0u64;
        let mut total_s = 0.0;
        for _ in 0..TICKS {
            let (s, f) = round(&mut rig);
            lat.push(s);
            frames += f;
            total_s += s;
        }
        assert_eq!(
            rig.server.live_nodes(),
            nodes as usize,
            "a worker died mid-bench"
        );
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = percentile(&lat, 50.0);
        let p99 = percentile(&lat, 99.0);
        let frames_per_s = frames as f64 / total_s;
        println!(
            "serve    nodes={nodes:5} {policy:4}: p50 {:8.3} ms  p99 {:8.3} ms  \
             {frames_per_s:10.0} frames/s",
            1e3 * p50,
            1e3 * p99
        );
        if nodes == 8192 {
            assert!(
                p99 < DECIDE_INTERVAL_S,
                "{policy}: p99 tick latency at 8192 workers ({:.3} ms) exceeds one 50 ms \
                 decide interval",
                1e3 * p99
            );
        }
        rows.push(format!(
            "{{\"nodes\": {nodes}, \"policy\": \"{policy}\", \"p50_tick_ms\": {:.4}, \
             \"p99_tick_ms\": {:.4}, \"frames_per_sec\": {frames_per_s:.0}}}",
            1e3 * p50,
            1e3 * p99
        ));
    }
    // Hand-formatted JSON: the snapshot must also run in minimal
    // environments where serde_json is stubbed out.
    let doc = format!(
        "{{\n  \"bench\": \"serve_scaling\",\n  \"description\": \"perq-serve event-loop tick \
         latency over the deterministic in-memory poller at 64-8192 sans-io workers, under FOP \
         and under PERQ, with half the workers' worth of budget (one report per worker per \
         tick). Latency counts only the server's own pump+decide wall time; worker stepping is \
         harness cost. p99 at 8192 workers is asserted under one 50 ms decide interval for \
         both policies.\",\n  {},\n  \"ticks_per_size\": {TICKS},\n  \"scaling\": [\n    {}\n  \
         ]\n}}\n",
        perq_bench::snapshot_header(),
        rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
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
