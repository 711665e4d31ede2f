//! `perq-benchmark`: the reference benchmark of the PERQ reproduction.
//!
//! ```text
//! perq-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
//! perq-benchmark run [--seed N] [--seconds S] [--out FILE] [--smoke]     every workload, both passes
//! perq-benchmark compare A.jsonl B.jsonl
//! perq-benchmark manifest                                                prints BENCHMARK.json
//! ```
//!
//! One process measures one workload in one mode, so peak memory is
//! attributable; `run` without `--workload` re-executes itself once per
//! workload and mode. See `benchmark/README.md` for what is measured and
//! why.

mod compare;
mod json;
mod metrics;
mod probe;
mod serve;
mod sim;
mod trace;

use metrics::{
    mean, median, percentile, quartile_over_blocks, sorted, split_blocks, MetricDef, MetricSet,
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use perq_core::PerqConfig;
use perq_telemetry::{MetricKind, Recorder};
use serve::{ServeEpisode, ServeLayers, ServeShape, Transport};
use sim::{SimEpisode, SimKind, SimShape};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::SpanLog;

/// Set-up is repeated until at least [`SETUP_SAMPLES_MIN`] samples exist
/// and [`SETUP_SAMPLING_S`] seconds went into them (a 5 ms simulator
/// set-up needs more repeats than a 300 ms rig for a steady median), but
/// never more than [`SETUP_SAMPLES_MAX`] times; `setup_s` is the median.
const SETUP_SAMPLES_MIN: usize = 5;
const SETUP_SAMPLES_MAX: usize = 25;
const SETUP_SAMPLING_S: f64 = 0.25;

fn more_setups_needed(samples: &[f64]) -> bool {
    samples.len() < SETUP_SAMPLES_MIN
        || (samples.len() < SETUP_SAMPLES_MAX && samples.iter().sum::<f64>() < SETUP_SAMPLING_S)
}

/// Latency samples are cut into blocks of about this many consecutive
/// operations; a percentile is taken per block and a quartile across
/// blocks is reported (see `metrics::quartile_over_blocks`).
const BLOCK_OPS: usize = 50;

enum Shape {
    ServeMem(ServeShape),
    ServeTcp(ServeShape),
    Sim(SimShape),
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fixed shape of each workload (`smoke`: tiny sizes for schema
/// checks, not for numbers).
fn shape_of(workload: &str, smoke: bool) -> Option<Shape> {
    let serve = |workers: u32, rounds: usize| ServeShape {
        workers,
        wp_nodes: workers as usize / 2,
        warmup_rounds: if smoke { 3 } else { 20 },
        rounds,
    };
    let sim = |kind, wp_nodes, intervals, warmup_decisions, enclaves| SimShape {
        kind,
        wp_nodes,
        intervals,
        warmup_decisions,
        enclaves,
        // Only the hierarchy fans out; at most two threads, never more
        // than the host has.
        threads: if kind == SimKind::Hier {
            threads().min(2)
        } else {
            1
        },
    };
    Some(match (workload, smoke) {
        ("serve_mem_2048", false) => Shape::ServeMem(serve(2048, 300)),
        ("serve_mem_2048", true) => Shape::ServeMem(serve(64, 20)),
        ("serve_tcp_1024", false) => Shape::ServeTcp(serve(1024, 200)),
        ("serve_tcp_1024", true) => Shape::ServeTcp(serve(32, 20)),
        // Two simulated hours of Mira per episode.
        ("sim_mira", false) => Shape::Sim(sim(SimKind::Mira, 49_152, 720, 10, 1)),
        ("sim_mira", true) => Shape::Sim(sim(SimKind::Mira, 49_152, 30, 5, 1)),
        ("sim_exact_4096", false) => Shape::Sim(sim(SimKind::Exact, 2048, 48, 8, 1)),
        ("sim_exact_4096", true) => Shape::Sim(sim(SimKind::Exact, 128, 12, 4, 1)),
        // Two simulated hours: 720 site intervals, 120 grant rounds.
        ("sim_hier_64", false) => Shape::Sim(sim(SimKind::Hier, 128, 720, 0, 64)),
        ("sim_hier_64", true) => Shape::Sim(sim(SimKind::Hier, 16, 60, 0, 8)),
        _ => return None,
    })
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

/// What one run produced, before it is printed.
struct Outcome {
    metrics: MetricSet,
    attempted: u64,
    failed: u64,
    defects: Vec<String>,
    digest: u64,
    notes: Vec<String>,
    /// Stamp entries particular to the run: episode and op counts.
    counts: Vec<(&'static str, u64)>,
}

/// Runs episodes until `--seconds` of measured time have passed (to
/// within half an episode) and returns them as `(untraced, traced)`.
/// `episode(traced)` runs one and says how many seconds of it count as
/// measured. A `--trace 1` run alternates untraced and traced episodes,
/// starting untraced, so the tracing overhead is measured within the
/// run; it ends only once it has one of each.
fn run_episodes<E>(
    args: &RunArgs,
    mut episode: impl FnMut(bool) -> std::io::Result<(E, f64)>,
) -> std::io::Result<(Vec<E>, Vec<E>)> {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut measured_s = 0.0;
    loop {
        let trace_this = args.trace && untraced.len() > traced.len();
        let (result, episode_s) = episode(trace_this)?;
        measured_s += episode_s;
        if trace_this {
            traced.push(result);
        } else {
            untraced.push(result);
        }
        let complete = !args.trace || !traced.is_empty();
        if complete && measured_s + episode_s / 2.0 >= args.seconds {
            return Ok((untraced, traced));
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks that every episode of a run computed the same thing.
fn check_digests(digests: &[u64], defects: &mut Vec<String>) {
    if let Some(first) = digests.first() {
        if digests.iter().any(|d| d != first) {
            defects.push(format!(
                "episodes of one seed disagree: digests {digests:016x?}"
            ));
        }
    }
}

fn counter_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The program's own solver counters, read from a live recorder.
fn qp_counters(rec: &Recorder, out: &mut MetricSet) {
    let solves = rec.counter_value("perq_qp_solves_total");
    out.set("qp.solves_total", solves as f64);
    out.set(
        "qp.restarts_total",
        rec.counter_value("perq_qp_restarts_total") as f64,
    );
    out.set(
        "qp.converged_ratio",
        counter_ratio(rec.counter_value("perq_qp_converged_total"), solves),
    );
    out.set(
        "qp.deadline_hits_total",
        rec.counter_value("perq_qp_deadline_hits_total") as f64,
    );
    let hits = rec.counter_value("perq_qp_lmax_cache_hits_total");
    let misses = rec.counter_value("perq_qp_lmax_cache_misses_total");
    out.set(
        "qp.lmax_cache_hit_ratio",
        counter_ratio(hits, hits + misses),
    );
    out.set(
        "qp.precision_fallbacks_total",
        rec.counter_value("perq_qp_precision_fallbacks_total") as f64,
    );
    let iterations = rec.snapshot().iter().find_map(|m| match &m.kind {
        MetricKind::Histogram(h) if m.name == "perq_qp_iterations" && h.count > 0 => {
            Some(h.sum / h.count as f64)
        }
        _ => None,
    });
    out.set("qp.iterations_per_solve", iterations.unwrap_or(0.0));
}

fn assign_metrics(assign_ms: &[f64], jobs_total: u64, out: &mut MetricSet) {
    if assign_ms.is_empty() {
        return;
    }
    let s = sorted(assign_ms.to_vec());
    out.set("core.assign.ms_p50", percentile(&s, 50.0));
    out.set("core.assign.ms_p99", percentile(&s, 99.0));
    out.set(
        "core.assign.jobs_per_call",
        jobs_total as f64 / assign_ms.len() as f64,
    );
}

/// `core.assign.other_ms`: the median `assign` minus the stages the
/// probes timed on their own (adapter updates for every job, targets,
/// the decide) — the policy's own bookkeeping.
fn assign_remainder(out: &mut MetricSet) {
    let value = |name: &str| out.get(name).unwrap_or(0.0);
    let probed = value("core.adapter.update_ns_per_job") * value("core.assign.jobs_per_call") / 1e6
        + value("core.targets.generate_ms")
        + value("core.mpc.decide_ms");
    let other = (value("core.assign.ms_p50") - probed).max(0.0);
    out.set("core.assign.other_ms", other);
}

/// Cuts each episode's samples into blocks of about [`BLOCK_OPS`].
fn blocks_of<'a>(episodes: &[&'a [f64]]) -> Vec<&'a [f64]> {
    episodes
        .iter()
        .flat_map(|e| split_blocks(e, (e.len() / BLOCK_OPS).max(1)))
        .collect()
}

/// `decision_p50_ms` and `decision_p90_ms` from the latency samples of
/// the untraced episodes.
fn decision_metrics(
    episodes: &[&[f64]],
    counts: &mut Vec<(&'static str, u64)>,
    out: &mut MetricSet,
) {
    let blocks = blocks_of(episodes);
    counts.push((
        "decision_samples",
        episodes.iter().map(|e| e.len() as u64).sum(),
    ));
    counts.push(("decision_blocks", blocks.len() as u64));
    let pct = |p: f64| quartile_over_blocks(&blocks, 25.0, |b| percentile(&sorted(b.to_vec()), p));
    out.set("decision_p50_ms", pct(50.0));
    out.set("decision_p90_ms", pct(90.0));
}

fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}

fn run_serve<T: Transport>(shape: &ServeShape, args: &RunArgs) -> std::io::Result<Outcome> {
    let mut log = SpanLog::new();
    let (untraced, traced): (Vec<ServeEpisode>, Vec<ServeEpisode>) =
        run_episodes(args, |trace_this| {
            let t0 = Instant::now();
            let episode = if trace_this {
                serve::episode_traced::<T>(shape, args.seed, &mut log)?
            } else {
                serve::episode_untraced::<T>(shape, args.seed)?
            };
            let measured_s = t0.elapsed().as_secs_f64() - episode.setup_s;
            Ok((episode, measured_s))
        })?;

    let all = || untraced.iter().chain(traced.iter());
    let mut defects: Vec<String> = all().flat_map(|e| e.defects.iter().cloned()).collect();
    check_digests(&all().map(|e| e.digest).collect::<Vec<_>>(), &mut defects);
    let attempted = all().map(|e| e.round_ms.len() as u64).sum();
    let failed = all().map(|e| e.failed_rounds).sum();
    let rounds_untraced = sorted(untraced.iter().flat_map(|e| e.round_ms.clone()).collect());
    let mut notes = vec![if T::LOOPBACK {
        "transport: TCP over the kernel loopback device (127.0.0.1); no link was crossed".into()
    } else {
        "transport: in-memory pipes (MemPoller); no kernel I/O".to_string()
    }];
    let mut counts = vec![
        ("workers", u64::from(shape.workers)),
        ("rounds_per_episode", shape.rounds as u64),
        ("warmup_rounds", shape.warmup_rounds as u64),
        ("episodes_untraced", untraced.len() as u64),
        ("episodes_traced", traced.len() as u64),
    ];

    let mut metrics = MetricSet::default();
    if !args.trace {
        let mut setups: Vec<f64> = untraced.iter().map(|e| e.setup_s).collect();
        while more_setups_needed(&setups) {
            setups.push(serve::setup_only::<T>(shape, args.seed)?);
        }
        counts.push(("setup_samples", setups.len() as u64));
        metrics.set("setup_s", median(&setups));
        let episodes: Vec<&[f64]> = untraced.iter().map(|e| e.round_ms.as_slice()).collect();
        decision_metrics(&episodes, &mut counts, &mut metrics);
        // Rounds per second of server time, block by block.
        metrics.set(
            "intervals_per_s",
            quartile_over_blocks(&blocks_of(&episodes), 75.0, |b| {
                b.len() as f64 / (b.iter().sum::<f64>() / 1e3)
            }),
        );
        let power: Vec<f64> = untraced.iter().flat_map(|e| e.power_use.clone()).collect();
        metrics.set("power_use_pct", mean(&power) * 100.0);
        metrics.set("peak_rss_mb", peak_rss_mb());
    } else {
        let rounds_traced = sorted(traced.iter().flat_map(|e| e.round_ms.clone()).collect());
        let mut layers = ServeLayers::default();
        for t in traced.iter().filter_map(|e| e.trace.as_ref()) {
            layers.absorb(&t.layers);
        }
        let per_round = |ns: u64| ns as f64 / 1e6 / layers.rounds as f64;
        let each = |n: u64| n as f64 / layers.rounds as f64;
        let io = layers.io_total();
        let pump_self = layers.pump_ns - layers.pump_io.poll_ns - layers.pump_io.io_ns();
        let tick_self =
            layers.tick_ns - layers.assign_ns - layers.tick_io.io_ns() - layers.tick_io.poll_ns;
        let attributed =
            io.poll_ns + io.read_ns + io.write_ns + pump_self + tick_self + layers.assign_ns;
        counts.push(("round_samples_traced", rounds_traced.len() as u64));
        metrics.set("serve.round.p99_ms", percentile(&rounds_traced, 99.0));
        metrics.set("serve.pump.ms_per_round", per_round(layers.pump_ns));
        metrics.set("serve.pump.self_ms_per_round", per_round(pump_self));
        metrics.set("serve.poll.calls_per_round", each(io.poll_calls));
        metrics.set("serve.poll.ms_per_round", per_round(io.poll_ns));
        metrics.set(
            "serve.poll.empty_ratio",
            counter_ratio(io.poll_empty, io.poll_calls),
        );
        metrics.set("serve.io.read_calls_per_round", each(io.read_calls));
        metrics.set(
            "serve.io.read_wouldblock_ratio",
            counter_ratio(io.read_wouldblock, io.read_calls),
        );
        metrics.set("serve.io.read_ms_per_round", per_round(io.read_ns));
        metrics.set("serve.io.write_calls_per_round", each(io.write_calls));
        metrics.set("serve.io.write_ms_per_round", per_round(io.write_ns));
        metrics.set("serve.io.bytes_in_per_round", each(io.bytes_in));
        metrics.set("serve.io.bytes_out_per_round", each(io.bytes_out));
        metrics.set("serve.tick.ms_per_round", per_round(layers.tick_ns));
        metrics.set("serve.tick.self_ms_per_round", per_round(tick_self));
        metrics.set(
            "serve.unattributed_ms_per_round",
            per_round(layers.pump_ns + layers.tick_ns - attributed),
        );
        metrics.set("serve.setcaps_per_round", each(layers.setcaps));
        metrics.set("serve.caps_coalesced_total", layers.caps_coalesced as f64);
        metrics.set("serve.writeoffs_total", layers.writeoffs as f64);
        metrics.set(
            "telemetry.live_overhead_pct",
            overhead_pct(
                percentile(&rounds_traced, 50.0),
                percentile(&rounds_untraced, 50.0),
            ),
        );

        let last = traced
            .last()
            .and_then(|e| e.trace.as_ref())
            .expect("a traced run has a traced episode");
        qp_counters(&last.engine, &mut metrics);
        metrics.set(
            "telemetry.journal_dropped_total",
            last.engine.journal_dropped() as f64,
        );
        let policy = last.policy.lock().expect("policy");
        let assign = last.assign.lock().expect("assign stats");
        assign_metrics(&assign.durations_ms(), assign.jobs_total, &mut metrics);
        defects.extend(probe::core_probes(
            &policy,
            &assign,
            &PerqConfig::default(),
            &mut metrics,
        ));
        assign_remainder(&mut metrics);
        defects.extend(probe::codec_probes(&assign, &mut metrics));
        if deps_mode() == "shims" {
            notes.push(
                "proto.codec.* measure the offline serde/serde_json stand-ins, not serde_json"
                    .into(),
            );
        }
        write_trace(&log, args, &mut notes);
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        defects,
        digest: all().next().map_or(0, |e| e.digest),
        notes,
        counts,
    })
}

fn run_sim(shape: &SimShape, args: &RunArgs) -> Outcome {
    let mut log = SpanLog::new();
    let (untraced, traced): (Vec<SimEpisode>, Vec<SimEpisode>) = run_episodes(args, |trace_this| {
        let episode = sim::episode(shape, args.seed, trace_this.then_some(&mut log));
        let measured_s = episode.wall_s;
        Ok((episode, measured_s))
    })
    .expect("simulator episodes do no I/O");

    let all = || untraced.iter().chain(traced.iter());
    let mut defects = Vec::new();
    check_digests(&all().map(|e| e.digest).collect::<Vec<_>>(), &mut defects);
    let first = &untraced[0];
    if all().any(|e| !e.result.same_simulation(&first.result)) {
        defects.push("episodes of one seed are not the same simulation".into());
    }
    let attempted = all().map(|e| e.intervals).sum();
    let failed = all().map(|e| e.failed_intervals).sum();
    let mut notes = Vec::new();
    if shape.kind == SimKind::Exact {
        notes.push(
            "non-default config: group_threshold = usize::MAX, so every decide is one exact QP"
                .into(),
        );
    }
    let mut counts = vec![
        ("intervals_per_episode", shape.intervals as u64),
        ("warmup_decisions", shape.warmup_decisions as u64),
        ("enclaves", shape.enclaves as u64),
        ("sim_threads", shape.threads as u64),
        ("episodes_untraced", untraced.len() as u64),
        ("episodes_traced", traced.len() as u64),
    ];
    let per_interval_s = |e: &SimEpisode| e.wall_s / e.intervals as f64;

    let mut metrics = MetricSet::default();
    if !args.trace {
        let mut setups: Vec<f64> = untraced.iter().map(|e| e.setup_s).collect();
        while more_setups_needed(&setups) {
            setups.push(sim::setup_only(shape, args.seed));
        }
        counts.push(("setup_samples", setups.len() as u64));
        metrics.set("setup_s", median(&setups));
        let episodes: Vec<&[f64]> = untraced.iter().map(|e| e.decision_ms.as_slice()).collect();
        decision_metrics(&episodes, &mut counts, &mut metrics);
        let rates: Vec<f64> = untraced.iter().map(|e| e.steady_intervals_per_s).collect();
        metrics.set("intervals_per_s", percentile(&sorted(rates), 75.0));
        metrics.set("power_use_pct", first.power_use * 100.0);
        metrics.set("peak_rss_mb", peak_rss_mb());
    } else {
        let last = traced.last().expect("a traced run has a traced episode");
        let t = last.trace.as_ref().expect("traced episode");
        // With enclaves advancing on several threads, decision time on
        // the critical path is about the total over the thread count.
        let decide_path_s = last.decision_total_s / shape.threads as f64;
        metrics.set(
            "sim.step.self_us_per_interval",
            ((last.wall_s - decide_path_s).max(0.0)) / last.intervals as f64 * 1e6,
        );
        metrics.set("sim.running_jobs_mean", last.running_jobs_mean);
        metrics.set("sim.intervals_total", last.intervals as f64);
        metrics.set(
            "sim.budget_violation_intervals",
            last.failed_intervals as f64,
        );
        metrics.set("sim.jobs_completed", last.jobs_completed as f64);
        metrics.set(
            "sim.fairness_mean_degradation_pct",
            last.fairness_mean_degradation_pct,
        );
        if shape.kind == SimKind::Hier {
            metrics.set("sim.hier.rounds_total", last.hier_rounds as f64);
            metrics.set(
                "sim.hier.enclave_violation_intervals",
                last.enclave_violation_intervals as f64,
            );
            metrics.set("sim.hier.enclave_epoch_ms", median(&t.epoch_ms));
            metrics.set("core.hier.grant_ms_p50", median(&t.grant_ms));
            metrics.set("core.hier.grant_calls", t.grant_ms.len() as f64);
        }
        metrics.set(
            "telemetry.live_overhead_pct",
            overhead_pct(
                median(&traced.iter().map(per_interval_s).collect::<Vec<_>>()),
                median(&untraced.iter().map(per_interval_s).collect::<Vec<_>>()),
            ),
        );
        metrics.set("telemetry.journal_dropped_total", t.journal_dropped as f64);
        qp_counters(&t.recorder, &mut metrics);
        assign_metrics(&t.assign_ms, t.assign_jobs_total, &mut metrics);
        let policy = t.policy.lock().expect("policy");
        let assign = t.assign.lock().expect("assign stats");
        defects.extend(probe::core_probes(
            &policy,
            &assign,
            &sim::perq_config(shape.kind),
            &mut metrics,
        ));
        assign_remainder(&mut metrics);
        write_trace(&log, args, &mut notes);
    }
    Outcome {
        metrics,
        attempted,
        failed,
        defects,
        digest: first.digest,
        notes,
        counts,
    }
}

/// Writes the span log beside the other outputs.
fn write_trace(log: &SpanLog, args: &RunArgs, notes: &mut Vec<String>) {
    let dir = args
        .out
        .as_deref()
        .and_then(Path::parent)
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("benchmark/out"), Path::to_path_buf);
    let name = args.workload.as_deref().unwrap_or("run");
    let path = dir.join(format!("trace-{name}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| log.write_jsonl(&path)) {
        Ok(()) => notes.push(format!("{} spans written to {}", log.len(), path.display())),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
}

fn deps_mode() -> String {
    std::env::var("PERQ_BENCH_DEPS").unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were produced. Build facts come from
/// `run.sh` through the environment.
fn stamp(args: &RunArgs, counts: &[(&'static str, u64)]) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"commit\": {}, \"rustc\": {}, \"profile\": \"release\", \"features\": \"default\", \
         \"deps\": {}, \"nproc\": {}, \"cpu\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}",
        json::quote(&env("PERQ_BENCH_COMMIT")),
        json::quote(&env("PERQ_BENCH_RUSTC")),
        json::quote(&deps_mode()),
        threads(),
        json::quote(&cpu_model()),
        args.seed,
        args.seconds,
        args.smoke,
    );
    for (key, value) in counts {
        let _ = write!(s, ", {}: {value}", json::quote(key));
    }
    s.push('}');
    s
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
/// the line a driver reads.
fn result_line(outcome: &Outcome, table: &'static [MetricDef]) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .in_order(table)
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(def.name),
                json::quote(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.defects.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &RunArgs) -> Result<ExitCode, String> {
    let workload = args.workload.as_deref().expect("run_one has a workload");
    let shape = shape_of(workload, args.smoke).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{workload}' (known: {})",
            known.join(", ")
        )
    })?;
    let mut outcome = match &shape {
        Shape::ServeMem(s) => run_serve::<serve::Mem>(s, args).map_err(|e| e.to_string())?,
        Shape::ServeTcp(s) => run_serve::<serve::Tcp>(s, args).map_err(|e| e.to_string())?,
        Shape::Sim(s) => run_sim(s, args),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // A layer that is not on this workload's path did no work.
        outcome.metrics.fill_absent(PER_LAYER);
    }

    println!(
        "workload {workload}  seed {}  trace {}  deps {}",
        args.seed,
        u8::from(args.trace),
        deps_mode()
    );
    let stamp = stamp(args, &outcome.counts);
    println!("stamp {stamp}");
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (def, value) in outcome.metrics.in_order(table) {
        println!("metric {} = {value} {}", def.name, def.unit);
    }
    println!("digest {:016x}", outcome.digest);
    for defect in &outcome.defects {
        println!("DEFECT {defect}");
    }
    let line = result_line(&outcome, table);

    if let Some(path) = &args.out {
        let notes: Vec<String> = outcome.notes.iter().map(|n| json::quote(n)).collect();
        let record = format!(
            "{{\"workload\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \"stamp\": {stamp}, \
             \"notes\": [{}], \"result\": {line}}}\n",
            json::quote(workload),
            u8::from(args.trace),
            outcome.digest,
            notes.join(", ")
        );
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(if outcome.defects.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a process of its own.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out/results.jsonl"));
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&out);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| e.to_string())?;
            all_ok &= status.success();
            println!();
        }
    }
    println!("results appended to {}", out.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.smoke && !args.iter().any(|a| a == "--seconds") {
        parsed.seconds = 0.2;
    }
    Ok(parsed)
}

/// `BENCHMARK.json`, generated from the metric tables.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{bound}}}",
            json::quote(m.name),
            json::quote(m.unit),
            m.better.label()
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|run| {
            if run.workload.is_some() {
                run_one(&run)
            } else {
                run_all(&run)
            }
        }),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: perq-benchmark run [--workload W] [--seed N] [--seconds S] \
                  [--trace 0|1] [--out FILE] [--smoke] | compare A B | manifest"
                .into(),
        ),
    };
    result.unwrap_or_else(|message| {
        eprintln!("perq-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names, units and sizes.
    #[test]
    fn manifest_respects_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
            assert!(shape_of(w.name, false).is_some() && shape_of(w.name, true).is_some());
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(names.insert(m.name), "{} declared twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() < 64 * 1024);
        assert!(json::parse(&manifest()).is_ok());
    }

    /// Frames must read the same whichever serde the build resolved:
    /// these are serde_json's encodings, which the stand-in has to match.
    #[test]
    fn wire_format_is_serde_jsons() {
        use perq_proto::{Command, FrameDecoder, FrameEncoder, Report};
        let payload = |frame: Vec<u8>| String::from_utf8(frame[4..].to_vec()).unwrap();
        let enc = FrameEncoder::new();
        assert_eq!(payload(enc.encode(&Command::Tick).unwrap()), "\"Tick\"");
        assert_eq!(
            payload(enc.encode(&Command::SetCap { cap_w: 151.5 }).unwrap()),
            "{\"SetCap\":{\"cap_w\":151.5}}"
        );
        let report = Report {
            node_id: 7,
            job_id: None,
            ips: 0.0,
            power_w: 1e18,
            job_done: false,
        };
        let frame = enc.encode(&report).unwrap();
        assert_eq!(
            payload(frame.clone()),
            "{\"node_id\":7,\"job_id\":null,\"ips\":0.0,\"power_w\":1e18,\"job_done\":false}"
        );
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert_eq!(dec.next_frame::<Report>().unwrap(), Some(report));
        // A missing `Option` field reads as `None`, an unknown key is
        // skipped.
        let mut dec = FrameDecoder::new();
        let body = br#"{"node_id":1,"extra":[1,{"a":"b"}],"ips":2.5,"power_w":90,"job_done":true}"#;
        dec.feed(&(body.len() as u32).to_be_bytes());
        dec.feed(body);
        let r = dec.next_frame::<Report>().unwrap().unwrap();
        assert_eq!(
            (r.job_id, r.ips, r.power_w, r.job_done),
            (None, 2.5, 90.0, true)
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = metrics::quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
