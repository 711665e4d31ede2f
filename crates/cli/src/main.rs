//! `perq` — command-line interface to the PERQ power-management toolkit.
//!
//! Subcommands:
//!
//! - `perq simulate` — run a policy on a simulated cluster and print the
//!   throughput/fairness summary (optionally a JSON report).
//! - `perq train` — identify the node model from the NPB-like suite and
//!   print its diagnostics.
//! - `perq prototype` — run the TCP prototype cluster under a policy.
//! - `perq campaign` — run a grid of scenarios on the deterministic
//!   parallel campaign engine (`perq-campaign`).
//! - `perq zoo` — the policy-zoo ablation (`perq-gym` × `perq-campaign`):
//!   every zoo policy crossed with the five evaluation regimes, rendered
//!   as a fixed-width table plus the hybrid-vs-PERQ differential.
//! - `perq trace` — inspect, validate, convert, and replay SWF workload
//!   logs (`perq-trace`).
//! - `perq serve` — the non-blocking TCP control plane (`perq-serve`):
//!   epoll loop, batched decide ticks, live `/metrics`, hot reload.
//! - `perq swarm` — connect a swarm of protocol workers to a running
//!   `perq serve` (or `perq prototype`) controller.
//! - `perq stress` — the report-collection stress test.
//! - `perq metrics-validate` — CI smoke check on a Prometheus export,
//!   from a file or scraped live from a `/metrics` URL.
//!
//! Run `perq help` (or any subcommand with `--help`-style ignorance) for
//! usage. The CLI keeps zero non-workspace dependencies: argument parsing
//! is a hand-rolled key=value scheme, which is all these commands need.

use perq_core::{baselines, train_node_model, PerqConfig, PerqPolicy};
use perq_sim::{
    compare_fairness, fault_summary, Cluster, ClusterConfig, FairPolicy, FaultPlan, FaultRates,
    JobSpec, PowerPolicy, SimEngine, SimResult, SystemModel, TraceGenerator,
};
use perq_telemetry::Recorder;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "perq — fair and efficient power management (HPDC'19 reproduction)

USAGE:
    perq simulate  [system=mira|trinity|tardis] [policy=perq|fop|sjs|ljs|srn] [f=2.0]
                   [hours=4] [seed=42] [interval=10] [json=out.json]
                   [precision=f64|f64_soa|mixed] (PERQ QP solver profile: f64 is
                   the bit-reproducible reference; f64_soa iterates in f64 over
                   the step-major SoA layout; mixed iterates in f32 over SoA with
                   an f64 residual check and automatic f64 fallback; any other
                   spelling is a usage error)
                   [engine=step|event] (simulator core; both produce identical
                   results — event skips dead time on sparse workloads)
                   [faults=SEED] (seeded fault injection: node crashes, telemetry
                   dropouts, job kills — deterministic per seed; in hierarchical
                   runs the plan lands on enclave 0)
                   [topology=flat|enclaves:N] (flat: the paper's single
                   controller; enclaves:N: N independent controllers under a
                   budget coordinator — N=1 reproduces flat byte-identically)
                   [tenants=1,2,4] (tenant fairness weights, assigned to
                   enclaves round-robin; default one weight-1 tenant)
                   [coordination=6] (coordinator epoch, in control intervals)
                   [authority=qp|proportional] (inter-enclave budget split:
                   the coupling-QP coordinator or the weighted water-fill)
                   [enclave-threads=1] (worker threads for enclave epochs;
                   exports are byte-identical at any count)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl] (telemetry export:
                   solver, controller, and simulator metrics for the policy run)
                   [engine-metrics-out=PATH] (engine diagnostics — events processed,
                   intervals skipped, queue depth — as a Prometheus exposition)
                   [coordinator-metrics-out=PATH] (hierarchical runs: grant
                   rounds and coordinator solve latency as a Prometheus
                   exposition — wall-clock, so kept out of metrics-out)
    perq train     [seed=7]
    perq prototype [wp=8] [f=2.0] [policy=perq|fop|sjs|ljs|srn] [jobs=200] [intervals=600]
                   [crash=NODE@STEP] (kill worker NODE at control step STEP)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
    perq campaign  [threads=1] [scenarios=FILE.json] [json=out.json]
                   [system=mira|trinity|tardis] [policy=perq|fop|sjs|ljs|srn]
                   [seeds=4] [hours=0.5] [f=2.0] [engine=step|event]
                   [topology=flat|enclaves:N] [tenants=1,2,4] [coordination=6]
                   [authority=qp|proportional] (hierarchical scenarios — the
                   same keys as simulate, applied to every generated cell;
                   scenario files carry their own \"topology\" field)
                   [enclave-threads=1] (threads per hierarchical scenario,
                   multiplicative with threads=; byte-identical at any count)
                   [parity-steps=N] (run each event-engine scenario's first N
                   intervals under both cores and refuse to start on divergence)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
                   (scenarios=FILE runs a serde-encoded grid — each scenario
                   may carry its own \"engine\" field; otherwise a fig8-style
                   grid over seeds 0..SEEDS is generated with engine=ENGINE.
                   Exports are byte-identical at any thread count and for
                   either engine.)
    perq zoo       [seed=7] [threads=1] [swf=LOG.swf] [json=out.json]
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
                   (policy-zoo ablation: ZOO-FAIR / ZOO-GREEDY / ZOO-BANDIT /
                   ZOO-PERQ / ZOO-HYBRID crossed with five regimes — sparse
                   Mira, dense Tardis, SWF replay, carbon-diurnal budget,
                   adversarial telemetry. swf= selects the replay log
                   (otherwise a draining synthetic stream); json= writes the
                   rendered table's cells. Deterministic: byte-identical
                   output at any thread count and on every re-run.)
    perq trace inspect  file=LOG.swf [calib=mira|trinity|none]
                   (header, per-log statistics, and the Fig. 1 calibration table)
    perq trace validate file=LOG.swf [mode=strict|lenient]
                   (strict: fail on the first malformed line, with its line number;
                   lenient: count and list skipped lines)
    perq trace convert  file=LOG.swf out=OUT.swf [mode=strict|lenient] [scale=F]
                   [window=START:END] [nodes=N] [clamp=MIN:MAX]
                   (apply deterministic transforms — slice, arrival scaling,
                   node rescaling, runtime clamping — and re-emit SWF)
    perq trace replay   file=LOG.swf [system=mira|trinity|tardis] [policy=perq|fop|sjs|ljs|srn]
                   [f=2.0] [hours=1] [seed=42] [synth-seed=SEED] [mode=strict|lenient]
                   [scale=F] [window=START:END] [clamp=MIN:MAX]
                   [engine=step|event] [arrivals=true] (honour the log's submit
                   times instead of queueing every job at t=0 — with the event
                   engine, idle gaps between arrivals are skipped)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
                   (replay the log through the simulator with seeded power profiles)
    perq serve     [listen=127.0.0.1:7070] [http=127.0.0.1:7071|off]
                   [policy=fop|perq] [precision=f64|f64_soa|mixed]
                   [wp=8] [tick-ms=50] [decide-budget-ms=20]
                   [interval=1.0] [heartbeat=3] [ticks=N]
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl] [engine-metrics-out=PATH]
                   (non-blocking control plane: workers connect on listen=,
                   Prometheus text is served on http=/metrics, and budget /
                   policy hot-reload on POST /admin/budget, /admin/policy;
                   ticks=N bounds the run — otherwise it serves forever)
    perq swarm     [addr=127.0.0.1:7070] [nodes=64] [interval=1.0] [seed=42]
                   (connect NODES protocol workers to a running controller and
                   run them until it shuts them down)
    perq stress    [clients=100000] [connections=4]
    perq metrics-validate file=PATH | url=http://HOST:PORT/metrics [require=name1,name2,...]
                   (parse a Prometheus exposition and check required metrics — CI smoke;
                   url= scrapes a live /metrics endpoint over raw TCP first)
    perq help

Examples:
    perq simulate system=trinity policy=perq f=1.8 hours=8
    perq simulate system=mira policy=perq precision=mixed hours=1
    perq simulate system=mira topology=enclaves:4 tenants=1,2 authority=qp hours=1
    perq campaign threads=4 topology=enclaves:8 enclave-threads=2 seeds=8 hours=0.5
    perq trace replay file=year.swf system=mira engine=event arrivals=true hours=8760
    perq campaign threads=8 system=tardis policy=fop seeds=16 hours=1
    perq campaign threads=4 scenarios=grid.json metrics-out=campaign.prom metrics-fmt=prom
    perq zoo seed=7 threads=4 swf=log.swf json=zoo.json
    perq simulate system=tardis policy=perq faults=7 metrics-out=metrics.prom metrics-fmt=prom
    perq prototype wp=4 f=2.0 policy=srn crash=2@10
    perq trace inspect file=log.swf calib=mira
    perq trace replay file=log.swf system=tardis policy=perq f=2.0 hours=1
    perq metrics-validate file=metrics.prom require=perq_sim_steps_total,perq_qp_solves_total
    perq serve policy=fop wp=8 ticks=200 &   # then, from another shell:
    perq swarm nodes=64
    perq metrics-validate url=http://127.0.0.1:7071/metrics require=perq_serve_ticks_total
";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for a in args {
        if let Some((k, v)) = a.split_once('=') {
            map.insert(k.to_string(), v.to_string());
        }
    }
    map
}

fn get<T: std::str::FromStr>(map: &HashMap<String, String>, key: &str, default: T) -> T {
    map.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn system(map: &HashMap<String, String>) -> SystemModel {
    match map.get("system").map(String::as_str) {
        Some("trinity") => SystemModel::trinity(),
        Some("tardis") => SystemModel::tardis(),
        Some("mira") | None => SystemModel::mira(),
        Some(other) => {
            eprintln!("unknown system '{other}', using mira");
            SystemModel::mira()
        }
    }
}

/// Parses `precision=f64|f64_soa|mixed` (default: the bit-reproducible
/// `f64`/AoS reference profile). `mixed` iterates the decision QP in
/// single precision over SoA lanes, verifies every answer against an f64
/// residual check and polishes in f64 when the check fails. An unknown
/// or retired spelling is a usage error: falling back to `f64` would
/// label reference numbers as the run the user asked for.
fn solver_profile(map: &HashMap<String, String>) -> Result<perq_core::SolverProfile, ExitCode> {
    match map.get("precision") {
        None => Ok(perq_core::SolverProfile::default()),
        Some(spec) => spec.parse().map_err(|err| {
            eprintln!("{err}");
            ExitCode::from(2)
        }),
    }
}

fn policy(map: &HashMap<String, String>) -> Result<Box<dyn PowerPolicy + Send>, ExitCode> {
    let solver_profile = solver_profile(map)?;
    let perq_config = || PerqConfig {
        solver_profile,
        ..PerqConfig::default()
    };
    Ok(match map.get("policy").map(String::as_str) {
        Some("fop") => Box::new(FairPolicy::new()),
        Some("sjs") => Box::new(baselines::sjs()),
        Some("ljs") => Box::new(baselines::ljs()),
        Some("srn") => Box::new(baselines::srn()),
        Some("perq") | None => Box::new(PerqPolicy::new(perq_config())),
        Some(other) => {
            eprintln!("unknown policy '{other}', using perq");
            Box::new(PerqPolicy::new(perq_config()))
        }
    })
}

fn engine(map: &HashMap<String, String>) -> SimEngine {
    match map.get("engine") {
        None => SimEngine::default(),
        Some(spec) => spec.parse().unwrap_or_else(|_| {
            eprintln!("unknown engine '{spec}' (expected step|event), using step");
            SimEngine::default()
        }),
    }
}

/// Parses `topology=flat|enclaves:N` plus its refinement keys
/// (`tenants=`, `coordination=`, `authority=`) into a campaign
/// [`perq_campaign::TopologySpec`]. The refinement keys are ignored
/// for flat runs, matching the engine's behaviour.
fn topology(map: &HashMap<String, String>) -> Result<perq_campaign::TopologySpec, ExitCode> {
    use perq_campaign::{AuthoritySpec, TopologySpec};
    let count = match map.get("topology").map(String::as_str) {
        None | Some("flat") => return Ok(TopologySpec::Flat),
        Some(spec) => match spec
            .strip_prefix("enclaves:")
            .and_then(|n| n.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("bad topology '{spec}' (expected flat|enclaves:N with N >= 1)");
                return Err(ExitCode::from(2));
            }
        },
    };
    let tenant_weights = match map.get("tenants") {
        None => Vec::new(),
        Some(spec) => {
            let weights: Option<Vec<f64>> = spec
                .split(',')
                .map(|w| w.parse::<f64>().ok().filter(|w| *w > 0.0 && w.is_finite()))
                .collect();
            match weights {
                Some(w) if !w.is_empty() => w,
                _ => {
                    eprintln!("bad tenants '{spec}' (expected comma-separated positive weights)");
                    return Err(ExitCode::from(2));
                }
            }
        }
    };
    let coordination_intervals: usize = get(map, "coordination", 6);
    if coordination_intervals == 0 {
        eprintln!("bad coordination '0' (expected a positive interval count)");
        return Err(ExitCode::from(2));
    }
    let authority = match map.get("authority").map(String::as_str) {
        None | Some("qp") => AuthoritySpec::CouplingQp,
        Some("proportional") => AuthoritySpec::Proportional,
        Some(other) => {
            eprintln!("unknown authority '{other}' (expected qp|proportional)");
            return Err(ExitCode::from(2));
        }
    };
    Ok(TopologySpec::Enclaves {
        count,
        tenant_weights,
        coordination_intervals,
        authority,
    })
}

/// Writes the engine-diagnostics recorder to `engine-metrics-out=` as a
/// Prometheus exposition. No-op when the key was not given.
fn write_engine_metrics(
    map: &HashMap<String, String>,
    recorder: &Recorder,
) -> Result<(), ExitCode> {
    let Some(path) = map.get("engine-metrics-out") else {
        return Ok(());
    };
    if let Err(e) = std::fs::write(path, recorder.export_prometheus()) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("engine metrics written to {path}");
    Ok(())
}

/// A live recorder when `metrics-out=` was given, the no-op otherwise.
/// The manual clock keeps exports deterministic: timestamps come from
/// simulated time, never the wall.
fn metrics_recorder(map: &HashMap<String, String>) -> Recorder {
    if map.contains_key("metrics-out") {
        Recorder::manual()
    } else {
        Recorder::noop()
    }
}

/// Writes the recorder's export to `metrics-out=` in `metrics-fmt=`
/// (default jsonl). No-op when `metrics-out=` was not given.
fn write_metrics(map: &HashMap<String, String>, recorder: &Recorder) -> Result<(), ExitCode> {
    let Some(path) = map.get("metrics-out") else {
        return Ok(());
    };
    let body = match map.get("metrics-fmt").map(String::as_str) {
        Some("prom") => recorder.export_prometheus(),
        Some("jsonl") | None => recorder.export_jsonl(),
        Some(other) => {
            eprintln!("unknown metrics-fmt '{other}' (expected prom|jsonl)");
            return Err(ExitCode::from(2));
        }
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("metrics written to {path}");
    Ok(())
}

fn summarize(result: &SimResult, fop: Option<&SimResult>) {
    println!("policy            : {}", result.policy);
    println!("f                 : {:.2}", result.f);
    println!("jobs completed    : {}", result.throughput());
    println!("budget violations : {}", result.budget_violations);
    let faults = fault_summary(result);
    if faults.injected > 0 {
        println!(
            "faults injected   : {} ({} node crashes, {} jobs killed)",
            faults.injected, faults.nodes_crashed, faults.jobs_killed
        );
        println!(
            "degradation       : {:.0} s over budget; recovery mean {:.0} s / max {:.0} s",
            faults.budget_violation_s, faults.mean_recovery_s, faults.max_recovery_s
        );
    }
    let mean_decision_ms = 1000.0 * result.decision_times_s.iter().sum::<f64>()
        / result.decision_times_s.len().max(1) as f64;
    println!("mean decision time: {mean_decision_ms:.2} ms");
    if let Some(fop) = fop {
        let rep = compare_fairness(result, fop);
        println!(
            "fairness vs FOP   : mean degradation {:.1}% (max {:.1}%) over {} of {} jobs",
            rep.mean_degradation_pct, rep.max_degradation_pct, rep.degraded_jobs, rep.compared_jobs
        );
    }
}

fn cmd_simulate(map: HashMap<String, String>) -> ExitCode {
    let system = system(&map);
    let f: f64 = get(&map, "f", 2.0);
    let hours: f64 = get(&map, "hours", 4.0);
    let seed: u64 = get(&map, "seed", 42);
    let interval: f64 = get(&map, "interval", 10.0);

    let engine = engine(&map);
    let topo = match topology(&map) {
        Ok(t) => t,
        Err(code) => return code,
    };

    let mut config = ClusterConfig::for_system(&system, f, hours * 3600.0);
    config.interval_s = interval;
    let jobs = TraceGenerator::new(system.clone(), seed)
        .generate_saturating(config.nodes, config.duration_s);
    println!(
        "simulating {}: {} nodes (wp {}), {} queued jobs, {hours} h at {interval} s \
         intervals ({engine} engine)",
        system.name,
        config.nodes,
        config.wp_nodes,
        jobs.len()
    );

    let fault_seed: Option<u64> = map.get("faults").and_then(|v| v.parse().ok());
    let fault_plan = fault_seed.map(|fs| {
        let steps = (config.duration_s / config.interval_s) as usize;
        let plan = FaultPlan::generate(fs, steps, &FaultRates::default());
        println!(
            "fault injection   : seed {fs}, {} scheduled events",
            plan.len()
        );
        plan
    });
    if topo.hier_topology().is_some() {
        return simulate_hier(&map, config, jobs, seed, &topo, engine, fault_plan);
    }
    let with_plan = |mut c: Cluster| -> Cluster {
        if let Some(plan) = &fault_plan {
            c = c.with_fault_plan(plan.clone());
        }
        c
    };

    // Always run the FOP reference for the fairness metrics. The
    // recorder follows the *chosen* policy's run, whichever that is.
    let recorder = metrics_recorder(&map);
    let engine_recorder = if map.contains_key("engine-metrics-out") {
        Recorder::manual()
    } else {
        Recorder::noop()
    };
    let mut chosen = match policy(&map) {
        Ok(policy) => policy,
        Err(code) => return code,
    };
    let chosen_is_fop = chosen.name() == "FOP";
    let mut fop_cluster = with_plan(Cluster::new(config.clone(), jobs.clone(), seed));
    if chosen_is_fop {
        fop_cluster = fop_cluster
            .with_recorder(recorder.clone())
            .with_engine_recorder(engine_recorder.clone());
    }
    let fop_result = fop_cluster.run_engine(&mut FairPolicy::new(), engine);
    let result = if chosen_is_fop {
        fop_result.clone()
    } else {
        with_plan(Cluster::new(config, jobs, seed))
            .with_recorder(recorder.clone())
            .with_engine_recorder(engine_recorder.clone())
            .run_engine(chosen.as_mut(), engine)
    };
    summarize(&result, Some(&fop_result));
    if let Err(code) = write_metrics(&map, &recorder) {
        return code;
    }
    if let Err(code) = write_engine_metrics(&map, &engine_recorder) {
        return code;
    }

    if let Some(path) = map.get("json") {
        match serde_json::to_string_pretty(&result) {
            Ok(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("full result written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize result: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The hierarchical arm of `perq simulate`: `N` enclave controllers
/// under a budget coordinator instead of one flat policy loop. The FOP
/// fairness reference is skipped — it is a flat-controller notion; use
/// `perq campaign` with a topology for cross-policy comparisons.
fn simulate_hier(
    map: &HashMap<String, String>,
    config: ClusterConfig,
    jobs: Vec<JobSpec>,
    seed: u64,
    topo: &perq_campaign::TopologySpec,
    engine: SimEngine,
    fault_plan: Option<FaultPlan>,
) -> ExitCode {
    use perq_sim::HierSim;
    let hier = topo.hier_topology().expect("hierarchical spec");
    let authority = match topo {
        perq_campaign::TopologySpec::Enclaves { authority, .. } => authority.build(),
        perq_campaign::TopologySpec::Flat => unreachable!("flat runs stay in cmd_simulate"),
    };
    println!(
        "topology          : {} enclave(s), {} tenant(s), {} coordinator, epoch {} interval(s)",
        hier.enclaves,
        hier.tenants.len().max(1),
        authority.name(),
        hier.coordination_intervals
    );

    let recorder = metrics_recorder(map);
    let coord_recorder = if map.contains_key("coordinator-metrics-out") {
        Recorder::manual()
    } else {
        Recorder::noop()
    };
    let policies: Vec<Box<dyn PowerPolicy + Send>> =
        match (0..hier.enclaves).map(|_| policy(map)).collect() {
            Ok(policies) => policies,
            Err(code) => return code,
        };
    let mut sim = HierSim::new(config, jobs, seed, hier, policies)
        .with_engine(engine)
        .with_threads(get(map, "enclave-threads", 1))
        .with_recorder(recorder.clone())
        .with_coordinator_recorder(coord_recorder.clone())
        .with_authority(authority);
    if let Some(plan) = fault_plan {
        sim = sim.with_fault_plan(plan);
    }
    let hier_result = sim.run();
    let rounds = hier_result.rounds.len();
    let mean_slack_w =
        hier_result.rounds.iter().map(|r| r.slack_w).sum::<f64>() / rounds.max(1) as f64;
    let result = hier_result.combined();
    summarize(&result, None);
    if rounds > 0 {
        println!("coordination      : {rounds} grant round(s), mean slack {mean_slack_w:.0} W");
    }
    if let Err(code) = write_metrics(map, &recorder) {
        return code;
    }
    if let Some(path) = map.get("coordinator-metrics-out") {
        if let Err(e) = std::fs::write(path, coord_recorder.export_prometheus()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("coordinator metrics written to {path}");
    }
    if let Some(path) = map.get("json") {
        match serde_json::to_string_pretty(&result) {
            Ok(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("full result written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize result: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_train(map: HashMap<String, String>) -> ExitCode {
    let seed: u64 = get(&map, "seed", 7);
    let (model, report) = train_node_model(seed);
    println!("node model identified from the NPB-like training suite");
    println!("benchmarks        : {}", report.benchmarks);
    println!("training samples  : {}", report.samples);
    println!("one-step fit      : {:.1}%", report.dynamic_fit_pct);
    println!("model order       : {}", model.ss.order());
    println!("stable            : {}", model.ss.is_stable());
    println!("dc gain           : {:?}", model.ss.dc_gain());
    println!("static curve      :");
    for cap_w in [90.0, 140.0, 190.0, 240.0, 290.0] {
        println!(
            "  {:>5.0} W -> {:>5.1}% of base IPS",
            cap_w,
            100.0 * model.curve.eval(cap_w / 290.0)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_prototype(map: HashMap<String, String>) -> ExitCode {
    use perq_proto::{ProtoCluster, ProtoConfig};
    let wp: usize = get(&map, "wp", 8);
    let f: f64 = get(&map, "f", 2.0);
    let n_jobs: usize = get(&map, "jobs", 200);
    let intervals: usize = get(&map, "intervals", 600);

    let mut jobs =
        TraceGenerator::new(SystemModel::tardis(), get(&map, "seed", 42)).generate(n_jobs);
    for j in jobs.iter_mut() {
        j.runtime_tdp_s = j.runtime_tdp_s.clamp(120.0, 1200.0);
        j.runtime_estimate_s = j.runtime_tdp_s * 1.3;
    }
    let mut config = ProtoConfig::tardis(wp, f, intervals);
    if let Some(spec) = map.get("crash") {
        match spec
            .split_once('@')
            .and_then(|(n, s)| Some((n.parse::<u32>().ok()?, s.parse::<usize>().ok()?)))
        {
            Some((node, step)) => {
                println!("fault injection: worker {node} crashes at step {step}");
                config.crash_workers.push((node, step));
            }
            None => {
                eprintln!("bad crash spec '{spec}' (expected NODE@STEP)");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "prototype: {} workers (budget {} nodes), {} jobs, {} intervals",
        config.nodes, config.wp_nodes, n_jobs, intervals
    );
    let recorder = metrics_recorder(&map);
    let mut chosen = match policy(&map) {
        Ok(policy) => policy,
        Err(code) => return code,
    };
    let cluster = ProtoCluster::new(config).with_recorder(recorder.clone());
    let result = match cluster.run(jobs, chosen.as_mut()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("prototype run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    summarize(&result, None);
    if let Err(code) = write_metrics(&map, &recorder) {
        return code;
    }
    ExitCode::SUCCESS
}

fn cmd_campaign(map: HashMap<String, String>) -> ExitCode {
    use perq_campaign::{fig8_style_grid, try_run_campaign, CampaignOptions, PolicySpec, Scenario};

    // Generated grids and replays run the reference profile (a scenario
    // file carries its own); a misspelt or retired `precision=` still
    // must not pass for a run at that precision.
    if let Err(code) = solver_profile(&map) {
        return code;
    }
    let threads: usize = get(&map, "threads", 1);
    let scenarios: Vec<Scenario> = if let Some(path) = map.get("scenarios") {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match serde_json::from_str(&body) {
            Ok(grid) => grid,
            Err(e) => {
                eprintln!("failed to parse {path} as a scenario grid: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let seeds: u64 = get(&map, "seeds", 4);
        let hours: f64 = get(&map, "hours", 0.5);
        let f: f64 = get(&map, "f", 2.0);
        let policy = match map.get("policy").map(String::as_str) {
            Some("fop") => PolicySpec::Fop,
            Some("sjs") => PolicySpec::Sjs,
            Some("ljs") => PolicySpec::Ljs,
            Some("srn") => PolicySpec::Srn,
            Some("perq") | None => PolicySpec::perq_default(),
            Some(other) => {
                eprintln!("unknown policy '{other}', using perq");
                PolicySpec::perq_default()
            }
        };
        let engine = engine(&map);
        let topo = match topology(&map) {
            Ok(t) => t,
            Err(code) => return code,
        };
        let mut grid = fig8_style_grid(system(&map), hours * 3600.0, 0..seeds);
        for s in grid.iter_mut() {
            s.f = f;
            s.policy = policy.clone();
            s.engine = engine;
            s.topology = topo.clone();
        }
        grid
    };
    if scenarios.is_empty() {
        eprintln!("scenario grid is empty");
        return ExitCode::from(2);
    }
    println!(
        "campaign: {} scenario(s) on {} thread(s)",
        scenarios.len(),
        threads.max(1)
    );

    let recorder = metrics_recorder(&map);
    let opts = CampaignOptions {
        threads,
        parity_preflight_steps: get(&map, "parity-steps", 0),
        enclave_threads: get(&map, "enclave-threads", 1),
    };
    let start = std::time::Instant::now();
    let outcomes = match try_run_campaign(&scenarios, &opts, &recorder) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "{:<24} {:>6} {:>10} {:>10} {:>7}",
        "scenario", "policy", "throughput", "violations", "faults"
    );
    for o in &outcomes {
        println!(
            "{:<24} {:>6} {:>10} {:>10} {:>7}",
            o.scenario.name,
            o.result.policy,
            o.result.throughput(),
            o.result.budget_violations,
            o.result.faults.len()
        );
    }
    println!("campaign wall-clock: {elapsed:.2} s");
    if let Err(code) = write_metrics(&map, &recorder) {
        return code;
    }
    if let Some(path) = map.get("json") {
        match serde_json::to_string_pretty(&outcomes) {
            Ok(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("full outcomes written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize outcomes: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The policy-zoo ablation: `zoo_ablation_grid` (five `perq-gym` zoo
/// policies × five evaluation regimes) run on the campaign engine and
/// folded into the fixed-width `AblationTable`, with the
/// hybrid-vs-plain-PERQ completed-job differential the PR's acceptance
/// gate reads. The grid is pure data and every scenario is seeded, so
/// the table (and the `json=` export) is byte-identical at any thread
/// count and on every re-run.
fn cmd_zoo(map: HashMap<String, String>) -> ExitCode {
    use perq_campaign::{ablation_table, try_run_campaign, zoo_ablation_grid, CampaignOptions};

    let seed: u64 = get(&map, "seed", 7);
    let threads: usize = get(&map, "threads", 1);
    let grid = zoo_ablation_grid(seed, map.get("swf").map(String::as_str));
    println!(
        "zoo ablation: {} scenario(s) (5 policies x {} regimes) on {} thread(s)",
        grid.len(),
        grid.len() / 5,
        threads.max(1)
    );

    let recorder = metrics_recorder(&map);
    let opts = CampaignOptions {
        threads,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let outcomes = match try_run_campaign(&grid, &opts, &recorder) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed().as_secs_f64();

    let table = ablation_table(&outcomes);
    print!("{}", table.render());
    println!("\nZOO-HYBRID vs ZOO-PERQ (completed-job differential per regime):");
    for (regime, diff) in table.compare("ZOO-HYBRID", "ZOO-PERQ") {
        println!("  {regime:<22} {diff:+}");
    }
    println!("zoo wall-clock: {elapsed:.2} s");
    if let Err(code) = write_metrics(&map, &recorder) {
        return code;
    }
    if let Some(path) = map.get("json") {
        match serde_json::to_string_pretty(&table) {
            Ok(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("ablation table written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize the table: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Scrapes `http://host:port/path` with a raw-TCP `GET` (no HTTP client
/// dependency — `perq serve` answers with `Connection: close`, so the
/// response is simply read to EOF) and returns the body.
fn scrape(url: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported url '{url}' (expected http://HOST:PORT/PATH)"))?;
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/metrics"),
    };
    let mut stream =
        std::net::TcpStream::connect(host).map_err(|e| format!("connect {host}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;
    let mut resp = Vec::new();
    stream
        .read_to_end(&mut resp)
        .map_err(|e| format!("read response: {e}"))?;
    let text = String::from_utf8_lossy(&resp);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response (no header terminator)".to_string())?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("non-200 response: {status}"));
    }
    Ok(body.to_string())
}

fn cmd_metrics_validate(map: HashMap<String, String>) -> ExitCode {
    let (source, body) = if let Some(url) = map.get("url") {
        match scrape(url) {
            Ok(body) => (url.clone(), body),
            Err(e) => {
                eprintln!("failed to scrape {url}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(path) = map.get("file") {
        match std::fs::read_to_string(path) {
            Ok(body) => (path.clone(), body),
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("metrics-validate needs file=PATH or url=http://HOST:PORT/metrics");
        return ExitCode::from(2);
    };
    let path = &source;
    let required: Vec<&str> = map
        .get("require")
        .map(|r| r.split(',').filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();
    match perq_telemetry::validate_prometheus(&body, &required) {
        Ok(()) => {
            println!(
                "{path}: valid Prometheus exposition; {} required metric(s) present",
                required.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `KEY=A:B` into a pair of floats.
fn pair(map: &HashMap<String, String>, key: &str) -> Result<Option<(f64, f64)>, ExitCode> {
    let Some(spec) = map.get(key) else {
        return Ok(None);
    };
    match spec
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<f64>().ok()?, b.parse::<f64>().ok()?)))
    {
        Some(pair) => Ok(Some(pair)),
        None => {
            eprintln!("bad {key} spec '{spec}' (expected A:B)");
            Err(ExitCode::from(2))
        }
    }
}

fn parse_mode(
    map: &HashMap<String, String>,
    default: perq_trace::ParseMode,
) -> perq_trace::ParseMode {
    match map.get("mode").map(String::as_str) {
        Some("strict") => perq_trace::ParseMode::Strict,
        Some("lenient") => perq_trace::ParseMode::Lenient,
        Some(other) => {
            eprintln!("unknown mode '{other}' (expected strict|lenient), using default");
            default
        }
        None => default,
    }
}

/// Reads and parses `file=` in the given mode, reporting any skipped
/// lines. Lenient mode never fails; strict mode prints the
/// line-numbered diagnostic and bails.
fn load_trace(
    map: &HashMap<String, String>,
    mode: perq_trace::ParseMode,
) -> Result<perq_trace::ParseReport, ExitCode> {
    let Some(path) = map.get("file") else {
        eprintln!("trace commands need file=LOG.swf");
        return Err(ExitCode::from(2));
    };
    let body = match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match perq_trace::parse_swf_report(&body, mode) {
        Ok(report) => Ok(report),
        Err(e) => {
            eprintln!("{path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_trace_inspect(map: HashMap<String, String>) -> ExitCode {
    use perq_trace::{CalibrationReport, CalibrationTargets, TraceStats};
    let report = match load_trace(&map, parse_mode(&map, perq_trace::ParseMode::Lenient)) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let trace = &report.trace;
    println!("header lines      : {}", trace.header.lines.len());
    for key in ["Computer", "MaxNodes", "MaxProcs", "UnixStartTime"] {
        if let Some(value) = trace.header.get(key) {
            println!("  {key:<15} : {value}");
        }
    }
    let stats = TraceStats::of(trace);
    println!("records           : {}", stats.records);
    println!("valid jobs        : {}", stats.valid_jobs);
    if !report.skipped.is_empty() {
        println!("skipped lines     : {}", report.skipped.len());
    }
    match trace.machine_size() {
        Some(size) => println!("machine size      : {size}"),
        None => println!("machine size      : unknown"),
    }
    println!("mean runtime      : {:.1} min", stats.mean_runtime_min);
    println!("jobs > 30 min     : {:.0}%", 100.0 * stats.frac_over_30min);
    println!(
        "mean / max procs  : {:.1} / {}",
        stats.mean_procs, stats.max_procs
    );
    println!("arrival span      : {:.1} h", stats.arrival_span_s / 3600.0);
    let targets = match map.get("calib").map(String::as_str) {
        Some("mira") => Some(CalibrationTargets::mira()),
        Some("trinity") => Some(CalibrationTargets::trinity()),
        Some("none") | None => None,
        Some(other) => {
            eprintln!("unknown calib '{other}' (expected mira|trinity|none)");
            return ExitCode::from(2);
        }
    };
    if let Some(targets) = targets {
        println!("\ncalibration vs Fig. 1 targets ({}):", targets.name);
        print!("{}", CalibrationReport::compare(&stats, &targets));
    }
    ExitCode::SUCCESS
}

fn cmd_trace_validate(map: HashMap<String, String>) -> ExitCode {
    let mode = parse_mode(&map, perq_trace::ParseMode::Strict);
    let report = match load_trace(&map, mode) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!(
        "{}: {} record(s) parsed, {} line(s) skipped",
        map["file"],
        report.trace.records.len(),
        report.skipped.len()
    );
    for d in &report.skipped {
        println!("  skipped line {}: {}", d.line, d.message);
    }
    if report.trace.records.is_empty() {
        eprintln!("no valid records");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Applies the shared transform order (window → arrival scale → node
/// rescale → runtime clamp) from the key=value spec.
fn apply_transforms(
    trace: &mut perq_trace::SwfTrace,
    map: &HashMap<String, String>,
    rescale_key: &str,
) -> Result<(), ExitCode> {
    if let Some((start, end)) = pair(map, "window")? {
        trace.slice_window(start, end);
    }
    if let Some(scale) = map.get("scale") {
        match scale.parse::<f64>() {
            Ok(f) if f > 0.0 && f.is_finite() => trace.scale_arrivals(f),
            _ => {
                eprintln!("bad scale '{scale}' (expected a positive number)");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some(nodes) = map.get(rescale_key) {
        match nodes.parse::<usize>() {
            Ok(n) if n > 0 => trace.rescale_nodes(n),
            _ => {
                eprintln!("bad {rescale_key} '{nodes}' (expected a positive integer)");
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Some((min, max)) = pair(map, "clamp")? {
        trace.clamp_runtime(min, max);
    }
    Ok(())
}

fn cmd_trace_convert(map: HashMap<String, String>) -> ExitCode {
    let Some(out) = map.get("out").cloned() else {
        eprintln!("trace convert needs out=OUT.swf");
        return ExitCode::from(2);
    };
    let mut report = match load_trace(&map, parse_mode(&map, perq_trace::ParseMode::Lenient)) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if let Err(code) = apply_transforms(&mut report.trace, &map, "nodes") {
        return code;
    }
    let body = perq_trace::write_swf(&report.trace);
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out}: {} record(s) written ({} skipped on parse)",
        report.trace.records.len(),
        report.skipped.len()
    );
    ExitCode::SUCCESS
}

fn cmd_trace_replay(map: HashMap<String, String>) -> ExitCode {
    use perq_campaign::{
        try_run_campaign, CampaignOptions, PolicySpec, Scenario, SwfReplayOptions,
    };
    let Some(path) = map.get("file").cloned() else {
        eprintln!("trace replay needs file=LOG.swf");
        return ExitCode::from(2);
    };
    if let Err(code) = solver_profile(&map) {
        return code;
    }
    let system = system(&map);
    let f: f64 = get(&map, "f", 2.0);
    let hours: f64 = get(&map, "hours", 1.0);
    let seed: u64 = get(&map, "seed", 42);
    let policy = match map.get("policy").map(String::as_str) {
        Some("fop") => PolicySpec::Fop,
        Some("sjs") => PolicySpec::Sjs,
        Some("ljs") => PolicySpec::Ljs,
        Some("srn") => PolicySpec::Srn,
        Some("perq") | None => PolicySpec::perq_default(),
        Some(other) => {
            eprintln!("unknown policy '{other}', using perq");
            PolicySpec::perq_default()
        }
    };
    let window = match pair(&map, "window") {
        Ok(w) => w,
        Err(code) => return code,
    };
    let clamp = match pair(&map, "clamp") {
        Ok(c) => c,
        Err(code) => return code,
    };
    let options = SwfReplayOptions {
        arrival_scale: get(&map, "scale", 1.0),
        window_s: window,
        clamp_runtime_s: clamp,
        synth_seed: map.get("synth-seed").and_then(|v| v.parse().ok()),
        lenient: parse_mode(&map, perq_trace::ParseMode::Lenient) == perq_trace::ParseMode::Lenient,
        honor_arrivals: get(&map, "arrivals", false),
        ..SwfReplayOptions::default()
    };
    let engine = engine(&map);
    let scenario = Scenario::new("replay", system.clone(), f, hours * 3600.0, seed, policy)
        .with_swf(path.clone(), options)
        .with_engine(engine);
    println!(
        "replaying {path} on {}: f={f:.2}, {hours} h, seed {seed} ({engine} engine)",
        system.name
    );
    let recorder = metrics_recorder(&map);
    let outcomes = match try_run_campaign(
        std::slice::from_ref(&scenario),
        &CampaignOptions {
            threads: 1,
            ..Default::default()
        },
        &recorder,
    ) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    summarize(&outcomes[0].result, None);
    if let Err(code) = write_metrics(&map, &recorder) {
        return code;
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(action) = args.first() else {
        eprintln!("trace needs an action: inspect|validate|convert|replay");
        return usage();
    };
    let map = parse_args(&args[1..]);
    match action.as_str() {
        "inspect" => cmd_trace_inspect(map),
        "validate" => cmd_trace_validate(map),
        "convert" => cmd_trace_convert(map),
        "replay" => cmd_trace_replay(map),
        other => {
            eprintln!("unknown trace action '{other}' (expected inspect|validate|convert|replay)");
            usage()
        }
    }
}

fn cmd_stress(map: HashMap<String, String>) -> ExitCode {
    let clients: usize = get(&map, "clients", 100_000);
    let connections: usize = get(&map, "connections", 4);
    let report = perq_proto::stress::run_stress(clients, connections);
    println!(
        "collected {} reports in {:.3} s ({:.0} reports/s)",
        report.clients,
        report.collection_time.as_secs_f64(),
        report.reports_per_second
    );
    ExitCode::SUCCESS
}

fn cmd_serve(map: HashMap<String, String>) -> ExitCode {
    let mut cfg = perq_serve::ServeConfig::default();
    cfg.wp_nodes = get(&map, "wp", cfg.wp_nodes);
    cfg.interval_s = get(&map, "interval", cfg.interval_s);
    cfg.tick = std::time::Duration::from_millis(get(&map, "tick-ms", 50u64));
    cfg.decide_budget = std::time::Duration::from_millis(get(&map, "decide-budget-ms", 20u64));
    cfg.heartbeat_ticks = get(&map, "heartbeat", cfg.heartbeat_ticks);
    cfg.max_ticks = map.get("ticks").and_then(|v| v.parse().ok());

    let policy_name = map.get("policy").map(String::as_str).unwrap_or("fop");
    let profile = match solver_profile(&map) {
        Ok(profile) => profile,
        Err(code) => return code,
    };
    let Some(policy) = perq_serve::make_policy_with_profile(policy_name, profile) else {
        eprintln!("unknown serve policy '{policy_name}' (expected fop|perq)");
        return ExitCode::from(2);
    };
    let listen = map
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let http = map
        .get("http")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let http_addr = (http != "off").then_some(http.as_str());

    // Deterministic (logical-time) metrics go to the manual recorder that
    // /metrics serves; wall-clock loop latencies go to the engine one.
    let rec = Recorder::manual();
    let engine = Recorder::with_clock(Box::new(perq_telemetry::WallClock::new()));
    println!(
        "serving on {listen} (http {http}): policy {policy_name}, budget {:.0} W{}",
        cfg.wp_nodes as f64 * 290.0,
        match cfg.max_ticks {
            Some(t) => format!(", {t} ticks"),
            None => String::new(),
        }
    );
    match perq_serve::serve_tcp(cfg, policy, &listen, http_addr, rec.clone(), engine.clone()) {
        Ok(summary) => {
            println!(
                "served {} ticks: {} live node(s), {} write-off(s)",
                summary.ticks, summary.live_nodes, summary.writeoffs
            );
            if let Err(code) = write_metrics(&map, &rec) {
                return code;
            }
            if let Err(code) = write_engine_metrics(&map, &engine) {
                return code;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_swarm(map: HashMap<String, String>) -> ExitCode {
    let addr = map
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let nodes: u32 = get(&map, "nodes", 64);
    let interval: f64 = get(&map, "interval", 1.0);
    let seed: u64 = get(&map, "seed", 42);
    println!("connecting {nodes} worker(s) to {addr} (interval {interval}s, seed {seed})");
    let outcomes = perq_serve::run_tcp_swarm(&addr, nodes, interval, seed);
    let mut failed = 0usize;
    for (node_id, outcome) in outcomes.iter().enumerate() {
        if let Err(e) = outcome {
            eprintln!("worker {node_id}: {e}");
            failed += 1;
        }
    }
    println!(
        "{} worker(s) finished cleanly, {failed} failed",
        outcomes.len() - failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let map = parse_args(&args[1..]);
    match cmd.as_str() {
        "simulate" => cmd_simulate(map),
        "train" => cmd_train(map),
        "prototype" => cmd_prototype(map),
        "campaign" => cmd_campaign(map),
        "zoo" => cmd_zoo(map),
        "trace" => cmd_trace(&args[1..]),
        "serve" => cmd_serve(map),
        "swarm" => cmd_swarm(map),
        "stress" => cmd_stress(map),
        "metrics-validate" => cmd_metrics_validate(map),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::USAGE;

    /// Every dispatch arm in `main` must appear in the usage text — the
    /// `perq help` audit that catches a subcommand added without docs.
    #[test]
    fn usage_covers_every_subcommand() {
        for cmd in [
            "simulate",
            "train",
            "prototype",
            "campaign",
            "zoo",
            "trace",
            "serve",
            "swarm",
            "stress",
            "metrics-validate",
        ] {
            assert!(
                USAGE.contains(&format!("perq {cmd}")),
                "usage text is missing the '{cmd}' subcommand"
            );
        }
    }
}
