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
//!   as a fixed-width table.
//! - `perq trace` — inspect, validate, convert, and replay SWF workload
//!   logs (`perq-trace`).
//! - `perq serve` — the non-blocking TCP control plane (`perq-serve`):
//!   epoll loop, batched decide ticks, live `/metrics`, hot reload.
//! - `perq swarm` — connect a swarm of protocol workers to a running
//!   `perq serve` (or `perq prototype`) controller.
//! - `perq stress` — the report-collection stress test.
//! - `perq figures` — the paper's evaluation: every figure and table as
//!   rows, each DESIGN.md §2 shape checked as a named predicate.
//! - `perq metrics-validate` — CI smoke check on a Prometheus export,
//!   from a file or scraped live from a `/metrics` URL.
//!
//! Run `perq help` (or any subcommand with `--help`-style ignorance) for
//! usage. The CLI keeps zero non-workspace dependencies: argument parsing
//! is a hand-rolled key=value scheme, which is all these commands need.
//! A value a command cannot use — an unknown spelling, a number that
//! does not parse, a retired key — is a usage error (exit 2) naming the
//! key, never a silent default.

use perq_core::{baselines, train_node_model, PerqConfig, PerqPolicy};
use perq_sim::{
    compare_fairness, fault_summary, Cluster, ClusterConfig, FairPolicy, FaultPlan, FaultRates,
    JobSpec, PowerPolicy, SimResult, SystemModel, TraceGenerator,
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
                   [engine-metrics-out=PATH] (simulator-loop diagnostics — intervals
                   executed vs skipped as idle, wall time per simulated day — as
                   a Prometheus exposition)
                   [coordinator-metrics-out=PATH] (hierarchical runs: grant
                   rounds and coordinator solve latency as a Prometheus
                   exposition — wall-clock, so kept out of metrics-out)
    perq train     [seed=7]
    perq prototype [wp=8] [f=2.0] [policy=perq|fop|sjs|ljs|srn] [jobs=200] [intervals=600]
                   [crash=NODE@STEP] (kill worker NODE at control step STEP)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
    perq campaign  [threads=1] [scenarios=FILE.json] [json=out.json]
                   [system=mira|trinity|tardis] [policy=perq|fop|sjs|ljs|srn]
                   [seeds=4] [hours=0.5] [f=2.0]
                   [topology=flat|enclaves:N] [tenants=1,2,4] [coordination=6]
                   [authority=qp|proportional] (hierarchical scenarios — the
                   same keys as simulate, applied to every generated cell;
                   scenario files carry their own \"topology\" field)
                   [enclave-threads=1] (threads per hierarchical scenario,
                   multiplicative with threads=; byte-identical at any count)
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
                   (scenarios=FILE runs a serde-encoded grid; otherwise a
                   fig8-style grid over seeds 0..SEEDS is generated. Exports
                   are byte-identical at any thread count.)
    perq zoo       [seed=7] [threads=1] [swf=LOG.swf] [json=out.json]
                   [metrics-out=PATH] [metrics-fmt=prom|jsonl]
                   (policy-zoo ablation: ZOO-FAIR / ZOO-GREEDY / ZOO-BANDIT /
                   ZOO-PERQ crossed with five regimes — sparse
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
                   [arrivals=true] (honour the log's submit times instead of
                   queueing every job at t=0; the idle gaps between arrivals
                   are skipped, byte-identically to stepping through them)
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
    perq figures   [fig=table1|1|2|3|6|7|8|9|10|11|12|13|overhead|tune|ablation]
                   [hours=H] [system=mira|trinity|tardis] [threads=1] [out=FILE.jsonl]
                   (the paper's evaluation as one table: prints each figure's
                   rows, then PASS / FAIL for every DESIGN.md §2 shape predicate;
                   exit 1 on any FAIL. No fig= runs every row at its default
                   scale. hours= sets the simulated length of every row that
                   has one (Figs. 6-11, tune, ablation; hours=24 is the paper's
                   day). system= moves the rows whose shape does not depend on
                   the machine (Fig. 10, tune, ablation) and is a usage error
                   with a fig= it cannot move.
                   threads= fans the cells out on the campaign engine,
                   byte-identically. out= writes every row, Fig. 8's trace
                   points included, as JSON lines.)
    perq metrics-validate file=PATH | url=http://HOST:PORT/metrics [require=name1,name2,...]
                   (parse a Prometheus exposition and check required metrics — CI smoke;
                   url= scrapes a live /metrics endpoint over raw TCP first)
    perq help

A value a command cannot use (unknown spelling, unparsable number) and the
retired engine= / parity-steps= keys are usage errors: exit 2, key named.

Examples:
    perq simulate system=trinity policy=perq f=1.8 hours=8
    perq simulate system=mira policy=perq precision=mixed hours=1
    perq simulate system=mira topology=enclaves:4 tenants=1,2 authority=qp hours=1
    perq campaign threads=4 topology=enclaves:8 enclave-threads=2 seeds=8 hours=0.5
    perq trace replay file=year.swf system=mira arrivals=true hours=8760
    perq campaign threads=8 system=tardis policy=fop seeds=16 hours=1
    perq campaign threads=4 scenarios=grid.json metrics-out=campaign.prom metrics-fmt=prom
    perq zoo seed=7 threads=4 swf=log.swf json=zoo.json
    perq simulate system=tardis policy=perq faults=7 metrics-out=metrics.prom metrics-fmt=prom
    perq prototype wp=4 f=2.0 policy=srn crash=2@10
    perq trace inspect file=log.swf calib=mira
    perq trace replay file=log.swf system=tardis policy=perq f=2.0 hours=1
    perq metrics-validate file=metrics.prom require=perq_sim_steps_total,perq_qp_solves_total
    perq figures fig=6 hours=24
    perq figures system=tardis threads=2 out=figures.jsonl
    perq serve policy=fop wp=8 ticks=200 &   # then, from another shell:
    perq swarm nodes=64
    perq metrics-validate url=http://127.0.0.1:7071/metrics require=perq_serve_ticks_total
";

/// Why a command stopped early, with the line to print on stderr.
#[derive(Debug)]
enum CliError {
    /// The command line asks for something the command cannot do — an
    /// unknown spelling, an unparsable number, a retired key. Exit 2.
    /// Never a silent default: that would label default numbers as the
    /// run the user asked for.
    Usage(String),
    /// The run itself failed (I/O, a workload that does not load). Exit 1.
    Failed(String),
}

type CliResult<T = ()> = Result<T, CliError>;

fn usage_error<T>(msg: String) -> CliResult<T> {
    Err(CliError::Usage(msg))
}

type Args = HashMap<String, String>;

fn parse_args(args: &[String]) -> CliResult<Args> {
    let mut map = HashMap::new();
    for a in args {
        if let Some((k, v)) = a.split_once('=') {
            if k == "engine" || k == "parity-steps" {
                return usage_error(format!(
                    "'{k}=' was retired: the simulator has one loop now (idle intervals are \
                     always skipped, byte-identically to stepping through them) — drop the key"
                ));
            }
            map.insert(k.to_string(), v.to_string());
        }
    }
    Ok(map)
}

/// The value of `key=`, if given; a value that does not parse as `T` is
/// a usage error naming the key.
fn opt<T: std::str::FromStr>(map: &Args, key: &str) -> CliResult<Option<T>> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => match v.parse() {
            Ok(value) => Ok(Some(value)),
            Err(_) => usage_error(format!(
                "bad {key} '{v}' (expected a value of type {})",
                std::any::type_name::<T>()
            )),
        },
    }
}

fn get<T: std::str::FromStr>(map: &Args, key: &str, default: T) -> CliResult<T> {
    Ok(opt(map, key)?.unwrap_or(default))
}

fn system(map: &Args) -> CliResult<SystemModel> {
    match map.get("system").map(String::as_str) {
        Some("trinity") => Ok(SystemModel::trinity()),
        Some("tardis") => Ok(SystemModel::tardis()),
        Some("mira") | None => Ok(SystemModel::mira()),
        Some(other) => usage_error(format!(
            "unknown system '{other}' (expected mira|trinity|tardis)"
        )),
    }
}

/// Parses `precision=f64|f64_soa|mixed` (default: the bit-reproducible
/// `f64`/AoS reference profile). `mixed` iterates the decision QP in
/// single precision over SoA lanes, verifies every answer against an f64
/// residual check and polishes in f64 when the check fails.
fn solver_profile(map: &Args) -> CliResult<perq_core::SolverProfile> {
    match map.get("precision") {
        None => Ok(perq_core::SolverProfile::default()),
        Some(spec) => spec.parse().map_err(CliError::Usage),
    }
}

/// The policies `simulate`, `prototype`, `campaign` and `trace replay`
/// accept (default `perq`).
#[derive(Clone, Copy)]
enum PolicyArg {
    Perq,
    Fop,
    Sjs,
    Ljs,
    Srn,
}

fn policy_arg(map: &Args) -> CliResult<PolicyArg> {
    match map.get("policy").map(String::as_str) {
        Some("perq") | None => Ok(PolicyArg::Perq),
        Some("fop") => Ok(PolicyArg::Fop),
        Some("sjs") => Ok(PolicyArg::Sjs),
        Some("ljs") => Ok(PolicyArg::Ljs),
        Some("srn") => Ok(PolicyArg::Srn),
        Some(other) => usage_error(format!(
            "unknown policy '{other}' (expected perq|fop|sjs|ljs|srn)"
        )),
    }
}

/// A live policy for `policy=`, PERQ under `precision=`.
fn policy(map: &Args) -> CliResult<Box<dyn PowerPolicy + Send>> {
    let solver_profile = solver_profile(map)?;
    Ok(match policy_arg(map)? {
        PolicyArg::Fop => Box::new(FairPolicy::new()),
        PolicyArg::Sjs => Box::new(baselines::sjs()),
        PolicyArg::Ljs => Box::new(baselines::ljs()),
        PolicyArg::Srn => Box::new(baselines::srn()),
        PolicyArg::Perq => Box::new(PerqPolicy::new(PerqConfig {
            solver_profile,
            ..PerqConfig::default()
        })),
    })
}

/// The campaign spec for `policy=`. Generated grids and replays run
/// PERQ's reference profile (a scenario file carries its own); a
/// misspelt or retired `precision=` still must not pass for a run at
/// that precision, so the key is validated here too.
fn policy_spec(map: &Args) -> CliResult<perq_campaign::PolicySpec> {
    use perq_campaign::PolicySpec;
    solver_profile(map)?;
    Ok(match policy_arg(map)? {
        PolicyArg::Fop => PolicySpec::Fop,
        PolicyArg::Sjs => PolicySpec::Sjs,
        PolicyArg::Ljs => PolicySpec::Ljs,
        PolicyArg::Srn => PolicySpec::Srn,
        PolicyArg::Perq => PolicySpec::perq_default(),
    })
}

/// Parses `topology=flat|enclaves:N` plus its refinement keys
/// (`tenants=`, `coordination=`, `authority=`) into a campaign
/// [`perq_campaign::TopologySpec`]. The refinement keys are ignored
/// for flat runs, matching the campaign engine's behaviour.
fn topology(map: &Args) -> CliResult<perq_campaign::TopologySpec> {
    use perq_campaign::{AuthoritySpec, TopologySpec};
    let count = match map.get("topology").map(String::as_str) {
        None | Some("flat") => return Ok(TopologySpec::Flat),
        Some(spec) => match spec
            .strip_prefix("enclaves:")
            .and_then(|n| n.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => {
                return usage_error(format!(
                    "bad topology '{spec}' (expected flat|enclaves:N with N >= 1)"
                ))
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
                    return usage_error(format!(
                        "bad tenants '{spec}' (expected comma-separated positive weights)"
                    ))
                }
            }
        }
    };
    let coordination_intervals: usize = get(map, "coordination", 6)?;
    if coordination_intervals == 0 {
        return usage_error("bad coordination '0' (expected a positive interval count)".into());
    }
    let authority = match map.get("authority").map(String::as_str) {
        None | Some("qp") => AuthoritySpec::CouplingQp,
        Some("proportional") => AuthoritySpec::Proportional,
        Some(other) => {
            return usage_error(format!(
                "unknown authority '{other}' (expected qp|proportional)"
            ))
        }
    };
    Ok(TopologySpec::Enclaves {
        count,
        tenant_weights,
        coordination_intervals,
        authority,
    })
}

/// Writes `body` to `path` and says what was written.
fn write_file(path: &str, body: impl AsRef<[u8]>, what: &str) -> CliResult {
    std::fs::write(path, body)
        .map_err(|e| CliError::Failed(format!("failed to write {path}: {e}")))?;
    println!("{what} written to {path}");
    Ok(())
}

/// Writes `to_json()` to `json=`. No-op when the key was not given.
fn write_json(
    map: &Args,
    to_json: impl FnOnce() -> serde_json::Result<String>,
    what: &str,
) -> CliResult {
    let Some(path) = map.get("json") else {
        return Ok(());
    };
    let body =
        to_json().map_err(|e| CliError::Failed(format!("failed to serialize the {what}: {e}")))?;
    write_file(path, body, what)
}

/// A live recorder when `key=` was given, the no-op otherwise. The
/// manual clock keeps exports deterministic: timestamps come from
/// simulated time, never the wall.
fn recorder_for(map: &Args, key: &str) -> Recorder {
    if map.contains_key(key) {
        Recorder::manual()
    } else {
        Recorder::noop()
    }
}

/// Writes `recorder` to `key=` as a Prometheus exposition. No-op when
/// the key was not given.
fn write_prometheus(map: &Args, key: &str, recorder: &Recorder, what: &str) -> CliResult {
    match map.get(key) {
        Some(path) => write_file(path, recorder.export_prometheus(), what),
        None => Ok(()),
    }
}

/// Writes the recorder's export to `metrics-out=` in `metrics-fmt=`
/// (default jsonl). No-op when `metrics-out=` was not given.
fn write_metrics(map: &Args, recorder: &Recorder) -> CliResult {
    let Some(path) = map.get("metrics-out") else {
        return Ok(());
    };
    let body = match map.get("metrics-fmt").map(String::as_str) {
        Some("prom") => recorder.export_prometheus(),
        Some("jsonl") | None => recorder.export_jsonl(),
        Some(other) => {
            return usage_error(format!(
                "unknown metrics-fmt '{other}' (expected prom|jsonl)"
            ))
        }
    };
    write_file(path, body, "metrics")
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

fn cmd_simulate(map: Args) -> CliResult {
    let system = system(&map)?;
    let f: f64 = get(&map, "f", 2.0)?;
    let hours: f64 = get(&map, "hours", 4.0)?;
    let seed: u64 = get(&map, "seed", 42)?;
    let interval: f64 = get(&map, "interval", 10.0)?;
    let topo = topology(&map)?;

    let mut config = ClusterConfig::for_system(&system, f, hours * 3600.0);
    config.interval_s = interval;
    let jobs = TraceGenerator::new(system.clone(), seed)
        .generate_saturating(config.nodes, config.duration_s);
    println!(
        "simulating {}: {} nodes (wp {}), {} queued jobs, {hours} h at {interval} s intervals",
        system.name,
        config.nodes,
        config.wp_nodes,
        jobs.len()
    );

    let fault_plan = opt::<u64>(&map, "faults")?.map(|fs| {
        let steps = (config.duration_s / config.interval_s) as usize;
        let plan = FaultPlan::generate(fs, steps, &FaultRates::default());
        println!(
            "fault injection   : seed {fs}, {} scheduled events",
            plan.len()
        );
        plan
    });
    if topo.hier_topology().is_some() {
        return simulate_hier(&map, config, jobs, seed, &topo, fault_plan);
    }
    let with_plan = |mut c: Cluster| -> Cluster {
        if let Some(plan) = &fault_plan {
            c = c.with_fault_plan(plan.clone());
        }
        c
    };

    // Always run the FOP reference for the fairness metrics. The
    // recorder follows the *chosen* policy's run, whichever that is.
    let recorder = recorder_for(&map, "metrics-out");
    let engine_recorder = recorder_for(&map, "engine-metrics-out");
    let mut chosen = policy(&map)?;
    let chosen_is_fop = chosen.name() == "FOP";
    let mut fop_cluster = with_plan(Cluster::new(config.clone(), jobs.clone(), seed));
    if chosen_is_fop {
        fop_cluster = fop_cluster
            .with_recorder(recorder.clone())
            .with_engine_recorder(engine_recorder.clone());
    }
    let fop_result = fop_cluster.run(&mut FairPolicy::new());
    let result = if chosen_is_fop {
        fop_result.clone()
    } else {
        with_plan(Cluster::new(config, jobs, seed))
            .with_recorder(recorder.clone())
            .with_engine_recorder(engine_recorder.clone())
            .run(chosen.as_mut())
    };
    summarize(&result, Some(&fop_result));
    write_metrics(&map, &recorder)?;
    write_prometheus(
        &map,
        "engine-metrics-out",
        &engine_recorder,
        "engine metrics",
    )?;
    write_json(
        &map,
        || serde_json::to_string_pretty(&result),
        "full result",
    )
}

/// The hierarchical arm of `perq simulate`: `N` enclave controllers
/// under a budget coordinator instead of one flat policy loop. The FOP
/// fairness reference is skipped — it is a flat-controller notion; use
/// `perq campaign` with a topology for cross-policy comparisons.
fn simulate_hier(
    map: &Args,
    config: ClusterConfig,
    jobs: Vec<JobSpec>,
    seed: u64,
    topo: &perq_campaign::TopologySpec,
    fault_plan: Option<FaultPlan>,
) -> CliResult {
    use perq_sim::HierSim;
    let threads: usize = get(map, "enclave-threads", 1)?;
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

    let recorder = recorder_for(map, "metrics-out");
    let coord_recorder = recorder_for(map, "coordinator-metrics-out");
    let policies = (0..hier.enclaves)
        .map(|_| policy(map))
        .collect::<CliResult<Vec<_>>>()?;
    let mut sim = HierSim::new(config, jobs, seed, hier, policies)
        .with_threads(threads)
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
    write_metrics(map, &recorder)?;
    write_prometheus(
        map,
        "coordinator-metrics-out",
        &coord_recorder,
        "coordinator metrics",
    )?;
    write_json(map, || serde_json::to_string_pretty(&result), "full result")
}

fn cmd_train(map: Args) -> CliResult {
    let seed: u64 = get(&map, "seed", 7)?;
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
    Ok(())
}

fn cmd_prototype(map: Args) -> CliResult {
    use perq_proto::{ProtoCluster, ProtoConfig};
    let wp: usize = get(&map, "wp", 8)?;
    let f: f64 = get(&map, "f", 2.0)?;
    let n_jobs: usize = get(&map, "jobs", 200)?;
    let intervals: usize = get(&map, "intervals", 600)?;

    let mut jobs =
        TraceGenerator::new(SystemModel::tardis(), get(&map, "seed", 42)?).generate(n_jobs);
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
            None => return usage_error(format!("bad crash spec '{spec}' (expected NODE@STEP)")),
        }
    }
    println!(
        "prototype: {} workers (budget {} nodes), {} jobs, {} intervals",
        config.nodes, config.wp_nodes, n_jobs, intervals
    );
    let recorder = recorder_for(&map, "metrics-out");
    let mut chosen = policy(&map)?;
    let cluster = ProtoCluster::new(config).with_recorder(recorder.clone());
    let result = cluster
        .run(jobs, chosen.as_mut())
        .map_err(|e| CliError::Failed(format!("prototype run failed: {e}")))?;
    summarize(&result, None);
    write_metrics(&map, &recorder)
}

fn cmd_campaign(map: Args) -> CliResult {
    use perq_campaign::{fig8_style_grid, try_run_campaign, CampaignOptions, Scenario};

    let policy = policy_spec(&map)?;
    let threads: usize = get(&map, "threads", 1)?;
    let scenarios: Vec<Scenario> = if let Some(path) = map.get("scenarios") {
        let body = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("failed to read {path}: {e}")))?;
        serde_json::from_str(&body).map_err(|e| {
            CliError::Failed(format!("failed to parse {path} as a scenario grid: {e}"))
        })?
    } else {
        let seeds: u64 = get(&map, "seeds", 4)?;
        let hours: f64 = get(&map, "hours", 0.5)?;
        let f: f64 = get(&map, "f", 2.0)?;
        let topo = topology(&map)?;
        let mut grid = fig8_style_grid(system(&map)?, hours * 3600.0, 0..seeds);
        for s in grid.iter_mut() {
            s.f = f;
            s.policy = policy.clone();
            s.topology = topo.clone();
        }
        grid
    };
    if scenarios.is_empty() {
        return usage_error("scenario grid is empty".into());
    }
    println!(
        "campaign: {} scenario(s) on {} thread(s)",
        scenarios.len(),
        threads.max(1)
    );

    let recorder = recorder_for(&map, "metrics-out");
    let opts = CampaignOptions {
        threads,
        enclave_threads: get(&map, "enclave-threads", 1)?,
    };
    let start = std::time::Instant::now();
    let outcomes = try_run_campaign(&scenarios, &opts, &recorder)
        .map_err(|e| CliError::Failed(e.to_string()))?;
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
    write_metrics(&map, &recorder)?;
    write_json(
        &map,
        || serde_json::to_string_pretty(&outcomes),
        "full outcomes",
    )
}

/// The policy-zoo ablation: `zoo_ablation_grid` (four `perq-gym` zoo
/// policies × five evaluation regimes) run on the campaign engine and
/// folded into the fixed-width `AblationTable`. The grid is pure data
/// and every scenario is seeded, so the table (and the `json=` export)
/// is byte-identical at any thread count and on every re-run.
fn cmd_zoo(map: Args) -> CliResult {
    use perq_campaign::{
        ablation_policies, ablation_table, try_run_campaign, zoo_ablation_grid, CampaignOptions,
    };

    let seed: u64 = get(&map, "seed", 7)?;
    let threads: usize = get(&map, "threads", 1)?;
    let grid = zoo_ablation_grid(seed, map.get("swf").map(String::as_str));
    let policies = ablation_policies(seed).len();
    println!(
        "zoo ablation: {} scenario(s) ({policies} policies x {} regimes) on {} thread(s)",
        grid.len(),
        grid.len() / policies,
        threads.max(1)
    );

    let recorder = recorder_for(&map, "metrics-out");
    let opts = CampaignOptions {
        threads,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let outcomes =
        try_run_campaign(&grid, &opts, &recorder).map_err(|e| CliError::Failed(e.to_string()))?;
    let elapsed = start.elapsed().as_secs_f64();

    let table = ablation_table(&outcomes);
    print!("{}", table.render());
    println!("zoo wall-clock: {elapsed:.2} s");
    write_metrics(&map, &recorder)?;
    write_json(
        &map,
        || serde_json::to_string_pretty(&table),
        "ablation table",
    )
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

fn cmd_metrics_validate(map: Args) -> CliResult {
    let (source, body) = if let Some(url) = map.get("url") {
        let body =
            scrape(url).map_err(|e| CliError::Failed(format!("failed to scrape {url}: {e}")))?;
        (url, body)
    } else if let Some(path) = map.get("file") {
        let body = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("failed to read {path}: {e}")))?;
        (path, body)
    } else {
        return usage_error(
            "metrics-validate needs file=PATH or url=http://HOST:PORT/metrics".into(),
        );
    };
    let required: Vec<&str> = map
        .get("require")
        .map(|r| r.split(',').filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();
    perq_telemetry::validate_prometheus(&body, &required)
        .map_err(|e| CliError::Failed(format!("{source}: {e}")))?;
    println!(
        "{source}: valid Prometheus exposition; {} required metric(s) present",
        required.len()
    );
    Ok(())
}

/// Parses `KEY=A:B` into a pair of floats.
fn pair(map: &Args, key: &str) -> CliResult<Option<(f64, f64)>> {
    let Some(spec) = map.get(key) else {
        return Ok(None);
    };
    match spec
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<f64>().ok()?, b.parse::<f64>().ok()?)))
    {
        Some(pair) => Ok(Some(pair)),
        None => usage_error(format!("bad {key} spec '{spec}' (expected A:B)")),
    }
}

fn parse_mode(map: &Args, default: perq_trace::ParseMode) -> CliResult<perq_trace::ParseMode> {
    match map.get("mode").map(String::as_str) {
        Some("strict") => Ok(perq_trace::ParseMode::Strict),
        Some("lenient") => Ok(perq_trace::ParseMode::Lenient),
        Some(other) => usage_error(format!("unknown mode '{other}' (expected strict|lenient)")),
        None => Ok(default),
    }
}

/// Reads and parses `file=` in the given mode, reporting any skipped
/// lines. Lenient mode never fails; strict mode prints the
/// line-numbered diagnostic and bails.
fn load_trace(map: &Args, mode: perq_trace::ParseMode) -> CliResult<perq_trace::ParseReport> {
    let Some(path) = map.get("file") else {
        return usage_error("trace commands need file=LOG.swf".into());
    };
    let body = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("failed to read {path}: {e}")))?;
    perq_trace::parse_swf_report(&body, mode).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn cmd_trace_inspect(map: Args) -> CliResult {
    use perq_trace::{CalibrationReport, CalibrationTargets, TraceStats};
    let report = load_trace(&map, parse_mode(&map, perq_trace::ParseMode::Lenient)?)?;
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
            return usage_error(format!(
                "unknown calib '{other}' (expected mira|trinity|none)"
            ))
        }
    };
    if let Some(targets) = targets {
        println!("\ncalibration vs Fig. 1 targets ({}):", targets.name);
        print!("{}", CalibrationReport::compare(&stats, &targets));
    }
    Ok(())
}

fn cmd_trace_validate(map: Args) -> CliResult {
    let mode = parse_mode(&map, perq_trace::ParseMode::Strict)?;
    let report = load_trace(&map, mode)?;
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
        return Err(CliError::Failed("no valid records".into()));
    }
    Ok(())
}

/// Applies the shared transform order (window → arrival scale → node
/// rescale → runtime clamp) from the key=value spec.
fn apply_transforms(trace: &mut perq_trace::SwfTrace, map: &Args, rescale_key: &str) -> CliResult {
    if let Some((start, end)) = pair(map, "window")? {
        trace.slice_window(start, end);
    }
    if let Some(scale) = map.get("scale") {
        match scale.parse::<f64>() {
            Ok(f) if f > 0.0 && f.is_finite() => trace.scale_arrivals(f),
            _ => return usage_error(format!("bad scale '{scale}' (expected a positive number)")),
        }
    }
    if let Some(nodes) = map.get(rescale_key) {
        match nodes.parse::<usize>() {
            Ok(n) if n > 0 => trace.rescale_nodes(n),
            _ => {
                return usage_error(format!(
                    "bad {rescale_key} '{nodes}' (expected a positive integer)"
                ))
            }
        }
    }
    if let Some((min, max)) = pair(map, "clamp")? {
        trace.clamp_runtime(min, max);
    }
    Ok(())
}

fn cmd_trace_convert(map: Args) -> CliResult {
    let Some(out) = map.get("out") else {
        return usage_error("trace convert needs out=OUT.swf".into());
    };
    let mut report = load_trace(&map, parse_mode(&map, perq_trace::ParseMode::Lenient)?)?;
    apply_transforms(&mut report.trace, &map, "nodes")?;
    std::fs::write(out, perq_trace::write_swf(&report.trace))
        .map_err(|e| CliError::Failed(format!("failed to write {out}: {e}")))?;
    println!(
        "{out}: {} record(s) written ({} skipped on parse)",
        report.trace.records.len(),
        report.skipped.len()
    );
    Ok(())
}

fn cmd_trace_replay(map: Args) -> CliResult {
    use perq_campaign::{try_run_campaign, CampaignOptions, Scenario, SwfReplayOptions};
    let Some(path) = map.get("file").cloned() else {
        return usage_error("trace replay needs file=LOG.swf".into());
    };
    let policy = policy_spec(&map)?;
    let system = system(&map)?;
    let f: f64 = get(&map, "f", 2.0)?;
    let hours: f64 = get(&map, "hours", 1.0)?;
    let seed: u64 = get(&map, "seed", 42)?;
    let options = SwfReplayOptions {
        arrival_scale: get(&map, "scale", 1.0)?,
        window_s: pair(&map, "window")?,
        clamp_runtime_s: pair(&map, "clamp")?,
        synth_seed: opt(&map, "synth-seed")?,
        lenient: parse_mode(&map, perq_trace::ParseMode::Lenient)?
            == perq_trace::ParseMode::Lenient,
        honor_arrivals: get(&map, "arrivals", false)?,
        ..SwfReplayOptions::default()
    };
    let scenario = Scenario::new("replay", system.clone(), f, hours * 3600.0, seed, policy)
        .with_swf(path.clone(), options);
    println!(
        "replaying {path} on {}: f={f:.2}, {hours} h, seed {seed}",
        system.name
    );
    let recorder = recorder_for(&map, "metrics-out");
    let outcomes = try_run_campaign(
        std::slice::from_ref(&scenario),
        &CampaignOptions::default(),
        &recorder,
    )
    .map_err(|e| CliError::Failed(e.to_string()))?;
    summarize(&outcomes[0].result, None);
    write_metrics(&map, &recorder)
}

fn cmd_trace(args: &[String]) -> CliResult {
    let Some(action) = args.first() else {
        return usage_error(format!(
            "trace needs an action: inspect|validate|convert|replay\n{USAGE}"
        ));
    };
    let map = parse_args(&args[1..])?;
    match action.as_str() {
        "inspect" => cmd_trace_inspect(map),
        "validate" => cmd_trace_validate(map),
        "convert" => cmd_trace_convert(map),
        "replay" => cmd_trace_replay(map),
        other => usage_error(format!(
            "unknown trace action '{other}' (expected inspect|validate|convert|replay)\n{USAGE}"
        )),
    }
}

fn cmd_stress(map: Args) -> CliResult {
    let clients: usize = get(&map, "clients", 100_000)?;
    let connections: usize = get(&map, "connections", 4)?;
    let report = perq_proto::stress::run_stress(clients, connections);
    println!(
        "collected {} reports in {:.3} s ({:.0} reports/s)",
        report.clients,
        report.collection_time.as_secs_f64(),
        report.reports_per_second
    );
    Ok(())
}

fn cmd_figures(map: Args) -> CliResult {
    let request = perq_bench::figures::Request {
        fig: map.get("fig").cloned(),
        hours: opt(&map, "hours")?,
        system: map
            .contains_key("system")
            .then(|| system(&map))
            .transpose()?,
        threads: get(&map, "threads", 1)?,
    };
    if request
        .hours
        .is_some_and(|h: f64| !(h > 0.0 && h.is_finite()))
    {
        return usage_error(format!(
            "bad hours '{}' (expected a positive number)",
            map["hours"]
        ));
    }
    let report =
        perq_bench::figures::run(&request, |text| println!("{text}")).map_err(CliError::Usage)?;
    if let Some(path) = map.get("out") {
        write_file(path, &report.jsonl, "figure rows")?;
    }
    if report.failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "{} shape predicate(s) failed: {}",
            report.failed.len(),
            report.failed.join(", ")
        )))
    }
}

fn cmd_serve(map: Args) -> CliResult {
    let mut cfg = perq_serve::ServeConfig::default();
    cfg.wp_nodes = get(&map, "wp", cfg.wp_nodes)?;
    cfg.interval_s = get(&map, "interval", cfg.interval_s)?;
    cfg.tick = std::time::Duration::from_millis(get(&map, "tick-ms", 50u64)?);
    cfg.decide_budget = std::time::Duration::from_millis(get(&map, "decide-budget-ms", 20u64)?);
    cfg.heartbeat_ticks = get(&map, "heartbeat", cfg.heartbeat_ticks)?;
    cfg.max_ticks = opt(&map, "ticks")?;

    let policy_name = map.get("policy").map(String::as_str).unwrap_or("fop");
    let profile = solver_profile(&map)?;
    let Some(policy) = perq_serve::make_policy_with_profile(policy_name, profile) else {
        return usage_error(format!(
            "unknown serve policy '{policy_name}' (expected fop|perq)"
        ));
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
    let summary =
        perq_serve::serve_tcp(cfg, policy, &listen, http_addr, rec.clone(), engine.clone())
            .map_err(|e| CliError::Failed(format!("serve failed: {e}")))?;
    println!(
        "served {} ticks: {} live node(s), {} write-off(s)",
        summary.ticks, summary.live_nodes, summary.writeoffs
    );
    write_metrics(&map, &rec)?;
    write_prometheus(&map, "engine-metrics-out", &engine, "engine metrics")
}

fn cmd_swarm(map: Args) -> CliResult {
    let addr = map
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let nodes: u32 = get(&map, "nodes", 64)?;
    let interval: f64 = get(&map, "interval", 1.0)?;
    let seed: u64 = get(&map, "seed", 42)?;
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
        Ok(())
    } else {
        Err(CliError::Failed(format!("{failed} worker(s) failed")))
    }
}

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        return usage_error(USAGE.into());
    };
    if cmd == "trace" {
        return cmd_trace(&args[1..]);
    }
    let map = parse_args(&args[1..])?;
    match cmd.as_str() {
        "simulate" => cmd_simulate(map),
        "train" => cmd_train(map),
        "prototype" => cmd_prototype(map),
        "campaign" => cmd_campaign(map),
        "zoo" => cmd_zoo(map),
        "serve" => cmd_serve(map),
        "swarm" => cmd_swarm(map),
        "stress" => cmd_stress(map),
        "figures" => cmd_figures(map),
        "metrics-validate" => cmd_metrics_validate(map),
        _ => usage_error(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every dispatch arm in `run` must appear in the usage text — the
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
            "figures",
            "metrics-validate",
        ] {
            assert!(
                USAGE.contains(&format!("perq {cmd}")),
                "usage text is missing the '{cmd}' subcommand"
            );
        }
    }

    /// `fig=` in the usage text lists exactly the rows of the table.
    #[test]
    fn usage_lists_every_figure_row() {
        let listed = USAGE.split("[fig=").nth(1).expect("fig= in the usage text");
        let listed: Vec<&str> = listed.split(']').next().unwrap().split('|').collect();
        let rows: Vec<&str> = perq_bench::figures::FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(listed, rows);
        let msg = usage_line(&["figures", "fig=14"]);
        assert!(
            msg.contains("fig '14'") && msg.contains(&rows.join("|")),
            "{msg}"
        );
        let msg = usage_line(&["figures", "fig=1", "hours=-2"]);
        assert!(msg.contains("bad hours '-2'"), "{msg}");
        let msg = usage_line(&["figures", "fig=6", "system=tardis"]);
        assert!(
            msg.contains("does not move fig=6") && msg.contains("10|tune|ablation"),
            "{msg}"
        );
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The usage-error line a command line produces; panics on anything
    /// else (success or a runtime failure).
    fn usage_line(list: &[&str]) -> String {
        match run(&args(list)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{list:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_spellings_are_usage_errors_naming_the_accepted_ones() {
        let msg = usage_line(&["simulate", "system=summit"]);
        assert!(
            msg.contains("system 'summit'") && msg.contains("mira|trinity|tardis"),
            "{msg}"
        );
        for cmd in [
            &["simulate", "system=tardis"][..],
            &["prototype"][..],
            &["campaign", "system=tardis"][..],
            &["trace", "replay", "file=none.swf"][..],
        ] {
            let mut line = cmd.to_vec();
            line.push("policy=fair");
            let msg = usage_line(&line);
            assert!(
                msg.contains("policy 'fair'") && msg.contains("perq|fop|sjs|ljs|srn"),
                "{line:?}: {msg}"
            );
        }
        for action in ["inspect", "validate", "convert", "replay"] {
            let msg = usage_line(&["trace", action, "file=none.swf", "out=x", "mode=sloppy"]);
            assert!(
                msg.contains("mode 'sloppy'") && msg.contains("strict|lenient"),
                "{action}: {msg}"
            );
        }
    }

    #[test]
    fn unparsable_values_are_usage_errors_naming_the_key() {
        for line in [
            &["simulate", "system=tardis", "hours=abc"][..],
            &["simulate", "system=tardis", "faults=soon"][..],
            &[
                "simulate",
                "system=tardis",
                "topology=enclaves:2",
                "enclave-threads=x",
            ][..],
            &["campaign", "seeds=-1"][..],
            &["prototype", "wp=eight"][..],
            &["trace", "replay", "file=none.swf", "arrivals=yes"][..],
            &["trace", "replay", "file=none.swf", "synth-seed=1.5"][..],
            &["serve", "ticks=forever"][..],
            &["swarm", "nodes=many"][..],
            &["zoo", "threads=two"][..],
        ] {
            let msg = usage_line(line);
            let (key, value) = line.last().unwrap().split_once('=').unwrap();
            assert!(
                msg.contains(&format!("bad {key} '{value}'")),
                "{line:?}: {msg}"
            );
        }
    }

    #[test]
    fn retired_engine_keys_are_usage_errors_saying_there_is_one_loop() {
        for line in [
            &["simulate", "system=tardis", "engine=event"][..],
            &["simulate", "engine=step"][..],
            &["campaign", "engine=event", "parity-steps=100"][..],
            &["campaign", "parity-steps=100"][..],
            &[
                "trace",
                "replay",
                "file=year.swf",
                "engine=event",
                "arrivals=true",
            ][..],
        ] {
            let msg = usage_line(line);
            assert!(msg.contains("retired") && msg.contains("one loop"), "{msg}");
            assert_eq!(msg.lines().count(), 1, "one line, not the usage page");
        }
    }
}
