//! The three simulator workloads: `sim_mira`, `sim_exact_4096` and
//! `sim_hier_64`.
//!
//! An episode is one seeded simulation of fixed simulated length, so it
//! repeats exactly: the same seed gives the same records, the same
//! interval log and the same digest, traced or not.

use crate::metrics::Fnv;
use crate::trace::{AssignStats, CallLog, SpanLog, TracedAuthority, TracedPolicy};
use perq_core::{CouplingAuthority, PerqConfig, PerqPolicy};
use perq_sim::{
    compare_fairness, Cluster, ClusterConfig, FairPolicy, HierSim, HierTopology, JobSpec,
    PowerPolicy, SimResult, SystemModel, TraceGenerator,
};
use perq_telemetry::{Recorder, WallClock};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which simulation an episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `Cluster` on `SystemModel::mira()`, product-default PERQ, with an
    /// FOP reference run of the same seed in set-up.
    Mira,
    /// `Cluster` on a synthetic machine of size-1 jobs, PERQ with
    /// grouping disabled so every decide is one exact QP over all jobs.
    Exact,
    /// `HierSim`: PERQ per enclave under the coupling-QP coordinator.
    Hier,
}

/// Size of one simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub kind: SimKind,
    /// Worst-case-provisioned nodes; the machine has twice as many
    /// (f = 2.0).
    pub wp_nodes: usize,
    /// Control intervals per episode (10 simulated seconds each).
    pub intervals: usize,
    /// Leading decisions per cluster left out of the latency samples:
    /// at t = 0 every job is new and every adapter cold, which no
    /// steady-state interval sees again.
    pub warmup_decisions: usize,
    pub enclaves: usize,
    pub threads: usize,
}

const INTERVAL_S: f64 = 10.0;
const OVER_PROVISIONING: f64 = 2.0;

fn system(shape: &SimShape) -> SystemModel {
    match shape.kind {
        SimKind::Mira => SystemModel {
            wp_nodes: shape.wp_nodes,
            ..SystemModel::mira()
        },
        // Size-1 jobs of 2-60 minutes, median 10: about 1-2 % of the
        // running jobs turn over each interval, so consecutive QPs
        // differ by a few blocks, as the steady state of a busy machine
        // does.
        SimKind::Exact => SystemModel {
            name: "Exact".into(),
            wp_nodes: shape.wp_nodes,
            size_weights: vec![(1, 1.0)],
            runtime_mu: (10.0_f64).ln(),
            runtime_sigma: 0.35,
            runtime_clamp_min: 2.0,
            runtime_clamp_max: 60.0,
            estimate_factor: 1.3,
        },
        // Small jobs of 1-60 minutes, median 5, so that 4-node enclaves
        // each hold a few.
        SimKind::Hier => SystemModel {
            name: "Hier".into(),
            wp_nodes: shape.wp_nodes,
            size_weights: vec![(1, 0.5), (2, 0.3), (4, 0.2)],
            runtime_mu: (5.0_f64).ln(),
            runtime_sigma: 0.5,
            runtime_clamp_min: 1.0,
            runtime_clamp_max: 60.0,
            estimate_factor: 1.3,
        },
    }
}

/// The job trace is part of a workload's shape, not of a run: the
/// generator seed is fixed per workload, and `--seed` drives every
/// random stream the simulation then consumes (telemetry noise, RAPL
/// jitter). PERQ's decide cost depends on the job mix by an order of
/// magnitude — a Mira trace moves between a budget-bound regime (~5 ms
/// per decide) and a slack one (~0.5 ms) as jobs come and go — so runs
/// over different traces measure different workloads, while runs over
/// one trace with different noise are replicas of the same one.
///
/// Mira's constant was picked so that the episode's two hours stay in
/// the budget-bound regime, where the decide is expensive and a median
/// is not a coin toss between two modes.
fn trace_seed(kind: SimKind) -> u64 {
    match kind {
        SimKind::Mira => 3,
        SimKind::Exact => 4096,
        SimKind::Hier => 64,
    }
}

/// The policy configuration a workload runs (and its probes assume).
pub fn perq_config(kind: SimKind) -> PerqConfig {
    match kind {
        SimKind::Exact => PerqConfig {
            group_threshold: usize::MAX,
            ..PerqConfig::default()
        },
        SimKind::Mira | SimKind::Hier => PerqConfig::default(),
    }
}

/// Everything an episode needs, built (and timed) as its set-up.
struct Prepared {
    config: ClusterConfig,
    jobs: Vec<JobSpec>,
    /// FOP run of the same trace and seed (`Mira` only).
    fop: Option<SimResult>,
}

fn prepare(shape: &SimShape, seed: u64) -> Prepared {
    let system = system(shape);
    let config = ClusterConfig::for_system(
        &system,
        OVER_PROVISIONING,
        shape.intervals as f64 * INTERVAL_S,
    );
    // Enough queued work for an hour at least, so short episodes see the
    // same saturated queue long ones do.
    let jobs = TraceGenerator::new(system, trace_seed(shape.kind))
        .generate_saturating(config.nodes, config.duration_s.max(3600.0));
    let fop = (shape.kind == SimKind::Mira)
        .then(|| Cluster::new(config.clone(), jobs.clone(), seed).run(&mut FairPolicy::new()));
    Prepared { config, jobs, fop }
}

/// What a traced episode hands to the probes and the metrics.
pub struct SimTrace {
    /// The policy (for `Hier`: the enclave policy that saw the most
    /// jobs) and what its wrapper recorded.
    pub policy: Arc<Mutex<PerqPolicy>>,
    pub assign: Arc<Mutex<AssignStats>>,
    /// Every `assign` duration of the episode, milliseconds.
    pub assign_ms: Vec<f64>,
    pub assign_jobs_total: u64,
    /// The deterministic recorder the run reported into (`perq_qp_*`).
    pub recorder: Recorder,
    pub grant_ms: Vec<f64>,
    pub epoch_ms: Vec<f64>,
    pub journal_dropped: u64,
}

/// Outcome of one episode.
pub struct SimEpisode {
    pub setup_s: f64,
    /// Wall seconds of the PERQ run alone.
    pub wall_s: f64,
    /// Site-level control intervals executed.
    pub intervals: u64,
    /// Steady-state decision latencies, milliseconds.
    pub decision_ms: Vec<f64>,
    /// Sum of all decision latencies (warm-up included), seconds.
    pub decision_total_s: f64,
    /// Steady-state intervals per wall second: the warm-up intervals and
    /// their decisions are taken out of both counts. (Their share of the
    /// simulator's own step time stays in; it is small next to a decide.)
    pub steady_intervals_per_s: f64,
    /// Mean consumed power over budget.
    pub power_use: f64,
    /// Intervals whose consumed power exceeded the site budget.
    pub failed_intervals: u64,
    pub running_jobs_mean: f64,
    pub jobs_completed: u64,
    pub fairness_mean_degradation_pct: f64,
    pub hier_rounds: u64,
    /// Intervals in which some enclave drew more than its grant while
    /// the site stayed within budget (`Hier` only).
    pub enclave_violation_intervals: u64,
    pub digest: u64,
    /// The flat (or combined) result, for `same_simulation`.
    pub result: SimResult,
    pub trace: Option<SimTrace>,
}

/// FNV-1a over every job record and every interval log entry.
fn digest(result: &SimResult) -> u64 {
    let mut d = Fnv::default();
    for r in &result.records {
        d.u64(r.spec.id);
        d.u64(r.spec.size as u64);
        d.f64(r.start_s);
        d.f64(r.end_s);
        d.f64(r.progress_s);
        d.u64(r.outcome as u64);
    }
    for l in &result.intervals {
        d.f64(l.t_s);
        d.u64(l.busy_nodes as u64);
        d.u64(l.running_jobs as u64);
        d.f64(l.total_power_w);
        d.f64(l.committed_power_w);
        d.u64(u64::from(l.violation));
    }
    d.0
}

fn ms(pairs: &[(Instant, Instant)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect()
}

type Wrappers = Vec<(Arc<Mutex<PerqPolicy>>, Arc<Mutex<AssignStats>>)>;

/// The simulator an episode is about to run.
enum Engine {
    Flat {
        cluster: Box<Cluster>,
        policy: Box<dyn PowerPolicy + Send>,
    },
    Hier {
        sim: Box<HierSim>,
        /// Wall-clock coordinator diagnostics (traced passes only).
        coordinator: Recorder,
        grant_calls: Option<CallLog>,
    },
}

/// A set-up episode: everything up to, not including, the PERQ run.
struct Ready {
    engine: Engine,
    /// FOP run of the same trace and seed (`Mira` only).
    fop: Option<SimResult>,
    budget_w: f64,
    wrappers: Wrappers,
    /// The deterministic recorder the run reports into; live only on a
    /// traced pass — it is where the program's own `perq_qp_*` counters
    /// come from.
    recorder: Recorder,
    setup_s: f64,
}

/// Set-up: node-model training (inside `PerqPolicy::new`), trace
/// generation, the FOP reference run, and simulator construction.
fn setup(shape: &SimShape, seed: u64, traced: bool) -> Ready {
    let t0 = Instant::now();
    let prepared = prepare(shape, seed);
    let cfg = perq_config(shape.kind);
    let recorder = if traced {
        Recorder::manual()
    } else {
        Recorder::noop()
    };
    let mut wrappers: Wrappers = Vec::new();
    let mut make_policy = || -> Box<dyn PowerPolicy + Send> {
        let policy = PerqPolicy::new(cfg.clone());
        if traced {
            let wrapper = TracedPolicy::new(policy);
            wrappers.push((Arc::clone(&wrapper.policy), Arc::clone(&wrapper.stats)));
            Box::new(wrapper)
        } else {
            Box::new(policy)
        }
    };
    let engine = match shape.kind {
        SimKind::Mira | SimKind::Exact => Engine::Flat {
            policy: make_policy(),
            cluster: Box::new(
                Cluster::new(prepared.config.clone(), prepared.jobs, seed)
                    .with_recorder(recorder.clone()),
            ),
        },
        SimKind::Hier => {
            let policies = (0..shape.enclaves).map(|_| make_policy()).collect();
            let sim = HierSim::new(
                prepared.config.clone(),
                prepared.jobs,
                seed,
                HierTopology::enclaves(shape.enclaves),
                policies,
            )
            .with_threads(shape.threads)
            .with_recorder(recorder.clone());
            if traced {
                let authority = TracedAuthority::new(CouplingAuthority::new());
                let coordinator = Recorder::with_clock(Box::new(WallClock::new()));
                Engine::Hier {
                    grant_calls: Some(Arc::clone(&authority.calls)),
                    sim: Box::new(
                        sim.with_authority(Box::new(authority))
                            .with_coordinator_recorder(coordinator.clone()),
                    ),
                    coordinator,
                }
            } else {
                Engine::Hier {
                    sim: Box::new(sim.with_authority(Box::new(CouplingAuthority::new()))),
                    coordinator: Recorder::noop(),
                    grant_calls: None,
                }
            }
        }
    };
    Ready {
        engine,
        fop: prepared.fop,
        budget_w: prepared.config.budget_w(),
        wrappers,
        recorder,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Seconds one untraced set-up takes (its result is dropped).
pub fn setup_only(shape: &SimShape, seed: u64) -> f64 {
    setup(shape, seed, false).setup_s
}

/// Runs one episode. `log` is `Some` on a traced pass.
pub fn episode(shape: &SimShape, seed: u64, mut log: Option<&mut SpanLog>) -> SimEpisode {
    let traced = log.is_some();
    let Ready {
        engine,
        fop,
        budget_w,
        wrappers,
        recorder,
        setup_s,
    } = setup(shape, seed, traced);

    let mut grants: Vec<(Instant, Instant)> = Vec::new();
    let mut journal_dropped = 0;
    let mut hier_rounds = 0;
    let mut enclave_violation_intervals = 0;
    let run_start = Instant::now();
    let wall_s;
    // Decision latencies per cluster, so the warm-up prefix can be cut
    // from each.
    let per_cluster_decisions: Vec<Vec<f64>>;
    let result = match engine {
        Engine::Flat {
            mut cluster,
            mut policy,
        } => {
            let result = cluster.run(policy.as_mut());
            wall_s = run_start.elapsed().as_secs_f64();
            per_cluster_decisions = vec![result.decision_times_s.clone()];
            result
        }
        Engine::Hier {
            sim,
            coordinator,
            grant_calls,
        } => {
            let hier = sim.run();
            wall_s = run_start.elapsed().as_secs_f64();
            if let Some(calls) = grant_calls {
                grants = calls.lock().expect("grant log").clone();
            }
            journal_dropped += coordinator.journal_dropped();
            hier_rounds = hier.rounds.len() as u64;
            per_cluster_decisions = hier
                .enclaves
                .iter()
                .map(|r| r.decision_times_s.clone())
                .collect();
            let combined = hier.combined();
            // `combined()` flags an interval when any enclave exceeded
            // its own grant; the operator's contract is the site budget.
            enclave_violation_intervals =
                combined.intervals.iter().filter(|l| l.violation).count() as u64;
            combined
        }
    };
    let run_end = Instant::now();

    let failed_intervals = match shape.kind {
        SimKind::Hier => result
            .intervals
            .iter()
            .filter(|l| l.total_power_w > budget_w)
            .count(),
        SimKind::Mira | SimKind::Exact => result.intervals.iter().filter(|l| l.violation).count(),
    } as u64;
    let n = result.intervals.len().max(1) as f64;
    let power_use = result
        .intervals
        .iter()
        .map(|l| l.total_power_w)
        .sum::<f64>()
        / n
        / budget_w;
    let running_jobs_mean = result
        .intervals
        .iter()
        .map(|l| l.running_jobs as f64)
        .sum::<f64>()
        / n;
    let decision_ms: Vec<f64> = per_cluster_decisions
        .iter()
        .flat_map(|d| d.iter().skip(shape.warmup_decisions).map(|s| s * 1e3))
        .collect();
    let decision_total_s = per_cluster_decisions.iter().flatten().sum();
    let warmup_s: f64 = per_cluster_decisions
        .iter()
        .flat_map(|d| d.iter().take(shape.warmup_decisions))
        .sum();
    let steady_intervals_per_s =
        (shape.intervals - shape.warmup_decisions) as f64 / (wall_s - warmup_s);
    let fairness = fop.as_ref().map_or(0.0, |fop| {
        compare_fairness(&result, fop).mean_degradation_pct
    });

    let trace = traced.then(|| {
        let log = log.as_mut().expect("traced pass has a span log");
        let run_id = log.push("sim.run", 0, 0, run_start, run_end);
        let mut assign_ms = Vec::new();
        let mut assign_jobs_total = 0;
        for (_, stats) in &wrappers {
            let stats = stats.lock().expect("assign stats");
            for (seq, &(a, b)) in stats.calls.iter().enumerate() {
                log.push("core.assign", run_id, seq as u64, a, b);
            }
            assign_ms.extend(stats.durations_ms());
            assign_jobs_total += stats.jobs_total;
        }
        let mut epoch_ms = Vec::new();
        for (seq, &(a, b)) in grants.iter().enumerate() {
            log.push("core.hier.grant", run_id, seq as u64, a, b);
            // The coordinator waits from one grant's end to the next
            // grant's start (or the end of the run) for the enclaves.
            let next = grants.get(seq + 1).map_or(run_end, |g| g.0);
            log.push("sim.hier.epoch", run_id, seq as u64, b, next);
            epoch_ms.push(next.duration_since(b).as_secs_f64() * 1e3);
        }
        // The probes run on the policy that decided for the most jobs.
        let (policy, assign) = wrappers
            .iter()
            .max_by_key(|(_, s)| s.lock().expect("assign stats").last_jobs.len())
            .expect("a traced pass wraps every policy");
        SimTrace {
            policy: Arc::clone(policy),
            assign: Arc::clone(assign),
            assign_ms,
            assign_jobs_total,
            recorder: recorder.clone(),
            grant_ms: ms(&grants),
            epoch_ms,
            journal_dropped: journal_dropped + recorder.journal_dropped(),
        }
    });

    SimEpisode {
        setup_s,
        wall_s,
        intervals: shape.intervals as u64,
        decision_ms,
        decision_total_s,
        steady_intervals_per_s,
        power_use,
        failed_intervals,
        running_jobs_mean,
        jobs_completed: result.throughput() as u64,
        fairness_mean_degradation_pct: fairness,
        hier_rounds,
        enclave_violation_intervals,
        digest: digest(&result),
        result,
        trace,
    }
}
