//! Hierarchical multi-tenant power allocation (DESIGN.md §11).
//!
//! PERQ's controller is flat: one QP over every running job of one
//! cluster. At datacenter scale (100k+ nodes, several tenants) that is
//! neither tractable nor organizationally honest — budgets flow down a
//! hierarchy. This module adds the two-level architecture: the machine
//! is partitioned into shared-nothing **enclaves**, each running its
//! own scheduler, RNG streams, telemetry recorder, and power policy
//! against the budget a coordinator **granted** it; the coordinator
//! re-solves a small allocation problem over aggregate per-enclave
//! demand summaries every *coordination epoch* (a fixed number of
//! control intervals).
//!
//! The level boundary is the [`BudgetAuthority`] trait: demands up,
//! grants down, nothing else crosses. Within an epoch enclaves are
//! fully independent, so the epoch advance fans out over
//! [`crate::parallel_for_mut`] and the run is byte-identical at any
//! thread count (each enclave's evolution is a pure function of its
//! slice of the spec; results and recorders fold in enclave-index
//! order).
//!
//! **Differential contract** (pinned by `tests/hier_parity.rs`): a
//! 1-enclave, 1-tenant hierarchy *is* the flat cluster — `HierSim`
//! short-circuits the coordinator, reuses the caller's recorder
//! directly, and produces byte-identical results and telemetry
//! exports. Multi-enclave runs match the flat controller's allocation
//! within a stated per-node tolerance (the partition boundary costs
//! backfilling opportunities and budget mobility; §11 quantifies it).

use crate::cluster::{Cluster, ClusterConfig, IntervalLog, SimResult};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::job::{JobRecord, JobSpec};
use crate::parallel::parallel_for_mut;
use crate::policy::PowerPolicy;
use perq_telemetry::{FieldValue, Recorder};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One tenant: a named owner of enclaves with a fairness/priority
/// weight. Weights are relative — a tenant with weight 2 targets twice
/// the budget share of a weight-1 tenant *per worst-case-provisioned
/// node it owns*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (journal events carry the index, logs the name).
    pub name: String,
    /// Relative fairness/priority weight; must be positive.
    pub weight: f64,
}

impl TenantSpec {
    /// A tenant with the given weight and a generated name.
    pub fn weighted(index: usize, weight: f64) -> Self {
        TenantSpec {
            name: format!("tenant{index}"),
            weight,
        }
    }
}

/// Shape of the hierarchy: how many enclaves the machine splits into,
/// which tenants own them (enclave `e` belongs to tenant
/// `e % tenants.len()`), and how often the coordinator re-grants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierTopology {
    /// Number of enclaves; `1` degenerates to the flat controller.
    pub enclaves: usize,
    /// The tenants; empty means one weight-1 tenant.
    pub tenants: Vec<TenantSpec>,
    /// Coordination epoch length in control intervals (grants are
    /// recomputed every this many steps). Must be at least 1.
    pub coordination_intervals: usize,
}

impl HierTopology {
    /// A single-tenant topology with `enclaves` enclaves and the
    /// default 6-interval (one minute at the paper's 10 s interval)
    /// coordination epoch.
    pub fn enclaves(enclaves: usize) -> Self {
        HierTopology {
            enclaves,
            tenants: Vec::new(),
            coordination_intervals: 6,
        }
    }

    /// Attaches tenant weights (builder style): `weights[i]` becomes
    /// tenant `i`; enclaves are assigned round-robin.
    pub fn with_tenant_weights(mut self, weights: &[f64]) -> Self {
        self.tenants = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantSpec::weighted(i, w))
            .collect();
        self
    }

    /// Tenant index owning enclave `e`.
    pub fn tenant_of(&self, enclave: usize) -> usize {
        if self.tenants.is_empty() {
            0
        } else {
            enclave % self.tenants.len()
        }
    }

    /// Weight of the tenant owning enclave `e` (1.0 when no tenants
    /// were declared).
    pub fn weight_of(&self, enclave: usize) -> f64 {
        if self.tenants.is_empty() {
            1.0
        } else {
            self.tenants[self.tenant_of(enclave)].weight
        }
    }

    fn validate(&self) {
        assert!(self.enclaves >= 1, "need at least one enclave");
        assert!(
            self.coordination_intervals >= 1,
            "coordination epoch must be at least one interval"
        );
        for t in &self.tenants {
            assert!(
                t.weight.is_finite() && t.weight > 0.0,
                "tenant '{}' has non-positive weight {}",
                t.name,
                t.weight
            );
        }
    }
}

/// Aggregate demand summary one enclave reports up to the coordinator
/// at an epoch boundary. Deliberately coarse: node counts and watt
/// bounds, never per-job state — the interface is what keeps the
/// coupling solve small (one variable per enclave).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnclaveDemand {
    /// Enclave index.
    pub enclave: usize,
    /// Owning tenant index.
    pub tenant: usize,
    /// Tenant fairness/priority weight.
    pub weight: f64,
    /// Worst-case-provisioned nodes of this enclave (its share of the
    /// global budget denominator).
    pub wp_nodes: usize,
    /// Nodes currently online.
    pub live_nodes: usize,
    /// Nodes occupied by running jobs.
    pub busy_nodes: usize,
    /// Jobs released and waiting in the FCFS queue.
    pub pending_jobs: usize,
    /// Minimum grant that keeps the enclave feasible: every busy node
    /// at the RAPL floor plus every idle live node's idle draw.
    pub floor_w: f64,
    /// Grant beyond which extra watts are unusable this epoch: every
    /// busy node at TDP plus idle draw — bumped to the weighted fair
    /// share when jobs are queued (power may unblock scheduling next
    /// interval).
    pub ceil_w: f64,
}

/// What the coordinator knows besides the demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrantContext {
    /// Simulated time of the epoch boundary, seconds.
    pub time_s: f64,
    /// The global system budget being divided, watts.
    pub budget_w: f64,
    /// Node TDP, watts.
    pub tdp_w: f64,
    /// Minimum per-node cap, watts.
    pub cap_min_w: f64,
    /// Idle node draw, watts.
    pub idle_w: f64,
}

/// The level boundary of the hierarchy: aggregate demands go up, watt
/// grants come down.
///
/// # Contract
///
/// - `grant` returns exactly one grant per demand, in demand order.
/// - Grants are finite, and sum to at most `ctx.budget_w` (the
///   difference is *slack* — budget nothing can use this epoch).
/// - `grants[e] >= demands[e].floor_w` whenever `Σ floor ≤ budget`
///   (feasibility first; an infeasible epoch scales floors down
///   proportionally).
/// - Deterministic: equal inputs produce bit-equal grants. The
///   coordinator runs on one thread, so this is what makes whole
///   hierarchical runs replay byte-identically.
/// - A single-enclave hierarchy never calls this (the driver
///   short-circuits to the flat budget), but implementations should
///   still return `vec![ctx.budget_w]` for one enclave.
pub trait BudgetAuthority: Send {
    /// Authority name (journal events and logs).
    fn name(&self) -> &'static str;

    /// Divides `ctx.budget_w` over the enclaves. See the trait docs
    /// for the contract.
    fn grant(&mut self, ctx: &GrantContext, demands: &[EnclaveDemand]) -> Vec<f64>;
}

/// Weighted-fair-share water-filling authority: each enclave targets
/// `budget · w_e·wp_e / Σ w_j·wp_j`, clamped to `[floor, ceil]`, and
/// headroom left by ceil-saturated enclaves is re-distributed to the
/// others in share proportion until the budget or every ceiling is
/// exhausted. Closed-form, allocation-light, and exactly conserving —
/// the reference implementation of the [`BudgetAuthority`] contract
/// (the QP authority in `perq-core` must agree with it within solver
/// tolerance on uncoupled instances).
#[derive(Debug, Clone, Default)]
pub struct ProportionalAuthority;

impl BudgetAuthority for ProportionalAuthority {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn grant(&mut self, ctx: &GrantContext, demands: &[EnclaveDemand]) -> Vec<f64> {
        proportional_grant(ctx, demands)
    }
}

/// The water-filling computation behind [`ProportionalAuthority`],
/// free-standing so QP authorities can fall back to it.
pub(crate) fn proportional_grant(ctx: &GrantContext, demands: &[EnclaveDemand]) -> Vec<f64> {
    let n = demands.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![ctx.budget_w];
    }
    let total_floor: f64 = demands.iter().map(|d| d.floor_w).sum();
    let mut grants: Vec<f64> = if total_floor > ctx.budget_w && total_floor > 0.0 {
        // Infeasible epoch (should not happen under a validated
        // config): scale floors proportionally and stop there.
        let scale = ctx.budget_w / total_floor;
        return demands.iter().map(|d| d.floor_w * scale).collect();
    } else {
        demands.iter().map(|d| d.floor_w).collect()
    };
    let mut remaining = ctx.budget_w - total_floor;
    let share = |d: &EnclaveDemand| d.weight * d.wp_nodes.max(1) as f64;
    // Water-filling: pour the remaining budget in share proportion,
    // freezing enclaves as they hit their ceilings. Each round either
    // saturates at least one enclave or distributes everything, so the
    // loop runs at most n rounds.
    let mut active: Vec<usize> = (0..n).filter(|&e| grants[e] < demands[e].ceil_w).collect();
    while remaining > 1e-9 && !active.is_empty() {
        let total_share: f64 = active.iter().map(|&e| share(&demands[e])).sum();
        if total_share <= 0.0 {
            break;
        }
        let mut spent = 0.0;
        let mut still_active = Vec::with_capacity(active.len());
        for &e in &active {
            let pour = remaining * share(&demands[e]) / total_share;
            let room = (demands[e].ceil_w - grants[e]).max(0.0);
            let add = pour.min(room);
            grants[e] += add;
            spent += add;
            if grants[e] < demands[e].ceil_w - 1e-12 {
                still_active.push(e);
            }
        }
        active = still_active;
        if spent <= 1e-12 {
            break;
        }
        remaining -= spent;
    }
    grants
}

/// Splits a flat [`ClusterConfig`] into `enclaves` per-enclave configs:
/// nodes and worst-case-provisioned nodes divide as evenly as possible
/// (remainders go to the lowest-index enclaves), every other knob is
/// inherited. The per-enclave budgets `wp_e · tdp` sum exactly to the
/// flat `budget_w()` because the `wp_nodes` partition is exact.
pub fn partition_config(config: &ClusterConfig, enclaves: usize) -> Vec<ClusterConfig> {
    assert!(enclaves >= 1, "need at least one enclave");
    assert!(
        enclaves <= config.wp_nodes && enclaves <= config.nodes,
        "cannot split {} nodes / {} wp nodes into {} enclaves",
        config.nodes,
        config.wp_nodes,
        enclaves
    );
    (0..enclaves)
        .map(|e| {
            let mut part = config.clone();
            part.nodes = split_share(config.nodes, enclaves, e);
            part.wp_nodes = split_share(config.wp_nodes, enclaves, e);
            // trace_jobs is re-filtered per enclave once jobs are
            // assigned; cleared here so validation stays cheap.
            part.trace_jobs = Vec::new();
            part
        })
        .collect()
}

/// Size of part `index` when `total` splits into `parts` near-equal
/// integer shares (remainder to the lowest indices).
fn split_share(total: usize, parts: usize, index: usize) -> usize {
    total / parts + usize::from(index < total % parts)
}

/// Statically assigns jobs to enclaves: trace order, each job placed on
/// the least-loaded enclave (by assigned node-seconds of runtime
/// estimate) that can hold it, ties to the lowest index. Deterministic
/// — the placement is a pure function of the job list and the enclave
/// node counts. Panics if a job fits no enclave (its node count
/// exceeds every enclave's size): such a workload cannot run under the
/// chosen partition.
pub fn assign_jobs_to_enclaves(jobs: &[JobSpec], enclave_nodes: &[usize]) -> Vec<Vec<JobSpec>> {
    let n = enclave_nodes.len();
    let mut assigned: Vec<Vec<JobSpec>> = vec![Vec::new(); n];
    let mut load = vec![0.0f64; n];
    for job in jobs {
        let mut best: Option<usize> = None;
        for (e, &nodes) in enclave_nodes.iter().enumerate() {
            if job.size > nodes {
                continue;
            }
            match best {
                None => best = Some(e),
                Some(b) if load[e] < load[b] => best = Some(e),
                Some(_) => {}
            }
        }
        let e = best.unwrap_or_else(|| {
            panic!(
                "job {} needs {} nodes but the largest enclave has {}",
                job.id,
                job.size,
                enclave_nodes.iter().copied().max().unwrap_or(0)
            )
        });
        load[e] += job.size as f64 * job.runtime_estimate_s;
        assigned[e].push(job.clone());
    }
    assigned
}

/// A scripted whole-enclave outage: every node of the enclave crashes
/// at `crash_step` and recovers at `recover_step` (`None` = never).
/// Returned as a per-enclave [`FaultPlan`] — during the outage the
/// enclave's demand collapses to zero and the coordinator re-grants
/// its budget to the surviving enclaves; on recovery the demand
/// returns and the budget flows back.
pub fn enclave_outage_plan(
    enclave_nodes: usize,
    crash_step: usize,
    recover_step: Option<usize>,
) -> FaultPlan {
    let mut events = vec![FaultEvent {
        step: crash_step,
        kind: FaultKind::NodeCrash {
            count: enclave_nodes,
        },
    }];
    if let Some(step) = recover_step {
        assert!(step > crash_step, "recovery must follow the crash");
        events.push(FaultEvent {
            step,
            kind: FaultKind::NodeRecover {
                count: enclave_nodes,
            },
        });
    }
    FaultPlan::new(events)
}

/// One coordination round's outcome, for audit and tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantRound {
    /// Simulated time of the epoch boundary, seconds.
    pub t_s: f64,
    /// Grant per enclave, watts.
    pub grants_w: Vec<f64>,
    /// Budget no enclave could use this epoch, watts.
    pub slack_w: f64,
}

/// Outcome of a hierarchical run: per-enclave results plus the grant
/// audit trail.
#[derive(Debug, Clone)]
pub struct HierResult {
    /// Per-enclave simulation results, in enclave order.
    pub enclaves: Vec<SimResult>,
    /// Every coordination round, in time order (empty for the
    /// single-enclave fast path — no coordinator ran).
    pub rounds: Vec<GrantRound>,
}

impl HierResult {
    /// Completed jobs across all enclaves.
    pub fn throughput(&self) -> usize {
        self.enclaves.iter().map(|r| r.throughput()).sum()
    }

    /// Folds the per-enclave results into one flat-shaped
    /// [`SimResult`]: records re-sorted by job id, interval logs summed
    /// element-wise (every enclave runs the same clock), violations
    /// re-counted on the merged logs ("any enclave violated"), faults
    /// re-sorted by step with enclave order breaking ties. A
    /// single-enclave result passes through unchanged — this is what
    /// makes the hierarchical path a drop-in [`SimResult`] producer
    /// for campaigns and the CLI.
    pub fn combined(&self) -> SimResult {
        assert!(!self.enclaves.is_empty(), "no enclave results");
        if self.enclaves.len() == 1 {
            return self.enclaves[0].clone();
        }
        let first = &self.enclaves[0];
        let steps = self
            .enclaves
            .iter()
            .map(|r| r.intervals.len())
            .max()
            .unwrap_or(0);
        let mut intervals = Vec::with_capacity(steps);
        for i in 0..steps {
            let mut merged = IntervalLog {
                t_s: f64::INFINITY,
                busy_nodes: 0,
                running_jobs: 0,
                total_power_w: 0.0,
                committed_power_w: 0.0,
                violation: false,
            };
            for r in &self.enclaves {
                let Some(log) = r.intervals.get(i) else {
                    continue;
                };
                merged.t_s = merged.t_s.min(log.t_s);
                merged.busy_nodes += log.busy_nodes;
                merged.running_jobs += log.running_jobs;
                merged.total_power_w += log.total_power_w;
                merged.committed_power_w += log.committed_power_w;
                merged.violation |= log.violation;
            }
            intervals.push(merged);
        }
        let violations = intervals.iter().filter(|l| l.violation).count();
        let interval_s = if steps >= 2 {
            intervals[1].t_s - intervals[0].t_s
        } else {
            0.0
        };

        let mut records: Vec<JobRecord> = Vec::new();
        let mut traces = std::collections::HashMap::new();
        let mut faults = Vec::new();
        let mut recovery_latency_s = Vec::new();
        let mut decision_times_s = Vec::new();
        for r in &self.enclaves {
            records.extend(r.records.iter().cloned());
            traces.extend(r.traces.iter().map(|(k, v)| (*k, v.clone())));
            faults.extend(r.faults.iter().cloned());
            recovery_latency_s.extend(r.recovery_latency_s.iter().copied());
            decision_times_s.extend(r.decision_times_s.iter().copied());
        }
        records.sort_by_key(|r| r.spec.id);
        faults.sort_by_key(|f| f.step);

        SimResult {
            policy: first.policy.clone(),
            f: first.f,
            records,
            intervals,
            traces,
            budget_violations: violations,
            budget_violation_s: violations as f64 * interval_s,
            faults,
            recovery_latency_s,
            decision_times_s,
        }
    }
}

/// Per-enclave runtime state the epoch loop advances.
struct EnclaveRun {
    cluster: Cluster,
    policy: Box<dyn PowerPolicy + Send>,
    recorder: Recorder,
}

impl EnclaveRun {
    /// The demand summary this enclave reports at an epoch boundary.
    fn demand(&self, enclave: usize, topology: &HierTopology) -> EnclaveDemand {
        let config = self.cluster.config();
        let live = config.nodes - self.cluster.offline_nodes();
        let free = self.cluster.free_live_nodes();
        let busy = live - free;
        let idle = live - busy;
        let pending = self.cluster.scheduler.pending();
        let floor_w = busy as f64 * config.cap_min_w + idle as f64 * config.idle_w;
        let mut ceil_w = busy as f64 * config.tdp_w + idle as f64 * config.idle_w;
        if pending > 0 {
            // Queued work: more power may unblock scheduling next
            // interval, so the enclave can use up to a full-machine
            // draw, not just its current footprint.
            ceil_w = ceil_w.max(live as f64 * config.tdp_w);
        }
        EnclaveDemand {
            enclave,
            tenant: topology.tenant_of(enclave),
            weight: topology.weight_of(enclave),
            wp_nodes: config.wp_nodes,
            live_nodes: live,
            busy_nodes: busy,
            pending_jobs: pending,
            floor_w,
            ceil_w: ceil_w.max(floor_w),
        }
    }
}

/// The hierarchical simulator: a coordinator over shared-nothing
/// enclave clusters. See the module docs for the architecture and
/// [`HierSim::run`] for the execution contract.
pub struct HierSim {
    topology: HierTopology,
    flat_config: ClusterConfig,
    enclaves: Vec<EnclaveRun>,
    authority: Box<dyn BudgetAuthority>,
    threads: usize,
    recorder: Recorder,
    /// Coordinator wall-clock diagnostics (solve-latency histogram).
    /// Separate from `recorder` for the same reason as the cluster's
    /// loop diagnostics: wall time is not deterministic, main exports
    /// must be.
    coord_recorder: Recorder,
}

impl HierSim {
    /// Builds a hierarchical simulator over a flat configuration and
    /// job trace: the machine splits per [`partition_config`], jobs
    /// place per [`assign_jobs_to_enclaves`], and each enclave `e`
    /// runs `policies[e]` (one policy instance per enclave — they are
    /// independent controllers, never shared).
    ///
    /// Seeds: enclave 0 of a single-enclave topology inherits `seed`
    /// unchanged (the flat byte-identity contract); otherwise enclave
    /// seeds derive through splitmix64 so enclaves draw independent
    /// noise streams.
    pub fn new(
        config: ClusterConfig,
        jobs: Vec<JobSpec>,
        seed: u64,
        topology: HierTopology,
        policies: Vec<Box<dyn PowerPolicy + Send>>,
    ) -> Self {
        topology.validate();
        assert_eq!(
            policies.len(),
            topology.enclaves,
            "need exactly one policy per enclave"
        );
        let mut configs = partition_config(&config, topology.enclaves);
        let assigned =
            assign_jobs_to_enclaves(&jobs, &configs.iter().map(|c| c.nodes).collect::<Vec<_>>());
        let enclaves = configs
            .drain(..)
            .zip(assigned)
            .zip(policies)
            .enumerate()
            .map(|(e, ((mut part, enclave_jobs), policy))| {
                let ids: std::collections::HashSet<u64> =
                    enclave_jobs.iter().map(|j| j.id).collect();
                part.trace_jobs = config
                    .trace_jobs
                    .iter()
                    .copied()
                    .filter(|id| ids.contains(id))
                    .collect();
                let enclave_seed = if topology.enclaves == 1 {
                    seed
                } else {
                    derive_enclave_seed(seed, e as u64)
                };
                EnclaveRun {
                    cluster: Cluster::new(part, enclave_jobs, enclave_seed),
                    policy,
                    recorder: Recorder::noop(),
                }
            })
            .collect();
        HierSim {
            topology,
            flat_config: config,
            enclaves,
            authority: Box::new(ProportionalAuthority),
            threads: 1,
            recorder: Recorder::noop(),
            coord_recorder: Recorder::noop(),
        }
    }

    /// Installs the coordinator's [`BudgetAuthority`] (builder style);
    /// the default is [`ProportionalAuthority`].
    pub fn with_authority(mut self, authority: Box<dyn BudgetAuthority>) -> Self {
        self.authority = authority;
        self
    }

    /// Worker threads for the enclave fan-out (builder style); the run
    /// is byte-identical at any count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches the main telemetry recorder (builder style). A
    /// single-enclave run passes it straight to the flat cluster
    /// (byte-identical exports to a flat run); a multi-enclave run
    /// gives each enclave a private recorder and folds them into this
    /// one in enclave-index order after the run, with the
    /// coordinator's own `perq_hier_*` series recorded up front.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a recorder for coordinator wall-clock diagnostics
    /// (the `perq_hier_coordinator_solve_seconds` histogram), kept off
    /// the main recorder so its exports stay deterministic.
    pub fn with_coordinator_recorder(mut self, recorder: Recorder) -> Self {
        self.coord_recorder = recorder;
        self
    }

    /// Installs per-enclave fault plans (builder style); `plans[e]`
    /// applies to enclave `e`. Use [`enclave_outage_plan`] for
    /// whole-enclave crash/recover scripts. Missing tail entries mean
    /// no faults for those enclaves.
    pub fn with_enclave_fault_plans(mut self, plans: Vec<FaultPlan>) -> Self {
        assert!(
            plans.len() <= self.enclaves.len(),
            "more fault plans ({}) than enclaves ({})",
            plans.len(),
            self.enclaves.len()
        );
        for (run, plan) in self.enclaves.iter_mut().zip(plans) {
            // Placeholder swapped right back; never runs.
            let placeholder = Cluster::new(run.cluster.config().clone(), Vec::new(), 0);
            let cluster = std::mem::replace(&mut run.cluster, placeholder);
            run.cluster = cluster.with_fault_plan(plan);
        }
        self
    }

    /// Applies one fault plan to enclave 0 (builder style) — the
    /// campaign engine's mapping for flat [`FaultPlan`]s, and exactly
    /// the flat plan under a single-enclave topology.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.with_enclave_fault_plans(vec![plan])
    }

    /// The number of enclaves.
    pub fn enclaves(&self) -> usize {
        self.enclaves.len()
    }

    /// Runs the hierarchy to the configured duration.
    ///
    /// Single enclave: short-circuits to [`Cluster::run`] with the
    /// caller's recorder — byte-identical to the flat controller by
    /// construction (results and telemetry exports), the differential
    /// anchor `tests/hier_parity.rs` pins.
    ///
    /// Multiple enclaves: alternates coordination (gather demands →
    /// `BudgetAuthority::grant` → install budget overrides) with
    /// epoch advances fanned out over [`parallel_for_mut`], each
    /// enclave skipping its own idle intervals up to the epoch
    /// boundary. All cross-enclave effects flow through the grants,
    /// which are computed on the coordinator thread from deterministic
    /// demand summaries — so the run is byte-identical at any thread
    /// count.
    pub fn run(self) -> HierResult {
        self.run_loop(true)
    }

    /// The parity oracle for [`HierSim::run`]: every enclave executes
    /// every interval ([`Cluster::run_stepper`]'s loop), so the idle
    /// skip inside coordination epochs can be proven against it. Tests
    /// and benches call it; nothing else should.
    pub fn run_stepper(self) -> HierResult {
        self.run_loop(false)
    }

    fn run_loop(mut self, skip_idle: bool) -> HierResult {
        if self.enclaves.len() == 1 {
            let mut run = self.enclaves.pop().expect("one enclave");
            let placeholder = Cluster::new(run.cluster.config().clone(), Vec::new(), 0);
            let cluster = std::mem::replace(&mut run.cluster, placeholder);
            let mut cluster = cluster.with_recorder(self.recorder.clone());
            let result = cluster.run_to_end(run.policy.as_mut(), skip_idle);
            return HierResult {
                enclaves: vec![result],
                rounds: Vec::new(),
            };
        }

        let collect = self.recorder.enabled();
        for run in &mut self.enclaves {
            run.recorder = if collect {
                Recorder::manual()
            } else {
                Recorder::noop()
            };
            let placeholder = Cluster::new(run.cluster.config().clone(), Vec::new(), 0);
            let cluster = std::mem::replace(&mut run.cluster, placeholder);
            run.cluster = cluster.with_recorder(run.recorder.clone());
            run.cluster.begin(run.policy.as_mut());
        }

        let budget_w = self.flat_config.budget_w();
        let dt = self.flat_config.interval_s;
        let total_steps = (self.flat_config.duration_s / dt).ceil() as usize;
        let k = self.topology.coordination_intervals;
        let mut rounds = Vec::new();
        let mut epoch_start = 0usize;
        while epoch_start < total_steps {
            let epoch_end = (epoch_start + k).min(total_steps);
            let time_s = epoch_start as f64 * dt;
            let demands: Vec<EnclaveDemand> = self
                .enclaves
                .iter()
                .enumerate()
                .map(|(e, run)| run.demand(e, &self.topology))
                .collect();
            let ctx = GrantContext {
                time_s,
                budget_w,
                tdp_w: self.flat_config.tdp_w,
                cap_min_w: self.flat_config.cap_min_w,
                idle_w: self.flat_config.idle_w,
            };
            let solve_start = Instant::now();
            let grants = self.authority.grant(&ctx, &demands);
            if self.coord_recorder.enabled() {
                self.coord_recorder.observe(
                    "perq_hier_coordinator_solve_seconds",
                    solve_start.elapsed().as_secs_f64(),
                );
                self.coord_recorder
                    .counter_inc("perq_hier_coordinator_solves_total");
            }
            assert_eq!(
                grants.len(),
                demands.len(),
                "authority '{}' returned {} grants for {} enclaves",
                self.authority.name(),
                grants.len(),
                demands.len()
            );
            let granted: f64 = grants.iter().sum();
            assert!(
                granted <= budget_w * (1.0 + 1e-9) + 1e-6,
                "authority '{}' over-granted: {granted} W of {budget_w} W",
                self.authority.name()
            );
            let slack = (budget_w - granted).max(0.0);
            self.record_round(time_s, &demands, &grants, slack);
            for (run, &grant) in self.enclaves.iter_mut().zip(&grants) {
                run.cluster.set_budget_override(Some(grant));
            }
            rounds.push(GrantRound {
                t_s: time_s,
                grants_w: grants,
                slack_w: slack,
            });

            parallel_for_mut(&mut self.enclaves, self.threads, |_e, run| {
                run.cluster
                    .advance_to(epoch_end, run.policy.as_mut(), skip_idle);
            });
            epoch_start = epoch_end;
        }

        let mut results = Vec::with_capacity(self.enclaves.len());
        for mut run in self.enclaves {
            let result = run.cluster.finish(run.policy.name());
            // Fixed fold order — enclave index — so the merged export
            // is a pure function of the spec, not of thread timing.
            self.recorder.merge_from(&run.recorder);
            results.push(result);
        }
        HierResult {
            enclaves: results,
            rounds,
        }
    }

    /// Coordinator telemetry for one round: aggregate gauges plus one
    /// journal event per enclave and per tenant. All inputs are
    /// deterministic, so these live on the main recorder.
    fn record_round(&self, time_s: f64, demands: &[EnclaveDemand], grants: &[f64], slack: f64) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.set_time_s(time_s);
        self.recorder.counter_inc("perq_hier_rounds_total");
        self.recorder
            .gauge_set("perq_hier_enclaves", demands.len() as f64);
        self.recorder
            .gauge_set("perq_hier_granted_w", grants.iter().sum::<f64>());
        self.recorder.gauge_set("perq_hier_slack_w", slack);
        let tenants = self.topology.tenants.len().max(1);
        let mut tenant_grant = vec![0.0f64; tenants];
        let mut tenant_busy = vec![0usize; tenants];
        for (d, &g) in demands.iter().zip(grants) {
            tenant_grant[d.tenant] += g;
            tenant_busy[d.tenant] += d.busy_nodes;
            self.recorder.event(
                "perq_hier_grant",
                &[
                    ("enclave", FieldValue::U64(d.enclave as u64)),
                    ("tenant", FieldValue::U64(d.tenant as u64)),
                    ("grant_w", FieldValue::F64(g)),
                    ("floor_w", FieldValue::F64(d.floor_w)),
                    ("ceil_w", FieldValue::F64(d.ceil_w)),
                    ("busy_nodes", FieldValue::U64(d.busy_nodes as u64)),
                    ("pending_jobs", FieldValue::U64(d.pending_jobs as u64)),
                ],
            );
        }
        for (t, (&g, &busy)) in tenant_grant.iter().zip(&tenant_busy).enumerate() {
            self.recorder.event(
                "perq_hier_tenant",
                &[
                    ("tenant", FieldValue::U64(t as u64)),
                    ("granted_w", FieldValue::F64(g)),
                    ("busy_nodes", FieldValue::U64(busy as u64)),
                ],
            );
        }
    }
}

/// splitmix64 finalization (same avalanche the cluster uses for RAPL
/// seed derivation) folding the enclave index into the run seed.
fn derive_enclave_seed(seed: u64, enclave: u64) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    mix(seed ^ mix(enclave ^ 0x454e_434c_4156_4531))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FairPolicy;
    use crate::trace::{SystemModel, TraceGenerator};

    fn demand(enclave: usize, wp: usize, floor: f64, ceil: f64, weight: f64) -> EnclaveDemand {
        EnclaveDemand {
            enclave,
            tenant: enclave,
            weight,
            wp_nodes: wp,
            live_nodes: wp,
            busy_nodes: wp / 2,
            pending_jobs: 1,
            floor_w: floor,
            ceil_w: ceil,
        }
    }

    #[test]
    fn partition_is_exact_and_even() {
        let system = SystemModel::tardis();
        let config = ClusterConfig::for_system(&system, 2.0, 600.0);
        for enclaves in [1, 2, 3, 7] {
            let parts = partition_config(&config, enclaves);
            assert_eq!(parts.len(), enclaves);
            assert_eq!(parts.iter().map(|p| p.nodes).sum::<usize>(), config.nodes);
            assert_eq!(
                parts.iter().map(|p| p.wp_nodes).sum::<usize>(),
                config.wp_nodes
            );
            let budget: f64 = parts.iter().map(|p| p.budget_w()).sum();
            assert!((budget - config.budget_w()).abs() < 1e-9);
            let max = parts.iter().map(|p| p.nodes).max().unwrap();
            let min = parts.iter().map(|p| p.nodes).min().unwrap();
            assert!(max - min <= 1, "uneven split at {enclaves} enclaves");
        }
    }

    #[test]
    fn job_assignment_is_deterministic_and_fits() {
        let system = SystemModel::tardis();
        let jobs = TraceGenerator::new(system, 7).generate(40);
        let nodes = vec![32, 32, 16];
        let a = assign_jobs_to_enclaves(&jobs, &nodes);
        let b = assign_jobs_to_enclaves(&jobs, &nodes);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), jobs.len());
        for (e, part) in a.iter().enumerate() {
            for job in part {
                assert!(job.size <= nodes[e], "job {} misplaced", job.id);
            }
        }
    }

    #[test]
    fn proportional_grants_conserve_and_respect_bounds() {
        let ctx = GrantContext {
            time_s: 0.0,
            budget_w: 10_000.0,
            tdp_w: 290.0,
            cap_min_w: 90.0,
            idle_w: 35.0,
        };
        let demands = vec![
            demand(0, 16, 1_000.0, 4_000.0, 1.0),
            demand(1, 16, 1_500.0, 9_000.0, 2.0),
            demand(2, 8, 500.0, 2_000.0, 1.0),
        ];
        let grants = ProportionalAuthority.grant(&ctx, &demands);
        assert_eq!(grants.len(), 3);
        let total: f64 = grants.iter().sum();
        assert!(total <= ctx.budget_w + 1e-6, "over-granted: {total}");
        for (g, d) in grants.iter().zip(&demands) {
            assert!(*g >= d.floor_w - 1e-9, "below floor: {g} < {}", d.floor_w);
            assert!(*g <= d.ceil_w + 1e-9, "above ceil: {g} > {}", d.ceil_w);
        }
        // Demand saturates the budget (Σ ceil > budget), so no slack.
        assert!(total >= ctx.budget_w - 1e-6, "left slack: {total}");
    }

    #[test]
    fn proportional_single_enclave_gets_everything() {
        let ctx = GrantContext {
            time_s: 0.0,
            budget_w: 4_640.0,
            tdp_w: 290.0,
            cap_min_w: 90.0,
            idle_w: 35.0,
        };
        let grants = ProportionalAuthority.grant(&ctx, &[demand(0, 16, 560.0, 4_640.0, 1.0)]);
        assert_eq!(grants, vec![4_640.0]);
    }

    #[test]
    fn hier_thread_sweep_is_deterministic() {
        let system = SystemModel::tardis();
        let config = ClusterConfig::for_system(&system, 2.0, 900.0);
        let jobs = TraceGenerator::new(system.clone(), 5).generate_saturating(config.nodes, 900.0);
        let run = |threads: usize| {
            let policies: Vec<Box<dyn PowerPolicy + Send>> =
                (0..4).map(|_| Box::new(FairPolicy::new()) as _).collect();
            HierSim::new(
                config.clone(),
                jobs.clone(),
                5,
                HierTopology::enclaves(4),
                policies,
            )
            .with_threads(threads)
            .run()
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            let par = run(threads);
            assert_eq!(serial.rounds, par.rounds, "rounds diverged at {threads}");
            for (a, b) in serial.enclaves.iter().zip(&par.enclaves) {
                assert!(a.same_simulation(b), "enclave diverged at {threads}");
            }
            assert!(serial.combined().same_simulation(&par.combined()));
        }
    }

    #[test]
    fn enclave_outage_reallocates_budget() {
        let system = SystemModel::tardis();
        let config = ClusterConfig::for_system(&system, 2.0, 1200.0);
        let jobs = TraceGenerator::new(system.clone(), 9).generate_saturating(config.nodes, 1200.0);
        let policies: Vec<Box<dyn PowerPolicy + Send>> =
            (0..2).map(|_| Box::new(FairPolicy::new()) as _).collect();
        let enclave_nodes = partition_config(&config, 2)[0].nodes;
        let result = HierSim::new(config.clone(), jobs, 9, HierTopology::enclaves(2), policies)
            .with_enclave_fault_plans(vec![enclave_outage_plan(enclave_nodes, 24, Some(72))])
            .run();
        // During the outage the survivor's grant must absorb (nearly)
        // the whole budget; before it, both enclaves hold meaningful
        // shares.
        let budget = config.budget_w();
        let before = &result.rounds[0];
        assert!(before.grants_w[0] > 0.2 * budget);
        assert!(before.grants_w[1] > 0.2 * budget);
        let during: Vec<&GrantRound> = result
            .rounds
            .iter()
            .filter(|r| {
                let step = (r.t_s / config.interval_s).round() as usize;
                (30..70).contains(&step)
            })
            .collect();
        assert!(!during.is_empty());
        for round in during {
            assert!(
                round.grants_w[1] > round.grants_w[0],
                "survivor not favored at t={}: {:?}",
                round.t_s,
                round.grants_w
            );
        }
        assert!(
            !result.enclaves[0].faults.is_empty(),
            "outage plan must apply"
        );
    }
}
