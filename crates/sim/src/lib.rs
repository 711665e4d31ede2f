//! Discrete-interval cluster simulator for power-constrained,
//! hardware-over-provisioned systems.
//!
//! This is the evaluation substrate of the PERQ reproduction (paper §3):
//! a simulator driven by Mira- and Trinity-calibrated job traces, with
//! FCFS + EASY-backfilling scheduling, per-job RAPL-style power capping,
//! and per-interval IPS telemetry. Power-allocation policies (FOP, SJS,
//! LJS, SRN, and PERQ itself, implemented in `perq-core`) plug in through
//! the [`PowerPolicy`] trait and are invoked once per control interval,
//! exactly like the paper's controller.
//!
//! # Model
//!
//! - Nodes are homogeneous (Intel Xeon E5-2686 parameters from
//!   `perq-apps`); a job occupies `size` whole nodes and all of a job's
//!   nodes run identically, so power is tracked per job with the node
//!   count as multiplier, and each running job carries one simulated RAPL
//!   device (`perq-rapl`).
//! - Progress is measured in TDP-equivalent seconds: a job finishes when
//!   its accumulated `perf_frac · dt` reaches its TDP runtime. IPS
//!   telemetry is `size · BASE_NODE_IPS · perf_frac` plus measurement
//!   noise.
//! - The power budget is that of the worst-case-provisioned system,
//!   `N_WP · TDP`. The simulator *enforces* `Σ size·cap + idle·P_idle ≤
//!   budget` by proportional scale-down if a policy overshoots, and
//!   records the violation.
//! - The queue is saturated by default (paper: "making sure that there
//!   is always a job available to run at the head of the queue"): all
//!   jobs are ready at t = 0 in trace order. SWF replays can instead
//!   honour the log's submit times ([`ClusterConfig::honor_arrivals`]),
//!   which introduces dead time.
//! - One loop executes a run ([`Cluster::run`]; [`HierSim`] calls the
//!   same loop once per coordination epoch): intervals in which
//!   nothing can happen — no job running, nothing startable, no fault
//!   or arrival due — are synthesized in bulk, every other interval
//!   runs the policy. [`Cluster::run_stepper`] executes every interval
//!   and is the oracle the skip is proven byte-identical against.
//! - Workloads come from the seeded synthetic [`TraceGenerator`]s
//!   (Mira/Trinity-calibrated) or from real SWF archive logs via
//!   [`TraceSource`] (`perq-trace`), which attaches seeded `perq-apps`
//!   power profiles to every replayed job.
//!
//! # Example
//!
//! ```
//! use perq_sim::{Cluster, ClusterConfig, FairPolicy, TraceGenerator, SystemModel};
//!
//! let system = SystemModel::mira();
//! let jobs = TraceGenerator::new(system.clone(), 42).generate(50);
//! let config = ClusterConfig::for_system(&system, 1.5, 4.0 * 3600.0);
//! let mut cluster = Cluster::new(config, jobs, 42);
//! let result = cluster.run(&mut FairPolicy::new());
//! assert!(result.budget_violations == 0);
//! ```

mod budget;
mod cluster;
mod fault;
mod hier;
mod job;
mod metrics;
mod parallel;
mod policy;
mod scheduler;
mod swf;
mod trace;

pub use budget::BudgetSchedule;
pub use cluster::{Cluster, ClusterConfig, IntervalLog, SimResult};
pub use fault::{AppliedFault, FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use hier::{
    assign_jobs_to_enclaves, enclave_outage_plan, partition_config, BudgetAuthority, EnclaveDemand,
    GrantContext, GrantRound, HierResult, HierSim, HierTopology, ProportionalAuthority, TenantSpec,
};
pub use job::{JobOutcome, JobRecord, JobSpec, JobTrace, TracePoint};
pub use metrics::{
    compare_fairness, fault_summary, runtime_cdf, throughput, FairnessReport, FaultSummary,
};
pub use parallel::{parallel_for_mut, parallel_map};
pub use policy::{FairPolicy, JobView, PolicyContext, PowerAssignment, PowerPolicy};
pub use scheduler::{RunningFootprint, ScheduleScratch, Scheduler};
pub use swf::{swf_from_jobs, SwfImportSummary, TraceSource};
pub use trace::{SystemModel, TraceGenerator};
