//! # PERQ — fair and efficient power management for power-constrained systems
//!
//! A from-scratch Rust reproduction of *PERQ: Fair and Efficient Power
//! Management of Power-Constrained Large-Scale Computing Systems*
//! (Patel & Tiwari, HPDC 2019): a multi-objective model-predictive power
//! allocator for hardware-over-provisioned clusters, together with every
//! substrate its evaluation needs.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! namespace. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured results.
//!
//! ## Layered architecture
//!
//! | Layer | Crate | Contents |
//! |-------|-------|----------|
//! | observability | [`telemetry`] | deterministic metrics registry, spans, event journal, Prometheus/JSONL exporters |
//! | numerics | [`linalg`] | dense matrices, LU/QR, least squares |
//! | optimization | [`qp`] | projected-gradient convex QP solver, f64 / mixed-precision profiles |
//! | identification | [`sysid`] | ARX fitting, state-space models, Kalman observers, RLS, monotone curves |
//! | workloads | [`apps`] | ECP proxy-app and NPB-like synthetic profiles (Table 1, Figs. 2–3) |
//! | hardware | [`rapl`] | simulated RAPL power capping |
//! | workload logs | [`trace`] | SWF parsing/writing, deterministic transforms, seeded power synthesis |
//! | evaluation | [`sim`] | cluster simulator, FCFS+EASY scheduling, Mira/Trinity traces |
//! | **contribution** | [`core`] | PERQ target generator + MPC controller + baseline policies |
//! | prototype | [`proto`] | TCP-connected miniature cluster (Tardis) |
//! | service | [`serve`] | non-blocking control-plane: epoll event loop, batched decide ticks, /metrics, hot reload |
//! | learning | [`gym`] | gym-style env over the simulator: typed observations/actions/rewards, policy zoo, deterministic episodes |
//!
//! ## Quickstart
//!
//! ```
//! use perq::sim::{Cluster, ClusterConfig, FairPolicy, SystemModel, TraceGenerator};
//! use perq::core::{PerqConfig, PerqPolicy};
//!
//! // A small over-provisioned cluster (f = 2) and a saturated job queue.
//! let system = SystemModel::tardis();
//! let jobs = TraceGenerator::new(system.clone(), 7).generate(100);
//! let config = ClusterConfig::for_system(&system, 2.0, 2.0 * 3600.0);
//!
//! // Fairness-oriented baseline…
//! let fop = Cluster::new(config.clone(), jobs.clone(), 7).run(&mut FairPolicy::new());
//! // …versus PERQ.
//! let mut perq = PerqPolicy::new(PerqConfig::default());
//! let result = Cluster::new(config, jobs, 7).run(&mut perq);
//!
//! // Consumption stays within budget (rare, shallow transients possible
//! // on a cluster this small — see PerqPolicy docs).
//! assert!(result.budget_violations <= result.intervals.len() / 50);
//! println!("FOP {} vs PERQ {}", fop.throughput(), result.throughput());
//! ```

pub use perq_apps as apps;
pub use perq_core as core;
pub use perq_gym as gym;
pub use perq_linalg as linalg;
pub use perq_proto as proto;
pub use perq_qp as qp;
pub use perq_rapl as rapl;
pub use perq_serve as serve;
pub use perq_sim as sim;
pub use perq_sysid as sysid;
pub use perq_telemetry as telemetry;
pub use perq_trace as trace;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use perq_apps::{ecp_suite, npb_training_suite, AppProfile, Sensitivity};
    pub use perq_core::{
        baselines, train_node_model, MpcSettings, NodeModel, PerqConfig, PerqPolicy,
    };
    pub use perq_gym::{EnvConfig, GymEnv, RewardSpec, ZooSpec};
    pub use perq_sim::{
        compare_fairness, Cluster, ClusterConfig, FairPolicy, JobSpec, PowerPolicy, SimResult,
        SystemModel, TraceGenerator,
    };
}
