//! perq-gym: a gym-style environment over the PERQ simulator, plus the
//! policy zoo it exists to compare.
//!
//! The paper evaluates one controller against hand-written baselines.
//! This crate turns that evaluation into a *learning-augmented
//! scheduling* testbed with three layers:
//!
//! - **Environment** ([`GymEnv`]): builds a seed-identical cluster per
//!   episode from a pure-data [`EnvConfig`] (system shape, workload,
//!   optional time-varying [`BudgetSchedule`], optional fault
//!   injection) and drives any [`ZooPolicy`] through it.
//!   Observations ([`Observation`]) expose per-job power/caps, queue
//!   depth, budget headroom, and cumulative violation seconds — and
//!   deliberately *omit* the simulator's oracle field, so no agent can
//!   cheat its way into SRN. Actions ([`Action`]) are explicit cap
//!   vectors or discrete reallocation moves ([`MacroAction`]); rewards
//!   are a selectable shaping ([`RewardSpec`]) over delivered IPS,
//!   completions, violations, and fairness spread.
//! - **Policy zoo** ([`ZooSpec`] → [`ZooPolicy`]): fair-share and
//!   greedy-efficiency baselines, a tabular-Q epsilon-greedy learner
//!   ([`BanditAgent`], counter-based splitmix64 exploration — no RNG
//!   crate), and the paper's PERQ controller wrapped as a zoo citizen.
//! - **Adapter** ([`ZooDriver`]): the bridge onto the simulator's
//!   `PowerPolicy` trait — scores transitions, lowers actions to caps,
//!   exports `perq_gym_*` telemetry, and ignores the empty decision
//!   contexts of idle intervals, so an agent cannot tell whether the
//!   simulator skipped them.
//!
//! # Determinism contract
//!
//! Equal `(EnvConfig, RewardSpec, agent state)` ⇒ byte-identical
//! observation/action/reward streams, simulation results, and telemetry
//! exports. Any randomness an agent uses comes from
//! its own seeded counter RNG. `tests/determinism.rs` pins all of this.
//!
//! # Example
//!
//! ```
//! use perq_gym::{EnvConfig, EnvWorkload, GymEnv, ZooSpec};
//!
//! let mut config = EnvConfig::tardis(7);
//! config.duration_s = 600.0;
//! config.workload = EnvWorkload::Light { jobs: 10 };
//! let mut env = GymEnv::new(config);
//! let mut agent = ZooSpec::bandit(7).build(None);
//! let first = env.run_episode(&mut *agent);
//! let second = env.run_episode(&mut *agent);
//! assert_eq!(second.index, 1);
//! assert!(first.decisions > 0);
//! ```

mod action;
mod bandit;
mod driver;
mod env;
mod obs;
mod reward;
mod zoo;

pub use action::{Action, MacroAction, MACRO_ACTIONS};
pub use bandit::{BanditAgent, BanditConfig};
pub use driver::{Transitions, ZooDriver, ZooPolicy};
pub use env::{EnvConfig, EnvWorkload, Episode, GymEnv};
pub use obs::{JobObs, Observation};
pub use reward::RewardSpec;
pub use zoo::{FairShareAgent, GreedyAgent, PerqZooAgent, ZooSpec};

// Re-exported so downstream code can build schedules/rates without
// depending on perq-sim directly.
pub use perq_sim::{BudgetSchedule, FaultRates};
