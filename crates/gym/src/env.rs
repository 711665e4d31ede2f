use crate::driver::{Transitions, ZooDriver, ZooPolicy};
use crate::reward::RewardSpec;
use perq_sim::{
    BudgetSchedule, Cluster, ClusterConfig, FaultPlan, FaultRates, JobSpec, SimResult, SystemModel,
    TraceGenerator,
};
use perq_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// Which job stream an episode runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnvWorkload {
    /// The paper's saturated queue: enough synthetic jobs to keep the
    /// machine busy for the whole episode (3× margin).
    Saturating,
    /// A light, fixed-count synthetic stream — the queue drains, so
    /// episodes exercise arrival/drain dynamics and idle headroom.
    Light {
        /// Number of jobs to generate.
        jobs: usize,
    },
    /// An explicit job list (SWF replays land here: the caller converts
    /// once via `perq-trace` and hands the specs over).
    Explicit(Vec<JobSpec>),
}

/// Everything that pins an episode bit-for-bit: system shape, seed,
/// workload, optional budget schedule and fault injection.
/// Pure data (serde), so a scenario file can carry a whole environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// System under evaluation (node counts, trace calibration).
    pub system: SystemModel,
    /// Over-provisioning factor.
    pub f: f64,
    /// Simulated episode duration, seconds.
    pub duration_s: f64,
    /// Control interval, seconds.
    pub interval_s: f64,
    /// Trace + noise + RAPL seed.
    pub seed: u64,
    /// The job stream.
    pub workload: EnvWorkload,
    /// Time-varying power budget (None = the flat paper budget).
    #[serde(default)]
    pub budget_schedule: Option<BudgetSchedule>,
    /// Generated fault injection: `(plan_seed, rates)`. The adversarial
    /// lying-telemetry regime sets this to
    /// [`FaultRates::adversarial_telemetry`].
    #[serde(default)]
    pub faults: Option<(u64, FaultRates)>,
}

impl EnvConfig {
    /// The dense small-system default: Tardis at `f = 2` for one
    /// simulated hour — large enough to see scheduling dynamics, small
    /// enough for tests and grids.
    pub fn tardis(seed: u64) -> Self {
        EnvConfig {
            system: SystemModel::tardis(),
            f: 2.0,
            duration_s: 3600.0,
            interval_s: 10.0,
            seed,
            workload: EnvWorkload::Saturating,
            budget_schedule: None,
            faults: None,
        }
    }

    /// Decision steps per episode (what fault plans are sized to).
    pub fn steps(&self) -> usize {
        (self.duration_s / self.interval_s).ceil() as usize
    }

    /// Builds the episode's simulator. Same config, same cluster, bit
    /// for bit: the trace generator, fault plan, and RAPL streams are
    /// all re-derived from the stored seeds.
    pub fn build_cluster(&self) -> Cluster {
        let mut config = ClusterConfig::for_system(&self.system, self.f, self.duration_s);
        config.interval_s = self.interval_s;
        let jobs = match &self.workload {
            EnvWorkload::Saturating => TraceGenerator::new(self.system.clone(), self.seed)
                .generate_saturating(config.nodes, self.duration_s),
            EnvWorkload::Light { jobs } => {
                TraceGenerator::new(self.system.clone(), self.seed).generate(*jobs)
            }
            EnvWorkload::Explicit(specs) => specs.clone(),
        };
        let mut cluster = Cluster::new(config, jobs, self.seed);
        if let Some(schedule) = &self.budget_schedule {
            cluster = cluster.with_budget_schedule(schedule.clone());
        }
        if let Some((plan_seed, rates)) = &self.faults {
            cluster = cluster.with_fault_plan(FaultPlan::generate(*plan_seed, self.steps(), rates));
        }
        cluster
    }
}

/// One finished episode.
#[derive(Debug)]
pub struct Episode {
    /// Zero-based episode index within this environment.
    pub index: u64,
    /// The full simulation result (records, intervals, violations).
    pub result: SimResult,
    /// Captured observation/action/reward streams (empty when capture
    /// is off).
    pub transitions: Transitions,
    /// Total shaped reward over the episode.
    pub total_reward: f64,
    /// Decision instances the agent took.
    pub decisions: u64,
}

/// A gym-style environment over the PERQ simulator: builds a fresh,
/// seed-identical cluster per episode and drives a [`ZooPolicy`]
/// through it via [`ZooDriver`].
///
/// Determinism contract (pinned by `tests/determinism.rs`): two
/// environments with equal [`EnvConfig`] and [`RewardSpec`], driving
/// agents in equal states, produce byte-identical observation streams,
/// rewards, results, and telemetry exports.
pub struct GymEnv {
    config: EnvConfig,
    reward: RewardSpec,
    recorder: Recorder,
    capture: bool,
    episodes: u64,
}

impl GymEnv {
    /// An environment over `config` with the balanced default shaping.
    pub fn new(config: EnvConfig) -> Self {
        GymEnv {
            config,
            reward: RewardSpec::default(),
            recorder: Recorder::noop(),
            capture: true,
            episodes: 0,
        }
    }

    /// Selects a reward shaping (builder style).
    pub fn with_reward(mut self, reward: RewardSpec) -> Self {
        self.reward = reward;
        self
    }

    /// Attaches a telemetry recorder (builder style): simulator,
    /// controller, and `perq_gym_*` metrics all land on it.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Disables transition capture (builder style) — grids and long
    /// training loops keep memory flat this way.
    pub fn without_capture(mut self) -> Self {
        self.capture = false;
        self
    }

    /// The environment's configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Episodes run so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Runs one episode: rebuilds the cluster from the stored config
    /// and drives the agent to the configured duration. The
    /// [`ZooDriver`] signals `episode_started` at the first decision
    /// (after the cluster has attached the recorder). The agent keeps
    /// its learned state across calls; the simulation restarts
    /// identically each time.
    pub fn run_episode(&mut self, agent: &mut dyn ZooPolicy) -> Episode {
        let mut cluster = self
            .config
            .build_cluster()
            .with_recorder(self.recorder.clone());
        let mut driver = ZooDriver::new(agent, self.reward.clone());
        if self.capture {
            driver = driver.with_capture();
        }
        let result = cluster.run(&mut driver);
        let decisions = driver.decisions();
        let (_, transitions, total_reward) = driver.finish();
        let index = self.episodes;
        self.episodes += 1;
        Episode {
            index,
            result,
            transitions,
            total_reward,
            decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ZooSpec;

    fn light_config(seed: u64) -> EnvConfig {
        let mut config = EnvConfig::tardis(seed);
        config.duration_s = 600.0;
        config.workload = EnvWorkload::Light { jobs: 12 };
        config
    }

    #[test]
    fn episodes_are_reproducible() {
        let run = || {
            let mut env = GymEnv::new(light_config(11));
            let mut agent = ZooSpec::FairShare.build(None);
            env.run_episode(&mut *agent)
        };
        let (a, b) = (run(), run());
        assert!(a.result.same_simulation(&b.result));
        assert_eq!(a.transitions.observations, b.transitions.observations);
        assert_eq!(a.transitions.actions, b.transitions.actions);
        assert_eq!(a.transitions.rewards, b.transitions.rewards);
        assert_eq!(a.total_reward, b.total_reward);
        assert!(a.decisions > 0);
        assert_eq!(a.result.policy, "ZOO-FAIR");
    }

    #[test]
    fn episode_index_advances_and_cluster_restarts() {
        let mut env = GymEnv::new(light_config(3));
        let mut agent = ZooSpec::Greedy.build(None);
        let first = env.run_episode(&mut *agent);
        let second = env.run_episode(&mut *agent);
        assert_eq!(first.index, 0);
        assert_eq!(second.index, 1);
        assert!(
            first.result.same_simulation(&second.result),
            "a memoryless agent must see an identical simulation each episode"
        );
    }

    #[test]
    fn capture_can_be_disabled() {
        let mut env = GymEnv::new(light_config(5)).without_capture();
        let mut agent = ZooSpec::FairShare.build(None);
        let ep = env.run_episode(&mut *agent);
        assert!(ep.transitions.observations.is_empty());
        assert!(ep.decisions > 0);
        assert!(ep.total_reward != 0.0);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let mut config = light_config(7);
        config.budget_schedule = Some(BudgetSchedule::diurnal(2320.0, 0.7, 1.0, 600.0, 3600.0));
        config.faults = Some((9, FaultRates::adversarial_telemetry()));
        let json = serde_json::to_string(&config).unwrap();
        let back: EnvConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }
}
