use crate::action::Action;
use crate::obs::Observation;
use crate::reward::RewardSpec;
use perq_sim::{PolicyContext, PowerAssignment, PowerPolicy};
use perq_telemetry::Recorder;

/// A policy-zoo citizen: acts on typed [`Observation`]s and receives
/// shaped rewards. One trait covers hand-written baselines, the
/// learning bandit, and wrapped `PowerPolicy` implementations (PERQ),
/// so the ablation compares them on exactly equal footing.
///
/// `Send` is a supertrait because campaign workers move zoo policies
/// across threads.
pub trait ZooPolicy: Send {
    /// Stable display name ("ZOO-FAIR", "ZOO-BANDIT", ...). This is
    /// what `SimResult::policy` reports for episodes the policy drives.
    fn name(&self) -> &'static str;

    /// Chooses an action for one decision instance. Must be a
    /// deterministic function of the policy's state and the
    /// observation — any randomness comes from the policy's own seeded
    /// counter RNG.
    fn act(&mut self, obs: &Observation) -> Action;

    /// Receives the shaped reward for the *previous* action, delivered
    /// just before the next [`ZooPolicy::act`] call (there is no reward
    /// after the final decision of an episode). Default: ignored.
    fn reward(&mut self, _r: f64) {}

    /// A job left the system (completed, killed, or crashed). Default:
    /// ignored.
    fn job_departed(&mut self, _job_id: u64) {}

    /// A new episode is about to start. Learning policies keep their
    /// learned state but must drop per-job and per-transition state
    /// (job ids restart between episodes). Default: ignored.
    fn episode_started(&mut self) {}

    /// Attaches a telemetry recorder (learning policies export
    /// `perq_gym_*` metrics through it). Default: ignored.
    fn set_recorder(&mut self, _recorder: Recorder) {}
}

impl<T: ZooPolicy + ?Sized> ZooPolicy for &mut T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn act(&mut self, obs: &Observation) -> Action {
        (**self).act(obs)
    }
    fn reward(&mut self, r: f64) {
        (**self).reward(r)
    }
    fn job_departed(&mut self, job_id: u64) {
        (**self).job_departed(job_id)
    }
    fn episode_started(&mut self) {
        (**self).episode_started()
    }
    fn set_recorder(&mut self, recorder: Recorder) {
        (**self).set_recorder(recorder)
    }
}

impl<T: ZooPolicy + ?Sized> ZooPolicy for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn act(&mut self, obs: &Observation) -> Action {
        (**self).act(obs)
    }
    fn reward(&mut self, r: f64) {
        (**self).reward(r)
    }
    fn job_departed(&mut self, job_id: u64) {
        (**self).job_departed(job_id)
    }
    fn episode_started(&mut self) {
        (**self).episode_started()
    }
    fn set_recorder(&mut self, recorder: Recorder) {
        (**self).set_recorder(recorder)
    }
}

/// Everything a finished episode's transitions amounted to, captured
/// only when requested (campaign grids run uncaptured to stay lean).
#[derive(Debug, Default)]
pub struct Transitions {
    /// The observation at each decision instance.
    pub observations: Vec<Observation>,
    /// The action taken at each decision instance.
    pub actions: Vec<Action>,
    /// Reward for each *completed* transition — always exactly one
    /// shorter than `observations` on a non-empty episode, because the
    /// final decision's reward never arrives.
    pub rewards: Vec<f64>,
}

/// Adapts a [`ZooPolicy`] to the simulator's [`PowerPolicy`] trait:
/// snapshots each decision context into an [`Observation`], scores the
/// previous transition, and lowers the chosen [`Action`] to caps.
///
/// Idle intervals: on an empty decision context (the simulator skips
/// most idle intervals but executes a few around each arrival, and its
/// `run_stepper` oracle executes all of them) the driver returns
/// immediately — no observation, no reward, no agent call, no
/// telemetry — so the agent sees the same decision sequence however
/// many idle intervals were executed.
pub struct ZooDriver<A: ZooPolicy> {
    agent: A,
    reward: RewardSpec,
    name: &'static str,
    started: bool,
    prev_violation_s: Option<f64>,
    departures: usize,
    total_reward: f64,
    decisions: u64,
    capture: Option<Transitions>,
    recorder: Recorder,
}

impl<A: ZooPolicy> ZooDriver<A> {
    /// Wraps an agent under a reward shaping.
    pub fn new(agent: A, reward: RewardSpec) -> Self {
        let name = agent.name();
        ZooDriver {
            agent,
            reward,
            name,
            started: false,
            prev_violation_s: None,
            departures: 0,
            total_reward: 0.0,
            decisions: 0,
            capture: None,
            recorder: Recorder::noop(),
        }
    }

    /// Turns on transition capture (observation/action/reward streams).
    pub fn with_capture(mut self) -> Self {
        self.capture = Some(Transitions::default());
        self
    }

    /// Total shaped reward accumulated so far.
    pub fn total_reward(&self) -> f64 {
        self.total_reward
    }

    /// Decision instances taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Consumes the driver, returning the agent, the captured
    /// transitions (empty when capture was off), and the total reward.
    pub fn finish(self) -> (A, Transitions, f64) {
        (
            self.agent,
            self.capture.unwrap_or_default(),
            self.total_reward,
        )
    }
}

impl<A: ZooPolicy> PowerPolicy for ZooDriver<A> {
    fn name(&self) -> &str {
        self.name
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        if ctx.jobs.is_empty() {
            // Idle interval: whether the simulator executes or skips
            // it is an implementation detail the agent must not see.
            return Vec::new();
        }
        if !self.started {
            // The driver owns the episode boundary so every harness —
            // GymEnv episodes and campaign scenarios alike — signals it
            // exactly once, after the recorder has been attached.
            self.started = true;
            self.agent.episode_started();
        }
        let obs = Observation::from_ctx(ctx);
        if let Some(prev_violation_s) = self.prev_violation_s {
            let r = self.reward.score(&obs, prev_violation_s, self.departures);
            self.total_reward += r;
            self.recorder.gauge_set("perq_gym_reward", r);
            self.recorder
                .gauge_set("perq_gym_reward_total", self.total_reward);
            if let Some(c) = &mut self.capture {
                c.rewards.push(r);
            }
            self.agent.reward(r);
        }
        let action = self.agent.act(&obs);
        let caps = action.to_caps(&obs);
        self.decisions += 1;
        self.departures = 0;
        self.prev_violation_s = Some(obs.violation_s);
        self.recorder.counter_inc("perq_gym_decisions_total");
        if let Some(c) = &mut self.capture {
            c.observations.push(obs);
            c.actions.push(action);
        }
        caps.into_iter().map(PowerAssignment::cap).collect()
    }

    fn job_departed(&mut self, job_id: u64) {
        self.departures += 1;
        self.agent.job_departed(job_id);
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder.clone();
        self.agent.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::MacroAction;
    use perq_sim::JobView;

    /// Scripted agent: replays a fixed action list.
    struct Scripted {
        actions: Vec<Action>,
        cursor: usize,
        rewards_seen: Vec<f64>,
    }

    impl ZooPolicy for Scripted {
        fn name(&self) -> &'static str {
            "SCRIPTED"
        }
        fn act(&mut self, _obs: &Observation) -> Action {
            let a = self.actions[self.cursor % self.actions.len()].clone();
            self.cursor += 1;
            a
        }
        fn reward(&mut self, r: f64) {
            self.rewards_seen.push(r);
        }
    }

    fn ctx(jobs: &[JobView], violation_s: f64) -> PolicyContext<'_> {
        PolicyContext {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: 2320.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 16,
            wp_nodes: 8,
            queue_depth: 0,
            violation_s,
            jobs,
        }
    }

    fn job(id: u64) -> JobView {
        JobView {
            id,
            size: 8,
            elapsed_s: 0.0,
            measured_ips: Some(8.0 * 1.0e9),
            current_cap_w: 145.0,
            measured_power_w: Some(140.0),
            remaining_node_hours: 1.0,
            is_new: false,
        }
    }

    #[test]
    fn empty_context_never_reaches_the_agent() {
        let agent = Scripted {
            actions: vec![Action::Macro(MacroAction::FairShare)],
            cursor: 0,
            rewards_seen: Vec::new(),
        };
        let mut driver = ZooDriver::new(agent, RewardSpec::default()).with_capture();
        assert!(driver.assign(&ctx(&[], 0.0)).is_empty());
        assert_eq!(driver.decisions(), 0);
        let jobs = [job(0)];
        assert_eq!(driver.assign(&ctx(&jobs, 0.0)).len(), 1);
        let (agent, transitions, _) = driver.finish();
        assert_eq!(agent.cursor, 1, "only the busy context reached the agent");
        assert_eq!(transitions.observations.len(), 1);
        assert!(
            transitions.rewards.is_empty(),
            "no reward after one decision"
        );
    }

    #[test]
    fn rewards_lag_one_decision_and_count_departures() {
        let agent = Scripted {
            actions: vec![Action::Macro(MacroAction::FairShare)],
            cursor: 0,
            rewards_seen: Vec::new(),
        };
        let mut driver = ZooDriver::new(agent, RewardSpec::default()).with_capture();
        let jobs = [job(0), job(1)];
        driver.assign(&ctx(&jobs[..1], 0.0));
        driver.job_departed(0);
        driver.assign(&ctx(&jobs[1..], 0.0));
        driver.assign(&ctx(&jobs[1..], 0.0));
        let (agent, transitions, total) = driver.finish();
        assert_eq!(transitions.observations.len(), 3);
        assert_eq!(transitions.rewards.len(), 2);
        assert_eq!(agent.rewards_seen.len(), 2);
        // First reward saw the departure (+1 completion weight).
        assert!(agent.rewards_seen[0] > agent.rewards_seen[1]);
        assert!((total - transitions.rewards.iter().sum::<f64>()).abs() < 1e-12);
    }
}
