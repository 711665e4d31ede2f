//! The gym determinism contract, pinned.
//!
//! - Same `(EnvConfig, RewardSpec, agent seed)` ⇒ byte-identical
//!   observation streams (via serde_json), rewards, and telemetry
//!   exports.
//! - Idle intervals are invisible to an agent, whether the simulator
//!   skips them (`Cluster::run`) or executes them (`run_stepper`).
//! - The wrapped-PERQ zoo citizen reproduces plain PERQ exactly.

use perq_core::{train_node_model, PerqConfig, PerqPolicy};
use perq_gym::{
    BudgetSchedule, EnvConfig, EnvWorkload, FaultRates, GymEnv, RewardSpec, ZooDriver, ZooSpec,
};
use perq_telemetry::Recorder;
use proptest::prelude::*;

fn light_config(seed: u64) -> EnvConfig {
    let mut config = EnvConfig::tardis(seed);
    config.duration_s = 900.0;
    config.workload = EnvWorkload::Light { jobs: 20 };
    config
}

/// Runs `episodes` episodes of one agent and returns the serialized
/// observation/action streams, per-episode rewards, and the telemetry
/// export.
fn run_trajectory(config: &EnvConfig, spec: &ZooSpec, episodes: usize) -> (String, String) {
    let recorder = Recorder::manual();
    let mut env = GymEnv::new(config.clone()).with_recorder(recorder.clone());
    let mut agent = spec.build(None);
    let mut stream = String::new();
    for _ in 0..episodes {
        let ep = env.run_episode(&mut *agent);
        stream.push_str(&serde_json::to_string(&ep.transitions.observations).unwrap());
        stream.push_str(&serde_json::to_string(&ep.transitions.actions).unwrap());
        stream.push_str(&serde_json::to_string(&ep.transitions.rewards).unwrap());
        stream.push_str(&format!("|total={:.12e}|", ep.total_reward));
    }
    (stream, recorder.export_prometheus())
}

#[test]
fn bandit_trajectories_are_byte_identical_under_a_seed() {
    let config = light_config(21);
    let spec = ZooSpec::bandit(5);
    let (stream_a, prom_a) = run_trajectory(&config, &spec, 3);
    let (stream_b, prom_b) = run_trajectory(&config, &spec, 3);
    assert_eq!(
        stream_a, stream_b,
        "observation/action/reward streams drifted"
    );
    assert_eq!(prom_a, prom_b, "telemetry export drifted");
    assert!(prom_a.contains("perq_gym_episodes_total 3"), "{prom_a}");
    assert!(prom_a.contains("perq_gym_q_updates_total"));
    assert!(prom_a.contains("perq_gym_epsilon"));
    assert!(prom_a.contains("perq_gym_reward_total"));
}

#[test]
fn different_bandit_seeds_diverge() {
    let config = light_config(21);
    let (a, _) = run_trajectory(&config, &ZooSpec::bandit(5), 2);
    let (b, _) = run_trajectory(&config, &ZooSpec::bandit(6), 2);
    assert_ne!(a, b, "exploration must depend on the agent seed");
}

#[test]
fn idle_intervals_are_invisible_to_agents() {
    // A draining workload with a scheduled budget and adversarial
    // telemetry. The simulator's `run` skips most idle intervals, its
    // `run_stepper` oracle hands the driver an empty context for every
    // one of them; the agent-visible streams and the telemetry export
    // must not depend on which. (The policy-level call stream is pinned
    // in `perq-sim`'s `event_parity` suite.)
    let mut config = light_config(33);
    // Three short jobs, all started at t = 0: the queue is empty at
    // once and the machine idle for the second half of the episode.
    config.workload = EnvWorkload::Explicit(
        (0..3)
            .map(|i| perq_sim::JobSpec {
                id: i,
                app_index: (2 * i + 1) as usize,
                size: 2 + i as usize,
                runtime_tdp_s: 150.0 + 60.0 * i as f64,
                runtime_estimate_s: 1.3 * (150.0 + 60.0 * i as f64),
                submit_s: 0.0,
            })
            .collect(),
    );
    config.budget_schedule = Some(BudgetSchedule::diurnal(2320.0, 0.75, 1.0, 300.0, 900.0));
    config.faults = Some((17, FaultRates::adversarial_telemetry()));
    for spec in [ZooSpec::FairShare, ZooSpec::Greedy, ZooSpec::bandit(2)] {
        let drive = |stepper: bool| {
            let recorder = Recorder::manual();
            let mut cluster = config.build_cluster().with_recorder(recorder.clone());
            let mut agent = spec.build(None);
            let mut driver = ZooDriver::new(&mut *agent, RewardSpec::default()).with_capture();
            let result = if stepper {
                cluster.run_stepper(&mut driver)
            } else {
                cluster.run(&mut driver)
            };
            let (_, transitions, total_reward) = driver.finish();
            let stream = format!(
                "{}{}{}|total={total_reward:.12e}|",
                serde_json::to_string(&transitions.observations).unwrap(),
                serde_json::to_string(&transitions.actions).unwrap(),
                serde_json::to_string(&transitions.rewards).unwrap(),
            );
            (result, stream, recorder.export_prometheus())
        };
        let (result_s, stream_s, prom_s) = drive(true);
        let (result_r, stream_r, prom_r) = drive(false);
        assert!(result_s.same_simulation(&result_r));
        assert!(
            result_r.decision_times_s.len() < result_s.decision_times_s.len(),
            "{spec:?}: the draining workload must leave idle intervals to skip"
        );
        assert_eq!(
            stream_s, stream_r,
            "{spec:?}: skipping idle intervals changed what the agent saw"
        );
        assert_eq!(
            prom_s, prom_r,
            "{spec:?}: skipping idle intervals changed the telemetry export"
        );
    }
}

#[test]
fn wrapped_perq_reproduces_plain_perq() {
    let config = light_config(44);
    let perq_config = PerqConfig::default();
    let (model, _) = train_node_model(perq_config.training_seed);

    let mut plain = PerqPolicy::with_model(model.clone(), perq_config.clone());
    let direct = config.build_cluster().run(&mut plain);

    let mut env = GymEnv::new(config.clone());
    let mut agent = ZooSpec::Perq {
        config: perq_config,
    }
    .build(Some(&model));
    let wrapped = env.run_episode(&mut *agent);

    assert_eq!(wrapped.result.policy, "ZOO-PERQ");
    // Identical up to the reported policy name.
    let mut renamed = wrapped.result.clone();
    renamed.policy = direct.policy.clone();
    assert!(
        direct.same_simulation(&renamed),
        "the zoo wrapper must not change a single PERQ decision"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Env determinism over random seeds and regimes: two identically
    /// configured runs of the same seeded agent are byte-identical.
    #[test]
    fn env_is_deterministic_over_random_regimes(
        seed in 0u64..1000,
        agent_seed in 0u64..1000,
        jobs in 8usize..24,
        diurnal in proptest::bool::ANY,
        adversarial in proptest::bool::ANY,
    ) {
        let mut config = light_config(seed);
        config.workload = EnvWorkload::Light { jobs };
        if diurnal {
            config.budget_schedule =
                Some(BudgetSchedule::diurnal(2320.0, 0.8, 1.0, 450.0, 900.0));
        }
        if adversarial {
            config.faults = Some((seed ^ 0xAD, FaultRates::adversarial_telemetry()));
        }
        let spec = ZooSpec::bandit(agent_seed);
        let (a, prom_a) = run_trajectory(&config, &spec, 1);
        let (b, prom_b) = run_trajectory(&config, &spec, 1);
        prop_assert_eq!(a, b);
        prop_assert_eq!(prom_a, prom_b);
    }
}

#[test]
fn reward_shaping_changes_scores_not_the_simulation() {
    let config = light_config(60);
    let run = |reward: RewardSpec| {
        let mut env = GymEnv::new(config.clone()).with_reward(reward);
        let mut agent = ZooSpec::FairShare.build(None);
        env.run_episode(&mut *agent)
    };
    let balanced = run(RewardSpec::default());
    let throughput = run(RewardSpec::throughput());
    assert!(balanced.result.same_simulation(&throughput.result));
    assert_ne!(
        balanced.total_reward, throughput.total_reward,
        "different shapings must score the same trajectory differently"
    );
}
