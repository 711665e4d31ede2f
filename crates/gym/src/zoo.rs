use crate::action::{Action, MacroAction};
use crate::bandit::{BanditAgent, BanditConfig};
use crate::driver::ZooPolicy;
use crate::obs::Observation;
use perq_core::{NodeModel, PerqConfig, PerqPolicy};
use perq_sim::{PolicyContext, PowerPolicy};
use serde::{Deserialize, Serialize};

/// A zoo policy as pure data — the serde-round-trippable description a
/// campaign scenario carries. Equal specs build bit-identical agents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ZooSpec {
    /// Fair-share baseline (every node an equal share — FOP as a zoo
    /// citizen).
    FairShare,
    /// Greedy IPS-per-watt baseline.
    Greedy,
    /// The tabular-Q / epsilon-greedy learner.
    Bandit {
        /// Exploration seed.
        seed: u64,
        /// Learner hyper-parameters.
        config: BanditConfig,
    },
    /// The paper's PERQ controller wrapped as a zoo citizen — it sees
    /// only the [`Observation`] (no oracle fields), acts through
    /// explicit caps, and must reproduce plain PERQ's decisions
    /// exactly.
    Perq {
        /// Controller configuration.
        config: PerqConfig,
    },
}

impl ZooSpec {
    /// The default bandit arm.
    pub fn bandit(seed: u64) -> Self {
        ZooSpec::Bandit {
            seed,
            config: BanditConfig::default(),
        }
    }

    /// The default wrapped-PERQ arm.
    pub fn perq() -> Self {
        ZooSpec::Perq {
            config: PerqConfig::default(),
        }
    }

    /// Display name — what episodes driven by this spec report.
    pub fn name(&self) -> &'static str {
        match self {
            ZooSpec::FairShare => "ZOO-FAIR",
            ZooSpec::Greedy => "ZOO-GREEDY",
            ZooSpec::Bandit { .. } => "ZOO-BANDIT",
            ZooSpec::Perq { .. } => "ZOO-PERQ",
        }
    }

    /// True when building this spec needs a trained node model.
    pub fn needs_model(&self) -> bool {
        matches!(self, ZooSpec::Perq { .. })
    }

    /// The training seed a model-less build would identify with (lets
    /// a campaign pre-train and share models across scenarios).
    pub fn training_seed(&self) -> Option<u64> {
        match self {
            ZooSpec::Perq { config } => Some(config.training_seed),
            _ => None,
        }
    }

    /// Instantiates the agent. `model` supplies the pre-trained node
    /// model for the PERQ arm (pass `None` to train one from
    /// the config's training seed — deterministic, but slow enough
    /// that grids should share pre-trained models instead).
    pub fn build(&self, model: Option<&NodeModel>) -> Box<dyn ZooPolicy> {
        match self {
            ZooSpec::FairShare => Box::new(FairShareAgent),
            ZooSpec::Greedy => Box::new(GreedyAgent),
            ZooSpec::Bandit { seed, config } => Box::new(BanditAgent::new(*seed, config.clone())),
            ZooSpec::Perq { config } => {
                let perq = match model {
                    Some(m) => PerqPolicy::with_model(m.clone(), config.clone()),
                    None => PerqPolicy::new(config.clone()),
                };
                Box::new(PerqZooAgent::new(perq, config.clone()))
            }
        }
    }
}

/// Fair-share as a zoo citizen.
pub struct FairShareAgent;

impl ZooPolicy for FairShareAgent {
    fn name(&self) -> &'static str {
        "ZOO-FAIR"
    }
    fn act(&mut self, _obs: &Observation) -> Action {
        Action::Macro(MacroAction::FairShare)
    }
}

/// Greedy IPS-per-watt as a zoo citizen.
pub struct GreedyAgent;

impl ZooPolicy for GreedyAgent {
    fn name(&self) -> &'static str {
        "ZOO-GREEDY"
    }
    fn act(&mut self, _obs: &Observation) -> Action {
        Action::Macro(MacroAction::GreedyEfficiency)
    }
}

/// The PERQ controller as a zoo citizen. Decisions must be — and are,
/// pinned by test — identical to running `PerqPolicy` directly,
/// because the observation carries every field PERQ reads.
pub struct PerqZooAgent {
    perq: PerqPolicy,
    /// Kept to rebuild per-episode (job ids restart across episodes).
    config: PerqConfig,
    model: NodeModel,
}

impl PerqZooAgent {
    fn new(perq: PerqPolicy, config: PerqConfig) -> Self {
        let model = perq.model().clone();
        PerqZooAgent {
            perq,
            config,
            model,
        }
    }
}

impl ZooPolicy for PerqZooAgent {
    fn name(&self) -> &'static str {
        "ZOO-PERQ"
    }

    /// Rebuilds the simulator-side decision context from the
    /// observation and lets PERQ decide. The oracle slot is zero-filled
    /// by construction ([`Observation::to_job_views`]).
    fn act(&mut self, obs: &Observation) -> Action {
        let views = obs.to_job_views();
        let ctx = PolicyContext {
            time_s: obs.time_s,
            interval_s: obs.interval_s,
            busy_budget_w: obs.busy_budget_w,
            cap_min_w: obs.cap_min_w,
            cap_max_w: obs.cap_max_w,
            total_nodes: obs.total_nodes,
            wp_nodes: obs.wp_nodes,
            queue_depth: obs.queue_depth,
            violation_s: obs.violation_s,
            jobs: &views,
        };
        Action::Caps(
            self.perq
                .assign(&ctx)
                .into_iter()
                .map(|a| a.cap_w)
                .collect(),
        )
    }

    fn job_departed(&mut self, job_id: u64) {
        PowerPolicy::job_departed(&mut self.perq, job_id);
    }

    fn episode_started(&mut self) {
        self.perq = PerqPolicy::with_model(self.model.clone(), self.config.clone());
    }

    fn set_recorder(&mut self, recorder: perq_telemetry::Recorder) {
        PowerPolicy::set_recorder(&mut self.perq, recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_and_model_needs() {
        assert_eq!(ZooSpec::FairShare.name(), "ZOO-FAIR");
        assert_eq!(ZooSpec::Greedy.name(), "ZOO-GREEDY");
        assert_eq!(ZooSpec::bandit(1).name(), "ZOO-BANDIT");
        assert_eq!(ZooSpec::perq().name(), "ZOO-PERQ");
        assert!(!ZooSpec::FairShare.needs_model());
        assert!(ZooSpec::perq().needs_model());
        assert_eq!(
            ZooSpec::perq().training_seed(),
            Some(PerqConfig::default().training_seed)
        );
    }

    #[test]
    fn specs_round_trip_through_serde() {
        for spec in [
            ZooSpec::FairShare,
            ZooSpec::Greedy,
            ZooSpec::bandit(42),
            ZooSpec::perq(),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ZooSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn model_free_agents_build_without_a_model() {
        let mut fair = ZooSpec::FairShare.build(None);
        let mut greedy = ZooSpec::Greedy.build(None);
        let mut bandit = ZooSpec::bandit(9).build(None);
        let obs = Observation {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: 2320.0,
            headroom_w: 100.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 16,
            wp_nodes: 8,
            queue_depth: 0,
            violation_s: 0.0,
            jobs: vec![crate::obs::JobObs {
                id: 0,
                size: 8,
                elapsed_s: 0.0,
                measured_ips: None,
                current_cap_w: 145.0,
                measured_power_w: None,
                is_new: true,
            }],
        };
        for agent in [&mut fair, &mut greedy, &mut bandit] {
            let caps = agent.act(&obs).to_caps(&obs);
            assert_eq!(caps.len(), 1);
        }
    }
}
