//! The policy-zoo ablation: the four zoo citizens crossed with the five
//! evaluation regimes, as one deterministic campaign grid.
//!
//! The regimes span the axes the paper's evaluation varies one at a
//! time — machine scale, queue pressure, workload realism, budget
//! shape, telemetry trust:
//!
//! 1. `sparse-mira` — Mira-calibrated jobs on the large machine with a
//!    draining queue (the sparse regime, where most intervals are
//!    idle and skipped).
//! 2. `dense-tardis` — the saturated paper queue on the small dense
//!    testbed.
//! 3. `swf-replay` — a real SWF log replayed with its arrival gaps
//!    (falls back to a draining synthetic stream when no log is given).
//! 4. `carbon-diurnal` — the saturated queue under a time-varying
//!    (carbon/price-shaped) [`BudgetSchedule`].
//! 5. `adversarial-telemetry` — the saturated queue with lying sensors
//!    ([`FaultRates::adversarial_telemetry`]: dropouts, stale readings,
//!    corrupted power).
//!
//! Determinism: the grid is pure data, every scenario is seeded, and
//! [`crate::run_campaign`] merges telemetry in scenario-index order —
//! so the rendered table and its JSON form are byte-identical on every
//! re-run at any thread count (pinned by `tests/zoo_ablation.rs`).

use crate::{FaultSpec, PolicySpec, Scenario, ScenarioOutcome, SwfReplayOptions, WorkloadSpec};
use perq_gym::ZooSpec;
use perq_sim::{BudgetSchedule, FaultRates, JobOutcome, SystemModel};
use serde::{Deserialize, Serialize};

/// The zoo arms the ablation compares, in table order.
pub fn ablation_policies(seed: u64) -> Vec<PolicySpec> {
    vec![
        PolicySpec::zoo(ZooSpec::FairShare),
        PolicySpec::zoo(ZooSpec::Greedy),
        PolicySpec::zoo(ZooSpec::bandit(seed)),
        PolicySpec::zoo(ZooSpec::perq()),
    ]
}

/// Builds the full regimes × policies grid (regime-major order, so
/// scenario index `r * policies + p` is regime `r` under policy `p`).
///
/// `swf_path` selects the log for the replay regime; `None` substitutes
/// a draining synthetic stream so the grid stays runnable without
/// fixtures on disk.
pub fn zoo_ablation_grid(seed: u64, swf_path: Option<&str>) -> Vec<Scenario> {
    let tardis = SystemModel::tardis();
    let mira = SystemModel::mira();
    // Tardis at f = 2: budget = 8 · 290 W. The diurnal curve dips to
    // 80% of it off-peak — well above the idle floor.
    let budget_w = 8.0 * 290.0;
    let mut grid = Vec::new();
    for policy in ablation_policies(seed) {
        let mut s = Scenario::new(
            "sparse-mira",
            mira.clone(),
            1.5,
            900.0,
            seed,
            policy.clone(),
        );
        s.workload = WorkloadSpec::SyntheticLight { jobs: 48 };
        grid.push(s);
    }
    for policy in ablation_policies(seed) {
        grid.push(Scenario::new(
            "dense-tardis",
            tardis.clone(),
            2.0,
            1800.0,
            seed,
            policy.clone(),
        ));
    }
    for policy in ablation_policies(seed) {
        let mut s = Scenario::new(
            "swf-replay",
            tardis.clone(),
            2.0,
            1800.0,
            seed,
            policy.clone(),
        );
        match swf_path {
            Some(path) => {
                let options = SwfReplayOptions {
                    honor_arrivals: true,
                    ..SwfReplayOptions::default()
                };
                s = s.with_swf(path, options);
            }
            None => s.workload = WorkloadSpec::SyntheticLight { jobs: 24 },
        }
        grid.push(s);
    }
    for policy in ablation_policies(seed) {
        let s = Scenario::new(
            "carbon-diurnal",
            tardis.clone(),
            2.0,
            1800.0,
            seed,
            policy.clone(),
        )
        .with_budget_schedule(BudgetSchedule::diurnal(budget_w, 0.8, 1.0, 450.0, 1800.0));
        grid.push(s);
    }
    for policy in ablation_policies(seed) {
        let mut s = Scenario::new(
            "adversarial-telemetry",
            tardis.clone(),
            2.0,
            1800.0,
            seed,
            policy.clone(),
        );
        s.faults = Some(FaultSpec::Generated {
            seed: seed ^ 0xADCE,
            rates: FaultRates::adversarial_telemetry(),
        });
        grid.push(s);
    }
    grid
}

/// One policy × regime cell of the rendered ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationCell {
    /// Regime name (the scenario's name).
    pub regime: String,
    /// Policy display name (`ZOO-*`).
    pub policy: String,
    /// Completed jobs — the paper's system-throughput metric.
    pub completed: usize,
    /// Simulated seconds above the power budget.
    pub violation_s: f64,
    /// Mean runtime of completed jobs, seconds (0 when none finished).
    pub mean_runtime_s: f64,
}

/// The rendered ablation: one cell per scenario, in grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationTable {
    /// Cells, regime-major like the grid.
    pub cells: Vec<AblationCell>,
}

/// Folds campaign outcomes into the ablation table. Order-preserving
/// and pure, so equal outcome sets render byte-identical tables.
pub fn ablation_table(outcomes: &[ScenarioOutcome]) -> AblationTable {
    let cells = outcomes
        .iter()
        .map(|o| {
            let completed: Vec<_> = o
                .result
                .records
                .iter()
                .filter(|r| r.outcome == JobOutcome::Completed)
                .collect();
            let mean_runtime_s = if completed.is_empty() {
                0.0
            } else {
                completed.iter().map(|r| r.runtime_s()).sum::<f64>() / completed.len() as f64
            };
            AblationCell {
                regime: o.scenario.name.clone(),
                policy: o.result.policy.clone(),
                completed: completed.len(),
                violation_s: o.result.budget_violation_s,
                mean_runtime_s,
            }
        })
        .collect();
    AblationTable { cells }
}

impl AblationTable {
    /// Renders the fixed-width text table (regimes as row groups).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:<12} {:>9} {:>12} {:>14}\n",
            "regime", "policy", "completed", "violation_s", "mean_runtime_s"
        ));
        out.push_str(&"-".repeat(73));
        out.push('\n');
        for c in &self.cells {
            out.push_str(&format!(
                "{:<22} {:<12} {:>9} {:>12.1} {:>14.1}\n",
                c.regime, c.policy, c.completed, c.violation_s, c.mean_runtime_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_four_by_five_and_regime_major() {
        let grid = zoo_ablation_grid(7, None);
        assert_eq!(grid.len(), 20);
        let names: Vec<_> = grid.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0..4], ["sparse-mira"; 4]);
        assert_eq!(names[16..20], ["adversarial-telemetry"; 4]);
        let policies: Vec<_> = grid[0..4].iter().map(|s| s.policy.name()).collect();
        assert_eq!(
            policies,
            ["ZOO-FAIR", "ZOO-GREEDY", "ZOO-BANDIT", "ZOO-PERQ"]
        );
        // The PERQ arms share one model spec → one training run.
        let specs: Vec<_> = grid
            .iter()
            .filter_map(|s| match &s.policy {
                PolicySpec::Zoo { model, .. } => model.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(specs.len(), 5, "one model-backed arm per regime");
        assert!(specs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn swf_path_lands_on_the_replay_regime_only() {
        let grid = zoo_ablation_grid(7, Some("some/log.swf"));
        let swf_count = grid
            .iter()
            .filter(|s| matches!(s.workload, WorkloadSpec::Swf { .. }))
            .count();
        assert_eq!(swf_count, 4);
        assert!(grid
            .iter()
            .filter(|s| matches!(s.workload, WorkloadSpec::Swf { .. }))
            .all(|s| s.name == "swf-replay"));
    }
}
