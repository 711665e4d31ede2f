//! Time-varying power budgets.
//!
//! The paper evaluates a *fixed* site budget (`N_WP · TDP`), but real
//! over-provisioned sites increasingly buy power on markets where the
//! admissible draw follows a price or carbon-intensity curve (ROADMAP
//! open item: carbon/price-aware budget schedules). A
//! [`BudgetSchedule`] is a piecewise-constant map from simulated time
//! to the system budget in watts: the budget in force over
//! `[t_k, t_{k+1})` is the value attached to `t_k`. Schedules are pure
//! data (serde round-trip, `PartialEq`), so campaign scenarios carry
//! them like any other field and two runs with equal schedules are
//! byte-identical.
//!
//! The schedule replaces `ClusterConfig::budget_w()` wherever the
//! simulator consults the budget — the busy-budget handed to policies,
//! the violation check, and the `perq_sim_budget_w` gauge — while a
//! hierarchical coordinator's per-epoch override still takes priority
//! (an enclave's grant already reflects whatever schedule the
//! coordinator sees). Every level of the schedule must at least idle
//! the whole machine, the same invariant `ClusterConfig::validate`
//! enforces on the flat budget, so synthesized idle intervals can never
//! violate and the bulk idle skip stays byte-identical to the stepper.

use serde::{Deserialize, Serialize};

/// A piecewise-constant budget curve: `(t_s, budget_w)` breakpoints
/// sorted by time, with the first breakpoint at `t = 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSchedule {
    points: Vec<(f64, f64)>,
}

impl BudgetSchedule {
    /// A schedule from explicit breakpoints. Breakpoints must start at
    /// `t = 0`, be strictly increasing in time, and carry finite
    /// positive budgets.
    pub fn piecewise(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "schedule needs at least one level");
        assert!(
            points[0].0 == 0.0,
            "first breakpoint must be at t=0, got {}",
            points[0].0
        );
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "breakpoints must be strictly increasing: {} then {}",
                w[0].0,
                w[1].0
            );
        }
        for &(t, b) in &points {
            assert!(
                b.is_finite() && b > 0.0,
                "budget at t={t} must be finite and positive, got {b}"
            );
        }
        BudgetSchedule { points }
    }

    /// A flat schedule (degenerates to the fixed budget — useful as the
    /// identity arm of schedule ablations).
    pub fn flat(budget_w: f64) -> Self {
        Self::piecewise(vec![(0.0, budget_w)])
    }

    /// A diurnal price/carbon curve: the budget steps between
    /// `base_w · low_frac` (expensive/dirty hours) and
    /// `base_w · high_frac` (cheap/clean hours), alternating every
    /// `period_s`, starting high. This is the shape the carbon-varying
    /// evaluation regime and `examples/power_trading.rs` use: power is
    /// abundant when the grid is green and scarce when it is not.
    pub fn diurnal(
        base_w: f64,
        low_frac: f64,
        high_frac: f64,
        period_s: f64,
        duration_s: f64,
    ) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        assert!(
            0.0 < low_frac && low_frac <= high_frac,
            "need 0 < low_frac <= high_frac"
        );
        let mut points = Vec::new();
        let mut t = 0.0;
        let mut high = true;
        while t < duration_s {
            let frac = if high { high_frac } else { low_frac };
            points.push((t, base_w * frac));
            t += period_s;
            high = !high;
        }
        Self::piecewise(points)
    }

    /// The budget in force at simulated time `t_s`, watts. Times before
    /// the first breakpoint (there are none for well-formed schedules)
    /// use the first level; times past the last breakpoint hold its
    /// level forever.
    pub fn budget_at(&self, t_s: f64) -> f64 {
        let mut budget = self.points[0].1;
        for &(t, b) in &self.points {
            if t <= t_s {
                budget = b;
            } else {
                break;
            }
        }
        budget
    }

    /// The lowest level anywhere on the schedule — what the simulator
    /// validates against the machine's idle floor.
    pub fn min_budget_w(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, b)| b)
            .fold(f64::INFINITY, f64::min)
    }

    /// The breakpoints, sorted by time.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piecewise_lookup_is_right_continuous() {
        let s = BudgetSchedule::piecewise(vec![(0.0, 100.0), (60.0, 50.0), (120.0, 80.0)]);
        assert_eq!(s.budget_at(0.0), 100.0);
        assert_eq!(s.budget_at(59.9), 100.0);
        assert_eq!(s.budget_at(60.0), 50.0);
        assert_eq!(s.budget_at(119.0), 50.0);
        assert_eq!(s.budget_at(120.0), 80.0);
        assert_eq!(s.budget_at(1e9), 80.0);
        assert_eq!(s.min_budget_w(), 50.0);
    }

    #[test]
    fn flat_schedule_is_constant() {
        let s = BudgetSchedule::flat(2320.0);
        assert_eq!(s.budget_at(0.0), 2320.0);
        assert_eq!(s.budget_at(12345.6), 2320.0);
        assert_eq!(s.min_budget_w(), 2320.0);
    }

    #[test]
    fn diurnal_alternates_levels() {
        let s = BudgetSchedule::diurnal(1000.0, 0.8, 1.1, 600.0, 1800.0);
        assert_eq!(s.points().len(), 3);
        assert!((s.budget_at(0.0) - 1100.0).abs() < 1e-9);
        assert!((s.budget_at(600.0) - 800.0).abs() < 1e-9);
        assert!((s.budget_at(1200.0) - 1100.0).abs() < 1e-9);
        assert!((s.min_budget_w() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_round_trips_through_serde() {
        let s = BudgetSchedule::diurnal(2320.0, 0.8, 1.05, 300.0, 900.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: BudgetSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_breakpoints_rejected() {
        BudgetSchedule::piecewise(vec![(0.0, 10.0), (5.0, 20.0), (5.0, 30.0)]);
    }

    #[test]
    #[should_panic(expected = "first breakpoint")]
    fn missing_origin_rejected() {
        BudgetSchedule::piecewise(vec![(10.0, 10.0)]);
    }
}
