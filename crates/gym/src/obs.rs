use perq_sim::PolicyContext;
use serde::{Deserialize, Serialize};

/// What a zoo policy sees about one running job — the observable subset
/// of [`perq_sim::JobView`].
///
/// The oracle field (`remaining_node_hours`) is deliberately absent: a
/// learning agent must not be able to cheat its way into SRN, and the
/// paper's own policy never reads it either. When an agent rebuilds a
/// `JobView` from this (the wrapped-PERQ agent does), the oracle slot
/// is zero-filled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobObs {
    /// Job id (stable across decisions).
    pub id: u64,
    /// Nodes the job occupies.
    pub size: usize,
    /// Seconds since the job started.
    pub elapsed_s: f64,
    /// Job-aggregate IPS over the last interval; `None` when the report
    /// was lost or the job just started.
    pub measured_ips: Option<f64>,
    /// Per-node power cap currently applied, watts.
    pub current_cap_w: f64,
    /// Per-node power actually drawn last interval, watts; `None`
    /// before the first interval completes.
    pub measured_power_w: Option<f64>,
    /// First decision instance since the job started.
    pub is_new: bool,
}

/// One decision instance's observation: everything a zoo policy may
/// act on, as pure serializable data.
///
/// Built by [`Observation::from_ctx`] from the simulator's
/// [`PolicyContext`]; two runs with equal seeds see byte-identical
/// observation streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Control interval, seconds.
    pub interval_s: f64,
    /// Power available to busy nodes this interval, watts.
    pub busy_budget_w: f64,
    /// Budget headroom: busy budget minus the power currently
    /// *committed* by caps (`Σ size · cap`), watts. Negative when caps
    /// over-commit (a feedback policy reclaiming slack).
    pub headroom_w: f64,
    /// Lowest admissible per-node cap, watts.
    pub cap_min_w: f64,
    /// Highest admissible per-node cap (TDP), watts.
    pub cap_max_w: f64,
    /// Nodes in the over-provisioned system.
    pub total_nodes: usize,
    /// Nodes in the worst-case-provisioned system.
    pub wp_nodes: usize,
    /// Jobs waiting in the scheduler queue.
    pub queue_depth: usize,
    /// Cumulative seconds above budget so far this run.
    pub violation_s: f64,
    /// Running jobs, in the simulator's decision order.
    pub jobs: Vec<JobObs>,
}

impl Observation {
    /// Snapshots a decision instance. Pure: no clocks, no randomness.
    pub fn from_ctx(ctx: &PolicyContext<'_>) -> Self {
        let committed: f64 = ctx
            .jobs
            .iter()
            .map(|j| j.size as f64 * j.current_cap_w)
            .sum();
        Observation {
            time_s: ctx.time_s,
            interval_s: ctx.interval_s,
            busy_budget_w: ctx.busy_budget_w,
            headroom_w: ctx.busy_budget_w - committed,
            cap_min_w: ctx.cap_min_w,
            cap_max_w: ctx.cap_max_w,
            total_nodes: ctx.total_nodes,
            wp_nodes: ctx.wp_nodes,
            queue_depth: ctx.queue_depth,
            violation_s: ctx.violation_s,
            jobs: ctx
                .jobs
                .iter()
                .map(|j| JobObs {
                    id: j.id,
                    size: j.size,
                    elapsed_s: j.elapsed_s,
                    measured_ips: j.measured_ips,
                    current_cap_w: j.current_cap_w,
                    measured_power_w: j.measured_power_w,
                    is_new: j.is_new,
                })
                .collect(),
        }
    }

    /// Nodes occupied by running jobs.
    pub fn busy_nodes(&self) -> usize {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// The fair per-node power level, clamped into the cap window —
    /// the same `P_fair` the simulator's fairness metrics reference.
    pub fn fair_cap_w(&self) -> f64 {
        let p = self.cap_max_w * self.wp_nodes as f64 / self.total_nodes.max(1) as f64;
        p.clamp(self.cap_min_w, self.cap_max_w)
    }

    /// Rebuilds the simulator-side job views with the oracle slot
    /// zero-filled — how wrapped `PowerPolicy` citizens (PERQ)
    /// are driven from an observation without leaking future knowledge.
    pub fn to_job_views(&self) -> Vec<perq_sim::JobView> {
        self.jobs
            .iter()
            .map(|j| perq_sim::JobView {
                id: j.id,
                size: j.size,
                elapsed_s: j.elapsed_s,
                measured_ips: j.measured_ips,
                current_cap_w: j.current_cap_w,
                measured_power_w: j.measured_power_w,
                remaining_node_hours: 0.0,
                is_new: j.is_new,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perq_sim::JobView;

    fn ctx(jobs: &[JobView]) -> PolicyContext<'_> {
        PolicyContext {
            time_s: 30.0,
            interval_s: 10.0,
            busy_budget_w: 2320.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 16,
            wp_nodes: 8,
            queue_depth: 3,
            violation_s: 20.0,
            jobs,
        }
    }

    fn job(id: u64, size: usize, cap: f64) -> JobView {
        JobView {
            id,
            size,
            elapsed_s: 10.0,
            measured_ips: Some(size as f64 * 1.5e9),
            current_cap_w: cap,
            measured_power_w: Some(cap * 0.8),
            remaining_node_hours: 7.0,
            is_new: false,
        }
    }

    #[test]
    fn snapshot_carries_headroom_and_drops_oracle() {
        let jobs = vec![job(0, 8, 145.0), job(1, 4, 200.0)];
        let obs = Observation::from_ctx(&ctx(&jobs));
        assert_eq!(obs.queue_depth, 3);
        assert_eq!(obs.violation_s, 20.0);
        assert_eq!(obs.busy_nodes(), 12);
        // 2320 − (8·145 + 4·200) = 360.
        assert!((obs.headroom_w - 360.0).abs() < 1e-9);
        let views = obs.to_job_views();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].remaining_node_hours, 0.0, "oracle must not leak");
        assert_eq!(views[1].measured_power_w, Some(160.0));
    }

    #[test]
    fn fair_cap_matches_context_definition() {
        let jobs = vec![job(0, 8, 145.0)];
        let c = ctx(&jobs);
        let obs = Observation::from_ctx(&c);
        assert_eq!(obs.fair_cap_w(), c.fair_cap_w());
    }
}
