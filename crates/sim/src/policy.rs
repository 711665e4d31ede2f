/// Per-job information a power-allocation policy sees at a decision
/// instance.
///
/// Everything here is observable telemetry except `remaining_node_hours`,
/// which is *oracle* information (real systems do not know job completion
/// times). It is provided because the paper's SRN baseline deliberately
/// uses future knowledge "in order to demonstrate that PERQ provides
/// comparable throughput improvement to a policy which may have prior
/// knowledge"; PERQ itself must not read it.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id (stable across intervals).
    pub id: u64,
    /// Number of nodes the job occupies.
    pub size: usize,
    /// Seconds since the job started.
    pub elapsed_s: f64,
    /// Job-aggregate IPS measured over the last interval (the slowest
    /// rank's per-node IPS times the node count). `None` when the report
    /// was lost (failure injection) or the job just started.
    pub measured_ips: Option<f64>,
    /// Per-node power cap currently applied, watts.
    pub current_cap_w: f64,
    /// Average per-node power *consumed* over the last interval, watts
    /// (RAPL meter reading). `None` before the first interval completes.
    /// This is what lets a feedback policy discover that a job draws less
    /// than its cap and reclaim the headroom.
    pub measured_power_w: Option<f64>,
    /// Oracle: remaining work in node-hours at TDP speed. Only the SRN
    /// baseline may use this.
    pub remaining_node_hours: f64,
    /// True on the first decision instance after the job started.
    pub is_new: bool,
}

/// Cluster-level information available at a decision instance.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Control interval length, seconds.
    pub interval_s: f64,
    /// Power available to *busy* nodes this interval: the system budget
    /// minus the idle draw of idle nodes, watts.
    pub busy_budget_w: f64,
    /// Lowest admissible per-node cap, watts.
    pub cap_min_w: f64,
    /// Highest admissible per-node cap (TDP), watts.
    pub cap_max_w: f64,
    /// Number of nodes in the over-provisioned system (`N_OP`).
    pub total_nodes: usize,
    /// Number of nodes in the worst-case-provisioned system (`N_WP`).
    pub wp_nodes: usize,
    /// Jobs waiting in the scheduler queue (released but not started).
    /// Zero in contexts without a batch queue (the live control plane).
    pub queue_depth: usize,
    /// Cumulative simulated time the system has spent above its power
    /// budget so far this run, seconds. Grows monotonically; a policy
    /// (or a learning agent shaping rewards) can difference successive
    /// values to detect fresh violations.
    pub violation_s: f64,
    /// Currently running jobs.
    pub jobs: &'a [JobView],
}

impl PolicyContext<'_> {
    /// Sum of nodes occupied by running jobs.
    pub fn busy_nodes(&self) -> usize {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// The fair per-node power level `P_fair = TDP · N_WP / N_OP`
    /// (§2.4.1), clamped into the admissible cap window.
    pub fn fair_cap_w(&self) -> f64 {
        let p = self.cap_max_w * self.wp_nodes as f64 / self.total_nodes.max(1) as f64;
        p.clamp(self.cap_min_w, self.cap_max_w)
    }
}

/// A policy's decision for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAssignment {
    /// Per-node power cap for every node of the job, watts.
    pub cap_w: f64,
    /// Job-level IPS target, published for tracing/analysis when the
    /// policy computes one (PERQ does).
    pub target_ips: Option<f64>,
}

impl PowerAssignment {
    /// Assignment with no published target.
    pub fn cap(cap_w: f64) -> Self {
        PowerAssignment {
            cap_w,
            target_ips: None,
        }
    }
}

/// A power-allocation policy invoked once per control interval.
///
/// Implementations must return exactly one assignment per entry of
/// `ctx.jobs`, in the same order. The system budget bounds *consumed*
/// power; caps are the enforcement mechanism. A conservative policy keeps
/// `Σ size·cap ≤ ctx.busy_budget_w` (then consumption can never exceed
/// the budget); a feedback policy may over-commit caps on jobs it has
/// observed drawing less, and is responsible for keeping predicted
/// consumption within budget — the simulator records any interval whose
/// consumption exceeds it.
pub trait PowerPolicy {
    /// Short policy name for reports ("FOP", "PERQ", ...).
    fn name(&self) -> &str;

    /// Computes per-job power caps for the next interval.
    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment>;

    /// Notifies the policy that a job left the system (completed or
    /// crashed) so it can drop per-job state. Default: no-op.
    fn job_departed(&mut self, _job_id: u64) {}

    /// Attaches a telemetry recorder so the policy can report its own
    /// metrics (solver iterations, gate rejections, ...). Default: the
    /// policy records nothing.
    fn set_recorder(&mut self, _recorder: perq_telemetry::Recorder) {}

    /// Arms (or clears) a wall-clock deadline for subsequent
    /// [`PowerPolicy::assign`] calls. Control loops that batch readings
    /// and decide on a fixed tick (`perq-serve`) set `tick_start +
    /// budget` each tick; an iterative policy then degrades gracefully
    /// to its best solution so far instead of overrunning the tick.
    /// Default: ignored — closed-form policies always finish instantly.
    fn set_decide_deadline(&mut self, _deadline: Option<std::time::Instant>) {}

    /// Stable label of the numeric profile this policy decides with, used
    /// to split decide-latency telemetry by precision/layout
    /// (`f64_aos`, `f64_soa`, `mixed_soa`). Closed-form
    /// policies compute in plain `f64`, so the default is the reference
    /// label.
    fn solver_profile_label(&self) -> &'static str {
        "f64_aos"
    }
}

/// The fairness-oriented policy (FOP): every busy node gets an equal share
/// of the busy budget. By construction it is the fairness reference the
/// degradation metrics compare against.
#[derive(Debug, Clone, Default)]
pub struct FairPolicy {
    _private: (),
}

impl FairPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FairPolicy::default()
    }
}

impl PowerPolicy for FairPolicy {
    fn name(&self) -> &str {
        "FOP"
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        let busy = ctx.busy_nodes();
        if busy == 0 {
            return Vec::new();
        }
        let share = (ctx.busy_budget_w / busy as f64).clamp(ctx.cap_min_w, ctx.cap_max_w);
        ctx.jobs
            .iter()
            .map(|_| PowerAssignment::cap(share))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(jobs: &[JobView]) -> PolicyContext<'_> {
        PolicyContext {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: 290.0 * 8.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: 16,
            wp_nodes: 8,
            queue_depth: 0,
            violation_s: 0.0,
            jobs,
        }
    }

    fn job(id: u64, size: usize) -> JobView {
        JobView {
            id,
            size,
            elapsed_s: 0.0,
            measured_ips: None,
            current_cap_w: 290.0,
            measured_power_w: None,
            remaining_node_hours: 1.0,
            is_new: true,
        }
    }

    #[test]
    fn fair_policy_splits_budget_evenly() {
        let jobs = vec![job(0, 8), job(1, 8)];
        let ctx = ctx_with(&jobs);
        let out = FairPolicy::new().assign(&ctx);
        assert_eq!(out.len(), 2);
        // 2320 W over 16 nodes = 145 W/node.
        for a in &out {
            assert!((a.cap_w - 145.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fair_policy_clamps_to_window() {
        // Few busy nodes: share would exceed TDP.
        let jobs = vec![job(0, 2)];
        let ctx = ctx_with(&jobs);
        let out = FairPolicy::new().assign(&ctx);
        assert_eq!(out[0].cap_w, 290.0);
    }

    #[test]
    fn fair_cap_definition() {
        let jobs: Vec<JobView> = Vec::new();
        let ctx = ctx_with(&jobs);
        // TDP · 8/16 = 145.
        assert!((ctx.fair_cap_w() - 145.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_no_assignments() {
        let jobs: Vec<JobView> = Vec::new();
        let ctx = ctx_with(&jobs);
        assert!(FairPolicy::new().assign(&ctx).is_empty());
    }
}
