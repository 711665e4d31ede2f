use crate::model::{JobAdapter, NodeModel};
use perq_sim::PolicyContext;
use std::collections::HashMap;

/// The targets the MPC controller tracks during one decision interval
/// (§2.4.1), all in normalized units (per-node IPS as a fraction of the
/// base node rate).
#[derive(Debug, Clone)]
pub struct Targets {
    /// Per-job normalized per-node IPS targets, aligned with the context's
    /// job list: the performance the job would see under the fair power
    /// allocation `P_fair = TDP · N_WP / N_OP`.
    pub job_targets: Vec<f64>,
    /// System throughput target: `T_ratio ·` (predicted aggregate IPS of
    /// the FCFS prefix of jobs a worst-case-provisioned system could run
    /// at TDP), normalized by `N_WP`.
    pub system_target: f64,
    /// Fair per-node cap fraction used for the job targets.
    pub fair_cap_frac: f64,
}

/// PERQ target generator (Fig. 4, §2.4.1).
///
/// From the jobs' perspective the target is the performance under equal
/// power sharing (fairness); from the system's perspective the target is
/// `T_OP = T_ratio · T_WP`, where `T_WP` is the *predicted* throughput of
/// an equivalent worst-case-provisioned system — predicted with the node
/// model, because actually running that system "is infeasible".
#[derive(Debug, Clone)]
pub struct TargetGenerator {
    /// The system-throughput improvement ratio `T_ratio` (paper: values
    /// ≥ 4 all behave the same; the target is intentionally optimistic so
    /// the controller keeps pushing throughput).
    pub improvement_ratio: f64,
}

impl TargetGenerator {
    /// Creates a generator with the given improvement ratio.
    pub fn new(improvement_ratio: f64) -> Self {
        assert!(improvement_ratio > 0.0, "ratio must be positive");
        TargetGenerator { improvement_ratio }
    }

    /// Computes this interval's targets.
    ///
    /// `adapters` must contain an entry per running job (keyed by job id).
    pub fn generate(
        &self,
        model: &NodeModel,
        ctx: &PolicyContext<'_>,
        adapters: &HashMap<u64, JobAdapter>,
    ) -> Targets {
        let listed: Vec<_> = ctx.jobs.iter().map(|j| adapters.get(&j.id)).collect();
        self.generate_for(model, ctx, &listed)
    }

    /// [`TargetGenerator::generate`] for a caller that has already looked
    /// the adapters up: `adapters[i]` belongs to `ctx.jobs[i]`, `None`
    /// where the job has none (it is predicted from the model alone).
    pub fn generate_for(
        &self,
        model: &NodeModel,
        ctx: &PolicyContext<'_>,
        adapters: &[Option<&JobAdapter>],
    ) -> Targets {
        assert_eq!(adapters.len(), ctx.jobs.len(), "one adapter slot per job");
        let fair_cap_frac = ctx.fair_cap_w() / ctx.cap_max_w;
        // A job without an adapter is predicted from the model alone.
        let predict = |i: usize, phi: f64| adapters[i].map_or(phi, |a| a.predict_at(phi));

        // Job-level fairness targets: predicted performance at P_fair.
        let phi_fair = model.curve.eval(fair_cap_frac);
        let job_targets: Vec<f64> = (0..ctx.jobs.len()).map(|i| predict(i, phi_fair)).collect();

        let phi_tdp = model.curve.eval(1.0);
        let system_target = self.system_target(ctx, &mut Vec::new(), |i| predict(i, phi_tdp));
        Targets {
            job_targets,
            system_target,
            fair_cap_frac,
        }
    }

    /// `T_ratio · T_WP / N_WP`, with `T_WP` summed over the FCFS prefix of
    /// the running jobs that fits on `N_WP` nodes, job `i` predicted at
    /// TDP (cap fraction 1.0) by `at_tdp(i)`. `order` is scratch.
    pub(crate) fn system_target(
        &self,
        ctx: &PolicyContext<'_>,
        order: &mut Vec<usize>,
        at_tdp: impl Fn(usize) -> f64,
    ) -> f64 {
        order.clear();
        order.extend(0..ctx.jobs.len());
        // FCFS = arrival = id order, equal ids in list order: what a stable
        // sort by id gives, without its scratch buffer.
        order.sort_unstable_by_key(|&i| (ctx.jobs[i].id, i));
        let mut wp_nodes_left = ctx.wp_nodes as i64;
        let mut t_wp = 0.0;
        for &i in order.iter() {
            let job = &ctx.jobs[i];
            if wp_nodes_left <= 0 {
                break;
            }
            if (job.size as i64) <= wp_nodes_left {
                t_wp += at_tdp(i) * job.size as f64;
                wp_nodes_left -= job.size as i64;
            }
        }
        self.improvement_ratio * t_wp / ctx.wp_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::train_node_model;
    use perq_sim::JobView;

    fn job(id: u64, size: usize) -> JobView {
        JobView {
            id,
            size,
            elapsed_s: 100.0,
            measured_ips: Some(1e9),
            current_cap_w: 145.0,
            measured_power_w: Some(140.0),
            remaining_node_hours: 1.0,
            is_new: false,
        }
    }

    fn ctx<'a>(jobs: &'a [JobView], total: usize, wp: usize) -> PolicyContext<'a> {
        PolicyContext {
            time_s: 0.0,
            interval_s: 10.0,
            busy_budget_w: wp as f64 * 290.0,
            cap_min_w: 90.0,
            cap_max_w: 290.0,
            total_nodes: total,
            wp_nodes: wp,
            queue_depth: 0,
            violation_s: 0.0,
            jobs,
        }
    }

    #[test]
    fn fair_cap_reflects_overprovisioning() {
        let model = train_node_model(1).0;
        let jobs = vec![job(0, 8)];
        let c = ctx(&jobs, 32, 16);
        let t = TargetGenerator::new(4.0).generate(&model, &c, &HashMap::new());
        assert!((t.fair_cap_frac - 0.5).abs() < 1e-9);
        // At f=1 the fair cap is TDP.
        let c1 = ctx(&jobs, 16, 16);
        let t1 = TargetGenerator::new(4.0).generate(&model, &c1, &HashMap::new());
        assert!((t1.fair_cap_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn job_targets_fall_with_overprovisioning() {
        // Tighter fair power ⇒ lower fairness target.
        let model = train_node_model(1).0;
        let jobs = vec![job(0, 8)];
        let t_f1 = TargetGenerator::new(4.0).generate(&model, &ctx(&jobs, 16, 16), &HashMap::new());
        let t_f2 = TargetGenerator::new(4.0).generate(&model, &ctx(&jobs, 32, 16), &HashMap::new());
        assert!(t_f2.job_targets[0] < t_f1.job_targets[0]);
    }

    #[test]
    fn system_target_counts_only_wp_prefix() {
        let model = train_node_model(1).0;
        // Two 12-node jobs on a 16-node WP system: only the first fits.
        let jobs = vec![job(0, 12), job(1, 12)];
        let c = ctx(&jobs, 32, 16);
        let t = TargetGenerator::new(1.0).generate(&model, &c, &HashMap::new());
        let per_node = model.steady_state(1.0);
        let expect = per_node * 12.0 / 16.0;
        assert!((t.system_target - expect).abs() < 1e-9);
    }

    #[test]
    fn ratio_scales_system_target() {
        let model = train_node_model(1).0;
        let jobs = vec![job(0, 8)];
        let c = ctx(&jobs, 32, 16);
        let t1 = TargetGenerator::new(1.0).generate(&model, &c, &HashMap::new());
        let t4 = TargetGenerator::new(4.0).generate(&model, &c, &HashMap::new());
        assert!((t4.system_target - 4.0 * t1.system_target).abs() < 1e-9);
    }

    #[test]
    fn adapters_refine_targets() {
        let model = train_node_model(1).0;
        let jobs = vec![job(0, 8)];
        let c = ctx(&jobs, 32, 16);
        // An adapter that learned a flat (insensitive) job: its fairness
        // target stays near its actual (high) performance level.
        let mut adapters = HashMap::new();
        let mut a = JobAdapter::new(&model, 0.5);
        for k in 0..100 {
            let cap = if k % 2 == 0 { 0.45 } else { 0.75 };
            a.update(&model, cap, 0.95);
        }
        adapters.insert(0, a);
        let t = TargetGenerator::new(4.0).generate(&model, &c, &adapters);
        assert!(
            t.job_targets[0] > 0.85,
            "flat job's fair target {}",
            t.job_targets[0]
        );
    }
}
