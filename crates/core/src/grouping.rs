//! Grouped (hierarchical) MPC decisions for very large job counts.
//!
//! §3 of the paper notes that "increasing the number of concurrently
//! running jobs in the order of 10,000 can prohibitively increase the MPC
//! controller decision making time" and lists the remedies: hierarchical
//! decision making and "creating groups of jobs with similar
//! characteristics". This module implements that extension: jobs are
//! partitioned into at most `max_groups` clusters of similar control
//! state (charged/slack, sensitivity, target deficit), one aggregate
//! pseudo-job is built per cluster (node counts summed, everything else
//! size-weighted), the ordinary QP is solved over the pseudo-jobs, and
//! every member inherits its group's cap.
//!
//! The QP cost is quadratic in `N_J · M` variables, so collapsing 10,000
//! jobs onto ~64 groups turns an intractable dense solve into a
//! sub-millisecond one while preserving the allocation structure — jobs
//! in a group were going to receive nearly identical caps anyway, because
//! the optimizer equalizes marginal value across jobs and the grouping
//! key *is* the marginal-value structure.

use crate::mpc::{MpcController, MpcDecision, MpcInput, MpcJobState};

/// Partitions job indices into at most `max_groups` clusters of similar
/// control state.
///
/// The key is hierarchical: charged and slack jobs never share a group
/// (they face different budget charging); within each class, jobs are
/// ordered by sensitivity (`gain · curve_slope`) and then by target
/// deficit, equal keys in job order, and split into contiguous runs.
pub fn group_jobs(jobs: &[MpcJobState], max_groups: usize) -> Vec<Vec<usize>> {
    let mut scratch = GroupScratch::default();
    scratch.regroup(jobs, max_groups);
    scratch.groups
}

/// A job's sort key with its index: a total order, so there is one
/// sorted sequence, whatever order the sort starts from and stable or not.
type Keyed = ((f64, f64), usize);

/// The grouped decide's working set, kept by the controller from one
/// decision to the next.
#[derive(Debug, Default)]
pub(crate) struct GroupScratch {
    /// Every job index, charged class then slack class, each as last
    /// sorted: the order the next decision starts its sort from.
    order: Vec<usize>,
    charged: Vec<Keyed>,
    slack: Vec<Keyed>,
    groups: Vec<Vec<usize>>,
    pseudo: Vec<MpcJobState>,
}

impl GroupScratch {
    /// [`group_jobs`] into `self.groups`, sorting from last decision's
    /// order: closer to this one's than job order is, though the dither
    /// moves most keys every interval (DESIGN §12 has the numbers).
    fn regroup(&mut self, jobs: &[MpcJobState], max_groups: usize) {
        assert!(max_groups >= 2, "need at least one group per charge class");
        if self.order.len() != jobs.len() {
            self.order.clear();
            self.order.extend(0..jobs.len());
        }
        self.charged.clear();
        self.slack.clear();
        // Each job's sort key is computed once, here, not once per comparison.
        for &i in &self.order {
            let j = &jobs[i];
            let key = (
                j.gain * j.curve_slope,
                j.target - j.free_response.first().copied().unwrap_or(0.0),
            );
            if j.charged {
                self.charged.push((key, i));
            } else {
                self.slack.push((key, i));
            }
        }
        // Split the group budget proportionally to class population, at least
        // one group for any non-empty class.
        let (charged, slack) = (self.charged.len(), self.slack.len());
        let charged_groups = if charged == 0 {
            0
        } else {
            ((max_groups * charged) / jobs.len()).clamp(1, max_groups - usize::from(slack > 0))
        };
        let slack_groups = (max_groups - charged_groups).max(1);

        self.order.clear();
        let mut used = 0;
        for (keyed, n_groups) in [
            (&mut self.charged, charged_groups),
            (&mut self.slack, slack_groups),
        ] {
            if keyed.is_empty() {
                continue;
            }
            keyed.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite control state"));
            self.order.extend(keyed.iter().map(|&(_, i)| i));
            let n_groups = n_groups.min(keyed.len()).max(1);
            for block in keyed.chunks(keyed.len().div_ceil(n_groups)) {
                if used == self.groups.len() {
                    self.groups.push(Vec::new());
                }
                let group = &mut self.groups[used];
                group.clear();
                group.extend(block.iter().map(|&(_, i)| i));
                used += 1;
            }
        }
        self.groups.truncate(used);
    }
}

/// Overwrites `out` with the size-weighted aggregate pseudo-job of a group.
fn aggregate_into(jobs: &[MpcJobState], members: &[usize], out: &mut MpcJobState) {
    let total_size: usize = members.iter().map(|&i| jobs[i].size).sum();
    let w = |i: usize| jobs[i].size as f64 / total_size.max(1) as f64;
    let horizon = jobs[members[0]].free_response.len();
    let mut free = std::mem::take(&mut out.free_response);
    free.clear();
    free.resize(horizon, 0.0);
    let mut target = 0.0;
    let mut cap = 0.0;
    let mut gain = 0.0;
    let mut curve_value = 0.0;
    let mut curve_slope = 0.0;
    let mut bias = 0.0;
    for &i in members {
        let wi = w(i);
        target += wi * jobs[i].target;
        cap += wi * jobs[i].current_cap_frac;
        gain += wi * jobs[i].gain;
        curve_value += wi * jobs[i].curve_value;
        curve_slope += wi * jobs[i].curve_slope;
        bias += wi * jobs[i].bias;
        for (f, &v) in free.iter_mut().zip(jobs[i].free_response.iter()) {
            *f += wi * v;
        }
    }
    *out = MpcJobState {
        size: total_size,
        target,
        current_cap_frac: cap,
        gain,
        free_response: free,
        curve_value,
        curve_slope,
        bias,
        charged: jobs[members[0]].charged,
    };
}

impl MpcController {
    /// Like [`MpcController::decide`], but collapses the jobs onto at most
    /// `max_groups` aggregate pseudo-jobs before solving, then expands the
    /// group caps back to every member.
    ///
    /// With `jobs.len() <= max_groups` this is exactly `decide`. Use for
    /// very large concurrent-job counts (the paper's 10,000-job scaling
    /// concern); see `grouping` module docs for the clustering key.
    pub fn decide_grouped(&self, input: &MpcInput<'_>, max_groups: usize) -> Option<MpcDecision> {
        let mut decision = MpcDecision::default();
        self.decide_grouped_into(input, max_groups, &mut decision)
            .then_some(decision)
    }

    /// [`MpcController::decide_grouped`] written over `out`, whose vectors
    /// a caller deciding every interval hands back; `false` (and `out`
    /// untouched) when there are no jobs.
    pub(crate) fn decide_grouped_into(
        &self,
        input: &MpcInput<'_>,
        max_groups: usize,
        out: &mut MpcDecision,
    ) -> bool {
        if input.jobs.len() <= max_groups.max(2) {
            return self.decide(input).map(|d| *out = d).is_some();
        }
        let mut scratch = self.grouping.lock().expect("grouping scratch poisoned");
        scratch.regroup(input.jobs, max_groups.max(2));
        let GroupScratch { groups, pseudo, .. } = &mut *scratch;
        pseudo.resize_with(groups.len(), MpcJobState::default);
        for (members, out) in groups.iter().zip(pseudo.iter_mut()) {
            aggregate_into(input.jobs, members, out);
        }
        let grouped_input = MpcInput {
            jobs: pseudo,
            system_target: input.system_target,
            budget_nodes: input.budget_nodes,
            cap_min_frac: input.cap_min_frac,
            wp_nodes: input.wp_nodes,
        };
        let Some(group_decision) = self.decide(&grouped_input) else {
            return false;
        };

        let m = self.settings().horizon;
        let n = input.jobs.len();
        // Every index is in exactly one group, so every slot is written.
        out.caps_frac.resize(n, 0.0);
        out.predicted_ips.resize(n, 0.0);
        out.x.resize(n * m, 0.0);
        for (g, members) in groups.iter().enumerate() {
            for &i in members {
                out.caps_frac[i] = group_decision.caps_frac[g];
                out.predicted_ips[i] = group_decision.predicted_ips[g];
                // Expand the group trajectory to every member so the
                // result stays usable as a per-job warm start.
                out.x[i * m..(i + 1) * m].copy_from_slice(&group_decision.x[g * m..(g + 1) * m]);
            }
        }
        out.qp_iterations = group_decision.qp_iterations;
        out.converged = group_decision.converged;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::train_node_model;
    use crate::mpc::MpcSettings;
    use perq_sysid::KalmanObserver;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    fn make_jobs(
        ctrl: &MpcController,
        model: &crate::NodeModel,
        n: usize,
        seed: u64,
    ) -> Vec<MpcJobState> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cap = rng.gen_range(0.32..1.0);
                let gain = rng.gen_range(0.1..2.0);
                let mut obs = KalmanObserver::new(model.ss.clone(), 0.05, 1e-3);
                obs.seed_steady_state(model.curve.eval(cap), model.curve.eval(cap));
                MpcJobState {
                    size: rng.gen_range(1..64),
                    target: rng.gen_range(0.5..1.0),
                    current_cap_frac: cap,
                    gain,
                    free_response: ctrl.free_response(model, obs.state()),
                    curve_value: model.curve.eval(cap),
                    curve_slope: model.curve.secant_slope(cap, 0.10),
                    bias: 0.0,
                    charged: rng.gen_bool(0.7),
                }
            })
            .collect()
    }

    fn input<'a>(jobs: &'a [MpcJobState]) -> MpcInput<'a> {
        let budget: f64 = jobs
            .iter()
            .filter(|j| j.charged)
            .map(|j| j.size as f64)
            .sum::<f64>()
            * 0.55;
        MpcInput {
            jobs,
            system_target: 3.0,
            budget_nodes: budget,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes: 1000.0,
        }
    }

    #[test]
    fn grouping_partitions_all_jobs_once() {
        let (model, _) = train_node_model(5);
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let jobs = make_jobs(&ctrl, &model, 200, 1);
        let groups = group_jobs(&jobs, 16);
        assert!(groups.len() <= 16 + 1, "{} groups", groups.len());
        let mut seen = vec![false; jobs.len()];
        for g in &groups {
            for &i in g {
                assert!(!seen[i], "job {i} in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some job ungrouped");
        // Charge classes never mix.
        for g in &groups {
            let charged = jobs[g[0]].charged;
            assert!(g.iter().all(|&i| jobs[i].charged == charged));
        }
    }

    /// `group_jobs` as it was before the keys were cached: the comparator
    /// recomputes both jobs' keys on every call.
    fn group_jobs_by_comparator(jobs: &[MpcJobState], max_groups: usize) -> Vec<Vec<usize>> {
        let (charged, slack): (Vec<usize>, Vec<usize>) =
            (0..jobs.len()).partition(|&i| jobs[i].charged);
        let total = jobs.len().max(1);
        let charged_groups = if charged.is_empty() {
            0
        } else {
            ((max_groups * charged.len()) / total)
                .clamp(1, max_groups - usize::from(!slack.is_empty()))
        };
        let slack_groups = if slack.is_empty() {
            0
        } else {
            (max_groups - charged_groups).max(1)
        };
        let mut groups = Vec::new();
        for (mut sorted, n_groups) in [(charged, charged_groups), (slack, slack_groups)] {
            if sorted.is_empty() {
                continue;
            }
            sorted.sort_by(|&a, &b| {
                let key = |i: usize| {
                    let j = &jobs[i];
                    (
                        j.gain * j.curve_slope,
                        j.target - j.free_response.first().copied().unwrap_or(0.0),
                    )
                };
                key(a).partial_cmp(&key(b)).expect("finite control state")
            });
            let n_groups = n_groups.min(sorted.len()).max(1);
            for block in sorted.chunks(sorted.len().div_ceil(n_groups)) {
                groups.push(block.to_vec());
            }
        }
        groups
    }

    proptest::proptest! {
        /// Few distinct values per field, so keys repeat and job order
        /// decides; `class` 0 and 1 leave one charge class empty;
        /// `max_groups` runs past the job count. One scratch lives through
        /// all the ticks, so each regroup starts from the order the last
        /// one left: with `steady` the job count holds and only keys and
        /// charge classes move, otherwise the count changes too.
        #[test]
        fn cached_keys_group_like_the_comparator(
            ticks in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..3, 0usize..2, 0usize..2, 0usize..3, proptest::bool::ANY),
                    1..40,
                ),
                1..6,
            ),
            class in 0usize..4,
            extra_groups in 0usize..6,
            tight in proptest::bool::ANY,
            steady in proptest::bool::ANY,
        ) {
            let mut scratch = GroupScratch::default();
            for picks in &ticks {
                let len = if steady { ticks[0].len() } else { picks.len() };
                let jobs: Vec<MpcJobState> = (0..len)
                    .map(|k| picks[k % picks.len()])
                    .map(|(gain, slope, target, free, charged)| MpcJobState {
                        size: 1,
                        target: [0.5, 0.7][target],
                        current_cap_frac: 0.5,
                        gain: [0.5, 1.0, 1.5][gain],
                        free_response: [vec![], vec![0.1, 9.0], vec![0.3]][free].clone(),
                        curve_value: 0.5,
                        curve_slope: [1.0, 2.0][slope],
                        bias: 0.0,
                        charged: match class {
                            0 => true,
                            1 => false,
                            _ => charged,
                        },
                    })
                    .collect();
                let max_groups = if tight { 2 + extra_groups } else { jobs.len() + extra_groups };
                let max_groups = max_groups.max(2);
                let expected = group_jobs_by_comparator(&jobs, max_groups);
                scratch.regroup(&jobs, max_groups);
                proptest::prop_assert_eq!(&scratch.groups, &expected);
                proptest::prop_assert_eq!(group_jobs(&jobs, max_groups), expected);
            }
        }
    }

    #[test]
    fn grouped_decision_respects_budget_and_window() {
        let (model, _) = train_node_model(5);
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let jobs = make_jobs(&ctrl, &model, 300, 2);
        let inp = input(&jobs);
        let d = ctrl.decide_grouped(&inp, 24).expect("jobs present");
        assert_eq!(d.caps_frac.len(), jobs.len());
        let committed: f64 = d
            .caps_frac
            .iter()
            .zip(jobs.iter())
            .filter(|(_, j)| j.charged)
            .map(|(&c, j)| c * j.size as f64)
            .sum();
        assert!(
            committed <= inp.budget_nodes + 1e-6,
            "committed {committed} > {}",
            inp.budget_nodes
        );
        for &c in &d.caps_frac {
            assert!((90.0 / 290.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        }
    }

    #[test]
    fn grouped_matches_exact_when_few_jobs() {
        // Regression pinning (was seed debt): the original assertion
        // demanded 1e-12 agreement between `decide` and
        // `decide_grouped` *on the same controller*. With `n <=
        // max_groups` the grouped path literally delegates to
        // `decide`, but the controller's cross-decision solver scratch
        // (the `LmaxCache` behind the `scratch` mutex) means the
        // second call does not replay the first bit-for-bit — it only
        // agrees to solver tolerance. The exact-delegation identity
        // holds on a *fresh* controller, which is what we pin exactly;
        // the same-controller comparison is held to solver tolerance.
        let (model, _) = train_node_model(5);
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let jobs = make_jobs(&ctrl, &model, 10, 3);
        let inp = input(&jobs);

        // Same controller: agreement at solver tolerance.
        let exact = ctrl.decide(&inp).expect("jobs");
        let grouped = ctrl.decide_grouped(&inp, 32).expect("jobs");
        for (a, b) in exact.caps_frac.iter().zip(grouped.caps_frac.iter()) {
            assert!((a - b).abs() < 1e-6, "solver-tolerance drift: {a} vs {b}");
        }

        // Fresh controllers: the delegation is exact, to the bit.
        let exact_fresh = MpcController::new(&model, MpcSettings::default())
            .decide(&inp)
            .expect("jobs");
        let grouped_fresh = MpcController::new(&model, MpcSettings::default())
            .decide_grouped(&inp, 32)
            .expect("jobs");
        for (a, b) in exact_fresh
            .caps_frac
            .iter()
            .zip(grouped_fresh.caps_frac.iter())
        {
            assert!(
                a.to_bits() == b.to_bits(),
                "fresh-controller delegation must be exact: {a} vs {b}"
            );
        }
    }

    #[test]
    fn grouped_allocation_close_to_exact_in_aggregate() {
        // The grouped solve should put roughly the same total power into
        // high- vs low-sensitivity halves as the exact solve.
        let (model, _) = train_node_model(5);
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let jobs = make_jobs(&ctrl, &model, 120, 4);
        let inp = input(&jobs);
        let exact = ctrl.decide(&inp).expect("jobs");
        let grouped = ctrl.decide_grouped(&inp, 24).expect("jobs");
        let split_power = |d: &MpcDecision| -> (f64, f64) {
            let mut hi = 0.0;
            let mut lo = 0.0;
            for (i, j) in jobs.iter().enumerate() {
                let p = d.caps_frac[i] * j.size as f64;
                if j.gain * j.curve_slope > 0.5 {
                    hi += p;
                } else {
                    lo += p;
                }
            }
            (hi, lo)
        };
        let (eh, el) = split_power(&exact);
        let (gh, gl) = split_power(&grouped);
        assert!(
            (eh - gh).abs() / (eh + el) < 0.10,
            "high-sensitivity power differs: exact {eh:.1} vs grouped {gh:.1}"
        );
        assert!((el - gl).abs() / (eh + el) < 0.10);
    }

    #[test]
    fn ten_thousand_jobs_decide_fast() {
        // The paper's scaling concern: 10,000 concurrent jobs. Grouped
        // decisions must stay well under the control interval.
        let (model, _) = train_node_model(5);
        let ctrl = MpcController::new(&model, MpcSettings::default());
        let jobs = make_jobs(&ctrl, &model, 10_000, 6);
        let inp = input(&jobs);
        let t0 = Instant::now();
        let d = ctrl.decide_grouped(&inp, 64).expect("jobs");
        let elapsed = t0.elapsed();
        assert_eq!(d.caps_frac.len(), 10_000);
        assert!(
            elapsed.as_secs_f64() < 2.0,
            "grouped decision took {elapsed:?}"
        );
    }
}
