use crate::job::JobSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// FCFS scheduler with EASY backfilling.
///
/// The paper's simulation "uses First-Come-First-Serve (FCFS) with
/// back-filling job scheduling". EASY backfilling is the standard variant:
/// the queue head gets a reservation at the earliest time enough nodes
/// will be free, and later jobs may jump ahead only if they fit on idle
/// nodes *without delaying that reservation* (they either finish before
/// the reservation time or use nodes the reserved job will not need).
///
/// Reservations are computed from the user runtime *estimates*
/// ([`JobSpec::runtime_estimate_s`]); jobs slowed below their estimate by
/// power capping can therefore delay the head in reality, exactly as on
/// production systems.
///
/// Two queue disciplines exist: [`Scheduler::new`] is the paper's
/// saturated queue (every job ready immediately, in trace order), and
/// [`Scheduler::with_arrivals`] holds jobs with a future
/// [`JobSpec::submit_s`] aside until [`Scheduler::release_due`] moves
/// them into the FCFS queue — the sparse-trace mode whose dead time
/// `Cluster::run` skips.
#[derive(Debug, Clone)]
pub struct Scheduler {
    queue: VecDeque<JobSpec>,
    /// Jobs not yet submitted, in ascending (`submit_s`, trace order).
    /// Always empty under the saturated discipline.
    future: VecDeque<JobSpec>,
}

/// A running job's footprint as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningFootprint {
    /// Nodes occupied.
    pub size: usize,
    /// Estimated completion time (absolute simulation seconds).
    pub estimated_end_s: f64,
}

/// Reusable buffer for [`Scheduler::schedule_with_scratch`], so the
/// reservation heap is built in place each interval instead of
/// allocating a fresh `Vec` (same pattern as the QP `Workspace`).
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    ends: Vec<Reverse<EndKey>>,
}

/// Heap key for completion events: orders by time, then by position in
/// the `running ⧺ started` chain, reproducing exactly the order a
/// *stable* sort on time alone would produce (ties keep chain order).
/// `ord` is the total-order bit pattern of the time; `raw` carries the
/// original `f64` bits so the time can be read back after a pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EndKey {
    ord: u64,
    chain_idx: usize,
    raw: u64,
    size: usize,
}

/// Monotone map from finite `f64` to `u64`: `a < b ⇔ ord_bits(a) <
/// ord_bits(b)`, matching the `partial_cmp` sort the oracle path uses.
fn ord_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

impl Scheduler {
    /// Creates a scheduler over a pre-generated trace (saturated queue:
    /// every job is ready immediately, in trace order; `submit_s` is
    /// ignored).
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Scheduler {
            queue: jobs.into(),
            future: VecDeque::new(),
        }
    }

    /// Creates a scheduler that honours [`JobSpec::submit_s`]: jobs with
    /// a positive submit time are withheld until [`Scheduler::release_due`]
    /// passes their arrival. Jobs are ordered by (`submit_s`, trace
    /// order), so ties release in trace order like the saturated queue.
    pub fn with_arrivals(mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| a.submit_s.partial_cmp(&b.submit_s).expect("finite submits"));
        let mut queue = VecDeque::new();
        let mut future = VecDeque::new();
        for job in jobs {
            if job.submit_s <= 0.0 {
                queue.push_back(job);
            } else {
                future.push_back(job);
            }
        }
        Scheduler { queue, future }
    }

    /// Moves every job with `submit_s <= now_s` from the arrival buffer
    /// into the FCFS queue; returns how many were released. No-op (and
    /// free) under the saturated discipline.
    pub fn release_due(&mut self, now_s: f64) -> usize {
        let mut released = 0;
        while self.future.front().is_some_and(|job| job.submit_s <= now_s) {
            let job = self.future.pop_front().expect("front checked");
            self.queue.push_back(job);
            released += 1;
        }
        released
    }

    /// Submit time of the next withheld job, if any.
    pub fn next_arrival_s(&self) -> Option<f64> {
        self.future.front().map(|job| job.submit_s)
    }

    /// Jobs still waiting in the released FCFS queue (withheld future
    /// arrivals are not counted).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Jobs withheld for a future arrival.
    pub fn unreleased(&self) -> usize {
        self.future.len()
    }

    /// True when some *released* job fits on `free` idle nodes — the
    /// idle skip's "could anything start now" probe for an otherwise
    /// idle machine (with nothing running, EASY backfilling starts any
    /// fitting job, so this is exact).
    pub fn any_pending_fits(&self, free: usize) -> bool {
        self.queue.iter().any(|job| job.size <= free)
    }

    /// Peeks at the queue head.
    pub fn head(&self) -> Option<&JobSpec> {
        self.queue.front()
    }

    /// Returns a job to the head of the queue. Used by fault injection:
    /// a job displaced from crashed nodes loses its progress but keeps
    /// its FCFS position, so it restarts as soon as the machine can hold
    /// it again.
    pub fn requeue_front(&mut self, job: JobSpec) {
        self.queue.push_front(job);
    }

    /// Selects the jobs to start now given `free_nodes` idle nodes and the
    /// footprints of currently running jobs. Returns the started jobs
    /// (removed from the queue).
    pub fn schedule(
        &mut self,
        now_s: f64,
        mut free_nodes: usize,
        running: &[RunningFootprint],
    ) -> Vec<JobSpec> {
        let mut started = Vec::new();
        self.start_fcfs(&mut free_nodes, &mut started);
        let Some(head) = self.queue.front() else {
            return started;
        };
        if free_nodes == 0 {
            return started;
        }

        // EASY reservation for the blocked head: walk running jobs (and
        // jobs we just started) in estimated-completion order accumulating
        // freed nodes until the head fits.
        let mut ends: Vec<(f64, usize)> = running
            .iter()
            .map(|r| (r.estimated_end_s, r.size))
            .chain(
                started
                    .iter()
                    .map(|j| (now_s + j.runtime_estimate_s, j.size)),
            )
            .collect();
        ends.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

        let head_size = head.size;
        let mut available = free_nodes;
        let mut shadow_time = f64::INFINITY;
        let mut extra_at_shadow = 0usize;
        for (end, size) in ends {
            available += size;
            if available >= head_size {
                shadow_time = end;
                extra_at_shadow = available - head_size;
                break;
            }
        }

        self.backfill(
            now_s,
            free_nodes,
            shadow_time,
            extra_at_shadow,
            &mut started,
        );
        started
    }

    /// [`Scheduler::schedule`] with a partial-selection heap instead of a
    /// full sort over every running job. Only as many completion events
    /// as the reservation needs are popped — usually one or two out of
    /// hundreds — and the heap's backing `Vec` lives in `scratch` so the
    /// per-interval hot path allocates nothing. Bit-identical to the
    /// sorting path, including stable tie order (see `EndKey`).
    pub fn schedule_with_scratch(
        &mut self,
        now_s: f64,
        free_nodes: usize,
        running: &[RunningFootprint],
        scratch: &mut ScheduleScratch,
    ) -> Vec<JobSpec> {
        let mut started = Vec::new();
        self.schedule_with_scratch_into(now_s, free_nodes, running, scratch, &mut started);
        started
    }

    /// [`Scheduler::schedule_with_scratch`] appending into a
    /// caller-owned buffer, so the simulator's per-interval hot path
    /// reuses one `Vec` for the started jobs instead of allocating a
    /// fresh one every interval. `started` is cleared first.
    pub fn schedule_with_scratch_into(
        &mut self,
        now_s: f64,
        mut free_nodes: usize,
        running: &[RunningFootprint],
        scratch: &mut ScheduleScratch,
        started: &mut Vec<JobSpec>,
    ) {
        started.clear();
        self.start_fcfs(&mut free_nodes, started);
        let Some(head) = self.queue.front() else {
            return;
        };
        if free_nodes == 0 {
            return;
        }

        let mut buf = std::mem::take(&mut scratch.ends);
        buf.clear();
        buf.extend(
            running
                .iter()
                .map(|r| (r.estimated_end_s, r.size))
                .chain(
                    started
                        .iter()
                        .map(|j| (now_s + j.runtime_estimate_s, j.size)),
                )
                .enumerate()
                .map(|(chain_idx, (end, size))| {
                    Reverse(EndKey {
                        ord: ord_bits(end),
                        chain_idx,
                        raw: end.to_bits(),
                        size,
                    })
                }),
        );
        let mut heap = BinaryHeap::from(buf);

        let head_size = head.size;
        let mut available = free_nodes;
        let mut shadow_time = f64::INFINITY;
        let mut extra_at_shadow = 0usize;
        while let Some(Reverse(key)) = heap.pop() {
            available += key.size;
            if available >= head_size {
                shadow_time = f64::from_bits(key.raw);
                extra_at_shadow = available - head_size;
                break;
            }
        }
        scratch.ends = heap.into_vec();

        self.backfill(now_s, free_nodes, shadow_time, extra_at_shadow, started);
    }

    /// FCFS pass: starts the head (and successive heads) while they fit,
    /// appending into the caller's buffer.
    fn start_fcfs(&mut self, free_nodes: &mut usize, started: &mut Vec<JobSpec>) {
        while let Some(head) = self.queue.front() {
            if head.size <= *free_nodes {
                let job = self.queue.pop_front().expect("non-empty");
                *free_nodes -= job.size;
                started.push(job);
            } else {
                break;
            }
        }
    }

    /// Backfill pass: any queued job (beyond the head) that fits on the
    /// free nodes may start if it cannot delay the head's reservation.
    fn backfill(
        &mut self,
        now_s: f64,
        mut free_nodes: usize,
        shadow_time: f64,
        mut extra_at_shadow: usize,
        started: &mut Vec<JobSpec>,
    ) {
        let mut idx = 1; // skip the reserved head
        while idx < self.queue.len() && free_nodes > 0 {
            let candidate = &self.queue[idx];
            let fits_now = candidate.size <= free_nodes;
            let ends_before_shadow = now_s + candidate.runtime_estimate_s <= shadow_time;
            let within_spare = candidate.size <= extra_at_shadow;
            if fits_now && (ends_before_shadow || within_spare) {
                let job = self.queue.remove(idx).expect("index checked");
                free_nodes -= job.size;
                if !ends_before_shadow {
                    // The job occupies part of the shadow-time spare pool.
                    extra_at_shadow -= job.size;
                }
                started.push(job);
            } else {
                idx += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, size: usize, runtime_s: f64) -> JobSpec {
        JobSpec {
            id,
            app_index: 0,
            size,
            runtime_tdp_s: runtime_s,
            runtime_estimate_s: runtime_s,
            submit_s: 0.0,
        }
    }

    fn arriving(id: u64, size: usize, runtime_s: f64, submit_s: f64) -> JobSpec {
        JobSpec {
            submit_s,
            ..job(id, size, runtime_s)
        }
    }

    #[test]
    fn saturated_queue_ignores_submit_times() {
        let mut s = Scheduler::new(vec![
            arriving(0, 1, 60.0, 500.0),
            arriving(1, 1, 60.0, 100.0),
        ]);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.unreleased(), 0);
        assert_eq!(s.next_arrival_s(), None);
        let started = s.schedule(0.0, 4, &[]);
        // Trace order, not submit order: the saturated discipline is the
        // paper's queue.
        assert_eq!(started.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn arrivals_release_in_submit_then_trace_order() {
        let mut s = Scheduler::with_arrivals(vec![
            arriving(0, 1, 60.0, 200.0),
            arriving(1, 1, 60.0, 0.0),
            arriving(2, 1, 60.0, 100.0),
            arriving(3, 1, 60.0, 100.0),
        ]);
        assert_eq!(s.pending(), 1, "only the t=0 job is ready");
        assert_eq!(s.unreleased(), 3);
        assert_eq!(s.next_arrival_s(), Some(100.0));
        assert_eq!(s.release_due(50.0), 0);
        assert_eq!(s.release_due(100.0), 2, "submit ties release together");
        let started = s.schedule(100.0, 4, &[]);
        assert_eq!(started.iter().map(|j| j.id).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(s.next_arrival_s(), Some(200.0));
        assert_eq!(s.release_due(200.0), 1);
        assert_eq!(s.next_arrival_s(), None);
        assert_eq!(s.unreleased(), 0);
    }

    #[test]
    fn any_pending_fits_sees_only_released_jobs() {
        let mut s =
            Scheduler::with_arrivals(vec![arriving(0, 8, 60.0, 0.0), arriving(1, 2, 60.0, 300.0)]);
        assert!(s.any_pending_fits(8));
        assert!(!s.any_pending_fits(4), "the 2-node job is not released yet");
        s.release_due(300.0);
        assert!(s.any_pending_fits(4));
    }

    #[test]
    fn requeued_job_restarts_ahead_of_the_queue() {
        let mut s = Scheduler::new(vec![job(1, 4, 100.0)]);
        s.requeue_front(job(0, 4, 100.0));
        assert_eq!(s.head().unwrap().id, 0);
        let started = s.schedule(0.0, 4, &[]);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, 0);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn fcfs_starts_in_order_while_fitting() {
        let mut s = Scheduler::new(vec![job(0, 4, 100.0), job(1, 4, 100.0), job(2, 4, 100.0)]);
        let started = s.schedule(0.0, 8, &[]);
        let ids: Vec<u64> = started.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn blocked_head_is_not_skipped_by_fcfs() {
        let mut s = Scheduler::new(vec![job(0, 16, 100.0), job(1, 4, 100.0)]);
        // Head needs 16, only 8 free; job 1 may backfill only if it cannot
        // delay the head. No running jobs means the head can never start
        // from job completions — shadow time is infinite, so job 1 runs.
        let started = s.schedule(0.0, 8, &[]);
        let ids: Vec<u64> = started.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(s.head().unwrap().id, 0);
    }

    #[test]
    fn backfill_respects_reservation() {
        // 8 free nodes; head needs 12. A running job (8 nodes) ends at
        // t=50, so the head is reserved at t=50 (8 free + 8 freed = 16 ≥ 12,
        // spare = 4).
        let running = [RunningFootprint {
            size: 8,
            estimated_end_s: 50.0,
        }];
        // Candidate A: 8 nodes, 100 s — would overlap the reservation and
        // exceed the 4 spare nodes: must NOT start.
        let mut s = Scheduler::new(vec![job(0, 12, 100.0), job(1, 8, 100.0)]);
        let started = s.schedule(0.0, 8, &running);
        assert!(started.is_empty(), "{started:?}");

        // Candidate B: 8 nodes, 40 s — finishes before the reservation:
        // starts.
        let mut s = Scheduler::new(vec![job(0, 12, 100.0), job(1, 8, 40.0)]);
        let started = s.schedule(0.0, 8, &running);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, 1);

        // Candidate C: 4 nodes, 100 s — overlaps the reservation but fits
        // in the 4-node spare pool: starts.
        let mut s = Scheduler::new(vec![job(0, 12, 100.0), job(1, 4, 100.0)]);
        let started = s.schedule(0.0, 8, &running);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, 1);
    }

    #[test]
    fn spare_pool_is_consumed_by_backfills() {
        let running = [RunningFootprint {
            size: 8,
            estimated_end_s: 50.0,
        }];
        // Spare at shadow = 4. Two 3-node long jobs: only one fits the
        // spare pool (the second would delay the head).
        let mut s = Scheduler::new(vec![job(0, 12, 100.0), job(1, 3, 100.0), job(2, 3, 100.0)]);
        let started = s.schedule(0.0, 8, &running);
        assert_eq!(started.len(), 1, "{started:?}");
        assert_eq!(started[0].id, 1);
    }

    #[test]
    fn multiple_completions_accumulate_for_reservation() {
        // Head needs 20; two running jobs of 8 end at t=30 and t=60; free 4.
        // Reservation lands at t=60 (4+8+8=20), spare 0.
        let running = [
            RunningFootprint {
                size: 8,
                estimated_end_s: 30.0,
            },
            RunningFootprint {
                size: 8,
                estimated_end_s: 60.0,
            },
        ];
        // 4-node candidate ending at t=55 < 60 may backfill.
        let mut s = Scheduler::new(vec![job(0, 20, 100.0), job(1, 4, 55.0)]);
        let started = s.schedule(0.0, 4, &running);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, 1);

        // 4-node candidate ending at t=65 > 60 may not.
        let mut s = Scheduler::new(vec![job(0, 20, 100.0), job(1, 4, 65.0)]);
        let started = s.schedule(0.0, 4, &running);
        assert!(started.is_empty());
    }

    #[test]
    fn ord_bits_matches_float_order() {
        // −0.0 is excluded: the total order ranks it below +0.0 while
        // partial_cmp calls them equal — irrelevant for completion times,
        // which are nonnegative sums.
        let xs = [0.0, 1e-300, 0.5, 1.0, 50.0, 1e12, f64::INFINITY, -1.0];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    ord_bits(a).cmp(&ord_bits(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn heap_path_matches_sort_path_including_ties() {
        // Deliberate ties in estimated completion times: the stable sort
        // keeps chain order, and the heap keys must reproduce it so both
        // paths compute the same shadow time and spare pool.
        let running = [
            RunningFootprint {
                size: 8,
                estimated_end_s: 50.0,
            },
            RunningFootprint {
                size: 4,
                estimated_end_s: 50.0,
            },
            RunningFootprint {
                size: 2,
                estimated_end_s: 30.0,
            },
        ];
        let queues: Vec<Vec<JobSpec>> = vec![
            vec![job(0, 12, 100.0), job(1, 8, 100.0), job(2, 2, 30.0)],
            vec![job(0, 13, 100.0), job(1, 4, 45.0), job(2, 4, 60.0)],
            vec![job(0, 14, 100.0), job(1, 3, 100.0), job(2, 3, 100.0)],
            vec![job(0, 20, 50.0), job(1, 4, 50.0)],
        ];
        let mut scratch = ScheduleScratch::default();
        for (free, q) in [(8usize, 0usize), (8, 1), (8, 2), (4, 3), (0, 0), (2, 2)] {
            let mut a = Scheduler::new(queues[q].clone());
            let mut b = Scheduler::new(queues[q].clone());
            let sorted = a.schedule(10.0, free, &running);
            let heaped = b.schedule_with_scratch(10.0, free, &running, &mut scratch);
            assert_eq!(sorted, heaped, "free={free} queue={q}");
            assert_eq!(a.pending(), b.pending());
        }
    }

    #[test]
    fn deep_queue_scan_backfills_later_jobs() {
        let running = [RunningFootprint {
            size: 8,
            estimated_end_s: 50.0,
        }];
        // Head blocked; second job too big to backfill; third fits.
        let mut s = Scheduler::new(vec![job(0, 12, 100.0), job(1, 8, 100.0), job(2, 2, 30.0)]);
        let started = s.schedule(0.0, 8, &running);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, 2);
        assert_eq!(s.pending(), 2);
    }
}
