use crate::budget::BudgetSchedule;
use crate::fault::{AppliedFault, FaultKind, FaultPlan};
use crate::job::{JobOutcome, JobRecord, JobSpec, JobTrace, TracePoint};
use crate::policy::{JobView, PolicyContext, PowerPolicy};
use crate::scheduler::{RunningFootprint, ScheduleScratch, Scheduler};
use crate::trace::SystemModel;
use perq_apps::{AppProfile, BASE_NODE_IPS, IDLE_WATTS, MIN_CAP_WATTS, TDP_WATTS};
use perq_rapl::{CapLimits, PowerCapDevice, SimulatedRapl};
use perq_telemetry::{FieldValue, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// Static configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Nodes in the over-provisioned system (`N_OP = f · N_WP`).
    pub nodes: usize,
    /// Nodes in the worst-case-provisioned system (`N_WP`); the power
    /// budget is `wp_nodes · tdp_w`.
    pub wp_nodes: usize,
    /// Control decision interval, seconds (paper default: 10 s).
    pub interval_s: f64,
    /// Simulated duration, seconds (paper: one day).
    pub duration_s: f64,
    /// Node TDP, watts.
    pub tdp_w: f64,
    /// Minimum per-node cap, watts.
    pub cap_min_w: f64,
    /// Idle node draw, watts.
    pub idle_w: f64,
    /// Relative standard deviation of IPS measurements.
    pub ips_noise_rel: f64,
    /// Probability that a job's IPS report is lost in a given interval
    /// (failure injection; the policy sees `None`).
    pub ips_dropout_prob: f64,
    /// Per-interval probability that a running job crashes (failure
    /// injection).
    pub crash_prob: f64,
    /// Job ids whose full power/IPS trace should be recorded; `None`
    /// records nothing, and an empty set with `trace_all` records all.
    pub trace_jobs: Vec<u64>,
    /// Record traces for every job (memory heavy; for small runs).
    pub trace_all: bool,
    /// Honour each job's [`JobSpec::submit_s`]: jobs enter the queue at
    /// their submit time instead of all being ready at `t = 0` (the
    /// paper's saturated queue, which stays the default). Arrival gaps
    /// are exactly the dead time [`Cluster::run`] skips.
    #[serde(default)]
    pub honor_arrivals: bool,
}

impl ClusterConfig {
    /// Standard configuration for a system model at over-provisioning
    /// factor `f`, running for `duration_s` seconds.
    pub fn for_system(system: &SystemModel, f: f64, duration_s: f64) -> Self {
        assert!(f >= 1.0, "over-provisioning factor must be >= 1");
        ClusterConfig {
            nodes: (system.wp_nodes as f64 * f).round() as usize,
            wp_nodes: system.wp_nodes,
            interval_s: 10.0,
            duration_s,
            tdp_w: TDP_WATTS,
            cap_min_w: MIN_CAP_WATTS,
            idle_w: IDLE_WATTS,
            ips_noise_rel: 0.01,
            ips_dropout_prob: 0.0,
            crash_prob: 0.0,
            trace_jobs: Vec::new(),
            trace_all: false,
            honor_arrivals: false,
        }
    }

    /// Total system power budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.wp_nodes as f64 * self.tdp_w
    }

    /// Over-provisioning factor `f = N_OP / N_WP`.
    pub fn over_provisioning_factor(&self) -> f64 {
        self.nodes as f64 / self.wp_nodes as f64
    }

    fn validate(&self) {
        assert!(self.nodes >= 1 && self.wp_nodes >= 1, "need nodes");
        assert!(self.interval_s > 0.0, "interval must be positive");
        assert!(self.duration_s > 0.0, "duration must be positive");
        assert!(
            self.cap_min_w > 0.0 && self.cap_min_w <= self.tdp_w,
            "cap window invalid"
        );
        assert!(
            self.nodes as f64 * self.idle_w <= self.budget_w(),
            "budget cannot even idle the machine: {} nodes x {} W idle > {} W budget",
            self.nodes,
            self.idle_w,
            self.budget_w()
        );
    }
}

/// Per-interval system telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalLog {
    /// Interval start time, seconds.
    pub t_s: f64,
    /// Nodes occupied by running jobs.
    pub busy_nodes: usize,
    /// Running job count.
    pub running_jobs: usize,
    /// Total power drawn (busy consumption + idle draw), watts.
    pub total_power_w: f64,
    /// Sum of assigned caps (busy nodes) + idle draw, watts — the
    /// worst-case draw the caps admit (may exceed the budget when the
    /// policy deliberately over-commits caps on low-draw jobs).
    pub committed_power_w: f64,
    /// Whether *consumed* power exceeded the system budget this interval
    /// — the quantity the paper's constraint bounds.
    pub violation: bool,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the policy that ran.
    pub policy: String,
    /// Over-provisioning factor of the run.
    pub f: f64,
    /// All job records (completed, crashed, unfinished).
    pub records: Vec<JobRecord>,
    /// Per-interval telemetry.
    pub intervals: Vec<IntervalLog>,
    /// Traces of the requested jobs.
    pub traces: HashMap<u64, JobTrace>,
    /// Number of intervals in which the policy requested more power than
    /// the budget (the simulator scaled the request down).
    pub budget_violations: usize,
    /// Total simulated time spent above the budget, seconds
    /// (`budget_violations · interval_s` — the degradation metric the
    /// fault suite bounds).
    pub budget_violation_s: f64,
    /// Faults actually applied during the run, in application order.
    pub faults: Vec<AppliedFault>,
    /// Latency of each node recovery (crash-to-recover time, seconds),
    /// matched first-crashed-first-recovered.
    pub recovery_latency_s: Vec<f64>,
    /// Wall-clock time of each policy decision, seconds (Fig. 13 data).
    pub decision_times_s: Vec<f64>,
}

impl SimResult {
    /// True when every *simulated* field of the two results matches.
    /// `decision_times_s` is a wall-clock measurement and is ignored: it
    /// is the one field that legitimately differs between replays of the
    /// same seed. Campaign determinism checks compare with this.
    pub fn same_simulation(&self, other: &SimResult) -> bool {
        self.policy == other.policy
            && self.f == other.f
            && self.records == other.records
            && self.intervals == other.intervals
            && self.traces == other.traces
            && self.budget_violations == other.budget_violations
            && self.budget_violation_s == other.budget_violation_s
            && self.faults == other.faults
            && self.recovery_latency_s == other.recovery_latency_s
    }

    /// Completed-job count — the paper's system-throughput metric.
    pub fn throughput(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .count()
    }

    /// Records of completed jobs only.
    pub fn completed(&self) -> impl Iterator<Item = &JobRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
    }
}

/// A running job's live state.
struct RunningJob {
    spec: JobSpec,
    app: AppProfile,
    start_s: f64,
    progress_s: f64,
    cap_w: f64,
    rapl: SimulatedRapl,
    last_ips: Option<f64>,
    last_power_w: Option<f64>,
    is_new: bool,
    /// Fault injection: IPS reports are suppressed until this step.
    ips_hidden_until: usize,
    /// Fault injection: the power reading freezes until this step.
    power_stale_until: usize,
    /// Fault injection: the next power reading is scaled by this factor.
    corrupt_power_factor: Option<f64>,
}

/// Reusable per-interval buffers. `Cluster::step` used to allocate
/// fresh `Vec`s for views, caps, and the finished list every interval;
/// they now live here and are cleared-and-refilled instead (same
/// pattern as the QP `Workspace`).
#[derive(Default)]
struct StepScratch {
    views: Vec<JobView>,
    caps: Vec<f64>,
    finished: Vec<usize>,
    started: Vec<JobSpec>,
    decision_times_s: Vec<f64>,
}

/// The cluster simulator. See the crate docs for the model.
pub struct Cluster {
    config: ClusterConfig,
    apps: Vec<AppProfile>,
    pub(crate) scheduler: Scheduler,
    running: Vec<RunningJob>,
    /// Scheduler footprints, mirrored in lockstep with `running` (same
    /// indices) so the hot path never rebuilds them from a rescan.
    footprints: Vec<RunningFootprint>,
    /// Sum of `running[i].spec.size`, maintained on delta.
    busy_nodes: usize,
    sched_scratch: ScheduleScratch,
    scratch: StepScratch,
    /// `config.trace_jobs` as a set: the per-job trace check is O(1)
    /// instead of a linear scan every job every interval.
    trace_set: HashSet<u64>,
    records: Vec<JobRecord>,
    traces: HashMap<u64, JobTrace>,
    time_s: f64,
    /// The seed `with_apps` was given, kept for per-job RAPL seed
    /// derivation (`rapl_seed`).
    seed: u64,
    rng: StdRng,
    ips_noise: Option<Normal<f64>>,
    /// Fault injection state. The plan is data fixed before the run; the
    /// cursor walks it as steps pass.
    fault_plan: FaultPlan,
    fault_cursor: usize,
    step_idx: usize,
    offline_nodes: usize,
    fault_log: Vec<AppliedFault>,
    /// Crash times awaiting a matching recovery (FIFO).
    crash_times: VecDeque<f64>,
    recovery_latency_s: Vec<f64>,
    recorder: Recorder,
    /// Loop diagnostics (intervals executed vs skipped, wall time per
    /// simulated day). Separate from `recorder` because these depend
    /// on which loop ran and on wall time, while `recorder` exports
    /// must stay byte-identical between `run` and `run_stepper`.
    engine_recorder: Recorder,
    /// Wall-clock start of the simulated day in progress, and the
    /// simulated time at which it ends (`engine_recorder` only).
    day_wall_start: Instant,
    next_day_s: f64,
    /// The run's interval log and violation count so far; `finish`
    /// hands them to the [`SimResult`].
    intervals: Vec<IntervalLog>,
    budget_violations: usize,
    /// Budget in force instead of `config.budget_w()`, when a
    /// higher-level coordinator granted this cluster a share of a
    /// larger system's budget (hierarchical allocation, `hier.rs`).
    /// `None` — the flat default — leaves every budget computation on
    /// the exact `config.budget_w()` float, so flat runs are untouched.
    budget_override_w: Option<f64>,
    /// Time-varying budget curve (price/carbon markets). Consulted
    /// after the coordinator override and before the flat
    /// `config.budget_w()`; `None` keeps fixed-budget runs on the
    /// exact pre-schedule float expressions.
    budget_schedule: Option<BudgetSchedule>,
    /// Cumulative simulated seconds spent above the budget so far —
    /// surfaced to policies through `PolicyContext::violation_s`.
    violation_s_total: f64,
    /// A previous run's interval log handed back for reuse. Year-long
    /// runs allocate a ~150 MB log; recycling it across repeated
    /// replays (benchmark medians, back-to-back what-if runs) skips
    /// the kernel's first-touch page zeroing, which otherwise rivals
    /// a sparse run's entire simulation cost.
    recycled_intervals: Option<Vec<IntervalLog>>,
    /// Routes scheduling through the pre-overhaul full-rescan + sort
    /// path, which also cross-checks the incremental mirrors each step.
    #[cfg(test)]
    rescan_oracle: bool,
    /// Derives per-job RAPL seeds the pre-PR-6 way (`id ^ 0xABCD`,
    /// ignoring the cluster seed) so oracle comparisons stay
    /// byte-identical across the seed-derivation fix.
    #[cfg(test)]
    legacy_rapl_seed: bool,
}

const SECONDS_PER_DAY: f64 = 86_400.0;

/// Conservatively early interval index for an arrival at `submit_s`:
/// two steps before the nominal one, so clock accumulation error can
/// never make the hint *late* (a premature wake executes one idle
/// interval; a late one would silently delay the release).
fn arrival_hint_step(submit_s: f64, interval_s: f64) -> usize {
    ((submit_s / interval_s).floor() as usize).saturating_sub(2)
}

/// The finalization mix of `splitmix64` — a bijective `u64 → u64`
/// avalanche used to fold the cluster seed into per-job RAPL seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Cluster {
    /// Creates a simulator over a job trace, using the ECP application
    /// suite as the ground-truth behaviours.
    pub fn new(config: ClusterConfig, jobs: Vec<JobSpec>, seed: u64) -> Self {
        Self::with_apps(config, jobs, perq_apps::ecp_suite(), seed)
    }

    /// Creates a simulator with a custom application suite (the sysid
    /// training pipeline uses this with the NPB-like suite).
    pub fn with_apps(
        config: ClusterConfig,
        jobs: Vec<JobSpec>,
        apps: Vec<AppProfile>,
        seed: u64,
    ) -> Self {
        config.validate();
        assert!(!apps.is_empty(), "need at least one application profile");
        for job in &jobs {
            assert!(
                job.app_index < apps.len(),
                "job {} references app {} but only {} profiles exist",
                job.id,
                job.app_index,
                apps.len()
            );
            assert!(
                job.size <= config.nodes,
                "job {} needs {} nodes but the system has {}",
                job.id,
                job.size,
                config.nodes
            );
        }
        let ips_noise = if config.ips_noise_rel > 0.0 {
            Some(Normal::new(0.0, config.ips_noise_rel).expect("valid sigma"))
        } else {
            None
        };
        let trace_set = config.trace_jobs.iter().copied().collect();
        let scheduler = if config.honor_arrivals {
            Scheduler::with_arrivals(jobs)
        } else {
            Scheduler::new(jobs)
        };
        Cluster {
            config,
            apps,
            scheduler,
            running: Vec::new(),
            footprints: Vec::new(),
            busy_nodes: 0,
            sched_scratch: ScheduleScratch::default(),
            scratch: StepScratch::default(),
            trace_set,
            records: Vec::new(),
            traces: HashMap::new(),
            time_s: 0.0,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x5043_5253_494d_5f31),
            ips_noise,
            fault_plan: FaultPlan::default(),
            fault_cursor: 0,
            step_idx: 0,
            offline_nodes: 0,
            fault_log: Vec::new(),
            crash_times: VecDeque::new(),
            recovery_latency_s: Vec::new(),
            recorder: Recorder::noop(),
            engine_recorder: Recorder::noop(),
            day_wall_start: Instant::now(),
            next_day_s: SECONDS_PER_DAY,
            intervals: Vec::new(),
            budget_violations: 0,
            budget_override_w: None,
            budget_schedule: None,
            violation_s_total: 0.0,
            recycled_intervals: None,
            #[cfg(test)]
            rescan_oracle: false,
            #[cfg(test)]
            legacy_rapl_seed: false,
        }
    }

    /// Installs a fault plan to apply during the run (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self.fault_cursor = 0;
        self
    }

    /// Attaches a telemetry recorder (builder style). The simulator
    /// drives the recorder's clock from *simulated* time and forwards
    /// the handle to the policy at the start of [`Cluster::run`], so a
    /// single recorder collects `perq_sim_*`, `perq_core_*`, and
    /// `perq_qp_*` metrics for the whole run and its exports replay
    /// bit-for-bit under a fixed seed.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a recorder for *loop diagnostics* (builder style):
    /// `perq_sim_intervals_{executed,skipped}_total` and the
    /// `perq_sim_wall_per_sim_day_seconds` histogram. These depend on
    /// how many idle intervals were skipped and on wall time, so they
    /// live on their own recorder: the main recorder's exports stay
    /// byte-identical between [`Cluster::run`] and
    /// [`Cluster::run_stepper`].
    pub fn with_engine_recorder(mut self, recorder: Recorder) -> Self {
        self.engine_recorder = recorder;
        self
    }

    /// Hands a previous run's interval log back for reuse (builder
    /// style). The buffer is cleared and regrown in place, so repeated
    /// replays write into already-faulted pages instead of paying the
    /// kernel's first-touch zeroing of a fresh year-long allocation
    /// (~150 MB for a year at 10 s intervals). Results are unaffected:
    /// the buffer is cleared before the run logs into it.
    pub fn with_recycled_intervals(mut self, buffer: Vec<IntervalLog>) -> Self {
        self.recycled_intervals = Some(buffer);
        self
    }

    /// Nodes currently offline due to injected crashes.
    pub fn offline_nodes(&self) -> usize {
        self.offline_nodes
    }

    /// Overrides the power budget in force (hierarchical allocation: a
    /// coordinator grants this cluster a share of a larger system's
    /// budget, re-granted every coordination epoch). `None` restores
    /// the flat `config.budget_w()`. The override must at least cover
    /// the whole machine idling — the same invariant
    /// `ClusterConfig::validate` enforces on the flat budget.
    pub fn set_budget_override(&mut self, budget_w: Option<f64>) {
        if let Some(b) = budget_w {
            let live = self.config.nodes - self.offline_nodes;
            assert!(
                b.is_finite() && b >= live as f64 * self.config.idle_w,
                "budget override {b} W cannot even idle {live} live nodes at {} W",
                self.config.idle_w
            );
        }
        self.budget_override_w = budget_w;
    }

    /// The budget override in force, if any.
    pub fn budget_override_w(&self) -> Option<f64> {
        self.budget_override_w
    }

    /// Installs a time-varying budget schedule (builder style). Every
    /// level of the schedule must at least idle the whole machine —
    /// the same invariant [`ClusterConfig`] enforces on the flat budget
    /// — so idle intervals can never violate regardless of where on
    /// the curve they fall (which is what keeps bulk idle synthesis
    /// byte-identical to the stepper).
    pub fn with_budget_schedule(mut self, schedule: BudgetSchedule) -> Self {
        assert!(
            self.config.nodes as f64 * self.config.idle_w <= schedule.min_budget_w(),
            "schedule floor {} W cannot even idle {} nodes at {} W",
            schedule.min_budget_w(),
            self.config.nodes,
            self.config.idle_w
        );
        self.budget_schedule = Some(schedule);
        self
    }

    /// The budget schedule in force, if any.
    pub fn budget_schedule(&self) -> Option<&BudgetSchedule> {
        self.budget_schedule.as_ref()
    }

    /// The power budget in force at simulated time `t_s`: the
    /// coordinator-granted override when one is set (an enclave's
    /// grant already reflects whatever curve the coordinator follows),
    /// then the schedule level at `t_s`, then the flat
    /// `config.budget_w()` (the exact same float expression as before
    /// schedules existed, so fixed-budget runs are bit-identical).
    pub(crate) fn effective_budget_at(&self, t_s: f64) -> f64 {
        if let Some(b) = self.budget_override_w {
            return b;
        }
        match &self.budget_schedule {
            Some(schedule) => schedule.budget_at(t_s),
            None => self.config.budget_w(),
        }
    }

    /// The budget in force at the current interval's start.
    pub(crate) fn effective_budget_w(&self) -> f64 {
        self.effective_budget_at(self.time_s)
    }

    /// Schedules via the pre-overhaul full-rescan + sort path instead of
    /// the incremental mirrors + heap. Kept as a regression oracle: the
    /// rescan path additionally asserts the mirrors agree with a fresh
    /// scan every step. The oracle predates the seeded RAPL-derivation
    /// fix, so enabling it also switches to the legacy per-job seeds.
    #[cfg(test)]
    pub fn set_rescan_oracle(&mut self, on: bool) {
        self.rescan_oracle = on;
        self.legacy_rapl_seed = on;
    }

    /// Derives per-job RAPL seeds the pre-PR-6 way (`id ^ 0xABCD`,
    /// independent of the cluster seed). Only for byte-identity
    /// comparisons against the rescan oracle; see DESIGN.md §10.
    #[cfg(test)]
    pub fn set_legacy_rapl_seed(&mut self, on: bool) {
        self.legacy_rapl_seed = on;
    }

    /// Per-job RAPL seed: the legacy derivation XORed the job id with a
    /// constant, so two scenarios with the same job ids but different
    /// cluster seeds shared RAPL noise streams. The fix folds the
    /// cluster seed in through `splitmix64` (both inputs avalanched so
    /// related ids/seeds don't produce related streams).
    fn rapl_seed(&self, job_id: u64) -> u64 {
        #[cfg(test)]
        if self.legacy_rapl_seed {
            return job_id ^ 0xABCD;
        }
        splitmix64(self.seed ^ splitmix64(job_id ^ 0xABCD))
    }

    /// Starts a job, updating the incremental mirrors.
    fn push_running(&mut self, job: RunningJob) {
        self.busy_nodes += job.spec.size;
        self.footprints.push(RunningFootprint {
            size: job.spec.size,
            estimated_end_s: job.start_s + job.spec.runtime_estimate_s,
        });
        self.running.push(job);
    }

    /// Removes a job preserving order (fault paths), updating the mirrors.
    fn remove_running(&mut self, idx: usize) -> RunningJob {
        let job = self.running.remove(idx);
        self.footprints.remove(idx);
        self.busy_nodes -= job.spec.size;
        job
    }

    /// Removes a job by swap (hot completion path), updating the mirrors.
    fn swap_remove_running(&mut self, idx: usize) -> RunningJob {
        let job = self.running.swap_remove(idx);
        self.footprints.swap_remove(idx);
        self.busy_nodes -= job.spec.size;
        job
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the simulation to the configured duration under a policy.
    /// Intervals in which nothing can happen — no job running, nothing
    /// startable, no fault or arrival due — are synthesized in bulk
    /// instead of executed (DESIGN.md §10); everything else runs the
    /// policy once per interval, exactly like the paper's controller.
    pub fn run(&mut self, policy: &mut dyn PowerPolicy) -> SimResult {
        self.run_to_end(policy, true)
    }

    /// The parity oracle for [`Cluster::run`]: executes *every*
    /// interval, idle or not. It exists so the idle skip can be proven
    /// against the loop it shortcuts — same [`SimResult`] (apart from
    /// the wall-clock `decision_times_s`) and byte-identical recorder
    /// exports, pinned by `tests/event_parity.rs`. Tests and benches
    /// call it; nothing else should.
    pub fn run_stepper(&mut self, policy: &mut dyn PowerPolicy) -> SimResult {
        self.run_to_end(policy, false)
    }

    /// One whole run: prologue, the loop to the end of the window,
    /// epilogue.
    pub(crate) fn run_to_end(
        &mut self,
        policy: &mut dyn PowerPolicy,
        skip_idle: bool,
    ) -> SimResult {
        self.begin(policy);
        self.advance_to(usize::MAX, policy, skip_idle);
        self.finish(policy.name())
    }

    /// Start-of-run prologue: hands the recorder to the policy and
    /// readies the interval log — the recycled buffer if one was handed
    /// over (cleared, its pages already faulted in), otherwise a fresh
    /// allocation pre-sized for the full window.
    pub(crate) fn begin(&mut self, policy: &mut dyn PowerPolicy) {
        policy.set_recorder(self.recorder.clone());
        let capacity = (self.config.duration_s / self.config.interval_s).ceil() as usize + 1;
        self.intervals = self.recycled_intervals.take().unwrap_or_default();
        self.intervals.clear();
        self.intervals.reserve(capacity);
        self.day_wall_start = Instant::now();
        // Both counters exist from the start, so a saturated run
        // exports `skipped_total 0` rather than no series at all.
        for name in [
            "perq_sim_intervals_executed_total",
            "perq_sim_intervals_skipped_total",
        ] {
            self.engine_recorder.counter_add(name, 0);
        }
    }

    /// The simulator's one loop: advances up to (not including)
    /// `end_step`, bounded by the configured duration. With `skip_idle`
    /// an idle cluster jumps to its next wake step — the next scheduled
    /// fault, the next arrival hint, or `end_step` — never past any of
    /// them, so nothing is applied late. Executing an idle interval is
    /// byte-identical to synthesizing it, so a premature wake costs
    /// time, never fidelity. Without `skip_idle` this is the stepper.
    pub(crate) fn advance_to(
        &mut self,
        end_step: usize,
        policy: &mut dyn PowerPolicy,
        skip_idle: bool,
    ) {
        let diag = self.engine_recorder.enabled();
        while self.step_idx < end_step && self.time_s < self.config.duration_s {
            let wake = if skip_idle && self.idle_now() {
                self.next_wake_step(end_step)
            } else {
                self.step_idx
            };
            if wake > self.step_idx {
                let skipped = self.skip_idle_until(wake);
                if diag {
                    self.engine_recorder
                        .counter_add("perq_sim_intervals_skipped_total", skipped);
                }
            } else {
                let log = self.step(policy);
                self.tally_violation(&log);
                self.intervals.push(log);
                if diag {
                    self.engine_recorder
                        .counter_inc("perq_sim_intervals_executed_total");
                }
            }
            while diag && self.time_s >= self.next_day_s {
                self.engine_recorder.observe(
                    "perq_sim_wall_per_sim_day_seconds",
                    self.day_wall_start.elapsed().as_secs_f64(),
                );
                self.day_wall_start = Instant::now();
                self.next_day_s += SECONDS_PER_DAY;
            }
        }
    }

    /// True when nothing can happen this interval without an external
    /// wake: no job running and no released job fits the free nodes.
    fn idle_now(&self) -> bool {
        self.running.is_empty() && !self.scheduler.any_pending_fits(self.free_live_nodes())
    }

    /// Earliest step that could change an idle cluster's state: the
    /// next scheduled fault (`fault_cursor` already points at it), the
    /// conservatively early next arrival hint, or `end_step`.
    fn next_wake_step(&self, end_step: usize) -> usize {
        let mut wake = end_step;
        if let Some(event) = self.fault_plan.events().get(self.fault_cursor) {
            wake = wake.min(event.step);
        }
        if let Some(submit_s) = self.scheduler.next_arrival_s() {
            wake = wake.min(arrival_hint_step(submit_s, self.config.interval_s));
        }
        wake
    }

    /// Folds one interval log into the violation tallies and telemetry,
    /// and into the running total policies observe through
    /// [`PolicyContext::violation_s`].
    fn tally_violation(&mut self, log: &IntervalLog) {
        if log.violation {
            self.budget_violations += 1;
            self.violation_s_total += self.config.interval_s;
            if self.recorder.enabled() {
                self.recorder
                    .counter_inc("perq_sim_budget_violations_total");
                self.recorder
                    .gauge_set("perq_sim_budget_violation_seconds", self.violation_s_total);
            }
        }
    }

    /// End-of-run epilogue: closes out still-running jobs and assembles
    /// the [`SimResult`].
    pub(crate) fn finish(&mut self, policy_name: &str) -> SimResult {
        for job in self.running.drain(..) {
            self.records.push(JobRecord {
                app_name: job.app.name.clone(),
                spec: job.spec,
                start_s: job.start_s,
                end_s: self.config.duration_s,
                progress_s: job.progress_s,
                outcome: JobOutcome::Unfinished,
            });
        }
        self.footprints.clear();
        self.busy_nodes = 0;
        self.records.sort_by_key(|r| r.spec.id);

        SimResult {
            policy: policy_name.to_string(),
            f: self.config.over_provisioning_factor(),
            records: std::mem::take(&mut self.records),
            intervals: std::mem::take(&mut self.intervals),
            traces: std::mem::take(&mut self.traces),
            budget_violations: self.budget_violations,
            budget_violation_s: self.violation_s_total,
            faults: std::mem::take(&mut self.fault_log),
            recovery_latency_s: std::mem::take(&mut self.recovery_latency_s),
            decision_times_s: std::mem::take(&mut self.scratch.decision_times_s),
        }
    }

    /// Live (non-offline) nodes not occupied by running jobs.
    pub(crate) fn free_live_nodes(&self) -> usize {
        (self.config.nodes - self.offline_nodes).saturating_sub(self.busy_nodes)
    }

    /// Synthesizes idle intervals — no running jobs, nothing startable,
    /// no fault or arrival due — from the current step up to (not
    /// including) `wake_step`, bounded by the window end. Reproduces
    /// the stepper byte-for-byte: interval times accumulate by the same
    /// repeated `+= interval_s`, the step counter advances in bulk, the
    /// idle gauges take their last-write-wins values, and the recorder
    /// clock ratchets to the last synthesized interval's start time (so
    /// journal events stamped after the run agree with the stepper's).
    /// Returns the number of intervals skipped.
    fn skip_idle_until(&mut self, wake_step: usize) -> u64 {
        debug_assert!(self.running.is_empty(), "cannot skip busy intervals");
        let dt = self.config.interval_s;
        let live = self.config.nodes - self.offline_nodes;
        let idle_power = live as f64 * self.config.idle_w;
        let mut last_t = self.time_s;
        let mut skipped = 0u64;
        // Bulk-synthesize most of the gap through one sized `extend`
        // (a single reservation, no per-push bookkeeping) — this loop
        // is the run's floor on sparse traces. The interval
        // times must accumulate by the same repeated `+= dt` as the
        // stepper, so the bulk count is derived conservatively (two
        // steps short of the window end, more than covering any float
        // drift of the accumulated clock against `k * dt`) and the
        // exact tail loop below finishes against the stepper's own
        // `time_s < duration_s` test.
        let window = if self.time_s < self.config.duration_s {
            (((self.config.duration_s - self.time_s) / dt).floor() as usize).saturating_sub(2)
        } else {
            0
        };
        let bulk = wake_step.saturating_sub(self.step_idx).min(window);
        if bulk > 0 {
            let mut t = self.time_s;
            self.intervals.extend((0..bulk).map(|_| {
                let log = IntervalLog {
                    t_s: t,
                    busy_nodes: 0,
                    running_jobs: 0,
                    total_power_w: idle_power,
                    committed_power_w: idle_power,
                    // `validate()` guarantees full-machine idle fits
                    // the budget, so an idle interval never violates.
                    violation: false,
                };
                last_t = t;
                t += dt;
                log
            }));
            self.time_s = t;
            self.step_idx += bulk;
            skipped += bulk as u64;
        }
        while self.step_idx < wake_step && self.time_s < self.config.duration_s {
            last_t = self.time_s;
            self.intervals.push(IntervalLog {
                t_s: last_t,
                busy_nodes: 0,
                running_jobs: 0,
                total_power_w: idle_power,
                committed_power_w: idle_power,
                violation: false,
            });
            self.time_s += dt;
            self.step_idx += 1;
            skipped += 1;
        }
        if skipped > 0 && self.recorder.enabled() {
            self.recorder.set_time_s(last_t);
            self.recorder.counter_add("perq_sim_steps_total", skipped);
            self.recorder.gauge_set("perq_sim_power_w", idle_power);
            // The stepper writes this gauge every idle interval; its
            // last write is at `last_t`, so under a budget schedule the
            // bulk path must read the curve there, not at the wake step
            // the clock has already advanced to.
            self.recorder
                .gauge_set("perq_sim_budget_w", self.effective_budget_at(last_t));
            self.recorder
                .gauge_set("perq_sim_committed_power_w", idle_power);
            self.recorder
                .gauge_set("perq_sim_queue_depth", self.scheduler.pending() as f64);
            self.recorder.gauge_set("perq_sim_running_jobs", 0.0);
            self.recorder.gauge_set("perq_sim_busy_nodes", 0.0);
            self.recorder
                .gauge_set("perq_sim_offline_nodes", self.offline_nodes as f64);
        }
        skipped
    }

    /// Executes one control interval; returns its log entry.
    fn step(&mut self, policy: &mut dyn PowerPolicy) -> IntervalLog {
        let dt = self.config.interval_s;
        // Telemetry timestamps follow simulated time, never wall time.
        self.recorder.set_time_s(self.time_s);

        // 0. Fault injection: apply every event due at this step.
        self.apply_due_faults(policy);
        let live_nodes = self.config.nodes - self.offline_nodes;

        // 1. Arrivals, then scheduling (onto live nodes only).
        //    `footprints` and `busy_nodes` mirror `running` on delta, so
        //    no rescan here. The started list is a reused scratch buffer.
        self.scheduler.release_due(self.time_s);
        let free = live_nodes.saturating_sub(self.busy_nodes);
        let mut started = std::mem::take(&mut self.scratch.started);
        self.schedule_started(free, &mut started);
        for spec in started.drain(..) {
            let app = self.apps[spec.app_index].clone();
            let limits = CapLimits::new(self.config.cap_min_w, self.config.tdp_w);
            let rapl = SimulatedRapl::new(limits, 0.005, 0.01, self.rapl_seed(spec.id));
            self.push_running(RunningJob {
                cap_w: self.config.tdp_w,
                app,
                start_s: self.time_s,
                progress_s: 0.0,
                rapl,
                last_ips: None,
                last_power_w: None,
                is_new: true,
                ips_hidden_until: 0,
                power_stale_until: 0,
                corrupt_power_factor: None,
                spec,
            });
        }
        self.scratch.started = started;

        // 2. Policy decision. Offline nodes draw nothing and charge
        //    nothing, so their share of the budget flows to the survivors
        //    (the paper's reclamation step, applied to capacity loss).
        let busy = self.busy_nodes;
        let idle = live_nodes.saturating_sub(busy);
        let busy_budget = self.effective_budget_w() - idle as f64 * self.config.idle_w;
        self.scratch.views.clear();
        for j in &self.running {
            self.scratch.views.push(JobView {
                id: j.spec.id,
                size: j.spec.size,
                elapsed_s: self.time_s - j.start_s,
                measured_ips: j.last_ips,
                current_cap_w: j.cap_w,
                measured_power_w: j.last_power_w,
                remaining_node_hours: (j.spec.runtime_tdp_s - j.progress_s).max(0.0)
                    * j.spec.size as f64
                    / 3600.0,
                is_new: j.is_new,
            });
        }
        let running_jobs = self.scratch.views.len();
        let ctx = PolicyContext {
            time_s: self.time_s,
            interval_s: dt,
            busy_budget_w: busy_budget,
            cap_min_w: self.config.cap_min_w,
            cap_max_w: self.config.tdp_w,
            total_nodes: self.config.nodes,
            wp_nodes: self.config.wp_nodes,
            queue_depth: self.scheduler.pending(),
            violation_s: self.violation_s_total,
            jobs: &self.scratch.views,
        };
        let decision_start = Instant::now();
        let assignments = policy.assign(&ctx);
        self.scratch
            .decision_times_s
            .push(decision_start.elapsed().as_secs_f64());
        assert_eq!(
            assignments.len(),
            self.running.len(),
            "policy {} returned {} assignments for {} jobs",
            policy.name(),
            assignments.len(),
            self.running.len()
        );

        // 3. Clamp caps to the admissible RAPL window. The budget is on
        //    *consumed* power (§2.4.1: "the overall power usage of the
        //    system remains below the system power budget"): caps are the
        //    enforcement mechanism, and a policy that over-commits caps on
        //    jobs that do not draw them is using the over-provisioning
        //    headroom exactly as intended. Consumption above the budget is
        //    recorded as a violation after the interval (step 4).
        self.scratch.caps.clear();
        self.scratch.caps.extend(
            assignments
                .iter()
                .map(|a| a.cap_w.clamp(self.config.cap_min_w, self.config.tdp_w)),
        );
        let caps = &self.scratch.caps;
        let committed_after: f64 = caps
            .iter()
            .zip(self.running.iter())
            .map(|(&c, j)| c * j.spec.size as f64)
            .sum();

        // 4. Advance jobs.
        let mut total_power = idle as f64 * self.config.idle_w;
        for (i, job) in self.running.iter_mut().enumerate() {
            job.cap_w = caps[i];
            job.rapl.request_cap(caps[i]);
            let elapsed = self.time_s - job.start_s;
            let cap_frac = caps[i] / self.config.tdp_w;
            let perf = job.app.perf_frac(cap_frac, elapsed);
            let demand_w = job.app.phase(elapsed).demand_frac * self.config.tdp_w;
            let consumed = job.rapl.advance(dt, demand_w);
            total_power += consumed * job.spec.size as f64;

            // Power telemetry: faults corrupt what the policy *sees*, not
            // the physics — consumption above stays ground truth.
            let true_power = job.rapl.measured_power();
            job.last_power_w = if self.step_idx < job.power_stale_until {
                // Stale sensor: the previous reading is repeated.
                Some(job.last_power_w.unwrap_or(true_power))
            } else if let Some(factor) = job.corrupt_power_factor.take() {
                Some(true_power * factor)
            } else {
                Some(true_power)
            };

            job.progress_s += perf * dt;

            // IPS telemetry (with optional noise, dropout, and injected
            // blackouts).
            let true_ips = job.spec.size as f64 * BASE_NODE_IPS * perf;
            let noise = self
                .ips_noise
                .map(|n| n.sample(&mut self.rng))
                .unwrap_or(0.0);
            let measured = (true_ips * (1.0 + noise)).max(0.0);
            let dropped = self.config.ips_dropout_prob > 0.0
                && self.rng.gen_bool(self.config.ips_dropout_prob);
            let hidden = self.step_idx < job.ips_hidden_until;
            job.last_ips = if dropped || hidden {
                None
            } else {
                Some(measured)
            };
            job.is_new = false;

            if self.config.trace_all || self.trace_set.contains(&job.spec.id) {
                self.traces
                    .entry(job.spec.id)
                    .or_default()
                    .points
                    .push(TracePoint {
                        t_s: self.time_s,
                        cap_w: caps[i],
                        ips: measured,
                        power_w: job.rapl.measured_power(),
                        target_ips: assignments[i].target_ips,
                    });
            }

            // Completion / crash.
            if job.progress_s >= job.spec.runtime_tdp_s {
                let overshoot = job.progress_s - job.spec.runtime_tdp_s;
                let end = if perf > 1e-12 {
                    self.time_s + dt - overshoot / perf
                } else {
                    self.time_s + dt
                };
                self.scratch.finished.push(i);
                self.records.push(JobRecord {
                    app_name: job.app.name.clone(),
                    spec: job.spec.clone(),
                    start_s: job.start_s,
                    end_s: end,
                    progress_s: job.spec.runtime_tdp_s,
                    outcome: JobOutcome::Completed,
                });
            } else if self.config.crash_prob > 0.0 && self.rng.gen_bool(self.config.crash_prob) {
                self.scratch.finished.push(i);
                self.records.push(JobRecord {
                    app_name: job.app.name.clone(),
                    spec: job.spec.clone(),
                    start_s: job.start_s,
                    end_s: self.time_s + dt,
                    progress_s: job.progress_s,
                    outcome: JobOutcome::Crashed,
                });
            }
        }
        // `finished` is ascending; popping removes back-to-front so the
        // swap never disturbs a still-pending index.
        while let Some(i) = self.scratch.finished.pop() {
            let job = self.swap_remove_running(i);
            policy.job_departed(job.spec.id);
        }

        // Violation threshold includes a 0.05% allowance for the RAPL
        // actuation transient: a cap reduction takes ~5 ms to propagate,
        // during which the old (higher) cap is still enforced — a
        // physical artifact bounded by (delay/interval)·ΔP per node, not
        // a policy error.
        let violation = total_power > self.effective_budget_w() * 1.0005;
        let log = IntervalLog {
            t_s: self.time_s,
            busy_nodes: busy,
            running_jobs,
            total_power_w: total_power,
            committed_power_w: committed_after + idle as f64 * self.config.idle_w,
            violation,
        };
        if self.recorder.enabled() {
            self.recorder.counter_inc("perq_sim_steps_total");
            self.recorder.gauge_set("perq_sim_power_w", total_power);
            self.recorder
                .gauge_set("perq_sim_budget_w", self.effective_budget_w());
            self.recorder
                .gauge_set("perq_sim_committed_power_w", log.committed_power_w);
            self.recorder
                .gauge_set("perq_sim_queue_depth", self.scheduler.pending() as f64);
            self.recorder
                .gauge_set("perq_sim_running_jobs", log.running_jobs as f64);
            self.recorder.gauge_set("perq_sim_busy_nodes", busy as f64);
            self.recorder
                .gauge_set("perq_sim_offline_nodes", self.offline_nodes as f64);
        }
        self.time_s += dt;
        self.step_idx += 1;
        log
    }

    /// Picks the jobs to start this interval into `out`: the heap-based
    /// scheduler over the incremental mirrors, or the rescan oracle
    /// when enabled.
    fn schedule_started(&mut self, free: usize, out: &mut Vec<JobSpec>) {
        #[cfg(test)]
        if self.rescan_oracle {
            out.clear();
            out.extend(self.schedule_via_rescan(free));
            return;
        }
        self.scheduler.schedule_with_scratch_into(
            self.time_s,
            free,
            &self.footprints,
            &mut self.sched_scratch,
            out,
        );
    }

    /// Pre-overhaul reference path: rebuild the footprints with a full
    /// rescan of `running` and reserve via the sorting scheduler,
    /// cross-checking the incremental mirrors on the way.
    #[cfg(test)]
    fn schedule_via_rescan(&mut self, free: usize) -> Vec<JobSpec> {
        let footprints: Vec<RunningFootprint> = self
            .running
            .iter()
            .map(|j| RunningFootprint {
                size: j.spec.size,
                estimated_end_s: j.start_s + j.spec.runtime_estimate_s,
            })
            .collect();
        let busy: usize = self.running.iter().map(|j| j.spec.size).sum();
        assert_eq!(busy, self.busy_nodes, "busy-node mirror out of sync");
        assert_eq!(footprints, self.footprints, "footprint mirror out of sync");
        self.scheduler.schedule(self.time_s, free, &footprints)
    }

    /// Applies every fault-plan event due at the current step. Targets
    /// are resolved deterministically (`nth % running_jobs`), so a fixed
    /// plan on a fixed workload yields an identical applied-fault log on
    /// every run.
    fn apply_due_faults(&mut self, policy: &mut dyn PowerPolicy) {
        while self.fault_cursor < self.fault_plan.events().len()
            && self.fault_plan.events()[self.fault_cursor].step <= self.step_idx
        {
            let event = self.fault_plan.events()[self.fault_cursor];
            self.fault_cursor += 1;
            let mut job_id = None;
            match event.kind {
                FaultKind::NodeCrash { count } => {
                    // Never take the machine below one live node.
                    let live = self.config.nodes - self.offline_nodes;
                    let count = count.min(live.saturating_sub(1));
                    if count == 0 {
                        continue;
                    }
                    self.offline_nodes += count;
                    for _ in 0..count {
                        self.crash_times.push_back(self.time_s);
                    }
                    self.displace_jobs_over_capacity(policy);
                }
                FaultKind::NodeRecover { count } => {
                    let count = count.min(self.offline_nodes);
                    if count == 0 {
                        continue;
                    }
                    self.offline_nodes -= count;
                    for _ in 0..count {
                        if let Some(t0) = self.crash_times.pop_front() {
                            self.recovery_latency_s.push(self.time_s - t0);
                        }
                    }
                }
                FaultKind::TelemetryDropout { nth, intervals } => {
                    if self.running.is_empty() {
                        continue;
                    }
                    let idx = nth % self.running.len();
                    let job = &mut self.running[idx];
                    job.ips_hidden_until = self.step_idx + intervals;
                    job_id = Some(job.spec.id);
                }
                FaultKind::StalePower { nth, intervals } => {
                    if self.running.is_empty() {
                        continue;
                    }
                    let idx = nth % self.running.len();
                    let job = &mut self.running[idx];
                    job.power_stale_until = self.step_idx + intervals;
                    job_id = Some(job.spec.id);
                }
                FaultKind::CorruptPower { nth, factor } => {
                    if self.running.is_empty() {
                        continue;
                    }
                    let idx = nth % self.running.len();
                    let job = &mut self.running[idx];
                    job.corrupt_power_factor = Some(factor);
                    job_id = Some(job.spec.id);
                }
                FaultKind::JobKill { nth } => {
                    if self.running.is_empty() {
                        continue;
                    }
                    let job = self.remove_running(nth % self.running.len());
                    job_id = Some(job.spec.id);
                    policy.job_departed(job.spec.id);
                    self.records.push(JobRecord {
                        app_name: job.app.name.clone(),
                        spec: job.spec,
                        start_s: job.start_s,
                        end_s: self.time_s,
                        progress_s: job.progress_s,
                        outcome: JobOutcome::Killed,
                    });
                }
            }
            if self.recorder.enabled() {
                self.recorder.counter_inc("perq_sim_faults_total");
                let kind = match event.kind {
                    FaultKind::NodeCrash { .. } => "node_crash",
                    FaultKind::NodeRecover { .. } => "node_recover",
                    FaultKind::TelemetryDropout { .. } => "telemetry_dropout",
                    FaultKind::StalePower { .. } => "stale_power",
                    FaultKind::CorruptPower { .. } => "corrupt_power",
                    FaultKind::JobKill { .. } => "job_kill",
                };
                let mut fields = vec![
                    ("step", FieldValue::U64(self.step_idx as u64)),
                    ("kind", FieldValue::Str(kind)),
                    ("nodes_offline", FieldValue::U64(self.offline_nodes as u64)),
                ];
                if let Some(id) = job_id {
                    fields.push(("job_id", FieldValue::U64(id)));
                }
                self.recorder.event("perq_sim_fault", &fields);
            }
            self.fault_log.push(AppliedFault {
                t_s: self.time_s,
                step: self.step_idx,
                kind: event.kind,
                job_id,
                nodes_offline_after: self.offline_nodes,
            });
        }
    }

    /// After a capacity loss, displaces the most recently started jobs
    /// until the busy footprint fits the live machine. Displaced jobs
    /// lose their progress but return to the queue head, restarting once
    /// capacity allows — graceful degradation instead of a wedge.
    fn displace_jobs_over_capacity(&mut self, policy: &mut dyn PowerPolicy) {
        let live = self.config.nodes - self.offline_nodes;
        while self.busy_nodes > live && !self.running.is_empty() {
            let (idx, _) = self
                .running
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.start_s
                        .partial_cmp(&b.start_s)
                        .expect("finite start times")
                        .then(ia.cmp(ib))
                })
                .expect("non-empty running list");
            let job = self.remove_running(idx);
            policy.job_departed(job.spec.id);
            self.scheduler.requeue_front(job.spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultRates};
    use crate::policy::FairPolicy;
    use crate::trace::{SystemModel, TraceGenerator};

    fn small_config(f: f64, duration: f64) -> ClusterConfig {
        let system = SystemModel::tardis();
        let mut c = ClusterConfig::for_system(&system, f, duration);
        c.ips_noise_rel = 0.0;
        c
    }

    fn small_trace(n: usize) -> Vec<JobSpec> {
        TraceGenerator::new(SystemModel::tardis(), 11).generate(n)
    }

    #[test]
    fn budget_never_exceeded_by_committed_power() {
        let config = small_config(2.0, 1800.0);
        let budget = config.budget_w();
        let mut cluster = Cluster::new(config, small_trace(100), 1);
        let result = cluster.run(&mut FairPolicy::new());
        for log in &result.intervals {
            // FOP is conservative: its caps sum to the budget, so both the
            // committed (worst-case) and consumed power stay below it.
            assert!(
                log.committed_power_w <= budget + 1e-6,
                "committed {} > budget {budget} at t={}",
                log.committed_power_w,
                log.t_s
            );
            assert!(log.total_power_w <= budget * 1.0005);
            assert!(log.total_power_w <= log.committed_power_w * 1.0005);
        }
        assert_eq!(result.budget_violations, 0, "FOP must respect the budget");
    }

    #[test]
    fn all_jobs_at_tdp_when_underprovisioned() {
        // f = 1: FOP share = budget/busy >= TDP, so caps clamp at TDP and
        // every job runs at full speed.
        let config = small_config(1.0, 3600.0);
        let mut cluster = Cluster::new(config, small_trace(40), 1);
        let result = cluster.run(&mut FairPolicy::new());
        for rec in result.completed() {
            assert!(
                (rec.slowdown() - 1.0).abs() < 0.05,
                "job {} slowdown {}",
                rec.spec.id,
                rec.slowdown()
            );
        }
        assert!(result.throughput() > 0);
    }

    #[test]
    fn over_provisioned_fop_caps_below_tdp_and_slows_sensitive_jobs() {
        let config = small_config(2.0, 3600.0);
        let mut cluster = Cluster::new(config, small_trace(60), 1);
        let result = cluster.run(&mut FairPolicy::new());
        let slow = result.completed().filter(|r| r.slowdown() > 1.05).count();
        assert!(slow > 0, "power capping should slow some jobs");
    }

    #[test]
    fn throughput_increases_with_overprovisioning() {
        let t1 = {
            let mut c = Cluster::new(small_config(1.0, 4.0 * 3600.0), small_trace(400), 7);
            c.run(&mut FairPolicy::new()).throughput()
        };
        let t2 = {
            let mut c = Cluster::new(small_config(2.0, 4.0 * 3600.0), small_trace(400), 7);
            c.run(&mut FairPolicy::new()).throughput()
        };
        assert!(t2 > t1, "f=2 ({t2}) should beat f=1 ({t1})");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut c = Cluster::new(small_config(1.5, 1800.0), small_trace(50), 99);
            c.run(&mut FairPolicy::new())
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.throughput(), b.throughput());
    }

    #[test]
    fn traces_recorded_for_requested_jobs() {
        let mut config = small_config(1.0, 900.0);
        config.trace_jobs = vec![0];
        let mut cluster = Cluster::new(config, small_trace(10), 1);
        let result = cluster.run(&mut FairPolicy::new());
        let trace = result.traces.get(&0).expect("job 0 traced");
        assert!(!trace.points.is_empty());
        for p in &trace.points {
            assert!(p.cap_w >= 90.0 && p.cap_w <= 290.0);
            assert!(p.ips >= 0.0);
        }
    }

    #[test]
    fn crash_injection_produces_crashed_records() {
        let mut config = small_config(1.0, 3600.0);
        config.crash_prob = 0.05;
        let mut cluster = Cluster::new(config, small_trace(50), 5);
        let result = cluster.run(&mut FairPolicy::new());
        assert!(result
            .records
            .iter()
            .any(|r| r.outcome == JobOutcome::Crashed));
    }

    #[test]
    fn ips_dropout_hides_reports_but_sim_continues() {
        struct AssertingPolicy {
            inner: FairPolicy,
            saw_none: bool,
        }
        impl PowerPolicy for AssertingPolicy {
            fn name(&self) -> &str {
                "assert"
            }
            fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<crate::policy::PowerAssignment> {
                if ctx
                    .jobs
                    .iter()
                    .any(|j| j.measured_ips.is_none() && !j.is_new)
                {
                    self.saw_none = true;
                }
                self.inner.assign(ctx)
            }
        }
        let mut config = small_config(1.0, 1800.0);
        config.ips_dropout_prob = 0.5;
        let mut cluster = Cluster::new(config, small_trace(20), 5);
        let mut policy = AssertingPolicy {
            inner: FairPolicy::new(),
            saw_none: false,
        };
        let result = cluster.run(&mut policy);
        assert!(policy.saw_none, "dropouts should surface as None");
        assert!(result.throughput() > 0);
    }

    #[test]
    fn unfinished_jobs_are_recorded_at_window_close() {
        // One very long job in a short window.
        let jobs = vec![JobSpec {
            id: 0,
            app_index: 0,
            size: 4,
            runtime_tdp_s: 1e6,
            runtime_estimate_s: 1.3e6,
            submit_s: 0.0,
        }];
        let mut cluster = Cluster::new(small_config(1.0, 600.0), jobs, 1);
        let result = cluster.run(&mut FairPolicy::new());
        assert_eq!(result.throughput(), 0);
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].outcome, JobOutcome::Unfinished);
        assert!(result.records[0].progress_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "budget cannot even idle")]
    fn impossible_idle_budget_rejected() {
        let system = SystemModel::tardis();
        let mut config = ClusterConfig::for_system(&system, 2.0, 600.0);
        config.idle_w = 400.0; // more than TDP/2 per node at f=2
        Cluster::new(config, Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversized_job_rejected() {
        let jobs = vec![JobSpec {
            id: 0,
            app_index: 0,
            size: 10_000,
            runtime_tdp_s: 100.0,
            runtime_estimate_s: 130.0,
            submit_s: 0.0,
        }];
        Cluster::new(small_config(1.0, 600.0), jobs, 1);
    }

    fn long_jobs(n: usize) -> Vec<JobSpec> {
        (0..n as u64)
            .map(|id| JobSpec {
                id,
                app_index: 0,
                size: 1,
                runtime_tdp_s: 1e6,
                runtime_estimate_s: 1.3e6,
                submit_s: 0.0,
            })
            .collect()
    }

    #[test]
    fn node_crash_shrinks_capacity_and_recovery_is_timed() {
        // 8 live nodes, 8 single-node jobs; lose 2 nodes at step 5 and get
        // them back at step 20.
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 5,
                kind: FaultKind::NodeCrash { count: 2 },
            },
            FaultEvent {
                step: 20,
                kind: FaultKind::NodeRecover { count: 2 },
            },
        ]);
        let mut cluster =
            Cluster::new(small_config(1.0, 300.0), long_jobs(8), 1).with_fault_plan(plan);
        let result = cluster.run(&mut FairPolicy::new());

        assert_eq!(result.faults.len(), 2);
        assert_eq!(result.faults[0].nodes_offline_after, 2);
        assert_eq!(result.faults[1].nodes_offline_after, 0);
        // Two jobs are displaced while the machine is short, and restart
        // after the recovery.
        for log in &result.intervals {
            let expected = if (50.0..200.0).contains(&log.t_s) {
                6
            } else {
                8
            };
            assert_eq!(log.busy_nodes, expected, "at t={}", log.t_s);
        }
        // Crash at t=50, recovery at t=200: 150 s latency per node.
        assert_eq!(result.recovery_latency_s, vec![150.0, 150.0]);
        assert_eq!(result.budget_violations, 0);
    }

    #[test]
    fn displaced_job_requeues_and_completes_after_recovery() {
        // One 8-node job on an 8-node machine; losing any node displaces
        // it. It must restart from scratch once the node returns and still
        // complete — one record, outcome Completed.
        let jobs = vec![JobSpec {
            id: 0,
            app_index: 0,
            size: 8,
            runtime_tdp_s: 100.0,
            runtime_estimate_s: 130.0,
            submit_s: 0.0,
        }];
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 2,
                kind: FaultKind::NodeCrash { count: 1 },
            },
            FaultEvent {
                step: 5,
                kind: FaultKind::NodeRecover { count: 1 },
            },
        ]);
        let mut cluster = Cluster::new(small_config(1.0, 600.0), jobs, 1).with_fault_plan(plan);
        let result = cluster.run(&mut FairPolicy::new());

        assert_eq!(result.records.len(), 1, "{:?}", result.records);
        let rec = &result.records[0];
        assert_eq!(rec.outcome, JobOutcome::Completed);
        assert_eq!(rec.start_s, 50.0, "restart must wait for the recovery");
        assert!(rec.slowdown() < 1.05, "slowdown {}", rec.slowdown());
        assert_eq!(result.recovery_latency_s, vec![30.0]);
    }

    #[test]
    fn job_kill_produces_killed_record() {
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 3,
            kind: FaultKind::JobKill { nth: 0 },
        }]);
        let mut cluster =
            Cluster::new(small_config(1.0, 300.0), long_jobs(2), 1).with_fault_plan(plan);
        let result = cluster.run(&mut FairPolicy::new());

        let killed: Vec<_> = result
            .records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Killed)
            .collect();
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].spec.id, 0);
        assert_eq!(killed[0].end_s, 30.0);
        assert_eq!(result.faults.len(), 1);
        assert_eq!(result.faults[0].job_id, Some(0));
        // The survivor runs to the window close.
        assert!(result
            .records
            .iter()
            .any(|r| r.spec.id == 1 && r.outcome == JobOutcome::Unfinished));
    }

    #[test]
    fn generated_fault_plan_replays_bit_for_bit() {
        let config = small_config(2.0, 1800.0);
        let steps = (config.duration_s / config.interval_s) as usize;
        let run = || {
            let plan = FaultPlan::generate(13, steps, &FaultRates::aggressive());
            let mut c =
                Cluster::new(small_config(2.0, 1800.0), small_trace(40), 99).with_fault_plan(plan);
            c.run(&mut FairPolicy::new())
        };
        let a = run();
        let b = run();
        assert!(!a.faults.is_empty(), "aggressive plan must apply faults");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.records, b.records);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.recovery_latency_s, b.recovery_latency_s);
        assert_eq!(a.budget_violations, b.budget_violations);
        // budget_violation_s is the violation count expressed in seconds.
        let expected_s = a.budget_violations as f64 * config.interval_s;
        assert!((a.budget_violation_s - expected_s).abs() < 1e-9);
    }

    #[test]
    fn incremental_hot_path_matches_rescan_oracle() {
        // The oracle is the pre-overhaul loop: footprints rebuilt by a
        // full rescan each interval and the reservation computed by a
        // stable sort. On a recorded scenario with an aggressive fault
        // plan (crashes, displacement, kills — every mirror mutation
        // path), the incremental heap path must reproduce the exact
        // IntervalLog sequence, records, and fault log. The oracle run
        // additionally cross-checks the mirrors against a fresh scan at
        // every step.
        let config = small_config(2.0, 1800.0);
        let steps = (config.duration_s / config.interval_s) as usize;
        let run = |oracle: bool| {
            let plan = FaultPlan::generate(13, steps, &FaultRates::aggressive());
            let mut c =
                Cluster::new(small_config(2.0, 1800.0), small_trace(40), 99).with_fault_plan(plan);
            c.set_rescan_oracle(oracle);
            // The oracle predates the seeded RAPL-derivation fix; pin
            // the fast run to the legacy seeds so the comparison is
            // byte-for-byte.
            c.set_legacy_rapl_seed(true);
            c.run(&mut FairPolicy::new())
        };
        let fast = run(false);
        let slow = run(true);
        assert!(!slow.faults.is_empty(), "scenario must exercise faults");
        assert_eq!(fast.intervals, slow.intervals);
        assert_eq!(fast.records, slow.records);
        assert_eq!(fast.faults, slow.faults);
        assert_eq!(fast.recovery_latency_s, slow.recovery_latency_s);
        assert!(fast.same_simulation(&slow));
    }

    #[test]
    fn rapl_seeds_mix_in_the_cluster_seed() {
        // Same jobs, different cluster seeds: with the legacy derivation
        // (`job_id ^ 0xABCD`, cluster seed ignored) every cluster drew
        // identical RAPL measurement-noise streams, so the measured
        // power traces matched point-for-point across seeds. The
        // splitmix64 fix decouples them. RAPL noise only perturbs
        // *measured* power, so the traced `power_w` is the observable.
        let run = |seed: u64| {
            let mut config = small_config(2.0, 900.0);
            config.trace_all = true;
            config.crash_prob = 0.0;
            let mut c = Cluster::new(config, small_trace(20), seed);
            c.run(&mut FairPolicy::new())
        };
        let a = run(1);
        let b = run(2);
        let powers = |r: &SimResult| -> Vec<f64> {
            let mut ids: Vec<u64> = r.traces.keys().copied().collect();
            ids.sort_unstable();
            ids.iter()
                .flat_map(|id| r.traces[id].points.iter().map(|p| p.power_w))
                .collect()
        };
        assert!(
            powers(&a)
                .iter()
                .zip(powers(&b).iter())
                .any(|(x, y)| x != y),
            "different cluster seeds must drive different RAPL noise"
        );
        // And the derivation stays deterministic per seed.
        assert!(run(1).same_simulation(&a));
    }

    #[test]
    fn arrival_workload_idles_until_jobs_arrive() {
        let mut config = small_config(1.0, 600.0);
        config.honor_arrivals = true;
        let jobs = vec![JobSpec {
            id: 0,
            app_index: 0,
            size: 2,
            runtime_tdp_s: 100.0,
            runtime_estimate_s: 130.0,
            submit_s: 200.0,
        }];
        let mut cluster = Cluster::new(config, jobs, 1);
        let result = cluster.run(&mut FairPolicy::new());
        for log in &result.intervals {
            let expected = if log.t_s < 200.0 || log.t_s >= 300.0 {
                0
            } else {
                2
            };
            assert_eq!(log.busy_nodes, expected, "at t={}", log.t_s);
        }
        assert_eq!(result.records[0].start_s, 200.0);
        assert_eq!(result.records[0].outcome, JobOutcome::Completed);
    }

    #[test]
    fn arrival_hints_are_never_late() {
        for (submit, dt, nominal) in [
            (0.0, 10.0, 0usize),
            (95.0, 10.0, 9usize),
            (100.0, 10.0, 10usize),
            (100.05, 0.1, 1000usize),
        ] {
            let hint = arrival_hint_step(submit, dt);
            assert!(hint <= nominal, "hint {hint} late for submit {submit}");
            assert!(nominal - hint <= 3, "hint {hint} too early for {submit}");
        }
    }

    #[test]
    fn premature_arrival_wake_executes_the_idle_interval() {
        // submit_s = 1005 on a 10 s clock: the hint is step 98, the
        // release is step 101. The skip must stop at 98 and *execute*
        // steps 98..=100 idle (one policy call each, like the stepper)
        // rather than synthesize past the arrival.
        let mut config = small_config(1.0, 2000.0);
        config.honor_arrivals = true;
        let jobs = vec![JobSpec {
            id: 0,
            app_index: 0,
            size: 2,
            runtime_tdp_s: 100.0,
            runtime_estimate_s: 130.0,
            submit_s: 1005.0,
        }];
        let run = |stepper: bool| {
            let recorder = Recorder::manual();
            let diag = Recorder::manual();
            let mut c = Cluster::new(config.clone(), jobs.clone(), 1)
                .with_recorder(recorder.clone())
                .with_engine_recorder(diag.clone());
            let result = if stepper {
                c.run_stepper(&mut FairPolicy::new())
            } else {
                c.run(&mut FairPolicy::new())
            };
            let executed = diag.counter_value("perq_sim_intervals_executed_total");
            (
                result,
                recorder.export_prometheus(),
                recorder.export_jsonl(),
                executed,
            )
        };
        let (skip, skip_prom, skip_jsonl, executed) = run(false);
        let (step, step_prom, step_jsonl, all) = run(true);
        assert!(skip.same_simulation(&step));
        assert_eq!(skip_prom, step_prom);
        assert_eq!(skip_jsonl, step_jsonl);
        assert_eq!(skip.records[0].start_s, 1010.0);
        assert_eq!(all as usize, step.intervals.len());
        // Three premature idle intervals (98, 99, 100) plus the job's
        // own run; everything else is skipped.
        let busy = skip.intervals.iter().filter(|l| l.running_jobs > 0).count();
        assert_eq!(executed as usize, busy + 3);
        assert_eq!(skip.decision_times_s.len(), busy + 3);
    }

    #[test]
    fn same_simulation_ignores_wall_clock_only() {
        let run = || {
            let mut c = Cluster::new(small_config(1.5, 900.0), small_trace(30), 7);
            c.run(&mut FairPolicy::new())
        };
        let a = run();
        let mut b = run();
        assert!(a.same_simulation(&b));
        b.decision_times_s.clear();
        assert!(a.same_simulation(&b), "wall-clock field must not matter");
        b.budget_violations += 1;
        assert!(!a.same_simulation(&b));
    }

    #[test]
    fn telemetry_faults_corrupt_what_the_policy_sees() {
        struct Recorder {
            inner: FairPolicy,
            powers: Vec<Option<f64>>,
            ips: Vec<Option<f64>>,
        }
        impl PowerPolicy for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<crate::policy::PowerAssignment> {
                if let Some(j) = ctx.jobs.iter().find(|j| j.id == 0) {
                    self.powers.push(j.measured_power_w);
                    self.ips.push(j.measured_ips);
                }
                self.inner.assign(ctx)
            }
        }
        let plan = FaultPlan::new(vec![
            FaultEvent {
                step: 5,
                kind: FaultKind::StalePower {
                    nth: 0,
                    intervals: 3,
                },
            },
            FaultEvent {
                step: 12,
                kind: FaultKind::CorruptPower {
                    nth: 0,
                    factor: 10.0,
                },
            },
            FaultEvent {
                step: 20,
                kind: FaultKind::TelemetryDropout {
                    nth: 0,
                    intervals: 2,
                },
            },
        ]);
        let mut cluster =
            Cluster::new(small_config(1.0, 400.0), long_jobs(1), 3).with_fault_plan(plan);
        let mut policy = Recorder {
            inner: FairPolicy::new(),
            powers: Vec::new(),
            ips: Vec::new(),
        };
        cluster.run(&mut policy);

        // Stale sensor at steps 5..8: the step-4 reading is repeated, so
        // the policy sees an identical value at steps 5..=8 (views lag the
        // measurement by one interval).
        let frozen = policy.powers[5].expect("reading present");
        for step in 6..=8 {
            assert_eq!(policy.powers[step], Some(frozen), "step {step}");
        }
        // Corruption at step 12 (factor 10) shows up in the step-13 view
        // as a physically impossible per-node reading.
        assert!(
            policy.powers[13].expect("reading present") > TDP_WATTS,
            "corrupt reading {:?} should exceed TDP",
            policy.powers[13]
        );
        // IPS blackout at steps 20..22: the policy sees None.
        assert!(policy.ips[19].is_some());
        assert!(policy.ips[21].is_none());
        assert!(policy.ips[22].is_none());
    }

    #[test]
    fn crash_never_takes_the_machine_below_one_node() {
        let plan = FaultPlan::new(vec![FaultEvent {
            step: 1,
            kind: FaultKind::NodeCrash { count: 100 },
        }]);
        let mut cluster =
            Cluster::new(small_config(1.0, 300.0), long_jobs(4), 1).with_fault_plan(plan);
        let result = cluster.run(&mut FairPolicy::new());
        assert_eq!(result.faults.len(), 1);
        assert_eq!(
            result.faults[0].nodes_offline_after, 7,
            "8-node machine keeps one live node"
        );
        assert_eq!(cluster.offline_nodes(), 7);
        assert!(result
            .intervals
            .iter()
            .skip(1)
            .all(|log| log.busy_nodes <= 1));
    }
}
