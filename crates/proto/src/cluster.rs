use crate::error::ProtoError;
use crate::messages::{Command, Report};
use crate::transport::{read_frame_retry_with, write_frame, write_frame_retry_with, RetryPolicy};
use crate::worker::NodeWorker;
use perq_apps::{ecp_suite, AppProfile, BASE_NODE_IPS, IDLE_WATTS, MIN_CAP_WATTS, TDP_WATTS};
use perq_sim::{
    AppliedFault, FaultKind, IntervalLog, JobOutcome, JobRecord, JobSpec, JobTrace, JobView,
    PolicyContext, PowerPolicy, Scheduler, SimResult, TracePoint,
};
use perq_telemetry::{FieldValue, Recorder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a prototype cluster run.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Worker node count (`N_OP`). The paper's Tardis has 15 workers + 1
    /// scheduler node.
    pub nodes: usize,
    /// Worst-case-provisioned node count (`N_WP`); budget = `N_WP·TDP`.
    pub wp_nodes: usize,
    /// Logical control-interval length in seconds (drives application
    /// phase behaviour; the wall-clock tick is as fast as the sockets
    /// allow).
    pub interval_s: f64,
    /// Maximum control intervals to run.
    pub max_intervals: usize,
    /// RNG seed (worker noise).
    pub seed: u64,
    /// Job ids to trace (Fig. 12 material).
    pub trace_jobs: Vec<u64>,
    /// Per-worker heartbeat: a node that produces no bytes for this long
    /// (per attempt; the retry policy may extend the total) is written
    /// off as crashed. `Duration::ZERO` disables the timeout.
    pub heartbeat_timeout: Duration,
    /// Retry/backoff policy for transient transport errors.
    pub retry: RetryPolicy,
    /// Fault injection: `(node_id, tick)` pairs; each worker drops its
    /// connection on the given 0-based control step, deterministically.
    pub crash_workers: Vec<(u32, usize)>,
}

impl ProtoConfig {
    /// A Tardis-like configuration: a fixed power budget of
    /// `wp_nodes · TDP` with `round(wp_nodes · f)` worker nodes — over-
    /// provisioning adds hardware under the same budget, exactly like the
    /// simulator's [`perq_sim::ClusterConfig::for_system`].
    pub fn tardis(wp_nodes: usize, f: f64, max_intervals: usize) -> Self {
        assert!(f >= 1.0, "over-provisioning factor must be >= 1");
        ProtoConfig {
            nodes: ((wp_nodes as f64) * f).round().max(1.0) as usize,
            wp_nodes,
            interval_s: 10.0,
            max_intervals,
            seed: 0x7461_7264,
            trace_jobs: Vec::new(),
            heartbeat_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            crash_workers: Vec::new(),
        }
    }

    /// System power budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.wp_nodes as f64 * TDP_WATTS
    }
}

/// A running job's controller-side state.
struct LiveJob {
    spec: JobSpec,
    app_name: String,
    nodes: Vec<u32>,
    start_interval: usize,
    /// Nodes whose share completed.
    done_nodes: Vec<u32>,
    /// Accumulated normalized work (TDP-equivalent seconds).
    progress_s: f64,
    cap_w: f64,
    last_job_ips: Option<f64>,
    last_node_power_w: Option<f64>,
    is_new: bool,
}

/// The prototype cluster: spawns worker threads, connects them over
/// localhost TCP, and drives the control loop.
pub struct ProtoCluster {
    config: ProtoConfig,
    apps: Vec<AppProfile>,
    recorder: Recorder,
}

impl ProtoCluster {
    /// Creates a cluster with the ECP application suite.
    pub fn new(config: ProtoConfig) -> Self {
        ProtoCluster {
            config,
            apps: ecp_suite(),
            recorder: Recorder::noop(),
        }
    }

    /// Attaches a telemetry recorder (builder style). The controller
    /// drives the recorder's clock from logical interval time, counts
    /// every frame crossing its sockets, and journals worker write-offs,
    /// so one recorder covers the transport, the policy, and the solver.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the control loop over a job trace under the given policy.
    ///
    /// Spawns one thread per node, each holding a live TCP connection to
    /// this controller; joins them all before returning. Setup failures
    /// surface as typed [`ProtoError`]s. A node whose connection dies
    /// mid-run is *not* an error: the controller writes it off, kills any
    /// job that lost a rank, and reallocates the node's budget share to
    /// the survivors (the crash is logged in [`SimResult::faults`]).
    pub fn run(
        &self,
        jobs: Vec<JobSpec>,
        policy: &mut dyn PowerPolicy,
    ) -> Result<SimResult, ProtoError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ProtoError::Socket)?;
        let addr = listener.local_addr().map_err(ProtoError::Socket)?;

        // Spawn workers; each thread returns its typed outcome, checked
        // after the run.
        let node_ids = 0..self.config.nodes as u32;
        let handles: Vec<(u32, JoinHandle<Result<(), ProtoError>>)> = node_ids
            .map(|node_id| {
                let apps = self.apps.clone();
                let interval = self.config.interval_s;
                let seed = self.config.seed;
                let crash_at = self
                    .config
                    .crash_workers
                    .iter()
                    .find(|&&(n, _)| n == node_id)
                    .map(|&(_, tick)| tick);
                let handle = std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).map_err(ProtoError::Socket)?;
                    stream.set_nodelay(true).map_err(ProtoError::Socket)?;
                    let mut worker = NodeWorker::new(node_id, apps, interval, seed);
                    if let Some(tick) = crash_at {
                        worker = worker.with_crash_at_tick(tick);
                    }
                    worker.run(stream)
                });
                (node_id, handle)
            })
            .collect();

        // Accept registrations. The heartbeat timeout on every socket
        // bounds how long a hung worker can stall the control loop.
        let mut streams: BTreeMap<u32, TcpStream> = BTreeMap::new();
        for registered in 0..self.config.nodes {
            let (mut sock, _) = listener.accept().map_err(ProtoError::Socket)?;
            // A tick is two small frames out and one back per node: with
            // Nagle on, each waits out the peer's 40 ms delayed ACK.
            sock.set_nodelay(true).map_err(ProtoError::Socket)?;
            if !self.config.heartbeat_timeout.is_zero() {
                sock.set_read_timeout(Some(self.config.heartbeat_timeout))
                    .map_err(ProtoError::Socket)?;
            }
            let reg: Report = read_frame_retry_with(&mut sock, &self.config.retry, &self.recorder)
                .map_err(|source| ProtoError::Registration {
                    registered,
                    expected: self.config.nodes,
                    source,
                })?;
            streams.insert(reg.node_id, sock);
        }

        let (result, lost) = self.control_loop(&mut streams, jobs, policy);

        // Shut the survivors down (lost nodes' sockets are already gone).
        for sock in streams.values_mut() {
            let _ = write_frame(sock, &Command::Shutdown);
        }
        for (node_id, handle) in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                // A node the controller wrote off also saw the drop from
                // its side; that is the degradation working, not a bug.
                Ok(Err(ProtoError::ConnectionLost { .. })) if lost.contains(&node_id) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(ProtoError::WorkerPanic { node_id }),
            }
        }
        Ok(result)
    }

    /// Drives the per-interval control loop, degrading around node
    /// losses. Returns the run result plus the set of nodes written off.
    fn control_loop(
        &self,
        streams: &mut BTreeMap<u32, TcpStream>,
        jobs: Vec<JobSpec>,
        policy: &mut dyn PowerPolicy,
    ) -> (SimResult, BTreeSet<u32>) {
        let cfg = &self.config;
        let mut scheduler = Scheduler::new(jobs);
        let mut free_nodes: Vec<u32> = (0..cfg.nodes as u32).collect();
        let mut live: Vec<LiveJob> = Vec::new();
        let mut records: Vec<JobRecord> = Vec::new();
        let mut traces: HashMap<u64, JobTrace> = HashMap::new();
        let mut intervals: Vec<IntervalLog> = Vec::new();
        let mut decision_times = Vec::new();
        let mut violations = 0usize;
        let mut faults: Vec<AppliedFault> = Vec::new();
        let mut lost: BTreeSet<u32> = BTreeSet::new();
        let rec = self.recorder.clone();
        policy.set_recorder(rec.clone());

        for step in 0..cfg.max_intervals {
            let now_s = step as f64 * cfg.interval_s;
            // Telemetry timestamps follow logical interval time, so two
            // runs of the same configuration export identical journals
            // regardless of socket latency.
            rec.set_time_s(now_s);
            let mut newly_dead: BTreeSet<u32> = BTreeSet::new();

            // 1. Scheduling.
            let running_fp: Vec<perq_sim::RunningFootprint> = live
                .iter()
                .map(|j| perq_sim::RunningFootprint {
                    size: j.spec.size,
                    estimated_end_s: j.start_interval as f64 * cfg.interval_s
                        + j.spec.runtime_estimate_s,
                })
                .collect();
            let started = scheduler.schedule(now_s, free_nodes.len(), &running_fp);
            for spec in started {
                let assigned: Vec<u32> = free_nodes.drain(..spec.size).collect();
                let app = &self.apps[spec.app_index];
                let work_intervals = spec.runtime_tdp_s / cfg.interval_s;
                for &node in &assigned {
                    let sock = streams.get_mut(&node).expect("free node has a stream");
                    let launch = Command::Launch {
                        job_id: spec.id,
                        app: app.name.clone(),
                        work_intervals,
                    };
                    if write_frame_retry_with(sock, &launch, &cfg.retry, &rec).is_err() {
                        newly_dead.insert(node);
                    }
                }
                live.push(LiveJob {
                    app_name: app.name.clone(),
                    nodes: assigned,
                    start_interval: step,
                    done_nodes: Vec::new(),
                    progress_s: 0.0,
                    cap_w: TDP_WATTS,
                    last_job_ips: None,
                    last_node_power_w: None,
                    is_new: true,
                    spec,
                });
            }

            // 2. Policy decision.
            let idle = free_nodes.len();
            let busy_budget = cfg.budget_w() - idle as f64 * IDLE_WATTS;
            let views: Vec<JobView> = live
                .iter()
                .map(|j| JobView {
                    id: j.spec.id,
                    size: j.spec.size,
                    elapsed_s: (step - j.start_interval) as f64 * cfg.interval_s,
                    measured_ips: j.last_job_ips,
                    current_cap_w: j.cap_w,
                    measured_power_w: j.last_node_power_w,
                    remaining_node_hours: (j.spec.runtime_tdp_s - j.progress_s).max(0.0)
                        * j.spec.size as f64
                        / 3600.0,
                    is_new: j.is_new,
                })
                .collect();
            let ctx = PolicyContext {
                time_s: now_s,
                interval_s: cfg.interval_s,
                busy_budget_w: busy_budget,
                cap_min_w: MIN_CAP_WATTS,
                cap_max_w: TDP_WATTS,
                total_nodes: cfg.nodes,
                wp_nodes: cfg.wp_nodes,
                queue_depth: scheduler.pending(),
                violation_s: violations as f64 * cfg.interval_s,
                jobs: &views,
            };
            let t0 = Instant::now();
            let assignments = policy.assign(&ctx);
            decision_times.push(t0.elapsed().as_secs_f64());
            assert_eq!(assignments.len(), live.len(), "policy assignment count");

            // 3. Clamp caps to the RAPL window (the budget is checked on
            //    consumed power after the interval, as in the simulator).
            let caps: Vec<f64> = assignments
                .iter()
                .map(|a| a.cap_w.clamp(MIN_CAP_WATTS, TDP_WATTS))
                .collect();

            // 4. Send caps + tick everyone, gather reports. A transport
            //    failure on any leg marks the node dead; the step
            //    continues with whatever reports arrived.
            for (i, job) in live.iter_mut().enumerate() {
                job.cap_w = caps[i];
                for &node in &job.nodes {
                    if job.done_nodes.contains(&node) {
                        continue;
                    }
                    let Some(sock) = streams.get_mut(&node) else {
                        continue;
                    };
                    let cap = Command::SetCap { cap_w: caps[i] };
                    if write_frame_retry_with(sock, &cap, &cfg.retry, &rec).is_err() {
                        newly_dead.insert(node);
                    }
                }
            }
            for (&node, sock) in streams.iter_mut() {
                if newly_dead.contains(&node) {
                    continue;
                }
                if write_frame_retry_with(sock, &Command::Tick, &cfg.retry, &rec).is_err() {
                    newly_dead.insert(node);
                }
            }
            // Per node: its `(ips, power_w)` reading, if it sent a usable
            // one ([`Report::reading`]), and whether its share of the job
            // is done — protocol state, reported once, kept either way.
            let mut reports: BTreeMap<u32, (Option<(f64, f64)>, bool)> = BTreeMap::new();
            let mut rejected = 0u64;
            for (&node, sock) in streams.iter_mut() {
                if newly_dead.contains(&node) {
                    continue;
                }
                match read_frame_retry_with::<Report, _>(sock, &cfg.retry, &rec) {
                    Ok(r) => {
                        rejected += u64::from(r.reading().is_none());
                        reports.insert(node, (r.reading(), r.job_done));
                    }
                    Err(_) => {
                        newly_dead.insert(node);
                    }
                }
            }

            // 5. Digest reports per job.
            if rejected > 0 {
                rec.counter_add("perq_proto_reports_rejected_total", rejected);
            }
            let mut total_power: f64 = 0.0;
            for (_, power_w) in reports.values().filter_map(|r| r.0) {
                total_power += power_w;
            }
            let mut finished: Vec<usize> = Vec::new();
            for (ji, job) in live.iter_mut().enumerate() {
                // Slowest-rank IPS over the job's active nodes (§2.4:
                // "the IPS of the slowest job (MPI) process").
                let mut slowest: Option<f64> = None;
                let mut power_sum = 0.0;
                let mut power_n = 0usize;
                for &node in &job.nodes {
                    if job.done_nodes.contains(&node) {
                        continue;
                    }
                    // A dead node has no report; its job is killed below.
                    let Some(&(reading, job_done)) = reports.get(&node) else {
                        continue;
                    };
                    if let Some((ips, power_w)) = reading {
                        slowest = Some(slowest.map_or(ips, |s: f64| s.min(ips)));
                        power_sum += power_w;
                        power_n += 1;
                    }
                    if job_done {
                        job.done_nodes.push(node);
                    }
                }
                job.last_node_power_w = if power_n > 0 {
                    Some(power_sum / power_n as f64)
                } else {
                    None
                };
                let job_ips = slowest.map(|s| s * job.spec.size as f64);
                job.last_job_ips = job_ips;
                job.is_new = false;
                if let Some(ips) = job_ips {
                    job.progress_s += ips / (job.spec.size as f64 * BASE_NODE_IPS) * cfg.interval_s;
                }
                if cfg.trace_jobs.contains(&job.spec.id) {
                    traces
                        .entry(job.spec.id)
                        .or_default()
                        .points
                        .push(TracePoint {
                            t_s: now_s,
                            cap_w: job.cap_w,
                            ips: job_ips.unwrap_or(0.0),
                            power_w: job.last_node_power_w.unwrap_or(0.0),
                            target_ips: assignments[ji].target_ips,
                        });
                }
                if job.done_nodes.len() == job.nodes.len() {
                    finished.push(ji);
                }
            }
            for &ji in finished.iter().rev() {
                let job = live.swap_remove(ji);
                free_nodes.extend_from_slice(&job.nodes);
                policy.job_departed(job.spec.id);
                records.push(JobRecord {
                    app_name: job.app_name,
                    start_s: job.start_interval as f64 * cfg.interval_s,
                    end_s: (step + 1) as f64 * cfg.interval_s,
                    progress_s: job.spec.runtime_tdp_s,
                    outcome: JobOutcome::Completed,
                    spec: job.spec,
                });
            }

            // 6. Graceful degradation: write off nodes whose connection
            //    failed this interval. A dead node is neither free nor
            //    busy, so its budget share flows to the survivors on the
            //    next decision (busy_budget is derived from live state) —
            //    the reclamation step of the paper, applied to node loss.
            for &node in &newly_dead {
                let victim = live
                    .iter()
                    .find(|j| j.nodes.contains(&node) && !j.done_nodes.contains(&node))
                    .map(|j| j.spec.id);
                streams.remove(&node);
                free_nodes.retain(|&n| n != node);
                lost.insert(node);
                if rec.enabled() {
                    rec.counter_inc("perq_proto_worker_writeoffs_total");
                    let mut fields = vec![
                        ("node", FieldValue::U64(node as u64)),
                        ("step", FieldValue::U64(step as u64)),
                        ("nodes_lost", FieldValue::U64(lost.len() as u64)),
                    ];
                    if let Some(id) = victim {
                        fields.push(("job_id", FieldValue::U64(id)));
                    }
                    rec.event("perq_proto_writeoff", &fields);
                }
                faults.push(AppliedFault {
                    t_s: now_s,
                    step,
                    kind: FaultKind::NodeCrash { count: 1 },
                    job_id: victim,
                    nodes_offline_after: lost.len(),
                });
            }
            if !newly_dead.is_empty() {
                // Kill jobs that lost an active rank; surviving ranks are
                // freed (a later launch simply overwrites the orphaned
                // work on those workers).
                let killed: Vec<usize> = live
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| {
                        j.nodes
                            .iter()
                            .any(|n| newly_dead.contains(n) && !j.done_nodes.contains(n))
                    })
                    .map(|(ji, _)| ji)
                    .collect();
                for &ji in killed.iter().rev() {
                    let job = live.swap_remove(ji);
                    for &n in &job.nodes {
                        if streams.contains_key(&n) && !free_nodes.contains(&n) {
                            free_nodes.push(n);
                        }
                    }
                    policy.job_departed(job.spec.id);
                    records.push(JobRecord {
                        app_name: job.app_name,
                        start_s: job.start_interval as f64 * cfg.interval_s,
                        end_s: (step + 1) as f64 * cfg.interval_s,
                        progress_s: job.progress_s,
                        outcome: JobOutcome::Killed,
                        spec: job.spec,
                    });
                }
            }

            let violation = total_power > cfg.budget_w() + 1e-6;
            if violation {
                violations += 1;
            }
            let busy_nodes = cfg.nodes - free_nodes.len() - lost.len();
            if rec.enabled() {
                rec.counter_inc("perq_proto_ticks_total");
                if violation {
                    rec.counter_inc("perq_proto_budget_violations_total");
                }
                rec.gauge_set("perq_proto_power_w", total_power);
                rec.gauge_set("perq_proto_budget_w", cfg.budget_w());
                rec.gauge_set("perq_proto_running_jobs", live.len() as f64);
                rec.gauge_set("perq_proto_busy_nodes", busy_nodes as f64);
                rec.gauge_set("perq_proto_lost_nodes", lost.len() as f64);
            }
            intervals.push(IntervalLog {
                t_s: now_s,
                busy_nodes,
                running_jobs: live.len(),
                total_power_w: total_power,
                committed_power_w: caps
                    .iter()
                    .zip(views.iter())
                    .map(|(&c, v)| c * v.size as f64)
                    .sum::<f64>()
                    + idle as f64 * IDLE_WATTS,
                violation,
            });
        }

        // Unfinished jobs.
        for job in live {
            records.push(JobRecord {
                app_name: job.app_name,
                start_s: job.start_interval as f64 * cfg.interval_s,
                end_s: cfg.max_intervals as f64 * cfg.interval_s,
                progress_s: job.progress_s,
                outcome: JobOutcome::Unfinished,
                spec: job.spec,
            });
        }
        records.sort_by_key(|r| r.spec.id);

        let result = SimResult {
            policy: policy.name().to_string(),
            f: cfg.nodes as f64 / cfg.wp_nodes as f64,
            records,
            intervals,
            traces,
            budget_violations: violations,
            budget_violation_s: violations as f64 * cfg.interval_s,
            faults,
            recovery_latency_s: Vec::new(),
            decision_times_s: decision_times,
        };
        (result, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::read_frame;
    use perq_sim::PowerAssignment;
    use std::sync::{Arc, Mutex};

    /// `(measured_ips, measured_power_w)` of every view of every decision.
    type Seen = Arc<Mutex<Vec<(Option<f64>, Option<f64>)>>>;

    /// Holds every cap and lists the measurements each decision showed it.
    struct Witness {
        seen: Seen,
    }

    impl PowerPolicy for Witness {
        fn name(&self) -> &str {
            "witness"
        }

        fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
            let mut seen = self.seen.lock().unwrap();
            seen.extend(
                ctx.jobs
                    .iter()
                    .map(|j| (j.measured_ips, j.measured_power_w)),
            );
            ctx.jobs
                .iter()
                .map(|j| PowerAssignment::cap(j.current_cap_w))
                .collect()
        }
    }

    #[test]
    fn a_lying_worker_proves_liveness_and_nothing_else() {
        // Two nodes run one two-node job. Node 0 is a real worker; node 1
        // answers every tick with a negative rate and a negative draw,
        // which cross the wire as valid JSON numbers. Taken as sent, the
        // rate wins `min` and runs the job's progress backwards, and the
        // draw hides 500 W from the budget check.
        let ticks = 6;
        let config = ProtoConfig::tardis(2, 1.0, ticks);
        let interval_s = config.interval_s;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let honest = std::thread::spawn(move || {
            NodeWorker::new(0, ecp_suite(), interval_s, 7).run(TcpStream::connect(addr).unwrap())
        });
        let liar = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut out = stream.try_clone().unwrap();
            let mut say = |ips: f64, power_w: f64| {
                let report = Report {
                    node_id: 1,
                    job_id: None,
                    ips,
                    power_w,
                    job_done: false,
                };
                write_frame(&mut out, &report).unwrap();
            };
            say(0.0, IDLE_WATTS);
            loop {
                match read_frame::<Command, _>(&mut stream).unwrap() {
                    Command::Tick => say(-1.0e9, -500.0),
                    Command::Shutdown => return,
                    _ => {}
                }
            }
        });
        let mut streams = BTreeMap::new();
        for _ in 0..2 {
            let (mut sock, _) = listener.accept().unwrap();
            let reg: Report = read_frame(&mut sock).unwrap();
            streams.insert(reg.node_id, sock);
        }
        let job = JobSpec {
            id: 1,
            size: 2,
            app_index: 5,
            runtime_tdp_s: 1.0e6,
            runtime_estimate_s: 1.0e6,
            submit_s: 0.0,
        };
        let rec = Recorder::manual();
        let seen = Seen::default();
        let cluster = ProtoCluster::new(config).with_recorder(rec.clone());
        let mut policy = Witness { seen: seen.clone() };
        let (result, lost) = cluster.control_loop(&mut streams, vec![job], &mut policy);
        for sock in streams.values_mut() {
            write_frame(sock, &Command::Shutdown).unwrap();
        }
        honest.join().unwrap().unwrap();
        liar.join().unwrap();

        assert!(lost.is_empty(), "a lie is not a crash");
        assert_eq!(
            rec.counter_value("perq_proto_reports_rejected_total"),
            ticks as u64
        );
        // The policy only ever saw the honest node's readings.
        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], (None, None));
        for (ips, power_w) in &seen[1..] {
            assert!(matches!(ips, Some(v) if *v > 0.0), "{ips:?}");
            assert!(
                matches!(power_w, Some(v) if *v >= IDLE_WATTS),
                "{power_w:?}"
            );
        }
        assert!(result.records[0].progress_s > 0.0);
        for log in &result.intervals {
            assert!(log.total_power_w >= IDLE_WATTS, "{}", log.total_power_w);
        }
    }
}
