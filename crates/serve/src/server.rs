//! The control-plane server: batched decide ticks over non-blocking
//! connections, with live metrics and hot-reloadable budget/policy.
//!
//! Control semantics are ported from `perq-proto`'s `ProtoCluster`,
//! specialised to the service shape: every attached worker runs a
//! long-lived size-1 "service job", so the policy context is one
//! [`JobView`] per live node and dead workers fall out of the live set —
//! the next tick's shares are computed over the survivors, which *is* the
//! budget reallocation (no special-case code).

use crate::conn::{ConnError, FrameClass, NodeState, WorkerConn};
use crate::http::{response, text_response, HttpParser, HttpRequest};
use crate::poller::{PollEvent, Poller};
use perq_apps::{IDLE_WATTS, TDP_WATTS};
use perq_core::{PerqConfig, PerqPolicy};
use perq_proto::{Command, FrameEncoder, Report};
use perq_sim::{FairPolicy, JobView, PolicyContext, PowerPolicy};
use perq_telemetry::{FieldValue, Recorder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Lowest admissible per-node cap, watts (mirrors the prototype).
pub const MIN_CAP_WATTS: f64 = 90.0;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worst-case-provisioned node count: the system budget is
    /// `wp_nodes × TDP` until hot-reloaded.
    pub wp_nodes: usize,
    /// Logical control-interval length, seconds (drives telemetry time
    /// and the policy context; unrelated to the wall tick period).
    pub interval_s: f64,
    /// Wall-clock tick period for the TCP runtime.
    pub tick: Duration,
    /// Wall-clock budget for one policy decision within a tick.
    pub decide_budget: Duration,
    /// Consecutive report-less ticks after which a worker is written off.
    pub heartbeat_ticks: u64,
    /// Per-connection outbound queue bound, bytes.
    pub max_queued_bytes: usize,
    /// Application profile launched on every registering worker.
    pub app: String,
    /// Work per service job, in TDP-equivalent intervals. The default is
    /// effectively endless — workers run until shut down or written off.
    pub work_intervals: f64,
    /// Stop after this many ticks (`None` = run forever).
    pub max_ticks: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            wp_nodes: 8,
            interval_s: 1.0,
            tick: Duration::from_millis(50),
            decide_budget: Duration::from_millis(20),
            heartbeat_ticks: 3,
            max_queued_bytes: 64 * 1024,
            app: "STREAM".to_string(),
            work_intervals: 1e18,
            max_ticks: None,
        }
    }
}

/// Builds a policy by its CLI/admin name with the default (`f64_aos`)
/// solver profile.
pub fn make_policy(name: &str) -> Option<Box<dyn PowerPolicy>> {
    make_policy_with_profile(name, perq_qp::SolverProfile::default())
}

/// Builds a policy by its CLI/admin name, running its QP solves under the
/// given precision/layout profile. Closed-form policies (FOP) ignore the
/// profile — they have no solver.
pub fn make_policy_with_profile(
    name: &str,
    profile: perq_qp::SolverProfile,
) -> Option<Box<dyn PowerPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "fop" | "fair" => Some(Box::new(FairPolicy::new())),
        "perq" => Some(Box::new(PerqPolicy::new(PerqConfig {
            solver_profile: profile,
            ..PerqConfig::default()
        }))),
        _ => None,
    }
}

/// Result of one [`Server::pump`] call.
#[derive(Debug, Default)]
pub struct PumpOutcome {
    /// Ready events serviced on owned connections.
    pub handled: usize,
    /// Ready events for tokens the server does not own (listeners).
    pub unclaimed: Vec<PollEvent>,
}

struct HttpConn<Io> {
    io: Io,
    parser: HttpParser,
    out: Vec<u8>,
    sent: usize,
    responding: bool,
}

/// Tokens below this are left to the runtime's listeners.
const TOKEN_BASE: usize = 16;

enum Slot<Io> {
    Free,
    Worker(WorkerConn<Io>),
    Http(HttpConn<Io>),
}

/// Every connection the server owns, in a slab indexed by the poller
/// token it issued (`TOKEN_BASE + slot`), so an event finds its
/// connection without a search. A closed connection's slot goes on the
/// free list and the next attach takes it: reconnect churn cannot grow
/// the slab past the peak number of open connections. Tokens come from
/// here only, never from anything a peer sent.
struct Conns<Io> {
    slots: Vec<Slot<Io>>,
    free: Vec<usize>,
}

impl<Io> Conns<Io> {
    /// The token the next [`Conns::occupy`] will issue.
    fn vacant(&self) -> usize {
        TOKEN_BASE + self.free.last().copied().unwrap_or(self.slots.len())
    }

    /// Stores a connection under the [`Conns::vacant`] token.
    fn occupy(&mut self, conn: Slot<Io>) {
        match self.free.pop() {
            Some(i) => self.slots[i] = conn,
            None => self.slots.push(conn),
        }
    }

    fn slot_mut(&mut self, token: usize) -> Option<&mut Slot<Io>> {
        self.slots.get_mut(token.checked_sub(TOKEN_BASE)?)
    }

    fn worker_mut(&mut self, token: usize) -> Option<&mut WorkerConn<Io>> {
        match self.slot_mut(token)? {
            Slot::Worker(conn) => Some(conn),
            _ => None,
        }
    }

    fn http_mut(&mut self, token: usize) -> Option<&mut HttpConn<Io>> {
        match self.slot_mut(token)? {
            Slot::Http(conn) => Some(conn),
            _ => None,
        }
    }

    /// Empties an occupied slot and frees its token for reuse.
    fn vacate(&mut self, token: usize) -> Slot<Io> {
        self.free.push(token - TOKEN_BASE);
        std::mem::replace(&mut self.slots[token - TOKEN_BASE], Slot::Free)
    }

    fn take_worker(&mut self, token: usize) -> Option<WorkerConn<Io>> {
        self.worker_mut(token)?;
        match self.vacate(token) {
            Slot::Worker(conn) => Some(conn),
            _ => None,
        }
    }

    fn take_http(&mut self, token: usize) -> Option<HttpConn<Io>> {
        self.http_mut(token)?;
        match self.vacate(token) {
            Slot::Http(conn) => Some(conn),
            _ => None,
        }
    }

    /// Worker connections in token order.
    fn workers(&self) -> impl Iterator<Item = &WorkerConn<Io>> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Worker(conn) => Some(conn),
            _ => None,
        })
    }
}

/// The `SetCap` frames of one tick, each distinct cap encoded once.
///
/// The memo is keyed by the cap's bit pattern, not its value: `0.0` and
/// `-0.0` compare equal and encode differently, and a NaN equals nothing,
/// itself included.
#[derive(Default)]
struct CapFrames {
    arena: Vec<u8>,
    memo: HashMap<u64, Range<usize>>,
}

impl CapFrames {
    fn clear(&mut self) {
        self.arena.clear();
        self.memo.clear();
    }

    /// The encoded `SetCap { cap_w }` frame.
    fn frame(&mut self, cap_w: f64) -> Result<&[u8], ConnError> {
        let arena = &mut self.arena;
        let range = match self.memo.entry(cap_w.to_bits()) {
            Entry::Occupied(hit) => hit.get().clone(),
            Entry::Vacant(miss) => {
                let start = arena.len();
                FrameEncoder::new()
                    .encode_into(&Command::SetCap { cap_w }, arena)
                    .map_err(ConnError::Frame)?;
                miss.insert(start..arena.len()).clone()
            }
        };
        Ok(&self.arena[range])
    }
}

/// The event-loop server, generic over the readiness backend.
pub struct Server<P: Poller> {
    poller: P,
    cfg: ServeConfig,
    policy: Box<dyn PowerPolicy>,
    conns: Conns<P::Io>,
    /// Live nodes as `(node id, token)`, sorted by id — the order of the
    /// policy's job list, and so of caps and exports. An entry exists
    /// exactly while that connection holds the node's [`NodeState`], which
    /// is what makes a reused token unambiguous. Its length is the live
    /// count: ids a peer sent are searched for, never indexed by.
    nodes: Vec<(u32, usize)>,
    ticks: u64,
    budget_w: f64,
    /// Deterministic, logical-time telemetry (what `/metrics` serves).
    rec: Recorder,
    /// Wall-clock engine telemetry (tick/decide latency, backpressure).
    engine: Recorder,
    scratch: Vec<u8>,
    /// Reused across pumps: the poller's ready list and one connection's
    /// decoded reports.
    events: Vec<PollEvent>,
    reports: Vec<Report>,
    /// Reused across ticks: the policy's job list, and the tokens a tick
    /// sets aside for write-off.
    views: Vec<JobView>,
    doomed: Vec<usize>,
    /// The encoded `Tick`, the same for every worker and every tick.
    tick_frame: Vec<u8>,
    cap_frames: CapFrames,
}

/// Inbound traffic of one [`Server::pump`], added to the recorder once
/// per pump instead of once per frame.
#[derive(Default)]
struct Inbound {
    frames: u64,
    reports: u64,
    rejected: u64,
}

impl<P: Poller> Server<P> {
    /// Creates a server with no telemetry attached.
    pub fn new(poller: P, cfg: ServeConfig, policy: Box<dyn PowerPolicy>) -> Self {
        Server::with_recorders(poller, cfg, policy, Recorder::noop(), Recorder::noop())
    }

    /// Creates a server with explicit recorders. `rec` must be driven by
    /// logical time for deterministic exports; `engine` may use the wall
    /// clock.
    pub fn with_recorders(
        poller: P,
        cfg: ServeConfig,
        mut policy: Box<dyn PowerPolicy>,
        rec: Recorder,
        engine: Recorder,
    ) -> Self {
        // The policy records solver diagnostics and spans with wall-clock
        // timing, so it reports into the engine recorder — the main
        // recorder stays poll-order- and wall-clock-independent.
        policy.set_recorder(engine.clone());
        let budget_w = cfg.wp_nodes as f64 * TDP_WATTS;
        Server {
            poller,
            cfg,
            policy,
            conns: Conns {
                slots: Vec::new(),
                free: Vec::new(),
            },
            nodes: Vec::new(),
            ticks: 0,
            budget_w,
            rec,
            engine,
            scratch: vec![0u8; 16 * 1024],
            events: Vec::new(),
            reports: Vec::new(),
            views: Vec::new(),
            doomed: Vec::new(),
            tick_frame: FrameEncoder::new()
                .encode(&Command::Tick)
                .expect("a unit variant encodes"),
            cap_frames: CapFrames::default(),
        }
    }

    /// Completed decide ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Live (registered, not written-off) worker count.
    pub fn live_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current system power budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// The deterministic recorder backing `/metrics`.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The wall-clock engine recorder backing `/metrics/engine`.
    pub fn engine_recorder(&self) -> &Recorder {
        &self.engine
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Access to the poller (the TCP runtime registers listeners on it).
    pub fn poller_mut(&mut self) -> &mut P {
        &mut self.poller
    }

    /// Adopts an established worker transport into the event loop.
    pub fn attach_worker(&mut self, io: P::Io) -> io::Result<usize> {
        let token = self.conns.vacant();
        self.poller.register(&io, token)?;
        let mut conn = WorkerConn::new(io, token, self.cfg.max_queued_bytes);
        conn.attached_tick = self.ticks;
        self.conns.occupy(Slot::Worker(conn));
        Ok(token)
    }

    /// Adopts an established HTTP client transport.
    pub fn attach_http(&mut self, io: P::Io) -> io::Result<usize> {
        let token = self.conns.vacant();
        self.poller.register(&io, token)?;
        self.conns.occupy(Slot::Http(HttpConn {
            io,
            parser: HttpParser::new(),
            out: Vec::new(),
            sent: 0,
            responding: false,
        }));
        Ok(token)
    }

    /// Polls once and services every ready connection. Events for tokens
    /// the server does not own (runtime listeners) are returned to the
    /// caller; `handled` counts the ones it serviced itself, so harnesses
    /// can pump to quiescence even under a small poll batch.
    pub fn pump(&mut self, timeout: Option<Duration>) -> io::Result<PumpOutcome> {
        let mut events = std::mem::take(&mut self.events);
        if let Err(e) = self.poller.poll(&mut events, timeout) {
            self.events = events;
            return Err(e);
        }
        let mut outcome = PumpOutcome::default();
        let mut inbound = Inbound::default();
        for &ev in &events {
            if self.worker_event(ev, &mut inbound) {
                outcome.handled += 1;
            } else if self.conns.http_mut(ev.token).is_some() {
                self.http_event(ev);
                outcome.handled += 1;
            } else {
                outcome.unclaimed.push(ev);
            }
        }
        self.events = events;
        // Harnesses read these between pumps, so they are current again
        // by the time `pump` returns.
        if inbound.frames > 0 {
            self.rec
                .counter_add("perq_serve_frames_recv_total", inbound.frames);
        }
        if inbound.reports > 0 {
            self.rec
                .counter_add("perq_serve_reports_total", inbound.reports);
        }
        if inbound.rejected > 0 {
            self.rec
                .counter_add("perq_serve_reports_rejected_total", inbound.rejected);
        }
        Ok(outcome)
    }

    /// Services one ready worker connection; `false` if the token is not
    /// a worker's.
    fn worker_event(&mut self, ev: PollEvent, inbound: &mut Inbound) -> bool {
        let Some(conn) = self.conns.worker_mut(ev.token) else {
            return false;
        };
        if ev.readable || ev.hangup {
            let mut reports = std::mem::take(&mut self.reports);
            reports.clear();
            let read = conn.read_ready(&mut self.scratch, &mut reports);
            // Frames completed before an EOF or a corrupt frame still count.
            let alive = self.on_reports(ev.token, &reports, inbound);
            self.reports = reports;
            if !alive {
                return true; // written off mid-batch
            }
            match read {
                Ok(()) => {}
                Err(ConnError::Frame(_)) => {
                    self.write_off(ev.token, "corrupt-frame");
                    return true;
                }
                Err(_) => {
                    self.write_off(ev.token, "peer-gone");
                    return true;
                }
            }
        }
        if ev.writable {
            self.flush_worker(ev.token);
        }
        true
    }

    /// Handles the reports one connection delivered in one read; returns
    /// `false` if the connection died.
    fn on_reports(&mut self, token: usize, reports: &[Report], inbound: &mut Inbound) -> bool {
        let mut reports = reports.iter();
        let registered = matches!(self.conns.worker_mut(token), Some(c) if c.node.is_some());
        if !registered {
            // The first report on a connection is its registration.
            let Some(first) = reports.next() else {
                return true;
            };
            inbound.frames += 1;
            if !self.register_worker(token, first) {
                return false;
            }
        }
        let Some(n) = self
            .conns
            .worker_mut(token)
            .and_then(|conn| conn.node.as_mut())
        else {
            return false;
        };
        for report in reports {
            inbound.frames += 1;
            if report.node_id != n.node_id {
                self.write_off(token, "node-id-mismatch");
                return false;
            }
            n.last_report_tick = self.ticks;
            // An unusable reading is a heartbeat and nothing else.
            let Some((ips, power_w)) = report.reading() else {
                inbound.rejected += 1;
                continue;
            };
            if n.batched {
                // A delayed report from an earlier interval was superseded.
                self.engine
                    .counter_inc("perq_serve_reports_superseded_total");
            }
            n.last_ips = Some(ips);
            n.last_power_w = Some(power_w);
            n.batched = true;
            inbound.reports += 1;
        }
        true
    }

    /// Where `node_id` is, or would go, in the id-ordered live list.
    fn node_index(&self, node_id: u32) -> Result<usize, usize> {
        self.nodes.binary_search_by_key(&node_id, |&(id, _)| id)
    }

    fn register_worker(&mut self, token: usize, report: &Report) -> bool {
        let node_id = report.node_id;
        // A reconnecting node supersedes its stale session.
        if let Ok(at) = self.node_index(node_id) {
            self.write_off(self.nodes[at].1, "superseded");
        }
        let Some(conn) = self.conns.worker_mut(token) else {
            return false;
        };
        conn.node = Some(NodeState {
            node_id,
            job_id: u64::from(node_id) + 1,
            cap_w: TDP_WATTS,
            last_ips: None,
            last_power_w: None,
            batched: false,
            last_report_tick: self.ticks,
            first_tick: self.ticks,
        });
        let at = self
            .node_index(node_id)
            .expect_err("a stale session was just written off");
        self.nodes.insert(at, (node_id, token));
        self.rec.counter_inc("perq_serve_workers_registered_total");
        self.rec.event(
            "perq_serve_register",
            &[
                ("node", FieldValue::U64(u64::from(node_id))),
                ("tick", FieldValue::U64(self.ticks)),
            ],
        );
        let launch = Command::Launch {
            job_id: u64::from(node_id) + 1,
            app: self.cfg.app.clone(),
            work_intervals: self.cfg.work_intervals,
        };
        self.send_to(token, &launch, FrameClass::Decision)
    }

    /// Queues a frame on a worker connection and writes it, arming write
    /// interest or writing the connection off as needed. Returns `false`
    /// if the connection died.
    fn send_to(&mut self, token: usize, cmd: &Command, class: FrameClass) -> bool {
        let Some(conn) = self.conns.worker_mut(token) else {
            return false;
        };
        match conn.push(cmd, class) {
            Ok(drained) => {
                Self::set_write_interest(&mut self.poller, conn, !drained);
                true
            }
            Err(e) => {
                self.send_failed(token, &e);
                false
            }
        }
    }

    /// Writes a connection off for a failed send.
    fn send_failed(&mut self, token: usize, err: &ConnError) {
        if matches!(err, ConnError::Overflow) {
            self.engine
                .counter_inc("perq_serve_decision_overflows_total");
            self.write_off(token, "decision-overflow");
        } else {
            self.write_off(token, "peer-gone");
        }
    }

    fn flush_worker(&mut self, token: usize) {
        let Some(conn) = self.conns.worker_mut(token) else {
            return;
        };
        match conn.flush() {
            Ok(drained) => Self::set_write_interest(&mut self.poller, conn, !drained),
            Err(_) => self.write_off(token, "peer-gone"),
        }
    }

    fn set_write_interest(poller: &mut P, conn: &mut WorkerConn<P::Io>, want: bool) {
        if conn.want_write != want {
            conn.want_write = want;
            let _ = poller.set_write_interest(&conn.io, conn.token, want);
        }
    }

    /// Removes a worker connection and its node state. The freed budget
    /// share flows to the survivors on the next tick automatically.
    fn write_off(&mut self, token: usize, reason: &'static str) {
        let Some(conn) = self.conns.take_worker(token) else {
            return;
        };
        let _ = self.poller.deregister(&conn.io, token);
        if let Some(n) = conn.node {
            let indexed = self.node_index(n.node_id).map(|at| self.nodes.remove(at));
            debug_assert_eq!(indexed, Ok((n.node_id, token)), "node index out of step");
            self.policy.job_departed(n.job_id);
            self.rec.counter_inc("perq_serve_writeoffs_total");
            self.rec.event(
                "perq_serve_writeoff",
                &[
                    ("node", FieldValue::U64(u64::from(n.node_id))),
                    ("tick", FieldValue::U64(self.ticks)),
                    ("reason", FieldValue::Str(reason)),
                ],
            );
        } else {
            self.rec.counter_inc("perq_serve_unregistered_closes_total");
        }
    }

    /// Runs one decide tick: heartbeat write-offs, batched readings into
    /// a policy call under the decide deadline, cap fan-out.
    pub fn tick(&mut self) {
        let tick_start = Instant::now();
        self.rec.set_time_s(self.ticks as f64 * self.cfg.interval_s);

        // One walk over the live nodes, in id order: workers silent for
        // too many ticks are set aside for write-off, every other node's
        // interval of readings becomes its size-1 service job's view —
        // latest report wins, lost reports surface as `None` measurements.
        let mut views = std::mem::take(&mut self.views);
        views.clear();
        let mut doomed = std::mem::take(&mut self.doomed);
        for &(_, token) in &self.nodes {
            let Some(n) = self.conns.worker_mut(token).and_then(|c| c.node.as_ref()) else {
                continue;
            };
            if self.ticks - n.last_report_tick >= self.cfg.heartbeat_ticks {
                doomed.push(token);
                continue;
            }
            views.push(JobView {
                id: n.job_id,
                size: 1,
                elapsed_s: (self.ticks - n.first_tick) as f64 * self.cfg.interval_s,
                measured_ips: if n.batched { n.last_ips } else { None },
                current_cap_w: n.cap_w,
                measured_power_w: if n.batched { n.last_power_w } else { None },
                remaining_node_hours: 1e9,
                is_new: self.ticks == n.first_tick,
            });
        }
        for token in doomed.drain(..) {
            self.write_off(token, "heartbeat");
        }
        // Connections that never completed registration (their first
        // report was lost) are written off within the same window.
        doomed.extend(
            self.conns
                .workers()
                .filter(|c| {
                    c.node.is_none() && self.ticks - c.attached_tick >= self.cfg.heartbeat_ticks
                })
                .map(|c| c.token),
        );
        for token in doomed.drain(..) {
            self.write_off(token, "registration-timeout");
        }
        self.doomed = doomed;

        // Consumed power and held caps of the nodes this tick leaves live.
        let (mut power, mut caps_sum) = (0.0, 0.0);
        if !views.is_empty() {
            let ctx = PolicyContext {
                time_s: self.ticks as f64 * self.cfg.interval_s,
                interval_s: self.cfg.interval_s,
                busy_budget_w: self.budget_w,
                cap_min_w: MIN_CAP_WATTS,
                cap_max_w: TDP_WATTS,
                total_nodes: views.len(),
                wp_nodes: self.cfg.wp_nodes,
                // The control plane has no batch queue and does not
                // meter site-level violations; both observations read
                // as "none so far".
                queue_depth: 0,
                violation_s: 0.0,
                jobs: &views,
            };
            let fair = ctx.fair_cap_w();
            self.policy
                .set_decide_deadline(Some(tick_start + self.cfg.decide_budget));
            let decide_start = Instant::now();
            let assignments = self.policy.assign(&ctx);
            let decide_elapsed = decide_start.elapsed();
            self.engine
                .observe("perq_serve_decide_seconds", decide_elapsed.as_secs_f64());
            // Decide latency split by the policy's numeric profile, so a
            // mixed rollout can be compared against the f64 reference
            // from the same scrape (the recorder interns static names, so
            // the label is baked into the metric name).
            let latency_metric = match self.policy.solver_profile_label() {
                "f64_soa" => "perq_serve_decide_latency_ms_f64_soa",
                "mixed_soa" => "perq_serve_decide_latency_ms_mixed_soa",
                _ => "perq_serve_decide_latency_ms_f64_aos",
            };
            self.engine
                .observe(latency_metric, decide_elapsed.as_secs_f64() * 1e3);
            self.policy.set_decide_deadline(None);

            // Defensive: a policy that broke its contract falls back to
            // the fair share rather than taking the loop down.
            let kept_contract = assignments.len() == views.len();
            if !kept_contract {
                self.rec.counter_inc("perq_serve_policy_len_mismatch_total");
            }

            // Fan out: per worker, queue `SetCap` (if the cap moved) and
            // `Tick`, then send both in one write. Failed sends are
            // written off after the pass, in node order; the gauges below
            // sum over the nodes that stay, in the same order.
            self.cap_frames.clear();
            let (mut setcaps, mut coalesced) = (0u64, 0u64);
            let mut failed: Vec<(usize, ConnError)> = Vec::new();
            for (i, &(node_id, token)) in self.nodes.iter().enumerate() {
                let Some(conn) = self.conns.worker_mut(token) else {
                    continue;
                };
                let coalesced_before = conn.coalesced;
                let cap = if kept_contract {
                    assignments[i].cap_w.clamp(MIN_CAP_WATTS, TDP_WATTS)
                } else {
                    fair
                };
                let Some(held) = conn.node.as_ref().map(|n| n.cap_w) else {
                    continue;
                };
                let changed = (cap - held).abs() > 1e-9;
                let sent = (|| {
                    if changed {
                        conn.queue_encoded(
                            self.cap_frames.frame(cap)?,
                            FrameClass::Coalesce { key: node_id },
                        )?;
                    }
                    conn.queue_encoded(&self.tick_frame, FrameClass::Decision)?;
                    conn.flush().map_err(ConnError::Io)
                })();
                coalesced += conn.coalesced - coalesced_before;
                match sent {
                    Ok(drained) => {
                        Self::set_write_interest(&mut self.poller, conn, !drained);
                        setcaps += u64::from(changed);
                        if let Some(n) = &mut conn.node {
                            n.cap_w = cap;
                            n.batched = false;
                            power += n.last_power_w.unwrap_or(IDLE_WATTS);
                            caps_sum += cap;
                        }
                    }
                    Err(e) => failed.push((token, e)),
                }
            }
            for (token, err) in failed {
                self.send_failed(token, &err);
            }
            self.rec.counter_add("perq_serve_setcaps_total", setcaps);
            // Per tick, not at write-off: backpressure on a connection
            // that stays alive is the case an operator needs to see.
            self.engine
                .counter_add("perq_serve_caps_coalesced_total", coalesced);
        }
        self.views = views;

        self.rec
            .gauge_set("perq_serve_live_nodes", self.nodes.len() as f64);
        self.rec.gauge_set("perq_serve_budget_w", self.budget_w);
        self.rec.gauge_set("perq_serve_power_w", power);
        self.rec.gauge_set("perq_serve_caps_w", caps_sum);
        if power > self.budget_w {
            self.rec.counter_inc("perq_serve_budget_violations_total");
        }
        self.rec.counter_inc("perq_serve_ticks_total");
        self.engine.observe(
            "perq_serve_tick_seconds",
            tick_start.elapsed().as_secs_f64(),
        );
        self.ticks += 1;
    }

    /// Queues `Shutdown` on every worker and flushes best-effort.
    pub fn shutdown(&mut self) {
        let tokens: Vec<usize> = self.conns.workers().map(|c| c.token).collect();
        for token in tokens {
            self.send_to(token, &Command::Shutdown, FrameClass::Decision);
        }
    }

    /// Whether any worker still has unflushed outbound frames.
    pub fn has_backlog(&self) -> bool {
        self.conns.workers().any(|c| c.has_backlog())
    }

    fn http_event(&mut self, ev: PollEvent) {
        // Read & parse with a narrow borrow; fall out with a verdict.
        enum Verdict {
            Pending,
            Close,
            Request(HttpRequest),
            Bad,
        }
        let mut verdict = Verdict::Pending;
        {
            let conn = self.conns.http_mut(ev.token).expect("checked by pump");
            if ev.readable || ev.hangup {
                // The parser is asked after every read, and reading stops
                // at its verdict: a peer that keeps the socket full costs
                // one bounded request, not the control thread. Once the
                // answer is decided an event drains one buffer (the
                // poller is level-triggered; the rest comes back).
                loop {
                    match conn.io.read(&mut self.scratch) {
                        Ok(0) => {
                            verdict = Verdict::Close;
                            break;
                        }
                        Ok(_) if conn.responding => break,
                        Ok(n) => {
                            conn.parser.feed(&self.scratch[..n]);
                            match conn.parser.take_request() {
                                Ok(Some(req)) => verdict = Verdict::Request(req),
                                Ok(None) => continue,
                                Err(_) => verdict = Verdict::Bad,
                            }
                            break;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            verdict = Verdict::Close;
                            break;
                        }
                    }
                }
            }
        }
        match verdict {
            Verdict::Close => {
                self.close_http(ev.token);
                return;
            }
            Verdict::Request(req) => {
                let bytes = self.http_response(&req);
                if let Some(conn) = self.conns.http_mut(ev.token) {
                    conn.out = bytes;
                    conn.sent = 0;
                    conn.responding = true;
                }
            }
            Verdict::Bad => {
                if let Some(conn) = self.conns.http_mut(ev.token) {
                    conn.out = text_response(400, "Bad Request", "bad request\n");
                    conn.sent = 0;
                    conn.responding = true;
                }
            }
            Verdict::Pending => {}
        }
        self.flush_http(ev.token);
    }

    fn flush_http(&mut self, token: usize) {
        let mut done = false;
        let mut dead = false;
        let mut want = false;
        if let Some(conn) = self.conns.http_mut(token) {
            if !conn.responding {
                return;
            }
            while conn.sent < conn.out.len() {
                match conn.io.write(&conn.out[conn.sent..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        want = true;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            done = conn.sent == conn.out.len();
        }
        if dead || done {
            self.close_http(token);
        } else if want {
            if let Some(conn) = self.conns.http_mut(token) {
                let _ = self.poller.set_write_interest(&conn.io, token, true);
            }
        }
    }

    fn close_http(&mut self, token: usize) {
        if let Some(conn) = self.conns.take_http(token) {
            let _ = self.poller.deregister(&conn.io, token);
        }
    }

    fn http_response(&mut self, req: &HttpRequest) -> Vec<u8> {
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/metrics") => response(
                200,
                "OK",
                "text/plain; version=0.0.4",
                self.rec.export_prometheus().as_bytes(),
            ),
            ("GET", "/metrics/engine") => response(
                200,
                "OK",
                "text/plain; version=0.0.4",
                self.engine.export_prometheus().as_bytes(),
            ),
            ("GET", "/healthz") => text_response(200, "OK", "ok\n"),
            ("POST", "/admin/budget") => self.admin_budget(&req.body),
            ("POST", "/admin/policy") => self.admin_policy(&req.body),
            _ => text_response(404, "Not Found", "not found\n"),
        }
    }

    /// `watts=<f64>` or `wp_nodes=<usize>` (form-encoded), applied live.
    fn admin_budget(&mut self, body: &[u8]) -> Vec<u8> {
        let body = match std::str::from_utf8(body) {
            Ok(s) => s,
            Err(_) => return text_response(400, "Bad Request", "invalid utf-8\n"),
        };
        let mut new_budget = None;
        for pair in body.split('&') {
            match pair.split_once('=') {
                Some(("watts", v)) => match v.trim().parse::<f64>() {
                    Ok(w) if w.is_finite() && w >= 0.0 => new_budget = Some(w),
                    _ => return text_response(400, "Bad Request", "invalid watts\n"),
                },
                Some(("wp_nodes", v)) => match v.trim().parse::<usize>() {
                    Ok(n) => {
                        self.cfg.wp_nodes = n;
                        new_budget = Some(n as f64 * TDP_WATTS);
                    }
                    Err(_) => return text_response(400, "Bad Request", "invalid wp_nodes\n"),
                },
                _ => return text_response(400, "Bad Request", "expected watts= or wp_nodes=\n"),
            }
        }
        let watts = match new_budget {
            Some(w) => w,
            None => return text_response(400, "Bad Request", "empty body\n"),
        };
        self.budget_w = watts;
        self.rec.counter_inc("perq_serve_budget_reloads_total");
        self.rec.event(
            "perq_serve_budget_reload",
            &[
                ("watts", FieldValue::F64(watts)),
                ("tick", FieldValue::U64(self.ticks)),
            ],
        );
        text_response(200, "OK", &format!("budget_w={watts}\n"))
    }

    /// Swaps the decide policy by name (`fop` / `perq`), effective on the
    /// next tick — the loop never blocks on the swap.
    fn admin_policy(&mut self, body: &[u8]) -> Vec<u8> {
        let name = String::from_utf8_lossy(body);
        let name = name.trim();
        match make_policy(name) {
            Some(mut policy) => {
                policy.set_recorder(self.engine.clone());
                self.policy = policy;
                self.rec.counter_inc("perq_serve_policy_reloads_total");
                self.rec.event(
                    "perq_serve_policy_reload",
                    &[("tick", FieldValue::U64(self.ticks))],
                );
                text_response(200, "OK", &format!("policy={}\n", self.policy.name()))
            }
            None => text_response(400, "Bad Request", "unknown policy\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{mem_pair, MemIo, MemPoller};
    use perq_sim::PowerAssignment;

    fn server(policy: Box<dyn PowerPolicy>) -> Server<MemPoller> {
        let cfg = ServeConfig {
            heartbeat_ticks: u64::MAX,
            ..ServeConfig::default()
        };
        Server::with_recorders(
            MemPoller::new(0),
            cfg,
            policy,
            Recorder::manual(),
            Recorder::noop(),
        )
    }

    fn report(node_id: u32) -> Vec<u8> {
        let report = Report {
            node_id,
            job_id: None,
            ips: 1.0e9,
            power_w: 120.0,
            job_done: false,
        };
        FrameEncoder::new().encode(&report).unwrap()
    }

    fn settle(server: &mut Server<MemPoller>) {
        while server.pump(Some(Duration::ZERO)).unwrap().handled > 0 {}
    }

    /// Attaches a connection and registers it as `node_id`.
    fn connect(server: &mut Server<MemPoller>, node_id: u32) -> (usize, MemIo) {
        let (server_io, mut peer) = mem_pair(64 * 1024);
        let token = server.attach_worker(server_io).unwrap();
        peer.write_all(&report(node_id)).unwrap();
        settle(server);
        (token, peer)
    }

    fn drain(peer: &mut MemIo) -> Vec<u8> {
        let mut bytes = vec![0u8; peer.pending_read()];
        if !bytes.is_empty() {
            peer.read_exact(&mut bytes).unwrap();
        }
        bytes
    }

    fn writeoffs(server: &Server<MemPoller>, reason: &str) -> usize {
        server.recorder().export_jsonl().matches(reason).count()
    }

    #[test]
    fn reconnect_churn_reuses_slots() {
        let mut server = server(make_policy("fop").unwrap());
        let keepers: Vec<_> = (0..3).map(|id| connect(&mut server, id)).collect();
        for cycle in 0..10_000u32 {
            let (_, peer) = connect(&mut server, 100 + cycle % 7);
            assert_eq!(server.live_nodes(), 4);
            peer.close();
            settle(&mut server);
            assert_eq!(server.live_nodes(), 3);
        }
        // Peak live was four connections.
        assert!(server.conns.slots.len() <= 4 + 1);
        server.tick();
        assert_eq!(server.live_nodes(), 3);
        for (_, mut peer) in keepers {
            assert!(drain(&mut peer).ends_with(&server.tick_frame));
        }
    }

    #[test]
    fn a_hostile_node_id_costs_one_slot_and_one_index_entry() {
        let mut server = server(make_policy("fop").unwrap());
        let (token, mut peer) = connect(&mut server, u32::MAX);
        assert_eq!((token, server.live_nodes()), (TOKEN_BASE, 1));
        server.tick();
        let mut dec = perq_proto::FrameDecoder::new();
        dec.feed(&drain(&mut peer));
        let launch: Command = dec.next_frame().unwrap().unwrap();
        assert!(matches!(launch, Command::Launch { job_id, .. } if job_id == 1 << 32));
        assert_eq!(dec.next_frame::<Command>().unwrap(), Some(Command::Tick));
        assert_eq!((server.conns.slots.len(), server.nodes.len()), (1, 1));
        peer.close();
        settle(&mut server);
        assert_eq!((server.live_nodes(), server.nodes.len()), (0, 0));
        assert_eq!(server.conns.slots.len(), 1);
        assert_eq!(writeoffs(&server, "peer-gone"), 1);
    }

    #[test]
    fn a_reconnect_supersedes_its_stale_session_across_slot_reuse() {
        let mut server = server(make_policy("fop").unwrap());
        let (first, mut stale) = connect(&mut server, 7);
        let (second, other) = connect(&mut server, 8);
        assert_eq!((first, second), (TOKEN_BASE, TOKEN_BASE + 1));
        other.close();
        settle(&mut server);

        // Node 7 comes back on the slot node 8 freed, next to its stale
        // session; then again, each time onto the slot its previous
        // session was just superseded out of.
        for round in 1..=6 {
            let (token, mut fresh) = connect(&mut server, 7);
            assert_eq!(token, TOKEN_BASE + round % 2, "round {round}");
            assert_eq!(writeoffs(&server, "superseded"), round);
            assert_eq!(server.live_nodes(), 1);
            assert_eq!(server.nodes, [(7, token)]);
            assert_eq!(server.conns.slots.len(), 2);
            // The stale peer was cut off; the fresh one is the node now.
            assert!(stale.is_closed());
            fresh.write_all(&report(7)).unwrap();
            settle(&mut server);
            assert_eq!(server.live_nodes(), 1);
            stale = fresh;
        }
        assert_eq!(
            server.recorder().counter_value("perq_serve_reports_total"),
            6
        );
    }

    /// `(measured_ips, measured_power_w)` of every view of every tick.
    type Seen = std::rc::Rc<std::cell::RefCell<Vec<(Option<f64>, Option<f64>)>>>;

    /// Holds every cap and lists the measurements each tick showed it.
    struct Witness {
        seen: Seen,
    }

    impl PowerPolicy for Witness {
        fn name(&self) -> &str {
            "witness"
        }

        fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
            let mut seen = self.seen.borrow_mut();
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
    fn an_unreadable_report_is_a_heartbeat_but_not_a_reading() {
        let seen = Seen::default();
        let mut server = Server::with_recorders(
            MemPoller::new(0),
            ServeConfig {
                heartbeat_ticks: 2,
                ..ServeConfig::default()
            },
            Box::new(Witness { seen: seen.clone() }),
            Recorder::manual(),
            Recorder::noop(),
        );
        let (_, mut peer) = connect(&mut server, 5);
        let send = |server: &mut Server<MemPoller>, ips: f64, power_w: f64| {
            let report = Report {
                node_id: 5,
                job_id: Some(6),
                ips,
                power_w,
                job_done: false,
            };
            // Straight to the handler: on the wire a non-finite float is
            // `null`, which the real deserializer refuses and the offline
            // stand-in reads as NaN; the boundary holds either way.
            let mut inbound = Inbound::default();
            assert!(server.on_reports(TOKEN_BASE, &[report], &mut inbound));
            (inbound.frames, inbound.reports, inbound.rejected)
        };
        assert_eq!(send(&mut server, 1.0e9, 120.0), (1, 1, 0));
        server.tick();
        // Five ticks of nothing but poison: far past the heartbeat bound.
        for (ips, power_w) in [
            (f64::NAN, 120.0),
            (1.0e9, f64::INFINITY),
            (-1.0, 120.0),
            (1.0e9, -0.5),
            (f64::NEG_INFINITY, f64::NAN),
        ] {
            assert_eq!(send(&mut server, ips, power_w), (1, 0, 1));
            server.tick();
            assert_eq!(server.live_nodes(), 1);
        }
        // A huge but finite rate is the policy's to judge, not the wire's.
        assert_eq!(send(&mut server, 1.0e300, 0.0), (1, 1, 0));
        server.tick();
        let mut expected = vec![(Some(1.0e9), Some(120.0))];
        expected.extend([(None, None); 5]);
        expected.push((Some(1.0e300), Some(0.0)));
        assert_eq!(*seen.borrow(), expected);
        assert_eq!(writeoffs(&server, "heartbeat"), 0);
        drain(&mut peer);

        // Through the front door: the series appears with the first
        // rejection, not before.
        let rejected = |s: &Server<MemPoller>| {
            s.recorder()
                .export_prometheus()
                .contains("perq_serve_reports_rejected_total")
        };
        assert!(!rejected(&server));
        let bad = Report {
            node_id: 5,
            job_id: Some(6),
            ips: -3.0,
            power_w: 120.0,
            job_done: false,
        };
        peer.write_all(&FrameEncoder::new().encode(&bad).unwrap())
            .unwrap();
        settle(&mut server);
        assert!(rejected(&server));
        assert_eq!(
            server
                .recorder()
                .counter_value("perq_serve_reports_rejected_total"),
            1
        );
    }

    /// Hands out the scripted caps, one list per tick, by job index.
    struct Scripted {
        ticks: std::vec::IntoIter<Vec<f64>>,
    }

    impl PowerPolicy for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
            let caps = self.ticks.next().expect("a cap list per tick");
            assert_eq!(caps.len(), ctx.jobs.len());
            caps.into_iter().map(PowerAssignment::cap).collect()
        }
    }

    #[test]
    fn fan_out_bytes_are_the_per_frame_encoders_in_node_order() {
        let script = vec![
            vec![100.0, 100.0, 150.0, 100.0], // duplicates
            vec![120.0; 4],                   // all equal
            vec![120.0; 4],                   // nothing moved: Tick only
            vec![0.0, -0.0, 290.0, 1e9],      // clamped onto two caps
            vec![151.5, 120.5, 151.5, 120.5],
        ];
        let mut server = server(Box::new(Scripted {
            ticks: script.clone().into_iter(),
        }));
        // Attached in descending id order, so token order is not node order.
        let mut peers: Vec<MemIo> = (0..4u32)
            .rev()
            .map(|id| connect(&mut server, id).1)
            .collect();
        peers.reverse();
        for peer in &mut peers {
            drain(peer); // Launch
        }
        let enc = FrameEncoder::new();
        let mut held = [TDP_WATTS; 4];
        for caps in script {
            server.tick();
            let mut distinct = std::collections::BTreeSet::new();
            for (i, peer) in peers.iter_mut().enumerate() {
                let cap = caps[i].clamp(MIN_CAP_WATTS, TDP_WATTS);
                let mut expected = Vec::new();
                if (cap - held[i]).abs() > 1e-9 {
                    enc.encode_into(&Command::SetCap { cap_w: cap }, &mut expected)
                        .unwrap();
                    distinct.insert(cap.to_bits());
                    held[i] = cap;
                }
                enc.encode_into(&Command::Tick, &mut expected).unwrap();
                assert_eq!(drain(peer), expected, "node {i}, caps {caps:?}");
            }
            // One frame per distinct cap sent this tick, none kept from the
            // tick before.
            let frame_len = enc.encode(&Command::SetCap { cap_w: 151.5 }).unwrap().len();
            assert_eq!(server.cap_frames.memo.len(), distinct.len());
            assert!(server.cap_frames.arena.len() <= distinct.len() * frame_len);
        }
    }

    #[test]
    fn cap_frames_are_keyed_by_bit_pattern() {
        let enc = FrameEncoder::new();
        let mut frames = CapFrames::default();
        let mut total = 0;
        for (cap_w, fresh) in [
            (0.0, true),
            (-0.0, true),
            (0.0, false),
            (151.5, true),
            (151.5, false),
            (-0.0, false),
        ] {
            let expected = enc.encode(&Command::SetCap { cap_w }).unwrap();
            assert_eq!(frames.frame(cap_w).unwrap(), &expected[..], "{cap_w:?}");
            total += if fresh { expected.len() } else { 0 };
            assert_eq!(frames.arena.len(), total, "{cap_w:?}");
        }
        frames.clear();
        assert!(frames.arena.is_empty() && frames.memo.is_empty());
    }
}
