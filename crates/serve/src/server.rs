//! The control-plane server: batched decide ticks over non-blocking
//! connections, with live metrics and hot-reloadable budget/policy.
//!
//! Control semantics are ported from `perq-proto`'s `ProtoCluster`,
//! specialised to the service shape: every attached worker runs a
//! long-lived size-1 "service job", so the policy context is one
//! [`JobView`] per live node and dead workers fall out of the live set —
//! the next tick's shares are computed over the survivors, which *is* the
//! budget reallocation (no special-case code).

use crate::conn::{ConnError, FrameClass, WorkerConn};
use crate::http::{response, text_response, HttpParser, HttpRequest};
use crate::poller::{PollEvent, Poller};
use perq_apps::{IDLE_WATTS, TDP_WATTS};
use perq_core::{PerqConfig, PerqPolicy};
use perq_proto::{Command, Report};
use perq_sim::{FairPolicy, JobView, PolicyContext, PowerPolicy};
use perq_telemetry::{FieldValue, Recorder};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
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

#[derive(Debug)]
struct NodeState {
    token: usize,
    job_id: u64,
    cap_w: f64,
    last_ips: Option<f64>,
    last_power_w: Option<f64>,
    /// A report arrived since the last tick (the batch flag).
    batched: bool,
    last_report_tick: u64,
    first_tick: u64,
}

struct HttpConn<Io> {
    io: Io,
    parser: HttpParser,
    out: Vec<u8>,
    sent: usize,
    responding: bool,
}

/// The event-loop server, generic over the readiness backend.
pub struct Server<P: Poller> {
    poller: P,
    cfg: ServeConfig,
    policy: Box<dyn PowerPolicy>,
    conns: BTreeMap<usize, WorkerConn<P::Io>>,
    https: BTreeMap<usize, HttpConn<P::Io>>,
    nodes: BTreeMap<u32, NodeState>,
    next_token: usize,
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
}

/// Inbound traffic of one [`Server::pump`], added to the recorder once
/// per pump instead of once per frame.
#[derive(Default)]
struct Inbound {
    frames: u64,
    reports: u64,
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
            conns: BTreeMap::new(),
            https: BTreeMap::new(),
            nodes: BTreeMap::new(),
            next_token: 16, // low tokens reserved for runtime listeners
            ticks: 0,
            budget_w,
            rec,
            engine,
            scratch: vec![0u8; 16 * 1024],
            events: Vec::new(),
            reports: Vec::new(),
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
        let token = self.next_token;
        self.next_token += 1;
        self.poller.register(&io, token)?;
        let mut conn = WorkerConn::new(io, token, self.cfg.max_queued_bytes);
        conn.attached_tick = self.ticks;
        self.conns.insert(token, conn);
        Ok(token)
    }

    /// Adopts an established HTTP client transport.
    pub fn attach_http(&mut self, io: P::Io) -> io::Result<usize> {
        let token = self.next_token;
        self.next_token += 1;
        self.poller.register(&io, token)?;
        self.https.insert(
            token,
            HttpConn {
                io,
                parser: HttpParser::new(),
                out: Vec::new(),
                sent: 0,
                responding: false,
            },
        );
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
            } else if self.https.contains_key(&ev.token) {
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
        Ok(outcome)
    }

    /// Services one ready worker connection; `false` if the token is not
    /// a worker's.
    fn worker_event(&mut self, ev: PollEvent, inbound: &mut Inbound) -> bool {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return false;
        };
        if ev.readable || ev.hangup {
            let mut reports = std::mem::take(&mut self.reports);
            reports.clear();
            let read = conn.read_ready(&mut self.scratch, &mut reports);
            let node_id = conn.node_id;
            // Frames completed before an EOF or a corrupt frame still count.
            let alive = self.on_reports(ev.token, node_id, &reports, inbound);
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
    /// `false` if the connection died. `node_id` is the connection's
    /// registration, if it has one.
    fn on_reports(
        &mut self,
        token: usize,
        node_id: Option<u32>,
        reports: &[Report],
        inbound: &mut Inbound,
    ) -> bool {
        let mut reports = reports.iter();
        let node_id = match node_id {
            Some(id) => id,
            None => {
                // The first report on a connection is its registration.
                let Some(first) = reports.next() else {
                    return true;
                };
                inbound.frames += 1;
                if !self.register_worker(token, first) {
                    return false;
                }
                first.node_id
            }
        };
        for report in reports {
            inbound.frames += 1;
            if report.node_id != node_id {
                self.write_off(token, "node-id-mismatch");
                return false;
            }
            if let Some(n) = self.nodes.get_mut(&node_id) {
                if n.batched {
                    // A delayed report from an earlier interval was superseded.
                    self.engine
                        .counter_inc("perq_serve_reports_superseded_total");
                }
                n.last_ips = Some(report.ips);
                n.last_power_w = Some(report.power_w);
                n.batched = true;
                n.last_report_tick = self.ticks;
            }
            inbound.reports += 1;
        }
        true
    }

    fn register_worker(&mut self, token: usize, report: &Report) -> bool {
        let node_id = report.node_id;
        // A reconnecting node supersedes its stale session.
        if let Some(stale) = self.nodes.get(&node_id).map(|n| n.token) {
            self.write_off(stale, "superseded");
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.node_id = Some(node_id);
        }
        self.nodes.insert(
            node_id,
            NodeState {
                token,
                job_id: u64::from(node_id) + 1,
                cap_w: TDP_WATTS,
                last_ips: None,
                last_power_w: None,
                batched: false,
                last_report_tick: self.ticks,
                first_tick: self.ticks,
            },
        );
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
        let Some(conn) = self.conns.get_mut(&token) else {
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
        let Some(conn) = self.conns.get_mut(&token) else {
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
        let conn = match self.conns.remove(&token) {
            Some(c) => c,
            None => return,
        };
        let _ = self.poller.deregister(&conn.io, token);
        self.engine
            .counter_add("perq_serve_caps_coalesced_total", conn.coalesced);
        if let Some(node_id) = conn.node_id {
            if let Some(n) = self.nodes.get(&node_id) {
                // Only drop state that still belongs to this connection —
                // a reconnect may have already superseded it.
                if n.token == token {
                    let job_id = n.job_id;
                    self.nodes.remove(&node_id);
                    self.policy.job_departed(job_id);
                }
            }
            self.rec.counter_inc("perq_serve_writeoffs_total");
            self.rec.event(
                "perq_serve_writeoff",
                &[
                    ("node", FieldValue::U64(u64::from(node_id))),
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

        // Heartbeat: write off workers silent for too many ticks, and
        // connections that never completed registration (their first
        // report was lost) within the same window.
        let dead: Vec<usize> = self
            .nodes
            .values()
            .filter(|n| self.ticks - n.last_report_tick >= self.cfg.heartbeat_ticks)
            .map(|n| n.token)
            .collect();
        for token in dead {
            self.write_off(token, "heartbeat");
        }
        let unregistered: Vec<usize> = self
            .conns
            .values()
            .filter(|c| {
                c.node_id.is_none() && self.ticks - c.attached_tick >= self.cfg.heartbeat_ticks
            })
            .map(|c| c.token)
            .collect();
        for token in unregistered {
            self.write_off(token, "registration-timeout");
        }

        // Batch the interval's readings into one policy context: one
        // size-1 service job per live node, latest report wins, lost
        // reports surface as `None` measurements.
        let views: Vec<JobView> = self
            .nodes
            .values()
            .map(|n| JobView {
                id: n.job_id,
                size: 1,
                elapsed_s: (self.ticks - n.first_tick) as f64 * self.cfg.interval_s,
                measured_ips: if n.batched { n.last_ips } else { None },
                current_cap_w: n.cap_w,
                measured_power_w: if n.batched { n.last_power_w } else { None },
                remaining_node_hours: 1e9,
                is_new: self.ticks == n.first_tick,
            })
            .collect();

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

            let caps: Vec<f64> = if assignments.len() == views.len() {
                assignments
                    .iter()
                    .map(|a| a.cap_w.clamp(MIN_CAP_WATTS, TDP_WATTS))
                    .collect()
            } else {
                // Defensive: a policy that broke its contract falls back
                // to the fair share rather than taking the loop down.
                self.rec.counter_inc("perq_serve_policy_len_mismatch_total");
                vec![fair; views.len()]
            };

            // Fan out: per worker, queue `SetCap` (if the cap moved) and
            // `Tick`, then send both in one write. Failed sends are
            // written off after the pass, in node order.
            let mut setcaps = 0u64;
            let mut failed: Vec<(usize, ConnError)> = Vec::new();
            for ((&node_id, n), &cap) in self.nodes.iter_mut().zip(caps.iter()) {
                let Some(conn) = self.conns.get_mut(&n.token) else {
                    continue;
                };
                let changed = (cap - n.cap_w).abs() > 1e-9;
                let sent = (|| {
                    if changed {
                        conn.queue(
                            &Command::SetCap { cap_w: cap },
                            FrameClass::Coalesce { key: node_id },
                        )?;
                    }
                    conn.queue(&Command::Tick, FrameClass::Decision)?;
                    conn.flush().map_err(ConnError::Io)
                })();
                match sent {
                    Ok(drained) => {
                        Self::set_write_interest(&mut self.poller, conn, !drained);
                        setcaps += u64::from(changed);
                        n.cap_w = cap;
                        n.batched = false;
                    }
                    Err(e) => failed.push((n.token, e)),
                }
            }
            for (token, err) in failed {
                self.send_failed(token, &err);
            }
            self.rec.counter_add("perq_serve_setcaps_total", setcaps);
        }

        let power: f64 = self
            .nodes
            .values()
            .map(|n| n.last_power_w.unwrap_or(IDLE_WATTS))
            .sum();
        let caps_sum: f64 = self.nodes.values().map(|n| n.cap_w).sum();
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
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.send_to(token, &Command::Shutdown, FrameClass::Decision);
        }
    }

    /// Whether any worker still has unflushed outbound frames.
    pub fn has_backlog(&self) -> bool {
        self.conns.values().any(|c| c.has_backlog())
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
            let conn = self.https.get_mut(&ev.token).expect("checked by pump");
            if ev.readable || ev.hangup {
                loop {
                    match conn.io.read(&mut self.scratch) {
                        Ok(0) => {
                            verdict = Verdict::Close;
                            break;
                        }
                        Ok(n) => {
                            if !conn.responding {
                                conn.parser.feed(&self.scratch[..n]);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            verdict = Verdict::Close;
                            break;
                        }
                    }
                }
                if matches!(verdict, Verdict::Pending) && !conn.responding {
                    match conn.parser.take_request() {
                        Ok(Some(req)) => verdict = Verdict::Request(req),
                        Ok(None) => {}
                        Err(_) => verdict = Verdict::Bad,
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
                if let Some(conn) = self.https.get_mut(&ev.token) {
                    conn.out = bytes;
                    conn.sent = 0;
                    conn.responding = true;
                }
            }
            Verdict::Bad => {
                if let Some(conn) = self.https.get_mut(&ev.token) {
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
        if let Some(conn) = self.https.get_mut(&token) {
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
            if let Some(conn) = self.https.get(&token) {
                let _ = self.poller.set_write_interest(&conn.io, token, true);
            }
        }
    }

    fn close_http(&mut self, token: usize) {
        if let Some(conn) = self.https.remove(&token) {
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
