//! Swarm workers: many simulated nodes against one serve loop.
//!
//! [`SwarmWorker`] is the sans-io twin of [`perq_proto::NodeWorker::run`]
//! — the same register/command/report protocol, but driven by explicit
//! [`SwarmWorker::step`] calls over any non-blocking transport, so a
//! single thread can advance thousands of workers deterministically
//! (loopback tests, the `serve_scaling` bench). [`run_tcp_swarm`] is the
//! thread-per-worker TCP runner behind the `perq swarm` CLI.

use perq_apps::AppProfile;
use perq_proto::{Command, FrameDecoder, FrameEncoder, NodeWorker, ProtoError, Report};
use std::io::{self, Read, Write};

/// Outcome of a [`SwarmWorker::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmStatus {
    /// Nothing to do right now.
    Idle,
    /// Frames moved or a command was processed.
    Progress,
    /// The worker hit its injected crash tick; the harness should close
    /// the transport to make the controller see the node vanish.
    Crashed,
    /// The controller sent `Shutdown`; the session is over.
    Shutdown,
    /// The transport died under the worker.
    Dead,
}

/// A non-blocking worker session around [`NodeWorker`].
pub struct SwarmWorker<Io> {
    worker: NodeWorker,
    io: Io,
    app_names: Vec<String>,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    out: std::collections::VecDeque<Vec<u8>>,
    out_sent: usize,
    ticks_seen: usize,
    crash_at_tick: Option<usize>,
    registered: bool,
    finished: Option<SwarmStatus>,
}

impl<Io: Read + Write> SwarmWorker<Io> {
    /// Creates a worker session; the registration report goes out on the
    /// first [`SwarmWorker::step`].
    pub fn new(node_id: u32, apps: Vec<AppProfile>, interval_s: f64, seed: u64, io: Io) -> Self {
        let app_names = apps.iter().map(|a| a.name.clone()).collect();
        SwarmWorker {
            worker: NodeWorker::new(node_id, apps, interval_s, seed),
            io,
            app_names,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            out: std::collections::VecDeque::new(),
            out_sent: 0,
            ticks_seen: 0,
            crash_at_tick: None,
            registered: false,
            finished: None,
        }
    }

    /// Arms an injected crash: the worker vanishes (no report) when it
    /// sees its `tick`-th `Tick` command, mirroring
    /// [`NodeWorker::with_crash_at_tick`].
    pub fn with_crash_at_tick(mut self, tick: usize) -> Self {
        self.crash_at_tick = Some(tick);
        self
    }

    /// The node id.
    pub fn node_id(&self) -> u32 {
        self.worker.node_id()
    }

    /// Whether the session ended, and how.
    pub fn finished(&self) -> Option<SwarmStatus> {
        self.finished
    }

    /// Access to the transport (to close it after a crash).
    pub fn io(&self) -> &Io {
        &self.io
    }

    fn queue<T: serde::Serialize>(&mut self, value: &T) {
        let frame = self.encoder.encode(value).expect("report serialization");
        self.out.push_back(frame);
    }

    /// Writes queued frames one `write` call per frame (the granularity
    /// `FaultyTransport` injects faults at). Returns bytes written.
    fn flush(&mut self) -> io::Result<usize> {
        let mut wrote = 0;
        while let Some(front) = self.out.front() {
            match self.io.write(&front[self.out_sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_sent += n;
                    wrote += n;
                    if self.out_sent == front.len() {
                        self.out.pop_front();
                        self.out_sent = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(wrote)
    }

    /// Advances the session: registers, drains inbound commands, writes
    /// pending reports. Safe to call after the session finished (returns
    /// the final status).
    pub fn step(&mut self, scratch: &mut [u8]) -> SwarmStatus {
        if let Some(status) = self.finished {
            return status;
        }
        let mut progressed = false;
        if !self.registered {
            self.registered = true;
            progressed = true;
            let report = Report {
                node_id: self.worker.node_id(),
                job_id: None,
                ips: 0.0,
                power_w: perq_apps::IDLE_WATTS,
                job_done: false,
            };
            self.queue(&report);
        }
        match self.flush() {
            Ok(n) => progressed |= n > 0,
            Err(_) => {
                self.finished = Some(SwarmStatus::Dead);
                return SwarmStatus::Dead;
            }
        }
        loop {
            match self.io.read(scratch) {
                Ok(0) => {
                    self.finished = Some(SwarmStatus::Dead);
                    return SwarmStatus::Dead;
                }
                Ok(n) => {
                    progressed = true;
                    self.decoder.feed(&scratch[..n]);
                    loop {
                        let cmd: Command = match self.decoder.next_frame() {
                            Ok(Some(c)) => c,
                            Ok(None) => break,
                            Err(_) => {
                                self.finished = Some(SwarmStatus::Dead);
                                return SwarmStatus::Dead;
                            }
                        };
                        match cmd {
                            Command::Shutdown => {
                                self.finished = Some(SwarmStatus::Shutdown);
                                return SwarmStatus::Shutdown;
                            }
                            Command::SetCap { cap_w } => {
                                self.worker.set_cap(cap_w);
                            }
                            Command::Launch {
                                job_id,
                                app,
                                work_intervals,
                            } => {
                                let idx = self
                                    .app_names
                                    .iter()
                                    .position(|n| n == &app)
                                    .unwrap_or_default();
                                self.worker.launch(job_id, idx, work_intervals);
                            }
                            Command::Tick => {
                                if self.crash_at_tick == Some(self.ticks_seen) {
                                    self.finished = Some(SwarmStatus::Crashed);
                                    return SwarmStatus::Crashed;
                                }
                                self.ticks_seen += 1;
                                let report = self.worker.tick();
                                self.queue(&report);
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.finished = Some(SwarmStatus::Dead);
                    return SwarmStatus::Dead;
                }
            }
        }
        match self.flush() {
            Ok(n) => progressed |= n > 0,
            Err(_) => {
                self.finished = Some(SwarmStatus::Dead);
                return SwarmStatus::Dead;
            }
        }
        if progressed {
            SwarmStatus::Progress
        } else {
            SwarmStatus::Idle
        }
    }
}

/// Connects `nodes` blocking TCP workers to a serve loop and runs each on
/// its own thread until shutdown. Returns once every worker exited; the
/// per-worker results preserve node order.
pub fn run_tcp_swarm(
    addr: &str,
    nodes: u32,
    interval_s: f64,
    seed: u64,
) -> Vec<Result<(), ProtoError>> {
    let mut handles = Vec::new();
    for node_id in 0..nodes {
        let addr = addr.to_string();
        handles.push((
            node_id,
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(&addr).map_err(ProtoError::Socket)?;
                stream.set_nodelay(true).ok();
                let worker = NodeWorker::new(
                    node_id,
                    perq_apps::ecp_suite(),
                    interval_s,
                    seed ^ u64::from(node_id),
                );
                worker.run(stream)
            }),
        ));
    }
    handles
        .into_iter()
        .map(|(node_id, h)| h.join().unwrap_or(Err(ProtoError::WorkerPanic { node_id })))
        .collect()
}
