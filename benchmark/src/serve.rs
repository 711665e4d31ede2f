//! The two control-plane workloads: `serve_mem_2048` and
//! `serve_tcp_1024`.
//!
//! Both drive the product's `Server` with the PERQ policy in a closed
//! loop — settle every frame in flight, then `tick()` — against sans-io
//! `SwarmWorker`s stepped on the same thread. Only the server's own
//! wall time (every `pump` of the round plus `tick`) counts as the
//! round's latency; worker stepping is harness cost that a deployment
//! pays on other machines.

use crate::metrics::Fnv;
use crate::trace::{
    AssignStats, IoStats, SharedIoStats, SpanLog, TracedIo, TracedPolicy, TracedPoller,
};
use perq_core::{PerqConfig, PerqPolicy};
use perq_proto::FrameDecoder;
use perq_serve::{
    mem_pair, EpollPoller, MemIo, MemPoller, Poller, ServeConfig, Server, SwarmStatus, SwarmWorker,
};
use perq_sim::PowerPolicy;
use perq_telemetry::{MetricKind, Recorder, WallClock};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Size of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub workers: u32,
    /// Half the workers, so the budget binds.
    pub wp_nodes: usize,
    /// Rounds run (and discarded) after registration, part of set-up.
    pub warmup_rounds: usize,
    /// Measured rounds per episode.
    pub rounds: usize,
}

/// How the server and its workers are connected.
pub trait Transport: Sized {
    type Io: Read + Write;
    type Poller: Poller<Io = Self::Io>;
    /// Whether bytes cross the kernel's loopback device.
    const LOOPBACK: bool;
    fn open() -> io::Result<Self>;
    fn poller(&self) -> io::Result<Self::Poller>;
    /// A connected `(server end, worker end)` pair, both non-blocking.
    fn pair(&mut self) -> io::Result<(Self::Io, Self::Io)>;
}

/// Bounded in-memory duplex pipes under the deterministic poller.
pub struct Mem;

impl Transport for Mem {
    type Io = MemIo;
    type Poller = MemPoller;
    const LOOPBACK: bool = false;

    fn open() -> io::Result<Self> {
        Ok(Mem)
    }

    fn poller(&self) -> io::Result<MemPoller> {
        Ok(MemPoller::new(0))
    }

    fn pair(&mut self) -> io::Result<(MemIo, MemIo)> {
        Ok(mem_pair(16 * 1024))
    }
}

/// Real TCP connections over 127.0.0.1 under epoll. The harness plays
/// the runtime's accept loop; the server adopts established streams.
pub struct Tcp {
    listener: TcpListener,
}

impl Transport for Tcp {
    type Io = TcpStream;
    type Poller = EpollPoller;
    const LOOPBACK: bool = true;

    fn open() -> io::Result<Self> {
        Ok(Tcp {
            listener: TcpListener::bind("127.0.0.1:0")?,
        })
    }

    fn poller(&self) -> io::Result<EpollPoller> {
        EpollPoller::new()
    }

    fn pair(&mut self) -> io::Result<(TcpStream, TcpStream)> {
        let worker = TcpStream::connect(self.listener.local_addr()?)?;
        let (server, _) = self.listener.accept()?;
        for end in [&worker, &server] {
            end.set_nonblocking(true)?;
            end.set_nodelay(true)?;
        }
        Ok((server, worker))
    }
}

/// What one worker received, for the output checks: a digest of every
/// command payload in order, and how many of them were `Tick`.
#[derive(Debug, Default)]
struct Received {
    decoder: FrameDecoder,
    digest: Fnv,
    ticks: u64,
    corrupt: bool,
}

/// The worker's end of a connection. Reads pass through unchanged and
/// are also decoded on the side — harness cost on the worker's side of
/// the wire, never inside a timed server call.
pub struct DigestIo<Io> {
    inner: Io,
    received: Rc<RefCell<Received>>,
}

impl<Io: Read> Read for DigestIo<Io> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let mut r = self.received.borrow_mut();
        r.decoder.feed(&buf[..n]);
        loop {
            match r.decoder.next_payload() {
                Ok(Some(payload)) => {
                    r.digest.bytes(&payload);
                    // A unit enum variant is its name as a JSON string,
                    // under serde_json and the stand-in alike.
                    if payload == b"\"Tick\"" {
                        r.ticks += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    r.corrupt = true;
                    break;
                }
            }
        }
        Ok(n)
    }
}

impl<Io: Write> Write for DigestIo<Io> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A server, its workers, and the per-worker receive logs.
pub struct Rig<P: Poller, W> {
    server: Server<P>,
    workers: Vec<SwarmWorker<DigestIo<W>>>,
    received: Vec<Rc<RefCell<Received>>>,
    scratch: Vec<u8>,
    /// Reports the server had counted when the last round ended.
    reports_seen: u64,
}

/// Timing of one control round. Instants are kept so a traced pass can
/// turn them into spans; an untraced pass only sums them.
#[derive(Debug, Default)]
pub struct RoundTiming {
    pub pumps: Vec<(Instant, Instant)>,
    pub tick: Option<(Instant, Instant)>,
    /// Wrapper totals when the round, and then its tick, started (traced
    /// passes only).
    pub io_at_start: IoStats,
    pub io_at_tick: IoStats,
    /// Reports the server counted during the round.
    pub reports: u64,
}

impl RoundTiming {
    pub fn pump_ns(&self) -> u64 {
        self.pumps
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_nanos() as u64)
            .sum()
    }

    pub fn tick_ns(&self) -> u64 {
        self.tick
            .map_or(0, |(a, b)| b.duration_since(a).as_nanos() as u64)
    }

    pub fn server_ms(&self) -> f64 {
        (self.pump_ns() + self.tick_ns()) as f64 / 1e6
    }
}

impl<P: Poller, W: Read + Write> Rig<P, W> {
    /// Pumps the server and steps the workers until nothing moves.
    fn settle(&mut self, timing: &mut RoundTiming) -> io::Result<()> {
        loop {
            let t0 = Instant::now();
            let handled = self.server.pump(Some(Duration::ZERO))?.handled;
            timing.pumps.push((t0, Instant::now()));
            let mut any = handled > 0;
            for w in self.workers.iter_mut() {
                if w.finished().is_none() && w.step(&mut self.scratch) == SwarmStatus::Progress {
                    any = true;
                }
            }
            if !any {
                return Ok(());
            }
        }
    }

    /// One control round: settle all frames in flight, then tick. Every
    /// worker answers every `Tick` with one report, so a round that
    /// follows a tick is not settled until that many reports arrived;
    /// on loopback TCP delivery can trail the `write` by a softirq, and
    /// a bounded number of 1 ms polls waits for it.
    fn round(&mut self, io: Option<&SharedIoStats>) -> io::Result<RoundTiming> {
        let mut timing = RoundTiming::default();
        if let Some(io) = io {
            timing.io_at_start = *io.borrow();
        }
        let expected = if self.server.ticks() == 0 {
            0
        } else {
            self.workers.len() as u64
        };
        self.settle(&mut timing)?;
        let mut waits = 0;
        loop {
            timing.reports = self
                .server
                .recorder()
                .counter_value("perq_serve_reports_total")
                - self.reports_seen;
            if timing.reports >= expected || waits == 50 {
                break;
            }
            waits += 1;
            let t0 = Instant::now();
            self.server.pump(Some(Duration::from_millis(1)))?;
            timing.pumps.push((t0, Instant::now()));
            self.settle(&mut timing)?;
        }
        self.reports_seen += timing.reports;
        if let Some(io) = io {
            timing.io_at_tick = *io.borrow();
        }
        let t0 = Instant::now();
        self.server.tick();
        timing.tick = Some((t0, Instant::now()));
        Ok(timing)
    }
}

/// Builds the rig and runs registration plus the warm-up rounds: the
/// workload's whole set-up.
#[allow(clippy::too_many_arguments)]
fn setup<T: Transport, P: Poller>(
    shape: &ServeShape,
    seed: u64,
    poller: P,
    mut wrap: impl FnMut(T::Io) -> P::Io,
    policy: Box<dyn PowerPolicy>,
    engine: Recorder,
    transport: &mut T,
    io: Option<&SharedIoStats>,
) -> io::Result<Rig<P, T::Io>> {
    let cfg = ServeConfig {
        wp_nodes: shape.wp_nodes,
        // The decide deadline stays armed — the solver pays for checking
        // it — but far enough out that it cannot fire: a truncated solve
        // would make the caps depend on the host's timing, and every
        // output check below relies on one seed giving one answer.
        decide_budget: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let interval_s = cfg.interval_s;
    // The deterministic recorder is product configuration (it backs
    // `/metrics`, `perq serve` always runs with it), so it is live on
    // every pass; only the wall-clock engine recorder is a tracing cost.
    let server = Server::with_recorders(poller, cfg, policy, Recorder::manual(), engine);
    let mut rig = Rig {
        server,
        workers: Vec::with_capacity(shape.workers as usize),
        received: Vec::with_capacity(shape.workers as usize),
        scratch: vec![0u8; 64 * 1024],
        reports_seen: 0,
    };
    for node_id in 0..shape.workers {
        let (server_end, worker_end) = transport.pair()?;
        rig.server.attach_worker(wrap(server_end))?;
        let received = Rc::new(RefCell::new(Received::default()));
        rig.received.push(Rc::clone(&received));
        // Each node draws its own measurement-noise stream from the seed.
        let worker_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(node_id);
        rig.workers.push(SwarmWorker::new(
            node_id,
            perq_apps::ecp_suite(),
            interval_s,
            worker_seed,
            DigestIo {
                inner: worker_end,
                received,
            },
        ));
    }
    for _ in 0..=shape.warmup_rounds {
        rig.round(io)?;
    }
    Ok(rig)
}

/// Per-round layer totals of a traced episode, nanoseconds and counts.
#[derive(Debug, Default, Clone)]
pub struct ServeLayers {
    pub rounds: u64,
    pub pump_ns: u64,
    pub tick_ns: u64,
    pub assign_ns: u64,
    /// Wrapper totals during the pumps.
    pub pump_io: IoStats,
    /// Wrapper totals during the ticks (cap fan-out writes).
    pub tick_io: IoStats,
    pub setcaps: u64,
    pub writeoffs: u64,
    pub caps_coalesced: u64,
    /// Rounds whose parts exceeded the whole (must stay 0).
    pub accounting_breaks: u64,
}

impl ServeLayers {
    /// Adds another traced episode's totals. The `*_total` counters are
    /// per server, so the latest episode's values stand.
    pub fn absorb(&mut self, other: &ServeLayers) {
        self.rounds += other.rounds;
        self.pump_ns += other.pump_ns;
        self.tick_ns += other.tick_ns;
        self.assign_ns += other.assign_ns;
        self.pump_io.add(&other.pump_io);
        self.tick_io.add(&other.tick_io);
        self.setcaps += other.setcaps;
        self.writeoffs = other.writeoffs;
        self.caps_coalesced = other.caps_coalesced;
        self.accounting_breaks += other.accounting_breaks;
    }

    /// Wrapper totals over pumps and ticks together.
    pub fn io_total(&self) -> IoStats {
        let mut total = self.pump_io;
        total.add(&self.tick_io);
        total
    }
}

/// What a traced episode hands to the probes and the metrics.
pub struct ServeTrace {
    pub layers: ServeLayers,
    pub policy: Arc<Mutex<PerqPolicy>>,
    pub assign: Arc<Mutex<AssignStats>>,
    pub engine: Recorder,
}

/// Outcome of one episode (set-up plus measured rounds).
pub struct ServeEpisode {
    pub setup_s: f64,
    /// Server-side milliseconds of each measured round.
    pub round_ms: Vec<f64>,
    /// Consumed power over budget, per measured round.
    pub power_use: Vec<f64>,
    pub failed_rounds: u64,
    /// Why the episode's outputs are wrong, if they are.
    pub defects: Vec<String>,
    pub digest: u64,
    pub trace: Option<ServeTrace>,
}

/// Server-reported power over budget, from the deterministic
/// recorder's gauges.
fn power_over_budget(rec: &Recorder) -> Option<f64> {
    let snapshot = rec.snapshot();
    let gauge = |name: &str| {
        snapshot.iter().find_map(|m| match m.kind {
            MetricKind::Gauge(v) if m.name == name => Some(v),
            _ => None,
        })
    };
    let budget = gauge("perq_serve_budget_w").filter(|b| *b > 0.0)?;
    Some(gauge("perq_serve_power_w")? / budget)
}

/// Runs the measured rounds on a warmed-up rig and checks its outputs.
fn measure<P: Poller, W: Read + Write>(
    mut rig: Rig<P, W>,
    shape: &ServeShape,
    setup_s: f64,
    mut tracing: Option<(&mut SpanLog, &SharedIoStats, &Arc<Mutex<AssignStats>>)>,
) -> io::Result<(ServeEpisode, ServeLayers)> {
    let n = shape.workers as usize;
    let mut episode = ServeEpisode {
        setup_s,
        round_ms: Vec::with_capacity(shape.rounds),
        power_use: Vec::with_capacity(shape.rounds),
        failed_rounds: 0,
        defects: Vec::new(),
        digest: 0,
        trace: None,
    };
    let mut layers = ServeLayers::default();
    let rec = rig.server.recorder().clone();
    let mut violations = rec.counter_value("perq_serve_budget_violations_total");
    let setcaps_before = rec.counter_value("perq_serve_setcaps_total");

    for r in 0..shape.rounds {
        let timing = rig.round(tracing.as_ref().map(|(_, io, _)| *io))?;
        episode.round_ms.push(timing.server_ms());

        // An op is a round. It fails if a worker was written off, if a
        // report went missing, or if reported power exceeded the budget.
        let violations_now = rec.counter_value("perq_serve_budget_violations_total");
        let failed = rig.server.live_nodes() != n
            || timing.reports != n as u64
            || violations_now != violations;
        violations = violations_now;
        episode.failed_rounds += u64::from(failed);
        episode.power_use.extend(power_over_budget(&rec));

        if let Some((log, io, assign)) = tracing.as_mut() {
            let pump_io = timing.io_at_tick.since(&timing.io_at_start);
            let tick_io = io.borrow().since(&timing.io_at_tick);
            let (tick_start, tick_end) = timing.tick.expect("round ticked");
            // This tick's `assign`, if the policy was consulted.
            let assign_call = assign
                .lock()
                .expect("assign stats")
                .calls
                .last()
                .copied()
                .filter(|(a, _)| *a >= tick_start);
            let assign_ns = assign_call.map_or(0, |(a, b)| b.duration_since(a).as_nanos() as u64);

            let seq = r as u64;
            let round_id = log.reserve();
            for &(a, b) in &timing.pumps {
                log.push("serve.pump", round_id, seq, a, b);
            }
            let tick_id = log.push("serve.tick", round_id, seq, tick_start, tick_end);
            if let Some((a, b)) = assign_call {
                log.push("core.assign", tick_id, seq, a, b);
            }
            log.push_with_id(round_id, "serve.round", 0, seq, timing.pumps[0].0, tick_end);

            // The parts are measured inside the wholes, so a part that
            // exceeds its whole means a wrapper double-counted.
            let pump_parts = pump_io.poll_ns + pump_io.io_ns();
            let tick_parts = assign_ns + tick_io.io_ns() + tick_io.poll_ns;
            if pump_parts > timing.pump_ns() || tick_parts > timing.tick_ns() {
                layers.accounting_breaks += 1;
            }
            layers.rounds += 1;
            layers.pump_ns += timing.pump_ns();
            layers.tick_ns += timing.tick_ns();
            layers.assign_ns += assign_ns;
            layers.pump_io.add(&pump_io);
            layers.tick_io.add(&tick_io);
        }
    }
    layers.setcaps = rec.counter_value("perq_serve_setcaps_total") - setcaps_before;
    layers.writeoffs = rec.counter_value("perq_serve_writeoffs_total");
    layers.caps_coalesced = rig
        .server
        .engine_recorder()
        .counter_value("perq_serve_caps_coalesced_total");

    // Deliver the last tick's frames (untimed), then check what every
    // worker saw: alive, and exactly one `Tick` per server tick.
    rig.settle(&mut RoundTiming::default())?;
    let ticks = rig.server.ticks();
    if rig.server.live_nodes() != n {
        episode.defects.push(format!(
            "{} of {n} workers live at the end",
            rig.server.live_nodes()
        ));
    }
    let mut digest = Fnv::default();
    digest.bytes(rec.export_prometheus().as_bytes());
    for (w, received) in rig.workers.iter().zip(&rig.received) {
        let r = received.borrow();
        if w.finished().is_some() || r.corrupt || r.ticks != ticks {
            episode.defects.push(format!(
                "worker {}: finished={:?} corrupt={} ticks={} of {ticks}",
                w.node_id(),
                w.finished(),
                r.corrupt,
                r.ticks
            ));
            if episode.defects.len() > 8 {
                break;
            }
        }
        digest.u64(r.digest.0);
    }
    episode.digest = digest.0;
    Ok((episode, layers))
}

/// The rig of an untraced episode: the transport's own poller and I/O.
type PlainRig<T> = Rig<<T as Transport>::Poller, <T as Transport>::Io>;

/// Untraced set-up: the product's types only, engine recorder off.
/// Returns the warmed-up rig and the seconds it took to build.
fn setup_untraced<T: Transport>(shape: &ServeShape, seed: u64) -> io::Result<(PlainRig<T>, f64)> {
    let t0 = Instant::now();
    let mut transport = T::open()?;
    let poller = transport.poller()?;
    let policy = perq_serve::make_policy("perq").expect("perq is a known policy");
    let rig = setup::<T, T::Poller>(
        shape,
        seed,
        poller,
        |io| io,
        policy,
        Recorder::noop(),
        &mut transport,
        None,
    )?;
    Ok((rig, t0.elapsed().as_secs_f64()))
}

/// Seconds one untraced set-up takes (the rig is dropped).
pub fn setup_only<T: Transport>(shape: &ServeShape, seed: u64) -> io::Result<f64> {
    Ok(setup_untraced::<T>(shape, seed)?.1)
}

/// One untraced episode.
pub fn episode_untraced<T: Transport>(shape: &ServeShape, seed: u64) -> io::Result<ServeEpisode> {
    let (rig, setup_s) = setup_untraced::<T>(shape, seed)?;
    Ok(measure(rig, shape, setup_s, None)?.0)
}

/// One traced episode: wrappers at every seam, wall-clock engine
/// recorder live, spans into `log`.
pub fn episode_traced<T: Transport>(
    shape: &ServeShape,
    seed: u64,
    log: &mut SpanLog,
) -> io::Result<ServeEpisode> {
    let t0 = Instant::now();
    let mut transport = T::open()?;
    let io: SharedIoStats = Rc::new(RefCell::new(IoStats::default()));
    let poller = TracedPoller::new(transport.poller()?, Rc::clone(&io));
    // What `make_policy("perq")` builds, kept concrete so the probes can
    // read the policy's state back.
    let traced = TracedPolicy::new(PerqPolicy::new(PerqConfig::default()));
    let (policy, assign) = (Arc::clone(&traced.policy), Arc::clone(&traced.stats));
    let engine = Recorder::with_clock(Box::new(WallClock::new()));
    let wrap_stats = Rc::clone(&io);
    let rig = setup::<T, TracedPoller<T::Poller>>(
        shape,
        seed,
        poller,
        move |inner| TracedIo::new(inner, Rc::clone(&wrap_stats)),
        Box::new(traced),
        engine.clone(),
        &mut transport,
        Some(&io),
    )?;
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut episode, layers) = measure(rig, shape, setup_s, Some((log, &io, &assign)))?;
    if layers.accounting_breaks > 0 {
        episode.defects.push(format!(
            "{} rounds where the traced parts exceed the whole",
            layers.accounting_breaks
        ));
    }
    episode.trace = Some(ServeTrace {
        layers,
        policy,
        assign,
        engine,
    });
    Ok(episode)
}
