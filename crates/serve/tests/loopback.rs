//! Loopback harness: full serve loops over the in-memory poller.
//!
//! Everything here is single-threaded and driven by logical ticks, so a
//! run is a pure function of its inputs — which is exactly what the
//! determinism tests assert, across repeated runs *and* across poller
//! batch sizes.

use perq_proto::{Command, FaultyTransport, FrameDecoder, FrameEncoder};
use perq_serve::{
    make_policy, mem_pair, MemIo, MemPoller, PollEvent, Poller, ServeConfig, Server, SwarmStatus,
    SwarmWorker,
};
use perq_telemetry::{parse_prometheus, validate_prometheus, Recorder, WallClock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::time::Duration;

const PIPE_CAP: usize = 256 * 1024;

#[derive(Debug, Clone, Copy, Default)]
struct Faults {
    drop: f64,
    corrupt: f64,
    delay_ms: u64,
    crash_at: Option<usize>,
}

/// Worker transport whose faults arm only after the registration frame,
/// so drop/corrupt exercise the mid-session paths (heartbeat write-off,
/// corrupt-frame write-off) instead of just losing the handshake.
struct Transport {
    faulty: FaultyTransport<MemIo>,
    raw: MemIo,
    clean_writes_left: usize,
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.raw.read(buf)
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.clean_writes_left > 0 {
            self.clean_writes_left -= 1;
            self.raw.write(buf)
        } else {
            self.faulty.write(buf)
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.raw.flush()
    }
}

struct Rig {
    server: Server<MemPoller>,
    workers: Vec<SwarmWorker<Transport>>,
    handles: Vec<MemIo>,
    scratch: Vec<u8>,
}

fn build_rig(nodes: u32, batch: usize, cfg: ServeConfig, faults: &BTreeMap<u32, Faults>) -> Rig {
    let server = Server::with_recorders(
        MemPoller::new(batch),
        cfg,
        make_policy("fop").unwrap(),
        Recorder::manual(),
        Recorder::noop(),
    );
    let mut rig = Rig {
        server,
        workers: Vec::new(),
        handles: Vec::new(),
        scratch: vec![0u8; 16 * 1024],
    };
    for node_id in 0..nodes {
        let (server_io, worker_io) = mem_pair(PIPE_CAP);
        rig.server.attach_worker(server_io).unwrap();
        let f = faults.get(&node_id).copied().unwrap_or_default();
        let mut faulty = FaultyTransport::new(worker_io.clone(), u64::from(node_id))
            .with_drop_prob(f.drop)
            .with_corrupt_prob(f.corrupt);
        if f.delay_ms > 0 {
            faulty = faulty.with_delay(Duration::from_millis(f.delay_ms));
        }
        let transport = Transport {
            faulty,
            raw: worker_io.clone(),
            clean_writes_left: 1, // registration goes through untouched
        };
        let mut w = SwarmWorker::new(node_id, perq_apps::ecp_suite(), 1.0, 42, transport);
        if let Some(t) = f.crash_at {
            w = w.with_crash_at_tick(t);
        }
        rig.workers.push(w);
        rig.handles.push(worker_io);
    }
    rig
}

/// Pumps the server and steps every worker until a full round moves
/// nothing — the inter-tick quiescent point.
fn settle(rig: &mut Rig) {
    for _ in 0..100_000 {
        let mut any = rig.server.pump(Some(Duration::ZERO)).unwrap().handled > 0;
        for (w, h) in rig.workers.iter_mut().zip(&rig.handles) {
            if w.finished().is_some() {
                continue;
            }
            match w.step(&mut rig.scratch) {
                SwarmStatus::Progress => any = true,
                SwarmStatus::Crashed => {
                    // The node vanishes: close the pipe so the server
                    // observes EOF like a dead TCP peer.
                    h.close();
                    any = true;
                }
                SwarmStatus::Shutdown | SwarmStatus::Dead => any = true,
                SwarmStatus::Idle => {}
            }
        }
        if !any {
            return;
        }
    }
    panic!("loopback harness failed to quiesce");
}

/// Performs one HTTP exchange against the serve loop and returns the raw
/// response bytes.
fn http(rig: &mut Rig, request: &[u8]) -> Vec<u8> {
    let (server_io, mut client) = mem_pair(PIPE_CAP);
    rig.server.attach_http(server_io).unwrap();
    client.write_all(request).unwrap();
    let mut resp = Vec::new();
    let mut buf = [0u8; 4096];
    for _ in 0..10_000 {
        rig.server.pump(Some(Duration::ZERO)).unwrap();
        match client.read(&mut buf) {
            Ok(0) => return resp,
            Ok(n) => resp.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("http client read: {e}"),
        }
    }
    panic!("no http response after 10k pumps");
}

fn http_body(resp: &[u8]) -> &[u8] {
    let text = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    &resp[text + 4..]
}

/// Runs `ticks` decide ticks with inter-tick settling; optional admin
/// requests fire right before their scheduled tick.
fn run(rig: &mut Rig, ticks: u64, admin: &[(u64, &[u8])]) {
    for tick in 0..ticks {
        settle(rig);
        for (at, req) in admin {
            if *at == tick {
                http(rig, req);
            }
        }
        rig.server.tick();
    }
    settle(rig);
}

fn gauge(prom: &str, name: &str) -> f64 {
    parse_prometheus(prom)
        .unwrap()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("missing sample {name}"))
        .value
}

#[test]
fn loopback_exports_are_byte_identical_across_runs_and_poll_batches() {
    let mut exports = Vec::new();
    for batch in [0, 0, 3, 1024] {
        let mut rig = build_rig(8, batch, ServeConfig::default(), &BTreeMap::new());
        run(&mut rig, 30, &[]);
        exports.push((
            rig.server.recorder().export_prometheus(),
            rig.server.recorder().export_jsonl(),
        ));
    }
    assert_eq!(exports[0], exports[1], "repeat run diverged");
    assert_eq!(exports[0], exports[2], "batch=3 diverged from unlimited");
    assert_eq!(exports[0], exports[3], "batch=1024 diverged from unlimited");

    let prom = &exports[0].0;
    validate_prometheus(
        prom,
        &[
            "perq_serve_ticks_total",
            "perq_serve_live_nodes",
            "perq_serve_power_w",
            "perq_serve_budget_w",
        ],
    )
    .unwrap();
    assert_eq!(gauge(prom, "perq_serve_ticks_total"), 30.0);
    assert_eq!(gauge(prom, "perq_serve_live_nodes"), 8.0);
    // FOP at 8 live nodes under an 8-node-TDP budget: everyone at TDP.
    assert_eq!(gauge(prom, "perq_serve_caps_w"), 8.0 * 290.0);
}

#[test]
fn fault_matrix_survives_with_deterministic_writeoffs() {
    let mut faults = BTreeMap::new();
    faults.insert(
        1,
        Faults {
            drop: 0.8,
            ..Faults::default()
        },
    );
    faults.insert(
        2,
        Faults {
            corrupt: 0.4,
            ..Faults::default()
        },
    );
    faults.insert(
        3,
        Faults {
            delay_ms: 1,
            ..Faults::default()
        },
    );
    faults.insert(
        4,
        Faults {
            crash_at: Some(5),
            ..Faults::default()
        },
    );

    let cfg = ServeConfig {
        wp_nodes: 4, // budget 1160 W: shares move visibly on write-offs
        ..ServeConfig::default()
    };

    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut rig = build_rig(8, 0, cfg.clone(), &faults);
        run(&mut rig, 40, &[]);
        let prom = rig.server.recorder().export_prometheus();
        let jsonl = rig.server.recorder().export_jsonl();
        let live = rig.server.live_nodes();
        runs.push((prom, jsonl, live));
    }
    // Write-off ticks, reasons, and every metric are identical run-to-run.
    assert_eq!(runs[0], runs[1], "fault run is not deterministic");

    let (prom, jsonl, live) = &runs[0];
    // The crasher and the corrupter are certainly gone; the delayed and
    // the clean workers certainly survive. The dropper's fate is sealed
    // by its seed either way.
    let writeoffs = gauge(prom, "perq_serve_writeoffs_total") as usize;
    assert!(writeoffs >= 2, "expected >=2 write-offs, got {writeoffs}");
    assert!(
        *live >= 4,
        "clean+delayed workers must survive, live={live}"
    );
    assert_eq!(*live, 8 - writeoffs);
    assert!(
        jsonl.contains("perq_serve_writeoff"),
        "write-off events missing"
    );
    assert!(
        jsonl.contains("corrupt-frame"),
        "corrupt fault not classified"
    );
    assert!(jsonl.contains("peer-gone"), "crash fault not classified");

    // Budget reallocation falls out of the live set: FOP shares over the
    // survivors, clamped to TDP.
    let live_f = *live as f64;
    let expected_share = (1160.0 / live_f).clamp(90.0, 290.0);
    let caps = gauge(prom, "perq_serve_caps_w");
    assert!(
        (caps - expected_share * live_f).abs() < 1e-6,
        "caps {caps} != {live_f} x {expected_share}"
    );
    // The serve loop itself never died: all 40 ticks ran.
    assert_eq!(gauge(prom, "perq_serve_ticks_total"), 40.0);
}

#[test]
fn budget_and_policy_hot_reload_mid_run_without_dropping_a_tick() {
    let mut rig = build_rig(4, 0, ServeConfig::default(), &BTreeMap::new());
    // Default budget: 8 x 290 = 2320 W. Halve it mid-run, then swap the
    // policy to PERQ a little later.
    let budget_req =
        b"POST /admin/budget HTTP/1.1\r\nContent-Length: 10\r\n\r\nwatts=1160" as &[u8];
    let policy_req = b"POST /admin/policy HTTP/1.1\r\nContent-Length: 4\r\n\r\nperq" as &[u8];
    run(&mut rig, 20, &[(10, budget_req), (14, policy_req)]);

    assert_eq!(rig.server.policy_name(), "PERQ");
    assert!((rig.server.budget_w() - 1160.0).abs() < 1e-12);

    let prom = rig.server.recorder().export_prometheus();
    assert_eq!(
        gauge(&prom, "perq_serve_ticks_total"),
        20.0,
        "a hot reload dropped a tick"
    );
    assert_eq!(gauge(&prom, "perq_serve_budget_reloads_total"), 1.0);
    assert_eq!(gauge(&prom, "perq_serve_policy_reloads_total"), 1.0);
    assert_eq!(gauge(&prom, "perq_serve_budget_w"), 1160.0);
    // 4 workers under 1160 W: also within the tightened budget.
    assert!(gauge(&prom, "perq_serve_caps_w") <= 1160.0 + 1e-9);
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_over_http() {
    let mut rig = build_rig(4, 0, ServeConfig::default(), &BTreeMap::new());
    run(&mut rig, 5, &[]);
    let resp = http(&mut rig, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    let text = String::from_utf8(resp.clone()).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    let body = String::from_utf8(http_body(&resp).to_vec()).unwrap();
    validate_prometheus(&body, &["perq_serve_ticks_total", "perq_serve_live_nodes"]).unwrap();

    let health = http(&mut rig, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.starts_with(b"HTTP/1.1 200"));
    let missing = http(&mut rig, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(missing.starts_with(b"HTTP/1.1 404"));
    let bad = http(
        &mut rig,
        b"POST /admin/budget HTTP/1.1\r\nContent-Length: 4\r\n\r\nx=yz",
    );
    assert!(bad.starts_with(b"HTTP/1.1 400"));
}

#[test]
fn a_flooding_http_peer_costs_one_bounded_request() {
    // 1 MiB with no blank line, all of it already in the pipe: the
    // control thread must answer 400 from a bounded prefix, not read the
    // stream to its end before it looks at a limit.
    let mut rig = build_rig(2, 0, ServeConfig::default(), &BTreeMap::new());
    let (server_io, mut client) = mem_pair(1 << 20);
    let server_end = server_io.clone();
    rig.server.attach_http(server_io).unwrap();
    client.write_all(&vec![b'a'; 1 << 20]).unwrap();
    rig.server.pump(Some(Duration::ZERO)).unwrap();
    let unread = server_end.pending_read();
    assert!(
        unread >= (1 << 20) - 32 * 1024,
        "one event read {} bytes of the flood",
        (1 << 20) - unread
    );
    let mut resp = [0u8; 64];
    let n = client.read(&mut resp).unwrap();
    assert!(resp[..n].starts_with(b"HTTP/1.1 400"), "{:?}", &resp[..n]);
    // The workers beside it are still served.
    run(&mut rig, 3, &[]);
    let health = http(&mut rig, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.starts_with(b"HTTP/1.1 200"));
}

#[test]
fn workers_shut_down_cleanly_on_request() {
    let mut rig = build_rig(3, 0, ServeConfig::default(), &BTreeMap::new());
    run(&mut rig, 5, &[]);
    rig.server.shutdown();
    settle(&mut rig);
    for w in &rig.workers {
        assert_eq!(w.finished(), Some(SwarmStatus::Shutdown));
    }
}

/// I/O calls the server made on its ends of the worker pipes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct IoCounts {
    reads_ok: u64,
    reads_wouldblock: u64,
    writes: u64,
}

/// The server's end of a pipe, counting every call.
struct CountingIo {
    inner: MemIo,
    counts: Rc<RefCell<IoCounts>>,
}

impl Read for CountingIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let result = self.inner.read(buf);
        let mut c = self.counts.borrow_mut();
        match &result {
            Ok(n) if *n > 0 => c.reads_ok += 1,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => c.reads_wouldblock += 1,
            _ => {}
        }
        result
    }
}

impl Write for CountingIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.counts.borrow_mut().writes += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `MemPoller` over [`CountingIo`] ends.
struct CountingPoller(MemPoller);

impl Poller for CountingPoller {
    type Io = CountingIo;

    fn register(&mut self, io: &CountingIo, token: usize) -> io::Result<()> {
        self.0.register(&io.inner, token)
    }

    fn set_write_interest(&mut self, io: &CountingIo, token: usize, on: bool) -> io::Result<()> {
        self.0.set_write_interest(&io.inner, token, on)
    }

    fn deregister(&mut self, io: &CountingIo, token: usize) -> io::Result<()> {
        self.0.deregister(&io.inner, token)
    }

    fn poll(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        self.0.poll(out, timeout)
    }
}

/// The worker's end of a pipe, keeping a copy of every byte it reads.
struct TapIo {
    inner: MemIo,
    seen: Rc<RefCell<Vec<u8>>>,
}

impl Read for TapIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.borrow_mut().extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl Write for TapIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A server whose worker-side I/O is counted, and workers whose inbound
/// bytes are tapped.
struct CountedRig {
    server: Server<CountingPoller>,
    workers: Vec<SwarmWorker<TapIo>>,
    taps: Vec<Rc<RefCell<Vec<u8>>>>,
    counts: Rc<RefCell<IoCounts>>,
    scratch: Vec<u8>,
}

fn counted_rig(
    nodes: u32,
    batch: usize,
    pipe_cap: usize,
    policy: &str,
    cfg: ServeConfig,
) -> CountedRig {
    let counts = Rc::new(RefCell::new(IoCounts::default()));
    let mut rig = CountedRig {
        server: Server::with_recorders(
            CountingPoller(MemPoller::new(batch)),
            cfg,
            make_policy(policy).unwrap(),
            Recorder::manual(),
            Recorder::with_clock(Box::new(WallClock::new())),
        ),
        workers: Vec::new(),
        taps: Vec::new(),
        counts: Rc::clone(&counts),
        scratch: vec![0u8; 16 * 1024],
    };
    for node_id in 0..nodes {
        let (server_io, worker_io) = mem_pair(pipe_cap);
        rig.server
            .attach_worker(CountingIo {
                inner: server_io,
                counts: Rc::clone(&counts),
            })
            .unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        rig.taps.push(Rc::clone(&seen));
        rig.workers.push(SwarmWorker::new(
            node_id,
            perq_apps::ecp_suite(),
            1.0,
            42,
            TapIo {
                inner: worker_io,
                seen,
            },
        ));
    }
    rig
}

impl CountedRig {
    /// Pumps the server, and steps the workers unless `stalled`, until
    /// nothing moves.
    fn settle(&mut self, stalled: bool) {
        for _ in 0..100_000 {
            let mut any = self.server.pump(Some(Duration::ZERO)).unwrap().handled > 0;
            if !stalled {
                for w in self.workers.iter_mut() {
                    any |= w.step(&mut self.scratch) == SwarmStatus::Progress;
                }
            }
            if !any {
                return;
            }
        }
        panic!("counted rig failed to quiesce");
    }

    /// Sets the budget through the admin endpoint.
    fn set_budget(&mut self, watts: u32) {
        let (server_io, mut client) = mem_pair(PIPE_CAP);
        self.server
            .attach_http(CountingIo {
                inner: server_io,
                counts: Rc::new(RefCell::new(IoCounts::default())),
            })
            .unwrap();
        let body = format!("watts={watts}");
        write!(
            client,
            "POST /admin/budget HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        self.server.pump(Some(Duration::ZERO)).unwrap();
        assert!((self.server.budget_w() - f64::from(watts)).abs() < 1e-12);
    }

    /// Takes what worker `i` has read since the last call, as commands;
    /// the bytes must be exactly those commands' encodings.
    fn take_commands(&self, i: usize) -> Vec<Command> {
        let bytes = std::mem::take(&mut *self.taps[i].borrow_mut());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let mut cmds = Vec::new();
        let mut reencoded = Vec::new();
        while let Some(cmd) = dec.next_frame::<Command>().unwrap() {
            FrameEncoder::new()
                .encode_into(&cmd, &mut reencoded)
                .unwrap();
            cmds.push(cmd);
        }
        assert_eq!(dec.buffered(), 0, "worker {i} read a partial frame");
        assert_eq!(
            reencoded, bytes,
            "worker {i}: bytes differ from the codec's"
        );
        cmds
    }
}

#[test]
fn steady_state_round_costs_one_read_and_one_write_per_worker() {
    const NODES: u32 = 6;
    let mut caps_by_batch = Vec::new();
    for batch in [0, 3, 1024] {
        // Half the nodes' worth of budget, so PERQ's caps bind and its
        // dither moves every cap every tick.
        let cfg = ServeConfig {
            wp_nodes: 3,
            ..ServeConfig::default()
        };
        let mut rig = counted_rig(NODES, batch, PIPE_CAP, "perq", cfg);
        for _ in 0..6 {
            rig.settle(false);
            rig.server.tick();
        }
        rig.settle(false);
        let mut caps = Vec::new();
        for round in 0..10 {
            for i in 0..NODES as usize {
                rig.take_commands(i);
            }
            let before = *rig.counts.borrow();
            rig.server.tick();
            rig.settle(false);
            let after = *rig.counts.borrow();
            assert_eq!(
                (
                    after.reads_ok - before.reads_ok,
                    after.reads_wouldblock - before.reads_wouldblock,
                    after.writes - before.writes,
                ),
                (u64::from(NODES), 0, u64::from(NODES)),
                "batch {batch} round {round}: reads, WouldBlock reads, writes"
            );
            let mut sum = 0.0;
            for i in 0..NODES as usize {
                match rig.take_commands(i)[..] {
                    [Command::SetCap { cap_w }, Command::Tick] => {
                        sum += cap_w;
                        caps.push(cap_w);
                    }
                    ref other => panic!("worker {i} round {round}: received {other:?}"),
                }
            }
            let prom = rig.server.recorder().export_prometheus();
            assert!((gauge(&prom, "perq_serve_caps_w") - sum).abs() < 1e-9);
        }
        assert_eq!(rig.server.live_nodes(), NODES as usize);
        caps_by_batch.push(caps);
    }
    assert_eq!(caps_by_batch[0], caps_by_batch[1], "batch=3 diverged");
    assert_eq!(caps_by_batch[0], caps_by_batch[2], "batch=1024 diverged");
}

#[test]
fn one_byte_pipe_coalesces_setcaps_keeps_every_tick_and_overflows_into_a_writeoff() {
    // A worker that stops reading behind a 1-byte pipe, under FOP with
    // the budget moved before every tick so each tick has a new cap.
    let cfg = ServeConfig {
        heartbeat_ticks: 1_000,
        max_queued_bytes: 4096,
        ..ServeConfig::default()
    };
    let mut rig = counted_rig(1, 0, 1, "fop", cfg.clone());
    rig.settle(false);
    rig.server.tick(); // 2320 W over one node: TDP, no SetCap
    rig.settle(false);
    assert!(matches!(
        rig.take_commands(0)[..],
        [Command::Launch { .. }, Command::Tick]
    ));
    for watts in [200, 150, 120] {
        rig.set_budget(watts);
        rig.server.tick();
        rig.settle(true);
    }
    // The first SetCap's first byte is in the pipe, so 150 W had to queue
    // behind it, and 120 W replaced 150 W in place. No Tick was dropped.
    rig.settle(false);
    assert_eq!(
        rig.take_commands(0),
        vec![
            Command::SetCap { cap_w: 200.0 },
            Command::Tick,
            Command::SetCap { cap_w: 120.0 },
            Command::Tick,
            Command::Tick,
        ]
    );
    assert_eq!(rig.server.live_nodes(), 1);
    // The replacement is on `/metrics/engine` while the worker lives: a
    // stalled connection that is never written off is the one to see.
    assert_eq!(
        rig.server
            .engine_recorder()
            .counter_value("perq_serve_caps_coalesced_total"),
        1
    );

    // The same stall under a bound that holds three frames: the Tick that
    // no longer fits writes the connection off.
    let mut rig = counted_rig(
        1,
        0,
        1,
        "fop",
        ServeConfig {
            max_queued_bytes: 64,
            ..cfg
        },
    );
    rig.settle(false);
    rig.server.tick();
    rig.settle(false);
    let mut ticks_queued = 0;
    for watts in [200, 150, 120, 110, 100] {
        if rig.server.live_nodes() == 0 {
            break;
        }
        rig.set_budget(watts);
        rig.server.tick();
        rig.settle(true);
        ticks_queued += 1;
    }
    assert_eq!(
        rig.server.live_nodes(),
        0,
        "overflow must write the worker off"
    );
    assert!(
        ticks_queued >= 2,
        "the bound holds at least one SetCap and Tick"
    );
    assert!(rig
        .server
        .recorder()
        .export_jsonl()
        .contains("decision-overflow"));
    let engine = rig.server.engine_recorder();
    assert_eq!(
        engine.counter_value("perq_serve_decision_overflows_total"),
        1
    );
    assert!(engine.counter_value("perq_serve_caps_coalesced_total") >= 1);
}

#[test]
fn reports_ahead_of_a_close_or_a_corrupt_prefix_count_before_the_writeoff() {
    let enc = FrameEncoder::new();
    let report = |ips: f64| {
        let r = perq_proto::Report {
            node_id: 0,
            job_id: Some(1),
            ips,
            power_w: 150.0,
            job_done: false,
        };
        enc.encode(&r).unwrap()
    };
    for (tail, reason) in [
        (None, "peer-gone"),
        (Some(u32::MAX.to_be_bytes()), "corrupt-frame"),
    ] {
        let mut server = Server::with_recorders(
            MemPoller::new(0),
            ServeConfig::default(),
            make_policy("fop").unwrap(),
            Recorder::manual(),
            Recorder::noop(),
        );
        let (server_io, mut peer) = mem_pair(PIPE_CAP);
        server.attach_worker(server_io).unwrap();
        peer.write_all(&report(0.0)).unwrap(); // registration
        server.pump(Some(Duration::ZERO)).unwrap();
        assert_eq!(server.live_nodes(), 1);

        // The worker's last report and the end of its stream arrive
        // between two pumps.
        peer.write_all(&report(1.5e9)).unwrap();
        match tail {
            Some(garbage) => peer.write_all(&garbage).unwrap(),
            None => peer.close(),
        }
        while server.pump(Some(Duration::ZERO)).unwrap().handled > 0 {}
        let rec = server.recorder();
        assert_eq!(rec.counter_value("perq_serve_reports_total"), 1, "{reason}");
        assert_eq!(rec.counter_value("perq_serve_frames_recv_total"), 2);
        assert_eq!(server.live_nodes(), 0);
        assert!(rec.export_jsonl().contains(reason));
    }
}
