//! Tracing from outside the product: timing wrappers at the public
//! trait seams and an in-memory span log.
//!
//! Nothing here is used on untraced episodes. On traced episodes the
//! wrappers sit where the product already takes a trait object or a
//! type parameter — [`Poller`], [`Poller::Io`], [`PowerPolicy`],
//! [`BudgetAuthority`] — so the product code that runs is byte-for-byte
//! the code that runs untraced; only the calls across the seam get two
//! clock reads added.

use perq_core::PerqPolicy;
use perq_serve::{PollEvent, Poller};
use perq_sim::{
    BudgetAuthority, EnclaveDemand, GrantContext, JobView, PolicyContext, PowerAssignment,
    PowerPolicy,
};
use perq_telemetry::Recorder;
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One closed span. `seq` is the round or interval the span belongs to;
/// `parent` is the id of the enclosing span (0 for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one traced pass, kept in memory until the pass ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        seq: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.push_with_id(id, name, parent, seq, start, end);
        id
    }

    /// Hands out an id before the span closes, so children can name
    /// their parent.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn push_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        seq: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            seq,
            start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.seq, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Running totals of the `Poller` / `Poller::Io` wrappers. The server
/// loop is single-threaded, so one `Rc<RefCell<..>>` serves the poller
/// and all of its connections.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoStats {
    pub poll_calls: u64,
    pub poll_empty: u64,
    pub poll_ns: u64,
    pub read_calls: u64,
    pub read_wouldblock: u64,
    pub read_ns: u64,
    pub bytes_in: u64,
    pub write_calls: u64,
    pub write_ns: u64,
    pub bytes_out: u64,
}

impl IoStats {
    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            poll_calls: self.poll_calls - earlier.poll_calls,
            poll_empty: self.poll_empty - earlier.poll_empty,
            poll_ns: self.poll_ns - earlier.poll_ns,
            read_calls: self.read_calls - earlier.read_calls,
            read_wouldblock: self.read_wouldblock - earlier.read_wouldblock,
            read_ns: self.read_ns - earlier.read_ns,
            bytes_in: self.bytes_in - earlier.bytes_in,
            write_calls: self.write_calls - earlier.write_calls,
            write_ns: self.write_ns - earlier.write_ns,
            bytes_out: self.bytes_out - earlier.bytes_out,
        }
    }

    /// Component-wise `self += d`.
    pub fn add(&mut self, d: &IoStats) {
        self.poll_calls += d.poll_calls;
        self.poll_empty += d.poll_empty;
        self.poll_ns += d.poll_ns;
        self.read_calls += d.read_calls;
        self.read_wouldblock += d.read_wouldblock;
        self.read_ns += d.read_ns;
        self.bytes_in += d.bytes_in;
        self.write_calls += d.write_calls;
        self.write_ns += d.write_ns;
        self.bytes_out += d.bytes_out;
    }

    pub fn io_ns(&self) -> u64 {
        self.read_ns + self.write_ns
    }
}

pub type SharedIoStats = Rc<RefCell<IoStats>>;

/// `Poller::Io` wrapper: times and counts every `read` / `write`.
pub struct TracedIo<Io> {
    inner: Io,
    stats: SharedIoStats,
}

impl<Io> TracedIo<Io> {
    pub fn new(inner: Io, stats: SharedIoStats) -> Self {
        TracedIo { inner, stats }
    }
}

impl<Io: Read> Read for TracedIo<Io> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let result = self.inner.read(buf);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.read_calls += 1;
        s.read_ns += ns;
        match &result {
            Ok(n) => s.bytes_in += *n as u64,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => s.read_wouldblock += 1,
            Err(_) => {}
        }
        result
    }
}

impl<Io: Write> Write for TracedIo<Io> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let result = self.inner.write(buf);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.write_calls += 1;
        s.write_ns += ns;
        if let Ok(n) = &result {
            s.bytes_out += *n as u64;
        }
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `Poller` wrapper: times and counts `poll`, passes registration
/// through to the wrapped backend.
pub struct TracedPoller<P> {
    inner: P,
    stats: SharedIoStats,
}

impl<P> TracedPoller<P> {
    pub fn new(inner: P, stats: SharedIoStats) -> Self {
        TracedPoller { inner, stats }
    }
}

impl<P: Poller> Poller for TracedPoller<P> {
    type Io = TracedIo<P::Io>;

    fn register(&mut self, io: &Self::Io, token: usize) -> io::Result<()> {
        self.inner.register(&io.inner, token)
    }

    fn set_write_interest(&mut self, io: &Self::Io, token: usize, on: bool) -> io::Result<()> {
        self.inner.set_write_interest(&io.inner, token, on)
    }

    fn deregister(&mut self, io: &Self::Io, token: usize) -> io::Result<()> {
        self.inner.deregister(&io.inner, token)
    }

    fn poll(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.inner.poll(out, timeout);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.poll_calls += 1;
        s.poll_ns += ns;
        if out.is_empty() {
            s.poll_empty += 1;
        }
        result
    }
}

/// The scalar part of a [`PolicyContext`], kept with the job views so a
/// context can be rebuilt for the probes.
#[derive(Debug, Clone, Copy)]
pub struct ContextScalars {
    pub time_s: f64,
    pub interval_s: f64,
    pub busy_budget_w: f64,
    pub cap_min_w: f64,
    pub cap_max_w: f64,
    pub total_nodes: usize,
    pub wp_nodes: usize,
    pub queue_depth: usize,
    pub violation_s: f64,
}

/// What the `PowerPolicy` wrapper saw.
#[derive(Debug, Default)]
pub struct AssignStats {
    /// `(start, end)` of every `assign` call.
    pub calls: Vec<(Instant, Instant)>,
    pub jobs_total: u64,
    /// The context and the answer of the last non-empty call: the state
    /// the probes run on.
    pub last_scalars: Option<ContextScalars>,
    pub last_jobs: Vec<JobView>,
    pub last_caps_w: Vec<f64>,
}

impl AssignStats {
    pub fn durations_ms(&self) -> Vec<f64> {
        self.calls
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect()
    }

    /// Rebuilds the captured context over `jobs` (normally
    /// `&self.last_jobs`).
    pub fn context<'a>(&self, jobs: &'a [JobView]) -> Option<PolicyContext<'a>> {
        let s = self.last_scalars?;
        Some(PolicyContext {
            time_s: s.time_s,
            interval_s: s.interval_s,
            busy_budget_w: s.busy_budget_w,
            cap_min_w: s.cap_min_w,
            cap_max_w: s.cap_max_w,
            total_nodes: s.total_nodes,
            wp_nodes: s.wp_nodes,
            queue_depth: s.queue_depth,
            violation_s: s.violation_s,
            jobs,
        })
    }
}

/// `PowerPolicy` wrapper around the product's [`PerqPolicy`]. The policy
/// and the statistics are shared with the harness, which reads both
/// after the run: the statistics for the `core.assign.*` metrics, the
/// policy for the probes. (`Arc<Mutex<..>>` because `HierSim` moves
/// enclave policies across threads; the locks are never contended.)
pub struct TracedPolicy {
    pub policy: Arc<Mutex<PerqPolicy>>,
    pub stats: Arc<Mutex<AssignStats>>,
    name: String,
    label: &'static str,
}

impl TracedPolicy {
    pub fn new(policy: PerqPolicy) -> Self {
        let name = policy.name().to_string();
        let label = policy.solver_profile_label();
        TracedPolicy {
            policy: Arc::new(Mutex::new(policy)),
            stats: Arc::new(Mutex::new(AssignStats::default())),
            name,
            label,
        }
    }
}

const POISON: &str = "a traced policy call panicked earlier";

impl PowerPolicy for TracedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn assign(&mut self, ctx: &PolicyContext<'_>) -> Vec<PowerAssignment> {
        let mut policy = self.policy.lock().expect(POISON);
        let start = Instant::now();
        let out = policy.assign(ctx);
        let end = Instant::now();
        let mut stats = self.stats.lock().expect(POISON);
        stats.calls.push((start, end));
        stats.jobs_total += ctx.jobs.len() as u64;
        if !ctx.jobs.is_empty() {
            stats.last_scalars = Some(ContextScalars {
                time_s: ctx.time_s,
                interval_s: ctx.interval_s,
                busy_budget_w: ctx.busy_budget_w,
                cap_min_w: ctx.cap_min_w,
                cap_max_w: ctx.cap_max_w,
                total_nodes: ctx.total_nodes,
                wp_nodes: ctx.wp_nodes,
                queue_depth: ctx.queue_depth,
                violation_s: ctx.violation_s,
            });
            stats.last_jobs.clear();
            stats.last_jobs.extend_from_slice(ctx.jobs);
            stats.last_caps_w.clear();
            stats.last_caps_w.extend(out.iter().map(|a| a.cap_w));
        }
        out
    }

    fn job_departed(&mut self, job_id: u64) {
        self.policy.lock().expect(POISON).job_departed(job_id);
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.policy.lock().expect(POISON).set_recorder(recorder);
    }

    fn set_decide_deadline(&mut self, deadline: Option<Instant>) {
        self.policy
            .lock()
            .expect(POISON)
            .set_decide_deadline(deadline);
    }

    fn solver_profile_label(&self) -> &'static str {
        self.label
    }
}

/// `(start, end)` of calls across a seam, shared with the harness.
pub type CallLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// `BudgetAuthority` wrapper: `(start, end)` of every `grant` call. The
/// gap between one call's end and the next call's start is the enclave
/// epoch (fan-out, advance, join) the coordinator waited for.
pub struct TracedAuthority<A> {
    inner: A,
    pub calls: CallLog,
}

impl<A> TracedAuthority<A> {
    pub fn new(inner: A) -> Self {
        TracedAuthority {
            inner,
            calls: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl<A: BudgetAuthority> BudgetAuthority for TracedAuthority<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn grant(&mut self, ctx: &GrantContext, demands: &[EnclaveDemand]) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.grant(ctx, demands);
        let end = Instant::now();
        self.calls.lock().expect(POISON).push((start, end));
        out
    }
}
