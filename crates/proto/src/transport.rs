use crate::codec::{FrameDecoder, FrameEncoder};
use crate::messages::Wire;
use perq_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Errors from the framed transport.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// Payload failed to (de)serialize.
    Codec(serde_json::Error),
    /// A length prefix exceeded the 16 MiB frame limit.
    Oversized(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport I/O error: {e}"),
            FrameError::Codec(e) => write!(f, "frame codec error: {e}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<serde_json::Error> for FrameError {
    fn from(e: serde_json::Error) -> Self {
        FrameError::Codec(e)
    }
}

/// Writes one length-prefixed JSON frame.
///
/// Wire format: 4-byte big-endian payload length followed by the JSON
/// payload (see [`crate::codec`] for the sans-io implementation this
/// delegates to). The frame is assembled contiguously so it is flushed
/// with a single `write_all` (one TCP segment for typical report
/// sizes) — the property [`FaultyTransport`] relies on.
pub fn write_frame<T: Serialize, W: Write>(writer: &mut W, value: &T) -> Result<(), FrameError> {
    let buf = FrameEncoder::new().encode(value)?;
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed JSON frame.
///
/// Implemented on the incremental [`FrameDecoder`]: the reader is asked
/// for exactly the bytes the current frame still needs
/// ([`FrameDecoder::want`]), so no byte belonging to a later frame is
/// ever consumed — byte-for-byte the same stream behaviour as the
/// historical `read_exact` implementation.
pub fn read_frame<T: Wire, R: Read>(reader: &mut R) -> Result<T, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut scratch = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame()? {
            return Ok(frame);
        }
        let want = dec.want();
        debug_assert!(want > 0, "decoder must make progress");
        let mut remaining = want;
        while remaining > 0 {
            let n = remaining.min(scratch.len());
            reader.read_exact(&mut scratch[..n])?;
            dec.feed(&scratch[..n]);
            remaining -= n;
        }
    }
}

/// Bounded retry with exponential backoff for transient transport errors
/// (read timeouts on a heartbeat-limited socket, interrupted syscalls).
/// Permanent errors — disconnects, codec failures, oversized frames — are
/// never retried: the peer is gone or the stream is poisoned.
///
/// Two independent bounds apply: `max_attempts` caps how many times the
/// operation is tried, and `max_elapsed` caps the *total wall-clock
/// time* spent across attempts, including time lost inside the failed
/// attempts themselves. The elapsed bound is what keeps a slow-but-not-
/// dead peer from stalling a control tick: with a 5 s per-attempt
/// heartbeat timeout, an attempt bound of 4 alone still admits a ~20 s
/// stall — twice the paper's decide interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff factor applied per retry.
    pub multiplier: f64,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Total-elapsed deadline across all attempts: once this much wall
    /// time has passed since the operation started, no further retry is
    /// scheduled (the in-flight attempt still completes). The deadline
    /// also refuses retries whose backoff sleep would overshoot it.
    pub max_elapsed: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            multiplier: 2.0,
            max_delay: Duration::from_millis(200),
            // Generous: four attempts against a 5 s heartbeat timeout fit
            // comfortably, so the deadline only cuts off pathological
            // stalls. Latency-sensitive callers (the serve decide loop)
            // configure a budget matched to their tick.
            max_elapsed: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            multiplier: 1.0,
            max_delay: Duration::ZERO,
            max_elapsed: Duration::MAX,
        }
    }

    /// Backoff delay before retry number `attempt` (0-based):
    /// `base · multiplier^attempt`, capped at `max_delay`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = self.multiplier.max(1.0).powi(attempt.min(30) as i32);
        self.base_delay.mul_f64(factor).min(self.max_delay)
    }

    /// Whether a retry attempt may still be scheduled `elapsed` into the
    /// operation: the attempt budget has room *and* the elapsed budget —
    /// including the backoff sleep about to be paid — is not exhausted.
    pub fn may_retry(&self, attempt: u32, elapsed: Duration) -> bool {
        attempt + 1 < self.max_attempts.max(1)
            && elapsed
                .checked_add(self.delay(attempt))
                .is_some_and(|total| total <= self.max_elapsed)
    }
}

/// Whether a transport error is worth retrying (the peer may still be
/// alive and responsive on a later attempt).
pub fn is_transient(err: &FrameError) -> bool {
    match err {
        FrameError::Io(e) => matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted
        ),
        FrameError::Codec(_) | FrameError::Oversized(_) => false,
    }
}

/// [`read_frame`] with bounded retry on transient errors.
///
/// Retrying restarts the frame from the length prefix, so it assumes the
/// failed attempt consumed no bytes — true for the timeout/interrupt
/// errors classified as transient, which fire before any data arrives.
pub fn read_frame_retry<T: Wire, R: Read>(
    reader: &mut R,
    retry: &RetryPolicy,
) -> Result<T, FrameError> {
    read_frame_retry_with(reader, retry, &Recorder::noop())
}

/// [`read_frame_retry`] reporting to a telemetry recorder: successful
/// frames (`perq_proto_frames_recv_total`), retried attempts
/// (`perq_proto_retries_total`), final failures
/// (`perq_proto_recv_errors_total`), and transient exhaustion — a
/// worker that stayed silent through every attempt
/// (`perq_proto_heartbeat_timeouts_total`).
pub fn read_frame_retry_with<T: Wire, R: Read>(
    reader: &mut R,
    retry: &RetryPolicy,
    rec: &Recorder,
) -> Result<T, FrameError> {
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        match read_frame(reader) {
            Ok(value) => {
                rec.counter_inc("perq_proto_frames_recv_total");
                return Ok(value);
            }
            Err(e) if is_transient(&e) && retry.may_retry(attempt, start.elapsed()) => {
                rec.counter_inc("perq_proto_retries_total");
                std::thread::sleep(retry.delay(attempt));
                attempt += 1;
            }
            Err(e) => {
                rec.counter_inc("perq_proto_recv_errors_total");
                if is_transient(&e) {
                    rec.counter_inc("perq_proto_heartbeat_timeouts_total");
                    if attempt + 1 < retry.max_attempts.max(1) {
                        // Attempts remained; the elapsed deadline is
                        // what stopped the retry.
                        rec.counter_inc("perq_proto_retry_deadline_total");
                    }
                }
                return Err(e);
            }
        }
    }
}

/// [`write_frame`] with bounded retry on transient errors.
pub fn write_frame_retry<T: Serialize, W: Write>(
    writer: &mut W,
    value: &T,
    retry: &RetryPolicy,
) -> Result<(), FrameError> {
    write_frame_retry_with(writer, value, retry, &Recorder::noop())
}

/// [`write_frame_retry`] reporting to a telemetry recorder: successful
/// frames (`perq_proto_frames_sent_total`), retried attempts
/// (`perq_proto_retries_total`), and final failures
/// (`perq_proto_send_errors_total`).
pub fn write_frame_retry_with<T: Serialize, W: Write>(
    writer: &mut W,
    value: &T,
    retry: &RetryPolicy,
    rec: &Recorder,
) -> Result<(), FrameError> {
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        match write_frame(writer, value) {
            Ok(()) => {
                rec.counter_inc("perq_proto_frames_sent_total");
                return Ok(());
            }
            Err(e) if is_transient(&e) && retry.may_retry(attempt, start.elapsed()) => {
                rec.counter_inc("perq_proto_retries_total");
                std::thread::sleep(retry.delay(attempt));
                attempt += 1;
            }
            Err(e) => {
                rec.counter_inc("perq_proto_send_errors_total");
                return Err(e);
            }
        }
    }
}

/// A transport wrapper that injects faults on the write path: frames are
/// dropped (vanish on the wire), garbled (payload bytes flipped, length
/// prefix intact — the reader sees a codec error), or delayed. Reads pass
/// through untouched. Fault draws come from a seeded RNG, so a given
/// `(seed, traffic)` pair misbehaves identically on every run.
///
/// Assumes each frame is written with a single `write` call, which is how
/// [`write_frame`] assembles frames.
pub struct FaultyTransport<S> {
    inner: S,
    rng: StdRng,
    drop_prob: f64,
    corrupt_prob: f64,
    delay: Duration,
}

impl<S> FaultyTransport<S> {
    /// Wraps a transport; fault probabilities default to zero.
    pub fn new(inner: S, seed: u64) -> Self {
        FaultyTransport {
            inner,
            rng: StdRng::seed_from_u64(seed ^ 0x4641_554c_5459_5f54),
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// Probability that a written frame is silently dropped.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_prob = p;
        self
    }

    /// Probability that a written frame's payload is garbled.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corrupt_prob = p;
        self
    }

    /// Fixed delay injected before every write.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        if self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob) {
            // The frame vanishes: the caller believes it was sent.
            return Ok(buf.len());
        }
        if self.corrupt_prob > 0.0 && self.rng.gen_bool(self.corrupt_prob) && buf.len() > 4 {
            let mut garbled = buf.to_vec();
            for b in &mut garbled[4..] {
                *b ^= 0x5A;
            }
            self.inner.write_all(&garbled)?;
            return Ok(buf.len());
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for FaultyTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Command, Report};
    use std::io::Cursor;

    #[test]
    fn round_trip_over_buffer() {
        let mut buf = Vec::new();
        let cmd = Command::SetCap { cap_w: 123.0 };
        write_frame(&mut buf, &cmd).unwrap();
        let mut cursor = Cursor::new(buf);
        let back: Command = read_frame(&mut cursor).unwrap();
        assert_eq!(back, cmd);
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        for i in 0..5 {
            let r = Report {
                node_id: i,
                job_id: None,
                ips: i as f64,
                power_w: 35.0,
                job_done: false,
            };
            write_frame(&mut buf, &r).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for i in 0..5 {
            let r: Report = read_frame(&mut cursor).unwrap();
            assert_eq!(r.node_id, i);
        }
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Command::Tick).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = Cursor::new(buf);
        let res: Result<Command, _> = read_frame(&mut cursor);
        assert!(matches!(res, Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = Cursor::new(buf);
        let res: Result<Command, _> = read_frame(&mut cursor);
        assert!(matches!(res, Err(FrameError::Oversized(_))));
    }

    #[test]
    fn garbage_payload_is_codec_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"zzz");
        let mut cursor = Cursor::new(buf);
        let res: Result<Command, _> = read_frame(&mut cursor);
        assert!(matches!(res, Err(FrameError::Codec(_))));
    }

    #[test]
    fn real_tcp_round_trip() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let cmd: Command = read_frame(&mut sock).unwrap();
            write_frame(&mut sock, &cmd).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let cmd = Command::Launch {
            job_id: 9,
            app: "SWFFT".into(),
            work_intervals: 100.0,
        };
        write_frame(&mut client, &cmd).unwrap();
        let echoed: Command = read_frame(&mut client).unwrap();
        assert_eq!(echoed, cmd);
        handle.join().unwrap();
    }

    /// A reader that fails with a transient error `failures` times before
    /// delegating, counting every attempt.
    struct Flaky<R> {
        inner: R,
        failures: u32,
        attempts: u32,
    }

    impl<R: Read> Read for Flaky<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.attempts += 1;
            if self.failures > 0 {
                self.failures -= 1;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "transient",
                ));
            }
            self.inner.read(buf)
        }
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_micros(10),
            multiplier: 2.0,
            max_delay: Duration::from_micros(100),
            max_elapsed: Duration::from_secs(30),
        }
    }

    #[test]
    fn retry_recovers_from_transient_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Command::Tick).unwrap();
        let mut flaky = Flaky {
            inner: Cursor::new(buf),
            failures: 2,
            attempts: 0,
        };
        let cmd: Command = read_frame_retry(&mut flaky, &fast_retry(4)).unwrap();
        assert_eq!(cmd, Command::Tick);
        // Two failed attempts, then the successful attempt reads the
        // header and the payload with one call each.
        assert_eq!(flaky.attempts, 4, "two failures + one success");
    }

    #[test]
    fn retry_exhaustion_returns_the_transient_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Command::Tick).unwrap();
        let mut flaky = Flaky {
            inner: Cursor::new(buf),
            failures: 100,
            attempts: 0,
        };
        let res: Result<Command, _> = read_frame_retry(&mut flaky, &fast_retry(3));
        match res {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            other => panic!("expected transient Io error, got {other:?}"),
        }
        assert_eq!(flaky.attempts, 3, "must stop at max_attempts");
    }

    #[test]
    fn retry_telemetry_counts_frames_retries_and_timeouts() {
        let rec = Recorder::manual();
        let mut buf = Vec::new();
        write_frame(&mut buf, &Command::Tick).unwrap();
        let mut flaky = Flaky {
            inner: Cursor::new(buf),
            failures: 2,
            attempts: 0,
        };
        let _: Command = read_frame_retry_with(&mut flaky, &fast_retry(4), &rec).unwrap();
        assert_eq!(rec.counter_value("perq_proto_frames_recv_total"), 1);
        assert_eq!(rec.counter_value("perq_proto_retries_total"), 2);

        // A peer that stays silent through every attempt is a heartbeat
        // timeout, not a generic receive error.
        let mut dead = Flaky {
            inner: Cursor::new(Vec::new()),
            failures: 100,
            attempts: 0,
        };
        let res: Result<Command, _> = read_frame_retry_with(&mut dead, &fast_retry(2), &rec);
        assert!(res.is_err());
        assert_eq!(rec.counter_value("perq_proto_recv_errors_total"), 1);
        assert_eq!(rec.counter_value("perq_proto_heartbeat_timeouts_total"), 1);

        let mut sink = Vec::new();
        write_frame_retry_with(&mut sink, &Command::Tick, &fast_retry(2), &rec).unwrap();
        assert_eq!(rec.counter_value("perq_proto_frames_sent_total"), 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        // An empty stream yields UnexpectedEof — a disconnect, not a
        // timeout — so the retry wrapper must fail immediately.
        let mut flaky = Flaky {
            inner: Cursor::new(Vec::new()),
            failures: 0,
            attempts: 0,
        };
        let res: Result<Command, _> = read_frame_retry(&mut flaky, &fast_retry(5));
        assert!(matches!(res, Err(FrameError::Io(_))));
        assert_eq!(flaky.attempts, 1);
    }

    /// A reader standing in for a slow-but-not-dead peer: every read
    /// attempt stalls for a fixed delay, then times out.
    struct SlowPeer {
        stall: Duration,
        attempts: u32,
    }

    impl Read for SlowPeer {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            self.attempts += 1;
            std::thread::sleep(self.stall);
            Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"))
        }
    }

    #[test]
    fn elapsed_deadline_stops_retrying_a_slow_peer() {
        // Regression: RetryPolicy used to bound attempts only, so a peer
        // stalling each attempt could hold the control loop for
        // max_attempts × stall — past the decide interval. With a
        // total-elapsed deadline the loop gives up after the deadline
        // regardless of how many attempts remain.
        let mut peer = SlowPeer {
            stall: Duration::from_millis(30),
            attempts: 0,
        };
        let retry = RetryPolicy {
            max_attempts: 1000,
            base_delay: Duration::from_micros(10),
            multiplier: 1.0,
            max_delay: Duration::from_micros(10),
            max_elapsed: Duration::from_millis(50),
        };
        let t0 = Instant::now();
        let res: Result<Command, _> = read_frame_retry(&mut peer, &retry);
        let elapsed = t0.elapsed();
        assert!(matches!(res, Err(FrameError::Io(_))), "got {res:?}");
        // 50 ms deadline, 30 ms stalls: attempt 1 (30 ms) retries,
        // attempt 2 crosses the deadline, so at most one more attempt
        // may start. Allow slack for scheduler noise, but nothing close
        // to the 30 s an attempt-only bound would permit.
        assert!(
            peer.attempts <= 3,
            "deadline must bound attempts, made {}",
            peer.attempts
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "stalled {elapsed:?}, deadline is 50 ms"
        );
    }

    #[test]
    fn deadline_regression_with_delaying_faulty_transport() {
        // The write leg of the same regression, through the fault
        // harness's delay injection: each write stalls 20 ms and then
        // fails as transient, so only the elapsed deadline keeps the
        // total bounded.
        struct TimedOutSink;
        impl Write for TimedOutSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut faulty =
            FaultyTransport::new(TimedOutSink, 3).with_delay(Duration::from_millis(20));
        let retry = RetryPolicy {
            max_attempts: 1000,
            base_delay: Duration::from_micros(10),
            multiplier: 1.0,
            max_delay: Duration::from_micros(10),
            max_elapsed: Duration::from_millis(45),
        };
        let t0 = Instant::now();
        let res = write_frame_retry(&mut faulty, &Command::Tick, &retry);
        assert!(matches!(res, Err(FrameError::Io(_))), "got {res:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a delaying transport must not stall past the deadline"
        );
    }

    #[test]
    fn may_retry_honours_both_budgets() {
        let retry = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            multiplier: 1.0,
            max_delay: Duration::from_millis(10),
            max_elapsed: Duration::from_millis(100),
        };
        assert!(retry.may_retry(0, Duration::ZERO));
        assert!(retry.may_retry(1, Duration::from_millis(80)));
        assert!(!retry.may_retry(2, Duration::ZERO), "attempt budget");
        assert!(
            !retry.may_retry(0, Duration::from_millis(95)),
            "sleep would overshoot the deadline"
        );
        assert!(!retry.may_retry(0, Duration::from_millis(200)), "elapsed");
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.delay(0), Duration::from_millis(10));
        assert_eq!(retry.delay(1), Duration::from_millis(20));
        assert_eq!(retry.delay(2), Duration::from_millis(40));
        assert_eq!(retry.delay(10), Duration::from_millis(200), "capped");
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn faulty_transport_garbles_frames_into_codec_errors() {
        let mut faulty = FaultyTransport::new(Vec::new(), 1).with_corrupt_prob(1.0);
        write_frame(&mut faulty, &Command::SetCap { cap_w: 150.0 }).unwrap();
        let buf = faulty.into_inner();
        assert!(!buf.is_empty(), "garbled frames still hit the wire");
        let mut cursor = Cursor::new(buf);
        let res: Result<Command, _> = read_frame(&mut cursor);
        assert!(
            matches!(res, Err(FrameError::Codec(_))),
            "garbled payload must be rejected as a codec error, got {res:?}"
        );
    }

    #[test]
    fn faulty_transport_drops_frames_silently() {
        let mut faulty = FaultyTransport::new(Vec::new(), 1).with_drop_prob(1.0);
        write_frame(&mut faulty, &Command::Tick).unwrap();
        let buf = faulty.into_inner();
        assert!(buf.is_empty(), "dropped frames never reach the wire");
        // The reader waiting for the dropped frame sees a dead stream.
        let mut cursor = Cursor::new(buf);
        let res: Result<Command, _> = read_frame(&mut cursor);
        assert!(matches!(res, Err(FrameError::Io(_))));
    }

    #[test]
    fn faulty_transport_is_seed_deterministic() {
        let emit = |seed: u64| -> Vec<u8> {
            let mut faulty = FaultyTransport::new(Vec::new(), seed)
                .with_drop_prob(0.4)
                .with_corrupt_prob(0.3);
            for i in 0..32 {
                write_frame(&mut faulty, &Command::SetCap { cap_w: i as f64 }).unwrap();
            }
            faulty.into_inner()
        };
        assert_eq!(emit(7), emit(7), "same seed, same fault pattern");
        assert_ne!(emit(7), emit(8), "different seeds must diverge");
    }

    #[test]
    fn faulty_transport_reads_pass_through() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Command::Tick).unwrap();
        let mut faulty = FaultyTransport::new(Cursor::new(buf), 1)
            .with_drop_prob(1.0)
            .with_corrupt_prob(1.0);
        let cmd: Command = read_frame(&mut faulty).unwrap();
        assert_eq!(cmd, Command::Tick);
    }
}
