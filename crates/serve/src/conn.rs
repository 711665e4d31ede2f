//! Per-connection state machines: incremental frame decode and bounded
//! outbound queues with class-aware backpressure.

use perq_proto::{FrameDecoder, FrameEncoder, Wire};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// What losing a queued frame would mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Must reach the worker (`Tick`, `Launch`, `Shutdown`). Never
    /// dropped: if the queue cannot take one, the connection is written
    /// off instead.
    Decision,
    /// Latest-value telemetry (`SetCap`): an unsent frame with the same
    /// key is replaced in place, so a slow consumer sees the freshest
    /// value instead of a backlog.
    Coalesce {
        /// Replacement key (the node id).
        key: u32,
    },
}

/// Connection-level failure that warrants a write-off.
#[derive(Debug)]
pub enum ConnError {
    /// Transport failed or the peer hung up.
    Io(io::Error),
    /// The byte stream is no longer a valid frame sequence (corruption).
    Frame(perq_proto::FrameError),
    /// A decision frame could not be queued within the outbound bound.
    Overflow,
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Io(e) => write!(f, "transport: {e}"),
            ConnError::Frame(e) => write!(f, "framing: {e}"),
            ConnError::Overflow => write!(f, "decision-frame overflow"),
        }
    }
}

/// Control state of a registered worker, kept on the connection that
/// registered it.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub(crate) node_id: u32,
    pub(crate) job_id: u64,
    pub(crate) cap_w: f64,
    pub(crate) last_ips: Option<f64>,
    pub(crate) last_power_w: Option<f64>,
    /// A report arrived since the last tick (the batch flag).
    pub(crate) batched: bool,
    pub(crate) last_report_tick: u64,
    pub(crate) first_tick: u64,
}

/// Index entry for one frame in the outbound byte buffer.
#[derive(Debug)]
struct Queued {
    len: usize,
    class: FrameClass,
}

/// One worker connection owned by the event loop.
///
/// Outbound frames sit back to back in one byte buffer, so everything
/// queued since the last flush leaves in a single `write`; `index` holds
/// one entry per frame that still has unsent bytes, which is what in-place
/// coalescing needs to find a frame's boundaries.
#[derive(Debug)]
pub struct WorkerConn<Io> {
    /// The non-blocking transport.
    pub io: Io,
    /// Poller token.
    pub token: usize,
    /// Set by the registration report.
    pub(crate) node: Option<NodeState>,
    /// Server tick at which the connection was adopted (drives the
    /// registration deadline for peers whose first report never arrives).
    pub attached_tick: u64,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    /// Queued frames; `out[..sent]` is already written.
    out: Vec<u8>,
    sent: usize,
    /// The frames occupying `out[sent - head_sent..]`, in order.
    index: VecDeque<Queued>,
    /// Bytes of the front frame already written.
    head_sent: usize,
    max_queued_bytes: usize,
    /// Whether write interest is currently armed with the poller.
    pub want_write: bool,
    /// Frames replaced in place instead of queued (backpressure signal).
    pub coalesced: u64,
}

impl<Io: Read + Write> WorkerConn<Io> {
    /// Wraps a transport with an outbound bound of `max_queued_bytes`.
    pub fn new(io: Io, token: usize, max_queued_bytes: usize) -> Self {
        WorkerConn {
            io,
            token,
            node: None,
            attached_tick: 0,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            out: Vec::new(),
            sent: 0,
            index: VecDeque::new(),
            head_sent: 0,
            max_queued_bytes,
            want_write: false,
            coalesced: 0,
        }
    }

    /// Reads what is currently available and appends every complete
    /// frame, decoded, to `frames`.
    ///
    /// Reading stops after a short read: the transport was empty at that
    /// instant, and a level-triggered poller reports the connection again
    /// if more arrives, so a second read would only return `WouldBlock`.
    ///
    /// An error (clean EOF is reported as `UnexpectedEof`) means the
    /// connection is dead; frames completed before it are still in
    /// `frames` and should be handled before the write-off.
    pub fn read_ready<T: Wire>(
        &mut self,
        scratch: &mut [u8],
        frames: &mut Vec<T>,
    ) -> Result<(), ConnError> {
        loop {
            match self.io.read(scratch) {
                Ok(0) => return Err(ConnError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => {
                    self.decoder.feed(&scratch[..n]);
                    while let Some(frame) = self.decoder.next_frame().map_err(ConnError::Frame)? {
                        frames.push(frame);
                    }
                    if n < scratch.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ConnError::Io(e)),
            }
        }
    }

    /// Encodes a frame and queues it ([`WorkerConn::queue_encoded`]).
    pub fn queue<T: Serialize>(&mut self, value: &T, class: FrameClass) -> Result<(), ConnError> {
        let frame = self.encoder.encode(value).map_err(ConnError::Frame)?;
        self.queue_encoded(&frame, class)
    }

    /// Queues one encoded frame without writing; [`WorkerConn::flush`]
    /// sends everything queued in one `write`.
    ///
    /// [`ConnError::Overflow`] is only possible for
    /// [`FrameClass::Decision`], and only once a flush has failed to make
    /// room; an unqueueable coalescible frame is silently superseded by
    /// whatever is already queued.
    pub fn queue_encoded(&mut self, frame: &[u8], class: FrameClass) -> Result<(), ConnError> {
        let len = frame.len();
        if matches!(class, FrameClass::Coalesce { .. }) {
            // Replace a wholly unsent frame with the same key in place.
            let mut start = self.sent - self.head_sent;
            for (i, slot) in self.index.iter_mut().enumerate() {
                if slot.class == class && (i > 0 || self.head_sent == 0) {
                    self.out
                        .splice(start..start + slot.len, frame.iter().copied());
                    slot.len = len;
                    self.coalesced += 1;
                    return Ok(());
                }
                start += slot.len;
            }
        }
        if self.queued_bytes() + len > self.max_queued_bytes {
            // Frames queued since the last flush have not been offered to
            // the transport yet; do that before giving up on the bound.
            self.flush().map_err(ConnError::Io)?;
            if self.queued_bytes() + len > self.max_queued_bytes {
                return match class {
                    FrameClass::Decision => Err(ConnError::Overflow),
                    FrameClass::Coalesce { .. } => {
                        // The bound is full of fresher-or-equal traffic;
                        // the next tick re-sends the current value anyway.
                        self.coalesced += 1;
                        Ok(())
                    }
                };
            }
        }
        self.out.extend_from_slice(frame);
        self.index.push_back(Queued { len, class });
        Ok(())
    }

    /// [`WorkerConn::queue`], then [`WorkerConn::flush`]: `Ok(true)` if
    /// nothing is left queued (no write interest needed).
    pub fn push<T: Serialize>(&mut self, value: &T, class: FrameClass) -> Result<bool, ConnError> {
        self.queue(value, class)?;
        self.flush().map_err(ConnError::Io)
    }

    /// Writes the queued bytes until the transport blocks. `Ok(true)`
    /// when nothing is left queued afterwards.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.sent < self.out.len() {
            match self.io.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    // Retire the index entries those bytes completed.
                    let mut done = self.head_sent + n;
                    while let Some(front) = self.index.front() {
                        if done < front.len {
                            break;
                        }
                        done -= front.len;
                        self.index.pop_front();
                    }
                    self.head_sent = done;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Compact once the written prefix dominates, so a
                    // consumer that never quite catches up cannot grow the
                    // buffer without bound.
                    if self.sent > 4096 && self.sent * 2 >= self.out.len() {
                        self.out.drain(..self.sent - self.head_sent);
                        self.sent = self.head_sent;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(true)
    }

    /// Whether frames are waiting to be written.
    pub fn has_backlog(&self) -> bool {
        self.sent < self.out.len()
    }

    /// Bytes currently queued outbound.
    pub fn queued_bytes(&self) -> usize {
        self.out.len() - self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::mem_pair;
    use perq_proto::Command;

    fn decode_all(bytes: &[u8]) -> Vec<Command> {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes);
        let mut out = Vec::new();
        while let Some(cmd) = dec.next_frame().unwrap() {
            out.push(cmd);
        }
        out
    }

    #[test]
    fn coalesce_replaces_unsent_setcap_in_place() {
        // Pipe too small for anything to leave the queue.
        let (srv, mut peer) = mem_pair(1);
        // Fill the single-byte pipe so pushes stay queued.
        let mut conn = WorkerConn::new(srv, 1, 4096);
        conn.push(&Command::Tick, FrameClass::Decision).unwrap();
        assert!(conn.has_backlog());
        conn.push(
            &Command::SetCap { cap_w: 100.0 },
            FrameClass::Coalesce { key: 3 },
        )
        .unwrap();
        conn.push(
            &Command::SetCap { cap_w: 150.0 },
            FrameClass::Coalesce { key: 3 },
        )
        .unwrap();
        assert_eq!(conn.coalesced, 1);

        // Drain: widen the pipe by reading on the peer side as we flush.
        let mut received = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let drained = conn.flush().unwrap();
            match peer.read(&mut buf) {
                Ok(n) => received.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("{e}"),
            }
            if drained && peer.pending_read() == 0 {
                break;
            }
        }
        let cmds = decode_all(&received);
        assert_eq!(cmds.len(), 2, "second SetCap replaced the first");
        assert_eq!(cmds[0], Command::Tick);
        assert_eq!(cmds[1], Command::SetCap { cap_w: 150.0 });
    }

    #[test]
    fn decision_overflow_is_an_error_but_coalesce_is_not() {
        let (srv, _peer) = mem_pair(1);
        let mut conn = WorkerConn::new(srv, 1, 12); // room for ~1 small frame
        conn.push(&Command::Tick, FrameClass::Decision).unwrap();
        let err = conn.push(&Command::Shutdown, FrameClass::Decision);
        assert!(matches!(err, Err(ConnError::Overflow)));
        // A coalescible frame over the bound is superseded, not fatal.
        conn.push(
            &Command::SetCap { cap_w: 90.0 },
            FrameClass::Coalesce { key: 1 },
        )
        .unwrap();
        assert_eq!(conn.coalesced, 1);
    }

    #[test]
    fn read_ready_surfaces_eof_and_frames() {
        let (srv, mut peer) = mem_pair(4096);
        let mut conn = WorkerConn::new(srv, 1, 4096);
        let enc = FrameEncoder::new();
        peer.write_all(&enc.encode(&Command::Tick).unwrap())
            .unwrap();
        let mut scratch = [0u8; 512];
        let mut frames: Vec<Command> = Vec::new();
        conn.read_ready(&mut scratch, &mut frames).unwrap();
        assert_eq!(frames.len(), 1);
        peer.close();
        let err = conn.read_ready(&mut scratch, &mut frames).unwrap_err();
        assert!(matches!(err, ConnError::Io(_)));
    }

    #[test]
    fn frames_completed_before_eof_or_corruption_are_delivered() {
        let enc = FrameEncoder::new();
        let report = enc.encode(&Command::SetCap { cap_w: 120.0 }).unwrap();

        // Final frame and close arrive together. A scratch buffer the
        // frame fills exactly forces the second read that sees the EOF.
        let (srv, mut peer) = mem_pair(4096);
        let mut conn = WorkerConn::new(srv, 1, 4096);
        peer.write_all(&report).unwrap();
        peer.close();
        let mut scratch = vec![0u8; report.len()];
        let mut frames: Vec<Command> = Vec::new();
        let err = conn.read_ready(&mut scratch, &mut frames).unwrap_err();
        assert!(matches!(err, ConnError::Io(_)));
        assert_eq!(frames, vec![Command::SetCap { cap_w: 120.0 }]);

        // A corrupt length prefix behind a good frame, in one read.
        let (srv, mut peer) = mem_pair(4096);
        let mut conn = WorkerConn::new(srv, 1, 4096);
        peer.write_all(&report).unwrap();
        peer.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let mut scratch = [0u8; 512];
        frames.clear();
        let err = conn.read_ready(&mut scratch, &mut frames).unwrap_err();
        assert!(matches!(err, ConnError::Frame(_)));
        assert_eq!(frames, vec![Command::SetCap { cap_w: 120.0 }]);
    }

    #[test]
    fn queued_frames_leave_in_one_write_and_partial_writes_keep_the_index() {
        // SetCap + Tick queued, then flushed into a pipe that takes them
        // whole: the peer sees both after a single write.
        let (srv, peer) = mem_pair(4096);
        let mut conn = WorkerConn::new(srv, 1, 4096);
        conn.queue(
            &Command::SetCap { cap_w: 100.0 },
            FrameClass::Coalesce { key: 3 },
        )
        .unwrap();
        conn.queue(&Command::Tick, FrameClass::Decision).unwrap();
        let queued = conn.queued_bytes();
        assert_eq!(peer.pending_read(), 0, "queue must not write");
        assert!(conn.flush().unwrap());
        assert_eq!(peer.pending_read(), queued);
        assert_eq!(conn.queued_bytes(), 0);

        // A 1-byte pipe sends the first SetCap's first byte; that frame is
        // no longer replaceable, a second one behind it is.
        let (srv, mut peer) = mem_pair(1);
        let mut conn = WorkerConn::new(srv, 1, 4096);
        for cap_w in [100.0, 110.0, 90.25] {
            conn.push(&Command::SetCap { cap_w }, FrameClass::Coalesce { key: 3 })
                .unwrap();
        }
        assert_eq!(conn.coalesced, 1);
        conn.push(&Command::Tick, FrameClass::Decision).unwrap();
        let mut received = Vec::new();
        let mut buf = [0u8; 7];
        while conn.has_backlog() || peer.pending_read() > 0 {
            conn.flush().unwrap();
            if let Ok(n) = peer.read(&mut buf) {
                received.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(
            decode_all(&received),
            vec![
                Command::SetCap { cap_w: 100.0 },
                Command::SetCap { cap_w: 90.25 },
                Command::Tick
            ]
        );
    }
}
