//! Deterministic in-memory poller backend.
//!
//! [`mem_pair`] creates a bounded duplex pipe whose two ends behave like
//! non-blocking sockets: reads on an empty pipe and writes on a full pipe
//! return [`std::io::ErrorKind::WouldBlock`], and a closed pipe reads as
//! EOF / writes as `BrokenPipe`. [`MemPoller`] reports readiness over
//! registered ends in **token order** with a configurable per-poll batch
//! size, which is exactly what the loopback determinism harness varies to
//! prove the server's telemetry is independent of event-delivery
//! batching.
//!
//! Single-threaded by design (`Rc<RefCell<..>>`): the whole point is a
//! scheduler-free, perfectly reproducible event loop for tests and
//! benches.

use crate::poller::{PollEvent, Poller};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::time::Duration;

/// Default per-direction pipe capacity, bytes.
pub const DEFAULT_PIPE_CAP: usize = 64 * 1024;

/// What one poller's registered ends have pending, kept current by the
/// pipes themselves, so a poll with nothing to report never looks at one.
#[derive(Debug, Default)]
struct Watch {
    /// Bytes buffered toward registered ends.
    bytes: Cell<usize>,
    /// Registered ends whose inbound direction is closed.
    closed: Cell<usize>,
}

#[derive(Debug)]
struct PipeBuf {
    data: std::collections::VecDeque<u8>,
    cap: usize,
    closed: bool,
    /// Set while the end that reads this direction is registered.
    watch: Option<Rc<Watch>>,
}

impl PipeBuf {
    fn new(cap: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(PipeBuf {
            data: std::collections::VecDeque::new(),
            cap,
            closed: false,
            watch: None,
        }))
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            if let Some(w) = &self.watch {
                w.closed.set(w.closed.get() + 1);
            }
        }
    }
}

/// One end of a bounded in-memory duplex pipe.
///
/// Clones share the underlying buffers, so a test harness can keep a
/// handle to a worker's end and [`MemIo::close`] it to simulate a crash
/// while the worker state machine still owns its copy.
#[derive(Debug, Clone)]
pub struct MemIo {
    rx: Rc<RefCell<PipeBuf>>,
    tx: Rc<RefCell<PipeBuf>>,
}

/// Creates a connected pair of pipe ends with `cap` bytes of buffer per
/// direction.
pub fn mem_pair(cap: usize) -> (MemIo, MemIo) {
    let a_to_b = PipeBuf::new(cap);
    let b_to_a = PipeBuf::new(cap);
    (
        MemIo {
            rx: Rc::clone(&b_to_a),
            tx: Rc::clone(&a_to_b),
        },
        MemIo {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl MemIo {
    /// Closes both directions: the peer reads EOF once its inbound data
    /// drains, and further writes from either side fail.
    pub fn close(&self) {
        self.rx.borrow_mut().close();
        self.tx.borrow_mut().close();
    }

    /// Bytes currently buffered toward this end.
    pub fn pending_read(&self) -> usize {
        self.rx.borrow().data.len()
    }

    /// Free space in the outbound direction.
    pub fn write_space(&self) -> usize {
        let b = self.tx.borrow();
        b.cap.saturating_sub(b.data.len())
    }

    /// Whether either direction has been closed.
    pub fn is_closed(&self) -> bool {
        self.rx.borrow().closed || self.tx.borrow().closed
    }

    fn same_pipe(&self, other: &MemIo) -> bool {
        Rc::ptr_eq(&self.rx, &other.rx) && Rc::ptr_eq(&self.tx, &other.tx)
    }
}

impl Read for MemIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut rx = self.rx.borrow_mut();
        if rx.data.is_empty() {
            if rx.closed {
                return Ok(0);
            }
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = rx.data.len().min(buf.len());
        let (head, tail) = rx.data.as_slices();
        let from_head = head.len().min(n);
        buf[..from_head].copy_from_slice(&head[..from_head]);
        buf[from_head..n].copy_from_slice(&tail[..n - from_head]);
        rx.data.drain(..n);
        if let Some(w) = &rx.watch {
            w.bytes.set(w.bytes.get() - n);
        }
        Ok(n)
    }
}

impl Write for MemIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut tx = self.tx.borrow_mut();
        if tx.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let space = tx.cap.saturating_sub(tx.data.len());
        if space == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = space.min(buf.len());
        tx.data.extend(&buf[..n]);
        if let Some(w) = &tx.watch {
            w.bytes.set(w.bytes.get() + n);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Deterministic poller over [`MemIo`] ends.
///
/// Like epoll, a poll costs what is ready, not what is registered: the
/// pipes keep its counts current on every read, write and close, and only
/// a poll that has something to report scans the registry.
pub struct MemPoller {
    /// Each registered end with its write-interest flag.
    registry: BTreeMap<usize, (MemIo, bool)>,
    watch: Rc<Watch>,
    /// Registered ends with write interest on.
    armed: usize,
    batch: usize,
    cursor: usize,
}

impl MemPoller {
    /// Creates a poller reporting at most `batch` events per [`Poller::poll`]
    /// call (`0` = unlimited). Smaller batches exercise more interleavings
    /// of the server loop without changing its observable behaviour.
    pub fn new(batch: usize) -> Self {
        MemPoller {
            registry: BTreeMap::new(),
            watch: Rc::default(),
            armed: 0,
            batch,
            cursor: 0,
        }
    }

    fn readiness(token: usize, io: &MemIo, write_interest: bool) -> Option<PollEvent> {
        let rx = io.rx.borrow();
        let tx = io.tx.borrow();
        let readable = !rx.data.is_empty() || rx.closed;
        let writable = write_interest && (tx.cap > tx.data.len() || tx.closed);
        let hangup = rx.closed && rx.data.is_empty();
        if readable || writable || hangup {
            Some(PollEvent {
                token,
                readable,
                writable,
                hangup,
            })
        } else {
            None
        }
    }
}

impl Drop for MemPoller {
    fn drop(&mut self) {
        for (io, _) in self.registry.values() {
            io.rx.borrow_mut().watch = None;
        }
    }
}

impl Poller for MemPoller {
    type Io = MemIo;

    /// One registration per end and per token, as `epoll_ctl` has it.
    fn register(&mut self, io: &Self::Io, token: usize) -> io::Result<()> {
        let mut rx = io.rx.borrow_mut();
        if rx.watch.is_some() || self.registry.contains_key(&token) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "end or token already registered",
            ));
        }
        let w = &self.watch;
        w.bytes.set(w.bytes.get() + rx.data.len());
        w.closed.set(w.closed.get() + usize::from(rx.closed));
        rx.watch = Some(Rc::clone(w));
        self.registry.insert(token, (io.clone(), false));
        Ok(())
    }

    fn set_write_interest(&mut self, _io: &Self::Io, token: usize, on: bool) -> io::Result<()> {
        match self.registry.get_mut(&token) {
            Some((_, write_interest)) => {
                self.armed = self.armed + usize::from(on) - usize::from(*write_interest);
                *write_interest = on;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "unregistered token",
            )),
        }
    }

    fn deregister(&mut self, io: &Self::Io, token: usize) -> io::Result<()> {
        match self.registry.get(&token) {
            Some((reg, write_interest)) if reg.same_pipe(io) => {
                // The server deregisters exactly when it is about to drop
                // the transport; for TCP that closes the socket, so the
                // in-memory pipe closes here to match (the peer drains
                // buffered data, then reads EOF).
                io.close();
                let mut rx = io.rx.borrow_mut();
                rx.watch = None;
                let w = &self.watch;
                w.bytes.set(w.bytes.get() - rx.data.len());
                w.closed.set(w.closed.get() - 1);
                self.armed -= usize::from(*write_interest);
                self.registry.remove(&token);
                Ok(())
            }
            _ => Err(io::Error::new(io::ErrorKind::NotFound, "unregistered io")),
        }
    }

    fn poll(&mut self, out: &mut Vec<PollEvent>, _timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        // Readable and hangup need buffered bytes or a closed inbound
        // direction, writable needs write interest: with none of the
        // three anywhere, no registered end has an event.
        if self.watch.bytes.get() == 0 && self.watch.closed.get() == 0 && self.armed == 0 {
            return Ok(());
        }
        let limit = if self.batch == 0 {
            usize::MAX
        } else {
            self.batch
        };
        // Scan in token order starting past the previous batch's cursor so
        // a small batch size cannot starve high-numbered tokens.
        let after = self.registry.range(self.cursor + 1..);
        let wrapped = self.registry.range(..=self.cursor);
        for (&token, (io, write_interest)) in after.chain(wrapped) {
            if out.len() >= limit {
                break;
            }
            out.extend(Self::readiness(token, io, *write_interest));
        }
        if let Some(last) = out.last() {
            self.cursor = last.token;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_blocks_when_empty_and_when_full() {
        let (mut a, mut b) = mem_pair(4);
        let mut buf = [0u8; 8];
        assert_eq!(
            a.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(a.write(b"abcdef").unwrap(), 4); // short write at capacity
        assert_eq!(a.write(b"x").unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"abcd");
        assert_eq!(a.write(b"ef").unwrap(), 2);
    }

    #[test]
    fn close_reads_as_eof_after_drain_and_breaks_writes() {
        let (mut a, mut b) = mem_pair(16);
        a.write_all(b"last words").unwrap();
        a.close();
        let mut buf = [0u8; 32];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"last words");
        assert_eq!(b.read(&mut buf).unwrap(), 0); // EOF
        assert_eq!(
            b.write(b"reply").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn poller_reports_in_token_order_and_honours_batch() {
        let mut p = MemPoller::new(2);
        let mut peers = Vec::new();
        for t in 0..4 {
            let (srv, mut peer) = mem_pair(64);
            p.register(&srv, t).unwrap();
            peer.write_all(b"hi").unwrap();
            peers.push(peer);
        }
        let mut evs = Vec::new();
        p.poll(&mut evs, None).unwrap();
        assert_eq!(evs.iter().map(|e| e.token).collect::<Vec<_>>(), vec![1, 2]);
        p.poll(&mut evs, None).unwrap();
        assert_eq!(evs.iter().map(|e| e.token).collect::<Vec<_>>(), vec![3, 0]);
        // All four got reported across two polls despite batch=2.
    }

    #[test]
    fn deregistering_takes_an_end_out_of_every_count() {
        // Over-counting would only cost the O(1) path, so no event list
        // shows it: look at the counts.
        let mut p = MemPoller::new(0);
        let idle =
            |p: &MemPoller| (p.watch.bytes.get(), p.watch.closed.get(), p.armed) == (0, 0, 0);
        let ends: Vec<_> = (0..3).map(|_| mem_pair(64)).collect();
        for (t, (srv, peer)) in ends.iter().enumerate() {
            peer.clone().write_all(b"pending").unwrap();
            p.register(srv, t).unwrap();
        }
        p.set_write_interest(&ends[1].0, 1, true).unwrap();
        ends[2].1.close();
        assert!(!idle(&p));
        for (t, (srv, _)) in ends.iter().enumerate() {
            p.deregister(srv, t).unwrap();
        }
        assert!(idle(&p));
        // A registered end's own traffic, drained, leaves nothing behind.
        let (srv, mut peer) = mem_pair(64);
        p.register(&srv, 9).unwrap();
        peer.write_all(b"ping").unwrap();
        srv.clone().read_exact(&mut [0u8; 4]).unwrap();
        assert!(idle(&p));
    }

    #[test]
    fn write_interest_gates_writable_events() {
        let mut p = MemPoller::new(0);
        let (srv, _peer) = mem_pair(64);
        p.register(&srv, 1).unwrap();
        let mut evs = Vec::new();
        p.poll(&mut evs, None).unwrap();
        assert!(evs.is_empty());
        p.set_write_interest(&srv, 1, true).unwrap();
        p.poll(&mut evs, None).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].writable && !evs[0].readable);
    }
}
