//! Sans-io framing codec: the wire format of the prototype transport
//! ([`write_frame`](crate::write_frame) /
//! [`read_frame`](crate::read_frame)) factored into pure byte-in,
//! frame-out state machines.
//!
//! The wire format is unchanged and byte-compatible with every earlier
//! release: a 4-byte big-endian payload length followed by a JSON
//! payload, with a 16 MiB length ceiling rejecting corrupted prefixes.
//! What changed is *who drives the I/O*: [`FrameDecoder`] is fed
//! whatever bytes happen to be available — half a header, three frames
//! and a tail, one byte at a time — and yields complete frames as they
//! materialise, which is exactly the shape a readiness-driven event
//! loop (`perq-serve`) needs. The blocking helpers in the `transport`
//! module are rewired on top of the same
//! decoder, so there is one implementation of the format.
//!
//! Error discipline mirrors the blocking path:
//!
//! - an oversized length prefix is a *framing* error: the decoder
//!   refuses to resynchronise (the stream is poisoned — there is no way
//!   to find the next frame boundary after a corrupt length) and
//!   returns [`FrameError::Oversized`] on every subsequent call;
//! - a payload that fails to deserialize is a *codec* error: the frame
//!   boundary itself was sound, so the decoder consumes the bad payload
//!   and can keep decoding — the caller decides whether a garbled peer
//!   deserves a second chance.

use crate::messages::Wire;
use crate::transport::FrameError;
use serde::Serialize;

/// Maximum frame payload accepted (defence against corrupted length
/// prefixes).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Incremental, sans-io frame decoder.
///
/// Feed it bytes with [`FrameDecoder::feed`]; pull frames with
/// [`FrameDecoder::next_frame`]. The decoder never reads from a socket
/// and never blocks, so the same state machine serves the blocking
/// transport, the non-blocking event loop, and in-memory tests.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed as frames. Dropped by the next
    /// `feed` once everything was consumed, otherwise compacted lazily so
    /// per-frame work stays amortised O(frame length).
    start: usize,
    /// Set once a corrupt length prefix has been seen; the stream has
    /// no recoverable framing past that point.
    poisoned: Option<u32>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the wire. Feeding never fails; errors
    /// surface on [`FrameDecoder::next_frame`] so partial reads can be
    /// accumulated unconditionally.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            // Everything buffered was consumed: drop the dead prefix now,
            // so a connection whose reads carry whole frames never holds
            // more than one read's worth of capacity.
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            // A partial frame is pending: compact once the dead prefix
            // dominates, keeping the buffer from growing without bound
            // on a long-lived connection.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// How many more bytes are needed before the *current* frame can
    /// complete: the rest of the 4-byte header, or the rest of the
    /// announced payload. Returns 0 when a full frame (or a poisoned
    /// prefix) is already buffered — `next_frame` will produce
    /// something. Blocking callers use this to read exactly one frame
    /// from a stream without consuming bytes that belong to the next.
    pub fn want(&self) -> usize {
        if self.poisoned.is_some() {
            return 0;
        }
        let pending = self.pending();
        if pending.len() < 4 {
            return 4 - pending.len();
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            return 0;
        }
        (4 + len as usize).saturating_sub(pending.len())
    }

    /// Pops the next complete payload without deserializing or copying
    /// it — the slice points into the decoder's own buffer and is valid
    /// until the next call that takes `&mut self` — or `None` if more
    /// bytes are needed.
    pub fn next_payload_ref(&mut self) -> Result<Option<&[u8]>, FrameError> {
        if let Some(n) = self.poisoned {
            return Err(FrameError::Oversized(n));
        }
        let pending = self.pending();
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            self.poisoned = Some(len);
            return Err(FrameError::Oversized(len));
        }
        if pending.len() < 4 + len as usize {
            return Ok(None);
        }
        let begin = self.start + 4;
        self.start = begin + len as usize;
        Ok(Some(&self.buf[begin..self.start]))
    }

    /// [`FrameDecoder::next_payload_ref`], copied into an owned buffer.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_payload_ref()?.map(<[u8]>::to_vec))
    }

    /// Pops and decodes ([`Wire::decode`]) the next complete frame
    /// straight out of the decoder's buffer, or `None` if more bytes are
    /// needed. A payload that fails to decode consumes the frame (the
    /// boundary was intact) and returns [`FrameError::Codec`].
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>, FrameError> {
        match self.next_payload_ref()? {
            None => Ok(None),
            Some(payload) => Ok(Some(T::decode(payload)?)),
        }
    }
}

/// Sans-io frame encoder: values in, wire bytes out.
///
/// Stateless (the wire format has no inter-frame state), so one encoder
/// serves any number of connections.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameEncoder;

impl FrameEncoder {
    /// An encoder.
    pub fn new() -> Self {
        FrameEncoder
    }

    /// Appends one encoded frame to `out`. The frame is contiguous, so
    /// a caller that hands `out` to a single `write` call preserves the
    /// one-frame-one-write property
    /// [`FaultyTransport`](crate::FaultyTransport) relies on.
    pub fn encode_into<T: Serialize>(
        &self,
        value: &T,
        out: &mut Vec<u8>,
    ) -> Result<(), FrameError> {
        let payload = serde_json::to_vec(value)?;
        if payload.len() as u64 > MAX_FRAME as u64 {
            return Err(FrameError::Oversized(payload.len() as u32));
        }
        out.reserve(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        Ok(())
    }

    /// Encodes one frame into a fresh buffer.
    pub fn encode<T: Serialize>(&self, value: &T) -> Result<Vec<u8>, FrameError> {
        let mut out = Vec::new();
        self.encode_into(value, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Command, Report};

    #[test]
    fn whole_frame_round_trips() {
        let enc = FrameEncoder::new();
        let bytes = enc.encode(&Command::SetCap { cap_w: 151.5 }).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let cmd: Command = dec.next_frame().unwrap().expect("one frame");
        assert_eq!(cmd, Command::SetCap { cap_w: 151.5 });
        assert_eq!(dec.buffered(), 0);
        assert!(dec.next_frame::<Command>().unwrap().is_none());
    }

    #[test]
    fn byte_at_a_time_yields_exactly_one_frame() {
        let bytes = FrameEncoder::new().encode(&Command::Tick).unwrap();
        let mut dec = FrameDecoder::new();
        let mut seen = 0;
        for &b in &bytes {
            dec.feed(&[b]);
            if let Some(cmd) = dec.next_frame::<Command>().unwrap() {
                assert_eq!(cmd, Command::Tick);
                seen += 1;
            }
        }
        assert_eq!(seen, 1);
    }

    #[test]
    fn many_frames_in_one_feed() {
        let enc = FrameEncoder::new();
        let mut wire = Vec::new();
        for i in 0..7u32 {
            enc.encode_into(
                &Report {
                    node_id: i,
                    job_id: None,
                    ips: f64::from(i),
                    power_w: 35.0,
                    job_done: false,
                },
                &mut wire,
            )
            .unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for i in 0..7u32 {
            let r: Report = dec.next_frame().unwrap().expect("frame present");
            assert_eq!(r.node_id, i);
        }
        assert!(dec.next_frame::<Report>().unwrap().is_none());
    }

    #[test]
    fn consumed_bytes_are_dropped_at_the_next_feed() {
        // A connection whose every read carries whole frames must not
        // accumulate a dead prefix (it used to keep up to ~8 KB).
        let frame = FrameEncoder::new().encode(&Command::Tick).unwrap();
        let mut dec = FrameDecoder::new();
        for _ in 0..2_000 {
            dec.feed(&frame);
            assert_eq!(dec.buf.len(), frame.len());
            assert!(dec.next_payload_ref().unwrap().is_some());
        }
        assert!(dec.buf.capacity() < 4 * frame.len());
        // A pending partial frame survives the reset.
        dec.feed(&frame[..3]);
        assert!(dec.next_payload_ref().unwrap().is_none());
        dec.feed(&frame[3..]);
        assert_eq!(dec.next_frame::<Command>().unwrap(), Some(Command::Tick));
    }

    #[test]
    fn want_tracks_header_then_payload() {
        let bytes = FrameEncoder::new().encode(&Command::Tick).unwrap();
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.want(), 4);
        dec.feed(&bytes[..2]);
        assert_eq!(dec.want(), 2);
        dec.feed(&bytes[2..4]);
        assert_eq!(dec.want(), bytes.len() - 4);
        dec.feed(&bytes[4..]);
        assert_eq!(dec.want(), 0);
    }

    #[test]
    fn oversized_prefix_poisons_the_decoder() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(
            dec.next_frame::<Command>(),
            Err(FrameError::Oversized(_))
        ));
        // The framing is unrecoverable: every later call fails too,
        // even after more bytes arrive.
        dec.feed(b"more bytes");
        assert!(matches!(
            dec.next_frame::<Command>(),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(dec.want(), 0);
    }

    #[test]
    fn codec_error_consumes_the_frame_and_recovers() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_be_bytes());
        wire.extend_from_slice(b"zzz");
        FrameEncoder::new()
            .encode_into(&Command::Tick, &mut wire)
            .unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(
            dec.next_frame::<Command>(),
            Err(FrameError::Codec(_))
        ));
        // The boundary was intact, so the next frame decodes cleanly.
        let cmd: Command = dec.next_frame().unwrap().expect("next frame");
        assert_eq!(cmd, Command::Tick);
    }

    #[test]
    fn encoder_bytes_match_the_blocking_writer() {
        let cmd = Command::Launch {
            job_id: 3,
            app: "CoMD".into(),
            work_intervals: 12.5,
        };
        let mut blocking = Vec::new();
        crate::write_frame(&mut blocking, &cmd).unwrap();
        let sans_io = FrameEncoder::new().encode(&cmd).unwrap();
        assert_eq!(blocking, sans_io, "wire formats must be byte-identical");
    }
}
