use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// A type that travels as a frame payload. Every read path ends in
/// [`FrameDecoder::next_frame`](crate::FrameDecoder::next_frame), which
/// calls [`Wire::decode`]: a message with a reader of its own gets it
/// everywhere, and callers never choose between decoders.
pub trait Wire: DeserializeOwned {
    /// Decodes one payload; by default with the generic JSON deserializer.
    fn decode(payload: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(payload)
    }
}

impl Wire for Command {}

impl Wire for Report {
    /// The strict reader for the canonical spelling, the generic
    /// deserializer for every other: what is accepted and what is
    /// rejected stay the deserializer's call.
    fn decode(payload: &[u8]) -> Result<Self, serde_json::Error> {
        match Report::read_canonical(payload) {
            Some(report) => Ok(report),
            None => serde_json::from_slice(payload),
        }
    }
}

/// Controller → node commands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Apply a new power cap (watts) for the next interval.
    SetCap {
        /// Per-node power cap, watts.
        cap_w: f64,
    },
    /// Start (the node's share of) a job.
    Launch {
        /// Cluster-wide job id.
        job_id: u64,
        /// Application profile name (resolved against the node's suite).
        app: String,
        /// Work to complete on this node, in TDP-equivalent control
        /// intervals.
        work_intervals: f64,
    },
    /// Advance one control interval: run the workload slice under the
    /// current cap and reply with a [`Report`].
    Tick,
    /// Terminate the worker thread.
    Shutdown,
}

/// Node → controller report, sent in response to every `Tick`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Reporting node id.
    pub node_id: u32,
    /// Job occupying this node, if any.
    pub job_id: Option<u64>,
    /// Measured node IPS over the last interval (0 when idle).
    pub ips: f64,
    /// Measured node power over the last interval, watts.
    pub power_w: f64,
    /// True if the node's share of the job completed during this interval.
    pub job_done: bool,
}

impl Report {
    /// The `(ips, power_w)` reading, if the report carries a usable one.
    /// A peer chose these numbers and the controllers' estimators take
    /// what they are given: anything but two finite, non-negative values
    /// proves the worker alive and nothing else.
    pub fn reading(&self) -> Option<(f64, f64)> {
        let usable = |v: f64| v.is_finite() && v >= 0.0;
        (usable(self.ips) && usable(self.power_w)).then_some((self.ips, self.power_w))
    }

    /// Reads exactly what the encoder writes for a report with finite
    /// readings — keys in declaration order, no whitespace, integers
    /// without sign or leading zeros, floats in the JSON number grammar —
    /// in one pass, without allocating; `None` for anything else.
    fn read_canonical(payload: &[u8]) -> Option<Report> {
        let mut rest = payload;
        eat(&mut rest, b"{\"node_id\":")?;
        let node_id = u32::try_from(read_uint(&mut rest)?).ok()?;
        eat(&mut rest, b",\"job_id\":")?;
        let job_id = match eat(&mut rest, b"null") {
            Some(()) => None,
            None => Some(read_uint(&mut rest)?),
        };
        eat(&mut rest, b",\"ips\":")?;
        let ips = read_float(&mut rest)?;
        eat(&mut rest, b",\"power_w\":")?;
        let power_w = read_float(&mut rest)?;
        eat(&mut rest, b",\"job_done\":")?;
        let job_done = match rest {
            b"true}" => true,
            b"false}" => false,
            _ => return None,
        };
        Some(Report {
            node_id,
            job_id,
            ips,
            power_w,
            job_done,
        })
    }
}

/// Consumes `word` if `rest` starts with it.
fn eat(rest: &mut &[u8], word: &[u8]) -> Option<()> {
    *rest = rest.strip_prefix(word)?;
    Some(())
}

/// Length of the run of ASCII digits `bytes` starts with, if any.
fn digits(bytes: &[u8]) -> Option<usize> {
    let n = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    (n > 0).then_some(n)
}

/// [`digits`] of a JSON integer part: a leading zero stands alone.
fn int_digits(bytes: &[u8]) -> Option<usize> {
    digits(bytes).filter(|&n| n == 1 || bytes[0] != b'0')
}

/// Consumes an unsigned JSON integer (no leading zeros) that fits a
/// `u64`; `12.5` or `12e3` fail at the caller's next [`eat`].
fn read_uint(rest: &mut &[u8]) -> Option<u64> {
    let (text, tail) = rest.split_at(int_digits(rest)?);
    *rest = tail;
    text.iter().try_fold(0u64, |value, &b| {
        value.checked_mul(10)?.checked_add(u64::from(b - b'0'))
    })
}

/// Consumes a JSON number (`-? int frac? exp?`), converted by the
/// deserializer's own float reader so the bits are the generic path's;
/// `None` if that reader refuses it or the result is not finite.
fn read_float(rest: &mut &[u8]) -> Option<f64> {
    let text = *rest;
    let mut len = usize::from(text.first() == Some(&b'-'));
    len += int_digits(&text[len..])?;
    if text.get(len) == Some(&b'.') {
        len += 1 + digits(&text[len + 1..])?;
    }
    if let Some(b'e' | b'E') = text.get(len) {
        len += 1 + usize::from(matches!(text.get(len + 1), Some(b'+' | b'-')));
        len += digits(&text[len..])?;
    }
    let value: f64 = serde_json::from_slice(&text[..len]).ok()?;
    *rest = &text[len..];
    value.is_finite().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_round_trip_through_json() {
        for cmd in [
            Command::SetCap { cap_w: 145.5 },
            Command::Launch {
                job_id: 7,
                app: "CoMD".into(),
                work_intervals: 42.0,
            },
            Command::Tick,
            Command::Shutdown,
        ] {
            let bytes = serde_json::to_vec(&cmd).unwrap();
            let back: Command = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(cmd, back);
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let r = Report {
            node_id: 3,
            job_id: Some(11),
            ips: 1.9e9,
            power_w: 201.0,
            job_done: true,
        };
        let bytes = serde_json::to_vec(&r).unwrap();
        let back: Report = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn strict_reader_takes_what_the_encoder_writes() {
        for report in [
            Report {
                node_id: 0,
                job_id: None,
                ips: 0.0,
                power_w: -0.0,
                job_done: false,
            },
            Report {
                node_id: u32::MAX,
                job_id: Some(u64::MAX),
                ips: 1.8446744073709552e19,
                power_w: 5e-324,
                job_done: true,
            },
            Report {
                node_id: 7,
                job_id: Some(8),
                ips: 1_934_567_890.123_456_7,
                power_w: 201.334_567_890_123_45,
                job_done: false,
            },
        ] {
            let bytes = serde_json::to_vec(&report).unwrap();
            let strict = Report::read_canonical(&bytes).expect("canonical form");
            assert_eq!(strict.node_id, report.node_id);
            assert_eq!(strict.job_id, report.job_id);
            assert_eq!(strict.ips.to_bits(), report.ips.to_bits());
            assert_eq!(strict.power_w.to_bits(), report.power_w.to_bits());
            assert_eq!(strict.job_done, report.job_done);
        }
    }

    #[test]
    fn strict_reader_declines_every_other_spelling() {
        let canonical = br#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true}"#;
        assert!(Report::read_canonical(canonical).is_some());
        for other in [
            &br#"{"job_id":11,"node_id":3,"ips":1.9e9,"power_w":201.0,"job_done":true}"#[..],
            br#"{"node_id": 3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true} "#,
            br#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true,"x":1}"#,
            br#"{"node_id":03,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":+3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":4294967296,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":18446744073709551616,"ips":1.9e9,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":1.,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":.5,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":01.5,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":1e,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":1e999,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":null,"power_w":201.0,"job_done":true}"#,
            br#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":1}"#,
            br#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.0,"job_done":true"#,
            b"",
        ] {
            assert!(
                Report::read_canonical(other).is_none(),
                "{}",
                String::from_utf8_lossy(other)
            );
        }
    }
}
