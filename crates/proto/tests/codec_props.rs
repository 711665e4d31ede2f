//! Property tests for the sans-io framing codec: the incremental
//! decoder must recover exactly the encoded frame sequence no matter
//! how the byte stream is chopped up, stay byte-compatible with the
//! blocking transport, and reject corrupt length prefixes.

use perq_proto::codec::{FrameDecoder, FrameEncoder, MAX_FRAME};
use perq_proto::{read_frame, write_frame, Command, FrameError, Report};
use proptest::prelude::*;

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        (0.0f64..400.0).prop_map(|cap_w| Command::SetCap { cap_w }),
        (any::<u64>(), "[A-Za-z]{1,12}", 0.0f64..1e4).prop_map(|(job_id, app, work_intervals)| {
            Command::Launch {
                job_id,
                app,
                work_intervals,
            }
        }),
        Just(Command::Tick),
        Just(Command::Shutdown),
    ]
}

fn arb_report() -> impl Strategy<Value = Report> {
    (
        any::<u32>(),
        proptest::option::of(any::<u64>()),
        0.0f64..1e10,
        0.0f64..500.0,
        any::<bool>(),
    )
        .prop_map(|(node_id, job_id, ips, power_w, job_done)| Report {
            node_id,
            job_id,
            ips,
            power_w,
            job_done,
        })
}

/// Splits `wire` into chunks whose sizes are drawn from `cuts`
/// (cycled); the decoder must be insensitive to the chop.
fn feed_chopped(dec: &mut FrameDecoder, wire: &[u8], cuts: &[usize]) -> Vec<Command> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut k = 0;
    while pos < wire.len() {
        let step = cuts[k % cuts.len()].clamp(1, wire.len() - pos);
        k += 1;
        dec.feed(&wire[pos..pos + step]);
        pos += step;
        while let Some(cmd) = dec.next_frame::<Command>().expect("valid stream") {
            out.push(cmd);
        }
    }
    out
}

proptest! {
    /// Any frame sequence survives any partial-read chop, including
    /// one-byte reads that split the length header itself.
    #[test]
    fn chopped_streams_decode_identically(
        cmds in proptest::collection::vec(arb_command(), 1..24),
        cuts in proptest::collection::vec(1usize..64, 1..12),
    ) {
        let enc = FrameEncoder::new();
        let mut wire = Vec::new();
        for cmd in &cmds {
            enc.encode_into(cmd, &mut wire).unwrap();
        }

        // Reference: whole stream in one feed.
        let mut whole = FrameDecoder::new();
        let got_whole = feed_chopped(&mut whole, &wire, &[wire.len()]);
        prop_assert_eq!(&got_whole, &cmds);
        prop_assert_eq!(whole.buffered(), 0);

        // Chopped arbitrarily, including header splits.
        let mut chopped = FrameDecoder::new();
        let got_chopped = feed_chopped(&mut chopped, &wire, &cuts);
        prop_assert_eq!(&got_chopped, &cmds);

        // Degenerate one-byte chop.
        let mut trickle = FrameDecoder::new();
        let got_trickle = feed_chopped(&mut trickle, &wire, &[1]);
        prop_assert_eq!(&got_trickle, &cmds);
    }

    /// The sans-io encoder and the blocking writer emit identical
    /// bytes, and each side decodes the other's output: the refactor
    /// is wire-compatible in both directions.
    #[test]
    fn codec_is_byte_compatible_with_blocking_transport(
        reports in proptest::collection::vec(arb_report(), 1..16),
    ) {
        let enc = FrameEncoder::new();
        let mut sans_io_wire = Vec::new();
        let mut blocking_wire = Vec::new();
        for r in &reports {
            enc.encode_into(r, &mut sans_io_wire).unwrap();
            write_frame(&mut blocking_wire, r).unwrap();
        }
        prop_assert_eq!(&sans_io_wire, &blocking_wire);

        // Blocking reader consumes the sans-io encoder's stream...
        let mut cursor = std::io::Cursor::new(&sans_io_wire);
        for expected in &reports {
            let got: Report = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(&got, expected);
        }
        prop_assert_eq!(cursor.position() as usize, sans_io_wire.len());

        // ...and the incremental decoder consumes the blocking writer's.
        let mut dec = FrameDecoder::new();
        dec.feed(&blocking_wire);
        for expected in &reports {
            let got: Report = dec.next_frame().unwrap().expect("frame available");
            prop_assert_eq!(&got, expected);
        }
        prop_assert!(dec.next_frame::<Report>().unwrap().is_none());
    }

    /// A length prefix above the frame ceiling is rejected before any
    /// payload is buffered, and poisons the decoder permanently — no
    /// amount of further bytes resynchronises a corrupt frame boundary.
    #[test]
    fn corrupt_length_is_rejected_and_poisons(
        over in (MAX_FRAME as u64 + 1..=u32::MAX as u64).prop_map(|v| v as u32),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        valid in arb_command(),
    ) {
        let mut dec = FrameDecoder::new();
        dec.feed(&over.to_be_bytes());
        match dec.next_frame::<Command>() {
            Err(FrameError::Oversized(n)) => prop_assert_eq!(n, over),
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
        // Even a subsequently valid frame must not be surfaced: the
        // stream position is untrustworthy.
        dec.feed(&tail);
        dec.feed(&FrameEncoder::new().encode(&valid).unwrap());
        prop_assert!(matches!(
            dec.next_frame::<Command>(),
            Err(FrameError::Oversized(_))
        ));
    }

    /// The borrowed-payload path is the owned one minus the copy: fed
    /// the same chunks, both yield the same payloads and the same
    /// errors, call for call — through a poisoned prefix, and when every
    /// feed ends exactly where a payload does.
    #[test]
    fn borrowed_payloads_match_owned_payloads(
        cmds in proptest::collection::vec(arb_command(), 1..16),
        cuts in proptest::collection::vec(1usize..64, 1..12),
        poison_after in proptest::option::of(0usize..16),
        over in (MAX_FRAME as u64 + 1..=u32::MAX as u64).prop_map(|v| v as u32),
    ) {
        let enc = FrameEncoder::new();
        let mut wire = Vec::new();
        let mut frame_lens = Vec::new();
        for (i, cmd) in cmds.iter().enumerate() {
            if poison_after == Some(i) {
                wire.extend_from_slice(&over.to_be_bytes());
                frame_lens.push(4);
            }
            let before = wire.len();
            enc.encode_into(cmd, &mut wire).unwrap();
            frame_lens.push(wire.len() - before);
        }

        // Arbitrary chop, then one feed per frame.
        for chunks in [&cuts, &frame_lens] {
            let mut owned = FrameDecoder::new();
            let mut borrowed = FrameDecoder::new();
            let mut seen = 0;
            let mut pos = 0;
            let mut k = 0;
            while pos < wire.len() {
                let step = chunks[k % chunks.len()].clamp(1, wire.len() - pos);
                k += 1;
                owned.feed(&wire[pos..pos + step]);
                borrowed.feed(&wire[pos..pos + step]);
                pos += step;
                loop {
                    let a = owned.next_payload();
                    let b = borrowed.next_payload_ref().map(|p| p.map(<[u8]>::to_vec));
                    match (a, b) {
                        (Ok(Some(x)), Ok(Some(y))) => {
                            prop_assert_eq!(&x, &y);
                            prop_assert_eq!(&enc.encode(&cmds[seen]).unwrap()[4..], &y[..]);
                            seen += 1;
                        }
                        (Ok(None), Ok(None)) => break,
                        (Err(FrameError::Oversized(x)), Err(FrameError::Oversized(y))) => {
                            prop_assert_eq!((x, y), (over, over));
                            break;
                        }
                        (a, b) => prop_assert!(false, "owned {:?} vs borrowed {:?}", a, b),
                    }
                }
                prop_assert_eq!(owned.buffered(), borrowed.buffered());
            }
            let good = poison_after.map_or(cmds.len(), |i| i.min(cmds.len()));
            prop_assert_eq!(seen, good);
            prop_assert_eq!(borrowed.next_payload_ref().is_err(), good < cmds.len());
            if good == cmds.len() {
                prop_assert_eq!(borrowed.buffered(), 0);
            }
        }
    }

    /// `want()` is an exact progress oracle: feeding precisely `want()`
    /// bytes at a time walks the stream frame by frame, and `want()`
    /// hits zero exactly when a frame is decodable.
    #[test]
    fn want_is_an_exact_progress_oracle(
        cmds in proptest::collection::vec(arb_command(), 1..8),
    ) {
        let enc = FrameEncoder::new();
        let mut wire = Vec::new();
        for cmd in &cmds {
            enc.encode_into(cmd, &mut wire).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut pos = 0;
        let mut decoded = Vec::new();
        while decoded.len() < cmds.len() {
            let want = dec.want();
            if want == 0 {
                decoded.push(dec.next_frame::<Command>().unwrap().expect("want()==0"));
                continue;
            }
            prop_assert!(pos + want <= wire.len(), "oracle overshot the stream");
            dec.feed(&wire[pos..pos + want]);
            pos += want;
        }
        prop_assert_eq!(&decoded, &cmds);
        prop_assert_eq!(pos, wire.len());
    }
}
