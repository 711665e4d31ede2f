//! Property tests for the sans-io framing codec: the incremental
//! decoder must recover exactly the encoded frame sequence no matter
//! how the byte stream is chopped up, stay byte-compatible with the
//! blocking transport, and reject corrupt length prefixes. The second
//! half attacks the report reader: whatever bytes arrive, it answers
//! exactly as the generic deserializer does, and a lying length field or
//! a stream cut mid-frame costs only the frames behind it.

use perq_proto::codec::{FrameDecoder, FrameEncoder, MAX_FRAME};
use perq_proto::{read_frame, write_frame, Command, FrameError, Report, Wire};
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

/// Field-by-field identity, floats by bit pattern (`-0.0` is not `0.0`
/// here, and a NaN equals itself).
fn same_report(a: &Report, b: &Report) -> bool {
    a.node_id == b.node_id
        && a.job_id == b.job_id
        && a.ips.to_bits() == b.ips.to_bits()
        && a.power_w.to_bits() == b.power_w.to_bits()
        && a.job_done == b.job_done
}

/// The contract of `<Report as Wire>::decode`: on any payload it returns
/// what `serde_json::from_slice` returns — the same report bit for bit,
/// or an error where that errs. Returns whether the payload decoded.
fn assert_decodes_like_serde(payload: &[u8]) -> bool {
    let fast = Report::decode(payload);
    let generic = serde_json::from_slice::<Report>(payload);
    match (&fast, &generic) {
        (Ok(a), Ok(b)) => assert!(
            same_report(a, b),
            "{a:?} vs {b:?} on {}",
            String::from_utf8_lossy(payload)
        ),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "decode {fast:?} vs from_slice {generic:?} on {}",
            String::from_utf8_lossy(payload)
        ),
    }
    fast.is_ok()
}

fn round_trips(report: &Report) -> bool {
    let wire = FrameEncoder::new().encode(report).unwrap();
    assert!(assert_decodes_like_serde(&wire[4..]));
    let mut dec = FrameDecoder::new();
    dec.feed(&wire);
    let back: Report = dec.next_frame().unwrap().expect("one frame");
    dec.buffered() == 0 && same_report(&back, report)
}

#[test]
fn edge_reports_round_trip_bit_for_bit() {
    let floats = [
        0.0,
        -0.0,
        5e-324,                     // smallest subnormal
        2.225_073_858_507_201e-308, // largest subnormal
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        -1.5,
        0.1 + 0.2,
        1e21,
        1e-7,
        123_456_789_012_345_680.0,
        9_007_199_254_740_993.0,
        31.245_270_191_439_438,
        121.487_919_511_619_45,
        1.797_693_134_862_315_7e308,
        1_934_567_890.123_456_7,
        4.94e-320,
    ];
    let ids = [
        (0, None),
        (0, Some(0)),
        (1, Some(1)),
        (u32::MAX, Some(u64::from(u32::MAX))),
        (u32::MAX, Some(u64::MAX)),
        (4_000_000_000, Some(10_000_000_000_000_000_000)),
    ];
    for (i, &ips) in floats.iter().enumerate() {
        for (j, &power_w) in floats.iter().enumerate() {
            let (node_id, job_id) = ids[(i + j) % ids.len()];
            let report = Report {
                node_id,
                job_id,
                ips,
                power_w,
                job_done: (i + j) % 2 == 0,
            };
            assert!(round_trips(&report), "{report:?}");
        }
    }
}

const CANONICAL: [&str; 5] = [
    r#"{"node_id":3,"job_id":11,"ips":1934567890.1234567,"power_w":201.33456789012345,"job_done":true}"#,
    r#"{"node_id":0,"job_id":null,"ips":0.0,"power_w":-0.0,"job_done":false}"#,
    r#"{"node_id":4294967295,"job_id":18446744073709551615,"ips":1.5e-7,"power_w":1e21,"job_done":false}"#,
    r#"{"node_id":10,"job_id":1,"ips":5E+3,"power_w":90,"job_done":true}"#,
    r#"{"node_id":2047,"job_id":2048,"ips":4.9e-324,"power_w":1.7976931348623157e308,"job_done":false}"#,
];

#[test]
fn canonical_reports_under_every_single_byte_edit() {
    for text in CANONICAL {
        let payload = text.as_bytes();
        assert!(assert_decodes_like_serde(payload), "{text}");
        let mut decoded = 0usize;
        for at in 0..=payload.len() {
            // Truncation.
            assert_decodes_like_serde(&payload[..at]);
            for byte in 0..=u8::MAX {
                // Insertion.
                let mut edited = payload.to_vec();
                edited.insert(at, byte);
                decoded += usize::from(assert_decodes_like_serde(&edited));
                // Substitution.
                if at < payload.len() && byte != payload[at] {
                    let mut edited = payload.to_vec();
                    edited[at] = byte;
                    decoded += usize::from(assert_decodes_like_serde(&edited));
                }
            }
        }
        // The sweep is not vacuous: plenty of edits (another digit, a
        // space) still make a report.
        assert!(decoded > 100, "{decoded} edits of {text} decoded");
    }
}

#[test]
fn non_canonical_spellings_are_the_deserializers_call() {
    let with = |node: &str, job: &str, ips: &str, power: &str, done: &str| {
        format!(
            r#"{{"node_id":{node},"job_id":{job},"ips":{ips},"power_w":{power},"job_done":{done}}}"#
        )
    };
    let mut payloads = vec![
        // Re-ordered keys, inner and outer whitespace, unknown fields,
        // a missing optional, a duplicate, a missing required field.
        r#"{"job_done":true,"power_w":201.5,"ips":1.9e9,"job_id":11,"node_id":3}"#.to_string(),
        r#"{ "node_id" : 3 , "job_id" : 11 , "ips" : 1.9e9 , "power_w" : 201.5 , "job_done" : true }"#.to_string(),
        "\t{\"node_id\":3,\"job_id\":11,\"ips\":1.9e9,\"power_w\":201.5,\"job_done\":true}\n".to_string(),
        r#"{"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.5,"job_done":true,"extra":[1,{"a":"}"}]}"#.to_string(),
        r#"{"extra":null,"node_id":3,"job_id":11,"ips":1.9e9,"power_w":201.5,"job_done":true}"#.to_string(),
        r#"{"node_id":3,"ips":1.9e9,"power_w":201.5,"job_done":true}"#.to_string(),
        r#"{"node_id":3,"node_id":4,"job_id":11,"ips":1.9e9,"power_w":201.5,"job_done":true}"#.to_string(),
        r#"{"node_id":3,"job_id":11,"power_w":201.5,"job_done":true}"#.to_string(),
        r#"[3,11,1.9e9,201.5,true]"#.to_string(),
        r#""Tick""#.to_string(),
        String::new(),
    ];
    // Number spellings JSON forbids or the field's type cannot hold, in
    // every numeric field.
    for odd in [
        "1.",
        ".5",
        "+1",
        "01",
        "-01",
        "1e999",
        "-1e999",
        "1e",
        "1e+",
        "1.e3",
        "-",
        "--1",
        "1-2",
        "1.5.3",
        "1e5e5",
        "0x10",
        "1_000",
        "Infinity",
        "NaN",
        "null",
        "true",
        "\"1\"",
        "-0",
        "-1",
        "1.0",
        "1e3",
        "4294967296",
        "18446744073709551616",
        "99999999999999999999",
        "123456789012345678901234567890",
        "0.00000000000000000000000000000000000000001",
        "100000000000000000000000000000000000000000.0",
        "2.2250738585072011e-308",
    ] {
        payloads.push(with(odd, "11", "1.9e9", "201.5", "true"));
        payloads.push(with("3", odd, "1.9e9", "201.5", "true"));
        payloads.push(with("3", "11", odd, "201.5", "true"));
        payloads.push(with("3", "11", "1.9e9", odd, "true"));
        payloads.push(with("3", "11", "1.9e9", "201.5", odd));
    }
    let decoded = payloads
        .iter()
        .filter(|p| assert_decodes_like_serde(p.as_bytes()))
        .count();
    assert!(decoded > 10 && decoded < payloads.len(), "{decoded}");
}

proptest! {
    /// Every finite reading and every id survives encode → `next_frame`
    /// bit for bit, and the reader agrees with the generic deserializer
    /// on the way.
    #[test]
    fn every_finite_report_round_trips_bit_for_bit(
        node_id in any::<u32>(),
        job_id in proptest::option::of(any::<u64>()),
        ips_bits in any::<u64>(),
        power_bits in any::<u64>(),
        job_done in any::<bool>(),
    ) {
        let (ips, power_w) = (f64::from_bits(ips_bits), f64::from_bits(power_bits));
        prop_assume!(ips.is_finite() && power_w.is_finite());
        let report = Report { node_id, job_id, ips, power_w, job_done };
        prop_assert!(round_trips(&report), "{:?}", report);
    }

    /// A length field that lies, or a stream that ends mid-frame, takes
    /// nothing from the frames ahead of it: they are delivered, then the
    /// typed error — and nothing behind the damage is surfaced as a
    /// frame of the original sequence.
    #[test]
    fn damaged_streams_deliver_the_frames_ahead_then_a_typed_error(
        reports in proptest::collection::vec(arb_report(), 1..12),
        good in 0usize..12,
        damage in 0usize..4,
        lie in 1u32..64,
        cut in 1usize..40,
        cuts in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let good = good % reports.len();
        let enc = FrameEncoder::new();
        let mut wire = Vec::new();
        for r in &reports[..good] {
            enc.encode_into(r, &mut wire).unwrap();
        }
        let victim = enc.encode(&reports[good]).unwrap();
        let payload_len = (victim.len() - 4) as u32;
        let tail: Vec<u8> = reports[good + 1..]
            .iter()
            .flat_map(|r| enc.encode(r).unwrap())
            .collect();
        match damage {
            // The prefix announces more than the frame ceiling.
            0 => {
                wire.extend_from_slice(&(MAX_FRAME + lie).to_be_bytes());
                wire.extend_from_slice(&victim[4..]);
                wire.extend_from_slice(&tail);
            }
            // The prefix announces fewer bytes than the payload has.
            1 => {
                let short = payload_len - lie.min(payload_len - 1);
                wire.extend_from_slice(&short.to_be_bytes());
                wire.extend_from_slice(&victim[4..]);
                wire.extend_from_slice(&tail);
            }
            // The prefix announces more (under the ceiling): the decoder
            // waits for bytes that belong to later frames.
            2 => {
                wire.extend_from_slice(&(payload_len + lie).to_be_bytes());
                wire.extend_from_slice(&victim[4..]);
                wire.extend_from_slice(&tail);
            }
            // The stream ends inside the frame (header or payload).
            _ => wire.extend_from_slice(&victim[..cut.min(victim.len() - 1)]),
        }

        // Incremental decoder under an arbitrary chop.
        let mut dec = FrameDecoder::new();
        let mut delivered: Vec<Report> = Vec::new();
        let mut errors = 0usize;
        let (mut pos, mut k) = (0, 0);
        while pos < wire.len() {
            let step = cuts[k % cuts.len()].clamp(1, wire.len() - pos);
            k += 1;
            dec.feed(&wire[pos..pos + step]);
            pos += step;
            loop {
                match dec.next_frame::<Report>() {
                    Ok(Some(r)) => delivered.push(r),
                    Ok(None) => break,
                    // Poisoned for good. Bytes out of step after a short
                    // or long lie can read as an oversized prefix too; a
                    // stream that merely ends cannot.
                    Err(FrameError::Oversized(n)) => {
                        prop_assert!(damage != 3);
                        prop_assert!(damage != 0 || n == MAX_FRAME + lie);
                        errors += 1;
                        break;
                    }
                    Err(FrameError::Codec(_)) => errors += 1,
                    Err(FrameError::Io(e)) => prop_assert!(false, "sans-io decoder: {}", e),
                }
            }
        }
        prop_assert!(delivered.len() >= good, "{} of {} delivered", delivered.len(), good);
        for (got, want) in delivered.iter().zip(&reports[..good]) {
            prop_assert!(same_report(got, want));
        }
        match damage {
            0 => {
                prop_assert!(errors >= 1);
                prop_assert_eq!(delivered.len(), good);
                prop_assert!(matches!(dec.next_frame::<Report>(), Err(FrameError::Oversized(_))));
            }
            // The payload cut short cannot be a report; what follows is
            // out of step and may or may not parse, but never panics.
            1 => prop_assert!(errors >= 1),
            _ => {}
        }
        if damage == 3 {
            prop_assert_eq!(delivered.len(), good);
            prop_assert!(dec.buffered() > 0 && dec.want() > 0);
        }

        // Blocking reader over the same bytes: the frames ahead, then
        // `Oversized`, `Codec`, or `Io(UnexpectedEof)` — by type.
        let mut cursor = std::io::Cursor::new(&wire);
        for want in &reports[..good] {
            let got: Report = read_frame(&mut cursor).unwrap();
            prop_assert!(same_report(&got, want));
        }
        let next = read_frame::<Report, _>(&mut cursor);
        match damage {
            0 => prop_assert!(matches!(next, Err(FrameError::Oversized(_)))),
            1 => prop_assert!(matches!(next, Err(FrameError::Codec(_)))),
            2 if tail.len() < lie as usize => prop_assert!(
                matches!(&next, Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
            ),
            2 => prop_assert!(matches!(next, Err(FrameError::Codec(_)))),
            _ => prop_assert!(
                matches!(&next, Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
            ),
        }
    }
}
