//! `MemPoller` answers an empty poll from counters the pipes keep current
//! instead of looking at every registered end. This suite drives random
//! sequences of everything that can move those counters — register,
//! write, read, close through a cloned handle on either end, deregister,
//! write interest — and after every step compares the poll against a scan
//! written from scratch over the public accessors of the ends.

use perq_serve::{mem_pair, MemIo, MemPoller, PollEvent, Poller};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};

const PIPES: usize = 4;

/// Tokens are sparse and not in end order, so the cursor wraps over gaps.
fn token_of(end: usize) -> usize {
    (end * 5 + 3) % 17
}

/// What a full scan in token order from past `cursor` reports.
fn scan(
    ends: &[MemIo],
    registered: &BTreeMap<usize, (usize, bool)>,
    cursor: usize,
    batch: usize,
) -> Vec<PollEvent> {
    let limit = if batch == 0 { usize::MAX } else { batch };
    registered
        .range(cursor + 1..)
        .chain(registered.range(..=cursor))
        .filter_map(|(&token, &(end, write_interest))| {
            let io = &ends[end];
            let readable = io.pending_read() > 0 || io.is_closed();
            let writable = write_interest && (io.write_space() > 0 || io.is_closed());
            let hangup = io.is_closed() && io.pending_read() == 0;
            (readable || writable || hangup).then_some(PollEvent {
                token,
                readable,
                writable,
                hangup,
            })
        })
        .take(limit)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counting_poll_equals_a_full_scan(
        ops in prop::collection::vec((0usize..7, 0usize..2 * PIPES, 0usize..12, any::<bool>()), 1..80),
        batch in prop_oneof![Just(0usize), Just(1usize), Just(3usize)],
        cap in 1usize..10,
    ) {
        // Ends `2k` and `2k + 1` face each other; every end may register.
        let mut ends: Vec<MemIo> = Vec::new();
        for _ in 0..PIPES {
            let (a, b) = mem_pair(cap);
            ends.extend([a, b]);
        }
        let mut poller = MemPoller::new(batch);
        let mut registered: BTreeMap<usize, (usize, bool)> = BTreeMap::new();
        let mut cursor = 0;
        let mut events = Vec::new();
        for (op, end, n, flag) in ops {
            let token = token_of(end);
            let is_registered = registered.contains_key(&token);
            match op {
                0 => {
                    let done = poller.register(&ends[end], token).is_ok();
                    prop_assert_eq!(done, !is_registered);
                    registered.entry(token).or_insert((end, false));
                }
                1 => {
                    // Partial writes and `WouldBlock` on a full pipe are
                    // part of the sequence, not failures of it.
                    let _ = ends[end].clone().write(&vec![7u8; n]);
                }
                2 => {
                    let _ = ends[end].clone().read(&mut vec![0u8; n]);
                }
                3 => ends[end].clone().close(),
                4 => {
                    let done = poller.deregister(&ends[end], token).is_ok();
                    prop_assert_eq!(done, is_registered);
                    registered.remove(&token);
                }
                5 => {
                    let done = poller.set_write_interest(&ends[end], token, flag).is_ok();
                    prop_assert_eq!(done, is_registered);
                    if let Some(entry) = registered.get_mut(&token) {
                        entry.1 = flag;
                    }
                }
                _ => {}
            }
            let expected = scan(&ends, &registered, cursor, batch);
            poller.poll(&mut events, None).unwrap();
            prop_assert_eq!(&events, &expected, "after op {} on end {}", op, end);
            if let Some(last) = expected.last() {
                cursor = last.token;
            }
        }
    }
}
