//! Taking a round of reports off the wire allocates nothing per report:
//! once the server's buffers have seen a round, a `pump` over 512
//! reporting workers performs exactly as many heap allocations as one
//! over 64.

#[path = "../../sysid/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use perq_proto::{FrameEncoder, Report};
use perq_serve::{make_policy, mem_pair, MemIo, MemPoller, ServeConfig, Server};
use perq_telemetry::Recorder;
use std::io::{Read, Write};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn report(node_id: u32, round: u32) -> Vec<u8> {
    let report = Report {
        node_id,
        job_id: Some(u64::from(node_id) + 1),
        ips: 1.0e9 + 1_234.567_890_123 * f64::from(node_id * 31 + round),
        power_w: 120.0 + 0.123_456_789 * f64::from(node_id % 97 + round),
        job_done: false,
    };
    FrameEncoder::new().encode(&report).unwrap()
}

/// Pumps until nothing is ready; returns the allocations that took.
fn pump_dry(server: &mut Server<MemPoller>) -> u64 {
    allocations_in(|| while server.pump(Some(Duration::ZERO)).unwrap().handled > 0 {}).0
}

fn warm_round_allocations(workers: u32) -> u64 {
    let mut server = Server::with_recorders(
        MemPoller::new(0),
        ServeConfig::default(),
        make_policy("fop").unwrap(),
        Recorder::manual(),
        Recorder::noop(),
    );
    let mut peers: Vec<MemIo> = (0..workers)
        .map(|node_id| {
            let (server_io, mut peer) = mem_pair(64 * 1024);
            server.attach_worker(server_io).unwrap();
            peer.write_all(&report(node_id, 0)).unwrap(); // registration
            peer
        })
        .collect();
    pump_dry(&mut server);
    assert_eq!(server.live_nodes(), workers as usize);
    let mut sink = vec![0u8; 4096];
    let mut last = 0;
    for round in 1..=4 {
        for (node_id, peer) in peers.iter_mut().enumerate() {
            peer.write_all(&report(node_id as u32, round)).unwrap();
        }
        last = pump_dry(&mut server);
        assert_eq!(
            server.recorder().counter_value("perq_serve_reports_total"),
            u64::from(workers * round)
        );
        server.tick();
        for peer in &mut peers {
            while peer.pending_read() > 0 {
                let n = peer.pending_read().min(sink.len());
                peer.read_exact(&mut sink[..n]).unwrap();
            }
        }
    }
    last
}

#[test]
fn a_warm_pump_allocates_the_same_for_64_and_512_reports() {
    let (small, large) = (warm_round_allocations(64), warm_round_allocations(512));
    assert_eq!(small, large, "64 workers vs 512 workers");
}
