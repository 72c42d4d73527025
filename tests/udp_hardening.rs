//! Integration test for the UDP plane's datagram hardening: garbage
//! injected into a *live* socket — one carrying real election traffic —
//! must be dropped, attributed to the right per-reason counter, and must
//! not disturb the service.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use sle_core::{Cluster, GroupId, JoinConfig, ServiceMessage};
use sle_election::ElectorKind;
use sle_sim::actor::NodeId;
use sle_udp::{SharedUdpPlane, MAX_PLANE_DATAGRAM};
use sle_wire::encode_frame;

const GROUP: GroupId = GroupId(1);

/// Wraps `frame` in a plane record addressed to node 0 (`docs/WIRE.md`).
fn record(frame: &[u8]) -> Vec<u8> {
    let mut rec = 0u32.to_be_bytes().to_vec();
    rec.extend_from_slice(&(frame.len() as u16).to_be_bytes());
    rec.extend_from_slice(frame);
    rec
}

#[test]
fn per_reason_drop_counters_increment_on_a_live_socket() {
    // A real 3-node deployment over loopback UDP, one socket per node.
    let plane =
        SharedUdpPlane::<ServiceMessage>::bind_loopback(3, 3).expect("bind loopback sockets");
    let target = plane.node_addr(NodeId(0)).expect("node 0 has a socket");
    let cluster = Cluster::start_with_endpoints(plane.endpoints(), ElectorKind::OmegaLc);
    for i in 0..3u32 {
        cluster
            .handle(NodeId(i))
            .expect("handle exists")
            .join(GROUP, JoinConfig::candidate())
            .expect("join");
    }
    // The cluster is live: the election settles over the same socket we are
    // about to attack.
    cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("initial election over UDP");

    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker socket");
    let inject = |epoch: u64| {
        // Oversized: larger than any datagram the demux will even look at.
        attacker
            .send_to(&[0u8; MAX_PLANE_DATAGRAM + 1], target)
            .expect("send oversized");
        // Malformed: a record for node 0 whose frame the codec rejects.
        attacker
            .send_to(&record(b"not a frame at all, sorry"), target)
            .expect("send malformed");
        // Spoofed: a perfectly well-formed frame claiming to be node 1,
        // but from a source address that is not node 1's socket.
        let spoof = encode_frame(
            NodeId(1),
            &ServiceMessage::Accuse {
                accusations: vec![(GROUP, epoch)],
            },
        )
        .expect("encode spoofed frame");
        attacker
            .send_to(&record(&spoof), target)
            .expect("send spoofed");
    };

    // The reader thread drains asynchronously, and loopback UDP is not
    // lossless under load — so keep re-injecting until every reason has
    // been attributed at least once. (Exact per-reason accounting on an
    // unloaded socket is covered by sle-udp's demux tests.)
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut round = 0u64;
    loop {
        inject(round);
        round += 1;
        std::thread::sleep(Duration::from_millis(20));
        let snapshot = plane.stats();
        if snapshot.dropped_oversized >= 1
            && snapshot.dropped_malformed >= 1
            && snapshot.dropped_misaddressed >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "some drop reason was never attributed: {snapshot:?}"
        );
    }

    let snapshot = plane.stats();
    // Nothing is ever over-attributed: each reason counts at most its own
    // injections, and real protocol traffic contributes to `delivered` only.
    assert!(snapshot.dropped_oversized <= round);
    assert!(snapshot.dropped_malformed <= round);
    assert!(snapshot.dropped_misaddressed <= round);
    assert!(
        snapshot.delivered > 0,
        "legitimate election traffic must keep flowing"
    );

    // And the attack changed nothing for the application: the group still
    // agrees on a leader afterwards.
    cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("agreement survives the garbage flood");
    cluster.shutdown();
}
