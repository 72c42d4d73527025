//! SimRng-driven property/fuzz suite for the shared-socket demultiplexer.
//!
//! The demux sits on the trust boundary of the daemon: whatever arrives on
//! a shared socket — interleaved legitimate traffic from many peers,
//! spoofed or unknown sources, truncated `AliveBatch` fragments, records
//! for nodes that departed mid-stream — must route each record to exactly
//! the addressed resident or refuse it under exactly one counted reason.
//! Every test here asserts **zero cross-node delivery leakage** (a record
//! never surfaces at any endpoint but the addressed one) and **byte-exact
//! per-reason drop counters** (the full [`PlaneStatsSnapshot`] is compared
//! against a hand-computed expectation, so an uncounted or double-counted
//! drop fails, not just a missing one). The refusal tests also install a
//! trace ring and require one `DatagramDropped` event per refusal, with the
//! same reason, attributed to the right node.

use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sle_core::messages::{GroupAlive, GroupAnnouncement, HelloList, ServiceMessage};
use sle_core::process::{GroupId, ProcessId};
use sle_election::{AlivePayload, LeaderClaim};
use sle_net::transport::{MessageEndpoint, TransportError};
use sle_obs::{DropReason, ManualClock, ProtoEvent, TraceRing};
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::NodeId;
use sle_udp::{
    PlaneStatsSnapshot, SharedUdpEndpoint, SharedUdpPlane, MAX_PLANE_DATAGRAM, RECORD_HEADER,
};
use sle_wire::encode_frame;

/// Spins until `predicate` holds or five seconds pass; the demux runs on
/// its own reader threads, so every expectation needs a settle.
fn await_settled(mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !predicate() {
        assert!(Instant::now() < deadline, "demux did not settle in 5s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Builds one plane record: `dest u32 BE | frame_len u16 BE | frame`.
fn record(dest: u32, frame: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + frame.len());
    rec.extend_from_slice(&dest.to_be_bytes());
    rec.extend_from_slice(&(frame.len() as u16).to_be_bytes());
    rec.extend_from_slice(frame);
    rec
}

/// Installs a trace ring on `plane`.
fn traced<M: sle_wire::WireFormat + Send + 'static>(plane: &SharedUdpPlane<M>) -> TraceRing {
    let ring = TraceRing::new(256);
    plane.set_trace(ring.clone(), Arc::new(ManualClock::new()));
    ring
}

/// Drains `ring` into `(node, reason)` pairs in trace order (one reader
/// thread per socket, so drops on one socket trace in arrival order);
/// anything but a `DatagramDropped` event, or an overflowed ring, fails.
fn traced_drops(ring: &TraceRing) -> Vec<(NodeId, DropReason)> {
    let drain = ring.drain();
    assert_eq!(drain.dropped, 0, "trace ring overflowed");
    drain
        .events
        .iter()
        .map(|record| match record.event {
            ProtoEvent::DatagramDropped { reason } => (record.node, reason),
            ref other => panic!("unexpected trace event {other:?}"),
        })
        .collect()
}

#[test]
fn interleaved_traffic_from_many_peers_never_leaks_across_nodes() {
    const NODES: usize = 12;
    const SOCKETS: usize = 3;
    const SENDS: usize = 400;

    let mut rng = SimRng::seed_from(0xD311);
    let plane = SharedUdpPlane::<u64>::bind_loopback(NODES, SOCKETS).unwrap();
    let endpoints = plane.endpoints();

    // Random interleaving of senders and destinations; the payload encodes
    // (sequence, destination) so a leaked delivery identifies itself.
    let mut expected: BTreeMap<usize, Vec<(NodeId, u64)>> = BTreeMap::new();
    for seq in 0..SENDS as u64 {
        let from = rng.uniform_usize(NODES);
        let to = rng.uniform_usize(NODES);
        let payload = (seq << 8) | to as u64;
        endpoints[from].send(NodeId(to as u32), payload).unwrap();
        expected
            .entry(to)
            .or_default()
            .push((NodeId(from as u32), payload));
    }

    await_settled(|| plane.stats().delivered == SENDS as u64);

    for (node, endpoint) in endpoints.iter().enumerate() {
        let mut got = Vec::new();
        while let Some(incoming) = endpoint.try_recv() {
            // Zero leakage: the payload's embedded destination must be the
            // node that received it.
            assert_eq!(
                (incoming.msg & 0xFF) as usize,
                node,
                "record for node {} surfaced at node {node}",
                incoming.msg & 0xFF
            );
            got.push((incoming.from, incoming.msg));
        }
        let mut want = expected.remove(&node).unwrap_or_default();
        want.sort();
        got.sort();
        assert_eq!(got, want, "node {node} delivery set mismatch");
    }

    // Byte-exact counters: every send delivered, nothing refused.
    let stats = plane.stats();
    assert_eq!(
        stats,
        PlaneStatsSnapshot {
            delivered: SENDS as u64,
            datagrams_received: stats.datagrams_received,
            datagrams_sent: stats.datagrams_sent,
            records_sent: SENDS as u64,
            reader_wakeups: stats.reader_wakeups,
            ..PlaneStatsSnapshot::default()
        }
    );
    // Pull mode writes through: one datagram per record, none refused.
    assert_eq!(stats.datagrams_sent, SENDS as u64);
    assert_eq!(stats.datagrams_received, SENDS as u64);
}

#[test]
fn spoofed_and_unknown_sources_are_refused_byte_exactly() {
    let plane = SharedUdpPlane::<u64>::bind_loopback(4, 2).unwrap();
    let ring = traced(&plane);
    let endpoints = plane.endpoints();
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    // Socket 0 hosts nodes 0 and 2.
    let target = plane.node_addr(NodeId(2)).unwrap();

    // A well-formed record claiming an in-plane sender, but from the
    // attacker's socket: refused as misaddressed (cross-socket spoof).
    let spoof = record(2, &encode_frame(NodeId(1), &7u64).unwrap());
    attacker.send_to(&spoof, target).unwrap();
    // A well-formed record claiming a sender outside the plane entirely.
    let unknown = record(2, &encode_frame(NodeId(99), &7u64).unwrap());
    attacker.send_to(&unknown, target).unwrap();
    // A record whose frame bytes the sle-wire codec rejects.
    let garbage = record(2, b"definitely not a frame");
    attacker.send_to(&garbage, target).unwrap();
    // A datagram larger than any the plane ever emits, dropped unparsed.
    attacker
        .send_to(&vec![0u8; MAX_PLANE_DATAGRAM + 64], target)
        .unwrap();

    await_settled(|| plane.stats().datagrams_received == 4);
    await_settled(|| {
        let s = plane.stats();
        s.dropped_misaddressed + s.dropped_malformed + s.dropped_oversized == 4
    });

    // Nothing surfaced anywhere...
    for endpoint in &endpoints {
        assert!(endpoint.try_recv().is_none());
    }
    // ...and the whole snapshot matches, reason by reason.
    let stats = plane.stats();
    assert_eq!(
        stats,
        PlaneStatsSnapshot {
            dropped_misaddressed: 2,
            dropped_malformed: 1,
            dropped_oversized: 1,
            datagrams_received: 4,
            reader_wakeups: stats.reader_wakeups,
            ..PlaneStatsSnapshot::default()
        }
    );
    // Every refusal is traced with its reason: record-level drops against
    // the record's destination, the unparsed oversized datagram against
    // the lowest node id behind the receiving socket.
    assert_eq!(
        traced_drops(&ring),
        vec![
            (NodeId(2), DropReason::Misaddressed),
            (NodeId(2), DropReason::Misaddressed),
            (NodeId(2), DropReason::Malformed),
            (NodeId(0), DropReason::Oversized),
        ]
    );
}

#[test]
fn truncation_aborts_the_datagram_but_earlier_records_survive() {
    let plane = SharedUdpPlane::<u64>::bind_loopback(2, 1).unwrap();
    let ring = traced(&plane);
    let endpoints = plane.endpoints();
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    let target = plane.node_addr(NodeId(0)).unwrap();

    // One datagram: [valid-framing record from the attacker (misaddressed,
    // walk continues)] [record claiming more bytes than the datagram holds
    // (truncated, counted once, walk ends)]. Records before the truncation
    // point are judged normally; the truncated tail never reaches the
    // codec.
    let mut datagram = record(1, &encode_frame(NodeId(1), &1u64).unwrap());
    let mut lying = record(1, &encode_frame(NodeId(1), &2u64).unwrap());
    let cut = lying.len() - 4;
    lying.truncate(cut);
    datagram.extend_from_slice(&lying);
    attacker.send_to(&datagram, target).unwrap();

    // A datagram that ends inside a record *header* (< 6 bytes remain).
    attacker.send_to(&[0, 0, 0, 1, 0], target).unwrap();

    await_settled(|| {
        let s = plane.stats();
        s.dropped_truncated == 2 && s.dropped_misaddressed == 1
    });
    for endpoint in &endpoints {
        assert!(endpoint.try_recv().is_none());
    }
    let stats = plane.stats();
    assert_eq!(
        stats,
        PlaneStatsSnapshot {
            dropped_truncated: 2,
            dropped_misaddressed: 1,
            // The truncated tails are *not* additionally counted
            // malformed: they were abandoned before reaching the codec.
            dropped_malformed: 0,
            datagrams_received: 2,
            reader_wakeups: stats.reader_wakeups,
            ..PlaneStatsSnapshot::default()
        }
    );
    // A record cut short still names its destination; a tail too short to
    // hold a record header names nobody, so it is traced against the
    // lowest node id behind the socket (not the `00 00 00 01` it hints at).
    assert_eq!(
        traced_drops(&ring),
        vec![
            (NodeId(1), DropReason::Misaddressed),
            (NodeId(1), DropReason::Truncated),
            (NodeId(0), DropReason::Truncated),
        ]
    );
}

#[test]
fn truncated_alive_batch_fragments_never_surface() {
    // The hostile variant of the protocol's real workload: a legitimate
    // AliveBatch frame cut mid-entry, at every prefix length a lossy or
    // malicious path could produce.
    let batch = ServiceMessage::AliveBatch {
        incarnation: 3,
        seq: 17,
        sent_at: SimInstant::from_nanos(1_000_000),
        alives: (1..=4)
            .map(|g| GroupAlive {
                group: GroupId(g),
                sending_interval: SimDuration::from_millis(250),
                requested_interval: SimDuration::from_millis(250),
                payload: AlivePayload {
                    accusation_time: SimInstant::ZERO,
                    epoch: 2,
                    local_leader: Some(LeaderClaim {
                        node: NodeId(1),
                        accusation_time: SimInstant::ZERO,
                    }),
                },
                representative: ProcessId::new(NodeId(1), 0),
            })
            .collect(),
    };
    let frame = encode_frame(NodeId(1), &batch).unwrap();

    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(2, 1).unwrap();
    let endpoints = plane.endpoints();
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    let target = plane.node_addr(NodeId(0)).unwrap();

    let mut rng = SimRng::seed_from(0xA11E);
    const FRAGMENTS: usize = 64;
    for _ in 0..FRAGMENTS {
        // An honestly-framed fragment: the record's length field matches
        // the bytes present, but the frame inside is cut short, so the
        // codec must reject it (malformed), never panic or deliver.
        let cut = 1 + rng.uniform_usize(frame.len() - 1);
        attacker.send_to(&record(0, &frame[..cut]), target).unwrap();
    }
    // The intact frame from the attacker's socket still fails the sender
    // check — truncation is not the only reason hostile batches die.
    attacker.send_to(&record(0, &frame), target).unwrap();

    await_settled(|| {
        let s = plane.stats();
        s.dropped_malformed == FRAGMENTS as u64 && s.dropped_misaddressed == 1
    });
    for endpoint in &endpoints {
        assert!(endpoint.try_recv().is_none());
    }
    let stats = plane.stats();
    assert_eq!(
        stats,
        PlaneStatsSnapshot {
            dropped_malformed: FRAGMENTS as u64,
            dropped_misaddressed: 1,
            datagrams_received: FRAGMENTS as u64 + 1,
            reader_wakeups: stats.reader_wakeups,
            ..PlaneStatsSnapshot::default()
        }
    );
}

#[test]
fn mid_stream_churn_routes_or_refuses_every_record_exactly_once() {
    const NODES: usize = 8;
    const SOCKETS: usize = 2;
    const STEPS: usize = 200;

    let mut rng = SimRng::seed_from(0xC4);
    let plane = SharedUdpPlane::<u64>::bind_loopback(NODES, SOCKETS).unwrap();
    // Node 0 is the ever-present sender; nodes 1.. churn in and out.
    let mut endpoints: Vec<Option<SharedUdpEndpoint<u64>>> =
        plane.endpoints().into_iter().map(Some).collect();

    let mut expect_delivered = 0u64;
    let mut expect_misrouted = 0u64;
    for step in 0..STEPS as u64 {
        let target = 1 + rng.uniform_usize(NODES - 1);
        // Maybe churn the target first: depart if resident, return if not.
        if rng.bernoulli(0.3) {
            match endpoints[target].take() {
                Some(endpoint) => drop(endpoint),
                None => endpoints[target] = Some(plane.endpoint(NodeId(target as u32))),
            }
        }
        let payload = (step << 8) | target as u64;
        endpoints[0]
            .as_ref()
            .unwrap()
            .send(NodeId(target as u32), payload)
            .unwrap();
        if endpoints[target].is_some() {
            expect_delivered += 1;
        } else {
            expect_misrouted += 1;
        }
        // Settle before the next churn decision: an in-flight record must
        // be judged against the residency it was sent under.
        let want = (expect_delivered, expect_misrouted);
        await_settled(|| {
            let s = plane.stats();
            (s.delivered, s.dropped_misrouted) == want
        });
    }

    // Zero leakage under churn: every surfaced record names its receiver.
    for (node, endpoint) in endpoints.iter().enumerate() {
        let Some(endpoint) = endpoint else { continue };
        while let Some(incoming) = endpoint.try_recv() {
            assert_eq!(incoming.from, NodeId(0));
            assert_eq!((incoming.msg & 0xFF) as usize, node);
        }
    }
    let stats = plane.stats();
    assert_eq!(
        stats,
        PlaneStatsSnapshot {
            delivered: expect_delivered,
            dropped_misrouted: expect_misrouted,
            records_sent: STEPS as u64,
            datagrams_sent: STEPS as u64,
            datagrams_received: STEPS as u64,
            reader_wakeups: stats.reader_wakeups,
            ..PlaneStatsSnapshot::default()
        }
    );
    assert_eq!(expect_delivered + expect_misrouted, STEPS as u64);
}

#[test]
fn unencodable_send_is_an_error_counted_and_traced() {
    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(2, 2).unwrap();
    let ring = traced(&plane);
    let endpoints = plane.endpoints();
    // A HELLO gossiping more groups than fit in MAX_DATAGRAM.
    let huge = ServiceMessage::Hello {
        incarnation: 0,
        version: 0,
        sent_at: SimInstant::ZERO,
        pull: false,
        announcements: HelloList::Full(
            (0..250)
                .map(|i| GroupAnnouncement {
                    group: GroupId(i),
                    processes: Vec::new(),
                })
                .collect(),
        ),
    };
    assert!(matches!(
        endpoints[1].send(NodeId(0), huge),
        Err(TransportError::Unencodable(_))
    ));
    // Nothing reached the wire; the failure is counted and traced against
    // the node that tried to say it.
    assert_eq!(
        plane.stats(),
        PlaneStatsSnapshot {
            send_unencodable: 1,
            ..PlaneStatsSnapshot::default()
        }
    );
    assert_eq!(
        traced_drops(&ring),
        vec![(NodeId(1), DropReason::Unencodable)]
    );
}

/// The plane datagram of `docs/WIRE.md`, pinned: two records for node 2,
/// a one-entry ACCUSE `[(group 3, epoch 9)]` from node 5 (the spec's worked
/// example) and `[(group 3, epoch 10)]` from node 7.
const GOLDEN_TWO_RECORDS: &str = concat!(
    "000000020018534c45500500000005030001000000030000000000000009",
    "000000020018534c4550050000000703000100000003000000000000000a",
);

#[test]
fn golden_two_record_datagram_is_what_the_plane_speaks() {
    let accuse = |epoch| ServiceMessage::Accuse {
        accusations: vec![(GroupId(3), epoch)],
    };
    let golden: Vec<u8> = (0..GOLDEN_TWO_RECORDS.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_TWO_RECORDS[i..i + 2], 16).unwrap())
        .collect();
    let mut spelled_out = record(2, &encode_frame(NodeId(5), &accuse(9)).unwrap());
    spelled_out.extend(record(2, &encode_frame(NodeId(7), &accuse(10)).unwrap()));
    assert_eq!(
        spelled_out, golden,
        "record layout changed; update docs/WIRE.md"
    );

    // The golden bytes from a foreign socket walk as exactly those two
    // records — each decodes, names node 2, and is refused only for its
    // source address. (That the plane's sender emits what its receiver
    // walks is every delivery test's business.)
    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(8, 2).unwrap();
    let ring = traced(&plane);
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    attacker
        .send_to(&golden, plane.node_addr(NodeId(2)).unwrap())
        .unwrap();
    await_settled(|| plane.stats().dropped_misaddressed == 2);
    assert_eq!(
        traced_drops(&ring),
        vec![
            (NodeId(2), DropReason::Misaddressed),
            (NodeId(2), DropReason::Misaddressed),
        ]
    );
}
