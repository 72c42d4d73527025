//! Golden-vector regression corpus for the wire codec.
//!
//! One canonical message per [`ServiceMessage`] variant, checked in as
//! literal bytes. `encode` must reproduce each vector byte for byte and
//! `decode` must invert it exactly, so a codec refactor that silently
//! changes the on-wire format — reordered fields, a width change, a new
//! default — fails here instead of surfacing as a rolling-upgrade
//! incompatibility between daemons. (Property tests in `properties.rs`
//! check the codec against *itself*; these vectors pin it to the format
//! every already-deployed daemon speaks, as specified in `docs/WIRE.md`.)
//!
//! If a vector mismatch is *intended* (a deliberate format change), bump
//! `sle_wire::VERSION`, regenerate the vector from the test's failure
//! output, and document the new layout in `docs/WIRE.md`.

use sle_core::lease::FencingToken;
use sle_core::messages::{AliveHeader, GroupAlive, GroupAnnouncement, HelloList, ServiceMessage};
use sle_core::process::{GroupId, ProcessId};
use sle_election::{AlivePayload, LeaderClaim};
use sle_sim::actor::{NodeId, WireSize};
use sle_sim::time::{SimDuration, SimInstant};
use sle_wire::{Reader, WireFormat, Writer};

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd-length hex vector");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// Asserts that `msg` encodes exactly to `golden_hex` and decodes back.
fn check(name: &str, msg: &ServiceMessage, golden_hex: &str) {
    let mut w = Writer::new();
    msg.encode_into(&mut w);
    let encoded = w.into_bytes();
    assert_eq!(
        to_hex(&encoded),
        golden_hex,
        "{name}: encoding changed; if intended, bump sle_wire::VERSION and \
         update this vector + docs/WIRE.md"
    );
    assert_eq!(
        encoded.len(),
        msg.wire_size(),
        "{name}: encoded length diverged from the simulator's wire_size()"
    );
    let golden = from_hex(golden_hex);
    let mut r = Reader::new(&golden);
    let decoded = ServiceMessage::decode(&mut r).expect("golden vector decodes");
    r.expect_end().expect("golden vector fully consumed");
    assert_eq!(&decoded, msg, "{name}: decode(golden) != message");
}

/// The list the full and partial HELLO vectors carry: two processes in
/// group 1, none (yet) in group 7.
fn golden_announcements() -> std::sync::Arc<[GroupAnnouncement]> {
    vec![
        GroupAnnouncement {
            group: GroupId(1),
            processes: vec![
                (ProcessId::new(NodeId(3), 0), true),
                (ProcessId::new(NodeId(3), 1), false),
            ],
        },
        GroupAnnouncement {
            group: GroupId(7),
            processes: Vec::new(),
        },
    ]
    .into()
}

/// A v4 HELLO of incarnation 2, version 5, sent at t = 1 s.
fn golden_hello(pull: bool, announcements: HelloList) -> ServiceMessage {
    ServiceMessage::Hello {
        incarnation: 2,
        version: 5,
        sent_at: SimInstant::from_nanos(1_000_000_000),
        pull,
        announcements,
    }
}

#[test]
fn hello_golden_vector() {
    // The full list, as sent in answer to a pull (flags = LIST).
    check(
        "HELLO(full)",
        &golden_hello(false, HelloList::Full(golden_announcements())),
        "0100000000000000020000000000000005000000003b9aca00020002000000010002000000030000000001\
         0000000300000001000000000700\
         00",
    );
    // …the same list as a join-time partial (flags = LIST | PARTIAL)…
    check(
        "HELLO(partial)",
        &golden_hello(false, HelloList::Partial(golden_announcements())),
        "0100000000000000020000000000000005000000003b9aca00060002000000010002000000030000000001\
         0000000300000001000000000700\
         00",
    );
    // …and a full answer that pulls back (flags = LIST | PULL).
    check(
        "HELLO(full+pull)",
        &golden_hello(true, HelloList::Full(golden_announcements())),
        "0100000000000000020000000000000005000000003b9aca00030002000000010002000000030000000001\
         0000000300000001000000000700\
         00",
    );
}

#[test]
fn hello_digest_and_pull_golden_vectors() {
    // The periodic digest: 26 bytes whatever the sender's group count.
    check(
        "HELLO(digest)",
        &golden_hello(false, HelloList::Omitted),
        "0100000000000000020000000000000005000000003b9aca0000",
    );
    // The pull a behind receiver answers with: a digest with flags = PULL.
    check(
        "HELLO(pull)",
        &golden_hello(true, HelloList::Omitted),
        "0100000000000000020000000000000005000000003b9aca0001",
    );
}

#[test]
fn alive_golden_vector() {
    let msg = ServiceMessage::Alive {
        group: GroupId(5),
        header: AliveHeader {
            incarnation: 1,
            seq: 42,
            sent_at: SimInstant::from_nanos(123_456_789),
            sending_interval: SimDuration::from_millis(250),
            requested_interval: SimDuration::from_millis(125),
        },
        payload: AlivePayload {
            accusation_time: SimInstant::from_nanos(77),
            epoch: 3,
            local_leader: Some(LeaderClaim {
                node: NodeId(2),
                accusation_time: SimInstant::from_nanos(55),
            }),
        },
        representative: ProcessId::new(NodeId(4), 1),
    };
    check(
        "ALIVE",
        &msg,
        "02000000050000000000000001000000000000002a00000000075bcd15000000000ee6b2800000000007735940\
         0000000400000001000000000000004d000000000000000301000000020000000000000037",
    );
}

#[test]
fn alive_batch_golden_vector() {
    let msg = ServiceMessage::AliveBatch {
        incarnation: 1,
        seq: 9,
        sent_at: SimInstant::from_nanos(2_000_000),
        alives: vec![
            GroupAlive {
                group: GroupId(1),
                sending_interval: SimDuration::from_millis(250),
                requested_interval: SimDuration::from_millis(250),
                payload: AlivePayload {
                    accusation_time: SimInstant::from_nanos(10),
                    epoch: 0,
                    local_leader: None,
                },
                representative: ProcessId::new(NodeId(0), 0),
            },
            GroupAlive {
                group: GroupId(2),
                sending_interval: SimDuration::from_millis(500),
                requested_interval: SimDuration::from_millis(125),
                payload: AlivePayload {
                    accusation_time: SimInstant::from_nanos(20),
                    epoch: 4,
                    local_leader: Some(LeaderClaim {
                        node: NodeId(1),
                        accusation_time: SimInstant::from_nanos(15),
                    }),
                },
                representative: ProcessId::new(NodeId(1), 2),
            },
        ],
    };
    check(
        "ALIVE-BATCH",
        &msg,
        "050000000000000001000000000000000900000000001e8480000200000001000000000ee6b280000000000ee6b280\
         0000000000000000000000000000000a00000000000000000000000002000000001dcd65000000000007735940\
         0000000100000002000000000000001400000000000000040100000001000000000000000f",
    );
}

#[test]
fn accuse_golden_vector() {
    // One suspicion: the group and the epoch behind a count of 1.
    let one = ServiceMessage::Accuse {
        accusations: vec![(GroupId(3), 9)],
    };
    check("ACCUSE(1)", &one, "030001000000030000000000000009");
    // A peer suspected in three groups in one detector walk: one message,
    // entries in ascending group order.
    let three = ServiceMessage::Accuse {
        accusations: vec![
            (GroupId(1), 8),
            (GroupId(4), 0),
            (GroupId(300), 0x1_0000_0002),
        ],
    };
    check(
        "ACCUSE(3)",
        &three,
        "030003\
         000000010000000000000008\
         000000040000000000000000\
         0000012c0000000100000002",
    );
}

#[test]
fn leave_golden_vector() {
    let msg = ServiceMessage::Leave {
        group: GroupId(2),
        process: ProcessId::new(NodeId(1), 0),
    };
    check("LEAVE", &msg, "04000000020000000100000000");
}

/// The canonical token used by the client-tier vectors: minted at t=1µs by
/// node 2 in epoch 4, incarnation 1.
fn golden_token() -> FencingToken {
    FencingToken {
        accusation_time: SimInstant::from_nanos(1_000),
        node: NodeId(2),
        epoch: 4,
        incarnation: 1,
    }
}

#[test]
fn lease_grant_golden_vector() {
    let msg = ServiceMessage::LeaseGrant {
        group: GroupId(3),
        token: golden_token(),
        valid_for: SimDuration::from_millis(1_000),
    };
    check(
        "LEASE-GRANT",
        &msg,
        "060000000300000000000003e80000000200000000000000040000000000000001000000003b9aca00",
    );
}

#[test]
fn client_request_golden_vector() {
    let msg = ServiceMessage::ClientRequest {
        group: GroupId(3),
        session: 77,
        seq: 5,
        payload: 12,
    };
    check(
        "CLIENT-REQUEST",
        &msg,
        "0700000003000000000000004d0000000000000005000000000000000c",
    );
}

#[test]
fn client_reply_golden_vector() {
    let msg = ServiceMessage::ClientReply {
        group: GroupId(3),
        session: 77,
        seq: 5,
        applied: true,
        value: 42,
        token: golden_token(),
    };
    check(
        "CLIENT-REPLY",
        &msg,
        "0800000003000000000000004d000000000000000501000000000000002a00000000000003e8\
         0000000200000000000000040000000000000001",
    );
}

#[test]
fn redirect_golden_vectors() {
    // With a leader hint…
    let msg = ServiceMessage::Redirect {
        group: GroupId(3),
        session: 77,
        seq: 6,
        leader: Some(ProcessId::new(NodeId(0), 1)),
    };
    check(
        "REDIRECT(Some)",
        &msg,
        "0900000003000000000000004d0000000000000006010000000000000001",
    );
    // …and without one (the "I don't know either" form).
    let msg = ServiceMessage::Redirect {
        group: GroupId(3),
        session: 78,
        seq: 0,
        leader: None,
    };
    check(
        "REDIRECT(None)",
        &msg,
        "0900000003000000000000004e000000000000000000",
    );
}

#[test]
fn corpus_covers_every_variant() {
    // A new ServiceMessage variant must come with a golden vector: this
    // match is exhaustive on purpose, so adding a variant without
    // extending the corpus fails to compile.
    fn covered(msg: &ServiceMessage) -> &'static str {
        match msg {
            ServiceMessage::Hello { .. } => "hello_golden_vector",
            ServiceMessage::Alive { .. } => "alive_golden_vector",
            ServiceMessage::AliveBatch { .. } => "alive_batch_golden_vector",
            ServiceMessage::Accuse { .. } => "accuse_golden_vector",
            ServiceMessage::Leave { .. } => "leave_golden_vector",
            ServiceMessage::LeaseGrant { .. } => "lease_grant_golden_vector",
            ServiceMessage::ClientRequest { .. } => "client_request_golden_vector",
            ServiceMessage::ClientReply { .. } => "client_reply_golden_vector",
            ServiceMessage::Redirect { .. } => "redirect_golden_vectors",
        }
    }
    assert_eq!(
        covered(&ServiceMessage::Accuse {
            accusations: Vec::new()
        }),
        "accuse_golden_vector"
    );
}
