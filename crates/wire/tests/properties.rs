//! Fuzz-style property tests for the datagram codec, driven by the
//! workspace's deterministic `SimRng` (the repo's stand-in for proptest):
//! random messages must round-trip exactly, and no truncation, corruption
//! or garbage input may ever panic the decoder or slip through as a
//! different *kind* of failure than a `WireError`.

use sle_core::lease::FencingToken;
use sle_core::messages::{AliveHeader, GroupAlive, GroupAnnouncement, HelloList, ServiceMessage};
use sle_core::process::{GroupId, ProcessId};
use sle_election::{AlivePayload, LeaderClaim};
use sle_sim::actor::{NodeId, WireSize};
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};
use sle_wire::{decode_frame, encode_frame, WireError, HEADER_LEN, MAX_DATAGRAM};

fn random_process(rng: &mut SimRng) -> ProcessId {
    ProcessId::new(
        NodeId(rng.uniform_usize(16) as u32),
        rng.uniform_usize(8) as u32,
    )
}

fn random_payload(rng: &mut SimRng) -> AlivePayload {
    AlivePayload {
        accusation_time: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
        epoch: rng.next_u64() % 1000,
        local_leader: if rng.bernoulli(0.5) {
            Some(LeaderClaim {
                node: NodeId(rng.uniform_usize(16) as u32),
                accusation_time: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
            })
        } else {
            None
        },
    }
}

fn random_token(rng: &mut SimRng) -> FencingToken {
    FencingToken {
        accusation_time: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
        node: NodeId(rng.uniform_usize(16) as u32),
        epoch: rng.next_u64() % 1000,
        incarnation: rng.next_u64() % 16,
    }
}

fn random_message(rng: &mut SimRng) -> ServiceMessage {
    match rng.uniform_usize(9) {
        0 => {
            let groups = rng.uniform_usize(4);
            let list = (0..groups)
                .map(|_| {
                    let procs = rng.uniform_usize(5);
                    GroupAnnouncement {
                        group: GroupId(rng.uniform_usize(100) as u32),
                        processes: (0..procs)
                            .map(|_| (random_process(rng), rng.bernoulli(0.5)))
                            .collect(),
                    }
                })
                .collect();
            // All three shapes, each with and without the pull flag.
            let announcements = match rng.uniform_usize(3) {
                0 => HelloList::Omitted,
                1 => HelloList::Full(list),
                _ => HelloList::Partial(list),
            };
            ServiceMessage::Hello {
                incarnation: rng.next_u64() % 1000,
                version: rng.next_u64(),
                sent_at: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
                pull: rng.bernoulli(0.5),
                announcements,
            }
        }
        1 => ServiceMessage::Alive {
            group: GroupId(rng.uniform_usize(100) as u32),
            header: AliveHeader {
                incarnation: rng.next_u64() % 1000,
                seq: rng.next_u64() % 100_000,
                sent_at: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
                sending_interval: SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
                requested_interval: SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
            },
            payload: random_payload(rng),
            representative: random_process(rng),
        },
        2 => {
            let entries = rng.uniform_usize(6);
            let mut entry = || {
                (
                    GroupId(rng.uniform_usize(100) as u32),
                    rng.next_u64() % 1000,
                )
            };
            ServiceMessage::Accuse {
                accusations: (0..entries).map(|_| entry()).collect(),
            }
        }
        4 => {
            let entries = rng.uniform_usize(6);
            ServiceMessage::AliveBatch {
                incarnation: rng.next_u64() % 1000,
                seq: rng.next_u64() % 100_000,
                sent_at: SimInstant::from_nanos(rng.next_u64() % (1 << 40)),
                alives: (0..entries)
                    .map(|_| GroupAlive {
                        group: GroupId(rng.uniform_usize(100) as u32),
                        sending_interval: SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
                        requested_interval: SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
                        payload: random_payload(rng),
                        representative: random_process(rng),
                    })
                    .collect(),
            }
        }
        5 => ServiceMessage::LeaseGrant {
            group: GroupId(rng.uniform_usize(100) as u32),
            token: random_token(rng),
            valid_for: SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
        },
        6 => ServiceMessage::ClientRequest {
            group: GroupId(rng.uniform_usize(100) as u32),
            session: rng.next_u64() % 1_000_000,
            seq: rng.next_u64() % 100_000,
            payload: rng.next_u64(),
        },
        7 => ServiceMessage::ClientReply {
            group: GroupId(rng.uniform_usize(100) as u32),
            session: rng.next_u64() % 1_000_000,
            seq: rng.next_u64() % 100_000,
            applied: rng.bernoulli(0.5),
            value: rng.next_u64(),
            token: random_token(rng),
        },
        8 => ServiceMessage::Redirect {
            group: GroupId(rng.uniform_usize(100) as u32),
            session: rng.next_u64() % 1_000_000,
            seq: rng.next_u64() % 100_000,
            leader: if rng.bernoulli(0.5) {
                Some(random_process(rng))
            } else {
                None
            },
        },
        _ => ServiceMessage::Leave {
            group: GroupId(rng.uniform_usize(100) as u32),
            process: random_process(rng),
        },
    }
}

#[test]
fn random_messages_round_trip_and_match_wire_size() {
    let mut rng = SimRng::seed_from(0x51E_E1EC);
    for _ in 0..2000 {
        let from = NodeId(rng.uniform_usize(16) as u32);
        let msg = random_message(&mut rng);
        let bytes = encode_frame(from, &msg).expect("random messages are small");
        assert_eq!(
            bytes.len(),
            HEADER_LEN + msg.wire_size(),
            "encoded length must equal the simulator's byte accounting"
        );
        let (decoded_from, decoded): (NodeId, ServiceMessage) =
            decode_frame(&bytes).expect("round trip");
        assert_eq!(decoded_from, from);
        assert_eq!(decoded, msg);
    }
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    let mut rng = SimRng::seed_from(2);
    for _ in 0..200 {
        let msg = random_message(&mut rng);
        let bytes = encode_frame(NodeId(1), &msg).unwrap();
        for len in 0..bytes.len() {
            let result = decode_frame::<ServiceMessage>(&bytes[..len]);
            assert!(
                result.is_err(),
                "a {len}-byte prefix of a {}-byte datagram decoded successfully",
                bytes.len()
            );
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_and_never_forges_the_envelope() {
    let mut rng = SimRng::seed_from(3);
    for _ in 0..100 {
        let msg = random_message(&mut rng);
        let bytes = encode_frame(NodeId(1), &msg).unwrap();
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1u8 << rng.uniform_usize(8);
            // Either a clean error or a structurally valid (if wrong)
            // message — the decoder must stay total. Flipping a bit of the
            // magic or version must never still decode.
            if decode_frame::<ServiceMessage>(&corrupted).is_ok() {
                assert!(pos >= 5, "corrupted magic/version at byte {pos} decoded");
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SimRng::seed_from(4);
    for _ in 0..5000 {
        let len = rng.uniform_usize(200);
        let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let _ = decode_frame::<ServiceMessage>(&garbage);
    }
    // And garbage that *starts* like a real datagram.
    for _ in 0..5000 {
        let len = rng.uniform_usize(120);
        let mut bytes = b"SLEP\x01".to_vec();
        bytes.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
        let _ = decode_frame::<ServiceMessage>(&bytes);
    }
}

#[test]
fn oversized_buffers_are_rejected_up_front() {
    let garbage = vec![0x41u8; MAX_DATAGRAM * 4];
    assert_eq!(
        decode_frame::<ServiceMessage>(&garbage),
        Err(WireError::TooLarge(MAX_DATAGRAM * 4))
    );
}
