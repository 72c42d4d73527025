//! [`WireFormat`] implementations for the service's message vocabulary
//! (`sle-core`'s [`ServiceMessage`] family and the election payload it
//! carries).
//!
//! The field layout is specified normatively in `docs/WIRE.md`; the
//! encoding here matches, byte for byte, the sizes
//! [`WireSize`](sle_sim::actor::WireSize) has always charged to the
//! simulator's bandwidth accounting (asserted by `body_len_matches_wire_size`
//! in this module's tests and by the property suite in `tests/properties.rs`).

use sle_core::lease::FencingToken;
use sle_core::messages::{
    AliveHeader, GroupAlive, GroupAnnouncement, HelloList, ServiceMessage, ACCUSATION_WIRE_SIZE,
};
use sle_core::process::{GroupId, ProcessId};
use sle_election::{AlivePayload, LeaderClaim};
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use crate::codec::{Reader, WireFormat, Writer};
use crate::error::WireError;

/// Message-tag byte for HELLO (membership gossip).
pub const TAG_HELLO: u8 = 1;
/// HELLO flag bit: the sender asks for the receiver's full list.
pub const HELLO_PULL: u8 = 0b001;
/// HELLO flag bit: an announcement list follows the flags byte.
pub const HELLO_LIST: u8 = 0b010;
/// HELLO flag bit (only with [`HELLO_LIST`]): the list is a partial.
pub const HELLO_PARTIAL: u8 = 0b100;
/// Message-tag byte for ALIVE (heartbeat + election payload).
pub const TAG_ALIVE: u8 = 2;
/// Message-tag byte for ACCUSE ("I believe you crashed").
pub const TAG_ACCUSE: u8 = 3;
/// Message-tag byte for LEAVE (explicit group withdrawal).
pub const TAG_LEAVE: u8 = 4;
/// Message-tag byte for ALIVE-BATCH (heartbeats for several groups in one
/// datagram).
pub const TAG_ALIVE_BATCH: u8 = 5;
/// Message-tag byte for LEASE-GRANT (the leader's fencing-token broadcast).
pub const TAG_LEASE_GRANT: u8 = 6;
/// Message-tag byte for CLIENT-REQUEST (client tier, `sle-app`).
pub const TAG_CLIENT_REQUEST: u8 = 7;
/// Message-tag byte for CLIENT-REPLY (a served or fencing-rejected request).
pub const TAG_CLIENT_REPLY: u8 = 8;
/// Message-tag byte for REDIRECT ("not the leader; try there").
pub const TAG_REDIRECT: u8 = 9;

impl WireFormat for NodeId {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.take_u32()?))
    }
}

impl WireFormat for GroupId {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GroupId(r.take_u32()?))
    }
}

impl WireFormat for ProcessId {
    fn encode_into(&self, w: &mut Writer) {
        self.node.encode_into(w);
        w.put_u32(self.local);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let node = NodeId::decode(r)?;
        let local = r.take_u32()?;
        Ok(ProcessId::new(node, local))
    }
}

impl WireFormat for SimInstant {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimInstant::from_nanos(r.take_u64()?))
    }
}

impl WireFormat for SimDuration {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SimDuration::from_nanos(r.take_u64()?))
    }
}

fn encode_bool(v: bool, w: &mut Writer) {
    w.put_u8(u8::from(v));
}

fn decode_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::BadOptionTag(other)),
    }
}

impl WireFormat for LeaderClaim {
    fn encode_into(&self, w: &mut Writer) {
        self.node.encode_into(w);
        self.accusation_time.encode_into(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LeaderClaim {
            node: NodeId::decode(r)?,
            accusation_time: SimInstant::decode(r)?,
        })
    }
}

impl WireFormat for AlivePayload {
    fn encode_into(&self, w: &mut Writer) {
        self.accusation_time.encode_into(w);
        w.put_u64(self.epoch);
        match &self.local_leader {
            None => w.put_u8(0),
            Some(claim) => {
                w.put_u8(1);
                claim.encode_into(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let accusation_time = SimInstant::decode(r)?;
        let epoch = r.take_u64()?;
        let local_leader = match r.take_u8()? {
            0 => None,
            1 => Some(LeaderClaim::decode(r)?),
            other => return Err(WireError::BadOptionTag(other)),
        };
        Ok(AlivePayload {
            accusation_time,
            epoch,
            local_leader,
        })
    }
}

/// A fencing token: 28 bytes (see [`FencingToken::WIRE_SIZE`]).
impl WireFormat for FencingToken {
    fn encode_into(&self, w: &mut Writer) {
        self.accusation_time.encode_into(w);
        self.node.encode_into(w);
        w.put_u64(self.epoch);
        w.put_u64(self.incarnation);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FencingToken {
            accusation_time: SimInstant::decode(r)?,
            node: NodeId::decode(r)?,
            epoch: r.take_u64()?,
            incarnation: r.take_u64()?,
        })
    }
}

impl WireFormat for AliveHeader {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.incarnation);
        w.put_u64(self.seq);
        self.sent_at.encode_into(w);
        self.sending_interval.encode_into(w);
        self.requested_interval.encode_into(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AliveHeader {
            incarnation: r.take_u64()?,
            seq: r.take_u64()?,
            sent_at: SimInstant::decode(r)?,
            sending_interval: SimDuration::decode(r)?,
            requested_interval: SimDuration::decode(r)?,
        })
    }
}

/// Decodes a `count`-prefixed list, capping the pre-allocation by what the
/// remaining bytes could possibly hold so a hostile count cannot force a
/// large allocation before the bounds checks reject it.
fn decode_list<T: WireFormat>(
    r: &mut Reader<'_>,
    count: usize,
    min_element_bytes: usize,
) -> Result<Vec<T>, WireError> {
    let plausible = r.remaining() / min_element_bytes.max(1);
    let mut items = Vec::with_capacity(count.min(plausible));
    for _ in 0..count {
        items.push(T::decode(r)?);
    }
    Ok(items)
}

/// A `(process, is_candidate)` membership entry: 9 bytes.
impl WireFormat for (ProcessId, bool) {
    fn encode_into(&self, w: &mut Writer) {
        self.0.encode_into(w);
        encode_bool(self.1, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let process = ProcessId::decode(r)?;
        let candidate = decode_bool(r)?;
        Ok((process, candidate))
    }
}

/// A `(group, epoch)` ACCUSE entry: 12 bytes.
impl WireFormat for (GroupId, u64) {
    fn encode_into(&self, w: &mut Writer) {
        self.0.encode_into(w);
        w.put_u64(self.1);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let group = GroupId::decode(r)?;
        let epoch = r.take_u64()?;
        Ok((group, epoch))
    }
}

impl WireFormat for GroupAnnouncement {
    fn encode_into(&self, w: &mut Writer) {
        self.group.encode_into(w);
        // A wrapped count can only happen past 65 535 entries, i.e. far
        // beyond MAX_DATAGRAM; encode_frame rejects such bodies by size
        // before they can reach a socket.
        w.put_u16(self.processes.len() as u16);
        for entry in &self.processes {
            entry.encode_into(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let group = GroupId::decode(r)?;
        let count = r.take_u16()? as usize;
        let processes = decode_list(r, count, 9)?;
        Ok(GroupAnnouncement { group, processes })
    }
}

/// A batched per-group ALIVE entry: 45 bytes plus the optional leader
/// claim.
impl WireFormat for GroupAlive {
    fn encode_into(&self, w: &mut Writer) {
        self.group.encode_into(w);
        self.sending_interval.encode_into(w);
        self.requested_interval.encode_into(w);
        self.representative.encode_into(w);
        self.payload.encode_into(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let group = GroupId::decode(r)?;
        let sending_interval = SimDuration::decode(r)?;
        let requested_interval = SimDuration::decode(r)?;
        let representative = ProcessId::decode(r)?;
        let payload = AlivePayload::decode(r)?;
        Ok(GroupAlive {
            group,
            sending_interval,
            requested_interval,
            payload,
            representative,
        })
    }
}

impl WireFormat for ServiceMessage {
    fn encode_into(&self, w: &mut Writer) {
        match self {
            ServiceMessage::Hello {
                incarnation,
                version,
                sent_at,
                pull,
                announcements,
            } => {
                w.put_u8(TAG_HELLO);
                w.put_u64(*incarnation);
                w.put_u64(*version);
                sent_at.encode_into(w);
                let shape = match announcements {
                    HelloList::Omitted => 0,
                    HelloList::Full(_) => HELLO_LIST,
                    HelloList::Partial(_) => HELLO_LIST | HELLO_PARTIAL,
                };
                w.put_u8(shape | if *pull { HELLO_PULL } else { 0 });
                if let Some(list) = announcements.announcements() {
                    w.put_u16(list.len() as u16);
                    for a in list {
                        a.encode_into(w);
                    }
                }
            }
            ServiceMessage::Alive {
                group,
                header,
                payload,
                representative,
            } => {
                w.put_u8(TAG_ALIVE);
                group.encode_into(w);
                header.encode_into(w);
                representative.encode_into(w);
                payload.encode_into(w);
            }
            ServiceMessage::AliveBatch {
                incarnation,
                seq,
                sent_at,
                alives,
            } => {
                w.put_u8(TAG_ALIVE_BATCH);
                w.put_u64(*incarnation);
                w.put_u64(*seq);
                sent_at.encode_into(w);
                // As with HELLO announcements, a wrapped count would need
                // 65 536+ entries — rejected by encode_frame's size limit
                // long before.
                w.put_u16(alives.len() as u16);
                for entry in alives {
                    entry.encode_into(w);
                }
            }
            ServiceMessage::Accuse { accusations } => {
                w.put_u8(TAG_ACCUSE);
                // As with ALIVE-BATCH, a wrapped count would need 65 536+
                // entries, rejected by encode_frame's size limit.
                w.put_u16(accusations.len() as u16);
                for entry in accusations {
                    entry.encode_into(w);
                }
            }
            ServiceMessage::Leave { group, process } => {
                w.put_u8(TAG_LEAVE);
                group.encode_into(w);
                process.encode_into(w);
            }
            ServiceMessage::LeaseGrant {
                group,
                token,
                valid_for,
            } => {
                w.put_u8(TAG_LEASE_GRANT);
                group.encode_into(w);
                token.encode_into(w);
                valid_for.encode_into(w);
            }
            ServiceMessage::ClientRequest {
                group,
                session,
                seq,
                payload,
            } => {
                w.put_u8(TAG_CLIENT_REQUEST);
                group.encode_into(w);
                w.put_u64(*session);
                w.put_u64(*seq);
                w.put_u64(*payload);
            }
            ServiceMessage::ClientReply {
                group,
                session,
                seq,
                applied,
                value,
                token,
            } => {
                w.put_u8(TAG_CLIENT_REPLY);
                group.encode_into(w);
                w.put_u64(*session);
                w.put_u64(*seq);
                encode_bool(*applied, w);
                w.put_u64(*value);
                token.encode_into(w);
            }
            ServiceMessage::Redirect {
                group,
                session,
                seq,
                leader,
            } => {
                w.put_u8(TAG_REDIRECT);
                group.encode_into(w);
                w.put_u64(*session);
                w.put_u64(*seq);
                match leader {
                    None => w.put_u8(0),
                    Some(process) => {
                        w.put_u8(1);
                        process.encode_into(w);
                    }
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            TAG_HELLO => {
                let incarnation = r.take_u64()?;
                let version = r.take_u64()?;
                let sent_at = SimInstant::decode(r)?;
                let flags = r.take_u8()?;
                let announcements = match flags & !HELLO_PULL {
                    0 => HelloList::Omitted,
                    shape if shape & !HELLO_PARTIAL == HELLO_LIST => {
                        let count = r.take_u16()? as usize;
                        // At least 6 bytes each (group + empty list).
                        let list: Vec<GroupAnnouncement> = decode_list(r, count, 6)?;
                        if shape == HELLO_LIST {
                            HelloList::Full(list.into())
                        } else {
                            HelloList::Partial(list.into())
                        }
                    }
                    // Unknown bits, or PARTIAL without a list.
                    _ => return Err(WireError::BadOptionTag(flags)),
                };
                Ok(ServiceMessage::Hello {
                    incarnation,
                    version,
                    sent_at,
                    pull: flags & HELLO_PULL != 0,
                    announcements,
                })
            }
            TAG_ALIVE => {
                let group = GroupId::decode(r)?;
                let header = AliveHeader::decode(r)?;
                let representative = ProcessId::decode(r)?;
                let payload = AlivePayload::decode(r)?;
                Ok(ServiceMessage::Alive {
                    group,
                    header,
                    payload,
                    representative,
                })
            }
            TAG_ALIVE_BATCH => {
                let incarnation = r.take_u64()?;
                let seq = r.take_u64()?;
                let sent_at = SimInstant::decode(r)?;
                let count = r.take_u16()? as usize;
                // A batch entry is at least 45 bytes (claimless payload).
                let alives = decode_list(r, count, 45)?;
                Ok(ServiceMessage::AliveBatch {
                    incarnation,
                    seq,
                    sent_at,
                    alives,
                })
            }
            TAG_ACCUSE => {
                let count = r.take_u16()? as usize;
                let accusations = decode_list(r, count, ACCUSATION_WIRE_SIZE)?;
                Ok(ServiceMessage::Accuse { accusations })
            }
            TAG_LEAVE => {
                let group = GroupId::decode(r)?;
                let process = ProcessId::decode(r)?;
                Ok(ServiceMessage::Leave { group, process })
            }
            TAG_LEASE_GRANT => {
                let group = GroupId::decode(r)?;
                let token = FencingToken::decode(r)?;
                let valid_for = SimDuration::decode(r)?;
                Ok(ServiceMessage::LeaseGrant {
                    group,
                    token,
                    valid_for,
                })
            }
            TAG_CLIENT_REQUEST => {
                let group = GroupId::decode(r)?;
                let session = r.take_u64()?;
                let seq = r.take_u64()?;
                let payload = r.take_u64()?;
                Ok(ServiceMessage::ClientRequest {
                    group,
                    session,
                    seq,
                    payload,
                })
            }
            TAG_CLIENT_REPLY => {
                let group = GroupId::decode(r)?;
                let session = r.take_u64()?;
                let seq = r.take_u64()?;
                let applied = decode_bool(r)?;
                let value = r.take_u64()?;
                let token = FencingToken::decode(r)?;
                Ok(ServiceMessage::ClientReply {
                    group,
                    session,
                    seq,
                    applied,
                    value,
                    token,
                })
            }
            TAG_REDIRECT => {
                let group = GroupId::decode(r)?;
                let session = r.take_u64()?;
                let seq = r.take_u64()?;
                let leader = match r.take_u8()? {
                    0 => None,
                    1 => Some(ProcessId::decode(r)?),
                    other => return Err(WireError::BadOptionTag(other)),
                };
                Ok(ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader,
                })
            }
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::actor::WireSize;

    fn samples() -> Vec<ServiceMessage> {
        vec![
            ServiceMessage::Hello {
                incarnation: 3,
                version: 12,
                sent_at: SimInstant::from_nanos(1_000_000),
                pull: true,
                announcements: HelloList::Full(
                    vec![
                        GroupAnnouncement {
                            group: GroupId(1),
                            processes: vec![
                                (ProcessId::new(NodeId(0), 0), true),
                                (ProcessId::new(NodeId(0), 1), false),
                            ],
                        },
                        GroupAnnouncement {
                            group: GroupId(9),
                            processes: Vec::new(),
                        },
                    ]
                    .into(),
                ),
            },
            ServiceMessage::Hello {
                incarnation: 3,
                version: 12,
                sent_at: SimInstant::from_nanos(2_000_000),
                pull: false,
                announcements: HelloList::Omitted,
            },
            ServiceMessage::Hello {
                incarnation: 3,
                version: 13,
                sent_at: SimInstant::from_nanos(3_000_000),
                pull: false,
                announcements: HelloList::Partial(
                    vec![GroupAnnouncement {
                        group: GroupId(4),
                        processes: vec![(ProcessId::new(NodeId(0), 2), true)],
                    }]
                    .into(),
                ),
            },
            ServiceMessage::Alive {
                group: GroupId(7),
                header: AliveHeader {
                    incarnation: 2,
                    seq: 99,
                    sent_at: SimInstant::from_nanos(42),
                    sending_interval: SimDuration::from_millis(250),
                    requested_interval: SimDuration::from_millis(125),
                },
                payload: AlivePayload {
                    accusation_time: SimInstant::from_nanos(7),
                    epoch: 5,
                    local_leader: Some(LeaderClaim {
                        node: NodeId(3),
                        accusation_time: SimInstant::ZERO,
                    }),
                },
                representative: ProcessId::new(NodeId(2), 4),
            },
            ServiceMessage::AliveBatch {
                incarnation: 1,
                seq: 512,
                sent_at: SimInstant::from_nanos(77_000),
                alives: vec![
                    GroupAlive {
                        group: GroupId(4),
                        sending_interval: SimDuration::from_millis(250),
                        requested_interval: SimDuration::from_millis(125),
                        payload: AlivePayload {
                            accusation_time: SimInstant::from_nanos(11),
                            epoch: 2,
                            local_leader: None,
                        },
                        representative: ProcessId::new(NodeId(1), 0),
                    },
                    GroupAlive {
                        group: GroupId(6),
                        sending_interval: SimDuration::from_millis(500),
                        requested_interval: SimDuration::from_millis(500),
                        payload: AlivePayload {
                            accusation_time: SimInstant::ZERO,
                            epoch: 0,
                            local_leader: Some(LeaderClaim {
                                node: NodeId(0),
                                accusation_time: SimInstant::from_nanos(3),
                            }),
                        },
                        representative: ProcessId::new(NodeId(1), 2),
                    },
                ],
            },
            ServiceMessage::Accuse {
                accusations: vec![(GroupId(1), 8), (GroupId(2), 3)],
            },
            ServiceMessage::Accuse {
                accusations: Vec::new(),
            },
            ServiceMessage::Leave {
                group: GroupId(2),
                process: ProcessId::new(NodeId(1), 0),
            },
            ServiceMessage::LeaseGrant {
                group: GroupId(3),
                token: FencingToken {
                    accusation_time: SimInstant::from_nanos(1_000),
                    node: NodeId(2),
                    epoch: 4,
                    incarnation: 1,
                },
                valid_for: SimDuration::from_millis(1_000),
            },
            ServiceMessage::ClientRequest {
                group: GroupId(3),
                session: 77,
                seq: 5,
                payload: 12,
            },
            ServiceMessage::ClientReply {
                group: GroupId(3),
                session: 77,
                seq: 5,
                applied: true,
                value: 42,
                token: FencingToken {
                    accusation_time: SimInstant::from_nanos(1_000),
                    node: NodeId(2),
                    epoch: 4,
                    incarnation: 1,
                },
            },
            ServiceMessage::Redirect {
                group: GroupId(3),
                session: 77,
                seq: 6,
                leader: Some(ProcessId::new(NodeId(0), 1)),
            },
            ServiceMessage::Redirect {
                group: GroupId(3),
                session: 78,
                seq: 0,
                leader: None,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let mut w = Writer::new();
            msg.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = ServiceMessage::decode(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn body_len_matches_wire_size() {
        for msg in samples() {
            let mut w = Writer::new();
            msg.encode_into(&mut w);
            assert_eq!(w.len(), msg.wire_size(), "size mismatch for {msg:?}");
        }
    }

    #[test]
    fn unknown_tag_and_bad_bool_are_rejected() {
        let mut r = Reader::new(&[200]);
        assert_eq!(
            ServiceMessage::decode(&mut r),
            Err(WireError::UnknownTag(200))
        );
        // An ALIVE whose local-leader option tag is 7.
        let mut w = Writer::new();
        let alive = samples().into_iter().find(ServiceMessage::is_alive);
        if let Some(ServiceMessage::Alive {
            group,
            header,
            representative,
            payload,
        }) = &alive
        {
            w.put_u8(TAG_ALIVE);
            group.encode_into(&mut w);
            header.encode_into(&mut w);
            representative.encode_into(&mut w);
            payload.accusation_time.encode_into(&mut w);
            w.put_u64(payload.epoch);
            w.put_u8(7);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            ServiceMessage::decode(&mut r),
            Err(WireError::BadOptionTag(7))
        );
    }

    #[test]
    fn hello_flags_are_strict() {
        // Unknown flag bits and a PARTIAL without a list are refused.
        for flags in [0b1000u8, HELLO_PARTIAL, HELLO_PARTIAL | HELLO_PULL, 0xFF] {
            let mut w = Writer::new();
            w.put_u8(TAG_HELLO);
            w.put_u64(0);
            w.put_u64(0);
            SimInstant::ZERO.encode_into(&mut w);
            w.put_u8(flags);
            w.put_u16(0);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(
                ServiceMessage::decode(&mut r),
                Err(WireError::BadOptionTag(flags))
            );
        }
    }

    #[test]
    fn a_forged_accuse_count_is_refused() {
        // A count of 65 535 over one 12-byte entry: the entry decodes, the
        // next is missing. (`tests/memory.rs` pins the room reserved.)
        let mut w = Writer::new();
        w.put_u8(TAG_ACCUSE);
        w.put_u16(u16::MAX);
        (GroupId(1), 0u64).encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            ServiceMessage::decode(&mut r),
            Err(WireError::Truncated {
                needed: 4,
                remaining: 0
            })
        );
    }

    #[test]
    fn hostile_count_cannot_force_allocation() {
        // A HELLO claiming 65 535 announcements but carrying none.
        let mut w = Writer::new();
        w.put_u8(TAG_HELLO);
        w.put_u64(0);
        w.put_u64(0);
        SimInstant::ZERO.encode_into(&mut w);
        w.put_u8(HELLO_LIST);
        w.put_u16(u16::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            ServiceMessage::decode(&mut r),
            Err(WireError::Truncated { .. })
        ));
    }
}
