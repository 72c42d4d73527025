//! The wire protocol spoken between service instances.
//!
//! Three message families exist, mirroring the paper's architecture
//! (Figure 2): HELLO messages maintain group membership, ALIVE messages are
//! simultaneously failure-detector heartbeats and election-algorithm
//! payloads, and ACCUSE messages implement the accusation mechanism of the
//! Ωl/Ωlc algorithms. ALIVE and ACCUSE are sent per peer, each datagram
//! carrying the entries of several groups. Every message reports its
//! encoded size so the simulator can account network bandwidth exactly
//! (Figure 6).

use std::sync::Arc;

use sle_election::AlivePayload;
use sle_sim::actor::WireSize;
use sle_sim::time::{SimDuration, SimInstant};

use crate::lease::FencingToken;
use crate::process::{GroupId, ProcessId};

/// Heartbeat/bookkeeping fields shared by ALIVE messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliveHeader {
    /// The sender's incarnation (bumped every time its workstation recovers).
    pub incarnation: u64,
    /// Node-level per-destination heartbeat sequence number: one stream per
    /// peer link, shared by every group whose ALIVEs ride on it.
    pub seq: u64,
    /// When the message was sent (sender's clock).
    pub sent_at: SimInstant,
    /// The interval at which the sender is currently emitting ALIVEs for
    /// this group — the monitor uses it to compute the freshness horizon.
    pub sending_interval: SimDuration,
    /// The interval the sender would like the *receiver* to use when sending
    /// ALIVEs back (the output of the sender's FD configurator for the
    /// receiver→sender link).
    pub requested_interval: SimDuration,
}

/// Membership announcement for one group, carried inside HELLO messages.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAnnouncement {
    /// The announced group.
    pub group: GroupId,
    /// The local processes that belong to the group and whether each is a
    /// candidate for its leadership.
    pub processes: Vec<(ProcessId, bool)>,
}

/// The membership list a HELLO carries besides its `(incarnation, version)`.
#[derive(Debug, Clone, PartialEq)]
pub enum HelloList {
    /// None: a digest ("nothing changed since `version`") or a bare pull.
    Omitted,
    /// The sender's complete list at the stamped version, one entry per
    /// group it is in, built once per version: sent to every peer at start
    /// (with the pull flag) and in answer to a pull.
    Full(Arc<[GroupAnnouncement]>),
    /// A fragment of that list: a runtime join's prompt-discovery
    /// announcement of one group. Never advances the receiver's applied
    /// version.
    Partial(Arc<[GroupAnnouncement]>),
}

impl HelloList {
    /// The carried announcements, if any.
    pub fn announcements(&self) -> Option<&[GroupAnnouncement]> {
        match self {
            HelloList::Omitted => None,
            HelloList::Full(list) | HelloList::Partial(list) => Some(list),
        }
    }
}

/// One group's share of a batched ALIVE datagram: everything that varies
/// per group when a workstation fans its heartbeats out to a peer.
///
/// The fields common to every group — the sender's incarnation, the
/// node-level heartbeat sequence number and the send timestamp — are hoisted
/// into the [`ServiceMessage::AliveBatch`] envelope, which is where the
/// bandwidth saving over one [`ServiceMessage::Alive`] per group comes from.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct GroupAlive {
    /// The group this entry belongs to.
    pub group: GroupId,
    /// The interval at which the sender currently emits ALIVEs for this
    /// group.
    pub sending_interval: SimDuration,
    /// The interval the sender would like the receiver to use towards it
    /// for this group.
    pub requested_interval: SimDuration,
    /// Election-algorithm payload for this group.
    pub payload: AlivePayload,
    /// The sender's representative candidate process in this group.
    pub representative: ProcessId,
}

impl GroupAlive {
    /// Encoded size of one batch entry.
    pub fn wire_size(&self) -> usize {
        // group + sending + requested + representative + payload
        4 + 8 + 8 + 8 + self.payload.wire_size()
    }
}

/// A message exchanged between two service instances.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceMessage {
    /// Membership gossip (which local processes belong to which groups) as
    /// versioned anti-entropy: the periodic HELLO is a list-less *digest*, a
    /// receiver behind the sender's `(incarnation, version)` answers with a
    /// *pull*, and the sender unicasts its full list at that version. A
    /// starting node sends each peer its full list with a pull.
    Hello {
        /// The sender's incarnation.
        incarnation: u64,
        /// The sender's announcement version: bumped on every local join,
        /// leave or candidacy change, ordered after the incarnation.
        version: u64,
        /// When the message was sent.
        sent_at: SimInstant,
        /// Asks the receiver to answer with its full announcement list.
        pull: bool,
        /// The list this HELLO carries, if any.
        announcements: HelloList,
    },
    /// Failure-detector heartbeat plus election payload for one group.
    Alive {
        /// The group this ALIVE belongs to.
        group: GroupId,
        /// Heartbeat header.
        header: AliveHeader,
        /// Election-algorithm payload (accusation time, epoch, forwarding).
        payload: AlivePayload,
        /// The process that would become leader if this node wins the
        /// election (its representative candidate).
        representative: ProcessId,
    },
    /// Heartbeats + election payloads for *several* groups, coalesced into
    /// one datagram by the per-node ALIVE tick (the scale-out form of
    /// [`ServiceMessage::Alive`]: a workstation sharing many groups with a
    /// peer pays the header once per interval instead of once per group).
    AliveBatch {
        /// The sender's incarnation.
        incarnation: u64,
        /// Node-level per-destination heartbeat sequence number (shared by
        /// every entry: one datagram, one point on the link's loss/delay
        /// record).
        seq: u64,
        /// When the datagram was sent.
        sent_at: SimInstant,
        /// One entry per group, in group order.
        alives: Vec<GroupAlive>,
    },
    /// Accusation: "I believe you crashed" (paper Sections 6.3/6.4), in
    /// every group whose detector came to suspect the receiver in one fire
    /// of the accuser's detector timer for it.
    Accuse {
        /// One `(group, epoch)` entry per group in which the suspicion arose,
        /// in ascending group order: the accused node's epoch in that group
        /// as last seen by the accuser.
        accusations: Vec<(GroupId, u64)>,
    },
    /// Explicit withdrawal of a process from a group.
    Leave {
        /// The group being left.
        group: GroupId,
        /// The leaving process.
        process: ProcessId,
    },
    /// The current leader's lease broadcast: the fencing token of its
    /// leadership term and how long the lease is valid from receipt.
    /// Followers feed the token to their installed [`crate::lease::FencedApp`]
    /// so a deposed leader's delayed writes are fenced out even before the
    /// new leader's first write arrives.
    LeaseGrant {
        /// The group the lease is for.
        group: GroupId,
        /// The fencing token of the granting leader's current term.
        token: FencingToken,
        /// Validity window from receipt (the group's T_D bound).
        valid_for: SimDuration,
    },
    /// A client-tier request: apply `payload` to the group's fenced state
    /// machine. Sent by `sle-app` client sessions to the node they believe
    /// leads the group.
    ClientRequest {
        /// The group whose state machine is addressed.
        group: GroupId,
        /// The client session the request belongs to.
        session: u64,
        /// The request's sequence number within its session.
        seq: u64,
        /// The operation operand (for the fenced counter: the increment).
        payload: u64,
    },
    /// The leader's answer to a [`ServiceMessage::ClientRequest`] it was
    /// able to serve under a valid lease.
    ClientReply {
        /// The group the request addressed.
        group: GroupId,
        /// Echo of the request's session.
        session: u64,
        /// Echo of the request's sequence number.
        seq: u64,
        /// Whether the state machine applied the write (false: the fencing
        /// check rejected it).
        applied: bool,
        /// The state machine's value after (or at rejection of) the request.
        value: u64,
        /// The fencing token the request was applied under.
        token: FencingToken,
    },
    /// "Not the leader": the polite answer of a node that cannot serve a
    /// [`ServiceMessage::ClientRequest`], carrying its current leader view
    /// so the client can re-route.
    Redirect {
        /// The group the request addressed.
        group: GroupId,
        /// Echo of the request's session.
        session: u64,
        /// Echo of the request's sequence number.
        seq: u64,
        /// The responding node's current view of the group's leader.
        leader: Option<ProcessId>,
    },
}

/// Encoded size of one `(group, epoch)` entry of an ACCUSE.
pub const ACCUSATION_WIRE_SIZE: usize = 4 + 8;

/// Encoded-size budget for the entries of one ALIVE batch or ACCUSE list,
/// and for the records the UDP plane coalesces into one datagram. Stays
/// safely under `sle-wire`'s `MAX_DATAGRAM` (1400 bytes minus the frame
/// header), so a node in very many groups splits a per-peer send into
/// several datagrams rather than producing one the transport must reject.
pub const MAX_BATCH_BYTES: usize = 1200;

impl ServiceMessage {
    /// The group this message concerns, if any (HELLOs, batches and
    /// accusations concern several).
    pub fn group(&self) -> Option<GroupId> {
        match self {
            ServiceMessage::Hello { .. }
            | ServiceMessage::AliveBatch { .. }
            | ServiceMessage::Accuse { .. } => None,
            ServiceMessage::Alive { group, .. }
            | ServiceMessage::Leave { group, .. }
            | ServiceMessage::LeaseGrant { group, .. }
            | ServiceMessage::ClientRequest { group, .. }
            | ServiceMessage::ClientReply { group, .. }
            | ServiceMessage::Redirect { group, .. } => Some(*group),
        }
    }

    /// True for ALIVE messages (single-group or batched).
    pub fn is_alive(&self) -> bool {
        matches!(
            self,
            ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. }
        )
    }

    /// Number of per-group ALIVE payloads this message carries.
    pub fn alive_payloads(&self) -> usize {
        match self {
            ServiceMessage::Alive { .. } => 1,
            ServiceMessage::AliveBatch { alives, .. } => alives.len(),
            _ => 0,
        }
    }
}

impl WireSize for ServiceMessage {
    fn wire_size(&self) -> usize {
        // Sizes follow a straightforward binary encoding: fixed-width
        // integers and timestamps, one byte per message/option tag.
        match self {
            ServiceMessage::Hello { announcements, .. } => {
                // tag + incarnation + version + sent_at + flags; a list adds
                // its count and entries
                let entry = |a: &GroupAnnouncement| 4 + 2 + a.processes.len() * (8 + 1);
                let list = announcements.announcements();
                26 + list.map_or(0, |l| 2 + l.iter().map(entry).sum::<usize>())
            }
            ServiceMessage::Alive { payload, .. } => {
                // tag + group + header (incarnation, seq, sent_at, sending,
                // requested) + representative + payload
                1 + 4 + (8 + 8 + 8 + 8 + 8) + 8 + payload.wire_size()
            }
            ServiceMessage::AliveBatch { alives, .. } => {
                // tag + incarnation + seq + sent_at + count
                1 + 8 + 8 + 8 + 2 + alives.iter().map(GroupAlive::wire_size).sum::<usize>()
            }
            ServiceMessage::Accuse { accusations } => {
                // tag + count + (group + epoch) per entry
                1 + 2 + accusations.len() * ACCUSATION_WIRE_SIZE
            }
            ServiceMessage::Leave { .. } => 1 + 4 + 8,
            ServiceMessage::LeaseGrant { .. } => {
                // tag + group + token + valid_for
                1 + 4 + FencingToken::WIRE_SIZE + 8
            }
            ServiceMessage::ClientRequest { .. } => {
                // tag + group + session + seq + payload
                1 + 4 + 8 + 8 + 8
            }
            ServiceMessage::ClientReply { .. } => {
                // tag + group + session + seq + applied + value + token
                1 + 4 + 8 + 8 + 1 + 8 + FencingToken::WIRE_SIZE
            }
            ServiceMessage::Redirect { leader, .. } => {
                // tag + group + session + seq + option tag (+ process)
                1 + 4 + 8 + 8 + 1 + if leader.is_some() { 8 } else { 0 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::actor::NodeId;

    fn sample_alive() -> ServiceMessage {
        ServiceMessage::Alive {
            group: GroupId(1),
            header: AliveHeader {
                incarnation: 0,
                seq: 42,
                sent_at: SimInstant::ZERO,
                sending_interval: SimDuration::from_millis(250),
                requested_interval: SimDuration::from_millis(250),
            },
            payload: AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(NodeId(0), 0),
        }
    }

    #[test]
    fn alive_wire_size_is_stable() {
        let msg = sample_alive();
        assert_eq!(msg.wire_size(), 1 + 4 + 40 + 8 + 17);
        assert!(msg.is_alive());
        assert_eq!(msg.group(), Some(GroupId(1)));
    }

    #[test]
    fn hello_wire_size_scales_with_announcements() {
        let hello = |pull, announcements| ServiceMessage::Hello {
            incarnation: 0,
            version: 3,
            sent_at: SimInstant::ZERO,
            pull,
            announcements,
        };
        let one_group: Arc<[GroupAnnouncement]> = Arc::from([GroupAnnouncement {
            group: GroupId(1),
            processes: vec![(ProcessId::new(NodeId(0), 0), true)],
        }]);
        // A digest and a pull are the same 26 bytes whatever the sender's
        // group count; only a list grows.
        let digest = hello(false, HelloList::Omitted);
        assert_eq!(digest.wire_size(), 26);
        assert_eq!(hello(true, HelloList::Omitted).wire_size(), 26);
        assert_eq!(hello(false, HelloList::Full(Arc::from([]))).wire_size(), 28);
        assert_eq!(
            hello(false, HelloList::Full(one_group.clone())).wire_size(),
            28 + 4 + 2 + 9
        );
        assert_eq!(
            hello(false, HelloList::Partial(one_group)).wire_size(),
            28 + 4 + 2 + 9
        );
        assert_eq!(digest.group(), None);
        assert!(!digest.is_alive());
    }

    #[test]
    fn batched_alives_amortise_the_header() {
        let entry = GroupAlive {
            group: GroupId(1),
            sending_interval: SimDuration::from_millis(250),
            requested_interval: SimDuration::from_millis(250),
            payload: AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(NodeId(0), 0),
        };
        assert_eq!(entry.wire_size(), 4 + 8 + 8 + 8 + 17);
        let batch = |n: usize| ServiceMessage::AliveBatch {
            incarnation: 0,
            seq: 1,
            sent_at: SimInstant::ZERO,
            alives: vec![entry.clone(); n],
        };
        assert_eq!(batch(0).wire_size(), 27);
        assert_eq!(batch(3).wire_size(), 27 + 3 * 45);
        // Three groups batched beat three single ALIVEs (70 bytes each).
        assert!(batch(3).wire_size() < 3 * sample_alive().wire_size());
        assert!(batch(2).is_alive());
        assert_eq!(batch(2).group(), None);
        assert_eq!(batch(2).alive_payloads(), 2);
        assert_eq!(sample_alive().alive_payloads(), 1);
    }

    #[test]
    fn client_tier_wire_sizes_are_stable() {
        let token = FencingToken {
            accusation_time: SimInstant::ZERO,
            node: NodeId(1),
            epoch: 3,
            incarnation: 1,
        };
        let grant = ServiceMessage::LeaseGrant {
            group: GroupId(2),
            token,
            valid_for: SimDuration::from_millis(250),
        };
        assert_eq!(grant.wire_size(), 1 + 4 + 28 + 8);
        assert_eq!(grant.group(), Some(GroupId(2)));
        let request = ServiceMessage::ClientRequest {
            group: GroupId(2),
            session: 7,
            seq: 1,
            payload: 1,
        };
        assert_eq!(request.wire_size(), 29);
        assert_eq!(request.alive_payloads(), 0);
        assert!(!request.is_alive());
        let reply = ServiceMessage::ClientReply {
            group: GroupId(2),
            session: 7,
            seq: 1,
            applied: true,
            value: 41,
            token,
        };
        assert_eq!(reply.wire_size(), 58);
        let redirect_none = ServiceMessage::Redirect {
            group: GroupId(2),
            session: 7,
            seq: 1,
            leader: None,
        };
        let redirect_some = ServiceMessage::Redirect {
            group: GroupId(2),
            session: 7,
            seq: 1,
            leader: Some(ProcessId::new(NodeId(3), 0)),
        };
        assert_eq!(redirect_none.wire_size(), 22);
        assert_eq!(redirect_some.wire_size(), 30);
        assert_eq!(redirect_some.group(), Some(GroupId(2)));
    }

    #[test]
    fn control_messages_are_small() {
        let accuse = |n: u32| ServiceMessage::Accuse {
            accusations: (0..n).map(|g| (GroupId(g), 9)).collect(),
        };
        let leave = ServiceMessage::Leave {
            group: GroupId(3),
            process: ProcessId::new(NodeId(1), 0),
        };
        assert_eq!(accuse(1).wire_size(), 15);
        assert_eq!(accuse(3).wire_size(), 3 + 3 * 12);
        assert_eq!(leave.wire_size(), 13);
        assert_eq!(accuse(1).group(), None);
        assert_eq!(leave.group(), Some(GroupId(3)));
    }
}
