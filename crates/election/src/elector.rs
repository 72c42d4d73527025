//! The interface of the standalone elector.
//!
//! A standalone elector lives at one node, for one group, and keeps its own
//! list of the peers it heard. It is driven by ALIVE payloads and
//! accusations it receives, trust/suspect notifications from a failure
//! detector, and peers leaving. In return it answers two questions — *who
//! is the leader?* and *should this node be sending ALIVE messages right
//! now?* — and occasionally asks for an accusation message to be sent. The
//! service does not use it: its groups lend their rows to a
//! [`GroupElector`](crate::any::GroupElector) instead.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::types::{AlivePayload, ElectorKind};

/// Leader-election algorithm driven by the caller, implemented by the
/// standalone [`AnyElector`](crate::any::AnyElector) for all three kinds.
pub trait LeaderElector {
    /// Which algorithm this is.
    fn kind(&self) -> ElectorKind;

    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// Whether this node is a candidate for the group's leadership.
    fn is_candidate(&self) -> bool;

    /// Whether this node should currently be sending ALIVE messages for the
    /// group. For Ωid and Ωlc this is simply "is a candidate"; for Ωl a
    /// candidate stops competing while it sees a better-ranked candidate.
    fn is_competing(&self) -> bool;

    /// This node's current accusation time.
    fn accusation_time(&self) -> SimInstant;

    /// This node's current accusation epoch.
    fn epoch(&self) -> u64;

    /// The current leader, if any.
    fn leader(&self) -> Option<NodeId>;

    /// The election payload to piggyback on the next outgoing ALIVE message.
    fn alive_payload(&self) -> AlivePayload;

    /// Handles an ALIVE payload received from `from` (which also implies the
    /// failure detector currently trusts `from`).
    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, now: SimInstant);

    /// Handles an accusation against this node referencing `epoch`.
    fn on_accusation(&mut self, epoch: u64, now: SimInstant);

    /// The failure detector started trusting `peer` again.
    fn on_trust(&mut self, peer: NodeId, now: SimInstant);

    /// The failure detector suspects `peer`. Returns the epoch to accuse
    /// `peer` at (the one it last advertised), if this suspicion calls for
    /// an accusation.
    fn on_suspect(&mut self, peer: NodeId, now: SimInstant) -> Option<u64>;

    /// `peer` left the group (or was removed from the membership).
    fn remove_peer(&mut self, peer: NodeId, now: SimInstant);
}
