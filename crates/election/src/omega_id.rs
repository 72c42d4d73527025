//! Ωid — the leader-election algorithm of service **S1** (paper Section 6.2).
//!
//! The leader of a group is simply the process with the smallest identifier
//! among the processes currently deemed to be alive (i.e. the candidates
//! from which fresh ALIVE messages are being received, plus this node itself
//! if it is a candidate).
//!
//! This algorithm is deliberately *unstable*: whenever a process with a
//! smaller identifier (re)joins the group, the current leader is demoted
//! even though it is perfectly functional. The paper measures roughly six
//! such unjustified demotions per hour under its workstation crash/recovery
//! workload (Figure 3); services S2 and S3 exist precisely to avoid them.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::elector::{LeaderElector, PeerTable};
use crate::types::{AlivePayload, ElectorKind};

/// The Ωid elector state for one node and one group.
#[derive(Debug, Clone)]
pub struct OmegaId {
    me: NodeId,
    candidate: bool,
    started_at: SimInstant,
    peers: PeerTable,
}

impl OmegaId {
    /// Creates the elector for node `me`, which is a leadership candidate iff
    /// `candidate` is true, starting (joining the group) at `now`.
    pub fn new(me: NodeId, candidate: bool, now: SimInstant) -> Self {
        OmegaId {
            me,
            candidate,
            started_at: now,
            peers: PeerTable::new(),
        }
    }
}

impl LeaderElector for OmegaId {
    fn kind(&self) -> ElectorKind {
        ElectorKind::OmegaId
    }

    fn id(&self) -> NodeId {
        self.me
    }

    fn is_candidate(&self) -> bool {
        self.candidate
    }

    fn is_competing(&self) -> bool {
        self.candidate
    }

    fn accusation_time(&self) -> SimInstant {
        self.started_at
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn leader(&self) -> Option<NodeId> {
        let best_peer = self.peers.trusted().map(|(id, _)| id).min();
        let own = if self.candidate { Some(self.me) } else { None };
        match (best_peer, own) {
            (Some(p), Some(o)) => Some(p.min(o)),
            (Some(p), None) => Some(p),
            (None, own) => own,
        }
    }

    fn alive_payload(&self) -> AlivePayload {
        AlivePayload {
            accusation_time: self.started_at,
            epoch: 0,
            local_leader: None,
        }
    }

    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, _now: SimInstant) {
        self.peers.record_alive(from, payload);
    }

    fn on_accusation(&mut self, _epoch: u64, _now: SimInstant) {
        // Ωid has no accusation mechanism: identifiers, not accusation times,
        // decide the leader.
    }

    fn on_trust(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.mark_trusted(peer);
    }

    fn on_suspect(&mut self, peer: NodeId, _now: SimInstant) -> Option<u64> {
        self.peers.mark_suspected(peer);
        None
    }

    fn remove_peer(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.remove(peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    fn payload(at: SimInstant) -> AlivePayload {
        AlivePayload {
            accusation_time: at,
            epoch: 0,
            local_leader: None,
        }
    }

    #[test]
    fn lone_candidate_leads_itself() {
        let elector = OmegaId::new(NodeId(3), true, SimInstant::ZERO);
        assert_eq!(elector.leader(), Some(NodeId(3)));
        assert_eq!(elector.kind(), ElectorKind::OmegaId);
        assert!(elector.is_competing());
        assert_eq!(elector.epoch(), 0);
    }

    #[test]
    fn non_candidate_without_peers_has_no_leader() {
        let elector = OmegaId::new(NodeId(3), false, SimInstant::ZERO);
        assert_eq!(elector.leader(), None);
        assert!(!elector.is_competing());
        assert!(!elector.is_candidate());
    }

    #[test]
    fn smallest_known_id_wins() {
        let mut elector = OmegaId::new(NodeId(5), true, SimInstant::ZERO);
        let now = SimInstant::ZERO + SimDuration::from_millis(10);
        elector.on_alive(NodeId(8), payload(SimInstant::ZERO), now);
        assert_eq!(elector.leader(), Some(NodeId(5)));
        elector.on_alive(NodeId(2), payload(SimInstant::ZERO), now);
        assert_eq!(elector.leader(), Some(NodeId(2)));
    }

    #[test]
    fn suspected_leader_is_replaced_by_next_smallest() {
        let mut elector = OmegaId::new(NodeId(5), true, SimInstant::ZERO);
        let now = SimInstant::ZERO + SimDuration::from_millis(10);
        elector.on_alive(NodeId(2), payload(SimInstant::ZERO), now);
        elector.on_alive(NodeId(3), payload(SimInstant::ZERO), now);
        assert_eq!(elector.leader(), Some(NodeId(2)));
        let accusations = elector.on_suspect(NodeId(2), now + SimDuration::from_secs(1));
        assert_eq!(accusations, None, "Omega_id never accuses");
        assert_eq!(elector.leader(), Some(NodeId(3)));
        // Trusting node 2 again restores it as the leader.
        elector.on_trust(NodeId(2), now + SimDuration::from_secs(2));
        assert_eq!(elector.leader(), Some(NodeId(2)));
    }

    #[test]
    fn rejoining_smaller_id_demotes_current_leader() {
        // This is the instability the paper measures: node 5 is the leader,
        // node 1 recovers from a crash and immediately takes over.
        let mut elector = OmegaId::new(NodeId(5), true, SimInstant::ZERO);
        let now = SimInstant::ZERO + SimDuration::from_secs(100);
        assert_eq!(elector.leader(), Some(NodeId(5)));
        elector.on_alive(NodeId(1), payload(now), now);
        assert_eq!(elector.leader(), Some(NodeId(1)));
    }

    #[test]
    fn removed_peer_no_longer_counts() {
        let mut elector = OmegaId::new(NodeId(5), true, SimInstant::ZERO);
        let now = SimInstant::ZERO;
        elector.on_alive(NodeId(1), payload(now), now);
        assert_eq!(elector.leader(), Some(NodeId(1)));
        elector.remove_peer(NodeId(1), now);
        assert_eq!(elector.leader(), Some(NodeId(5)));
    }

    #[test]
    fn accusations_are_ignored() {
        let mut elector = OmegaId::new(NodeId(5), true, SimInstant::ZERO);
        let before = elector.accusation_time();
        elector.on_accusation(0, SimInstant::ZERO + SimDuration::from_secs(9));
        assert_eq!(elector.accusation_time(), before);
        assert_eq!(elector.alive_payload().accusation_time, before);
    }
}
