//! Enum dispatch over the three elector implementations.
//!
//! The service selects an algorithm at group-join time (the paper lets the
//! user pick between S2's Ωlc and S3's Ωl; S1's Ωid is kept as the baseline
//! used in the evaluation). [`AnyElector`] lets the service hold whichever
//! was selected without boxing.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::elector::LeaderElector;
use crate::omega_id::OmegaId;
use crate::omega_l::OmegaL;
use crate::omega_lc::OmegaLc;
use crate::types::{AlivePayload, ElectorKind};

/// One of the three leader-election algorithms, selected at runtime.
#[derive(Debug, Clone)]
pub enum AnyElector {
    /// The Ωid baseline (service S1).
    OmegaId(OmegaId),
    /// The link-crash tolerant Ωlc (service S2).
    OmegaLc(OmegaLc),
    /// The communication-efficient Ωl (service S3).
    OmegaL(OmegaL),
}

impl AnyElector {
    /// Builds an elector of the requested kind for node `me`.
    pub fn new(kind: ElectorKind, me: NodeId, candidate: bool, now: SimInstant) -> Self {
        Self::new_with_epoch(kind, me, candidate, now, 0)
    }

    /// Builds an elector of the requested kind whose accusation epoch starts
    /// at `epoch` instead of 0.
    ///
    /// This is the constructor for *recreating* an elector mid-life (a
    /// listener upgrading to candidate, the last local candidate leaving):
    /// passing an epoch above every value the previous elector advertised
    /// keeps replayed accusations from its earlier life stale. Ωid has no
    /// epoch mechanism, so the floor is ignored there.
    pub fn new_with_epoch(
        kind: ElectorKind,
        me: NodeId,
        candidate: bool,
        now: SimInstant,
        epoch: u64,
    ) -> Self {
        match kind {
            ElectorKind::OmegaId => AnyElector::OmegaId(OmegaId::new(me, candidate, now)),
            ElectorKind::OmegaLc => {
                AnyElector::OmegaLc(OmegaLc::new_with_epoch(me, candidate, now, epoch))
            }
            ElectorKind::OmegaL => {
                AnyElector::OmegaL(OmegaL::new_with_epoch(me, candidate, now, epoch))
            }
        }
    }

    fn inner(&self) -> &dyn LeaderElector {
        match self {
            AnyElector::OmegaId(e) => e,
            AnyElector::OmegaLc(e) => e,
            AnyElector::OmegaL(e) => e,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn LeaderElector {
        match self {
            AnyElector::OmegaId(e) => e,
            AnyElector::OmegaLc(e) => e,
            AnyElector::OmegaL(e) => e,
        }
    }
}

impl LeaderElector for AnyElector {
    fn kind(&self) -> ElectorKind {
        self.inner().kind()
    }

    fn id(&self) -> NodeId {
        self.inner().id()
    }

    fn is_candidate(&self) -> bool {
        self.inner().is_candidate()
    }

    fn is_competing(&self) -> bool {
        self.inner().is_competing()
    }

    fn accusation_time(&self) -> SimInstant {
        self.inner().accusation_time()
    }

    fn epoch(&self) -> u64 {
        self.inner().epoch()
    }

    fn leader(&self) -> Option<NodeId> {
        self.inner().leader()
    }

    fn alive_payload(&self) -> AlivePayload {
        self.inner().alive_payload()
    }

    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, now: SimInstant) {
        self.inner_mut().on_alive(from, payload, now);
    }

    fn on_accusation(&mut self, epoch: u64, now: SimInstant) {
        self.inner_mut().on_accusation(epoch, now);
    }

    fn on_trust(&mut self, peer: NodeId, now: SimInstant) {
        self.inner_mut().on_trust(peer, now);
    }

    fn on_suspect(&mut self, peer: NodeId, now: SimInstant) -> Option<u64> {
        self.inner_mut().on_suspect(peer, now)
    }

    fn remove_peer(&mut self, peer: NodeId, now: SimInstant) {
        self.inner_mut().remove_peer(peer, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_requested_kind() {
        for kind in ElectorKind::all() {
            let elector = AnyElector::new(kind, NodeId(4), true, SimInstant::ZERO);
            assert_eq!(elector.kind(), kind);
            assert_eq!(elector.id(), NodeId(4));
            assert!(elector.is_candidate());
        }
    }

    #[test]
    fn epoch_floor_keeps_replayed_accusations_stale() {
        for kind in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
            let mut elector =
                AnyElector::new_with_epoch(kind, NodeId(1), true, SimInstant::ZERO, 7);
            assert_eq!(elector.epoch(), 7);
            let acc_before = elector.accusation_time();
            // An accusation minted against a previous life (epoch < 7) must
            // not demote the recreated elector.
            for stale in 0..7 {
                elector.on_accusation(stale, SimInstant::ZERO);
            }
            assert_eq!(elector.epoch(), 7);
            assert_eq!(elector.accusation_time(), acc_before);
            // The current epoch is still honoured.
            elector.on_accusation(7, SimInstant::ZERO);
            assert!(elector.epoch() > 7);
        }
        // Ωid has no epochs; the floor is ignored.
        let elector =
            AnyElector::new_with_epoch(ElectorKind::OmegaId, NodeId(1), true, SimInstant::ZERO, 7);
        assert_eq!(elector.epoch(), 0);
    }

    #[test]
    fn dispatch_reaches_the_inner_elector() {
        let mut elector = AnyElector::new(ElectorKind::OmegaLc, NodeId(2), true, SimInstant::ZERO);
        assert_eq!(elector.leader(), Some(NodeId(2)));
        elector.on_alive(
            NodeId(1),
            AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            SimInstant::ZERO,
        );
        // Same accusation time: smaller id wins.
        assert_eq!(elector.leader(), Some(NodeId(1)));
        assert_eq!(elector.on_suspect(NodeId(1), SimInstant::ZERO), Some(0));
        assert_eq!(elector.leader(), Some(NodeId(2)));
        elector.on_trust(NodeId(1), SimInstant::ZERO);
        assert_eq!(elector.leader(), Some(NodeId(1)));
        elector.remove_peer(NodeId(1), SimInstant::ZERO);
        assert_eq!(elector.leader(), Some(NodeId(2)));
        elector.on_accusation(0, SimInstant::ZERO);
        assert!(elector.epoch() > 0);
        let _ = elector.alive_payload();
        assert!(elector.is_competing());
        let _ = elector.accusation_time();
    }
}
