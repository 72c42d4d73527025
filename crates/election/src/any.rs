//! The one elector: Ωid, Ωlc and Ωl as three rules over the same state.
//!
//! The paper's services share one Leader Election module (Figure 2) and
//! differ in three decisions, each a branch on [`ElectorKind`] here:
//!
//! * **The rank key.** Ωid (S1, Section 6.2) elects the smallest identifier
//!   among the candidates it currently hears, plus itself if it is one. It
//!   is deliberately *unstable*: a smaller id that (re)joins demotes a
//!   perfectly functional leader, about six times an hour under the paper's
//!   crash/recovery workload (Figure 3). Ωlc and Ωl rank by
//!   `(accusation time, id)` instead ([`Rank`]): each process advertises
//!   the last time it was validly accused of having crashed (initially its
//!   join time), so a long-lived leader is never out-ranked by a rejoining
//!   process.
//! * **Local-leader forwarding (Ωlc, S2, Section 6.3).** A process picks a
//!   *local* leader among the processes it hears directly and advertises it
//!   in its ALIVEs; its *global* leader is the best local leader claimed by
//!   any process it trusts. If the link from the leader to p crashes, p
//!   keeps following the leader through the others' claims — this is what
//!   keeps S2's availability at 98.8 % when every link crashes once a
//!   minute (Figure 7). Every candidate keeps sending, so messages are
//!   quadratic in the group size (Figure 6).
//! * **Voluntary withdrawal (Ωl, S3, Section 6.4).** A candidate that hears
//!   a better-ranked one directly stops sending ALIVEs, and re-enters when
//!   none is visible any more (e.g. the leader crashed). Eventually only the
//!   leader sends, so messages are linear in the group size (Figure 6). The
//!   others will suspect a withdrawn process; every withdrawal and re-entry
//!   advances its accusation *epoch*, and an accusation counts only if it
//!   names the current epoch and arrives while the process is competing, so
//!   suspicions of a voluntary silence never raise its accusation time.
//!
//! A [`GroupElector`] holds what the rules keep of this node: its kind,
//! identity and candidacy, accusation time, epoch and whether it competes.
//! It keeps no peers: each rule reads the peers the failure detector
//! trusts, each with the ALIVE payload it last sent, as its owner lends
//! them. The service lends a group's rows, where the detector's monitor is
//! the one trust bit; [`AnyElector`] is the standalone elector over its own
//! list, as `sle_fd`'s `FailureDetector` is a group detector over its own
//! monitors.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::elector::LeaderElector;
use crate::types::{AlivePayload, ElectorKind, LeaderClaim, Rank};

/// The leader-election state of one node in one group, running the
/// algorithm `kind` selects. Every rule is lent `trusted`: the peers the
/// failure detector trusts, each with the payload it last sent.
#[derive(Debug, Clone)]
pub struct GroupElector {
    kind: ElectorKind,
    me: NodeId,
    candidate: bool,
    /// The last time this node was validly accused (initially its join
    /// time). Ωid never accuses, so there it stays the join time.
    accusation_time: SimInstant,
    /// Accusations are honoured only when they name this epoch. Always 0
    /// under Ωid.
    epoch: u64,
    /// Whether this node competes, i.e. sends ALIVEs. Equal to `candidate`
    /// except under Ωl, where a candidate withdraws while it hears a
    /// better-ranked one.
    active: bool,
}

impl GroupElector {
    /// Builds an elector of the requested kind for node `me`, which is a
    /// leadership candidate iff `candidate` is true, starting (joining the
    /// group) at `now`. The initial accusation time is the join time, so
    /// the processes that have been members the longest rank best.
    pub fn new(kind: ElectorKind, me: NodeId, candidate: bool, now: SimInstant) -> Self {
        Self::new_with_epoch(kind, me, candidate, now, 0)
    }

    /// Builds an elector of the requested kind whose accusation epoch starts
    /// at `epoch` instead of 0.
    ///
    /// This is the constructor for *recreating* an elector mid-life (a
    /// listener upgrading to candidate, the last local candidate leaving).
    /// Accusations are honoured by exact epoch match, so the caller must
    /// pass an epoch above every value the previous elector advertised:
    /// resetting to 0 would make an epoch of the previous life current
    /// again and let a delayed or duplicated old ACCUSE demote the node.
    /// Ωid has no epoch mechanism, so the floor is ignored there.
    pub fn new_with_epoch(
        kind: ElectorKind,
        me: NodeId,
        candidate: bool,
        now: SimInstant,
        epoch: u64,
    ) -> Self {
        GroupElector {
            kind,
            me,
            candidate,
            accusation_time: now,
            epoch: if kind == ElectorKind::OmegaId {
                0
            } else {
                epoch
            },
            active: candidate,
        }
    }

    /// Whether this node is a candidate for the group's leadership.
    pub fn is_candidate(&self) -> bool {
        self.candidate
    }

    /// Whether this node should currently be sending ALIVE messages for the
    /// group. For Ωid and Ωlc this is simply "is a candidate"; for Ωl a
    /// candidate stops competing while it sees a better-ranked candidate.
    pub fn is_competing(&self) -> bool {
        self.active
    }

    /// This node's current accusation time.
    pub fn accusation_time(&self) -> SimInstant {
        self.accusation_time
    }

    /// This node's current accusation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn my_rank(&self) -> Rank {
        Rank::new(self.accusation_time, self.me)
    }

    /// This node's rank while it competes.
    fn own(&self) -> Option<Rank> {
        self.active.then(|| self.my_rank())
    }

    /// The best-ranked of the `trusted` peers and, while it competes, this
    /// node: Ωlc's first stage, and Ωl's leader.
    fn local_leader<'a>(
        &self,
        trusted: impl IntoIterator<Item = (NodeId, &'a AlivePayload)>,
    ) -> Option<Rank> {
        let ranks = trusted.into_iter().map(|(id, p)| p.rank_of(id));
        ranks.chain(self.own()).min()
    }

    /// The current leader, if any, among this node and the `trusted` peers.
    pub fn leader<'a>(
        &self,
        trusted: impl IntoIterator<Item = (NodeId, &'a AlivePayload)>,
    ) -> Option<NodeId> {
        let trusted = trusted.into_iter();
        match self.kind {
            ElectorKind::OmegaId => {
                let own = self.active.then_some(self.me);
                trusted.map(|(id, _)| id).chain(own).min()
            }
            // Second stage: the best of the local leaders trusted peers
            // claim and this node's own.
            ElectorKind::OmegaLc => trusted
                .flat_map(|(id, p)| [Some(p.rank_of(id)), p.local_leader.map(|c| c.rank())])
                .flatten()
                .chain(self.own())
                .min()
                .map(|rank| rank.id),
            ElectorKind::OmegaL => self.local_leader(trusted).map(|rank| rank.id),
        }
    }

    /// The election payload to piggyback on the next outgoing ALIVE
    /// message, given the `trusted` peers.
    pub fn alive_payload<'a>(
        &self,
        trusted: impl IntoIterator<Item = (NodeId, &'a AlivePayload)>,
    ) -> AlivePayload {
        let claim = |rank: Rank| LeaderClaim {
            node: rank.id,
            accusation_time: rank.accusation_time,
        };
        AlivePayload {
            accusation_time: self.accusation_time,
            epoch: self.epoch,
            local_leader: match self.kind {
                ElectorKind::OmegaLc => self.local_leader(trusted).map(claim),
                ElectorKind::OmegaId | ElectorKind::OmegaL => None,
            },
        }
    }

    /// Ωl only: withdraws while a better-ranked candidate is trusted, and
    /// re-enters once none is, advancing the epoch either way so that the
    /// suspicions a withdrawal provokes carry a stale epoch. The owner calls
    /// it whenever the `trusted` peers or their payloads changed.
    pub fn reevaluate<'a>(
        &mut self,
        trusted: impl IntoIterator<Item = (NodeId, &'a AlivePayload)>,
    ) {
        if self.kind != ElectorKind::OmegaL || !self.candidate {
            return;
        }
        let mine = self.my_rank();
        let better_exists = (trusted.into_iter()).any(|(id, p)| p.rank_of(id) < mine);
        if self.active == better_exists {
            self.active = !better_exists;
            self.epoch += 1;
        }
    }

    /// Handles an accusation against this node referencing `epoch`, among
    /// the `trusted` peers.
    pub fn on_accusation<'a>(
        &mut self,
        epoch: u64,
        now: SimInstant,
        trusted: impl IntoIterator<Item = (NodeId, &'a AlivePayload)>,
    ) {
        // An accusation counts once per epoch: one suspicion episode seen by
        // many processes costs the accused at most one demotion. Under Ωl it
        // counts only while competing, so a voluntary silence costs nothing.
        let honoured = match self.kind {
            ElectorKind::OmegaId => false,
            ElectorKind::OmegaLc => epoch == self.epoch,
            ElectorKind::OmegaL => self.active && epoch == self.epoch,
        };
        if honoured {
            self.accusation_time = now;
            self.epoch += 1;
            self.reevaluate(trusted);
        }
    }

    /// The epoch to accuse a peer at that the failure detector stopped
    /// trusting, given the `last` payload it sent: the epoch it advertised.
    /// Ωid ranks by id alone, so there an accusation could change nothing.
    pub fn accusation(&self, last: &AlivePayload) -> Option<u64> {
        (self.kind != ElectorKind::OmegaId).then_some(last.epoch)
    }
}

/// The standalone elector: a [`GroupElector`] over its own list of the
/// peers it heard, each with its last payload and whether the failure
/// detector trusts it (an ALIVE implies it does).
#[derive(Debug, Clone)]
pub struct AnyElector {
    elector: GroupElector,
    /// `(peer, last payload, trusted)`, ascending by peer.
    peers: Vec<(NodeId, AlivePayload, bool)>,
}

/// The trusted peers of `peers`, with their payloads.
fn trusted(
    peers: &[(NodeId, AlivePayload, bool)],
) -> impl Iterator<Item = (NodeId, &AlivePayload)> + '_ {
    (peers.iter().filter(|peer| peer.2)).map(|(id, payload, _)| (*id, payload))
}

impl AnyElector {
    /// A standalone [`GroupElector::new`], knowing no peers.
    pub fn new(kind: ElectorKind, me: NodeId, candidate: bool, now: SimInstant) -> Self {
        Self::new_with_epoch(kind, me, candidate, now, 0)
    }

    /// A standalone [`GroupElector::new_with_epoch`], knowing no peers.
    pub fn new_with_epoch(
        kind: ElectorKind,
        me: NodeId,
        candidate: bool,
        now: SimInstant,
        epoch: u64,
    ) -> Self {
        AnyElector {
            elector: GroupElector::new_with_epoch(kind, me, candidate, now, epoch),
            peers: Vec::new(),
        }
    }

    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&peer, |&(id, ..)| id)
    }

    fn reevaluate(&mut self) {
        self.elector.reevaluate(trusted(&self.peers));
    }
}

impl LeaderElector for AnyElector {
    fn kind(&self) -> ElectorKind {
        self.elector.kind
    }

    fn id(&self) -> NodeId {
        self.elector.me
    }

    fn is_candidate(&self) -> bool {
        self.elector.candidate
    }

    fn is_competing(&self) -> bool {
        self.elector.active
    }

    fn accusation_time(&self) -> SimInstant {
        self.elector.accusation_time
    }

    fn epoch(&self) -> u64 {
        self.elector.epoch
    }

    fn leader(&self) -> Option<NodeId> {
        self.elector.leader(trusted(&self.peers))
    }

    fn alive_payload(&self) -> AlivePayload {
        self.elector.alive_payload(trusted(&self.peers))
    }

    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, _now: SimInstant) {
        match self.find(from) {
            Ok(i) => self.peers[i] = (from, payload, true),
            Err(i) => self.peers.insert(i, (from, payload, true)),
        }
        self.reevaluate();
    }

    fn on_accusation(&mut self, epoch: u64, now: SimInstant) {
        self.elector.on_accusation(epoch, now, trusted(&self.peers));
    }

    fn on_trust(&mut self, peer: NodeId, _now: SimInstant) {
        if let Ok(i) = self.find(peer) {
            self.peers[i].2 = true;
        }
        self.reevaluate();
    }

    fn on_suspect(&mut self, peer: NodeId, _now: SimInstant) -> Option<u64> {
        let last = match self.find(peer) {
            Ok(i) if self.peers[i].2 => {
                self.peers[i].2 = false;
                Some(self.peers[i].1)
            }
            _ => None,
        };
        self.reevaluate();
        last.and_then(|last| self.elector.accusation(&last))
    }

    fn remove_peer(&mut self, peer: NodeId, _now: SimInstant) {
        if let Ok(i) = self.find(peer) {
            self.peers.remove(i);
        }
        self.reevaluate();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sle_sim::time::SimDuration;
    use ElectorKind::{OmegaId, OmegaL, OmegaLc};

    pub(crate) fn secs(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    pub(crate) fn payload(
        acc: SimInstant,
        epoch: u64,
        claim: Option<(NodeId, SimInstant)>,
    ) -> AlivePayload {
        AlivePayload {
            accusation_time: acc,
            epoch,
            local_leader: claim.map(|(node, at)| LeaderClaim {
                node,
                accusation_time: at,
            }),
        }
    }

    /// One round of the service's behaviour: every *competing* elector's
    /// payload is delivered to every other elector (under Ωid and Ωlc every
    /// candidate competes).
    pub(crate) fn exchange(electors: &mut [AnyElector], now: SimInstant) {
        let payloads: Vec<(NodeId, AlivePayload, bool)> = electors
            .iter()
            .map(|e| (e.id(), e.alive_payload(), e.is_competing()))
            .collect();
        for elector in electors.iter_mut() {
            for &(from, p, competing) in &payloads {
                if competing && from != elector.id() {
                    elector.on_alive(from, p, now);
                }
            }
        }
    }

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
        for kind in [OmegaLc, OmegaL] {
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
        let elector = AnyElector::new_with_epoch(OmegaId, NodeId(1), true, SimInstant::ZERO, 7);
        assert_eq!(elector.epoch(), 0);
    }

    #[test]
    fn dispatch_reaches_the_inner_elector() {
        let mut elector = AnyElector::new(OmegaLc, NodeId(2), true, SimInstant::ZERO);
        assert_eq!(elector.leader(), Some(NodeId(2)));
        elector.on_alive(
            NodeId(1),
            payload(SimInstant::ZERO, 0, None),
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

    #[test]
    fn on_alive_trusts_the_sender_and_keeps_its_last_payload() {
        let mut elector = AnyElector::new(OmegaLc, NodeId(5), true, secs(10));
        elector.on_alive(NodeId(1), payload(secs(0), 1, None), secs(11));
        assert_eq!(elector.leader(), Some(NodeId(1)));
        // A later payload replaces it: accused since, node 1 ranks last.
        elector.on_alive(NodeId(1), payload(secs(20), 2, None), secs(21));
        assert_eq!(elector.leader(), Some(NodeId(5)));
        assert_eq!(elector.on_suspect(NodeId(1), secs(22)), Some(2));
    }

    #[test]
    fn on_suspect_accuses_at_the_last_epoch_once() {
        let mut elector = AnyElector::new(OmegaL, NodeId(5), true, secs(10));
        elector.on_alive(NodeId(1), payload(secs(0), 7, None), secs(11));
        assert_eq!(elector.on_suspect(NodeId(1), secs(12)), Some(7));
        // Already suspected: no second accusation.
        assert_eq!(elector.on_suspect(NodeId(1), secs(13)), None);
        // Unknown peer: nothing to accuse.
        assert_eq!(elector.on_suspect(NodeId(9), secs(13)), None);
        // Trusting again re-arms the accusation.
        elector.on_trust(NodeId(1), secs(14));
        assert_eq!(elector.on_suspect(NodeId(1), secs(15)), Some(7));
    }

    /// Pins every branch on the kind, one row per algorithm.
    #[test]
    fn each_kind_applies_only_its_own_rules() {
        // (kind, payload carries a claim, accuses a suspected peer at,
        //  epoch after a floor of 7 and an accusation at it, honours an
        //  accusation at its epoch after hearing a better candidate, and
        //  as a non-candidate)
        let table = [
            (OmegaId, false, None, 0, false, false),
            (OmegaLc, true, Some(3), 8, true, true),
            (OmegaL, false, Some(3), 8, false, false),
        ];
        assert_eq!(table.map(|row| row.0), ElectorKind::all());
        for (kind, claims, accuses, epoch, honours_outranked, honours_listener) in table {
            let mut elector = AnyElector::new(kind, NodeId(2), true, secs(0));
            assert_eq!(
                elector.alive_payload().local_leader.is_some(),
                claims,
                "{kind}"
            );
            elector.on_alive(NodeId(5), payload(secs(1), 3, None), secs(1));
            assert_eq!(elector.on_suspect(NodeId(5), secs(2)), accuses, "{kind}");

            let mut elector = AnyElector::new_with_epoch(kind, NodeId(2), true, secs(0), 7);
            elector.on_accusation(elector.epoch(), secs(3));
            assert_eq!(elector.epoch(), epoch, "{kind}");

            // Node 1 joined earlier: Ωl withdraws, the others keep sending.
            let mut elector = AnyElector::new(kind, NodeId(3), true, secs(10));
            elector.on_alive(NodeId(1), payload(secs(0), 0, None), secs(11));
            assert_eq!(elector.is_competing(), kind != OmegaL, "{kind}");
            elector.on_accusation(elector.epoch(), secs(12));
            assert_eq!(
                elector.accusation_time() == secs(12),
                honours_outranked,
                "{kind}"
            );

            let mut listener = AnyElector::new(kind, NodeId(9), false, secs(0));
            listener.on_accusation(0, secs(4));
            assert_eq!(
                listener.accusation_time() == secs(4),
                honours_listener,
                "{kind}"
            );
        }
    }
}
