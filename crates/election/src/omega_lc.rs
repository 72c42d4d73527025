//! Ωlc — the leader-election algorithm of service **S2** (paper Section 6.3).
//!
//! Ωlc is based on the algorithm of Aguilera, Delporte-Gallet, Fauconnier and
//! Toueg designed for systems where every link may be lossy or may crash
//! outright, except the output links of some correct process. Its two
//! distinguishing mechanisms, both sketched in the paper, are:
//!
//! 1. **Accusation-time ranking.** Every process keeps the last time it was
//!    validly accused of having crashed (initially its join time) and
//!    advertises it in its ALIVE messages. Candidates are ranked by
//!    `(accusation time, id)`, so a long-lived healthy leader is never
//!    out-ranked by a rejoining process — this is what makes S2 perfectly
//!    stable in the lossy-link experiments (Figure 4, λ_u = 0).
//! 2. **Local-leader forwarding.** Each process first picks a *local* leader
//!    among the processes it hears directly, then picks its *global* leader
//!    as the best-ranked local leader advertised by any process it trusts.
//!    If the link from the leader to p crashes, p keeps following the leader
//!    through the claims of the other processes instead of electing someone
//!    else on its own — this is what keeps S2's availability at 98.8% even
//!    when every link crashes once a minute (Figure 7).
//!
//! Every alive candidate sends ALIVE messages to every group member, so the
//! message cost is quadratic in the group size (Figure 6).

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::elector::{LeaderElector, PeerTable};
use crate::types::{AlivePayload, ElectorKind, LeaderClaim, Rank};

/// The Ωlc elector state for one node and one group.
#[derive(Debug, Clone)]
pub struct OmegaLc {
    me: NodeId,
    candidate: bool,
    accusation_time: SimInstant,
    epoch: u64,
    peers: PeerTable,
}

impl OmegaLc {
    /// Creates the elector for node `me`, which is a leadership candidate iff
    /// `candidate` is true, starting (joining the group) at `now`.
    ///
    /// The initial accusation time is the join time, so processes that have
    /// been members the longest (without being accused) rank best.
    pub fn new(me: NodeId, candidate: bool, now: SimInstant) -> Self {
        Self::new_with_epoch(me, candidate, now, 0)
    }

    /// Like [`OmegaLc::new`], but starting the accusation epoch at `epoch`
    /// instead of 0.
    ///
    /// A service recreating the elector for a group it never left (a
    /// listener upgrading to candidate, the last local candidate leaving)
    /// must pass an epoch above every value the previous elector ever
    /// advertised: accusations are honoured by exact epoch match, so
    /// resetting to 0 would make epochs from the previous life *current*
    /// again and let a delayed or duplicated old ACCUSE demote the node long
    /// after the suspicion episode that minted it.
    pub fn new_with_epoch(me: NodeId, candidate: bool, now: SimInstant, epoch: u64) -> Self {
        OmegaLc {
            me,
            candidate,
            accusation_time: now,
            epoch,
            peers: PeerTable::new(),
        }
    }

    fn my_rank(&self) -> Rank {
        Rank::new(self.accusation_time, self.me)
    }

    /// Stage one: the best-ranked process among those heard directly
    /// (trusted by the failure detector), plus this node if it is a
    /// candidate.
    fn local_leader(&self) -> Option<Rank> {
        let best_peer = self.peers.best_trusted_rank();
        let own = if self.candidate {
            Some(self.my_rank())
        } else {
            None
        };
        match (best_peer, own) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, own) => own,
        }
    }

    /// Stage two: the best-ranked local-leader claim among those advertised
    /// by trusted peers, together with this node's own local leader.
    fn global_leader(&self) -> Option<Rank> {
        let mut best = self.local_leader();
        for (_, state) in self.peers.trusted() {
            if let Some(claim) = state.payload.local_leader {
                let rank = claim.rank();
                best = Some(match best {
                    Some(current) => current.min(rank),
                    None => rank,
                });
            }
        }
        best
    }
}

impl LeaderElector for OmegaLc {
    fn kind(&self) -> ElectorKind {
        ElectorKind::OmegaLc
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
        self.accusation_time
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn leader(&self) -> Option<NodeId> {
        self.global_leader().map(|rank| rank.id)
    }

    fn alive_payload(&self) -> AlivePayload {
        AlivePayload {
            accusation_time: self.accusation_time,
            epoch: self.epoch,
            local_leader: self.local_leader().map(|rank| LeaderClaim {
                node: rank.id,
                accusation_time: rank.accusation_time,
            }),
        }
    }

    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, _now: SimInstant) {
        self.peers.record_alive(from, payload);
    }

    fn on_accusation(&mut self, epoch: u64, now: SimInstant) {
        // Accept the accusation only if it refers to the current epoch: this
        // de-duplicates the accusations produced by a single suspicion
        // episode observed by many processes, so one disconnection episode
        // costs the accused at most one demotion.
        if epoch == self.epoch {
            self.accusation_time = now;
            self.epoch += 1;
        }
    }

    fn on_trust(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.mark_trusted(peer);
    }

    fn on_suspect(&mut self, peer: NodeId, _now: SimInstant) -> Option<u64> {
        self.peers.mark_suspected(peer)
    }

    fn remove_peer(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.remove(peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    fn secs(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    fn payload(acc: SimInstant, epoch: u64, claim: Option<(NodeId, SimInstant)>) -> AlivePayload {
        AlivePayload {
            accusation_time: acc,
            epoch,
            local_leader: claim.map(|(node, at)| LeaderClaim {
                node,
                accusation_time: at,
            }),
        }
    }

    /// Exchanges current payloads among a set of electors (full mesh), as the
    /// service would by broadcasting ALIVE messages.
    fn exchange(electors: &mut [OmegaLc], now: SimInstant) {
        let payloads: Vec<(NodeId, AlivePayload)> = electors
            .iter()
            .map(|e| (e.id(), e.alive_payload()))
            .collect();
        for elector in electors.iter_mut() {
            for &(from, p) in &payloads {
                if from != elector.id() {
                    elector.on_alive(from, p, now);
                }
            }
        }
    }

    #[test]
    fn earliest_accusation_time_wins_not_smallest_id() {
        let mut electors = vec![
            OmegaLc::new(NodeId(0), true, secs(10)),
            OmegaLc::new(NodeId(1), true, secs(0)), // oldest member
            OmegaLc::new(NodeId(2), true, secs(20)),
        ];
        for _ in 0..2 {
            exchange(&mut electors, secs(21));
        }
        for elector in &electors {
            assert_eq!(elector.leader(), Some(NodeId(1)));
        }
    }

    #[test]
    fn rejoining_process_does_not_demote_leader() {
        // Stability: node 0 rejoins with a later accusation (join) time and
        // must not displace the established leader even though 0 < 1.
        let mut electors = vec![
            OmegaLc::new(NodeId(1), true, secs(0)),
            OmegaLc::new(NodeId(2), true, secs(0)),
        ];
        exchange(&mut electors, secs(1));
        assert_eq!(electors[0].leader(), Some(NodeId(1)));

        let rejoined = OmegaLc::new(NodeId(0), true, secs(500));
        electors.push(rejoined);
        for _ in 0..2 {
            exchange(&mut electors, secs(501));
        }
        for elector in &electors {
            assert_eq!(
                elector.leader(),
                Some(NodeId(1)),
                "leader must remain node 1"
            );
        }
    }

    #[test]
    fn crashed_leader_is_replaced_by_next_earliest() {
        let mut electors = vec![
            OmegaLc::new(NodeId(0), true, secs(0)),
            OmegaLc::new(NodeId(1), true, secs(5)),
            OmegaLc::new(NodeId(2), true, secs(10)),
        ];
        for _ in 0..2 {
            exchange(&mut electors, secs(11));
        }
        assert_eq!(electors[1].leader(), Some(NodeId(0)));

        // Node 0 crashes: the survivors suspect it and re-exchange.
        let mut survivors: Vec<OmegaLc> = electors.drain(1..).collect();
        for elector in survivors.iter_mut() {
            assert_eq!(
                elector.on_suspect(NodeId(0), secs(12)),
                Some(0),
                "suspicion of a known peer produces an accusation"
            );
        }
        for _ in 0..2 {
            exchange(&mut survivors, secs(12));
        }
        for elector in &survivors {
            assert_eq!(elector.leader(), Some(NodeId(1)));
        }
    }

    #[test]
    fn forwarding_preserves_leader_through_a_crashed_link() {
        // Node 2 cannot hear the leader (node 0) directly, but node 1 keeps
        // claiming node 0 as its local leader; node 2 must keep following
        // node 0 (this is the mechanism behind Figure 7's S2 robustness).
        let mut n2 = OmegaLc::new(NodeId(2), true, secs(0));
        n2.on_alive(
            NodeId(1),
            payload(secs(0), 0, Some((NodeId(0), secs(0)))),
            secs(1),
        );
        // Node 2 has never heard node 0 directly (link crashed), so its local
        // leader is node 1... but the forwarded claim wins globally.
        assert_eq!(n2.leader(), Some(NodeId(0)));

        // Even after node 2 explicitly suspects node 0 (it cannot hear it),
        // the forwarded claim keeps node 0 elected.
        assert_eq!(
            n2.on_suspect(NodeId(0), secs(2)),
            None,
            "node 0 was never directly heard, nothing to accuse"
        );
        assert_eq!(n2.leader(), Some(NodeId(0)));
    }

    #[test]
    fn valid_accusation_demotes_and_bumps_epoch() {
        let mut leader = OmegaLc::new(NodeId(0), true, secs(0));
        let mut other = OmegaLc::new(NodeId(1), true, secs(5));
        let mut both = vec![leader.clone(), other.clone()];
        exchange(&mut both, secs(6));
        leader = both.remove(0);
        other = both.remove(0);
        assert_eq!(other.leader(), Some(NodeId(0)));

        // A process that lost contact with the leader accuses it with the
        // epoch it last saw (0). The leader accepts and re-ranks itself.
        leader.on_accusation(0, secs(100));
        assert_eq!(leader.accusation_time(), secs(100));
        assert_eq!(leader.epoch(), 1);
        // A second, duplicate accusation for the stale epoch is ignored.
        leader.on_accusation(0, secs(200));
        assert_eq!(leader.accusation_time(), secs(100));

        // Once the demoted leader's new accusation time propagates, the other
        // process takes over.
        other.on_alive(NodeId(0), leader.alive_payload(), secs(101));
        let mut pair = vec![leader, other];
        exchange(&mut pair, secs(101));
        assert_eq!(pair[0].leader(), Some(NodeId(1)));
        assert_eq!(pair[1].leader(), Some(NodeId(1)));
    }

    #[test]
    fn non_candidate_follows_but_never_leads() {
        let mut observer = OmegaLc::new(NodeId(9), false, secs(0));
        assert_eq!(observer.leader(), None);
        assert!(!observer.is_competing());
        observer.on_alive(NodeId(3), payload(secs(1), 0, None), secs(2));
        assert_eq!(observer.leader(), Some(NodeId(3)));
        // Its own payload never claims itself.
        assert_eq!(
            observer.alive_payload().local_leader.unwrap().node,
            NodeId(3)
        );
    }

    #[test]
    fn suspected_then_trusted_peer_counts_again() {
        let mut elector = OmegaLc::new(NodeId(5), true, secs(10));
        elector.on_alive(NodeId(1), payload(secs(0), 0, None), secs(11));
        assert_eq!(elector.leader(), Some(NodeId(1)));
        elector.on_suspect(NodeId(1), secs(12));
        assert_eq!(elector.leader(), Some(NodeId(5)));
        elector.on_trust(NodeId(1), secs(13));
        assert_eq!(elector.leader(), Some(NodeId(1)));
        elector.remove_peer(NodeId(1), secs(14));
        assert_eq!(elector.leader(), Some(NodeId(5)));
    }
}
