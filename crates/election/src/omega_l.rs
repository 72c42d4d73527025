//! Ωl — the communication-efficient algorithm of service **S3** (paper
//! Section 6.4).
//!
//! As in Ωlc, candidates are ranked by `(accusation time, id)`. The
//! difference is how the set of *competing* processes is kept small:
//!
//! * a process p considers q a competitor only if p receives ALIVE messages
//!   directly from q (there is no forwarding stage);
//! * as soon as p sees a competitor with a better rank than its own, p
//!   voluntarily drops out of the competition by ceasing to send ALIVE
//!   messages; it re-enters (and resumes sending) when no better-ranked
//!   competitor is visible any more — e.g. after the leader crashes.
//!
//! Eventually only the leader keeps sending ALIVEs, so the steady-state
//! message cost is linear in the group size (Figure 6). The price is paid
//! under crash-prone links (Figure 7): when a process loses contact with the
//! leader it accuses it, re-enters the competition and the whole group has
//! to re-discover each other's ranks, which takes several seconds.
//!
//! A process that stopped sending ALIVEs will, of course, be suspected by
//! the others. The algorithm "includes a mechanism to ensure that such false
//! suspicions do not increase p's accusation time": here, every voluntary
//! drop-out (and every re-entry) advances the process's accusation *epoch*,
//! and accusations are only honoured when they reference the current epoch —
//! so suspicions caused by voluntary silence are ignored, while suspicions of
//! a process that is actively sending still count.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

use crate::elector::{LeaderElector, PeerTable};
use crate::types::{AlivePayload, ElectorKind, Rank};

/// The Ωl elector state for one node and one group.
#[derive(Debug, Clone)]
pub struct OmegaL {
    me: NodeId,
    candidate: bool,
    accusation_time: SimInstant,
    epoch: u64,
    active: bool,
    peers: PeerTable,
}

impl OmegaL {
    /// Creates the elector for node `me`, which is a leadership candidate iff
    /// `candidate` is true, starting (joining the group) at `now`.
    ///
    /// A candidate starts active (competing); it will withdraw as soon as it
    /// observes a better-ranked competitor.
    pub fn new(me: NodeId, candidate: bool, now: SimInstant) -> Self {
        Self::new_with_epoch(me, candidate, now, 0)
    }

    /// Like [`OmegaL::new`], but starting the accusation epoch at `epoch`
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
        OmegaL {
            me,
            candidate,
            accusation_time: now,
            epoch,
            active: candidate,
            peers: PeerTable::new(),
        }
    }

    fn my_rank(&self) -> Rank {
        Rank::new(self.accusation_time, self.me)
    }

    /// Re-evaluates whether this node should be competing, after any input
    /// that may have changed the picture.
    fn reevaluate(&mut self) {
        if !self.candidate {
            self.active = false;
            return;
        }
        let better_exists = self
            .peers
            .best_trusted_rank()
            .map(|best| best < self.my_rank())
            .unwrap_or(false);
        if self.active && better_exists {
            // Withdraw: a better candidate is visible. Advancing the epoch
            // means the suspicions our silence will trigger cannot raise our
            // accusation time.
            self.active = false;
            self.epoch += 1;
        } else if !self.active && !better_exists {
            // Re-enter the competition (e.g. the leader crashed).
            self.active = true;
            self.epoch += 1;
        }
    }
}

impl LeaderElector for OmegaL {
    fn kind(&self) -> ElectorKind {
        ElectorKind::OmegaL
    }

    fn id(&self) -> NodeId {
        self.me
    }

    fn is_candidate(&self) -> bool {
        self.candidate
    }

    fn is_competing(&self) -> bool {
        self.candidate && self.active
    }

    fn accusation_time(&self) -> SimInstant {
        self.accusation_time
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn leader(&self) -> Option<NodeId> {
        let best_peer = self.peers.best_trusted_rank();
        let own = if self.is_competing() {
            Some(self.my_rank())
        } else {
            None
        };
        match (best_peer, own) {
            (Some(a), Some(b)) => Some(a.min(b).id),
            (Some(a), None) => Some(a.id),
            (None, Some(b)) => Some(b.id),
            (None, None) => None,
        }
    }

    fn alive_payload(&self) -> AlivePayload {
        AlivePayload {
            accusation_time: self.accusation_time,
            epoch: self.epoch,
            local_leader: None,
        }
    }

    fn on_alive(&mut self, from: NodeId, payload: AlivePayload, _now: SimInstant) {
        self.peers.record_alive(from, payload);
        self.reevaluate();
    }

    fn on_accusation(&mut self, epoch: u64, now: SimInstant) {
        // Only honour accusations that reference the current epoch *and*
        // arrive while we are actively sending: suspicions provoked by a
        // voluntary withdrawal carry a stale epoch and are ignored.
        if self.active && epoch == self.epoch {
            self.accusation_time = now;
            self.epoch += 1;
            self.reevaluate();
        }
    }

    fn on_trust(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.mark_trusted(peer);
        self.reevaluate();
    }

    fn on_suspect(&mut self, peer: NodeId, _now: SimInstant) -> Option<u64> {
        let accuse_at = self.peers.mark_suspected(peer);
        self.reevaluate();
        accuse_at
    }

    fn remove_peer(&mut self, peer: NodeId, _now: SimInstant) {
        self.peers.remove(peer);
        self.reevaluate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    fn secs(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    /// One round of the service's behaviour: every *competing* elector's
    /// payload is delivered to every other elector.
    fn exchange(electors: &mut [OmegaL], now: SimInstant) {
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
    fn losers_withdraw_until_only_the_leader_competes() {
        let mut electors = vec![
            OmegaL::new(NodeId(0), true, secs(0)),
            OmegaL::new(NodeId(1), true, secs(1)),
            OmegaL::new(NodeId(2), true, secs(2)),
        ];
        assert!(electors.iter().all(|e| e.is_competing()));
        for _ in 0..3 {
            exchange(&mut electors, secs(3));
        }
        // Node 0 (earliest accusation time) leads; the others have withdrawn.
        assert!(electors[0].is_competing());
        assert!(!electors[1].is_competing());
        assert!(!electors[2].is_competing());
        for elector in &electors {
            assert_eq!(elector.leader(), Some(NodeId(0)));
        }
    }

    #[test]
    fn voluntary_silence_does_not_raise_accusation_time() {
        let mut loser = OmegaL::new(NodeId(1), true, secs(5));
        let acc_before = loser.accusation_time();
        // Seeing a better candidate makes it withdraw and bump its epoch.
        loser.on_alive(
            NodeId(0),
            AlivePayload {
                accusation_time: secs(0),
                epoch: 0,
                local_leader: None,
            },
            secs(6),
        );
        assert!(!loser.is_competing());
        let old_epoch_seen_by_others = 0;
        // Other processes now suspect it (it went silent) and accuse it with
        // the epoch they last saw — which is stale, so nothing changes.
        loser.on_accusation(old_epoch_seen_by_others, secs(10));
        assert_eq!(loser.accusation_time(), acc_before);
    }

    #[test]
    fn accusation_while_active_demotes() {
        let mut leader = OmegaL::new(NodeId(0), true, secs(0));
        assert!(leader.is_competing());
        let epoch = leader.epoch();
        leader.on_accusation(epoch, secs(50));
        assert_eq!(leader.accusation_time(), secs(50));
        assert!(leader.epoch() > epoch);
        // With no visible competitor it keeps competing (it may still be the
        // best candidate), but its rank is now worse than any veteran's.
        assert!(leader.is_competing());
    }

    #[test]
    fn leader_crash_triggers_reentry_and_new_leader() {
        let mut electors = vec![
            OmegaL::new(NodeId(0), true, secs(0)),
            OmegaL::new(NodeId(1), true, secs(1)),
            OmegaL::new(NodeId(2), true, secs(2)),
        ];
        for _ in 0..3 {
            exchange(&mut electors, secs(3));
        }
        // Nodes 1 and 2 went silent after withdrawing, so (as in a real run)
        // their detectors suspect each other; these suspicions are harmless.
        {
            let (left, right) = electors.split_at_mut(2);
            left[1].on_suspect(NodeId(2), secs(5));
            right[0].on_suspect(NodeId(1), secs(5));
        }
        // Node 0 crashes; the survivors' detectors eventually suspect it.
        let mut survivors: Vec<OmegaL> = electors.drain(1..).collect();
        for elector in survivors.iter_mut() {
            elector.on_suspect(NodeId(0), secs(10));
        }
        // Both re-enter the competition...
        assert!(survivors.iter().all(|e| e.is_competing()));
        // ...and after exchanging ALIVEs the earliest-ranked (node 1) wins,
        // while node 2 withdraws again.
        for _ in 0..3 {
            exchange(&mut survivors, secs(11));
        }
        assert_eq!(survivors[0].leader(), Some(NodeId(1)));
        assert_eq!(survivors[1].leader(), Some(NodeId(1)));
        assert!(survivors[0].is_competing());
        assert!(!survivors[1].is_competing());
    }

    #[test]
    fn rejoining_process_does_not_demote_leader() {
        let mut electors = vec![
            OmegaL::new(NodeId(1), true, secs(0)),
            OmegaL::new(NodeId(2), true, secs(0)),
        ];
        for _ in 0..2 {
            exchange(&mut electors, secs(1));
        }
        assert_eq!(electors[0].leader(), Some(NodeId(1)));

        // Node 0 recovers from a crash and joins with a later accusation
        // time: it must observe node 1's ALIVEs and withdraw, leaving the
        // leadership untouched.
        electors.push(OmegaL::new(NodeId(0), true, secs(300)));
        for _ in 0..3 {
            exchange(&mut electors, secs(301));
        }
        for elector in &electors {
            assert_eq!(elector.leader(), Some(NodeId(1)));
        }
        assert!(!electors[2].is_competing());
    }

    #[test]
    fn non_candidate_never_competes_but_follows() {
        let mut observer = OmegaL::new(NodeId(7), false, secs(0));
        assert!(!observer.is_competing());
        assert_eq!(observer.leader(), None);
        observer.on_alive(
            NodeId(2),
            AlivePayload {
                accusation_time: secs(1),
                epoch: 0,
                local_leader: None,
            },
            secs(2),
        );
        assert_eq!(observer.leader(), Some(NodeId(2)));
        assert!(!observer.is_competing());
        // Losing the leader leaves it leaderless (it cannot lead itself).
        observer.on_suspect(NodeId(2), secs(5));
        assert_eq!(observer.leader(), None);
    }

    #[test]
    fn withdrawn_process_reenters_when_better_peer_disappears() {
        let mut elector = OmegaL::new(NodeId(3), true, secs(10));
        elector.on_alive(
            NodeId(1),
            AlivePayload {
                accusation_time: secs(0),
                epoch: 4,
                local_leader: None,
            },
            secs(11),
        );
        assert!(!elector.is_competing());
        let epoch_after_withdraw = elector.epoch();

        assert_eq!(elector.on_suspect(NodeId(1), secs(20)), Some(4));
        // A repeated suspicion of the same peer accuses nothing more.
        assert_eq!(elector.on_suspect(NodeId(1), secs(21)), None);
        assert!(elector.is_competing());
        assert!(elector.epoch() > epoch_after_withdraw);
        assert_eq!(elector.leader(), Some(NodeId(3)));
    }
}
