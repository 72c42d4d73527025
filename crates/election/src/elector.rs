//! The interface between the service and its elector, plus the elector's
//! peer bookkeeping.
//!
//! An elector instance lives at one service node, for one group. It is
//! driven entirely by the service layer: ALIVE payloads and accusations it
//! receives, trust/suspect notifications from the failure detector, and
//! membership updates from the Group Maintenance module. In return it
//! answers two questions — *who is the leader?* and *should this node be
//! sending ALIVE messages right now?* — and occasionally asks for an
//! accusation message to be sent.

use sle_sim::actor::NodeId;
use sle_sim::dense::insert_tight;
use sle_sim::time::SimInstant;

use crate::types::{AlivePayload, ElectorKind, Rank};

/// Leader-election algorithm driven by the service layer, implemented by
/// [`AnyElector`](crate::any::AnyElector) for all three kinds.
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

/// What an elector knows about one remote candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerState {
    /// Latest election payload received from the peer.
    pub payload: AlivePayload,
    /// Whether the failure detector currently trusts the peer.
    pub trusted: bool,
}

impl PeerState {
    /// The peer's rank according to its latest payload.
    pub fn rank(&self, id: NodeId) -> Rank {
        self.payload.rank_of(id)
    }
}

/// Shared bookkeeping of remote candidates: their latest payloads and
/// whether the failure detector currently trusts them.
///
/// Stored as a vector sorted by peer id: the table is consulted on every
/// ALIVE payload a group applies (`record_alive` + a `best_trusted_rank`
/// scan), and group fan-out bounds its size, so binary search over
/// contiguous `Copy` entries beats a node-per-entry tree both on lookups
/// and on the scan.
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    peers: Vec<(NodeId, PeerState)>,
    /// Incrementally maintained minimum trusted rank. The electors consult
    /// [`PeerTable::best_trusted_rank`] on every applied ALIVE payload
    /// (often several times: re-evaluation plus leader queries), so the
    /// steady-state path must not rescan the table. Mutations either fold
    /// their change into the cached minimum or, when the current minimum
    /// may have *worsened* (the best peer re-ranked, got suspected or
    /// removed), mark it dirty for a lazy rescan.
    best: std::cell::Cell<BestRank>,
}

/// Cache state for [`PeerTable`]'s minimum trusted rank.
#[derive(Debug, Clone, Copy, Default)]
enum BestRank {
    /// Unknown: the next query rescans the table.
    #[default]
    Dirty,
    /// Known minimum trusted rank (`None` = no trusted peers).
    Known(Option<Rank>),
}

impl PeerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&peer, |&(p, _)| p)
    }

    /// Folds a newly trusted rank into the cached minimum (a new contender
    /// can only improve or preserve the minimum, never worsen it).
    #[inline]
    fn cache_add(&self, rank: Rank) {
        if let BestRank::Known(best) = self.best.get() {
            let merged = best.map_or(rank, |b| b.min(rank));
            self.best.set(BestRank::Known(Some(merged)));
        }
    }

    /// Invalidates the cached minimum if `rank` might be it.
    #[inline]
    fn cache_drop(&self, rank: Rank) {
        if let BestRank::Known(Some(best)) = self.best.get() {
            if rank <= best {
                self.best.set(BestRank::Dirty);
            }
        }
    }

    /// Records an ALIVE payload from `peer` (implies the peer is trusted).
    pub fn record_alive(&mut self, peer: NodeId, payload: AlivePayload) {
        let state = PeerState {
            payload,
            trusted: true,
        };
        let new_rank = state.rank(peer);
        match self.find(peer) {
            Ok(i) => {
                let old = self.peers[i].1;
                self.peers[i].1 = state;
                let old_rank = old.rank(peer);
                if old.trusted && new_rank != old_rank {
                    // The peer re-ranked: if it held the minimum, the
                    // minimum may have worsened.
                    self.cache_drop(old_rank);
                }
                self.cache_add(new_rank);
            }
            Err(i) => {
                insert_tight(&mut self.peers, i, (peer, state));
                self.cache_add(new_rank);
            }
        }
    }

    /// Marks `peer` as trusted (without new payload information).
    pub fn mark_trusted(&mut self, peer: NodeId) {
        if let Ok(i) = self.find(peer) {
            self.peers[i].1.trusted = true;
            self.cache_add(self.peers[i].1.rank(peer));
        }
    }

    /// Marks `peer` as suspected. Returns the epoch last advertised by the
    /// peer if it was previously trusted (the epoch an accusation should
    /// reference), or `None` if the peer was unknown or already suspected.
    pub fn mark_suspected(&mut self, peer: NodeId) -> Option<u64> {
        match self.find(peer) {
            Ok(i) if self.peers[i].1.trusted => {
                self.peers[i].1.trusted = false;
                self.cache_drop(self.peers[i].1.rank(peer));
                Some(self.peers[i].1.payload.epoch)
            }
            _ => None,
        }
    }

    /// Forgets everything about `peer`.
    pub fn remove(&mut self, peer: NodeId) {
        if let Ok(i) = self.find(peer) {
            let (_, state) = self.peers.remove(i);
            if state.trusted {
                self.cache_drop(state.rank(peer));
            }
        }
    }

    /// The state recorded for `peer`, if any.
    pub fn get(&self, peer: NodeId) -> Option<&PeerState> {
        self.find(peer).ok().map(|i| &self.peers[i].1)
    }

    /// Iterates over the peers currently trusted, with their states, in
    /// ascending peer-id order.
    pub fn trusted(&self) -> impl Iterator<Item = (NodeId, &PeerState)> + '_ {
        self.peers
            .iter()
            .filter(|(_, s)| s.trusted)
            .map(|(id, s)| (*id, s))
    }

    /// The best (minimum) rank among trusted peers, if any.
    ///
    /// O(1) while the incremental cache is clean; a mutation that may have
    /// worsened the minimum triggers one O(peers) rescan here.
    pub fn best_trusted_rank(&self) -> Option<Rank> {
        match self.best.get() {
            BestRank::Known(best) => best,
            BestRank::Dirty => {
                let best = self.trusted().map(|(id, s)| s.rank(id)).min();
                self.best.set(BestRank::Known(best));
                best
            }
        }
    }

    /// Number of peers known (trusted or not).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Returns true if no peers are known.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    fn payload(acc_secs: u64, epoch: u64) -> AlivePayload {
        AlivePayload {
            accusation_time: SimInstant::ZERO + SimDuration::from_secs(acc_secs),
            epoch,
            local_leader: None,
        }
    }

    #[test]
    fn record_alive_marks_trusted_and_updates_payload() {
        let mut table = PeerTable::new();
        assert!(table.is_empty());
        table.record_alive(NodeId(1), payload(0, 1));
        assert_eq!(table.len(), 1);
        let state = table.get(NodeId(1)).unwrap();
        assert!(state.trusted);
        assert_eq!(state.payload.epoch, 1);

        table.record_alive(NodeId(1), payload(5, 2));
        let state = table.get(NodeId(1)).unwrap();
        assert_eq!(state.payload.epoch, 2);
    }

    #[test]
    fn mark_suspected_returns_epoch_once() {
        let mut table = PeerTable::new();
        table.record_alive(NodeId(1), payload(0, 7));
        assert_eq!(table.mark_suspected(NodeId(1)), Some(7));
        // Already suspected: no second accusation epoch.
        assert_eq!(table.mark_suspected(NodeId(1)), None);
        // Unknown peer: nothing to accuse.
        assert_eq!(table.mark_suspected(NodeId(9)), None);
        // Trusting again re-arms the accusation.
        table.mark_trusted(NodeId(1));
        assert_eq!(table.mark_suspected(NodeId(1)), Some(7));
    }

    #[test]
    fn best_trusted_rank_ignores_suspected_peers() {
        let mut table = PeerTable::new();
        table.record_alive(NodeId(3), payload(0, 0));
        table.record_alive(NodeId(5), payload(10, 0));
        assert_eq!(
            table.best_trusted_rank(),
            Some(Rank::new(SimInstant::ZERO, NodeId(3)))
        );
        table.mark_suspected(NodeId(3));
        assert_eq!(
            table.best_trusted_rank(),
            Some(Rank::new(
                SimInstant::ZERO + SimDuration::from_secs(10),
                NodeId(5)
            ))
        );
        table.mark_suspected(NodeId(5));
        assert_eq!(table.best_trusted_rank(), None);
    }

    #[test]
    fn remove_forgets_peer() {
        let mut table = PeerTable::new();
        table.record_alive(NodeId(1), payload(0, 0));
        table.remove(NodeId(1));
        assert!(table.get(NodeId(1)).is_none());
        assert_eq!(table.trusted().count(), 0);
    }

    /// The incremental best-rank cache must agree with a full rescan after
    /// every kind of mutation, including the ones that can only *worsen*
    /// the minimum (re-rank, suspicion, removal of the best peer).
    #[test]
    fn best_rank_cache_matches_rescan_across_mutations() {
        let mut table = PeerTable::new();
        let rescan = |t: &PeerTable| t.trusted().map(|(id, s)| s.rank(id)).min();

        table.record_alive(NodeId(3), payload(5, 0));
        table.record_alive(NodeId(1), payload(9, 0));
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // A better newcomer folds into the cached minimum.
        table.record_alive(NodeId(2), payload(1, 0));
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // The best peer re-ranks itself worse: the minimum must move back
        // to another peer, not stay pinned at the stale cached value.
        table.record_alive(NodeId(2), payload(20, 1));
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // Suspecting the current best drops it from the minimum.
        let best_id = table.best_trusted_rank().unwrap().id;
        table.mark_suspected(best_id);
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // Re-trusting it restores it.
        table.mark_trusted(best_id);
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // Removing the best peer recomputes from the survivors.
        let best_id = table.best_trusted_rank().unwrap().id;
        table.remove(best_id);
        assert_eq!(table.best_trusted_rank(), rescan(&table));

        // Steady state: repeated identical payloads keep cache and rescan
        // in agreement without drift.
        for _ in 0..3 {
            table.record_alive(NodeId(3), payload(5, 0));
            assert_eq!(table.best_trusted_rank(), rescan(&table));
        }
    }
}
