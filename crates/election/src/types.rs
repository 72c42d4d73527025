//! Common types shared by the three leader-election algorithms.
//!
//! The central device for *stability* (paper Sections 6.3/6.4) is the
//! **accusation time**: each process records the last time it was (validly)
//! accused of having crashed, and candidates are ranked by
//! `(accusation time, process id)` — earliest accusation time first, ties
//! broken by the smaller identifier. A long-lived, well-behaved leader keeps
//! its early accusation time and is therefore never out-ranked by a process
//! that joined (or re-joined after a crash) later.

use sle_sim::actor::NodeId;
use sle_sim::time::SimInstant;

/// Which leader-election algorithm a service instance runs (paper Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectorKind {
    /// Ωid — the unstable baseline of service S1: leader = smallest id among
    /// the processes currently deemed alive.
    OmegaId,
    /// Ωlc — the algorithm of service S2 \[Aguilera et al.\]: accusation-time
    /// ranking with local-leader forwarding; tolerates lossy *and* crashed
    /// links at the price of quadratic communication.
    OmegaLc,
    /// Ωl — the communication-efficient algorithm of service S3: accusation
    /// time ranking where losers voluntarily leave the competition, so that
    /// eventually only the leader sends ALIVE messages.
    OmegaL,
}

impl ElectorKind {
    /// The service name used in the paper for this algorithm.
    pub fn service_name(&self) -> &'static str {
        match self {
            ElectorKind::OmegaId => "S1",
            ElectorKind::OmegaLc => "S2",
            ElectorKind::OmegaL => "S3",
        }
    }

    /// The algorithm name used in the paper.
    pub fn algorithm_name(&self) -> &'static str {
        match self {
            ElectorKind::OmegaId => "Omega_id",
            ElectorKind::OmegaLc => "Omega_lc",
            ElectorKind::OmegaL => "Omega_l",
        }
    }

    /// All implemented algorithms.
    pub fn all() -> [ElectorKind; 3] {
        [
            ElectorKind::OmegaId,
            ElectorKind::OmegaLc,
            ElectorKind::OmegaL,
        ]
    }
}

impl std::fmt::Display for ElectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.service_name(), self.algorithm_name())
    }
}

/// A candidate's rank: candidates with an *earlier* accusation time are
/// better; ties are broken by the smaller identifier.
///
/// `Ord` is defined so that the **minimum** rank is the best candidate.
///
/// ```
/// use sle_election::types::Rank;
/// use sle_sim::actor::NodeId;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let veteran = Rank::new(SimInstant::ZERO, NodeId(7));
/// let newcomer = Rank::new(SimInstant::ZERO + SimDuration::from_secs(60), NodeId(1));
/// // The veteran wins even though its id is larger: stability.
/// assert!(veteran < newcomer);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank {
    /// The candidate's advertised accusation time.
    pub accusation_time: SimInstant,
    /// The candidate's identifier.
    pub id: NodeId,
}

impl Rank {
    /// Creates a rank from an accusation time and identifier.
    pub fn new(accusation_time: SimInstant, id: NodeId) -> Self {
        Rank {
            accusation_time,
            id,
        }
    }
}

/// A "this is my current local leader" claim forwarded inside ALIVE messages
/// by the Ωlc algorithm (the second stage of its leader selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaderClaim {
    /// The claimed leader.
    pub node: NodeId,
    /// The claimed leader's accusation time as known by the claimer.
    pub accusation_time: SimInstant,
}

impl LeaderClaim {
    /// The rank corresponding to this claim.
    pub fn rank(&self) -> Rank {
        Rank::new(self.accusation_time, self.node)
    }
}

/// The election-specific payload piggybacked on every ALIVE message.
///
/// The ALIVE messages double as failure-detector heartbeats (the FD fields —
/// sequence number, send timestamp, sending interval — are carried by the
/// enclosing service message); this payload carries what the election
/// algorithms need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlivePayload {
    /// The sender's current accusation time.
    pub accusation_time: SimInstant,
    /// The sender's current accusation epoch. An accusation names the epoch
    /// the accuser last saw, and the accused advances its accusation time
    /// only if that epoch is still its own: this protects Ωl processes that
    /// *voluntarily* stopped sending ALIVEs from having their rank ruined by
    /// the resulting (perfectly reasonable) suspicions.
    pub epoch: u64,
    /// The sender's current local leader (only meaningful for Ωlc).
    pub local_leader: Option<LeaderClaim>,
}

impl AlivePayload {
    /// Number of bytes this payload occupies on the wire
    /// (8 accusation-time + 8 epoch + 1 tag + 12 optional claim).
    pub fn wire_size(&self) -> usize {
        8 + 8 + 1 + if self.local_leader.is_some() { 12 } else { 0 }
    }

    /// The sender's rank according to this payload.
    pub fn rank_of(&self, sender: NodeId) -> Rank {
        Rank::new(self.accusation_time, sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    #[test]
    fn rank_orders_by_accusation_time_then_id() {
        let t0 = SimInstant::ZERO;
        let t1 = t0 + SimDuration::from_secs(1);
        let a = Rank::new(t0, NodeId(5));
        let b = Rank::new(t1, NodeId(1));
        let c = Rank::new(t0, NodeId(2));
        assert!(a < b, "earlier accusation time wins regardless of id");
        assert!(c < a, "same accusation time: smaller id wins");
        assert_eq!(a.min(c), c);
        assert_eq!(Rank::new(t0, NodeId(5)), a);
    }

    #[test]
    fn elector_kind_names_match_paper() {
        assert_eq!(ElectorKind::OmegaId.service_name(), "S1");
        assert_eq!(ElectorKind::OmegaLc.service_name(), "S2");
        assert_eq!(ElectorKind::OmegaL.service_name(), "S3");
        assert_eq!(ElectorKind::OmegaL.algorithm_name(), "Omega_l");
        assert_eq!(ElectorKind::all().len(), 3);
        assert_eq!(ElectorKind::OmegaLc.to_string(), "S2 (Omega_lc)");
    }

    #[test]
    fn payload_wire_size_accounts_for_claim() {
        let without = AlivePayload {
            accusation_time: SimInstant::ZERO,
            epoch: 0,
            local_leader: None,
        };
        let with = AlivePayload {
            local_leader: Some(LeaderClaim {
                node: NodeId(1),
                accusation_time: SimInstant::ZERO,
            }),
            ..without
        };
        assert_eq!(without.wire_size(), 17);
        assert_eq!(with.wire_size(), 29);
        assert_eq!(
            with.rank_of(NodeId(3)),
            Rank::new(SimInstant::ZERO, NodeId(3))
        );
    }

    #[test]
    fn claim_rank_round_trips() {
        let claim = LeaderClaim {
            node: NodeId(4),
            accusation_time: SimInstant::from_nanos(42),
        };
        assert_eq!(
            claim.rank(),
            Rank::new(SimInstant::from_nanos(42), NodeId(4))
        );
    }
}
