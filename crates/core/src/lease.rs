//! Leader leases and fencing tokens — the application-facing safety layer.
//!
//! The election service answers "who leads?", but an application acting on
//! that answer needs two more things (the Nerio lesson from PAPERS.md):
//!
//! * a **fencing token** — a value totally ordered across *every* leadership
//!   term of the group, so a state machine can reject writes from a deposed
//!   leader however delayed they arrive, and
//! * a **lease** — a validity window derived from the failure-detection QoS
//!   bound T_D, so a leader only serves requests while its claim to the
//!   leadership is fresh.
//!
//! ## Token monotonicity
//!
//! A [`FencingToken`] orders lexicographically by
//! `(accusation_time, node, epoch, incarnation)`. Successive leaderships
//! mint strictly increasing tokens (see `docs/APP.md` for the full
//! argument):
//!
//! 1. **Distinct successive leaders.** The election ranks candidates by
//!    `(accusation_time, id)` and the *minimum* rank leads, so a successor
//!    necessarily has a strictly larger rank than the leader it replaces —
//!    and the token's two leading fields *are* the rank.
//! 2. **Same leader, re-accused.** A valid accusation sets the elector's
//!    accusation time to "now", which is later than any instant at which the
//!    previous token was minted.
//! 3. **Same leader, voluntary yield and re-win (Ωl).** Withdrawing and
//!    re-entering each bump the accusation epoch — and elector recreation
//!    preserves the epoch across listener/candidate transitions
//!    (`GroupElector::new_with_epoch`), so the epoch never moves backwards.
//!    This is exactly why the stale-epoch accusation guard in
//!    `ServiceNode::handle_accusation` is part of the fencing story: a
//!    replayed old accusation that reset the rank would forge a token
//!    collision.
//! 4. **Crash and recovery.** A recovered workstation runs a higher
//!    incarnation, and rejoins with a fresh (later) accusation time.
//!
//! ## Lease expiry and the T_D bound
//!
//! A lease is valid for the group's configured detection time T_D after its
//! last renewal, and the leader renews only while it is alive and emitting
//! ALIVEs. Under the paper's crash fault model a crashed leader therefore
//! stops renewing at its crash instant t, its last lease dies by t + T_D,
//! and no survivor's detector can complete detection — the precondition for
//! a successor's self-election — before t + T_D either. By the time a
//! successor can mint a token, every lease of the deposed leader has
//! provably expired. (Fencing tokens, not leases, carry the safety argument
//! under arbitrary message delay; the lease bound is what makes the
//! fail-over that `benchmark/`'s `app-failover` workload measures —
//! `unavailable_frac`, `app.failover_p50_ms` — a QoS-derived quantity.)
//!
//! A leader that *pauses* for longer than T_D keeps its state, so
//! `ServiceNode::renew_lease` adds a rule: a lease found expired on the
//! ALIVE tick is never renewed. The node drops it, restarts the settle
//! delay below and accuses itself — its followers' ACCUSEs may have found
//! it paused — so it neither displaces the successor on its stale rank nor
//! mints below its token.
//!
//! Two hardening rules in `ServiceNode::check_leader` close the gap the
//! election's *transient* disagreements would otherwise open (Ω guarantees
//! eventual agreement, not instantaneous):
//!
//! * **Settle delay** — a node mints only after its elector has output
//!   *itself* continuously for one full lease term T_D. Transient claimants
//!   yield before the delay elapses and never serve, so two leases are
//!   never simultaneously valid even while the electors disagree.
//! * **Out-minting** — a minted token must strictly dominate both the
//!   node's previously granted token and the highest remote grant it has
//!   observed, raising the accusation-time component past that floor if
//!   necessary. A claimant that *did* broadcast a grant (under older, more
//!   permissive builds or after pathological timing) therefore cannot fence
//!   out the rightful leader forever: the rightful leader re-mints above
//!   the observed token on its next check.

use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use crate::process::GroupId;

/// A fencing token: one totally ordered value per leadership term.
///
/// Ordering is lexicographic by field — `(accusation_time, node, epoch,
/// incarnation)` — which makes tokens of successive leaderships strictly
/// increasing (see the module docs). Wire encoding is 28 bytes (see
/// `docs/WIRE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FencingToken {
    /// The leader's accusation time — the dominant rank component of the
    /// election.
    pub accusation_time: SimInstant,
    /// The leader's node id — the rank tiebreak.
    pub node: NodeId,
    /// The leader's accusation epoch at mint time. Never resets within a
    /// node's life (elector recreation preserves it), so voluntary
    /// yield/re-win cycles still advance the token.
    pub epoch: u64,
    /// The leader's workstation incarnation (bumped on crash recovery).
    pub incarnation: u64,
}

impl FencingToken {
    /// Encoded size of a token: accusation time (8) + node (4) + epoch (8)
    /// + incarnation (8).
    pub const WIRE_SIZE: usize = 8 + 4 + 8 + 8;
}

impl std::fmt::Display for FencingToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "token({}, {}, e{}, i{})",
            self.accusation_time, self.node, self.epoch, self.incarnation
        )
    }
}

/// A leader lease: a fencing token plus the validity window it was granted
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderLease {
    /// The token this lease carries.
    pub token: FencingToken,
    /// When the lease was last minted or renewed (leader's clock).
    pub renewed_at: SimInstant,
    /// How long past `renewed_at` the lease stays valid — the group's
    /// failure-detection bound T_D.
    pub ttl: SimDuration,
}

impl LeaderLease {
    /// When this lease expires unless renewed first.
    pub fn expires_at(&self) -> SimInstant {
        self.renewed_at + self.ttl
    }

    /// Whether the lease is still valid at `now`.
    pub fn valid_at(&self, now: SimInstant) -> bool {
        now < self.expires_at()
    }
}

/// A write rejected because its fencing token is older than the acceptor's
/// high-water mark: the signature of a deposed leader's delayed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleToken {
    /// The token the rejected request carried.
    pub presented: FencingToken,
    /// The acceptor's high-water mark at rejection time.
    pub high_water: FencingToken,
}

impl std::fmt::Display for StaleToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale fencing token: presented {} < high water {}",
            self.presented, self.high_water
        )
    }
}

/// A fenced replicated state machine driven by the service.
///
/// Installing one on a [`crate::node::ServiceNode`] (via
/// [`crate::node::ServiceNode::install_app`] or
/// [`crate::runtime::ClusterHandle::install_app`]) makes the node serve
/// `ClientRequest` messages while it holds a valid leader lease: each
/// accepted request is applied with the lease's fencing token, and the
/// implementation must reject tokens below its high-water mark.
pub trait FencedApp: Send + std::fmt::Debug {
    /// Applies one request under `token`, returning the resulting value.
    ///
    /// # Errors
    ///
    /// Returns [`StaleToken`] when `token` is below the high-water mark of
    /// tokens already accepted — the fencing check this trait exists for.
    fn apply(
        &mut self,
        group: GroupId,
        token: FencingToken,
        payload: u64,
    ) -> Result<u64, StaleToken>;

    /// Observes a token without a write attached (a `LeaseGrant` broadcast
    /// heard from the current leader). Implementations should advance their
    /// high-water mark so a deposed leader's delayed writes are rejected
    /// even before the new leader's first write arrives. The default is a
    /// no-op.
    fn observe_token(&mut self, group: GroupId, token: FencingToken) {
        let _ = (group, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_millis(ms)
    }

    fn token(ms: u64, node: u32, epoch: u64, incarnation: u64) -> FencingToken {
        FencingToken {
            accusation_time: at(ms),
            node: NodeId(node),
            epoch,
            incarnation,
        }
    }

    #[test]
    fn token_order_is_lexicographic() {
        // Accusation time dominates…
        assert!(token(1, 9, 9, 9) < token(2, 0, 0, 0));
        // …then node id…
        assert!(token(1, 1, 9, 9) < token(1, 2, 0, 0));
        // …then epoch…
        assert!(token(1, 1, 1, 9) < token(1, 1, 2, 0));
        // …then incarnation.
        assert!(token(1, 1, 1, 1) < token(1, 1, 1, 2));
        assert_eq!(token(1, 1, 1, 1), token(1, 1, 1, 1));
    }

    #[test]
    fn lease_expires_after_ttl() {
        let lease = LeaderLease {
            token: token(0, 1, 0, 0),
            renewed_at: at(100),
            ttl: SimDuration::from_millis(250),
        };
        assert_eq!(lease.expires_at(), at(350));
        assert!(lease.valid_at(at(100)));
        assert!(lease.valid_at(at(349)));
        assert!(!lease.valid_at(at(350)));
    }

    #[test]
    fn displays_are_informative() {
        let stale = StaleToken {
            presented: token(1, 2, 3, 4),
            high_water: token(5, 6, 7, 8),
        };
        let text = stale.to_string();
        assert!(text.contains("stale fencing token"));
        assert!(text.contains("e3"));
        assert!(text.contains("i8"));
    }
}
