//! # sle-election — the stable leader-election algorithms
//!
//! This crate implements the three leader-election algorithms evaluated in
//! Schiper & Toueg (DSN 2008) as one sans-io state machine,
//! [`GroupElector`], one instance per `(node, group)` pair, driven by the
//! service layer in `sle-core`. It keeps no peers: the service lends each
//! rule the group's rows, the peers its failure detector trusts with the
//! payload each last sent. The algorithms differ in three rules, each a
//! branch on [`ElectorKind`] (see [`any`]):
//!
//! | Service | Kind | Behaviour |
//! |---------|------|-----------|
//! | S1 | [`ElectorKind::OmegaId`] | smallest identifier among alive candidates — the unstable baseline |
//! | S2 | [`ElectorKind::OmegaLc`] | accusation-time ranking + local-leader forwarding — tolerates lossy **and** crashed links, quadratic messages |
//! | S3 | [`ElectorKind::OmegaL`] | accusation-time ranking + voluntary withdrawal — communication-efficient (eventually only the leader sends) |
//!
//! [`AnyElector`] is the standalone elector: a [`GroupElector`] over its own
//! list of the peers it heard, driven through the [`elector::LeaderElector`]
//! trait.
//!
//! ## Example
//!
//! ```
//! use sle_election::prelude::*;
//! use sle_sim::actor::NodeId;
//! use sle_sim::time::{SimDuration, SimInstant};
//!
//! let t0 = SimInstant::ZERO;
//! let kind = ElectorKind::OmegaLc;
//! // A veteran candidate and a freshly recovered one.
//! let veteran = AnyElector::new(kind, NodeId(7), true, t0);
//! let mut newcomer = AnyElector::new(kind, NodeId(1), true, t0 + SimDuration::from_secs(60));
//!
//! // The newcomer hears the veteran's ALIVE and, despite its smaller id,
//! // follows the veteran: the leadership is stable.
//! newcomer.on_alive(NodeId(7), veteran.alive_payload(), t0 + SimDuration::from_secs(61));
//! assert_eq!(newcomer.leader(), Some(NodeId(7)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod any;
pub mod elector;
pub mod types;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::any::{AnyElector, GroupElector};
    pub use crate::elector::LeaderElector;
    pub use crate::types::{AlivePayload, ElectorKind, LeaderClaim, Rank};
}

pub use any::{AnyElector, GroupElector};
pub use elector::LeaderElector;
pub use types::{AlivePayload, ElectorKind, LeaderClaim, Rank};

// Each algorithm's unit tests, in a module named after the algorithm.

/// Ωid (S1): the smallest identifier heard leads.
#[cfg(test)]
mod omega_id {
    mod tests {
        use sle_sim::actor::NodeId;
        use sle_sim::time::{SimDuration, SimInstant};

        use crate::{AlivePayload, AnyElector, ElectorKind, LeaderElector};
        use ElectorKind::OmegaId;

        fn payload(at: SimInstant) -> AlivePayload {
            AlivePayload {
                accusation_time: at,
                epoch: 0,
                local_leader: None,
            }
        }

        #[test]
        fn lone_candidate_leads_itself() {
            let elector = AnyElector::new(OmegaId, NodeId(3), true, SimInstant::ZERO);
            assert_eq!(elector.leader(), Some(NodeId(3)));
            assert_eq!(elector.kind(), ElectorKind::OmegaId);
            assert!(elector.is_competing());
            assert_eq!(elector.epoch(), 0);
        }

        #[test]
        fn non_candidate_without_peers_has_no_leader() {
            let elector = AnyElector::new(OmegaId, NodeId(3), false, SimInstant::ZERO);
            assert_eq!(elector.leader(), None);
            assert!(!elector.is_competing());
            assert!(!elector.is_candidate());
        }

        #[test]
        fn smallest_known_id_wins() {
            let mut elector = AnyElector::new(OmegaId, NodeId(5), true, SimInstant::ZERO);
            let now = SimInstant::ZERO + SimDuration::from_millis(10);
            elector.on_alive(NodeId(8), payload(SimInstant::ZERO), now);
            assert_eq!(elector.leader(), Some(NodeId(5)));
            elector.on_alive(NodeId(2), payload(SimInstant::ZERO), now);
            assert_eq!(elector.leader(), Some(NodeId(2)));
        }

        #[test]
        fn suspected_leader_is_replaced_by_next_smallest() {
            let mut elector = AnyElector::new(OmegaId, NodeId(5), true, SimInstant::ZERO);
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
            let mut elector = AnyElector::new(OmegaId, NodeId(5), true, SimInstant::ZERO);
            let now = SimInstant::ZERO + SimDuration::from_secs(100);
            assert_eq!(elector.leader(), Some(NodeId(5)));
            elector.on_alive(NodeId(1), payload(now), now);
            assert_eq!(elector.leader(), Some(NodeId(1)));
        }

        #[test]
        fn removed_peer_no_longer_counts() {
            let mut elector = AnyElector::new(OmegaId, NodeId(5), true, SimInstant::ZERO);
            let now = SimInstant::ZERO;
            elector.on_alive(NodeId(1), payload(now), now);
            assert_eq!(elector.leader(), Some(NodeId(1)));
            elector.remove_peer(NodeId(1), now);
            assert_eq!(elector.leader(), Some(NodeId(5)));
        }

        #[test]
        fn accusations_are_ignored() {
            let mut elector = AnyElector::new(OmegaId, NodeId(5), true, SimInstant::ZERO);
            let before = elector.accusation_time();
            elector.on_accusation(0, SimInstant::ZERO + SimDuration::from_secs(9));
            assert_eq!(elector.accusation_time(), before);
            assert_eq!(elector.alive_payload().accusation_time, before);
        }
    }
}

/// Ωlc (S2): accusation-time ranking with local-leader forwarding.
#[cfg(test)]
mod omega_lc {
    mod tests {
        use sle_sim::actor::NodeId;

        use crate::any::tests::{exchange, payload, secs};
        use crate::{AnyElector, ElectorKind, LeaderElector};
        use ElectorKind::OmegaLc;

        #[test]
        fn earliest_accusation_time_wins_not_smallest_id() {
            let mut electors = vec![
                AnyElector::new(OmegaLc, NodeId(0), true, secs(10)),
                AnyElector::new(OmegaLc, NodeId(1), true, secs(0)), // oldest member
                AnyElector::new(OmegaLc, NodeId(2), true, secs(20)),
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
                AnyElector::new(OmegaLc, NodeId(1), true, secs(0)),
                AnyElector::new(OmegaLc, NodeId(2), true, secs(0)),
            ];
            exchange(&mut electors, secs(1));
            assert_eq!(electors[0].leader(), Some(NodeId(1)));

            let rejoined = AnyElector::new(OmegaLc, NodeId(0), true, secs(500));
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
                AnyElector::new(OmegaLc, NodeId(0), true, secs(0)),
                AnyElector::new(OmegaLc, NodeId(1), true, secs(5)),
                AnyElector::new(OmegaLc, NodeId(2), true, secs(10)),
            ];
            for _ in 0..2 {
                exchange(&mut electors, secs(11));
            }
            assert_eq!(electors[1].leader(), Some(NodeId(0)));

            // Node 0 crashes: the survivors suspect it and re-exchange.
            let mut survivors: Vec<AnyElector> = electors.drain(1..).collect();
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
            let mut n2 = AnyElector::new(OmegaLc, NodeId(2), true, secs(0));
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
            let mut leader = AnyElector::new(OmegaLc, NodeId(0), true, secs(0));
            let mut other = AnyElector::new(OmegaLc, NodeId(1), true, secs(5));
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
            let mut observer = AnyElector::new(OmegaLc, NodeId(9), false, secs(0));
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
            let mut elector = AnyElector::new(OmegaLc, NodeId(5), true, secs(10));
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
}

/// Ωl (S3): accusation-time ranking with voluntary withdrawal.
#[cfg(test)]
mod omega_l {
    mod tests {
        use sle_sim::actor::NodeId;

        use crate::any::tests::{exchange, secs};
        use crate::{AlivePayload, AnyElector, ElectorKind, LeaderElector};
        use ElectorKind::OmegaL;

        #[test]
        fn losers_withdraw_until_only_the_leader_competes() {
            let mut electors = vec![
                AnyElector::new(OmegaL, NodeId(0), true, secs(0)),
                AnyElector::new(OmegaL, NodeId(1), true, secs(1)),
                AnyElector::new(OmegaL, NodeId(2), true, secs(2)),
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
            let mut loser = AnyElector::new(OmegaL, NodeId(1), true, secs(5));
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
            let mut leader = AnyElector::new(OmegaL, NodeId(0), true, secs(0));
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
                AnyElector::new(OmegaL, NodeId(0), true, secs(0)),
                AnyElector::new(OmegaL, NodeId(1), true, secs(1)),
                AnyElector::new(OmegaL, NodeId(2), true, secs(2)),
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
            let mut survivors: Vec<AnyElector> = electors.drain(1..).collect();
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
                AnyElector::new(OmegaL, NodeId(1), true, secs(0)),
                AnyElector::new(OmegaL, NodeId(2), true, secs(0)),
            ];
            for _ in 0..2 {
                exchange(&mut electors, secs(1));
            }
            assert_eq!(electors[0].leader(), Some(NodeId(1)));

            // Node 0 recovers from a crash and joins with a later accusation
            // time: it must observe node 1's ALIVEs and withdraw, leaving the
            // leadership untouched.
            electors.push(AnyElector::new(OmegaL, NodeId(0), true, secs(300)));
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
            let mut observer = AnyElector::new(OmegaL, NodeId(7), false, secs(0));
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
            let mut elector = AnyElector::new(OmegaL, NodeId(3), true, secs(10));
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
}
