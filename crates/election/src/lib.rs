//! # sle-election — the stable leader-election algorithms
//!
//! This crate implements the three leader-election algorithms evaluated in
//! Schiper & Toueg (DSN 2008) as sans-io state machines, one instance per
//! `(node, group)` pair, driven by the service layer in `sle-core`:
//!
//! | Service | Module | Behaviour |
//! |---------|--------|-----------|
//! | S1 | [`omega_id`] | smallest identifier among alive candidates — the unstable baseline |
//! | S2 | [`omega_lc`] | accusation-time ranking + local-leader forwarding — tolerates lossy **and** crashed links, quadratic messages |
//! | S3 | [`omega_l`] | accusation-time ranking + voluntary withdrawal — communication-efficient (eventually only the leader sends) |
//!
//! The [`elector::LeaderElector`] trait is the contract between the service
//! and an algorithm, and [`any::AnyElector`] provides runtime selection, so
//! additional algorithms can be "plugged in" exactly as the paper's
//! concluding remarks suggest.
//!
//! ## Example
//!
//! ```
//! use sle_election::prelude::*;
//! use sle_sim::actor::NodeId;
//! use sle_sim::time::{SimDuration, SimInstant};
//!
//! let t0 = SimInstant::ZERO;
//! // A veteran candidate and a freshly recovered one.
//! let veteran = OmegaLc::new(NodeId(7), true, t0);
//! let mut newcomer = OmegaLc::new(NodeId(1), true, t0 + SimDuration::from_secs(60));
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
pub mod omega_id;
pub mod omega_l;
pub mod omega_lc;
pub mod types;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::any::AnyElector;
    pub use crate::elector::{LeaderElector, PeerState, PeerTable};
    pub use crate::omega_id::OmegaId;
    pub use crate::omega_l::OmegaL;
    pub use crate::omega_lc::OmegaLc;
    pub use crate::types::{AlivePayload, ElectorKind, LeaderClaim, Rank};
}

pub use any::AnyElector;
pub use elector::{LeaderElector, PeerState, PeerTable};
pub use omega_id::OmegaId;
pub use omega_l::OmegaL;
pub use omega_lc::OmegaLc;
pub use types::{AlivePayload, ElectorKind, LeaderClaim, Rank};
