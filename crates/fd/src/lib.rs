//! # sle-fd — the Chen-Toueg-Aguilera failure detector with QoS
//!
//! Failure detection is at the core of the leader-election service of
//! Schiper & Toueg (DSN 2008): it decides when the current leader must be
//! replaced and which candidates are operational. This crate implements the
//! stochastic failure detector of Chen et al. ("On the Quality of Service of
//! Failure Detectors", IEEE ToC 2002) exactly as it is used by the service
//! (paper Section 3). Figure 1 is one pipeline of three modules, and these
//! are the only three here — one measurement path, one search, one place
//! where (η, δ) move:
//!
//! * [`quality`] — the Link Quality Estimator (`p_L`, `E[D]`, `S[D]` and the
//!   delay tail), fed once per heartbeat,
//! * [`config`] — the Failure Detector Configurator computing the heartbeat
//!   interval η and timeout shift δ from the QoS, the link estimate and the
//!   join's [`TuningPolicy`]: the paper's static one (η + δ pinned to
//!   `T_D^U`) or the adaptive one (η + δ as small as the measured link
//!   allows, never above `T_D^U`),
//! * [`monitor`] — the NFD-S freshness monitor: one operating point
//!   (η, δ) per peer and QoS class, which re-runs the configurator when
//!   the estimate moves, and per group its opinion of the peer.
//!
//! The pipeline runs on the one clock that changes its input: a heartbeat
//! recorded in [`PeerTable::record`]. A check never moves (η, δ).
//!
//! Around them: [`qos`] is the application-facing QoS triple
//! `(T_D^U, T_MR^L, P_A^L)`, [`peers`] the per-workstation [`PeerTable`]
//! that keeps one estimator per peer and one operating point per QoS class
//! of it, however many groups (under whichever policies) monitor it, owned
//! by the service instance and lent to every detector call, and
//! [`detector`] a group's QoS and policy ([`GroupDetector`]) — the class its
//! monitors read. The service keeps each group's [`PeerMonitor`] in the
//! group's row for the peer — trust, vouch and horizon, 16 bytes — and
//! checks them one peer at a time from its per-peer timers. The standalone
//! [`FailureDetector`] is one group with its own monitors over a private
//! table.
//!
//! ## Example
//!
//! ```
//! use sle_fd::prelude::*;
//! use sle_sim::time::{SimDuration, SimInstant};
//! use sle_sim::actor::NodeId;
//!
//! let mut fd = FailureDetector::new(QosSpec::paper_default());
//! let mut now = SimInstant::ZERO;
//! fd.ensure_peer(NodeId(1), now);
//!
//! // Regular heartbeats keep the peer trusted...
//! for seq in 0..20u64 {
//!     now = now + SimDuration::from_millis(250);
//!     fd.on_heartbeat(NodeId(1), seq, now, SimDuration::from_millis(250), now);
//!     assert!(fd.poll(now).is_empty());
//! }
//! // ...silence gets it suspected within the detection bound.
//! let transitions = fd.poll(now + SimDuration::from_secs(2));
//! assert_eq!(transitions.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod detector;
pub mod monitor;
pub mod peers;
pub mod qos;
pub mod quality;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::config::{configure, FdParams, TuningPolicy};
    pub use crate::detector::{FailureDetector, GroupDetector, PeerTransition, Wake};
    pub use crate::monitor::{PeerMonitor, Transition, TrustState};
    pub use crate::peers::PeerTable;
    pub use crate::qos::{QosError, QosSpec};
    pub use crate::quality::{LinkQuality, LinkQualityEstimator};
}

pub use config::{configure, default_interval, FdParams, TuningPolicy, MIN_INTERVAL};
pub use detector::{FailureDetector, GroupDetector, PeerTransition, Wake};
pub use monitor::{PeerMonitor, Transition, TrustState};
pub use peers::PeerTable;
pub use qos::{QosError, QosSpec};
pub use quality::{LinkQuality, LinkQualityEstimator};
