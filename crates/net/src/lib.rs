//! # sle-net — network substrate for the stable leader-election service
//!
//! The DSN 2008 evaluation runs the leader-election service over networks
//! whose behaviour is controlled precisely: lossy links characterised by a
//! `(mean delay, loss probability)` pair, and crash-prone links that
//! periodically disconnect a receiver from a sender for seconds at a time.
//! This crate models those networks for the discrete-event simulator
//! (implementing [`sle_sim::Medium`]) and provides an in-process real-time
//! transport for running the service as a normal library.
//!
//! * [`link`] — per-link behaviour: [`link::LinkSpec`] (lossy links) and
//!   [`link::LinkCrashSpec`]/[`link::LinkOutageState`] (crash-prone links),
//! * [`network`] — whole-network models ([`network::NetworkModel`] /
//!   [`network::SimulatedNetwork`]) with per-link overrides and statistics,
//! * [`transport`] — the [`transport::MessageEndpoint`] abstraction the
//!   real-time runtime is generic over, and the in-memory mesh
//!   implementation of it (the UDP implementation lives in `sle-udp`),
//! * [`mailbox`] — the condvar-parked shard mailbox through which push-mode
//!   transports deliver straight to a sharded runtime's workers
//!   ([`transport::MessageEndpoint::set_delivery_sink`]).
//!
//! ## Example: the paper's harshest lossy network
//!
//! ```
//! use sle_net::link::LinkSpec;
//! use sle_net::network::NetworkModel;
//! use sle_sim::prelude::*;
//!
//! let mut net = NetworkModel::new(LinkSpec::from_paper_tuple(100.0, 0.1)).build(7);
//! let mut rng = SimRng::seed_from(1);
//! // ~90% of messages are delivered with an exponential 100 ms mean delay.
//! let verdict = net.transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 64, &mut rng);
//! let _ = verdict;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod link;
pub mod mailbox;
pub mod network;
pub mod transport;

pub use link::{LinkCrashSpec, LinkOutageState, LinkSpec};
pub use mailbox::{Mailbox, MailboxSender};
pub use network::{NetworkModel, NetworkStats, SimulatedNetwork};
pub use transport::{
    Endpoint, InMemoryMesh, Incoming, MessageEndpoint, ShardDelivery, TransportError,
};
