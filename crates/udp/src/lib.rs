//! # sle-udp — the service over real UDP sockets
//!
//! The DSN 2008 paper runs the leader-election service as **one lightweight
//! daemon per workstation exchanging UDP datagrams** (Section 6 evaluates
//! exactly that deployment on a 12-workstation cluster). This crate is that
//! transport for the reproduction: a [`SharedUdpPlane`] binds a fixed set of
//! `std::net::UdpSocket`s, assigns every [`NodeId`](sle_sim::actor::NodeId)
//! to one of them, and runs one demultiplexing reader thread per socket
//! that decodes arriving datagrams with the `sle-wire` codec
//! (`docs/WIRE.md`) into pooled receive buffers ([`BufferPool`]) and routes
//! each record to its destination node. The paper's one-socket-per-
//! workstation deployment is the shape
//! [`SharedUdpPlane::bind_loopback(n, n)`](SharedUdpPlane::bind_loopback);
//! a process hosting a whole cell passes fewer sockets than nodes and pays
//! O(sockets) threads instead of O(nodes).
//!
//! A [`SharedUdpEndpoint`] implements the same
//! [`MessageEndpoint`](sle_net::transport::MessageEndpoint) contract as the
//! in-memory mesh of `sle-net`, so `sle-core`'s real-time
//! [`Cluster`](sle_core::runtime::Cluster) drives either transport with the
//! *identical* protocol state machine — swapping channels for sockets is
//! `Cluster::start_with_endpoints(SharedUdpPlane::bind_loopback(n, n)?.endpoints(), …)`.
//!
//! The plane is hardened the way a daemon facing a real network must be:
//! oversized datagrams, truncated or corrupted records, unknown senders,
//! spoofed source addresses and records for nodes that are not there are
//! counted ([`PlaneStats`]), optionally traced
//! ([`SharedUdpPlane::set_trace`]) and dropped, never parsed into a panic
//! (the codec is total; see `sle-wire`'s property tests).
//!
//! ## Example: one socket per workstation on the loopback interface
//!
//! ```
//! use sle_net::transport::MessageEndpoint;
//! use sle_sim::actor::NodeId;
//! use sle_udp::SharedUdpPlane;
//! use std::time::Duration;
//!
//! // Two sockets on 127.0.0.1 with ephemeral ports, one per node, already
//! // introduced to each other.
//! let plane = SharedUdpPlane::<u64>::bind_loopback(2, 2).unwrap();
//! let mut endpoints = plane.endpoints();
//! let b = endpoints.pop().unwrap();
//! let a = endpoints.pop().unwrap();
//!
//! a.send(NodeId(1), 42).unwrap();
//! let incoming = b.recv_timeout(Duration::from_secs(5)).expect("delivered");
//! assert_eq!(incoming.from, NodeId(0));
//! assert_eq!(incoming.msg, 42);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plane;
pub mod pool;
mod sockopt;

pub use plane::{
    PlaneStats, PlaneStatsSnapshot, SharedUdpEndpoint, SharedUdpPlane, MAX_PLANE_DATAGRAM,
    RECORD_HEADER,
};
pub use pool::{BufferPool, PoolStats, PoolStatsSnapshot, PooledBuf};
