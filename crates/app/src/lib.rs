//! # sle-app — the client tier of the leader-election service
//!
//! The service elects leaders; this crate is what an *application* builds on
//! top of that answer (see `docs/APP.md` for the full model):
//!
//! * [`FencedCounter`] — a replicated-counter state machine implementing
//!   [`FencedApp`](sle_core::FencedApp): it is installed on every service
//!   node, applies writes only under the leader's fencing token, and rejects
//!   any token below its high-water mark — a deposed leader's delayed writes
//!   can never land,
//! * [`FencingAudit`] — a shared ledger recording every accepted write's
//!   token across all replicas, so a test or benchmark can *prove* the
//!   tokens were applied in monotone order (zero fencing violations),
//! * [`ClientHub`] — a client session layer that discovers the leader,
//!   routes requests to it, and transparently retries on redirects, fencing
//!   rejections and leader crashes. It is generic over the
//!   [`MessageEndpoint`](sle_net::transport::MessageEndpoint) seam, so the
//!   same client code runs over the in-memory mesh and the UDP plane.
//!
//! `tests/app_sessions.rs` runs a [`ClientHub`] workload through a leader
//! crash over every transport and asserts the audit stays violation-free;
//! the `app-failover` workload of `benchmark/` does it under load, crash
//! after crash, and measures the unavailability (`unavailable_frac`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod counter;

pub use client::{ClientConfig, ClientHub, HubReport};
pub use counter::{AuditSnapshot, FencedCounter, FencingAudit};
