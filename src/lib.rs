//! # sle — the stable leader-election service, whole
//!
//! The façade crate of the workspace reproducing Schiper & Toueg, *"A
//! Robust and Lightweight Stable Leader Election Service for Dynamic
//! Systems"* (DSN 2008): every crate re-exported under one roof, so an
//! application can depend on `sle` alone. See the README's Architecture
//! section for the crate-by-crate map onto the paper's services, and
//! `docs/WIRE.md` for the UDP datagram format spoken by [`udp`]/[`wire`].
//!
//! ```
//! use sle::core::{GroupId, JoinConfig};
//!
//! // The paper's per-join parameters: candidacy and QoS. Leader changes are
//! // both announced and queryable, so there is no notification style to pick.
//! let join = JoinConfig::candidate();
//! assert!(join.candidate);
//! assert_eq!(GroupId::from(7).to_string(), "g7");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use sle_chaos as chaos;
pub use sle_core as core;
pub use sle_election as election;
pub use sle_fd as fd;
pub use sle_harness as harness;
pub use sle_net as net;
pub use sle_sim as sim;
pub use sle_udp as udp;
pub use sle_wire as wire;
