//! # sle-obs — observability substrate for the leader-election service
//!
//! The reproduced paper (Schiper & Toueg, DSN 2008) states its entire
//! contribution in QoS terms — detection time `T_D`, mistake recurrence
//! `T_MR`, recovery time `T_r` — yet those quantities are only visible when
//! a runtime *measures* them. This crate is the measurement substrate shared
//! by every runtime in the workspace: the discrete-event simulator, the
//! sharded real-time `Cluster`, and the UDP deployment path all record into
//! the same three primitives:
//!
//! * [`registry`] — a process-wide [`Registry`] of atomic [`Counter`]s,
//!   [`Gauge`]s and log2-bucket [`Histogram`]s behind cheap clonable
//!   handles, with hierarchical dotted names (`runtime.shard.0.wakeups`)
//!   and point-in-time snapshots,
//! * [`family`] — the registry's [`Family`] tables for series every node
//!   or group membership has: one [`CounterBlock`] and the histograms per
//!   key, their names (`node.3.fd.detection_ns`) rendered only at
//!   snapshot time,
//! * [`export`] — two snapshot exporters: Prometheus text exposition and a
//!   JSON document matching the schema in `docs/OBSERVABILITY.md`,
//! * [`trace`] — a fixed-capacity, never-blocking ring buffer of structured
//!   protocol events ([`ProtoEvent`]) with sequence numbers and
//!   timestamps, drainable into the chaos trace-replay invariant checker,
//! * [`clock`] — the [`Clock`] seam that lets the same instrumentation run
//!   under virtual time and the wall clock.
//!
//! Everything is std-only and built for negligible hot-path cost: recording
//! a counter or histogram sample is a handful of relaxed atomic operations,
//! with no lock, and a disabled instrumentation point is a single `Option`
//! branch. A histogram holds only the chunks of buckets its samples landed
//! in.
//! `benchmark/` reads the cost per record (`obs.histogram.record_ns`) on its
//! `sim-churn` workload, which runs fully instrumented.
//!
//! ## Example
//!
//! ```
//! use sle_obs::prelude::*;
//!
//! let registry = Registry::new();
//! let mistakes = registry.counter("node.0.group.1.fd.mistakes");
//! let latency = registry.histogram("node.0.elect.election_ns");
//! mistakes.inc();
//! latency.record_duration(sle_sim::SimDuration::from_millis(250));
//!
//! let snap = registry.snapshot();
//! assert!(render_prometheus(&snap).contains("node_0_group_1_fd_mistakes 1"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod export;
pub mod family;
pub mod metrics;
pub mod registry;
pub mod trace;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::clock::{Clock, ManualClock, SharedClock, WallClock};
    pub use crate::export::{render_json, render_prometheus};
    pub use crate::family::{Family, FamilySchema};
    pub use crate::metrics::{
        Counter, CounterBlock, CounterCell, Gauge, Histogram, HistogramSnapshot,
    };
    pub use crate::registry::{MetricValue, Registry, Snapshot};
    pub use crate::trace::{DropReason, ProtoEvent, TraceDrain, TraceRecord, TraceRing};
}

pub use clock::{Clock, ManualClock, SharedClock, WallClock};
pub use export::{render_json, render_prometheus};
pub use family::{Family, FamilySchema};
pub use metrics::{Counter, CounterBlock, CounterCell, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricValue, Registry, Snapshot};
pub use trace::{DropReason, ProtoEvent, TraceDrain, TraceRecord, TraceRing};
