//! Live observability instruments for a service instance.
//!
//! A [`NodeInstruments`] bundle is attached to a [`ServiceNode`] with
//! [`ServiceNode::set_instruments`]: it carries a clone of the process-wide
//! [`Registry`], a clone of the (typically per-shard) [`TraceRing`] and the
//! node-level ALIVE inter-arrival histogram. All hooks take the
//! `SimInstant` their runtime hands the node (`ctx.now()`), so the same
//! instrumentation runs unchanged under virtual time and the wall clock —
//! the [`Clock`](sle_obs::clock::Clock) seam is only needed by components
//! outside an actor context (transports, cluster control operations).
//!
//! The recorded QoS quantities mirror the paper's §3 metrics, kept per
//! group in the node's own group state while it is in the group:
//!
//! * `node.<n>.group.<g>.fd.detection_ns` — detection latency `T_D`: from a
//!   suspected peer's last heartbeat to the suspicion (histogram, ns),
//! * `node.<n>.group.<g>.fd.mistakes` — detector mistakes: suspicions later
//!   proven wrong by a revival (`T_MR`'s numerator; counter),
//! * `node.<n>.group.<g>.elect.election_ns` — election/recovery latency:
//!   from joining, or losing a leader, to announcing a stable one
//!   (histogram, ns),
//! * `node.<n>.net.alive_interarrival_ns` — ALIVE inter-arrival jitter on
//!   incoming heartbeat datagrams (histogram, ns).
//!
//! Every node counter is one [`NodeCount`] row, registered as
//! `node.<n>.<suffix>`. The full catalogue lives in `docs/OBSERVABILITY.md`.
//!
//! [`ServiceNode`]: crate::node::ServiceNode
//! [`ServiceNode::set_instruments`]: crate::node::ServiceNode::set_instruments

use sle_obs::{Counter, Histogram, ProtoEvent, Registry, TraceRing};
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::NodeId;

use crate::process::{GroupId, ProcessId};

/// Declares [`NodeCount`]: each counter with its registry suffix beside it.
macro_rules! node_counts {
    ($($(#[$doc:meta])* $count:ident = $suffix:literal,)+) => {
        /// The counters of a [`ServiceNode`](crate::node::ServiceNode), one
        /// variant each, read with
        /// [`ServiceNode::count`](crate::node::ServiceNode::count) and
        /// registered as `node.<n>.<suffix>` once instruments are attached.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum NodeCount {
            $($(#[$doc])* $count,)+
        }

        impl NodeCount {
            /// Every counter, in table order.
            pub const ALL: &'static [NodeCount] = &[$(NodeCount::$count),+];

            /// The number of counters.
            pub const COUNT: usize = NodeCount::ALL.len();

            /// The counter's registry name below `node.<n>.`.
            pub const fn suffix(self) -> &'static str {
                match self {
                    $(NodeCount::$count => $suffix,)+
                }
            }
        }
    };
}

node_counts! {
    /// Per-group ALIVE payloads handed to the transport (batch entries
    /// count individually) — the figure the paper's message-count analysis
    /// is about: O(n) per group in steady state for S3, O(n²) for S2.
    AlivePayloadsSent = "net.alive_payloads_sent",
    /// ALIVE datagrams handed to the transport (a batch counts once):
    /// payloads minus datagrams is the fan-out the batching saved.
    AliveDatagramsSent = "net.alive_datagrams_sent",
    /// Full announcement lists sent (answers to pulls).
    HelloFullSent = "hello.full_sent",
    /// List-less, pull-less HELLOs sent (the periodic digest, per peer).
    HelloDigestSent = "hello.digest_sent",
    /// HELLOs sent with the pull flag set.
    HelloPullsSent = "hello.pulls_sent",
    /// HELLOs dropped for an `(incarnation, version)` below the applied one.
    HelloStaleIgnored = "hello.stale_ignored",
    /// Peers whose groups a HELLO tick walked for membership expiry; the
    /// tick skipped the others on their cached member wake without touching
    /// a group.
    HelloMemberWalks = "hello.member_walks",
    /// ALIVE datagrams that repeated the sender's applied batch: one stamp.
    AliveUnchanged = "alive.unchanged",
    /// ALIVE datagrams applied entry by entry (changed, or after a resync).
    AliveApplied = "alive.applied",
    /// Times the ALIVE tick rebuilt its fan-out plan instead of reusing it.
    AlivePlanRebuilds = "alive.plan_rebuilds",
    /// Batches applied from a peer that were freed by a detector walk,
    /// because no group they list trusts the peer any more.
    AliveBatchesReleased = "alive.batches_released",
    /// Per-peer detector timers that fired.
    FdFires = "fd.fires",
    /// Fires that checked the peer's monitor in every group; the others
    /// re-armed from the peer's cached wake without touching a group.
    FdWalks = "fd.walks",
    /// ACCUSE entries dropped because their epoch predated the group's
    /// elector's current one — each a duplicated or delayed replay that
    /// would have destabilised a settled leader.
    StaleAccusationsIgnored = "elect.stale_accusations_ignored",
    /// Leader leases minted (leaderships taken, or token changes while
    /// leading).
    LeasesMinted = "app.leases_minted",
    /// Lease renewals performed on the ALIVE tick.
    LeaseRenewals = "app.lease_renewals",
    /// `LeaseGrant`s dropped because their token names another node than
    /// the sender (a leader broadcasts only its own token).
    ForeignGrantsIgnored = "app.foreign_grants_ignored",
    /// Client requests served by the installed app under a valid lease.
    RequestsApplied = "app.requests_applied",
    /// Client requests the installed app rejected for a stale fencing token.
    RequestsRejected = "app.requests_rejected",
    /// Client requests answered with a redirect (not leading, no valid
    /// lease, or no app installed).
    RequestsRedirected = "app.requests_redirected",
}

/// A node's counter table is indexed by the counter.
impl std::ops::Index<NodeCount> for [Counter; NodeCount::COUNT] {
    type Output = Counter;

    fn index(&self, count: NodeCount) -> &Counter {
        &self[count as usize]
    }
}

/// One group's QoS instruments plus its election-episode state machine,
/// kept in the group's state while the node is in the group: a rejoin opens
/// a new episode at the join instant.
#[derive(Debug, Clone)]
pub(crate) struct GroupInstruments {
    detection: Histogram,
    election: Histogram,
    mistakes: Counter,
    /// When the current leaderless episode began (set at the join and
    /// whenever the announced leader reverts to `None`); cleared — and the
    /// episode's duration recorded — when a leader is announced.
    election_started: Option<SimInstant>,
}

impl GroupInstruments {
    /// The failure detector began suspecting a peer that was last heard
    /// `silent_for` ago — one detection-latency sample.
    pub(crate) fn on_detection(&self, silent_for: SimDuration) {
        self.detection.record_duration(silent_for);
    }

    /// A suspected peer revived: the suspicion was a detector mistake.
    pub(crate) fn on_mistake(&self) {
        self.mistakes.inc();
    }
}

/// The instruments a [`ServiceNode`](crate::node::ServiceNode) records into.
#[derive(Debug)]
pub struct NodeInstruments {
    registry: Registry,
    trace: TraceRing,
    node: NodeId,
    alive_interarrival: Histogram,
}

impl NodeInstruments {
    /// Creates the instrument bundle for `node`, registering the node-level
    /// metrics in `registry` and tracing into `trace`.
    pub fn new(registry: &Registry, trace: TraceRing, node: NodeId) -> Self {
        let alive_interarrival =
            registry.histogram(&format!("node.{}.net.alive_interarrival_ns", node.0));
        NodeInstruments {
            registry: registry.clone(),
            trace,
            node,
            alive_interarrival,
        }
    }

    /// The registry this bundle records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace ring this bundle records into.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The registry's `node.<n>.<suffix>` counter of `count`, created on
    /// first use: every incarnation of the node counts on in the same cell.
    pub(crate) fn counter(&self, count: NodeCount) -> Counter {
        let name = format!("node.{}.{}", self.node.0, count.suffix());
        self.registry.counter(&name)
    }

    /// The instruments of `group`, joined at `now`.
    pub(crate) fn group(&self, group: GroupId, now: SimInstant) -> GroupInstruments {
        let prefix = format!("node.{}.group.{}", self.node.0, group.0);
        GroupInstruments {
            detection: self
                .registry
                .histogram(&format!("{prefix}.fd.detection_ns")),
            election: self
                .registry
                .histogram(&format!("{prefix}.elect.election_ns")),
            mistakes: self.registry.counter(&format!("{prefix}.fd.mistakes")),
            election_started: Some(now),
        }
    }

    /// A local process joined `group`.
    pub(crate) fn on_join(&self, group: GroupId, now: SimInstant) {
        self.trace
            .push(self.node, now, ProtoEvent::Join { group: group.0 });
    }

    /// A local process left `group`.
    pub(crate) fn on_leave(&self, group: GroupId, now: SimInstant) {
        self.trace
            .push(self.node, now, ProtoEvent::Leave { group: group.0 });
    }

    /// An incoming ALIVE datagram whose sender's previous one arrived at
    /// `prev` — `SimInstant::ZERO` for its first, which records nothing (no
    /// ALIVE is sent at the zero instant: a node's first tick is 5 ms after
    /// its first join).
    pub(crate) fn on_alive_datagram(&self, prev: SimInstant, now: SimInstant) {
        if prev != SimInstant::ZERO {
            self.alive_interarrival
                .record_duration(now.saturating_since(prev));
        }
    }

    /// An accusation was sent to `accused` for `group`.
    pub(crate) fn on_accusation(&self, group: GroupId, accused: NodeId, now: SimInstant) {
        self.trace.push(
            self.node,
            now,
            ProtoEvent::Accusation {
                group: group.0,
                accused: accused.0,
            },
        );
    }

    /// The announced leader of `group` (instrumented by `instruments`)
    /// changed. Records the election latency (leaderless → leader) and
    /// traces the change.
    pub(crate) fn on_leader_change(
        &self,
        instruments: &mut GroupInstruments,
        group: GroupId,
        leader: Option<ProcessId>,
        now: SimInstant,
    ) {
        match leader {
            Some(_) => {
                if let Some(started) = instruments.election_started.take() {
                    (instruments.election).record_duration(now.saturating_since(started));
                }
            }
            None => {
                instruments.election_started.get_or_insert(now);
            }
        }
        self.trace.push(
            self.node,
            now,
            ProtoEvent::LeaderChange {
                group: group.0,
                leader: leader.map(|p| (p.node.0, p.local)),
            },
        );
    }

    /// A low-rate protocol timer fired (election grace periods — the
    /// per-heartbeat FD/ALIVE timers would flood the ring and are not
    /// traced).
    pub(crate) fn on_grace_timer(&self, now: SimInstant) {
        self.trace.push(
            self.node,
            now,
            ProtoEvent::TimerFired {
                kind: crate::node::GRACE_KIND as u32,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::NodeCount;

    #[test]
    fn every_node_counter_has_its_observability_row() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for count in NodeCount::ALL {
            let row = format!("| `node.<n>.{}` | counter |", count.suffix());
            assert!(doc.contains(&row), "docs/OBSERVABILITY.md lacks {row}");
        }
    }
}
