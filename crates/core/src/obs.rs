//! Live observability instruments for a service instance.
//!
//! A [`NodeInstruments`] bundle is attached to a [`ServiceNode`] with
//! [`ServiceNode::set_instruments`]: it carries a clone of the process-wide
//! [`Registry`], a clone of the (typically per-shard) [`TraceRing`], and the
//! cached metric handles the protocol hooks record into. All hooks take the
//! `SimInstant` their runtime hands the node (`ctx.now()`), so the same
//! instrumentation runs unchanged under virtual time and the wall clock —
//! the [`Clock`](sle_obs::clock::Clock) seam is only needed by components
//! outside an actor context (transports, cluster control operations).
//!
//! The recorded QoS quantities mirror the paper's §3 metrics:
//!
//! * `node.<n>.group.<g>.fd.detection_ns` — detection latency `T_D`: from a
//!   suspected peer's last heartbeat to the suspicion (histogram, ns),
//! * `node.<n>.group.<g>.fd.mistakes` — detector mistakes: suspicions later
//!   proven wrong by a revival (`T_MR`'s numerator; counter),
//! * `node.<n>.group.<g>.elect.election_ns` — election/recovery latency:
//!   from losing (or never having had) a leader to announcing a stable one
//!   (histogram, ns),
//! * `node.<n>.net.alive_interarrival_ns` — ALIVE inter-arrival jitter on
//!   incoming heartbeat datagrams (histogram, ns),
//! * `node.<n>.net.alive_payloads_sent` / `alive_datagrams_sent` — the
//!   paper's message-count figures, bound from the node's live counters,
//! * `node.<n>.hello.{full,digest,pulls}_sent` / `hello.stale_ignored` /
//!   `hello.member_walks` — the membership gossip's traffic by shape, the
//!   stale HELLOs its version check dropped and the peers whose groups a
//!   HELLO tick walked for expiry, bound likewise,
//! * `node.<n>.alive.{unchanged,applied,plan_rebuilds}` — incoming ALIVE
//!   datagrams by path (one stamp / entry by entry) and plan rebuilds,
//! * `node.<n>.fd.{fires,walks}` — the per-peer failure-detector timers
//!   that fired, and those of them that walked the peer's groups.
//!
//! The full catalogue lives in `docs/OBSERVABILITY.md`.
//!
//! [`ServiceNode`]: crate::node::ServiceNode
//! [`ServiceNode::set_instruments`]: crate::node::ServiceNode::set_instruments

use sle_obs::{Counter, Histogram, ProtoEvent, Registry, TraceRing};
use sle_sim::time::SimInstant;
use sle_sim::NodeId;

use crate::process::{GroupId, ProcessId};

/// Per-group cached handles plus the election-episode state machine.
#[derive(Debug)]
struct GroupInstruments {
    detection: Histogram,
    election: Histogram,
    mistakes: Counter,
    /// When the current leaderless episode began (set at group creation and
    /// whenever the announced leader reverts to `None`); cleared — and the
    /// episode's duration recorded — when a leader is announced.
    election_started: Option<SimInstant>,
}

/// The instruments a [`ServiceNode`](crate::node::ServiceNode) records into.
#[derive(Debug)]
pub struct NodeInstruments {
    registry: Registry,
    trace: TraceRing,
    node: NodeId,
    alive_interarrival: Histogram,
    /// Last ALIVE arrival per peer, sorted by peer id (binary search: this
    /// is touched once per incoming heartbeat datagram).
    last_alive: Vec<(NodeId, SimInstant)>,
    /// Per-group instrument handles, sorted by group id.
    groups: Vec<(GroupId, GroupInstruments)>,
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
            last_alive: Vec::new(),
            groups: Vec::new(),
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

    /// Binds a pre-existing counter handle under a node-scoped name — how
    /// the node's own live counters become registry views.
    pub(crate) fn bind_node_counter(&self, suffix: &str, counter: &Counter) {
        self.registry
            .bind_counter(&format!("node.{}.{}", self.node.0, suffix), counter);
    }

    fn group(&mut self, group: GroupId, now: SimInstant) -> &mut GroupInstruments {
        let i = match self.groups.binary_search_by_key(&group, |&(g, _)| g) {
            Ok(i) => i,
            Err(i) => {
                let prefix = format!("node.{}.group.{}", self.node.0, group.0);
                let instruments = GroupInstruments {
                    detection: self
                        .registry
                        .histogram(&format!("{prefix}.fd.detection_ns")),
                    election: self
                        .registry
                        .histogram(&format!("{prefix}.elect.election_ns")),
                    mistakes: self.registry.counter(&format!("{prefix}.fd.mistakes")),
                    election_started: Some(now),
                };
                self.groups.insert(i, (group, instruments));
                i
            }
        };
        &mut self.groups[i].1
    }

    /// A local process joined `group`.
    pub(crate) fn on_join(&mut self, group: GroupId, now: SimInstant) {
        self.group(group, now);
        self.trace
            .push(self.node, now, ProtoEvent::Join { group: group.0 });
    }

    /// A local process left `group`.
    pub(crate) fn on_leave(&mut self, group: GroupId, now: SimInstant) {
        self.trace
            .push(self.node, now, ProtoEvent::Leave { group: group.0 });
    }

    /// An incoming ALIVE datagram from `from` (before per-group dispatch).
    pub(crate) fn on_alive_datagram(&mut self, from: NodeId, now: SimInstant) {
        match self
            .last_alive
            .binary_search_by_key(&from, |&(peer, _)| peer)
        {
            Ok(i) => {
                let prev = std::mem::replace(&mut self.last_alive[i].1, now);
                self.alive_interarrival
                    .record_duration(now.saturating_since(prev));
            }
            Err(i) => self.last_alive.insert(i, (from, now)),
        }
    }

    /// The failure detector began suspecting a peer that was last heard
    /// `silent_for` ago — one detection-latency sample.
    pub(crate) fn on_detection(
        &mut self,
        group: GroupId,
        silent_for: sle_sim::time::SimDuration,
        now: SimInstant,
    ) {
        self.group(group, now).detection.record_duration(silent_for);
    }

    /// An accusation was sent to `accused` for `group`.
    pub(crate) fn on_accusation(&mut self, group: GroupId, accused: NodeId, now: SimInstant) {
        self.trace.push(
            self.node,
            now,
            ProtoEvent::Accusation {
                group: group.0,
                accused: accused.0,
            },
        );
    }

    /// A suspected peer revived: the suspicion was a detector mistake.
    pub(crate) fn on_mistake(&mut self, group: GroupId, now: SimInstant) {
        self.group(group, now).mistakes.inc();
    }

    /// The announced leader of `group` changed. Records the election
    /// latency (leaderless → leader) and traces the change.
    pub(crate) fn on_leader_change(
        &mut self,
        group: GroupId,
        leader: Option<ProcessId>,
        now: SimInstant,
    ) {
        let node = self.node;
        let g = self.group(group, now);
        match leader {
            Some(_) => {
                if let Some(started) = g.election_started.take() {
                    g.election.record_duration(now.saturating_since(started));
                }
            }
            None => {
                if g.election_started.is_none() {
                    g.election_started = Some(now);
                }
            }
        }
        self.trace.push(
            node,
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
    pub(crate) fn on_grace_timer(&mut self, now: SimInstant) {
        self.trace.push(
            self.node,
            now,
            ProtoEvent::TimerFired {
                kind: crate::node::GRACE_KIND as u32,
            },
        );
    }
}
