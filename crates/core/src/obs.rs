//! Live observability instruments for a service instance.
//!
//! A [`NodeInstruments`] bundle is attached to a [`ServiceNode`] with
//! [`ServiceNode::set_instruments`]: it carries a clone of the process-wide
//! [`Registry`], a clone of the (typically per-shard) [`TraceRing`] and the
//! node's three latency histograms. All hooks take the
//! `SimInstant` their runtime hands the node (`ctx.now()`), so the same
//! instrumentation runs unchanged under virtual time and the wall clock —
//! the [`Clock`](sle_obs::clock::Clock) seam is only needed by components
//! outside an actor context (transports, cluster control operations).
//!
//! The recorded QoS quantities mirror the paper's §3 metrics. Latency
//! distributions are kept per workstation, every group the node is in
//! recording into the same histogram; per group, only counts are kept, in
//! the node's own group state while it is in the group:
//!
//! * `node.<n>.fd.detection_ns` — detection latency `T_D`: from a
//!   suspected peer's last heartbeat to the suspicion (histogram, ns),
//! * `node.<n>.elect.election_ns` — election/recovery latency: from
//!   joining, or losing a leader, to announcing a stable one (histogram, ns),
//! * `node.<n>.net.alive_interarrival_ns` — ALIVE inter-arrival jitter on
//!   incoming heartbeat datagrams (histogram, ns),
//! * `node.<n>.group.<g>.fd.suspicions` — suspicions the group's detector
//!   raised (counter),
//! * `node.<n>.group.<g>.fd.mistakes` — detector mistakes: suspicions later
//!   proven wrong by a revival (`T_MR`'s numerator; counter).
//!
//! One group's latencies are in the trace: its `Accusation` and
//! `LeaderChange` events.
//!
//! Every node counter is one [`NodeCount`] row, rendered as
//! `node.<n>.<suffix>`. The full catalogue lives in `docs/OBSERVABILITY.md`.
//!
//! The registry keeps these series in two [families](sle_obs::family), not
//! by name: [`NODE_SERIES`] holds one block of [`NodeCount`] cells and the
//! three histograms per node, [`GROUP_SERIES`] the two counters per
//! (node, group). Every incarnation of node `n`, and every rejoin of a
//! group, gets back the same cells.
//!
//! [`ServiceNode`]: crate::node::ServiceNode
//! [`ServiceNode::set_instruments`]: crate::node::ServiceNode::set_instruments

use sle_obs::{
    CounterBlock, CounterCell, Family, FamilySchema, Histogram, ProtoEvent, Registry, TraceRing,
};
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

            /// Every counter's suffix, in table order.
            pub const SUFFIXES: &'static [&'static str] = &[$($suffix),+];

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
    /// ALIVE datagrams that repeated what the sender's rows hold: one stamp.
    AliveUnchanged = "alive.unchanged",
    /// ALIVE datagrams applied entry by entry: they said something the rows
    /// do not hold, or named another set of them.
    AliveApplied = "alive.applied",
    /// Times the ALIVE tick rebuilt its fan-out plan instead of reusing it.
    AlivePlanRebuilds = "alive.plan_rebuilds",
    /// ALIVE ticks armed to fire at once because a group started ticking
    /// (sending, leading) after the slot its last send left it had passed:
    /// an Ω_l re-entry sending its first ALIVE at the instant it competes.
    AliveReentries = "alive.reentries",
    /// Per-peer detector timers that fired.
    FdFires = "fd.fires",
    /// Fires that checked the peer's monitor in every group; the others
    /// re-armed from the peer's cached wake without touching a group.
    FdWalks = "fd.walks",
    /// ALIVE datagrams whose arrival moved the operating point (η, δ) of
    /// some QoS class of the sender — the one place they move.
    FdReconfigurations = "fd.reconfigurations",
    /// Of those, datagrams that repeated what the sender's rows hold: the
    /// moves that alone drop the peer's cached detector wake.
    FdMovesOnRepeats = "fd.reconfigurations_on_repeats",
    /// ACCUSE entries dropped because their epoch predated the group's
    /// elector's current one — each a duplicated or delayed replay that
    /// would have destabilised a settled leader.
    StaleAccusationsIgnored = "elect.stale_accusations_ignored",
    /// Self-election graces that ended early, on a complete view (every
    /// configured peer's list current, every candidate member heard or
    /// suspected), before the 2·T_D fallback.
    GraceEndedEarly = "elect.grace_early_ends",
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

/// A node's counter block is indexed by the counter.
impl std::ops::Index<NodeCount> for CounterBlock {
    type Output = CounterCell;

    #[inline]
    fn index(&self, count: NodeCount) -> &CounterCell {
        &self[count as usize]
    }
}

/// The node's histograms, in [`NODE_SERIES`] order.
const DETECTION: usize = 0;
const ELECTION: usize = 1;
const ALIVE_INTERARRIVAL: usize = 2;

/// The series of an instrumented node, keyed by its id: every
/// [`NodeCount`] and the three latency histograms.
pub static NODE_SERIES: FamilySchema = FamilySchema {
    heads: &["node"],
    counters: NodeCount::SUFFIXES,
    histograms: &[
        "fd.detection_ns",
        "elect.election_ns",
        "net.alive_interarrival_ns",
    ],
};

/// The counters of a (node, group) membership, in [`GROUP_SERIES`] order.
const SUSPICIONS: usize = 0;
const MISTAKES: usize = 1;

/// The series of an instrumented node's membership, keyed by the node's
/// and the group's ids.
pub static GROUP_SERIES: FamilySchema = FamilySchema {
    heads: &["node", "group"],
    counters: &["fd.suspicions", "fd.mistakes"],
    histograms: &[],
};

/// One group's QoS counters plus its election-episode state machine, kept
/// in the group's state while the node is in the group: a rejoin opens a
/// new episode at the join instant.
#[derive(Debug, Clone)]
pub(crate) struct GroupInstruments {
    /// The membership's cells in [`GROUP_SERIES`].
    cells: CounterBlock,
    /// When the current leaderless episode began (set at the join and
    /// whenever the announced leader reverts to `None`); cleared — and the
    /// episode's duration recorded — when a leader is announced.
    election_started: Option<SimInstant>,
}

impl GroupInstruments {
    /// A suspected peer revived: the suspicion was a detector mistake.
    pub(crate) fn on_mistake(&self) {
        self.cells[MISTAKES].inc();
    }
}

/// The instruments a [`ServiceNode`](crate::node::ServiceNode) records into.
#[derive(Debug)]
pub struct NodeInstruments {
    registry: Registry,
    trace: TraceRing,
    node: NodeId,
    /// The node's [`NodeCount`] cells in [`NODE_SERIES`].
    counts: CounterBlock,
    /// The registry's [`GROUP_SERIES`].
    groups: Family,
    detection: Histogram,
    election: Histogram,
    alive_interarrival: Histogram,
}

impl NodeInstruments {
    /// Creates the instrument bundle for `node`, registering the node's
    /// series in `registry` and tracing into `trace`.
    pub fn new(registry: &Registry, trace: TraceRing, node: NodeId) -> Self {
        let nodes = registry.family(&NODE_SERIES);
        let key = [node.0];
        NodeInstruments {
            registry: registry.clone(),
            trace,
            node,
            counts: nodes.counters(&key),
            groups: registry.family(&GROUP_SERIES),
            detection: nodes.histogram(&key, DETECTION),
            election: nodes.histogram(&key, ELECTION),
            alive_interarrival: nodes.histogram(&key, ALIVE_INTERARRIVAL),
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

    /// The node's block of [`NodeCount`] cells, indexed by the counter:
    /// every incarnation of the node counts on in the same cells.
    pub(crate) fn counts(&self) -> &CounterBlock {
        &self.counts
    }

    /// The instruments of `group`, joined at `now`: a rejoin counts on in
    /// the cells of the node's earlier memberships of the group.
    pub(crate) fn group(&self, group: GroupId, now: SimInstant) -> GroupInstruments {
        GroupInstruments {
            cells: self.groups.counters(&[self.node.0, group.0]),
            election_started: Some(now),
        }
    }

    /// The failure detector of the group `instruments` belongs to began
    /// suspecting a peer that was last heard `silent_for` ago — one
    /// detection-latency sample.
    pub(crate) fn on_detection(&self, instruments: &GroupInstruments, silent_for: SimDuration) {
        instruments.cells[SUSPICIONS].inc();
        self.detection.record_duration(silent_for);
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
                    self.election.record_duration(now.saturating_since(started));
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
    use std::collections::BTreeMap;

    use sle_election::ElectorKind;
    use sle_obs::metrics::bucket_index;
    use sle_obs::{HistogramSnapshot, MetricValue, Registry, TraceRing};
    use sle_sim::rng::SimRng;
    use sle_sim::time::{SimDuration, SimInstant};
    use sle_sim::{Actor, NodeId};

    use super::{GroupInstruments, NodeCount, NodeInstruments, MISTAKES, SUSPICIONS};
    use crate::config::{JoinConfig, ServiceConfig};
    use crate::node::{ServiceContext, ServiceNode};
    use crate::process::{GroupId, ProcessId};

    /// `name` of node 0 with `<n>` and `<g>` in place of the node and the
    /// group.
    fn pattern(name: &str) -> String {
        let name = name.strip_prefix("node.0.").expect("a node series");
        match name.strip_prefix("group.") {
            Some(rest) => format!("node.<n>.group.<g>.{}", rest.split_once('.').unwrap().1),
            None => format!("node.<n>.{name}"),
        }
    }

    /// The series an instrumented node 0 with two peers registers once it
    /// has started in `groups` auto-joined groups, as `(pattern, kind)`.
    fn registered_series(groups: u32) -> Vec<(String, &'static str)> {
        let mut config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaL);
        for group in 1..=groups {
            config = config.with_auto_join(GroupId(group), JoinConfig::candidate());
        }
        let registry = Registry::default();
        let ring = TraceRing::new(64);
        let mut node = ServiceNode::new(config);
        node.set_instruments(NodeInstruments::new(&registry, ring, NodeId(0)));
        node.on_start(&mut ServiceContext::new(SimInstant::ZERO, NodeId(0), 0));
        let metrics = registry.snapshot().metrics.into_iter();
        let series = metrics.map(|(name, value)| match value {
            MetricValue::Counter(_) => (pattern(&name), "counter"),
            MetricValue::Gauge(_) => (pattern(&name), "gauge"),
            MetricValue::Histogram(_) => (pattern(&name), "histogram"),
        });
        series.collect()
    }

    #[test]
    fn every_node_counter_has_its_observability_row() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for count in NodeCount::ALL {
            let row = format!("| `node.<n>.{}` | counter |", count.suffix());
            assert!(doc.contains(&row), "docs/OBSERVABILITY.md lacks {row}");
        }
        // And every QoS series: the per-node histograms, the per-group
        // counters.
        for (name, kind) in registered_series(2) {
            let row = format!("| `{name}` | {kind} |");
            assert!(doc.contains(&row), "docs/OBSERVABILITY.md lacks {row}");
        }
    }

    #[test]
    fn histograms_are_per_node_and_only_counters_per_group() {
        // The node's histograms, and how many series it has per group (all
        // of them counters).
        let shape = |series: Vec<(String, &str)>| {
            let (per_group, per_node): (Vec<_>, Vec<_>) =
                (series.into_iter()).partition(|(name, _)| name.starts_with("node.<n>.group."));
            assert!(per_group.iter().all(|&(_, kind)| kind == "counter"));
            let histograms = per_node
                .into_iter()
                .filter(|&(_, kind)| kind == "histogram");
            let histograms: Vec<String> = histograms.map(|(name, _)| name).collect();
            (histograms, per_group.len())
        };
        let (one, per_group) = shape(registered_series(1));
        assert_eq!(
            one,
            [
                "node.<n>.elect.election_ns",
                "node.<n>.fd.detection_ns",
                "node.<n>.net.alive_interarrival_ns",
            ]
        );
        assert_eq!(per_group, 2);
        assert_eq!(shape(registered_series(64)), (one, 2 * 64));
    }

    /// What a registry of one named cell per series holds.
    #[derive(Default)]
    struct Model(BTreeMap<String, MetricValue>);

    impl Model {
        /// Registers `names` as counters at zero, keeping existing ones.
        fn counters(&mut self, names: impl IntoIterator<Item = String>) {
            for name in names {
                self.0.entry(name).or_insert(MetricValue::Counter(0));
            }
        }

        fn add(&mut self, name: &str, n: u64) {
            match self.0.get_mut(name) {
                Some(MetricValue::Counter(v)) => *v += n,
                other => panic!("{name}: {other:?}"),
            }
        }

        fn record(&mut self, name: &str, value: u64) {
            let entry = (self.0.entry(name.to_string()))
                .or_insert_with(|| MetricValue::Histogram(HistogramSnapshot::empty()));
            let MetricValue::Histogram(h) = entry else {
                panic!("{name}: {entry:?}")
            };
            let i = bucket_index(value);
            h.count += 1;
            h.sum = h.sum.wrapping_add(value);
            h.buckets[i] += 1;
            h.bucket_sums[i] = h.bucket_sums[i].wrapping_add(value);
        }
    }

    const HISTOGRAMS: [&str; 3] = [
        "fd.detection_ns",
        "elect.election_ns",
        "net.alive_interarrival_ns",
    ];

    #[test]
    fn families_render_what_one_named_cell_per_series_holds() {
        // Random runs over 4 nodes and 3 groups: attach a node's
        // instruments (its start, or a recovered incarnation), count, join,
        // leave and rejoin a group, record suspicions, mistakes and
        // latencies, and compare the registry's snapshot and series count
        // with a model that keeps one named cell per series. By-name
        // lookups must return the cells the node records into.
        for seed in 0..40 {
            let mut rng = SimRng::seed_from(seed);
            let registry = Registry::default();
            let ring = TraceRing::new(16);
            let mut nodes: Vec<Option<NodeInstruments>> = (0..4).map(|_| None).collect();
            let mut joined: BTreeMap<(u32, u32), GroupInstruments> = BTreeMap::new();
            let mut model = Model::default();
            let mut now = SimInstant::ZERO;
            for _ in 0..300 {
                now += SimDuration::from_millis(1 + rng.uniform_usize(50) as u64);
                let n = rng.uniform_usize(4) as u32;
                let g = 1 + rng.uniform_usize(3) as u32;
                let sample = rng.next_u64() >> rng.uniform_usize(64);
                let Some(node) = &nodes[n as usize] else {
                    // A node starts, or recovers, only after its last
                    // incarnation's memberships are gone.
                    let node = NodeInstruments::new(&registry, ring.clone(), NodeId(n));
                    nodes[n as usize] = Some(node);
                    let suffixes = NodeCount::ALL.iter().map(|c| c.suffix());
                    model.counters(suffixes.map(|s| format!("node.{n}.{s}")));
                    for suffix in HISTOGRAMS {
                        let name = format!("node.{n}.{suffix}");
                        model
                            .0
                            .entry(name)
                            .or_insert_with(|| MetricValue::Histogram(HistogramSnapshot::empty()));
                    }
                    continue;
                };
                let group = format!("node.{n}.group.{g}.fd");
                match rng.uniform_usize(9) {
                    0 => {
                        // A crash: the node and its memberships go.
                        nodes[n as usize] = None;
                        joined.retain(|&(m, _), _| m != n);
                    }
                    1 | 2 => {
                        let count = NodeCount::ALL[rng.uniform_usize(NodeCount::COUNT)];
                        let k = rng.uniform_usize(3) as u64;
                        node.counts()[count].add(k);
                        model.add(&format!("node.{n}.{}", count.suffix()), k);
                        let by_name = registry.counter(&format!("node.{n}.{}", count.suffix()));
                        assert!(by_name.same_as(&node.counts().counter(count as usize)));
                    }
                    3 => {
                        // A join, or a rejoin; leaving drops the cells.
                        if joined.remove(&(n, g)).is_none() {
                            joined.insert((n, g), node.group(GroupId(g), now));
                            let suffixes = ["suspicions", "mistakes"];
                            model.counters(suffixes.map(|s| format!("{group}.{s}")));
                        }
                    }
                    4 => {
                        if let Some(instruments) = joined.get(&(n, g)) {
                            node.on_detection(instruments, SimDuration::from_nanos(sample));
                            model.add(&format!("{group}.suspicions"), 1);
                            model.record(&format!("node.{n}.fd.detection_ns"), sample);
                        }
                    }
                    5 => {
                        if let Some(instruments) = joined.get(&(n, g)) {
                            instruments.on_mistake();
                            model.add(&format!("{group}.mistakes"), 1);
                            let by_name = registry.counter(&format!("{group}.mistakes"));
                            assert!(by_name.same_as(&instruments.cells.counter(MISTAKES)));
                            let by_name = registry.counter(&format!("{group}.suspicions"));
                            assert!(by_name.same_as(&instruments.cells.counter(SUSPICIONS)));
                        }
                    }
                    6 => {
                        let prev = now - SimDuration::from_nanos(sample.min(now.as_nanos() - 1));
                        node.on_alive_datagram(prev, now);
                        let name = format!("node.{n}.net.alive_interarrival_ns");
                        model.record(&name, now.saturating_since(prev).as_nanos());
                        assert!(registry.histogram(&name).same_as(&node.alive_interarrival));
                    }
                    7 => {
                        if let Some(instruments) = joined.get_mut(&(n, g)) {
                            let started = instruments.election_started;
                            let leader = rng.bernoulli(0.5).then(|| ProcessId::new(NodeId(n), 0));
                            node.on_leader_change(instruments, GroupId(g), leader, now);
                            if let (Some(started), Some(_)) = (started, leader) {
                                let latency = now.saturating_since(started).as_nanos();
                                model.record(&format!("node.{n}.elect.election_ns"), latency);
                            }
                        }
                    }
                    _ => {
                        let snapshot = registry.snapshot();
                        let expected: Vec<_> = model.0.clone().into_iter().collect();
                        assert_eq!(snapshot.metrics, expected, "seed {seed}");
                        assert_eq!(registry.len(), model.0.len(), "seed {seed}");
                    }
                }
            }
            let expected: Vec<_> = model.0.into_iter().collect();
            assert_eq!(registry.snapshot().metrics, expected, "seed {seed}");
        }
    }
}
