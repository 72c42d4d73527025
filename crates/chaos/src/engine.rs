//! The chaos engine: runs a [`FaultPlan`] against a simulated service
//! deployment and checks the resulting trace against the protocol
//! invariants.
//!
//! There is one driver. [`run_plan_parallel`] runs the plan on the sharded
//! simulator ([`ParWorld`]) across `workers` sim workers, and [`run_plan`]
//! is its `workers = 1` call. Every field of the [`ChaosReport`] is
//! **independent of the worker count**: the same `(config, plan)` pair
//! yields identical traces, violations, network counters, metrics and
//! protocol traces for `workers` ∈ {1, 2, 8, …}. That rests on three pillars:
//!
//! * the simulator executes events in a canonical, partition-independent
//!   order (see [`sle_sim::par`]), so the per-node event histories match for
//!   any sharding;
//! * per-shard trace recorders are merged by a stable sort on
//!   `(time, node)` — simultaneous events of one node stay in their
//!   canonical order because one node always lives on exactly one shard;
//! * the shared protocol-trace ring is drained and re-sequenced the same
//!   way, so ring sequence numbers do not leak scheduling order.
//!
//! More than one worker only runs in parallel when the link model has a
//! positive minimum delay
//! ([`LinkSpec::with_min_delay`](sle_net::link::LinkSpec::with_min_delay)):
//! with a zero floor (the paper's exponential delays) the simulator falls
//! back to sequential canonical-order execution — the same report, without
//! the speedup.

use std::collections::HashMap;

use sle_core::{GroupId, JoinConfig, NodeInstruments, ProcessId, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::Scenario;
use sle_net::link::LinkSpec;
use sle_net::network::{NetworkModel, NetworkStats, SimulatedNetwork};
use sle_obs::{Registry, Snapshot, TraceDrain, TraceRecord, TraceRing};
use sle_sim::actor::NodeId;
use sle_sim::par::{ParWorld, SharedActorFactory};
use sle_sim::time::{SimDuration, SimInstant};

use crate::invariants::{check_trace, InvariantSpec, Violation};
use crate::plan::{FaultAction, FaultPlan};
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};

/// The group every chaos experiment runs in.
pub const CHAOS_GROUP: GroupId = GroupId(1);

/// Capacity of the protocol-event trace ring a chaos run drains into its
/// report. Sized so the generated plan families never wrap it (they push a
/// few hundred events per run): while fewer events than this are pushed
/// every slot is written at most once, the drain loses nothing, and the
/// re-sequenced trace is identical for every worker count. A pathological
/// run that does overflow loses its oldest events (the drain reports how
/// many), and with several workers which ones depends on thread scheduling.
const PROTO_TRACE_CAPACITY: usize = 4096;

/// The simulated deployment a chaos run drives.
type ChaosWorld = ParWorld<ServiceNode, SimulatedNetwork>;

/// Everything a chaos run needs besides the fault plan itself.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The service version under test (S1 = Ωid, S2 = Ωlc, S3 = Ωl).
    pub algorithm: ElectorKind,
    /// Number of workstations (all join as candidates).
    pub nodes: usize,
    /// Baseline behaviour of every directed link.
    pub link: LinkSpec,
    /// Failure-detection QoS of the join.
    pub qos: QosSpec,
    /// The window within which fault injections land; the engine always
    /// appends a quiet tail of two settle windows after it, so the final
    /// eventual-agreement check has room.
    pub duration: SimDuration,
    /// The invariant checker's settle window (see
    /// [`InvariantSpec::settle`]).
    pub settle: SimDuration,
    /// Seed for everything stochastic (messages, link overlays, plan
    /// resolution).
    pub seed: u64,
}

impl ChaosConfig {
    /// A config with the sweep defaults: a mildly lossy 10 ms network, the
    /// paper's QoS, a 45 s fault window and a 10 s settle window.
    pub fn new(algorithm: ElectorKind, nodes: usize) -> Self {
        ChaosConfig {
            algorithm,
            nodes,
            link: LinkSpec::from_paper_tuple(10.0, 0.01),
            qos: QosSpec::paper_default(),
            duration: SimDuration::from_secs(45),
            settle: SimDuration::from_secs(10),
            seed: 0xC4A0_5EED,
        }
    }

    /// Adopts the workload of a harness [`Scenario`] (algorithm, size, link
    /// behaviour, QoS and seed), so any cell of the paper's figures can be
    /// re-run under a fault plan.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        ChaosConfig {
            algorithm: scenario.algorithm,
            nodes: scenario.nodes,
            link: scenario.link,
            qos: scenario.qos,
            duration: scenario.duration.min(SimDuration::from_secs(120)),
            settle: SimDuration::from_secs(10),
            seed: scenario.seed,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the baseline link behaviour.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Overrides the failure-detection QoS.
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Overrides the fault window.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the settle window.
    pub fn with_settle(mut self, settle: SimDuration) -> Self {
        self.settle = settle;
        self
    }

    /// End of the run: the fault window plus a quiet tail of two settle
    /// windows.
    pub fn end(&self) -> SimInstant {
        SimInstant::ZERO + self.duration + self.settle + self.settle
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every invariant violation the checker found (empty = the run passed).
    pub violations: Vec<Violation>,
    /// The full chronological trace (for post-mortems).
    pub trace: Vec<TraceEvent>,
    /// Network counters (losses, partition drops, duplicates).
    pub network: NetworkStats,
    /// The leader every up node agreed on at the end, if any.
    pub final_leader: Option<ProcessId>,
    /// Total simulator events processed.
    pub events_processed: u64,
    /// End-of-run snapshot of the live metrics registry the instrumented
    /// nodes recorded into (detection/election histograms, mistake counts,
    /// ALIVE traffic).
    pub metrics: Snapshot,
    /// The tail of the runtime protocol-event trace (capacity-bounded).
    pub proto_trace: Vec<TraceRecord>,
    /// Protocol-trace events lost to ring overflow before the drain.
    pub proto_dropped: u64,
}

impl ChaosReport {
    /// True if no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `plan` under `config` and checks the invariants over the trace.
///
/// Fully deterministic: the same `(config, plan)` pair always produces the
/// same report. This is [`run_plan_parallel`] on one sim worker.
pub fn run_plan(config: &ChaosConfig, plan: &FaultPlan) -> ChaosReport {
    run_plan_parallel(config, plan, 1)
}

/// Runs `plan` under `config` on `workers` sim workers and checks the
/// invariants over the merged trace.
///
/// Deterministic *across worker counts*: the same `(config, plan)` pair
/// produces the same report for any `workers` value (clamped to the node
/// count), [`run_plan`]'s included.
pub fn run_plan_parallel(config: &ChaosConfig, plan: &FaultPlan, workers: usize) -> ChaosReport {
    let n = config.nodes;
    let algorithm = config.algorithm;
    let qos = config.qos;
    let network = NetworkModel::new(config.link).build(config.seed.wrapping_add(1));
    let registry = Registry::default();
    let ring = TraceRing::new(PROTO_TRACE_CAPACITY);
    let factory: SharedActorFactory<ServiceNode> = Box::new({
        let registry = registry.clone();
        let ring = ring.clone();
        move |node, _incarnation| {
            let config = ServiceConfig::full_mesh(node, n, algorithm)
                .with_auto_join(CHAOS_GROUP, JoinConfig::candidate().with_qos(qos));
            let mut service = ServiceNode::new(config);
            // Instrumented under virtual time: the same QoS histograms
            // and protocol trace the real-time runtime exports.
            service.set_instruments(NodeInstruments::new(&registry, ring.clone(), node));
            service
        }
    });
    let mut world: ChaosWorld = ParWorld::new(n, workers.max(1), factory, network, config.seed);
    let mut recorders: Vec<TraceRecorder> = (0..world.workers())
        .map(|_| TraceRecorder::new(CHAOS_GROUP).with_proto_mirror(ring.clone()))
        .collect();
    // Engine-level marks and API-call emissions get their own recorder,
    // always appended *after* the shard recorders in the merge, so
    // same-instant ties between simulated events and injections resolve
    // identically for every worker count.
    let mut engine = TraceRecorder::new(CHAOS_GROUP).with_proto_mirror(ring.clone());
    for timed in plan.actions() {
        world.run_until(timed.at, &mut recorders);
        apply_action(&mut world, &mut engine, &timed.action, qos);
    }
    // Hand-written plans may schedule past the configured fault window; the
    // run is extended so every action still gets its full quiet tail (and
    // the checker never sees trace events past its declared end).
    let end = match plan.last_action_at() {
        Some(last) => config.end().max(last + config.settle + config.settle),
        None => config.end(),
    };
    world.run_until(end, &mut recorders);

    let final_leader = agreed_final_leader(&world);
    let mut network = NetworkStats::default();
    for medium in world.media() {
        network.merge(&medium.stats());
    }
    let events_processed = world.events_processed();
    let trace = merge_traces(recorders, engine);
    let spec = InvariantSpec {
        algorithm,
        nodes: n,
        qos,
        settle: config.settle,
        end,
    };
    let violations = check_trace(&trace, &spec);
    // The simulation publishes its network counters just before the
    // registry is snapshotted (see `NetworkStats::publish`).
    network.publish(&registry, "sim.net");
    let proto = drain_canonical(&ring);
    ChaosReport {
        violations,
        trace,
        network,
        final_leader,
        events_processed,
        metrics: registry.snapshot(),
        proto_trace: proto.events,
        proto_dropped: proto.dropped,
    }
}

/// Merges per-shard recorders (plus the engine's) into one chronological
/// trace. The sort is stable over the concatenation `shard 0, shard 1, …,
/// engine`, and a node's events all come from its one home shard, so
/// same-instant events of one node keep their canonical execution order no
/// matter how nodes were sharded.
fn merge_traces(recorders: Vec<TraceRecorder>, engine: TraceRecorder) -> Vec<TraceEvent> {
    let mut trace: Vec<TraceEvent> = Vec::new();
    for recorder in recorders {
        trace.extend(recorder.into_events());
    }
    trace.extend(engine.into_events());
    trace.sort_by_key(|event| (event.at, trace_node_key(&event.kind)));
    trace
}

/// The node a trace event concerns, as a sort key; network-wide events
/// (which only the engine recorder emits) sort after per-node ties.
fn trace_node_key(kind: &TraceEventKind) -> u32 {
    match kind {
        TraceEventKind::View { node, .. }
        | TraceEventKind::Crashed { node }
        | TraceEventKind::Recovered { node }
        | TraceEventKind::Left { node }
        | TraceEventKind::Joined { node } => node.0,
        TraceEventKind::Partitioned { .. }
        | TraceEventKind::Healed
        | TraceEventKind::LinkChanged => u32::MAX,
    }
}

/// Drains the shared protocol ring into canonical order: sorted by
/// `(time, node, push order)` and re-sequenced from zero. Pushes from one
/// node always happen on its home shard's thread in canonical execution
/// order, so the per-`(time, node)` tie-break by original (monotonic per
/// thread) sequence number is worker-count independent.
fn drain_canonical(ring: &TraceRing) -> TraceDrain {
    let mut drain = ring.drain();
    drain
        .events
        .sort_by_key(|record| (record.at, record.node.0, record.seq));
    for (seq, record) in drain.events.iter_mut().enumerate() {
        record.seq = seq as u64;
    }
    drain
}

/// The network as fault injection last left it. Every mutation goes to all
/// shard clones, so any one of them answers a topology question.
fn network(world: &ChaosWorld) -> &SimulatedNetwork {
    world
        .media()
        .next()
        .expect("a world has at least one shard")
}

fn apply_action(
    world: &mut ChaosWorld,
    recorder: &mut TraceRecorder,
    action: &FaultAction,
    qos: QosSpec,
) {
    let now = world.now();
    match action {
        FaultAction::Crash(node) => {
            if node.index() < world.num_nodes() {
                world.schedule_crash(*node, now);
            }
        }
        FaultAction::Recover(node) => {
            if node.index() < world.num_nodes() {
                world.schedule_recovery(*node, now);
            }
        }
        FaultAction::CrashLeader { down_for } => {
            if let Some(leader) = majority_leader_node(world) {
                world.schedule_crash(leader, now);
                world.schedule_recovery(leader, now + *down_for);
            }
        }
        FaultAction::Leave(node) => {
            // Only mark the trace when the action actually does something:
            // a no-op injection must not grant the run a fresh settle
            // window in which real violations would be excused.
            if is_member(world, *node) {
                recorder.mark(now, TraceEventKind::Left { node: *node });
                world.with_actor(*node, recorder, |actor, ctx| {
                    for process in actor.local_members_of(CHAOS_GROUP) {
                        let _ = actor.leave_group(process, CHAOS_GROUP, ctx);
                    }
                });
            }
        }
        FaultAction::Join(node) => {
            if node.index() < world.num_nodes() && world.is_up(*node) && !is_member(world, *node) {
                recorder.mark(now, TraceEventKind::Joined { node: *node });
                world.with_actor(*node, recorder, |actor, ctx| {
                    let process = actor.register_process();
                    let _ = actor.join_group(
                        process,
                        CHAOS_GROUP,
                        JoinConfig::candidate().with_qos(qos),
                        ctx,
                    );
                });
            }
        }
        FaultAction::SpawnProcess(node) => {
            if node.index() < world.num_nodes() && world.is_up(*node) {
                // Unlike `Join`, an existing member gains a further
                // process. Only a membership *change* is marked: piling
                // processes onto a member workstation disrupts nothing, so
                // it must not grant the run a fresh settle window.
                if !is_member(world, *node) {
                    recorder.mark(now, TraceEventKind::Joined { node: *node });
                }
                world.with_actor(*node, recorder, |actor, ctx| {
                    let process = actor.register_process();
                    let _ = actor.join_group(
                        process,
                        CHAOS_GROUP,
                        JoinConfig::candidate().with_qos(qos),
                        ctx,
                    );
                });
            }
        }
        FaultAction::Partition(components) => {
            // The same no-op rule as churn: re-applying the partition the
            // network is already in must not mark a disruption.
            if !network(world).partition_matches(components) {
                recorder.mark(
                    now,
                    TraceEventKind::Partitioned {
                        components: components.clone(),
                    },
                );
                world.for_each_medium(|medium| medium.set_partition(components));
            }
        }
        FaultAction::Heal => {
            if network(world).is_partitioned() {
                recorder.mark(now, TraceEventKind::Healed);
                world.for_each_medium(SimulatedNetwork::heal_partition);
            }
        }
        FaultAction::SetLink(spec) => {
            if network(world).model().default_link() != *spec {
                recorder.mark(now, TraceEventKind::LinkChanged);
                world.for_each_medium(|medium| medium.set_default_link(*spec));
            }
        }
    }
}

/// Whether `node` is up and currently has processes in the chaos group.
fn is_member(world: &ChaosWorld, node: NodeId) -> bool {
    node.index() < world.num_nodes()
        && world
            .actor(node)
            .map(|actor| !actor.local_members_of(CHAOS_GROUP).is_empty())
            .unwrap_or(false)
}

/// The node most up instances currently consider the leader's host (ties
/// broken towards the smallest id, so resolution is deterministic).
fn majority_leader_node(world: &ChaosWorld) -> Option<NodeId> {
    let mut votes: HashMap<NodeId, usize> = HashMap::new();
    for index in 0..world.num_nodes() {
        let node = NodeId(index as u32);
        if let Some(actor) = world.actor(node) {
            if let Some(leader) = actor.leader_of(CHAOS_GROUP) {
                if world.is_up(leader.node) {
                    *votes.entry(leader.node).or_insert(0) += 1;
                }
            }
        }
    }
    votes
        .into_iter()
        .max_by_key(|&(node, count)| (count, std::cmp::Reverse(node.0)))
        .map(|(node, _)| node)
}

/// The leader all up nodes agree on at the end of a run, if any.
fn agreed_final_leader(world: &ChaosWorld) -> Option<ProcessId> {
    let mut agreed: Option<ProcessId> = None;
    let mut seen = false;
    for index in 0..world.num_nodes() {
        let node = NodeId(index as u32);
        let Some(actor) = world.actor(node) else {
            continue;
        };
        if actor.local_members_of(CHAOS_GROUP).is_empty() {
            continue; // not currently a member (left and never rejoined)
        }
        let view = actor.leader_of(CHAOS_GROUP)?;
        seen = true;
        match agreed {
            None => agreed = Some(view),
            Some(leader) if leader == view => {}
            _ => return None,
        }
    }
    if seen {
        agreed
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKind;

    #[test]
    fn a_quiet_run_upholds_every_invariant_for_every_service() {
        for algorithm in ElectorKind::all() {
            let config = ChaosConfig::new(algorithm, 4).with_duration(SimDuration::from_secs(20));
            let report = run_plan(&config, &FaultPlan::quiet());
            assert!(report.ok(), "{algorithm}: {:?}", report.violations);
            assert!(report.final_leader.is_some(), "{algorithm}: no leader");
            assert!(report.events_processed > 0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let config = ChaosConfig::new(ElectorKind::OmegaLc, 4);
        let plan = PlanKind::LeaderChurn.generate(4, config.duration, config.link, config.seed);
        let a = run_plan(&config, &plan);
        let b = run_plan(&config, &plan);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.network, b.network);
        // The observability layer is deterministic too: same histograms,
        // same protocol trace (ring sequence numbers included).
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.proto_trace, b.proto_trace);
        assert_eq!(a.proto_dropped, b.proto_dropped);
    }

    #[test]
    fn runtime_protocol_trace_converts_into_a_checkable_trace() {
        // The drained sle-obs trace of an instrumented run, lifted through
        // the converter, must itself pass the invariant checker — this is
        // what makes runtime (wall-clock) traces checkable post-hoc.
        let config = ChaosConfig::new(ElectorKind::OmegaLc, 4);
        let plan = FaultPlan::new("crash-one").at(
            15.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(5),
            },
        );
        let report = run_plan(&config, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.proto_dropped, 0, "trace ring overflowed");
        let converted = crate::convert::convert_trace(&report.proto_trace, CHAOS_GROUP);
        assert!(
            converted
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::View { .. })),
            "no leader views in the converted runtime trace"
        );
        assert!(
            converted
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::Crashed { .. })),
            "crash marks missing from the protocol trace"
        );
        let spec = InvariantSpec {
            algorithm: config.algorithm,
            nodes: config.nodes,
            qos: config.qos,
            settle: config.settle,
            end: config.end(),
        };
        let violations = check_trace(&converted, &spec);
        assert!(violations.is_empty(), "{violations:?}");
        // And the node-level metrics saw the episode: at least one
        // detection sample and one election episode were recorded.
        let detections = report.metrics.merged_histogram("node.", ".fd.detection_ns");
        assert!(detections.count > 0, "no detection latency samples");
        let elections = report
            .metrics
            .merged_histogram("node.", ".elect.election_ns");
        assert!(elections.count > 0, "no election latency samples");
    }

    #[test]
    fn crash_leader_resolves_the_actual_leader_and_recovers_it() {
        let config = ChaosConfig::new(ElectorKind::OmegaL, 4);
        let plan = FaultPlan::new("kill-the-leader").at(
            12.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(5),
            },
        );
        let report = run_plan(&config, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        let crashes: Vec<&TraceEvent> = report
            .trace
            .iter()
            .filter(|event| matches!(event.kind, TraceEventKind::Crashed { .. }))
            .collect();
        assert_eq!(crashes.len(), 1, "exactly one crash injected");
        assert!(
            report
                .trace
                .iter()
                .any(|event| matches!(event.kind, TraceEventKind::Recovered { .. })),
            "the crashed leader must come back"
        );
        assert!(report.final_leader.is_some());
    }

    #[test]
    fn spawn_process_stacks_processes_and_marks_only_membership_changes() {
        let config =
            ChaosConfig::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("spawn-stack")
            // Node 0 is already a member: extra processes, no trace marks.
            .at(8.0, FaultAction::SpawnProcess(NodeId(0)))
            .at(9.0, FaultAction::SpawnProcess(NodeId(0)))
            // Node 1 leaves entirely, then a spawn re-joins it (one mark).
            .at(10.0, FaultAction::Leave(NodeId(1)))
            .at(13.0, FaultAction::SpawnProcess(NodeId(1)));
        let report = run_plan(&config, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        let joins = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Joined { .. }))
            .count();
        let leaves = report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Left { .. }))
            .count();
        assert_eq!(joins, 1, "only node 1's re-join changes membership");
        assert_eq!(leaves, 1);
        assert!(report.final_leader.is_some());
    }

    #[test]
    fn hand_written_plans_past_the_window_extend_the_run() {
        // Actions after the configured fault window are legal in manual
        // plans: the run is stretched so the checker still gets a quiet
        // tail (and never sees events past its declared end).
        let config =
            ChaosConfig::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("late").at(
            70.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(4),
            },
        );
        let report = run_plan(&config, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            report
                .trace
                .iter()
                .any(|event| matches!(event.kind, TraceEventKind::Crashed { .. })),
            "the late action was applied"
        );
    }

    #[test]
    fn no_op_injections_leave_no_trace_marks() {
        // Restoring a link that is already in force, healing a whole
        // network, re-applying churn that changes nothing: none of these
        // may appear in the trace, because each mark grants the invariant
        // checker a settle window in which real violations are excused
        // (and a shrunk plan must not retain actions that do nothing).
        let config =
            ChaosConfig::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("all-no-ops")
            .at(10.0, FaultAction::SetLink(config.link))
            .at(11.0, FaultAction::Heal)
            .at(12.0, FaultAction::Join(NodeId(0)))
            .at(13.0, FaultAction::Leave(NodeId(99)));
        let report = run_plan(&config, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            !report.trace.iter().any(|event| matches!(
                event.kind,
                TraceEventKind::LinkChanged
                    | TraceEventKind::Healed
                    | TraceEventKind::Joined { .. }
                    | TraceEventKind::Left { .. }
            )),
            "no-op injections polluted the trace"
        );
    }

    #[test]
    fn scenario_bridge_copies_the_workload() {
        let scenario = Scenario::paper_default(
            "bridge",
            ElectorKind::OmegaLc,
            LinkSpec::from_paper_tuple(100.0, 0.1),
        )
        .with_nodes(6)
        .with_seed(9);
        let config = ChaosConfig::from_scenario(&scenario);
        assert_eq!(config.algorithm, ElectorKind::OmegaLc);
        assert_eq!(config.nodes, 6);
        assert_eq!(config.link, LinkSpec::from_paper_tuple(100.0, 0.1));
        assert_eq!(config.seed, 9);
        assert_eq!(config.qos, scenario.qos);
    }

    /// A chaos link with a 1 ms delivery floor: positive lookahead, so the
    /// epoch (truly parallel) driver engages.
    fn floored_link() -> LinkSpec {
        LinkSpec::from_paper_tuple(10.0, 0.01).with_min_delay(SimDuration::from_millis(1))
    }

    fn assert_reports_equal(a: &ChaosReport, b: &ChaosReport, what: &str) {
        assert_eq!(
            a.events_processed, b.events_processed,
            "{what}: event counts"
        );
        assert_eq!(a.trace, b.trace, "{what}: traces");
        assert_eq!(a.violations, b.violations, "{what}: verdicts");
        assert_eq!(a.network, b.network, "{what}: network counters");
        assert_eq!(a.final_leader, b.final_leader, "{what}: final leader");
        assert_eq!(a.metrics, b.metrics, "{what}: metrics snapshots");
        assert_eq!(a.proto_trace, b.proto_trace, "{what}: protocol traces");
        assert_eq!(a.proto_dropped, b.proto_dropped, "{what}: proto drops");
    }

    #[test]
    fn worker_counts_produce_identical_reports_under_churn() {
        let config = ChaosConfig::new(ElectorKind::OmegaLc, 8)
            .with_link(floored_link())
            .with_duration(SimDuration::from_secs(12));
        let plan = PlanKind::LeaderChurn.generate(8, config.duration, config.link, config.seed);
        // `run_plan` is the one-worker run.
        let base = run_plan(&config, &plan);
        assert_eq!(base.proto_dropped, 0, "ring overflowed; grow the capacity");
        assert!(base.events_processed > 0);
        // Identical agreed-leader histories: the View events are part of
        // the trace compared below, and the final agreement matches too.
        for workers in [2, 8] {
            let run = run_plan_parallel(&config, &plan, workers);
            assert_reports_equal(&base, &run, &format!("run_plan vs workers={workers}"));
        }
    }

    #[test]
    fn zero_lookahead_falls_back_and_matches_single_worker() {
        // The paper's exponential link has no delivery floor: lookahead is
        // zero and the parallel driver degrades to sequential canonical
        // order — the reports must still match across worker counts.
        let config =
            ChaosConfig::new(ElectorKind::OmegaL, 4).with_duration(SimDuration::from_secs(12));
        let plan = FaultPlan::new("crash-one").at(
            6.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(3),
            },
        );
        let base = run_plan(&config, &plan);
        for workers in [2, 8] {
            let run = run_plan_parallel(&config, &plan, workers);
            assert_reports_equal(&base, &run, &format!("run_plan vs workers={workers}"));
        }
        assert!(base.ok(), "{:?}", base.violations);
    }

    #[test]
    fn a_quiet_parallel_run_upholds_every_invariant_for_every_service() {
        for algorithm in ElectorKind::all() {
            let config = ChaosConfig::new(algorithm, 4)
                .with_link(floored_link())
                .with_duration(SimDuration::from_secs(15));
            let report = run_plan_parallel(&config, &FaultPlan::quiet(), 4);
            assert!(report.ok(), "{algorithm}: {:?}", report.violations);
            assert!(report.final_leader.is_some(), "{algorithm}: no leader");
            assert!(report.events_processed > 0);
        }
    }

    #[test]
    fn partitions_reach_every_shard_clone() {
        let config = ChaosConfig::new(ElectorKind::OmegaLc, 6)
            .with_link(floored_link())
            .with_duration(SimDuration::from_secs(18));
        let plan = FaultPlan::new("split-then-heal")
            .at(
                6.0,
                FaultAction::Partition(vec![
                    vec![NodeId(0), NodeId(1), NodeId(2)],
                    vec![NodeId(3), NodeId(4), NodeId(5)],
                ]),
            )
            .at(12.0, FaultAction::Heal);
        let report = run_plan_parallel(&config, &plan, 3);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(
            report.network.partitioned > 0,
            "the partition must drop traffic on every shard's medium clone"
        );
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Healed)));
    }
}
