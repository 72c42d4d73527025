//! The chaos engine: the one driver of a simulated service deployment. It
//! runs a [`FaultPlan`] against a [`Scenario`], checks the resulting trace
//! against the protocol invariants, and folds the paper's QoS metrics from
//! the same trace.
//!
//! [`run_plan_parallel`] runs the plan on the sharded simulator
//! ([`ParWorld`]) across `workers` sim workers, and [`run_plan`] is its
//! `workers = 1` call. Every field of the [`ChaosReport`] is **independent
//! of the worker count**: the same `(scenario, plan)` pair yields identical
//! traces, violations, network counters, metrics, QoS and protocol traces
//! for `workers` ∈ {1, 2, 8, …}. That rests on three pillars:
//!
//! * the simulator executes events in a canonical, partition-independent
//!   order (see [`sle_sim::par`]), so the per-node event histories match for
//!   any sharding;
//! * per-shard trace recorders are merged by a stable sort on
//!   `(time, node)` — simultaneous events of one node stay in their
//!   canonical order because one node always lives on exactly one shard —
//!   and the QoS metrics are folded from that merged trace, with traffic
//!   summed over the shards;
//! * the shared protocol-trace ring is drained and re-sequenced the same
//!   way, so ring sequence numbers do not leak scheduling order.
//!
//! More than one worker only runs in parallel when the link model has a
//! positive minimum delay
//! ([`LinkSpec::with_min_delay`](sle_net::link::LinkSpec::with_min_delay)):
//! with a zero floor (the paper's exponential delays) the simulator falls
//! back to sequential canonical-order execution — the same report, without
//! the speedup.

use std::collections::{BTreeMap, HashMap};

use sle_core::{JoinConfig, NodeInstruments, ProcessId, ServiceConfig, ServiceEvent, ServiceNode};
use sle_net::network::{NetworkModel, NetworkStats, SimulatedNetwork};
use sle_obs::{Registry, Snapshot, TraceDrain, TraceRecord, TraceRing};
use sle_sim::actor::NodeId;
use sle_sim::observer::{Observer, PairObserver};
use sle_sim::par::{ParWorld, SharedActorFactory};
use sle_sim::time::SimInstant;

use crate::crash::CrashPlan;
use crate::invariants::{check_trace, InvariantSpec, Violation, ViolationKind};
use crate::metrics::{ExperimentMetrics, MetricsCollector, TrafficMeter};
use crate::plan::{FaultAction, FaultPlan};
use crate::scenario::{Scenario, EXPERIMENT_GROUP};
use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};

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

/// What a chaos run observes on each shard (and, for injected API calls,
/// on the engine's side): the trace, and the traffic of the measured window.
type RunObserver = PairObserver<TraceRecorder, TrafficMeter>;

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
    /// The paper's QoS metrics (recovery time, mistake rate, availability,
    /// bandwidth) over the scenario's measured window: after the warm-up,
    /// up to [`Scenario::horizon`].
    pub qos: ExperimentMetrics,
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

    /// `ok`, or the number of violations of each kind, e.g.
    /// `unjustified-demotion=5 mistake-recurrence-exceeded=1`.
    pub fn verdict(&self) -> String {
        if self.ok() {
            return "ok".to_string();
        }
        let mut counts: BTreeMap<ViolationKind, usize> = BTreeMap::new();
        for violation in &self.violations {
            *counts.entry(violation.kind).or_default() += 1;
        }
        let counts: Vec<String> = counts
            .iter()
            .map(|(kind, count)| format!("{kind}={count}"))
            .collect();
        counts.join(" ")
    }
}

/// Runs `plan` under `scenario` and checks the invariants over the trace.
///
/// Fully deterministic: the same `(scenario, plan)` pair always produces
/// the same report. This is [`run_plan_parallel`] on one sim worker.
pub fn run_plan(scenario: &Scenario, plan: &FaultPlan) -> ChaosReport {
    run_plan_parallel(scenario, plan, 1)
}

/// Runs `plan` under `scenario` on `workers` sim workers and checks the
/// invariants over the merged trace.
///
/// The scenario's workstation crash process joins the plan as timed
/// `Crash`/`Recover` actions, and its link-crash overlay is part of the
/// network. The QoS metrics close at [`Scenario::horizon`]; the run goes on
/// to [`Scenario::end`] (or further, for hand-written plans with late
/// actions) so the checker gets its quiet tail.
///
/// Deterministic *across worker counts*: the same `(scenario, plan)` pair
/// produces the same report for any `workers` value (clamped to the node
/// count), [`run_plan`]'s included.
pub fn run_plan_parallel(scenario: &Scenario, plan: &FaultPlan, workers: usize) -> ChaosReport {
    let n = scenario.nodes;
    let algorithm = scenario.algorithm;
    let mut network = NetworkModel::new(scenario.link);
    if let Some(spec) = scenario.link_crashes {
        network = network.with_link_crashes(spec);
    }
    let network = network.build(scenario.seed.wrapping_add(1));
    let registry = Registry::default();
    let ring = TraceRing::new(PROTO_TRACE_CAPACITY);
    let factory: SharedActorFactory<ServiceNode> = Box::new({
        let registry = registry.clone();
        let ring = ring.clone();
        let scenario = scenario.clone();
        move |node, _incarnation| {
            let config = ServiceConfig::full_mesh(node, n, algorithm)
                .with_auto_join(EXPERIMENT_GROUP, join_config(&scenario, node));
            let mut service = ServiceNode::new(config);
            // Instrumented under virtual time: the same QoS histograms
            // and protocol trace the real-time runtime exports.
            service.set_instruments(NodeInstruments::new(&registry, ring.clone(), node));
            service
        }
    });
    let mut world: ChaosWorld = ParWorld::new(n, workers.max(1), factory, network, scenario.seed);
    let observer = || {
        PairObserver::new(
            TraceRecorder::new(EXPERIMENT_GROUP, ring.clone()),
            TrafficMeter::new(SimInstant::ZERO + scenario.warmup, scenario.horizon()),
        )
    };
    let mut shards: Vec<RunObserver> = (0..world.workers()).map(|_| observer()).collect();
    // Engine-level marks and API-call emissions get their own observer,
    // always appended *after* the shard recorders in the merge, so
    // same-instant ties between simulated events and injections resolve
    // identically for every worker count.
    let mut engine = observer();
    let plan = with_workstation_crashes(scenario, plan);
    for timed in plan.actions() {
        world.run_until(timed.at, &mut shards);
        apply_action(&mut world, &mut engine, &timed.action, scenario);
    }
    // Hand-written plans may schedule past the fault window; the run is
    // extended so every action still gets its full quiet tail (and the
    // checker never sees trace events past its declared end).
    let end = match plan.last_action_at() {
        Some(last) => scenario.end().max(last + scenario.settle + scenario.settle),
        None => scenario.end(),
    };
    world.run_until(end, &mut shards);

    let final_leader = agreed_final_leader(&world);
    let mut network = NetworkStats::default();
    for medium in world.media() {
        network.merge(&medium.stats());
    }
    let events_processed = world.events_processed();
    shards.push(engine);
    let (recorders, meters): (Vec<TraceRecorder>, Vec<TrafficMeter>) = shards
        .into_iter()
        .map(|pair| (pair.first, pair.second))
        .unzip();
    let trace = merge_traces(recorders);
    let spec = InvariantSpec {
        algorithm,
        nodes: n,
        qos: scenario.qos,
        settle: scenario.settle,
        end,
    };
    let violations = check_trace(&trace, &spec);
    let qos = fold_qos(scenario, &trace, &meters);
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
        qos,
        proto_trace: proto.events,
        proto_dropped: proto.dropped,
    }
}

/// How `node` joins the experiment group: a candidate with the scenario's
/// QoS, tuned adaptively if the scenario lists it.
fn join_config(scenario: &Scenario, node: NodeId) -> JoinConfig {
    let join = JoinConfig::candidate().with_qos(scenario.qos);
    if scenario.adaptive.contains(&node) {
        join.with_adaptive_tuning()
    } else {
        join
    }
}

/// `plan` with the scenario's workstation crash process folded in as timed
/// `Crash`/`Recover` actions: the schedule [`CrashPlan::generate`] draws
/// over the warm-up and the measured duration from the seed stream
/// `seed + 2`.
fn with_workstation_crashes(scenario: &Scenario, plan: &FaultPlan) -> FaultPlan {
    let Some(profile) = scenario.workstation_crashes else {
        return plan.clone();
    };
    let window = scenario.warmup + scenario.duration;
    let crashes = CrashPlan::generate(
        scenario.nodes,
        window,
        profile,
        scenario.seed.wrapping_add(2),
    );
    crashes.events().iter().fold(plan.clone(), |plan, event| {
        let action = if event.is_crash {
            FaultAction::Crash(event.node)
        } else {
            FaultAction::Recover(event.node)
        };
        plan.at_instant(event.at, action)
    })
}

/// The paper's QoS metrics, folded from the merged trace up to the
/// scenario's horizon, plus the traffic the meters counted. Membership
/// churn and topology marks are not part of the paper's metrics and are
/// skipped.
fn fold_qos(
    scenario: &Scenario,
    trace: &[TraceEvent],
    meters: &[TrafficMeter],
) -> ExperimentMetrics {
    let horizon = scenario.horizon();
    let measure_from = SimInstant::ZERO + scenario.warmup;
    let mut collector = MetricsCollector::new(EXPERIMENT_GROUP, scenario.nodes, measure_from);
    for event in trace.iter().take_while(|event| event.at <= horizon) {
        let at = event.at;
        match event.kind {
            TraceEventKind::View { node, leader } => {
                let group = EXPERIMENT_GROUP;
                collector.event_emitted(at, node, &ServiceEvent::LeaderChanged { group, leader });
            }
            TraceEventKind::Crashed { node } => collector.node_crashed(at, node),
            // The collector does not read incarnations.
            TraceEventKind::Recovered { node } => collector.node_recovered(at, node, 0),
            _ => {}
        }
    }
    for meter in meters {
        collector.add_traffic(meter);
    }
    collector.finish(horizon)
}

/// Merges the per-shard recorders (the engine's last) into one
/// chronological trace. The sort is stable over the concatenation `shard 0,
/// shard 1, …, engine`, and a node's events all come from its one home
/// shard, so same-instant events of one node keep their canonical execution
/// order no matter how nodes were sharded.
fn merge_traces(recorders: Vec<TraceRecorder>) -> Vec<TraceEvent> {
    let mut trace: Vec<TraceEvent> = Vec::new();
    for recorder in recorders {
        trace.extend(recorder.into_events());
    }
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
    observer: &mut RunObserver,
    action: &FaultAction,
    scenario: &Scenario,
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
                observer
                    .first
                    .mark(now, TraceEventKind::Left { node: *node });
                world.with_actor(*node, observer, |actor, ctx| {
                    for process in actor.local_members_of(EXPERIMENT_GROUP) {
                        let _ = actor.leave_group(process, EXPERIMENT_GROUP, ctx);
                    }
                });
            }
        }
        FaultAction::Join(node) | FaultAction::SpawnProcess(node) => {
            // `Join` is a no-op on a member; `SpawnProcess` gives a member
            // a further process. Only a membership *change* is marked:
            // piling processes onto a member workstation disrupts nothing,
            // so it must not grant the run a fresh settle window.
            let spawn = matches!(action, FaultAction::SpawnProcess(_));
            if node.index() < world.num_nodes() && world.is_up(*node) {
                let member = is_member(world, *node);
                if member && !spawn {
                    return;
                }
                if !member {
                    observer
                        .first
                        .mark(now, TraceEventKind::Joined { node: *node });
                }
                world.with_actor(*node, observer, |actor, ctx| {
                    let process = actor.register_process();
                    let join = join_config(scenario, *node);
                    let _ = actor.join_group(process, EXPERIMENT_GROUP, join, ctx);
                });
            }
        }
        FaultAction::Partition(components) => {
            // The same no-op rule as churn: re-applying the partition the
            // network is already in must not mark a disruption.
            if !network(world).partition_matches(components) {
                observer.first.mark(
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
                observer.first.mark(now, TraceEventKind::Healed);
                world.for_each_medium(SimulatedNetwork::heal_partition);
            }
        }
        FaultAction::SetLink(spec) => {
            if network(world).model().default_link() != *spec {
                observer.first.mark(now, TraceEventKind::LinkChanged);
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
            .map(|actor| !actor.local_members_of(EXPERIMENT_GROUP).is_empty())
            .unwrap_or(false)
}

/// The node most up instances currently consider the leader's host (ties
/// broken towards the smallest id, so resolution is deterministic).
fn majority_leader_node(world: &ChaosWorld) -> Option<NodeId> {
    let mut votes: HashMap<NodeId, usize> = HashMap::new();
    for index in 0..world.num_nodes() {
        let node = NodeId(index as u32);
        if let Some(actor) = world.actor(node) {
            if let Some(leader) = actor.leader_of(EXPERIMENT_GROUP) {
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
        if actor.local_members_of(EXPERIMENT_GROUP).is_empty() {
            continue; // not currently a member (left and never rejoined)
        }
        let view = actor.leader_of(EXPERIMENT_GROUP)?;
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
    use crate::crash::CrashProfile;
    use crate::plan::PlanKind;
    use crate::stats::Summary;
    use sle_election::ElectorKind;
    use sle_fd::QosSpec;
    use sle_net::link::{LinkCrashSpec, LinkSpec};
    use sle_sim::time::SimDuration;

    #[test]
    fn a_quiet_run_upholds_every_invariant_for_every_service() {
        for algorithm in ElectorKind::all() {
            let scenario = Scenario::new(algorithm, 4).with_duration(SimDuration::from_secs(20));
            let report = run_plan(&scenario, &FaultPlan::quiet());
            assert!(report.ok(), "{algorithm}: {:?}", report.violations);
            assert!(report.final_leader.is_some(), "{algorithm}: no leader");
            assert!(report.events_processed > 0);
        }
    }

    #[test]
    fn joins_are_adaptive_exactly_on_the_listed_workstations() {
        let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(500));
        let scenario = Scenario::new(ElectorKind::OmegaL, 4)
            .with_qos(qos)
            .with_adaptive([NodeId(2)]);
        let fixed = JoinConfig::candidate().with_qos(qos);
        assert_eq!(join_config(&scenario, NodeId(1)), fixed);
        assert_eq!(
            join_config(&scenario, NodeId(2)),
            fixed.with_adaptive_tuning()
        );
        // The default lists nobody: every join is the paper's static one.
        let paper = Scenario::new(ElectorKind::OmegaL, 4).with_qos(qos);
        assert!(paper.adaptive.is_empty());
        assert_eq!(join_config(&paper, NodeId(2)), fixed);
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = Scenario::new(ElectorKind::OmegaLc, 4);
        let plan =
            PlanKind::LeaderChurn.generate(4, scenario.duration, scenario.link, scenario.seed);
        let a = run_plan(&scenario, &plan);
        let b = run_plan(&scenario, &plan);
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
        let scenario = Scenario::new(ElectorKind::OmegaLc, 4);
        let plan = FaultPlan::new("crash-one").at(
            15.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(5),
            },
        );
        let report = run_plan(&scenario, &plan);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.proto_dropped, 0, "trace ring overflowed");
        let converted = crate::convert::convert_trace(&report.proto_trace, EXPERIMENT_GROUP);
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
            algorithm: scenario.algorithm,
            nodes: scenario.nodes,
            qos: scenario.qos,
            settle: scenario.settle,
            end: scenario.end(),
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
        let scenario = Scenario::new(ElectorKind::OmegaL, 4);
        let plan = FaultPlan::new("kill-the-leader").at(
            12.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(5),
            },
        );
        let report = run_plan(&scenario, &plan);
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
        let scenario =
            Scenario::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("spawn-stack")
            // Node 0 is already a member: extra processes, no trace marks.
            .at(8.0, FaultAction::SpawnProcess(NodeId(0)))
            .at(9.0, FaultAction::SpawnProcess(NodeId(0)))
            // Node 1 leaves entirely, then a spawn re-joins it (one mark).
            .at(10.0, FaultAction::Leave(NodeId(1)))
            .at(13.0, FaultAction::SpawnProcess(NodeId(1)));
        let report = run_plan(&scenario, &plan);
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
        // Actions after the scenario's fault window are legal in manual
        // plans: the run is stretched so the checker still gets a quiet
        // tail (and never sees events past its declared end).
        let scenario =
            Scenario::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("late").at(
            70.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(4),
            },
        );
        let report = run_plan(&scenario, &plan);
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
        let scenario =
            Scenario::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("all-no-ops")
            .at(10.0, FaultAction::SetLink(scenario.link))
            .at(11.0, FaultAction::Heal)
            .at(12.0, FaultAction::Join(NodeId(0)))
            .at(13.0, FaultAction::Leave(NodeId(99)));
        let report = run_plan(&scenario, &plan);
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
        assert_eq!(a.qos, b.qos, "{what}: QoS metrics");
    }

    #[test]
    fn worker_counts_produce_identical_reports_under_churn() {
        let churn = Scenario::new(ElectorKind::OmegaLc, 8)
            .with_link(floored_link())
            .with_duration(SimDuration::from_secs(12));
        let plan = PlanKind::LeaderChurn.generate(8, churn.duration, churn.link, churn.seed);
        // The paper's crash process: the epoch driver folds a crash-heavy
        // trace into the QoS metrics.
        let crashes = Scenario::paper_default(ElectorKind::OmegaLc, floored_link())
            .with_nodes(8)
            .with_duration(SimDuration::from_secs(300))
            .with_seed(4);
        for (scenario, plan) in [(churn, plan), (crashes, FaultPlan::quiet())] {
            // `run_plan` is the one-worker run.
            let base = run_plan(&scenario, &plan);
            assert_eq!(base.proto_dropped, 0, "ring overflowed; grow the capacity");
            assert!(base.events_processed > 0);
            assert!(
                base.trace
                    .iter()
                    .any(|e| matches!(e.kind, TraceEventKind::Crashed { .. })),
                "no crash in the trace"
            );
            // Identical agreed-leader histories: the View events are part
            // of the trace compared below, and the final agreement matches
            // too.
            for workers in [2, 8] {
                let run = run_plan_parallel(&scenario, &plan, workers);
                assert_reports_equal(&base, &run, &format!("run_plan vs workers={workers}"));
            }
        }
    }

    #[test]
    fn zero_lookahead_falls_back_and_matches_single_worker() {
        // The paper's exponential link has no delivery floor: lookahead is
        // zero and the parallel driver degrades to sequential canonical
        // order — the reports must still match across worker counts.
        let scenario =
            Scenario::new(ElectorKind::OmegaL, 4).with_duration(SimDuration::from_secs(12));
        let plan = FaultPlan::new("crash-one").at(
            6.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(3),
            },
        );
        let base = run_plan(&scenario, &plan);
        for workers in [2, 8] {
            let run = run_plan_parallel(&scenario, &plan, workers);
            assert_reports_equal(&base, &run, &format!("run_plan vs workers={workers}"));
        }
        assert!(base.ok(), "{:?}", base.violations);
    }

    #[test]
    fn a_quiet_parallel_run_upholds_every_invariant_for_every_service() {
        for algorithm in ElectorKind::all() {
            let scenario = Scenario::new(algorithm, 4)
                .with_link(floored_link())
                .with_duration(SimDuration::from_secs(15));
            let report = run_plan_parallel(&scenario, &FaultPlan::quiet(), 4);
            assert!(report.ok(), "{algorithm}: {:?}", report.violations);
            assert!(report.final_leader.is_some(), "{algorithm}: no leader");
            assert!(report.events_processed > 0);
        }
    }

    #[test]
    fn partitions_reach_every_shard_clone() {
        let scenario = Scenario::new(ElectorKind::OmegaLc, 6)
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
        let report = run_plan_parallel(&scenario, &plan, 3);
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

    /// A quiet network with no crashes gives perfect availability and no
    /// mistakes.
    #[test]
    fn quiet_network_has_a_stable_leader() {
        let scenario = Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
            .with_nodes(4)
            .without_workstation_crashes()
            .with_duration(SimDuration::from_secs(120));
        let report = run_plan(&scenario, &FaultPlan::quiet());
        assert!(report.ok(), "{:?}", report.violations);
        let metrics = report.qos;
        assert_eq!(metrics.unjustified_demotions, 0);
        assert!(
            metrics.leader_availability > 0.999,
            "availability {}",
            metrics.leader_availability
        );
        assert!(metrics.kbytes_per_sec_per_node > 0.0);
        assert_eq!(metrics.leader_crashes, 0);
    }

    /// Crashing workstations produce leader crashes, recoveries within a few
    /// seconds, and (for the stable algorithms) no unjustified demotions.
    #[test]
    fn crashing_workstations_are_recovered_from() {
        let scenario = Scenario::paper_default(ElectorKind::OmegaL, LinkSpec::lan())
            .with_nodes(6)
            .with_duration(SimDuration::from_secs(1800))
            .with_seed(77);
        let metrics = run_plan(&scenario, &FaultPlan::quiet()).qos;
        assert!(
            metrics.leader_crashes > 0,
            "expected at least one leader crash"
        );
        assert!(metrics.recovery.count > 0);
        assert!(
            metrics.recovery.mean < 3.0,
            "recovery too slow: {}s",
            metrics.recovery.mean
        );
        assert!(metrics.leader_availability > 0.95);
    }

    /// The engine crashes and recovers exactly the workstations, at exactly
    /// the instants, that the scenario's crash plan lists.
    #[test]
    fn crash_marks_are_the_scenarios_crash_plan() {
        let scenario = Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
            .with_nodes(6)
            .with_duration(SimDuration::from_secs(900))
            .with_seed(31);
        let window = scenario.warmup + scenario.duration;
        let profile = CrashProfile::paper_default();
        let plan = CrashPlan::generate(6, window, profile, scenario.seed + 2);
        let expected: Vec<TraceEvent> = plan
            .events()
            .iter()
            .map(|event| TraceEvent {
                at: event.at,
                kind: if event.is_crash {
                    TraceEventKind::Crashed { node: event.node }
                } else {
                    TraceEventKind::Recovered { node: event.node }
                },
            })
            .collect();
        assert!(plan.crash_count() > 3, "too few crashes to mean anything");
        let report = run_plan(&scenario, &FaultPlan::quiet());
        let marks: Vec<TraceEvent> = report
            .trace
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::Crashed { .. } | TraceEventKind::Recovered { .. }
                )
            })
            .collect();
        assert_eq!(marks, expected);
    }

    /// The exact metrics of two short figure cells: workstation crashes over
    /// lossy links, and the Figure 7 link-crash overlay. A deliberate
    /// protocol change re-records them, as it does the node's golden run.
    #[test]
    fn figure_cells_keep_their_recorded_metrics() {
        let cells = [
            (
                Scenario::paper_default(
                    ElectorKind::OmegaL,
                    LinkSpec::from_paper_tuple(100.0, 0.1),
                )
                .with_seed(8),
                ExperimentMetrics {
                    duration: SimDuration::from_secs(120),
                    recovery: Summary::of(&[1.387807211]),
                    mistakes_per_hour: 30.0,
                    leader_availability: 0.9783630687083333,
                    kbytes_per_sec_per_node: 2.6074042426215276,
                    leader_crashes: 1,
                    unjustified_demotions: 1,
                    recovery_samples: vec![1.387807211],
                },
            ),
            (
                Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
                    .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60))
                    .with_seed(5),
                ExperimentMetrics {
                    duration: SimDuration::from_secs(120),
                    recovery: Summary::of(&[1.663233748]),
                    mistakes_per_hour: 390.0,
                    leader_availability: 0.9369896155749999,
                    kbytes_per_sec_per_node: 31.997635904947916,
                    leader_crashes: 1,
                    unjustified_demotions: 13,
                    recovery_samples: vec![1.663233748],
                },
            ),
        ];
        for (scenario, expected) in cells {
            let scenario = scenario.with_duration(SimDuration::from_secs(120));
            let report = run_plan(&scenario, &FaultPlan::quiet());
            assert_eq!(report.qos, expected, "{scenario:?}");
        }
    }

    #[test]
    fn the_verdict_counts_violations_per_kind() {
        let scenario =
            Scenario::new(ElectorKind::OmegaLc, 3).with_duration(SimDuration::from_secs(5));
        let mut report = run_plan(&scenario, &FaultPlan::quiet());
        assert_eq!(report.verdict(), "ok");
        let violation = |kind| Violation {
            kind,
            at: SimInstant::ZERO,
            details: String::new(),
        };
        report.violations = vec![
            violation(ViolationKind::MistakeRecurrenceExceeded),
            violation(ViolationKind::UnjustifiedDemotion),
            violation(ViolationKind::UnjustifiedDemotion),
        ];
        assert_eq!(
            report.verdict(),
            "unjustified-demotion=2 mistake-recurrence-exceeded=1"
        );
    }
}
