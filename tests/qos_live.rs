//! Live QoS acceptance: a real-time cluster with observability attached
//! must export T_D / T_MR evidence that meets the paper's §3 bounds, and
//! its drained protocol trace must replay cleanly through the chaos
//! invariant checker.
//!
//! This closes the loop the `sle-obs` crate exists for: the same QoS
//! quantities the simulation harness measures offline are read here from
//! the *live* registry of a wall-clock deployment — elect, crash the
//! leader, re-elect, then check the histograms and the trace.

use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ProcessId, ServiceConfig};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::{check_trace, convert_trace, InvariantSpec, TraceEventKind};
use sle_net::link::LinkSpec;
use sle_net::transport::InMemoryMesh;
use sle_obs::Registry;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::NodeId;

const NODES: usize = 5;
const GROUP: GroupId = GroupId(1);

fn wait_for_leader(
    cluster: &Cluster,
    members: &[NodeId],
    deadline: Instant,
    phase: &str,
    not: Option<NodeId>,
) -> ProcessId {
    loop {
        if let Some(leader) = cluster.agreed_leader_among(GROUP, members) {
            if Some(leader.node) != not {
                return leader;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{phase}: no agreed leader within the QoS-derived bound"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn live_qos_histograms_and_drained_trace_meet_the_paper_bounds() {
    let qos = QosSpec::paper_default();
    let t_d = Duration::from_nanos(qos.detection_time().as_nanos());
    // Same bound derivation as tests/runtime_scale.rs: grace, convergence,
    // and scheduling slack for a loaded CI machine.
    let bound = t_d * 4 + Duration::from_secs(2);

    let mut mesh: InMemoryMesh<ServiceMessage> =
        InMemoryMesh::with_links(NODES, LinkSpec::perfect(), 7);
    let endpoints: Vec<_> = (0..NODES)
        .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
        .collect();
    let members: Vec<NodeId> = (0..NODES).map(|i| NodeId(i as u32)).collect();
    let configs: Vec<ServiceConfig> = (0..NODES)
        .map(|i| {
            ServiceConfig::new(NodeId(i as u32), members.clone(), ElectorKind::OmegaLc)
                .with_hello_interval(SimDuration::from_millis(200))
                .with_auto_join(GROUP, JoinConfig::candidate().with_qos(qos))
        })
        .collect();

    let registry = Registry::default();
    let options = ClusterConfig::new(ElectorKind::OmegaLc)
        .with_workers(2)
        .with_observability(registry.clone());
    let started = Instant::now();
    let cluster = Cluster::start_with_service_configs(endpoints, configs, &options);
    assert!(cluster.obs_registry().is_some(), "observability attached");

    let first = wait_for_leader(
        &cluster,
        &members,
        started + bound,
        "initial election",
        None,
    );

    // `agreed_leader_among` queries the live elector view; the leader's own
    // *announcement* (which closes its election episode and traces the
    // change) waits out the self-election grace. Hold the crash until every
    // node has announced, so the injected failure hits a settled group.
    while registry
        .merged_histogram("node.", ".elect.election_ns")
        .count
        < NODES as u64
    {
        assert!(
            Instant::now() < started + bound,
            "not every node announced a leader within the QoS-derived bound"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // A genuine crash: detection must fire within T_D^U and, because the
    // suspicion is justified, without charging the T_MR mistake budget.
    cluster.crash(first.node);
    let survivors: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&m| m != first.node)
        .collect();
    let second = wait_for_leader(
        &cluster,
        &survivors,
        Instant::now() + bound,
        "failover election",
        Some(first.node),
    );
    assert_ne!(second.node, first.node);

    let snapshot = registry.snapshot();

    // T_D: every recorded detection latency within the paper bound. The
    // log2 buckets round a sample up by at most 2x; the constant absorbs
    // scheduler jitter between the missed heartbeat and the timer firing.
    let detections = snapshot.merged_histogram("node.", ".fd.detection_ns");
    assert!(detections.count >= 1, "the crash was detected somewhere");
    let t_d_ms = t_d.as_secs_f64() * 1e3;
    let worst_ms = detections.percentile_ms(1.0);
    assert!(
        worst_ms <= 2.0 * t_d_ms + 500.0,
        "detection tail {worst_ms:.1} ms exceeds the paper bound T_D^U = {t_d_ms:.0} ms"
    );

    // T_MR: a clean run (real crash, no false suspicion) records zero
    // detector mistakes.
    let mistakes = snapshot.sum_counters("node.", ".fd.mistakes");
    assert_eq!(mistakes, 0, "clean crash run charged the mistake budget");

    // Recovery: every node closed at least its initial election episode.
    let elections = snapshot.merged_histogram("node.", ".elect.election_ns");
    assert!(
        elections.count >= NODES as u64,
        "expected >= {NODES} election-latency samples, got {}",
        elections.count
    );

    // The drained runtime trace replays through the chaos checker: the
    // paper's invariants hold for the deployment, not just the simulation.
    let drain = cluster.drain_trace();
    assert_eq!(drain.dropped, 0, "trace ring overflowed");
    let converted = convert_trace(&drain.events, GROUP);
    assert!(
        converted.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::View {
                leader: Some(_),
                ..
            }
        )),
        "trace carries leader announcements"
    );
    assert!(
        converted
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Crashed { .. })),
        "trace carries the injected crash"
    );
    let end = drain
        .events
        .last()
        .map(|record| record.at)
        .unwrap_or(SimInstant::ZERO);
    let spec = InvariantSpec {
        algorithm: ElectorKind::OmegaLc,
        nodes: NODES,
        qos,
        settle: SimDuration::from_secs_f64(bound.as_secs_f64()),
        end,
    };
    let violations = check_trace(&converted, &spec);
    assert!(
        violations.is_empty(),
        "runtime trace violated paper invariants: {violations:#?}"
    );

    cluster.shutdown();
}
