//! Cross-transport conformance: every transport must execute the identical
//! protocol state machine.
//!
//! The same deterministic 5-node scenario — staggered joins so the rank
//! order is unambiguous, a stable election, a leader crash, a re-election —
//! runs on a 2-worker shard pool over `sle-net`'s in-memory mesh, over the
//! UDP plane with one socket per node (the paper's literal deployment), and
//! over the UDP plane with the 5 nodes demultiplexed behind 2 sockets.
//! Every one of the three cells must produce **identical elected leaders**
//! at every checkpoint, and its leader-view trace must earn an **equivalent
//! verdict from the chaos invariant checker** (all clean: eventual
//! agreement, stability, mistake budget, single leadership).
//!
//! This is the regression net under the scale-out refactors: a timer-wheel,
//! mailbox, fan-out-batching, shared-monitor, demux or send-coalescing
//! change that altered election behaviour on any transport would break the
//! leader equalities or hand one of the traces a violation the others do
//! not have.

use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ProcessId, ServiceEvent};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::{check_trace, InvariantSpec, TraceEvent, TraceEventKind, Violation};
use sle_net::link::LinkSpec;
use sle_net::transport::{InMemoryMesh, MessageEndpoint};
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

const NODES: usize = 5;
const GROUP: GroupId = GroupId(1);
/// The stagger between joins: large enough that clock skew between node
/// threads (milliseconds at worst) can never reorder the candidates'
/// accusation-time ranks.
const JOIN_STAGGER: Duration = Duration::from_millis(500);

/// The shard pool every cell runs on: fewer workers than nodes, so
/// residents share workers.
const WORKERS: usize = 2;

/// What one transport's run of the scenario produced.
struct Outcome {
    transport: String,
    /// The leader after the initial, staggered election.
    initial_leader: ProcessId,
    /// The leader after the initial leader's host crashed.
    recovered_leader: ProcessId,
    /// The invariant checker's verdict over the run's leader-view trace.
    violations: Vec<Violation>,
}

/// Runs the conformance scenario over whatever transport the endpoints
/// implement, recording every leader-change notification as a trace event.
fn run_scenario<E>(endpoints: Vec<E>, transport: &str) -> Outcome
where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    assert_eq!(endpoints.len(), NODES);
    let started = Instant::now();
    let config = ClusterConfig::new(ElectorKind::OmegaL).with_workers(WORKERS);
    let cluster = Cluster::start_endpoints_with_config(endpoints, config);
    let mut trace: Vec<TraceEvent> = Vec::new();

    let now_virtual =
        |started: &Instant| SimInstant::from_nanos(started.elapsed().as_nanos() as u64);
    let drain = |trace: &mut Vec<TraceEvent>| {
        while let Some(event) = cluster.next_event(Duration::from_millis(1)) {
            let ServiceEvent::LeaderChanged { group, leader } = event.event;
            if group == GROUP {
                trace.push(TraceEvent {
                    at: now_virtual(&started),
                    kind: TraceEventKind::View {
                        node: event.node,
                        leader,
                    },
                });
            }
        }
    };

    // Node 0 joins alone and, after the self-election grace period, must
    // elect itself.
    let handle0 = cluster.handle(NodeId(0)).expect("node 0");
    let p0 = handle0
        .join(GROUP, JoinConfig::candidate())
        .expect("join 0");
    let deadline = Instant::now() + Duration::from_secs(8);
    while handle0.leader_of(GROUP) != Some(p0) {
        assert!(
            Instant::now() < deadline,
            "{transport}: node 0 never elected itself"
        );
        drain(&mut trace);
        std::thread::sleep(Duration::from_millis(25));
    }

    // The remaining candidates join strictly later, in id order, so the
    // stable algorithm's rank order (accusation time, then id) is fixed by
    // construction: 0 before 1 before 2, ...
    for i in 1..NODES as u32 {
        std::thread::sleep(JOIN_STAGGER);
        cluster
            .handle(NodeId(i))
            .expect("handle")
            .join(GROUP, JoinConfig::candidate())
            .expect("join");
        drain(&mut trace);
    }

    let initial_leader = cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{transport}: no initial agreement: {e}"));
    drain(&mut trace);

    // Crash the leader's workstation; the survivors must re-elect.
    cluster.crash(initial_leader.node);
    trace.push(TraceEvent {
        at: now_virtual(&started),
        kind: TraceEventKind::Crashed {
            node: initial_leader.node,
        },
    });
    let recovered_leader = cluster
        .await_agreement(GROUP, Some(initial_leader.node), Duration::from_secs(15))
        .unwrap_or_else(|e| panic!("{transport}: no re-election: {e}"));
    drain(&mut trace);

    let end = now_virtual(&started);
    cluster.shutdown();

    // The same invariant checker the chaos sweeps use, over the wall-clock
    // trace: eventual agreement, leader stability (the crash justifies the
    // one demotion), the mistake-recurrence budget, single leadership.
    let spec = InvariantSpec {
        algorithm: ElectorKind::OmegaL,
        nodes: NODES,
        qos: QosSpec::paper_default(),
        settle: SimDuration::from_secs(10),
        end,
    };
    let violations = check_trace(&trace, &spec);

    Outcome {
        transport: transport.to_string(),
        initial_leader,
        recovered_leader,
        violations,
    }
}

fn mesh_endpoints() -> Vec<sle_net::transport::Endpoint<ServiceMessage>> {
    let mut mesh: InMemoryMesh<ServiceMessage> =
        InMemoryMesh::with_links(NODES, LinkSpec::perfect(), 7);
    (0..NODES)
        .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
        .collect()
}

/// Runs the scenario over a UDP plane of `sockets` sockets — push-mode
/// delivery into shard mailboxes plus coalesced sends flushed at the
/// runtime's batch boundaries — and audits the plane afterwards. The
/// endpoints keep the plane (and its reader threads) alive until the
/// cluster drops them.
fn run_udp_scenario(sockets: usize, transport: &str) -> Outcome {
    let plane = SharedUdpPlane::bind_loopback(NODES, sockets).expect("bind UDP plane");
    let outcome = run_scenario(plane.endpoints(), transport);
    assert_no_stranded_sends(&plane, transport);
    // Real datagrams flowed, and the demux refused none of our own traffic
    // (every peer speaks the same wire version, and every message the
    // protocol emits fits one datagram). Only `dropped_misrouted` may be
    // non-zero: shards shut down one by one, so a last send can find its
    // destination's endpoint already gone.
    let stats = plane.stats();
    assert!(stats.delivered > 0, "{transport}: nothing was delivered");
    assert_eq!(stats.dropped_malformed, 0, "{transport}");
    assert_eq!(stats.dropped_oversized, 0, "{transport}");
    assert_eq!(stats.dropped_truncated, 0, "{transport}");
    assert_eq!(stats.dropped_misaddressed, 0, "{transport}");
    assert_eq!(stats.send_unencodable, 0, "{transport}");
    outcome
}

/// After the cluster has shut down (dropping its endpoints), no coalescing
/// cell may still hold buffered bytes: every send path — runtime batch
/// boundaries, endpoint drop, plane drop — must have flushed. A non-zero
/// backlog means a datagram was composed but never handed to the socket.
fn assert_no_stranded_sends(plane: &SharedUdpPlane<ServiceMessage>, transport: &str) {
    assert_eq!(
        plane.pending_backlog(),
        0,
        "{transport}: coalesced sends stranded in the plane after shutdown"
    );
}

/// Asserts the scenario's pinned outcome: the staggered construction makes
/// node 0 win the initial election, and after its crash the earliest
/// surviving rank — node 1 — takes over, with a clean invariant verdict.
fn assert_expected_outcome(run: &Outcome) {
    assert_eq!(
        run.initial_leader.node,
        NodeId(0),
        "{}: wrong initial leader",
        run.transport
    );
    assert_eq!(
        run.recovered_leader.node,
        NodeId(1),
        "{}: wrong recovered leader",
        run.transport
    );
    assert!(
        run.violations.is_empty(),
        "{}: invariant violations: {:?}",
        run.transport,
        run.violations
    );
}

fn assert_identical(a: &Outcome, b: &Outcome) {
    assert_eq!(a.initial_leader, b.initial_leader);
    assert_eq!(a.recovered_leader, b.recovered_leader);
    assert_eq!(a.violations, b.violations);
}

#[test]
fn sharded_driver_matrix_executes_the_identical_state_machine() {
    let runs = [
        run_scenario(mesh_endpoints(), "mesh"),
        run_udp_scenario(NODES, "udp-per-node"),
        run_udp_scenario(2, "udp-shared"),
    ];
    for run in &runs {
        assert_expected_outcome(run);
    }
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            assert_identical(a, b);
        }
    }
}
