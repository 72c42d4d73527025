//! Cross-transport conformance of the client tier: the *same* session
//! scenario — install fenced counters, elect, serve a workload, crash the
//! leader, serve another workload through the re-election — runs unmodified
//! over the in-memory mesh and over the UDP plane, both with one socket per
//! node and with the nodes sharing sockets. The [`ClientHub`] only sees the
//! [`MessageEndpoint`] seam, so one generic function covers all three.
//!
//! Every run must finish its workload (no lost sessions), and the shared
//! [`FencingAudit`] must record zero violations: across the forced leader
//! change, accepted writes carried monotonically non-decreasing fencing
//! tokens on every replica.

use std::sync::Arc;
use std::time::Duration;

use sle_app::{ClientConfig, ClientHub, FencedCounter, FencingAudit};
use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::LinkSpec;
use sle_net::transport::{InMemoryMesh, MessageEndpoint};
use sle_sim::time::SimDuration;
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

const SERVERS: usize = 3;
const GROUP: GroupId = GroupId(1);
const SESSIONS: u64 = 100;
const PER_SESSION: u64 = 5;

/// The scenario, generic over the transport: `endpoints` holds one endpoint
/// per service node (ids `0..SERVERS`) *plus* one extra endpoint (id
/// `SERVERS`) for the client hub, all wired to each other.
fn run_sessions_over<E>(mut endpoints: Vec<E>, transport: &str)
where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    assert_eq!(endpoints.len(), SERVERS + 1);
    let client_endpoint = endpoints.pop().expect("client endpoint");

    // A tight detection bound keeps the forced re-election (and the lease
    // TTL riding on T_D) short enough for a test.
    let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(250));
    let cluster =
        Cluster::start_endpoints_with_config(endpoints, ClusterConfig::new(ElectorKind::OmegaL));
    let audit = FencingAudit::shared();
    for i in 0..SERVERS as u32 {
        let handle = cluster.handle(NodeId(i)).expect("handle");
        assert!(
            handle.install_app(Box::new(FencedCounter::with_audit(Arc::clone(&audit)))),
            "{transport}: install_app failed on node {i}"
        );
        handle
            .join(GROUP, JoinConfig::candidate().with_qos(qos))
            .expect("join");
    }
    let leader = cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{transport}: no initial agreement: {e}"));

    let servers: Vec<NodeId> = (0..SERVERS as u32).map(NodeId).collect();
    let mut config = ClientConfig::new(GROUP, servers);
    config.deadline = Some(Duration::from_secs(60));
    let mut hub = ClientHub::new(client_endpoint, config);

    // First workload against the settled leader: every request completes.
    let first = hub.run_workload(SESSIONS, PER_SESSION, 1);
    assert!(!first.gave_up, "{transport}: first workload gave up");
    assert_eq!(first.completed, SESSIONS * PER_SESSION, "{transport}");

    // Crash the serving leader; the hub's next sends time out, it probes
    // afresh, follows the survivors' redirects and finishes the workload
    // against the re-elected leader — transparently to its sessions.
    cluster.crash(leader.node);
    let second = hub.run_workload(SESSIONS, PER_SESSION, 1);
    assert!(
        !second.gave_up,
        "{transport}: second workload gave up: completed={} rejected={} redirects={} timeouts={} dup={} attempts={}",
        second.completed,
        second.rejected_replies,
        second.redirects,
        second.timeouts,
        second.duplicate_replies,
        second.attempts,
    );
    assert_eq!(second.completed, SESSIONS * PER_SESSION, "{transport}");
    assert!(
        second.timeouts + second.redirects > 0,
        "{transport}: the crash should force at least one retry"
    );

    cluster.shutdown();

    // The safety property the tier exists for: across both leaderships,
    // no replica ever accepted a write under a regressed fencing token,
    // and at-least-once delivery means completions never exceed accepts.
    let snapshot = audit.snapshot();
    assert_eq!(snapshot.violations, 0, "{transport}: fencing violated");
    assert!(
        snapshot.accepts >= 2 * SESSIONS * PER_SESSION,
        "{transport}: only {} accepts recorded",
        snapshot.accepts
    );
}

#[test]
fn client_sessions_survive_leader_crash_over_the_in_memory_mesh() {
    let mut mesh: InMemoryMesh<ServiceMessage> =
        InMemoryMesh::with_links(SERVERS + 1, LinkSpec::perfect(), 11);
    let endpoints = (0..=SERVERS)
        .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
        .collect();
    run_sessions_over(endpoints, "mesh");
}

/// The scenario over a UDP plane of `sockets` sockets; the hub's endpoint
/// is just one more identity on the plane.
fn run_sessions_over_udp(sockets: usize, transport: &str) {
    let plane =
        SharedUdpPlane::<ServiceMessage>::bind_loopback(SERVERS + 1, sockets).expect("bind plane");
    run_sessions_over(plane.endpoints(), transport);
    assert_eq!(
        plane.pending_backlog(),
        0,
        "{transport}: coalesced sends stranded after the session run"
    );
}

#[test]
fn client_sessions_survive_leader_crash_over_per_node_udp_sockets() {
    run_sessions_over_udp(SERVERS + 1, "udp-per-node");
}

#[test]
fn client_sessions_survive_leader_crash_over_the_shared_udp_plane() {
    run_sessions_over_udp(2, "udp-shared");
}
