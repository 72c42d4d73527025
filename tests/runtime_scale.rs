//! Real-time scale smoke for the sharded runtime: 200 workstations ×
//! 16 groups on a 4-worker shard pool must elect everywhere within a bound
//! derived from the configured failure-detection QoS — over the in-memory
//! mesh, and over the UDP plane with all 200 behind 4 shared sockets.
//!
//! Big enough that a thread-per-node runtime, a reader-per-node transport
//! or a timer-scanning hot loop would blow the bounds, small enough for
//! every `cargo test` run. A quiet second after the election bounds the
//! shard wakeups (and, on the plane, the records per datagram) that the
//! node-wide tick grids buy; the steady-state costs of the same path (CPU
//! per node, wakeups, datagrams) are `benchmark/`'s `rt-udp-steady`
//! workload.
//!
//! This file holds exactly one `#[test]`, so nothing else in the process
//! spawns threads while a cell counts its own.

use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ServiceConfig};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::deploy::{membership, strided_groups};
use sle_net::link::LinkSpec;
use sle_net::transport::{InMemoryMesh, MessageEndpoint};
use sle_sim::time::SimDuration;
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

const NODES: usize = 200;
const GROUPS: usize = 16;
const MEMBERS: usize = 12;
const WORKERS: usize = 4;
const SOCKETS: usize = 4;

/// OS threads of this process right now (Linux; `None` elsewhere).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// Records per datagram on the UDP plane in a quiet second after the
/// election. On a 2-vCPU host the cell reads 25.6 in every release run and
/// 24.7–24.9 in debug ones with the HELLO tick on the node-wide grid,
/// 18.1–20.7 with a relative re-arm.
const QUIET_RECORDS_PER_DATAGRAM: f64 = 22.5;

/// One deployment over the transport `make_endpoints` builds (with the
/// plane behind it, if any), which may spawn `reader_threads` threads of
/// its own. In a quiet second after the election its shard workers must
/// wake fewer than `quiet_wakeups_per_s` times a second, pool-wide.
fn elect_everywhere<E>(
    transport: &str,
    reader_threads: usize,
    quiet_wakeups_per_s: f64,
    make_endpoints: impl FnOnce() -> (Vec<E>, Option<SharedUdpPlane<ServiceMessage>>),
) where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    let qos = QosSpec::paper_default();
    // The bound, derived from the QoS: a freshly joined candidate claims
    // leadership once its view of the group is complete, and at the latest
    // when the self-election grace's fallback (2 × T_D^U) runs out, and
    // convergence of everyone's view takes at most another detection time
    // of gossip; the rest is scheduling slack for a loaded CI machine.
    let t_d = Duration::from_nanos(qos.detection_time().as_nanos());
    let bound = t_d * 4 + Duration::from_secs(2);

    let groups = strided_groups(NODES, GROUPS, MEMBERS);
    let deployment = membership(NODES, &groups);
    let configs: Vec<ServiceConfig> = (0..NODES)
        .map(|i| {
            // A workstation in no group still needs itself as a peer.
            let mut peers = deployment.peers_of[i].clone();
            if peers.is_empty() {
                peers.push(NodeId(i as u32));
            }
            let mut config = ServiceConfig::new(NodeId(i as u32), peers, ElectorKind::OmegaL)
                .with_hello_interval(SimDuration::from_millis(200));
            for &group in &deployment.groups_of[i] {
                config = config.with_auto_join(group, JoinConfig::candidate().with_qos(qos));
            }
            config
        })
        .collect();

    let threads_before = os_threads();
    let (endpoints, plane) = make_endpoints();
    let started = Instant::now();
    let options = ClusterConfig::new(ElectorKind::OmegaL).with_workers(WORKERS);
    let cluster = Cluster::start_with_service_configs(endpoints, configs, &options);
    assert_eq!(cluster.workers(), WORKERS);
    // The whole deployment — runtime and transport — is O(workers + sockets)
    // threads, however many nodes run.
    if let (Some(before), Some(after)) = (threads_before, os_threads()) {
        let budget = WORKERS + reader_threads;
        assert!(
            after.saturating_sub(before) <= budget,
            "{transport}: {before} → {after} OS threads for {NODES} nodes (budget {budget})"
        );
    }

    // Poll until every group's members agree on a leader.
    let deadline = started + bound;
    let mut pending: Vec<usize> = (0..GROUPS).collect();
    while !pending.is_empty() {
        pending.retain(|&g| {
            cluster
                .agreed_leader_among(GroupId(g as u32 + 1), &groups[g])
                .is_none()
        });
        if pending.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{transport}: groups {pending:?} had not elected within the QoS-derived bound {bound:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let elected_in = started.elapsed();
    assert!(
        elected_in < bound,
        "{transport}: all groups elected, but only after {elected_in:?} (bound {bound:?})"
    );

    // The runtime earned it the right way: no polling loops. Idle wakeups
    // (a worker waking with nothing to do) must be a rarity, not a cadence.
    let stats = cluster.runtime_stats();
    let idle_per_sec = stats.idle_wakeups as f64 / elected_in.as_secs_f64();
    assert!(
        idle_per_sec < 100.0,
        "{transport}: shard workers idle-woke {idle_per_sec:.0}/s ({stats:?})"
    );

    // A quiet second, once the joins' gossip has settled. Every node ticks
    // on the node-wide HELLO grid and every leader on the ALIVE grid, so a
    // shard wakes about once per grid instant for all its residents, and
    // on the UDP plane the records of one instant fill shared datagrams.
    std::thread::sleep(Duration::from_secs(2));
    let wakeups = cluster.runtime_stats().wakeups;
    let plane_before = plane.as_ref().map(SharedUdpPlane::stats);
    let quiet_from = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let quiet_s = quiet_from.elapsed().as_secs_f64();
    let wakeups_per_s = (cluster.runtime_stats().wakeups - wakeups) as f64 / quiet_s;
    assert!(
        wakeups_per_s < quiet_wakeups_per_s,
        "{transport}: {wakeups_per_s:.0} shard wakeups/s in a quiet second (bound {quiet_wakeups_per_s})"
    );
    if let (Some(plane), Some(before)) = (&plane, plane_before) {
        let after = plane.stats();
        let records = after.records_sent - before.records_sent;
        let datagrams = after.datagrams_sent - before.datagrams_sent;
        let per_datagram = records as f64 / datagrams.max(1) as f64;
        assert!(
            per_datagram > QUIET_RECORDS_PER_DATAGRAM,
            "{transport}: {per_datagram:.1} records per datagram in a quiet second (bound {QUIET_RECORDS_PER_DATAGRAM})"
        );
    }
    cluster.shutdown();
}

#[test]
fn two_hundred_nodes_elect_within_the_qos_bound_on_four_workers() {
    // Quiet-second shard wakeups on a 2-vCPU host: 78–599/s with the HELLO
    // tick on the node-wide grid, 1 179–2 992/s with a relative re-arm.
    elect_everywhere("mesh", 0, 900.0, || {
        let mut mesh: InMemoryMesh<ServiceMessage> =
            InMemoryMesh::with_links(NODES, LinkSpec::perfect(), 11);
        let endpoints = (0..NODES)
            .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
            .collect();
        (endpoints, None)
    });
    // One reader thread per shared socket, not per node. Quiet-second shard
    // wakeups on the same host: 124–144/s on the grid, 250–751/s without.
    elect_everywhere("udp-shared", SOCKETS, 200.0, || {
        let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(NODES, SOCKETS)
            .expect("bind loopback UDP plane");
        (plane.endpoints(), Some(plane))
    });
}
