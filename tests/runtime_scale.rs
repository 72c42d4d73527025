//! Real-time scale smoke for the sharded runtime: 200 workstations ×
//! 16 groups on a 4-worker shard pool must elect everywhere within a bound
//! derived from the configured failure-detection QoS — over the in-memory
//! mesh, and over the UDP plane with all 200 behind 4 shared sockets.
//!
//! Big enough that a thread-per-node runtime, a reader-per-node transport
//! or a timer-scanning hot loop would blow the bounds, small enough for
//! every `cargo test` run. The steady-state costs of the same path (CPU per
//! node, wakeups, datagrams) are `benchmark/`'s `rt-udp-steady` workload.
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

/// One deployment over the transport `make_endpoints` builds, which may
/// spawn `reader_threads` threads of its own.
fn elect_everywhere<E>(
    transport: &str,
    reader_threads: usize,
    make_endpoints: impl FnOnce() -> Vec<E>,
) where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    let qos = QosSpec::paper_default();
    // The bound, derived from the QoS: a freshly joined candidate waits out
    // the self-election grace (2 × T_D^U) before claiming leadership, and
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
    let endpoints = make_endpoints();
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
    cluster.shutdown();
}

#[test]
fn two_hundred_nodes_elect_within_the_qos_bound_on_four_workers() {
    elect_everywhere("mesh", 0, || {
        let mut mesh: InMemoryMesh<ServiceMessage> =
            InMemoryMesh::with_links(NODES, LinkSpec::perfect(), 11);
        (0..NODES)
            .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
            .collect()
    });
    // One reader thread per shared socket, not per node.
    elect_everywhere("udp-shared", SOCKETS, || {
        SharedUdpPlane::<ServiceMessage>::bind_loopback(NODES, SOCKETS)
            .expect("bind loopback UDP plane")
            .endpoints()
    });
}
