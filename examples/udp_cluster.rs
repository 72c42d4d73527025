//! The service over real sockets: N workstations on loopback UDP, the
//! paper's actual deployment shape (one daemon per host exchanging
//! datagrams), electing a stable leader, surviving the leader's crash.
//!
//! Run with: `cargo run --example udp_cluster`
//!
//! Expected output (ports, node numbers and timings vary):
//!
//! ```text
//! 5 sle-udp sockets bound on loopback:
//!   n0 @ 127.0.0.1:41234
//!   ...
//! joining 5 candidate processes to group g1...
//! elected leader n2.p0 after 1.352s
//! crashing the leader's workstation (n2)...
//! re-elected n0.p0 after 2.104s
//! records: delivered=2060 dropped(oversized=0 truncated=0 malformed=0 misaddressed=0 misrouted=0) unencodable=0
//! done.
//! ```

use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, GroupId, JoinConfig};
use sle_election::ElectorKind;
use sle_sim::time::SimDuration;
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

fn main() {
    let n = 5;
    // One socket per workstation: as many plane sockets as nodes.
    let plane =
        SharedUdpPlane::<ServiceMessage>::bind_loopback(n, n).expect("bind loopback sockets");

    println!("{n} sle-udp sockets bound on loopback:");
    for i in 0..n as u32 {
        let node = NodeId(i);
        let addr = plane.node_addr(node).expect("every node has a socket");
        println!("  {node} @ {addr}");
    }
    // The endpoints move into the cluster's shard workers; the plane handle
    // keeps the datagram counters readable.
    let cluster = Cluster::start_with_endpoints(plane.endpoints(), ElectorKind::OmegaLc);
    let group = GroupId(1);

    println!("joining {n} candidate processes to group {group}...");
    for i in 0..n as u32 {
        cluster
            .handle(NodeId(i))
            .unwrap()
            .join(group, JoinConfig::candidate())
            .expect("join must succeed");
    }

    let started = Instant::now();
    let leader = cluster
        .await_agreement(group, None, Duration::from_secs(10))
        .expect("the group should elect a leader within seconds");
    println!(
        "elected leader {} after {}",
        leader,
        SimDuration::from(started.elapsed())
    );

    println!("crashing the leader's workstation ({})...", leader.node);
    cluster.crash(leader.node);

    let crashed_at = Instant::now();
    let new_leader = cluster
        .await_agreement(group, Some(leader.node), Duration::from_secs(15))
        .expect("the group should re-elect a leader after the crash");
    println!(
        "re-elected {} after {}",
        new_leader,
        SimDuration::from(crashed_at.elapsed())
    );
    assert_ne!(new_leader.node, leader.node);

    cluster.shutdown();
    let stats = plane.stats();
    println!(
        "records: delivered={} dropped(oversized={} truncated={} malformed={} misaddressed={} misrouted={}) unencodable={}",
        stats.delivered,
        stats.dropped_oversized,
        stats.dropped_truncated,
        stats.dropped_malformed,
        stats.dropped_misaddressed,
        stats.dropped_misrouted,
        stats.send_unencodable
    );
    println!("done.");
}
