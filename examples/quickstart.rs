//! Quickstart: start a small in-process cluster of the leader-election
//! service, let it elect a leader, crash the leader, and watch the service
//! re-elect.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Expected output (the elected node and the timings vary run to run;
//! durations are printed in human units via `SimDuration`'s `Display`):
//!
//! ```text
//! joining 5 candidate processes to group g1...
//!   node 0: registered and joined as n0.p0
//!   ...
//! elected leader n0.p0 after 312.408ms
//! crashing the leader's workstation (n0)...
//! new leader after the crash: n1.p0 (re-elected in 1.287s)
//! metrics on exit:
//!   detections: 4 (p99 812.3 ms), mistakes: 0
//!   elections:  4 (p50 4.8 ms, p99 7.5 ms)
//!   ALIVE datagrams sent: 163
//! done.
//! ```

use std::time::{Duration, Instant};

use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig};
use sle_election::ElectorKind;
use sle_obs::Registry;
use sle_sim::time::SimDuration;
use sle_sim::NodeId;

fn main() {
    // Five workstations running the S2 (Omega_lc) version of the service,
    // with live observability attached (docs/OBSERVABILITY.md).
    let registry = Registry::default();
    let cluster = Cluster::start_with_config(
        5,
        ClusterConfig::new(ElectorKind::OmegaLc).with_observability(registry.clone()),
    );
    let group = GroupId(1);

    println!("joining 5 candidate processes to group {group}...");
    for i in 0..5u32 {
        let handle = cluster.handle(NodeId(i)).unwrap();
        let process = handle
            .join(group, JoinConfig::candidate())
            .expect("join must succeed");
        println!("  node {i}: registered and joined as {process}");
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
        "new leader after the crash: {new_leader} (re-elected in {})",
        SimDuration::from(crashed_at.elapsed())
    );
    assert_ne!(new_leader.node, leader.node);

    cluster.shutdown();

    // The QoS evidence of the run, read from the live metrics registry:
    // the same histograms a deployment would export to Prometheus.
    let snapshot = registry.snapshot();
    let detections = snapshot.merged_histogram("node.", ".fd.detection_ns");
    let elections = snapshot.merged_histogram("node.", ".elect.election_ns");
    let mistakes = snapshot.sum_counters("node.", ".fd.mistakes");
    let datagrams = snapshot.sum_counters("node.", ".net.alive_datagrams_sent");
    println!("metrics on exit:");
    println!(
        "  detections: {} (p99 {:.1} ms), mistakes: {}",
        detections.count,
        detections.percentile_ms(0.99),
        mistakes
    );
    println!(
        "  elections:  {} (p50 {:.1} ms, p99 {:.1} ms)",
        elections.count,
        elections.percentile_ms(0.50),
        elections.percentile_ms(0.99)
    );
    println!("  ALIVE datagrams sent: {datagrams}");
    // The leader's crash was detected, and every survivor recorded its
    // first election. (A node announces its own leadership only once its
    // self-election grace is over — its view of the group complete, or
    // 2·T_D after joining — which the crashed leader may not see.)
    assert!(detections.count >= 1, "the leader's crash went undetected");
    assert!(elections.count >= 4, "a survivor recorded no election");
    println!("done.");
}
