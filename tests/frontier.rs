//! The opt-in frontier of the simulator: too big for every `cargo test`,
//! so every test is `#[ignore]`d. Run each by name, in a process of its
//! own (`VmHWM` is per process, and the probe wants both cores):
//!
//! ```text
//! cargo test --release --test frontier -- --ignored --nocapture a_million_processes_settle
//! cargo test --release --test frontier -- --ignored --nocapture a_million_instrumented_processes_settle
//! cargo test --release --test frontier -- --ignored --nocapture two_sim_workers_beat_one
//! ```
//!
//! The first needs a minute or two of one core, and fails if its event
//! count moves from [`FRONTIER_EVENTS`] or its peak resident set passes
//! [`FRONTIER_VMHWM_MIB`] (heap bytes per part, at an everyday size, are
//! pinned by `tests/memory.rs`). The second is the same cell with every
//! node instrumented as the chaos engine instruments them, under
//! [`INSTRUMENTED_VMHWM_MIB`]. Throughput of the same engine at an
//! everyday size, with repeats and a regression bound, is `ops_per_s` of
//! `benchmark/`'s `sim-steady` workload.

use std::time::{Duration, Instant};

use sle_core::{GroupId, JoinConfig, NodeInstruments, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::deploy;
use sle_net::link::LinkSpec;
use sle_net::network::NetworkModel;
use sle_obs::{Registry, TraceRing};
use sle_sim::prelude::*;

/// The most peak resident set `a_million_processes_settle` may reach (it
/// measured 2 224 MiB on a 2-vCPU x86-64 Linux VM; the ceiling is that,
/// rounded up to the next 100 MiB, as `tests/memory.rs` rounds its own).
const FRONTIER_VMHWM_MIB: u64 = 2_300;

/// The events `a_million_processes_settle` processes. The simulation is
/// deterministic, so any other count is a protocol change at scale: one
/// made on purpose re-records it, as it does the node's golden run. (Over
/// perfect links the run sends no ACCUSE.)
const FRONTIER_EVENTS: u64 = 5_212_052;

/// The most peak resident set `a_million_instrumented_processes_settle`
/// may reach (it measured 2 266 MiB on the same VM, 40 MiB over the
/// uninstrumented cell; the registry that kept one named cell per series
/// read 2 569 MiB), rounded up as [`FRONTIER_VMHWM_MIB`] is.
const INSTRUMENTED_VMHWM_MIB: u64 = 2_300;

/// Virtual time a deployment gets to elect before its steady-state window.
const SETTLE: SimDuration = SimDuration::from_secs(12);

struct Run {
    events: u64,
    wall: Duration,
    /// Groups whose members all report the same leader at the end.
    agreed: usize,
}

/// Builds an S3 deployment of `groups` groups of `members` strided over
/// `nodes` workstations, every member a candidate under the detection bound
/// `detection`, and runs it for `SETTLE + window` on `workers` sim workers.
/// With a registry, every node records into it and into one trace ring, as
/// the chaos engine (`sle_harness::engine`) attaches them.
fn run_s3<M: Medium + Clone + Send>(
    (nodes, groups, members): (usize, usize, usize),
    detection: SimDuration,
    window: SimDuration,
    medium: M,
    workers: usize,
    instruments: Option<&Registry>,
) -> Run {
    let wall = Instant::now();
    let shape = deploy::strided_groups(nodes, groups, members);
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(nodes, &shape);
    let join = JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(detection));
    let instruments = instruments.map(|registry| (registry.clone(), TraceRing::new(4096)));
    let factory: SharedActorFactory<ServiceNode> = Box::new(move |node, _incarnation| {
        let peers = peers_of[node.index()].clone();
        let mut config = ServiceConfig::new(node, peers, ElectorKind::OmegaL);
        for &group in &groups_of[node.index()] {
            config = config.with_auto_join(group, join);
        }
        let mut service = ServiceNode::new(config);
        if let Some((registry, ring)) = &instruments {
            service.set_instruments(NodeInstruments::new(registry, ring.clone(), node));
        }
        service
    });
    let mut world = ParWorld::new(nodes, workers, factory, medium, 0x5CA1E);
    let mut observers = vec![NullObserver; world.workers()];
    world.run_for(SETTLE + window, &mut observers);
    let agreed = shape.iter().zip(1u32..).filter(|(members, g)| {
        let view = |m: &NodeId| world.actor(*m).and_then(|a| a.leader_of(GroupId(*g)));
        let first = view(&members[0]);
        first.is_some() && members.iter().all(|m| view(m) == first)
    });
    Run {
        agreed: agreed.count(),
        events: world.events_processed(),
        wall: wall.elapsed(),
    }
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024)
}

/// The frontier's shape: 10 000 workstations × 100 000 groups × 10 members.
const FRONTIER: (usize, usize, usize) = (10_000, 100_000, 10);

/// [`FRONTIER`] over perfect links: the detection bound is relaxed to
/// 8 s and the window cut to 5 s — the ALIVE and detector event rate
/// scales with 1 / T_D — to keep the cell to minutes. Every group must end
/// up agreed on a leader, after exactly [`FRONTIER_EVENTS`] events, in at
/// most `ceiling_mib` of peak resident set.
fn settle_frontier(instruments: Option<&Registry>, ceiling_mib: u64) {
    let shape = FRONTIER;
    let run = run_s3(
        shape,
        SimDuration::from_secs(8),
        SimDuration::from_secs(5),
        NetworkModel::perfect().build(1),
        1,
        instruments,
    );
    println!(
        "frontier {shape:?}: {} events in {:.1} s ({:.0}/s), {}/{} groups agreed, VmHWM {} MiB",
        run.events,
        run.wall.as_secs_f64(),
        run.events as f64 / run.wall.as_secs_f64(),
        run.agreed,
        shape.1,
        peak_rss_mib().map_or("?".to_string(), |mib| mib.to_string()),
    );
    assert_eq!(run.agreed, shape.1, "not every group elected");
    assert_eq!(
        run.events, FRONTIER_EVENTS,
        "the frontier's event count moved"
    );
    if let Some(mib) = peak_rss_mib() {
        assert!(mib <= ceiling_mib, "VmHWM {mib} MiB > {ceiling_mib} MiB");
    }
}

/// A million group members, uninstrumented: see [`settle_frontier`].
#[test]
#[ignore = "≈ 2.2 GiB and minutes; run by name, see the file header"]
fn a_million_processes_settle() {
    settle_frontier(None, FRONTIER_VMHWM_MIB);
}

/// The same million with every node's instruments attached: instruments
/// do not steer the protocol, so the event count is the uninstrumented
/// one, and the registry renders every node's 26 series and every
/// membership's 2.
#[test]
#[ignore = "≈ 2.3 GiB and minutes; run by name, see the file header"]
fn a_million_instrumented_processes_settle() {
    let registry = Registry::default();
    settle_frontier(Some(&registry), INSTRUMENTED_VMHWM_MIB);
    let (nodes, groups, members) = FRONTIER;
    assert_eq!(registry.len(), nodes * 26 + groups * members * 2);
}

/// What keeps `ParWorld`'s threaded path (docs/SIM.md): 100 000 processes
/// over 1 ms fixed-delay links — the epochs' lookahead — compute the
/// identical simulation on one worker and on two, and two are faster.
#[test]
#[ignore = "≈ 1.5 GiB and a minute; run by name, see the file header"]
fn two_sim_workers_beat_one() {
    let shape = (1_000, 10_000, 10);
    let probe = |workers| {
        let link = LinkSpec::perfect().with_min_delay(SimDuration::from_millis(1));
        let medium = NetworkModel::new(link).build(1);
        let (detection, window) = (SimDuration::from_secs(2), SimDuration::from_secs(5));
        run_s3(shape, detection, window, medium, workers, None)
    };
    let (w1, w2) = (probe(1), probe(2));
    let speedup = w1.wall.as_secs_f64() / w2.wall.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "probe {shape:?}: {} events, w1 {:.1} s, w2 {:.1} s, w2 over w1 {speedup:.2}x on {cores} core(s)",
        w1.events,
        w1.wall.as_secs_f64(),
        w2.wall.as_secs_f64(),
    );
    assert_eq!(w1.events, w2.events, "sharding changed the simulation");
    assert_eq!((w1.agreed, w2.agreed), (shape.1, shape.1));
    if cores >= 2 {
        assert!(speedup >= 1.4, "w2 over w1 {speedup:.2}x < 1.4x");
    }
}
