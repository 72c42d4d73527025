//! Heap bytes per process, part by part. A counting allocator (std only)
//! measures a small strided S3 deployment as a whole and, one at a time,
//! the parts each group membership and each link is made of. Every figure
//! is pinned as a ceiling, so memory growth fails this named test rather
//! than a frontier run (`tests/frontier.rs`) that nobody makes.
//!
//! ```text
//! cargo test --release --test memory -- --nocapture
//! ```
//!
//! One test in the binary: the totals are process-wide, so a second
//! measuring test running beside it would land in the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use sle_core::{
    GroupId, HelloList, JoinConfig, NodeInstruments, PeerRows, ProcessId, ServiceConfig,
    ServiceContext, ServiceMessage, ServiceNode,
};
use sle_election::{AlivePayload, ElectorKind};
use sle_fd::{GroupDetector, LinkQualityEstimator, PeerTable, QosSpec, TuningPolicy};
use sle_harness::deploy;
use sle_net::{LinkSpec, NetworkModel, SimulatedNetwork};
use sle_obs::{Registry, TraceRing};
use sle_sim::observer::NullObserver;
use sle_sim::prelude::*;
use sle_sim::wheel::EventWheel;

/// Counts the live heap bytes of the measuring thread and their high-water
/// mark; the test harness's own threads allocate beside it now and then. A
/// `realloc` counts the new block before it frees the old one: a buffer
/// that grows by moving holds both for a moment.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

fn gained(bytes: usize) {
    if counted() {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn lost(bytes: usize) {
    if counted() {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method hands its caller's arguments, unchanged, to the
// same method of `System`, whose guarantees are then the caller's. The
// counting beside it touches only atomics and a const-initialised,
// destructor-free thread-local, so it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is valid and non-zero in size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            gained(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            gained(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        lost(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's `new_size` is valid
        // for `layout`'s alignment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            gained(new_size);
            lost(layout.size());
        }
        moved
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// What `build` leaves on the heap and the most it held on top of what
/// was live before it ran: `(result, held, peak)` in bytes.
fn measure<T>(build: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNTED.set(true);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = build();
    let held = LIVE.load(Relaxed) - before;
    let peak = PEAK.load(Relaxed) - before;
    (result, held.max(0) as usize, peak.max(0) as usize)
}

/// One measured figure against its ceiling.
struct Row {
    part: &'static str,
    bytes: usize,
    ceiling: usize,
}

/// Remote members of a 10-member group.
const REMOTE: u32 = 9;

fn remote_peers() -> impl Iterator<Item = NodeId> {
    (1..=REMOTE).map(NodeId)
}

/// The per-membership peer table, the group's rows for the 9 remote
/// members of a 10-member group, and the operating points the rows'
/// monitors read in the workstation's slots.
fn peer_tables(rows: &mut Vec<Row>) {
    let now = SimInstant::ZERO;
    let qos = QosSpec::paper_default();
    let fd = GroupDetector::new(qos, TuningPolicy::Static);
    // The per-link records are the workstation's, not the group's: the
    // table has every peer before the measured group's rows name them.
    let mut table: PeerTable = PeerTable::new();
    for peer in remote_peers() {
        table.intern(peer);
    }
    // So is the operating point of each peer's QoS class: the first group
    // of the class to monitor a peer creates it, every later one shares it.
    let (_, points, _) = measure(|| {
        for peer in remote_peers() {
            fd.monitor(&mut table, peer, now);
        }
    });
    rows.push(Row {
        part: "operating points, 9 peers, one class",
        bytes: points,
        // One 88-byte point per slot: QoS, policy, (η, δ), the prior's η,
        // the batch's vouch. The re-derivation clock is the slot's, one
        // per policy.
        ceiling: 9 * 88,
    });
    // Each member has sent its first ALIVE: the row holds its payload.
    let payload = AlivePayload {
        accusation_time: now,
        epoch: 0,
        local_leader: None,
    };
    let (_rows, rows_bytes, _) = measure(|| {
        let mut rows = PeerRows::new();
        for peer in remote_peers() {
            let row = rows.row(peer, now);
            let member = row.heard_as_member(now).0;
            member.processes = (ProcessId::new(peer, 0), true).into();
            member.payload = Some(Box::new(payload));
            row.monitor = Some(fd.monitor(&mut table, peer, now));
        }
        rows
    });
    rows.push(Row {
        part: "group rows, 9 peers",
        bytes: rows_bytes,
        // 10 rows of 112 bytes: a membership of 80 (one process held
        // inline, and the elector's column: the box of the member's last
        // ALIVE payload) and a monitor of 16 (trust, vouch, horizon, slot
        // and class) beside the peer and `last_heard`; and the 9 boxed
        // 40-byte payloads. The payload moved in from the elector's own
        // peer table: 1 040 + 10 × 8 + 9 × 40.
        ceiling: 1_040 + 10 * 8 + 9 * 40,
    });
}

/// The node's one peer table, after a digest from each of the 18 peers a
/// `sim-steady` workstation has: one slot per peer, its link record beside
/// the node's own per-peer state, no group joined. What a node configured
/// with no peer holds is taken off.
fn node_peer_table(rows: &mut Vec<Row>) {
    const PEERS: u32 = 18;
    let config = |peers: u32| {
        let peers = (0..=peers).map(NodeId).collect();
        ServiceConfig::new(NodeId(0), peers, ElectorKind::OmegaL)
    };
    let (_, alone, _) = measure(|| ServiceNode::new(config(0)));
    let (node, table, _) = measure(|| {
        let mut node = ServiceNode::new(config(PEERS));
        for peer in (1..=PEERS).map(NodeId) {
            let digest = ServiceMessage::Hello {
                incarnation: 0,
                version: 0,
                sent_at: SimInstant::ZERO,
                pull: false,
                announcements: HelloList::Omitted,
            };
            let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
            node.on_message(peer, digest, &mut ctx);
        }
        node
    });
    assert_eq!(node.monitored_peer_count(), PEERS as usize);
    rows.push(Row {
        part: "node peer table, 18 peers",
        bytes: table - alone,
        // 18 slots of 464 bytes (the table is sized to the configured
        // peers), a 32-entry id index of 8 bytes each, 18 more peer ids.
        ceiling: 18 * 464 + 32 * 8 + 18 * 4,
    });
}

/// What attaching instruments adds to a node with the 18 peers of
/// `node_peer_table`, started in `groups` auto-joined groups, minus the same
/// node without them: per node, over 16 nodes in one group each, and per
/// membership, over one node's 100 groups. The registry and the 64-record
/// trace ring are the runtime's, shared by its nodes: both exist, and a
/// first node has registered the families, before anything is measured.
fn instruments(rows: &mut Vec<Row>) {
    let registry = Registry::default();
    let ring = TraceRing::new(64);
    let started = |id: u32, groups: u32, instrumented: bool| {
        let id = NodeId(id);
        let peers = (0..=18).map(NodeId).collect();
        let mut config = ServiceConfig::new(id, peers, ElectorKind::OmegaL);
        for group in 1..=groups {
            config = config.with_auto_join(GroupId(group), JoinConfig::candidate());
        }
        let mut node = ServiceNode::new(config);
        if instrumented {
            node.set_instruments(NodeInstruments::new(&registry, ring.clone(), id));
        }
        node.on_start(&mut ServiceContext::new(SimInstant::ZERO, id, 0));
        node
    };
    let _first = started(100, 1, true);
    // Nodes 0..16 in one group each, and a node in `groups` groups: each
    // measured node id is new to the registry.
    const NODES: u32 = 16;
    let nodes = |instrumented: bool| {
        let nodes = || (0..NODES).map(|id| started(id, 1, instrumented));
        measure(|| nodes().collect::<Vec<_>>()).1
    };
    let (bare, instrumented) = (nodes(false), nodes(true));
    rows.push(Row {
        part: "instruments, per node",
        bytes: instrumented.saturating_sub(bare) / NODES as usize,
        // The node's three histograms, 160 bytes each before their first
        // sample; its block of 23 counters, 8 bytes each (one more costs 8
        // bytes), in place of the bare node's own block; its two cells in
        // the group family's column; the two families' key index.
        ceiling: 1_024,
    });
    const GROUPS: u32 = 100;
    let added = |id: u32, groups: u32| {
        let (bare, instrumented) = (
            measure(|| started(id, groups, false)).1,
            measure(|| started(id, groups, true)).1,
        );
        instrumented.saturating_sub(bare)
    };
    let (at_one, at_many) = (added(200, 1), added(201, GROUPS));
    rows.push(Row {
        part: "instruments, per membership",
        bytes: at_many.saturating_sub(at_one) / (GROUPS - 1) as usize,
        // Two 8-byte counters in the group family's column, and the key
        // index entry that finds them.
        ceiling: 64,
    });
}

/// The estimator each link keeps (256 delay samples, the size the shared
/// liveness record uses): never fed, after an honest in-order stream, and
/// after a flood of one number stamped ever later.
fn loss_window(rows: &mut Vec<Row>) {
    let (_unfed, unfed, _) = measure(|| LinkQualityEstimator::new(256));
    rows.push(Row {
        part: "link estimator, never fed",
        bytes: unfed,
        ceiling: 0,
    });
    let heartbeat = SimDuration::from_millis(100);
    let (_honest, honest, _) = measure(|| {
        let mut est = LinkQualityEstimator::new(256);
        for seq in 0..5_000u64 {
            let sent = SimInstant::ZERO + heartbeat * seq;
            est.record(seq, sent, sent + SimDuration::from_millis(1));
        }
        est
    });
    rows.push(Row {
        part: "link estimator, 5 000 in order",
        bytes: honest,
        // The 2 KiB ring and one run of 16 bytes (in a deque of 4).
        ceiling: 2_112,
    });
    let (_flood, flood, _) = measure(|| {
        let mut est = LinkQualityEstimator::new(256);
        for seq in 0..100u64 {
            let sent = SimInstant::ZERO + heartbeat * seq;
            est.record(seq, sent, sent);
        }
        for i in 0..200_000u64 {
            let sent = SimInstant::ZERO + heartbeat * (100 + i);
            est.record(99, sent, sent);
        }
        est
    });
    rows.push(Row {
        part: "link estimator, 200 000 repeats",
        bytes: flood,
        // The ring and 2 048 runs at the cap, in a deque of 4 096.
        ceiling: 2_048 + 4_096 * 16,
    });
}

/// A burst of events the size of the simulator's (136 bytes queued), all
/// in one tick of the wheel a millisecond ahead, as the start of a
/// deployment sends them: the wheel drains it, then one later event.
fn wheel_burst(rows: &mut Vec<Row>) {
    const BURST: u64 = 75_000;
    // Tick 16 of 2^16 ns each, i.e. [1 048 576 ns, 1 114 112 ns).
    let tick = |seq: u64| SimInstant::from_nanos((16 << 16) + seq % (1 << 16));
    let mut wheel: EventWheel<[u8; 120]> = EventWheel::new();
    let (_, retained, _) = measure(|| {
        for seq in 0..BURST {
            wheel.push(tick(seq), seq, [0; 120]);
        }
        wheel.push(SimInstant::from_secs_f64(1.0), BURST, [0; 120]);
        while wheel.pop().is_some() {}
    });
    rows.push(Row {
        part: "event wheel, kept after a 75 000 burst",
        bytes: retained,
        ceiling: 64 * 1024,
    });
}

/// A forged ACCUSE datagram: a count of 65 535 over a 12-byte body. Its
/// decode must reserve room for what the body could hold, one entry, not
/// for the count.
fn forged_accuse(rows: &mut Vec<Row>) {
    let one = ServiceMessage::Accuse {
        accusations: vec![(GroupId(1), 0)],
    };
    let mut frame = sle_wire::encode_frame(NodeId(1), &one).unwrap();
    // The count follows the envelope and the tag.
    let count = sle_wire::HEADER_LEN + 1;
    frame[count..count + 2].copy_from_slice(&u16::MAX.to_be_bytes());
    let (decoded, _, peak) = measure(|| sle_wire::decode_frame::<ServiceMessage>(&frame));
    assert!(decoded.is_err(), "a forged ACCUSE count decoded");
    rows.push(Row {
        part: "forged ACCUSE count, peak decoding",
        bytes: peak,
        ceiling: 64,
    });
}

/// A strided S3 deployment like `sim-steady`'s, smaller: 40 workstations,
/// 80 groups of 10 (20 per workstation), LAN links, T_D = 1 s.
const DEPLOYMENT: (usize, usize, usize) = (40, 80, 10);

/// [`DEPLOYMENT`]'s world, not yet started, and its groups' members.
fn deployment_world() -> (World<ServiceNode, SimulatedNetwork>, Vec<Vec<NodeId>>) {
    let (nodes, groups, members) = DEPLOYMENT;
    let shape = deploy::strided_groups(nodes, groups, members);
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(nodes, &shape);
    let qos = QosSpec::paper_default_with_detection(SimDuration::from_secs(1));
    let join = JoinConfig::candidate().with_qos(qos);
    let world = World::new(
        nodes,
        Box::new(move |node, _incarnation| {
            let peers = peers_of[node.index()].clone();
            let mut config = ServiceConfig::new(node, peers, ElectorKind::OmegaL);
            for &group in &groups_of[node.index()] {
                config = config.with_auto_join(group, join);
            }
            ServiceNode::new(config)
        }),
        NetworkModel::new(LinkSpec::lan()).build(0x3E3),
        0x3E3,
    );
    (world, shape)
}

/// [`DEPLOYMENT`] over its first 4 virtual milliseconds, before the first
/// ALIVE is due: every workstation starts at time zero, so this is the
/// start burst — the HELLOs queued at once and the answers they draw —
/// and what the nodes build from it.
fn deployment_start(rows: &mut Vec<Row>) {
    let (_, groups, members) = DEPLOYMENT;
    let (_, _, peak) = measure(|| {
        let (mut world, _) = deployment_world();
        world.run_for(SimDuration::from_millis(4), &mut NullObserver);
        world
    });
    rows.push(Row {
        part: "deployment start, peak per membership",
        bytes: peak / (groups * members),
        ceiling: 3_100,
    });
}

/// [`DEPLOYMENT`] run 60 s: every group elects a leader.
fn deployment(rows: &mut Vec<Row>) {
    let (_, groups, members) = DEPLOYMENT;
    let (_, held, peak) = measure(|| {
        let (mut world, shape) = deployment_world();
        world.run_for(SimDuration::from_secs(60), &mut NullObserver);
        let leader = |g: u32| {
            world
                .actor(shape[g as usize][0])
                .unwrap()
                .leader_of(GroupId(g + 1))
        };
        assert!(
            (0..groups as u32).all(|g| leader(g).is_some()),
            "a group has no leader"
        );
        world
    });
    let memberships = groups * members;
    rows.push(Row {
        part: "deployment, held per membership",
        bytes: held / memberships,
        ceiling: 3_300,
    });
    rows.push(Row {
        part: "deployment, peak per membership",
        bytes: peak / memberships,
        ceiling: 3_800,
    });
}

#[test]
fn heap_bytes_per_part_stay_under_their_ceilings() {
    let mut rows = Vec::new();
    peer_tables(&mut rows);
    node_peer_table(&mut rows);
    instruments(&mut rows);
    loss_window(&mut rows);
    wheel_burst(&mut rows);
    forged_accuse(&mut rows);
    deployment_start(&mut rows);
    deployment(&mut rows);
    println!("{:<40} {:>10} {:>10}", "part", "bytes", "ceiling");
    for row in &rows {
        println!("{:<40} {:>10} {:>10}", row.part, row.bytes, row.ceiling);
    }
    let over: Vec<&str> = (rows.iter())
        .filter(|row| row.bytes > row.ceiling)
        .map(|row| row.part)
        .collect();
    assert!(over.is_empty(), "over their ceilings: {over:?}");
}
