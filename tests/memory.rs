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
    GroupId, HelloList, JoinConfig, MemberTable, ProcessId, ServiceConfig, ServiceContext,
    ServiceMessage, ServiceNode,
};
use sle_election::types::AlivePayload;
use sle_election::{ElectorKind, PeerTable as ElectorPeers};
use sle_fd::{GroupDetector, LinkQualityEstimator, PeerTable, QosSpec, TuningPolicy};
use sle_harness::deploy;
use sle_net::{LinkSpec, NetworkModel, SimulatedNetwork};
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

/// The three per-membership peer tables, each with the 9 remote members
/// of a 10-member group.
fn peer_tables(rows: &mut Vec<Row>) {
    let now = SimInstant::ZERO;
    let qos = QosSpec::paper_default();
    // The per-link records are the workstation's, not the group's: the
    // table has every peer before the measured group's rows name them.
    let mut table: PeerTable = PeerTable::new();
    for peer in remote_peers() {
        table.intern(peer);
    }
    let (_fd, rows_bytes, _) = measure(|| {
        let mut fd = GroupDetector::new(qos, TuningPolicy::Static);
        for peer in remote_peers() {
            fd.ensure_peer(&mut table, peer, now);
        }
        fd
    });
    rows.push(Row {
        part: "fd per-group rows, 9 peers",
        bytes: rows_bytes,
        // 10 rows of 64 bytes.
        ceiling: 640,
    });

    let (_members, members, _) = measure(|| {
        let mut table = MemberTable::new();
        for peer in remote_peers() {
            let (entry, _) = table.ensure(peer, 0, now);
            entry.processes = (ProcessId::new(peer, 0), true).into();
        }
        table
    });
    rows.push(Row {
        part: "member table, 9 peers",
        bytes: members,
        // 10 slots of 88 bytes; one process each is held inline.
        ceiling: 880,
    });

    let (_peers, peers, _) = measure(|| {
        let mut table = ElectorPeers::new();
        for peer in remote_peers() {
            let payload = AlivePayload {
                accusation_time: now,
                epoch: 0,
                local_leader: None,
            };
            table.record_alive(peer, payload);
        }
        table
    });
    rows.push(Row {
        part: "elector peer table, 9 peers",
        bytes: peers,
        // 10 slots of 56 bytes.
        ceiling: 560,
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
        // 18 slots of 568 bytes (the table is sized to the configured
        // peers), a 32-entry id index of 8 bytes each, 18 more peer ids.
        ceiling: 18 * 568 + 32 * 8 + 18 * 4,
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
        ceiling: 4_000,
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
        ceiling: 4_400,
    });
    rows.push(Row {
        part: "deployment, peak per membership",
        bytes: peak / memberships,
        ceiling: 5_100,
    });
}

#[test]
fn heap_bytes_per_part_stay_under_their_ceilings() {
    let mut rows = Vec::new();
    peer_tables(&mut rows);
    node_peer_table(&mut rows);
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
