//! # The shared-socket UDP data plane
//!
//! A [`SharedUdpPlane`] binds a fixed number of `UdpSocket`s, assigns every
//! node to one of them (node `i` → socket `i % sockets`), and runs one
//! demultiplexing reader thread per socket, so the transport costs
//! **O(sockets)** threads however many nodes one process hosts. With
//! `sockets = nodes` every node owns its socket and reader — the paper's
//! one-daemon-per-workstation deployment; with fewer sockets a whole cell
//! shares them. Arriving datagrams are decoded into per-node records and
//! routed to the resident destination's delivery sink — its endpoint's pull
//! channel, or the [`ShardDelivery`] mailbox `sle-core`'s `Cluster`
//! installs when it takes the [`SharedUdpEndpoint`] over.
//!
//! ## Datagram format
//!
//! A socket may serve many destinations, so the sle-wire frame (which names
//! only the *sender*) is wrapped in a plane **record** carrying the
//! destination (`docs/WIRE.md`, "The plane datagram"):
//!
//! ```text
//! datagram := record+
//! record   := dest_node u32 BE | frame_len u16 BE | frame   (sle-wire)
//! ```
//!
//! Senders coalesce: each source socket keeps one pending buffer per
//! destination socket (a plain vector indexed by socket, no address
//! hashing), where records accrue until the protocol's
//! [`MAX_BATCH_BYTES`] (1200 bytes) would overflow or the runtime flushes at a batch boundary
//! ([`MessageEndpoint::flush_sends`]), so co-sharded senders to the same
//! destination share datagrams. A per-source-socket dirty flag, set
//! whenever bytes are left pending, lets a flush of a clean socket return
//! after one atomic swap, without taking the lock. It is the budget the
//! node splits its ALIVE batches and ACCUSE lists at, so the wire keeps the
//! same conservative no-fragmentation envelope they already guarantee. A single record may exceed the budget (up to
//! [`MAX_PLANE_DATAGRAM`]); it is then sent alone.
//!
//! Inbound, the reader hands a datagram's records to the shard mailboxes in
//! one [`MailboxSender::push_all`](sle_net::mailbox::MailboxSender::push_all)
//! per mailbox — one lock and one wakeup per (datagram, shard), the records
//! in datagram order.
//!
//! ## Hardening
//!
//! The demux refuses, counts, and (optionally) traces every byte it cannot
//! attribute, per reason — see [`PlaneStats`]. Record framing is untrusted:
//! a datagram that ends mid-record is abandoned from the truncation point
//! (`dropped_truncated`), while a record that parses but fails frame
//! decoding, sender validation, or destination residency is skipped and the
//! demux continues with the next record. One deliberate trust boundary is
//! documented here: nodes sharing a source socket are indistinguishable at
//! the address level, so a resident node *can* claim a co-socketed
//! sibling's identity. In-process siblings are inside the trust domain;
//! cross-socket spoofing is still refused.
//!
//! Receive buffers come from a fixed [`BufferPool`] — the hot path stops
//! allocating per datagram after warm-up, and pool occupancy is exact in
//! the exported metrics.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sle_core::messages::MAX_BATCH_BYTES;
use sle_net::transport::{Incoming, MessageEndpoint, ShardDelivery, TransportError};
use sle_obs::{Counter, DropReason, ProtoEvent, Registry, SharedClock, TraceRing};
use sle_sim::actor::NodeId;
use sle_wire::{decode_frame, encode_frame_into, WireFormat, MAX_DATAGRAM};

use crate::pool::{BufferPool, PoolStatsSnapshot};
use crate::sockopt::widen_receive_buffer;

/// Bytes of plane framing preceding each record's sle-wire frame:
/// `dest_node: u32 BE | frame_len: u16 BE`.
pub const RECORD_HEADER: usize = 6;

/// The largest datagram the plane ever sends or accepts: one maximal
/// record (a full [`MAX_DATAGRAM`] sle-wire frame plus plane framing).
/// Coalesced datagrams stay under [`MAX_BATCH_BYTES`], which is smaller.
pub const MAX_PLANE_DATAGRAM: usize = RECORD_HEADER + MAX_DATAGRAM;

/// Fallback read timeout installed at shutdown, in case the zero-byte wake
/// datagram is lost. In steady state the readers block indefinitely — their
/// shutdown is edge-triggered (see [`PlaneShared`]'s `Drop`), so an idle
/// plane causes no periodic wakeups at all.
const SHUTDOWN_FALLBACK_POLL: Duration = Duration::from_millis(25);

/// Datagram- and record-level counters of one [`SharedUdpPlane`], all
/// monotonically increasing and shared by every socket reader.
///
/// The `dropped_*` counters are the demux's hardening made visible; the
/// `datagrams_*`/`records_sent` trio measures coalescing
/// (`records_sent / datagrams_sent` is the packing ratio). The fields are
/// [`sle_obs::Counter`] handles, so [`PlaneStats::bind`] exposes the same
/// cells through a metrics [`Registry`].
#[derive(Debug, Default)]
pub struct PlaneStats {
    /// Records decoded, validated, and handed to a resident node.
    pub delivered: Counter,
    /// Datagrams larger than [`MAX_PLANE_DATAGRAM`], dropped unparsed.
    pub dropped_oversized: Counter,
    /// Datagrams that ended mid-record (framing truncation). The remainder
    /// of the datagram is abandoned; records before the truncation point
    /// were already processed.
    pub dropped_truncated: Counter,
    /// Records whose sle-wire frame the codec rejected.
    pub dropped_malformed: Counter,
    /// Records whose claimed sender is unknown or whose UDP source address
    /// is not the claimed sender's plane socket (a cross-socket spoof).
    pub dropped_misaddressed: Counter,
    /// Records addressed to a node that is not resident behind the
    /// receiving socket: out-of-range, assigned to a different socket, or
    /// currently without an endpoint (departed mid-stream).
    pub dropped_misrouted: Counter,
    /// Outbound messages that could not be encoded into one frame
    /// ([`WireError::TooLarge`](sle_wire::WireError)). Unlike the
    /// `dropped_*` receive counters this is a *send-side* failure: it
    /// recurs deterministically for the same message, so a non-zero value
    /// means a node is trying to say something the wire cannot carry (e.g.
    /// a HELLO gossiping more groups than fit in [`MAX_DATAGRAM`]) — not
    /// that the network is lossy.
    pub send_unencodable: Counter,
    /// Times any plane reader woke from `recv_from`, for any reason. Flat
    /// on an idle plane — the regression guard for "no periodic wakeups".
    pub reader_wakeups: Counter,
    /// Datagrams received by the plane's sockets (before any validation).
    pub datagrams_received: Counter,
    /// Datagrams the plane put on the wire.
    pub datagrams_sent: Counter,
    /// Records the plane put on the wire (several per datagram when
    /// coalescing is effective).
    pub records_sent: Counter,
}

/// A point-in-time copy of [`PlaneStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneStatsSnapshot {
    /// Records handed to a resident node.
    pub delivered: u64,
    /// Datagrams larger than [`MAX_PLANE_DATAGRAM`].
    pub dropped_oversized: u64,
    /// Datagrams that ended mid-record.
    pub dropped_truncated: u64,
    /// Records whose frame the codec rejected.
    pub dropped_malformed: u64,
    /// Records with an unknown or cross-socket-spoofed sender.
    pub dropped_misaddressed: u64,
    /// Records for a non-resident destination.
    pub dropped_misrouted: u64,
    /// Outbound messages too large to encode.
    pub send_unencodable: u64,
    /// Reader wakeups, any reason.
    pub reader_wakeups: u64,
    /// Datagrams received (before validation).
    pub datagrams_received: u64,
    /// Datagrams sent.
    pub datagrams_sent: u64,
    /// Records sent.
    pub records_sent: u64,
}

impl PlaneStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PlaneStatsSnapshot {
        PlaneStatsSnapshot {
            delivered: self.delivered.get(),
            dropped_oversized: self.dropped_oversized.get(),
            dropped_truncated: self.dropped_truncated.get(),
            dropped_malformed: self.dropped_malformed.get(),
            dropped_misaddressed: self.dropped_misaddressed.get(),
            dropped_misrouted: self.dropped_misrouted.get(),
            send_unencodable: self.send_unencodable.get(),
            reader_wakeups: self.reader_wakeups.get(),
            datagrams_received: self.datagrams_received.get(),
            datagrams_sent: self.datagrams_sent.get(),
            records_sent: self.records_sent.get(),
        }
    }

    /// Binds the live counters into `registry` under `<prefix>.<counter>`
    /// (e.g. `udp.plane.delivered`).
    pub fn bind(&self, registry: &Registry, prefix: &str) {
        registry.bind_counter(&format!("{prefix}.delivered"), &self.delivered);
        registry.bind_counter(
            &format!("{prefix}.dropped_oversized"),
            &self.dropped_oversized,
        );
        registry.bind_counter(
            &format!("{prefix}.dropped_truncated"),
            &self.dropped_truncated,
        );
        registry.bind_counter(
            &format!("{prefix}.dropped_malformed"),
            &self.dropped_malformed,
        );
        registry.bind_counter(
            &format!("{prefix}.dropped_misaddressed"),
            &self.dropped_misaddressed,
        );
        registry.bind_counter(
            &format!("{prefix}.dropped_misrouted"),
            &self.dropped_misrouted,
        );
        registry.bind_counter(
            &format!("{prefix}.send_unencodable"),
            &self.send_unencodable,
        );
        registry.bind_counter(&format!("{prefix}.reader_wakeups"), &self.reader_wakeups);
        registry.bind_counter(
            &format!("{prefix}.datagrams_received"),
            &self.datagrams_received,
        );
        registry.bind_counter(&format!("{prefix}.datagrams_sent"), &self.datagrams_sent);
        registry.bind_counter(&format!("{prefix}.records_sent"), &self.records_sent);
    }
}

/// Where the demux reports refused traffic: a trace ring plus the clock
/// stamping the [`ProtoEvent::DatagramDropped`] events. Drops are
/// attributed to the record's destination node; drops with no parseable
/// destination (oversized datagrams, header-level truncation) to the
/// lowest node id assigned to the receiving socket.
struct PlaneTrace {
    ring: TraceRing,
    clock: SharedClock,
}

impl PlaneTrace {
    fn dropped(&self, node: NodeId, reason: DropReason) {
        self.ring.push(
            node,
            self.clock.now(),
            ProtoEvent::DatagramDropped { reason },
        );
    }
}

/// Where records for one resident node currently go: the node's endpoint
/// pull channel (the default) or a sharded runtime's mailbox. `None` when
/// the node has no live endpoint (never created, or departed).
type ResidentSlot<M> = Mutex<Option<PlaneDelivery<M>>>;

/// A record as a shard mailbox takes it: the resident it is for, and what
/// arrived.
type ShardRecord<M> = (NodeId, Incoming<M>);

enum PlaneDelivery<M> {
    Channel(Sender<Incoming<M>>),
    Shard(ShardDelivery<M>),
}

/// One source socket's coalesced sends.
struct Outbox {
    /// The records not yet on the wire, one buffer per destination socket
    /// (indexed like `PlaneShared::sockets`). Flushed buffers are cleared in
    /// place, so the next round encodes into the same allocation.
    buffers: Mutex<Vec<Vec<u8>>>,
    /// Set under the `buffers` lock whenever a send leaves bytes pending;
    /// swapped off before a flush locks, so flushing a clean socket is one
    /// atomic swap. The bytes themselves are published by the lock: the
    /// sender's `Release` store pairs with the flush's `Acquire` swap only
    /// to order "a flush that saw the flag" after the send that set it. A
    /// sender's own flush at the end of its round always sees the flag it
    /// set, so nothing it coalesced is stranded.
    dirty: AtomicBool,
}

/// State shared by the plane handle, every endpoint, and (piecewise) the
/// reader threads. Dropping the last handle shuts the readers down.
struct PlaneShared<M> {
    sockets: Vec<UdpSocket>,
    /// socket index → its local address: with `node_sockets`, the
    /// address book used for destination addressing and sender validation.
    socket_addrs: Arc<Vec<SocketAddr>>,
    /// node → index into `sockets` of the socket it lives behind.
    node_sockets: Arc<Vec<usize>>,
    residents: Arc<Vec<ResidentSlot<M>>>,
    /// Per source socket, the pending coalescing buffers by destination
    /// socket.
    pending: Vec<Outbox>,
    stats: Arc<PlaneStats>,
    pool: BufferPool,
    stop: Arc<AtomicBool>,
    trace: Arc<Mutex<Option<PlaneTrace>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M> Drop for PlaneShared<M> {
    fn drop(&mut self) {
        // Every endpoint flushes its socket on drop, so the buffers are
        // normally empty by now — but if an endpoint leaked (mem::forget, a
        // panicking thread), its coalesced sends must still not be
        // stranded: the sockets are alive until the end of this drop.
        for socket_idx in 0..self.sockets.len() {
            self.flush_socket(socket_idx);
        }
        self.stop.store(true, Ordering::Relaxed);
        let mut woken_all = true;
        for socket in &self.sockets {
            // Edge-triggered shutdown: the fallback timeout covers a
            // reader that has not yet re-entered `recv_from` (socket
            // options are shared with its clone); a reader already parked
            // inside the syscall is only woken by a zero-byte datagram to
            // its own socket, after which it re-checks the stop flag and
            // exits. A wildcard-bound socket reports an unspecified local
            // IP that is not a valid destination everywhere, so the wake is
            // routed through the matching loopback address instead.
            let _ = socket.set_read_timeout(Some(SHUTDOWN_FALLBACK_POLL));
            let woken = socket
                .local_addr()
                .and_then(|mut addr| {
                    if addr.ip().is_unspecified() {
                        match addr {
                            SocketAddr::V4(_) => addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
                            SocketAddr::V6(_) => addr.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
                        }
                    }
                    socket.send_to(&[], addr)
                })
                .is_ok();
            woken_all &= woken;
        }
        if woken_all {
            for reader in self
                .readers
                .lock()
                .expect("plane readers poisoned")
                .drain(..)
            {
                let _ = reader.join();
            }
        }
        // If a wake could not be sent, a reader may be parked indefinitely;
        // leaking it (it exits on the next datagram or timeout tick) beats
        // hanging the dropping thread.
    }
}

/// A UDP plane hosting `nodes` endpoints behind `sockets` sockets, with one
/// demultiplexing reader thread per socket.
///
/// The handle is cheap to clone; the readers shut down when the last
/// handle **and** the last [`SharedUdpEndpoint`] drop.
///
/// ```
/// use sle_net::transport::MessageEndpoint;
/// use sle_sim::actor::NodeId;
/// use sle_udp::SharedUdpPlane;
/// use std::time::Duration;
///
/// // Four nodes behind two sockets: two reader threads total.
/// let plane = SharedUdpPlane::<u64>::bind_loopback(4, 2).unwrap();
/// let endpoints = plane.endpoints();
/// endpoints[0].send(NodeId(3), 42).unwrap();
/// let incoming = endpoints[3].recv_timeout(Duration::from_secs(5)).unwrap();
/// assert_eq!(incoming.from, NodeId(0));
/// assert_eq!(incoming.msg, 42);
/// ```
pub struct SharedUdpPlane<M> {
    shared: Arc<PlaneShared<M>>,
}

impl<M> Clone for SharedUdpPlane<M> {
    fn clone(&self) -> Self {
        SharedUdpPlane {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> std::fmt::Debug for SharedUdpPlane<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedUdpPlane")
            .field("nodes", &self.shared.node_sockets.len())
            .field("sockets", &self.shared.sockets.len())
            .finish_non_exhaustive()
    }
}

impl<M: WireFormat + Send + 'static> SharedUdpPlane<M> {
    /// Binds `sockets` sockets to ephemeral ports on `127.0.0.1` and
    /// assigns `nodes` node identities to them round-robin (node `i` →
    /// socket `i % sockets`) — the socket-world equivalent of
    /// [`InMemoryMesh::new(n)`](sle_net::transport::InMemoryMesh::new).
    /// One reader thread is spawned per socket; at most `nodes` sockets are
    /// bound, so `bind_loopback(n, n)` is one socket per workstation. Each
    /// socket asks for a receive buffer of `RECEIVE_BUFFER` (4 MiB, capped
    /// by the host), room for a cold start's ALIVE round.
    ///
    /// # Errors
    ///
    /// Fails if any socket cannot be bound or cloned, or any reader thread
    /// cannot start.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `sockets` is zero, or `nodes` exceeds `u32`
    /// range (node identities are `u32`).
    pub fn bind_loopback(nodes: usize, sockets: usize) -> io::Result<Self> {
        assert!(nodes > 0, "a plane needs at least one node");
        assert!(sockets > 0, "a plane needs at least one socket");
        assert!(u32::try_from(nodes).is_ok(), "node identities are u32");
        let sockets: Vec<UdpSocket> = (0..sockets.min(nodes))
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let socket_addrs: Arc<Vec<SocketAddr>> = Arc::new(
            sockets
                .iter()
                .map(|s| s.local_addr())
                .collect::<io::Result<_>>()?,
        );
        let node_sockets: Arc<Vec<usize>> =
            Arc::new((0..nodes).map(|i| i % sockets.len()).collect());
        let residents: Arc<Vec<ResidentSlot<M>>> =
            Arc::new((0..nodes).map(|_| Mutex::new(None)).collect());
        let stats = Arc::new(PlaneStats::default());
        // One buffer per reader covers the steady state exactly; a second
        // per reader absorbs restore/checkout races without falling back.
        let pool = BufferPool::new(sockets.len() * 2, MAX_PLANE_DATAGRAM + 1);
        let stop = Arc::new(AtomicBool::new(false));
        let trace: Arc<Mutex<Option<PlaneTrace>>> = Arc::new(Mutex::new(None));

        let mut readers = Vec::with_capacity(sockets.len());
        for (socket_idx, socket) in sockets.iter().enumerate() {
            widen_receive_buffer(socket);
            let reader_socket = socket.try_clone()?;
            reader_socket.set_read_timeout(None)?;
            readers.push(
                std::thread::Builder::new()
                    .name(format!("sle-udp-plane-{socket_idx}"))
                    .spawn({
                        let stop = Arc::clone(&stop);
                        let stats = Arc::clone(&stats);
                        let pool = pool.clone();
                        let residents = Arc::clone(&residents);
                        let node_sockets = Arc::clone(&node_sockets);
                        let socket_addrs = Arc::clone(&socket_addrs);
                        let trace = Arc::clone(&trace);
                        move || {
                            demux_loop(
                                socket_idx,
                                reader_socket,
                                &stop,
                                &stats,
                                &pool,
                                &residents,
                                &node_sockets,
                                &socket_addrs,
                                &trace,
                            )
                        }
                    })?,
            );
        }

        let pending = sockets
            .iter()
            .map(|_| Outbox {
                buffers: Mutex::new(vec![Vec::new(); sockets.len()]),
                dirty: AtomicBool::new(false),
            })
            .collect();
        Ok(SharedUdpPlane {
            shared: Arc::new(PlaneShared {
                sockets,
                socket_addrs,
                node_sockets,
                residents,
                pending,
                stats,
                pool,
                stop,
                trace,
                readers: Mutex::new(readers),
            }),
        })
    }

    /// Creates the endpoint of `node`, making it resident: the demux
    /// routes records addressed to it from now on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the plane or already has a live
    /// endpoint. A node whose endpoint has been dropped can be re-created
    /// (mid-stream churn): records that arrived while it was away were
    /// counted as misrouted and dropped, exactly as a restarted daemon
    /// misses datagrams sent while it was down.
    pub fn endpoint(&self, node: NodeId) -> SharedUdpEndpoint<M> {
        let slot = self
            .shared
            .residents
            .get(node.index())
            .unwrap_or_else(|| panic!("node {node} is outside this plane"));
        let (tx, rx) = channel();
        {
            let mut slot = slot.lock().expect("plane resident poisoned");
            assert!(
                slot.is_none(),
                "node {node} already has a live endpoint on this plane"
            );
            *slot = Some(PlaneDelivery::Channel(tx));
        }
        SharedUdpEndpoint {
            node,
            plane: self.clone(),
            rx,
            coalesce: AtomicBool::new(false),
        }
    }

    /// Creates the endpoints of every node in the plane, in node order —
    /// ready for `Cluster::start_with_endpoints`.
    ///
    /// # Panics
    ///
    /// Panics if any node already has a live endpoint.
    pub fn endpoints(&self) -> Vec<SharedUdpEndpoint<M>> {
        (0..self.shared.node_sockets.len())
            .map(|i| self.endpoint(NodeId(i as u32)))
            .collect()
    }

    /// The number of nodes the plane hosts.
    pub fn node_count(&self) -> usize {
        self.shared.node_sockets.len()
    }

    /// The number of shared sockets (= demux reader threads).
    pub fn socket_count(&self) -> usize {
        self.shared.sockets.len()
    }

    /// The plane address of `node` — the local address of the shared
    /// socket it lives behind — if `node` is in the plane.
    pub fn node_addr(&self, node: NodeId) -> Option<SocketAddr> {
        let socket = *self.shared.node_sockets.get(node.index())?;
        Some(self.shared.socket_addrs[socket])
    }

    /// A copy of the plane's datagram and record counters.
    pub fn stats(&self) -> PlaneStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A copy of the receive-buffer pool's occupancy counters.
    pub fn pool_stats(&self) -> PoolStatsSnapshot {
        self.shared.pool.stats()
    }

    /// Binds the plane's live counters into `registry`: [`PlaneStats`]
    /// under `<prefix>.<counter>` and the receive-buffer pool under
    /// `<prefix>.pool.<counter>`.
    pub fn bind(&self, registry: &Registry, prefix: &str) {
        self.shared.stats.bind(registry, prefix);
        self.shared.pool.bind(registry, &format!("{prefix}.pool"));
    }

    /// Reports refused records into `ring` as
    /// [`ProtoEvent::DatagramDropped`] events stamped by `clock`,
    /// attributed to the record's destination node — or, for drops with no
    /// parseable destination (oversized datagrams, header-level
    /// truncation), to the lowest node id assigned to the receiving socket.
    /// The drop paths are cold (a healthy plane refuses nothing), so the
    /// trace costs nothing on the delivery fast path.
    pub fn set_trace(&self, ring: TraceRing, clock: SharedClock) {
        *self.shared.trace.lock().expect("plane trace poisoned") = Some(PlaneTrace { ring, clock });
    }

    /// Total bytes currently sitting in pending coalescing buffers across
    /// every source socket — records accepted by a push-mode `send` but not
    /// yet written to any socket.
    ///
    /// A correctly driven plane returns to zero at every batch boundary
    /// (the runtime's [`MessageEndpoint::flush_sends`]); a
    /// non-zero value after the owning runtime has shut down means sends
    /// were stranded (asserted by `tests/transport_conformance.rs`).
    pub fn pending_backlog(&self) -> usize {
        self.shared
            .pending
            .iter()
            .map(|outbox| {
                let buffers = outbox.buffers.lock().expect("plane pending poisoned");
                buffers.iter().map(Vec::len).sum::<usize>()
            })
            .sum()
    }
}

impl<M> PlaneShared<M> {
    /// Sends and clears every pending buffer of source socket
    /// `socket_idx`. A clean socket costs one atomic swap and no lock.
    fn flush_socket(&self, socket_idx: usize) {
        let outbox = &self.pending[socket_idx];
        if !outbox.dirty.swap(false, Ordering::Acquire) {
            return;
        }
        let mut buffers = outbox.buffers.lock().expect("plane pending poisoned");
        let socket = &self.sockets[socket_idx];
        for (dest, buf) in buffers.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            // OS-level send failures are swallowed: to the protocol they
            // are the network losing a message, which it is built to
            // tolerate.
            let _ = socket.send_to(buf, self.socket_addrs[dest]);
            self.stats.datagrams_sent.inc();
            buf.clear();
        }
    }
}

/// One node's endpoint on a [`SharedUdpPlane`].
///
/// In pull mode every `send` writes through immediately. Installing a
/// delivery sink ([`MessageEndpoint::set_delivery_sink`]) switches the
/// endpoint to coalescing sends: records accrue in the plane's pending
/// buffers until the [`MAX_BATCH_BYTES`] budget would overflow or the owning
/// runtime calls [`MessageEndpoint::flush_sends`] at a batch boundary.
///
/// Dropping the endpoint makes the node non-resident: the demux counts
/// subsequent records for it as misrouted, as for a departed daemon.
pub struct SharedUdpEndpoint<M> {
    node: NodeId,
    plane: SharedUdpPlane<M>,
    rx: Receiver<Incoming<M>>,
    /// Whether sends accrue in the pending buffers (push mode, a runtime
    /// flushes at batch boundaries) or write through per send (pull mode).
    coalesce: AtomicBool,
}

impl<M> std::fmt::Debug for SharedUdpEndpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedUdpEndpoint")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<M: WireFormat + Send + 'static> MessageEndpoint<M> for SharedUdpEndpoint<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    /// Encodes `msg` into a plane record bound for `to`'s shared socket,
    /// best effort (OS-level send failures are network loss to the
    /// protocol). In pull mode the record is put on the wire immediately;
    /// in push mode it coalesces with other pending records for the same
    /// destination socket until the budget fills or the runtime flushes.
    fn send(&self, to: NodeId, msg: M) -> Result<(), TransportError> {
        let shared = &self.plane.shared;
        let dest_socket = *shared
            .node_sockets
            .get(to.index())
            .ok_or(TransportError::UnknownDestination(to))?;
        let dest_addr = shared.socket_addrs[dest_socket];
        let socket_idx = shared.node_sockets[self.node.index()];
        let outbox = &shared.pending[socket_idx];
        let flush_now = {
            let mut pending = outbox.buffers.lock().expect("plane pending poisoned");
            let buf = &mut pending[dest_socket];
            // The record is encoded straight into the pending buffer: its
            // header first, the frame length patched in once known.
            let accrued = buf.len();
            buf.extend_from_slice(&to.0.to_be_bytes());
            buf.extend_from_slice(&[0, 0]);
            let frame_len = match encode_frame_into(buf, self.node, &msg) {
                Ok(len) => len,
                Err(e) => {
                    buf.truncate(accrued);
                    drop(pending);
                    shared.stats.send_unencodable.inc();
                    if let Some(trace) = &*shared.trace.lock().expect("plane trace poisoned") {
                        trace.dropped(self.node, DropReason::Unencodable);
                    }
                    return Err(TransportError::Unencodable(e.to_string()));
                }
            };
            buf[accrued + 4..accrued + RECORD_HEADER]
                .copy_from_slice(&(frame_len as u16).to_be_bytes());
            if accrued > 0 && buf.len() > MAX_BATCH_BYTES {
                // The record does not fit: send what accrued before it and
                // keep the record as the start of a fresh datagram.
                let _ = shared.sockets[socket_idx].send_to(&buf[..accrued], dest_addr);
                shared.stats.datagrams_sent.inc();
                buf.drain(..accrued);
            }
            shared.stats.records_sent.inc();
            if !self.coalesce.load(Ordering::Relaxed) || buf.len() >= MAX_BATCH_BYTES {
                // Sent below, outside the lock.
                Some(std::mem::take(buf))
            } else {
                outbox.dirty.store(true, Ordering::Release);
                None
            }
        };
        if let Some(full) = flush_now {
            let _ = shared.sockets[socket_idx].send_to(&full, dest_addr);
            shared.stats.datagrams_sent.inc();
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<M>> {
        match self.rx.recv_timeout(timeout) {
            Ok(incoming) => Some(incoming),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn try_recv(&self) -> Option<Incoming<M>> {
        self.rx.try_recv().ok()
    }

    fn set_delivery_sink(&self, sink: ShardDelivery<M>) -> bool {
        {
            let slot = &self.plane.shared.residents[self.node.index()];
            let mut slot = slot.lock().expect("plane resident poisoned");
            *slot = Some(PlaneDelivery::Shard(sink.clone()));
        }
        // Records decoded before the switch must not be stranded in the
        // pull channel.
        while let Ok(incoming) = self.rx.try_recv() {
            sink.push((self.node, incoming));
        }
        // The owning runtime flushes at batch boundaries from now on, so
        // sends may coalesce.
        self.coalesce.store(true, Ordering::Relaxed);
        true
    }

    fn flush_sends(&self) {
        let socket_idx = self.plane.shared.node_sockets[self.node.index()];
        self.plane.shared.flush_socket(socket_idx);
    }
}

impl<M> Drop for SharedUdpEndpoint<M> {
    fn drop(&mut self) {
        // Departing must not strand coalesced sends of co-socketed
        // residents (or our own final messages).
        let socket_idx = self.plane.shared.node_sockets[self.node.index()];
        self.plane.shared.flush_socket(socket_idx);
        let slot = &self.plane.shared.residents[self.node.index()];
        *slot.lock().expect("plane resident poisoned") = None;
    }
}

/// The per-socket demultiplexer: receives datagrams into pooled buffers,
/// walks the records, validates each, and routes to the resident
/// destination. See the module docs for the refusal rules.
#[allow(clippy::too_many_arguments)]
fn demux_loop<M: WireFormat>(
    socket_idx: usize,
    socket: UdpSocket,
    stop: &AtomicBool,
    stats: &PlaneStats,
    pool: &BufferPool,
    residents: &[ResidentSlot<M>],
    node_sockets: &[usize],
    socket_addrs: &[SocketAddr],
    trace: &Mutex<Option<PlaneTrace>>,
) {
    let trace_dropped = |node: NodeId, reason: DropReason| {
        if let Some(trace) = &*trace.lock().expect("plane trace poisoned") {
            trace.dropped(node, reason);
        }
    };
    // Drops with no parseable destination are attributed to the lowest node
    // id assigned to this socket.
    let socket_node = node_sockets
        .iter()
        .position(|&s| s == socket_idx)
        .map(|i| NodeId(i as u32))
        .expect("every plane socket hosts at least one node");
    // One datagram's records for shard mailboxes, grouped by mailbox in
    // record order: handed over after the walk, one push per mailbox.
    let mut handoff: Vec<(ShardDelivery<M>, Vec<ShardRecord<M>>)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Checked out per datagram and restored on scope exit: the pool's
        // occupancy gauge is an exact count of in-flight receives.
        let mut buf = pool.checkout();
        let received = socket.recv_from(&mut buf);
        stats.reader_wakeups.inc();
        let (len, src) = match received {
            Ok(received) => received,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            // Transient errors (e.g. ECONNREFUSED bounced back by a dead
            // peer's ICMP on Linux) must not kill the demux.
            Err(_) => continue,
        };
        if len == 0 {
            // The shutdown wake-up (or noise): re-check the stop flag.
            continue;
        }
        stats.datagrams_received.inc();
        if len > MAX_PLANE_DATAGRAM {
            // The buffer is one byte larger than the maximum, so an
            // over-limit read is detectable even when the OS truncates.
            stats.dropped_oversized.inc();
            trace_dropped(socket_node, DropReason::Oversized);
            continue;
        }
        let datagram = &buf[..len];
        let mut off = 0;
        while off < len {
            if len - off < RECORD_HEADER {
                // Not even a record header left: framing truncation with
                // no destination to attribute it to.
                stats.dropped_truncated.inc();
                trace_dropped(socket_node, DropReason::Truncated);
                break;
            }
            let dest = NodeId(u32::from_be_bytes(
                datagram[off..off + 4].try_into().expect("4-byte slice"),
            ));
            let frame_len = u16::from_be_bytes(
                datagram[off + 4..off + RECORD_HEADER]
                    .try_into()
                    .expect("2-byte slice"),
            ) as usize;
            let start = off + RECORD_HEADER;
            if frame_len > len - start {
                // The record claims more bytes than the datagram holds.
                // Nothing after this point can be trusted: abandon the
                // rest of the datagram.
                stats.dropped_truncated.inc();
                trace_dropped(dest, DropReason::Truncated);
                break;
            }
            let frame = &datagram[start..start + frame_len];
            off = start + frame_len;
            // Framing is intact from here on: an invalid record is
            // skipped and the walk continues with the next one.
            let (from, msg) = match decode_frame::<M>(frame) {
                Ok(decoded) => decoded,
                Err(_) => {
                    stats.dropped_malformed.inc();
                    trace_dropped(dest, DropReason::Malformed);
                    continue;
                }
            };
            // The claimed sender must be in the plane *and* the datagram
            // must come from the sender's own shared socket. Co-socketed
            // residents are indistinguishable here — see the module docs
            // for this trust boundary.
            let from_addr = node_sockets.get(from.index()).map(|&s| socket_addrs[s]);
            if from_addr != Some(src) {
                stats.dropped_misaddressed.inc();
                trace_dropped(dest, DropReason::Misaddressed);
                continue;
            }
            // The destination must live behind *this* socket and have a
            // live endpoint.
            if node_sockets.get(dest.index()) != Some(&socket_idx) {
                stats.dropped_misrouted.inc();
                trace_dropped(dest, DropReason::Misrouted);
                continue;
            }
            let incoming = Incoming { from, msg };
            let slot = residents[dest.index()]
                .lock()
                .expect("plane resident poisoned");
            match &*slot {
                Some(PlaneDelivery::Channel(tx)) => {
                    if tx.send(incoming).is_ok() {
                        stats.delivered.inc();
                    } else {
                        // The endpoint is mid-drop (receiver already gone,
                        // slot not yet cleared): the node is departing.
                        stats.dropped_misrouted.inc();
                        trace_dropped(dest, DropReason::Misrouted);
                    }
                }
                Some(PlaneDelivery::Shard(sink)) => {
                    let record = (dest, incoming);
                    match handoff.iter_mut().find(|(to, _)| to.same_mailbox(sink)) {
                        Some((_, records)) => records.push(record),
                        None => handoff.push((sink.clone(), vec![record])),
                    }
                }
                None => {
                    stats.dropped_misrouted.inc();
                    trace_dropped(dest, DropReason::Misrouted);
                }
            }
        }
        for (sink, records) in handoff.drain(..) {
            let delivered = records.len() as u64;
            sink.push_all(records);
            stats.delivered.add(delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_across_shared_sockets() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(5, 2).unwrap();
        assert_eq!(plane.node_count(), 5);
        assert_eq!(plane.socket_count(), 2);
        let endpoints = plane.endpoints();
        // 0 and 2 share socket 0; 1 and 3 share socket 1; 4 is on 0.
        assert_eq!(plane.node_addr(NodeId(0)), plane.node_addr(NodeId(2)));
        assert_ne!(plane.node_addr(NodeId(0)), plane.node_addr(NodeId(1)));
        endpoints[0].send(NodeId(3), 30).unwrap();
        endpoints[1].send(NodeId(3), 31).unwrap();
        endpoints[3].send(NodeId(0), 3).unwrap();
        // A self-send travels through the socket like any peer's.
        endpoints[4].send(NodeId(4), 44).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let incoming = endpoints[3].recv_timeout(Duration::from_secs(5)).unwrap();
            got.push((incoming.from, incoming.msg));
        }
        got.sort();
        assert_eq!(got, vec![(NodeId(0), 30), (NodeId(1), 31)]);
        let incoming = endpoints[0].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((incoming.from, incoming.msg), (NodeId(3), 3));
        let incoming = endpoints[4].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((incoming.from, incoming.msg), (NodeId(4), 44));
        // The reader counts a delivery just *after* handing it to the
        // channel, so the counter can trail a successful recv briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.stats().delivered != 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(plane.stats().delivered, 4);
    }

    #[test]
    fn sockets_never_exceed_the_requested_count() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(3, 8).unwrap();
        // More sockets than nodes would leave readers with no residents.
        assert_eq!(plane.socket_count(), 3);
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(1, 1).unwrap();
        let endpoint = plane.endpoint(NodeId(0));
        assert_eq!(
            endpoint.send(NodeId(9), 1),
            Err(TransportError::UnknownDestination(NodeId(9)))
        );
    }

    #[test]
    fn push_mode_coalesces_until_flushed() {
        use sle_net::mailbox::Mailbox;
        use std::time::Instant;

        let plane = SharedUdpPlane::<u64>::bind_loopback(4, 2).unwrap();
        let endpoints = plane.endpoints();
        // Receiver 1 in push mode so we can observe sink delivery; senders
        // 0 and 2 (co-socketed) in push mode so their sends coalesce.
        let mailbox: Mailbox<(NodeId, Incoming<u64>)> = Mailbox::new();
        assert!(endpoints[1].set_delivery_sink(mailbox.sender()));
        let sender_box: Mailbox<(NodeId, Incoming<u64>)> = Mailbox::new();
        assert!(endpoints[0].set_delivery_sink(sender_box.sender()));
        assert!(endpoints[2].set_delivery_sink(sender_box.sender()));

        endpoints[0].send(NodeId(1), 10).unwrap();
        endpoints[2].send(NodeId(1), 20).unwrap();
        assert_eq!(plane.stats().datagrams_sent, 0, "coalescing, not sending");
        assert_eq!(plane.stats().records_sent, 2);
        endpoints[0].flush_sends();
        assert_eq!(plane.stats().datagrams_sent, 1, "both records share one");

        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while buf.len() < 2 && Instant::now() < deadline {
            mailbox.wait_until(Some(Instant::now() + Duration::from_millis(50)), &mut buf);
        }
        let mut got: Vec<_> = buf
            .into_iter()
            .map(|(node, incoming)| (node, incoming.from, incoming.msg))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![(NodeId(1), NodeId(0), 10), (NodeId(1), NodeId(2), 20)]
        );
    }

    #[test]
    fn a_flush_of_a_clean_socket_sends_nothing() {
        use sle_net::mailbox::Mailbox;

        let plane = SharedUdpPlane::<u64>::bind_loopback(2, 2).unwrap();
        let endpoints = plane.endpoints();
        let mailbox: Mailbox<(NodeId, Incoming<u64>)> = Mailbox::new();
        assert!(endpoints[0].set_delivery_sink(mailbox.sender()));
        endpoints[0].flush_sends();
        assert_eq!(plane.stats().datagrams_sent, 0, "nothing was pending");
        endpoints[0].send(NodeId(1), 5).unwrap();
        endpoints[0].flush_sends();
        assert_eq!(plane.stats().datagrams_sent, 1);
        // Flushed means clean again: a second flush sends nothing.
        endpoints[0].flush_sends();
        assert_eq!(plane.stats().datagrams_sent, 1);
        assert_eq!(plane.pending_backlog(), 0);
    }

    #[test]
    fn one_datagram_reaches_a_shard_mailbox_in_one_push() {
        use sle_net::mailbox::Mailbox;
        use std::time::Instant;

        // Nodes 1 and 3 share socket 1 and one shard mailbox; node 0 sends
        // them three records that coalesce into one datagram.
        let plane = SharedUdpPlane::<u64>::bind_loopback(4, 2).unwrap();
        let endpoints = plane.endpoints();
        let shard: Mailbox<(NodeId, Incoming<u64>)> = Mailbox::new();
        assert!(endpoints[1].set_delivery_sink(shard.sender()));
        assert!(endpoints[3].set_delivery_sink(shard.sender()));
        let sender_box: Mailbox<(NodeId, Incoming<u64>)> = Mailbox::new();
        assert!(endpoints[0].set_delivery_sink(sender_box.sender()));
        endpoints[0].send(NodeId(1), 10).unwrap();
        endpoints[0].send(NodeId(3), 30).unwrap();
        endpoints[0].send(NodeId(1), 11).unwrap();
        endpoints[0].flush_sends();
        assert_eq!(plane.stats().datagrams_sent, 1);

        let mut buf = Vec::new();
        assert!(shard.wait_until(Some(Instant::now() + Duration::from_secs(5)), &mut buf));
        let got: Vec<_> = buf
            .into_iter()
            .map(|(node, incoming)| (node, incoming.from, incoming.msg))
            .collect();
        assert_eq!(
            got,
            vec![
                (NodeId(1), NodeId(0), 10),
                (NodeId(3), NodeId(0), 30),
                (NodeId(1), NodeId(0), 11),
            ],
            "one wait drains the whole datagram, in record order"
        );
    }

    #[test]
    fn departed_nodes_records_are_misrouted() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(2, 1).unwrap();
        let a = plane.endpoint(NodeId(0));
        let b = plane.endpoint(NodeId(1));
        a.send(NodeId(1), 1).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_some());
        drop(b);
        a.send(NodeId(1), 2).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.stats().dropped_misrouted == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(plane.stats().dropped_misrouted, 1);
        // Churn: the node can come back and receive again.
        let b = plane.endpoint(NodeId(1));
        a.send(NodeId(1), 3).unwrap();
        let incoming = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(incoming.msg, 3);
    }

    #[test]
    fn drop_joins_the_readers_promptly() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(8, 4).unwrap();
        let endpoints = plane.endpoints();
        let start = std::time::Instant::now();
        drop(endpoints);
        drop(plane);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "plane shutdown took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn idle_plane_does_not_wake() {
        let plane = SharedUdpPlane::<u64>::bind_loopback(4, 2).unwrap();
        let _endpoints = plane.endpoints();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(plane.stats().reader_wakeups, 0);
    }
}
