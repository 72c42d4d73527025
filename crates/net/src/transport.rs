//! Real-time transports for running the service outside the simulator.
//!
//! The paper's service runs as one daemon per workstation exchanging UDP
//! datagrams. For the library form of this reproduction we provide an
//! in-process mesh transport built on standard-library channels: every node
//! gets an [`Endpoint`] with a non-blocking `send` and a blocking/polling
//! `recv`.
//! The mesh can optionally inject losses and delays so examples can
//! demonstrate adverse conditions in real time.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sle_sim::actor::NodeId;
use sle_sim::rng::SimRng;

use crate::link::LinkSpec;
use crate::mailbox::MailboxSender;

/// Errors returned by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination node is not part of the mesh.
    UnknownDestination(NodeId),
    /// The mesh has been shut down.
    Closed,
    /// The message cannot be represented on this transport's wire (for
    /// example, it encodes to more bytes than one datagram may carry).
    Unencodable(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownDestination(node) => {
                write!(f, "unknown destination node {node}")
            }
            TransportError::Closed => write!(f, "transport is closed"),
            TransportError::Unencodable(reason) => {
                write!(f, "message cannot be encoded: {reason}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// The push-mode delivery seam between a transport and a sharded runtime:
/// a [`MailboxSender`] into the shard mailbox of whichever worker owns the
/// receiving endpoint's node. Arriving messages are tagged with the
/// receiving endpoint's identity (a shard mailbox multiplexes many resident
/// nodes) and the push itself wakes the parked worker.
pub type ShardDelivery<M> = MailboxSender<(NodeId, Incoming<M>)>;

/// The endpoint shape the real-time runtime in `sle-core` is written
/// against: an unreliable, unordered, node-addressed datagram service.
///
/// Two implementations exist: the in-process [`Endpoint`] of an
/// [`InMemoryMesh`] (std channels) and the `SharedUdpEndpoint` of the
/// `sle-udp` crate (real `std::net::UdpSocket`s; with one socket per node,
/// one daemon per workstation exactly as the paper deploys the service).
/// Both are *best effort*: a send that reaches the wire may still be lost,
/// duplicated or reordered, which is precisely the fault model the protocol
/// is designed for, so runtimes must never treat a successful `send` as a
/// delivery guarantee.
pub trait MessageEndpoint<M> {
    /// The identity of this endpoint.
    fn node(&self) -> NodeId;

    /// Sends `msg` to `to`, best effort and without blocking on delivery.
    ///
    /// # Errors
    ///
    /// Implementations report only *local* failures (unknown destination,
    /// closed transport, unencodable message); losing the message in the
    /// network is silent, like UDP.
    fn send(&self, to: NodeId, msg: M) -> Result<(), TransportError>;

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `None` on timeout (or when the transport has shut down).
    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<M>>;

    /// Receives a message if one is already queued, without blocking.
    fn try_recv(&self) -> Option<Incoming<M>>;

    /// Switches the endpoint to push-mode delivery: every message that
    /// arrives from now on is pushed into `sink` (tagged with this
    /// endpoint's [`node`](MessageEndpoint::node)) and wakes the owning
    /// shard's worker, instead of queuing for
    /// [`recv_timeout`](MessageEndpoint::recv_timeout) /
    /// [`try_recv`](MessageEndpoint::try_recv) pulls. Messages already
    /// queued at the moment of the switch are moved into the sink as well
    /// (their order relative to concurrent arrivals is unspecified, which a
    /// best-effort datagram contract already permits).
    ///
    /// Returns whether the sink was installed. `sle-core`'s runtime only
    /// receives through the sink, so it refuses (panics at start) an
    /// endpoint that returns `false`.
    fn set_delivery_sink(&self, sink: ShardDelivery<M>) -> bool;

    /// Flushes any sends the transport has buffered for coalescing.
    ///
    /// Transports that pack several small messages into one wire datagram
    /// (the shared-socket UDP plane of `sle-udp`) hold outgoing records in a
    /// pending buffer until either the datagram budget fills or the runtime
    /// signals a natural batch boundary by calling this. A sharded runtime
    /// calls it after every productive processing round, so co-sharded
    /// senders to the same destination share datagrams without adding
    /// latency beyond the round itself. Transports that write through on
    /// every `send` (the in-memory mesh) keep this default no-op.
    fn flush_sends(&self) {}
}

/// A message in flight, tagged with its sender.
#[derive(Debug, Clone, PartialEq)]
pub struct Incoming<M> {
    /// The node that sent the message.
    pub from: NodeId,
    /// The message payload.
    pub msg: M,
}

/// Where messages for one mesh destination currently go: its endpoint's
/// pull channel (the default), or straight into the shard mailbox of the
/// runtime worker that owns the destination node.
enum MeshRoute<M> {
    Channel(Sender<Incoming<M>>),
    Shard(ShardDelivery<M>),
}

struct MeshShared<M> {
    routes: Vec<Mutex<MeshRoute<M>>>,
    loss: LinkSpec,
    rng: Mutex<SimRng>,
}

/// An in-process full-mesh transport connecting `n` endpoints.
///
/// ```
/// use sle_net::transport::InMemoryMesh;
/// use sle_sim::actor::NodeId;
///
/// let mut mesh: InMemoryMesh<String> = InMemoryMesh::new(2);
/// let a = mesh.endpoint(NodeId(0)).unwrap();
/// let b = mesh.endpoint(NodeId(1)).unwrap();
/// a.send(NodeId(1), "hello".to_string()).unwrap();
/// let incoming = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(incoming.from, NodeId(0));
/// assert_eq!(incoming.msg, "hello");
/// ```
pub struct InMemoryMesh<M> {
    shared: Arc<MeshShared<M>>,
    receivers: Vec<Option<Receiver<Incoming<M>>>>,
}

impl<M: Send + 'static> InMemoryMesh<M> {
    /// Creates a mesh of `n` endpoints with perfect links.
    pub fn new(n: usize) -> Self {
        Self::with_links(n, LinkSpec::perfect(), 0)
    }

    /// Creates a mesh whose links drop messages with `spec`'s loss
    /// probability, drawn at send time from a lottery seeded with `seed`.
    /// The mesh does not delay messages: a sender that slept would distort
    /// its caller's timing, so `spec`'s delays are ignored.
    pub fn with_links(n: usize, spec: LinkSpec, seed: u64) -> Self {
        let mut routes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            routes.push(Mutex::new(MeshRoute::Channel(tx)));
            receivers.push(Some(rx));
        }
        InMemoryMesh {
            shared: Arc::new(MeshShared {
                routes,
                loss: spec,
                rng: Mutex::new(SimRng::seed_from(seed)),
            }),
            receivers,
        }
    }

    /// Number of endpoints in the mesh.
    pub fn len(&self) -> usize {
        self.shared.routes.len()
    }

    /// Returns true if the mesh has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.shared.routes.is_empty()
    }

    /// Takes the endpoint for `node`. Each endpoint can be taken once.
    pub fn endpoint(&mut self, node: NodeId) -> Option<Endpoint<M>> {
        let rx = self.receivers.get_mut(node.index())?.take()?;
        Some(Endpoint {
            node,
            shared: Arc::clone(&self.shared),
            receiver: rx,
        })
    }
}

/// One node's connection to an [`InMemoryMesh`].
pub struct Endpoint<M> {
    node: NodeId,
    shared: Arc<MeshShared<M>>,
    receiver: Receiver<Incoming<M>>,
}

impl<M: Send + 'static> Endpoint<M> {
    /// The identity of this endpoint.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`. Returns an error if `to` is not in the mesh.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownDestination`] for out-of-range nodes
    /// and [`TransportError::Closed`] if the destination endpoint (and its
    /// receiver) has been dropped.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), TransportError> {
        let route = self
            .shared
            .routes
            .get(to.index())
            .ok_or(TransportError::UnknownDestination(to))?;
        // Perfect links skip the loss lottery entirely: the shared RNG lock
        // would otherwise serialize every sender in the mesh.
        if self.shared.loss.loss_probability() > 0.0 {
            let mut rng = self.shared.rng.lock().expect("transport rng poisoned");
            if rng.bernoulli(self.shared.loss.loss_probability()) {
                // Message "lost on the wire": swallowed silently, like UDP.
                return Ok(());
            }
        }
        let incoming = Incoming {
            from: self.node,
            msg,
        };
        match &*route.lock().expect("mesh route poisoned") {
            MeshRoute::Channel(sender) => sender.send(incoming).map_err(|_| TransportError::Closed),
            MeshRoute::Shard(sink) => {
                // Delivered straight into the owning shard's mailbox, waking
                // its worker.
                sink.push((to, incoming));
                Ok(())
            }
        }
    }

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<M>> {
        match self.receiver.recv_timeout(timeout) {
            Ok(incoming) => Some(incoming),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Receives a message if one is already queued.
    pub fn try_recv(&self) -> Option<Incoming<M>> {
        self.receiver.try_recv().ok()
    }

    /// Routes all future deliveries for this endpoint straight into `sink`
    /// (see [`MessageEndpoint::set_delivery_sink`]); anything already queued
    /// moves into the sink too.
    pub fn set_delivery_sink(&self, sink: ShardDelivery<M>) {
        {
            let mut route = self.shared.routes[self.node.index()]
                .lock()
                .expect("mesh route poisoned");
            *route = MeshRoute::Shard(sink.clone());
        }
        // Messages that reached the channel before the switch must not be
        // stranded: move them into the sink (senders now all use the sink,
        // so the channel can only drain).
        while let Ok(incoming) = self.receiver.try_recv() {
            sink.push((self.node, incoming));
        }
    }
}

impl<M: Send + 'static> MessageEndpoint<M> for Endpoint<M> {
    fn node(&self) -> NodeId {
        Endpoint::node(self)
    }

    fn send(&self, to: NodeId, msg: M) -> Result<(), TransportError> {
        Endpoint::send(self, to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<M>> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Incoming<M>> {
        Endpoint::try_recv(self)
    }

    fn set_delivery_sink(&self, sink: ShardDelivery<M>) -> bool {
        Endpoint::set_delivery_sink(self, sink);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    #[test]
    fn mesh_routes_between_endpoints() {
        let mut mesh: InMemoryMesh<u32> = InMemoryMesh::new(3);
        assert_eq!(mesh.len(), 3);
        assert!(!mesh.is_empty());
        let a = mesh.endpoint(NodeId(0)).unwrap();
        let b = mesh.endpoint(NodeId(1)).unwrap();
        let c = mesh.endpoint(NodeId(2)).unwrap();
        a.send(NodeId(1), 10).unwrap();
        c.send(NodeId(1), 20).unwrap();
        let first = b.recv_timeout(Duration::from_millis(200)).unwrap();
        let second = b.recv_timeout(Duration::from_millis(200)).unwrap();
        let mut got = vec![(first.from, first.msg), (second.from, second.msg)];
        got.sort();
        assert_eq!(got, vec![(NodeId(0), 10), (NodeId(2), 20)]);
    }

    #[test]
    fn endpoint_can_be_taken_once() {
        let mut mesh: InMemoryMesh<u32> = InMemoryMesh::new(1);
        assert!(mesh.endpoint(NodeId(0)).is_some());
        assert!(mesh.endpoint(NodeId(0)).is_none());
        assert!(mesh.endpoint(NodeId(5)).is_none());
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let mut mesh: InMemoryMesh<u32> = InMemoryMesh::new(1);
        let a = mesh.endpoint(NodeId(0)).unwrap();
        assert_eq!(
            a.send(NodeId(9), 1),
            Err(TransportError::UnknownDestination(NodeId(9)))
        );
        assert_eq!(
            TransportError::UnknownDestination(NodeId(9)).to_string(),
            "unknown destination node n9"
        );
    }

    #[test]
    fn try_recv_and_timeout_behave() {
        let mut mesh: InMemoryMesh<u32> = InMemoryMesh::new(2);
        let a = mesh.endpoint(NodeId(0)).unwrap();
        let b = mesh.endpoint(NodeId(1)).unwrap();
        assert!(b.try_recv().is_none());
        assert!(b.recv_timeout(Duration::from_millis(10)).is_none());
        a.send(NodeId(1), 7).unwrap();
        assert_eq!(b.try_recv().map(|i| i.msg), Some(7));
        assert_eq!(a.node(), NodeId(0));
    }

    #[test]
    fn lossy_mesh_swallows_messages_silently() {
        let mut mesh: InMemoryMesh<u32> =
            InMemoryMesh::with_links(2, LinkSpec::lossy(SimDuration::ZERO, 1.0), 3);
        let a = mesh.endpoint(NodeId(0)).unwrap();
        let b = mesh.endpoint(NodeId(1)).unwrap();
        for i in 0..50 {
            a.send(NodeId(1), i).unwrap();
        }
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn delivery_sink_receives_pushes_and_queued_backlog() {
        use crate::mailbox::Mailbox;

        let mut mesh: InMemoryMesh<u32> = InMemoryMesh::new(2);
        let a = mesh.endpoint(NodeId(0)).unwrap();
        let b = mesh.endpoint(NodeId(1)).unwrap();
        // A message queued before the switch must move into the sink.
        a.send(NodeId(1), 1).unwrap();
        let mailbox: Mailbox<(NodeId, Incoming<u32>)> = Mailbox::new();
        assert!(MessageEndpoint::set_delivery_sink(&b, mailbox.sender()));
        // And later sends go straight to the sink, waking the waiter.
        a.send(NodeId(1), 2).unwrap();
        let mut buf = Vec::new();
        assert!(mailbox.wait_until(None, &mut buf));
        while buf.len() < 2 {
            mailbox.drain(&mut buf);
        }
        let got: Vec<_> = buf
            .iter()
            .map(|(node, incoming)| (*node, incoming.from, incoming.msg))
            .collect();
        assert!(got.contains(&(NodeId(1), NodeId(0), 1)));
        assert!(got.contains(&(NodeId(1), NodeId(0), 2)));
        // Pulls see nothing once the endpoint is in push mode.
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn sending_across_threads_works() {
        let mut mesh: InMemoryMesh<u64> = InMemoryMesh::new(2);
        let a = mesh.endpoint(NodeId(0)).unwrap();
        let b = mesh.endpoint(NodeId(1)).unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..100u64 {
                a.send(NodeId(1), i).unwrap();
            }
        });
        let mut received = 0u64;
        while received < 100 {
            if b.recv_timeout(Duration::from_secs(1)).is_some() {
                received += 1;
            } else {
                break;
            }
        }
        handle.join().unwrap();
        assert_eq!(received, 100);
    }
}
