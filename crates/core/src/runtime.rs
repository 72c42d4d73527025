//! The sharded real-time runtime for the service.
//!
//! The paper deploys one service daemon per workstation; applications link a
//! shared library that talks to the local daemon. [`Cluster`] plays the role
//! of a deployment: it runs one [`ServiceNode`] per endpoint, connects them
//! through any [`MessageEndpoint`] transport, and exposes the service API —
//! join/leave groups, query the leader, subscribe to leader-change events —
//! through [`ClusterHandle`].
//!
//! Internally the cluster is a **sharded event-loop runtime** (see
//! `docs/RUNTIME.md`): a fixed pool of worker threads, each owning
//!
//! * a *shard* of service nodes (node `i` lives on worker `i % workers`),
//!   each with its own [`TimerTable`] of armed timers over one shard-wide
//!   [`EventWheel`] — the same `O(1)` wheel and table the simulator's
//!   shards keep, so firing the next timer never scans the pending set, and
//! * a [`sle_net::mailbox::Mailbox`] multiplexing incoming messages and
//!   one ordered command queue for every resident node — [`ClusterHandle`]
//!   calls, [`Cluster::crash`] and [`Cluster::recover`] — behind **one**
//!   condvar-parked wait: the worker sleeps exactly until its wheel's next
//!   deadline or a wakeup, never on a fixed polling interval.
//!
//! Transports deliver straight into the owning shard's mailbox and wake its
//! worker ([`MessageEndpoint::set_delivery_sink`]); the runtime never polls
//! an endpoint. Thread count is therefore O(workers) plus whatever reader
//! threads the transport itself needs — not O(nodes) — which is what lets
//! hundreds of nodes run in real time on one machine
//! (`tests/runtime_scale.rs` holds the thread budget, `benchmark/`'s
//! `rt-udp-steady` workload measures the cost per node).
//!
//! The protocol code is the same sans-io [`ServiceNode`] state machine the
//! simulator runs; this module merely drives it with the wall clock. The
//! pool defaults to one worker per available core (never more than one per
//! node); [`ClusterConfig::with_workers`] sets it explicitly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sle_election::ElectorKind;
use sle_net::link::LinkSpec;
use sle_net::mailbox::Mailbox;
use sle_net::transport::{InMemoryMesh, Incoming, MessageEndpoint};
use sle_obs::clock::Clock;
use sle_obs::{Counter, ProtoEvent, Registry, TraceDrain, TraceRing, WallClock};
use sle_sim::actor::{Actor, Effect, NodeId, TimerTag};
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::wheel::{EventWheel, TimerTable};

use crate::config::{JoinConfig, ServiceConfig};
use crate::error::AgreementTimeout;
use crate::events::ServiceEvent;
use crate::lease::{FencedApp, LeaderLease};
use crate::messages::ServiceMessage;
use crate::node::{ServiceContext, ServiceNode};
use crate::obs::NodeInstruments;
use crate::process::{GroupId, ProcessId};

/// A leader-change notification produced by some node of a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterEvent {
    /// The node on which the event was raised.
    pub node: NodeId,
    /// The event itself.
    pub event: ServiceEvent,
}

/// Deployment-level configuration of a [`Cluster`].
///
/// Not every constructor reads every field. All of them read `workers` and
/// `observability`. `algorithm` and `hello_interval` feed only the
/// full-mesh constructors, which build each node's [`ServiceConfig`]
/// ([`Cluster::start_with_service_configs`] takes them from the configs it
/// is given). `mesh_seed` and `links` feed only [`Cluster::start`] and
/// [`Cluster::start_with_config`], the two that build the in-memory mesh.
///
/// ```
/// use sle_core::runtime::{Cluster, ClusterConfig};
/// use sle_election::ElectorKind;
/// use sle_sim::time::SimDuration;
///
/// // Eight workstations on a 2-worker shard pool, gossiping every 100 ms.
/// let config = ClusterConfig::new(ElectorKind::OmegaL)
///     .with_workers(2)
///     .with_hello_interval(SimDuration::from_millis(100))
///     .with_mesh_seed(7);
/// let cluster = Cluster::start_with_config(8, config);
/// assert_eq!(cluster.workers(), 2);
/// cluster.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The leader-election algorithm every service instance runs (read only
    /// by the full-mesh constructors).
    pub algorithm: ElectorKind,
    /// Size of the shard worker pool. Defaults to the host's available
    /// parallelism; a cluster never starts more workers than it has nodes.
    pub workers: usize,
    /// How often service instances send HELLO membership gossip (read only
    /// by the full-mesh constructors).
    pub hello_interval: SimDuration,
    /// Seed of the in-memory mesh's loss lottery (read only by
    /// [`Cluster::start`] and [`Cluster::start_with_config`]).
    pub mesh_seed: u64,
    /// Link behaviour of the in-memory mesh (read only by
    /// [`Cluster::start`] and [`Cluster::start_with_config`]).
    pub links: LinkSpec,
    /// When set, the cluster records live telemetry into this registry (QoS
    /// histograms, traffic counters, shard wakeup counters — see
    /// `docs/OBSERVABILITY.md`) and traces protocol events into per-shard
    /// rings drainable via [`Cluster::drain_trace`].
    pub observability: Option<Registry>,
}

impl ClusterConfig {
    /// The defaults: one worker per available core, a 200 ms HELLO
    /// interval, mesh seed 42, perfect links, no observability.
    pub fn new(algorithm: ElectorKind) -> Self {
        ClusterConfig {
            algorithm,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            hello_interval: SimDuration::from_millis(200),
            mesh_seed: 42,
            links: LinkSpec::perfect(),
            observability: None,
        }
    }

    /// Runs the cluster on a fixed pool of `workers` shard workers
    /// (clamped to at least 1; more workers than nodes is capped at
    /// construction time).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the HELLO gossip interval.
    pub fn with_hello_interval(mut self, interval: SimDuration) -> Self {
        self.hello_interval = interval;
        self
    }

    /// Replaces the in-memory mesh seed.
    pub fn with_mesh_seed(mut self, seed: u64) -> Self {
        self.mesh_seed = seed;
        self
    }

    /// Replaces the in-memory mesh link behaviour.
    pub fn with_links(mut self, links: LinkSpec) -> Self {
        self.links = links;
        self
    }

    /// Enables live observability: every service instance records its QoS
    /// histograms and traffic counters into `registry` (the caller keeps a
    /// clone to snapshot or export at any time), and protocol events are
    /// traced into per-shard rings.
    pub fn with_observability(mut self, registry: Registry) -> Self {
        self.observability = Some(registry);
        self
    }
}

/// Aggregate wakeup counters of a running [`Cluster`]'s shard workers —
/// the observable for "workers sleep exactly to the next deadline".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Size of the shard worker pool.
    pub workers: usize,
    /// Times any worker returned from its mailbox wait.
    pub wakeups: u64,
    /// Wakeups that found nothing to do: no command, no message, no due
    /// timer. These only come from deadline rounding races, so the rate
    /// should be near zero.
    pub idle_wakeups: u64,
}

/// A call on one resident's service: run on its shard worker with a
/// context whose effects the worker then applies.
type Call = Box<dyn FnOnce(&mut ServiceNode, &mut ServiceContext) + Send>;

/// What a shard's command queue carries for one resident, handled in the
/// order it was submitted.
enum Command {
    /// A [`ClusterHandle`] call. A paused node refuses one that `acts`: the
    /// call is dropped unrun, and with it its reply sender.
    Call { acts: bool, call: Call },
    /// [`Cluster::crash`].
    Pause,
    /// [`Cluster::recover`].
    Resume,
}

/// One shard's inbound side: the command queue [`ClusterHandle`]s feed and
/// the mailbox transports deliver into, sharing one condvar.
struct ShardInbox {
    commands: Mutex<VecDeque<(NodeId, Command)>>,
    mail: Mailbox<(NodeId, Incoming<ServiceMessage>)>,
}

impl ShardInbox {
    fn new() -> Self {
        ShardInbox {
            commands: Mutex::new(VecDeque::new()),
            mail: Mailbox::new(),
        }
    }

    fn wake(&self) {
        self.mail.sender().wake();
    }

    /// Enqueues a command unless `shutdown` is already set. The flag is
    /// checked under the queue lock — the same lock the cluster's `Drop`
    /// drains the queue under *after* setting the flag — so a submission
    /// either reaches a live queue (and is answered, or drained with its
    /// reply channel dropped) or is refused outright; it can never strand
    /// a caller on the full reply timeout.
    fn submit(&self, shutdown: &AtomicBool, node: NodeId, command: Command) -> bool {
        {
            let mut commands = self.commands.lock().expect("shard command queue poisoned");
            if shutdown.load(Ordering::Relaxed) {
                return false;
            }
            commands.push_back((node, command));
        }
        self.wake();
        true
    }

    /// Drops everything still queued (and with it the reply senders, so
    /// blocked callers fail promptly). Called after the workers exited.
    fn drain_commands(&self) {
        self.commands
            .lock()
            .expect("shard command queue poisoned")
            .clear();
    }
}

/// Live wakeup counters of one shard worker. The fields are `sle-obs`
/// counter handles, so enabling observability binds the *same cells* into
/// the registry (`runtime.shard.<k>.wakeups`) — [`RuntimeStats`] and a
/// registry snapshot are two views of one account.
#[derive(Default)]
struct ShardStats {
    wakeups: Counter,
    idle_wakeups: Counter,
}

/// A handle to one running service instance of a [`Cluster`].
#[derive(Clone)]
pub struct ClusterHandle {
    node: NodeId,
    inbox: Arc<ShardInbox>,
    shutdown: Arc<AtomicBool>,
}

impl ClusterHandle {
    /// The node this handle talks to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Runs `f` on this node's service, on its shard worker, and waits for
    /// the answer: `None` if the node has shut down, or if `f` `acts` and
    /// the node is paused by [`Cluster::crash`].
    fn call<R: Send + 'static>(
        &self,
        acts: bool,
        f: impl FnOnce(&mut ServiceNode, &mut ServiceContext) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = channel();
        let call: Call = Box::new(move |service, ctx| {
            let _ = tx.send(f(service, ctx));
        });
        if !self
            .inbox
            .submit(&self.shutdown, self.node, Command::Call { acts, call })
        {
            return None;
        }
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Registers a new process on this node and joins it to `group`.
    ///
    /// Returns `None` if the node has shut down or is paused by
    /// [`Cluster::crash`].
    pub fn join(&self, group: GroupId, config: JoinConfig) -> Option<ProcessId> {
        self.call(true, move |service, ctx| {
            let process = service.register_process();
            let _ = service.join_group(process, group, config, ctx);
            process
        })
    }

    /// Removes `process` from `group`. Returns whether the leave succeeded
    /// (false on a node paused by [`Cluster::crash`]).
    pub fn leave(&self, group: GroupId, process: ProcessId) -> bool {
        self.call(true, move |service, ctx| {
            service.leave_group(process, group, ctx).is_ok()
        })
        .unwrap_or(false)
    }

    /// Queries this node's current view of the leader of `group`. A node
    /// paused by [`Cluster::crash`] answers from its parked state.
    pub fn leader_of(&self, group: GroupId) -> Option<ProcessId> {
        self.call(false, move |service, _| service.leader_of(group))
            .flatten()
    }

    /// Installs a fenced application on this node, enabling the client tier:
    /// the node serves `ClientRequest`s while it leads under a valid lease
    /// and broadcasts `LeaseGrant`s alongside its ALIVEs (see `docs/APP.md`).
    ///
    /// A leader resumed by [`Cluster::recover`] after more than its lease
    /// term is fenced off only under Ω_lc and Ω_l, which apply the
    /// accusation its pause earned. Ω_id (S1) has no accusation to apply:
    /// a resumed S1 leader keeps its rank, and its lease is not fenced
    /// against the successor's.
    ///
    /// Returns whether the installation was applied (false if the node has
    /// shut down or is paused by [`Cluster::crash`]).
    pub fn install_app(&self, app: Box<dyn FencedApp>) -> bool {
        self.call(true, move |service, _| service.install_app(app))
            .is_some()
    }

    /// The lease this node currently holds as leader of `group`, if any. A
    /// node paused by [`Cluster::crash`] answers from its parked state.
    pub fn lease_of(&self, group: GroupId) -> Option<LeaderLease> {
        self.call(false, move |service, _| service.lease_of(group))
            .flatten()
    }
}

/// One service node resident on a shard.
struct Resident<E> {
    id: NodeId,
    service: ServiceNode,
    endpoint: E,
    /// The node's armed timers; their entries sit in the shard's wheel.
    timers: TimerTable,
    /// `Some` from [`Cluster::crash`] to [`Cluster::recover`]: the timers
    /// that came due meanwhile, fired (overdue) on the resume. A paused
    /// node drops its messages and refuses calls that act.
    paused: Option<Vec<TimerTag>>,
}

/// The per-worker state of one shard.
struct ShardRuntime<E> {
    start: Instant,
    /// This shard's residents: node `i` lives on shard `i % stride` at
    /// position `i / stride`, the placement of the simulator's shards.
    residents: Vec<Resident<E>>,
    /// This shard's number, and the number of shards.
    shard: u32,
    stride: u32,
    /// Every resident's timer entries, keyed by resident position and tag,
    /// each under the generation its resident's [`TimerTable`] handed out.
    wheel: EventWheel<(usize, TimerTag)>,
    inbox: Arc<ShardInbox>,
    events: Sender<ClusterEvent>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ShardStats>,
}

impl<E: MessageEndpoint<ServiceMessage>> ShardRuntime<E> {
    fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The position of `node`'s resident on this shard, if it lives here.
    #[inline]
    fn resident_idx(&self, node: NodeId) -> Option<usize> {
        let idx = (node.0 / self.stride) as usize;
        (node.0 % self.stride == self.shard && idx < self.residents.len()).then_some(idx)
    }

    /// Runs `f` on the service of the resident at `idx` and applies the
    /// effects it requested.
    fn with_service(&mut self, idx: usize, f: impl FnOnce(&mut ServiceNode, &mut ServiceContext)) {
        let now = self.now();
        let resident = &mut self.residents[idx];
        let id = resident.id;
        let mut ctx = ServiceContext::new(now, id, 0);
        f(&mut resident.service, &mut ctx);
        for effect in ctx.into_effects() {
            match effect {
                // Send failures are tolerable for a best-effort datagram
                // protocol: to the state machine they are the network
                // dropping a message. Transports are responsible for making
                // the one *deterministic* failure observable (an
                // unencodable-on-this-wire message — counted by sle-udp's
                // PlaneStats::send_unencodable).
                Effect::Send { to, msg } => {
                    let _ = self.residents[idx].endpoint.send(to, msg);
                }
                Effect::SetTimer { tag, at } => {
                    let generation = self.residents[idx].timers.arm(tag);
                    self.wheel.push(at, generation, (idx, tag));
                }
                Effect::CancelTimer { tag } => self.residents[idx].timers.cancel(tag),
                Effect::Emit(event) => {
                    let _ = self.events.send(ClusterEvent { node: id, event });
                }
            }
        }
    }

    fn dispatch_message(&mut self, node: NodeId, incoming: Incoming<ServiceMessage>) {
        match self.resident_idx(node) {
            // A paused node drops its traffic.
            Some(idx) if self.residents[idx].paused.is_none() => {
                self.with_service(idx, |service, ctx| {
                    service.on_message(incoming.from, incoming.msg, ctx)
                });
            }
            _ => {}
        }
    }

    /// Runs the timer `tag` of the resident at `idx`, or parks it until the
    /// resume if the node is paused.
    fn dispatch_timer(&mut self, idx: usize, tag: TimerTag) {
        match &mut self.residents[idx].paused {
            Some(frozen) => frozen.push(tag),
            None => self.with_service(idx, |service, ctx| service.on_timer(tag, ctx)),
        }
    }

    fn handle_command(&mut self, node: NodeId, command: Command) {
        let Some(idx) = self.resident_idx(node) else {
            return;
        };
        let resident = &mut self.residents[idx];
        match command {
            Command::Call { acts, call } => {
                if !(acts && resident.paused.is_some()) {
                    self.with_service(idx, call);
                }
            }
            Command::Pause => {
                resident.paused.get_or_insert_with(Vec::new);
            }
            Command::Resume => {
                for tag in resident.paused.take().unwrap_or_default() {
                    self.dispatch_timer(idx, tag);
                }
            }
        }
    }

    /// The earliest live timer deadline, dropping stale entries in front.
    fn next_deadline(&mut self) -> Option<SimInstant> {
        loop {
            let (at, generation, &(idx, tag)) = self.wheel.peek()?;
            if self.residents[idx].timers.is_current(tag, generation) {
                return Some(at);
            }
            self.wheel.pop();
        }
    }

    /// Drains and processes everything actionable right now: commands,
    /// delivered messages, due timers. Returns whether anything was done.
    fn process_all(&mut self, mail: &mut Vec<(NodeId, Incoming<ServiceMessage>)>) -> bool {
        let mut did_work = false;
        // Commands first: application calls must not starve behind traffic.
        loop {
            let next = self
                .inbox
                .commands
                .lock()
                .expect("shard command queue poisoned")
                .pop_front();
            let Some((node, command)) = next else {
                break;
            };
            did_work = true;
            self.handle_command(node, command);
        }
        for (node, incoming) in mail.drain(..) {
            did_work = true;
            self.dispatch_message(node, incoming);
        }
        while self.next_deadline().is_some_and(|at| at <= self.now()) {
            let (_, generation, (idx, tag)) = self.wheel.pop().expect("a live deadline");
            if self.residents[idx].timers.fire(tag, generation) {
                did_work = true;
                self.dispatch_timer(idx, tag);
            }
        }
        did_work
    }

    /// Flushes transports that coalesce sends
    /// ([`MessageEndpoint::flush_sends`]): the end of a productive
    /// processing round is the natural batch boundary, so everything the
    /// shard's residents said this round — to any one destination — can
    /// share datagrams without adding latency beyond the round itself.
    /// Write-through transports make this a no-op per resident.
    fn flush_endpoints(&self) {
        for resident in &self.residents {
            resident.endpoint.flush_sends();
        }
    }

    fn run(mut self) {
        for idx in 0..self.residents.len() {
            self.with_service(idx, |service, ctx| service.on_start(ctx));
        }
        let mut mail: Vec<(NodeId, Incoming<ServiceMessage>)> = Vec::new();
        self.process_all(&mut mail);
        // The start-up round always talks (HELLOs, joins).
        self.flush_endpoints();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                // Coalescing transports may still hold sends batched during
                // the last productive round (or handed to them by a resident
                // that observed the shutdown flag mid-round): flush so no
                // datagram is stranded in a pending buffer on exit.
                self.flush_endpoints();
                return;
            }
            // Sleep exactly until the wheel's next deadline (or forever, if
            // no timer is armed) — a push or a wake ends the wait early.
            let deadline = self
                .next_deadline()
                .map(|at| self.start + Duration::from_nanos(at.as_nanos()));
            let woken = self.inbox.mail.wait_until(deadline, &mut mail);
            self.stats.wakeups.inc();
            let did_work = self.process_all(&mut mail);
            if did_work {
                self.flush_endpoints();
            } else if !woken {
                self.stats.idle_wakeups.inc();
            }
        }
    }
}

/// A real-time deployment of the leader-election service: a fixed pool of
/// shard workers driving one [`ServiceNode`] per endpoint, connected by any
/// [`MessageEndpoint`] transport (in-memory mesh by default, real UDP
/// sockets via `sle-udp`).
pub struct Cluster {
    handles: Vec<ClusterHandle>,
    threads: Vec<JoinHandle<()>>,
    events: Receiver<ClusterEvent>,
    /// Which nodes [`Cluster::crash`] paused, for
    /// [`Cluster::await_agreement`]'s all-crashed check. Dispatch reads
    /// only the shards' own flags.
    crashed: Vec<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    inboxes: Vec<Arc<ShardInbox>>,
    stats: Vec<Arc<ShardStats>>,
    obs: Option<ClusterObs>,
}

/// Capacity, in records, of each shard's protocol-event trace ring.
const TRACE_CAPACITY: usize = 4096;

/// The cluster-level observability state, present when
/// [`ClusterConfig::with_observability`] was used.
struct ClusterObs {
    registry: Registry,
    /// One trace ring per shard worker; residents of a shard share it.
    rings: Vec<TraceRing>,
    /// Stamps control-plane trace events (crash/recover) on the same
    /// timeline the shard workers run their timers on.
    clock: WallClock,
}

impl Cluster {
    /// Starts `n` service instances running `algorithm` over perfect links.
    pub fn start(n: usize, algorithm: ElectorKind) -> Self {
        Self::start_with_config(n, ClusterConfig::new(algorithm))
    }

    /// Starts `n` service instances on an in-memory mesh, fully configured:
    /// algorithm, worker pool size, HELLO interval, mesh links and seed.
    pub fn start_with_config(n: usize, config: ClusterConfig) -> Self {
        let mut mesh: InMemoryMesh<ServiceMessage> =
            InMemoryMesh::with_links(n, config.links, config.mesh_seed);
        let endpoints: Vec<_> = (0..n)
            .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint taken"))
            .collect();
        Self::start_endpoints_with_config(endpoints, config)
    }

    /// Starts one service instance per endpoint over whatever transport the
    /// endpoints implement, with the [`ClusterConfig::new`] defaults.
    ///
    /// The endpoints' node identities must be the contiguous range
    /// `0..endpoints.len()` in order (the shape every deployment in this
    /// workspace uses); the peer set of every instance is the full set of
    /// endpoint identities.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint identities are not `0, 1, …, n-1` in order,
    /// or an endpoint refuses the delivery sink (see
    /// [`Cluster::start_with_service_configs`]).
    pub fn start_with_endpoints<E>(endpoints: Vec<E>, algorithm: ElectorKind) -> Self
    where
        E: MessageEndpoint<ServiceMessage> + Send + 'static,
    {
        Self::start_endpoints_with_config(endpoints, ClusterConfig::new(algorithm))
    }

    /// Starts one service instance per endpoint, fully configured. Every
    /// instance's peer set is the full mesh of endpoint identities.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint identities are not `0, 1, …, n-1` in order,
    /// or an endpoint refuses the delivery sink (see
    /// [`Cluster::start_with_service_configs`]).
    pub fn start_endpoints_with_config<E>(endpoints: Vec<E>, config: ClusterConfig) -> Self
    where
        E: MessageEndpoint<ServiceMessage> + Send + 'static,
    {
        let n = endpoints.len();
        let service_configs = (0..n)
            .map(|i| {
                ServiceConfig::full_mesh(NodeId(i as u32), n, config.algorithm)
                    .with_hello_interval(config.hello_interval)
            })
            .collect();
        Self::start_with_service_configs(endpoints, service_configs, &config)
    }

    /// The most general constructor: one service instance per endpoint,
    /// each with its own explicit [`ServiceConfig`] (peer sets, auto-joins,
    /// membership timeouts — the surface large deployments with restricted
    /// gossip topologies need), on the worker pool `options` selects.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint identities are not `0, 1, …, n-1` in order,
    /// or `configs` does not match them one-to-one. Also panics if an
    /// endpoint's [`MessageEndpoint::set_delivery_sink`] returns `false`:
    /// the shard workers receive only through their mailbox and never poll
    /// an endpoint, so a node behind such an endpoint would be deaf.
    pub fn start_with_service_configs<E>(
        endpoints: Vec<E>,
        configs: Vec<ServiceConfig>,
        options: &ClusterConfig,
    ) -> Self
    where
        E: MessageEndpoint<ServiceMessage> + Send + 'static,
    {
        let n = endpoints.len();
        assert_eq!(configs.len(), n, "one ServiceConfig per endpoint");
        for (i, endpoint) in endpoints.iter().enumerate() {
            assert_eq!(
                endpoint.node(),
                NodeId(i as u32),
                "endpoint identities must be 0..n in order"
            );
        }
        for (i, config) in configs.iter().enumerate() {
            assert_eq!(
                config.node,
                NodeId(i as u32),
                "service config identities must be 0..n in order"
            );
        }
        let workers = options.workers.clamp(1, n.max(1));
        let (event_tx, event_rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let start = Instant::now();

        let inboxes: Vec<Arc<ShardInbox>> =
            (0..workers).map(|_| Arc::new(ShardInbox::new())).collect();
        let stats: Vec<Arc<ShardStats>> = (0..workers)
            .map(|_| Arc::new(ShardStats::default()))
            .collect();
        let obs = options.observability.as_ref().map(|registry| {
            for (k, shard) in stats.iter().enumerate() {
                registry.bind_counter(&format!("runtime.shard.{k}.wakeups"), &shard.wakeups);
                registry.bind_counter(
                    &format!("runtime.shard.{k}.idle_wakeups"),
                    &shard.idle_wakeups,
                );
            }
            registry.gauge("runtime.workers").set(workers as i64);
            registry.gauge("runtime.nodes").set(n as i64);
            ClusterObs {
                registry: registry.clone(),
                rings: (0..workers)
                    .map(|_| TraceRing::new(TRACE_CAPACITY))
                    .collect(),
                clock: WallClock::from_start(start),
            }
        });
        let mut members: Vec<Vec<Resident<E>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut handles = Vec::with_capacity(n);

        for (i, (endpoint, config)) in endpoints.into_iter().zip(configs).enumerate() {
            let id = NodeId(i as u32);
            let shard = i % workers;
            assert!(
                endpoint.set_delivery_sink(inboxes[shard].mail.sender()),
                "endpoint {id} refused the delivery sink"
            );
            let mut service = ServiceNode::new(config);
            if let Some(obs) = &obs {
                service.set_instruments(NodeInstruments::new(
                    &obs.registry,
                    obs.rings[shard].clone(),
                    id,
                ));
            }
            members[shard].push(Resident {
                id,
                service,
                endpoint,
                timers: TimerTable::new(),
                paused: None,
            });
            handles.push(ClusterHandle {
                node: id,
                inbox: Arc::clone(&inboxes[shard]),
                shutdown: Arc::clone(&shutdown),
            });
        }

        let threads = members
            .into_iter()
            .enumerate()
            .map(|(k, residents)| {
                let runtime = ShardRuntime {
                    start,
                    residents,
                    shard: k as u32,
                    stride: workers as u32,
                    wheel: EventWheel::new(),
                    inbox: Arc::clone(&inboxes[k]),
                    events: event_tx.clone(),
                    shutdown: Arc::clone(&shutdown),
                    stats: Arc::clone(&stats[k]),
                };
                std::thread::Builder::new()
                    .name(format!("sle-shard-{k}"))
                    .spawn(move || runtime.run())
                    .expect("spawn shard worker")
            })
            .collect();

        Cluster {
            handles,
            threads,
            events: event_rx,
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            shutdown,
            inboxes,
            stats,
            obs,
        }
    }

    /// The live metrics registry, when the cluster was started with
    /// [`ClusterConfig::with_observability`]. The registry can be
    /// snapshotted and exported at any time while the cluster runs.
    pub fn obs_registry(&self) -> Option<&Registry> {
        self.obs.as_ref().map(|obs| &obs.registry)
    }

    /// Drains the per-shard protocol-event trace rings into one merged,
    /// time-ordered trace (plus the total number of events lost to ring
    /// overflow). Returns an empty drain when observability is off.
    pub fn drain_trace(&self) -> TraceDrain {
        let Some(obs) = &self.obs else {
            return TraceDrain::default();
        };
        let mut merged = TraceDrain::default();
        for ring in &obs.rings {
            let drain = ring.drain();
            merged.dropped += drain.dropped;
            merged.events.extend(drain.events);
        }
        // Per-ring sequence numbers only order within a shard; the merged
        // view is ordered by timestamp (ties broken by node then seq).
        merged.events.sort_by_key(|r| (r.at, r.node.0, r.seq));
        merged
    }

    /// Number of service instances.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Size of the shard worker pool (the cluster's thread count, excluding
    /// whatever reader threads the transport runs).
    pub fn workers(&self) -> usize {
        self.inboxes.len()
    }

    /// Aggregate wakeup counters across all shard workers.
    pub fn runtime_stats(&self) -> RuntimeStats {
        let mut stats = RuntimeStats {
            workers: self.inboxes.len(),
            ..RuntimeStats::default()
        };
        for shard in &self.stats {
            stats.wakeups += shard.wakeups.get();
            stats.idle_wakeups += shard.idle_wakeups.get();
        }
        stats
    }

    /// The handle for `node`.
    pub fn handle(&self, node: NodeId) -> Option<ClusterHandle> {
        self.handles.get(node.index()).cloned()
    }

    /// Receives the next leader-change event, waiting up to `timeout`.
    pub fn next_event(&self, timeout: Duration) -> Option<ClusterEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// The leader of `group` that every node (other than `exclude`)
    /// currently agrees on.
    ///
    /// Returns `None` while views differ, any polled node has no leader
    /// yet, or the agreed leader is hosted on `exclude` (the typical use of
    /// `exclude` is a node whose crash is being recovered from, so a stale
    /// view of it still in office does not count as agreement).
    pub fn agreed_leader(&self, group: GroupId, exclude: Option<NodeId>) -> Option<ProcessId> {
        let mut agreed: Option<ProcessId> = None;
        for handle in &self.handles {
            if Some(handle.node()) == exclude {
                continue;
            }
            let view = handle.leader_of(group)?;
            match agreed {
                None => agreed = Some(view),
                Some(leader) if leader == view => {}
                Some(_) => return None,
            }
        }
        agreed.filter(|leader| Some(leader.node) != exclude)
    }

    /// Like [`Cluster::agreed_leader`], but polling only `members` — the
    /// form multi-group deployments use, where each group spans a subset of
    /// the workstations.
    pub fn agreed_leader_among(&self, group: GroupId, members: &[NodeId]) -> Option<ProcessId> {
        let mut agreed: Option<ProcessId> = None;
        for &member in members {
            let view = self.handles.get(member.index())?.leader_of(group)?;
            match agreed {
                None => agreed = Some(view),
                Some(leader) if leader == view => {}
                Some(_) => return None,
            }
        }
        agreed
    }

    /// Polls [`Cluster::agreed_leader`] until the nodes agree or `timeout`
    /// expires — the standard way examples and tests wait for an election
    /// to settle in real time.
    ///
    /// # Errors
    ///
    /// On timeout, returns an [`AgreementTimeout`] carrying the last leader
    /// vote observed on every node (including `exclude`), so the caller can
    /// print exactly which nodes disagreed and about whom.
    pub fn await_agreement(
        &self,
        group: GroupId,
        exclude: Option<NodeId>,
        timeout: Duration,
    ) -> Result<ProcessId, AgreementTimeout> {
        let started = Instant::now();
        let deadline = started + timeout;
        loop {
            // A group whose every polled member is crashed can never reach a
            // *fresh* agreement — crashed nodes still answer `leader_of`
            // from their parked (stale) state, which would otherwise fake an
            // agreement here. Check this before consulting the views, and
            // fail promptly rather than waiting out the full timeout.
            let all_crashed = self
                .handles
                .iter()
                .filter(|handle| Some(handle.node()) != exclude)
                .all(|handle| self.crashed[handle.node().index()].load(Ordering::Relaxed));
            if all_crashed {
                let votes = self
                    .handles
                    .iter()
                    .map(|handle| (handle.node(), handle.leader_of(group)))
                    .collect();
                return Err(AgreementTimeout {
                    group,
                    waited: started.elapsed(),
                    votes,
                });
            }
            if let Some(leader) = self.agreed_leader(group, exclude) {
                return Ok(leader);
            }
            if Instant::now() >= deadline {
                let votes = self
                    .handles
                    .iter()
                    .map(|handle| (handle.node(), handle.leader_of(group)))
                    .collect();
                return Err(AgreementTimeout {
                    group,
                    waited: started.elapsed(),
                    votes,
                });
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Simulates a crash of `node`: it stops handling messages, timers and
    /// the [`ClusterHandle`] calls that act (`join`, `leave`,
    /// `install_app`). Messages that reach it meanwhile are dropped; timers
    /// that come due are kept for [`Cluster::recover`].
    pub fn crash(&self, node: NodeId) {
        self.set_paused(node, true);
    }

    /// Resumes a node stopped by [`Cluster::crash`].
    ///
    /// This is a *pause*, not the simulator's crash-recovery: the node comes
    /// back with the state it had — same incarnation, same rank — and the
    /// timers that came due meanwhile fire at once, overdue. A leader
    /// resumed after more than its lease term finds the lease expired on
    /// its first ALIVE tick, drops it and accuses itself, so it does not
    /// serve beside or displace the successor; after a shorter pause it
    /// carries on as leader. For a restart under a new incarnation use the
    /// simulator.
    pub fn recover(&self, node: NodeId) {
        self.set_paused(node, false);
    }

    /// Queues a pause or a resume of `node` on its shard, behind every call
    /// submitted before it.
    fn set_paused(&self, node: NodeId, paused: bool) {
        let Some(flag) = self.crashed.get(node.index()) else {
            return;
        };
        flag.store(paused, Ordering::Relaxed);
        let shard = (node.0 % self.inboxes.len() as u32) as usize;
        let (event, command) = if paused {
            (ProtoEvent::Crashed, Command::Pause)
        } else {
            (ProtoEvent::Recovered, Command::Resume)
        };
        if let Some(obs) = &self.obs {
            obs.rings[shard].push(node, obs.clock.now(), event);
        }
        self.inboxes[shard].submit(&self.shutdown, node, command);
    }

    /// Shuts the cluster down, joining all shard workers.
    pub fn shutdown(self) {
        // Drop does the work; this method is the explicit, readable form.
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for inbox in &self.inboxes {
            inbox.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Commands that raced the shutdown and were never answered: drop
        // them (and their reply senders) so blocked callers fail promptly
        // instead of waiting out their reply timeout.
        for inbox in &self.inboxes {
            inbox.drain_commands();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{FencingToken, StaleToken};
    use sle_net::transport::{ShardDelivery, TransportError};

    #[test]
    fn cluster_elects_a_leader_in_real_time() {
        let cluster = Cluster::start(3, ElectorKind::OmegaLc);
        assert_eq!(cluster.len(), 3);
        assert!(!cluster.is_empty());
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(
            cluster.workers(),
            cores.min(3),
            "default pool: min(n, cores)"
        );
        let group = GroupId(1);
        let mut processes = Vec::new();
        for i in 0..3u32 {
            let handle = cluster.handle(NodeId(i)).unwrap();
            processes.push(handle.join(group, JoinConfig::candidate()).unwrap());
        }
        // Wait until every node reports the same leader (or give up).
        let agreed = cluster.await_agreement(group, None, Duration::from_secs(10));
        assert!(
            agreed.is_ok(),
            "no agreement within 10 s of wall-clock time: {}",
            agreed.unwrap_err()
        );
        cluster.shutdown();
    }

    #[test]
    fn leader_crash_is_recovered_in_real_time() {
        let cluster = Cluster::start(3, ElectorKind::OmegaL);
        let group = GroupId(7);
        for i in 0..3u32 {
            cluster
                .handle(NodeId(i))
                .unwrap()
                .join(group, JoinConfig::candidate())
                .unwrap();
        }
        let leader = cluster
            .await_agreement(group, None, Duration::from_secs(10))
            .expect("initial leader");
        cluster.crash(leader.node);

        let new_leader = cluster.await_agreement(group, Some(leader.node), Duration::from_secs(15));
        let new_leader = new_leader.expect("no re-election within 15 s");
        assert_ne!(new_leader.node, leader.node);
        cluster.shutdown();
    }

    #[test]
    fn sharded_cluster_elects_and_reelects() {
        // Five nodes on two workers: same protocol, O(workers) threads.
        let config = ClusterConfig::new(ElectorKind::OmegaL).with_workers(2);
        let cluster = Cluster::start_with_config(5, config);
        assert_eq!(cluster.workers(), 2);
        let group = GroupId(3);
        for i in 0..5u32 {
            cluster
                .handle(NodeId(i))
                .unwrap()
                .join(group, JoinConfig::candidate())
                .unwrap();
        }
        let leader = cluster
            .await_agreement(group, None, Duration::from_secs(10))
            .expect("initial leader");
        cluster.crash(leader.node);
        let new_leader = cluster
            .await_agreement(group, Some(leader.node), Duration::from_secs(15))
            .expect("no re-election within 15 s");
        assert_ne!(new_leader.node, leader.node);

        // A recovered node resumes its timers (they were parked, not lost)
        // and rejoins the protocol: the *full* membership — recovered node
        // included — must reach agreement again.
        cluster.recover(leader.node);
        let settled = cluster
            .await_agreement(group, None, Duration::from_secs(20))
            .expect("no full agreement after recovery");
        let members: Vec<NodeId> = (0..5u32).map(NodeId).collect();
        assert_eq!(cluster.agreed_leader_among(group, &members), Some(settled));
        cluster.shutdown();
    }

    #[test]
    fn cluster_with_crashed_nodes_shuts_down_promptly() {
        // Crashed nodes are parked on the shard mailbox (no drain/sleep
        // busy-loop), so shutdown must join instantly even when every node
        // is crashed.
        let config = ClusterConfig::new(ElectorKind::OmegaLc).with_workers(2);
        let cluster = Cluster::start_with_config(4, config);
        for i in 0..4u32 {
            cluster.crash(NodeId(i));
        }
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        cluster.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    /// An in-memory endpoint that counts what its node sends.
    struct Counted {
        inner: sle_net::transport::Endpoint<ServiceMessage>,
        sent: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl MessageEndpoint<ServiceMessage> for Counted {
        fn node(&self) -> NodeId {
            self.inner.node()
        }
        fn send(&self, to: NodeId, msg: ServiceMessage) -> Result<(), TransportError> {
            self.sent.fetch_add(1, Ordering::Relaxed);
            self.inner.send(to, msg)
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<ServiceMessage>> {
            self.inner.recv_timeout(timeout)
        }
        fn try_recv(&self) -> Option<Incoming<ServiceMessage>> {
            self.inner.try_recv()
        }
        fn set_delivery_sink(&self, sink: ShardDelivery<ServiceMessage>) -> bool {
            MessageEndpoint::set_delivery_sink(&self.inner, sink)
        }
    }

    #[derive(Debug)]
    struct Echo;

    impl FencedApp for Echo {
        fn apply(&mut self, _: GroupId, _: FencingToken, payload: u64) -> Result<u64, StaleToken> {
            Ok(payload)
        }
    }

    #[test]
    fn a_paused_node_refuses_calls_that_act() {
        let mut mesh = InMemoryMesh::new(2);
        let sent: Vec<_> = (0..2).map(|_| Arc::default()).collect();
        let endpoints = (0..2)
            .map(|i| Counted {
                inner: mesh.endpoint(NodeId(i)).expect("endpoint"),
                sent: Arc::clone(&sent[i as usize]),
            })
            .collect();
        let config = ClusterConfig::new(ElectorKind::OmegaL).with_workers(1);
        let cluster = Cluster::start_endpoints_with_config(endpoints, config);
        let (node, group) = (NodeId(1), GroupId(9));
        let handle = cluster.handle(node).unwrap();
        cluster.crash(node);
        // Calls are handled in the order they were submitted, so once this
        // query is answered (from the parked state) the pause has happened.
        assert_eq!(handle.leader_of(group), None);
        let before = sent[1].load(Ordering::Relaxed);
        assert_eq!(handle.join(group, JoinConfig::candidate()), None);
        assert!(!handle.leave(group, ProcessId::new(node, 0)));
        assert!(!handle.install_app(Box::new(Echo)));
        assert_eq!(handle.lease_of(group), None);
        assert_eq!(
            sent[1].load(Ordering::Relaxed),
            before,
            "a paused node sent on a refused join"
        );
        cluster.recover(node);
        assert!(handle.join(group, JoinConfig::candidate()).is_some());
        assert!(handle.install_app(Box::new(Echo)));
        cluster.shutdown();
    }

    #[test]
    fn a_crash_undone_at_once_loses_no_timer() {
        let config = ClusterConfig::new(ElectorKind::OmegaL).with_workers(2);
        let cluster = Cluster::start_with_config(3, config);
        let group = GroupId(4);
        for i in 0..3u32 {
            let handle = cluster.handle(NodeId(i)).unwrap();
            handle.join(group, JoinConfig::candidate()).unwrap();
        }
        let leader = cluster
            .await_agreement(group, None, Duration::from_secs(10))
            .expect("initial leader");
        // Let the election's own leader-change events drain.
        while cluster.next_event(Duration::from_millis(500)).is_some() {}
        for _ in 0..50 {
            cluster.crash(leader.node);
            cluster.recover(leader.node);
        }
        // A timer lost to a pause would silence the leader's ALIVEs, and
        // its followers would suspect it within one detection bound T_D.
        let t_d = JoinConfig::candidate().qos.detection_time();
        let quiet = Duration::from_nanos(3 * t_d.as_nanos());
        if let Some(event) = cluster.next_event(quiet) {
            panic!("{event:?} within 3·T_D of 50 crash/recover flaps of {leader:?}");
        }
        assert_eq!(cluster.agreed_leader(group, None), Some(leader));
        cluster.shutdown();
    }

    #[test]
    fn cluster_config_builders() {
        let config = ClusterConfig::new(ElectorKind::OmegaL)
            .with_workers(0)
            .with_hello_interval(SimDuration::from_millis(150))
            .with_mesh_seed(9)
            .with_links(LinkSpec::perfect());
        assert_eq!(config.workers, 1, "worker pool is clamped to >= 1");
        assert_eq!(config.hello_interval, SimDuration::from_millis(150));
        assert_eq!(config.mesh_seed, 9);
        // More workers than nodes is capped at construction time.
        let cluster = Cluster::start_with_config(
            2,
            ClusterConfig::new(ElectorKind::OmegaLc).with_workers(16),
        );
        assert_eq!(cluster.workers(), 2);
        let stats = cluster.runtime_stats();
        assert_eq!(stats.workers, 2);
        cluster.shutdown();
    }
}
