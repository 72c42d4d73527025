//! The traced pass's seam probes: transparent wrappers around the public
//! traits each layer is driven through.
//!
//! | probe | wraps | seam |
//! |---|---|---|
//! | [`ActorProbe`] | `ServiceNode` | `sle_sim::Actor` — what the simulator calls |
//! | [`MediumProbe`] | `SimulatedNetwork` | `sle_sim::Medium` |
//! | [`ObserverProbe`] | the workload's observer | `sle_sim::Observer` |
//! | [`EndpointProbe`] | a mesh or UDP endpoint | `sle_net::MessageEndpoint` |
//! | [`AppProbe`] | `FencedCounter` | `sle_core::FencedApp` |
//!
//! Every probe forwards each call and its result unchanged (the
//! transparency tests at the bottom hold that), and — only while
//! [`ledger::tracing`] is on — times the call into the thread's ledger and
//! offers its input to the [`samples`] the replay probes run on afterwards.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sle_core::lease::{FencedApp, FencingToken, StaleToken};
use sle_core::{GroupId, ServiceEvent, ServiceMessage, ServiceNode};
use sle_net::network::{NetworkStats, SimulatedNetwork};
use sle_net::transport::{Incoming, MessageEndpoint, ShardDelivery, TransportError};
use sle_sim::actor::{Actor, Context, Effect, NodeId, TimerTag};
use sle_sim::medium::{Fate, Medium, Verdict};
use sle_sim::observer::Observer;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

use crate::ledger::{self, now_ns, Slot};

/// The kinds of [`ServiceMessage`], as the ledger keys them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `Hello`.
    Hello,
    /// `Alive`.
    Alive,
    /// `AliveBatch`.
    AliveBatch,
    /// `Accuse`.
    Accuse,
    /// `Leave`.
    Leave,
    /// `LeaseGrant`.
    LeaseGrant,
    /// `ClientRequest`.
    ClientRequest,
    /// `ClientReply`.
    ClientReply,
    /// `Redirect`.
    Redirect,
}

impl Kind {
    /// The kind of `msg`.
    pub fn of(msg: &ServiceMessage) -> Kind {
        match msg {
            ServiceMessage::Hello { .. } => Kind::Hello,
            ServiceMessage::Alive { .. } => Kind::Alive,
            ServiceMessage::AliveBatch { .. } => Kind::AliveBatch,
            ServiceMessage::Accuse { .. } => Kind::Accuse,
            ServiceMessage::Leave { .. } => Kind::Leave,
            ServiceMessage::LeaseGrant { .. } => Kind::LeaseGrant,
            ServiceMessage::ClientRequest { .. } => Kind::ClientRequest,
            ServiceMessage::ClientReply { .. } => Kind::ClientReply,
            ServiceMessage::Redirect { .. } => Kind::Redirect,
        }
    }

    /// The ledger slot of `on_message` for this kind.
    fn on_message_slot(self) -> Slot {
        match self {
            Kind::Hello => Slot::OnHello,
            Kind::Alive => Slot::OnAlive,
            Kind::AliveBatch => Slot::OnAliveBatch,
            Kind::Accuse => Slot::OnAccuse,
            Kind::Leave => Slot::OnLeave,
            Kind::LeaseGrant => Slot::OnLeaseGrant,
            Kind::ClientRequest => Slot::OnClientRequest,
            Kind::ClientReply | Kind::Redirect => Slot::OnOtherMessage,
        }
    }
}

/// Inputs the seam probes set aside for the replay probes.
pub mod samples {
    use super::*;

    /// Messages kept per kind (the codec replay's input).
    pub const PER_KIND: usize = 256;
    /// A uniform one-in-this-many sample of all messages (frame sizes).
    pub const UNIFORM_EVERY: u64 = 64;
    /// Cap on the uniform sample.
    pub const UNIFORM_CAP: usize = 4096;
    /// The complete ALIVE streams into this many workstations are kept (the
    /// detector and elector replays need one receiver's view, in order):
    /// the first ones seen whose id is 7 modulo 8. Low ids would not do —
    /// with equal accusation times the lowest id leads, and an Ω_l leader
    /// receives no ALIVEs.
    pub const STREAMS: usize = 4;
    /// Cap on each kept stream.
    pub const STREAM_CAP: usize = 20_000;
    /// Cap on the kept deadlines.
    pub const DEADLINE_CAP: usize = 400_000;

    /// A message as a probe saw it.
    #[derive(Debug, Clone)]
    pub struct Seen {
        /// Sender.
        pub from: NodeId,
        /// When (virtual time under the simulator, the sender's runtime
        /// clock on the wall-clock workloads).
        pub at: SimInstant,
        /// The message.
        pub msg: ServiceMessage,
    }

    /// Everything set aside during one traced run.
    #[derive(Debug, Default)]
    pub struct Store {
        /// Up to [`PER_KIND`] messages of each kind.
        pub per_kind: HashMap<Kind, Vec<Seen>>,
        /// One in [`UNIFORM_EVERY`] of all messages.
        pub uniform: Vec<Seen>,
        /// The ALIVE-carrying messages into the [`STREAMS`] kept receivers.
        pub streams: Vec<(NodeId, Vec<Seen>)>,
        /// `(pushed at, due at)` of the timers and deliveries of the timed
        /// calls, in nanoseconds of simulator time, in push order.
        pub deadlines: Vec<(u64, u64)>,
    }

    static STORE: Mutex<Option<Store>> = Mutex::new(None);

    thread_local! {
        /// Per-thread offer counter, so most offers never take the lock.
        static TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Offers a message travelling `from → to` at `at`.
    pub fn offer(from: NodeId, to: NodeId, at: SimInstant, msg: &ServiceMessage) {
        let kind = Kind::of(msg);
        let streamed = msg.is_alive() && to.0 % 8 == 7;
        let tick = TICK.with(|t| {
            t.set(t.get() + 1);
            t.get()
        });
        // Most offers never take the lock: only the kept streams, the
        // thread's first offers (which fill the per-kind buckets) and the
        // uniform tick do.
        if !streamed && tick > 65_536 && !tick.is_multiple_of(UNIFORM_EVERY) {
            return;
        }
        let mut guard = STORE.lock().expect("sample store poisoned");
        let store = guard.get_or_insert_with(Store::default);
        let seen = || Seen {
            from,
            at,
            msg: msg.clone(),
        };
        let bucket = store.per_kind.entry(kind).or_default();
        if bucket.len() < PER_KIND {
            bucket.push(seen());
        }
        if tick.is_multiple_of(UNIFORM_EVERY) && store.uniform.len() < UNIFORM_CAP {
            store.uniform.push(seen());
        }
        if streamed {
            let slot = match store.streams.iter().position(|(node, _)| *node == to) {
                Some(slot) => Some(slot),
                None if store.streams.len() < STREAMS => {
                    store.streams.push((to, Vec::new()));
                    Some(store.streams.len() - 1)
                }
                None => None,
            };
            if let Some(slot) = slot {
                if store.streams[slot].1.len() < STREAM_CAP {
                    store.streams[slot].1.push(seen());
                }
            }
        }
    }

    /// Offers one `(pushed at, due at)` pair.
    pub fn offer_deadline(pushed: SimInstant, due: SimInstant) {
        let mut guard = STORE.lock().expect("sample store poisoned");
        let store = guard.get_or_insert_with(Store::default);
        if store.deadlines.len() < DEADLINE_CAP {
            store.deadlines.push((pushed.as_nanos(), due.as_nanos()));
        }
    }

    /// Takes everything set aside so far.
    pub fn take() -> Store {
        STORE
            .lock()
            .expect("sample store poisoned")
            .take()
            .unwrap_or_default()
    }
}

/// Access to the [`ServiceNode`] behind whatever actor type a world hosts.
pub trait Hosted {
    /// The service instance.
    fn service(&self) -> &ServiceNode;
}

impl Hosted for ServiceNode {
    fn service(&self) -> &ServiceNode {
        self
    }
}

/// Times `on_start` / `on_message` / `on_timer`, keyed by message kind (one
/// call in [`ledger::TIME_EVERY`]; the rest are counted). The slot's `extra`
/// sums the effects each call returned.
#[derive(Debug)]
pub struct ActorProbe<A> {
    inner: A,
}

impl<A> ActorProbe<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        ActorProbe { inner }
    }
}

impl Hosted for ActorProbe<ServiceNode> {
    fn service(&self) -> &ServiceNode {
        &self.inner
    }
}

/// Reads the timer deadlines out of the effects a callback appended
/// (positions `before..`) and puts the effects back in order.
fn offer_timer_deadlines(ctx: &mut Context<ServiceMessage, ServiceEvent>, before: usize) {
    let now = ctx.now();
    let effects = ctx.drain_effects();
    for (i, effect) in effects.into_iter().enumerate() {
        match effect {
            Effect::Send { to, msg } => ctx.send(to, msg),
            Effect::SetTimer { tag, at } => {
                if i >= before {
                    samples::offer_deadline(now, at.max(now));
                }
                ctx.set_timer_at(tag, at);
            }
            Effect::CancelTimer { tag } => ctx.cancel_timer(tag),
            Effect::Emit(event) => ctx.emit(event),
        }
    }
}

impl<A> ActorProbe<A>
where
    A: Actor<Msg = ServiceMessage, Event = ServiceEvent>,
{
    /// Runs one callback of the wrapped actor: counted always, and one call
    /// in [`ledger::TIME_EVERY`] timed as the root span of a new trace, its
    /// timer deadlines offered to the wheel replay.
    fn probed(
        &mut self,
        slot: Slot,
        ctx: &mut Context<ServiceMessage, ServiceEvent>,
        call: impl FnOnce(&mut A, &mut Context<ServiceMessage, ServiceEvent>),
    ) {
        let before = ctx.effect_count();
        if !ledger::timing_turn() {
            ledger::count_root(slot);
            call(&mut self.inner, ctx);
            ledger::add_extra(slot, (ctx.effect_count() - before) as u64);
            return;
        }
        ledger::begin_trace();
        let t0 = now_ns();
        call(&mut self.inner, ctx);
        let t1 = now_ns();
        ledger::record_root(slot, t0, t1, (ctx.effect_count() - before) as u64);
        offer_timer_deadlines(ctx, before);
    }
}

impl<A> Actor for ActorProbe<A>
where
    A: Actor<Msg = ServiceMessage, Event = ServiceEvent>,
{
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut Context<ServiceMessage, ServiceEvent>) {
        if !ledger::tracing() {
            return self.inner.on_start(ctx);
        }
        self.probed(Slot::OnStart, ctx, |actor, ctx| actor.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: ServiceMessage,
        ctx: &mut Context<ServiceMessage, ServiceEvent>,
    ) {
        if !ledger::tracing() {
            return self.inner.on_message(from, msg, ctx);
        }
        samples::offer(from, ctx.node(), ctx.now(), &msg);
        let slot = Kind::of(&msg).on_message_slot();
        self.probed(slot, ctx, |actor, ctx| actor.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<ServiceMessage, ServiceEvent>) {
        if !ledger::tracing() {
            return self.inner.on_timer(tag, ctx);
        }
        self.probed(Slot::OnTimer, ctx, |actor, ctx| actor.on_timer(tag, ctx));
    }
}

/// The network counters of whatever medium type a world runs on.
pub trait NetCounters {
    /// Counters accumulated since construction.
    fn net_stats(&self) -> NetworkStats;
}

impl NetCounters for SimulatedNetwork {
    fn net_stats(&self) -> NetworkStats {
        self.stats()
    }
}

/// Times `transmit_fate` (one call in [`ledger::TIME_EVERY`]; the rest are
/// counted). The slot's `extra` counts dropped messages.
#[derive(Debug, Clone)]
pub struct MediumProbe<M> {
    inner: M,
}

impl<M> MediumProbe<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        MediumProbe { inner }
    }
}

impl NetCounters for MediumProbe<SimulatedNetwork> {
    fn net_stats(&self) -> NetworkStats {
        self.inner.stats()
    }
}

impl<M: Medium> Medium for MediumProbe<M> {
    fn transmit(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Verdict {
        self.transmit_fate(now, from, to, wire_bytes, rng).into()
    }

    fn transmit_fate(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Fate {
        if !ledger::tracing() {
            return self.inner.transmit_fate(now, from, to, wire_bytes, rng);
        }
        if !ledger::timing_turn() {
            let fate = self.inner.transmit_fate(now, from, to, wire_bytes, rng);
            ledger::count(Slot::Transmit, u64::from(!fate.is_delivered()));
            return fate;
        }
        let t0 = now_ns();
        let fate = self.inner.transmit_fate(now, from, to, wire_bytes, rng);
        let t1 = now_ns();
        ledger::record(Slot::Transmit, t0, t1, u64::from(!fate.is_delivered()));
        // The timed calls double as the deadline sample.
        if let Some(delay) = fate.first_delay() {
            samples::offer_deadline(now, now + delay);
        }
        fate
    }

    fn min_delay(&self) -> SimDuration {
        self.inner.min_delay()
    }
}

/// Times the observer callbacks into one slot (one call in
/// [`ledger::TIME_EVERY`]; the rest are counted).
#[derive(Debug)]
pub struct ObserverProbe<O> {
    /// The wrapped observer.
    pub inner: O,
}

impl<O> ObserverProbe<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        ObserverProbe { inner }
    }
}

macro_rules! timed_observer_call {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {{
        if !ledger::tracing() {
            return $self.inner.$method($($arg),*);
        }
        if !ledger::timing_turn() {
            ledger::count(Slot::Observer, 0);
            return $self.inner.$method($($arg),*);
        }
        let t0 = now_ns();
        $self.inner.$method($($arg),*);
        let t1 = now_ns();
        ledger::record(Slot::Observer, t0, t1, 0);
    }};
}

impl<E, O: Observer<E>> Observer<E> for ObserverProbe<O> {
    fn message_sent(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        timed_observer_call!(self.message_sent(now, from, to, bytes))
    }

    fn message_dropped(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        timed_observer_call!(self.message_dropped(now, from, to, bytes))
    }

    fn message_delivered(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        timed_observer_call!(self.message_delivered(now, from, to, bytes))
    }

    fn timer_fired(&mut self, now: SimInstant, node: NodeId) {
        timed_observer_call!(self.timer_fired(now, node))
    }

    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        timed_observer_call!(self.node_crashed(now, node))
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, incarnation: u64) {
        timed_observer_call!(self.node_recovered(now, node, incarnation))
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &E) {
        timed_observer_call!(self.event_emitted(now, node, event))
    }
}

/// What a client-side [`EndpointProbe`] shares with the thread that injects
/// the crashes: every reply gap above the stall floor, as
/// `(last applied reply before, first applied reply after)` in [`now_ns`]
/// time.
#[derive(Debug, Default)]
pub struct ClientTimeline {
    /// The gaps, in order.
    pub gaps: Mutex<Vec<(u64, u64)>>,
}

/// The trace identifier of one client request: the same on the hub thread
/// and on the shard worker that serves it.
fn request_trace(session: u64, seq: u64) -> u64 {
    ((session << 32) | (seq & 0xFFFF_FFFF)) + 1
}

/// Client-side bookkeeping of an [`EndpointProbe`]: the send instants of
/// the attempts being timed, by `(session, seq)`, and the time of the last
/// applied reply.
#[derive(Debug)]
struct ClientSide {
    sent: RefCell<HashMap<(u64, u64), u64>>,
    last_applied: Cell<u64>,
    stall_floor_ns: u64,
    timeline: Arc<ClientTimeline>,
}

/// Times `send` and `flush_sends` (one call in [`ledger::TIME_EVERY`], see
/// [`ledger::timing_turn`]; the rest are counted) and offers outgoing messages to the [`samples`]. On a
/// client hub's endpoint ([`EndpointProbe::client`]) it also timestamps
/// attempts and their answers — the round trips by outcome — and every
/// reply gap.
#[derive(Debug)]
pub struct EndpointProbe<E> {
    inner: E,
    client: Option<ClientSide>,
}

impl<E> EndpointProbe<E> {
    /// Wraps a service node's endpoint.
    pub fn new(inner: E) -> Self {
        EndpointProbe {
            inner,
            client: None,
        }
    }

    /// Wraps a client hub's endpoint; reply gaps above `stall_floor` are
    /// pushed to `timeline`.
    pub fn client(inner: E, stall_floor: Duration, timeline: Arc<ClientTimeline>) -> Self {
        EndpointProbe {
            inner,
            client: Some(ClientSide {
                sent: RefCell::new(HashMap::new()),
                last_applied: Cell::new(0),
                stall_floor_ns: stall_floor.as_nanos() as u64,
                timeline,
            }),
        }
    }

    fn saw_answer(&self, incoming: &Incoming<ServiceMessage>) {
        let Some(client) = &self.client else {
            return;
        };
        if !ledger::tracing() {
            return;
        }
        let (key, slot) = match incoming.msg {
            ServiceMessage::ClientReply {
                session,
                seq,
                applied: true,
                ..
            } => ((session, seq), Slot::ClientApplied),
            ServiceMessage::Redirect { session, seq, .. } => ((session, seq), Slot::ClientRedirect),
            _ => return,
        };
        let now = now_ns();
        match client.sent.borrow_mut().remove(&key) {
            Some(sent) => {
                ledger::set_trace(request_trace(key.0, key.1));
                ledger::record_root(slot, sent, now, 0);
            }
            None => ledger::count(slot, 0),
        }
        if slot == Slot::ClientApplied {
            let last = client.last_applied.replace(now);
            if last != 0 && now - last > client.stall_floor_ns {
                client
                    .timeline
                    .gaps
                    .lock()
                    .expect("client timeline poisoned")
                    .push((last, now));
            }
        }
    }
}

// The `Cell`s make the probe `!Sync`; the runtime asks only `Send` of an
// endpoint, which one shard worker (or the hub thread) owns and uses.
impl<E: MessageEndpoint<ServiceMessage>> MessageEndpoint<ServiceMessage> for EndpointProbe<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, to: NodeId, msg: ServiceMessage) -> Result<(), TransportError> {
        if !ledger::tracing() {
            return self.inner.send(to, msg);
        }
        samples::offer(self.inner.node(), to, sent_at(&msg), &msg);
        if !ledger::timing_turn() {
            ledger::count_root(Slot::EndpointSend);
            return self.inner.send(to, msg);
        }
        match msg {
            ServiceMessage::ClientRequest { session, seq, .. } => {
                if let Some(client) = &self.client {
                    // A retry overwrites: the round trip is that of the
                    // attempt that was answered.
                    client.sent.borrow_mut().insert((session, seq), now_ns());
                }
                ledger::set_trace(request_trace(session, seq));
            }
            ServiceMessage::ClientReply { session, seq, .. }
            | ServiceMessage::Redirect { session, seq, .. } => {
                ledger::set_trace(request_trace(session, seq));
            }
            _ => {
                ledger::begin_trace();
            }
        }
        let t0 = now_ns();
        let result = self.inner.send(to, msg);
        let t1 = now_ns();
        ledger::record_root(Slot::EndpointSend, t0, t1, 0);
        result
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<ServiceMessage>> {
        let incoming = self.inner.recv_timeout(timeout);
        if let Some(incoming) = &incoming {
            self.saw_answer(incoming);
        }
        incoming
    }

    fn try_recv(&self) -> Option<Incoming<ServiceMessage>> {
        let incoming = self.inner.try_recv();
        if let Some(incoming) = &incoming {
            self.saw_answer(incoming);
        }
        incoming
    }

    fn set_delivery_sink(&self, sink: ShardDelivery<ServiceMessage>) -> bool {
        self.inner.set_delivery_sink(sink)
    }

    fn flush_sends(&self) {
        if !ledger::tracing() {
            return self.inner.flush_sends();
        }
        if !ledger::timing_turn() {
            ledger::count(Slot::EndpointFlush, 0);
            return self.inner.flush_sends();
        }
        let t0 = now_ns();
        self.inner.flush_sends();
        let t1 = now_ns();
        ledger::record(Slot::EndpointFlush, t0, t1, 0);
    }
}

/// The sender-clock timestamp a message carries, or zero.
fn sent_at(msg: &ServiceMessage) -> SimInstant {
    match msg {
        ServiceMessage::Hello { sent_at, .. } | ServiceMessage::AliveBatch { sent_at, .. } => {
            *sent_at
        }
        ServiceMessage::Alive { header, .. } => header.sent_at,
        _ => SimInstant::ZERO,
    }
}

/// Times `apply` (one call in [`ledger::TIME_EVERY`]; the rest are
/// counted). The slot's `extra` counts rejected (stale-token) writes.
#[derive(Debug)]
pub struct AppProbe<A> {
    inner: A,
}

impl<A> AppProbe<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        AppProbe { inner }
    }
}

impl<A: FencedApp> FencedApp for AppProbe<A> {
    fn apply(
        &mut self,
        group: GroupId,
        token: FencingToken,
        payload: u64,
    ) -> Result<u64, StaleToken> {
        if !ledger::tracing() {
            return self.inner.apply(group, token, payload);
        }
        if !ledger::timing_turn() {
            ledger::count_root(Slot::AppApply);
            let result = self.inner.apply(group, token, payload);
            ledger::add_extra(Slot::AppApply, u64::from(result.is_err()));
            return result;
        }
        // The request's identity is not part of the `FencedApp` seam: an
        // apply is a trace of its own.
        ledger::begin_trace();
        let t0 = now_ns();
        let result = self.inner.apply(group, token, payload);
        let t1 = now_ns();
        ledger::record_root(Slot::AppApply, t0, t1, u64::from(result.is_err()));
        result
    }

    fn observe_token(&mut self, group: GroupId, token: FencingToken) {
        self.inner.observe_token(group, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_app::FencedCounter;
    use sle_net::transport::InMemoryMesh;

    fn token(ms: u64) -> FencingToken {
        FencingToken {
            accusation_time: SimInstant::ZERO + SimDuration::from_millis(ms),
            node: NodeId(1),
            epoch: 0,
            incarnation: 0,
        }
    }

    /// `EndpointProbe` and `AppProbe` forward every call and result
    /// unchanged, tracing on or off. (The simulator probes' transparency is
    /// tested on a whole run in `workloads::sim`.)
    #[test]
    fn endpoint_and_app_probes_forward_everything() {
        let _serial = ledger::TRACING_TEST_LOCK.lock();
        for tracing in [false, true] {
            ledger::set_tracing(tracing);
            let mut mesh: InMemoryMesh<ServiceMessage> = InMemoryMesh::new(2);
            let a = EndpointProbe::new(mesh.endpoint(NodeId(0)).expect("endpoint"));
            let timeline = Arc::new(ClientTimeline::default());
            let b = EndpointProbe::client(
                mesh.endpoint(NodeId(1)).expect("endpoint"),
                Duration::from_millis(50),
                Arc::clone(&timeline),
            );
            assert_eq!(a.node(), NodeId(0));
            assert_eq!(b.node(), NodeId(1));
            let request = ServiceMessage::ClientRequest {
                group: GroupId(1),
                session: 3,
                seq: 4,
                payload: 1,
            };
            assert_eq!(b.send(NodeId(0), request.clone()), Ok(()));
            assert_eq!(
                b.send(NodeId(9), request.clone()),
                Err(TransportError::UnknownDestination(NodeId(9)))
            );
            b.flush_sends();
            let got = a.recv_timeout(Duration::from_secs(1)).expect("delivered");
            assert_eq!((got.from, &got.msg), (NodeId(1), &request));
            assert!(a.try_recv().is_none());
            let reply = ServiceMessage::ClientReply {
                group: GroupId(1),
                session: 3,
                seq: 4,
                applied: true,
                value: 1,
                token: token(0),
            };
            assert_eq!(a.send(NodeId(1), reply.clone()), Ok(()));
            assert_eq!(b.try_recv().map(|i| i.msg), Some(reply));

            let mut bare = FencedCounter::new();
            let mut probed = AppProbe::new(FencedCounter::new());
            for (t, payload) in [(5, 2), (7, 3), (6, 9), (7, 1)] {
                assert_eq!(
                    probed.apply(GroupId(1), token(t), payload),
                    bare.apply(GroupId(1), token(t), payload)
                );
            }
            bare.observe_token(GroupId(1), token(9));
            probed.observe_token(GroupId(1), token(9));
            assert_eq!(
                probed.apply(GroupId(1), token(8), 1),
                bare.apply(GroupId(1), token(8), 1)
            );
        }
        ledger::set_tracing(false);
    }
}
