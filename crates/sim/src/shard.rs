//! The shard core: the one place a simulation event is executed.
//!
//! A [`Shard`] owns a round-robin slice of the nodes of a simulation
//! (global node `g` lives in shard `g % stride` at local slot `g / stride`),
//! one RNG stream and one event counter per resident node, an
//! [`EventWheel`] holding the events *for* its residents, and one medium.
//! [`World`](crate::world::World) drives exactly one shard (stride 1);
//! [`ParWorld`](crate::par::ParWorld) drives `W` of them in lookahead epochs.
//! Both replay the same execution because everything that orders or
//! randomises events is a function of the node, never of the sharding:
//!
//! * every event carries the canonical key `(origin_node << 32) |
//!   per_node_seq`, so ties at equal virtual time resolve by origin node,
//!   then by the origin's own event counter;
//! * message fates are drawn on the *sender's* shard from the sender's RNG
//!   stream, seeded from `(world_seed, node_id)`.

use crate::actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
use crate::medium::{Fate, Medium};
use crate::observer::Observer;
use crate::rng::{substream_seed, SimRng};
use crate::time::SimInstant;
use crate::wheel::{EventWheel, TimerTable};

/// What the wheels hold.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    Start {
        node: NodeId,
    },
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: usize,
    },
    Timer {
        node: NodeId,
        tag: TimerTag,
        generation: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

/// An event en route to another shard: `(arrival, canonical key, payload)`.
pub(crate) type OutEvent<M> = (SimInstant, u64, EventKind<M>);

struct NodeSlot<A> {
    actor: Option<A>,
    up: bool,
    incarnation: u64,
    /// The armed timers; a timer event fires only if its generation is
    /// still its tag's. A crash clears the table, so no timer armed before
    /// it fires after it.
    timers: TimerTable,
    /// This node's deterministic RNG stream.
    rng: SimRng,
    /// This node's canonical event sequence counter.
    seq: u32,
}

/// One shard: a slice of nodes, their wheel, and a medium.
pub(crate) struct Shard<A: Actor, M> {
    /// This shard's index; owns every node with `id % stride == index`.
    pub(crate) index: usize,
    /// Number of shards (the round-robin stride).
    stride: u32,
    /// Total node count of the world, over all shards.
    pub(crate) total_nodes: usize,
    nodes: Vec<NodeSlot<A>>,
    pub(crate) wheel: EventWheel<EventKind<A::Msg>>,
    pub(crate) medium: M,
    pub(crate) now: SimInstant,
    pub(crate) events_processed: u64,
    pub(crate) intra_sends: u64,
    pub(crate) cross_sends: u64,
}

impl<A: Actor, M: Medium> Shard<A, M> {
    /// Builds one shard per medium in `media` and spreads `num_nodes` nodes
    /// over them round-robin. `factory` is invoked in global node-id order,
    /// and every node's `on_start` is queued at time zero.
    pub(crate) fn build(
        num_nodes: usize,
        media: Vec<M>,
        factory: &mut dyn FnMut(NodeId, u64) -> A,
        seed: u64,
    ) -> Vec<Self> {
        let stride = media.len();
        let mut shards: Vec<Self> = media
            .into_iter()
            .enumerate()
            .map(|(index, medium)| Shard {
                index,
                stride: u32::try_from(stride).expect("more shards than node ids"),
                total_nodes: num_nodes,
                nodes: Vec::with_capacity(num_nodes.div_ceil(stride)),
                wheel: EventWheel::new(),
                medium,
                now: SimInstant::ZERO,
                events_processed: 0,
                intra_sends: 0,
                cross_sends: 0,
            })
            .collect();
        for g in 0..num_nodes {
            let node = NodeId(g as u32);
            shards[g % stride].nodes.push(NodeSlot {
                actor: Some(factory(node, 0)),
                up: true,
                incarnation: 0,
                timers: TimerTable::new(),
                // Seeded from the world seed and the id alone, so a node's
                // stream does not depend on how the nodes are sharded.
                rng: SimRng::seed_from(substream_seed(seed, g as u64)),
                seq: 0,
            });
        }
        for g in 0..num_nodes {
            let node = NodeId(g as u32);
            shards[g % stride].schedule(node, SimInstant::ZERO, EventKind::Start { node });
        }
        shards
    }

    /// The shard `node` lives on. In `u32`, like the ids: the event loop
    /// divides by the stride about twice per event, and the hardware divides
    /// 32-bit operands markedly faster than 64-bit ones.
    #[inline]
    fn home(&self, node: NodeId) -> usize {
        (node.0 % self.stride) as usize
    }

    /// The local slot of resident `node`.
    #[inline]
    fn local(&self, node: NodeId) -> usize {
        debug_assert_eq!(self.home(node), self.index);
        (node.0 / self.stride) as usize
    }

    /// Allocates the next canonical key of the node at local slot `l`.
    fn alloc_key(&mut self, origin: NodeId, l: usize) -> u64 {
        let slot = &mut self.nodes[l];
        let seq = slot.seq;
        slot.seq = seq.wrapping_add(1);
        (u64::from(origin.0) << 32) | u64::from(seq)
    }

    /// Queues `kind` for resident `node` at `at` under `node`'s next key.
    pub(crate) fn schedule(&mut self, node: NodeId, at: SimInstant, kind: EventKind<A::Msg>) {
        let l = self.local(node);
        let key = self.alloc_key(node, l);
        self.wheel.push(at, key, kind);
    }

    pub(crate) fn is_up(&self, node: NodeId) -> bool {
        self.nodes[self.local(node)].up
    }

    pub(crate) fn incarnation(&self, node: NodeId) -> u64 {
        self.nodes[self.local(node)].incarnation
    }

    pub(crate) fn actor(&self, node: NodeId) -> Option<&A> {
        let slot = &self.nodes[self.local(node)];
        if slot.up {
            slot.actor.as_ref()
        } else {
            None
        }
    }

    pub(crate) fn actor_mut(&mut self, node: NodeId) -> Option<&mut A> {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if slot.up {
            slot.actor.as_mut()
        } else {
            None
        }
    }

    /// Pops and executes this shard's earliest event, buffering deliveries
    /// to other shards in `out` (indexed by destination shard; never touched
    /// when the stride is 1). Returns `false` if the wheel is empty.
    pub(crate) fn step<O: Observer<A::Event>>(
        &mut self,
        factory: &mut dyn FnMut(NodeId, u64) -> A,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) -> bool {
        let Some((at, _key, kind)) = self.wheel.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must not go backwards");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Start { node } => self.handle_start(node, observer, out),
            EventKind::Deliver {
                from,
                to,
                msg,
                bytes,
            } => self.handle_deliver(from, to, msg, bytes, observer, out),
            EventKind::Timer {
                node,
                tag,
                generation,
            } => self.handle_timer(node, tag, generation, observer, out),
            EventKind::Crash { node } => self.handle_crash(node, observer),
            EventKind::Recover { node } => self.handle_recover(node, factory, observer, out),
        }
        true
    }

    /// Runs `f` on the actor of `node` if it is up and applies the effects it
    /// requested, exactly like a message or timer callback.
    pub(crate) fn with_actor<O, F>(
        &mut self,
        node: NodeId,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
        f: F,
    ) where
        O: Observer<A::Event>,
        F: FnOnce(&mut A, &mut Context<A::Msg, A::Event>),
    {
        let l = self.local(node);
        if self.nodes[l].up {
            self.call(node, l, observer, out, f);
        }
    }

    /// One actor callback of up node `node` (at local slot `l`) plus the
    /// effects it requested.
    fn call<O, F>(
        &mut self,
        node: NodeId,
        l: usize,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
        f: F,
    ) where
        O: Observer<A::Event>,
        F: FnOnce(&mut A, &mut Context<A::Msg, A::Event>),
    {
        let slot = &mut self.nodes[l];
        let mut ctx = Context::new(self.now, node, slot.incarnation);
        if let Some(actor) = slot.actor.as_mut() {
            f(actor, &mut ctx);
        }
        self.apply_effects(node, l, ctx.into_effects(), observer, out);
    }

    fn handle_start<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        self.with_actor(node, observer, out, |actor, ctx| actor.on_start(ctx));
    }

    fn handle_deliver<O: Observer<A::Event>>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: A::Msg,
        bytes: usize,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(to);
        if !self.nodes[l].up {
            observer.message_dropped(self.now, from, to, bytes);
            return;
        }
        observer.message_delivered(self.now, from, to, bytes);
        self.call(to, l, observer, out, |actor, ctx| {
            actor.on_message(from, msg, ctx)
        });
    }

    fn handle_timer<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        tag: TimerTag,
        generation: u64,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(node);
        if !self.nodes[l].timers.fire(tag, generation) {
            return; // re-armed, cancelled or crashed since it was queued
        }
        observer.timer_fired(self.now, node);
        self.call(node, l, observer, out, |actor, ctx| {
            actor.on_timer(tag, ctx)
        });
    }

    fn handle_crash<O: Observer<A::Event>>(&mut self, node: NodeId, observer: &mut O) {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if !slot.up {
            return;
        }
        slot.up = false;
        slot.actor = None;
        slot.timers.clear();
        observer.node_crashed(self.now, node);
    }

    fn handle_recover<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        factory: &mut dyn FnMut(NodeId, u64) -> A,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if slot.up {
            return;
        }
        slot.up = true;
        slot.incarnation += 1;
        let incarnation = slot.incarnation;
        slot.actor = Some(factory(node, incarnation));
        observer.node_recovered(self.now, node, incarnation);
        self.handle_start(node, observer, out);
    }

    /// Applies the effects requested by `node` (resident at local slot `l`).
    fn apply_effects<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        l: usize,
        effects: Vec<Effect<A::Msg, A::Event>>,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    observer.message_sent(self.now, node, to, bytes);
                    if to.index() >= self.total_nodes {
                        // Destination unknown to this world: treated as lost.
                        observer.message_dropped(self.now, node, to, bytes);
                        continue;
                    }
                    let rng = &mut self.nodes[l].rng;
                    match self.medium.transmit_fate(self.now, node, to, bytes, rng) {
                        Fate::Dropped => observer.message_dropped(self.now, node, to, bytes),
                        Fate::Deliver { delay } => {
                            self.route(node, l, to, msg, bytes, self.now + delay, out);
                        }
                        Fate::DeliverTwice { first, second } => {
                            self.route(node, l, to, msg.clone(), bytes, self.now + first, out);
                            self.route(node, l, to, msg, bytes, self.now + second, out);
                        }
                    }
                }
                Effect::SetTimer { tag, at } => {
                    let generation = self.nodes[l].timers.arm(tag);
                    let key = self.alloc_key(node, l);
                    let kind = EventKind::Timer {
                        node,
                        tag,
                        generation,
                    };
                    self.wheel.push(at.max(self.now), key, kind);
                }
                Effect::CancelTimer { tag } => self.nodes[l].timers.cancel(tag),
                Effect::Emit(event) => {
                    observer.event_emitted(self.now, node, &event);
                }
            }
        }
    }

    /// Routes one delivery: into the local wheel if the destination lives on
    /// this shard, into the cross-shard outbox otherwise.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &mut self,
        from: NodeId,
        from_local: usize,
        to: NodeId,
        msg: A::Msg,
        bytes: usize,
        at: SimInstant,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let key = self.alloc_key(from, from_local);
        let kind = EventKind::Deliver {
            from,
            to,
            msg,
            bytes,
        };
        let dest = self.home(to);
        if dest == self.index {
            self.intra_sends += 1;
            self.wheel.push(at, key, kind);
        } else {
            self.cross_sends += 1;
            out[dest].push((at, key, kind));
        }
    }
}
