//! The discrete-event simulation engine.
//!
//! A [`World`] owns a set of nodes (each running one [`Actor`], here the
//! leader-election `ServiceNode`), a [`Medium`] deciding the fate of every
//! message, a virtual clock and one deterministic RNG stream per node. Node
//! crashes and recoveries — the "module that simulates the crashes and
//! recoveries of workstations" of the paper's Section 6.1 — are injected by
//! scheduling [`World::schedule_crash`] / [`World::schedule_recovery`]
//! events, exactly like the authors killed and restarted service instances.
//!
//! `World` is the one-shard case of the sharded simulation core that
//! [`ParWorld`](crate::par::ParWorld) drives on several threads: same event
//! handlers, same canonical same-instant order (by originating node, then by
//! that node's own event counter), same per-node RNG streams. A `World` and a
//! `ParWorld` of any worker count built from the same actors, medium,
//! schedule and seed therefore produce identical executions — and so do two
//! worlds.

use crate::actor::{Actor, Context, NodeId};
use crate::medium::Medium;
use crate::observer::Observer;
use crate::shard::{EventKind, Shard};
use crate::time::{SimDuration, SimInstant};

/// Builds (or rebuilds, after a recovery) the actor for a node.
///
/// The second argument is the incarnation number: 0 for the initial start and
/// incremented by one on every recovery, so protocol code can distinguish
/// state from previous lives of the same workstation.
pub type ActorFactory<A> = Box<dyn FnMut(NodeId, u64) -> A>;

/// The discrete-event simulator driving a set of actors.
pub struct World<A: Actor, M: Medium> {
    shard: Shard<A, M>,
    factory: ActorFactory<A>,
}

impl<A: Actor, M: Medium> World<A, M> {
    /// Creates a world with `num_nodes` nodes, all initially up.
    ///
    /// Every node's actor is built by `factory` and receives its `on_start`
    /// callback at time zero (in node-id order). Events of one instant run
    /// in order of originating node, so over a zero-delay medium a node can
    /// be handed a message that a lower-numbered node sent from its
    /// `on_start` before its own `on_start` has run.
    pub fn new(num_nodes: usize, mut factory: ActorFactory<A>, medium: M, seed: u64) -> Self {
        let shard = Shard::build(num_nodes, vec![medium], &mut *factory, seed)
            .pop()
            .expect("one medium makes one shard");
        World { shard, factory }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.shard.now
    }

    /// Number of nodes in the world.
    pub fn num_nodes(&self) -> usize {
        self.shard.total_nodes
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.shard.events_processed
    }

    /// Returns whether `node` is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.shard.is_up(node)
    }

    /// Returns the current incarnation of `node`.
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.shard.incarnation(node)
    }

    /// Immutable access to the actor of `node`, if the node is up.
    pub fn actor(&self, node: NodeId) -> Option<&A> {
        self.shard.actor(node)
    }

    /// Mutable access to the actor of `node`, if the node is up.
    ///
    /// Intended for test instrumentation and the experiment harness (e.g.
    /// issuing join/leave commands); protocol interactions should go through
    /// messages and timers.
    pub fn actor_mut(&mut self, node: NodeId) -> Option<&mut A> {
        self.shard.actor_mut(node)
    }

    /// Access to the medium (e.g. to reconfigure link parameters mid-run).
    pub fn medium_mut(&mut self) -> &mut M {
        &mut self.shard.medium
    }

    /// Schedules a crash of `node` at absolute time `at`.
    ///
    /// Crashing an already-crashed node is a no-op at processing time.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimInstant) {
        self.shard.schedule(node, at, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at absolute time `at`.
    ///
    /// Recovering an already-up node is a no-op at processing time.
    pub fn schedule_recovery(&mut self, node: NodeId, at: SimInstant) {
        self.shard.schedule(node, at, EventKind::Recover { node });
    }

    /// Runs the simulation until virtual time `deadline`, reporting everything
    /// to `observer`. Events scheduled exactly at `deadline` are processed.
    pub fn run_until<O: Observer<A::Event>>(&mut self, deadline: SimInstant, observer: &mut O) {
        while let Some(next_at) = self.shard.wheel.peek_time() {
            if next_at > deadline {
                break;
            }
            self.step(observer);
        }
        if self.shard.now < deadline {
            self.shard.now = deadline;
        }
    }

    /// Runs the simulation for `span` of virtual time from the current clock.
    pub fn run_for<O: Observer<A::Event>>(&mut self, span: SimDuration, observer: &mut O) {
        let deadline = self.now() + span;
        self.run_until(deadline, observer);
    }

    /// Processes a single event. Returns `false` if the queue is empty.
    pub fn step<O: Observer<A::Event>>(&mut self, observer: &mut O) -> bool {
        // One shard: every delivery is local, so there is no outbox.
        self.shard.step(&mut *self.factory, observer, &mut [])
    }

    /// Applies a closure to a live actor through the same effect-processing
    /// path as message and timer callbacks. This is how the harness issues
    /// API commands (register, join group, leave group) to service nodes.
    pub fn with_actor<O, F>(&mut self, node: NodeId, observer: &mut O, f: F)
    where
        O: Observer<A::Event>,
        F: FnOnce(&mut A, &mut Context<A::Msg, A::Event>),
    {
        self.shard.with_actor(node, observer, &mut [], f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{Fate, Verdict};
    use crate::observer::{CountingObserver, NullObserver};
    use crate::rng::SimRng;
    use crate::testkit::{FixedDelay, PingActor, TestMsg};

    fn make_world(n: u32) -> World<PingActor, FixedDelay> {
        let medium = FixedDelay(SimDuration::ZERO);
        World::new(n as usize, Box::new(PingActor::ring(n)), medium, 42)
    }

    #[test]
    fn actors_exchange_messages_over_virtual_time() {
        let mut world = make_world(3);
        let mut obs = CountingObserver::new();
        world.run_for(SimDuration::from_secs(1), &mut obs);
        // Each of 3 actors pings 10 times in 1s => 30 pings + 30 pongs sent.
        assert_eq!(obs.sent, 60);
        assert_eq!(obs.delivered, 60);
        assert_eq!(obs.dropped, 0);
        assert_eq!(obs.events, 30);
        let a = world.actor(NodeId(0)).unwrap();
        assert_eq!(a.pings_sent, 10);
        assert_eq!(a.pongs_received, 10);
        assert_eq!(world.now(), SimInstant::from_secs_f64(1.0));
    }

    #[test]
    fn crash_discards_state_and_recovery_restarts_fresh() {
        let mut world = make_world(2);
        let mut obs = CountingObserver::new();
        world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(0.45));
        world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.75));
        world.run_for(SimDuration::from_secs(1), &mut obs);

        assert_eq!(obs.crashes, 1);
        assert_eq!(obs.recoveries, 1);
        assert!(world.is_up(NodeId(1)));
        assert_eq!(world.incarnation(NodeId(1)), 1);
        let n1 = world.actor(NodeId(1)).unwrap();
        // Fresh actor after recovery at 0.75s: pings at 0.85 and 0.95 only.
        assert_eq!(n1.pings_sent, 2);
        assert_eq!(n1.incarnation, 1);
        // Node 0 keeps running the whole second.
        assert_eq!(world.actor(NodeId(0)).unwrap().pings_sent, 10);
        // Messages sent to node 1 while it was down were dropped.
        assert!(obs.dropped > 0);
    }

    #[test]
    fn crash_of_crashed_node_and_recovery_of_up_node_are_noops() {
        let mut world = make_world(2);
        let mut obs = CountingObserver::new();
        world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.2));
        world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.3));
        world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.2));
        world.run_for(SimDuration::from_millis(500), &mut obs);
        assert_eq!(obs.crashes, 1);
        assert_eq!(obs.recoveries, 0);
        assert!(!world.is_up(NodeId(0)));
        assert!(world.actor(NodeId(0)).is_none());
    }

    #[test]
    fn timers_do_not_survive_crash() {
        let mut world = make_world(1);
        let mut obs = CountingObserver::new();
        // Crash just before the first tick at 100ms; timer must not fire.
        world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.05));
        world.run_for(SimDuration::from_secs(1), &mut obs);
        assert_eq!(obs.timers, 0);
        assert_eq!(obs.sent, 0);
    }

    #[test]
    fn fixed_delay_medium_delays_delivery() {
        let n = 2u32;
        let mut world: World<PingActor, FixedDelay> = World::new(
            2,
            Box::new(PingActor::ring(n)),
            FixedDelay(SimDuration::from_millis(40)),
            7,
        );
        let mut obs = CountingObserver::new();
        // Ping sent at 100ms arrives at 140ms, pong back at 180ms.
        world.run_until(SimInstant::from_secs_f64(0.139), &mut obs);
        assert_eq!(obs.delivered, 0);
        world.run_until(SimInstant::from_secs_f64(0.141), &mut obs);
        assert_eq!(obs.delivered, 2); // both directions' pings delivered at 140ms
    }

    #[test]
    fn with_actor_runs_through_effect_pipeline() {
        let mut world = make_world(2);
        let mut obs = CountingObserver::new();
        world.run_for(SimDuration::from_millis(10), &mut obs);
        world.with_actor(NodeId(0), &mut obs, |_actor, ctx| {
            ctx.send(NodeId(1), TestMsg::Ping(99));
        });
        assert_eq!(obs.sent, 1);
        world.run_for(SimDuration::from_millis(1), &mut obs);
        // The ping is delivered and node 1 immediately replies with a pong,
        // which is also delivered (zero-delay medium).
        assert_eq!(obs.sent, 2);
        assert_eq!(obs.delivered, 2);
    }

    #[test]
    fn determinism_same_seed_same_counts() {
        let run = |seed: u64| {
            let n = 4u32;
            let medium = FixedDelay(SimDuration::ZERO);
            let mut world = World::new(4, Box::new(PingActor::ring(n)), medium, seed);
            let mut obs = CountingObserver::new();
            world.schedule_crash(NodeId(2), SimInstant::from_secs_f64(1.5));
            world.schedule_recovery(NodeId(2), SimInstant::from_secs_f64(2.5));
            world.run_for(SimDuration::from_secs(5), &mut obs);
            (obs, world.events_processed())
        };
        let (a, ea) = run(11);
        let (b, eb) = run(11);
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut world = make_world(0);
        let mut obs = NullObserver;
        world.run_until(SimInstant::from_secs_f64(3.0), &mut obs);
        assert_eq!(world.now(), SimInstant::from_secs_f64(3.0));
        assert_eq!(world.num_nodes(), 0);
    }

    /// A medium that duplicates every message with a 1 ms gap between the
    /// two copies.
    struct DuplicatingMedium;

    impl Medium for DuplicatingMedium {
        fn transmit(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Verdict {
            Verdict::immediate()
        }

        fn transmit_fate(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Fate {
            Fate::DeliverTwice {
                first: SimDuration::ZERO,
                second: SimDuration::from_millis(1),
            }
        }
    }

    #[test]
    fn duplicating_medium_delivers_every_message_twice() {
        let n = 1u32;
        let mut world: World<PingActor, DuplicatingMedium> =
            World::new(1, Box::new(PingActor::ring(n)), DuplicatingMedium, 5);
        let mut obs = CountingObserver::new();
        // One node pinging itself: each ping is duplicated, and each of the
        // two delivered pings triggers a pong, which is duplicated again.
        world.run_until(SimInstant::from_secs_f64(0.105), &mut obs);
        // 1 ping sent, delivered twice; 2 pongs sent, delivered 4 times.
        assert_eq!(obs.sent, 3);
        assert_eq!(obs.delivered, 6);
        assert_eq!(world.actor(NodeId(0)).unwrap().pongs_received, 4);
    }

    #[test]
    fn send_to_unknown_node_is_dropped() {
        let mut world = make_world(1);
        let mut obs = CountingObserver::new();
        world.with_actor(NodeId(0), &mut obs, |_a, ctx| {
            ctx.send(NodeId(57), TestMsg::Ping(1));
        });
        assert_eq!(obs.sent, 1);
        assert_eq!(obs.dropped, 1);
    }
}
