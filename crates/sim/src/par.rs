//! Sharded parallel discrete-event simulation with conservative lookahead.
//!
//! [`ParWorld`] spreads the nodes of a simulation over `W` shards of the same
//! core [`World`](crate::world::World) runs one of (round-robin by node id:
//! global node `g` lives in shard `g % W` at local slot `g / W`). Each shard
//! owns its slice of node state, its own event wheel, a clone of the medium
//! and one RNG stream per node. Workers advance through *barrier-delimited
//! epochs* whose width is the medium's
//! [`min_delay`](crate::medium::Medium::min_delay) — the *lookahead* `L` of
//! a conservative parallel simulation. Within the half-open window
//! `[T, T + L)` no shard can receive a message sent inside the same window
//! (every delivery takes at least `L`), so shards process their local
//! events independently and exchange the buffered cross-shard sends at the
//! epoch barrier. No null messages are needed: the barrier itself bounds
//! the skew.
//!
//! # Determinism
//!
//! Same-instant ties resolve by a canonical per-origin event key and every
//! message fate is drawn from its sender's own RNG stream, so the sharding
//! never shows in the execution: a given `(seed, workload)` produces
//! identical observer callbacks per node, event counts and final actor
//! states for **any** `workers` value, and the same as the one-shard
//! [`World`](crate::world::World).
//!
//! # Zero lookahead
//!
//! When the medium cannot promise a positive minimum delay
//! (`min_delay() == 0`, e.g. `sle-net`'s `SimulatedNetwork` over
//! `LinkSpec::perfect()`),
//! the epoch width collapses and `ParWorld` falls back to a sequential
//! merged loop that pops the globally minimal `(time, key)` event across
//! all shards — the exact canonical order the epochs would have produced,
//! just without parallel speedup.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::actor::{Actor, Context, NodeId};
use crate::medium::Medium;
use crate::observer::Observer;
use crate::shard::{EventKind, OutEvent, Shard};
use crate::time::{SimDuration, SimInstant};

/// Builds (or rebuilds, after a recovery) the actor for a node.
///
/// The parallel driver's counterpart of
/// [`ActorFactory`](crate::world::ActorFactory): recoveries execute on sim
/// worker threads, so the factory must be callable from any of them.
pub type SharedActorFactory<A> = Box<dyn Fn(NodeId, u64) -> A + Send + Sync>;

/// The sharded parallel counterpart of [`World`](crate::world::World).
///
/// See the [module documentation](self) for the execution model. The public
/// API mirrors `World`, with two deliberate differences:
///
/// * the factory is a [`SharedActorFactory`] (recoveries run on worker
///   threads),
/// * [`ParWorld::run_until`] takes one observer **per worker**; the caller
///   merges them afterwards (counters sum, traces merge-sort by time).
pub struct ParWorld<A: Actor, M: Medium> {
    /// Never empty; between runs every shard's clock reads the same instant.
    shards: Vec<Shard<A, M>>,
    factory: SharedActorFactory<A>,
}

impl<A: Actor, M: Medium> ParWorld<A, M> {
    /// Creates a world with `num_nodes` nodes sharded across `workers` sim
    /// workers (clamped to the node count), all initially up.
    ///
    /// Each shard receives an independent clone of `medium`; the factory is
    /// invoked in global node-id order, exactly like the sequential world.
    pub fn new(
        num_nodes: usize,
        workers: usize,
        factory: SharedActorFactory<A>,
        medium: M,
        seed: u64,
    ) -> Self
    where
        M: Clone,
    {
        assert!(workers >= 1, "at least one sim worker is required");
        let workers = workers.min(num_nodes.max(1));
        let shards = Shard::build(
            num_nodes,
            vec![medium; workers],
            &mut |node, incarnation| factory(node, incarnation),
            seed,
        );
        ParWorld { shards, factory }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.shards[0].now
    }

    /// Number of nodes in the world.
    pub fn num_nodes(&self) -> usize {
        self.shards[0].total_nodes
    }

    /// Number of sim workers (shards) driving this world.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Total number of events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// `(intra_shard, cross_shard)` delivery routing counts so far: how much
    /// traffic stayed shard-local versus crossed an epoch boundary.
    pub fn routing_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .fold((0, 0), |(i, c), s| (i + s.intra_sends, c + s.cross_sends))
    }

    /// The lookahead currently in force: the minimum over all shard media of
    /// [`Medium::min_delay`]. Zero means the next run falls back to
    /// sequential canonical-order execution.
    pub fn lookahead(&self) -> SimDuration {
        self.shards
            .iter()
            .map(|s| s.medium.min_delay())
            .fold(SimDuration::MAX, SimDuration::min)
    }

    /// The shard `node` lives on.
    fn home(&self, node: NodeId) -> &Shard<A, M> {
        &self.shards[node.index() % self.shards.len()]
    }

    fn home_mut(&mut self, node: NodeId) -> &mut Shard<A, M> {
        let workers = self.shards.len();
        &mut self.shards[node.index() % workers]
    }

    /// Returns whether `node` is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.home(node).is_up(node)
    }

    /// Returns the current incarnation of `node`.
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.home(node).incarnation(node)
    }

    /// Immutable access to the actor of `node`, if the node is up.
    pub fn actor(&self, node: NodeId) -> Option<&A> {
        self.home(node).actor(node)
    }

    /// Mutable access to the actor of `node`, if the node is up.
    pub fn actor_mut(&mut self, node: NodeId) -> Option<&mut A> {
        self.home_mut(node).actor_mut(node)
    }

    /// Applies `f` to every shard's medium clone, in shard order.
    ///
    /// Mid-run topology mutations (partitions, link overlays) must reach
    /// every clone to stay consistent; this is the parallel counterpart of
    /// [`World::medium_mut`](crate::world::World::medium_mut).
    pub fn for_each_medium(&mut self, mut f: impl FnMut(&mut M)) {
        for shard in &mut self.shards {
            f(&mut shard.medium);
        }
    }

    /// Iterates the per-shard medium clones, in shard order (e.g. to sum
    /// per-shard traffic statistics).
    pub fn media(&self) -> impl Iterator<Item = &M> + '_ {
        self.shards.iter().map(|s| &s.medium)
    }

    /// Schedules a crash of `node` at absolute time `at`.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimInstant) {
        self.home_mut(node)
            .schedule(node, at, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at absolute time `at`.
    pub fn schedule_recovery(&mut self, node: NodeId, at: SimInstant) {
        self.home_mut(node)
            .schedule(node, at, EventKind::Recover { node });
    }

    /// Applies a closure to a live actor through the same effect-processing
    /// path as message and timer callbacks (harness API commands).
    pub fn with_actor<O, F>(&mut self, node: NodeId, observer: &mut O, f: F)
    where
        O: Observer<A::Event>,
        F: FnOnce(&mut A, &mut Context<A::Msg, A::Event>),
    {
        let mut out = self.outboxes();
        self.home_mut(node).with_actor(node, observer, &mut out, f);
        flush_out(&mut self.shards, &mut out);
    }

    /// One empty cross-shard outbox per destination shard.
    fn outboxes(&self) -> Vec<Vec<OutEvent<A::Msg>>> {
        self.shards.iter().map(|_| Vec::new()).collect()
    }

    /// Runs the simulation until virtual time `deadline`, reporting shard
    /// `w`'s activity to `observers[w]`. Events scheduled exactly at
    /// `deadline` are processed, as in the sequential world.
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len() == self.workers()`.
    pub fn run_until<O>(&mut self, deadline: SimInstant, observers: &mut [O])
    where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        assert_eq!(
            observers.len(),
            self.workers(),
            "one observer per sim worker is required"
        );
        let lookahead = self.lookahead();
        if self.workers() == 1 || lookahead.is_zero() {
            self.run_until_sequential(deadline, observers);
        } else {
            self.run_until_epochs(deadline, lookahead, observers);
        }
        let now = self.now().max(deadline);
        for shard in &mut self.shards {
            shard.now = now;
        }
    }

    /// Runs the simulation for `span` of virtual time from the current clock.
    pub fn run_for<O>(&mut self, span: SimDuration, observers: &mut [O])
    where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        let deadline = self.now() + span;
        self.run_until(deadline, observers);
    }

    /// The zero-lookahead (or single-worker) driver: one thread pops the
    /// globally minimal `(time, key)` event across all shards — the same
    /// canonical total order the epoch driver realizes in parallel.
    fn run_until_sequential<O: Observer<A::Event>>(
        &mut self,
        deadline: SimInstant,
        observers: &mut [O],
    ) {
        let mut out = self.outboxes();
        let factory = &*self.factory;
        loop {
            let mut best: Option<(SimInstant, u64, usize)> = None;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if let Some((at, key, _)) = shard.wheel.peek() {
                    if best.is_none_or(|(bat, bkey, _)| (at, key) < (bat, bkey)) {
                        best = Some((at, key, s));
                    }
                }
            }
            let Some((at, _, s)) = best else { break };
            if at > deadline {
                break;
            }
            self.shards[s].step(&mut |n, i| factory(n, i), &mut observers[s], &mut out);
            flush_out(&mut self.shards, &mut out);
        }
    }

    /// The parallel driver: conservative barrier-delimited epochs of width
    /// `lookahead` (see the [module documentation](self)).
    fn run_until_epochs<O>(
        &mut self,
        deadline: SimInstant,
        lookahead: SimDuration,
        observers: &mut [O],
    ) where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        let workers = self.workers();
        let lookahead_ns = lookahead.as_nanos();
        let deadline_ns = deadline.as_nanos();
        let barrier = Barrier::new(workers);
        let global_next = AtomicU64::new(u64::MAX);
        let epoch_upper = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let inboxes: Vec<Mutex<Vec<OutEvent<A::Msg>>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync) = &*self.factory;

        std::thread::scope(|scope| {
            let mut pairs: Vec<(&mut Shard<A, M>, &mut O)> =
                self.shards.iter_mut().zip(observers.iter_mut()).collect();
            // Worker 0 (the coordinator) runs on the calling thread.
            let (shard0, observer0) = pairs.remove(0);
            for (shard, observer) in pairs {
                let barrier = &barrier;
                let global_next = &global_next;
                let epoch_upper = &epoch_upper;
                let done = &done;
                let inboxes = &inboxes[..];
                scope.spawn(move || {
                    epoch_worker(
                        shard,
                        observer,
                        factory,
                        barrier,
                        global_next,
                        epoch_upper,
                        done,
                        inboxes,
                        lookahead_ns,
                        deadline_ns,
                        false,
                    );
                });
            }
            epoch_worker(
                shard0,
                observer0,
                factory,
                &barrier,
                &global_next,
                &epoch_upper,
                &done,
                &inboxes,
                lookahead_ns,
                deadline_ns,
                true,
            );
        });
    }
}

/// Pushes buffered cross-shard events straight into their destination
/// wheels (main-thread contexts: sequential fallback, `with_actor`).
fn flush_out<A: Actor, M>(shards: &mut [Shard<A, M>], out: &mut [Vec<OutEvent<A::Msg>>]) {
    for (shard, buf) in shards.iter_mut().zip(out) {
        for (at, key, kind) in buf.drain(..) {
            shard.wheel.push(at, key, kind);
        }
    }
}

/// One worker's epoch loop.
///
/// Three barriers per epoch: (A) drain the inbox and publish the local
/// next-event time, (B) the coordinator picks the epoch window
/// `[T, min(T + L, deadline + 1))` (or signals completion), (C) process
/// local events inside the window and flush buffered cross-shard sends to
/// the destination inboxes. The lookahead guarantees every cross-shard send
/// from inside the window arrives at or after its upper bound, so next
/// epoch's inbox drain can never deliver into the past.
#[allow(clippy::too_many_arguments)]
fn epoch_worker<A, M, O>(
    shard: &mut Shard<A, M>,
    observer: &mut O,
    factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync),
    barrier: &Barrier,
    global_next: &AtomicU64,
    epoch_upper: &AtomicU64,
    done: &AtomicBool,
    inboxes: &[Mutex<Vec<OutEvent<A::Msg>>>],
    lookahead_ns: u64,
    deadline_ns: u64,
    coordinator: bool,
) where
    A: Actor,
    M: Medium,
    O: Observer<A::Event>,
{
    let mut out: Vec<Vec<OutEvent<A::Msg>>> = (0..inboxes.len()).map(|_| Vec::new()).collect();
    loop {
        // Phase A: merge cross-shard arrivals, publish the local horizon.
        {
            let mut inbox = inboxes[shard.index].lock().expect("inbox poisoned");
            for (at, key, kind) in inbox.drain(..) {
                shard.wheel.push(at, key, kind);
            }
        }
        let local_next = shard.wheel.peek_time().map_or(u64::MAX, |t| t.as_nanos());
        global_next.fetch_min(local_next, Ordering::SeqCst);
        barrier.wait();

        // Phase B: the coordinator fixes this epoch's window.
        if coordinator {
            let t = global_next.swap(u64::MAX, Ordering::SeqCst);
            if t == u64::MAX || t > deadline_ns {
                done.store(true, Ordering::SeqCst);
            } else {
                let upper = t
                    .saturating_add(lookahead_ns)
                    .min(deadline_ns.saturating_add(1));
                epoch_upper.store(upper, Ordering::SeqCst);
            }
        }
        barrier.wait();
        if done.load(Ordering::SeqCst) {
            break;
        }
        let upper = epoch_upper.load(Ordering::SeqCst);

        // Phase C: process everything strictly inside the window; newly
        // produced intra-shard events join in, cross-shard sends buffer.
        while let Some(t) = shard.wheel.peek_time() {
            if t.as_nanos() >= upper {
                break;
            }
            shard.step(&mut |n, i| factory(n, i), observer, &mut out);
        }
        for (dest, buf) in out.iter_mut().enumerate() {
            if !buf.is_empty() {
                inboxes[dest].lock().expect("inbox poisoned").append(buf);
            }
        }
        barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::medium::{Fate, Verdict};
    use crate::observer::CountingObserver;
    use crate::rng::SimRng;
    use crate::testkit::{FixedDelay, PingActor, TestMsg};
    use crate::world::World;

    const PERFECT: FixedDelay = FixedDelay(SimDuration::ZERO);

    fn ping_factory(n: u32) -> SharedActorFactory<PingActor> {
        Box::new(PingActor::ring(n))
    }

    /// One run's comparable fingerprint: totals plus per-node actor state.
    fn fingerprint<M: Medium + Send + Clone>(
        n: u32,
        workers: usize,
        medium: M,
        with_churn: bool,
    ) -> (CountingObserver, u64, Vec<(u64, u64, u64)>) {
        let mut world = ParWorld::new(n as usize, workers, ping_factory(n), medium, 42);
        let mut obs = vec![CountingObserver::new(); world.workers()];
        if with_churn {
            world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(0.45));
            world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.75));
        }
        world.run_for(SimDuration::from_secs(2), &mut obs);
        let mut total = CountingObserver::new();
        for o in &obs {
            total.sent += o.sent;
            total.dropped += o.dropped;
            total.delivered += o.delivered;
            total.timers += o.timers;
            total.crashes += o.crashes;
            total.recoveries += o.recoveries;
            total.events += o.events;
            total.bytes_sent += o.bytes_sent;
            total.bytes_delivered += o.bytes_delivered;
        }
        let actors = (0..n)
            .map(|i| {
                let node = NodeId(i);
                match world.actor(node) {
                    Some(a) => (a.pings_sent, a.pongs_received, world.incarnation(node)),
                    None => (u64::MAX, u64::MAX, world.incarnation(node)),
                }
            })
            .collect();
        (total, world.events_processed(), actors)
    }

    #[test]
    fn worker_counts_replay_identically_with_lookahead() {
        let delay = FixedDelay(SimDuration::from_millis(5));
        let base = fingerprint(6, 1, delay, true);
        for workers in [2, 3, 6] {
            assert_eq!(
                fingerprint(6, workers, delay, true),
                base,
                "workers={workers} diverged from workers=1"
            );
        }
    }

    #[test]
    fn zero_lookahead_falls_back_and_still_replays_identically() {
        let base = fingerprint(5, 1, PERFECT, false);
        for workers in [2, 4] {
            let run = fingerprint(5, workers, PERFECT, false);
            assert_eq!(run, base, "workers={workers} diverged from workers=1");
        }
    }

    /// A medium that draws from the sender's RNG stream for every decision:
    /// 10 % loss, 15 % duplication, and a delay of `floor` plus 0–3 quanta of
    /// 25 ms — coarse on purpose, so deliveries collide with each other and
    /// with the 100 ms ticks and the same-instant order is exercised.
    #[derive(Clone, Copy)]
    struct LossyDupMedium {
        floor: SimDuration,
    }

    impl LossyDupMedium {
        fn delay(&self, rng: &mut SimRng) -> SimDuration {
            self.floor + SimDuration::from_millis(25 * (rng.next_u64() % 4))
        }
    }

    impl Medium for LossyDupMedium {
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
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            rng: &mut SimRng,
        ) -> Fate {
            let draw = rng.uniform_f64();
            if draw < 0.10 {
                Fate::Dropped
            } else if draw < 0.25 {
                Fate::DeliverTwice {
                    first: self.delay(rng),
                    second: self.delay(rng),
                }
            } else {
                Fate::Deliver {
                    delay: self.delay(rng),
                }
            }
        }

        fn min_delay(&self) -> SimDuration {
            self.floor
        }
    }

    /// Records every callback under the node whose home shard issues it, in
    /// order. Drops come from the sender's shard (loss) or the receiver's
    /// (destination down), so they are kept apart and compared sorted.
    #[derive(Debug, Default, PartialEq)]
    struct CallbackTrace {
        per_node: BTreeMap<u32, Vec<String>>,
        drops: Vec<(SimInstant, u32, u32)>,
    }

    impl CallbackTrace {
        fn log(&mut self, node: NodeId, line: String) {
            self.per_node.entry(node.0).or_default().push(line);
        }

        fn merge(traces: Vec<CallbackTrace>) -> CallbackTrace {
            let mut all = CallbackTrace::default();
            for trace in traces {
                for (node, lines) in trace.per_node {
                    assert!(all.per_node.insert(node, lines).is_none(), "one home shard");
                }
                all.drops.extend(trace.drops);
            }
            all.drops.sort();
            all
        }
    }

    impl Observer<String> for CallbackTrace {
        fn message_sent(&mut self, now: SimInstant, from: NodeId, to: NodeId, _bytes: usize) {
            self.log(from, format!("{now} sent to {to:?}"));
        }
        fn message_dropped(&mut self, now: SimInstant, from: NodeId, to: NodeId, _bytes: usize) {
            self.drops.push((now, from.0, to.0));
        }
        fn message_delivered(&mut self, now: SimInstant, from: NodeId, to: NodeId, _bytes: usize) {
            self.log(to, format!("{now} delivered from {from:?}"));
        }
        fn timer_fired(&mut self, now: SimInstant, node: NodeId) {
            self.log(node, format!("{now} timer"));
        }
        fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
            self.log(node, format!("{now} crashed"));
        }
        fn node_recovered(&mut self, now: SimInstant, node: NodeId, incarnation: u64) {
            self.log(node, format!("{now} recovered #{incarnation}"));
        }
        fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &String) {
            self.log(node, format!("{now} emitted {event}"));
        }
    }

    /// Everything one run of the equivalence scenario is compared on.
    type Replay = (CallbackTrace, u64, Vec<Option<PingActor>>);

    const EQUIV_NODES: u32 = 7;
    const EQUIV_SEED: u64 = 0xE0_1A;

    /// The one scenario both worlds replay: node 3 crashes and recovers, and
    /// between the two legs node 5 is made to ping node 0 through
    /// `with_actor` (reported to `$poked`, node 5's home observer).
    macro_rules! replay_scenario {
        ($world:ident, $observers:expr, $poked:expr) => {{
            $world.schedule_crash(NodeId(3), SimInstant::from_secs_f64(0.45));
            $world.schedule_recovery(NodeId(3), SimInstant::from_secs_f64(1.15));
            $world.run_for(SimDuration::from_millis(800), $observers);
            $world.with_actor(NodeId(5), $poked, |_actor, ctx| {
                ctx.send(NodeId(0), TestMsg::Ping(99));
            });
            $world.run_for(SimDuration::from_millis(1200), $observers);
            (0..EQUIV_NODES)
                .map(|i| $world.actor(NodeId(i)).cloned())
                .collect::<Vec<_>>()
        }};
    }

    fn replay_on_world(medium: LossyDupMedium) -> Replay {
        let n = EQUIV_NODES;
        let mut world = World::new(n as usize, Box::new(PingActor::ring(n)), medium, EQUIV_SEED);
        let mut trace = CallbackTrace::default();
        let actors = replay_scenario!(world, &mut trace, &mut trace);
        (
            CallbackTrace::merge(vec![trace]),
            world.events_processed(),
            actors,
        )
    }

    fn replay_on_par_world(medium: LossyDupMedium, workers: usize) -> Replay {
        let n = EQUIV_NODES;
        let mut world = ParWorld::new(n as usize, workers, ping_factory(n), medium, EQUIV_SEED);
        let mut traces: Vec<CallbackTrace> = (0..workers).map(|_| Default::default()).collect();
        let actors = replay_scenario!(world, &mut traces, &mut traces[5 % workers]);
        (
            CallbackTrace::merge(traces),
            world.events_processed(),
            actors,
        )
    }

    fn assert_world_equals_par_world(medium: LossyDupMedium) {
        let base = replay_on_world(medium);
        assert!(!base.0.drops.is_empty(), "the medium must lose messages");
        assert!(
            base.0.per_node[&3]
                .iter()
                .any(|l| l.ends_with("recovered #1")),
            "the crash/recover pair must have happened"
        );
        for workers in [1, 2, 3] {
            let run = replay_on_par_world(medium, workers);
            assert_eq!(run.1, base.1, "workers={workers}: events processed");
            assert_eq!(run.2, base.2, "workers={workers}: final actor states");
            assert_eq!(run.0, base.0, "workers={workers}: callback traces");
        }
    }

    #[test]
    fn world_and_par_world_replay_event_for_event_with_lookahead() {
        assert_world_equals_par_world(LossyDupMedium {
            floor: SimDuration::from_millis(25),
        });
    }

    #[test]
    fn world_and_par_world_replay_event_for_event_without_lookahead() {
        assert_world_equals_par_world(LossyDupMedium {
            floor: SimDuration::ZERO,
        });
    }

    #[test]
    fn crash_and_recovery_cross_worker_parity() {
        let delay = FixedDelay(SimDuration::from_millis(3));
        let a = fingerprint(8, 2, delay, true);
        let b = fingerprint(8, 8, delay, true);
        assert_eq!(a, b);
        // The churn actually happened.
        assert_eq!(a.0.crashes, 1);
        assert_eq!(a.0.recoveries, 1);
    }

    #[test]
    fn with_actor_routes_cross_shard_sends() {
        let mut world = ParWorld::new(
            4,
            2,
            ping_factory(4),
            FixedDelay(SimDuration::from_millis(1)),
            7,
        );
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_for(SimDuration::from_millis(10), &mut obs);
        // Node 0 (shard 0) pings node 1 (shard 1): a cross-shard send.
        let mut extra = CountingObserver::new();
        world.with_actor(NodeId(0), &mut extra, |_a, ctx| {
            ctx.send(NodeId(1), TestMsg::Ping(99));
        });
        assert_eq!(extra.sent, 1);
        world.run_for(SimDuration::from_millis(5), &mut obs);
        let delivered: u64 = obs.iter().map(|o| o.delivered).sum();
        assert!(delivered >= 1);
        let (_intra, cross) = world.routing_stats();
        assert!(cross >= 1, "ring traffic must cross the 2-shard cut");
    }

    #[test]
    fn workers_clamp_to_node_count_and_observe_lookahead() {
        let world: ParWorld<PingActor, FixedDelay> = ParWorld::new(
            2,
            16,
            ping_factory(2),
            FixedDelay(SimDuration::from_millis(2)),
            1,
        );
        assert_eq!(world.workers(), 2);
        assert_eq!(world.lookahead(), SimDuration::from_millis(2));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut world: ParWorld<PingActor, FixedDelay> =
            ParWorld::new(0, 4, ping_factory(1), PERFECT, 1);
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_until(SimInstant::from_secs_f64(3.0), &mut obs);
        assert_eq!(world.now(), SimInstant::from_secs_f64(3.0));
        assert_eq!(world.num_nodes(), 0);
    }
}
