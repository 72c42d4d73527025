//! The paper's central scaling claim, pinned on counts: in steady state a
//! group of n costs n − 1 ALIVE payloads per heartbeat interval η under Ω_l
//! (only the leader sends) and n(n − 1) under Ω_lc (everybody does), and —
//! however many groups two workstations share — exactly one ALIVE datagram
//! per (sender, destination) per η, watched by one failure-detector timer
//! per monitored peer at the receiver, whose HELLO ticks leave every group
//! alone while the peers' digests keep coming.

use std::collections::BTreeMap;

use sle_core::{
    GroupId, JoinConfig, NodeCount, ProcessId, ServiceConfig, ServiceContext, ServiceEvent,
    ServiceMessage, ServiceNode,
};
use sle_election::ElectorKind;
use sle_net::network::{NetworkModel, SimulatedNetwork};
use sle_sim::observer::{NullObserver, Observer};
use sle_sim::prelude::*;

const GROUPS: u32 = 3;

/// One ALIVE datagram as it left a node: `(when, groups it carried, the η
/// each entry declared)`.
type Sent = (SimInstant, Vec<GroupId>, Vec<SimDuration>);

/// A `ServiceNode` that also records the ALIVE datagrams it sends, counts
/// the timers it fires, notes when it last sent a HELLO and, once told to
/// watch a peer, how many of its groups list that peer after each timer.
struct Tap {
    node: ServiceNode,
    alives: BTreeMap<NodeId, Vec<Sent>>,
    timers: u64,
    last_hello: SimInstant,
    watch: Option<(NodeId, Vec<(SimInstant, usize)>)>,
}

impl Tap {
    /// Notes the ALIVEs among the effects of one callback, leaving the
    /// effects as they were.
    fn after(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        for effect in ctx.drain_effects() {
            match effect {
                Effect::Send { to, msg } => {
                    let entries = match &msg {
                        ServiceMessage::Alive { group, header, .. } => {
                            Some((vec![*group], vec![header.sending_interval]))
                        }
                        ServiceMessage::AliveBatch { alives, .. } => Some((
                            alives.iter().map(|a| a.group).collect(),
                            alives.iter().map(|a| a.sending_interval).collect(),
                        )),
                        _ => None,
                    };
                    if let Some((groups, etas)) = entries {
                        self.alives.entry(to).or_default().push((now, groups, etas));
                    }
                    if matches!(msg, ServiceMessage::Hello { .. }) {
                        self.last_hello = now;
                    }
                    ctx.send(to, msg);
                }
                Effect::SetTimer { tag, at } => ctx.set_timer_at(tag, at),
                Effect::CancelTimer { tag } => ctx.cancel_timer(tag),
                Effect::Emit(event) => ctx.emit(event),
            }
        }
    }
}

impl Actor for Tap {
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut ServiceContext) {
        self.node.on_start(ctx);
        self.after(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ServiceMessage, ctx: &mut ServiceContext) {
        self.node.on_message(from, msg, ctx);
        self.after(ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ServiceContext) {
        self.timers += 1;
        self.node.on_timer(tag, ctx);
        self.after(ctx);
        if let Some((peer, log)) = &mut self.watch {
            let node = &self.node;
            let lists = |group| node.remote_members_of(group).iter().any(|m| m.0 == *peer);
            let listing = node.group_ids().filter(|&group| lists(group)).count();
            if log.last().is_none_or(|&(_, was)| was != listing) {
                log.push((ctx.now(), listing));
            }
        }
    }
}

/// A world of `n` tapped nodes, all joined to every group of `joins`.
fn tapped_world(
    n: usize,
    algorithm: ElectorKind,
    joins: Vec<(GroupId, JoinConfig)>,
) -> World<Tap, SimulatedNetwork> {
    tapped_world_by(n, algorithm, move |_| joins.clone())
}

/// A world of `n` tapped nodes, each joined as `joins_of` says.
fn tapped_world_by(
    n: usize,
    algorithm: ElectorKind,
    joins_of: impl Fn(NodeId) -> Vec<(GroupId, JoinConfig)> + 'static,
) -> World<Tap, SimulatedNetwork> {
    World::new(
        n,
        Box::new(move |node, _incarnation| {
            let mut config = ServiceConfig::full_mesh(node, n, algorithm);
            for (group, join) in joins_of(node) {
                config = config.with_auto_join(group, join);
            }
            Tap {
                node: ServiceNode::new(config),
                alives: BTreeMap::new(),
                timers: 0,
                last_hello: SimInstant::ZERO,
                watch: None,
            }
        }),
        NetworkModel::perfect().build(7),
        7,
    )
}

#[test]
fn alive_traffic_is_linear_under_omega_l_and_quadratic_under_omega_lc() {
    let all_groups: Vec<GroupId> = (1..=GROUPS).map(GroupId).collect();
    for (algorithm, senders_of) in [
        (ElectorKind::OmegaL, (|_n| 1) as fn(usize) -> usize),
        (ElectorKind::OmegaLc, |n| n),
    ] {
        for n in [4usize, 8, 16, 32] {
            let what = format!("{algorithm:?}, n = {n}");
            let joins = all_groups.iter().map(|&g| (g, JoinConfig::candidate()));
            let mut world = tapped_world(n, algorithm, joins.collect());
            world.run_for(SimDuration::from_secs(20), &mut NullObserver);
            let counters = |world: &World<Tap, SimulatedNetwork>| -> (u64, u64) {
                let nodes = (0..n as u32).map(|i| &world.actor(NodeId(i)).unwrap().node);
                nodes.fold((0, 0), |(p, d), node| {
                    (
                        p + node.count(NodeCount::AlivePayloadsSent),
                        d + node.count(NodeCount::AliveDatagramsSent),
                    )
                })
            };
            let before = counters(&world);
            for i in 0..n as u32 {
                world.with_actor(NodeId(i), &mut NullObserver, |tap, _ctx| tap.alives.clear());
            }
            world.run_for(SimDuration::from_secs(10), &mut NullObserver);
            let after = counters(&world);

            let (mut senders, mut payloads, mut datagrams) = (0, 0u64, 0u64);
            for i in 0..n as u32 {
                let tap = world.actor(NodeId(i)).unwrap();
                if tap.alives.is_empty() {
                    continue;
                }
                senders += 1;
                // A sender reaches every other member, each at one rhythm.
                assert_eq!(tap.alives.len(), n - 1, "{what}: n{i}'s destinations");
                for (to, sent) in &tap.alives {
                    let eta = sent[0].2[0];
                    assert!(sent.len() as u64 >= 10_000 / 250, "{what}: n{i} → {to}");
                    for (k, (at, groups, etas)) in sent.iter().enumerate() {
                        // One datagram per η, carrying every shared group.
                        assert_eq!(groups, &all_groups, "{what}: n{i} → {to}");
                        assert!(etas.iter().all(|&e| e == eta), "{what}: n{i} → {to}");
                        if k > 0 {
                            assert_eq!(*at, sent[k - 1].0 + eta, "{what}: n{i} → {to}, #{k}");
                        }
                        payloads += groups.len() as u64;
                        datagrams += 1;
                    }
                }
            }
            // Ω_l: n − 1 payloads per group per η; Ω_lc: n(n − 1).
            assert_eq!(senders, senders_of(n), "{what}: competing senders");
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (payloads, datagrams),
                "{what}: the nodes' own counters"
            );
            assert_eq!(payloads, datagrams * u64::from(GROUPS), "{what}");
        }
    }
}

/// Groups on different send grids (different intervals) are planned apart,
/// yet whenever both are due their entries still leave in one datagram.
#[test]
fn two_send_grids_share_a_datagram_when_due_together() {
    let slow = sle_fd::QosSpec::paper_default_with_detection(SimDuration::from_secs(2));
    let joins = vec![
        (GroupId(1), JoinConfig::candidate()),
        (GroupId(2), JoinConfig::candidate().with_qos(slow)),
    ];
    let mut world = tapped_world(3, ElectorKind::OmegaLc, joins);
    world.run_for(SimDuration::from_secs(30), &mut NullObserver);
    for i in 0..3u32 {
        let tap = world.actor(NodeId(i)).unwrap();
        assert_eq!(tap.alives.len(), 2, "n{i} reaches both peers");
        for (to, sent) in &tap.alives {
            let steady: Vec<&Sent> = sent
                .iter()
                .filter(|(at, ..)| *at >= SimInstant::ZERO + SimDuration::from_secs(20))
                .collect();
            let both = steady.iter().filter(|s| s.1 == [GroupId(1), GroupId(2)]);
            let fast_only = steady.iter().filter(|s| s.1 == [GroupId(1)]);
            let (both, fast_only) = (both.count(), fast_only.count());
            assert_eq!(both + fast_only, steady.len(), "n{i} → {to}: {steady:?}");
            assert!(
                both >= 15 && fast_only >= 15,
                "n{i} → {to}: {both} / {fast_only}"
            );
            // Never two datagrams for one destination in one tick.
            assert!(steady.windows(2).all(|w| w[0].0 < w[1].0), "n{i} → {to}");
        }
    }
}

/// A fan-out beyond the transport's size budget leaves as several
/// datagrams, each within it, together carrying every group once, in order.
#[test]
fn a_fan_out_beyond_the_size_budget_is_split() {
    let groups: Vec<GroupId> = (1..=40).map(GroupId).collect();
    let joins = groups
        .iter()
        .map(|&g| (g, JoinConfig::candidate()))
        .collect();
    let mut world = tapped_world(2, ElectorKind::OmegaLc, joins);
    world.run_for(SimDuration::from_secs(10), &mut NullObserver);
    let tap = world.actor(NodeId(0)).unwrap();
    let sent = &tap.alives[&NodeId(1)];
    let last_tick = sent.last().unwrap().0;
    let chunks: Vec<&Sent> = sent.iter().filter(|s| s.0 == last_tick).collect();
    assert!(chunks.len() >= 2, "{} datagrams in one tick", chunks.len());
    let carried: Vec<GroupId> = chunks.iter().flat_map(|s| s.1.clone()).collect();
    assert_eq!(carried, groups);
    // 1 200 bytes of entries at 45–62 bytes each, and no runt but the last.
    assert!(chunks.iter().all(|s| s.1.len() <= 26));
    assert!(chunks[..chunks.len() - 1].iter().all(|s| s.1.len() >= 19));
    let node = &tap.node;
    let payloads = node.count(NodeCount::AlivePayloadsSent);
    assert!(node.count(NodeCount::AliveDatagramsSent) * 19 <= payloads);
}

/// Every `LeaderChanged` raised, as `(when, node, group, leader)`.
#[derive(Default)]
struct Changes(Vec<(SimInstant, NodeId, GroupId, Option<ProcessId>)>);

impl Observer<ServiceEvent> for Changes {
    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = *event;
        self.0.push((now, node, group, leader));
    }
}

/// A follower in k groups one peer leads watches that peer with one
/// detector timer: as many fires per second for k = 16 as for k = 1 — and
/// as many timers of any kind — and when the leader crashes, every group
/// suspects it at the same instant, within T_D of its last ALIVE.
#[test]
fn fd_timers_scale_with_monitored_peers_not_groups() {
    let t_d = JoinConfig::candidate().qos.detection_time();
    let mut rates = Vec::new();
    for k in [1u32, 4, 16] {
        let groups: Vec<GroupId> = (1..=k).map(GroupId).collect();
        let joins = groups.iter().map(|&g| (g, JoinConfig::candidate()));
        let mut world = tapped_world(2, ElectorKind::OmegaL, joins.collect());
        let mut log = Changes::default();
        world.run_for(SimDuration::from_secs(20), &mut log);
        let leader = (world.actor(NodeId(0)).unwrap().node)
            .leader_of(groups[0])
            .expect("settled")
            .node;
        let follower = NodeId(1 - leader.0);
        let counts = |world: &World<Tap, SimulatedNetwork>| {
            let tap = world.actor(follower).unwrap();
            (tap.node.count(NodeCount::FdFires), tap.timers)
        };
        let before = counts(&world);
        world.run_for(SimDuration::from_secs(10), &mut log);
        let after = counts(&world);
        let per_s = |(b, a): (u64, u64)| (a - b) as f64 / 10.0;
        rates.push((k, per_s((before.0, after.0)), per_s((before.1, after.1))));
        for &group in &groups {
            let follows = world.actor(follower).unwrap().node.leader_of(group);
            assert_eq!(follows.map(|p| p.node), Some(leader), "k = {k}: {group:?}");
        }

        // The leader crashes between two ticks, after its last ALIVE.
        let crash_at = world.now() + SimDuration::from_millis(100);
        world.run_until(crash_at - SimDuration::from_nanos(1), &mut log);
        let last_sent = world.actor(leader).unwrap().alives[&follower]
            .last()
            .expect("the leader heartbeats its follower")
            .0;
        world.schedule_crash(leader, crash_at);
        log.0.clear();
        world.run_for(t_d * 2, &mut log);
        let suspected: Vec<_> = (log.0.iter())
            .filter(|&&(_, node, _, to)| node == follower && to.is_none_or(|p| p.node != leader))
            .collect();
        let at = suspected
            .first()
            .expect("the follower suspected its leader")
            .0;
        assert_eq!(suspected.len(), groups.len(), "k = {k}: {suspected:?}");
        assert!(
            suspected.iter().all(|&&(when, ..)| when == at),
            "k = {k}: {suspected:?}"
        );
        assert!(at > crash_at && at <= last_sent + t_d, "k = {k}: {at:?}");
    }
    let (_, fd, timers) = rates[0];
    for &(k, fd_k, timers_k) in &rates {
        assert!(
            (fd_k - fd).abs() <= 1.0,
            "{rates:?}: detector fires at k = {k}"
        );
        assert!(
            (timers_k - timers).abs() <= 1.0,
            "{rates:?}: timers at k = {k}"
        );
    }
}

/// A workstation in k groups beside another candidate and a listener: once
/// the groups settle, no HELLO tick walks any peer's groups — each peer's
/// digest vouches for all its entries at once — for k = 16 as for k = 1.
/// When the listener goes silent, its entries in all k groups expire on one
/// HELLO tick, within one HELLO interval of its last digest plus the
/// membership timeout.
#[test]
fn quiet_hello_ticks_visit_no_group() {
    let listener = NodeId(2);
    let defaults = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaL);
    let (interval, timeout) = (defaults.hello_interval, defaults.membership_timeout);
    for k in [1u32, 4, 16] {
        let groups: Vec<GroupId> = (1..=k).map(GroupId).collect();
        let joins = groups.clone();
        let mut world = tapped_world_by(3, ElectorKind::OmegaL, move |node| {
            let join = if node == listener {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            joins.iter().map(|&group| (group, join)).collect()
        });
        world.run_for(SimDuration::from_secs(20), &mut NullObserver);
        let walks = |world: &World<Tap, SimulatedNetwork>| -> Vec<u64> {
            let taps = (0..3).map(|i| world.actor(NodeId(i)).unwrap());
            taps.map(|tap| tap.node.count(NodeCount::HelloMemberWalks))
                .collect()
        };
        let settled = walks(&world);
        assert!(settled.iter().all(|&w| w > 0), "k = {k}: {settled:?}");
        world.run_for(SimDuration::from_secs(30), &mut NullObserver);
        assert_eq!(walks(&world), settled, "k = {k}: walks in steady state");
        let observer = world.actor(NodeId(0)).unwrap();
        for &group in &groups {
            assert_eq!(observer.node.remote_members_of(group).len(), 2, "k = {k}");
        }

        // The listener falls silent between two of its digests.
        let silent_at = world.now() + SimDuration::from_millis(500);
        world.run_until(silent_at, &mut NullObserver);
        let last_digest = world.actor(listener).unwrap().last_hello;
        world.schedule_crash(listener, silent_at);
        world.with_actor(NodeId(0), &mut NullObserver, |tap, _ctx| {
            tap.watch = Some((listener, Vec::new()));
        });
        world.run_for(timeout + interval * 2, &mut NullObserver);
        let (_, log) = world.actor(NodeId(0)).unwrap().watch.clone().unwrap();
        let (at, listing) = log[1];
        assert_eq!(log[0].1, groups.len(), "k = {k}: {log:?}");
        assert_eq!(listing, 0, "k = {k}: one tick, every group: {log:?}");
        assert!(
            at > last_digest + timeout && at <= last_digest + timeout + interval,
            "k = {k}: expired at {at:?}, last digest at {last_digest:?}"
        );
    }
}
