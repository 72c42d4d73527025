use super::*;
use sle_net::link::LinkSpec;
use sle_net::network::{NetworkModel, SimulatedNetwork};
use sle_sim::prelude::*;
use std::collections::BTreeMap;

const GROUP: GroupId = GroupId(1);

/// Perfect links: every message is delivered at once.
fn perfect_links() -> SimulatedNetwork {
    NetworkModel::perfect().build(0)
}

/// Loss-free links that deliver every message after exactly `delay`.
fn delayed_links(delay: SimDuration) -> SimulatedNetwork {
    NetworkModel::new(LinkSpec::perfect().with_min_delay(delay)).build(0)
}

/// Runs `world` to just before `at`, then makes every link deliver after
/// `delay`: a message sent at `at` or later takes the new delay.
fn step_delay<O: Observer<ServiceEvent>>(
    world: &mut World<ServiceNode, SimulatedNetwork>,
    at: SimInstant,
    delay: SimDuration,
    obs: &mut O,
) {
    world.run_until(at - SimDuration::from_nanos(1), obs);
    world.medium_mut().set_default_link(LinkSpec::perfect().with_min_delay(delay));
}

fn build_world(
    n: usize,
    algorithm: ElectorKind,
    seed: u64,
) -> World<ServiceNode, SimulatedNetwork> {
    World::new(
        n,
        Box::new(move |node, _inc| {
            let config = ServiceConfig::full_mesh(node, n, algorithm)
                .with_auto_join(GROUP, JoinConfig::candidate());
            ServiceNode::new(config)
        }),
        perfect_links(),
        seed,
    )
}

fn agreed_leader<M: Medium>(world: &World<ServiceNode, M>, group: GroupId) -> Option<ProcessId> {
    let mut leader = None;
    for i in 0..world.num_nodes() {
        let node = NodeId(i as u32);
        if !world.is_up(node) {
            continue;
        }
        let view = world.actor(node)?.leader_of(group)?;
        match leader {
            None => leader = Some(view),
            Some(l) if l == view => {}
            _ => return None,
        }
    }
    leader
}

#[test]
fn a_group_of_services_agrees_on_a_leader() {
    for algorithm in ElectorKind::all() {
        let mut world = build_world(4, algorithm, 7);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP);
        assert!(leader.is_some(), "{algorithm}: no agreement after 5 s");
    }
}

#[test]
fn leader_crash_triggers_reelection_within_seconds() {
    for algorithm in ElectorKind::all() {
        let mut world = build_world(4, algorithm, 11);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP).expect("initial leader");

        world.schedule_crash(leader.node, world.now() + SimDuration::from_millis(10));
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let new_leader = agreed_leader(&world, GROUP)
            .unwrap_or_else(|| panic!("{algorithm}: no new leader after crash"));
        assert_ne!(
            new_leader.node, leader.node,
            "{algorithm}: crashed node still leads"
        );
    }
}

#[test]
fn stable_algorithms_keep_leader_when_smaller_id_rejoins() {
    // Crash node 0 (smallest id). Under S2/S3 its recovery must not
    // demote the incumbent; under S1 it must (that is the instability
    // the paper measures).
    for (algorithm, expect_demotion) in [
        (ElectorKind::OmegaId, true),
        (ElectorKind::OmegaLc, false),
        (ElectorKind::OmegaL, false),
    ] {
        let mut world = build_world(4, algorithm, 13);
        let mut obs = NullObserver;
        world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(3.0));
        world.schedule_recovery(NodeId(0), SimInstant::from_secs_f64(20.0));
        world.run_for(SimDuration::from_secs(15), &mut obs);
        let leader_before = agreed_leader(&world, GROUP).expect("leader before rejoin");
        assert_ne!(leader_before.node, NodeId(0));

        world.run_for(SimDuration::from_secs(15), &mut obs);
        let leader_after = agreed_leader(&world, GROUP).expect("leader after rejoin");
        if expect_demotion {
            assert_eq!(leader_after.node, NodeId(0), "{algorithm}: S1 must demote");
        } else {
            assert_eq!(
                leader_after, leader_before,
                "{algorithm}: stable algorithm must not demote a healthy leader"
            );
        }
    }
}

#[test]
fn omega_l_converges_to_a_single_sender() {
    let mut world = build_world(6, ElectorKind::OmegaL, 19);
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(10), &mut obs);
    let competing: Vec<NodeId> = (0..6)
        .map(|i| NodeId(i as u32))
        .filter(|&n| {
            world
                .actor(n)
                .map(|a| a.is_competing(GROUP))
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(
        competing.len(),
        1,
        "exactly one process should still send ALIVEs"
    );
    let leader = agreed_leader(&world, GROUP).unwrap();
    assert_eq!(leader.node, competing[0]);
}

#[test]
fn omega_lc_keeps_every_candidate_sending() {
    let mut world = build_world(4, ElectorKind::OmegaLc, 23);
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    for i in 0..4 {
        assert!(world.actor(NodeId(i)).unwrap().is_competing(GROUP));
    }
}

#[test]
fn join_and_leave_api_validation() {
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc);
    let mut node = ServiceNode::new(config);
    let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
    let foreign = ProcessId::new(NodeId(1), 0);
    assert_eq!(
        node.join_group(foreign, GROUP, JoinConfig::candidate(), &mut ctx),
        Err(ServiceError::ForeignProcess(foreign))
    );
    let unregistered = ProcessId::new(NodeId(0), 9);
    assert_eq!(
        node.join_group(unregistered, GROUP, JoinConfig::candidate(), &mut ctx),
        Err(ServiceError::UnknownProcess(unregistered))
    );
    let process = node.register_process();
    assert_eq!(
        node.leave_group(process, GROUP, &mut ctx),
        Err(ServiceError::NotJoined(process, GROUP))
    );
    assert!(node.local_members_of(GROUP).is_empty());
    assert!(node
        .join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
        .is_ok());
    assert_eq!(node.leader_of(GROUP), Some(process));
    assert_eq!(node.group_ids().collect::<Vec<_>>(), vec![GROUP]);
    assert_eq!(node.local_members_of(GROUP), vec![process]);
    assert!(node.leave_group(process, GROUP, &mut ctx).is_ok());
    assert_eq!(node.leader_of(GROUP), None);
    assert!(node.local_members_of(GROUP).is_empty());
    assert_eq!(node.algorithm(), ElectorKind::OmegaLc);
    assert_eq!(node.node_id(), NodeId(0));
}

#[test]
fn listener_follows_without_becoming_leader() {
    let n = 3;
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let join = if node == NodeId(2) {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            let config =
                ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL).with_auto_join(GROUP, join);
            ServiceNode::new(config)
        }),
        perfect_links(),
        31,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let leader = agreed_leader(&world, GROUP).expect("leader");
    assert_ne!(leader.node, NodeId(2), "a listener must never be elected");
    assert!(!world.actor(NodeId(2)).unwrap().is_competing(GROUP));
}

#[test]
fn adaptive_tuning_tracks_latency_regimes_deterministically() {
    // A two-node group over a deterministic medium whose delay steps
    // 90 ms → 2 ms → 150 ms. The monitor's timeout shift δ
    // must shrink after the latency drop and grow after the spike.
    let n = 2;
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                .with_auto_join(GROUP, JoinConfig::candidate().with_adaptive_tuning());
            ServiceNode::new(config)
        }),
        delayed_links(SimDuration::from_millis(90)),
        3,
    );
    let mut obs = NullObserver;
    let params_at = |world: &World<ServiceNode, SimulatedNetwork>| {
        world
            .actor(NodeId(0))
            .unwrap()
            .fd_params_of(GROUP, NodeId(1))
            .expect("node 0 monitors node 1")
    };

    world.run_until(SimInstant::from_secs_f64(18.0), &mut obs);
    let slow = params_at(&world);
    // Tuned: the bound must already be below the static T_D^U = 1 s.
    assert!(slow.worst_case_detection() < SimDuration::from_secs(1));
    assert!(
        slow.shift > SimDuration::from_millis(90),
        "δ must clear the 90 ms delay"
    );

    let step = SimDuration::from_millis(2);
    step_delay(&mut world, SimInstant::from_secs_f64(20.0), step, &mut obs);
    world.run_until(SimInstant::from_secs_f64(38.0), &mut obs);
    let fast = params_at(&world);
    assert!(
        fast.shift < slow.shift,
        "δ must shrink after the latency drop: {} !< {}",
        fast.shift,
        slow.shift
    );

    let step = SimDuration::from_millis(150);
    step_delay(&mut world, SimInstant::from_secs_f64(40.0), step, &mut obs);
    world.run_until(SimInstant::from_secs_f64(58.0), &mut obs);
    let spiked = params_at(&world);
    assert!(
        spiked.shift > fast.shift,
        "δ must grow after the latency spike: {} !> {}",
        spiked.shift,
        fast.shift
    );
    assert!(
        spiked.shift > SimDuration::from_millis(150),
        "δ must clear the 150 ms delay"
    );

    // Throughout, both nodes keep agreeing on a leader (tuning must not
    // destabilise the election).
    assert!(agreed_leader(&world, GROUP).is_some());
}

/// Every `LeaderChanged` raised, as `(when, group, leader)`.
#[derive(Default)]
struct LeaderLog(Vec<(SimInstant, GroupId, Option<ProcessId>)>);

impl Observer<ServiceEvent> for LeaderLog {
    fn event_emitted(&mut self, now: SimInstant, _node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = *event;
        self.0.push((now, group, leader));
    }
}

#[test]
fn a_static_and_an_adaptive_group_share_one_link_estimate() {
    // A rolling upgrade in miniature: the same two workstations share a
    // static and an adaptive group while the delay steps 90 → 2 → 150 ms.
    const STATIC: GroupId = GroupId(1);
    const ADAPTIVE: GroupId = GroupId(2);
    let t_d = SimDuration::from_secs(1);
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
            2,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, 2, algorithm)
                    .with_auto_join(STATIC, JoinConfig::candidate())
                    .with_auto_join(ADAPTIVE, JoinConfig::candidate().with_adaptive_tuning());
                ServiceNode::new(config)
            }),
            delayed_links(SimDuration::from_millis(90)),
            3,
        );
        let mut log = LeaderLog::default();
        // Whoever follows in a group monitors its leader.
        let bounds = |world: &World<ServiceNode, SimulatedNetwork>| {
            [STATIC, ADAPTIVE].map(|group| {
                let leader = agreed_leader(world, group).expect("leader").node;
                let follower = NodeId(1 - leader.0);
                (world.actor(follower).unwrap())
                    .fd_params_of(group, leader)
                    .expect("the follower monitors its leader")
                    .worst_case_detection()
            })
        };
        let mut adaptive_bounds = Vec::new();
        let mut leaders = Vec::new();
        // Each checkpoint, after the delay step (at, ms) before it, if any.
        let steps = [None, Some((20.0, 2)), Some((40.0, 150))];
        for (step, checkpoint) in steps.into_iter().zip([18.0, 38.0, 58.0]) {
            if let Some((at, millis)) = step {
                let (at, delay) = (
                    SimInstant::from_secs_f64(at),
                    SimDuration::from_millis(millis),
                );
                step_delay(&mut world, at, delay, &mut log);
            }
            world.run_until(SimInstant::from_secs_f64(checkpoint), &mut log);
            let [pinned, tuned] = bounds(&world);
            assert_eq!(pinned, t_d, "{algorithm}: static η + δ at {checkpoint} s");
            adaptive_bounds.push(tuned);
            leaders.push([STATIC, ADAPTIVE].map(|group| agreed_leader(&world, group)));
        }
        // The adaptive group tightens and re-widens beside it.
        let [slow, fast, spiked] = adaptive_bounds[..] else {
            unreachable!()
        };
        assert!(slow < t_d, "{algorithm}: {slow}");
        assert!(fast < slow, "{algorithm}: {fast} !< {slow}");
        assert!(spiked > fast && spiked <= t_d, "{algorithm}: {spiked}");

        // The static group never so much as wavers: each node announces
        // its leader once. The adaptive one agrees on a leader at every
        // checkpoint and keeps it through the tightening; a link that
        // gets 75 times slower within one η outruns the bound tightened
        // for it, and the suspicions that costs (accusations included:
        // the leadership may move) end as soon as (η, δ) back off.
        assert!(leaders.iter().flatten().all(|l| l.is_some()), "{leaders:?}");
        assert_eq!(leaders[0], leaders[1], "{algorithm}");
        assert_eq!(leaders[0][0], leaders[2][0], "{algorithm}");
        let changes = |group| log.0.iter().filter(move |(_, g, _)| *g == group);
        assert_eq!(changes(STATIC).count(), 2, "{algorithm}: {:?}", log.0);
        let spike = SimInstant::from_secs_f64(40.0);
        let wavered: Vec<_> = changes(ADAPTIVE).skip(2).map(|(at, ..)| *at).collect();
        assert!(
            (wavered.iter()).all(|&at| at > spike && at < spike + t_d * 2),
            "{algorithm}: {:?}",
            log.0
        );

        // One link record per peer, fed once per datagram however many
        // groups (and policies) read it.
        for node in [NodeId(0), NodeId(1)] {
            let actor = world.actor(node).unwrap();
            assert_eq!(actor.peers.len(), 1);
            assert_eq!(
                actor.peers.heartbeats_recorded(0),
                actor.count(NodeCount::AliveUnchanged) + actor.count(NodeCount::AliveApplied),
                "{algorithm}: {node}"
            );
        }
    }
}

#[test]
fn multi_group_alives_share_one_datagram_per_destination() {
    // Two workstations sharing three groups: the per-node tick must
    // coalesce the three per-group heartbeats bound for the same peer
    // into one batched datagram.
    let n = 2;
    let groups = [GroupId(1), GroupId(2), GroupId(3)];
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let mut config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc);
            for group in groups {
                config = config.with_auto_join(group, JoinConfig::candidate());
            }
            ServiceNode::new(config)
        }),
        perfect_links(),
        41,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    for i in 0..n {
        let actor = world.actor(NodeId(i as u32)).unwrap();
        let payloads = actor.count(NodeCount::AlivePayloadsSent);
        let datagrams = actor.count(NodeCount::AliveDatagramsSent);
        assert!(payloads > 0);
        // All three groups join together and share one send interval,
        // so every tick batches exactly three payloads per datagram.
        assert_eq!(
            payloads,
            3 * datagrams,
            "node {i}: {payloads} payloads in {datagrams} datagrams"
        );
        for group in groups {
            assert!(actor.leader_of(group).is_some(), "no leader in {group:?}");
        }
    }
    // Both nodes converge on the same leader in every group.
    for group in groups {
        assert!(agreed_leader(&world, group).is_some());
    }
}

#[test]
fn staggered_group_joins_converge_onto_shared_datagrams() {
    // Group 2 is joined mid-run, out of phase with group 1. The
    // quarter-interval batching slack must pull the two onto a shared
    // tick, so steady-state traffic is 2 payloads per datagram — not
    // one datagram per group forever.
    let n = 2;
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                .with_auto_join(GroupId(1), JoinConfig::candidate());
            ServiceNode::new(config)
        }),
        perfect_links(),
        43,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_millis(330), &mut obs);
    for i in 0..n as u32 {
        world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
            let process = actor.register_process();
            actor
                .join_group(process, GroupId(2), JoinConfig::candidate(), ctx)
                .expect("join group 2");
        });
    }
    // Let the phases converge, then measure a steady-state window.
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let counts = |world: &World<ServiceNode, SimulatedNetwork>, i: u32| {
        let actor = world.actor(NodeId(i)).unwrap();
        (
            actor.count(NodeCount::AlivePayloadsSent),
            actor.count(NodeCount::AliveDatagramsSent),
        )
    };
    let before: Vec<_> = (0..n as u32).map(|i| counts(&world, i)).collect();
    world.run_for(SimDuration::from_secs(10), &mut obs);
    for i in 0..n as u32 {
        let (p0, d0) = before[i as usize];
        let (p1, d1) = counts(&world, i);
        let payloads = p1 - p0;
        let datagrams = d1 - d0;
        assert!(payloads > 0);
        // Perfect batching is 2 payloads per datagram; a monitor
        // reconfiguration can briefly desync the two groups' intervals
        // (and so their grids), so allow a handful of solo datagrams.
        assert!(
            payloads * 10 >= 2 * datagrams * 9,
            "node {i}: staggered groups failed to share datagrams \
             ({payloads} payloads in {datagrams} datagrams)"
        );
    }
    assert!(agreed_leader(&world, GroupId(1)).is_some());
    assert!(agreed_leader(&world, GroupId(2)).is_some());
}

#[test]
fn nodes_in_different_groups_do_not_interfere() {
    // Nodes 0,1 join group 1; nodes 2,3 join group 2.
    let n = 4;
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let group = if node.0 < 2 { GroupId(1) } else { GroupId(2) };
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                .with_auto_join(group, JoinConfig::candidate());
            ServiceNode::new(config)
        }),
        perfect_links(),
        37,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let leader1 = world
        .actor(NodeId(0))
        .unwrap()
        .leader_of(GroupId(1))
        .unwrap();
    let leader2 = world
        .actor(NodeId(2))
        .unwrap()
        .leader_of(GroupId(2))
        .unwrap();
    assert!(leader1.node.0 < 2);
    assert!(leader2.node.0 >= 2);
    assert_eq!(world.actor(NodeId(0)).unwrap().leader_of(GroupId(2)), None);
}

/// A minimal fenced state machine for the lease/client-tier tests: a
/// counter with the canonical high-water fencing check.
#[derive(Debug, Default)]
struct TestApp {
    high_water: Option<crate::lease::FencingToken>,
    value: u64,
}

impl crate::lease::FencedApp for TestApp {
    fn apply(
        &mut self,
        _group: GroupId,
        token: crate::lease::FencingToken,
        payload: u64,
    ) -> Result<u64, crate::lease::StaleToken> {
        if let Some(high) = self.high_water {
            if token < high {
                return Err(crate::lease::StaleToken {
                    presented: token,
                    high_water: high,
                });
            }
        }
        self.high_water = Some(token);
        self.value += payload;
        Ok(self.value)
    }

    fn observe_token(&mut self, _group: GroupId, token: crate::lease::FencingToken) {
        if self.high_water.is_none_or(|high| token > high) {
            self.high_water = Some(token);
        }
    }
}

#[test]
fn leader_serves_fenced_requests_and_followers_redirect() {
    let mut world = build_world(2, ElectorKind::OmegaLc, 61);
    let mut obs = NullObserver;
    for i in 0..2u32 {
        world.with_actor(NodeId(i), &mut obs, |actor, _ctx| {
            actor.install_app(Box::new(TestApp::default()));
            assert!(actor.has_app());
        });
    }
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let leader = agreed_leader(&world, GROUP).expect("agreed leader").node;
    let follower = NodeId(1 - leader.0);

    world.with_actor(leader, &mut obs, |actor, ctx| {
        let lease = actor.lease_of(GROUP).expect("the leader holds a lease");
        assert_eq!(lease.token.node, leader);
        assert!(lease.valid_at(ctx.now()), "lease expired while leading");
        assert_eq!(actor.fencing_token(GROUP), Some(lease.token));
        assert!(actor.count(NodeCount::LeasesMinted) >= 1);
        // A client request lands on the leader: served.
        actor.on_message(
            follower,
            ServiceMessage::ClientRequest {
                group: GROUP,
                session: 1,
                seq: 0,
                payload: 7,
            },
            ctx,
        );
        assert_eq!(actor.count(NodeCount::RequestsApplied), 1);
        assert_eq!(actor.count(NodeCount::RequestsRedirected), 0);
    });

    world.with_actor(follower, &mut obs, |actor, ctx| {
        // The follower holds no lease of its own…
        assert_eq!(actor.lease_of(GROUP), None);
        // …but has heard the leader's LeaseGrant broadcasts.
        let remote = actor
            .remote_lease_of(GROUP)
            .expect("LeaseGrant broadcasts reached the follower");
        assert_eq!(remote.token.node, leader);
        // A client request landing on the follower is redirected to the
        // leader it knows about.
        actor.on_message(
            leader,
            ServiceMessage::ClientRequest {
                group: GROUP,
                session: 2,
                seq: 0,
                payload: 7,
            },
            ctx,
        );
        assert_eq!(actor.count(NodeCount::RequestsApplied), 0);
        assert_eq!(actor.count(NodeCount::RequestsRedirected), 1);
        // Unknown group: redirected with no hint (leader unknown).
        actor.on_message(
            leader,
            ServiceMessage::ClientRequest {
                group: GroupId(99),
                session: 2,
                seq: 1,
                payload: 7,
            },
            ctx,
        );
        assert_eq!(actor.count(NodeCount::RequestsRedirected), 2);
    });
}

/// A fenced app that hands every token it observes to the test.
#[derive(Debug)]
struct TokenLog(std::sync::mpsc::Sender<crate::lease::FencingToken>);

impl crate::lease::FencedApp for TokenLog {
    fn apply(
        &mut self,
        _group: GroupId,
        _token: crate::lease::FencingToken,
        payload: u64,
    ) -> Result<u64, crate::lease::StaleToken> {
        Ok(payload)
    }

    fn observe_token(&mut self, _group: GroupId, token: crate::lease::FencingToken) {
        let _ = self.0.send(token);
    }
}

#[test]
fn a_lease_grant_relayed_by_another_node_is_ignored() {
    let mut world = build_world(3, ElectorKind::OmegaL, 62);
    let mut obs = NullObserver;
    let (watcher, owner, relay) = (NodeId(0), NodeId(1), NodeId(2));
    let (log, observed) = std::sync::mpsc::channel();
    world.with_actor(watcher, &mut obs, |actor, _ctx| {
        actor.install_app(Box::new(TokenLog(log)));
    });
    world.run_for(SimDuration::from_secs(5), &mut obs);
    // n1's token, above anything minted so far.
    let token = crate::lease::FencingToken {
        accusation_time: SimInstant::from_secs_f64(1_000.0),
        node: owner,
        epoch: 99,
        incarnation: 0,
    };
    let grant = ServiceMessage::LeaseGrant {
        group: GROUP,
        token,
        valid_for: SimDuration::from_secs(1),
    };
    world.with_actor(watcher, &mut obs, |actor, ctx| {
        observed.try_iter().for_each(drop);
        let before = actor.remote_lease_of(GROUP);
        actor.on_message(relay, grant.clone(), ctx);
        assert_eq!(actor.remote_lease_of(GROUP), before);
        assert_eq!(
            observed.try_iter().next(),
            None,
            "the app saw a relayed token"
        );
        assert_eq!(actor.count(NodeCount::ForeignGrantsIgnored), 1);
        // From its owner, the same grant is a leader's word.
        actor.on_message(owner, grant, ctx);
        assert_eq!(actor.remote_lease_of(GROUP).map(|l| l.token), Some(token));
        assert!(observed.try_iter().any(|seen| seen == token));
        assert_eq!(actor.count(NodeCount::ForeignGrantsIgnored), 1);
    });
}

#[test]
fn a_lease_that_expired_before_the_tick_is_dropped_not_renewed() {
    // The wall-clock runtime's crash/recover parks a leader with its
    // state: its frozen ALIVE tick fires on resume, however long after
    // the lease ran out — by then a successor may be serving. (Here the
    // only other member is a listener, so the leadership stays
    // uncontested and the re-mint can be watched.)
    let (leader, follower) = (NodeId(0), NodeId(1));
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        2,
        Box::new(move |node, _inc| {
            let join = if node == leader {
                JoinConfig::candidate()
            } else {
                JoinConfig::listener()
            };
            let config =
                ServiceConfig::full_mesh(node, 2, ElectorKind::OmegaL).with_auto_join(GROUP, join);
            let mut service = ServiceNode::new(config);
            service.install_app(Box::new(TestApp::default()));
            service
        }),
        perfect_links(),
        61,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    assert_eq!(agreed_leader(&world, GROUP).map(|l| l.node), Some(leader));
    let t_d = JoinConfig::candidate().qos.detection_time();
    let ms = SimDuration::from_millis(1);

    // From here the leader is driven by hand, on a clock of its own.
    world.with_actor(leader, &mut obs, |actor, _ctx| {
        let at = |now| ServiceContext::new(now, leader, 0);
        let held = actor.lease_of(GROUP).expect("the leader holds a lease");
        let resumed = held.expires_at() + ms;
        let mut tick = at(resumed);
        actor.on_timer(ALIVE_TIMER, &mut tick);
        assert_eq!(actor.lease_of(GROUP), None, "an expired lease revived");
        let granted = tick.into_effects().into_iter().any(|effect| {
            matches!(
                effect,
                sle_sim::Effect::Send {
                    msg: ServiceMessage::LeaseGrant { .. },
                    ..
                }
            )
        });
        assert!(!granted, "a LeaseGrant went out under the expired lease");
        let request = ServiceMessage::ClientRequest {
            group: GROUP,
            session: 1,
            seq: 0,
            payload: 7,
        };
        actor.on_message(follower, request, &mut at(resumed));
        assert_eq!(actor.count(NodeCount::RequestsApplied), 0);
        assert_eq!(actor.count(NodeCount::RequestsRedirected), 1);

        // Still the elector's output, it leads through a whole settle
        // delay again before it mints — ranked, like any accused leader,
        // by the instant of the accusation, so above the old token.
        actor.on_timer(ALIVE_TIMER, &mut at(resumed + t_d.mul_f64(0.5)));
        assert_eq!(actor.lease_of(GROUP), None, "minted before settling");
        actor.on_timer(ALIVE_TIMER, &mut at(resumed + t_d.mul_f64(1.5)));
        let minted = actor.lease_of(GROUP).expect("re-minted after T_D");
        assert!(
            minted.token > held.token,
            "{} ≤ {}",
            minted.token,
            held.token
        );
        assert_eq!(minted.token.accusation_time, resumed);
    });
}

#[test]
fn replayed_stale_accusation_is_ignored_after_elector_recreation() {
    // Node 2 joins as a listener; its elector life later restarts when
    // it upgrades to candidate (the join_group recreation site). An
    // ACCUSE minted against the pre-upgrade elector life must not be
    // honoured by the recreated one.
    let n = 3;
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let join = if node == NodeId(2) {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            let config =
                ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL).with_auto_join(GROUP, join);
            ServiceNode::new(config)
        }),
        perfect_links(),
        67,
    );
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let before = agreed_leader(&world, GROUP).expect("settled leader");
    assert_ne!(before.node, NodeId(2));

    // Upgrade node 2 to candidate: the elector is recreated with an
    // epoch floor above everything its previous life advertised.
    world.with_actor(NodeId(2), &mut obs, |actor, ctx| {
        let process = actor.register_process();
        actor
            .join_group(process, GROUP, JoinConfig::candidate(), ctx)
            .expect("upgrade to candidate");
        // Replay a duplicated stale ACCUSE from the pre-upgrade life
        // (epoch 0 was current before the recreation). Both copies must
        // be dropped by the stale-epoch guard.
        for _ in 0..2 {
            actor.on_message(
                NodeId(0),
                ServiceMessage::Accuse {
                    accusations: vec![(GROUP, 0)],
                },
                ctx,
            );
        }
        assert_eq!(actor.count(NodeCount::StaleAccusationsIgnored), 2);
    });

    // The replays must not have perturbed the election: the settled
    // leader is still in office after another settling period.
    world.run_for(SimDuration::from_secs(5), &mut obs);
    let after = agreed_leader(&world, GROUP).expect("leader after replay");
    assert_eq!(after, before, "a replayed stale ACCUSE changed leadership");
}

#[test]
fn an_accuse_list_applies_each_entry_at_its_own_epoch() {
    // One ACCUSE names several groups; each entry meets the stale-epoch
    // guard on its own, so a list mixing a stale and a current epoch
    // drops (and counts) only the stale one.
    let (g1, g2) = (GroupId(1), GroupId(2));
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc);
    let mut node = ServiceNode::new(config);
    let at = |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
    for group in [g1, g2] {
        let process = node.register_process();
        node.join_group(process, group, JoinConfig::candidate(), &mut at(0))
            .unwrap();
    }
    let elector = |node: &ServiceNode, group| {
        let elector = &node.groups.get(group).unwrap().elector;
        (elector.epoch(), elector.accusation_time())
    };
    let accuse = |accusations| ServiceMessage::Accuse { accusations };
    // An empty list changes nothing and draws no reply.
    let alive_epoch = node.alive_epoch;
    let mut ctx = at(10);
    node.on_message(NodeId(1), accuse(Vec::new()), &mut ctx);
    assert!(
        ctx.into_effects().is_empty(),
        "an empty ACCUSE drew effects"
    );
    assert_eq!(node.alive_epoch, alive_epoch);
    assert_eq!(elector(&node, g1), (0, SimInstant::ZERO));
    assert_eq!(elector(&node, g2), (0, SimInstant::ZERO));
    // Group 1 is accused at its current epoch 0, which moves it to 1…
    node.on_message(NodeId(1), accuse(vec![(g1, 0)]), &mut at(20));
    let accused_at = SimInstant::from_nanos(20_000_000);
    assert_eq!(elector(&node, g1), (1, accused_at));
    // …so a list naming epoch 0 in both groups is stale in group 1 only.
    node.on_message(NodeId(1), accuse(vec![(g1, 0), (g2, 0)]), &mut at(30));
    assert_eq!(node.count(NodeCount::StaleAccusationsIgnored), 1);
    assert_eq!(elector(&node, g1), (1, accused_at));
    assert_eq!(elector(&node, g2), (1, SimInstant::from_nanos(30_000_000)));
}

#[test]
fn a_peer_resuming_at_its_old_version_is_pulled_after_its_members_expired() {
    // The wall-clock runtime's crash/recover parks a node with its state:
    // it comes back with the incarnation and version its peers already
    // applied. If they expired its members meanwhile, the unchanged
    // digest must not pass for "in sync".
    let peer = NodeId(1);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
    let mut node = ServiceNode::new(config);
    let at = |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
    let process = node.register_process();
    node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(0))
        .unwrap();
    let hello = |announcements| ServiceMessage::Hello {
        incarnation: 0,
        version: 1,
        sent_at: SimInstant::ZERO,
        pull: false,
        announcements,
    };
    // A listener: nothing but HELLOs keeps it in the membership.
    let list = Arc::from([GroupAnnouncement {
        group: GROUP,
        processes: vec![(ProcessId::new(peer, 0), false)],
    }]);
    node.on_message(peer, hello(HelloList::Full(list)), &mut at(10));
    assert_eq!(node.remote_members_of(GROUP).len(), 1);
    // Digests keep it there past the membership timeout…
    for second in 1..=8 {
        node.on_message(peer, hello(HelloList::Omitted), &mut at(second * 1000));
        node.on_timer(HELLO_TIMER, &mut at(second * 1000 + 1));
        assert_eq!(node.remote_members_of(GROUP).len(), 1, "second {second}");
    }
    // …and their absence expires it.
    for second in 9..=15 {
        node.on_timer(HELLO_TIMER, &mut at(second * 1000 + 1));
    }
    assert!(node.remote_members_of(GROUP).is_empty());
    // The peer resumes where it stopped: same incarnation, same version.
    let mut ctx = at(16_000);
    node.on_message(peer, hello(HelloList::Omitted), &mut ctx);
    let pulled = ctx.into_effects().into_iter().any(|effect| {
        matches!(
            effect,
            sle_sim::Effect::Send {
                to,
                msg: ServiceMessage::Hello { pull: true, .. },
            } if to == peer
        )
    });
    assert!(
        pulled,
        "the resumed peer's digest must be answered with a pull"
    );
}

#[test]
fn a_member_takes_hellos_listing_one_two_and_five_processes_in_turn() {
    // One process is held inline, more on the heap: the list a member
    // entry shows must be the list the last HELLO named, whatever its
    // length, and a leave that shrinks it back to one keeps the rest.
    let peer = NodeId(1);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
    let mut node = ServiceNode::new(config);
    let at = |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
    let process = node.register_process();
    node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(0))
        .unwrap();
    let listing = |n: u32| -> Vec<(ProcessId, bool)> {
        (0..n)
            .map(|l| (ProcessId::new(peer, l), l % 2 == 0))
            .collect()
    };
    for (version, n) in [(1, 1), (2, 2), (3, 5)] {
        let hello = ServiceMessage::Hello {
            incarnation: 0,
            version,
            sent_at: SimInstant::ZERO,
            pull: false,
            announcements: HelloList::Full(Arc::from([GroupAnnouncement {
                group: GROUP,
                processes: listing(n),
            }])),
        };
        node.on_message(peer, hello, &mut at(10 * version));
        assert_eq!(node.remote_members_of(GROUP), vec![(peer, listing(n))]);
    }
    for gone in (1..5).rev() {
        let leave = ServiceMessage::Leave {
            group: GROUP,
            process: ProcessId::new(peer, gone),
        };
        node.on_message(peer, leave, &mut at(100));
        assert_eq!(node.remote_members_of(GROUP), vec![(peer, listing(gone))]);
    }
    let member = node.groups.get(GROUP).and_then(|s| s.rows.member(peer));
    assert!(member.is_some_and(|m| m.has_candidate()));
}

#[test]
fn a_restart_resets_the_link_estimate_of_a_peer_no_group_lists() {
    // The peer's link record is the one estimate every group reads. A new
    // incarnation restarts the peer's sequence numbers, so the old
    // life's loss window must go even when no group lists the peer.
    let peer = NodeId(1);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
    let mut node = ServiceNode::new(config);
    let at = |ms: u64| ServiceContext::new(SimInstant::from_nanos(ms * 1_000_000), NodeId(0), 0);
    let process = node.register_process();
    node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(0))
        .unwrap();
    let eta = SimDuration::from_millis(250);
    for seq in 0..8u64 {
        let sent_at = SimInstant::from_nanos((seq + 1) * 250_000_000);
        let alive = ServiceMessage::Alive {
            group: GROUP,
            header: AliveHeader {
                incarnation: 1,
                seq,
                sent_at,
                sending_interval: eta,
                requested_interval: eta,
            },
            payload: sle_election::AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(peer, 0),
        };
        node.on_message(peer, alive, &mut at((seq + 1) * 250 + 1));
    }
    let recorded = |node: &ServiceNode| {
        let slot = node.peers.find(peer).expect("contacted");
        node.peers.heartbeats_recorded(slot)
    };
    assert_eq!(recorded(&node), 8);
    let leave = ServiceMessage::Leave {
        group: GROUP,
        process: ProcessId::new(peer, 0),
    };
    node.on_message(peer, leave, &mut at(2_100));
    assert!(node.remote_members_of(GROUP).is_empty());
    // The peer restarts; its new life's first word is a digest.
    let hello = ServiceMessage::Hello {
        incarnation: 2,
        version: 0,
        sent_at: SimInstant::from_nanos(3_000_000_000),
        pull: false,
        announcements: HelloList::Omitted,
    };
    node.on_message(peer, hello, &mut at(3_000));
    assert_eq!(recorded(&node), 0, "the old life's estimate survived");
}

#[test]
fn a_restart_resets_the_monitor_in_the_row_the_list_later_fills() {
    // A restart takes the peer's membership but keeps its row, with a
    // monitor reset at the restart: the grace it gives the new life runs
    // from the restart, not from when the new life's list arrives.
    let peer = NodeId(1);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
    let mut node = ServiceNode::new(config);
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let process = node.register_process();
    (node.join_group(process, GROUP, JoinConfig::candidate(), &mut at(ms(0)))).unwrap();
    let hello = |incarnation, sent_at, announcements| ServiceMessage::Hello {
        incarnation,
        version: 0,
        sent_at,
        pull: false,
        announcements,
    };
    let processes = vec![(ProcessId::new(peer, 0), true)];
    let list = HelloList::Full(Arc::from([GroupAnnouncement {
        group: GROUP,
        processes: processes.clone(),
    }]));
    let deadline = |node: &ServiceNode| {
        let row = node.groups.get(GROUP).and_then(|s| s.rows.get(peer));
        let monitor = row.and_then(|row| row.monitor.as_ref());
        monitor.and_then(|m| m.next_deadline(&node.peers))
    };
    node.on_message(peer, hello(1, ms(100), list.clone()), &mut at(ms(100)));
    assert_eq!(deadline(&node), Some(ms(1_100)));
    // The peer restarts; its new life's first word is a digest.
    let restart = ms(3_000);
    node.on_message(
        peer,
        hello(2, restart, HelloList::Omitted),
        &mut at(restart),
    );
    let t_d = SimDuration::from_secs(1);
    assert!(node.remote_members_of(GROUP).is_empty());
    assert_eq!(deadline(&node), Some(restart + t_d));
    // Its list arrives later and fills the same row.
    node.on_message(peer, hello(2, ms(3_500), list), &mut at(ms(3_500)));
    assert_eq!(node.remote_members_of(GROUP), vec![(peer, processes)]);
    assert_eq!(deadline(&node), Some(restart + t_d));
}

#[test]
fn a_restarted_peer_that_leaves_a_group_out_loses_its_row_there() {
    // Node 2 is in the group in its first life only. Its restart leaves
    // node 0 a row for it with a fresh monitor and no membership. The
    // suspicion that monitor raises counts the silence since the restart,
    // and the row goes once quiet past the membership timeout, within one
    // HELLO interval.
    let n = 3;
    let registry = sle_obs::Registry::default();
    let cells = registry.clone();
    let mut world = World::new(
        n,
        Box::new(move |node, incarnation| {
            let mut config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL);
            if node != NodeId(2) || incarnation == 0 {
                config = config.with_auto_join(GROUP, JoinConfig::candidate());
            }
            let mut service = ServiceNode::new(config);
            let ring = sle_obs::TraceRing::new(64);
            service.set_instruments(NodeInstruments::new(&cells, ring, node));
            service
        }),
        delayed_links(SimDuration::from_millis(10)),
        23,
    );
    let secs = SimInstant::from_secs_f64;
    world.schedule_crash(NodeId(2), secs(5.5));
    world.schedule_recovery(NodeId(2), secs(6.0));
    // Node 0 hears the new life's start HELLO one link delay later.
    let restart = secs(6.01);
    let row_of_2 = |world: &World<ServiceNode, SimulatedNetwork>| {
        let node = world.actor(NodeId(0)).unwrap();
        let row = node.groups.get(GROUP).unwrap().rows.get(NodeId(2));
        row.map(|row| {
            (
                row.member.is_some(),
                row.monitor.as_ref().map(|m| m.is_trusted()),
            )
        })
    };
    world.run_until(secs(6.5), &mut NullObserver);
    assert_eq!(row_of_2(&world), Some((false, Some(true))));
    let members = world.actor(NodeId(0)).unwrap().remote_members_of(GROUP);
    assert_eq!(
        members,
        vec![(NodeId(1), vec![(ProcessId::new(NodeId(1), 0), true)])]
    );
    let timeout = ServiceConfig::full_mesh(NodeId(0), n, ElectorKind::OmegaL).membership_timeout;
    world.run_until(
        restart + timeout - SimDuration::from_millis(1),
        &mut NullObserver,
    );
    assert_eq!(row_of_2(&world), Some((false, Some(false))));
    let detections = registry.histogram("node.0.fd.detection_ns").snapshot();
    assert!(detections.count > 0);
    assert_eq!(detections.buckets[0], 0, "a 0 ns detection: {detections:?}");
    let pulls = |world: &World<ServiceNode, SimulatedNetwork>| {
        world
            .actor(NodeId(0))
            .unwrap()
            .count(NodeCount::HelloPullsSent)
    };
    let pulled = pulls(&world);
    world.run_until(
        restart + timeout + SimDuration::from_secs(1),
        &mut NullObserver,
    );
    assert_eq!(row_of_2(&world), None);
    // The applied list is the new life's and already leaves the group out:
    // the expiry is no reason to pull it again.
    assert_eq!(pulls(&world), pulled);
    world.run_until(secs(60.0), &mut NullObserver);
    let node = world.actor(NodeId(0)).unwrap();
    assert_eq!(node.fd_params_of(GROUP, NodeId(2)), None);
    let slot = node.peers.find(NodeId(2)).unwrap();
    assert!(node.peers[slot].groups.is_empty());
}

#[test]
fn a_restarted_listener_gets_no_monitor() {
    // Node 2 only listens in the group: no row of it is monitored, before
    // its crash or after its restart, so it is never suspected there and no
    // detection of it is sampled. Its restart takes the membership, which
    // is all its row held, and the new life's list brings the row back.
    let n = 3;
    let mut world = World::new(
        n,
        Box::new(move |node, _| {
            let join = if node == NodeId(2) {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL);
            ServiceNode::new(config.with_auto_join(GROUP, join))
        }),
        delayed_links(SimDuration::from_millis(10)),
        29,
    );
    let secs = SimInstant::from_secs_f64;
    world.schedule_crash(NodeId(2), secs(10.3));
    world.schedule_recovery(NodeId(2), secs(12.0));
    let unmonitored = |world: &World<ServiceNode, SimulatedNetwork>| {
        let node = world.actor(NodeId(0)).unwrap();
        node.fd_params_of(GROUP, NodeId(2)).is_none()
    };
    let listener = vec![(NodeId(2), vec![(ProcessId::new(NodeId(2), 0), false)])];
    let listed = |world: &World<ServiceNode, SimulatedNetwork>| {
        let members = world.actor(NodeId(0)).unwrap().remote_members_of(GROUP);
        members
            .into_iter()
            .filter(|(peer, _)| *peer == NodeId(2))
            .collect::<Vec<_>>()
    };
    world.run_until(secs(9.0), &mut NullObserver);
    assert_eq!(listed(&world), listener);
    while world.now() < secs(60.0) {
        world.step(&mut NullObserver);
        assert!(unmonitored(&world), "n2 monitored at {}", world.now());
    }
    // The new life is a listener of the group again at node 0.
    assert_eq!(listed(&world), listener);
}

#[test]
fn a_start_sends_each_peer_one_full_list_that_pulls() {
    // 20 auto-joined groups, 18 configured peers: one HELLO per peer, not
    // a partial per group and peer plus a digest.
    let peers = (0..=18).map(NodeId).collect();
    let mut config = ServiceConfig::new(NodeId(0), peers, ElectorKind::OmegaL);
    for group in (1..=20).map(GroupId) {
        config = config.with_auto_join(group, JoinConfig::candidate());
    }
    let mut node = ServiceNode::new(config);
    let mut ctx = at(SimInstant::ZERO);
    node.on_start(&mut ctx);
    let hellos: Vec<_> = (ctx.into_effects().into_iter())
        .filter_map(|effect| match effect {
            sle_sim::Effect::Send {
                to,
                msg:
                    ServiceMessage::Hello {
                        pull,
                        announcements,
                        ..
                    },
            } => Some((to, pull, announcements)),
            _ => None,
        })
        .collect();
    let to: Vec<NodeId> = hellos.iter().map(|&(to, ..)| to).collect();
    assert_eq!(to, (1..=18).map(NodeId).collect::<Vec<_>>());
    for (peer, pull, announcements) in hellos {
        assert!(pull, "the start's HELLO to {peer} does not pull");
        match announcements {
            HelloList::Full(list) => assert_eq!(list.len(), 20, "the list to {peer}"),
            other => panic!("{peer} was sent {other:?}, not a full list"),
        }
    }
    assert_eq!(node.count(NodeCount::HelloFullSent), 18);
    // The start's pull is not one sent because the node was behind.
    assert_eq!(node.count(NodeCount::HelloPullsSent), 0);
}

#[test]
fn a_recovered_node_knows_its_peers_lists_two_link_delays_after_recovery() {
    // The start's pull makes every peer answer with its full list, so the
    // restarted node knows the membership one round trip after recovering,
    // before the first HELLO tick (at 21 s) could get the lists pulled.
    // Node 3 is a listener and sends no ALIVE: only a list can name it.
    let n = 4;
    let delay = SimDuration::from_millis(10);
    let mut world = World::new(
        n,
        Box::new(move |node, _inc| {
            let join = if node == NodeId(3) {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL);
            ServiceNode::new(config.with_auto_join(GROUP, join))
        }),
        delayed_links(delay),
        11,
    );
    let (restarted, recovery) = (NodeId(0), SimInstant::from_secs_f64(20.3));
    world.schedule_crash(restarted, SimInstant::from_secs_f64(10.3));
    world.schedule_recovery(restarted, recovery);
    world.run_until(recovery + delay * 2, &mut NullObserver);
    let announced: Vec<_> = (1..n as u32)
        .map(NodeId)
        .map(|peer| (peer, vec![(ProcessId::new(peer, 0), peer != NodeId(3))]))
        .collect();
    let node = world.actor(restarted).expect("recovered");
    assert_eq!(node.remote_members_of(GROUP), announced);
}

/// Node 0's callback context at `now`.
fn at(now: SimInstant) -> ServiceContext {
    ServiceContext::new(now, NodeId(0), 0)
}

/// One node driven by hand: the timers its callbacks arm are kept and fired
/// earliest first within a step budget, so a tick that re-arms at the
/// instant it fires fails a test instead of hanging it. A timer armed in
/// the past fires at once, as the simulator fires it.
struct TimerDrive {
    node: ServiceNode,
    timers: BTreeMap<TimerTag, SimInstant>,
}

impl TimerDrive {
    /// Starts `config`'s node at time zero.
    fn start(config: ServiceConfig) -> Self {
        Self::start_at(config, SimInstant::ZERO)
    }

    /// Starts `config`'s node at `now`.
    fn start_at(config: ServiceConfig, now: SimInstant) -> Self {
        let mut drive = TimerDrive {
            node: ServiceNode::new(config),
            timers: BTreeMap::new(),
        };
        let mut ctx = at(now);
        drive.node.on_start(&mut ctx);
        drive.settle(ctx);
        drive
    }

    /// Keeps one callback's timers; returns its sends.
    fn settle(&mut self, ctx: ServiceContext) -> Vec<(NodeId, ServiceMessage)> {
        let now = ctx.now();
        let mut sends = Vec::new();
        for effect in ctx.into_effects() {
            match effect {
                sle_sim::Effect::SetTimer { tag, at } => drop(self.timers.insert(tag, at.max(now))),
                sle_sim::Effect::CancelTimer { tag } => drop(self.timers.remove(&tag)),
                sle_sim::Effect::Send { to, msg } => sends.push((to, msg)),
                sle_sim::Effect::Emit(_) => {}
            }
        }
        sends
    }

    /// Delivers `msg` from `from` at `now`; returns what the node sent.
    fn deliver(
        &mut self,
        from: NodeId,
        msg: ServiceMessage,
        now: SimInstant,
    ) -> Vec<(NodeId, ServiceMessage)> {
        let mut ctx = at(now);
        self.node.on_message(from, msg, &mut ctx);
        self.settle(ctx)
    }

    /// Fires the earliest timer armed at or before `end`, if any: when it
    /// fired, and what it sent.
    fn step(&mut self, end: SimInstant) -> Option<(SimInstant, Vec<(NodeId, ServiceMessage)>)> {
        let next = self.timers.iter().min_by_key(|&(&tag, &at)| (at, tag));
        let (&tag, &when) = next.filter(|&(_, &when)| when <= end)?;
        self.timers.remove(&tag);
        let mut ctx = at(when);
        self.node.on_timer(tag, &mut ctx);
        Some((when, self.settle(ctx)))
    }

    /// Fires timers up to `end`, within a budget of 10 000 steps: what they
    /// sent, or `None` if the budget ran out first.
    fn run_to(&mut self, end: SimInstant) -> Option<Vec<(NodeId, ServiceMessage)>> {
        let mut sends = Vec::new();
        for _ in 0..10_000 {
            let Some((_, sent)) = self.step(end) else {
                return Some(sends);
            };
            sends.extend(sent);
        }
        None
    }
}

#[test]
fn the_hello_tick_keeps_to_the_node_wide_grid() {
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_hello_interval(SimDuration::from_secs(1));
    let mut node = ServiceNode::new(config);
    let hello_armed = |ctx: ServiceContext| {
        ctx.into_effects()
            .into_iter()
            .find_map(|effect| match effect {
                sle_sim::Effect::SetTimer { tag, at } if tag == HELLO_TIMER => Some(at),
                _ => None,
            })
    };
    let secs = SimInstant::from_secs_f64;
    // A node started (or restarted) off the grid snaps onto it ...
    let mut ctx = at(secs(1.3));
    node.on_start(&mut ctx);
    assert_eq!(hello_armed(ctx), Some(secs(2.0)));
    // ... a late fire does not carry its lateness into the next tick ...
    let mut ctx = at(secs(2.004));
    node.on_timer(HELLO_TIMER, &mut ctx);
    assert_eq!(hello_armed(ctx), Some(secs(3.0)));
    // ... and one on time re-arms a whole interval on.
    let mut ctx = at(secs(3.0));
    node.on_timer(HELLO_TIMER, &mut ctx);
    assert_eq!(hello_armed(ctx), Some(secs(4.0)));
}

#[test]
fn a_zero_hello_interval_ticks_at_the_floor() {
    // A HELLO interval of 0 re-armed the tick at the instant it fired;
    // the step budget turns that into a failure, not a hang.
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_hello_interval(SimDuration::ZERO);
    let mut drive = TimerDrive::start(config);
    let end = SimInstant::from_secs_f64(1.0);
    let sends = drive
        .run_to(end)
        .unwrap_or_else(|| panic!("the step budget ran out before {end}: the tick spins"));
    let digests = sends
        .iter()
        .filter(|(to, msg)| *to == NodeId(1) && matches!(msg, ServiceMessage::Hello { .. }))
        .count();
    // One per 5 ms tick of the floored grid.
    assert_eq!(digests, 200);
}

#[test]
fn a_zero_interval_request_is_served_at_the_floor() {
    // A member asking for ALIVEs every 0 ns would re-arm the tick every
    // nanosecond; the step budget turns that into a failure, not a hang.
    let peer = NodeId(1);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let asked_at = SimInstant::from_nanos(10_000_000);
    drive.run_to(asked_at);
    let alive = ServiceMessage::Alive {
        group: GROUP,
        header: AliveHeader {
            incarnation: 1,
            seq: 0,
            sent_at: asked_at,
            sending_interval: SimDuration::from_millis(250),
            requested_interval: SimDuration::ZERO,
        },
        payload: sle_election::AlivePayload {
            accusation_time: SimInstant::ZERO,
            epoch: 0,
            local_leader: None,
        },
        representative: ProcessId::new(peer, 0),
    };
    let mut ctx = at(asked_at);
    drive.node.on_message(peer, alive, &mut ctx);
    drive.settle(ctx);
    let end = asked_at + SimDuration::from_secs(1);
    let sends = drive
        .run_to(end)
        .unwrap_or_else(|| panic!("the step budget ran out before {end}: the tick spins"));
    let alive_datagram = |msg: &ServiceMessage| {
        matches!(
            msg,
            ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. }
        )
    };
    let sent = (sends.iter())
        .filter(|(to, msg)| *to == peer && alive_datagram(msg))
        .count();
    // The tick already armed keeps its 250 ms rhythm once; from then on
    // the member is served every 5 ms.
    assert!(
        (150..=201).contains(&sent),
        "{sent} ALIVE datagrams in one second"
    );
}

#[test]
fn each_destination_is_asked_for_its_own_interval_in_ascending_groups() {
    // Three groups at T_D 1, 2 and 4 s. Node 1 is a candidate whose batch
    // gave it a monitor in each; node 2 a listener, which no monitor
    // watches, so it is asked for a quarter of each group's T_D. The plan
    // holds each group's entry once: the η must still be per destination.
    let (candidate, listener) = (NodeId(1), NodeId(2));
    let groups = [GroupId(1), GroupId(2), GroupId(3)];
    let qos = |group: GroupId| {
        let t_d = SimDuration::from_secs(1 << (group.0 - 1));
        sle_fd::QosSpec::paper_default_with_detection(t_d)
    };
    let mut config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaLc);
    for group in groups {
        config = config.with_auto_join(group, JoinConfig::candidate().with_qos(qos(group)));
    }
    let mut drive = TimerDrive::start(config);
    let heard = SimInstant::from_nanos(10_000_000);
    drive.run_to(heard);
    let eta = SimDuration::from_millis(250);
    let entry = |group| GroupAlive {
        group,
        sending_interval: eta,
        requested_interval: eta,
        payload: sle_election::AlivePayload {
            accusation_time: SimInstant::ZERO,
            epoch: 0,
            local_leader: None,
        },
        representative: ProcessId::new(candidate, 0),
    };
    let batch = ServiceMessage::AliveBatch {
        incarnation: 1,
        seq: 0,
        sent_at: heard,
        alives: groups.map(entry).to_vec(),
    };
    let listing = |group| GroupAnnouncement {
        group,
        processes: vec![(ProcessId::new(listener, 0), false)],
    };
    let hello = ServiceMessage::Hello {
        incarnation: 1,
        version: 1,
        sent_at: heard,
        pull: false,
        announcements: HelloList::Full(groups.map(listing).into()),
    };
    for (from, msg) in [(candidate, batch), (listener, hello)] {
        let mut ctx = at(heard);
        drive.node.on_message(from, msg, &mut ctx);
        drive.settle(ctx);
    }
    let end = heard + SimDuration::from_secs(1);
    let sends = drive.run_to(end).expect("within the step budget");
    let node = &drive.node;
    let monitored = |group| node.fd_params_of(group, candidate).expect("monitored");
    let quarter = |group| qos(group).detection_time().mul_f64(0.25);
    let wanted = [
        (candidate, groups.map(|g| (g, monitored(g).interval))),
        (listener, groups.map(|g| (g, quarter(g)))),
    ];
    assert!((groups.iter()).all(|&g| node.fd_params_of(g, listener).is_none()));
    assert_ne!(wanted[0].1, wanted[1].1, "the two destinations ask alike");
    for (dest, wanted) in wanted {
        let mut seen = BTreeMap::new();
        for (_, msg) in sends.iter().filter(|(to, _)| *to == dest) {
            let asked: Vec<_> = match msg {
                ServiceMessage::Alive { group, header, .. } => {
                    vec![(*group, header.requested_interval)]
                }
                ServiceMessage::AliveBatch { alives, .. } => (alives.iter())
                    .map(|alive| (alive.group, alive.requested_interval))
                    .collect(),
                _ => continue,
            };
            let ascending = asked.is_sorted_by_key(|&(group, _)| group);
            assert!(ascending, "to {dest}: {asked:?}");
            for (group, interval) in asked {
                let want = (wanted.iter()).find(|w| w.0 == group).expect("joined");
                assert_eq!(interval, want.1, "to {dest} in {group:?}");
                *seen.entry(group).or_insert(0) += 1;
            }
        }
        assert_eq!(seen.len(), groups.len(), "to {dest}: {seen:?}");
    }
}

#[test]
fn a_repeat_after_suspicions_is_applied_and_revives_the_sender() {
    // The peer lists groups 1 (T_D 1 s) and 2 (T_D 8 s), then falls
    // silent. Group 1 suspects it first, group 2 later; both rows stay
    // vouched for and hold what the peer last said. The peer's next
    // datagram says the same, but a suspecting monitor holds no repeat:
    // it is applied entry by entry and revives the peer in both, and the
    // datagram after it is a repeat again. (The rows outlive the
    // silence: the membership timeout is 30 s.)
    let peer = NodeId(1);
    let groups = [GroupId(1), GroupId(2)];
    let slow = sle_fd::QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
    let mut config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_auto_join(groups[0], JoinConfig::candidate())
        .with_auto_join(groups[1], JoinConfig::candidate().with_qos(slow));
    config.membership_timeout = SimDuration::from_secs(30);
    let mut drive = TimerDrive::start(config);
    let eta = SimDuration::from_millis(250);
    let batch = |seq, sent_at| ServiceMessage::AliveBatch {
        incarnation: 1,
        seq,
        sent_at,
        alives: (groups.iter())
            .map(|&group| GroupAlive {
                group,
                sending_interval: eta,
                requested_interval: eta,
                payload: sle_election::AlivePayload {
                    accusation_time: SimInstant::ZERO,
                    epoch: 0,
                    local_leader: None,
                },
                representative: ProcessId::new(peer, 0),
            })
            .collect(),
    };
    let deliver = |drive: &mut TimerDrive, seq, now| {
        let mut ctx = at(now);
        drive.node.on_message(peer, batch(seq, now), &mut ctx);
        drive.settle(ctx);
    };
    let held = |drive: &TimerDrive| {
        let monitor = |&g| drive.node.groups.get(g).unwrap().rows.monitor(peer);
        let vouched = |g| monitor(g).is_some_and(sle_fd::PeerMonitor::is_vouched);
        groups.iter().filter(|&g| vouched(g)).count()
    };
    let trusted = |drive: &TimerDrive| {
        let monitor = |g| drive.node.groups.get(g).unwrap().rows.monitor(peer);
        groups.map(|g| monitor(g).is_some_and(sle_fd::PeerMonitor::is_trusted))
    };
    let secs = |s: f64| SimInstant::from_secs_f64(s);
    drive.run_to(secs(0.01));
    deliver(&mut drive, 0, secs(0.01));
    assert_eq!((held(&drive), trusted(&drive)), (2, [true, true]));
    drive.run_to(secs(4.0)).expect("within the step budget");
    assert_eq!((held(&drive), trusted(&drive)), (2, [false, true]));
    drive.run_to(secs(12.0)).expect("within the step budget");
    assert_eq!((held(&drive), trusted(&drive)), (2, [false, false]));
    let paths = |drive: &TimerDrive| {
        let count = |count| drive.node.count(count);
        (
            count(NodeCount::AliveUnchanged),
            count(NodeCount::AliveApplied),
        )
    };
    let (unchanged, applied) = paths(&drive);
    deliver(&mut drive, 1, secs(12.0));
    assert_eq!(paths(&drive), (unchanged, applied + 1));
    assert_eq!((held(&drive), trusted(&drive)), (2, [true, true]));
    deliver(&mut drive, 2, secs(12.25));
    assert_eq!(paths(&drive), (unchanged + 1, applied + 1));
}

#[test]
fn a_stale_alive_does_not_make_a_suspected_peer_the_leader() {
    // Node 0 listens under Ω_l; node 1's ALIVE sent at 0.01 s is the last
    // it hears in time, so it suspects node 1 by 3 s. A copy sent at
    // 0.02 s then arrives at 3 s, too old to revive the monitor: its
    // payload is kept, but the peer it names stays suspected and unranked
    // until the membership times out.
    let (peer, group) = (NodeId(1), GroupId(1));
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL)
        .with_auto_join(group, JoinConfig::listener());
    let mut drive = TimerDrive::start(config);
    let eta = SimDuration::from_millis(250);
    let deliver = |drive: &mut TimerDrive, seq, sent_at, now| {
        let alive = ServiceMessage::Alive {
            group,
            header: AliveHeader {
                incarnation: 1,
                seq,
                sent_at,
                sending_interval: eta,
                requested_interval: eta,
            },
            payload: sle_election::AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(peer, 0),
        };
        let mut ctx = at(now);
        drive.node.on_message(peer, alive, &mut ctx);
        drive.settle(ctx);
    };
    let suspected = |drive: &TimerDrive| {
        let monitor = drive.node.groups.get(group).unwrap().rows.monitor(peer);
        monitor.is_some_and(|monitor| !monitor.is_trusted())
    };
    let secs = |s: f64| SimInstant::from_secs_f64(s);
    drive.run_to(secs(0.01));
    deliver(&mut drive, 0, secs(0.01), secs(0.01));
    assert_eq!(drive.node.leader_of(group), Some(ProcessId::new(peer, 0)));
    drive.run_to(secs(3.0)).expect("within the step budget");
    assert!(suspected(&drive));
    deliver(&mut drive, 1, secs(0.02), secs(3.0));
    for until in [3.0, 5.0, 7.0, 9.0] {
        drive.run_to(secs(until)).expect("within the step budget");
        let row = drive.node.groups.get(group).unwrap().rows.get(peer);
        assert!(row.is_none() || suspected(&drive), "trusted at {until} s");
        assert_eq!(drive.node.leader_of(group), None, "at {until} s");
    }
}

#[test]
fn an_older_alive_leaves_the_row_at_the_newer_one() {
    // Under Ω_lc node 1's ALIVEs carry (acc 0, epoch 0) at 0.5 s and
    // (acc 0.9 s, epoch 2) at 1.0 s. A copy sent at 0.75 s — epoch 1, another
    // representative, another requested η — arrives at 1.05 s: it proves
    // node 1 was alive, and changes nothing else in its row. A newer
    // datagram repeating the late copy's contents is then applied in full,
    // not skipped as a repeat of the batch the late copy left behind.
    let (peer, group) = (NodeId(1), GroupId(1));
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_auto_join(group, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let secs = |s: f64| SimInstant::from_secs_f64(s);
    let eta = SimDuration::from_millis(250);
    let deliver = |drive: &mut TimerDrive, seq, sent: f64, (acc, epoch), local, asked, now| {
        let alive = ServiceMessage::Alive {
            group,
            header: AliveHeader {
                incarnation: 1,
                seq,
                sent_at: secs(sent),
                sending_interval: eta,
                requested_interval: asked,
            },
            payload: sle_election::AlivePayload {
                accusation_time: secs(acc),
                epoch,
                local_leader: None,
            },
            representative: ProcessId::new(peer, local),
        };
        let mut ctx = at(secs(now));
        drive.node.on_message(peer, alive, &mut ctx);
        drive.settle(ctx);
    };
    let row = |drive: &TimerDrive| {
        let rows = &drive.node.groups.get(group).unwrap().rows;
        let member = rows.get(peer).unwrap().member.clone().unwrap();
        let payload = member.payload.as_deref().unwrap();
        let monitor = rows.monitor(peer).unwrap();
        let deadline = monitor.next_deadline(&drive.node.peers);
        let fields = (
            payload.epoch,
            payload.accusation_time,
            member.representative,
        );
        (fields, member.requested_interval, deadline)
    };
    drive.run_to(secs(0.5)).expect("within the step budget");
    deliver(&mut drive, 0, 0.5, (0.0, 0), 0, eta, 0.5);
    drive.run_to(secs(1.0)).expect("within the step budget");
    deliver(&mut drive, 2, 1.0, (0.9, 2), 0, eta, 1.0);
    let newer = row(&drive);
    assert_eq!(newer.0, (2, secs(0.9), Some(ProcessId::new(peer, 0))));
    drive.run_to(secs(1.05)).expect("within the step budget");
    let late = SimDuration::from_millis(100);
    deliver(&mut drive, 1, 0.75, (0.0, 1), 1, late, 1.05);
    assert_eq!(row(&drive), newer);
    assert_eq!(
        drive
            .node
            .groups
            .get(group)
            .unwrap()
            .rows
            .get(peer)
            .unwrap()
            .last_heard,
        secs(1.05)
    );
    drive.run_to(secs(1.25)).expect("within the step budget");
    deliver(&mut drive, 3, 1.25, (0.0, 1), 1, late, 1.25);
    let fields = (1, secs(0.0), Some(ProcessId::new(peer, 1)));
    assert_eq!(row(&drive).0, fields);
    assert_eq!(row(&drive).1, late);
}

#[test]
fn a_late_copy_older_than_a_repeat_leaves_the_row_at_the_repeat() {
    // Under Ω_lc node 1 asks for ALIVEs every 100 ms in seqs 0–3 and 5–7
    // and every 50 ms in seq 4, which arrives late: after 6. Seq 0 is
    // applied and 1, 2, 3, 5 and 6 repeat it, writing no row; the late 4
    // is older than the repeat before it, so the row keeps 100 ms, and
    // node 0 never sends at 50 ms — 7 repeats the row again.
    let (peer, group) = (NodeId(1), GroupId(1));
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc)
        .with_auto_join(group, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let secs = SimInstant::from_secs_f64;
    let alive = |seq: u64| {
        let asked = SimDuration::from_millis(if seq == 4 { 50 } else { 100 });
        ServiceMessage::Alive {
            group,
            header: AliveHeader {
                incarnation: 1,
                seq,
                sent_at: secs(0.1 * (seq + 1) as f64),
                sending_interval: SimDuration::from_millis(100),
                requested_interval: asked,
            },
            payload: sle_election::AlivePayload {
                accusation_time: SimInstant::ZERO,
                epoch: 0,
                local_leader: None,
            },
            representative: ProcessId::new(peer, 0),
        }
    };
    let asked = |drive: &TimerDrive| {
        let state = drive.node.groups.get(group).unwrap();
        let member = state.rows.member(peer).unwrap();
        (member.requested_interval, state.send_interval())
    };
    let paths = |drive: &TimerDrive| {
        let count = |count| drive.node.count(count);
        (
            count(NodeCount::AliveUnchanged),
            count(NodeCount::AliveApplied),
        )
    };
    let hundred = SimDuration::from_millis(100);
    for (seq, now) in [(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4), (5, 0.6), (6, 0.7)] {
        drive.run_to(secs(now)).expect("within the step budget");
        drive.deliver(peer, alive(seq), secs(now));
    }
    assert_eq!(paths(&drive), (5, 1));
    assert_eq!(asked(&drive), (hundred, hundred));
    drive.run_to(secs(0.75)).expect("within the step budget");
    drive.deliver(peer, alive(4), secs(0.75));
    assert_eq!(paths(&drive), (5, 2));
    assert_eq!(
        asked(&drive),
        (hundred, hundred),
        "the late copy moved the row"
    );
    drive.run_to(secs(0.8)).expect("within the step budget");
    drive.deliver(peer, alive(7), secs(0.8));
    assert_eq!(paths(&drive), (6, 2));
}

/// An Ω_l ALIVE of `peer` in [`GROUP`] with sequence number `seq`, sent at
/// `sent_at` every 250 ms and asking for as much: a candidate last accused
/// at `accused`, in accusation epoch `epoch`.
fn omega_l_alive(
    peer: NodeId,
    seq: u64,
    sent_at: SimInstant,
    (accused, epoch): (SimInstant, u64),
) -> ServiceMessage {
    let eta = SimDuration::from_millis(250);
    ServiceMessage::Alive {
        group: GROUP,
        header: AliveHeader {
            incarnation: 1,
            seq,
            sent_at,
            sending_interval: eta,
            requested_interval: eta,
        },
        payload: sle_election::AlivePayload {
            accusation_time: accused,
            epoch,
            local_leader: None,
        },
        representative: ProcessId::new(peer, 0),
    }
}

/// How many of `sends` are ALIVE datagrams.
fn alives_in(sends: &[(NodeId, ServiceMessage)]) -> usize {
    let alive = |msg: &ServiceMessage| {
        matches!(
            msg,
            ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. }
        )
    };
    sends.iter().filter(|(_, msg)| alive(msg)).count()
}

/// The Ω_l leader node 0 follows: a candidate last accused at time zero.
const LEADER: NodeId = NodeId(1);

/// Node 0 of `n` workstations, joined to [`GROUP`] under Ω_l as a
/// candidate at 10 ms, so that [`LEADER`] outranks it.
fn omega_l_candidate_at_10_ms(n: usize) -> TimerDrive {
    let config = ServiceConfig::full_mesh(NodeId(0), n, ElectorKind::OmegaL);
    let mut drive = TimerDrive::start(config);
    let process = drive.node.register_process();
    let mut ctx = at(SimInstant::from_nanos(10_000_000));
    (drive
        .node
        .join_group(process, GROUP, JoinConfig::candidate(), &mut ctx))
    .unwrap();
    drive.settle(ctx);
    drive
}

/// Delivers [`LEADER`]'s ALIVEs, sent every 250 ms from 20 ms up to
/// `until`, firing the node's timers between them. Per callback: when it
/// ran, whether the ALIVE tick was armed after it, and how many ALIVE
/// datagrams it sent.
fn hear_leader(drive: &mut TimerDrive, until: SimInstant) -> Vec<(SimInstant, bool, usize)> {
    let mut log = Vec::new();
    let mut note = |drive: &TimerDrive, now, sends: &[_]| {
        log.push((
            now,
            drive.timers.contains_key(&ALIVE_TIMER),
            alives_in(sends),
        ));
    };
    let every = SimDuration::from_millis(250);
    let sent_at = |seq| SimInstant::from_nanos(20_000_000) + every * seq;
    for seq in (0..).take_while(|&seq| sent_at(seq) <= until) {
        let now = sent_at(seq);
        for _ in 0..10_000 {
            let Some((when, sends)) = drive.step(now) else {
                break;
            };
            note(drive, when, &sends);
        }
        let alive = omega_l_alive(LEADER, seq, now, (SimInstant::ZERO, 0));
        let sends = drive.deliver(LEADER, alive, now);
        note(drive, now, &sends);
    }
    log
}

#[test]
fn an_omega_l_follower_in_steady_state_arms_no_alive_tick() {
    // Node 0 competes from its join until the leader's first ALIVE, at
    // 20 ms, shows it a better-ranked candidate. From then on it sends no
    // ALIVE, so no ALIVE tick wakes it: its timers are the HELLO tick and
    // the detector timer of the leader.
    let mut drive = omega_l_candidate_at_10_ms(2);
    let log = hear_leader(&mut drive, SimInstant::from_secs_f64(5.0));
    let first = SimInstant::from_nanos(20_000_000);
    let following = log.iter().skip_while(|&&(now, ..)| now < first);
    let ticking: Vec<_> = following
        .filter(|&&(_, armed, sent)| armed || sent > 0)
        .collect();
    assert!(ticking.is_empty(), "a follower's ALIVE tick: {ticking:?}");
    assert_eq!(drive.node.leader_of(GROUP), Some(ProcessId::new(LEADER, 0)));
    assert!(!drive.node.is_competing(GROUP));
}

#[test]
fn a_follower_that_suspects_its_leader_sends_its_alive_at_that_instant() {
    // The leader falls silent after its ALIVE of 2.77 s. The detector
    // timer that suspects it makes node 0 compete again, and its first
    // ALIVE leaves in that instant, not at the next 250 ms slot.
    let mut drive = omega_l_candidate_at_10_ms(2);
    hear_leader(&mut drive, SimInstant::from_secs_f64(2.8));
    assert_eq!(drive.node.count(NodeCount::AliveReentries), 0);
    let suspected = |drive: &TimerDrive| {
        let monitor = drive.node.groups.get(GROUP).unwrap().rows.monitor(LEADER);
        monitor.is_some_and(|monitor| !monitor.is_trusted())
    };
    let end = SimInstant::from_secs_f64(10.0);
    let mut suspicion = None;
    let mut first_alive = None;
    for _ in 0..10_000 {
        let (when, sends) = drive.step(end).expect("a suspicion and an ALIVE");
        if suspicion.is_none() && suspected(&drive) {
            suspicion = Some(when);
        }
        if suspicion.is_some() && alives_in(&sends) > 0 {
            first_alive = Some(when);
            break;
        }
    }
    let suspicion = suspicion.expect("the silent leader suspected");
    assert!(drive.node.is_competing(GROUP));
    assert_eq!(first_alive, Some(suspicion), "suspected at {suspicion}");
    assert_ne!(
        suspicion,
        next_tick(
            suspicion - SimDuration::from_nanos(1),
            SimDuration::from_millis(250)
        ),
        "the suspicion fell on the grid: the test cannot tell the two apart"
    );
    assert_eq!(drive.node.count(NodeCount::AliveReentries), 1);
}

/// Node 0 of two, joined to [`GROUP`] under Ω_l at its start (time zero),
/// with node 1's list from 1 ms on: its first tick, due at 5 ms, has a
/// member to send to.
fn omega_l_candidate_knowing_its_peer() -> TimerDrive {
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    drive.deliver(
        NodeId(1),
        hello_of(0, ms(1), full_list(NodeId(1), &[GROUP])),
        ms(1),
    );
    drive
}

/// Fires `drive`'s timers up to `end`: the instants its ALIVEs left.
fn alive_instants(drive: &mut TimerDrive, end: SimInstant) -> Vec<SimInstant> {
    let mut sent = Vec::new();
    while let Some((when, sends)) = drive.step(end) {
        sent.extend((0..alives_in(&sends)).map(|_| when));
    }
    sent
}

#[test]
fn a_late_first_tick_leaves_the_first_alive_to_the_grid_slot() {
    // On time, a join's first ALIVE leaves 5 ms after it. The same tick
    // fired 15 ms late (a busy worker) sends nothing, and the first ALIVE
    // leaves on the group's 250 ms grid slot, which every join of the
    // start shares.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let mut on_time = omega_l_candidate_knowing_its_peer();
    assert_eq!(on_time.timers.get(&ALIVE_TIMER), Some(&ms(5)));
    assert_eq!(alive_instants(&mut on_time, ms(300)), [ms(5), ms(250)]);

    let mut late = omega_l_candidate_knowing_its_peer();
    assert_eq!(late.timers.remove(&ALIVE_TIMER), Some(ms(5)));
    let mut ctx = at(ms(20));
    late.node.on_timer(ALIVE_TIMER, &mut ctx);
    assert_eq!(alives_in(&late.settle(ctx)), 0);
    assert_eq!(late.node.count(NodeCount::AlivePayloadsSent), 0);
    assert_eq!(alive_instants(&mut late, ms(300)), [ms(250)]);
}

#[test]
fn a_reentry_still_fires_at_once_when_its_join_never_ticked() {
    // Node 0 joins at 10 ms and hears the leader at 12 ms, before its first
    // tick (15 ms): it withdraws, and the group keeps that first tick's due
    // time. When it suspects the silent leader, the re-entry arms the tick
    // for that slot, long passed; the tick fires on time for when it was
    // armed, so the ALIVE leaves in the instant of the suspicion.
    let mut drive = omega_l_candidate_at_10_ms(2);
    let heard = SimInstant::from_nanos(12_000_000);
    let alive = omega_l_alive(LEADER, 0, heard, (SimInstant::ZERO, 0));
    assert_eq!(alives_in(&drive.deliver(LEADER, alive, heard)), 0);
    assert!(!drive.node.is_competing(GROUP));
    let suspected = |drive: &TimerDrive| {
        let monitor = drive.node.groups.get(GROUP).unwrap().rows.monitor(LEADER);
        monitor.is_some_and(|monitor| !monitor.is_trusted())
    };
    let end = SimInstant::from_secs_f64(5.0);
    let mut suspicion = None;
    let mut first_alive = None;
    while let Some((when, sends)) = drive.step(end) {
        if suspicion.is_none() && suspected(&drive) {
            suspicion = Some(when);
        }
        if alives_in(&sends) > 0 {
            first_alive = Some(when);
            break;
        }
    }
    let suspicion = suspicion.expect("the silent leader suspected");
    assert_eq!(first_alive, Some(suspicion), "suspected at {suspicion}");
    assert_eq!(drive.node.count(NodeCount::AliveReentries), 1);
}

#[test]
fn a_leader_waiting_to_mint_keeps_ticking_until_it_mints() {
    // Node 0, alone in its group, leads once its self-election grace ends
    // at 2 s (2 T_D). Its lease waits out the settle delay, T_D = 1 s:
    // nothing but the ALIVE tick re-checks it, so the tick stays armed
    // while it leads, and the mint falls on the tick at 3 s.
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let end = SimInstant::from_secs_f64(10.0);
    let mut led_since = None;
    let mut minted = None;
    for _ in 0..10_000 {
        let Some((when, _)) = drive.step(end) else {
            break;
        };
        let state = drive.node.groups.get(GROUP).unwrap();
        led_since = led_since.or(state.led_since);
        if state.lease.is_some() {
            minted = Some(when);
            break;
        }
        if state.led_since.is_some() {
            let armed = drive.timers.get(&ALIVE_TIMER);
            assert!(
                armed.is_some(),
                "leading unminted at {when}, no ALIVE tick armed"
            );
        }
    }
    assert_eq!(led_since, Some(SimInstant::from_secs_f64(2.0)));
    assert_eq!(minted, Some(SimInstant::from_secs_f64(3.0)));
}

#[test]
fn a_group_that_withdraws_and_reenters_within_one_interval_resumes_on_its_grid() {
    // Node 0 (joined at 10 ms) leads node 1 (accused last at 20 ms) and
    // sends on its 250 ms grid. Node 2, accused last at time zero, is heard
    // at 300 ms: node 0 withdraws. Node 2 is heard again at 350 ms, accused
    // at 320 ms since: node 0 competes again, before the 500 ms slot its
    // last send left it, so it sends in that slot and not at once.
    let (member, better) = (NodeId(1), NodeId(2));
    let mut drive = omega_l_candidate_at_10_ms(3);
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let mut alives = Vec::new();
    let mut run_to = |drive: &mut TimerDrive, end| {
        while let Some((when, sends)) = drive.step(end) {
            alives.extend(std::iter::repeat_n(when, alives_in(&sends)));
        }
    };
    run_to(&mut drive, ms(20));
    drive.deliver(
        member,
        omega_l_alive(member, 0, ms(20), (ms(20), 0)),
        ms(20),
    );
    run_to(&mut drive, ms(300));
    drive.deliver(
        better,
        omega_l_alive(better, 0, ms(300), (ms(0), 0)),
        ms(300),
    );
    assert!(!drive.node.is_competing(GROUP));
    assert!(!drive.timers.contains_key(&ALIVE_TIMER));
    drive.deliver(
        better,
        omega_l_alive(better, 1, ms(350), (ms(320), 1)),
        ms(350),
    );
    assert!(drive.node.is_competing(GROUP));
    assert_eq!(drive.timers.get(&ALIVE_TIMER), Some(&ms(500)));
    run_to(&mut drive, ms(500));
    // One datagram to node 1 at 250 ms; at 500 ms one to each peer.
    assert_eq!(alives, [ms(250), ms(500), ms(500)]);
    assert_eq!(drive.node.count(NodeCount::AliveReentries), 0);
}

#[test]
fn an_accusation_that_silences_a_leader_is_announced_at_once() {
    // Node 0 leads under Ω_l from 2 s. Nodes 1 and 2, ranked below it
    // (accused last at 20 and 30 ms), are heard competing at 3 s. Then
    // node 1's ACCUSE reaches node 0: accused at 3.1 s, it ranks below
    // node 1 and withdraws. Its members still rank it by its payload from
    // before, so the ACCUSE's own callback sends each of them one ALIVE
    // with the new payload; after that node 0 sends none.
    let config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let secs = SimInstant::from_secs_f64;
    drive.run_to(secs(3.0)).expect("within the step budget");
    for (peer, accused) in [(NodeId(1), 0.02), (NodeId(2), 0.03)] {
        let alive = omega_l_alive(peer, 0, secs(3.0), (secs(accused), 1));
        drive.deliver(peer, alive, secs(3.0));
    }
    assert_eq!(
        drive.node.leader_of(GROUP),
        Some(ProcessId::new(NodeId(0), 0))
    );
    let elector = |drive: &TimerDrive| {
        let elector = &drive.node.groups.get(GROUP).unwrap().elector;
        (elector.accusation_time(), elector.epoch())
    };
    let (_, epoch) = elector(&drive);
    let accused_at = secs(3.1);
    drive.run_to(accused_at).expect("within the step budget");
    let accuse = ServiceMessage::Accuse {
        accusations: vec![(GROUP, epoch)],
    };
    let sends = drive.deliver(NodeId(1), accuse, accused_at);
    assert!(!drive.node.is_competing(GROUP));
    let now = elector(&drive);
    assert_eq!(now.0, accused_at);
    let told: Vec<_> = (sends.iter())
        .filter_map(|(to, msg)| match msg {
            ServiceMessage::Alive { payload, .. } => {
                Some((*to, (payload.accusation_time, payload.epoch)))
            }
            _ => None,
        })
        .collect();
    assert_eq!(told, [(NodeId(1), now), (NodeId(2), now)]);
    let later = drive.run_to(secs(4.0)).expect("within the step budget");
    assert_eq!(alives_in(&later), 0);
}

/// One leader-change announcement, as plain comparable data:
/// `(virtual ns, observing node, group, leader as (node, local))`.
type LeaderTraceEvent = (u64, u32, u32, Option<(u32, u32)>);

/// Records every leader-change announcement as plain data, for
/// comparing two runs event-for-event.
#[derive(Debug, Default)]
struct LeaderTrace {
    events: Vec<LeaderTraceEvent>,
}

impl Observer<ServiceEvent> for LeaderTrace {
    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = event;
        self.events.push((
            now.as_nanos(),
            node.0,
            group.0,
            leader.map(|p| (p.node.0, p.local)),
        ));
    }
}

fn crash_recover_trace(seed: u64) -> Vec<LeaderTraceEvent> {
    let n = 5;
    let medium = NetworkModel::new(LinkSpec::from_paper_tuple(10.0, 0.01)).build(seed);
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                .with_auto_join(GROUP, JoinConfig::candidate());
            ServiceNode::new(config)
        }),
        medium,
        seed,
    );
    let mut obs = LeaderTrace::default();
    world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(4.0));
    world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(9.0));
    world.schedule_crash(NodeId(3), SimInstant::from_secs_f64(12.0));
    world.run_for(SimDuration::from_secs(20), &mut obs);
    obs.events
}

#[test]
fn crash_recover_runs_are_seed_deterministic() {
    // The dense tables iterate in interned-slot or sorted-id order, not
    // tree order; a lossy medium plus crash/recover churn exercises all
    // of them. Two runs from one seed must announce the identical
    // leader-change sequence, timestamp for timestamp.
    let first = crash_recover_trace(0xD5);
    let second = crash_recover_trace(0xD5);
    assert!(
        !first.is_empty(),
        "the scenario must produce leader changes"
    );
    assert_eq!(
        first, second,
        "same seed must replay the identical leader-change trace"
    );
}

/// What one fixed-seed run adds up to, over the nodes up at its end.
#[derive(Debug, PartialEq)]
struct RunCounts {
    events: u64,
    messages: u64,
    alive_payloads: u64,
    /// Full lists, digests, pulls, stale drops, member walks.
    hello: [u64; 5],
    /// Repeated datagrams, applied datagrams, plan rebuilds.
    alive: [u64; 3],
    /// Detector fires, walks, reconfigurations.
    fd: [u64; 3],
    /// FNV-1a over the ordered `LeaderChanged` stream.
    leader_changes: u64,
}

/// Six workstations in two groups over lossy (10 ms, 0.01) links for
/// 120 virtual seconds: a listener in group 1, the first leader of group
/// 1 crashed at 20 s and recovered at 40 s, and node 3 leaving group 2 at
/// its first ALIVE datagram from 60 s (at 60.5 s if it sends none), so the
/// LEAVE races that batch, and rejoining at 75 s.
fn golden_run(algorithm: ElectorKind, seed: u64) -> RunCounts {
    const G1: GroupId = GroupId(1);
    const G2: GroupId = GroupId(2);
    let n = 6;
    let medium = NetworkModel::new(LinkSpec::from_paper_tuple(10.0, 0.01)).build(seed);
    let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
        n,
        Box::new(move |node, _inc| {
            let g1 = if node == NodeId(5) {
                JoinConfig::listener()
            } else {
                JoinConfig::candidate()
            };
            let mut config = ServiceConfig::full_mesh(node, n, algorithm).with_auto_join(G1, g1);
            if node.0 >= 2 {
                config = config.with_auto_join(G2, JoinConfig::candidate());
            }
            ServiceNode::new(config)
        }),
        medium,
        seed,
    );
    let mut trace = LeaderTrace::default();
    world.run_until(SimInstant::from_secs_f64(10.0), &mut trace);
    let first = agreed_leader(&world, G1).expect("a first leader").node;
    world.schedule_crash(first, SimInstant::from_secs_f64(20.0));
    world.schedule_recovery(first, SimInstant::from_secs_f64(40.0));
    world.run_until(SimInstant::from_secs_f64(60.0), &mut trace);
    let sent = |world: &World<ServiceNode, _>| {
        (world.actor(NodeId(3))).map(|actor| actor.count(NodeCount::AliveDatagramsSent))
    };
    let (before, until) = (sent(&world), SimInstant::from_secs_f64(60.5));
    while sent(&world) == before && world.now() < until {
        world.step(&mut trace);
    }
    world.with_actor(NodeId(3), &mut trace, |actor, ctx| {
        for process in actor.local_members_of(G2) {
            actor.leave_group(process, G2, ctx).expect("leave group 2");
        }
    });
    world.run_until(SimInstant::from_secs_f64(75.0), &mut trace);
    world.with_actor(NodeId(3), &mut trace, |actor, ctx| {
        let process = actor.register_process();
        (actor.join_group(process, G2, JoinConfig::candidate(), ctx)).expect("rejoin group 2");
    });
    world.run_until(SimInstant::from_secs_f64(120.0), &mut trace);
    let mut counts = RunCounts {
        events: world.events_processed(),
        messages: world.medium_mut().stats().offered,
        alive_payloads: 0,
        hello: [0; 5],
        alive: [0; 3],
        fd: [0; 3],
        leader_changes: 0xcbf2_9ce4_8422_2325,
    };
    use NodeCount::*;
    for actor in (0..n as u32).filter_map(|i| world.actor(NodeId(i))) {
        let add = |sums: &mut [u64], read: &[NodeCount]| {
            for (sum, &count) in sums.iter_mut().zip(read) {
                *sum += actor.count(count);
            }
        };
        counts.alive_payloads += actor.count(AlivePayloadsSent);
        let hello = [
            HelloFullSent,
            HelloDigestSent,
            HelloPullsSent,
            HelloStaleIgnored,
            HelloMemberWalks,
        ];
        add(&mut counts.hello, &hello);
        add(
            &mut counts.alive,
            &[AliveUnchanged, AliveApplied, AlivePlanRebuilds],
        );
        add(&mut counts.fd, &[FdFires, FdWalks, FdReconfigurations]);
    }
    for (at, node, group, leader) in trace.events {
        let (leader_node, local) = leader.map_or((u32::MAX, u32::MAX), |l| l);
        let fields = [
            at,
            node.into(),
            group.into(),
            leader_node.into(),
            local.into(),
        ];
        for byte in fields.iter().flat_map(|field| field.to_le_bytes()) {
            counts.leader_changes =
                (counts.leader_changes ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    counts
}

#[test]
fn a_fixed_seed_run_replays_its_recorded_counts() {
    // Exact counts of a fixed-seed run per service version. A change
    // that means to move them (a protocol or timing change) updates
    // them on purpose, the way the wire goldens are updated.
    let recorded = [
        (
            ElectorKind::OmegaId,
            RunCounts {
                events: 31_456,
                messages: 22_812,
                alive_payloads: 21_736,
                hello: [82, 3_405, 22, 1, 1_014],
                alive: [13_391, 5_099, 521],
                fd: [3_583, 1_244, 390],
                leader_changes: 0x383e_a2d2_44d4_3851,
            },
        ),
        (
            ElectorKind::OmegaLc,
            RunCounts {
                events: 30_370,
                messages: 21_992,
                alive_payloads: 21_723,
                hello: [81, 3_405, 21, 0, 831],
                alive: [14_198, 3_466, 512],
                fd: [3_563, 1_035, 352],
                leader_changes: 0x9b73_2ff1_ad3e_ffe5,
            },
        ),
        (
            ElectorKind::OmegaL,
            RunCounts {
                events: 10_544,
                messages: 7_787,
                alive_payloads: 3_703,
                hello: [81, 3_405, 22, 0, 73],
                alive: [4_026, 50, 48],
                fd: [1_076, 185, 112],
                leader_changes: 0x14d9_244c_4498_daa7,
            },
        ),
    ];
    for (algorithm, counts) in recorded {
        assert_eq!(golden_run(algorithm, 7), counts, "{algorithm}");
    }
}

#[test]
fn group_churn_keeps_monitor_arena_at_baseline() {
    // Two workstations share one long-lived group; a second group on
    // the same pair is joined and left repeatedly. The node's peer table
    // must keep exactly one record per contacted peer throughout:
    // churn neither leaks records nor reclaims the estimate the
    // long-lived group still reads.
    let n = 2u32;
    let mut world = build_world(n as usize, ElectorKind::OmegaLc, 71);
    let mut obs = NullObserver;
    world.run_for(SimDuration::from_secs(2), &mut obs);
    let baseline: Vec<usize> = (0..n)
        .map(|i| world.actor(NodeId(i)).unwrap().monitored_peer_count())
        .collect();
    assert!(
        baseline.iter().all(|&count| count == 1),
        "each node tracks exactly its one peer: {baseline:?}"
    );
    let churn = GroupId(50);
    for round in 0..10 {
        for i in 0..n {
            world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
                let process = actor.register_process();
                actor
                    .join_group(process, churn, JoinConfig::candidate(), ctx)
                    .expect("join churn group");
            });
        }
        world.run_for(SimDuration::from_millis(400), &mut obs);
        for i in 0..n {
            world.with_actor(NodeId(i), &mut obs, |actor, ctx| {
                for process in actor.local_members_of(churn) {
                    actor
                        .leave_group(process, churn, ctx)
                        .expect("leave churn group");
                }
            });
        }
        world.run_for(SimDuration::from_millis(100), &mut obs);
        for i in 0..n {
            let count = world.actor(NodeId(i)).unwrap().monitored_peer_count();
            assert_eq!(
                count, baseline[i as usize],
                "round {round}: node {i} peer record count drifted"
            );
        }
    }
}

/// Three workstations in `GROUP` over LAN links, every incarnation
/// recording into `registry`.
fn instrumented_lan(
    registry: &sle_obs::Registry,
    seed: u64,
) -> World<ServiceNode, SimulatedNetwork> {
    let n = 3;
    let registry = registry.clone();
    let medium = NetworkModel::new(LinkSpec::lan()).build(seed);
    World::new(
        n,
        Box::new(move |node, _inc| {
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                .with_auto_join(GROUP, JoinConfig::candidate());
            let mut service = ServiceNode::new(config);
            let ring = sle_obs::TraceRing::new(64);
            service.set_instruments(NodeInstruments::new(&registry, ring, node));
            service
        }),
        medium,
        seed,
    )
}

/// Node 2 leaves `group` with every local process.
fn leave(world: &mut World<ServiceNode, SimulatedNetwork>, group: GroupId) {
    world.with_actor(NodeId(2), &mut NullObserver, |actor, ctx| {
        for process in actor.local_members_of(group) {
            actor.leave_group(process, group, ctx).expect("leave");
        }
    });
}

/// Node 2 joins `group` with a freshly registered process.
fn join(world: &mut World<ServiceNode, SimulatedNetwork>, group: GroupId, join: JoinConfig) {
    world.with_actor(NodeId(2), &mut NullObserver, |actor, ctx| {
        let process = actor.register_process();
        (actor.join_group(process, group, join, ctx)).expect("join");
    });
}

#[test]
fn a_rejoin_opens_a_new_election_episode() {
    // Node 2 leaves a group and rejoins it 5 s later. Its election
    // episode opens at the rejoin — whether it left with a leader (the
    // rejoin's election is recorded) or without one (the absence is not
    // part of the sample). Every group of node 2 records into its one
    // election histogram, read before and after each phase.
    let registry = sle_obs::Registry::default();
    let mut world = instrumented_lan(&registry, 13);
    let elections = registry.histogram("node.2.elect.election_ns");
    let at = SimInstant::from_secs_f64;
    let absence = SimDuration::from_secs(5).as_nanos();

    world.run_until(at(5.0), &mut NullObserver);
    let first = elections.snapshot();
    assert_eq!(first.count, 1);
    assert!(world.actor(NodeId(2)).unwrap().leader_of(GROUP).is_some());
    leave(&mut world, GROUP);
    world.run_until(at(10.0), &mut NullObserver);
    join(&mut world, GROUP, JoinConfig::candidate());
    world.run_until(at(15.0), &mut NullObserver);
    assert!(world.actor(NodeId(2)).unwrap().leader_of(GROUP).is_some());
    let rejoined = elections.snapshot();
    assert_eq!(rejoined.count, 2, "the rejoin's election went unrecorded");
    assert!(rejoined.sum - first.sum < absence);

    // A group node 2 alone is in, first as a listener: leaderless.
    let solo = GroupId(9);
    join(&mut world, solo, JoinConfig::listener());
    world.run_until(at(15.5), &mut NullObserver);
    assert!(world.actor(NodeId(2)).unwrap().leader_of(solo).is_none());
    leave(&mut world, solo);
    world.run_until(at(20.5), &mut NullObserver);
    join(&mut world, solo, JoinConfig::candidate());
    world.run_until(at(25.0), &mut NullObserver);
    assert!(world.actor(NodeId(2)).unwrap().leader_of(solo).is_some());
    let solo = elections.snapshot();
    assert_eq!(solo.count - rejoined.count, 1);
    assert!(
        solo.sum - rejoined.sum < absence,
        "the sample spans the absence: {solo:?}"
    );
}

#[test]
fn node_counters_never_decrease_across_a_recovery() {
    // Node 0 crashes at 20.5 s and recovers at 21 s. Its new incarnation
    // counts on in the registry cells its predecessor filled.
    let registry = sle_obs::Registry::default();
    let mut world = instrumented_lan(&registry, 17);
    let node_counters = || -> BTreeMap<String, u64> {
        let snapshot = registry.snapshot();
        let counters = snapshot
            .metrics
            .into_iter()
            .filter_map(|(name, value)| match value {
                sle_obs::MetricValue::Counter(value) if name.starts_with("node.0.") => {
                    Some((name, value))
                }
                _ => None,
            });
        counters.collect()
    };
    world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(20.5));
    world.schedule_recovery(NodeId(0), SimInstant::from_secs_f64(21.0));
    world.run_until(SimInstant::from_secs_f64(20.0), &mut NullObserver);
    let mut last = node_counters();
    assert!(last["node.0.hello.digest_sent"] > 0 && last["node.0.fd.fires"] > 0);
    for tenth in 201..=250 {
        world.run_until(
            SimInstant::from_secs_f64(tenth as f64 / 10.0),
            &mut NullObserver,
        );
        let now = node_counters();
        for (name, before) in &last {
            assert!(
                now[name] >= *before,
                "{name} fell from {before} to {}",
                now[name]
            );
        }
        last = now;
    }
    assert!(world.actor(NodeId(0)).unwrap().leader_of(GROUP).is_some());
}

/// A peer's HELLO of its first life at `version`, sent at `sent_at`.
fn hello_of(version: u64, sent_at: SimInstant, list: HelloList) -> ServiceMessage {
    ServiceMessage::Hello {
        incarnation: 1,
        version,
        sent_at,
        pull: false,
        announcements: list,
    }
}

/// `peer`'s full list naming `groups`, each with its process 0 as a
/// candidate.
fn full_list(peer: NodeId, groups: &[GroupId]) -> HelloList {
    let announce = |&group: &GroupId| GroupAnnouncement {
        group,
        processes: vec![(ProcessId::new(peer, 0), true)],
    };
    HelloList::Full(groups.iter().map(announce).collect())
}

/// Drives node 0 through `script` — deliveries `(at, from, msg)` in time
/// order — firing its timers between them and up to `end`: every change of
/// the leader it announces in [`GROUP`], with its instant.
fn announcements(
    drive: &mut TimerDrive,
    script: Vec<(SimInstant, NodeId, ServiceMessage)>,
    end: SimInstant,
) -> Vec<(SimInstant, Option<ProcessId>)> {
    let announced = |drive: &TimerDrive| (drive.node.groups.get(GROUP))?.announced_leader;
    let mut last = announced(drive);
    let mut log = Vec::new();
    let mut note = |drive: &TimerDrive, now| {
        let leader = announced(drive);
        if leader != last {
            log.push((now, leader));
            last = leader;
        }
    };
    let fire_to = |drive: &mut TimerDrive, until, note: &mut dyn FnMut(&TimerDrive, SimInstant)| {
        for _ in 0..10_000 {
            let Some((when, _)) = drive.step(until) else {
                return;
            };
            note(drive, when);
        }
        panic!("timers still firing at {until}");
    };
    for (at, from, msg) in script {
        fire_to(drive, at, &mut note);
        drive.deliver(from, msg, at);
        note(drive, at);
    }
    fire_to(drive, end, &mut note);
    log
}

#[test]
fn a_cold_start_elects_within_the_first_alive_round() {
    // Four candidates start together over LAN links. The start's pull gets
    // every peer's list within one round trip, and the first ALIVEs (sent
    // 5 ms in) carry every candidate's payload: the winner's view is then
    // complete and its grace ends there, not after the 2·T_D fallback. So
    // every member announces the same leader within the first ALIVE round
    // (η = 250 ms), and nothing changes after it.
    for algorithm in ElectorKind::all() {
        let n = 4;
        let medium = NetworkModel::new(LinkSpec::lan()).build(3);
        let mut world: World<ServiceNode, SimulatedNetwork> = World::new(
            n,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(GROUP, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            medium,
            3,
        );
        let mut trace = LeaderTrace::default();
        world.run_until(SimInstant::from_secs_f64(3.0), &mut trace);
        let leader = agreed_leader(&world, GROUP).expect("a leader");
        let round = SimDuration::from_millis(250).as_nanos();
        let announced = Some((leader.node.0, leader.local));
        for node in 0..n as u32 {
            let seen: Vec<_> = trace.events.iter().filter(|e| e.1 == node).collect();
            let last = seen.last().expect("an announcement");
            let what = format!("{algorithm}: node {node} announced {seen:?}");
            assert_eq!(last.3, announced, "{what}");
            assert!(last.0 < round, "{what}");
        }
        let winner = world.actor(leader.node).unwrap();
        assert_eq!(winner.count(NodeCount::GraceEndedEarly), 1, "{algorithm}");
    }
}

#[test]
fn a_candidate_that_never_sends_is_waited_for_one_detection_bound() {
    // Ω_l. Node 1 hears node 0's first ALIVE before its own first tick and
    // withdraws without ever sending (the race of a cold start on the wall
    // clock). Node 0 has node 1's list from 10 ms on, so node 1 is a
    // candidate member it has not heard: its grace ends when its monitor of
    // node 1, started by that list, suspects it — T_D^U = 1 s after the
    // list, not 2·T_D^U after the join.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let peer = NodeId(1);
    let list = hello_of(0, ms(9), full_list(peer, &[GROUP]));
    let log = announcements(&mut drive, vec![(ms(10), peer, list)], ms(3_000));
    let me = Some(ProcessId::new(NodeId(0), 0));
    assert_eq!(log, [(ms(1_010), me)]);
    assert_eq!(drive.node.count(NodeCount::GraceEndedEarly), 1);
}

#[test]
fn a_restarted_candidate_waits_for_the_incumbent_its_list_names() {
    // Node 0 restarts at 20 s. The incumbent's list reaches it at 20.01 s,
    // but its ALIVEs are held back until 20.9 s, less than T_D^U after the
    // list: its row is a candidate the node has neither heard nor
    // suspected, so the node never claims the leadership for itself.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start_at(config, ms(20_000));
    let mut script = vec![(
        ms(20_010),
        LEADER,
        hello_of(3, ms(20_009), full_list(LEADER, &[GROUP])),
    )];
    for seq in 0..8 {
        let sent_at = ms(20_900 + 250 * seq);
        let alive = omega_l_alive(LEADER, 100 + seq, sent_at, (SimInstant::ZERO, 0));
        script.push((sent_at, LEADER, alive));
    }
    let log = announcements(&mut drive, script, ms(23_000));
    assert_eq!(log, [(ms(20_900), Some(ProcessId::new(LEADER, 0)))]);
    assert_eq!(drive.node.count(NodeCount::GraceEndedEarly), 0);
}

#[test]
fn a_configured_peer_that_never_answers_keeps_the_fallback() {
    // Node 0 outranks node 1, which answers its pull and sends ALIVEs, but
    // node 2 never answers: the view is never complete, so node 0 claims
    // the leadership when the 2·T_D fallback runs out, not earlier.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let peer = NodeId(1);
    let mut script = vec![(ms(10), peer, hello_of(0, ms(9), full_list(peer, &[GROUP])))];
    for seq in 0..12 {
        let sent_at = ms(20 + 250 * seq);
        script.push((
            sent_at,
            peer,
            omega_l_alive(peer, seq, sent_at, (ms(20), 0)),
        ));
    }
    let log = announcements(&mut drive, script, ms(3_000));
    assert_eq!(log, [(ms(2_000), Some(ProcessId::new(NodeId(0), 0)))]);
    assert_eq!(drive.node.count(NodeCount::GraceEndedEarly), 0);
}

#[test]
fn an_ended_grace_stays_ended_when_a_candidate_joins_later() {
    // Node 0 hears node 1's list and its ALIVE, ranked below node 0, by
    // 20 ms. Its view completes at 30 ms, when the last list lands (node
    // 2's, naming no group), so it leads from then. At 500 ms node 2 joins
    // the group: a candidate member node 0 has not heard. The ended grace
    // stays ended: node 0 keeps announcing itself.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaL)
        .with_auto_join(GROUP, JoinConfig::candidate());
    let mut drive = TimerDrive::start(config);
    let (member, joiner) = (NodeId(1), NodeId(2));
    let announce = GroupAnnouncement {
        group: GROUP,
        processes: vec![(ProcessId::new(joiner, 0), true)],
    };
    let script = vec![
        (
            ms(10),
            member,
            hello_of(0, ms(9), full_list(member, &[GROUP])),
        ),
        (
            ms(20),
            member,
            omega_l_alive(member, 0, ms(20), (ms(20), 0)),
        ),
        (ms(30), joiner, hello_of(0, ms(29), full_list(joiner, &[]))),
        (
            ms(500),
            joiner,
            hello_of(1, ms(499), HelloList::Partial(Arc::from([announce]))),
        ),
    ];
    let log = announcements(&mut drive, script, ms(700));
    assert_eq!(log, [(ms(30), Some(ProcessId::new(NodeId(0), 0)))]);
    assert_eq!(drive.node.count(NodeCount::GraceEndedEarly), 1);
}

#[test]
fn a_runtime_join_waits_for_the_lists_it_made_stale() {
    // Node 0 runs in no group; node 1's list, applied at 10 ms, names the
    // group it leads. Node 0 joins that group at 5 s: the applied list
    // skipped it, so no list covers the group until node 1's next digest
    // gets it pulled. Until then the view is not complete — node 0 knows
    // no member yet — and the incumbent's ALIVE comes before any claim.
    let ms = |ms: u64| SimInstant::from_nanos(ms * 1_000_000);
    let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaL);
    let mut drive = TimerDrive::start(config);
    let list = || full_list(LEADER, &[GROUP]);
    drive.deliver(LEADER, hello_of(0, ms(9), list()), ms(10));
    drive.run_to(ms(5_000)).expect("timers settle");
    let process = drive.node.register_process();
    let mut ctx = at(ms(5_000));
    (drive
        .node
        .join_group(process, GROUP, JoinConfig::candidate(), &mut ctx))
    .unwrap();
    drive.settle(ctx);
    assert_eq!(drive.node.groups.get(GROUP).unwrap().announced_leader, None);
    let alive = omega_l_alive(LEADER, 7, ms(5_400), (SimInstant::ZERO, 0));
    let script = vec![
        (
            ms(5_200),
            LEADER,
            hello_of(0, ms(5_199), HelloList::Omitted),
        ),
        (ms(5_210), LEADER, hello_of(0, ms(5_209), list())),
        (ms(5_400), LEADER, alive),
    ];
    let log = announcements(&mut drive, script, ms(6_000));
    assert_eq!(log, [(ms(5_400), Some(ProcessId::new(LEADER, 0)))]);
}

/// FNV-1a of `text`: a digest that no toolchain update moves.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in text.bytes() {
        hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn an_instrumented_run_exports_what_it_recorded() {
    // Four nodes over lossy links, in two groups. Node 2 leaves group 1
    // at 5 s and rejoins it at 10 s; node 0 crashes at 12.5 s and recovers
    // at 13 s. Both exporters' output of the registry at 30 s is pinned as
    // a digest: every series, its name and its value, byte for byte, as the
    // registry of one named cell per series rendered it.
    let n = 4;
    let registry = sle_obs::Registry::default();
    let cells = registry.clone();
    let link = LinkSpec::lossy(SimDuration::from_millis(10), 0.3);
    let mut world = World::new(
        n,
        Box::new(move |node, _incarnation| {
            let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                .with_auto_join(GROUP, JoinConfig::candidate())
                .with_auto_join(GroupId(2), JoinConfig::candidate());
            let mut service = ServiceNode::new(config);
            let ring = sle_obs::TraceRing::new(64);
            service.set_instruments(NodeInstruments::new(&cells, ring, node));
            service
        }),
        NetworkModel::new(link).build(29),
        29,
    );
    let at = SimInstant::from_secs_f64;
    world.schedule_crash(NodeId(0), at(12.5));
    world.schedule_recovery(NodeId(0), at(13.0));
    world.run_until(at(5.0), &mut NullObserver);
    leave(&mut world, GROUP);
    world.run_until(at(10.0), &mut NullObserver);
    join(&mut world, GROUP, JoinConfig::candidate());
    world.run_until(at(30.0), &mut NullObserver);
    let snapshot = registry.snapshot();
    let prometheus = sle_obs::render_prometheus(&snapshot);
    let json = sle_obs::render_json(&snapshot);
    let mistakes = snapshot.sum_counters("node.", ".fd.mistakes");
    let recorded = (
        registry.len(),
        mistakes,
        (prometheus.len(), fnv1a(&prometheus)),
        (json.len(), fnv1a(&json)),
    );
    // Recorded by the registry that kept one named cell per series.
    let pinned = (
        120,
        4,
        (12_876, 0x0534_4235_a834_143d),
        (9_377, 0xb067_259d_bf8a_9006),
    );
    assert_eq!(recorded, pinned, "{prometheus}");
}
