//! End-to-end integration tests spanning all crates: the full service stack
//! (simulator + network models + failure detector + electors + service)
//! exercised under the workloads of the paper.

use sle_core::{
    GroupAnnouncement, GroupId, HelloList, JoinConfig, NodeCount, ProcessId, ServiceConfig,
    ServiceContext, ServiceMessage, ServiceNode,
};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::{
    run_plan, CrashPlan, CrashProfile, ExperimentMetrics, FaultPlan, MetricsCollector, Scenario,
    EXPERIMENT_GROUP,
};
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_net::network::NetworkModel;
use sle_sim::prelude::*;

const GROUP: GroupId = GroupId(1);

fn build_world(
    n: usize,
    algorithm: ElectorKind,
    link: LinkSpec,
    seed: u64,
) -> World<ServiceNode, sle_net::network::SimulatedNetwork> {
    let medium = NetworkModel::new(link).build(seed.wrapping_add(99));
    World::new(
        n,
        Box::new(move |node, _| {
            ServiceNode::new(
                ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(GROUP, JoinConfig::candidate()),
            )
        }),
        medium,
        seed,
    )
}

/// The paper's QoS metrics of `scenario`, run on the chaos engine.
fn measure(scenario: Scenario) -> ExperimentMetrics {
    run_plan(&scenario, &FaultPlan::quiet()).qos
}

fn agreed_leader(
    world: &World<ServiceNode, sle_net::network::SimulatedNetwork>,
) -> Option<ProcessId> {
    let mut leader = None;
    for i in 0..world.num_nodes() {
        let node = NodeId(i as u32);
        if !world.is_up(node) {
            continue;
        }
        let view = world.actor(node)?.leader_of(GROUP)?;
        match leader {
            None => leader = Some(view),
            Some(l) if l == view => {}
            _ => return None,
        }
    }
    leader
}

#[test]
fn every_algorithm_elects_over_a_lossy_network() {
    for algorithm in ElectorKind::all() {
        let mut world = build_world(6, algorithm, LinkSpec::from_paper_tuple(10.0, 0.01), 5);
        let mut obs = NullObserver;
        world.run_for(SimDuration::from_secs(10), &mut obs);
        let leader = agreed_leader(&world);
        assert!(
            leader.is_some(),
            "{algorithm}: no agreed leader over lossy links"
        );
    }
}

#[test]
fn recovery_time_is_close_to_the_detection_bound() {
    // Crash the leader explicitly and measure how long the group stays
    // leaderless: it should be near T_D^U = 1s, never more than a couple of
    // seconds (paper Figures 4/5).
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let mut world = build_world(6, algorithm, LinkSpec::lan(), 17);
        let mut collector = MetricsCollector::new(GROUP, 6, SimInstant::ZERO);
        world.run_for(SimDuration::from_secs(10), &mut collector);
        let leader = agreed_leader(&world).expect("initial leader");
        world.schedule_crash(leader.node, world.now() + SimDuration::from_millis(1));
        world.run_for(SimDuration::from_secs(10), &mut collector);
        let metrics = collector.finish(world.now());
        assert_eq!(metrics.leader_crashes, 1);
        assert_eq!(
            metrics.recovery.count, 1,
            "{algorithm}: missing recovery sample"
        );
        assert!(
            metrics.recovery.mean < 2.5,
            "{algorithm}: recovery took {}s",
            metrics.recovery.mean
        );
    }
}

#[test]
fn stable_algorithms_make_no_mistakes_under_churn() {
    // 20 virtual minutes of the paper's churn (crash every 10 minutes per
    // node) over a lossy network: S2 and S3 must not demote a healthy leader.
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let metrics = measure(
            Scenario::paper_default(algorithm, LinkSpec::from_paper_tuple(10.0, 0.01))
                .with_nodes(8)
                .with_duration(SimDuration::from_secs(1200))
                .with_seed(23),
        );
        assert_eq!(
            metrics.unjustified_demotions, 0,
            "{algorithm} demoted a healthy leader"
        );
        assert!(
            metrics.leader_availability > 0.99,
            "{algorithm}: availability {}",
            metrics.leader_availability
        );
    }
}

#[test]
fn omega_id_is_unstable_under_churn() {
    let metrics = measure(
        Scenario::paper_default(ElectorKind::OmegaId, LinkSpec::lan())
            .with_nodes(8)
            .with_duration(SimDuration::from_secs(1800))
            .with_seed(29),
    );
    assert!(
        metrics.unjustified_demotions > 0,
        "Omega_id should demote leaders when smaller ids rejoin"
    );
}

#[test]
fn omega_l_uses_far_less_bandwidth_than_omega_lc() {
    let s2 = measure(
        Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
            .without_workstation_crashes()
            .with_duration(SimDuration::from_secs(300)),
    );
    let s3 = measure(
        Scenario::paper_default(ElectorKind::OmegaL, LinkSpec::lan())
            .without_workstation_crashes()
            .with_duration(SimDuration::from_secs(300)),
    );
    assert!(
        s3.kbytes_per_sec_per_node * 2.0 < s2.kbytes_per_sec_per_node,
        "S3 ({:.2} KB/s) should be far cheaper than S2 ({:.2} KB/s)",
        s3.kbytes_per_sec_per_node,
        s2.kbytes_per_sec_per_node
    );
}

#[test]
fn omega_lc_availability_beats_omega_l_under_link_crashes() {
    // The Figure 7 trade-off, in miniature: with links crashing every minute
    // the forwarding-based S2 keeps a much higher availability than S3.
    let crashes = LinkCrashSpec::from_paper_uptime_secs(60);
    let s2 = measure(
        Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
            .with_link_crashes(crashes)
            .with_duration(SimDuration::from_secs(900))
            .with_seed(41),
    );
    let s3 = measure(
        Scenario::paper_default(ElectorKind::OmegaL, LinkSpec::lan())
            .with_link_crashes(crashes)
            .with_duration(SimDuration::from_secs(900))
            .with_seed(41),
    );
    assert!(
        s2.leader_availability > s3.leader_availability,
        "S2 ({:.4}) should be more available than S3 ({:.4}) under link crashes",
        s2.leader_availability,
        s3.leader_availability
    );
    // The paper reports 98.78% for S2 in this setting; our reproduction lands
    // a few points lower (`reproduce fig7`) but must stay well above S3's.
    assert!(
        s2.leader_availability > 0.90,
        "S2 availability {}",
        s2.leader_availability
    );
}

#[test]
fn faster_detection_bound_gives_faster_recovery() {
    let slow = measure(
        Scenario::paper_default(ElectorKind::OmegaL, LinkSpec::lan())
            .with_duration(SimDuration::from_secs(1800))
            .with_seed(47),
    );
    let fast = measure(
        Scenario::paper_default(ElectorKind::OmegaL, LinkSpec::lan())
            .with_qos(QosSpec::paper_default_with_detection(
                SimDuration::from_millis(250),
            ))
            .with_duration(SimDuration::from_secs(1800))
            .with_seed(47),
    );
    assert!(fast.recovery.count > 0 && slow.recovery.count > 0);
    assert!(
        fast.recovery.mean < slow.recovery.mean,
        "T_D=250ms gave {}s, T_D=1s gave {}s",
        fast.recovery.mean,
        slow.recovery.mean
    );
}

#[test]
fn crash_plan_installs_into_a_running_world() {
    let mut world = build_world(4, ElectorKind::OmegaLc, LinkSpec::lan(), 53);
    let plan = CrashPlan::generate(
        4,
        SimDuration::from_secs(600),
        CrashProfile::paper_default(),
        53,
    );
    plan.install(&mut world);
    let mut counting = CountingObserver::new();
    world.run_for(SimDuration::from_secs(600), &mut counting);
    assert_eq!(counting.crashes as usize, {
        // Crashes scheduled strictly before the horizon all fire.
        plan.events()
            .iter()
            .filter(|e| e.is_crash && e.at <= SimInstant::ZERO + SimDuration::from_secs(600))
            .count()
    });
}

#[test]
fn experiment_group_constant_matches_harness() {
    assert_eq!(EXPERIMENT_GROUP, GroupId(1));
}

#[test]
fn duplicated_stale_accusation_causes_no_extra_mistake() {
    // Regression for the stale-epoch accusation hole: over a duplicating
    // network, one ACCUSE against the healthy leader arrives twice. The
    // first copy is current and is honoured — one justified-by-protocol
    // demotion. The duplicate carries the now-stale epoch and must be
    // dropped; before the epoch guard it was honoured again, re-ranking the
    // deposed leader a second time and forging a fencing-token regression.
    let link = LinkSpec::lossy(SimDuration::from_millis(2), 0.0).with_duplication(1.0);
    let mut world = build_world(3, ElectorKind::OmegaLc, link, 71);
    // Mistakes are counted from the injection on. Start-up convergence is
    // not under test and may legally pass through another leader: a node
    // that has heard only n1's HELLO so far announces n1, and moves to n0
    // when n0's arrives a millisecond later.
    let inject_at = SimInstant::ZERO + SimDuration::from_secs(10);
    let mut collector = MetricsCollector::new(GROUP, 3, inject_at);
    world.run_until(inject_at, &mut collector);
    let old_leader = agreed_leader(&world).expect("settled leader");
    // Start-up ended where Ω_lc says it must with nobody accused and nobody
    // down: every accusation time is still zero, so the smallest id leads.
    assert!((0..3).all(|i| world.is_up(NodeId(i))));
    assert_eq!(old_leader.node, NodeId(0), "no ACCUSE before the injection");
    let accuser = NodeId((old_leader.node.0 + 1) % 3);

    // One ACCUSE sent over the network: the medium duplicates it.
    world.with_actor(accuser, &mut collector, |_, ctx| {
        ctx.send(
            old_leader.node,
            sle_core::ServiceMessage::Accuse {
                group: GROUP,
                epoch: 0,
            },
        );
    });
    world.run_for(SimDuration::from_secs(5), &mut collector);

    // Exactly one of the two copies was honoured; the replay was dropped.
    let stale = world
        .actor(old_leader.node)
        .expect("accused node alive")
        .count(NodeCount::StaleAccusationsIgnored);
    assert_eq!(stale, 1, "the duplicated stale ACCUSE was not dropped");

    // The honoured copy demoted the leader once; the duplicate must not
    // move leadership again. The group has re-settled on a new leader…
    let new_leader = agreed_leader(&world).expect("re-settled leader");
    assert_ne!(new_leader, old_leader, "the honoured ACCUSE should demote");
    // …and stays there: no further mistakes accrue.
    world.run_for(SimDuration::from_secs(5), &mut collector);
    assert_eq!(agreed_leader(&world), Some(new_leader));
    let metrics = collector.finish(world.now());
    assert_eq!(
        metrics.unjustified_demotions, 1,
        "only the first ACCUSE copy may demote the healthy leader"
    );
}

/// A node (n0 of a mesh of two) with one candidate process in `GROUP`, for
/// feeding HELLOs of the peer n1 straight into `on_message`.
fn node_hearing_a_peer() -> (ServiceNode, NodeId, ServiceContext) {
    let (me, peer) = (NodeId(0), NodeId(1));
    let mut node = ServiceNode::new(ServiceConfig::full_mesh(me, 2, ElectorKind::OmegaLc));
    let mut ctx = ServiceContext::new(SimInstant::ZERO, me, 0);
    let process = node.register_process();
    node.join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
        .expect("join");
    (node, peer, ctx)
}

/// `peer`'s incarnation-1 HELLO at `version`: a digest, or with `locals`
/// the full list naming those processes (all candidates) in `GROUP`.
fn hello_of(peer: NodeId, version: u64, locals: Option<&[u32]>) -> ServiceMessage {
    ServiceMessage::Hello {
        incarnation: 1,
        version,
        sent_at: SimInstant::ZERO,
        pull: false,
        announcements: locals.map_or(HelloList::Omitted, |locals| {
            HelloList::Full(std::sync::Arc::from([GroupAnnouncement {
                group: GROUP,
                processes: locals
                    .iter()
                    .map(|&local| (ProcessId::new(peer, local), true))
                    .collect(),
            }]))
        }),
    }
}

/// The local ids of the remote processes `node` knows in `GROUP`.
fn remote_locals(node: &ServiceNode) -> Vec<u32> {
    node.remote_members_of(GROUP)
        .into_iter()
        .flat_map(|(_, processes)| processes)
        .map(|(process, _)| process.local)
        .collect()
}

#[test]
fn delayed_hello_does_not_resurrect_a_departed_process() {
    // Regression for stale HELLOs overwriting newer membership: a delayed
    // or duplicated HELLO of the same incarnation (the chaos engine's
    // duplication and reordering faults produce them) used to be applied
    // over a newer one, bringing back a process that had left until the
    // next periodic HELLO corrected it. With versioned announcements the
    // older list is recognised and dropped.
    let (mut node, peer, mut ctx) = node_hearing_a_peer();
    // Two processes of the peer are in the group…
    let before_the_leave = hello_of(peer, 4, Some(&[0, 1]));
    node.on_message(peer, before_the_leave.clone(), &mut ctx);
    assert_eq!(remote_locals(&node), vec![0, 1]);
    // …one leaves: the next list no longer names it…
    node.on_message(peer, hello_of(peer, 5, Some(&[0])), &mut ctx);
    assert_eq!(remote_locals(&node), vec![0]);
    // …and a late copy of the first list arrives after it.
    node.on_message(peer, before_the_leave, &mut ctx);
    assert_eq!(
        remote_locals(&node),
        vec![0],
        "a stale HELLO resurrected the process that left"
    );
    assert_eq!(node.count(NodeCount::HelloStaleIgnored), 1);
}

#[test]
fn late_leave_after_a_rejoin_is_repaired_by_the_next_digest() {
    // A LEAVE carries no version. The peer's process leaves (list 5) and
    // rejoins (list 6); this node applies list 6, and only then does a
    // delayed copy of the LEAVE arrive and delete the process again. Every
    // later digest matches the applied version, so unless the LEAVE marks
    // the peer for a re-pull the process stays deleted for good.
    let (mut node, peer, mut ctx) = node_hearing_a_peer();
    node.on_message(peer, hello_of(peer, 6, Some(&[0])), &mut ctx);
    assert_eq!(remote_locals(&node), vec![0]);
    let late_leave = ServiceMessage::Leave {
        group: GROUP,
        process: ProcessId::new(peer, 0),
    };
    node.on_message(peer, late_leave, &mut ctx);
    assert_eq!(remote_locals(&node), Vec::<u32>::new());

    // The next unchanged digest is answered with a pull…
    let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
    node.on_message(peer, hello_of(peer, 6, None), &mut ctx);
    let pulls: Vec<_> = ctx
        .into_effects()
        .into_iter()
        .filter(|effect| {
            matches!(
                effect,
                Effect::Send { to, msg: ServiceMessage::Hello { pull: true, .. } } if *to == peer
            )
        })
        .collect();
    assert_eq!(
        pulls.len(),
        1,
        "the digest after a late LEAVE was not pulled"
    );
    // …and the full list at the same version brings the process back.
    let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
    node.on_message(peer, hello_of(peer, 6, Some(&[0])), &mut ctx);
    assert_eq!(remote_locals(&node), vec![0]);
    // A LEAVE that removes nothing asks for nothing.
    let unknown = ServiceMessage::Leave {
        group: GROUP,
        process: ProcessId::new(peer, 9),
    };
    node.on_message(peer, unknown, &mut ctx);
    let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
    node.on_message(peer, hello_of(peer, 6, None), &mut ctx);
    assert!(ctx.into_effects().is_empty());
}

#[test]
fn await_agreement_fails_fast_when_every_member_crashed() {
    use sle_core::Cluster;
    use std::time::{Duration, Instant};

    let cluster = Cluster::start(3, ElectorKind::OmegaLc);
    let group = GroupId(9);
    for i in 0..3u32 {
        cluster
            .handle(NodeId(i))
            .unwrap()
            .join(group, JoinConfig::candidate())
            .unwrap();
    }
    cluster
        .await_agreement(group, None, Duration::from_secs(10))
        .expect("initial agreement");
    for i in 0..3u32 {
        cluster.crash(NodeId(i));
    }
    // With every member crashed there is nobody left to agree: the call
    // must give up promptly (not burn its whole timeout polling parked
    // nodes) and still carry the last votes for diagnosis.
    let started = Instant::now();
    let err = cluster
        .await_agreement(group, None, Duration::from_secs(10))
        .expect_err("agreement over an all-crashed group");
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "all-crashed await_agreement took {waited:?}"
    );
    assert_eq!(err.group, group);
    assert_eq!(err.votes.len(), 3, "votes: {err}");
    cluster.shutdown();
}
