//! Randomised property tests of the core data structures and invariants:
//! candidate ranking, the failure-detector configurator, the link-quality
//! estimator, the freshness monitor, the adaptive tuning policy and
//! simulator determinism.
//!
//! Cases are generated from the workspace's own deterministic [`SimRng`]
//! (seeded per test), so every run checks the same cases and failures are
//! reproducible without any external property-testing framework.

use sle_election::{AlivePayload, AnyElector, ElectorKind, LeaderElector, Rank};
use sle_fd::config::params_meet_qos;
use sle_fd::{
    configure, FailureDetector, LinkQuality, LinkQualityEstimator, QosSpec, TuningPolicy,
};
use sle_sim::actor::NodeId;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

const CASES: usize = 200;

fn instant(nanos: u64) -> SimInstant {
    SimInstant::from_nanos(nanos)
}

/// Rank ordering is total, antisymmetric and prefers earlier accusation
/// times regardless of identifiers.
#[test]
fn rank_ordering_is_consistent() {
    let mut rng = SimRng::seed_from(101);
    for _ in 0..CASES {
        let a_acc = rng.next_u64() % 1_000_000;
        let b_acc = rng.next_u64() % 1_000_000;
        let a_id = (rng.next_u64() % 64) as u32;
        let b_id = (rng.next_u64() % 64) as u32;
        let a = Rank::new(instant(a_acc), NodeId(a_id));
        let b = Rank::new(instant(b_acc), NodeId(b_id));
        // Total order.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Earlier accusation time always wins.
        if a_acc < b_acc {
            assert!(a < b);
        }
        // Equal components means equal ranks.
        if a_acc == b_acc && a_id == b_id {
            assert_eq!(a, b);
        }
    }
}

/// The configurator always respects the detection bound (η + δ = T_D^U)
/// and its interval floor, whatever the link looks like.
#[test]
fn configurator_respects_detection_bound() {
    let mut rng = SimRng::seed_from(102);
    let floor = SimDuration::from_millis(5);
    for _ in 0..CASES {
        let loss = rng.uniform_range(0.0, 0.9);
        let delay_ms = rng.uniform_range(0.0, 500.0);
        let jitter_ms = rng.uniform_range(0.0, 500.0);
        let detection_ms = 50 + rng.next_u64() % 4_950;
        let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(detection_ms));
        let quality = LinkQuality::from_parts(
            loss,
            SimDuration::from_millis_f64(delay_ms),
            SimDuration::from_millis_f64(jitter_ms),
        );
        let params = configure(&qos, &quality, TuningPolicy::Static);
        assert_eq!(params.interval + params.shift, qos.detection_time());
        assert!(params.interval >= floor.min(qos.detection_time()));
        assert!(params.interval <= qos.detection_time());
    }
}

/// The estimator's loss probability stays within [0, 1] and its delay
/// estimates are never negative, for arbitrary arrival patterns.
#[test]
fn estimator_outputs_are_well_formed() {
    let mut rng = SimRng::seed_from(103);
    for _ in 0..CASES {
        let mut estimator = LinkQualityEstimator::new(64);
        let n = 1 + rng.uniform_usize(99);
        for _ in 0..n {
            let seq = rng.next_u64() % 500;
            let delay = SimDuration::from_micros(rng.next_u64() % 1_000_000);
            let sent = instant(seq * 1_000_000);
            estimator.record(seq, sent, sent + delay);
        }
        let quality = estimator.estimate();
        assert!((0.0..=1.0).contains(&quality.loss_probability));
        assert!(quality.delay_mean >= SimDuration::ZERO);
        assert!(quality.delay_std_dev >= SimDuration::ZERO);
    }
}

/// NFD-S monitor invariant: after a heartbeat sent at time s with
/// interval η, the peer cannot stay trusted past s + η + δ without any
/// further heartbeat (the crash-detection bound of Chen et al.).
#[test]
fn monitor_never_trusts_past_the_freshness_horizon() {
    let mut rng = SimRng::seed_from(104);
    for _ in 0..CASES {
        let interval_ms = 10 + rng.next_u64() % 990;
        let heartbeats = 1 + rng.uniform_usize(49);
        let qos = QosSpec::paper_default();
        let peer = NodeId(1);
        let mut fd = FailureDetector::new(qos);
        fd.ensure_peer(peer, SimInstant::ZERO);
        let interval = SimDuration::from_millis(interval_ms);
        let mut now = SimInstant::ZERO;
        let mut last_sent = SimInstant::ZERO;
        for seq in 0..heartbeats as u64 {
            now += interval;
            last_sent = now;
            fd.on_heartbeat(peer, seq, last_sent, interval, now);
        }
        // The freshness horizon never exceeds last_sent + clamped interval +
        // shift, and the clamped interval plus shift is at most interval + T_D.
        let bound = last_sent + interval.min(qos.detection_time()) + qos.detection_time();
        let deadline = fd.next_deadline().expect("trusted after heartbeats");
        assert!(deadline <= bound);
        // And a check at the horizon suspects the peer.
        assert!(!fd.poll(deadline).is_empty() || !fd.is_trusted(peer));
    }
}

/// Stability invariant of the accusation-time algorithms: a process that
/// joins later than the incumbent (and with no accusations around) never
/// takes the leadership away, whatever the ids are.
#[test]
fn later_joiners_never_outrank_incumbents() {
    let mut rng = SimRng::seed_from(105);
    for _ in 0..CASES {
        let incumbent_id = (rng.next_u64() % 32) as u32;
        let joiner_id = (rng.next_u64() % 32) as u32;
        if incumbent_id == joiner_id {
            continue;
        }
        let gap_ms = 1 + rng.next_u64() % 100_000;
        let t0 = SimInstant::ZERO;
        let t1 = t0 + SimDuration::from_millis(gap_ms);
        let incumbent_lc = AnyElector::new(ElectorKind::OmegaLc, NodeId(incumbent_id), true, t0);
        let mut joiner_lc = AnyElector::new(ElectorKind::OmegaLc, NodeId(joiner_id), true, t1);
        joiner_lc.on_alive(NodeId(incumbent_id), incumbent_lc.alive_payload(), t1);
        assert_eq!(joiner_lc.leader(), Some(NodeId(incumbent_id)));

        let incumbent_l = AnyElector::new(ElectorKind::OmegaL, NodeId(incumbent_id), true, t0);
        let mut joiner_l = AnyElector::new(ElectorKind::OmegaL, NodeId(joiner_id), true, t1);
        joiner_l.on_alive(NodeId(incumbent_id), incumbent_l.alive_payload(), t1);
        assert_eq!(joiner_l.leader(), Some(NodeId(incumbent_id)));
        assert!(!joiner_l.is_competing(), "the later joiner must withdraw");
    }
}

/// Epoch guard: accusations that do not reference the current epoch never
/// change a process's accusation time.
#[test]
fn stale_accusations_are_ignored() {
    let mut rng = SimRng::seed_from(106);
    for _ in 0..CASES {
        let epoch = 1 + rng.next_u64() % 999;
        let at_ms = rng.next_u64() % 10_000;
        let mut elector = AnyElector::new(ElectorKind::OmegaLc, NodeId(1), true, SimInstant::ZERO);
        let before = elector.accusation_time();
        // Any epoch other than the current one (0) must be ignored.
        elector.on_accusation(epoch, instant(at_ms * 1_000_000));
        assert_eq!(elector.accusation_time(), before);
    }
}

/// The exponential sampler is deterministic per seed and produces only
/// non-negative durations.
#[test]
fn exponential_sampling_is_deterministic() {
    let mut rng = SimRng::seed_from(107);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let mean_ms = 1 + rng.next_u64() % 9_999;
        let mean = SimDuration::from_millis(mean_ms);
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            let x = a.exponential(mean);
            let y = b.exponential(mean);
            assert_eq!(x, y);
        }
    }
}

/// ALIVE payload wire sizes are consistent: adding the forwarding claim
/// adds exactly 12 bytes.
#[test]
fn payload_wire_size_is_consistent() {
    let mut rng = SimRng::seed_from(108);
    for _ in 0..CASES {
        let acc = rng.next_u64() / 2;
        let epoch = rng.next_u64();
        let without = AlivePayload {
            accusation_time: SimInstant::from_nanos(acc),
            epoch,
            local_leader: None,
        };
        let with = AlivePayload {
            local_leader: Some(sle_election::LeaderClaim {
                node: NodeId(3),
                accusation_time: SimInstant::from_nanos(acc),
            }),
            ..without
        };
        assert_eq!(with.wire_size(), without.wire_size() + 12);
    }
}

/// Adaptive-policy invariant, through a real estimator: whatever the delay,
/// jitter and loss regime, the derived operating point never exceeds the
/// application's detection bound, its interval keeps the floor, its shift
/// clears the largest delay in the window, and whatever is tighter than
/// `T_D^U` passed the configurator's own acceptance test.
#[test]
fn tuner_recommendations_respect_the_qos_bound() {
    let mut rng = SimRng::seed_from(109);
    let qos = QosSpec::paper_default();
    for _ in 0..50 {
        let mut estimator = LinkQualityEstimator::new(256);
        let base_delay_ms = rng.uniform_range(0.1, 120.0);
        let jitter_ms = rng.uniform_range(0.0, base_delay_ms / 2.0);
        let loss = [0.0, 0.0, rng.uniform_range(0.0, 0.2)][rng.uniform_usize(3)];
        let mut now = SimInstant::ZERO;
        let mut delays = Vec::new();
        for seq in 0..100u64 {
            now += SimDuration::from_millis(100);
            let delay = base_delay_ms + rng.uniform_range(0.0, jitter_ms);
            let delay = SimDuration::from_millis_f64(delay);
            if rng.uniform_range(0.0, 1.0) >= loss {
                estimator.record(seq, now - delay, now);
                delays.push(delay);
            }
        }
        // What an adaptive monitor reads: the most recent 64 heartbeats.
        let quality = estimator.estimate_over(64);
        let largest = delays.iter().rev().take(64).max().expect("some arrive");
        let params = configure(&qos, &quality, TuningPolicy::Adaptive);
        assert!(params.worst_case_detection() <= qos.detection_time());
        assert!(params.interval >= SimDuration::from_millis(5));
        assert!(params.shift >= *largest);
        if params.worst_case_detection() < qos.detection_time() {
            assert!(params_meet_qos(
                &quality,
                params.interval,
                params.shift,
                &qos
            ));
        }
    }
}

/// Ω_l (S3) voluntary withdrawal, asserted over the simulator's own
/// message statistics: once an election settles, only the leader's ALIVEs
/// appear on the wire. Every defeated candidate's ALIVE counter stops, and
/// the window's entire sent-message count is accounted for by the leader's
/// heartbeats plus HELLO gossip — there is no hidden third traffic source.
#[test]
fn omega_l_withdrawal_silences_every_defeated_candidate() {
    use sle_core::{GroupId, JoinConfig, NodeCount, ServiceConfig, ServiceNode};
    use sle_election::ElectorKind;
    use sle_sim::observer::CountingObserver;
    use sle_sim::prelude::{PerfectMedium, World};

    const NODES: usize = 6;
    const GROUP: GroupId = GroupId(1);
    let settle = SimDuration::from_secs(15);
    let window = SimDuration::from_secs(10);

    let mut seeds = SimRng::seed_from(0x5111_E4CE);
    for _case in 0..5 {
        let seed = seeds.next_u64();
        let mut world: World<ServiceNode, PerfectMedium> = World::new(
            NODES,
            Box::new(move |node, _inc| {
                ServiceNode::new(
                    ServiceConfig::full_mesh(node, NODES, ElectorKind::OmegaL)
                        .with_auto_join(GROUP, JoinConfig::candidate()),
                )
            }),
            PerfectMedium,
            seed,
        );
        let mut observer = CountingObserver::new();
        world.run_for(settle, &mut observer);

        // Exactly one node still competes, and it hosts the agreed leader.
        let competing: Vec<NodeId> = (0..NODES as u32)
            .map(NodeId)
            .filter(|&n| world.actor(n).is_some_and(|a| a.is_competing(GROUP)))
            .collect();
        assert_eq!(competing.len(), 1, "seed {seed}: competitors {competing:?}");
        let leader = competing[0];
        for n in (0..NODES as u32).map(NodeId) {
            assert_eq!(
                world.actor(n).unwrap().leader_of(GROUP).map(|p| p.node),
                Some(leader),
                "seed {seed}: {n} disagrees"
            );
        }

        let alives_at = |world: &World<ServiceNode, PerfectMedium>| -> Vec<u64> {
            (0..NODES as u32)
                .map(|i| {
                    world
                        .actor(NodeId(i))
                        .unwrap()
                        .count(NodeCount::AlivePayloadsSent)
                })
                .collect()
        };
        let before = alives_at(&world);
        let sent_before = observer.sent;
        world.run_for(window, &mut observer);
        let after = alives_at(&world);

        // Only the leader's ALIVE counter moves during the window.
        let mut leader_alives = 0;
        for i in 0..NODES {
            let delta = after[i] - before[i];
            if NodeId(i as u32) == leader {
                assert!(delta > 0, "seed {seed}: the leader must keep sending");
                leader_alives = delta;
            } else {
                assert_eq!(
                    delta, 0,
                    "seed {seed}: defeated candidate n{i} sent {delta} ALIVEs"
                );
            }
        }

        // Message-count accounting over the sim stats: everything sent in
        // the window is the leader's ALIVEs or HELLO gossip (every node
        // gossips to its n-1 peers once per 1 s hello interval).
        let sent_window = observer.sent - sent_before;
        let hello_window = sent_window - leader_alives;
        let hellos_per_round = (NODES * (NODES - 1)) as u64;
        let rounds = window.as_secs_f64() as u64;
        assert_eq!(
            hello_window,
            hellos_per_round * rounds,
            "seed {seed}: unexpected non-ALIVE traffic in the window"
        );
        // The leader heartbeats its 5 peers at the most demanding interval
        // its monitors requested — somewhere between the configurator's
        // floor and the 250 ms default, so 40..=60 sends per peer in 10 s.
        let per_peer = leader_alives / (NODES as u64 - 1);
        assert!(
            (40..=60).contains(&per_peer),
            "seed {seed}: unexpected ALIVE cadence ({per_peer} per peer in 10 s)"
        );
    }
}

// ---------------------------------------------------------------------
// Versioned HELLO gossip: convergence against a reference model, and
// hostile inputs to `ServiceNode::on_message`.
// ---------------------------------------------------------------------

mod hello_gossip {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use sle_core::{
        GroupAnnouncement, GroupId, HelloList, JoinConfig, NodeCount, ProcessId, ServiceConfig,
        ServiceContext, ServiceMessage, ServiceNode,
    };
    use sle_election::ElectorKind;
    use sle_net::link::LinkSpec;
    use sle_net::network::{NetworkModel, SimulatedNetwork};
    use sle_sim::prelude::*;
    use sle_sim::rng::SimRng;

    /// What one workstation announces: `group → local process → candidate?`.
    type Announced = BTreeMap<GroupId, BTreeMap<u32, bool>>;
    /// One node's view of a group: per remote member, its process list.
    type View = Vec<(NodeId, Vec<(ProcessId, bool)>)>;

    const GROUPS: [GroupId; 3] = [GroupId(1), GroupId(2), GroupId(3)];

    /// The view the reference model prescribes for `observer` in `group`:
    /// every other live workstation that announces processes there.
    fn expected_view(model: &[Announced], up: &[bool], observer: usize, group: GroupId) -> View {
        (0..model.len())
            .filter(|&peer| peer != observer && up[peer])
            .filter_map(|peer| {
                let processes = model[peer].get(&group)?;
                let node = NodeId(peer as u32);
                Some((
                    node,
                    processes
                        .iter()
                        .map(|(&local, &candidate)| (ProcessId::new(node, local), candidate))
                        .collect(),
                ))
            })
            .collect()
    }

    /// The first `(observer, group)` whose view differs from the model's.
    fn first_mismatch(
        world: &World<ServiceNode, SimulatedNetwork>,
        model: &[Announced],
        up: &[bool],
    ) -> Option<String> {
        for observer in (0..model.len()).filter(|&i| up[i]) {
            let actor = world.actor(NodeId(observer as u32))?;
            for &group in model[observer].keys() {
                let (have, want) = (
                    actor.remote_members_of(group),
                    expected_view(model, up, observer, group),
                );
                if have != want {
                    return Some(format!(
                        "n{observer} {group:?}: has {have:?}, model {want:?}"
                    ));
                }
            }
        }
        None
    }

    /// 3–6 workstations under random join / leave / candidacy changes,
    /// crashes and recoveries, over links that lose (0–30 %), duplicate and
    /// reorder. After a quiet period every node's membership view (members,
    /// process lists, candidate flags, per group) equals a reference model
    /// fed the same announcement history — and, where five digests in a row
    /// are not plausibly lost, stays equal for three membership timeouts:
    /// no member expires while its peer keeps sending digests.
    #[test]
    fn membership_views_converge_to_the_announcement_history() {
        let mut rng = SimRng::seed_from(0x4E110);
        let (mut pulls, mut stale) = (0, 0);
        for case in 0..16 {
            let n = 3 + rng.uniform_usize(4);
            let loss = [0.0, 0.01, 0.05, 0.15, 0.3][case % 5];
            let algorithm = ElectorKind::all()[case % 3];
            let link = LinkSpec::lossy(SimDuration::from_millis(5), loss)
                .with_duplication(0.3)
                .with_jitter(SimDuration::from_millis(300));
            let seed = rng.next_u64();
            let mut world = World::new(
                n,
                Box::new(move |node, _| {
                    ServiceNode::new(ServiceConfig::full_mesh(node, n, algorithm))
                }),
                NetworkModel::new(link).build(seed),
                seed,
            );
            let mut obs = NullObserver;
            let mut model: Vec<Announced> = vec![Announced::new(); n];
            let mut next_local = vec![0u32; n];
            let mut up = vec![true; n];

            for _ in 0..60 {
                let pause = SimDuration::from_millis(50 + rng.next_u64() % 750);
                world.run_for(pause, &mut obs);
                let i = rng.uniform_usize(n);
                let node = NodeId(i as u32);
                let group = GROUPS[rng.uniform_usize(GROUPS.len())];
                let candidate = rng.bernoulli(0.6);
                let join = if candidate {
                    JoinConfig::candidate()
                } else {
                    JoinConfig::listener()
                };
                // A process of `node` already in `group`, if any.
                let existing = model[i]
                    .get(&group)
                    .and_then(|processes| processes.keys().next().copied());
                match (rng.uniform_usize(10), up[i], existing) {
                    (0, true, _) if up.iter().filter(|&&u| u).count() > 2 => {
                        world.schedule_crash(node, world.now());
                        world.run_for(SimDuration::from_millis(1), &mut obs);
                        up[i] = false;
                        // A recovered workstation starts from nothing.
                        model[i].clear();
                        next_local[i] = 0;
                    }
                    (_, false, _) => {
                        world.schedule_recovery(node, world.now());
                        world.run_for(SimDuration::from_millis(1), &mut obs);
                        up[i] = true;
                    }
                    (1..=5, true, _) => {
                        world.with_actor(node, &mut obs, |actor, ctx| {
                            let process = actor.register_process();
                            actor.join_group(process, group, join, ctx).unwrap();
                        });
                        model[i]
                            .entry(group)
                            .or_default()
                            .insert(next_local[i], candidate);
                        next_local[i] += 1;
                    }
                    (6, true, Some(local)) => {
                        // Candidacy change of a joined process.
                        world.with_actor(node, &mut obs, |actor, ctx| {
                            actor
                                .join_group(ProcessId::new(node, local), group, join, ctx)
                                .unwrap();
                        });
                        model[i].entry(group).or_default().insert(local, candidate);
                    }
                    (7..=8, true, Some(local)) => {
                        world.with_actor(node, &mut obs, |actor, ctx| {
                            actor
                                .leave_group(ProcessId::new(node, local), group, ctx)
                                .unwrap();
                        });
                        let processes = model[i].get_mut(&group).unwrap();
                        processes.remove(&local);
                        if processes.is_empty() {
                            model[i].remove(&group);
                        }
                    }
                    (9, true, Some(local)) => {
                        // The same process leaves and is back within the
                        // reordering window: its version-less LEAVE can
                        // reach a peer after the list that shows the rejoin.
                        let process = ProcessId::new(node, local);
                        world.with_actor(node, &mut obs, |actor, ctx| {
                            actor.leave_group(process, group, ctx).unwrap();
                        });
                        world.run_for(SimDuration::from_millis(rng.next_u64() % 20), &mut obs);
                        world.with_actor(node, &mut obs, |actor, ctx| {
                            actor.join_group(process, group, join, ctx).unwrap();
                        });
                        model[i].entry(group).or_default().insert(local, candidate);
                    }
                    _ => {}
                }
            }

            // Quiet: no more changes. Anti-entropy must get every view to
            // the model's, however many digests, pulls and lists are lost.
            let mut mismatch = first_mismatch(&world, &model, &up);
            for _ in 0..180 {
                if mismatch.is_none() {
                    break;
                }
                world.run_for(SimDuration::from_secs(1), &mut obs);
                mismatch = first_mismatch(&world, &model, &up);
            }
            assert_eq!(
                mismatch, None,
                "case {case} (n {n}, loss {loss}, {algorithm}): no convergence"
            );
            if loss <= 0.05 {
                for step in 0..60 {
                    world.run_for(SimDuration::from_millis(250), &mut obs);
                    assert_eq!(
                        first_mismatch(&world, &model, &up),
                        None,
                        "case {case} (n {n}, loss {loss}, {algorithm}): a view changed \
                         {step} quarter-seconds into the quiet period"
                    );
                }
            }
            for i in (0..n).filter(|&i| up[i]) {
                let node = world.actor(NodeId(i as u32)).unwrap();
                pulls += node.count(NodeCount::HelloPullsSent);
                stale += node.count(NodeCount::HelloStaleIgnored);
            }
        }
        assert!(pulls > 0, "the churn never exercised the pull path");
        assert!(
            stale > 0,
            "duplication and reordering never produced a stale HELLO"
        );
    }

    const ME: NodeId = NodeId(0);
    const PEER: NodeId = NodeId(1);
    const GROUP: GroupId = GroupId(1);

    /// A node in `GROUP` with one candidate process, in a mesh of three.
    fn joined_node() -> ServiceNode {
        let mut node = ServiceNode::new(ServiceConfig::full_mesh(ME, 3, ElectorKind::OmegaLc));
        let mut ctx = ServiceContext::new(SimInstant::ZERO, ME, 0);
        let process = node.register_process();
        node.join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
            .unwrap();
        node
    }

    fn hello(
        incarnation: u64,
        version: u64,
        pull: bool,
        announcements: HelloList,
    ) -> ServiceMessage {
        ServiceMessage::Hello {
            incarnation,
            version,
            sent_at: SimInstant::ZERO,
            pull,
            announcements,
        }
    }

    /// `from`'s list naming `locals` (all candidates) in `GROUP`.
    fn list_of(from: NodeId, locals: &[u32]) -> Arc<[GroupAnnouncement]> {
        Arc::from([GroupAnnouncement {
            group: GROUP,
            processes: locals
                .iter()
                .map(|&local| (ProcessId::new(from, local), true))
                .collect(),
        }])
    }

    /// Delivers `msg` and returns the HELLOs the node answered with.
    fn deliver(
        node: &mut ServiceNode,
        from: NodeId,
        msg: ServiceMessage,
        at_ms: u64,
    ) -> Vec<(NodeId, ServiceMessage)> {
        let now = SimInstant::ZERO + SimDuration::from_millis(at_ms);
        let mut ctx = ServiceContext::new(now, ME, 0);
        node.on_message(from, msg, &mut ctx);
        ctx.into_effects()
            .into_iter()
            .filter_map(|effect| match effect {
                Effect::Send { to, msg } if matches!(msg, ServiceMessage::Hello { .. }) => {
                    Some((to, msg))
                }
                _ => None,
            })
            .collect()
    }

    fn is_bare_pull(msg: &ServiceMessage) -> bool {
        matches!(
            msg,
            ServiceMessage::Hello {
                pull: true,
                announcements: HelloList::Omitted,
                ..
            }
        )
    }

    #[test]
    fn hostile_digests_pull_once_and_change_nothing() {
        let mut node = joined_node();
        let synced = vec![(PEER, list_of(PEER, &[0, 1])[0].processes.clone())];
        let full = hello(1, 4, false, HelloList::Full(list_of(PEER, &[0, 1])));
        assert_eq!(deliver(&mut node, PEER, full, 10), vec![]);
        assert_eq!(node.remote_members_of(GROUP), synced);

        // The unchanged digest: no answer, no state change.
        let digest = |version| hello(1, version, false, HelloList::Omitted);
        assert_eq!(deliver(&mut node, PEER, digest(4), 20), vec![]);

        // An absurd version: exactly one pull, nothing applied — and the
        // real next version still goes through afterwards.
        let answers = deliver(&mut node, PEER, digest(u64::MAX), 30);
        assert_eq!(answers.len(), 1);
        assert!(answers[0].0 == PEER && is_bare_pull(&answers[0].1));
        assert_eq!(node.remote_members_of(GROUP), synced);
        let next = hello(1, 5, false, HelloList::Full(list_of(PEER, &[0])));
        assert_eq!(deliver(&mut node, PEER, next, 40), vec![]);
        let after = vec![(PEER, list_of(PEER, &[0])[0].processes.clone())];
        assert_eq!(node.remote_members_of(GROUP), after);

        // Regressing versions and incarnations — digest, list or pull — are
        // dropped whole: counted, unanswered, nothing resurrected.
        let regressing = [
            digest(4),
            hello(1, 4, false, HelloList::Full(list_of(PEER, &[0, 1, 2]))),
            hello(1, 4, false, HelloList::Partial(list_of(PEER, &[7]))),
            hello(1, 4, true, HelloList::Omitted),
            hello(0, 9, true, HelloList::Full(list_of(PEER, &[3]))),
        ];
        let count = regressing.len() as u64;
        for msg in regressing {
            assert_eq!(deliver(&mut node, PEER, msg, 50), vec![]);
            assert_eq!(node.remote_members_of(GROUP), after);
        }
        assert_eq!(node.count(NodeCount::HelloStaleIgnored), count);

        // A digest from a workstation outside the configured peer set: one
        // pull back to it, no membership change.
        let stranger = NodeId(77);
        let answers = deliver(&mut node, stranger, digest(3), 60);
        assert_eq!(answers.len(), 1);
        assert!(answers[0].0 == stranger && is_bare_pull(&answers[0].1));
        assert_eq!(node.remote_members_of(GROUP), after);
        assert_eq!(
            node.count(NodeCount::HelloPullsSent),
            2,
            "two pulls sent in all"
        );
    }

    #[test]
    fn an_overtaken_list_does_not_undo_a_later_partial() {
        let mut node = joined_node();
        let both = vec![(PEER, list_of(PEER, &[0, 1])[0].processes.clone())];
        // The peer's second process joined at version 6; the partial for
        // it overtakes the version-5 traffic on the way here.
        let newer = hello(1, 6, false, HelloList::Partial(list_of(PEER, &[0, 1])));
        assert_eq!(deliver(&mut node, PEER, newer, 10), vec![]);
        for older in [
            HelloList::Partial(list_of(PEER, &[0])),
            HelloList::Full(list_of(PEER, &[0])),
        ] {
            assert_eq!(
                deliver(&mut node, PEER, hello(1, 5, false, older), 20),
                vec![]
            );
            assert_eq!(node.remote_members_of(GROUP), both);
        }
        // The full list at 5 still counts as applied: the digest at 6 is
        // the news, and is pulled.
        let answers = deliver(&mut node, PEER, hello(1, 6, false, HelloList::Omitted), 30);
        assert!(answers.len() == 1 && is_bare_pull(&answers[0].1));
    }

    #[test]
    fn a_join_that_changes_nothing_keeps_the_version() {
        let mut node = joined_node();
        let mut rejoin = |candidate: bool| {
            let join = if candidate {
                JoinConfig::candidate()
            } else {
                JoinConfig::listener()
            };
            let mut ctx = ServiceContext::new(SimInstant::ZERO, ME, 0);
            node.join_group(ProcessId::new(ME, 0), GROUP, join, &mut ctx)
                .unwrap();
            ctx.into_effects()
                .into_iter()
                .find_map(|effect| match effect {
                    Effect::Send {
                        msg: ServiceMessage::Hello { version, .. },
                        ..
                    } => Some(version),
                    _ => None,
                })
                .expect("a join announces the group")
        };
        // Same process, same candidacy: peers have nothing to pull.
        let version = rejoin(true);
        assert_eq!(rejoin(true), version);
        // A candidacy change is news.
        assert_eq!(rejoin(false), version + 1);
    }

    #[test]
    fn a_pull_flood_gets_one_shared_full_list_per_pull() {
        let mut node = joined_node();
        let mut lists = Vec::new();
        for round in 0..100u64 {
            // In sync or not, with or without a list of its own: every
            // pull is answered once, to the puller, with the full list.
            let announcements = match round % 3 {
                0 => HelloList::Omitted,
                1 => HelloList::Full(list_of(PEER, &[0])),
                _ => HelloList::Partial(list_of(PEER, &[0])),
            };
            let answers = deliver(
                &mut node,
                PEER,
                hello(1, 1 + round / 10, true, announcements),
                round,
            );
            assert_eq!(answers.len(), 1, "round {round}: {answers:?}");
            let (to, answer) = answers.into_iter().next().unwrap();
            assert_eq!(to, PEER);
            let ServiceMessage::Hello {
                announcements: HelloList::Full(list),
                ..
            } = answer
            else {
                panic!("round {round}: a pull must be answered with a full list");
            };
            lists.push(list);
        }
        // The list is built once per version, whoever pulls it, however often.
        assert!(lists.iter().all(|list| Arc::ptr_eq(list, &lists[0])));
        assert_eq!(node.count(NodeCount::HelloFullSent), 100);
    }

    #[test]
    fn random_hellos_never_panic_and_answer_at_most_once() {
        let mut rng = SimRng::seed_from(0x4E111);
        let mut node = joined_node();
        for step in 0..20_000u64 {
            let from = NodeId(1 + rng.uniform_usize(4) as u32);
            let version = match rng.uniform_usize(4) {
                0 => u64::MAX - rng.next_u64() % 3,
                1 => rng.next_u64(),
                _ => rng.next_u64() % 6,
            };
            let locals: Vec<u32> = (0..rng.uniform_usize(4) as u32).collect();
            let announcements = match rng.uniform_usize(3) {
                0 => HelloList::Omitted,
                1 => HelloList::Full(list_of(from, &locals)),
                _ => HelloList::Partial(list_of(from, &locals)),
            };
            let msg = hello(
                rng.next_u64() % 3,
                version,
                rng.bernoulli(0.3),
                announcements,
            );
            let answers = deliver(&mut node, from, msg, step);
            assert!(answers.len() <= 1, "step {step}: {answers:?}");
            assert!(answers.iter().all(|(to, _)| *to == from));
        }
    }
}

/// The ALIVE fast path against an eager reference model: one `ServiceNode`
/// driven by hand (its timers fired in time order) hears a scripted peer
/// over a lossy, duplicating, reordering link, and a model fed the same
/// deliveries — every heartbeat applied to every group it lists, the way
/// the service did before batches could repeat, each group judged on its
/// own `T_D` — says when each group must suspect and revive the peer. The
/// node watches all its groups' monitors of the peer from one detector
/// timer, so groups with different deadlines and policies are the case.
mod alive_fast_path {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use sle_core::{
        AliveHeader, GroupAlive, GroupAnnouncement, GroupId, HelloList, JoinConfig, NodeCount,
        NodeInstruments, ProcessId, ServiceConfig, ServiceContext, ServiceEvent, ServiceMessage,
        ServiceNode,
    };
    use sle_election::{AlivePayload, ElectorKind};
    use sle_fd::{configure, LinkQuality, QosSpec};
    use sle_obs::{Registry, TraceRing};
    use sle_sim::prelude::*;
    use sle_sim::rng::SimRng;

    /// The peer has the smaller id and the earlier accusation time, so it
    /// leads every group under all three algorithms while it is trusted.
    pub(super) const ME: NodeId = NodeId(1);
    pub(super) const PEER: NodeId = NodeId(0);
    const T_D: SimDuration = SimDuration::from_secs(1);
    pub(super) const START: SimInstant = SimInstant::from_nanos(1_000_000_000);

    pub(super) fn ms(millis: u64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    fn groups(n: u32) -> Vec<GroupId> {
        (1..=n).map(GroupId).collect()
    }

    /// Candidate joins of `groups` at the paper's QoS.
    fn alike(groups: &[GroupId]) -> Vec<(GroupId, JoinConfig)> {
        groups
            .iter()
            .map(|&g| (g, JoinConfig::candidate()))
            .collect()
    }

    /// Candidate joins of groups 1..=n that differ in turn: T_D 2 s, T_D
    /// 1 s, T_D 1 s under adaptive tuning, ... — the first group's
    /// deadlines are the latest.
    fn differing(n: u32) -> Vec<(GroupId, JoinConfig)> {
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(2));
        let join = |g: u32| match g % 3 {
            1 => JoinConfig::candidate().with_qos(slow),
            2 => JoinConfig::candidate(),
            _ => JoinConfig::candidate().with_adaptive_tuning(),
        };
        (1..=n).map(|g| (GroupId(g), join(g))).collect()
    }

    /// One `ServiceNode`, joined to `joins` at `START`, driven by hand.
    pub(super) struct Rig {
        pub(super) node: ServiceNode,
        joins: Vec<(GroupId, JoinConfig)>,
        registry: Registry,
        pub(super) now: SimInstant,
        pub(super) timers: BTreeMap<TimerTag, SimInstant>,
        pub(super) sent: Vec<(NodeId, ServiceMessage)>,
        /// Every `LeaderChanged` raised, as `(when, group, leader)`.
        pub(super) changes: Vec<(SimInstant, GroupId, Option<ProcessId>)>,
    }

    impl Rig {
        fn new(algorithm: ElectorKind, groups: &[GroupId]) -> Rig {
            Rig::joined(algorithm, alike(groups))
        }

        pub(super) fn joined(algorithm: ElectorKind, joins: Vec<(GroupId, JoinConfig)>) -> Rig {
            let mut config = ServiceConfig::full_mesh(ME, 3, algorithm);
            for &(group, join) in &joins {
                config = config.with_auto_join(group, join);
            }
            let registry = Registry::default();
            let mut node = ServiceNode::new(config);
            node.set_instruments(NodeInstruments::new(&registry, TraceRing::new(64), ME));
            let mut rig = Rig {
                node,
                joins,
                registry,
                now: START,
                timers: BTreeMap::new(),
                sent: Vec::new(),
                changes: Vec::new(),
            };
            rig.call(|node, ctx| node.on_start(ctx));
            rig
        }

        /// Runs one callback of the node at `self.now` and keeps its effects.
        fn call(&mut self, f: impl FnOnce(&mut ServiceNode, &mut ServiceContext)) {
            let mut ctx = ServiceContext::new(self.now, ME, 0);
            f(&mut self.node, &mut ctx);
            for effect in ctx.into_effects() {
                match effect {
                    Effect::Send { to, msg } => self.sent.push((to, msg)),
                    Effect::SetTimer { tag, at } => drop(self.timers.insert(tag, at)),
                    Effect::CancelTimer { tag } => drop(self.timers.remove(&tag)),
                    Effect::Emit(ServiceEvent::LeaderChanged { group, leader }) => {
                        self.changes.push((self.now, group, leader))
                    }
                }
            }
        }

        /// Fires the earliest timer due by `until`, if any, and says when
        /// and which.
        pub(super) fn fire_next(&mut self, until: SimInstant) -> Option<(SimInstant, TimerTag)> {
            let (&tag, &at) = self.timers.iter().min_by_key(|&(&tag, &at)| (at, tag))?;
            if at > until {
                return None;
            }
            self.timers.remove(&tag);
            self.now = self.now.max(at);
            self.call(|node, ctx| node.on_timer(tag, ctx));
            Some((at, tag))
        }

        fn run_to(&mut self, until: SimInstant) {
            while self.fire_next(until).is_some() {}
            self.now = until;
        }

        pub(super) fn deliver(&mut self, from: NodeId, msg: ServiceMessage) {
            self.call(|node, ctx| node.on_message(from, msg, ctx));
        }

        /// `(suspicions, mistakes)` the node recorded for `group`.
        pub(super) fn verdicts(&self, group: GroupId) -> (u64, u64) {
            let prefix = format!("node.{}.group.{}.fd", ME.0, group.0);
            let detections = self.registry.histogram(&format!("{prefix}.detection_ns"));
            let mistakes = self.registry.counter(&format!("{prefix}.mistakes"));
            (detections.snapshot().count, mistakes.get())
        }

        /// `(unchanged, applied)` ALIVE datagrams so far.
        fn paths(&self) -> (u64, u64) {
            let node = &self.node;
            (
                node.count(NodeCount::AliveUnchanged),
                node.count(NodeCount::AliveApplied),
            )
        }

        pub(super) fn join(&self, group: GroupId) -> JoinConfig {
            self.joins.iter().find(|j| j.0 == group).expect("joined").1
        }

        /// The shift δ the node's monitor of the peer uses in `group` now
        /// (the prior's before the first heartbeat creates it).
        pub(super) fn shift(&self, group: GroupId) -> SimDuration {
            let join = self.join(group);
            let prior = configure(&join.qos, &LinkQuality::conservative_prior(), join.tuning);
            self.node.fd_params_of(group, PEER).unwrap_or(prior).shift
        }

        /// The interval the node asks the peer for, over all `groups`.
        fn requested(&self, groups: &[GroupId]) -> SimDuration {
            let asked = groups
                .iter()
                .filter_map(|&g| self.node.fd_params_of(g, PEER))
                .map(|params| params.interval);
            asked.min().unwrap_or(ms(250))
        }
    }

    /// What the peer puts on the wire for `listed` groups, all at `eta`.
    pub(super) fn alive(
        algorithm: ElectorKind,
        incarnation: u64,
        seq: u64,
        sent_at: SimInstant,
        listed: &[GroupId],
        eta: SimDuration,
    ) -> ServiceMessage {
        let claim = sle_election::LeaderClaim {
            node: PEER,
            accusation_time: SimInstant::ZERO,
        };
        let payload = AlivePayload {
            accusation_time: SimInstant::ZERO,
            epoch: 0,
            local_leader: (algorithm == ElectorKind::OmegaLc).then_some(claim),
        };
        let entry = |&group| GroupAlive {
            group,
            sending_interval: eta,
            requested_interval: ms(250),
            payload,
            representative: ProcessId::new(PEER, 0),
        };
        match listed {
            // The sender encodes a batch of one as a single ALIVE.
            [group] => ServiceMessage::Alive {
                group: *group,
                header: AliveHeader {
                    incarnation,
                    seq,
                    sent_at,
                    sending_interval: eta,
                    requested_interval: ms(250),
                },
                payload,
                representative: ProcessId::new(PEER, 0),
            },
            _ => ServiceMessage::AliveBatch {
                incarnation,
                seq,
                sent_at,
                alives: listed.iter().map(entry).collect(),
            },
        }
    }

    /// The eager NFD-S monitor of one group, fed every delivered heartbeat.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) struct Eager {
        t_d: SimDuration,
        pub(super) fresh_until: Option<SimInstant>,
        pub(super) suspected: bool,
        suspicions: u64,
        mistakes: u64,
    }

    impl Eager {
        pub(super) fn new(join: &JoinConfig) -> Eager {
            Eager {
                t_d: join.qos.detection_time(),
                fresh_until: None,
                suspected: false,
                suspicions: 0,
                mistakes: 0,
            }
        }

        pub(super) fn heartbeat(
            &mut self,
            sent_at: SimInstant,
            eta: SimDuration,
            shift: SimDuration,
            now: SimInstant,
        ) {
            self.expire(now);
            let horizon = sent_at + eta.min(self.t_d) + shift;
            let fresh_until = self.fresh_until.unwrap_or(now + self.t_d).max(horizon);
            self.fresh_until = Some(fresh_until);
            if self.suspected && now < fresh_until {
                self.suspected = false;
                self.mistakes += 1;
            }
        }

        pub(super) fn expire(&mut self, now: SimInstant) {
            if !self.suspected && self.fresh_until.is_some_and(|at| now >= at) {
                self.suspected = true;
                self.suspicions += 1;
            }
        }
    }

    /// Rig and model side by side.
    struct Pair {
        rig: Rig,
        groups: Vec<GroupId>,
        model: Vec<Eager>,
    }

    impl Pair {
        fn new(algorithm: ElectorKind, n_groups: u32) -> Pair {
            Pair::joined(algorithm, alike(&groups(n_groups)))
        }

        fn joined(algorithm: ElectorKind, joins: Vec<(GroupId, JoinConfig)>) -> Pair {
            Pair {
                groups: joins.iter().map(|j| j.0).collect(),
                model: joins.iter().map(|j| Eager::new(&j.1)).collect(),
                rig: Rig::joined(algorithm, joins),
            }
        }

        /// Forgets what the model's monitor of the peer in group `i` knew.
        fn reset_model(&mut self, i: usize) {
            self.model[i] = Eager::new(&self.rig.join(self.groups[i]));
        }

        /// Node and model must agree, group by group, at `self.rig.now`.
        fn check(&mut self, what: &str) {
            let now = self.rig.now;
            for (i, &group) in self.groups.iter().enumerate() {
                self.model[i].expire(now);
                let model = (self.model[i].suspicions, self.model[i].mistakes);
                assert_eq!(
                    self.rig.verdicts(group),
                    model,
                    "{what}: (suspicions, mistakes) of {group:?} at {now:?}; model {:?}",
                    self.model[i]
                );
            }
        }

        /// Runs the node's timers up to `until`, checking after each
        /// instant's worth.
        fn run_to(&mut self, until: SimInstant, what: &str) {
            while let Some((at, _)) = self.rig.fire_next(until) {
                if self.rig.timers.values().all(|&next| next > at) {
                    self.check(what);
                }
            }
            self.rig.now = until;
            self.check(what);
        }

        /// Delivers one datagram listing `listed` at `eta` to both.
        fn deliver(
            &mut self,
            algorithm: ElectorKind,
            (seq, sent_at): (u64, SimInstant),
            listed: &[GroupId],
            eta: SimDuration,
            what: &str,
        ) {
            let now = self.rig.now;
            for &group in listed {
                let i = self.groups.iter().position(|&g| g == group).unwrap();
                self.model[i].heartbeat(sent_at, eta, self.rig.shift(group), now);
            }
            let msg = alive(algorithm, 1, seq, sent_at, listed, eta);
            self.rig.deliver(PEER, msg);
            self.check(what);
        }
    }

    /// (a) Unchanged batches for 60 s under loss, duplication, reordering
    /// and two outages: suspicions and revivals match the eager model event
    /// for event — never one more, never one later — and once the peer goes
    /// silent every vouched group suspects it within its T_D. The groups
    /// share the paper's QoS, or (`mixed`) differ in T_D and tuning policy
    /// ([`differing`]).
    #[test]
    fn unchanged_batches_are_judged_like_eager_heartbeats() {
        let mut rng = SimRng::seed_from(0xA11FE);
        let mut case = 0;
        for algorithm in ElectorKind::all() {
            for (loss, mixed) in [0.0, 0.01, 0.05, 0.15]
                .into_iter()
                .flat_map(|l| [(l, false), (l, true)])
            {
                case += 1;
                let what = format!("case {case} ({algorithm:?}, loss {loss}, mixed {mixed})");
                let mut pair = if mixed {
                    Pair::joined(algorithm, differing(2 + rng.uniform_usize(3) as u32))
                } else {
                    Pair::new(algorithm, 1 + rng.uniform_usize(4) as u32)
                };
                let listed = pair.groups.clone();
                let faulty = loss > 0.0;
                // Two outages long enough to be suspected through.
                let outage_starts = [
                    10 + rng.uniform_usize(15) as u64,
                    35 + rng.uniform_usize(15) as u64,
                ];
                let in_outage = |at: SimInstant| {
                    faulty
                        && outage_starts.iter().any(|&s| {
                            let from = START + SimDuration::from_secs(s);
                            at >= from && at < from + ms(1400)
                        })
                };
                // (deliver_at, seq, sent_at, eta), kept sorted by delivery.
                let mut flying: Vec<(SimInstant, u64, SimInstant, SimDuration)> = Vec::new();
                let (mut seq, mut next_send, mut last_sent) = (0u64, START + ms(7), START);
                let end = START + SimDuration::from_secs(60);
                while next_send < end || !flying.is_empty() {
                    let next_delivery = flying.first().map(|f| f.0);
                    if next_send < end && next_delivery.is_none_or(|at| next_send <= at) {
                        pair.run_to(next_send, &what);
                        // The peer sends at the interval the node asks for.
                        let eta = pair.rig.requested(&listed);
                        if !in_outage(next_send) {
                            let copies = 1 + usize::from(faulty && rng.bernoulli(0.3));
                            for _ in 0..copies {
                                if !rng.bernoulli(loss) {
                                    let jitter = if faulty {
                                        rng.next_u64() % 300_000_000
                                    } else {
                                        0
                                    };
                                    let delay = SimDuration::from_nanos(
                                        2_000_000 + jitter + rng.next_u64() % 1_000,
                                    );
                                    flying.push((next_send + delay, seq, next_send, eta));
                                }
                            }
                            flying.sort();
                            last_sent = next_send;
                        }
                        seq += 1;
                        next_send += eta;
                    } else {
                        let (at, seq, sent_at, eta) = flying.remove(0);
                        pair.run_to(at, &what);
                        pair.deliver(algorithm, (seq, sent_at), &listed, eta, &what);
                    }
                }
                let (unchanged, applied) = pair.rig.paths();
                assert!(
                    unchanged > 100,
                    "{what}: {unchanged} unchanged, {applied} applied"
                );
                if faulty {
                    let revived: u64 = pair.model.iter().map(|m| m.mistakes).sum();
                    assert!(
                        revived > 0,
                        "{what}: the outages must have been suspected through"
                    );
                } else {
                    // First contact, then a slow datagram only when the
                    // interval the node asked for moved.
                    assert!(applied <= 3, "{what}: {applied} applied");
                    assert_eq!(pair.model.iter().map(|m| m.suspicions).sum::<u64>(), 0);
                }
                // Silence: every group suspects within its T_D of the last
                // send.
                let slowest = pair.model.iter().map(|m| m.t_d).max().unwrap();
                pair.run_to(last_sent + slowest, &what);
                for (i, model) in pair.model.iter().enumerate() {
                    assert!(
                        model.suspected && model.fresh_until <= Some(last_sent + model.t_d),
                        "{what}: group {i} still trusted: {model:?}"
                    );
                }
            }
        }
    }

    /// The peer's `round`-th datagram (sent every 250 ms from `START`),
    /// delivered 2 ms later to rig and model alike.
    fn tick(pair: &mut Pair, algorithm: ElectorKind, round: u64, listed: &[GroupId], what: &str) {
        let sent_at = START + ms(250 * round);
        pair.run_to(sent_at + ms(2), what);
        pair.deliver(algorithm, (round, sent_at), listed, ms(250), what);
    }

    /// (b) After a suspicion, the very next datagram — the same batch as
    /// ever — revives the peer in every group: trust, leader and the
    /// mistake count all come back, because that datagram went slow.
    #[test]
    fn a_suspected_peer_is_revived_by_the_next_unchanged_batch() {
        for algorithm in ElectorKind::all() {
            let what = format!("{algorithm:?}");
            let mut pair = Pair::new(algorithm, 3);
            let listed = pair.groups.clone();
            for round in 0..8 {
                tick(&mut pair, algorithm, round, &listed, &what);
            }
            let leader = Some(ProcessId::new(PEER, 0));
            assert!(listed.iter().all(|&g| pair.rig.node.leader_of(g) == leader));
            // Rounds 8..16 are lost: suspected everywhere, leaderless or
            // self-led, the model agreeing on when.
            // A late copy of round 7's datagram is too old to revive it...
            pair.run_to(START + ms(250 * 16 - 10), &what);
            pair.deliver(algorithm, (7, START + ms(250 * 7)), &listed, ms(250), &what);
            assert!(
                listed.iter().all(|&g| pair.rig.verdicts(g) == (1, 0)),
                "{what}"
            );
            // ...and must not let the fresh one through as a mere repeat.
            let (unchanged, applied) = pair.rig.paths();
            tick(&mut pair, algorithm, 16, &listed, &what);
            for (i, &group) in listed.iter().enumerate() {
                assert_eq!(pair.rig.verdicts(group), (1, 1), "{what}: {group:?}");
                assert_eq!(pair.model[i].mistakes, 1);
                assert_eq!(pair.rig.node.leader_of(group), leader, "{what}: {group:?}");
                // The detection latency counts from the last repeat heard
                // (round 7's), not from the last batch applied (round 0's).
                let name = format!("node.{}.group.{}.fd.detection_ns", ME.0, group.0);
                let silent_ms = pair.rig.registry.histogram(&name).snapshot().sum / 1_000_000;
                assert!(
                    (990..1030).contains(&silent_ms),
                    "{what}: silent for {silent_ms} ms"
                );
            }
            assert_eq!(pair.rig.paths(), (unchanged, applied + 1), "{what}");
            // And the one after is a repeat again.
            tick(&mut pair, algorithm, 17, &listed, &what);
            assert_eq!(pair.rig.paths(), (unchanged + 1, applied + 1), "{what}");
        }
    }

    /// (c) A group dropped from a changed batch expires on what it was
    /// really sent, while the peer keeps vouching for the others.
    #[test]
    fn a_group_dropped_from_the_batch_expires_alone() {
        for algorithm in ElectorKind::all() {
            let what = format!("{algorithm:?}");
            let mut pair = Pair::new(algorithm, 3);
            let all = pair.groups.clone();
            for round in 0..8 {
                tick(&mut pair, algorithm, round, &all, &what);
            }
            let (kept, dropped) = (&all[..2], all[2]);
            for round in 8..24 {
                tick(&mut pair, algorithm, round, kept, &what);
                if round == 9 {
                    // A late copy of round 5's full batch: applied, but the
                    // dropped group gains nothing from the later stamps.
                    pair.deliver(algorithm, (5, START + ms(250 * 5)), &all, ms(250), &what);
                }
            }
            assert_eq!(pair.rig.verdicts(dropped), (1, 0), "{what}");
            // Its last heartbeat was round 7's: suspected η + δ after that
            // (the prior's η is below the 250 ms the peer sends at).
            let expired = pair.model[2].fresh_until.unwrap();
            let last = START + ms(250 * 7);
            assert!(
                last + T_D <= expired && expired < last + T_D + ms(250),
                "{what}: {expired:?}"
            );
            assert!(
                kept.iter().all(|&g| pair.rig.verdicts(g) == (0, 0)),
                "{what}"
            );
            let (unchanged, applied) = pair.rig.paths();
            // Slow: first contact, the drop, the late copy, the batch after
            // it, and the one after the dropped group's suspicion.
            assert_eq!((unchanged, applied), (25 - 5, 5), "{what}");
        }
    }

    /// (d) A local join, a local leave, a HELLO that changes the peer's
    /// member entry, a LEAVE that removes it and a new incarnation each send
    /// the next datagram down the slow path — once.
    #[test]
    fn structural_changes_force_one_slow_datagram() {
        let algorithm = ElectorKind::OmegaL;
        let what = "structural";
        let mut pair = Pair::new(algorithm, 2);
        let listed = pair.groups.clone();
        let mut round = 0;
        let mut repeat = |pair: &mut Pair, want_slow: u64, why: &str| {
            for slow in [want_slow, 0, 0] {
                let (unchanged, applied) = pair.rig.paths();
                tick(pair, algorithm, round, &listed, what);
                round += 1;
                let fast = 1 - slow;
                assert_eq!(
                    pair.rig.paths(),
                    (unchanged + fast, applied + slow),
                    "{why}"
                );
            }
        };
        repeat(&mut pair, 1, "first contact");
        let extra = GroupId(9);
        let process = ProcessId::new(ME, 0);
        pair.rig.call(|node, ctx| {
            node.join_group(process, extra, JoinConfig::candidate(), ctx)
                .unwrap()
        });
        repeat(&mut pair, 1, "local join");
        pair.rig
            .call(|node, ctx| node.leave_group(process, extra, ctx).unwrap());
        repeat(&mut pair, 1, "local leave");
        let hello = ServiceMessage::Hello {
            incarnation: 1,
            version: 3,
            sent_at: pair.rig.now,
            pull: false,
            announcements: HelloList::Full(Arc::from([GroupAnnouncement {
                group: listed[0],
                processes: vec![
                    (ProcessId::new(PEER, 0), true),
                    (ProcessId::new(PEER, 1), false),
                ],
            }])),
        };
        pair.rig.deliver(PEER, hello);
        repeat(&mut pair, 1, "HELLO changed the member entry");
        for local in [0, 1] {
            let leave = ServiceMessage::Leave {
                group: listed[0],
                process: ProcessId::new(PEER, local),
            };
            pair.rig.deliver(PEER, leave);
        }
        assert!(pair.rig.node.remote_members_of(listed[0]).is_empty());
        // The model's monitor went with the member; it restarts below.
        pair.reset_model(0);
        repeat(&mut pair, 1, "LEAVE removed the member");
        assert_eq!(pair.rig.node.remote_members_of(listed[0]).len(), 1);
        // A new incarnation: everything learnt is reset, then re-learnt.
        for i in 0..2 {
            pair.reset_model(i);
        }
        let sent_at = START + ms(250 * round);
        pair.run_to(sent_at + ms(2), what);
        let (unchanged, applied) = pair.rig.paths();
        pair.rig
            .deliver(PEER, alive(algorithm, 2, 0, sent_at, &listed, ms(250)));
        pair.rig
            .deliver(PEER, alive(algorithm, 2, 1, sent_at, &listed, ms(250)));
        assert_eq!(
            pair.rig.paths(),
            (unchanged + 1, applied + 1),
            "new incarnation"
        );
        // ...and the old life's datagrams are now dropped whole.
        pair.rig.deliver(
            PEER,
            alive(algorithm, 1, 99, sent_at, &listed[..1], ms(250)),
        );
        assert_eq!(
            pair.rig.paths(),
            (unchanged + 1, applied + 1),
            "stale incarnation"
        );
    }

    /// (d') A HELLO naming the peer a candidate of a group its batches do
    /// not list starts a monitor there, while repeats keep vouching for the
    /// group they do list: the new monitor suspects the peer one T_D later,
    /// on its own grace period — a T_D shorter than the peer's heartbeat
    /// interval, so before any datagram arrives — and the other not at all.
    #[test]
    fn a_monitor_started_between_repeats_expires_on_its_grace() {
        let brief = QosSpec::paper_default_with_detection(ms(200));
        for algorithm in ElectorKind::all() {
            let what = format!("{algorithm:?}");
            let joins = vec![
                (GroupId(1), JoinConfig::candidate()),
                (GroupId(2), JoinConfig::candidate().with_qos(brief)),
            ];
            let mut pair = Pair::joined(algorithm, joins);
            let (listed, quiet) = ([pair.groups[0]], pair.groups[1]);
            for round in 0..8 {
                tick(&mut pair, algorithm, round, &listed, &what);
            }
            let candidate = vec![(ProcessId::new(PEER, 0), true)];
            let hello = ServiceMessage::Hello {
                incarnation: 1,
                version: 1,
                sent_at: pair.rig.now,
                pull: false,
                announcements: HelloList::Full(
                    (pair.groups.iter())
                        .map(|&group| GroupAnnouncement {
                            group,
                            processes: candidate.clone(),
                        })
                        .collect(),
                ),
            };
            pair.rig.deliver(PEER, hello);
            pair.model[1].fresh_until = Some(pair.rig.now + brief.detection_time());
            for round in 8..20 {
                tick(&mut pair, algorithm, round, &listed, &what);
            }
            assert_eq!(pair.rig.verdicts(quiet), (1, 0), "{what}");
            assert_eq!(pair.rig.verdicts(listed[0]), (0, 0), "{what}");
        }
    }

    /// (e) Two send grids: the peer alternates two subset batches, so no
    /// datagram repeats its predecessor — all slow, all correct.
    #[test]
    fn alternating_subset_batches_stay_correct_on_the_slow_path() {
        for algorithm in ElectorKind::all() {
            let what = format!("{algorithm:?}");
            let mut pair = Pair::new(algorithm, 4);
            let all = pair.groups.clone();
            let (a, b) = all.split_at(1);
            for round in 0..40 {
                // Grid A every 250 ms, grid B every other round too.
                tick(
                    &mut pair,
                    algorithm,
                    round,
                    if round % 2 == 0 { a } else { b },
                    &what,
                );
            }
            assert_eq!(pair.rig.paths(), (0, 40), "{what}");
            assert!(
                all.iter().all(|&g| pair.rig.verdicts(g) == (0, 0)),
                "{what}"
            );
            // Lost rounds 40..48, then both grids come back.
            tick(&mut pair, algorithm, 48, a, &what);
            tick(&mut pair, algorithm, 49, b, &what);
            assert!(
                all.iter().all(|&g| pair.rig.verdicts(g) == (1, 1)),
                "{what}"
            );
        }
    }

    /// The peer falls silent after 8 rounds in every group it shares with
    /// `ME`. The one detector fire that suspects it everywhere sends it one
    /// ACCUSE naming every group once, in ascending group order, while the
    /// list fits the batch budget; a longer list splits, each part within
    /// a datagram, and every accusation still arrives exactly once.
    #[test]
    fn one_detector_fire_accuses_a_peer_once_per_budget() {
        for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
            for (n, messages) in [(3, 1), (250, 3)] {
                let what = format!("{algorithm:?}, {n} groups");
                let listed = groups(n);
                let mut rig = Rig::new(algorithm, &listed);
                for round in 0..8 {
                    let sent_at = START + ms(250 * round);
                    rig.run_to(sent_at + ms(2));
                    rig.deliver(PEER, alive(algorithm, 1, round, sent_at, &listed, ms(250)));
                }
                // Each fire's accusations, for the fires that made any.
                let mut fires = Vec::new();
                while rig.fire_next(START + ms(4_000)).is_some() {
                    let lists: Vec<Vec<(GroupId, u64)>> = (rig.sent.drain(..))
                        .filter_map(|(to, msg)| match msg {
                            ServiceMessage::Accuse { accusations } if to == PEER => {
                                Some(accusations)
                            }
                            _ => None,
                        })
                        .collect();
                    if !lists.is_empty() {
                        fires.push(lists);
                    }
                }
                assert!(listed.iter().all(|&g| rig.verdicts(g) == (1, 0)), "{what}");
                assert_eq!(fires.len(), 1, "{what}: fires that accused");
                let lists = fires.pop().unwrap();
                assert_eq!(lists.len(), messages, "{what}: ACCUSE messages");
                for list in &lists {
                    let msg = ServiceMessage::Accuse {
                        accusations: list.clone(),
                    };
                    let frame = sle_wire::encode_frame(ME, &msg).expect("fits a datagram");
                    assert!(frame.len() <= sle_wire::MAX_DATAGRAM, "{what}");
                }
                let expected: Vec<(GroupId, u64)> = listed.iter().map(|&g| (g, 0)).collect();
                assert_eq!(lists.concat(), expected, "{what}");
            }
        }
    }

    /// The sender side of the split: `ME` in 250 groups, each shared with
    /// the peer, fans one tick's entries out in datagrams of at most
    /// `MAX_DATAGRAM` bytes each, naming every group exactly once, in
    /// ascending group order across the tick's datagrams.
    #[test]
    fn one_tick_splits_250_groups_into_datagrams_that_fit() {
        let algorithm = ElectorKind::OmegaLc;
        let listed = groups(250);
        let mut rig = Rig::new(algorithm, &listed);
        rig.run_to(START + ms(2));
        rig.deliver(PEER, alive(algorithm, 1, 0, START, &listed, ms(250)));
        // Fire timers until one fire sends the peer ALIVEs: that tick's.
        let entries = |msg: &ServiceMessage| match msg {
            ServiceMessage::Alive { group, .. } => Some(vec![*group]),
            ServiceMessage::AliveBatch { alives, .. } => {
                Some(alives.iter().map(|alive| alive.group).collect())
            }
            _ => None,
        };
        let tick = loop {
            rig.sent.clear();
            rig.fire_next(START + ms(1_000))
                .expect("ME sends to the peer");
            let tick: Vec<_> = (rig.sent.iter())
                .filter(|(to, _)| *to == PEER)
                .filter_map(|(_, msg)| Some((msg.clone(), entries(msg)?)))
                .collect();
            if !tick.is_empty() {
                break tick;
            }
        };
        assert!(tick.len() > 1, "250 entries in one datagram");
        for (msg, _) in &tick {
            let frame = sle_wire::encode_frame(ME, msg).expect("fits a datagram");
            assert!(
                frame.len() <= sle_wire::MAX_DATAGRAM,
                "{} bytes",
                frame.len()
            );
        }
        let sent: Vec<GroupId> = tick.into_iter().flat_map(|(_, groups)| groups).collect();
        assert_eq!(sent, listed);
    }

    /// What `ME`'s own ALIVEs for `group` carried the last time it sent.
    fn last_payload_sent(rig: &Rig, group: GroupId) -> Option<AlivePayload> {
        rig.sent.iter().rev().find_map(|(_, msg)| match msg {
            ServiceMessage::Alive {
                group: g, payload, ..
            } if *g == group => Some(*payload),
            ServiceMessage::AliveBatch { alives, .. } => {
                let entry = alives.iter().find(|alive| alive.group == group)?;
                Some(entry.payload)
            }
            _ => None,
        })
    }

    /// The sender's cached plan follows the elector: an accusation that
    /// moves the accusation time and epoch shows in the very next ALIVE.
    #[test]
    fn the_cached_plan_follows_the_elector() {
        for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
            let group = GroupId(1);
            let mut rig = Rig::new(algorithm, &[group]);
            // A member to send to (a higher id, so `ME` keeps competing).
            let hello = ServiceMessage::Hello {
                incarnation: 1,
                version: 1,
                sent_at: START,
                pull: false,
                announcements: HelloList::Full(Arc::from([GroupAnnouncement {
                    group,
                    processes: vec![(ProcessId::new(NodeId(2), 0), true)],
                }])),
            };
            rig.deliver(NodeId(2), hello);
            rig.run_to(START + SimDuration::from_secs(3));
            let before = last_payload_sent(&rig, group).expect("ME competes and sends");
            let rebuilds = rig.node.count(NodeCount::AlivePlanRebuilds);
            rig.run_to(START + SimDuration::from_secs(4));
            assert_eq!(
                rig.node.count(NodeCount::AlivePlanRebuilds),
                rebuilds,
                "steady: reused"
            );
            let accuse = ServiceMessage::Accuse {
                accusations: vec![(group, before.epoch)],
            };
            rig.deliver(NodeId(2), accuse);
            rig.run_to(START + SimDuration::from_secs(5));
            let after = last_payload_sent(&rig, group).unwrap();
            assert_eq!(after.epoch, before.epoch + 1, "{algorithm:?}");
            assert!(
                after.accusation_time > before.accusation_time,
                "{algorithm:?}"
            );
            assert_eq!(rig.node.count(NodeCount::AlivePlanRebuilds), rebuilds + 1);
        }
    }

    /// (f) 20 000 random well-formed `Alive` / `AliveBatch` — stale
    /// incarnations, foreign groups, absurd intervals and timestamps, empty
    /// and oversized batches — never panic the node, and one from a lower
    /// incarnation than the sender's known one changes nothing at all.
    #[test]
    fn random_alives_never_panic_and_stale_lives_change_nothing() {
        let mut rng = SimRng::seed_from(0xA11FE2);
        let mine = groups(3);
        let mut rig = Rig::new(ElectorKind::OmegaLc, &mine);
        let mut known: BTreeMap<NodeId, u64> = BTreeMap::new();
        let absurd = |rng: &mut SimRng| match rng.uniform_usize(5) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - rng.next_u64() % 1_000,
            3 => rng.next_u64(),
            _ => rng.next_u64() % 2_000_000_000,
        };
        for step in 0..20_000u64 {
            rig.now = START + ms(step);
            let from = NodeId(2 + rng.uniform_usize(3) as u32);
            let incarnation = rng.next_u64() % 4;
            let entries = match rng.uniform_usize(8) {
                0 => 0,
                1 => 200,
                _ => 1 + rng.uniform_usize(4),
            };
            let alives: Vec<GroupAlive> = (0..entries)
                .map(|_| GroupAlive {
                    group: GroupId(1 + rng.uniform_usize(5) as u32),
                    sending_interval: SimDuration::from_nanos(absurd(&mut rng)),
                    requested_interval: SimDuration::from_nanos(absurd(&mut rng)),
                    payload: AlivePayload {
                        accusation_time: SimInstant::from_nanos(absurd(&mut rng)),
                        epoch: absurd(&mut rng),
                        local_leader: None,
                    },
                    representative: ProcessId::new(from, rng.uniform_usize(3) as u32),
                })
                .collect();
            let (seq, sent_at) = (absurd(&mut rng), SimInstant::from_nanos(absurd(&mut rng)));
            let msg = match alives.as_slice() {
                [one] if rng.bernoulli(0.5) => ServiceMessage::Alive {
                    group: one.group,
                    header: AliveHeader {
                        incarnation,
                        seq,
                        sent_at,
                        sending_interval: one.sending_interval,
                        requested_interval: one.requested_interval,
                    },
                    payload: one.payload,
                    representative: one.representative,
                },
                _ => ServiceMessage::AliveBatch {
                    incarnation,
                    seq,
                    sent_at,
                    alives,
                },
            };
            let stale = known.get(&from).is_some_and(|&k| incarnation < k);
            let view = |rig: &Rig| {
                let per_group = |&g| {
                    (
                        rig.node.remote_members_of(g),
                        rig.node.leader_of(g),
                        rig.verdicts(g),
                    )
                };
                (
                    mine.iter().map(per_group).collect::<Vec<_>>(),
                    rig.paths(),
                    rig.sent.len(),
                )
            };
            let before = view(&rig);
            rig.deliver(from, msg);
            if stale {
                assert_eq!(
                    view(&rig),
                    before,
                    "step {step}: a stale life changed something"
                );
            } else {
                known.insert(from, incarnation);
            }
            // Let the node's own timers run now and then, on whatever the
            // hostile datagrams left behind.
            if step % 64 == 0 {
                let now = rig.now;
                rig.run_to(now);
            }
        }
    }
}

/// Membership expiry against an eager reference. One `ServiceNode` driven
/// by hand (the `alive_fast_path` rig) hears two scripted peers — a
/// candidate whose ALIVEs arrive on time, and a listener — whose HELLO
/// traffic (digests, partial lists, full lists answering the node's pulls,
/// LEAVEs) crosses a link that may lose, duplicate and reorder, while they
/// join and leave groups, pause, and restart under new incarnations. A model
/// fed the same deliveries applies the membership rule to every entry on
/// every HELLO tick — an entry quiet on its own account folds the peer's
/// stamps in, and expires if it is quiet by them too and its group's
/// detector does not trust the peer — and folds a stamp into every entry it
/// stops vouching for. After every step the node's member lists must be the
/// model's (so every expiry happens at the model's instant), its
/// `LeaderChanged` events the ones the model's membership and trust imply,
/// and its leases minted within one ALIVE interval of settling.
mod membership_expiry {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use sle_core::{
        GroupAnnouncement, GroupId, HelloList, JoinConfig, NodeCount, ProcessId, ServiceMessage,
    };
    use sle_election::ElectorKind;
    use sle_fd::QosSpec;
    use sle_sim::prelude::*;
    use sle_sim::rng::SimRng;

    use super::alive_fast_path::{alive, ms, Eager, Rig, PEER, START};

    /// The second scripted peer: a listener, which no detector watches.
    const LISTENER: NodeId = NodeId(2);
    /// A group the peers announce and the node is not in.
    const FOREIGN: GroupId = GroupId(9);
    const HELLO_TIMER: TimerTag = TimerTag(0);
    /// `ServiceConfig`'s default membership timeout.
    const TIMEOUT: SimDuration = SimDuration::from_secs(5);
    const ETA: SimDuration = SimDuration::from_millis(250);

    /// The node's groups: three at the paper's QoS, and one whose T_D (8 s)
    /// outlasts the membership timeout, so a silent peer stays trusted there
    /// past it.
    fn joins() -> Vec<(GroupId, JoinConfig)> {
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
        let join = |g| match g {
            4 => JoinConfig::candidate().with_qos(slow),
            _ => JoinConfig::candidate(),
        };
        (1..=4).map(|g| (GroupId(g), join(g))).collect()
    }

    /// What the node knows of one peer, as far as membership goes.
    #[derive(Debug, Default)]
    struct Peer {
        incarnation: Option<u64>,
        applied: Option<u64>,
        resync: bool,
        hello_heard: SimInstant,
        alive_groups: Vec<GroupId>,
        alive_heard: SimInstant,
    }

    /// One member entry.
    #[derive(Debug)]
    struct Entry {
        last_heard: SimInstant,
        listed_at: Option<u64>,
        processes: Vec<(ProcessId, bool)>,
    }

    /// One group the node is in.
    #[derive(Debug)]
    struct Group {
        id: GroupId,
        join: JoinConfig,
        /// The node's own process in the group.
        me: ProcessId,
        members: BTreeMap<NodeId, Entry>,
        monitors: BTreeMap<NodeId, Eager>,
        /// Whether the candidate peer is in the group's elector, and trusted
        /// there.
        elected: (bool, bool),
        /// The leader last announced, and since when it is the node itself.
        leader: Option<ProcessId>,
        led_since: Option<SimInstant>,
    }

    impl Group {
        /// Forgets `peer`'s entry, its monitor, and its place in the elector.
        fn forget(&mut self, peer: NodeId) {
            self.members.remove(&peer);
            self.monitors.remove(&peer);
            if peer == PEER {
                self.elected.0 = false;
            }
        }
    }

    /// A monitor created (or reset) at `now`: trusted for one T_D.
    fn started(join: &JoinConfig, now: SimInstant) -> Eager {
        let mut monitor = Eager::new(join);
        monitor.fresh_until = Some(now + join.qos.detection_time());
        monitor
    }

    /// The eager reference.
    #[derive(Debug, Default)]
    struct Model {
        peers: BTreeMap<NodeId, Peer>,
        groups: Vec<Group>,
        expiries: Vec<(SimInstant, GroupId, NodeId)>,
        changes: Vec<(SimInstant, GroupId, Option<ProcessId>)>,
        /// Entries quiet past the timeout by every stamp that a trusting
        /// detector kept.
        kept_trusted: u64,
        /// Entries a full list at a new version left unnamed: they lost the
        /// digests' vouch.
        unvouched: u64,
    }

    impl Model {
        /// When `peer`'s entry in `group` was last heard, stamps included.
        fn heard(peer: &Peer, group: GroupId, entry: &Entry) -> SimInstant {
            let mut heard = entry.last_heard;
            if entry.listed_at.is_some() && entry.listed_at == peer.applied {
                heard = heard.max(peer.hello_heard);
            }
            if peer.alive_groups.contains(&group) {
                heard = heard.max(peer.alive_heard);
            }
            heard
        }

        fn note_incarnation(&mut self, now: SimInstant, from: NodeId, incarnation: u64) {
            let peer = self.peers.entry(from).or_default();
            let known = peer.incarnation;
            if known.is_some_and(|known| incarnation <= known) {
                return;
            }
            peer.incarnation = Some(incarnation);
            peer.applied = None;
            peer.alive_groups.clear();
            if known.is_none() {
                return;
            }
            for group in &mut self.groups {
                if group.members.contains_key(&from) {
                    group.forget(from);
                    group.monitors.insert(from, started(&group.join, now));
                }
            }
        }

        fn hello(
            &mut self,
            now: SimInstant,
            from: NodeId,
            (incarnation, version): (u64, u64),
            list: &HelloList,
        ) {
            let peer = self.peers.entry(from).or_default();
            let same_life = peer.incarnation == Some(incarnation);
            let behind = !(same_life && peer.applied == Some(version) && !peer.resync);
            if behind {
                if peer.incarnation.is_some_and(|known| incarnation < known)
                    || (same_life && peer.applied.is_some_and(|applied| version < applied))
                {
                    return;
                }
                self.note_incarnation(now, from, incarnation);
            }
            let peer = self.peers.get_mut(&from).unwrap();
            let heard = std::mem::replace(&mut peer.hello_heard, now);
            let Some(announcements) = list.announcements().filter(|_| behind) else {
                return;
            };
            if matches!(list, HelloList::Full(_)) {
                let moved = peer.applied.filter(|&applied| applied != version);
                (peer.applied, peer.resync) = (Some(version), false);
                for group in &mut self.groups {
                    let entry = group.members.get_mut(&from);
                    if let Some(entry) = entry.filter(|e| moved.is_some() && e.listed_at == moved) {
                        entry.last_heard = entry.last_heard.max(heard);
                        let named = announcements.iter().any(|a| a.group == group.id);
                        self.unvouched += u64::from(!named);
                    }
                }
            }
            for announcement in announcements {
                let Some(group) = self.groups.iter_mut().find(|g| g.id == announcement.group)
                else {
                    continue;
                };
                let created = !group.members.contains_key(&from);
                let entry = group.members.entry(from).or_insert(Entry {
                    last_heard: now,
                    listed_at: None,
                    processes: Vec::new(),
                });
                entry.last_heard = now;
                if entry.listed_at.is_some_and(|at| at > version) {
                    continue;
                }
                entry.listed_at = Some(version);
                if created || entry.processes != announcement.processes {
                    entry.processes = announcement.processes.clone();
                    let candidate = entry.processes.iter().any(|&(_, c)| c);
                    if candidate && !group.monitors.contains_key(&from) {
                        group.monitors.insert(from, started(&group.join, now));
                    }
                }
            }
        }

        /// A datagram of the candidate peer listing `listed`, sent at
        /// `sent_at`; `shifts` are the node's δ per group before it.
        fn alive(
            &mut self,
            now: SimInstant,
            (incarnation, sent_at): (u64, SimInstant),
            listed: &[GroupId],
            shifts: &BTreeMap<GroupId, SimDuration>,
        ) {
            let known = self.peers.entry(PEER).or_default().incarnation;
            if known != Some(incarnation) {
                if known.is_some_and(|known| incarnation < known) {
                    return;
                }
                self.note_incarnation(now, PEER, incarnation);
            }
            let peer = self.peers.get_mut(&PEER).unwrap();
            let heard = std::mem::replace(&mut peer.alive_heard, now);
            let was = std::mem::replace(&mut peer.alive_groups, listed.to_vec());
            for group in &mut self.groups {
                if let Some(entry) = group.members.get_mut(&PEER) {
                    if was.contains(&group.id) {
                        entry.last_heard = entry.last_heard.max(heard);
                    }
                }
                if !listed.contains(&group.id) {
                    continue;
                }
                let entry = group.members.entry(PEER).or_insert(Entry {
                    last_heard: now,
                    listed_at: None,
                    processes: vec![(ProcessId::new(PEER, 0), true)],
                });
                entry.last_heard = now;
                let join = group.join;
                let monitor = group.monitors.entry(PEER).or_insert(Eager::new(&join));
                monitor.heartbeat(sent_at, ETA, shifts[&group.id], now);
                group.elected = (true, true);
            }
        }

        fn leave(&mut self, from: NodeId, group: GroupId, process: ProcessId) {
            let Some(group) = self.groups.iter_mut().find(|g| g.id == group) else {
                return;
            };
            let Some(entry) = group.members.get_mut(&from) else {
                return;
            };
            let listed = entry.processes.len();
            entry.processes.retain(|&(p, _)| p != process);
            if entry.processes.len() != listed {
                self.peers.entry(from).or_default().resync = true;
            }
            if entry.processes.is_empty() {
                group.forget(from);
            }
        }

        /// The eager rule, on every entry: fold, then expire.
        fn hello_tick(&mut self, now: SimInstant) {
            for group in &mut self.groups {
                let mut expired = Vec::new();
                for (&id, entry) in &mut group.members {
                    if now.saturating_since(entry.last_heard) <= TIMEOUT {
                        continue;
                    }
                    entry.last_heard = Self::heard(&self.peers[&id], group.id, entry);
                    if now.saturating_since(entry.last_heard) <= TIMEOUT {
                        continue;
                    }
                    // The detector's timer at this very instant fires after
                    // the HELLO tick.
                    let monitor = group.monitors.get(&id);
                    if monitor.is_some_and(|m| !m.suspected && m.fresh_until >= Some(now)) {
                        self.kept_trusted += 1;
                        continue;
                    }
                    expired.push(id);
                }
                for id in expired {
                    group.forget(id);
                    self.peers.get_mut(&id).unwrap().resync = true;
                    self.expiries.push((now, group.id, id));
                }
            }
        }

        /// The suspicions due by `now`, then the leader each group announces:
        /// the candidate peer while its elector trusts it (it outranks the
        /// node under every algorithm), else the node once its grace ended.
        fn settle(&mut self, now: SimInstant) {
            for group in &mut self.groups {
                for (&id, monitor) in &mut group.monitors {
                    let trusted = !monitor.suspected;
                    monitor.expire(now);
                    if id == PEER && trusted && monitor.suspected {
                        group.elected.1 = false;
                    }
                }
                let grace_ends = START + group.join.qos.detection_time() * 2;
                let leader = match group.elected {
                    (true, true) => Some(ProcessId::new(PEER, 0)),
                    _ if now >= grace_ends => Some(group.me),
                    _ => None,
                };
                if leader != group.leader {
                    group.leader = leader;
                    group.led_since = (leader == Some(group.me)).then_some(now);
                    self.changes.push((now, group.id, leader));
                }
            }
        }
    }

    /// `(when, group, leader)` events, keeping the last of each `(when,
    /// group)` and dropping those that announce no change.
    fn net_changes(
        events: &[(SimInstant, GroupId, Option<ProcessId>)],
    ) -> Vec<(SimInstant, GroupId, Option<ProcessId>)> {
        let mut last: BTreeMap<(SimInstant, GroupId), (usize, Option<ProcessId>)> = BTreeMap::new();
        for (i, &(at, group, leader)) in events.iter().enumerate() {
            last.insert((at, group), (i, leader));
        }
        let mut ordered: Vec<_> = last.into_iter().collect();
        ordered.sort_by_key(|&((at, _), (i, _))| (at, i));
        let mut announced: BTreeMap<GroupId, Option<ProcessId>> = BTreeMap::new();
        let mut net = Vec::new();
        for ((at, group), (_, leader)) in ordered {
            if announced.insert(group, leader) != Some(leader) {
                net.push((at, group, leader));
            }
        }
        net
    }

    /// What a scripted peer does at some instant.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        Join(GroupId),
        Leave(GroupId),
        /// Silent — no HELLO, no ALIVE — for this long, then back as it was.
        Pause(SimDuration),
        /// Down for this long, then back under the next incarnation.
        Restart(SimDuration),
    }

    /// One scripted peer.
    #[derive(Debug)]
    struct Script {
        id: NodeId,
        incarnation: u64,
        version: u64,
        groups: BTreeSet<GroupId>,
        /// Silent until then.
        quiet_until: SimInstant,
        seq: u64,
    }

    impl Script {
        fn announce(&self, group: GroupId) -> GroupAnnouncement {
            let candidate = self.id == PEER;
            GroupAnnouncement {
                group,
                processes: vec![(ProcessId::new(self.id, 0), candidate)],
            }
        }

        fn hello(&self, now: SimInstant, list: HelloList) -> ServiceMessage {
            ServiceMessage::Hello {
                incarnation: self.incarnation,
                version: self.version,
                sent_at: now,
                pull: false,
                announcements: list,
            }
        }

        fn full(&self, now: SimInstant) -> ServiceMessage {
            let list = self.groups.iter().map(|&g| self.announce(g)).collect();
            self.hello(now, HelloList::Full(list))
        }

        /// Joins `group` afresh: a new version, announced by a partial.
        fn join(&mut self, now: SimInstant, group: GroupId) -> ServiceMessage {
            self.groups.insert(group);
            self.version += 1;
            self.hello(now, HelloList::Partial(Arc::from([self.announce(group)])))
        }
    }

    /// One run: the peers' starting groups and acts, and the link their
    /// HELLO traffic crosses.
    struct Case {
        algorithm: ElectorKind,
        start: [Vec<GroupId>; 2],
        acts: Vec<(SimInstant, usize, Act)>,
        loss: f64,
        /// Duplicates and up to 300 ms of jitter on top of the loss.
        faulty: bool,
        /// Every LEAVE is lost.
        lose_leaves: bool,
        until: SimInstant,
        seed: u64,
    }

    /// What happened in a run, for the family's coverage checks.
    #[derive(Debug, Default)]
    struct Seen {
        expiries: [u64; 2],
        kept_trusted: u64,
        unvouched: u64,
        leaves_lost: u64,
        partials: u64,
        restarts: u64,
        changes: u64,
        minted: u64,
        walks: u64,
        ticks: u64,
    }

    /// A scheduled step of the run.
    enum Step {
        Deliver(NodeId, ServiceMessage),
        /// The candidate peer's ALIVE tick.
        Alive,
        /// Peer `i`'s periodic digest.
        Digest(usize),
        Act(usize, Act),
        /// Peer `i` ends a pause, or (true) comes back from a restart.
        Back(usize, bool),
    }

    struct Scene<'a> {
        case: &'a Case,
        rig: Rig,
        model: Model,
        scripts: [Script; 2],
        queue: BTreeMap<(SimInstant, u64), Step>,
        next: u64,
        rng: SimRng,
        seen: Seen,
        pulls_seen: usize,
        what: String,
    }

    impl<'a> Scene<'a> {
        /// A scene for `case`, adding what it sees to `seen`.
        fn new(case: &'a Case, seen: Seen) -> Scene<'a> {
            let joins = joins();
            let rig = Rig::joined(case.algorithm, joins.clone());
            let groups = joins
                .iter()
                .map(|&(id, join)| Group {
                    id,
                    join,
                    me: rig.node.local_members_of(id)[0],
                    members: BTreeMap::new(),
                    monitors: BTreeMap::new(),
                    elected: (false, false),
                    leader: None,
                    led_since: None,
                })
                .collect();
            let script = |id| Script {
                id,
                incarnation: 1,
                version: 0,
                groups: BTreeSet::new(),
                quiet_until: START,
                seq: 0,
            };
            let mut scene = Scene {
                case,
                rig,
                model: Model {
                    groups,
                    ..Model::default()
                },
                scripts: [script(PEER), script(LISTENER)],
                queue: BTreeMap::new(),
                next: 0,
                rng: SimRng::seed_from(case.seed),
                seen,
                pulls_seen: 0,
                what: format!(
                    "{:?}, loss {}, faulty {}, seed {:#x}",
                    case.algorithm, case.loss, case.faulty, case.seed
                ),
            };
            scene.schedule(START + ms(7), Step::Alive);
            scene.schedule(START + ms(300), Step::Digest(0));
            scene.schedule(START + ms(600), Step::Digest(1));
            for (i, groups) in case.start.iter().enumerate() {
                for &group in groups {
                    scene.schedule(START + ms(3), Step::Act(i, Act::Join(group)));
                }
            }
            for &(at, i, act) in &case.acts {
                scene.schedule(at, Step::Act(i, act));
            }
            scene
        }

        fn schedule(&mut self, at: SimInstant, step: Step) {
            self.queue.insert((at, self.next), step);
            self.next += 1;
        }

        fn quiet(&self, i: usize) -> bool {
            self.rig.now < self.scripts[i].quiet_until
        }

        /// Puts one HELLO or LEAVE of peer `i` on the link; false if every
        /// copy was lost.
        fn post(&mut self, i: usize, msg: ServiceMessage) -> bool {
            let case = self.case;
            let lost = case.lose_leaves && matches!(msg, ServiceMessage::Leave { .. });
            let copies = 1 + usize::from(case.faulty && self.rng.bernoulli(0.3));
            let mut delivered = false;
            for _ in 0..copies {
                if lost || self.rng.bernoulli(case.loss) {
                    continue;
                }
                let jitter = if case.faulty {
                    self.rng.next_u64() % 300_000_000
                } else {
                    0
                };
                let delay =
                    SimDuration::from_nanos(2_000_000 + jitter + self.rng.next_u64() % 1_000);
                let from = self.scripts[i].id;
                self.schedule(self.rig.now + delay, Step::Deliver(from, msg.clone()));
                delivered = true;
            }
            delivered
        }

        /// Node and model must agree at `self.rig.now`.
        fn check(&mut self) {
            let now = self.rig.now;
            self.model.settle(now);
            for group in &self.model.groups {
                let want: Vec<_> = (group.members.iter())
                    .map(|(&peer, entry)| (peer, entry.processes.clone()))
                    .collect();
                assert_eq!(
                    self.rig.node.remote_members_of(group.id),
                    want,
                    "{}: members of {:?} at {now:?}; model expiries {:?}",
                    self.what,
                    group.id,
                    self.model.expiries
                );
                let lease = self.rig.node.lease_of(group.id);
                let t_d = group.join.qos.detection_time();
                let settled = group.led_since.map(|since| since + t_d);
                if lease.is_some() {
                    assert!(
                        settled.is_some_and(|at| now >= at),
                        "{}: {:?} holds a lease at {now:?}, led since {:?}",
                        self.what,
                        group.id,
                        group.led_since
                    );
                    self.seen.minted += 1;
                }
                // A group's ALIVE tick comes at least every T_D / 4.
                if settled.is_some_and(|at| now >= at + t_d / 4 + ms(1)) {
                    assert!(
                        lease.is_some(),
                        "{}: {:?} led since {:?} and has not minted by {now:?}",
                        self.what,
                        group.id,
                        group.led_since
                    );
                }
            }
        }

        /// Fires the node's timers up to `until` — the model's HELLO tick
        /// beside the node's — checking after each instant's worth.
        fn run_to(&mut self, until: SimInstant) {
            while let Some((at, tag)) = self.rig.fire_next(until) {
                if tag == HELLO_TIMER {
                    self.model.hello_tick(at);
                    self.seen.ticks += 1;
                }
                if self.rig.timers.values().all(|&next| next > at) {
                    self.check();
                }
            }
            self.rig.now = until;
        }

        /// Peers answer the node's pulls with their full lists.
        fn answer_pulls(&mut self) {
            let sent = &self.rig.sent[self.pulls_seen..];
            let pulled: Vec<NodeId> = (sent.iter())
                .filter(|(_, msg)| matches!(msg, ServiceMessage::Hello { pull: true, .. }))
                .map(|&(to, _)| to)
                .collect();
            self.pulls_seen = self.rig.sent.len();
            for to in pulled {
                let i = usize::from(to == LISTENER);
                if !self.quiet(i) {
                    let full = self.scripts[i].full(self.rig.now);
                    self.post(i, full);
                }
            }
        }

        fn deliver(&mut self, from: NodeId, msg: ServiceMessage) {
            let now = self.rig.now;
            let shifts: BTreeMap<GroupId, SimDuration> = (self.model.groups.iter())
                .map(|g| (g.id, self.rig.shift(g.id)))
                .collect();
            match &msg {
                ServiceMessage::Hello {
                    incarnation,
                    version,
                    announcements,
                    ..
                } => (self.model).hello(now, from, (*incarnation, *version), announcements),
                ServiceMessage::Leave { group, process } => {
                    self.model.leave(from, *group, *process)
                }
                ServiceMessage::Alive { group, header, .. } => {
                    let at = (header.incarnation, header.sent_at);
                    self.model.alive(now, at, &[*group], &shifts);
                }
                ServiceMessage::AliveBatch {
                    incarnation,
                    sent_at,
                    alives,
                    ..
                } => {
                    let listed: Vec<GroupId> = alives.iter().map(|a| a.group).collect();
                    (self.model).alive(now, (*incarnation, *sent_at), &listed, &shifts);
                }
                _ => unreachable!("the peers send HELLOs, LEAVEs and ALIVEs"),
            }
            self.rig.deliver(from, msg);
            self.check();
        }

        fn act(&mut self, i: usize, act: Act) {
            let now = self.rig.now;
            if self.quiet(i) {
                return;
            }
            match act {
                Act::Join(group) if !self.scripts[i].groups.contains(&group) => {
                    let partial = self.scripts[i].join(now, group);
                    self.seen.partials += u64::from(self.post(i, partial));
                }
                Act::Leave(group) if self.scripts[i].groups.remove(&group) => {
                    let script = &mut self.scripts[i];
                    script.version += 1;
                    let process = ProcessId::new(script.id, 0);
                    let leave = ServiceMessage::Leave { group, process };
                    self.seen.leaves_lost += u64::from(!self.post(i, leave));
                }
                Act::Pause(silent) | Act::Restart(silent) => {
                    self.scripts[i].quiet_until = now + silent;
                    let restart = matches!(act, Act::Restart(_));
                    self.schedule(now + silent, Step::Back(i, restart));
                }
                Act::Join(_) | Act::Leave(_) => {}
            }
        }

        fn step(&mut self, step: Step) {
            let now = self.rig.now;
            match step {
                Step::Deliver(from, msg) => self.deliver(from, msg),
                Step::Alive => {
                    let script = &mut self.scripts[0];
                    let listed: Vec<GroupId> = (script.groups.iter())
                        .copied()
                        .filter(|&g| g != FOREIGN)
                        .collect();
                    if now >= script.quiet_until && !listed.is_empty() {
                        let algorithm = self.case.algorithm;
                        let msg =
                            alive(algorithm, script.incarnation, script.seq, now, &listed, ETA);
                        script.seq += 1;
                        self.schedule(now + ms(2), Step::Deliver(PEER, msg));
                    }
                    self.schedule(now + ETA, Step::Alive);
                }
                Step::Digest(i) => {
                    if !self.quiet(i) {
                        let digest = self.scripts[i].hello(now, HelloList::Omitted);
                        self.post(i, digest);
                    }
                    self.schedule(now + SimDuration::from_secs(1), Step::Digest(i));
                }
                Step::Act(i, act) => self.act(i, act),
                Step::Back(i, restart) => {
                    if restart {
                        let script = &mut self.scripts[i];
                        (script.incarnation, script.version, script.seq) =
                            (script.incarnation + 1, 0, 0);
                        self.seen.restarts += 1;
                        for group in std::mem::take(&mut self.scripts[i].groups) {
                            let partial = self.scripts[i].join(now, group);
                            self.seen.partials += u64::from(self.post(i, partial));
                        }
                    }
                }
            }
        }
    }

    /// Runs `case` to its end, node and model side by side, and holds them
    /// to the same `LeaderChanged` events.
    fn drive(case: &Case, seen: Seen) -> Scene<'_> {
        let mut scene = Scene::new(case, seen);
        while let Some(((at, _), step)) = scene.queue.pop_first() {
            if at > case.until {
                break;
            }
            scene.run_to(at);
            scene.step(step);
            scene.answer_pulls();
        }
        scene.run_to(case.until);
        let (node, model) = (
            net_changes(&scene.rig.changes),
            net_changes(&scene.model.changes),
        );
        let first = node.iter().zip(&model).position(|(n, m)| n != m);
        assert_eq!(
            node, model,
            "{}: LeaderChanged events differ from #{first:?} on",
            scene.what
        );
        scene.seen.changes += model.len() as u64;
        scene
    }

    /// Runs `case` and adds what it exercised to `seen`.
    fn run(case: &Case, seen: Seen) -> Seen {
        let scene = drive(case, seen);
        let mut seen = scene.seen;
        for &(_, _, peer) in &scene.model.expiries {
            seen.expiries[usize::from(peer == LISTENER)] += 1;
        }
        seen.kept_trusted += scene.model.kept_trusted;
        seen.unvouched += scene.model.unvouched;
        seen.walks += scene.rig.node.count(NodeCount::HelloMemberWalks);
        seen
    }

    /// A random script: each peer starts in one to three groups (the
    /// foreign one among the candidates), then every 0.5–3 s one of them
    /// may join or leave a group, pause for 2–9 s, or restart after 0.5–7 s
    /// down.
    fn random_case(algorithm: ElectorKind, loss: f64, faulty: bool, seed: u64) -> Case {
        let mut rng = SimRng::seed_from(seed);
        let pick = |rng: &mut SimRng| [1, 2, 3, 4, 9].map(GroupId)[rng.uniform_usize(5)];
        let start = [(); 2].map(|_| {
            (0..1 + rng.uniform_usize(3))
                .map(|_| pick(&mut rng))
                .collect()
        });
        let until = START + SimDuration::from_secs(90);
        let mut acts = Vec::new();
        let mut at = START + SimDuration::from_secs(2);
        while at < until - SimDuration::from_secs(10) {
            let i = rng.uniform_usize(2);
            let secs = |rng: &mut SimRng, lo: u64, hi: u64| {
                SimDuration::from_millis(lo * 1000 + rng.next_u64() % ((hi - lo) * 1000))
            };
            let act = match rng.uniform_usize(10) {
                0..=2 => Some(Act::Join(pick(&mut rng))),
                3..=5 => Some(Act::Leave(pick(&mut rng))),
                6 => Some(Act::Pause(secs(&mut rng, 2, 9))),
                7 => Some(Act::Restart(secs(&mut rng, 0, 7) + ms(500))),
                _ => None,
            };
            acts.extend(act.map(|act| (at, i, act)));
            at += secs(&mut rng, 0, 3) + ms(500);
        }
        Case {
            algorithm,
            start,
            acts,
            loss,
            faulty,
            lose_leaves: false,
            until,
            seed,
        }
    }

    /// (a) Random scripts under every algorithm, on a clean link and on
    /// lossy (5 %, 20 %), duplicating, reordering ones: every member list,
    /// expiry instant, `LeaderChanged` and mint agrees with the eager
    /// reference — and between them the scripts expired both peers, kept a
    /// silent but trusted entry, unvouched entries by re-versioned lists,
    /// lost LEAVEs, applied partials and restarted peers, while most HELLO
    /// ticks left most peers alone.
    #[test]
    fn expiry_matches_the_eager_rule_under_loss_duplication_and_reordering() {
        let mut total = Seen::default();
        let mut seed = 0xE4_1000;
        for algorithm in ElectorKind::all() {
            for (loss, faulty) in [(0.0, false), (0.05, true), (0.2, true)] {
                for _ in 0..2 {
                    seed += 1;
                    total = run(&random_case(algorithm, loss, faulty, seed), total);
                }
            }
        }
        let covered = total.expiries.iter().all(|&n| n > 0)
            && total.kept_trusted > 0
            && total.unvouched > 0
            && total.leaves_lost > 0
            && total.partials > 0
            && total.restarts > 0
            && total.changes > 0
            && total.minted > 0;
        assert!(covered, "a condition was never exercised: {total:?}");
        // Each tick visits two peers: at most a quarter of the visits walked.
        assert!(
            total.walks > 0 && total.walks * 2 < total.ticks,
            "{total:?}"
        );
    }

    /// (b) LEAVEs lost, and the re-versioned full lists that answer the
    /// node's pulls no longer name the group: the listener's entry (its only
    /// one) and the candidate's (beside entries it keeps) age out on what
    /// the old list and the old batch bought them — the candidate's in the
    /// slow group only once its detector there suspects it, past the
    /// membership timeout — while the leadership each group loses is taken
    /// and minted for on time.
    #[test]
    fn a_lost_leave_and_a_list_without_the_group_expire_the_entry() {
        for algorithm in ElectorKind::all() {
            let at = |secs| START + SimDuration::from_secs(secs);
            let case = Case {
                algorithm,
                start: [vec![GroupId(1), GroupId(2), GroupId(4)], vec![GroupId(2)]],
                acts: vec![
                    (at(10), 1, Act::Leave(GroupId(2))),
                    (at(20), 0, Act::Leave(GroupId(2))),
                    (at(30), 0, Act::Leave(GroupId(4))),
                ],
                loss: 0.0,
                faulty: false,
                lose_leaves: true,
                until: at(60),
                seed: 0xE4_2000,
            };
            let scene = drive(&case, Seen::default());
            let what = &scene.what;
            let expiries = &scene.model.expiries;
            let expired = |group, peer, from: SimInstant, to: SimInstant| {
                expiries.iter().any(|&(when, g, p)| {
                    (g, p) == (GroupId(group), peer) && when > from && when <= to
                })
            };
            assert_eq!(expiries.len(), 3, "{what}: {expiries:?}");
            assert!(expired(2, LISTENER, at(15), at(17)), "{what}: {expiries:?}");
            assert!(expired(2, PEER, at(25), at(27)), "{what}: {expiries:?}");
            // T_D = 8 s there: on the timeout alone it would go at 36 s, but
            // the detector trusts the peer for longer.
            assert!(expired(4, PEER, at(36), at(40)), "{what}: {expiries:?}");
            assert!(scene.model.kept_trusted > 0, "{what}");
            // The node leads the groups the candidate left.
            for group in [GroupId(2), GroupId(4)] {
                assert!(
                    scene.rig.node.lease_of(group).is_some(),
                    "{what}: {group:?}"
                );
            }
        }
    }
}
