//! The paper's leader-election QoS metrics, per group, for deployments of
//! many groups.
//!
//! `sle_harness::MetricsCollector` measures recovery time `T_r`, mistake
//! rate `λ_u` and leader availability `P_leader` for **one** group. The
//! benchmark's deployments run hundreds to thousands of groups at once, so
//! [`GroupQos`] keeps the same agreement state machine per group and fans
//! the results in: every `LeaderChanged` event touches only its own group,
//! and a workstation crash touches only the groups that workstation is a
//! member of. The definitions are the collector's, and a test cross-checks
//! the two on a single-group run:
//!
//! * a group has a **commonly agreed leader** when every up member *that has
//!   announced a view since it (re)started* reports the same leader, at
//!   least one such member exists, and the leader's workstation is up;
//! * **recovery time** — from the crash of the agreed leader's workstation
//!   to the next instant an agreed (live) leader exists;
//! * **mistake** — a new agreed leader while the previous agreed leader is
//!   still alive;
//! * **availability** — share of group-time with an agreed leader.
//!
//! One stricter notion is added for the start: a group is **fully agreed**
//! when *all* its members are up, have announced, and agree. The first such
//! instant is the group's election latency, and no group-time before it
//! counts as available (under the paper's rule alone, the first member to
//! announce itself would make its group "agreed" microseconds after the
//! start).
//!
//! The observer also counts the simulator's traffic (messages handed to the
//! medium, drops, deliveries, timers, crashes), so one observer serves a
//! whole workload. The wall-clock workloads feed it the cluster's
//! `LeaderChanged` stream through [`GroupQos::view_changed`].

use sle_core::{GroupId, ProcessId, ServiceEvent};
use sle_sim::actor::NodeId;
use sle_sim::observer::Observer;
use sle_sim::time::{SimDuration, SimInstant};

/// Traffic and fault counts of a simulated run, all exact for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages actors handed to the medium.
    pub sent: u64,
    /// Messages the medium (or a down destination) dropped.
    pub dropped: u64,
    /// Messages delivered and handled.
    pub delivered: u64,
    /// Timer firings handled.
    pub timers: u64,
    /// Workstation crashes.
    pub crashes: u64,
    /// Workstation recoveries.
    pub recoveries: u64,
    /// Wrapping sum of the delivery instants in nanoseconds: a fingerprint
    /// of the run's timing, exact for a seed and different for another.
    pub delivered_at_sum: u64,
}

#[derive(Debug)]
struct GroupState {
    members: Vec<NodeId>,
    views: Vec<Option<ProcessId>>,
    agreement: Option<ProcessId>,
    /// Start of the current agreed interval (clamped to the measurement
    /// start when accumulated).
    agreed_since: Option<SimInstant>,
    last_agreed: Option<ProcessId>,
    last_leader_alive_at_loss: bool,
    recovery_started: Option<SimInstant>,
    agreed_time: SimDuration,
    first_full_agreement: Option<SimInstant>,
    view_changes: u64,
}

impl GroupState {
    /// Credits the agreed interval `since..until` to the group's available
    /// time: the part inside the measurement and after the group's first
    /// full agreement (before that the group is still coming up).
    fn credit(&mut self, since: SimInstant, until: SimInstant, measure_from: SimInstant) {
        let Some(up_from) = self.first_full_agreement else {
            return;
        };
        let from = since.max(measure_from).max(up_from);
        if until > from {
            self.agreed_time += until - from;
        }
    }
}

/// One crash of an agreed leader and how long the group took to agree on a
/// live leader again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// When the leader's workstation crashed.
    pub crashed_at: SimInstant,
    /// Crash → next agreed live leader; `None` if the run ended first.
    pub took: Option<SimDuration>,
}

/// What [`GroupQos::finish`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Groups observed.
    pub groups: usize,
    /// Per group, the first instant all members were up, announced and
    /// agreed (virtual or wall milliseconds since the start); groups that
    /// never got there are absent.
    pub election_ms: Vec<f64>,
    /// Groups fully agreed at the end.
    pub fully_agreed_at_end: usize,
    /// Recoveries from the crash of an agreed leader: those that completed
    /// inside the window, in completion order, then those still open at
    /// the end.
    pub recoveries: Vec<Recovery>,
    /// Crashes of an agreed leader inside the window.
    pub leader_crashes: u64,
    /// Demotions of a live agreed leader inside the window.
    pub mistakes: u64,
    /// Changes of the agreed leader's identity inside the window.
    pub agreed_leader_changes: u64,
    /// `LeaderChanged` announcements inside the window.
    pub view_changes: u64,
    /// Groups with at least one such announcement.
    pub groups_with_view_changes: usize,
    /// Group-time-weighted share of the measurement with an agreed leader.
    pub availability: f64,
    /// Length of the availability measurement.
    pub measured: SimDuration,
    /// Length of the timed window the counts above cover.
    pub window: SimDuration,
    /// The traffic counts.
    pub traffic: Traffic,
}

impl QosReport {
    /// The completed recoveries' durations in milliseconds.
    pub fn recovery_ms(&self) -> Vec<f64> {
        self.recoveries
            .iter()
            .filter_map(|r| r.took)
            .map(SimDuration::as_millis_f64)
            .collect()
    }

    /// Mistakes per group per hour of window (the paper's `λ_u`).
    pub fn mistakes_per_group_hour(&self) -> f64 {
        let group_hours = self.groups as f64 * self.window.as_secs_f64() / 3600.0;
        if group_hours > 0.0 {
            self.mistakes as f64 / group_hours
        } else {
            0.0
        }
    }
}

/// The multi-group QoS observer.
#[derive(Debug)]
pub struct GroupQos {
    groups: Vec<GroupState>,
    /// Per workstation: the groups it is a member of, as
    /// `(group index, position in the group's member list)`.
    memberships: Vec<Vec<(u32, u32)>>,
    node_up: Vec<bool>,
    /// Availability accumulates from here.
    measure_from: SimInstant,
    /// Crashes, recoveries, mistakes and announcements count from here.
    window_from: SimInstant,
    recoveries: Vec<Recovery>,
    leader_crashes: u64,
    mistakes: u64,
    agreed_leader_changes: u64,
    /// The traffic counts so far.
    pub traffic: Traffic,
}

impl GroupQos {
    /// An observer for `groups` (`groups[g]` lists the member workstations
    /// of `GroupId(g + 1)`) over `nodes` workstations. QoS quantities are
    /// accumulated from `measure_from` on (see [`GroupQos::begin_window`]);
    /// agreement state is tracked from the start.
    pub fn new(nodes: usize, groups: &[Vec<NodeId>], measure_from: SimInstant) -> Self {
        let mut memberships: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes];
        for (g, members) in groups.iter().enumerate() {
            for (slot, member) in members.iter().enumerate() {
                memberships[member.index()].push((g as u32, slot as u32));
            }
        }
        GroupQos {
            groups: groups
                .iter()
                .map(|members| GroupState {
                    members: members.clone(),
                    views: vec![None; members.len()],
                    agreement: None,
                    agreed_since: None,
                    last_agreed: None,
                    last_leader_alive_at_loss: false,
                    recovery_started: None,
                    agreed_time: SimDuration::ZERO,
                    first_full_agreement: None,
                    view_changes: 0,
                })
                .collect(),
            memberships,
            node_up: vec![true; nodes],
            measure_from,
            window_from: measure_from,
            recoveries: Vec::new(),
            leader_crashes: 0,
            mistakes: 0,
            agreed_leader_changes: 0,
            traffic: Traffic::default(),
        }
    }

    /// Starts the timed window at `at`: leader crashes, recovery samples,
    /// mistakes, leader changes and announcements are counted from `at` on
    /// (whatever was counted before is forgotten), while availability keeps
    /// accumulating from the constructor's `measure_from`. Call it before
    /// feeding any event at or after `at`.
    pub fn begin_window(&mut self, at: SimInstant) {
        self.window_from = at;
        self.recoveries.clear();
        self.leader_crashes = 0;
        self.mistakes = 0;
        self.agreed_leader_changes = 0;
        for group in &mut self.groups {
            group.view_changes = 0;
        }
    }

    /// Groups currently fully agreed (all members up, announced, agreeing on
    /// a live leader).
    pub fn fully_agreed(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| self.agreement_of(g).1)
            .count()
    }

    /// Whether every group has been fully agreed at least once.
    #[cfg(test)]
    pub fn all_elected(&self) -> bool {
        self.groups.iter().all(|g| g.first_full_agreement.is_some())
    }

    /// The agreed leader of `group`, if it has one right now.
    #[cfg(test)]
    pub fn agreed_leader(&self, group: GroupId) -> Option<ProcessId> {
        self.groups
            .get(group.0.checked_sub(1)? as usize)
            .and_then(|g| g.agreement)
    }

    /// Node `node` announced `leader` as its view of `group`'s leader.
    pub fn view_changed(
        &mut self,
        now: SimInstant,
        node: NodeId,
        group: GroupId,
        leader: Option<ProcessId>,
    ) {
        let Some(g) = group.0.checked_sub(1).map(|g| g as usize) else {
            return;
        };
        let Some(state) = self.groups.get_mut(g) else {
            return;
        };
        let Some(slot) = state.members.iter().position(|&m| m == node) else {
            return;
        };
        state.views[slot] = leader;
        if now >= self.window_from {
            state.view_changes += 1;
        }
        self.refresh(g, now);
    }

    /// Workstation `node` crashed (also usable from a wall-clock driver).
    pub fn crashed(&mut self, now: SimInstant, node: NodeId) {
        self.traffic.crashes += 1;
        if let Some(up) = self.node_up.get_mut(node.index()) {
            *up = false;
        }
        for i in 0..self.memberships.get(node.index()).map_or(0, Vec::len) {
            let (g, slot) = self.memberships[node.index()][i];
            let state = &mut self.groups[g as usize];
            state.views[slot as usize] = None;
            // T_r runs from the crash, not from its detection.
            if state.agreement.is_some_and(|leader| leader.node == node) {
                if now >= self.window_from {
                    self.leader_crashes += 1;
                }
                state.recovery_started = Some(now);
            }
            self.refresh(g as usize, now);
        }
    }

    fn recovered(&mut self, now: SimInstant, node: NodeId) {
        self.traffic.recoveries += 1;
        if let Some(up) = self.node_up.get_mut(node.index()) {
            *up = true;
        }
        for i in 0..self.memberships.get(node.index()).map_or(0, Vec::len) {
            let (g, slot) = self.memberships[node.index()][i];
            self.groups[g as usize].views[slot as usize] = None;
            self.refresh(g as usize, now);
        }
    }

    /// `(agreed live leader under the paper's rule, fully agreed)`.
    fn agreement_of(&self, state: &GroupState) -> (Option<ProcessId>, bool) {
        let mut agreed: Option<ProcessId> = None;
        let mut participants = 0usize;
        for (slot, member) in state.members.iter().enumerate() {
            if !self.node_up[member.index()] {
                continue;
            }
            let Some(view) = state.views[slot] else {
                continue; // still (re)joining: not a participant yet
            };
            participants += 1;
            match agreed {
                None => agreed = Some(view),
                Some(current) if current == view => {}
                _ => return (None, false),
            }
        }
        let leader = agreed.filter(|leader| {
            self.node_up
                .get(leader.node.index())
                .copied()
                .unwrap_or(false)
        });
        (
            leader,
            leader.is_some() && participants == state.members.len(),
        )
    }

    fn refresh(&mut self, g: usize, now: SimInstant) {
        let (new_agreement, full) = self.agreement_of(&self.groups[g]);
        let counting = now >= self.window_from;
        let measure_from = self.measure_from;
        let leader_up =
            |leader: ProcessId, up: &[bool]| up.get(leader.node.index()).copied().unwrap_or(false);
        let state = &mut self.groups[g];
        if full && state.first_full_agreement.is_none() {
            state.first_full_agreement = Some(now);
        }
        if new_agreement == state.agreement {
            return;
        }
        // Close the agreed interval that just ended.
        if let Some(since) = state.agreed_since.take() {
            state.credit(since, now, measure_from);
        }
        match (state.agreement, new_agreement) {
            (Some(old), None) => {
                state.last_leader_alive_at_loss = leader_up(old, &self.node_up);
            }
            (old, Some(new)) => {
                if let Some(previous) = old.or(state.last_agreed) {
                    if previous != new {
                        if counting {
                            self.agreed_leader_changes += 1;
                        }
                        let previous_alive = match old {
                            Some(old) => leader_up(old, &self.node_up),
                            None => state.last_leader_alive_at_loss,
                        };
                        if previous_alive && counting {
                            self.mistakes += 1;
                        }
                    }
                }
                if let Some(started) = state.recovery_started.take() {
                    // As the harness collector: a recovery counts when it
                    // completes inside the window.
                    if counting {
                        self.recoveries.push(Recovery {
                            crashed_at: started,
                            took: Some(now.saturating_since(started)),
                        });
                    }
                }
                state.last_agreed = Some(new);
                state.agreed_since = Some(now);
            }
            (None, None) => {}
        }
        state.agreement = new_agreement;
    }

    /// Closes the measurement at `end` and reports.
    pub fn finish(mut self, end: SimInstant) -> QosReport {
        let measured = end.saturating_since(self.measure_from);
        let mut agreed_total = SimDuration::ZERO;
        for state in &mut self.groups {
            if let Some(since) = state.agreed_since.take() {
                state.credit(since, end, self.measure_from);
            }
            agreed_total += state.agreed_time;
            if let Some(started) = state
                .recovery_started
                .filter(|&started| started >= self.window_from)
            {
                self.recoveries.push(Recovery {
                    crashed_at: started,
                    took: None,
                });
            }
        }
        let group_time = measured.as_secs_f64() * self.groups.len() as f64;
        let fully_agreed_at_end = self.fully_agreed();
        QosReport {
            groups: self.groups.len(),
            election_ms: self
                .groups
                .iter()
                .filter_map(|g| g.first_full_agreement)
                .map(|at| at.saturating_since(SimInstant::ZERO).as_millis_f64())
                .collect(),
            fully_agreed_at_end,
            recoveries: self.recoveries,
            leader_crashes: self.leader_crashes,
            mistakes: self.mistakes,
            agreed_leader_changes: self.agreed_leader_changes,
            view_changes: self.groups.iter().map(|g| g.view_changes).sum(),
            groups_with_view_changes: self.groups.iter().filter(|g| g.view_changes > 0).count(),
            availability: if group_time > 0.0 {
                (agreed_total.as_secs_f64() / group_time).min(1.0)
            } else {
                0.0
            },
            measured,
            window: end.saturating_since(self.window_from),
            traffic: self.traffic,
        }
    }
}

impl Observer<ServiceEvent> for GroupQos {
    fn message_sent(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {
        self.traffic.sent += 1;
    }

    fn message_dropped(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {
        self.traffic.dropped += 1;
    }

    fn message_delivered(&mut self, now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {
        self.traffic.delivered += 1;
        self.traffic.delivered_at_sum = self.traffic.delivered_at_sum.wrapping_add(now.as_nanos());
    }

    fn timer_fired(&mut self, _now: SimInstant, _node: NodeId) {
        self.traffic.timers += 1;
    }

    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        self.crashed(now, node);
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, _incarnation: u64) {
        self.recovered(now, node);
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = event;
        self.view_changed(now, node, *group, *leader);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::{JoinConfig, ServiceConfig, ServiceNode};
    use sle_election::ElectorKind;
    use sle_harness::crash::{CrashPlan, CrashProfile};
    use sle_harness::MetricsCollector;
    use sle_net::link::LinkSpec;
    use sle_net::network::NetworkModel;
    use sle_sim::observer::PairObserver;
    use sle_sim::world::World;

    fn at(secs: f64) -> SimInstant {
        SimInstant::from_secs_f64(secs)
    }

    fn leader(node: u32) -> ProcessId {
        ProcessId::new(NodeId(node), 0)
    }

    /// Two groups over four workstations: {0,1,2} and {2,3}.
    fn two_groups() -> GroupQos {
        GroupQos::new(
            4,
            &[
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(3)],
            ],
            SimInstant::ZERO,
        )
    }

    fn announce(qos: &mut GroupQos, secs: f64, node: u32, group: u32, view: Option<ProcessId>) {
        let event = ServiceEvent::LeaderChanged {
            group: GroupId(group),
            leader: view,
        };
        qos.event_emitted(at(secs), NodeId(node), &event);
    }

    #[test]
    fn groups_are_tracked_independently() {
        let mut qos = two_groups();
        for node in 0..3 {
            announce(&mut qos, 1.0, node, 1, Some(leader(0)));
        }
        // Group 2 disagrees until t=4.
        announce(&mut qos, 1.0, 2, 2, Some(leader(2)));
        announce(&mut qos, 1.0, 3, 2, Some(leader(3)));
        assert_eq!(qos.fully_agreed(), 1);
        assert!(!qos.all_elected());
        announce(&mut qos, 4.0, 3, 2, Some(leader(2)));
        assert!(qos.all_elected());
        assert_eq!(qos.agreed_leader(GroupId(2)), Some(leader(2)));
        let report = qos.finish(at(10.0));
        let mut election = report.election_ms.clone();
        election.sort_by(f64::total_cmp);
        assert_eq!(election, vec![1000.0, 4000.0]);
        // Group 1 was up for 9 of 10 s, group 2 for 6 of 10 s.
        assert!((report.availability - (9.0 + 6.0) / 20.0).abs() < 1e-9);
        assert_eq!(report.fully_agreed_at_end, 2);
        assert_eq!(report.mistakes, 0);
        assert_eq!(report.view_changes, 6);
        assert_eq!(report.groups_with_view_changes, 2);
    }

    #[test]
    fn a_leader_crash_is_a_recovery_sample_only_in_the_groups_it_led() {
        let mut qos = two_groups();
        for node in 0..3 {
            announce(&mut qos, 0.0, node, 1, Some(leader(2)));
        }
        announce(&mut qos, 0.0, 2, 2, Some(leader(3)));
        announce(&mut qos, 0.0, 3, 2, Some(leader(3)));
        // Workstation 2 leads group 1 and merely belongs to group 2.
        qos.node_crashed(at(10.0), NodeId(2));
        assert_eq!(qos.agreed_leader(GroupId(1)), None);
        assert_eq!(qos.agreed_leader(GroupId(2)), Some(leader(3)));
        announce(&mut qos, 10.5, 0, 1, Some(leader(0)));
        announce(&mut qos, 11.25, 1, 1, Some(leader(0)));
        let report = qos.finish(at(20.0));
        assert_eq!(report.leader_crashes, 1);
        assert_eq!(report.recovery_ms(), vec![1250.0]);
        assert_eq!(report.recoveries[0].crashed_at, at(10.0));
        // The crashed leader was not alive: its replacement is no mistake.
        assert_eq!(report.mistakes, 0);
        assert_eq!(report.agreed_leader_changes, 1);
        assert_eq!(report.traffic.crashes, 1);
        // Group 1 lacked a leader for 1.25 of 20 s; group 2 never did.
        assert!((report.availability - (18.75 + 20.0) / 40.0).abs() < 1e-9);
    }

    #[test]
    fn demoting_a_live_leader_is_a_mistake_and_an_open_recovery_is_unrecovered() {
        let mut qos = two_groups();
        announce(&mut qos, 0.0, 2, 2, Some(leader(2)));
        announce(&mut qos, 0.0, 3, 2, Some(leader(2)));
        // Both members switch to 3 while 2 is alive: one mistake.
        announce(&mut qos, 5.0, 2, 2, Some(leader(3)));
        announce(&mut qos, 5.0, 3, 2, Some(leader(3)));
        // Then the new leader's workstation crashes and nobody recovers.
        qos.node_crashed(at(8.0), NodeId(3));
        // The survivor still names the dead leader: no agreement.
        let report = qos.finish(at(10.0));
        assert_eq!(report.mistakes, 1);
        assert_eq!(report.leader_crashes, 1);
        assert_eq!(
            report.recoveries,
            vec![Recovery {
                crashed_at: at(8.0),
                took: None
            }]
        );
        assert!((report.mistakes_per_group_hour() - 1.0 / (2.0 * 10.0 / 3600.0)).abs() < 1e-9);
    }

    #[test]
    fn nothing_before_the_measurement_start_is_counted() {
        let mut qos = GroupQos::new(2, &[vec![NodeId(0), NodeId(1)]], at(10.0));
        announce(&mut qos, 0.0, 0, 1, Some(leader(0)));
        announce(&mut qos, 2.0, 1, 1, Some(leader(0)));
        qos.node_crashed(at(5.0), NodeId(0));
        announce(&mut qos, 6.0, 1, 1, Some(leader(1)));
        let report = qos.finish(at(20.0));
        assert_eq!(report.leader_crashes, 0);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.view_changes, 0);
        assert_eq!(report.election_ms, vec![2000.0]);
        assert!((report.availability - 1.0).abs() < 1e-9);
        assert_eq!(report.measured, SimDuration::from_secs(10));
    }

    /// The cross-check: on a single group under crash churn, the fan-in
    /// observer and the harness's collector see the same run and must agree
    /// on every QoS quantity.
    #[test]
    fn agrees_with_the_harness_collector_on_a_single_group_run() {
        let n = 8;
        let group = GroupId(1);
        let duration = SimDuration::from_secs(1800);
        let warmup = at(20.0);
        let mut world: World<ServiceNode, _> = World::new(
            n,
            Box::new(move |node, _| {
                ServiceNode::new(
                    ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                        .with_auto_join(group, JoinConfig::candidate()),
                )
            }),
            NetworkModel::new(LinkSpec::from_paper_tuple(10.0, 0.01)).build(5),
            6,
        );
        let profile = CrashProfile {
            mean_uptime: SimDuration::from_secs(60),
            mean_downtime: SimDuration::from_secs(5),
        };
        CrashPlan::generate(n, duration, profile, 7).install(&mut world);
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut pair = PairObserver::new(
            MetricsCollector::new(group, n, warmup),
            GroupQos::new(n, &[members], warmup),
        );
        world.run_for(duration, &mut pair);
        let end = world.now();
        let theirs = pair.first.finish(end);
        let ours = pair.second.finish(end);

        assert!(theirs.leader_crashes > 10, "the run must exercise crashes");
        assert_eq!(ours.leader_crashes, theirs.leader_crashes);
        assert_eq!(ours.mistakes, theirs.unjustified_demotions);
        let ours_ms = ours.recovery_ms();
        assert_eq!(ours_ms.len(), theirs.recovery_samples.len());
        for (mine, theirs) in ours_ms.iter().zip(&theirs.recovery_samples) {
            assert!((mine - theirs * 1e3).abs() < 1e-6);
        }
        assert!((ours.availability - theirs.leader_availability).abs() < 1e-9);
        assert!((ours.mistakes_per_group_hour() - theirs.mistakes_per_hour).abs() < 1e-9);
    }
}
