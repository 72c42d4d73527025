//! The failure-detector module of one service instance.
//!
//! The paper's architecture (Figure 2) gives every service instance a single
//! Failure Detector module shared by all groups and applications on that
//! workstation: it monitors the other service instances and reports
//! trust/suspect transitions to the Group Maintenance and Leader Election
//! modules. Here that module is the owner's one [`PeerTable`] (the link of
//! every peer, measured once, and its operating point per QoS class) plus,
//! per group, a [`GroupDetector`]: the group's QoS and tuning policy, which
//! name the class its monitors read. The group's [`PeerMonitor`]s are its
//! owner's, one in each of its per-peer rows, and every monitor call is
//! lent the table, each monitor checked on its own ([`PeerMonitor::check`])
//! so that the owner of several groups can watch all its monitors of one
//! peer from one timer and its [`Wake`]. A [`FailureDetector`] is the same
//! module for one group, with its monitors and its private table, as a
//! standalone detector needs it.

use sle_sim::actor::NodeId;
use sle_sim::dense::insert_tight;
use sle_sim::time::{SimDuration, SimInstant};

use crate::config::TuningPolicy;
use crate::monitor::{PeerMonitor, Transition};
use crate::peers::PeerTable;
use crate::qos::QosSpec;

/// A trust/suspect notification about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTransition {
    /// The peer whose status changed.
    pub peer: NodeId,
    /// The direction of the change.
    pub transition: Transition,
}

/// When the monitors of one peer next need checking, in a form their owner
/// advances by the peer's freshness stamp alone: a vouched monitor's
/// horizon moves with the stamp, an un-vouched one's does not. Only a check
/// that may suspect is ever due: (η, δ) move on arrivals, not on checks.
///
/// [`Wake::merge`] keeps a lower bound: for any stamp, [`Wake::at`] is never
/// later than the deadline of any monitor merged in. A monitor checked at
/// stamp `s` wakes at exactly its deadline for every later stamp, unless
/// the stamp it was last priced at was priced at a smaller δ than it has now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// Earliest horizon of a vouched monitor as of its last fold.
    pub(crate) fresh: SimInstant,
    /// Least a stamp buys a vouched monitor past itself: η + δ, or less
    /// while what its last stamp bought is priced at an older, smaller δ.
    pub(crate) offset: SimDuration,
    /// Earliest horizon of an un-vouched monitor: no stamp moves it.
    pub(crate) until: SimInstant,
}

impl Wake {
    /// The wake of no monitor (or of suspected ones only).
    pub const NEVER: Wake = Wake {
        fresh: SimInstant::FAR_FUTURE,
        offset: SimDuration::MAX,
        until: SimInstant::FAR_FUTURE,
    };

    /// The wake of both `self`'s monitors and `other`'s.
    pub fn merge(self, other: Wake) -> Wake {
        Wake {
            fresh: self.fresh.min(other.fresh),
            offset: self.offset.min(other.offset),
            until: self.until.min(other.until),
        }
    }

    /// The earliest instant a monitor can expire while the peer's stamp
    /// is `stamp` ([`SimInstant::FAR_FUTURE`]: none can). Checking the
    /// monitors before it finds nothing to do.
    pub fn at(&self, stamp: SimInstant) -> SimInstant {
        self.fresh.max(stamp + self.offset).min(self.until)
    }
}

/// One group's share of the failure-detector module: the group's QoS and
/// tuning policy — the class whose operating point its monitors read in
/// their peers' [`PeerTable`] slots.
#[derive(Debug, Clone)]
pub struct GroupDetector {
    qos: QosSpec,
    policy: TuningPolicy,
}

impl GroupDetector {
    /// Creates a group's detector using `qos` for every monitored peer,
    /// whose monitors follow their link estimates under `policy`.
    pub fn new(qos: QosSpec, policy: TuningPolicy) -> Self {
        GroupDetector { qos, policy }
    }

    /// The QoS of the group's monitors.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// How the monitors' (η, δ) follow the link estimate.
    pub fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// The crash-detection time the group's `monitors` currently honour:
    /// `T_D^U`, or — once an adaptive detector has measured every monitored
    /// peer — the largest η + δ among them. It must cover the *slowest*
    /// link, and a peer still on the prior is still on the static bound.
    pub fn detection_bound<'a, T>(
        &self,
        table: &PeerTable<T>,
        monitors: impl IntoIterator<Item = &'a PeerMonitor>,
    ) -> SimDuration {
        let t_d = self.qos.detection_time();
        if self.policy == TuningPolicy::Static {
            return t_d;
        }
        (monitors.into_iter())
            .map(|m| {
                if m.is_measured(table) {
                    m.params(table).worst_case_detection()
                } else {
                    t_d
                }
            })
            .max()
            .unwrap_or(t_d)
    }

    /// A new monitor of `peer` for this group, first observed at `now` (the
    /// peer interned into `table` if new there, and the group's class given
    /// an operating point in its slot if it had none).
    pub fn monitor<T: Default>(
        &self,
        table: &mut PeerTable<T>,
        peer: NodeId,
        now: SimInstant,
    ) -> PeerMonitor {
        let slot = table.intern(peer);
        PeerMonitor::new(table, slot, &self.qos, self.policy, now)
    }
}

/// A standalone failure detector: one group's [`GroupDetector`] and its
/// monitors over a private [`PeerTable`], running the same code a service
/// instance runs.
///
/// ```
/// use sle_fd::detector::FailureDetector;
/// use sle_fd::qos::QosSpec;
/// use sle_sim::actor::NodeId;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let mut fd = FailureDetector::new(QosSpec::paper_default());
/// let now = SimInstant::ZERO;
/// fd.ensure_peer(NodeId(1), now);
/// assert!(fd.is_trusted(NodeId(1)));
///
/// // Two seconds of silence: polling reports the suspicion.
/// let later = now + SimDuration::from_secs(2);
/// let transitions = fd.poll(later);
/// assert_eq!(transitions.len(), 1);
/// assert!(!fd.is_trusted(NodeId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    table: PeerTable,
    group: GroupDetector,
    /// Monitors sorted by peer id: lookups are binary searches, polls go in
    /// deterministic id order.
    monitors: Vec<(NodeId, PeerMonitor)>,
}

impl FailureDetector {
    /// Creates a failure detector using `qos` for every monitored peer,
    /// with the paper's static tuning.
    pub fn new(qos: QosSpec) -> Self {
        FailureDetector {
            table: PeerTable::new(),
            group: GroupDetector::new(qos, TuningPolicy::Static),
            monitors: Vec::new(),
        }
    }

    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.monitors.binary_search_by_key(&peer, |&(id, _)| id)
    }

    /// Starts monitoring `peer` if it is not already monitored; returns its
    /// monitor's index.
    fn ensure(&mut self, peer: NodeId, now: SimInstant) -> usize {
        self.find(peer).unwrap_or_else(|i| {
            let monitor = self.group.monitor(&mut self.table, peer, now);
            insert_tight(&mut self.monitors, i, (peer, monitor));
            i
        })
    }

    /// Starts monitoring `peer` if it is not already monitored.
    pub fn ensure_peer(&mut self, peer: NodeId, now: SimInstant) {
        self.ensure(peer, now);
    }

    /// Returns whether `peer` is currently trusted. Unmonitored peers are
    /// not trusted.
    pub fn is_trusted(&self, peer: NodeId) -> bool {
        (self.find(peer).ok()).is_some_and(|i| self.monitors[i].1.is_trusted())
    }

    /// The heartbeat interval η the detector asks `peer` to send at — its
    /// class's operating point — if `peer` is monitored.
    pub fn requested_interval(&self, peer: NodeId) -> Option<SimDuration> {
        let monitor = &self.monitors[self.find(peer).ok()?].1;
        Some(monitor.requested_interval(&self.table))
    }

    /// Processes a heartbeat from `peer` ([`PeerMonitor::on_heartbeat`]),
    /// monitoring it from now on if it was not.
    pub fn on_heartbeat(
        &mut self,
        peer: NodeId,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<PeerTransition> {
        let i = self.ensure(peer, now);
        let (table, monitor) = (&mut self.table, &mut self.monitors[i].1);
        (monitor.on_heartbeat(table, seq, sent_at, sender_interval, now))
            .map(|transition| PeerTransition { peer, transition })
    }

    /// [`PeerMonitor::check`] for every monitored peer, returning the
    /// transitions (in practice, new suspicions whose freshness horizon has
    /// expired).
    pub fn poll(&mut self, now: SimInstant) -> Vec<PeerTransition> {
        let mut transitions = Vec::new();
        for (peer, monitor) in &mut self.monitors {
            if let Some(transition) = monitor.check(&mut self.table, now) {
                transitions.push(PeerTransition {
                    peer: *peer,
                    transition,
                });
            }
        }
        transitions
    }

    /// The earliest [`PeerMonitor::next_deadline`] among all monitors — the
    /// time at which the next suspicion could occur and therefore the time
    /// at which the owner should call [`FailureDetector::poll`] again.
    pub fn next_deadline(&self) -> Option<SimInstant> {
        (self.monitors.iter())
            .filter_map(|(_, monitor)| monitor.next_deadline(&self.table))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FdParams;
    use crate::monitor::TrustState;

    fn fd() -> FailureDetector {
        FailureDetector::new(QosSpec::paper_default())
    }

    /// What the node does with its rows, done to the detector's own.
    impl FailureDetector {
        fn monitor(&self, peer: NodeId) -> Option<&PeerMonitor> {
            self.find(peer).ok().map(|i| &self.monitors[i].1)
        }

        /// The monitored peers, in ascending id order.
        fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.monitors.iter().map(|&(peer, _)| peer)
        }

        fn state(&self, peer: NodeId) -> Option<TrustState> {
            self.monitor(peer).map(PeerMonitor::state)
        }

        fn params(&self, peer: NodeId) -> Option<FdParams> {
            Some(self.monitor(peer)?.params(&self.table))
        }

        fn slot_of(&self, peer: NodeId) -> Option<usize> {
            self.monitor(peer).map(PeerMonitor::slot)
        }

        fn remove_peer(&mut self, peer: NodeId) {
            if let Ok(i) = self.find(peer) {
                self.monitors.remove(i);
            }
        }

        /// A new monitor in place of the old: the restart path's reset.
        fn reset_peer(&mut self, peer: NodeId, now: SimInstant) {
            self.remove_peer(peer);
            self.ensure_peer(peer, now);
        }

        /// Moves `peer`'s stamp, as its owner does on a repeated batch.
        fn stamp(&mut self, peer: NodeId, sent_at: SimInstant, restart: bool) {
            let slot = self.table.intern(peer);
            self.table.stamp(slot, sent_at, restart);
        }

        fn unvouch(&mut self, peer: NodeId) {
            let i = self.find(peer).unwrap();
            self.monitors[i].1.unvouch(&self.table);
        }

        /// The peer's check: its transition, and its wake after it.
        fn check_peer(
            &mut self,
            peer: NodeId,
            now: SimInstant,
        ) -> Option<(Option<Transition>, Wake)> {
            let i = self.find(peer).ok()?;
            let (table, monitor) = (&mut self.table, &mut self.monitors[i].1);
            Some((monitor.check(table, now), monitor.wake(table)))
        }

        fn deadline_of(&self, peer: NodeId) -> Option<SimInstant> {
            self.monitor(peer)?.next_deadline(&self.table)
        }
    }

    #[test]
    fn unknown_peers_are_not_trusted() {
        let detector = fd();
        assert!(!detector.is_trusted(NodeId(3)));
        assert_eq!(detector.state(NodeId(3)), None);
        assert_eq!(detector.peers().count(), 0);
        assert_eq!(detector.next_deadline(), None);
    }

    #[test]
    fn heartbeat_implicitly_registers_peer() {
        let mut detector = fd();
        let now = SimInstant::ZERO + SimDuration::from_millis(10);
        detector.on_heartbeat(NodeId(2), 0, now, SimDuration::from_millis(250), now);
        assert_eq!(detector.peers().count(), 1);
        assert!(detector.is_trusted(NodeId(2)));
        assert!(detector.requested_interval(NodeId(2)).is_some());
        assert_eq!(detector.slot_of(NodeId(2)), Some(0));
    }

    #[test]
    fn poll_reports_suspicions_and_next_deadline_shrinks() {
        let mut detector = fd();
        let now = SimInstant::ZERO;
        detector.ensure_peer(NodeId(1), now);
        detector.ensure_peer(NodeId(2), now + SimDuration::from_millis(500));
        let d1 = detector.next_deadline().unwrap();
        assert_eq!(d1, now + SimDuration::from_secs(1));

        // After the first deadline only peer 1 is suspected.
        let transitions = detector.poll(d1);
        assert_eq!(
            transitions,
            vec![PeerTransition {
                peer: NodeId(1),
                transition: Transition::BecameSuspected
            }]
        );
        assert!(!detector.is_trusted(NodeId(1)));
        assert!(detector.is_trusted(NodeId(2)));
        assert_eq!(
            (detector.peers())
                .filter(|&peer| detector.is_trusted(peer))
                .collect::<Vec<_>>(),
            vec![NodeId(2)]
        );

        // The next deadline now belongs to peer 2.
        assert_eq!(
            detector.next_deadline().unwrap(),
            now + SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn heartbeat_revives_suspected_peer() {
        let mut detector = fd();
        detector.ensure_peer(NodeId(1), SimInstant::ZERO);
        let deadline = detector.next_deadline().unwrap();
        detector.poll(deadline);
        assert!(!detector.is_trusted(NodeId(1)));

        let sent = deadline + SimDuration::from_millis(5);
        let transition = detector.on_heartbeat(
            NodeId(1),
            7,
            sent,
            SimDuration::from_millis(250),
            sent + SimDuration::from_millis(1),
        );
        assert_eq!(
            transition,
            Some(PeerTransition {
                peer: NodeId(1),
                transition: Transition::BecameTrusted
            })
        );
        assert!(detector.is_trusted(NodeId(1)));
    }

    #[test]
    fn remove_and_reset_peer() {
        let mut detector = fd();
        detector.ensure_peer(NodeId(1), SimInstant::ZERO);
        detector.poll(SimInstant::ZERO + SimDuration::from_secs(2));
        assert!(!detector.is_trusted(NodeId(1)));

        // Reset gives the peer a fresh grace period.
        let again = SimInstant::ZERO + SimDuration::from_secs(2);
        detector.reset_peer(NodeId(1), again);
        assert!(detector.is_trusted(NodeId(1)));

        detector.remove_peer(NodeId(1));
        assert_eq!(detector.peers().count(), 0);
        assert!(!detector.is_trusted(NodeId(1)));
    }

    #[test]
    fn peers_iterator_is_sorted() {
        let mut detector = fd();
        for id in [5u32, 1, 3] {
            detector.ensure_peer(NodeId(id), SimInstant::ZERO);
        }
        let peers: Vec<NodeId> = detector.peers().collect();
        assert_eq!(peers, vec![NodeId(1), NodeId(3), NodeId(5)]);
        assert_eq!(detector.group.qos(), QosSpec::paper_default());
    }

    #[test]
    fn detectors_sharing_an_arena_share_liveness_estimates() {
        // Two groups on one workstation monitoring the same peer: the link
        // estimate must be common, the trust state per group.
        let mut table: PeerTable = PeerTable::new();
        let group_a = GroupDetector::new(QosSpec::paper_default(), TuningPolicy::Static);
        let group_b = GroupDetector::new(
            QosSpec::paper_default_with_detection(SimDuration::from_millis(500)),
            TuningPolicy::Static,
        );
        let peer = NodeId(7);
        let interval = SimDuration::from_millis(100);
        let mut now = SimInstant::ZERO;
        let mut monitor_a = group_a.monitor(&mut table, peer, now);
        let mut monitor_b = group_b.monitor(&mut table, peer, now);
        for seq in 0..50u64 {
            now += interval;
            // Only group A's monitor processes the heartbeats...
            let sent = now - SimDuration::from_millis(3);
            monitor_a.on_heartbeat(&mut table, seq, sent, interval, now);
        }
        // ...yet group B reads the same slot, and so the same link quality.
        let slot = monitor_b.slot();
        assert_eq!(monitor_a.slot(), slot);
        let quality = table.quality(slot);
        assert!((quality.delay_mean.as_millis_f64() - 3.0).abs() < 0.5);
        assert_eq!(table.len(), 1);

        // Trust remains per group: B heard nothing directly, so its
        // freshness horizon (armed when created) expires independently.
        let b_deadline = monitor_b.next_deadline(&table).unwrap();
        assert!(monitor_a.next_deadline(&table).unwrap() > b_deadline);
        let check = monitor_b.check(&mut table, b_deadline);
        assert_eq!(check, Some(Transition::BecameSuspected));
        assert!(!monitor_b.is_trusted());
        assert!(monitor_a.is_trusted());

        // The monitors hold no slot: the table's owner does.
        assert_eq!(table.len(), 1);
    }

    /// One heartbeat fed, then only the peer's stamp advanced — what a
    /// service instance does for a repeated batch.
    fn vouched_detector() -> (FailureDetector, SimInstant) {
        let mut detector = fd();
        let fed = SimInstant::ZERO + SimDuration::from_secs(1);
        detector.on_heartbeat(NodeId(1), 0, fed, SimDuration::from_millis(250), fed);
        (detector, fed)
    }

    #[test]
    fn a_stamp_stands_in_for_repeated_heartbeats() {
        let (mut detector, fed) = vouched_detector();
        let horizon = detector.next_deadline().unwrap() - fed;
        assert_eq!(
            horizon,
            SimDuration::from_secs(1) + SimDuration::from_millis(250)
                - detector.requested_interval(NodeId(1)).unwrap()
        );
        // Repeats, the last one overtaken by its successor: a max.
        let last = fed + SimDuration::from_millis(750);
        detector.stamp(NodeId(1), fed + SimDuration::from_millis(250), false);
        detector.stamp(NodeId(1), last, false);
        detector.stamp(NodeId(1), fed + SimDuration::from_millis(500), false);
        assert_eq!(detector.next_deadline(), Some(last + horizon));
        // Another peer's stamp is another peer's.
        detector.stamp(NodeId(2), last + SimDuration::from_secs(9), false);
        assert_eq!(detector.next_deadline(), Some(last + horizon));
        assert!(detector.poll(fed + horizon).is_empty());
        assert!(detector.is_trusted(NodeId(1)));
        assert_eq!(detector.poll(last + horizon).len(), 1);
        assert!(!detector.is_trusted(NodeId(1)));
        // Suspected: a stamp alone revives nobody, a heartbeat does.
        detector.stamp(NodeId(1), last + SimDuration::from_secs(1), false);
        assert!(detector.poll(last + SimDuration::from_secs(1)).is_empty());
        assert_eq!(detector.next_deadline(), None);
        let back = last + SimDuration::from_secs(1);
        let revived =
            detector.on_heartbeat(NodeId(1), 9, back, SimDuration::from_millis(250), back);
        assert_eq!(
            revived.map(|t| t.transition),
            Some(Transition::BecameTrusted)
        );
    }

    #[test]
    fn unvouch_keeps_what_the_stamp_bought_and_stops_reading_it() {
        let (mut detector, fed) = vouched_detector();
        let horizon = detector.next_deadline().unwrap() - fed;
        let stamped = fed + SimDuration::from_millis(500);
        detector.stamp(NodeId(1), stamped, false);
        detector.unvouch(NodeId(1));
        assert_eq!(detector.next_deadline(), Some(stamped + horizon));
        // The owner restarts the stamp for the batch that dropped us: even
        // a later stamp no longer counts here.
        detector.stamp(NodeId(1), stamped + SimDuration::from_secs(5), true);
        assert_eq!(detector.next_deadline(), Some(stamped + horizon));
        assert_eq!(detector.poll(stamped + horizon).len(), 1);
    }

    #[test]
    fn a_stamp_is_priced_at_the_shift_of_its_time() {
        let (mut detector, fed) = vouched_detector();
        let eta = SimDuration::from_millis(250);
        let old = detector.params(NodeId(1)).unwrap();
        // The peer repeats its batch over a clean link until an arrival
        // re-derives δ from it, before its stamp moves.
        let (mut seq, mut sent) = (0, fed);
        loop {
            (seq, sent) = (seq + 1, sent + eta);
            if detector.table.record(0, seq, sent, sent) {
                break;
            }
            detector.stamp(NodeId(1), sent, false);
            assert!(detector.poll(sent).is_empty());
        }
        let tuned = detector.params(NodeId(1)).unwrap();
        assert!(tuned.shift < old.shift);
        // What was heard keeps its price: the stamp before the move was
        // folded at the old δ...
        let heard = (sent - eta) + eta + old.shift;
        assert_eq!(detector.next_deadline(), Some(heard));
        // ...the stamp of the arrival that moved it pays the new one...
        detector.stamp(NodeId(1), sent, false);
        let bought = heard.max(sent + eta + tuned.shift);
        assert_eq!(detector.next_deadline(), Some(bought));
        // ...a changed batch's restarted stamp that goes back in time takes
        // nothing away...
        detector.unvouch(NodeId(1));
        detector.stamp(NodeId(1), fed, true);
        assert_eq!(detector.next_deadline(), Some(bought));
        // ...and what is heard from here on pays the new one, fed or stamped.
        let next = sent + eta;
        detector.on_heartbeat(NodeId(1), seq + 1, next, eta, next);
        assert_eq!(detector.next_deadline(), Some(next + eta + tuned.shift));
        detector.stamp(NodeId(1), next + eta, false);
        assert_eq!(detector.next_deadline(), Some(next + eta * 2 + tuned.shift));
    }

    #[test]
    fn a_requested_interval_that_moves_bumps_the_arena_epoch() {
        let (mut detector, fed) = vouched_detector();
        let before = detector.table.params_epoch();
        let prior = detector.requested_interval(NodeId(1)).unwrap();
        // A clean, fast link for longer than the reconfiguration period.
        let interval = SimDuration::from_millis(100);
        let mut now = fed;
        for seq in 1..100u64 {
            now += interval;
            detector.on_heartbeat(
                NodeId(1),
                seq,
                now - SimDuration::from_millis(1),
                interval,
                now,
            );
            assert!(detector.poll(now).is_empty());
        }
        assert_ne!(detector.requested_interval(NodeId(1)).unwrap(), prior);
        assert!(detector.table.params_epoch() > before);
    }

    #[test]
    fn check_peer_checks_that_monitor_alone() {
        let mut detector = fd();
        let now = SimInstant::ZERO;
        detector.ensure_peer(NodeId(1), now);
        detector.ensure_peer(NodeId(2), now + SimDuration::from_millis(500));
        let due = detector.deadline_of(NodeId(1)).unwrap();
        assert_eq!(due, now + SimDuration::from_secs(1));
        assert_eq!(detector.check_peer(NodeId(3), due), None);
        let other = detector.check_peer(NodeId(2), due).unwrap();
        assert_eq!(other.0, None);
        assert_eq!(
            other.1.at(SimInstant::ZERO),
            due + SimDuration::from_millis(500)
        );
        assert!(detector.is_trusted(NodeId(1)));
        let expired = detector.check_peer(NodeId(1), due).unwrap();
        assert_eq!(expired, (Some(Transition::BecameSuspected), Wake::NEVER));
        assert_eq!(detector.deadline_of(NodeId(1)), None);
        assert_eq!(detector.next_deadline(), detector.deadline_of(NodeId(2)));
    }

    /// Four groups' detectors — T_D 1 s and 2 s static, 1 s adaptive, and a
    /// second 1 s static one sharing the first's class — monitor one peer
    /// through one table, fed the way a service instance
    /// feeds them: batches applied to a changing subset of the groups, and
    /// repeats in between that only move the stamp. The wake merged at each
    /// walk must never be later than any monitor's deadline until an
    /// arrival moves a class (which drops it, as a service instance does),
    /// and while it says quiet a walk must find nothing to do.
    #[test]
    fn a_merged_wake_is_early_and_quiet_means_nothing_to_do() {
        use sle_sim::rng::SimRng;
        let peer = NodeId(1);
        let mut rng = SimRng::seed_from(0xFD_FA11);
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(peer);
        let qos = |secs| QosSpec::paper_default_with_detection(SimDuration::from_secs(secs));
        let (mut now, mut seq) = (SimInstant::ZERO, 0u64);
        let mut groups = [
            (qos(1), TuningPolicy::Static),
            (qos(2), TuningPolicy::Static),
            (qos(1), TuningPolicy::Adaptive),
            (qos(1), TuningPolicy::Static),
        ]
        .map(|(qos, policy)| {
            let group = GroupDetector::new(qos, policy);
            let monitor = group.monitor(&mut table, peer, now);
            (group, monitor)
        });
        let mut wake: Option<Wake> = None;
        let (mut quiet, mut walks, mut moves) = (0, 0, 0);
        for step in 0..20_000 {
            now += SimDuration::from_millis(1 + rng.uniform_usize(120) as u64);
            let sent = now - SimDuration::from_millis(rng.uniform_usize(30) as u64);
            // Silences long enough to be suspected through.
            let silent = (step / 400) % 5 == 4;
            if !silent && rng.bernoulli(0.9) {
                seq += 1;
                if table.record(slot, seq, sent, now) {
                    moves += 1;
                    wake = None;
                }
                if rng.bernoulli(0.97) {
                    table.stamp(slot, sent, false);
                } else {
                    // A changed batch: everything folds and unvouches, the
                    // stamp restarts, the batch's groups are fed.
                    for (_, monitor) in groups.iter_mut() {
                        monitor.unvouch(&table);
                    }
                    table.stamp(slot, sent, true);
                    let listed = [0, 1, 2, 3].map(|_| rng.bernoulli(0.8));
                    let eta = SimDuration::from_millis(50 + rng.uniform_usize(300) as u64);
                    for ((_, monitor), _) in groups.iter_mut().zip(listed).filter(|g| g.1) {
                        monitor.on_heartbeat(&mut table, seq, sent, eta, now);
                    }
                    wake = None;
                }
            }
            let stamp = table.stamp_of(slot);
            if let Some(cached) = wake {
                for (_, monitor) in &groups {
                    let due = (monitor.next_deadline(&table)).unwrap_or(SimInstant::FAR_FUTURE);
                    assert!(cached.at(stamp) <= due, "step {step}: late wake");
                }
                if cached.at(stamp) > now {
                    quiet += 1;
                    // A check only suspects, and moves no class: (η, δ)
                    // move on arrivals alone.
                    for (_, monitor) in &groups {
                        let probe = &mut table.clone();
                        let check = monitor.clone().check(probe, now);
                        let points = |t: &PeerTable| {
                            (t.link(slot).points().iter())
                                .map(|p| p.operating())
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(check, None);
                        assert_eq!(points(probe), points(&table));
                    }
                    continue;
                }
            }
            walks += 1;
            let merged = (groups.iter_mut())
                .map(|(_, monitor)| {
                    monitor.check(&mut table, now);
                    monitor.wake(&table)
                })
                .fold(Wake::NEVER, Wake::merge);
            assert!(
                merged.at(stamp) > now,
                "step {step}: a walk left a due monitor"
            );
            wake = Some(merged);
        }
        assert!(quiet > 10 * walks, "{quiet} quiet, {walks} walks");
        assert!(walks > 100, "{walks} walks");
        assert!(moves > 10, "{moves} moves");
    }

    #[test]
    fn a_wake_rides_the_stamp_exactly_in_steady_state() {
        let (mut detector, fed) = vouched_detector();
        let wake = detector.check_peer(NodeId(1), fed).unwrap().1;
        // Stamps alone never make a check due before the deadline, however
        // far they go: no class re-derives on a timer.
        let mut stamp = fed;
        for k in 1..40u64 {
            stamp = fed + SimDuration::from_millis(250 * k);
            detector.stamp(NodeId(1), stamp, false);
            assert_eq!(Some(wake.at(stamp)), detector.deadline_of(NodeId(1)));
            assert!(wake.at(stamp) > stamp);
        }
        // Once the stamps stop, the wake is when a check has something to do.
        let due = wake.at(stamp);
        assert_eq!(
            detector
                .check_peer(NodeId(1), due - SimDuration::from_nanos(1))
                .unwrap()
                .0,
            None
        );
        let expired = detector.check_peer(NodeId(1), due).unwrap().0;
        assert_eq!(expired, Some(Transition::BecameSuspected));
    }

    #[test]
    fn steady_heartbeats_never_trigger_suspicion() {
        let mut detector = fd();
        let interval = SimDuration::from_millis(250);
        let mut now = SimInstant::ZERO;
        detector.ensure_peer(NodeId(1), now);
        let mut suspicions = 0;
        for seq in 0..200u64 {
            now += interval;
            detector.on_heartbeat(NodeId(1), seq, now, interval, now);
            suspicions += detector.poll(now).len();
        }
        assert_eq!(suspicions, 0);
    }
}
