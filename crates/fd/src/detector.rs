//! The failure-detector module of one service instance.
//!
//! The paper's architecture (Figure 2) gives every service instance a single
//! Failure Detector module shared by all groups and applications on that
//! workstation: it monitors the other service instances and reports
//! trust/suspect transitions to the Group Maintenance and Leader Election
//! modules. Here that module is the owner's one [`PeerTable`] (the link of
//! every peer, measured once) plus, per group, a [`GroupDetector`]: the
//! group's QoS and tuning policy and its per-peer [`PeerMonitor`] rows, each
//! checked on its own ([`GroupDetector::check_peer`]) so that the owner of
//! several groups can watch all its monitors of one peer from one timer and
//! its [`Wake`]. A [`FailureDetector`] is the same module for one group and
//! its own private table, as a standalone detector needs it.

use sle_sim::actor::NodeId;
use sle_sim::dense::insert_tight;
use sle_sim::time::{SimDuration, SimInstant};

use crate::config::{FdParams, TuningPolicy};
use crate::monitor::{PeerMonitor, Transition, TrustState};
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
/// horizon moves with the stamp, an un-vouched one's does not, and a
/// monitor due to re-derive (η, δ) must be checked whatever its horizon.
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
    /// The stamp from which a static monitor re-derives (η, δ).
    pub(crate) retune_stamp: SimInstant,
    /// The instant from which an adaptive monitor re-derives (η, δ).
    pub(crate) retune_at: SimInstant,
}

impl Wake {
    /// The wake of no monitor (or of suspected ones only).
    pub const NEVER: Wake = Wake {
        fresh: SimInstant::FAR_FUTURE,
        offset: SimDuration::MAX,
        until: SimInstant::FAR_FUTURE,
        retune_stamp: SimInstant::FAR_FUTURE,
        retune_at: SimInstant::FAR_FUTURE,
    };

    /// The wake of both `self`'s monitors and `other`'s.
    pub fn merge(self, other: Wake) -> Wake {
        Wake {
            fresh: self.fresh.min(other.fresh),
            offset: self.offset.min(other.offset),
            until: self.until.min(other.until),
            retune_stamp: self.retune_stamp.min(other.retune_stamp),
            retune_at: self.retune_at.min(other.retune_at),
        }
    }

    /// The earliest instant a monitor can expire while the peer's stamp
    /// is `stamp` ([`SimInstant::FAR_FUTURE`]: none can).
    pub fn at(&self, stamp: SimInstant) -> SimInstant {
        self.fresh.max(stamp + self.offset).min(self.until)
    }

    /// Whether checking the monitors at `now`, the peer's stamp at `stamp`,
    /// would find nothing to do: none can expire and none is due to
    /// re-derive (η, δ).
    pub fn quiet(&self, stamp: SimInstant, now: SimInstant) -> bool {
        self.at(stamp) > now && stamp < self.retune_stamp && now < self.retune_at
    }
}

/// What [`GroupDetector::check_peer`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerCheck {
    /// The monitor's change of opinion, if any (a check only suspects).
    pub transition: Option<Transition>,
    /// Whether the monitor re-derived a different operating point (η, δ),
    /// or started or stopped following a measured estimate.
    pub retuned: bool,
    /// When the monitor must next be checked.
    pub wake: Wake,
}

/// One group's share of the failure-detector module: the group's QoS and
/// tuning policy, read once here, and its monitors, one row per peer,
/// reading their peers' links from the owner's [`PeerTable`].
#[derive(Debug, Clone)]
pub struct GroupDetector {
    qos: QosSpec,
    policy: TuningPolicy,
    /// Monitors sorted by peer id: lookups are binary searches over
    /// contiguous memory, iteration is in deterministic id order. Peer sets
    /// are bounded by group fan-out, so inserts/removals are cheap.
    monitors: Vec<PeerMonitor>,
}

impl GroupDetector {
    /// Creates a group's detector using `qos` for every monitored peer,
    /// whose monitors follow their link estimates under `policy`.
    pub fn new(qos: QosSpec, policy: TuningPolicy) -> Self {
        GroupDetector {
            qos,
            policy,
            monitors: Vec::new(),
        }
    }

    #[inline]
    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.monitors.binary_search_by_key(&peer, PeerMonitor::peer)
    }

    #[inline]
    fn monitor(&self, peer: NodeId) -> Option<&PeerMonitor> {
        self.find(peer).ok().map(|i| &self.monitors[i])
    }

    /// The QoS used for newly monitored peers.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// How the monitors' (η, δ) follow the link estimate.
    pub fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// The crash-detection time every monitor currently honours: `T_D^U`,
    /// or — once an adaptive detector has measured every monitored peer —
    /// the largest η + δ among them. It must cover the *slowest* link, and a
    /// peer still on the prior is still on the static bound.
    pub fn detection_bound(&self) -> SimDuration {
        let t_d = self.qos.detection_time();
        if self.policy == TuningPolicy::Static {
            return t_d;
        }
        (self.monitors.iter())
            .map(|m| {
                if m.is_measured() {
                    m.params().worst_case_detection()
                } else {
                    t_d
                }
            })
            .max()
            .unwrap_or(t_d)
    }

    /// `peer`'s monitor, created (the peer interned into `table` if new
    /// there) if it was not monitored.
    pub fn ensure_peer<T: Default>(
        &mut self,
        table: &mut PeerTable<T>,
        peer: NodeId,
        now: SimInstant,
    ) -> &mut PeerMonitor {
        let i = self.find(peer).unwrap_or_else(|i| {
            let monitor = PeerMonitor::new(peer, table.intern(peer), &self.qos, self.policy, now);
            insert_tight(&mut self.monitors, i, monitor);
            i
        });
        &mut self.monitors[i]
    }

    /// Stops monitoring `peer` (e.g. because it left every shared group).
    /// Its table slot stays: the table's owner holds it.
    pub fn remove_peer(&mut self, peer: NodeId) {
        if let Ok(i) = self.find(peer) {
            self.monitors.remove(i);
        }
    }

    /// Discards this group's opinion of `peer` and starts monitoring it
    /// afresh (used when a peer restarts with a new incarnation). The link
    /// record is the table owner's to wipe ([`PeerTable::reset`]), once for
    /// every group reading it.
    pub fn reset_peer<T: Default>(
        &mut self,
        table: &mut PeerTable<T>,
        peer: NodeId,
        now: SimInstant,
    ) {
        self.remove_peer(peer);
        self.ensure_peer(table, peer, now);
    }

    /// Iterates over the monitored peers (in ascending id order).
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.monitors.iter().map(PeerMonitor::peer)
    }

    /// The table slot `peer`'s monitor reads, if monitored.
    pub fn slot_of(&self, peer: NodeId) -> Option<usize> {
        self.monitor(peer).map(PeerMonitor::slot)
    }

    /// Returns whether `peer` is currently trusted. Unmonitored peers are
    /// not trusted.
    pub fn is_trusted(&self, peer: NodeId) -> bool {
        self.monitor(peer).is_some_and(PeerMonitor::is_trusted)
    }

    /// The trust state of `peer`, if monitored.
    pub fn state(&self, peer: NodeId) -> Option<TrustState> {
        self.monitor(peer).map(PeerMonitor::state)
    }

    /// The heartbeat interval this detector would like `peer` to use when
    /// sending to us (piggybacked on outgoing messages).
    pub fn requested_interval(&self, peer: NodeId) -> Option<SimDuration> {
        self.monitor(peer).map(PeerMonitor::requested_interval)
    }

    /// The operating parameters (η, δ) currently used for `peer`.
    pub fn params(&self, peer: NodeId) -> Option<FdParams> {
        self.monitor(peer).map(PeerMonitor::params)
    }

    /// Folds `peer`'s freshness stamp into its monitor's own horizon and
    /// stops reading it. The owner calls this for every monitor the peer's
    /// last batch vouched for before restarting the stamp
    /// ([`PeerTable::stamp`]): a group the next batch drops then ages out
    /// on what it was really sent.
    pub fn unvouch<T>(&mut self, table: &PeerTable<T>, peer: NodeId) {
        if let Ok(i) = self.find(peer) {
            let monitor = &mut self.monitors[i];
            monitor.fold(table.stamp_of(monitor.slot()), true);
        }
    }

    /// Processes a heartbeat from `peer`.
    ///
    /// The peer is implicitly added to the monitored set if unknown.
    /// Returns the transition (back to trusted) if the heartbeat revived a
    /// suspected peer.
    pub fn on_heartbeat<T: Default>(
        &mut self,
        table: &mut PeerTable<T>,
        peer: NodeId,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<PeerTransition> {
        let (qos, policy) = (self.qos, self.policy);
        (self.ensure_peer(table, peer, now))
            .on_heartbeat(table, &qos, policy, seq, sent_at, sender_interval, now)
            .map(|transition| PeerTransition { peer, transition })
    }

    /// Re-evaluates `peer`'s monitor at `now` — through the peer's
    /// freshness stamp, folded in first — and lets it re-derive (η, δ) if it
    /// is due. `None` if the peer is not monitored.
    pub fn check_peer<T>(
        &mut self,
        table: &mut PeerTable<T>,
        peer: NodeId,
        now: SimInstant,
    ) -> Option<PeerCheck> {
        let i = self.find(peer).ok()?;
        Some(self.check_at(table, i, now))
    }

    fn check_at<T>(&mut self, table: &mut PeerTable<T>, i: usize, now: SimInstant) -> PeerCheck {
        let monitor = &mut self.monitors[i];
        let before = (monitor.params(), monitor.is_measured());
        monitor.fold(table.stamp_of(monitor.slot()), false);
        let transition = monitor.check(table, &self.qos, self.policy, now);
        if monitor.requested_interval() != before.0.interval {
            table.bump_params_epoch();
        }
        PeerCheck {
            transition,
            retuned: (monitor.params(), monitor.is_measured()) != before,
            wake: monitor.wake(self.policy),
        }
    }

    /// [`check_peer`](GroupDetector::check_peer) for every monitored
    /// peer, returning the transitions (in practice, new suspicions whose
    /// freshness horizon has expired).
    pub fn poll<T>(&mut self, table: &mut PeerTable<T>, now: SimInstant) -> Vec<PeerTransition> {
        let mut transitions = Vec::new();
        for i in 0..self.monitors.len() {
            if let Some(transition) = self.check_at(table, i, now).transition {
                let peer = self.monitors[i].peer();
                transitions.push(PeerTransition { peer, transition });
            }
        }
        transitions
    }

    /// The instant `peer`'s monitor suspects it unless a heartbeat or a
    /// stamp comes first. `None` if the peer is not monitored or already
    /// suspected.
    pub fn deadline_of<T>(&self, table: &PeerTable<T>, peer: NodeId) -> Option<SimInstant> {
        let monitor = self.monitor(peer)?;
        let deadline = monitor.deadline_at(table.stamp_of(monitor.slot()));
        (deadline != SimInstant::FAR_FUTURE).then_some(deadline)
    }

    /// The earliest [`deadline_of`](GroupDetector::deadline_of) among all
    /// monitors — the time at which the next suspicion could occur and
    /// therefore the time at which the owner should call
    /// [`GroupDetector::poll`] again.
    pub fn next_deadline<T>(&self, table: &PeerTable<T>) -> Option<SimInstant> {
        (self.peers())
            .filter_map(|peer| self.deadline_of(table, peer))
            .min()
    }
}

/// A standalone failure detector: one group's [`GroupDetector`] over a
/// private [`PeerTable`], running the same code a service instance runs.
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
}

impl FailureDetector {
    /// Creates a failure detector using `qos` for every monitored peer,
    /// with the paper's static tuning.
    pub fn new(qos: QosSpec) -> Self {
        FailureDetector {
            table: PeerTable::new(),
            group: GroupDetector::new(qos, TuningPolicy::Static),
        }
    }

    /// Starts monitoring `peer` if it is not already monitored.
    pub fn ensure_peer(&mut self, peer: NodeId, now: SimInstant) {
        self.group.ensure_peer(&mut self.table, peer, now);
    }

    /// Returns whether `peer` is currently trusted.
    pub fn is_trusted(&self, peer: NodeId) -> bool {
        self.group.is_trusted(peer)
    }

    /// [`GroupDetector::on_heartbeat`] over the private table.
    pub fn on_heartbeat(
        &mut self,
        peer: NodeId,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<PeerTransition> {
        let table = &mut self.table;
        (self.group).on_heartbeat(table, peer, seq, sent_at, sender_interval, now)
    }

    /// [`GroupDetector::poll`] over the private table.
    pub fn poll(&mut self, now: SimInstant) -> Vec<PeerTransition> {
        self.group.poll(&mut self.table, now)
    }

    /// [`GroupDetector::next_deadline`] over the private table.
    pub fn next_deadline(&self) -> Option<SimInstant> {
        self.group.next_deadline(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::new(QosSpec::paper_default())
    }

    #[test]
    fn unknown_peers_are_not_trusted() {
        let detector = fd();
        assert!(!detector.is_trusted(NodeId(3)));
        assert_eq!(detector.group.state(NodeId(3)), None);
        assert_eq!(detector.group.peers().count(), 0);
        assert_eq!(detector.next_deadline(), None);
    }

    #[test]
    fn heartbeat_implicitly_registers_peer() {
        let mut detector = fd();
        let now = SimInstant::ZERO + SimDuration::from_millis(10);
        detector.on_heartbeat(NodeId(2), 0, now, SimDuration::from_millis(250), now);
        assert_eq!(detector.group.peers().count(), 1);
        assert!(detector.is_trusted(NodeId(2)));
        assert!(detector.group.requested_interval(NodeId(2)).is_some());
        assert_eq!(detector.group.slot_of(NodeId(2)), Some(0));
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
            (detector.group.peers())
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
        detector
            .group
            .reset_peer(&mut detector.table, NodeId(1), again);
        assert!(detector.is_trusted(NodeId(1)));

        detector.group.remove_peer(NodeId(1));
        assert_eq!(detector.group.peers().count(), 0);
        assert!(!detector.is_trusted(NodeId(1)));
    }

    #[test]
    fn peers_iterator_is_sorted() {
        let mut detector = fd();
        for id in [5u32, 1, 3] {
            detector.ensure_peer(NodeId(id), SimInstant::ZERO);
        }
        let peers: Vec<NodeId> = detector.group.peers().collect();
        assert_eq!(peers, vec![NodeId(1), NodeId(3), NodeId(5)]);
        assert_eq!(detector.group.qos(), QosSpec::paper_default());
    }

    #[test]
    fn detectors_sharing_an_arena_share_liveness_estimates() {
        // Two groups on one workstation monitoring the same peer: the link
        // estimate must be common, the trust state per group.
        let mut table: PeerTable = PeerTable::new();
        let mut group_a = GroupDetector::new(QosSpec::paper_default(), TuningPolicy::Static);
        let mut group_b = GroupDetector::new(
            QosSpec::paper_default_with_detection(SimDuration::from_millis(500)),
            TuningPolicy::Static,
        );
        let peer = NodeId(7);
        let interval = SimDuration::from_millis(100);
        let mut now = SimInstant::ZERO;
        group_a.ensure_peer(&mut table, peer, now);
        group_b.ensure_peer(&mut table, peer, now);
        for seq in 0..50u64 {
            now += interval;
            // Only group A's monitor processes the heartbeats...
            let sent = now - SimDuration::from_millis(3);
            group_a.on_heartbeat(&mut table, peer, seq, sent, interval, now);
        }
        // ...yet group B reads the same slot, and so the same link quality.
        let slot = group_b.slot_of(peer).unwrap();
        assert_eq!(group_a.slot_of(peer), Some(slot));
        let quality = table.quality(slot);
        assert!((quality.delay_mean.as_millis_f64() - 3.0).abs() < 0.5);
        assert_eq!(table.len(), 1);

        // Trust remains per group: B heard nothing directly, so its
        // freshness horizon (armed at ensure time) expires independently.
        let b_deadline = group_b.next_deadline(&table).unwrap();
        assert!(group_a.next_deadline(&table).unwrap() > b_deadline);
        assert_eq!(group_b.poll(&mut table, b_deadline).len(), 1);
        assert!(!group_b.is_trusted(peer));
        assert!(group_a.is_trusted(peer));

        // Dropping both monitors keeps the slot: the table's owner holds it.
        group_a.remove_peer(peer);
        group_b.remove_peer(peer);
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

    impl FailureDetector {
        /// Moves `peer`'s stamp, as its owner does on a repeated batch.
        fn stamp(&mut self, peer: NodeId, sent_at: SimInstant, restart: bool) {
            let slot = self.table.intern(peer);
            self.table.stamp(slot, sent_at, restart);
        }

        fn check_peer(&mut self, peer: NodeId, now: SimInstant) -> Option<PeerCheck> {
            self.group.check_peer(&mut self.table, peer, now)
        }

        fn deadline_of(&self, peer: NodeId) -> Option<SimInstant> {
            self.group.deadline_of(&self.table, peer)
        }
    }

    #[test]
    fn a_stamp_stands_in_for_repeated_heartbeats() {
        let (mut detector, fed) = vouched_detector();
        let horizon = detector.next_deadline().unwrap() - fed;
        assert_eq!(
            horizon,
            SimDuration::from_secs(1) + SimDuration::from_millis(250)
                - detector.group.requested_interval(NodeId(1)).unwrap()
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
        detector.group.unvouch(&detector.table, NodeId(1));
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
        let old = detector.group.params(NodeId(1)).unwrap();
        // The peer repeats its batch over a clean link until the poll after
        // a repeat re-derives δ from it.
        let (mut seq, mut sent) = (0, fed);
        while detector.group.params(NodeId(1)) == Some(old) {
            (seq, sent) = (seq + 1, sent + eta);
            detector.table.record(0, seq, sent, sent);
            detector.stamp(NodeId(1), sent, false);
            assert!(detector.poll(sent).is_empty());
        }
        let tuned = detector.group.params(NodeId(1)).unwrap();
        assert!(tuned.shift < old.shift);
        // What was heard keeps its price...
        assert_eq!(detector.next_deadline(), Some(sent + eta + old.shift));
        // ...a restarted stamp that goes back in time takes nothing away...
        detector.stamp(NodeId(1), fed, true);
        assert_eq!(detector.next_deadline(), Some(sent + eta + old.shift));
        // ...and what is heard from here on pays the new one.
        detector.stamp(NodeId(1), sent + eta, false);
        assert_eq!(detector.next_deadline(), Some(sent + eta * 2 + tuned.shift));
    }

    #[test]
    fn a_requested_interval_that_moves_bumps_the_arena_epoch() {
        let (mut detector, fed) = vouched_detector();
        let before = detector.table.params_epoch();
        let prior = detector.group.requested_interval(NodeId(1)).unwrap();
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
        assert_ne!(detector.group.requested_interval(NodeId(1)).unwrap(), prior);
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
        assert_eq!((other.transition, other.retuned), (None, false));
        assert_eq!(
            other.wake.at(SimInstant::ZERO),
            due + SimDuration::from_millis(500)
        );
        assert!(detector.is_trusted(NodeId(1)));
        let expired = detector.check_peer(NodeId(1), due).unwrap();
        assert_eq!(expired.transition, Some(Transition::BecameSuspected));
        assert_eq!(expired.wake, Wake::NEVER);
        assert_eq!(detector.deadline_of(NodeId(1)), None);
        assert_eq!(detector.next_deadline(), detector.deadline_of(NodeId(2)));
    }

    /// Three groups' detectors — T_D 1 s and 2 s static, 1 s adaptive —
    /// monitor one peer through one table, fed the way a service instance
    /// feeds them: batches applied to a changing subset of the groups, and
    /// repeats in between that only move the stamp. The wake merged at each
    /// walk must never be later than any monitor's deadline, and while it
    /// says quiet a walk must find nothing to do for a trusted monitor.
    #[test]
    fn a_merged_wake_is_early_and_quiet_means_nothing_to_do() {
        use sle_sim::rng::SimRng;
        let peer = NodeId(1);
        let mut rng = SimRng::seed_from(0xFD_FA11);
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(peer);
        let qos = |secs| QosSpec::paper_default_with_detection(SimDuration::from_secs(secs));
        let mut groups = [
            GroupDetector::new(qos(1), TuningPolicy::Static),
            GroupDetector::new(qos(2), TuningPolicy::Static),
            GroupDetector::new(qos(1), TuningPolicy::Adaptive),
        ];
        let (mut now, mut seq) = (SimInstant::ZERO, 0u64);
        for group in groups.iter_mut() {
            group.ensure_peer(&mut table, peer, now);
        }
        let mut wake: Option<Wake> = None;
        let (mut quiet, mut walks) = (0, 0);
        for step in 0..20_000 {
            now += SimDuration::from_millis(1 + rng.uniform_usize(120) as u64);
            let sent = now - SimDuration::from_millis(rng.uniform_usize(30) as u64);
            // Silences long enough to be suspected through.
            let silent = (step / 400) % 5 == 4;
            if !silent && rng.bernoulli(0.9) {
                seq += 1;
                table.record(slot, seq, sent, now);
                if rng.bernoulli(0.97) {
                    table.stamp(slot, sent, false);
                } else {
                    // A changed batch: everything folds and unvouches, the
                    // stamp restarts, the batch's groups are fed.
                    for group in groups.iter_mut() {
                        group.unvouch(&table, peer);
                    }
                    table.stamp(slot, sent, true);
                    let listed = [0, 1, 2].map(|_| rng.bernoulli(0.8));
                    let eta = SimDuration::from_millis(50 + rng.uniform_usize(300) as u64);
                    for (group, _) in groups.iter_mut().zip(listed).filter(|g| g.1) {
                        group.on_heartbeat(&mut table, peer, seq, sent, eta, now);
                    }
                    wake = None;
                }
            }
            let stamp = table.stamp_of(slot);
            if let Some(cached) = wake {
                for group in &groups {
                    let due = (group.deadline_of(&table, peer)).unwrap_or(SimInstant::FAR_FUTURE);
                    assert!(cached.at(stamp) <= due, "step {step}: late wake");
                }
                if cached.quiet(stamp, now) {
                    quiet += 1;
                    // (A suspected monitor re-derives on the heartbeats
                    // that fail to revive it, not on a timer.)
                    for group in groups.iter().filter(|g| g.is_trusted(peer)) {
                        let probe = &mut table.clone();
                        let check = group.clone().check_peer(probe, peer, now).unwrap();
                        assert_eq!((check.transition, check.retuned), (None, false));
                    }
                    continue;
                }
            }
            walks += 1;
            let merged = (groups.iter_mut())
                .map(|group| group.check_peer(&mut table, peer, now).unwrap().wake)
                .fold(Wake::NEVER, Wake::merge);
            assert!(
                merged.at(stamp) > now,
                "step {step}: a walk left a due monitor"
            );
            wake = Some(merged);
        }
        assert!(quiet > 10 * walks, "{quiet} quiet, {walks} walks");
        assert!(walks > 100, "{walks} walks");
    }

    #[test]
    fn a_wake_rides_the_stamp_exactly_in_steady_state() {
        let (mut detector, fed) = vouched_detector();
        let wake = detector.check_peer(NodeId(1), fed).unwrap().wake;
        for k in 1..20u64 {
            let stamp = fed + SimDuration::from_millis(250 * k);
            detector.stamp(NodeId(1), stamp, false);
            assert_eq!(Some(wake.at(stamp)), detector.deadline_of(NodeId(1)));
            assert!(wake.quiet(stamp, stamp) || stamp >= fed + SimDuration::from_secs(5));
        }
        // A static monitor re-derives once a stamp 5 s past the last time
        // it did arrives: from then on a check has something to do.
        assert!(!wake.quiet(
            fed + SimDuration::from_secs(5),
            fed + SimDuration::from_secs(5)
        ));
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
