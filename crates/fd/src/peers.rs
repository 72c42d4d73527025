//! The per-workstation peer table.
//!
//! The paper's architecture (Figure 2) gives every workstation a *single*
//! Failure Detector module shared by all groups. What is a property of a
//! peer's *link* rather than of any group — the link-quality estimator, one
//! operating point (η, δ) per QoS class, the peer's freshness stamp — lives
//! once per peer in a [`PeerTable`] slot, owned by the service instance (or
//! a standalone [`FailureDetector`](crate::FailureDetector)) and lent to
//! every detector call; each group's [`PeerMonitor`](crate::PeerMonitor) of
//! the peer names the slot and its class's point there. A slot also
//! carries the owner's own per-peer state `T`. ALIVEs for several groups
//! ride one datagram, so a slot records the same `(seq, sent_at,
//! received_at)` observation once.
//!
//! Figure 1's pipeline runs here, on the clock that moves its input:
//! [`PeerTable::record`] feeds the estimator and re-derives the classes of
//! each policy due. Nothing else moves (η, δ), bar a restart's reset.

use std::ops::{Index, IndexMut};

use sle_sim::actor::NodeId;
use sle_sim::dense::{insert_tight, SlotIndex};
use sle_sim::time::SimInstant;

use crate::config::TuningPolicy;
use crate::monitor::OperatingPoint;
use crate::qos::QosSpec;
use crate::quality::{LinkQuality, LinkQualityEstimator};

/// How many delay samples each peer's estimator keeps.
const ESTIMATOR_WINDOW: usize = 256;

/// The policies in [`PeerLink::clocks`] order.
const POLICIES: [TuningPolicy; 2] = [TuningPolicy::Static, TuningPolicy::Adaptive];

/// Everything about one remote peer that is a property of the link.
#[derive(Debug, Clone)]
pub(crate) struct PeerLink {
    estimator: LinkQualityEstimator,
    /// The last `(seq, sent_at, received_at)` recorded, for deduplicating
    /// the per-group fan-out of one batched datagram.
    last_record: Option<(u64, SimInstant, SimInstant)>,
    /// Per [`TuningPolicy`] some class of the peer is under: the arrival
    /// time from which the next recorded heartbeat re-derives the policy's
    /// classes, and the estimate they follow. One scan of the estimator per
    /// policy and period, shared by every class of the policy.
    clocks: [Option<(SimInstant, LinkQuality)>; 2],
    /// One operating point per `(QosSpec, TuningPolicy)` some group ever
    /// monitored the peer under, in creation order: a monitor names its
    /// class's by index, so points are never removed while the slot lives
    /// (a restart resets them in place).
    points: Vec<OperatingPoint>,
    /// The send time of the peer's latest ALIVE batch its monitors read in
    /// place of being fed it ([`PeerTable::stamp`]).
    stamp: SimInstant,
}

impl PeerLink {
    fn new() -> Self {
        PeerLink {
            estimator: LinkQualityEstimator::new(ESTIMATOR_WINDOW),
            last_record: None,
            clocks: [None; 2],
            points: Vec::new(),
            stamp: SimInstant::ZERO,
        }
    }

    /// The peer's operating points, one per QoS class.
    pub(crate) fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    pub(crate) fn points_mut(&mut self) -> &mut [OperatingPoint] {
        &mut self.points
    }

    /// Re-derives, at arrival time `now`, the classes of every policy whose
    /// clock is due: one estimate over the policy's window, and a search per
    /// class only if it differs from the one they follow. Returns whether a
    /// class moved, and whether a requested interval did.
    fn rederive(&mut self, now: SimInstant) -> (bool, bool) {
        let (mut moved, mut asks) = (false, false);
        for (clock, policy) in self.clocks.iter_mut().zip(POLICIES) {
            let Some((due, estimate)) = clock.as_mut().filter(|(due, _)| now >= *due) else {
                continue;
            };
            *due = now + policy.reconfigure_every();
            let fresh = self.estimator.estimate_over(policy.estimate_window());
            if fresh == *estimate {
                continue;
            }
            *estimate = fresh;
            for point in self.points.iter_mut().filter(|p| p.policy() == policy) {
                let interval = point.operating().0.interval;
                moved |= point.derive(fresh, self.stamp);
                asks |= point.operating().0.interval != interval;
            }
        }
        (moved, asks)
    }
}

#[derive(Debug, Clone)]
struct PeerSlot<T> {
    link: PeerLink,
    node: T,
}

/// One slot per remote peer: its link record beside the owner's per-peer
/// state `T`.
///
/// Peers are interned into dense slots on first contact behind a sorted id
/// → slot index, and a slot is never removed while the table lives: group
/// churn on top of the contacted-peer universe neither grows the table nor
/// loses a link estimate a surviving group still reads. `table[slot]` is
/// the owner's state of that slot.
///
/// ```
/// use sle_fd::PeerTable;
/// use sle_sim::actor::NodeId;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let mut table: PeerTable<u32> = PeerTable::new();
/// let slot = table.intern(NodeId(7));
/// assert_eq!(table.intern(NodeId(7)), slot);
/// table[slot] += 1;
/// let sent = SimInstant::ZERO;
/// let received = sent + SimDuration::from_millis(2);
/// // Three groups processing one batched datagram: recorded once.
/// for _ in 0..3 {
///     table.record(slot, 0, sent, received);
/// }
/// assert_eq!(table.heartbeats_recorded(slot), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PeerTable<T = ()> {
    index: SlotIndex,
    slots: Vec<PeerSlot<T>>,
    /// Bumped whenever a monitor's requested interval moves: the owning
    /// node's cached ALIVE plan embeds those intervals.
    params_epoch: u64,
}

impl<T> Default for PeerTable<T> {
    fn default() -> Self {
        PeerTable {
            index: SlotIndex::new(),
            slots: Vec::new(),
            params_epoch: 0,
        }
    }
}

impl<T> PeerTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `peers` slots.
    pub fn with_capacity(peers: usize) -> Self {
        PeerTable {
            slots: Vec::with_capacity(peers),
            ..Self::default()
        }
    }

    /// The slot of `peer`, creating it on first contact.
    pub fn intern(&mut self, peer: NodeId) -> usize
    where
        T: Default,
    {
        if let Some(slot) = self.index.get(peer.0) {
            return slot as usize;
        }
        let slot = self.slots.len();
        let fresh = PeerSlot {
            link: PeerLink::new(),
            node: T::default(),
        };
        insert_tight(&mut self.slots, slot, fresh);
        self.index.insert(peer.0, slot as u32);
        slot
    }

    /// The slot of `peer`, if it was ever contacted.
    pub fn find(&self, peer: NodeId) -> Option<usize> {
        self.index.get(peer.0).map(|slot| slot as usize)
    }

    /// `peer`'s state, its slot created on first contact.
    pub fn entry(&mut self, peer: NodeId) -> &mut T
    where
        T: Default,
    {
        let slot = self.intern(peer);
        &mut self.slots[slot].node
    }

    /// Number of peers ever contacted.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no peer was ever contacted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `(peer, slot)` pairs in ascending peer id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        (self.index.iter()).map(|(peer, slot)| (NodeId(peer), slot as usize))
    }

    /// The owner's state of every slot, in slot order.
    pub fn states_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.slots.iter_mut().map(|slot| &mut slot.node)
    }

    pub(crate) fn link(&self, slot: usize) -> &PeerLink {
        &self.slots[slot].link
    }

    pub(crate) fn link_mut(&mut self, slot: usize) -> &mut PeerLink {
        &mut self.slots[slot].link
    }

    /// Records the arrival of heartbeat `seq` from the peer in `slot`,
    /// stamped `sent_at`, received at `received_at`, and re-derives the
    /// peer's classes under every policy due by then. Returns whether a
    /// class moved (η, δ) or went on or off a measured estimate.
    ///
    /// The exact same observation recorded twice in a row (the second and
    /// later groups processing one batched datagram) is counted once.
    pub fn record(
        &mut self,
        slot: usize,
        seq: u64,
        sent_at: SimInstant,
        received_at: SimInstant,
    ) -> bool {
        let link = self.link_mut(slot);
        if link.last_record == Some((seq, sent_at, received_at)) {
            return false;
        }
        link.last_record = Some((seq, sent_at, received_at));
        link.estimator.record(seq, sent_at, received_at);
        let (moved, asks) = link.rederive(received_at);
        if asks {
            self.bump_params_epoch();
        }
        moved
    }

    /// Makes the classes of `policy` in `slot` due to re-derive at the
    /// next arrival, from `now`.
    pub(crate) fn due_now(&mut self, slot: usize, policy: TuningPolicy, now: SimInstant) {
        if let Some((due, _)) = &mut self.link_mut(slot).clocks[policy as usize] {
            *due = (*due).min(now);
        }
    }

    /// Heartbeats recorded (after deduplication) from the peer in `slot`
    /// since its first contact or its last [`reset`](PeerTable::reset).
    pub fn heartbeats_recorded(&self, slot: usize) -> u64 {
        self.link(slot).estimator.heartbeats_recorded()
    }

    /// The current link-quality estimate of the peer in `slot`, over the
    /// whole estimator.
    pub fn quality(&self, slot: usize) -> LinkQuality {
        self.link(slot).estimator.estimate()
    }

    /// Discards every measurement of the peer in `slot` (it restarted with
    /// a new incarnation, so its old link behaviour no longer applies),
    /// once for every group reading it: each class's operating point goes
    /// back to the prior's, its policy next due one period after `now`, and
    /// no batch vouches any more. The slot, its classes, its freshness stamp
    /// and the owner's state survive.
    pub fn reset(&mut self, slot: usize, now: SimInstant) {
        let link = self.link_mut(slot);
        let prior = LinkQuality::conservative_prior();
        let mut points = std::mem::take(&mut link.points);
        for point in &mut points {
            *point = OperatingPoint::new(*point.qos(), point.policy(), prior);
        }
        let restart = |p: TuningPolicy| (now + p.reconfigure_every(), prior);
        let clocks = POLICIES.map(|p| link.clocks[p as usize].map(|_| restart(p)));
        *link = PeerLink {
            stamp: link.stamp,
            clocks,
            points,
            ..PeerLink::new()
        };
        self.bump_params_epoch();
    }

    /// The QoS classes that have an operating point in `slot`, in creation
    /// order.
    pub fn classes(&self, slot: usize) -> impl Iterator<Item = (QosSpec, TuningPolicy)> + '_ {
        (self.link(slot).points.iter()).map(|point| (*point.qos(), point.policy()))
    }

    /// The index of the operating point of class `(qos, policy)` in `slot`,
    /// created if the slot has none yet from the estimate the policy's other
    /// classes follow — or, for the policy's first class, from one read as
    /// of `now`, which starts the policy's clock.
    pub(crate) fn point(
        &mut self,
        slot: usize,
        qos: &QosSpec,
        policy: TuningPolicy,
        now: SimInstant,
    ) -> u16 {
        let link = self.link_mut(slot);
        let found = link.points.iter().position(|point| point.is(qos, policy));
        let at = found.unwrap_or_else(|| {
            let estimator = &link.estimator;
            let (_, estimate) = *link.clocks[policy as usize].get_or_insert_with(|| {
                let estimate = estimator.estimate_over(policy.estimate_window());
                (now + policy.reconfigure_every(), estimate)
            });
            let (point, at) = (
                OperatingPoint::new(*qos, policy, estimate),
                link.points.len(),
            );
            insert_tight(&mut link.points, at, point);
            at
        });
        u16::try_from(at).expect("fewer than 65 536 QoS classes per peer")
    }

    /// Records that the peer in `slot` repeated, at `sent_at`, the ALIVE
    /// batch its monitors were last fed: every monitor that batch vouches
    /// for reads its horizon off this one stamp, through its class (a max:
    /// late and duplicated datagrams are harmless). With `restart` the stamp
    /// is set and no class is vouched for any more: the caller
    /// [`unvouch`](crate::PeerMonitor::unvouch)ed every monitor and is about
    /// to feed them a different batch.
    pub fn stamp(&mut self, slot: usize, sent_at: SimInstant, restart: bool) {
        let link = self.link_mut(slot);
        if restart {
            link.points.iter_mut().for_each(OperatingPoint::unvouch);
        }
        let floor = if restart {
            SimInstant::ZERO
        } else {
            link.stamp
        };
        link.stamp = sent_at.max(floor);
    }

    /// The sequence number of the last heartbeat recorded from the peer in
    /// `slot` since the slot was created or reset, if any.
    pub fn last_seq(&self, slot: usize) -> Option<u64> {
        self.link(slot).last_record.map(|(seq, ..)| seq)
    }

    /// The freshness stamp of the peer in `slot` ([`PeerTable::stamp`]).
    pub fn stamp_of(&self, slot: usize) -> SimInstant {
        self.link(slot).stamp
    }

    /// A counter that moves whenever some class's requested interval did.
    pub fn params_epoch(&self) -> u64 {
        self.params_epoch
    }

    fn bump_params_epoch(&mut self) {
        self.params_epoch += 1;
    }
}

impl<T> Index<usize> for PeerTable<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.slots[slot].node
    }
}

impl<T> IndexMut<usize> for PeerTable<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::configure;
    use sle_sim::time::SimDuration;

    impl<T> PeerTable<T> {
        /// The estimate the classes of `policy` in `slot` follow, if any.
        pub(crate) fn estimate(&self, slot: usize, policy: TuningPolicy) -> Option<LinkQuality> {
            self.link(slot).clocks[policy as usize].map(|(_, estimate)| estimate)
        }
    }

    #[test]
    fn slots_are_shared_per_peer() {
        let mut table: PeerTable = PeerTable::new();
        let a1 = table.intern(NodeId(1));
        let a2 = table.intern(NodeId(1));
        let b = table.intern(NodeId(2));
        assert_eq!(a1, a2);
        let sent = SimInstant::ZERO;
        let recv = sent + SimDuration::from_millis(5);
        table.record(a1, 0, sent, recv);
        // Every holder of the slot observes the one recording.
        assert_eq!(table.heartbeats_recorded(a2), 1);
        assert_eq!(table.heartbeats_recorded(b), 0);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn duplicate_observations_of_one_datagram_count_once() {
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(NodeId(1));
        let sent = SimInstant::ZERO + SimDuration::from_millis(100);
        let recv = sent + SimDuration::from_millis(2);
        // Three groups processing the same batched datagram.
        table.record(slot, 7, sent, recv);
        table.record(slot, 7, sent, recv);
        table.record(slot, 7, sent, recv);
        assert_eq!(table.heartbeats_recorded(slot), 1);
        // A genuinely new observation (network duplicate arriving later)
        // still counts.
        table.record(slot, 7, sent, recv + SimDuration::from_millis(9));
        assert_eq!(table.heartbeats_recorded(slot), 2);
    }

    #[test]
    fn reset_clears_measurements_but_keeps_sharing() {
        let mut table: PeerTable<u8> = PeerTable::new();
        let slot = table.intern(NodeId(1));
        table[slot] = 5;
        let late = SimInstant::ZERO + SimDuration::from_secs(9);
        table.point(slot, &QosSpec::paper_default(), TuningPolicy::Static, late);
        table.record(slot, 0, SimInstant::ZERO, SimInstant::ZERO);
        table.stamp(slot, late, false);
        table.reset(slot, late);
        assert_eq!(table.heartbeats_recorded(slot), 0);
        // The static clock restarts on the prior, one period on; no class
        // of the other policy ever started its clock.
        let prior = LinkQuality::conservative_prior();
        let clocks = table.link(slot).clocks;
        assert_eq!(
            clocks,
            [Some((late + SimDuration::from_secs(5), prior)), None]
        );
        // The slot, its stamp and the owner's state survive the reset.
        assert_eq!(table.intern(NodeId(1)), slot);
        assert_eq!((table.stamp_of(slot), table[slot]), (late, 5));
        // The same datagram seen again is no duplicate of the past life.
        table.record(slot, 0, SimInstant::ZERO, SimInstant::ZERO);
        assert_eq!(table.heartbeats_recorded(slot), 1);
    }

    #[test]
    fn churn_keeps_the_table_length_constant() {
        // Group churn sharing one peer: every join monitors it, every leave
        // stops. The table neither grows nor loses the long-lived estimate.
        let (qos, policy) = (QosSpec::paper_default(), TuningPolicy::Static);
        let mut table: PeerTable = PeerTable::new();
        let baseline = crate::GroupDetector::new(qos, policy);
        let now = SimInstant::ZERO;
        let mut kept = baseline.monitor(&mut table, NodeId(9), now);
        let eta = qos.detection_time();
        kept.on_heartbeat(&mut table, 0, now, eta, now);
        for _ in 0..100 {
            let churned = crate::GroupDetector::new(qos, policy);
            let monitor = churned.monitor(&mut table, NodeId(9), now);
            // The churned group reads the long-lived estimate, and its
            // monitor goes with the group.
            assert_eq!(table.heartbeats_recorded(monitor.slot()), 1);
            assert_eq!(table.len(), 1);
        }
        assert_eq!(table.heartbeats_recorded(kept.slot()), 1);
        assert_eq!(table.len(), 1);
        // Every churned group shared the one operating point of its class.
        assert_eq!(table.link(kept.slot()).points().len(), 1);
    }

    #[test]
    fn points_are_one_per_qos_class_and_reset_in_place() {
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(NodeId(1));
        let (cfg, now) = (TuningPolicy::Static, SimInstant::ZERO);
        let fast = QosSpec::paper_default();
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
        let p_fast = table.point(slot, &fast, cfg, now);
        // A second group of the same class shares its operating point.
        assert_eq!(table.point(slot, &fast, cfg, now), p_fast);
        // A different QoS is never served another QoS's params...
        let p_slow = table.point(slot, &slow, cfg, now);
        let params =
            |table: &PeerTable, at: u16| table.link(slot).points()[usize::from(at)].operating().0;
        assert_ne!(p_slow, p_fast);
        assert_eq!(
            params(&table, p_slow).worst_case_detection(),
            SimDuration::from_secs(8)
        );
        // ...nor a different policy's: a mixed workstation's adaptive
        // monitor of the same peer gets its own operating point.
        let p_tight = table.point(slot, &fast, TuningPolicy::Adaptive, now);
        assert!(p_tight != p_fast && p_tight != p_slow);
        assert_eq!(table.link(slot).points().len(), 3);
        // A reset keeps every class where it was, back on the prior.
        let epoch = table.params_epoch();
        table.reset(slot, now + SimDuration::from_secs(1));
        assert_eq!(table.point(slot, &slow, cfg, now), p_slow);
        assert_eq!(table.link(slot).points().len(), 3);
        assert!(table.params_epoch() > epoch);
    }

    #[test]
    fn a_measured_peer_s_new_class_starts_measured_until_a_reset() {
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(NodeId(1));
        let mut now = SimInstant::ZERO;
        for seq in 0..64u64 {
            now += SimDuration::from_millis(100);
            table.record(slot, seq, now - SimDuration::from_millis(1), now);
        }
        let qos = QosSpec::paper_default();
        let at = table.point(slot, &qos, TuningPolicy::Adaptive, now);
        let point = &table.link(slot).points()[usize::from(at)];
        let (params, measured) = point.operating();
        assert!(measured);
        let estimate = table.estimate(slot, TuningPolicy::Adaptive).unwrap();
        assert_eq!(params, configure(&qos, &estimate, TuningPolicy::Adaptive));
        // The peer restarts: its class goes back to the prior, in place.
        table.reset(slot, now);
        let point = &table.link(slot).points()[usize::from(at)];
        let prior = configure(
            &qos,
            &LinkQuality::conservative_prior(),
            TuningPolicy::Adaptive,
        );
        assert_eq!(point.operating(), (prior, false));
    }

    #[test]
    fn each_policy_memoizes_its_own_window_of_the_one_ring() {
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(NodeId(1));
        let mut now = SimInstant::ZERO;
        // 200 heartbeats at 90 ms, then 64 at 2 ms: one ring, one record().
        for seq in 0..264u64 {
            now += SimDuration::from_millis(100);
            let delay = SimDuration::from_millis(if seq < 200 { 90 } else { 2 });
            table.record(slot, seq, now - delay, now);
        }
        // Each policy's first class reads its own window as of now.
        let qos = QosSpec::paper_default();
        for policy in POLICIES {
            table.point(slot, &qos, policy, now);
        }
        let whole = table.estimate(slot, TuningPolicy::Static).unwrap();
        let recent = table.estimate(slot, TuningPolicy::Adaptive).unwrap();
        assert_eq!(whole.samples, ESTIMATOR_WINDOW);
        assert!(whole.delay_mean > SimDuration::from_millis(60));
        assert_eq!(recent.samples, 64);
        assert_eq!(recent.delay_tail, SimDuration::from_millis(2));
        // Within the policy's own period an arrival reads no estimate; at
        // its end an unchanged estimate moves no class.
        let two = SimDuration::from_millis(2);
        let soon = now + SimDuration::from_millis(999);
        assert!(!table.record(slot, 264, soon - two, soon));
        let estimates = |table: &PeerTable| POLICIES.map(|p| table.estimate(slot, p).unwrap());
        assert_eq!(estimates(&table), [whole, recent]);
        let later = now + SimDuration::from_secs(1);
        assert!(!table.record(slot, 265, later - two, later));
        assert_eq!(estimates(&table), [whole, recent]);
        assert_eq!(
            table.link(slot).clocks[1].unwrap().0,
            later + SimDuration::from_secs(1)
        );
        let stale = now + SimDuration::from_secs(5);
        table.record(slot, 266, stale - two, stale);
        assert_ne!(estimates(&table)[0], whole);
    }

    #[test]
    fn classes_move_on_arrivals_one_scan_per_policy_and_period() {
        // Two static classes and an adaptive one of one peer, fed a link
        // whose delay grows with every heartbeat: every read of the
        // estimate differs from the last.
        let mut table: PeerTable = PeerTable::new();
        let slot = table.intern(NodeId(1));
        let fast = QosSpec::paper_default();
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
        let classes = [
            (fast, TuningPolicy::Static),
            (slow, TuningPolicy::Static),
            (fast, TuningPolicy::Adaptive),
        ];
        let start = SimInstant::ZERO;
        let at = classes.map(|(qos, policy)| table.point(slot, &qos, policy, start));
        let operating =
            |table: &PeerTable| at.map(|at| table.link(slot).points()[usize::from(at)].operating());
        let estimates = |table: &PeerTable| POLICIES.map(|p| table.estimate(slot, p));
        let ms = SimDuration::from_millis;
        let (mut scans, mut moves) = ([vec![], vec![]], [vec![], vec![], vec![]]);
        for seq in 0..100u64 {
            let now = start + ms(100) * (seq + 1);
            let (before, read) = (operating(&table), estimates(&table));
            let moved = table.record(slot, seq, now - ms(1 + seq / 2), now);
            let (after, reread) = (operating(&table), estimates(&table));
            for (scan, (old, new)) in scans.iter_mut().zip(read.iter().zip(reread)) {
                if *old != new {
                    scan.push(now.saturating_since(start));
                }
            }
            for (class_moves, (old, new)) in moves.iter_mut().zip(before.iter().zip(after)) {
                if *old != new {
                    class_moves.push(now.saturating_since(start));
                }
            }
            assert_eq!(moved, before != after, "at {now}");
        }
        // One read per policy and period, at the first arrival due...
        let secs = |list: &[u64]| {
            list.iter()
                .map(|&s| SimDuration::from_secs(s))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            scans,
            [secs(&[5, 10]), secs(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])]
        );
        // ...and every class of the policy re-derived from it then, only:
        // the static ones leave the prior together and then hold their
        // split at the cap on η.
        assert_eq!(moves[0], secs(&[5]));
        assert_eq!(moves[1], moves[0]);
        assert!(moves[2].iter().all(|moved| scans[1].contains(moved)));
        assert!(!moves[2].is_empty());
        // Without an arrival nothing re-derives, however long the silence
        // and whatever checks it.
        let (before, read) = (operating(&table), estimates(&table));
        for (qos, policy) in classes {
            let group = crate::GroupDetector::new(qos, policy);
            let mut monitor = group.monitor(&mut table, NodeId(1), start);
            monitor.check(&mut table, start + SimDuration::from_secs(60));
        }
        assert_eq!((operating(&table), estimates(&table)), (before, read));
    }

    #[test]
    fn new_slots_start_with_a_clean_stamp() {
        let mut table: PeerTable = PeerTable::new();
        let a = table.intern(NodeId(1));
        let late = SimInstant::ZERO + SimDuration::from_secs(9);
        table.stamp(a, late, false);
        assert_eq!(table.stamp_of(a), late);
        // A max unless restarted.
        table.stamp(a, SimInstant::ZERO, false);
        assert_eq!(table.stamp_of(a), late);
        table.stamp(a, SimInstant::ZERO, true);
        assert_eq!(table.stamp_of(a), SimInstant::ZERO);
        table.stamp(a, late, false);
        let b = table.intern(NodeId(2));
        assert_eq!(table.stamp_of(b), SimInstant::ZERO);
        assert_eq!(table.quality(b), LinkQuality::conservative_prior());
    }
}
