//! The per-workstation peer table.
//!
//! The paper's architecture (Figure 2) gives every workstation a *single*
//! Failure Detector module shared by all groups. What is a property of a
//! peer's *link* rather than of any group — the link-quality estimator, its
//! memoized estimates and (η, δ) search, the peer's freshness stamp — lives
//! once per peer in a [`PeerTable`] slot, owned by the service instance (or
//! a standalone [`FailureDetector`](crate::FailureDetector)) and lent to
//! every detector call; each group's [`PeerMonitor`](crate::PeerMonitor)
//! of the peer names the slot. A slot also carries the owner's own
//! per-peer state `T`. ALIVEs for several groups ride one datagram, so a
//! slot records the same `(seq, sent_at, received_at)` observation once.

use std::ops::{Index, IndexMut};

use sle_sim::actor::NodeId;
use sle_sim::dense::{insert_tight, SlotIndex};
use sle_sim::time::SimInstant;

use crate::config::{configure, FdParams, TuningPolicy};
use crate::qos::QosSpec;
use crate::quality::{LinkQuality, LinkQualityEstimator};

/// How many delay samples each peer's estimator keeps.
const ESTIMATOR_WINDOW: usize = 256;

/// Everything about one remote peer that is a property of the link.
#[derive(Debug, Clone)]
pub(crate) struct PeerLink {
    estimator: LinkQualityEstimator,
    /// The last `(seq, sent_at, received_at)` recorded, for deduplicating
    /// the per-group fan-out of one batched datagram.
    last_record: Option<(u64, SimInstant, SimInstant)>,
    /// Memoized `(computed_at, estimate, version)` of the estimator scan,
    /// one per [`TuningPolicy`] (each reads its own window of the ring).
    /// Every group's monitor of the peer wants a fresh estimate only every
    /// few seconds, so the scan runs once per refresh interval for the peer
    /// instead of once per monitor. The version only advances when the
    /// estimate actually changed, letting monitors skip recomputing their
    /// (η, δ) operating point entirely.
    cached_quality: [Option<(SimInstant, LinkQuality, u32)>; 2],
    /// Memoized result of the (η, δ) configurator search, keyed by the
    /// quality version it was derived from plus the QoS/policy pair that
    /// requested it. Different groups usually monitor the same peer under
    /// the *same* QoS and policy, so when the estimate does change, one
    /// monitor runs the search and its siblings reuse the result.
    cached_params: Option<(u32, QosSpec, TuningPolicy, FdParams)>,
    /// The send time of the peer's latest ALIVE batch its monitors read in
    /// place of being fed it ([`PeerTable::stamp`]).
    stamp: SimInstant,
}

impl PeerLink {
    fn new() -> Self {
        PeerLink {
            estimator: LinkQualityEstimator::new(ESTIMATOR_WINDOW),
            last_record: None,
            cached_quality: [None; 2],
            cached_params: None,
            stamp: SimInstant::ZERO,
        }
    }

    /// The estimate `policy` reads, memoized: recomputed at most once per
    /// reconfiguration period of the policy, shared by every monitor of the
    /// peer under it. The version advances only when a recomputation
    /// produced a *different* estimate.
    pub(crate) fn quality_cached(
        &mut self,
        now: SimInstant,
        policy: TuningPolicy,
    ) -> (LinkQuality, u32) {
        let cached = self.cached_quality[policy as usize];
        if let Some((at, quality, version)) = cached {
            if now.saturating_since(at) < policy.reconfigure_every() {
                return (quality, version);
            }
        }
        let fresh = self.estimator.estimate_over(policy.estimate_window());
        let version = match cached {
            Some((_, quality, version)) if quality == fresh => version,
            Some((_, _, version)) => version.wrapping_add(1),
            None => 1,
        };
        self.cached_quality[policy as usize] = Some((now, fresh, version));
        (fresh, version)
    }

    /// The (η, δ) operating point for `quality` (at `version`) under the
    /// given QoS and policy, computed at most once per peer: the first
    /// monitor to ask after a quality change runs the configurator search;
    /// every sibling with the same QoS and policy reuses it. One with a
    /// *different* key recomputes and takes over the single entry —
    /// correctness never depends on a hit.
    pub(crate) fn shared_params(
        &mut self,
        version: u32,
        qos: &QosSpec,
        policy: TuningPolicy,
        quality: &LinkQuality,
    ) -> FdParams {
        if let Some((v, q, p, params)) = self.cached_params {
            if v == version && q == *qos && p == policy {
                return params;
            }
        }
        let params = configure(qos, quality, policy);
        self.cached_params = Some((version, *qos, policy, params));
        params
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
    /// stamped `sent_at`, received at `received_at`.
    ///
    /// The exact same observation recorded twice in a row (the second and
    /// later groups processing one batched datagram) is counted once.
    pub fn record(&mut self, slot: usize, seq: u64, sent_at: SimInstant, received_at: SimInstant) {
        let link = self.link_mut(slot);
        if link.last_record == Some((seq, sent_at, received_at)) {
            return;
        }
        link.last_record = Some((seq, sent_at, received_at));
        link.estimator.record(seq, sent_at, received_at);
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
    /// once for every group reading it. The slot, its freshness stamp and
    /// the owner's state survive.
    pub fn reset(&mut self, slot: usize) {
        let link = self.link_mut(slot);
        *link = PeerLink {
            stamp: link.stamp,
            ..PeerLink::new()
        };
    }

    /// Records that the peer in `slot` repeated, at `sent_at`, the ALIVE
    /// batch its monitors were last fed: every monitor that batch vouches
    /// for reads its horizon off this one stamp (a max: late and duplicated
    /// datagrams are harmless). With `restart` the stamp is set: the caller
    /// [`unvouch`](crate::PeerMonitor::unvouch)ed them all and is about to
    /// feed them a different batch.
    pub fn stamp(&mut self, slot: usize, sent_at: SimInstant, restart: bool) {
        let stamp = &mut self.link_mut(slot).stamp;
        let floor = if restart { SimInstant::ZERO } else { *stamp };
        *stamp = sent_at.max(floor);
    }

    /// The freshness stamp of the peer in `slot` ([`PeerTable::stamp`]).
    pub fn stamp_of(&self, slot: usize) -> SimInstant {
        self.link(slot).stamp
    }

    /// A counter that moves whenever some monitor's requested interval did.
    pub fn params_epoch(&self) -> u64 {
        self.params_epoch
    }

    pub(crate) fn bump_params_epoch(&mut self) {
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
    use sle_sim::time::SimDuration;

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
        table.record(slot, 0, SimInstant::ZERO, SimInstant::ZERO);
        table.stamp(slot, late, false);
        table
            .link_mut(slot)
            .quality_cached(late, TuningPolicy::Static);
        table.reset(slot);
        assert_eq!(table.heartbeats_recorded(slot), 0);
        assert!(table.link(slot).cached_quality.iter().all(Option::is_none));
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
        baseline.on_heartbeat(&mut table, &mut kept, 0, now, eta, now);
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
    }

    #[test]
    fn shared_params_are_keyed_by_qos_and_version() {
        let mut link = PeerLink::new();
        let cfg = TuningPolicy::Static;
        let quality = LinkQuality::perfect();
        let fast = QosSpec::paper_default();
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
        let p_fast = link.shared_params(1, &fast, cfg, &quality);
        // A sibling monitor with the same key reuses the cached entry.
        assert_eq!(link.shared_params(1, &fast, cfg, &quality), p_fast);
        // A different QoS must never be served another QoS's params.
        let p_slow = link.shared_params(1, &slow, cfg, &quality);
        assert_eq!(p_slow.worst_case_detection(), SimDuration::from_secs(8));
        assert_ne!(p_fast, p_slow);
        // Nor a different policy's: a mixed workstation's adaptive monitor
        // of the same peer gets its own, tighter, operating point.
        let p_tight = link.shared_params(1, &fast, TuningPolicy::Adaptive, &quality);
        assert!(p_tight.worst_case_detection() < p_fast.worst_case_detection());
        // The evicted key recomputes to the same operating point.
        assert_eq!(link.shared_params(1, &fast, cfg, &quality), p_fast);
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
        let link = table.link_mut(slot);
        let (whole, v_static) = link.quality_cached(now, TuningPolicy::Static);
        let (recent, v_adaptive) = link.quality_cached(now, TuningPolicy::Adaptive);
        assert_eq!((v_static, v_adaptive), (1, 1));
        assert_eq!(whole.samples, ESTIMATOR_WINDOW);
        assert!(whole.delay_mean > SimDuration::from_millis(60));
        assert_eq!(recent.samples, 64);
        assert_eq!(recent.delay_tail, SimDuration::from_millis(2));
        // Within the policy's own period the memo answers; after it an
        // unchanged estimate keeps its version.
        table.record(slot, 264, now, now + SimDuration::from_millis(2));
        let link = table.link_mut(slot);
        let soon = now + SimDuration::from_millis(999);
        assert_eq!(link.quality_cached(soon, TuningPolicy::Adaptive).1, 1);
        let later = now + SimDuration::from_secs(1);
        assert_eq!(link.quality_cached(later, TuningPolicy::Adaptive).1, 1);
        assert_eq!(link.quality_cached(later, TuningPolicy::Static).1, 1);
        let stale = now + SimDuration::from_secs(5);
        assert_eq!(link.quality_cached(stale, TuningPolicy::Static).1, 2);
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
