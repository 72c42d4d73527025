//! The per-workstation shared liveness arena.
//!
//! The paper's architecture (Figure 2) already gives every workstation a
//! *single* Failure Detector module shared by all groups; historically this
//! implementation nevertheless kept one independent [`PeerMonitor`] — link
//! quality estimator included — per `(group, peer)` pair. With thousands of
//! groups sharing the same peers that is N copies of the same measurement:
//! N estimator windows fed the same packets, N times the memory, and N
//! disagreeing liveness estimates for one physical link.
//!
//! A [`MonitorArena`] fixes the redundancy at the root: it owns one
//! [`PeerLiveness`] record per *peer node* — the link-quality estimator and
//! the heartbeat-arrival bookkeeping — and hands every group's monitor a
//! shared handle to it. The per-group state that genuinely differs between
//! groups (the (η, δ) operating point derived from each group's QoS and
//! tuning policy, the trust state, the freshness horizon) stays in the
//! [`PeerMonitor`]. N groups sharing a peer therefore maintain one
//! liveness estimate with N cheap QoS views layered on top.
//!
//! Because ALIVEs for several groups can ride the same datagram (see
//! `sle-core`'s batched fan-out), the arena deduplicates: the same
//! `(seq, sent_at, received_at)` observation is recorded once no matter how
//! many groups process the datagram.
//!
//! [`PeerMonitor`]: crate::monitor::PeerMonitor

use std::sync::{Arc, Mutex, MutexGuard};

use sle_sim::actor::NodeId;
use sle_sim::dense::SlotIndex;
use sle_sim::time::SimInstant;

use crate::config::{configure, FdParams, TuningPolicy};
use crate::qos::QosSpec;
use crate::quality::{LinkQuality, LinkQualityEstimator};

/// How many delay samples each peer's shared estimator keeps.
const ESTIMATOR_WINDOW: usize = 256;

/// The node-level liveness record for one remote peer: everything about the
/// peer that is a property of the *link*, not of any particular group.
#[derive(Debug)]
pub struct PeerLiveness {
    estimator: LinkQualityEstimator,
    /// The last `(seq, sent_at, received_at)` recorded, for deduplicating
    /// the per-group fan-out of one batched datagram.
    last_record: Option<(u64, SimInstant, SimInstant)>,
    /// Memoized `(computed_at, estimate, version)` of the estimator scan,
    /// one per [`TuningPolicy`] (each reads its own window of the ring).
    /// Thousands of per-group monitors share one record; each wants a fresh
    /// estimate only every few seconds, so the scan runs once per refresh
    /// interval for the whole record instead of once per monitor. The
    /// version only advances when the estimate actually changed, letting
    /// monitors skip recomputing their (η, δ) operating point entirely.
    cached_quality: [Option<(SimInstant, LinkQuality, u64)>; 2],
    /// Memoized result of the (η, δ) configurator search, keyed by the
    /// quality version it was derived from plus the QoS/policy pair that
    /// requested it. Monitors of different groups usually monitor the same
    /// peer under the *same* QoS and policy, so when the estimate does
    /// change, one monitor runs the search and its siblings reuse the
    /// result.
    cached_params: Option<(u64, QosSpec, TuningPolicy, FdParams)>,
}

impl PeerLiveness {
    fn new() -> Self {
        PeerLiveness {
            estimator: LinkQualityEstimator::new(ESTIMATOR_WINDOW),
            last_record: None,
            cached_quality: [None; 2],
            cached_params: None,
        }
    }
}

/// A shared handle to one peer's [`PeerLiveness`] record.
///
/// Cloning the handle shares the record; monitors of different groups hold
/// clones of the same handle. All accessors copy data out under a private
/// lock, so a handle can never deadlock against the arena.
#[derive(Debug, Clone)]
pub struct LivenessHandle {
    slot: Arc<Mutex<PeerLiveness>>,
    /// Where the owning arena keeps the peer's freshness stamp (no arena
    /// slot when detached).
    index: u32,
}

impl LivenessHandle {
    /// A standalone record not registered in any arena (used by monitors
    /// constructed outside a service instance, e.g. in tests).
    pub fn detached() -> Self {
        LivenessHandle {
            slot: Arc::new(Mutex::new(PeerLiveness::new())),
            index: u32::MAX,
        }
    }

    /// Records the arrival of heartbeat `seq`, stamped `sent_at`, received
    /// at `received_at`.
    ///
    /// The exact same observation recorded twice in a row (the second and
    /// later groups processing one batched datagram) is counted once.
    pub fn record(&self, seq: u64, sent_at: SimInstant, received_at: SimInstant) {
        let mut liveness = self.slot.lock().expect("liveness poisoned");
        if liveness.last_record == Some((seq, sent_at, received_at)) {
            return;
        }
        liveness.last_record = Some((seq, sent_at, received_at));
        liveness.estimator.record(seq, sent_at, received_at);
    }

    /// The current link-quality estimate.
    pub fn quality(&self) -> LinkQuality {
        self.slot
            .lock()
            .expect("liveness poisoned")
            .estimator
            .estimate()
    }

    /// The link-quality estimate `policy` reads, memoized per record:
    /// recomputed at most once per reconfiguration period of the policy,
    /// shared by every monitor holding this handle under it.
    ///
    /// Returns the estimate and a version number that advances only when a
    /// recomputation produced a *different* estimate — callers deriving
    /// expensive state from the quality (the (η, δ) search) can compare
    /// versions and skip the derivation when nothing changed.
    pub fn quality_cached(&self, now: SimInstant, policy: TuningPolicy) -> (LinkQuality, u64) {
        let mut liveness = self.slot.lock().expect("liveness poisoned");
        let cached = liveness.cached_quality[policy as usize];
        if let Some((at, quality, version)) = cached {
            if now.saturating_since(at) < policy.reconfigure_every() {
                return (quality, version);
            }
        }
        let fresh = liveness.estimator.estimate_over(policy.estimate_window());
        let version = match cached {
            Some((_, quality, version)) if quality == fresh => version,
            Some((_, _, version)) => version + 1,
            None => 1,
        };
        liveness.cached_quality[policy as usize] = Some((now, fresh, version));
        (fresh, version)
    }

    /// The (η, δ) operating point for `quality` (at `version`) under the
    /// given QoS and policy, computed at most once per record: the first
    /// monitor to ask after a quality change runs the configurator search;
    /// every sibling monitor with the same QoS and policy reuses the cached
    /// result. A monitor with a *different* one simply recomputes (and
    /// takes over the single cache entry) — correctness never depends on a
    /// hit.
    pub fn shared_params(
        &self,
        version: u64,
        qos: &QosSpec,
        policy: TuningPolicy,
        quality: &LinkQuality,
    ) -> FdParams {
        let mut liveness = self.slot.lock().expect("liveness poisoned");
        if let Some((v, q, p, params)) = liveness.cached_params {
            if v == version && q == *qos && p == policy {
                return params;
            }
        }
        let params = configure(qos, quality, policy);
        liveness.cached_params = Some((version, *qos, policy, params));
        params
    }

    /// Heartbeats recorded (after deduplication) since creation or the last
    /// reset.
    pub fn heartbeats_recorded(&self) -> u64 {
        self.slot
            .lock()
            .expect("liveness poisoned")
            .estimator
            .heartbeats_recorded()
    }

    /// Discards every measurement (the peer restarted with a new
    /// incarnation, so its old link behaviour no longer applies). The
    /// handle itself — and therefore the sharing between groups — survives.
    pub fn reset(&self) {
        *self.slot.lock().expect("liveness poisoned") = PeerLiveness::new();
    }

    fn is_shared_beyond(&self, holders: usize) -> bool {
        Arc::strong_count(&self.slot) > holders
    }
}

/// Array-indexed storage behind a [`MonitorArena`].
///
/// Peers are interned into `u32` slots on first use: `index` maps the peer
/// id to its slot, `slots` holds the records densely, and `free` recycles
/// slots vacated by [`MonitorArena::prune`]. Lookups are a binary search
/// over a contiguous `(id, slot)` vector instead of a pointer-chasing tree
/// walk, and slot numbers are stable for as long as the record lives, so
/// callers can cache the returned handle and skip the arena entirely on
/// their hot paths.
#[derive(Debug, Default)]
pub(crate) struct ArenaInner {
    index: SlotIndex,
    slots: Vec<Option<LivenessHandle>>,
    free: Vec<u32>,
    /// Per-slot ALIVE freshness stamp ([`MonitorArena::stamp`]). Dense, so
    /// reading one is an array load under the arena lock.
    stamps: Vec<SimInstant>,
    /// Bumped whenever a monitor's requested interval moves: the owning
    /// node's cached ALIVE plan embeds those intervals.
    pub(crate) params_epoch: u64,
}

impl ArenaInner {
    /// The freshness stamp of `handle`'s peer.
    pub(crate) fn stamp_of(&self, handle: &LivenessHandle) -> SimInstant {
        (self.stamps.get(handle.index as usize).copied()).unwrap_or(SimInstant::ZERO)
    }

    fn prune(&mut self) {
        let mut dead = Vec::new();
        for (id, slot) in self.index.iter() {
            let handle = self.slots[slot as usize]
                .as_ref()
                .expect("indexed slot must be live");
            // One strong count is the arena's own; records held only by the
            // arena belong to peers every group has stopped monitoring.
            if !handle.is_shared_beyond(1) {
                dead.push((id, slot));
            }
        }
        for (id, slot) in dead {
            self.index.remove(id);
            self.slots[slot as usize] = None;
            self.free.push(slot);
        }
    }
}

/// The per-workstation registry of shared [`PeerLiveness`] records.
///
/// Cloning an arena shares it: a service instance creates one and hands a
/// clone to every group's failure detector. Records live in dense `u32`
/// slots behind a sorted id → slot index; pruned slots are recycled.
#[derive(Debug, Clone, Default)]
pub struct MonitorArena {
    inner: Arc<Mutex<ArenaInner>>,
}

impl MonitorArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared record for `peer`, creating it on first use.
    ///
    /// The returned handle stays valid (and shared) independently of the
    /// arena, so hot paths should intern once and cache the handle rather
    /// than calling `slot` per message. Records whose monitors are all gone
    /// are reclaimed lazily by [`MonitorArena::prune`] /
    /// [`MonitorArena::peer_count`]; unpruned leftovers are bounded by the
    /// workstation universe, not by churn.
    pub fn slot(&self, peer: NodeId) -> LivenessHandle {
        let mut inner = self.lock();
        if let Some(slot) = inner.index.get(peer.0) {
            return inner.slots[slot as usize]
                .as_ref()
                .expect("indexed slot must be live")
                .clone();
        }
        let slot = inner.free.pop().unwrap_or_else(|| {
            inner.slots.push(None);
            inner.stamps.push(SimInstant::ZERO);
            (inner.slots.len() - 1) as u32
        });
        let handle = LivenessHandle {
            index: slot,
            ..LivenessHandle::detached()
        };
        inner.slots[slot as usize] = Some(handle.clone());
        inner.stamps[slot as usize] = SimInstant::ZERO;
        inner.index.insert(peer.0, slot);
        handle
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ArenaInner> {
        self.inner.lock().expect("arena poisoned")
    }

    /// Records that the peer behind `handle` repeated, at `sent_at`, the
    /// ALIVE batch its monitors were last fed: every monitor that batch
    /// vouches for reads its horizon off this one stamp (a max: late and
    /// duplicated datagrams are harmless). With `restart` the stamp is set:
    /// the caller [`unvouch`](crate::FailureDetector::unvouch)ed them all
    /// and is about to feed them a different batch.
    pub fn stamp(&self, handle: &LivenessHandle, sent_at: SimInstant, restart: bool) {
        if let Some(stamp) = self.lock().stamps.get_mut(handle.index as usize) {
            let floor = if restart { SimInstant::ZERO } else { *stamp };
            *stamp = sent_at.max(floor);
        }
    }

    /// A counter that moves whenever some monitor's requested interval did.
    pub fn params_epoch(&self) -> u64 {
        self.lock().params_epoch
    }

    /// The freshness stamp of `handle`'s peer ([`MonitorArena::stamp`]).
    pub fn stamp_of(&self, handle: &LivenessHandle) -> SimInstant {
        self.lock().stamp_of(handle)
    }

    /// Drops every record no monitor references any more (a record whose
    /// only holder is the arena itself belongs to a peer every group has
    /// stopped monitoring). Vacated slots are recycled for future peers.
    pub fn prune(&self) {
        self.lock().prune();
    }

    /// Number of peers currently tracked (after pruning).
    pub fn peer_count(&self) -> usize {
        let mut inner = self.lock();
        inner.prune();
        inner.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    #[test]
    fn slots_are_shared_per_peer() {
        let arena = MonitorArena::new();
        let a1 = arena.slot(NodeId(1));
        let a2 = arena.slot(NodeId(1));
        let b = arena.slot(NodeId(2));
        let sent = SimInstant::ZERO;
        let recv = sent + SimDuration::from_millis(5);
        a1.record(0, sent, recv);
        // The second handle observes the first handle's recording.
        assert_eq!(a2.heartbeats_recorded(), 1);
        assert_eq!(b.heartbeats_recorded(), 0);
        assert_eq!(arena.peer_count(), 2);
    }

    #[test]
    fn duplicate_observations_of_one_datagram_count_once() {
        let arena = MonitorArena::new();
        let slot = arena.slot(NodeId(1));
        let sent = SimInstant::ZERO + SimDuration::from_millis(100);
        let recv = sent + SimDuration::from_millis(2);
        // Three groups processing the same batched datagram.
        slot.record(7, sent, recv);
        slot.record(7, sent, recv);
        slot.record(7, sent, recv);
        assert_eq!(slot.heartbeats_recorded(), 1);
        // A genuinely new observation (network duplicate arriving later)
        // still counts.
        slot.record(7, sent, recv + SimDuration::from_millis(9));
        assert_eq!(slot.heartbeats_recorded(), 2);
    }

    #[test]
    fn reset_clears_measurements_but_keeps_sharing() {
        let arena = MonitorArena::new();
        let a = arena.slot(NodeId(1));
        let b = arena.slot(NodeId(1));
        a.record(0, SimInstant::ZERO, SimInstant::ZERO);
        a.reset();
        assert_eq!(b.heartbeats_recorded(), 0);
        b.record(0, SimInstant::ZERO, SimInstant::ZERO);
        assert_eq!(a.heartbeats_recorded(), 1);
    }

    #[test]
    fn dropped_peers_are_pruned() {
        let arena = MonitorArena::new();
        let kept = arena.slot(NodeId(1));
        {
            let _dropped = arena.slot(NodeId(2));
        }
        assert_eq!(arena.peer_count(), 1);
        drop(kept);
        assert_eq!(arena.peer_count(), 0);
    }

    #[test]
    fn pruned_slots_are_recycled() {
        let arena = MonitorArena::new();
        let a = arena.slot(NodeId(1));
        let _b = arena.slot(NodeId(2));
        drop(a);
        arena.prune();
        assert_eq!(arena.peer_count(), 1);
        // A new peer reuses the vacated slot; the surviving record and the
        // newcomer stay distinct.
        let c = arena.slot(NodeId(3));
        c.record(0, SimInstant::ZERO, SimInstant::ZERO);
        assert_eq!(arena.slot(NodeId(2)).heartbeats_recorded(), 0);
        assert_eq!(arena.slot(NodeId(3)).heartbeats_recorded(), 1);
        assert_eq!(arena.peer_count(), 2);
    }

    #[test]
    fn recycled_slots_start_with_a_clean_stamp() {
        let arena = MonitorArena::new();
        let a = arena.slot(NodeId(1));
        let late = SimInstant::ZERO + SimDuration::from_secs(9);
        arena.stamp(&a, late, false);
        assert_eq!(arena.lock().stamp_of(&a), late);
        // A detached handle has no stamp to move.
        let solo = LivenessHandle::detached();
        arena.stamp(&solo, late, false);
        assert_eq!(arena.lock().stamp_of(&solo), SimInstant::ZERO);
        drop(a);
        arena.prune();
        let b = arena.slot(NodeId(2));
        assert_eq!(arena.lock().stamp_of(&b), SimInstant::ZERO);
    }

    #[test]
    fn churn_returns_live_handle_count_to_baseline() {
        // Group churn sharing one peer: every join takes a handle, every
        // leave drops it. The arena must neither leak records nor reclaim a
        // record that another group still holds.
        let arena = MonitorArena::new();
        let baseline = arena.slot(NodeId(9)); // one long-lived group
        baseline.record(0, SimInstant::ZERO, SimInstant::ZERO);
        for _ in 0..100 {
            let churned = arena.slot(NodeId(9));
            // The churned group's handle shares the long-lived estimate.
            assert_eq!(churned.heartbeats_recorded(), 1);
            drop(churned);
            arena.prune();
            // The record survives: the baseline group still holds it.
            assert_eq!(arena.peer_count(), 1);
        }
        drop(baseline);
        assert_eq!(arena.peer_count(), 0);
    }

    #[test]
    fn shared_params_are_keyed_by_qos_and_version() {
        let handle = LivenessHandle::detached();
        let cfg = TuningPolicy::Static;
        let quality = LinkQuality::perfect();
        let fast = QosSpec::paper_default();
        let slow = QosSpec::paper_default_with_detection(SimDuration::from_secs(8));
        let p_fast = handle.shared_params(1, &fast, cfg, &quality);
        // A sibling monitor with the same key reuses the cached entry.
        assert_eq!(handle.shared_params(1, &fast, cfg, &quality), p_fast);
        // A different QoS must never be served another QoS's params.
        let p_slow = handle.shared_params(1, &slow, cfg, &quality);
        assert_eq!(p_slow.worst_case_detection(), SimDuration::from_secs(8));
        assert_ne!(p_fast, p_slow);
        // Nor a different policy's: a mixed workstation's adaptive monitor
        // of the same peer gets its own, tighter, operating point.
        let p_tight = handle.shared_params(1, &fast, TuningPolicy::Adaptive, &quality);
        assert!(p_tight.worst_case_detection() < p_fast.worst_case_detection());
        // The evicted key recomputes to the same operating point.
        assert_eq!(handle.shared_params(1, &fast, cfg, &quality), p_fast);
    }

    #[test]
    fn each_policy_memoizes_its_own_window_of_the_one_ring() {
        let handle = LivenessHandle::detached();
        let mut now = SimInstant::ZERO;
        // 200 heartbeats at 90 ms, then 64 at 2 ms: one ring, one record().
        for seq in 0..264u64 {
            now += SimDuration::from_millis(100);
            let delay = SimDuration::from_millis(if seq < 200 { 90 } else { 2 });
            handle.record(seq, now - delay, now);
        }
        let (whole, v_static) = handle.quality_cached(now, TuningPolicy::Static);
        let (recent, v_adaptive) = handle.quality_cached(now, TuningPolicy::Adaptive);
        assert_eq!((v_static, v_adaptive), (1, 1));
        assert_eq!(whole.samples, ESTIMATOR_WINDOW);
        assert!(whole.delay_mean > SimDuration::from_millis(60));
        assert_eq!(recent.samples, 64);
        assert_eq!(recent.delay_tail, SimDuration::from_millis(2));
        // Within the policy's own period the memo answers; after it an
        // unchanged estimate keeps its version.
        handle.record(264, now, now + SimDuration::from_millis(2));
        let soon = now + SimDuration::from_millis(999);
        assert_eq!(handle.quality_cached(soon, TuningPolicy::Adaptive).1, 1);
        let later = now + SimDuration::from_secs(1);
        assert_eq!(handle.quality_cached(later, TuningPolicy::Adaptive).1, 1);
        assert_eq!(handle.quality_cached(later, TuningPolicy::Static).1, 1);
        let stale = now + SimDuration::from_secs(5);
        assert_eq!(handle.quality_cached(stale, TuningPolicy::Static).1, 2);
    }

    #[test]
    fn detached_handles_work_without_an_arena() {
        let solo = LivenessHandle::detached();
        assert_eq!(solo.quality(), LinkQuality::conservative_prior());
        solo.record(0, SimInstant::ZERO, SimInstant::ZERO);
        assert_eq!(solo.heartbeats_recorded(), 1);
    }
}
