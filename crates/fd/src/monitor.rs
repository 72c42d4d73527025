//! The per-(group, peer) NFD-S freshness monitor.
//!
//! A [`PeerMonitor`] implements the monitoring side of Chen et al.'s NFD-S
//! algorithm for a single remote process: every received ALIVE message,
//! stamped with its send time and the sender's current heartbeat interval,
//! extends a *freshness horizon*; the peer is trusted exactly while the
//! current time is before that horizon. The monitor also reads the link
//! quality estimate of its peer's [`PeerTable`] slot and periodically
//! re-runs the configurator under its group's [`TuningPolicy`] so the
//! detector adapts to changing network conditions, as described in
//! Sections 3 and 6.2 of the paper — this is the only place (η, δ) ever
//! move.
//!
//! A monitor keeps only its group's opinion of the peer: the slot it reads,
//! (η, δ) (hysteresis and reconfiguration instants differ per group), the
//! trust state and horizon. It does not name its peer: its owner keeps it in
//! a row keyed by the peer. Whatever is the link's — the estimator, the
//! memoized estimate and search — lives in the slot, lent by `&mut` to each
//! call, and the group's QoS and policy are passed in by its
//! [`GroupDetector`](crate::GroupDetector). The last heartbeat fed to a
//! monitor also *vouches* for the peer under the η it declared: while the
//! owner advances the peer's freshness stamp ([`PeerTable::stamp`]) instead
//! of feeding every repeat, the horizon is the later of its own and
//! `stamp + η + δ`.

use sle_sim::time::{SimDuration, SimInstant};

use crate::config::{configure, FdParams, TuningPolicy};
use crate::detector::Wake;
use crate::peers::PeerTable;
use crate::qos::QosSpec;
use crate::quality::LinkQuality;

/// The monitor's current opinion about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustState {
    /// The peer is believed to be operational.
    Trusted,
    /// The peer is suspected to have crashed.
    Suspected,
}

/// A change of opinion produced by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The peer was suspected and is now trusted again.
    BecameTrusted,
    /// The peer was trusted and is now suspected.
    BecameSuspected,
}

/// One group's NFD-S monitoring state for one remote process.
///
/// ```
/// use sle_fd::monitor::{PeerMonitor, Transition, TrustState};
/// use sle_fd::{PeerTable, QosSpec, TuningPolicy};
/// use sle_sim::actor::NodeId;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let (qos, policy) = (QosSpec::paper_default(), TuningPolicy::Static);
/// let mut table: PeerTable = PeerTable::new();
/// let slot = table.intern(NodeId(1));
/// let start = SimInstant::ZERO;
/// let mut monitor = PeerMonitor::new(slot, &qos, policy, start);
/// assert_eq!(monitor.state(), TrustState::Trusted);
///
/// // No heartbeat within the grace period: the peer becomes suspected...
/// let later = start + SimDuration::from_secs(2);
/// let t = monitor.check(&mut table, &qos, policy, later);
/// assert_eq!(t, Some(Transition::BecameSuspected));
///
/// // ...until a heartbeat arrives and trust is restored.
/// let hb_sent = later + SimDuration::from_millis(10);
/// let received = hb_sent + SimDuration::from_millis(1);
/// let eta = SimDuration::from_millis(250);
/// let t = monitor.on_heartbeat(&mut table, &qos, policy, 1, hb_sent, eta, received);
/// assert_eq!(t, Some(Transition::BecameTrusted));
/// ```
#[derive(Debug, Clone)]
pub struct PeerMonitor {
    /// The peer's slot in the owner's [`PeerTable`].
    slot: u32,
    /// Version of the slot's quality estimate the current params were
    /// derived from; reconfiguration is skipped while it is unchanged.
    quality_version: u32,
    params: FdParams,
    fresh_until: SimInstant,
    last_reconfigure: SimInstant,
    /// While `vouched`, the peer's stamp stands in for repeats of the last
    /// heartbeat: the (clamped) η it declared, and how much of the stamp
    /// `fresh_until` already holds — at the δ of its time, not a later one.
    vouched_eta: SimDuration,
    folded: SimInstant,
    vouched: bool,
    state: TrustState,
    /// Whether the current params were derived from a measured link
    /// estimate rather than the conservative prior.
    measured: bool,
}

impl PeerMonitor {
    /// Creates the monitor of the peer whose link record is table slot
    /// `slot`, for a group of the given QoS and policy, first observed (e.g.
    /// via group membership) at `now`.
    ///
    /// The peer starts trusted with a grace period of one detection bound, so
    /// that a newly joined member is not instantly suspected before it had a
    /// chance to send its first ALIVE.
    pub fn new(slot: usize, qos: &QosSpec, policy: TuningPolicy, now: SimInstant) -> Self {
        PeerMonitor {
            slot: slot as u32,
            quality_version: 0,
            params: configure(qos, &LinkQuality::conservative_prior(), policy),
            fresh_until: now + qos.detection_time(),
            last_reconfigure: now,
            vouched_eta: SimDuration::ZERO,
            folded: SimInstant::ZERO,
            vouched: false,
            state: TrustState::Trusted,
            measured: false,
        }
    }

    /// The peer's slot in the owner's [`PeerTable`].
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The current operational parameters (η, δ).
    pub fn params(&self) -> FdParams {
        self.params
    }

    /// Whether [`params`](PeerMonitor::params) follow a measured link
    /// estimate (enough heartbeats were heard) rather than the prior.
    pub fn is_measured(&self) -> bool {
        self.measured
    }

    /// The heartbeat interval this monitor would like the peer to use — this
    /// is the value the service piggybacks on its outgoing messages to the
    /// peer ("the Scheduler schedules the sending of alive messages by q at a
    /// frequency of η").
    pub fn requested_interval(&self) -> SimDuration {
        self.params.interval
    }

    /// The monitor's current opinion.
    pub fn state(&self) -> TrustState {
        self.state
    }

    /// Returns true if the peer is currently trusted.
    pub fn is_trusted(&self) -> bool {
        self.state == TrustState::Trusted
    }

    /// The instant at which the monitor's own freshness horizon expires.
    /// While the peer is suspected there is no pending deadline and
    /// [`SimInstant::FAR_FUTURE`] is returned.
    pub fn deadline(&self) -> SimInstant {
        match self.state {
            TrustState::Trusted => self.fresh_until,
            TrustState::Suspected => SimInstant::FAR_FUTURE,
        }
    }

    /// The horizon the peer's `stamp` buys beyond what `fresh_until`
    /// already holds of it.
    fn vouched_until(&self, stamp: SimInstant) -> SimInstant {
        if self.vouched && stamp > self.folded {
            stamp + self.vouched_eta + self.params.shift
        } else {
            SimInstant::ZERO
        }
    }

    /// The instant the monitor suspects its peer unless a heartbeat or a
    /// stamp comes first: [`PeerMonitor::deadline`] as seen through the
    /// peer's freshness stamp in `table`. `None` if already suspected.
    pub fn next_deadline<T>(&self, table: &PeerTable<T>) -> Option<SimInstant> {
        let stamp = table.stamp_of(self.slot());
        let deadline = self.deadline().max(self.vouched_until(stamp));
        (deadline != SimInstant::FAR_FUTURE).then_some(deadline)
    }

    /// When the monitor must next be checked under `policy`, as a [`Wake`]
    /// its owner can advance by the peer's stamp alone. A suspected monitor
    /// has no deadline and needs none.
    pub(crate) fn wake(&self, policy: TuningPolicy) -> Wake {
        if self.state == TrustState::Suspected {
            return Wake::NEVER;
        }
        // Re-derivation is due on the clock `maybe_reconfigure` reads: the
        // latest stamp folded in under the static policy (none while
        // un-vouched), the time under the adaptive one.
        let retune = self.last_reconfigure + policy.reconfigure_every();
        let mut wake = Wake::NEVER;
        if self.vouched {
            // A stamp at or before `folded` buys nothing beyond
            // `fresh_until`, which may hold it at a smaller δ than now.
            let bought = self.fresh_until.saturating_since(self.folded);
            wake.fresh = self.fresh_until;
            wake.offset = (self.vouched_eta + self.params.shift).min(bought);
            if policy == TuningPolicy::Static {
                wake.retune_stamp = retune;
            }
        } else {
            wake.until = self.fresh_until;
        }
        if policy == TuningPolicy::Adaptive {
            wake.retune_at = retune;
        }
        wake
    }

    /// Folds the peer's freshness stamp in `table` into the monitor's own
    /// horizon and stops reading it. The owner calls this for every monitor
    /// the peer's last batch vouched for before restarting the stamp
    /// ([`PeerTable::stamp`]): a group the next batch drops then ages out on
    /// what it was really sent.
    pub fn unvouch<T>(&mut self, table: &PeerTable<T>) {
        self.fold(table.stamp_of(self.slot()), true);
    }

    /// Folds the peer's `stamp` into the monitor's own horizon; with
    /// `unvouch` the stamp stops counting from here on (the peer's batch no
    /// longer lists the group, or the owner is about to restart the stamp).
    pub(crate) fn fold(&mut self, stamp: SimInstant, unvouch: bool) {
        self.fresh_until = self.fresh_until.max(self.vouched_until(stamp));
        if self.vouched {
            self.folded = self.folded.max(stamp);
        }
        self.vouched &= !unvouch;
    }

    /// Processes a heartbeat with sequence number `seq`, stamped `sent_at` by
    /// the sender, which declares it is currently sending every
    /// `sender_interval`; the heartbeat was received at `now`. The sample
    /// goes to the peer's link record in `table` (once per datagram, however
    /// many groups process it).
    ///
    /// Returns `Some(Transition::BecameTrusted)` if this heartbeat restored
    /// trust in a suspected peer.
    #[allow(clippy::too_many_arguments)]
    pub fn on_heartbeat<T>(
        &mut self,
        table: &mut PeerTable<T>,
        qos: &QosSpec,
        policy: TuningPolicy,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<Transition> {
        table.record(self.slot(), seq, sent_at, now);

        // The freshness contribution of this heartbeat: it proves the sender
        // was alive at `sent_at` and promises another heartbeat one interval
        // later, which we allow δ to arrive. The sender-declared interval is
        // clamped to the detection bound so a mis-configured sender cannot
        // stretch detection arbitrarily.
        let interval = sender_interval.min(qos.detection_time());
        self.fresh_until = (self.fresh_until).max(sent_at + interval + self.params.shift);
        (self.vouched, self.vouched_eta, self.folded) = (true, interval, sent_at);

        if self.state == TrustState::Trusted {
            return None;
        }
        if now < self.fresh_until {
            self.state = TrustState::Trusted;
            return Some(Transition::BecameTrusted);
        }
        // Too old to revive the peer. Under a bound tightened below T_D^U
        // that is the link outrunning (η, δ): re-derive them here — while
        // suspected no deadline is pending, so no check may ever come.
        if self.params.worst_case_detection() < qos.detection_time() {
            self.maybe_reconfigure(table, qos, policy, now);
        }
        None
    }

    /// Re-evaluates the trust state at `now` (typically called when a timer
    /// set for [`PeerMonitor::deadline`] fires).
    ///
    /// Returns `Some(Transition::BecameSuspected)` if the freshness horizon
    /// has passed and the peer is newly suspected. This is also where (η, δ)
    /// follow the link estimate: heartbeats are too many to each ask (only
    /// one that fails to revive a suspected peer does).
    pub fn check<T>(
        &mut self,
        table: &mut PeerTable<T>,
        qos: &QosSpec,
        policy: TuningPolicy,
        now: SimInstant,
    ) -> Option<Transition> {
        self.maybe_reconfigure(table, qos, policy, now);
        if self.state == TrustState::Trusted && now >= self.fresh_until {
            self.state = TrustState::Suspected;
            Some(Transition::BecameSuspected)
        } else {
            None
        }
    }

    fn maybe_reconfigure<T>(
        &mut self,
        table: &mut PeerTable<T>,
        qos: &QosSpec,
        policy: TuningPolicy,
        now: SimInstant,
    ) {
        // Under the static policy heartbeats drive this, as when they called
        // it themselves: the latest one heard must have been due, not just
        // the clock. The adaptive one follows the clock: it must back off
        // when heartbeats stop reviving the peer, and a group the peer's
        // batches keep dropping and re-listing is unvouched at most polls.
        let clock = match policy {
            TuningPolicy::Static if self.vouched => self.folded,
            TuningPolicy::Static => SimInstant::ZERO,
            TuningPolicy::Adaptive => now,
        };
        if clock.saturating_since(self.last_reconfigure) < policy.reconfigure_every() {
            return;
        }
        self.last_reconfigure = now;
        // The estimator scan is memoized in the peer's slot, and the version
        // only moves when the estimate changed — so the (η, δ) search below
        // runs once per actual link-quality change, not once per monitor per
        // reconfigure period.
        let link = table.link_mut(self.slot());
        let (measured, version) = link.quality_cached(now, policy);
        if version == self.quality_version {
            return;
        }
        self.quality_version = version;
        self.measured = measured.samples >= policy.min_samples();
        let quality = if self.measured {
            measured
        } else {
            LinkQuality::conservative_prior()
        };
        // The search result is memoized in the slot too: the monitors other
        // groups keep for this peer almost always ask with the same QoS, so
        // the search runs once per quality change per peer instead of once
        // per (group, peer).
        let derived = link.shared_params(version, qos, policy, &quality);
        // Hysteresis compares the full operating point, not just the bound:
        // once η + δ is pinned at T_D^U the split keeps tracking a degrading
        // link, and those updates must go through.
        let hysteresis = policy.hysteresis();
        let within = |old: SimDuration, new: SimDuration| {
            (new.as_secs_f64() - old.as_secs_f64()).abs() < hysteresis * old.as_secs_f64()
        };
        if !(within(self.params.interval, derived.interval)
            && within(self.params.shift, derived.shift))
        {
            self.params = derived;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::actor::NodeId;

    /// One monitor over a one-peer table, as a standalone detector keeps it.
    struct Solo {
        table: PeerTable,
        qos: QosSpec,
        policy: TuningPolicy,
        monitor: PeerMonitor,
    }

    impl Solo {
        fn new(policy: TuningPolicy) -> Self {
            let (qos, mut table) = (QosSpec::paper_default(), PeerTable::new());
            let slot = table.intern(NodeId(1));
            let monitor = PeerMonitor::new(slot, &qos, policy, SimInstant::ZERO);
            Solo {
                table,
                qos,
                policy,
                monitor,
            }
        }

        fn qos(&self) -> QosSpec {
            self.qos
        }

        fn on_heartbeat(
            &mut self,
            seq: u64,
            sent_at: SimInstant,
            interval: SimDuration,
            now: SimInstant,
        ) -> Option<Transition> {
            let (table, qos, policy) = (&mut self.table, &self.qos, self.policy);
            (self.monitor).on_heartbeat(table, qos, policy, seq, sent_at, interval, now)
        }

        fn check(&mut self, now: SimInstant) -> Option<Transition> {
            (self.monitor).check(&mut self.table, &self.qos, self.policy, now)
        }

        fn heartbeats_received(&self) -> u64 {
            self.table.heartbeats_recorded(self.monitor.slot())
        }

        fn quality(&self) -> LinkQuality {
            self.table.quality(self.monitor.slot())
        }
    }

    impl std::ops::Deref for Solo {
        type Target = PeerMonitor;

        fn deref(&self) -> &PeerMonitor {
            &self.monitor
        }
    }

    fn paper_monitor() -> Solo {
        Solo::new(TuningPolicy::Static)
    }

    #[test]
    fn new_peer_is_trusted_with_grace_period() {
        let monitor = paper_monitor();
        assert!(monitor.is_trusted());
        assert_eq!(
            monitor.deadline(),
            SimInstant::ZERO + SimDuration::from_secs(1)
        );
        assert_eq!(monitor.heartbeats_received(), 0);
    }

    #[test]
    fn silence_leads_to_suspicion_at_the_deadline() {
        let mut monitor = paper_monitor();
        let just_before = monitor.deadline() - SimDuration::from_nanos(1);
        assert_eq!(monitor.check(just_before), None);
        assert!(monitor.is_trusted());
        let at_deadline = monitor.deadline();
        assert_eq!(
            monitor.check(at_deadline),
            Some(Transition::BecameSuspected)
        );
        assert_eq!(monitor.state(), TrustState::Suspected);
        // Further checks do not produce duplicate transitions.
        assert_eq!(monitor.check(at_deadline + SimDuration::from_secs(1)), None);
        assert_eq!(monitor.deadline(), SimInstant::FAR_FUTURE);
    }

    #[test]
    fn heartbeats_maintain_trust_indefinitely() {
        let mut monitor = paper_monitor();
        let interval = SimDuration::from_millis(250);
        let mut now = SimInstant::ZERO;
        for seq in 0..100u64 {
            now += interval;
            let sent = now - SimDuration::from_micros(25);
            assert_eq!(monitor.on_heartbeat(seq, sent, interval, now), None);
            assert_eq!(monitor.check(now), None);
            assert!(monitor.is_trusted());
        }
        assert_eq!(monitor.heartbeats_received(), 100);
    }

    #[test]
    fn crash_is_detected_within_the_bound() {
        let mut monitor = paper_monitor();
        let interval = SimDuration::from_millis(250);
        let mut now = SimInstant::ZERO;
        let mut last_sent = SimInstant::ZERO;
        for seq in 0..24u64 {
            now += interval;
            last_sent = now;
            monitor.on_heartbeat(seq, last_sent, interval, now);
            assert_eq!(monitor.check(now), None);
        }
        // The peer crashes right after its last heartbeat. The monitor must
        // suspect it no later than T_D^U after the crash.
        let bound = last_sent + QosSpec::paper_default().detection_time();
        assert!(monitor.deadline() <= bound);
        assert_eq!(
            monitor.check(monitor.deadline()),
            Some(Transition::BecameSuspected)
        );
    }

    #[test]
    fn trust_is_restored_by_a_late_heartbeat() {
        let mut monitor = paper_monitor();
        let t_suspect = monitor.deadline();
        assert_eq!(monitor.check(t_suspect), Some(Transition::BecameSuspected));
        let sent = t_suspect + SimDuration::from_millis(100);
        let received = sent + SimDuration::from_millis(1);
        assert_eq!(
            monitor.on_heartbeat(0, sent, SimDuration::from_millis(250), received),
            Some(Transition::BecameTrusted)
        );
        assert!(monitor.is_trusted());
    }

    #[test]
    fn stale_heartbeat_does_not_restore_trust() {
        let mut monitor = paper_monitor();
        let t_suspect = monitor.deadline();
        monitor.check(t_suspect);
        // A heartbeat sent long ago (delivered very late) must not flip the
        // monitor back to trusted if its freshness horizon is already past.
        let sent = SimInstant::ZERO + SimDuration::from_millis(10);
        let received = t_suspect + SimDuration::from_secs(5);
        assert_eq!(
            monitor.on_heartbeat(0, sent, SimDuration::from_millis(250), received),
            None
        );
        assert!(!monitor.is_trusted());
    }

    #[test]
    fn sender_interval_is_clamped_to_detection_bound() {
        let mut monitor = paper_monitor();
        let sent = SimInstant::ZERO + SimDuration::from_millis(100);
        monitor.on_heartbeat(0, sent, SimDuration::from_secs(60), sent);
        // Even though the sender claims a 60 s interval, the freshness horizon
        // may extend at most interval(clamped to 1s) + δ past the send time.
        assert!(monitor.deadline() <= sent + SimDuration::from_secs(2));
    }

    #[test]
    fn reconfiguration_adapts_to_measured_quality() {
        let mut monitor = paper_monitor();
        let initial = monitor.requested_interval();
        // Feed a long run of heartbeats over a clean, fast link; after the
        // reconfiguration interval the requested interval should relax to the
        // cap for a clean link (250 ms for the default QoS).
        let interval = SimDuration::from_millis(50);
        let mut now = SimInstant::ZERO;
        for seq in 0..400u64 {
            now += interval;
            let sent = now - SimDuration::from_micros(25);
            monitor.on_heartbeat(seq, sent, interval, now);
            assert_eq!(monitor.check(now), None);
        }
        let relaxed = monitor.requested_interval();
        assert!(
            relaxed >= initial,
            "interval should not shrink on a clean link"
        );
        assert_eq!(relaxed, SimDuration::from_millis(250));
        assert!(monitor.quality().loss_probability < 0.01);
    }

    fn adaptive_monitor() -> Solo {
        Solo::new(TuningPolicy::Adaptive)
    }

    fn ms(millis: u64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    /// Feeds `count` heartbeats, one every 100 ms and each `delay(seq)` old,
    /// and polls after each — what a detector's owner does.
    fn feed(
        monitor: &mut Solo,
        count: u64,
        delay: impl Fn(u64) -> SimDuration,
        start: SimInstant,
    ) -> SimInstant {
        let first = monitor.heartbeats_received();
        let mut now = start;
        for seq in first..first + count {
            now += ms(100);
            monitor.on_heartbeat(seq, now - delay(seq), ms(100), now);
            assert_eq!(monitor.check(now), None);
        }
        now
    }

    #[test]
    fn a_parameter_move_keeps_trust_horizon_and_estimator() {
        let mut monitor = adaptive_monitor();
        let prior = monitor.params();
        let now = feed(&mut monitor, 15, |_| ms(2), SimInstant::ZERO);
        // Not enough heard yet: still the prior's operating point.
        assert!(!monitor.is_measured());
        assert_eq!(monitor.params(), prior);
        let heartbeats_before = monitor.heartbeats_received();
        let deadline_before = monitor.deadline();

        // The poll after the next heartbeat moves (η, δ), live.
        let now = feed(&mut monitor, 10, |_| ms(2), now);
        let tuned = monitor.params();
        assert!(monitor.is_measured());
        assert!(tuned.worst_case_detection() < prior.worst_case_detection());
        assert_eq!(monitor.requested_interval(), tuned.interval);
        // Estimator state, trust state and horizon survive the update: the
        // horizon is monotone, so tuning can never manufacture a suspicion.
        assert_eq!(monitor.heartbeats_received(), heartbeats_before + 10);
        assert_eq!(monitor.quality().samples, 25);
        assert!(monitor.deadline() >= deadline_before);
        assert!(monitor.is_trusted());

        // The pre-update horizon stays valid until it expires; heartbeats
        // after it extend the horizon using the tuned shift.
        let old_deadline = monitor.deadline();
        assert!(old_deadline > now + tuned.worst_case_detection());
        assert_eq!(
            monitor.check(old_deadline),
            Some(Transition::BecameSuspected)
        );
        let sent = old_deadline + SimDuration::from_millis(100);
        monitor.on_heartbeat(25, sent, SimDuration::from_millis(50), sent);
        assert!(monitor.is_trusted());
        assert_eq!(
            monitor.deadline(),
            sent + SimDuration::from_millis(50) + tuned.shift
        );
    }

    #[test]
    fn adaptive_shift_shrinks_after_a_latency_drop_and_grows_after_a_spike() {
        let mut monitor = adaptive_monitor();
        let t_d = monitor.qos().detection_time();

        // Regime 1: a slow WAN-ish link (90 ms delays).
        let now = feed(&mut monitor, 200, |_| ms(90), SimInstant::ZERO);
        let slow = monitor.params();
        assert!(slow.shift > SimDuration::from_millis(90));
        assert!(slow.worst_case_detection() < t_d);

        // Regime 2: latency drops to 1 ms; δ and the bound must shrink.
        let now = feed(&mut monitor, 200, |_| ms(1), now);
        let fast = monitor.params();
        assert!(fast.shift < slow.shift, "{} !< {}", fast.shift, slow.shift);
        assert!(fast.worst_case_detection() < slow.worst_case_detection());

        // Regime 3: latency spikes to 150 ms; δ must grow back out — and
        // nothing on the way manufactured a suspicion (`feed` checks).
        feed(&mut monitor, 200, |_| ms(150), now);
        let spiked = monitor.params();
        assert!(
            spiked.shift > fast.shift,
            "{} !> {}",
            spiked.shift,
            fast.shift
        );
        assert!(spiked.shift > SimDuration::from_millis(150));
        assert!(spiked.worst_case_detection() <= t_d);
    }

    #[test]
    fn a_link_that_outruns_a_tightened_bound_is_re_derived_while_suspected() {
        let mut monitor = adaptive_monitor();
        let now = feed(&mut monitor, 100, |_| ms(2), SimInstant::ZERO);
        let tight = monitor.params();
        assert_eq!(tight.worst_case_detection(), ms(100));
        // The link slows to 300 ms: the next heartbeat misses its deadline.
        let deadline = monitor.deadline();
        assert_eq!(monitor.check(deadline), Some(Transition::BecameSuspected));
        // Nobody polls a detector whose peers are all suspected: heartbeats
        // too old to revive the peer are what re-derives (η, δ), and the
        // first one priced at the new δ revives it.
        let mut revived_at = None;
        for seq in 100..130u64 {
            let sent = now + ms(100) * (seq - 99);
            if monitor
                .on_heartbeat(seq, sent, ms(100), sent + ms(300))
                .is_some()
            {
                revived_at = Some(seq);
                break;
            }
        }
        assert!(monitor.params().shift > ms(300));
        assert!(revived_at.is_some_and(|seq| seq <= 111), "{revived_at:?}");
        // The paper's pinned bound never takes that path.
        let mut pinned = paper_monitor();
        feed(&mut pinned, 100, |_| ms(2), SimInstant::ZERO);
        let (params, deadline) = (pinned.params(), pinned.deadline());
        assert_eq!(pinned.check(deadline), Some(Transition::BecameSuspected));
        for seq in 100..200u64 {
            let sent = now + ms(100) * (seq - 99);
            assert_eq!(
                pinned.on_heartbeat(seq, sent, ms(100), sent + ms(1_500)),
                None
            );
        }
        assert_eq!(pinned.params(), params);
    }

    #[test]
    fn adaptive_hysteresis_suppresses_small_oscillations() {
        let mut monitor = adaptive_monitor();
        let qos = monitor.qos();
        // Delays alternating 60 / 62 ms...
        let now = feed(
            &mut monitor,
            100,
            |seq| ms(60 + 2 * (seq % 2)),
            SimInstant::ZERO,
        );
        let first = monitor.params();
        assert!(first.worst_case_detection() < qos.detection_time());
        // ...then 60 / 63 ms: the estimate moves, and what the search
        // derives from it by one step — too little to move the operating
        // point.
        let now = feed(&mut monitor, 100, |seq| ms(60 + 3 * (seq % 2)), now);
        let slot = monitor.slot();
        let link = monitor.table.link_mut(slot);
        let (recent, _) = link.quality_cached(now, TuningPolicy::Adaptive);
        let derived = configure(&qos, &recent, TuningPolicy::Adaptive);
        assert_ne!(derived, first);
        assert_eq!(monitor.params(), first);
        // A change of regime does.
        feed(&mut monitor, 100, |_| ms(150), now);
        assert_ne!(monitor.params(), first);
        assert!(monitor.params().shift > ms(150));
    }

    #[test]
    fn static_policy_never_leaves_the_detection_bound() {
        let mut monitor = paper_monitor();
        feed(&mut monitor, 200, |_| ms(1), SimInstant::ZERO);
        assert!(monitor.is_measured());
        assert_eq!(
            monitor.params().worst_case_detection(),
            monitor.qos().detection_time()
        );
    }

    #[test]
    fn params_accessors_are_consistent() {
        let monitor = paper_monitor();
        assert_eq!(monitor.params().interval, monitor.requested_interval());
        assert_eq!(monitor.qos(), QosSpec::paper_default());
        assert_eq!(
            monitor.params().worst_case_detection(),
            QosSpec::paper_default().detection_time()
        );
    }
}
