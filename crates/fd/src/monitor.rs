//! The per-peer NFD-S freshness monitor.
//!
//! A [`PeerMonitor`] implements the monitoring side of Chen et al.'s NFD-S
//! algorithm for a single remote process: every received ALIVE message,
//! stamped with its send time and the sender's current heartbeat interval,
//! extends a *freshness horizon*; the peer is trusted exactly while the
//! current time is before that horizon. The monitor also owns the link
//! quality estimator and periodically re-runs the configurator so the
//! detector adapts to changing network conditions, as described in
//! Sections 3 and 6.2 of the paper.
//!
//! Inside a [`FailureDetector`](crate::FailureDetector) a monitor is also a
//! *view*: the last heartbeat fed to it *vouches* for the peer under the η it
//! declared, and while the owner advances the peer's shared freshness stamp
//! ([`MonitorArena::stamp`](crate::MonitorArena::stamp)) instead of feeding
//! every repeat, the horizon is the later of its own and `stamp + η + δ`.

use sle_sim::time::{SimDuration, SimInstant};

use crate::arena::LivenessHandle;
use crate::config::{FdConfigurator, FdParams};
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

/// How often the FD parameters are recomputed from fresh link estimates.
const RECONFIGURE_EVERY: SimDuration = SimDuration::from_secs(5);

/// Minimum number of heartbeats before measured link quality replaces the
/// conservative prior.
const MIN_SAMPLES_FOR_ESTIMATE: u64 = 8;

/// NFD-S monitoring state for one remote process.
///
/// ```
/// use sle_fd::monitor::{PeerMonitor, Transition, TrustState};
/// use sle_fd::qos::QosSpec;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let start = SimInstant::ZERO;
/// let mut monitor = PeerMonitor::new(QosSpec::paper_default(), start);
/// assert_eq!(monitor.state(), TrustState::Trusted);
///
/// // No heartbeat within the grace period: the peer becomes suspected...
/// let later = start + SimDuration::from_secs(2);
/// assert_eq!(monitor.check(later), Some(Transition::BecameSuspected));
///
/// // ...until a heartbeat arrives and trust is restored.
/// let hb_sent = later + SimDuration::from_millis(10);
/// let received = hb_sent + SimDuration::from_millis(1);
/// let t = monitor.on_heartbeat(1, hb_sent, SimDuration::from_millis(250), received);
/// assert_eq!(t, Some(Transition::BecameTrusted));
/// ```
#[derive(Debug, Clone)]
pub struct PeerMonitor {
    qos: QosSpec,
    configurator: FdConfigurator,
    /// The node-level liveness record (link-quality estimator), possibly
    /// shared with the monitors other groups keep for the same peer.
    /// Cloning a monitor shares the record.
    liveness: LivenessHandle,
    params: FdParams,
    state: TrustState,
    fresh_until: SimInstant,
    last_reconfigure: SimInstant,
    /// Version of the shared quality estimate the current params were
    /// derived from; reconfiguration is skipped while it is unchanged.
    last_quality_version: u64,
    heartbeats: u64,
    /// True once an external tuner took over the parameters; the monitor's
    /// own periodic reconfiguration then stands down.
    externally_tuned: bool,
    /// While the peer's shared stamp stands in for repeats of the last
    /// heartbeat: the (clamped) η it declared, and how much of the stamp
    /// `fresh_until` already holds — at the δ of its time, not a later one.
    vouched: Option<(SimDuration, SimInstant)>,
}

impl PeerMonitor {
    /// Creates a monitor for a peer first observed (e.g. via group
    /// membership) at `now`.
    ///
    /// The peer starts trusted with a grace period of one detection bound, so
    /// that a newly joined member is not instantly suspected before it had a
    /// chance to send its first ALIVE.
    pub fn new(qos: QosSpec, now: SimInstant) -> Self {
        Self::with_configurator(qos, FdConfigurator::default(), now)
    }

    /// Creates a monitor with a custom configurator (and a private
    /// liveness record).
    pub fn with_configurator(qos: QosSpec, configurator: FdConfigurator, now: SimInstant) -> Self {
        Self::with_liveness(qos, configurator, LivenessHandle::detached(), now)
    }

    /// Creates a monitor reading from (and feeding) the given liveness
    /// record — the constructor used by a service instance's per-group
    /// failure detectors, which share one record per peer through a
    /// [`MonitorArena`](crate::arena::MonitorArena) so N groups keep one
    /// link estimate instead of N.
    pub fn with_liveness(
        qos: QosSpec,
        configurator: FdConfigurator,
        liveness: LivenessHandle,
        now: SimInstant,
    ) -> Self {
        let params = configurator.compute(&qos, &LinkQuality::conservative_prior());
        PeerMonitor {
            qos,
            configurator,
            liveness,
            params,
            state: TrustState::Trusted,
            fresh_until: now + qos.detection_time(),
            last_reconfigure: now,
            last_quality_version: 0,
            heartbeats: 0,
            externally_tuned: false,
            vouched: None,
        }
    }

    /// Applies externally derived parameters (from an adaptive tuner) *live*:
    /// the link-quality estimator, the trust state and the current freshness
    /// horizon are all preserved, so tuning never manufactures a suspicion or
    /// discards measurement history. From this point on the monitor's own
    /// periodic reconfiguration is suppressed — the external tuner owns the
    /// operating point.
    pub fn set_params(&mut self, params: FdParams) {
        self.params = params;
        self.externally_tuned = true;
    }

    /// Whether an external tuner has taken over this monitor's parameters.
    pub fn is_externally_tuned(&self) -> bool {
        self.externally_tuned
    }

    /// The QoS this monitor was created with.
    pub fn qos(&self) -> QosSpec {
        self.qos
    }

    /// The current operational parameters (η, δ).
    pub fn params(&self) -> FdParams {
        self.params
    }

    /// The heartbeat interval this monitor would like the peer to use — this
    /// is the value the service piggybacks on its outgoing messages to the
    /// peer ("the Scheduler schedules the sending of alive messages by q at a
    /// frequency of η").
    pub fn requested_interval(&self) -> SimDuration {
        self.params.interval
    }

    /// The current link-quality estimate for the peer → monitor direction
    /// (shared with every other monitor of the same peer on this
    /// workstation).
    pub fn quality(&self) -> LinkQuality {
        self.liveness.quality()
    }

    pub(crate) fn liveness(&self) -> &LivenessHandle {
        &self.liveness
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

    /// The horizon the peer's shared `stamp` buys beyond what `fresh_until`
    /// already holds of it.
    fn vouched_until(&self, stamp: SimInstant) -> SimInstant {
        match self.vouched {
            Some((eta, folded)) if stamp > folded => stamp + eta + self.params.shift,
            _ => SimInstant::ZERO,
        }
    }

    /// [`PeerMonitor::deadline`] as seen through the peer's shared `stamp`.
    pub(crate) fn deadline_at(&self, stamp: SimInstant) -> SimInstant {
        self.deadline().max(self.vouched_until(stamp))
    }

    /// Folds the peer's shared `stamp` into the monitor's own horizon; with
    /// `unvouch` the stamp stops counting from here on (the peer's batch no
    /// longer lists the group, or the owner is about to restart the stamp).
    pub(crate) fn fold(&mut self, stamp: SimInstant, unvouch: bool) {
        self.fresh_until = self.fresh_until.max(self.vouched_until(stamp));
        let keep = |(eta, folded): (_, SimInstant)| (eta, folded.max(stamp));
        self.vouched = self.vouched.filter(|_| !unvouch).map(keep);
    }

    /// Total heartbeats received from the peer.
    pub fn heartbeats_received(&self) -> u64 {
        self.heartbeats
    }

    /// Processes a heartbeat with sequence number `seq`, stamped `sent_at` by
    /// the sender, which declares it is currently sending every
    /// `sender_interval`; the heartbeat was received at `now`.
    ///
    /// Returns `Some(Transition::BecameTrusted)` if this heartbeat restored
    /// trust in a suspected peer.
    pub fn on_heartbeat(
        &mut self,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<Transition> {
        self.heartbeats += 1;
        // The shared record deduplicates: when several groups process the
        // same batched datagram, the sample is counted once.
        self.liveness.record(seq, sent_at, now);

        // The freshness contribution of this heartbeat: it proves the sender
        // was alive at `sent_at` and promises another heartbeat one interval
        // later, which we allow δ to arrive. The sender-declared interval is
        // clamped to the detection bound so a mis-configured sender cannot
        // stretch detection arbitrarily.
        let interval = sender_interval.min(self.qos.detection_time());
        self.fresh_until = (self.fresh_until).max(sent_at + interval + self.params.shift);
        self.vouched = Some((interval, sent_at));

        if self.state == TrustState::Suspected && now < self.fresh_until {
            self.state = TrustState::Trusted;
            Some(Transition::BecameTrusted)
        } else {
            None
        }
    }

    /// Re-evaluates the trust state at `now` (typically called when a timer
    /// set for [`PeerMonitor::deadline`] fires).
    ///
    /// Returns `Some(Transition::BecameSuspected)` if the freshness horizon
    /// has passed and the peer is newly suspected. This is also where (η, δ)
    /// follow the link estimate: heartbeats are too many to each ask.
    pub fn check(&mut self, now: SimInstant) -> Option<Transition> {
        self.maybe_reconfigure(now);
        if self.state == TrustState::Trusted && now >= self.fresh_until {
            self.state = TrustState::Suspected;
            Some(Transition::BecameSuspected)
        } else {
            None
        }
    }

    fn maybe_reconfigure(&mut self, now: SimInstant) {
        // Heartbeats drive this, as when they called it themselves: the
        // latest one heard must have been due, not just the clock.
        let heard = self.vouched.map_or(SimInstant::ZERO, |(_, folded)| folded);
        let due = heard.saturating_since(self.last_reconfigure) >= RECONFIGURE_EVERY;
        if self.externally_tuned || !due {
            return;
        }
        self.last_reconfigure = now;
        // The estimator scan is memoized in the shared record, and the
        // version only moves when the estimate changed — so the (η, δ)
        // search below runs once per actual link-quality change, not once
        // per monitor per reconfigure period.
        let (measured, version) = self.liveness.quality_cached(now, RECONFIGURE_EVERY);
        if version == self.last_quality_version {
            return;
        }
        self.last_quality_version = version;
        let quality = if measured.samples as u64 >= MIN_SAMPLES_FOR_ESTIMATE {
            measured
        } else {
            LinkQuality::conservative_prior()
        };
        // The search result is shared through the liveness record too: the
        // sibling monitors other groups keep for this peer almost always ask
        // with the same QoS, so the search runs once per quality change per
        // peer instead of once per (group, peer).
        self.params = self
            .liveness
            .shared_params(version, &self.qos, &self.configurator, &quality);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_monitor() -> PeerMonitor {
        PeerMonitor::new(QosSpec::paper_default(), SimInstant::ZERO)
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

    #[test]
    fn set_params_applies_live_without_resetting_state() {
        let mut monitor = paper_monitor();
        // Build up estimator history.
        let interval = SimDuration::from_millis(100);
        let mut now = SimInstant::ZERO;
        for seq in 0..20u64 {
            now += interval;
            monitor.on_heartbeat(seq, now - SimDuration::from_millis(2), interval, now);
        }
        let heartbeats_before = monitor.heartbeats_received();
        let quality_before = monitor.quality();
        let deadline_before = monitor.deadline();

        let tuned = FdParams {
            interval: SimDuration::from_millis(50),
            shift: SimDuration::from_millis(150),
        };
        monitor.set_params(tuned);
        assert!(monitor.is_externally_tuned());
        assert_eq!(monitor.params(), tuned);
        assert_eq!(monitor.requested_interval(), SimDuration::from_millis(50));
        // Estimator state, trust state and horizon survive the update.
        assert_eq!(monitor.heartbeats_received(), heartbeats_before);
        assert_eq!(monitor.quality(), quality_before);
        assert_eq!(monitor.deadline(), deadline_before);
        assert!(monitor.is_trusted());

        // Heartbeats after the update extend the horizon using the tuned
        // shift (the pre-update horizon stays valid until it expires — the
        // horizon is monotone, so tuning can never manufacture a suspicion).
        let old_deadline = monitor.deadline();
        assert_eq!(
            monitor.check(old_deadline),
            Some(Transition::BecameSuspected)
        );
        let sent = old_deadline + SimDuration::from_millis(100);
        monitor.on_heartbeat(20, sent, SimDuration::from_millis(50), sent);
        assert!(monitor.is_trusted());
        assert_eq!(
            monitor.deadline(),
            sent + SimDuration::from_millis(50) + tuned.shift
        );
    }

    #[test]
    fn external_tuning_suppresses_self_reconfiguration() {
        let mut monitor = paper_monitor();
        let tuned = FdParams {
            interval: SimDuration::from_millis(40),
            shift: SimDuration::from_millis(60),
        };
        monitor.set_params(tuned);
        // Feed far more than RECONFIGURE_EVERY worth of heartbeats; the
        // monitor must keep the externally chosen operating point.
        let interval = SimDuration::from_millis(100);
        let mut now = SimInstant::ZERO;
        for seq in 0..200u64 {
            now += interval;
            monitor.on_heartbeat(seq, now, interval, now);
            assert_eq!(monitor.check(now), None);
        }
        assert_eq!(monitor.params(), tuned);
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
