//! The NFD-S freshness monitor, in two halves: the operating point a peer's
//! [`PeerTable`] slot keeps once per QoS class, and the opinion a group's
//! row keeps of the peer.
//!
//! A monitor implements the monitoring side of Chen et al.'s NFD-S
//! algorithm for a single remote process: every received ALIVE message,
//! stamped with its send time and the sender's current heartbeat interval,
//! extends a *freshness horizon*; the peer is trusted exactly while the
//! current time is before that horizon. The operating point re-runs the
//! configurator under its [`TuningPolicy`] when the link quality estimate
//! of its slot moves, so the detector adapts to changing network
//! conditions, as described in Sections 3 and 6.2 of the paper. Its slot's
//! [`PeerTable::record`] asks it to, on the arrival of a heartbeat: that is
//! the only place (η, δ) ever move.
//!
//! NFD-S is defined over one link, and here QoS is per group, so the unit
//! of (η, δ) is the link and the QoS class: an `OperatingPoint` per
//! distinct `(QosSpec, TuningPolicy)` in the peer's slot holds (η, δ) and
//! the vouch of the peer's current ALIVE batch — the η it declared and the
//! part of its freshness stamp ([`PeerTable::stamp`]) already folded in.
//! Every group monitoring the peer under that class shares it, so a class
//! re-derives once, with one hysteresis, however many groups read it.
//!
//! A [`PeerMonitor`] is what stays per group: trust or suspicion (an Ω_l
//! follower that withdraws from one group keeps sending for another, and
//! only the first may suspect it), whether the peer's batch vouches for the
//! group, and the horizon the group holds on its own — what it was fed,
//! and what the stamp had bought when the batch stopped listing the group.
//! While vouched, the horizon is the later of its own and the class's:
//! `stamp + η + δ` at the δ of the stamp's time, not a later one.

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

/// What a group heard from its peer, as its monitor last saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    /// No heartbeat since the monitor was created.
    Never,
    /// Heartbeats, but the peer's current batch does not vouch for the group.
    Before,
    /// The peer's current batch vouches for the group: the class's stamp
    /// extends the monitor's horizon.
    Vouched,
}

/// The vouch of the peer's current ALIVE batch for one class: what its
/// freshness stamp buys the class's vouched monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Vouch {
    /// The (clamped) η the batch declared — the least, should its groups
    /// of the class declare different ones.
    eta: SimDuration,
    /// The latest stamp (or heartbeat send time) `fresh` holds.
    folded: SimInstant,
    /// The horizon the stamps folded so far bought, each at the δ of its
    /// time.
    fresh: SimInstant,
}

/// One QoS class's operating point for one peer, kept in the peer's
/// [`PeerTable`] slot and shared by every group monitoring the peer under
/// that `(QosSpec, TuningPolicy)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OperatingPoint {
    qos: QosSpec,
    policy: TuningPolicy,
    params: FdParams,
    /// Whether `params` follow a measured link estimate rather than the
    /// conservative prior.
    measured: bool,
    /// `None` until the peer's current batch feeds a monitor of the class.
    vouch: Option<Vouch>,
    /// The η the class's prior asks for: what a group asks of the peer
    /// until the peer first sends for it.
    prior_interval: SimDuration,
}

impl OperatingPoint {
    /// The class's operating point, derived from the slot's `estimate`: a
    /// measured peer's new class starts measured.
    pub(crate) fn new(qos: QosSpec, policy: TuningPolicy, estimate: LinkQuality) -> Self {
        let measured = estimate.samples >= policy.min_samples();
        let prior = configure(&qos, &LinkQuality::conservative_prior(), policy);
        OperatingPoint {
            params: if measured {
                configure(&qos, &estimate, policy)
            } else {
                prior
            },
            prior_interval: prior.interval,
            qos,
            policy,
            measured,
            vouch: None,
        }
    }

    /// The class's key.
    pub(crate) fn is(&self, qos: &QosSpec, policy: TuningPolicy) -> bool {
        self.policy == policy && self.qos == *qos
    }

    pub(crate) fn qos(&self) -> &QosSpec {
        &self.qos
    }

    pub(crate) fn policy(&self) -> TuningPolicy {
        self.policy
    }

    /// The operating point a re-derivation may move: (η, δ) and whether
    /// they follow a measured estimate.
    pub(crate) fn operating(&self) -> (FdParams, bool) {
        (self.params, self.measured)
    }

    /// Re-derives (η, δ) from the slot's new `estimate`; returns whether the
    /// operating point moved. Hysteresis compares the full operating point,
    /// not just the bound: once η + δ is pinned at T_D^U the split keeps
    /// tracking a degrading link, and those updates must go through. A move
    /// first folds the peer's `stamp` in: what the stamps heard so far
    /// bought stays priced at the δ of their time.
    pub(crate) fn derive(&mut self, estimate: LinkQuality, stamp: SimInstant) -> bool {
        let measured = estimate.samples >= self.policy.min_samples();
        let quality = if measured {
            estimate
        } else {
            LinkQuality::conservative_prior()
        };
        let derived = configure(&self.qos, &quality, self.policy);
        let hysteresis = self.policy.hysteresis();
        let within = |old: SimDuration, new: SimDuration| {
            (new.as_secs_f64() - old.as_secs_f64()).abs() < hysteresis * old.as_secs_f64()
        };
        let params = if within(self.params.interval, derived.interval)
            && within(self.params.shift, derived.shift)
        {
            self.params
        } else {
            derived
        };
        if (params, measured) == (self.params, self.measured) {
            return false;
        }
        self.fold(stamp);
        (self.params, self.measured) = (params, measured);
        true
    }

    /// Folds the peer's `stamp` into the class's vouch.
    pub(crate) fn fold(&mut self, stamp: SimInstant) {
        let shift = self.params.shift;
        if let Some(v) = self.vouch.as_mut().filter(|v| stamp > v.folded) {
            (v.fresh, v.folded) = (v.fresh.max(stamp + v.eta + shift), stamp);
        }
    }

    /// The peer's batch stopped vouching: the stamp restarts.
    pub(crate) fn unvouch(&mut self) {
        self.vouch = None;
    }

    /// A heartbeat sent at `sent_at` declaring `eta` fed a monitor of the
    /// class: the stamp vouches from it on. Monitors fed the same datagram
    /// share it, and a stamp is priced at the least η they declared.
    fn vouch_for(&mut self, sent_at: SimInstant, eta: SimDuration) {
        self.vouch = Some(match self.vouch {
            Some(v) if v.folded == sent_at => Vouch {
                eta: v.eta.min(eta),
                ..v
            },
            v => Vouch {
                eta,
                folded: sent_at,
                fresh: v.map_or(SimInstant::ZERO, |v| v.fresh),
            },
        });
    }
}

/// One group's NFD-S opinion of one remote process; its operating point is
/// its class's, in the peer's table slot.
///
/// ```
/// use sle_fd::monitor::{Transition, TrustState};
/// use sle_fd::{GroupDetector, PeerTable, QosSpec, TuningPolicy};
/// use sle_sim::actor::NodeId;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let group = GroupDetector::new(QosSpec::paper_default(), TuningPolicy::Static);
/// let mut table: PeerTable = PeerTable::new();
/// let start = SimInstant::ZERO;
/// let mut monitor = group.monitor(&mut table, NodeId(1), start);
/// assert_eq!(monitor.state(), TrustState::Trusted);
///
/// // No heartbeat within the grace period: the peer becomes suspected...
/// let later = start + SimDuration::from_secs(2);
/// let check = monitor.check(&mut table, later);
/// assert_eq!(check, Some(Transition::BecameSuspected));
///
/// // ...until a heartbeat arrives and trust is restored.
/// let hb_sent = later + SimDuration::from_millis(10);
/// let received = hb_sent + SimDuration::from_millis(1);
/// let eta = SimDuration::from_millis(250);
/// let t = monitor.on_heartbeat(&mut table, 1, hb_sent, eta, received);
/// assert_eq!(t, Some(Transition::BecameTrusted));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeerMonitor {
    /// The horizon the group holds on its own account.
    horizon: SimInstant,
    /// The peer's slot in the owner's [`PeerTable`].
    slot: u32,
    /// The class's operating point among the slot's.
    point: u16,
    state: TrustState,
    heard: Heard,
}

impl PeerMonitor {
    /// The monitor of the peer whose link record is table slot `slot`, for
    /// a group of the given QoS and policy, first observed (e.g. via group
    /// membership) at `now`; its class's operating point is created if the
    /// slot has none yet.
    ///
    /// The peer starts trusted with a grace period of one detection bound, so
    /// that a newly joined member is not instantly suspected before it had a
    /// chance to send its first ALIVE.
    pub(crate) fn new<T>(
        table: &mut PeerTable<T>,
        slot: usize,
        qos: &QosSpec,
        policy: TuningPolicy,
        now: SimInstant,
    ) -> Self {
        PeerMonitor {
            horizon: now + qos.detection_time(),
            slot: slot as u32,
            point: table.point(slot, qos, policy, now),
            state: TrustState::Trusted,
            heard: Heard::Never,
        }
    }

    /// The peer's slot in the owner's [`PeerTable`].
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    fn point<'t, T>(&self, table: &'t PeerTable<T>) -> &'t OperatingPoint {
        &table.link(self.slot()).points()[usize::from(self.point)]
    }

    /// The current operational parameters (η, δ) of the monitor's class.
    pub fn params<T>(&self, table: &PeerTable<T>) -> FdParams {
        self.point(table).params
    }

    /// Whether [`params`](PeerMonitor::params) follow a measured link
    /// estimate (enough heartbeats were heard) rather than the prior.
    pub fn is_measured<T>(&self, table: &PeerTable<T>) -> bool {
        self.point(table).measured
    }

    /// The heartbeat interval this monitor would like the peer to use — this
    /// is the value the service piggybacks on its outgoing messages to the
    /// peer ("the Scheduler schedules the sending of alive messages by q at a
    /// frequency of η"): its class's, once the peer sent for the group. A
    /// group the peer never sent for asks what the class's prior asks: in
    /// an Ω_l group a sender keeps the least η any member ever asked of it,
    /// and the class's measured η — re-derived from heartbeats other groups
    /// receive, and on a lossy link mostly below the prior's — would set it
    /// for every group at once.
    pub fn requested_interval<T>(&self, table: &PeerTable<T>) -> SimDuration {
        let point = self.point(table);
        match self.heard {
            Heard::Never => point.prior_interval,
            Heard::Before | Heard::Vouched => point.params.interval,
        }
    }

    /// Whether the monitor belongs to the class `(qos, policy)`.
    pub fn is_of<T>(&self, table: &PeerTable<T>, qos: &QosSpec, policy: TuningPolicy) -> bool {
        self.point(table).is(qos, policy)
    }

    /// The monitor's current opinion.
    pub fn state(&self) -> TrustState {
        self.state
    }

    /// Returns true if the peer is currently trusted.
    pub fn is_trusted(&self) -> bool {
        self.state == TrustState::Trusted
    }

    /// Whether the peer's freshness stamp extends the monitor's horizon:
    /// it was fed a heartbeat since the owner last
    /// [`unvouch`](PeerMonitor::unvouch)ed it.
    pub fn is_vouched(&self) -> bool {
        self.heard == Heard::Vouched
    }

    /// The horizon the monitor holds while the peer's stamp is `stamp`:
    /// its own, and while vouched what the class's stamp bought.
    fn horizon_at(&self, point: &OperatingPoint, stamp: SimInstant) -> SimInstant {
        match point.vouch.filter(|_| self.heard == Heard::Vouched) {
            Some(v) if stamp > v.folded => {
                (self.horizon.max(v.fresh)).max(stamp + v.eta + point.params.shift)
            }
            Some(v) => self.horizon.max(v.fresh),
            None => self.horizon,
        }
    }

    /// The instant the monitor suspects its peer unless a heartbeat or a
    /// stamp comes first, as seen through the peer's freshness stamp in
    /// `table`. `None` if already suspected.
    pub fn next_deadline<T>(&self, table: &PeerTable<T>) -> Option<SimInstant> {
        if self.state == TrustState::Suspected {
            return None;
        }
        let deadline = self.horizon_at(self.point(table), table.stamp_of(self.slot()));
        (deadline != SimInstant::FAR_FUTURE).then_some(deadline)
    }

    /// When the monitor must next be checked ([`PeerMonitor::check`]), as
    /// a [`Wake`] its owner can advance by the peer's stamp alone until the
    /// next check. A suspected monitor has no deadline and needs none.
    pub fn wake<T>(&self, table: &PeerTable<T>) -> Wake {
        if self.state == TrustState::Suspected {
            return Wake::NEVER;
        }
        let point = self.point(table);
        let mut wake = Wake::NEVER;
        match point.vouch.filter(|_| self.heard == Heard::Vouched) {
            Some(v) => {
                // A stamp at or before `folded` buys nothing beyond
                // `fresh`, which may hold it at a smaller δ than now.
                let fresh = self.horizon.max(v.fresh);
                wake.fresh = fresh;
                wake.offset = (v.eta + point.params.shift).min(fresh.saturating_since(v.folded));
            }
            None => wake.until = self.horizon,
        }
        wake
    }

    /// Folds the peer's freshness stamp in `table` into the monitor's own
    /// horizon and stops reading it. The owner calls this for every monitor
    /// the peer's last batch vouched for before restarting the stamp
    /// ([`PeerTable::stamp`]): a group the next batch drops then ages out on
    /// what it was really sent.
    pub fn unvouch<T>(&mut self, table: &PeerTable<T>) {
        self.horizon = self.horizon_at(self.point(table), table.stamp_of(self.slot()));
        if self.heard == Heard::Vouched {
            self.heard = Heard::Before;
        }
    }

    /// Processes a heartbeat with sequence number `seq`, stamped `sent_at` by
    /// the sender, which declares it is currently sending every
    /// `sender_interval`; the heartbeat was received at `now`. The sample
    /// goes to the peer's link record in `table` (once per datagram, however
    /// many groups process it).
    ///
    /// Returns `Some(Transition::BecameTrusted)` if this heartbeat restored
    /// trust in a suspected peer.
    pub fn on_heartbeat<T>(
        &mut self,
        table: &mut PeerTable<T>,
        seq: u64,
        sent_at: SimInstant,
        sender_interval: SimDuration,
        now: SimInstant,
    ) -> Option<Transition> {
        table.record(self.slot(), seq, sent_at, now);
        let stamp = table.stamp_of(self.slot());
        let point = &mut table.link_mut(self.slot()).points_mut()[usize::from(self.point)];
        // The freshness contribution of this heartbeat: it proves the sender
        // was alive at `sent_at` and promises another heartbeat one interval
        // later, which we allow δ to arrive. The sender-declared interval is
        // clamped to the detection bound so a mis-configured sender cannot
        // stretch detection arbitrarily.
        let eta = sender_interval.min(point.qos.detection_time());
        self.horizon = self.horizon.max(sent_at + eta + point.params.shift);
        self.heard = Heard::Vouched;
        point.vouch_for(sent_at, eta);

        if self.state == TrustState::Trusted {
            return None;
        }
        if now < self.horizon_at(point, stamp) {
            self.state = TrustState::Trusted;
            return Some(Transition::BecameTrusted);
        }
        // Too old to revive the peer. Under a bound tightened below T_D^U
        // that is the link outrunning (η, δ): the next arrival re-derives
        // them, whatever the policy's period says.
        if point.params.worst_case_detection() < point.qos.detection_time() {
            let policy = point.policy;
            table.due_now(self.slot(), policy, now);
        }
        None
    }

    /// Re-evaluates the monitor at `now` through its peer's freshness
    /// stamp, folded into the class first (typically called when a timer set
    /// for [`PeerMonitor::next_deadline`] fires); returns the suspicion, if
    /// any. A check never moves (η, δ), and [`PeerMonitor::wake`] says when
    /// the next one is due.
    pub fn check<T>(&mut self, table: &mut PeerTable<T>, now: SimInstant) -> Option<Transition> {
        let (slot, point) = (self.slot(), usize::from(self.point));
        let stamp = table.stamp_of(slot);
        table.link_mut(slot).points_mut()[point].fold(stamp);
        (self.state == TrustState::Trusted && now >= self.horizon_at(self.point(table), stamp))
            .then(|| {
                self.state = TrustState::Suspected;
                Transition::BecameSuspected
            })
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
        monitor: PeerMonitor,
    }

    impl Solo {
        fn new(policy: TuningPolicy) -> Self {
            let (qos, mut table) = (QosSpec::paper_default(), PeerTable::new());
            let group = crate::GroupDetector::new(qos, policy);
            let monitor = group.monitor(&mut table, NodeId(1), SimInstant::ZERO);
            Solo {
                table,
                qos,
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
            (self.monitor).on_heartbeat(&mut self.table, seq, sent_at, interval, now)
        }

        fn check(&mut self, now: SimInstant) -> Option<Transition> {
            self.monitor.check(&mut self.table, now)
        }

        /// The monitor's horizon; [`SimInstant::FAR_FUTURE`] if suspected.
        fn deadline(&self) -> SimInstant {
            (self.monitor.next_deadline(&self.table)).unwrap_or(SimInstant::FAR_FUTURE)
        }

        fn params(&self) -> FdParams {
            self.monitor.params(&self.table)
        }

        fn is_measured(&self) -> bool {
            self.monitor.is_measured(&self.table)
        }

        fn requested_interval(&self) -> SimDuration {
            self.monitor.requested_interval(&self.table)
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
        // The adaptive clock re-derived at the feed's last arrival, so the
        // next read is a second away. A heartbeat too old to revive the
        // peer makes it due at once instead: the very next arrival
        // re-derives (η, δ), and, priced at the new δ, revives the peer.
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
        assert_eq!(revived_at, Some(101));
        // The paper's pinned bound never takes that path: stale heartbeats
        // leave its policy on its period, which the feed's last arrival
        // started. Its classes re-derive, suspected or not, at the first
        // arrival from then on, and no heartbeat that old revives the peer.
        let mut pinned = paper_monitor();
        feed(&mut pinned, 100, |_| ms(2), SimInstant::ZERO);
        let (params, deadline) = (pinned.params(), pinned.deadline());
        assert_eq!(pinned.check(deadline), Some(Transition::BecameSuspected));
        let period = now + SimDuration::from_secs(5);
        let mut moved_at = None;
        for seq in 100..200u64 {
            let sent = now + ms(100) * (seq - 99);
            let received = sent + ms(1_500);
            assert_eq!(pinned.on_heartbeat(seq, sent, ms(100), received), None);
            if received < period {
                assert_eq!(pinned.params(), params);
            } else if moved_at.is_none() {
                assert_ne!(pinned.params(), params);
                moved_at = Some((seq, received));
            }
        }
        assert_eq!(moved_at, Some((134, period)));
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
        let recent = (monitor
            .table
            .estimate(monitor.slot(), TuningPolicy::Adaptive))
        .unwrap();
        let derived = configure(&qos, &recent, TuningPolicy::Adaptive);
        assert_ne!(derived, first);
        assert_eq!(monitor.params(), first);
        // A change of regime does.
        feed(&mut monitor, 100, |_| ms(150), now);
        assert_ne!(monitor.params(), first);
        assert!(monitor.params().shift > ms(150));
    }

    #[test]
    fn a_group_the_peer_never_sent_for_asks_the_prior_s_eta() {
        // Two groups of one class monitor the peer; it sends for the first.
        let mut fed = adaptive_monitor();
        let group = crate::GroupDetector::new(fed.qos(), TuningPolicy::Adaptive);
        let unfed = group.monitor(&mut fed.table, NodeId(1), SimInstant::ZERO);
        let prior = fed.requested_interval();
        assert_eq!(unfed.requested_interval(&fed.table), prior);
        feed(&mut fed, 100, |_| ms(2), SimInstant::ZERO);
        // The class follows the measured link, for both groups' horizons...
        assert!(fed.is_measured());
        assert_ne!(fed.requested_interval(), prior);
        assert_eq!(unfed.params(&fed.table), fed.params());
        // ...but the group the peer never sent for still asks the prior's η.
        assert_eq!(unfed.requested_interval(&fed.table), prior);
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
