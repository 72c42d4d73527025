//! The failure-detector configurator.
//!
//! Given the QoS requirement `(T_D^U, T_MR^L, P_A^L)` of an application and
//! the current quality `(p_L, E[D], S[D])` of the monitored link, the
//! configurator computes the two operational parameters of the NFD-S
//! detector of Chen et al.:
//!
//! * η — the interval at which the monitored process must send ALIVE
//!   messages, and
//! * δ — the timeout shift: a heartbeat sent at time σ keeps the sender
//!   trusted until σ + η + δ.
//!
//! For a candidate `(η, δ)`, the probability that a freshness point finds
//! *no* eligible heartbeat delivered — the probability that a false
//! suspicion begins there — is
//!
//! ```text
//! P_fs(η, δ) = Π_{k ≥ 0, δ−kη ≥ 0} [ p_L + (1 − p_L)·Pr(D > δ − kη) ]
//! ```
//!
//! with the delay tail `Pr(D > x)` bounded by the one-sided Chebyshev
//! (Cantelli) inequality `V[D] / (V[D] + (x − E[D])²)` for `x > E[D]` — the
//! same distribution-free bound Chen et al. use when only the mean and
//! variance of the delay are known. Mistakes recur roughly every
//! `η / P_fs(η, δ)`; a candidate is acceptable ([`params_meet_qos`]) when
//! `η / P_fs ≥ T_MR^L` and the expected mistake duration stays below
//! `T_M^U = (1 − P_A^L)·T_MR^L`.
//!
//! What is searched for is the [`TuningPolicy`] of the join:
//!
//! * [`TuningPolicy::Static`] — the paper's: the detection-time bound is a
//!   *target*, `η + δ = T_D^U` (a crash right after a heartbeat is detected
//!   at the next freshness point, η + δ later), and the configurator picks
//!   the **largest** acceptable η (fewest messages) up to a quarter of
//!   `T_D^U`, which keeps the average detection latency (≈ δ + η/2) close
//!   to, but below, the bound (Figure 8 of the paper, where T_r tracks just
//!   below `T_D^U`).
//! * [`TuningPolicy::Adaptive`] — the bound is a *ceiling*: the
//!   configurator picks the **smallest** acceptable `η + δ` between
//!   100 ms and `T_D^U` with η a quarter of it, δ never below the measured
//!   delay tail plus four deviations. A link that is faster and cleaner
//!   than the prior gets a crashed leader noticed sooner at the same
//!   false-suspicion rate; one that admits nothing below `T_D^U` gets the
//!   static result.
//!
//! The policy is a value of the join, not a set of knobs: everything it
//! implies — the search constants below, how often and over how much of the
//! estimator's ring a monitor re-derives — is a constant chosen from it.

use sle_sim::time::SimDuration;

use crate::qos::QosSpec;
use crate::quality::LinkQuality;

/// The operational failure-detector parameters produced by the configurator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdParams {
    /// The heartbeat (ALIVE) sending interval η the monitored process should
    /// use towards the monitoring process.
    pub interval: SimDuration,
    /// The timeout shift δ: a heartbeat stamped σ extends trust until
    /// σ + η + δ at the monitor.
    pub shift: SimDuration,
}

impl FdParams {
    /// The worst-case crash-detection time implied by these parameters.
    pub fn worst_case_detection(&self) -> SimDuration {
        self.interval + self.shift
    }
}

/// How a group's failure detection follows the measured link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuningPolicy {
    /// The paper's behaviour: η + δ pinned to `T_D^U`, the split between
    /// them re-derived from the link estimate every few seconds.
    #[default]
    Static,
    /// η + δ as small as the measured link allows (never above `T_D^U`),
    /// re-derived every second from the most recent heartbeats.
    Adaptive,
}

impl TuningPolicy {
    /// Adaptive tuning.
    pub fn adaptive() -> Self {
        TuningPolicy::Adaptive
    }

    /// How often a monitor re-derives (η, δ) from a fresh link estimate.
    pub(crate) fn reconfigure_every(self) -> SimDuration {
        match self {
            TuningPolicy::Static => SimDuration::from_secs(5),
            TuningPolicy::Adaptive => SimDuration::from_secs(1),
        }
    }

    /// Minimum number of heartbeats before measured link quality replaces
    /// the conservative prior.
    pub(crate) fn min_samples(self) -> usize {
        match self {
            TuningPolicy::Static => 8,
            TuningPolicy::Adaptive => 16,
        }
    }

    /// How many of the most recent heartbeats the link estimate is read
    /// over ([`LinkQualityEstimator::estimate_over`]): everything the ring
    /// holds, or few enough to follow a change of regime within seconds.
    ///
    /// [`LinkQualityEstimator::estimate_over`]: crate::quality::LinkQualityEstimator::estimate_over
    pub(crate) fn estimate_window(self) -> usize {
        match self {
            TuningPolicy::Static => usize::MAX,
            TuningPolicy::Adaptive => 64,
        }
    }

    /// Relative change of both η and δ below which a monitor keeps its
    /// current operating point (against flapping between neighbouring
    /// search steps).
    pub(crate) fn hysteresis(self) -> f64 {
        match self {
            TuningPolicy::Static => 0.0,
            TuningPolicy::Adaptive => 0.1,
        }
    }
}

/// Smallest heartbeat interval the configurator will ever choose, and so the
/// smallest a sender needs to honour.
pub const MIN_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// η as a fraction of the detection bound searched: the static cap on η, the
/// adaptive split of η + δ ([`default_interval`]).
const INTERVAL_FRACTION: f64 = 0.25;
/// Candidate intervals the static search examines between cap and floor.
const STATIC_STEPS: u32 = 128;
/// Lower bound on an adaptively derived η + δ: a briefly quiet network must
/// not earn a hair-trigger timeout.
const ADAPTIVE_FLOOR: SimDuration = SimDuration::from_millis(100);
/// An adaptive δ clears the delay tail by this many standard deviations.
const ADAPTIVE_MARGIN: f64 = 4.0;
/// Candidate bounds the adaptive search examines between floor and `T_D^U`.
const ADAPTIVE_STEPS: u32 = 64;

/// Computes `(η, δ)` for the given QoS, link quality and tuning policy.
///
/// The result always satisfies `η + δ ≤ T_D^U` (with equality under
/// [`TuningPolicy::Static`]) and `η ≥ 5 ms` (clamped); if even the smallest
/// interval cannot satisfy the mistake-recurrence bound (e.g. on an
/// extremely lossy link), the smallest interval is returned — the detector
/// then does the best it can, exactly like the real system under network
/// conditions that make the requested QoS unattainable.
///
/// ```
/// use sle_fd::config::{configure, TuningPolicy};
/// use sle_fd::qos::QosSpec;
/// use sle_fd::quality::LinkQuality;
/// use sle_sim::time::SimDuration;
///
/// let (qos, link) = (QosSpec::paper_default(), LinkQuality::perfect());
/// // On a clean LAN the static interval is capped at a quarter of T_D^U...
/// let params = configure(&qos, &link, TuningPolicy::Static);
/// assert_eq!(params.interval, SimDuration::from_millis(250));
/// assert_eq!(params.worst_case_detection(), SimDuration::from_secs(1));
/// // ...and the adaptive bound sits at its floor, far below T_D^U.
/// let params = configure(&qos, &link, TuningPolicy::Adaptive);
/// assert_eq!(params.worst_case_detection(), SimDuration::from_millis(100));
/// ```
pub fn configure(qos: &QosSpec, quality: &LinkQuality, policy: TuningPolicy) -> FdParams {
    let tightened = match policy {
        TuningPolicy::Static => None,
        TuningPolicy::Adaptive => tightest_bound(qos, quality),
    };
    // A link that admits nothing below T_D^U gets what the static search
    // chooses for it rather than nothing: a tight operating point must not
    // linger on a link that has degraded past it.
    tightened.unwrap_or_else(|| largest_interval(qos, quality))
}

/// The static search: `η + δ = T_D^U`, the largest acceptable η from a
/// quarter of `T_D^U` down.
fn largest_interval(qos: &QosSpec, quality: &LinkQuality) -> FdParams {
    let t_d = qos.detection_time();
    let cap = default_interval(t_d).max(MIN_INTERVAL);
    let interval = (0..STATIC_STEPS)
        .map(|i| {
            let frac = 1.0 - f64::from(i) / f64::from(STATIC_STEPS - 1);
            MIN_INTERVAL + (cap - MIN_INTERVAL).mul_f64(frac)
        })
        .find(|&eta| eta <= t_d && params_meet_qos(quality, eta, t_d.saturating_sub(eta), qos))
        .unwrap_or(MIN_INTERVAL);
    FdParams {
        interval,
        shift: t_d.saturating_sub(interval),
    }
}

/// The adaptive search: the smallest acceptable `η + δ` from the floor up to
/// `T_D^U`, or `None` if the link admits none.
fn tightest_bound(qos: &QosSpec, quality: &LinkQuality) -> Option<FdParams> {
    let t_d = qos.detection_time();
    // Heavy-tailed delays push the Chebyshev bound — and therefore the
    // derived timeout — outward through a deviation widened to at least
    // half the gap between the delay tail and the mean.
    let tail_spread = quality.delay_tail.saturating_sub(quality.delay_mean) / 2;
    let widened = LinkQuality {
        delay_std_dev: quality.delay_std_dev.max(tail_spread),
        ..*quality
    };
    // The timeout shift must clear the observed delay tail plus margin (a
    // heartbeat exactly δ late ties with its own deadline), so a shift
    // towards a slower network pushes the timeout straight back out.
    let shift_floor =
        (quality.delay_tail).saturating_add(quality.delay_std_dev.mul_f64(ADAPTIVE_MARGIN));
    let floor = ADAPTIVE_FLOOR
        .max(shift_floor.mul_f64(1.0 / (1.0 - INTERVAL_FRACTION)))
        .min(t_d);
    (0..ADAPTIVE_STEPS).find_map(|i| {
        let frac = f64::from(i) / f64::from(ADAPTIVE_STEPS - 1);
        let total = floor + (t_d - floor).mul_f64(frac);
        let interval = default_interval(total).max(MIN_INTERVAL);
        let shift = total.saturating_sub(interval);
        (shift > shift_floor && params_meet_qos(&widened, interval, shift, qos))
            .then_some(FdParams { interval, shift })
    })
}

/// The heartbeat interval η that goes with the detection bound `bound`: a
/// quarter of it (`T_D^U × 0.25` for a group's QoS). It is the static
/// search's cap on η, the adaptive search's split of each η + δ it tries,
/// and what a sender uses, and asks of a peer, until a monitor asks for
/// another. Not floored: where it is sent, the caller floors it at
/// [`MIN_INTERVAL`].
pub fn default_interval(bound: SimDuration) -> SimDuration {
    bound.mul_f64(INTERVAL_FRACTION)
}

/// Returns whether the operating point `(eta, delta)` meets `qos` on a link
/// with the given quality: predicted mistakes must recur no more often than
/// `T_MR^L` and last no longer than `T_M^U`. This is the acceptance test of
/// the configurator under either policy.
pub fn params_meet_qos(
    quality: &LinkQuality,
    eta: SimDuration,
    delta: SimDuration,
    qos: &QosSpec,
) -> bool {
    let p_fs = false_suspicion_probability(quality, eta, delta);

    // Mistake recurrence: one freshness point every η, each starting a
    // mistake with probability P_fs.
    let recurrence_ok = if p_fs <= 0.0 {
        true
    } else {
        eta.as_secs_f64() / p_fs >= qos.mistake_recurrence().as_secs_f64()
    };

    // Mistake duration: once suspected, trust resumes when the next
    // heartbeat that survives the link arrives: on average after about
    // one inter-heartbeat interval per expected retransmission plus the
    // mean delay.
    let p_l = quality.loss_probability.min(0.999);
    let expected_duration = eta.as_secs_f64() / (1.0 - p_l) + quality.delay_mean.as_secs_f64();
    let duration_ok = expected_duration <= qos.mistake_duration_bound().as_secs_f64().max(1e-9);

    recurrence_ok && duration_ok
}

/// Probability that a message sent with `margin` time to spare misses its
/// freshness point (it is lost, or delayed beyond the margin).
fn late_or_lost_probability(quality: &LinkQuality, margin: SimDuration) -> f64 {
    let p_l = quality.loss_probability.clamp(0.0, 1.0);
    p_l + (1.0 - p_l) * delay_tail_probability(quality, margin)
}

/// Distribution-free bound on `Pr(D > x)` from the estimated mean and
/// standard deviation of the delay (Cantelli's inequality).
fn delay_tail_probability(quality: &LinkQuality, x: SimDuration) -> f64 {
    let mean = quality.delay_mean.as_secs_f64();
    let x = x.as_secs_f64();
    if x <= mean {
        return 1.0;
    }
    let var = quality.delay_std_dev.as_secs_f64().powi(2);
    if var <= 0.0 {
        return 0.0;
    }
    let excess = x - mean;
    (var / (var + excess * excess)).clamp(0.0, 1.0)
}

/// Probability that a freshness point finds no eligible heartbeat delivered,
/// i.e. that a false suspicion starts there.
///
/// Eligible heartbeats are those sent `δ, δ−η, δ−2η, …` before the freshness
/// point; their arrivals are treated as independent (the same independence
/// assumption Chen et al. make for their bounds).
pub fn false_suspicion_probability(
    quality: &LinkQuality,
    interval: SimDuration,
    shift: SimDuration,
) -> f64 {
    if interval.is_zero() {
        return 0.0;
    }
    let mut probability = 1.0_f64;
    let mut margin = shift;
    loop {
        probability *= late_or_lost_probability(quality, margin);
        if probability < 1e-60 {
            return 0.0;
        }
        if margin < interval {
            break;
        }
        margin -= interval;
    }
    probability
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality(loss: f64, mean_ms: f64, std_ms: f64) -> LinkQuality {
        LinkQuality::from_parts(
            loss,
            SimDuration::from_millis_f64(mean_ms),
            SimDuration::from_millis_f64(std_ms),
        )
    }

    fn configure_static(qos: &QosSpec, quality: &LinkQuality) -> FdParams {
        configure(qos, quality, TuningPolicy::Static)
    }

    #[test]
    fn perfect_link_hits_the_interval_cap() {
        let params = configure_static(&QosSpec::paper_default(), &LinkQuality::perfect());
        assert_eq!(params.interval, SimDuration::from_millis(250));
        assert_eq!(params.shift, SimDuration::from_millis(750));
    }

    #[test]
    fn lossier_links_get_shorter_intervals() {
        let qos = QosSpec::paper_default();
        let clean = configure_static(&qos, &quality(0.0, 0.025, 0.01));
        let lossy = configure_static(&qos, &quality(0.1, 100.0, 100.0));
        assert!(
            lossy.interval < clean.interval,
            "lossy {} !< clean {}",
            lossy.interval,
            clean.interval
        );
        // Both must respect the detection bound.
        assert_eq!(clean.worst_case_detection(), SimDuration::from_secs(1));
        assert_eq!(lossy.worst_case_detection(), SimDuration::from_secs(1));
        // In the paper's worst lossy network the interval lands in the
        // 30-150 ms range, producing the traffic levels of Figure 6.
        let ms = lossy.interval.as_millis_f64();
        assert!((20.0..200.0).contains(&ms), "interval = {ms} ms");
    }

    #[test]
    fn interval_scales_with_detection_bound() {
        let quality = quality(0.0, 0.025, 0.01);
        for &td_ms in &[100u64, 250, 500, 750, 1000] {
            let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(td_ms));
            let params = configure_static(&qos, &quality);
            assert_eq!(
                params.worst_case_detection(),
                SimDuration::from_millis(td_ms),
                "η + δ must equal T_D^U"
            );
            assert!(params.interval <= SimDuration::from_millis_f64(td_ms as f64 * 0.25 + 0.001));
            // A clean link is searched from the cap down and takes it.
            assert_eq!(params.interval, default_interval(qos.detection_time()));
        }
    }

    #[test]
    fn hopeless_link_falls_back_to_minimum_interval() {
        let params = configure_static(&QosSpec::paper_default(), &quality(0.95, 500.0, 500.0));
        assert_eq!(params.interval, MIN_INTERVAL);
    }

    #[test]
    fn recurrence_estimate_meets_bound_for_chosen_interval() {
        let qos = QosSpec::paper_default();
        let q = quality(0.1, 100.0, 100.0);
        let params = configure_static(&qos, &q);
        let p_fs = false_suspicion_probability(&q, params.interval, params.shift);
        if p_fs > 0.0 {
            let recurrence = params.interval.as_secs_f64() / p_fs;
            assert!(
                recurrence >= qos.mistake_recurrence().as_secs_f64(),
                "recurrence {recurrence}s below bound"
            );
        }
    }

    #[test]
    fn false_suspicion_probability_monotone_in_shift() {
        let q = quality(0.1, 50.0, 50.0);
        let eta = SimDuration::from_millis(100);
        let p_short = false_suspicion_probability(&q, eta, SimDuration::from_millis(200));
        let p_long = false_suspicion_probability(&q, eta, SimDuration::from_millis(900));
        assert!(p_long < p_short);
    }

    #[test]
    fn cantelli_tail_behaviour() {
        let q = quality(0.0, 100.0, 100.0);
        // Below or at the mean the bound is vacuous (1.0).
        assert_eq!(
            delay_tail_probability(&q, SimDuration::from_millis(50)),
            1.0
        );
        assert_eq!(
            delay_tail_probability(&q, SimDuration::from_millis(100)),
            1.0
        );
        // One standard deviation above the mean: bound = 1/2.
        let one_sigma = delay_tail_probability(&q, SimDuration::from_millis(200));
        assert!((one_sigma - 0.5).abs() < 1e-9);
        // Far above the mean the bound becomes small.
        assert!(delay_tail_probability(&q, SimDuration::from_millis(1100)) < 0.01);
        // Zero variance: deterministic delay.
        let det = quality(0.0, 100.0, 0.0);
        assert_eq!(
            delay_tail_probability(&det, SimDuration::from_millis(101)),
            0.0
        );
        assert_eq!(
            delay_tail_probability(&det, SimDuration::from_millis(99)),
            1.0
        );
    }

    #[test]
    fn late_or_lost_combines_loss_and_tail() {
        let q = quality(0.2, 10.0, 0.0);
        // Far beyond the mean with zero variance: only losses matter.
        assert!((late_or_lost_probability(&q, SimDuration::from_millis(100)) - 0.2).abs() < 1e-9);
        // Below the mean: certainly late.
        assert_eq!(
            late_or_lost_probability(&q, SimDuration::from_millis(5)),
            1.0
        );
    }

    #[test]
    fn zero_interval_probability_is_zero() {
        let q = quality(0.5, 10.0, 10.0);
        assert_eq!(
            false_suspicion_probability(&q, SimDuration::ZERO, SimDuration::from_millis(100)),
            0.0
        );
    }

    /// `(T_D^U in ms — 0 is `paper_default()`, link, η in ns, δ in ns)` as
    /// the static search chose them before the adaptive policy moved in
    /// beside it. Rows are data: a change here is a change of the paper's
    /// configurator.
    const STATIC_TABLE: [(u64, &str, u64, u64); 48] = [
        (0, "prior", 224921259, 775078741),
        (0, "perfect", 250000000, 750000000),
        (0, "lan", 250000000, 750000000),
        (0, "(10 ms, 0.01)", 224921259, 775078741),
        (0, "(40 ms, 0.02)", 153543307, 846456693),
        (0, "(100 ms, 0.1)", 74448818, 925551182),
        (0, "steady 90 ms", 250000000, 750000000),
        (0, "hopeless", 5000000, 995000000),
        (100, "prior", 10039370, 89960630),
        (100, "perfect", 25000000, 75000000),
        (100, "lan", 25000000, 75000000),
        (100, "(10 ms, 0.01)", 10039370, 89960630),
        (100, "(40 ms, 0.02)", 5000000, 95000000),
        (100, "(100 ms, 0.1)", 5000000, 95000000),
        (100, "steady 90 ms", 9881889, 90118111),
        (100, "hopeless", 5000000, 95000000),
        (250, "prior", 39409448, 210590552),
        (250, "perfect", 62500000, 187500000),
        (250, "lan", 62500000, 187500000),
        (250, "(10 ms, 0.01)", 39409448, 210590552),
        (250, "(40 ms, 0.02)", 16771653, 233228347),
        (250, "(100 ms, 0.1)", 5000000, 245000000),
        (250, "steady 90 ms", 62500000, 187500000),
        (250, "hopeless", 5000000, 245000000),
        (500, "prior", 94763779, 405236221),
        (500, "perfect", 125000000, 375000000),
        (500, "lan", 125000000, 375000000),
        (500, "(10 ms, 0.01)", 94763779, 405236221),
        (500, "(40 ms, 0.02)", 57913385, 442086615),
        (500, "(100 ms, 0.1)", 21062992, 478937008),
        (500, "steady 90 ms", 125000000, 375000000),
        (500, "hopeless", 5000000, 495000000),
        (1000, "prior", 224921259, 775078741),
        (1000, "perfect", 250000000, 750000000),
        (1000, "lan", 250000000, 750000000),
        (1000, "(10 ms, 0.01)", 224921259, 775078741),
        (1000, "(40 ms, 0.02)", 153543307, 846456693),
        (1000, "(100 ms, 0.1)", 74448818, 925551182),
        (1000, "steady 90 ms", 250000000, 750000000),
        (1000, "hopeless", 5000000, 995000000),
        (2000, "prior", 484409448, 1515590552),
        (2000, "perfect", 500000000, 1500000000),
        (2000, "lan", 500000000, 1500000000),
        (2000, "(10 ms, 0.01)", 484409448, 1515590552),
        (2000, "(40 ms, 0.02)", 371377952, 1628622048),
        (2000, "(100 ms, 0.1)", 199881889, 1800118111),
        (2000, "steady 90 ms", 500000000, 1500000000),
        (2000, "hopeless", 5000000, 1995000000),
    ];

    #[test]
    fn static_policy_reproduces_the_recorded_table() {
        let us = SimDuration::from_micros;
        for (t_d, link, eta, delta) in STATIC_TABLE {
            let qos = match t_d {
                0 => QosSpec::paper_default(),
                ms => QosSpec::paper_default_with_detection(SimDuration::from_millis(ms)),
            };
            let quality = match link {
                "prior" => LinkQuality::conservative_prior(),
                "perfect" => LinkQuality::perfect(),
                "lan" => LinkQuality::from_parts(0.0, us(25), us(25)),
                "(10 ms, 0.01)" => LinkQuality::from_parts(0.01, us(10_000), us(10_000)),
                "(40 ms, 0.02)" => LinkQuality::from_parts(0.02, us(40_000), us(40_000)),
                "(100 ms, 0.1)" => LinkQuality::from_parts(0.1, us(100_000), us(100_000)),
                "steady 90 ms" => LinkQuality::from_parts(0.0, us(90_000), us(0)),
                "hopeless" => LinkQuality::from_parts(0.95, us(500_000), us(500_000)),
                other => panic!("unknown link {other}"),
            };
            let params = configure_static(&qos, &quality);
            assert_eq!(
                (params.interval.as_nanos(), params.shift.as_nanos()),
                (eta, delta),
                "T_D^U = {t_d} ms over {link}"
            );
        }
    }

    /// A link observed directly: `tail` is the measured 0.99 quantile.
    fn measured(loss: f64, mean_ms: f64, std_ms: f64, tail_ms: f64) -> LinkQuality {
        LinkQuality {
            delay_tail: SimDuration::from_millis_f64(tail_ms),
            ..quality(loss, mean_ms, std_ms)
        }
    }

    fn configure_adaptive(qos: &QosSpec, quality: &LinkQuality) -> FdParams {
        configure(qos, quality, TuningPolicy::Adaptive)
    }

    #[test]
    fn adaptive_clean_link_earns_a_tight_detection_bound() {
        let qos = QosSpec::paper_default();
        let params = configure_adaptive(&qos, &measured(0.0, 1.0, 0.0, 1.0));
        assert_eq!(params.worst_case_detection(), ADAPTIVE_FLOOR);
        assert_eq!(params.interval, ADAPTIVE_FLOOR.mul_f64(INTERVAL_FRACTION));
        assert!(params_meet_qos(
            &measured(0.0, 1.0, 0.0, 1.0),
            params.interval,
            params.shift,
            &qos
        ));
    }

    #[test]
    fn adaptive_shift_clears_the_delay_tail_with_margin() {
        let qos = QosSpec::paper_default();
        let slow = configure_adaptive(&qos, &measured(0.0, 90.0, 0.0, 90.0));
        let fast = configure_adaptive(&qos, &measured(0.0, 2.0, 0.0, 2.0));
        let jittery = configure_adaptive(&qos, &measured(0.0, 90.0, 10.0, 120.0));
        assert!(slow.shift >= SimDuration::from_millis(90));
        assert!(slow.worst_case_detection() < qos.detection_time());
        assert!(fast.worst_case_detection() < slow.worst_case_detection());
        // δ ≥ tail + 4 σ.
        assert!(jittery.shift >= SimDuration::from_millis(160));
        assert!(jittery.worst_case_detection() > slow.worst_case_detection());
    }

    #[test]
    fn adaptive_never_exceeds_the_static_bound_and_falls_back_to_its_result() {
        let qos = QosSpec::paper_default();
        // Terrible links, the prior (1 % loss) and one a second slower than
        // T_D^U: nothing below the bound is acceptable.
        for link in [
            measured(0.0, 270.0, 170.0, 500.0),
            measured(0.33, 5.0, 0.0, 5.0),
            measured(0.0, 2_000.0, 0.0, 2_000.0),
            LinkQuality::conservative_prior(),
        ] {
            let params = configure_adaptive(&qos, &link);
            assert_eq!(params, configure_static(&qos, &link));
            assert_eq!(params.worst_case_detection(), qos.detection_time());
        }
    }

    #[test]
    fn adaptive_respects_a_detection_bound_below_its_floor() {
        let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(40));
        let params = configure_adaptive(&qos, &measured(0.0, 1.0, 0.0, 1.0));
        assert_eq!(params.worst_case_detection(), qos.detection_time());
    }
}
