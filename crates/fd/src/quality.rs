//! Link-quality estimation.
//!
//! The Link Quality Estimator module of the paper (Figure 1) continuously
//! estimates three quantities for the directed link q → p, using the ALIVE
//! messages p receives from q:
//!
//! * the probability of message loss `p_L`,
//! * the expected message delay `E[D]`, and
//! * the standard deviation of the message delay `S[D]`.
//!
//! plus the one number a timeout must actually clear — a high quantile of
//! the delay (`delay_tail`). The estimates feed the failure-detector
//! configurator, which recomputes the heartbeat interval η and timeout
//! shift δ as the network changes. This is the only measurement path: every
//! tuning policy reads the same ring, over the whole of it or over its most
//! recent slots ([`LinkQualityEstimator::estimate_over`]).

use std::collections::VecDeque;

use sle_sim::time::{SimDuration, SimInstant};

/// A point-in-time estimate of the quality of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Estimated probability that a message is lost.
    pub loss_probability: f64,
    /// Estimated mean one-way message delay.
    pub delay_mean: SimDuration,
    /// Estimated standard deviation of the one-way message delay.
    pub delay_std_dev: SimDuration,
    /// The 0.99 quantile of the one-way message delay (lower nearest rank
    /// over the samples backing the estimate).
    pub delay_tail: SimDuration,
    /// Number of delay samples backing the estimate.
    pub samples: usize,
}

impl LinkQuality {
    /// A conservative prior used before any heartbeat has been observed:
    /// a metropolitan-area-like link (10 ms mean delay, 10 ms deviation, 1%
    /// losses). Starting conservative makes the detector cautious until real
    /// measurements arrive.
    pub fn conservative_prior() -> Self {
        LinkQuality {
            loss_probability: 0.01,
            delay_mean: SimDuration::from_millis(10),
            delay_std_dev: SimDuration::from_millis(10),
            delay_tail: SimDuration::from_millis(30),
            samples: 0,
        }
    }

    /// The quality of an ideal link (no loss, no delay); useful in tests.
    pub fn perfect() -> Self {
        LinkQuality {
            loss_probability: 0.0,
            delay_mean: SimDuration::ZERO,
            delay_std_dev: SimDuration::ZERO,
            delay_tail: SimDuration::ZERO,
            samples: 0,
        }
    }

    /// Builds a quality description directly from parameters; primarily used
    /// by tests and by the configurator's own unit tests. The delay tail is
    /// taken two deviations above the mean.
    pub fn from_parts(
        loss_probability: f64,
        delay_mean: SimDuration,
        delay_std_dev: SimDuration,
    ) -> Self {
        LinkQuality {
            loss_probability: loss_probability.clamp(0.0, 1.0),
            delay_mean,
            delay_std_dev,
            delay_tail: delay_mean.saturating_add(delay_std_dev * 2),
            samples: usize::MAX,
        }
    }
}

impl Default for LinkQuality {
    fn default() -> Self {
        LinkQuality::conservative_prior()
    }
}

/// The delay quantile reported as [`LinkQuality::delay_tail`].
const TAIL_QUANTILE: f64 = 0.99;

/// Estimates the quality of one directed link from the heartbeats received
/// over it.
///
/// Losses are inferred from gaps in the heartbeat sequence numbers over a
/// sliding window; delays are measured as `receive time − send timestamp`
/// (the simulator and the in-process runtime share a single clock, mirroring
/// the synchronized-clock variant NFD-S of Chen et al.).
///
/// ```
/// use sle_fd::quality::LinkQualityEstimator;
/// use sle_sim::time::{SimDuration, SimInstant};
///
/// let mut est = LinkQualityEstimator::new(128);
/// let mut now = SimInstant::ZERO;
/// for seq in 0..100u64 {
///     now = now + SimDuration::from_millis(100);
///     // every heartbeat arrives 5 ms after it was sent
///     est.record(seq, now - SimDuration::from_millis(5), now);
/// }
/// let q = est.estimate();
/// assert!(q.loss_probability < 0.02);
/// assert!((q.delay_mean.as_millis_f64() - 5.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct LinkQualityEstimator {
    capacity: usize,
    delays: Vec<f64>,
    next_slot: usize,
    received: u64,
    highest_seq: u64,
    /// When the heartbeat numbered `highest_seq` was sent.
    highest_sent_at: SimInstant,
    /// Sequence numbers received within the sliding loss window, in arrival
    /// order, stored as runs of consecutive numbers: `(first, last)` stands
    /// for `first, first + 1, ..., last`. Heartbeat streams are almost
    /// always in order, so the front holds the oldest numbers and an honest
    /// stream without losses is a single run.
    recent: VecDeque<(u64, u64)>,
    /// How many numbers the runs of `recent` stand for.
    held: u64,
}

impl LinkQualityEstimator {
    /// Creates an estimator keeping up to `capacity` delay samples.
    ///
    /// The loss window covers the last `4 * capacity` sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "estimator capacity must be positive");
        LinkQualityEstimator {
            capacity,
            delays: Vec::new(),
            next_slot: 0,
            received: 0,
            highest_seq: 0,
            highest_sent_at: SimInstant::ZERO,
            recent: VecDeque::new(),
            held: 0,
        }
    }

    fn loss_window_span(&self) -> u64 {
        (self.capacity as u64) * 4
    }

    /// The most numbers the loss window holds. An honest stream holds the
    /// span plus the odd straggler from below it. A sender that repeats one
    /// number with ever later stamps looks like a restart every time, and
    /// nothing would ever fall out of the window: past this bound the
    /// oldest numbers go.
    fn loss_window_cap(&self) -> u64 {
        self.loss_window_span().saturating_mul(2)
    }

    fn in_window(&self, seq: u64) -> bool {
        (self.recent.iter()).any(|&(first, last)| first <= seq && seq <= last)
    }

    /// Appends `seq` to the window (extending the newest run if it is the
    /// next number), then drops the numbers below `cutoff` from the front
    /// and, past the cap, the oldest ones.
    fn push_to_window(&mut self, seq: u64, cutoff: u64) {
        match self.recent.back_mut() {
            Some((_, last)) if last.checked_add(1) == Some(seq) => *last = seq,
            _ => self.recent.push_back((seq, seq)),
        }
        self.held += 1;
        while let Some(front) = self.recent.front_mut() {
            if front.0 >= cutoff {
                break;
            }
            if front.1 >= cutoff {
                self.held -= cutoff - front.0;
                front.0 = cutoff;
                break;
            }
            self.held -= front.1 - front.0 + 1;
            self.recent.pop_front();
        }
        let cap = self.loss_window_cap();
        while let (true, Some(front)) = (self.held > cap, self.recent.front_mut()) {
            let excess = self.held - cap;
            let run = front.1 - front.0 + 1;
            if run <= excess {
                self.held -= run;
                self.recent.pop_front();
            } else {
                front.0 += excess;
                self.held -= excess;
            }
        }
    }

    /// Records the arrival of heartbeat number `seq`, stamped `sent_at` by
    /// the sender and received at `received_at`.
    ///
    /// Out-of-order arrivals are accepted; a `received_at` earlier than
    /// `sent_at` (possible with unsynchronised clocks) is treated as a zero
    /// delay. A sequence number already in the loss window that was sent no
    /// later than the newest one is a copy the network made: it adds a delay
    /// sample but is one delivery, not two, and must not cancel a real loss.
    /// (Sent later, it is a sender that restarted its numbering.)
    pub fn record(&mut self, seq: u64, sent_at: SimInstant, received_at: SimInstant) {
        let delay = received_at.saturating_since(sent_at).as_secs_f64();
        if self.delays.len() < self.capacity {
            // The ring grows on demand, doubling up to the capacity: a link
            // that is never fed (most of them: only a group's leader sends
            // ALIVEs under Ω_l) holds no ring at all.
            let len = self.delays.len();
            if len == self.delays.capacity() {
                self.delays
                    .reserve_exact(len.max(4).min(self.capacity - len));
            }
            self.delays.push(delay);
        } else {
            self.delays[self.next_slot] = delay;
        }
        self.next_slot = (self.next_slot + 1) % self.capacity;

        self.received += 1;
        if seq > self.highest_seq || self.received == 1 {
            (self.highest_seq, self.highest_sent_at) = (seq, sent_at);
        } else if sent_at <= self.highest_sent_at && self.in_window(seq) {
            return;
        }
        let cutoff = self.highest_seq.saturating_sub(self.loss_window_span());
        self.push_to_window(seq, cutoff);
    }

    /// Number of heartbeats recorded so far.
    pub fn heartbeats_recorded(&self) -> u64 {
        self.received
    }

    /// Produces the current quality estimate over everything the estimator
    /// holds: all `capacity` delay samples and the whole loss window.
    ///
    /// Before any heartbeat is recorded this returns
    /// [`LinkQuality::conservative_prior`].
    pub fn estimate(&self) -> LinkQuality {
        self.estimate_over(self.capacity)
    }

    /// The quality estimate read over the most recent `window` heartbeats
    /// only — the last `window` delay samples and the last `window` sequence
    /// numbers — so it follows a change of regime within that many
    /// heartbeats. A `window` of `capacity` or more is [`estimate`].
    ///
    /// [`estimate`]: LinkQualityEstimator::estimate
    pub fn estimate_over(&self, window: usize) -> LinkQuality {
        if self.delays.is_empty() || self.recent.is_empty() {
            return LinkQuality::conservative_prior();
        }
        // The newest sample sits just before `next_slot`; the ring wraps
        // only once full, so the view is at most two runs of it, read here
        // in slot order.
        let n = window.clamp(1, self.delays.len());
        let newest = self.next_slot;
        let (head, rest) = if n <= newest {
            (&self.delays[newest - n..newest], &self.delays[..0])
        } else {
            let from_end = self.delays.len() - (n - newest);
            (&self.delays[..newest], &self.delays[from_end..])
        };
        let view = || head.iter().chain(rest);
        let mean = view().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            view().map(|d| (d - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted: Vec<f64> = view().copied().collect();
        let rank = ((TAIL_QUANTILE * n as f64).ceil() as usize).clamp(1, n);
        let (_, &mut tail, _) = sorted.select_nth_unstable_by(rank - 1, f64::total_cmp);

        // Loss: compare the sequence-number span of the window with the
        // number of heartbeats actually received in it.
        let floor = if window < self.capacity {
            self.highest_seq.saturating_sub(window.max(1) as u64 - 1)
        } else {
            0
        };
        let (received, oldest) = (self.recent.iter())
            .filter(|&&(_, last)| last >= floor)
            .map(|&(first, last)| (first.max(floor), last))
            .fold((0u64, self.highest_seq), |(count, oldest), (from, last)| {
                (count + (last - from) + 1, oldest.min(from))
            });
        let expected = self.highest_seq.saturating_sub(oldest).saturating_add(1);
        let loss = if expected == 0 || received >= expected {
            0.0
        } else {
            1.0 - received as f64 / expected as f64
        };

        LinkQuality {
            loss_probability: loss.clamp(0.0, 1.0),
            delay_mean: SimDuration::from_secs_f64(mean),
            delay_std_dev: SimDuration::from_secs_f64(variance.sqrt()),
            delay_tail: SimDuration::from_secs_f64(tail),
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(est: &mut LinkQualityEstimator, seqs: &[u64], delay_ms: f64, interval_ms: u64) {
        for &seq in seqs {
            let sent = SimInstant::ZERO + SimDuration::from_millis(seq * interval_ms);
            let recv = sent + SimDuration::from_millis_f64(delay_ms);
            est.record(seq, sent, recv);
        }
    }

    #[test]
    fn empty_estimator_returns_prior() {
        let est = LinkQualityEstimator::new(16);
        assert_eq!(est.estimate(), LinkQuality::conservative_prior());
        assert_eq!(est.heartbeats_recorded(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = LinkQualityEstimator::new(0);
    }

    #[test]
    fn estimates_constant_delay_with_no_loss() {
        let mut est = LinkQualityEstimator::new(64);
        let seqs: Vec<u64> = (0..100).collect();
        feed(&mut est, &seqs, 5.0, 100);
        let q = est.estimate();
        assert!((q.delay_mean.as_millis_f64() - 5.0).abs() < 1e-6);
        assert!(q.delay_std_dev.as_millis_f64() < 1e-6);
        assert_eq!(q.loss_probability, 0.0);
        assert_eq!(q.samples, 64);
        assert_eq!(est.heartbeats_recorded(), 100);
    }

    #[test]
    fn estimates_loss_from_sequence_gaps() {
        let mut est = LinkQualityEstimator::new(64);
        // Receive only even sequence numbers: 50% loss.
        let seqs: Vec<u64> = (0..200).filter(|s| s % 2 == 0).collect();
        feed(&mut est, &seqs, 1.0, 100);
        let q = est.estimate();
        assert!(
            (q.loss_probability - 0.5).abs() < 0.05,
            "loss = {}",
            q.loss_probability
        );
    }

    #[test]
    fn estimates_delay_variance() {
        let mut est = LinkQualityEstimator::new(128);
        // Alternate 10 ms and 30 ms delays: mean 20 ms, std dev ~10 ms.
        for seq in 0..100u64 {
            let sent = SimInstant::ZERO + SimDuration::from_millis(seq * 50);
            let delay = if seq % 2 == 0 { 10 } else { 30 };
            est.record(seq, sent, sent + SimDuration::from_millis(delay));
        }
        let q = est.estimate();
        assert!((q.delay_mean.as_millis_f64() - 20.0).abs() < 0.5);
        assert!((q.delay_std_dev.as_millis_f64() - 10.0).abs() < 0.6);
    }

    #[test]
    fn negative_clock_skew_is_clamped_to_zero_delay() {
        let mut est = LinkQualityEstimator::new(8);
        let sent = SimInstant::ZERO + SimDuration::from_millis(100);
        est.record(0, sent, sent - SimDuration::from_millis(5));
        let q = est.estimate();
        assert_eq!(q.delay_mean, SimDuration::ZERO);
    }

    #[test]
    fn window_slides_and_forgets_ancient_losses() {
        let mut est = LinkQualityEstimator::new(16);
        // A burst of losses early on (only every 4th received), then a long
        // clean period; the final estimate should reflect the clean period.
        let early: Vec<u64> = (0..80).filter(|s| s % 4 == 0).collect();
        feed(&mut est, &early, 1.0, 10);
        let late: Vec<u64> = (80..400).collect();
        feed(&mut est, &late, 1.0, 10);
        let q = est.estimate();
        assert!(q.loss_probability < 0.1, "loss = {}", q.loss_probability);
    }

    #[test]
    fn duplicated_heartbeats_do_not_cancel_losses() {
        // 10 % loss, 10 % duplication, and every arrival up to three
        // heartbeats late, so copies and stragglers overtake one another.
        let mut rng = sle_sim::rng::SimRng::seed_from(0xD0_B1E);
        let interval = SimDuration::from_millis(10);
        let mut arrivals: Vec<(SimInstant, u64)> = Vec::new();
        let (mut sent_count, mut lost) = (0u64, 0u64);
        for seq in 0..1_000u64 {
            sent_count += 1;
            if rng.uniform_range(0.0, 1.0) < 0.1 {
                lost += 1;
                continue;
            }
            let copies = if rng.uniform_range(0.0, 1.0) < 0.1 {
                2
            } else {
                1
            };
            for _ in 0..copies {
                let delay = SimDuration::from_millis_f64(rng.uniform_range(1.0, 30.0));
                arrivals.push((SimInstant::ZERO + interval * seq + delay, seq));
            }
        }
        arrivals.sort();
        let mut est = LinkQualityEstimator::new(256);
        for &(at, seq) in &arrivals {
            est.record(seq, SimInstant::ZERO + interval * seq, at);
        }
        assert_eq!(est.heartbeats_recorded(), arrivals.len() as u64);
        let true_loss = lost as f64 / sent_count as f64;
        let estimated = est.estimate().loss_probability;
        assert!(
            (estimated - true_loss).abs() < 0.03,
            "estimated {estimated}, true {true_loss}"
        );
    }

    #[test]
    fn a_restarted_numbering_is_not_a_flood_of_copies() {
        let mut est = LinkQualityEstimator::new(64);
        let seqs: Vec<u64> = (0..100).collect();
        feed(&mut est, &seqs, 1.0, 10);
        // The sender restarts at 0, later on the clock: every number is in
        // the window already, none is a copy.
        for seq in 0..50u64 {
            let sent = SimInstant::ZERO + SimDuration::from_millis(2_000 + seq * 10);
            est.record(seq, sent, sent);
        }
        assert_eq!(est.held, 150);
        // A real copy of the newest heartbeat still is one.
        let sent = SimInstant::ZERO + SimDuration::from_millis(99 * 10);
        est.record(99, sent, sent + SimDuration::from_millis(7));
        assert_eq!(est.held, 150);
        assert_eq!(est.heartbeats_recorded(), 151);
    }

    #[test]
    fn the_ring_grows_to_its_capacity_and_no_further() {
        let mut est = LinkQualityEstimator::new(100);
        assert_eq!(est.delays.capacity(), 0);
        feed(&mut est, &(0..1_000).collect::<Vec<_>>(), 1.0, 10);
        assert_eq!(est.delays.capacity(), 100);
        assert_eq!(est.estimate().samples, 100);
    }

    #[test]
    fn a_repeated_number_with_rising_stamps_cannot_grow_the_window() {
        let mut est = LinkQualityEstimator::new(16);
        feed(&mut est, &(0..100).collect::<Vec<_>>(), 1.0, 10);
        // Every copy of the newest number is stamped later than it, so each
        // looks like a restarted numbering, and none is below the cutoff.
        for i in 0..200_000u64 {
            let sent = SimInstant::ZERO + SimDuration::from_millis(1_000 + i);
            est.record(99, sent, sent);
        }
        assert_eq!(est.held, est.loss_window_cap());
        assert_eq!(est.recent.len() as u64, est.loss_window_cap());
        assert_eq!(est.heartbeats_recorded(), 200_100);
    }

    /// The window as a plain queue of single numbers (and the same cap):
    /// the reference the runs must match exactly.
    struct PerNumber {
        seqs: VecDeque<u64>,
        highest: u64,
        highest_sent_at: SimInstant,
        received: u64,
        span: u64,
        cap: usize,
    }

    impl PerNumber {
        fn record(&mut self, seq: u64, sent_at: SimInstant) {
            self.received += 1;
            if seq > self.highest || self.received == 1 {
                (self.highest, self.highest_sent_at) = (seq, sent_at);
            } else if sent_at <= self.highest_sent_at && self.seqs.contains(&seq) {
                return;
            }
            self.seqs.push_back(seq);
            let cutoff = self.highest.saturating_sub(self.span);
            while self.seqs.front().is_some_and(|&front| front < cutoff) {
                self.seqs.pop_front();
            }
            while self.seqs.len() > self.cap {
                self.seqs.pop_front();
            }
        }

        /// Count and oldest of the numbers at or above `floor`.
        fn at_or_above(&self, floor: u64) -> (u64, u64) {
            (self.seqs.iter().filter(|&&seq| seq >= floor))
                .fold((0, self.highest), |(n, oldest), &seq| {
                    (n + 1, oldest.min(seq))
                })
        }
    }

    #[test]
    fn runs_match_a_window_of_single_numbers() {
        let mut rng = sle_sim::rng::SimRng::seed_from(0x5E0_4100);
        let mut capped = 0;
        for case in 0..60u64 {
            let capacity = 1 + rng.uniform_usize(12);
            let mut est = LinkQualityEstimator::new(capacity);
            let mut model = PerNumber {
                seqs: VecDeque::new(),
                highest: 0,
                highest_sent_at: SimInstant::ZERO,
                received: 0,
                span: est.loss_window_span(),
                cap: est.loss_window_cap() as usize,
            };
            // Every third case numbers from just below u64::MAX.
            let base = if case % 3 == 0 { u64::MAX - 40 } else { 0 };
            let (mut next, mut clock) = (base, 0u64);
            for _ in 0..400 {
                clock += 1 + rng.uniform_usize(5) as u64;
                let seq = match rng.uniform_usize(10) {
                    // In order, sometimes skipping a few (losses).
                    0..=4 => {
                        let seq = next.saturating_add(rng.uniform_usize(3) as u64);
                        next = seq.saturating_add(1);
                        seq
                    }
                    // A copy or a straggler from anywhere below the top,
                    // stamped no later than it...
                    5..=6 => model.highest.saturating_sub(rng.uniform_usize(80) as u64),
                    // ...or stamped later: a restarted numbering.
                    7 => {
                        next = base.saturating_add(rng.uniform_usize(20) as u64);
                        next
                    }
                    // A flood of one repeated number with rising stamps.
                    _ => model.highest.saturating_sub(rng.uniform_usize(4) as u64),
                };
                let restamped = matches!(rng.uniform_usize(3), 0);
                let sent_at = if seq <= model.highest && !restamped {
                    model.highest_sent_at
                } else {
                    SimInstant::from_nanos(clock)
                };
                est.record(seq, sent_at, SimInstant::from_nanos(clock));
                model.record(seq, sent_at);
                let numbers = est.recent.iter().flat_map(|&(first, last)| first..=last);
                assert!(numbers.eq(model.seqs.iter().copied()), "case {case}");
                assert_eq!(est.held, model.seqs.len() as u64);
                capped += usize::from(model.seqs.len() == model.cap);
                for window in [1, 2, capacity / 2 + 1, capacity, usize::MAX] {
                    let floor = if window < capacity {
                        model.highest.saturating_sub(window as u64 - 1)
                    } else {
                        0
                    };
                    let (received, oldest) = model.at_or_above(floor);
                    let expected = model.highest.saturating_sub(oldest).saturating_add(1);
                    let loss = if model.seqs.is_empty() {
                        LinkQuality::conservative_prior().loss_probability
                    } else if received >= expected {
                        0.0
                    } else {
                        1.0 - received as f64 / expected as f64
                    };
                    assert_eq!(est.estimate_over(window).loss_probability, loss);
                }
            }
        }
        assert!(capped > 0, "no case reached the cap");
    }

    #[test]
    fn recent_window_follows_a_regime_change_the_whole_ring_averages_away() {
        let mut est = LinkQualityEstimator::new(256);
        // 200 heartbeats at 90 ms with every tenth lost, then 64 clean ones
        // at 2 ms.
        let seqs: Vec<u64> = (0..200).filter(|s| s % 10 != 0).collect();
        feed(&mut est, &seqs, 90.0, 100);
        let seqs: Vec<u64> = (200..264).collect();
        feed(&mut est, &seqs, 2.0, 100);
        let whole = est.estimate();
        assert!(whole.delay_mean > SimDuration::from_millis(60));
        assert!(whole.loss_probability > 0.05);
        assert_eq!(whole.delay_tail, SimDuration::from_millis(90));
        let recent = est.estimate_over(64);
        assert_eq!(recent.samples, 64);
        assert_eq!(recent.loss_probability, 0.0);
        assert!((recent.delay_mean.as_millis_f64() - 2.0).abs() < 1e-6);
        assert_eq!(recent.delay_tail, SimDuration::from_millis(2));
        // One slow straggler is the tail of the recent view at once.
        feed(&mut est, &[264], 40.0, 100);
        assert_eq!(
            est.estimate_over(64).delay_tail,
            SimDuration::from_millis(40)
        );
        assert_eq!(est.estimate_over(usize::MAX), est.estimate());
    }

    #[test]
    fn delay_tail_is_the_nearest_rank_quantile() {
        let mut est = LinkQualityEstimator::new(256);
        // Delays 1..=200 ms in a scrambled order: q0.99 is the 198th.
        for seq in 0..200u64 {
            let sent = SimInstant::ZERO + SimDuration::from_millis(seq * 1_000);
            est.record(
                seq,
                sent,
                sent + SimDuration::from_millis((seq * 73) % 200 + 1),
            );
        }
        assert_eq!(est.estimate().delay_tail, SimDuration::from_millis(198));
    }

    #[test]
    fn from_parts_clamps_loss() {
        let q = LinkQuality::from_parts(2.0, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(q.loss_probability, 1.0);
        let q = LinkQuality::from_parts(-0.5, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(q.loss_probability, 0.0);
        assert_eq!(LinkQuality::default(), LinkQuality::conservative_prior());
        assert_eq!(LinkQuality::perfect().loss_probability, 0.0);
    }
}
