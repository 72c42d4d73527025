//! The failure detector alone over a synthetic link: NFD-S as the paper
//! configures it (static tuning, `T_D^U` = 1 s), driven through
//! `FailureDetector` by a sender that honours the requested η, over a link
//! with `LinkSpec`'s exponential delay and i.i.d. loss at the two lossy
//! tuples of Figure 5. The sender crash-stops every couple of minutes on
//! average and resumes two seconds later; 100 virtual hours per tuple.
//!
//! Every crash must be detected within `T_D^U` plus the allowance stated in
//! [`ALLOWANCE`]. Mistakes (a suspicion while the sender is up) are
//! reported against `T_MR^L` (100 days), not asserted:
//!
//! ```text
//! cargo test --release --test detector_alone -- --nocapture
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sle_fd::{FailureDetector, QosSpec, Transition};
use sle_net::LinkSpec;
use sle_sim::actor::NodeId;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

/// Virtual hours per tuple.
const HOURS: u64 = 100;
/// Mean uptime of the sender between crashes.
const UPTIME: SimDuration = SimDuration::from_secs(120);
/// How long a crashed sender stays down: past any detection.
const DOWNTIME: SimDuration = SimDuration::from_secs(2);
/// Mistakes in the first minute (the detector still on its prior) are not
/// counted.
const WARMUP: SimDuration = SimDuration::from_secs(60);
/// What a detection may take beyond `T_D^U`: nothing. The detector is
/// polled at its deadline, and the horizon of the last heartbeat sent
/// before the crash is at most η + δ = `T_D^U` past its send time, since
/// the sender declares the η it was asked for and the static policy pins
/// η + δ to `T_D^U` — unless η shrank between that heartbeat and the next
/// re-derivation, which the test would then have to allow for.
const ALLOWANCE: SimDuration = SimDuration::ZERO;

/// What one tuple's run saw.
struct Run {
    /// Detection times, one per crash of a trusted sender.
    detections: Vec<SimDuration>,
    /// Suspicions of a sender that was up, after the warm-up.
    mistakes: u64,
    /// Hours the sender was up after the warm-up.
    up_hours: f64,
}

/// One run of `HOURS` over `link`.
fn run(link: LinkSpec, seed: u64) -> Run {
    const PEER: NodeId = NodeId(1);
    let qos = QosSpec::paper_default();
    let mut rng = SimRng::seed_from(seed);
    let mut fd = FailureDetector::new(qos);
    let start = SimInstant::ZERO;
    let end = start + SimDuration::from_secs(HOURS * 3600);
    fd.ensure_peer(PEER, start);
    // Heartbeats in flight: (arrival, seq, sent_at, declared η).
    let mut in_flight: BinaryHeap<Reverse<(SimInstant, u64, SimInstant, SimDuration)>> =
        BinaryHeap::new();
    let (mut seq, mut next_send) = (0u64, start);
    let mut crash_at = start + rng.exponential(UPTIME);
    let mut crashed: Option<(SimInstant, bool)> = None;
    let (mut detections, mut mistakes, mut up) = (Vec::new(), 0, SimDuration::ZERO);
    let mut now = start;
    while now < end {
        let arrival = in_flight.peek().map_or(SimInstant::FAR_FUTURE, |e| e.0 .0);
        let deadline = fd.next_deadline().unwrap_or(SimInstant::FAR_FUTURE);
        let sender = match crashed {
            Some((at, _)) => at + DOWNTIME,
            None => next_send.min(crash_at),
        };
        let next = arrival.min(deadline).min(sender);
        if crashed.is_none() {
            up += next.saturating_since(now.max(start + WARMUP));
        }
        now = next;
        let mut suspected = Vec::new();
        if now == arrival {
            let Reverse((_, hb, sent_at, eta)) = in_flight.pop().unwrap();
            fd.on_heartbeat(PEER, hb, sent_at, eta, now);
            // What the node's detector timer does on every fire it walks.
            suspected.extend(fd.poll(now));
        } else if now == deadline {
            suspected.extend(fd.poll(now));
        } else if let Some((at, _)) = crashed.filter(|&(at, _)| now == at + DOWNTIME) {
            debug_assert!(at < now);
            crashed = None;
            next_send = now;
            crash_at = now + rng.exponential(UPTIME);
        } else if now == crash_at {
            // A sender already suspected at its crash has nothing to detect.
            crashed = Some((now, fd.is_trusted(PEER)));
        } else {
            // The sender sends at the interval it is asked for, and says so.
            let eta = fd.requested_interval(PEER).expect("monitored");
            if let Some(delay) = link.sample(&mut rng) {
                in_flight.push(Reverse((now + delay, seq, now, eta)));
            }
            seq += 1;
            next_send = now + eta;
        }
        for transition in suspected {
            assert_eq!(transition.transition, Transition::BecameSuspected);
            match &mut crashed {
                Some((at, detectable @ true)) => {
                    detections.push(now - *at);
                    *detectable = false;
                }
                Some(_) => {}
                None if now >= start + WARMUP => mistakes += 1,
                None => {}
            }
        }
    }
    Run {
        detections,
        mistakes,
        up_hours: up.as_secs_f64() / 3600.0,
    }
}

#[test]
fn the_detector_alone_detects_every_crash_within_its_bound() {
    let tuples = [(100.0, 0.1, 0x100A), (10.0, 0.1, 0x10A)];
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (tuples.iter())
            .map(|&(delay, loss, seed)| {
                scope.spawn(move || run(LinkSpec::from_paper_tuple(delay, loss), seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let bound = QosSpec::paper_default().detection_time() + ALLOWANCE;
    let t_mr_hours = QosSpec::paper_default().mistake_recurrence().as_secs_f64() / 3600.0;
    for (&(delay, loss, _), run) in tuples.iter().zip(&runs) {
        let worst = run.detections.iter().max().copied().unwrap_or_default();
        let mean = run.detections.iter().map(|d| d.as_secs_f64()).sum::<f64>()
            / run.detections.len().max(1) as f64;
        let per_hour = run.mistakes as f64 / run.up_hours;
        println!(
            "({delay} ms, {loss}): {} crashes detected, mean {mean:.3} s, worst {worst}; \
             {} mistakes in {:.1} h up = {per_hour:.3}/h (T_MR^L: one per {t_mr_hours:.0} h)",
            run.detections.len(),
            run.mistakes,
            run.up_hours,
        );
        assert!(
            run.detections.len() > 1_000,
            "{} crashes",
            run.detections.len()
        );
        assert!(
            worst <= bound,
            "({delay} ms, {loss}): a detection took {worst}"
        );
    }
}
