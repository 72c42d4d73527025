//! Replay probes: timed loops over a layer's public functions, run after the
//! window on inputs the seam probes set aside from *that* workload (or, for
//! the capacity probes, on a fresh instance of the layer).
//!
//! Each returns nanoseconds per operation (or operations per second). Calls
//! long enough to batch are timed around the whole loop; the few that must
//! be timed one by one have the clock's own cost subtracted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sle_core::ServiceMessage;
use sle_election::{AnyElector, ElectorKind, LeaderElector};
use sle_fd::{FailureDetector, QosSpec};
use sle_net::mailbox::Mailbox;
use sle_net::transport::MessageEndpoint;
use sle_obs::Histogram;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::wheel::EventWheel;
use sle_udp::SharedUdpPlane;
use sle_wire::{decode_frame, encode_frame};

use crate::ledger::now_ns;
use crate::probes::samples::Seen;
use crate::probes::Kind;
use crate::runner::clock_overhead_ns;

/// `EventWheel` costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WheelCosts {
    /// Nanoseconds per `push`.
    pub push_ns: f64,
    /// Nanoseconds per `pop`.
    pub pop_ns: f64,
}

/// Replays recorded `(pushed at, due at)` pairs into a fresh `EventWheel`
/// the way the simulator loop would: before each push, everything due by
/// the push instant is popped.
pub fn wheel(deadlines: &[(u64, u64)]) -> WheelCosts {
    if deadlines.len() < 1000 {
        return WheelCosts::default();
    }
    let clock = clock_overhead_ns() / 2.0;
    let mut wheel: EventWheel<u32> = EventWheel::new();
    let (mut push_ns, mut pushes, mut pop_ns, mut pops) = (0u64, 0u64, 0u64, 0u64);
    for (seq, &(pushed, due)) in deadlines.iter().enumerate() {
        let pushed_at = SimInstant::from_nanos(pushed);
        while wheel.peek_time().is_some_and(|next| next <= pushed_at) {
            let t0 = now_ns();
            let popped = wheel.pop();
            pop_ns += now_ns() - t0;
            pops += 1;
            std::hint::black_box(popped);
        }
        let t0 = now_ns();
        wheel.push(
            SimInstant::from_nanos(due.max(pushed)),
            seq as u64,
            seq as u32,
        );
        push_ns += now_ns() - t0;
        pushes += 1;
    }
    while !wheel.is_empty() {
        let t0 = now_ns();
        let popped = wheel.pop();
        pop_ns += now_ns() - t0;
        pops += 1;
        std::hint::black_box(popped);
    }
    WheelCosts {
        push_ns: (push_ns as f64 / pushes.max(1) as f64 - clock).max(0.0),
        pop_ns: (pop_ns as f64 / pops.max(1) as f64 - clock).max(0.0),
    }
}

/// One heartbeat as a failure detector sees it.
struct Heartbeat {
    peer: NodeId,
    seq: u64,
    sent_at: SimInstant,
    interval: SimDuration,
    now: SimInstant,
}

/// The heartbeats an ALIVE-carrying message amounts to (one per message:
/// a batch shares one sequence number and timestamp).
fn heartbeat_of(seen: &Seen) -> Option<Heartbeat> {
    match &seen.msg {
        ServiceMessage::Alive { header, .. } => Some(Heartbeat {
            peer: seen.from,
            seq: header.seq,
            sent_at: header.sent_at,
            interval: header.sending_interval,
            now: seen.at.max(header.sent_at),
        }),
        ServiceMessage::AliveBatch {
            seq,
            sent_at,
            alives,
            ..
        } => alives.first().map(|first| Heartbeat {
            peer: seen.from,
            seq: *seq,
            sent_at: *sent_at,
            interval: first.sending_interval,
            now: seen.at.max(*sent_at),
        }),
        _ => None,
    }
}

/// `FailureDetector` costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectorCosts {
    /// Nanoseconds per `on_heartbeat`.
    pub on_heartbeat_ns: f64,
    /// Nanoseconds per `poll`.
    pub poll_ns: f64,
}

/// Replays each kept receiver's heartbeat stream into a `FailureDetector`
/// of its own, then polls it.
pub fn detector(streams: &[(NodeId, Vec<Seen>)], detection: SimDuration) -> DetectorCosts {
    let qos = QosSpec::paper_default_with_detection(detection);
    let (mut beat_ns, mut beats, mut poll_ns, mut polls) = (0u128, 0u64, 0u128, 0u64);
    for (_, stream) in streams {
        let heartbeats: Vec<Heartbeat> = stream.iter().filter_map(heartbeat_of).collect();
        let Some(last) = heartbeats.last().map(|h| h.now) else {
            continue;
        };
        let mut fd = FailureDetector::new(qos);
        let start = Instant::now();
        for h in &heartbeats {
            std::hint::black_box(fd.on_heartbeat(h.peer, h.seq, h.sent_at, h.interval, h.now));
        }
        beat_ns += start.elapsed().as_nanos();
        beats += heartbeats.len() as u64;
        let rounds = 2_000;
        let start = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(fd.poll(std::hint::black_box(last)));
        }
        poll_ns += start.elapsed().as_nanos();
        polls += rounds;
    }
    // Zero calls leave zero nanoseconds: the ratios read 0 without samples.
    DetectorCosts {
        on_heartbeat_ns: beat_ns as f64 / beats.max(1) as f64,
        poll_ns: poll_ns as f64 / polls.max(1) as f64,
    }
}

/// `AnyElector` costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ElectorCosts {
    /// Nanoseconds per `on_alive`.
    pub on_alive_ns: f64,
    /// Nanoseconds per `on_suspect`.
    pub on_suspect_ns: f64,
}

/// Replays each kept receiver's ALIVE payloads into one Ω_l elector per
/// group, then has every elector suspect (and trust again) each peer it
/// heard from.
pub fn elector(streams: &[(NodeId, Vec<Seen>)]) -> ElectorCosts {
    let clock = clock_overhead_ns() / 2.0;
    let (mut alive_ns, mut alives, mut suspect_ns, mut suspects) = (0u128, 0u64, 0u64, 0u64);
    for (receiver, stream) in streams {
        let mut inputs = Vec::new();
        for seen in stream {
            match &seen.msg {
                ServiceMessage::Alive { group, payload, .. } => {
                    inputs.push((*group, seen.from, *payload, seen.at));
                }
                ServiceMessage::AliveBatch { alives, .. } => {
                    for alive in alives {
                        inputs.push((alive.group, seen.from, alive.payload, seen.at));
                    }
                }
                _ => {}
            }
        }
        if inputs.is_empty() {
            continue;
        }
        let mut electors: HashMap<_, AnyElector> = HashMap::new();
        for &(group, ..) in &inputs {
            electors.entry(group).or_insert_with(|| {
                AnyElector::new(ElectorKind::OmegaL, *receiver, true, SimInstant::ZERO)
            });
        }
        let start = Instant::now();
        for &(group, from, payload, at) in &inputs {
            if let Some(elector) = electors.get_mut(&group) {
                elector.on_alive(from, payload, at);
            }
        }
        alive_ns += start.elapsed().as_nanos();
        alives += inputs.len() as u64;
        let mut heard: Vec<_> = inputs
            .iter()
            .map(|&(g, from, _, at)| (g, from, at))
            .collect();
        heard.sort_by_key(|&(g, from, _)| (g, from));
        heard.dedup_by_key(|&mut (g, from, _)| (g, from));
        for _ in 0..8 {
            for &(group, peer, at) in &heard {
                let Some(elector) = electors.get_mut(&group) else {
                    continue;
                };
                let t0 = now_ns();
                let out = elector.on_suspect(peer, at);
                suspect_ns += now_ns() - t0;
                suspects += 1;
                std::hint::black_box(out);
                elector.on_trust(peer, at);
            }
        }
    }
    ElectorCosts {
        on_alive_ns: alive_ns as f64 / alives.max(1) as f64,
        on_suspect_ns: if suspects > 0 {
            (suspect_ns as f64 / suspects as f64 - clock).max(0.0)
        } else {
            0.0
        },
    }
}

/// Nanoseconds per `Histogram::record` (a timed loop over a spread of
/// values, so every bucket range is touched).
pub fn histogram_record_ns() -> f64 {
    let histogram = Histogram::new();
    let rounds = 2_000_000u64;
    let start = Instant::now();
    let mut value = 1u64;
    for _ in 0..rounds {
        histogram.record(std::hint::black_box(value));
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1)
            >> 20;
    }
    let per = start.elapsed().as_nanos() as f64 / rounds as f64;
    std::hint::black_box(histogram.snapshot());
    per
}

/// Codec costs by message kind, from the sample an endpoint probe kept.
#[derive(Debug, Default)]
pub struct CodecCosts {
    /// Nanoseconds per `encode_frame`, by kind.
    pub encode_ns: HashMap<Kind, f64>,
    /// Nanoseconds per `decode_frame`, by kind.
    pub decode_ns: HashMap<Kind, f64>,
    /// Mean frame length over the uniform sample of all messages.
    pub bytes_per_msg: f64,
}

/// Replays the sampled messages through `encode_frame` / `decode_frame`.
pub fn codec(per_kind: &HashMap<Kind, Vec<Seen>>, uniform: &[Seen]) -> CodecCosts {
    let mut costs = CodecCosts::default();
    for (&kind, sample) in per_kind {
        if sample.is_empty() {
            continue;
        }
        // Enough rounds that the loop runs for milliseconds.
        let rounds = (200_000 / sample.len()).max(1);
        let start = Instant::now();
        let mut frames = Vec::with_capacity(sample.len());
        for round in 0..rounds {
            for seen in sample {
                let frame = encode_frame(seen.from, std::hint::black_box(&seen.msg));
                if round == 0 {
                    frames.push(frame);
                } else {
                    std::hint::black_box(&frame);
                }
            }
        }
        let calls = (rounds * sample.len()) as f64;
        costs
            .encode_ns
            .insert(kind, start.elapsed().as_nanos() as f64 / calls);
        let frames: Vec<Vec<u8>> = frames.into_iter().filter_map(Result::ok).collect();
        if frames.is_empty() {
            continue;
        }
        let start = Instant::now();
        for _ in 0..rounds {
            for frame in &frames {
                std::hint::black_box(decode_frame::<ServiceMessage>(std::hint::black_box(frame)))
                    .ok();
            }
        }
        costs.decode_ns.insert(
            kind,
            start.elapsed().as_nanos() as f64 / (rounds * frames.len()) as f64,
        );
    }
    let sizes: Vec<usize> = uniform
        .iter()
        .filter_map(|seen| encode_frame(seen.from, &seen.msg).ok())
        .map(|frame| frame.len())
        .collect();
    if !sizes.is_empty() {
        costs.bytes_per_msg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    }
    costs
}

/// Nanoseconds for one cross-thread `MailboxSender::push` →
/// `Mailbox::wait_until` hand-off: two threads ping-pong through two
/// mailboxes; a round trip is two hand-offs.
pub fn mailbox_handoff_ns() -> f64 {
    let ping: Mailbox<u64> = Mailbox::new();
    let pong: Mailbox<u64> = Mailbox::new();
    let to_ping = ping.sender();
    let to_pong = pong.sender();
    let rounds = 20_000u64;
    let echo = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let mut seen = 0;
        while seen < rounds {
            ping.wait_until(None, &mut buf);
            for item in buf.drain(..) {
                seen += 1;
                to_pong.push(item);
            }
        }
    });
    let mut buf = Vec::new();
    let start = Instant::now();
    for i in 0..rounds {
        to_ping.push(i);
        while buf.is_empty() {
            pong.wait_until(None, &mut buf);
        }
        buf.clear();
    }
    let elapsed = start.elapsed();
    echo.join().expect("mailbox echo thread");
    elapsed.as_nanos() as f64 / (2 * rounds) as f64
}

/// Records per second a fresh two-socket plane carries when one endpoint
/// sends as fast as it can and the other echoes every record back —
/// capacity, independent of the protocol's offered load.
pub fn plane_echo_records_per_s(run_for: Duration) -> f64 {
    let Ok(plane) = SharedUdpPlane::<u64>::bind_loopback(2, 2) else {
        return 0.0;
    };
    let mut endpoints = plane.endpoints();
    let b = endpoints.pop().expect("two endpoints");
    let a = endpoints.pop().expect("two endpoints");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(incoming) = b.recv_timeout(Duration::from_millis(5)) {
                    let _ = b.send(incoming.from, incoming.msg);
                }
            }
        }
    });
    // A window of outstanding records keeps both directions busy without
    // overrunning the socket buffers.
    let window = 64u64;
    let (mut sent, mut echoed) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < run_for {
        while sent - echoed < window {
            let _ = a.send(NodeId(1), sent);
            sent += 1;
        }
        match a.recv_timeout(Duration::from_millis(20)) {
            Some(_) => echoed += 1,
            // A datagram was lost on loopback: forget the stragglers.
            None => echoed = sent,
        }
        while a.try_recv().is_some() {
            echoed += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    echo.join().expect("plane echo thread");
    // Each echoed record crossed the plane twice.
    2.0 * echoed as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::{GroupAlive, GroupId, ProcessId};
    use sle_election::AlivePayload;

    fn batch(from: u32, seq: u64, at_ms: u64) -> Seen {
        let at = SimInstant::ZERO + SimDuration::from_millis(at_ms);
        Seen {
            from: NodeId(from),
            at,
            msg: ServiceMessage::AliveBatch {
                incarnation: 0,
                seq,
                sent_at: at,
                alives: vec![GroupAlive {
                    group: GroupId(1),
                    sending_interval: SimDuration::from_millis(250),
                    requested_interval: SimDuration::from_millis(250),
                    payload: AlivePayload {
                        accusation_time: SimInstant::ZERO,
                        epoch: 0,
                        local_leader: None,
                    },
                    representative: ProcessId::new(NodeId(from), 0),
                }],
            },
        }
    }

    #[test]
    fn replays_run_on_sampled_inputs_and_report_zero_without_them() {
        assert_eq!(wheel(&[]).push_ns, 0.0);
        let deadlines: Vec<(u64, u64)> = (0..5000u64)
            .map(|i| (i * 1_000, i * 1_000 + 250_000_000))
            .collect();
        let costs = wheel(&deadlines);
        assert!(costs.push_ns > 0.0 || costs.pop_ns > 0.0);

        let none = detector(&[], SimDuration::from_secs(1));
        assert_eq!((none.on_heartbeat_ns, none.poll_ns), (0.0, 0.0));
        let stream: Vec<Seen> = (0..400)
            .map(|i| batch(1 + (i % 3) as u32, i / 3, i * 80))
            .collect();
        let streams = vec![(NodeId(0), stream)];
        let fd = detector(&streams, SimDuration::from_secs(1));
        assert!(fd.on_heartbeat_ns > 0.0 && fd.poll_ns > 0.0);
        let el = elector(&streams);
        assert!(el.on_alive_ns > 0.0 && el.on_suspect_ns >= 0.0);
        assert_eq!(elector(&[]).on_alive_ns, 0.0);

        let mut per_kind = HashMap::new();
        per_kind.insert(Kind::AliveBatch, streams[0].1[..8].to_vec());
        let codec = codec(&per_kind, &streams[0].1[..8]);
        assert!(codec.encode_ns[&Kind::AliveBatch] > 0.0);
        assert!(codec.decode_ns[&Kind::AliveBatch] > 0.0);
        assert!(codec.bytes_per_msg > 40.0);
        assert!(histogram_record_ns() > 0.0);
    }

    #[test]
    fn capacity_probes_move_records() {
        assert!(mailbox_handoff_ns() > 0.0);
        assert!(plane_echo_records_per_s(Duration::from_millis(100)) > 100.0);
    }
}
