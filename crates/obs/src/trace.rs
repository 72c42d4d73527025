//! The protocol event trace: a fixed-capacity, never-blocking ring buffer.
//!
//! Every runtime records the same structured [`ProtoEvent`] vocabulary —
//! leader changes, accusations, membership churn, datagram drops — into a
//! [`TraceRing`]. Writers pay one atomic fetch-add plus one `try_lock` on a
//! private slot and **never block**: under contention or overflow the event
//! is sacrificed and shows up as a sequence gap at drain time, so tracing
//! can stay on in production paths.
//!
//! Draining returns events in sequence order together with the number of
//! events lost since the previous drain (the gap marker). `sle-chaos`
//! converts drained records into its trace-replay vocabulary, so the same
//! invariant checker that judges simulated chaos runs accepts live runtime
//! traces.
//!
//! Event fields use raw ids (`u32` node/group numbers, `(node, local)`
//! process pairs) rather than the service's typed ids: the trace vocabulary
//! sits *below* the service crates so every layer — UDP reader threads
//! included — can record into it.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sle_sim::time::SimInstant;
use sle_sim::NodeId;

/// Why a transport discarded an incoming or outgoing datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The datagram exceeded the transport's size budget.
    Oversized,
    /// The datagram failed to decode.
    Malformed,
    /// The datagram came from (or was addressed to) an unknown peer.
    Misaddressed,
    /// The outgoing message could not be encoded.
    Unencodable,
    /// A multi-record datagram ended mid-record (shared-socket demux
    /// framing; see `sle-udp`'s `SharedUdpPlane`).
    Truncated,
    /// The record's destination node is not resident behind the receiving
    /// socket (stale address book, or a peer that has since left).
    Misrouted,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Oversized => "oversized",
            DropReason::Malformed => "malformed",
            DropReason::Misaddressed => "misaddressed",
            DropReason::Unencodable => "unencodable",
            DropReason::Truncated => "truncated",
            DropReason::Misrouted => "misrouted",
        };
        f.write_str(s)
    }
}

/// A structured protocol event. One vocabulary for every runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A node's announced leader for a group changed. The leader is a
    /// `(node, local_process)` pair, or `None` when leadership was lost.
    LeaderChange {
        /// Raw group id.
        group: u32,
        /// New leader as a `(node, local_process)` pair, if any.
        leader: Option<(u32, u32)>,
    },
    /// The failure detector suspected a peer and an accusation was sent.
    Accusation {
        /// Raw group id.
        group: u32,
        /// The suspected peer's node id.
        accused: u32,
    },
    /// A protocol timer fired. Only low-rate timers (e.g. election grace
    /// periods) are traced; per-heartbeat timers would flood the ring.
    TimerFired {
        /// The runtime's timer-kind discriminant (`TimerTag >> 32`).
        kind: u32,
    },
    /// A transport dropped a datagram.
    DatagramDropped {
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A local process joined a group.
    Join {
        /// Raw group id.
        group: u32,
    },
    /// A local process left a group.
    Leave {
        /// Raw group id.
        group: u32,
    },
    /// A workstation was crashed (by an operator, a fault plan, or a test).
    Crashed,
    /// A previously crashed workstation recovered.
    Recovered,
}

impl fmt::Display for ProtoEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoEvent::LeaderChange { group, leader } => match leader {
                Some((n, p)) => write!(f, "leader-change g{group} -> n{n}.p{p}"),
                None => write!(f, "leader-change g{group} -> none"),
            },
            ProtoEvent::Accusation { group, accused } => {
                write!(f, "accusation g{group} accused n{accused}")
            }
            ProtoEvent::TimerFired { kind } => write!(f, "timer-fired kind {kind}"),
            ProtoEvent::DatagramDropped { reason } => write!(f, "datagram-dropped ({reason})"),
            ProtoEvent::Join { group } => write!(f, "join g{group}"),
            ProtoEvent::Leave { group } => write!(f, "leave g{group}"),
            ProtoEvent::Crashed => write!(f, "crashed"),
            ProtoEvent::Recovered => write!(f, "recovered"),
        }
    }
}

/// One recorded event: who, when, what, plus its global sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in this ring's total event order (0-based, gap-free at the
    /// writer; gaps at the reader mean overwritten or sacrificed events).
    pub seq: u64,
    /// When the event happened, on the recording runtime's timeline.
    pub at: SimInstant,
    /// The workstation the event concerns.
    pub node: NodeId,
    /// What happened.
    pub event: ProtoEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] {} n{} {}",
            self.seq, self.at, self.node.0, self.event
        )
    }
}

/// The result of draining a ring: in-order events plus the gap marker.
#[derive(Clone, Debug, Default)]
pub struct TraceDrain {
    /// Events in ascending sequence order.
    pub events: Vec<TraceRecord>,
    /// Number of events lost since the previous drain (ring overflow or a
    /// writer that lost its slot race). Zero means the trace is complete.
    pub dropped: u64,
}

struct RingInner {
    seq: AtomicU64,
    /// Sequence number up to which events have already been drained; a
    /// subsequent drain reports anything older as part of the gap.
    drained_to: AtomicU64,
    slots: Vec<Mutex<Option<TraceRecord>>>,
}

/// A fixed-capacity ring of [`TraceRecord`]s shared by many writers.
///
/// Cloning is cheap and shares the buffer — the sharded runtime hands one
/// clone to every resident of a shard.
///
/// ```
/// use sle_obs::trace::{ProtoEvent, TraceRing};
/// use sle_sim::{NodeId, SimInstant};
///
/// let ring = TraceRing::new(8);
/// ring.push(NodeId(0), SimInstant::ZERO, ProtoEvent::Join { group: 1 });
/// let drain = ring.drain();
/// assert_eq!(drain.events.len(), 1);
/// assert_eq!(drain.dropped, 0);
/// ```
#[derive(Clone)]
pub struct TraceRing {
    inner: Arc<RingInner>,
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceRing(capacity {}, pushed {})",
            self.inner.slots.len(),
            self.inner.seq.load(Ordering::Relaxed)
        )
    }
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            inner: Arc::new(RingInner {
                seq: AtomicU64::new(0),
                drained_to: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            }),
        }
    }

    /// Number of events pushed over the ring's lifetime.
    pub fn pushed(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Records an event. Never blocks: if the slot is being drained (or
    /// raced by a slower writer) the event is dropped and the drain-side
    /// gap accounting picks it up.
    pub fn push(&self, node: NodeId, at: SimInstant, event: ProtoEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.write(seq, node, at, event);
    }

    /// Stores event `seq` in its slot, unless the slot is locked or holds a
    /// newer lap: the second half of [`TraceRing::push`].
    fn write(&self, seq: u64, node: NodeId, at: SimInstant, event: ProtoEvent) {
        let slot = (seq % self.inner.slots.len() as u64) as usize;
        if let Ok(mut guard) = self.inner.slots[slot].try_lock() {
            // An older event may still occupy the slot; overwriting it is
            // the ring discipline — it becomes part of the gap.
            match *guard {
                Some(existing) if existing.seq > seq => {} // lost the race to a newer lap
                _ => {
                    *guard = Some(TraceRecord {
                        seq,
                        at,
                        node,
                        event,
                    })
                }
            }
        }
    }

    /// Removes and returns all retained events in sequence order, plus the
    /// number lost since the previous drain.
    ///
    /// The drain accounts for every event numbered below the ring's count
    /// as read before collecting: each is returned or counted lost. One
    /// that lands at or above it while the drain runs stays in its slot
    /// for the next drain, so an event sacrificed to this drain's slot lock
    /// is counted even when no later event is retained.
    pub fn drain(&self) -> TraceDrain {
        let from = self.inner.drained_to.load(Ordering::Relaxed);
        let to = self.inner.seq.load(Ordering::Relaxed).max(from);
        let mut events = self.collect(from..to, true);
        events.sort_by_key(|r| r.seq);
        let dropped = (to - from) - events.len() as u64;
        self.inner.drained_to.store(to, Ordering::Relaxed);
        TraceDrain { events, dropped }
    }

    /// Returns (without removing) the most recent `n` retained events in
    /// sequence order — the “last N events” view failure reports print.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let from = self.inner.drained_to.load(Ordering::Relaxed);
        let mut events = self.collect(from..u64::MAX, false);
        events.sort_by_key(|r| r.seq);
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }

    /// The retained events numbered in `range`. With `take`, clears their
    /// slots and every slot holding an event below it (already accounted).
    fn collect(&self, range: Range<u64>, take: bool) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.inner.slots.len());
        for slot in &self.inner.slots {
            let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
            let Some(record) = *guard else { continue };
            if range.contains(&record.seq) {
                out.push(record);
            }
            if take && record.seq < range.end {
                *guard = None;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(g: u32) -> ProtoEvent {
        ProtoEvent::Join { group: g }
    }

    #[test]
    fn in_order_no_overflow() {
        let ring = TraceRing::new(16);
        for i in 0..10 {
            ring.push(NodeId(i), SimInstant::from_nanos(i as u64), ev(i));
        }
        let drain = ring.drain();
        assert_eq!(drain.dropped, 0);
        let seqs: Vec<_> = drain.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        // A second drain sees nothing new.
        let again = ring.drain();
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 0);
    }

    #[test]
    fn overflow_reports_a_gap() {
        let ring = TraceRing::new(4);
        for i in 0..10u32 {
            ring.push(NodeId(0), SimInstant::ZERO, ev(i));
        }
        let drain = ring.drain();
        assert_eq!(drain.events.len(), 4);
        assert_eq!(drain.dropped, 6);
        assert_eq!(
            drain.events.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn tail_is_non_destructive() {
        let ring = TraceRing::new(8);
        for i in 0..5u32 {
            ring.push(NodeId(0), SimInstant::ZERO, ev(i));
        }
        let tail = ring.tail(2);
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(ring.drain().events.len(), 5);
    }

    #[test]
    fn drain_then_overflow_accounts_from_last_drain() {
        let ring = TraceRing::new(4);
        for i in 0..3u32 {
            ring.push(NodeId(0), SimInstant::ZERO, ev(i));
        }
        assert_eq!(ring.drain().dropped, 0);
        for i in 0..6u32 {
            ring.push(NodeId(0), SimInstant::ZERO, ev(i));
        }
        let drain = ring.drain();
        assert_eq!(drain.events.len(), 4);
        assert_eq!(drain.dropped, 2);
    }

    #[test]
    fn an_event_sacrificed_to_a_drain_is_counted_when_an_older_one_lands_late() {
        // Two writers and a drain, one step at a time: writer A takes seq 1
        // and stalls before storing it; writer B takes seq 2 while the drain
        // holds its slot, so B's event is lost; the drain ends; A stores seq
        // 1; the ring is drained again. Ending the first drain's gap at the
        // newest retained event (seq 0) would leave seq 2 counted nowhere.
        let ring = TraceRing::new(8);
        ring.push(NodeId(0), SimInstant::ZERO, ev(0));
        let stalled = ring.inner.seq.fetch_add(1, Ordering::Relaxed);
        {
            let _drain_visits = ring.inner.slots[2].lock().unwrap();
            ring.push(NodeId(0), SimInstant::ZERO, ev(2));
        }
        let first = ring.drain();
        ring.write(stalled, NodeId(0), SimInstant::ZERO, ev(1));
        let second = ring.drain();
        assert_eq!(first.events.iter().map(|r| r.seq).collect::<Vec<_>>(), [0]);
        assert_eq!(first.dropped, 2, "seq 1 and 2 were not retained");
        // Seq 1 was already counted lost: storing it late re-delivers nothing.
        assert!(second.events.is_empty());
        assert_eq!(second.dropped, 0);
        let seen = (first.events.len() + second.events.len()) as u64;
        assert_eq!(seen + first.dropped + second.dropped, ring.pushed());
    }

    #[test]
    fn display_is_human_readable() {
        let r = TraceRecord {
            seq: 7,
            at: SimInstant::from_secs_f64(1.5),
            node: NodeId(3),
            event: ProtoEvent::LeaderChange {
                group: 1,
                leader: Some((2, 0)),
            },
        };
        let s = r.to_string();
        assert!(s.contains("n3"), "{s}");
        assert!(s.contains("leader-change g1 -> n2.p0"), "{s}");
        assert_eq!(
            ProtoEvent::DatagramDropped {
                reason: DropReason::Malformed
            }
            .to_string(),
            "datagram-dropped (malformed)"
        );
    }
}
