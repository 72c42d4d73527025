//! The transmission medium abstraction.
//!
//! The simulator asks the medium what happens to every message an actor
//! sends: is it dropped, and if not, how long does it take to arrive?
//! The simulator only depends on this small trait and ships no link model.
//! The one link model of the workspace is `sle-net`'s `SimulatedNetwork`:
//! the paper's full mesh of directed links (exponential delay, loss,
//! crash-prone overlay), per-link overrides, partitions and the chaos
//! overlays. A perfect link is `LinkSpec::perfect()`, a fixed delay `d` is
//! `LinkSpec::perfect().with_min_delay(d)`, and a delay step is
//! `SimulatedNetwork::set_default_link` between two runs of the world.

use crate::actor::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimInstant};

/// The fate of a transmitted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The message is lost and never delivered.
    Dropped,
    /// The message is delivered after `delay`.
    Deliver {
        /// Transmission delay from send to delivery.
        delay: SimDuration,
    },
}

impl Verdict {
    /// Convenience constructor for an immediate (zero-delay) delivery.
    pub fn immediate() -> Verdict {
        Verdict::Deliver {
            delay: SimDuration::ZERO,
        }
    }

    /// Returns true if the message is delivered.
    pub fn is_delivered(&self) -> bool {
        matches!(self, Verdict::Deliver { .. })
    }
}

/// The full fate of a transmitted message, including duplication.
///
/// [`Verdict`] can only express "lost" or "delivered once"; real networks
/// also *duplicate* datagrams (a retransmitting switch, a routing loop).
/// Media that model duplication implement [`Medium::transmit_fate`] and
/// return [`Fate::DeliverTwice`]; everything else keeps implementing
/// [`Medium::transmit`] and gets the equivalent single-delivery fate for
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message is lost and never delivered.
    Dropped,
    /// The message is delivered exactly once after `delay`.
    Deliver {
        /// Transmission delay from send to delivery.
        delay: SimDuration,
    },
    /// The network duplicated the message: two independent copies arrive.
    DeliverTwice {
        /// Delay of the first copy.
        first: SimDuration,
        /// Delay of the second copy (may be smaller than `first`, in which
        /// case the duplicate also reorders).
        second: SimDuration,
    },
}

impl Fate {
    /// Returns true if at least one copy is delivered.
    pub fn is_delivered(&self) -> bool {
        !matches!(self, Fate::Dropped)
    }

    /// Number of copies delivered (0, 1 or 2).
    pub fn copies(&self) -> usize {
        match self {
            Fate::Dropped => 0,
            Fate::Deliver { .. } => 1,
            Fate::DeliverTwice { .. } => 2,
        }
    }

    /// The delay of the first delivered copy, or `None` if dropped.
    pub fn first_delay(&self) -> Option<SimDuration> {
        match self {
            Fate::Dropped => None,
            Fate::Deliver { delay } | Fate::DeliverTwice { first: delay, .. } => Some(*delay),
        }
    }
}

impl From<Verdict> for Fate {
    fn from(v: Verdict) -> Fate {
        match v {
            Verdict::Dropped => Fate::Dropped,
            Verdict::Deliver { delay } => Fate::Deliver { delay },
        }
    }
}

/// Collapses a fate to the single-delivery view: duplication reduces to the
/// first copy.
impl From<Fate> for Verdict {
    fn from(fate: Fate) -> Verdict {
        match fate.first_delay() {
            None => Verdict::Dropped,
            Some(delay) => Verdict::Deliver { delay },
        }
    }
}

/// Decides the fate of every message sent through the simulated network.
///
/// Implementations may keep per-link state (e.g. whether a link is currently
/// "crashed") and advance it lazily using `now`.
pub trait Medium {
    /// Decides what happens to a `wire_bytes`-byte message sent from `from`
    /// to `to` at time `now`.
    fn transmit(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Verdict;

    /// Decides the full fate (including duplication) of a message.
    ///
    /// The default implementation delegates to [`Medium::transmit`], so only
    /// media that model duplication need to override it. The simulator's
    /// event loop calls this method, never `transmit` directly.
    fn transmit_fate(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Fate {
        self.transmit(now, from, to, wire_bytes, rng).into()
    }

    /// A lower bound on the delay of every delivered copy of every message,
    /// over the whole run and every `(from, to)` pair.
    ///
    /// This is the *lookahead* of a conservative parallel simulation (see
    /// [`par`](crate::par)): within a window of this width, no shard can
    /// receive a message sent inside the same window, so shards may advance
    /// through it independently. The bound must be conservative — returning
    /// a value larger than some actual delay breaks causality in the
    /// parallel driver; returning a smaller one only costs speed. The
    /// default, [`SimDuration::ZERO`], is always safe and makes the parallel
    /// driver fall back to sequential canonical-order execution.
    fn min_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::FixedDelay;

    /// The kernel's perfect test link: `FixedDelay(SimDuration::ZERO)`.
    #[test]
    fn perfect_medium_always_delivers_instantly() {
        let mut m = FixedDelay(SimDuration::ZERO);
        let mut rng = SimRng::seed_from(1);
        let v = m.transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 100, &mut rng);
        assert_eq!(
            v,
            Verdict::Deliver {
                delay: SimDuration::ZERO
            }
        );
        assert!(v.is_delivered());
    }

    #[test]
    fn fixed_delay_medium_uses_configured_delay() {
        let mut m = FixedDelay(SimDuration::from_millis(20));
        assert_eq!(m.0, SimDuration::from_millis(20));
        let mut rng = SimRng::seed_from(1);
        match m.transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 1, &mut rng) {
            Verdict::Deliver { delay } => assert_eq!(delay, SimDuration::from_millis(20)),
            Verdict::Dropped => panic!("fixed delay medium must not drop"),
        }
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::immediate().is_delivered());
        assert!(!Verdict::Dropped.is_delivered());
    }

    #[test]
    fn fate_helpers_and_conversion() {
        assert_eq!(Fate::Dropped.copies(), 0);
        assert!(!Fate::Dropped.is_delivered());
        let once = Fate::from(Verdict::immediate());
        assert_eq!(
            once,
            Fate::Deliver {
                delay: SimDuration::ZERO
            }
        );
        assert_eq!(once.copies(), 1);
        let twice = Fate::DeliverTwice {
            first: SimDuration::from_millis(1),
            second: SimDuration::from_millis(2),
        };
        assert!(twice.is_delivered());
        assert_eq!(twice.copies(), 2);
    }

    /// A medium that duplicates every message, used to exercise the
    /// default-vs-overridden `transmit_fate` path.
    struct AlwaysDuplicate;

    impl Medium for AlwaysDuplicate {
        fn transmit(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Verdict {
            Verdict::immediate()
        }

        fn transmit_fate(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Fate {
            Fate::DeliverTwice {
                first: SimDuration::ZERO,
                second: SimDuration::from_millis(1),
            }
        }
    }

    #[test]
    fn default_transmit_fate_delegates_and_overrides_stick_through_box() {
        let mut rng = SimRng::seed_from(1);
        let mut plain = FixedDelay(SimDuration::ZERO);
        assert_eq!(
            plain.transmit_fate(SimInstant::ZERO, NodeId(0), NodeId(1), 1, &mut rng),
            Fate::Deliver {
                delay: SimDuration::ZERO
            }
        );
        let mut boxed: Box<dyn Medium> = Box::new(AlwaysDuplicate);
        assert_eq!(
            boxed
                .transmit_fate(SimInstant::ZERO, NodeId(0), NodeId(1), 1, &mut rng)
                .copies(),
            2
        );
    }

    #[test]
    fn min_delay_is_the_conservative_lookahead_bound() {
        // A medium that promises nothing inherits the always-safe zero bound.
        assert_eq!(AlwaysDuplicate.min_delay(), SimDuration::ZERO);
        let floored = FixedDelay(SimDuration::from_millis(3));
        assert_eq!(floored.min_delay(), SimDuration::from_millis(3));
    }
}
