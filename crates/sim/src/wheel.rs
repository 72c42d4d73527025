//! A hierarchical timer wheel: the event queue of the [`World`].
//!
//! The simulator used to keep every pending event in one sorted timeline (a
//! binary heap), paying `O(log n)` per schedule and per pop. At the scale
//! the ROADMAP targets — thousands of groups, each arming heartbeat and
//! failure-detector timers — the heap becomes the hot path of the whole
//! simulation. An [`EventWheel`] replaces it with the classic hashed
//! hierarchical timer wheel (Varghese & Lauck, SOSP '87): scheduling is
//! `O(1)` (a shift, a mask, a `Vec::push`), cancellation stays the lazy
//! generation-check it always was, and popping amortises to `O(1)` through
//! per-level occupancy bitmaps (one `u64` per level, so "find the next
//! non-empty slot" is a single `trailing_zeros`).
//!
//! Determinism is preserved exactly: events are delivered in `(time, seq)`
//! order, the same total order the sorted timeline produced, so any
//! execution replays identically after the swap.
//!
//! # Geometry
//!
//! One tick is 2¹⁶ ns (≈ 65.5 µs). Eight levels of 64 slots each cover
//! 64⁸ ticks = 2⁴⁸ ticks = the entire `u64` nanosecond range, so there is
//! no overflow list: even a timer armed for [`SimInstant::FAR_FUTURE`]
//! lands in a (top-level) slot.
//!
//! [`World`]: crate::world::World
//! [`SimInstant::FAR_FUTURE`]: crate::time::SimInstant::FAR_FUTURE

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::actor::TimerTag;
use crate::dense::TagMap;
use crate::time::SimInstant;

/// log2 of the tick length in nanoseconds (one tick = 65 536 ns).
const TICK_BITS: u32 = 16;
/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; `64^8` ticks of 2^16 ns span the whole u64 range.
const LEVELS: usize = 8;

fn tick_of(at: SimInstant) -> u64 {
    at.as_nanos() >> TICK_BITS
}

/// An event stored in the wheel.
#[derive(Debug)]
struct Entry<T> {
    at: SimInstant,
    seq: u64,
    item: T,
}

/// An entry ordered earliest-`(time, seq)`-first. Slots hold them in this
/// form too, so a drained level-0 slot becomes the heap without a copy.
struct Pending<T>(Entry<T>);

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // `(time, seq)` on top.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A hierarchical timer wheel holding `(time, seq, item)` events and
/// yielding them in `(time, seq)` order.
///
/// `seq` is the caller's insertion counter; it breaks ties between events
/// scheduled for the same instant, which is what makes the simulation
/// deterministic.
///
/// ```
/// use sle_sim::time::SimInstant;
/// use sle_sim::wheel::EventWheel;
///
/// let mut wheel = EventWheel::new();
/// wheel.push(SimInstant::from_secs_f64(2.0), 1, "late");
/// wheel.push(SimInstant::from_secs_f64(1.0), 2, "early");
/// assert_eq!(wheel.peek_time(), Some(SimInstant::from_secs_f64(1.0)));
/// assert_eq!(wheel.pop().map(|(_, _, item)| item), Some("early"));
/// assert_eq!(wheel.pop().map(|(_, _, item)| item), Some("late"));
/// assert!(wheel.pop().is_none());
/// ```
pub struct EventWheel<T> {
    /// `levels[k][s]` holds entries whose tick differs from `elapsed` first
    /// (most significantly) in digit `k`, with digit value `s`.
    levels: Vec<Vec<Vec<Pending<T>>>>,
    /// One occupancy bit per slot per level.
    occupied: [u64; LEVELS],
    /// The tick the wheel has drained up to: every entry still in a slot
    /// has `tick > elapsed`; entries with `tick <= elapsed` sit in
    /// `current`.
    elapsed: u64,
    /// Entries of already-reached ticks, ordered by `(time, seq)`.
    current: BinaryHeap<Pending<T>>,
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        EventWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            elapsed: 0,
            current: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `(at, seq)`. `O(1)`.
    ///
    /// Events are yielded in `(at, seq)` order, so callers must hand out
    /// monotonically increasing `seq` values to preserve insertion order
    /// among ties.
    pub fn push(&mut self, at: SimInstant, seq: u64, item: T) {
        self.len += 1;
        let entry = Entry { at, seq, item };
        let tick = tick_of(at);
        if tick <= self.elapsed {
            self.current.push(Pending(entry));
            return;
        }
        // The level is the most significant 6-bit digit in which `tick`
        // differs from the cursor; the slot is that digit's value. Since
        // `tick > elapsed`, the slot index always lies strictly above the
        // cursor's digit at that level, so occupied slots never wrap.
        let differing = tick ^ self.elapsed;
        let level = ((63 - differing.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(Pending(entry));
        self.occupied[level] |= 1 << slot;
    }

    /// The instant of the earliest queued event, if any.
    ///
    /// Takes `&mut self` because finding the next event may cascade
    /// higher-level slots down the hierarchy (a pure relocation: no event
    /// is gained, lost or reordered by it).
    pub fn peek_time(&mut self) -> Option<SimInstant> {
        self.advance_to_next();
        self.current.peek().map(|pending| pending.0.at)
    }

    /// The earliest queued event as `(at, seq, &item)` without removing it.
    ///
    /// Like [`EventWheel::peek_time`], this may cascade slots internally,
    /// hence `&mut self`.
    pub fn peek(&mut self) -> Option<(SimInstant, u64, &T)> {
        self.advance_to_next();
        self.current
            .peek()
            .map(|pending| (pending.0.at, pending.0.seq, &pending.0.item))
    }

    /// Removes and returns the earliest event as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimInstant, u64, T)> {
        self.advance_to_next();
        let Pending(entry) = self.current.pop()?;
        self.len -= 1;
        Some((entry.at, entry.seq, entry.item))
    }

    /// Moves the cursor forward until the earliest pending tick has been
    /// drained into `current` (cascading coarser levels as needed).
    fn advance_to_next(&mut self) {
        while self.current.is_empty() {
            // The earliest event lives in the lowest non-empty level's
            // lowest occupied slot: finer levels always hold nearer ticks.
            let Some(level) = (0..LEVELS).find(|&k| self.occupied[k] != 0) else {
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            // Jump the cursor to the start of that slot's tick range and
            // re-home its entries, which now belong to finer levels (or,
            // at level 0, to the tick being drained).
            let shift = SLOT_BITS * level as u32;
            let above = SLOT_BITS * (level as u32 + 1);
            let prefix = if above >= 64 {
                0
            } else {
                self.elapsed & !((1u64 << above) - 1)
            };
            self.elapsed = prefix | ((slot as u64) << shift);
            self.occupied[level] &= !(1 << slot);
            let entries = std::mem::take(&mut self.levels[level][slot]);
            if level == 0 {
                // Every entry in a level-0 slot has exactly this tick, and
                // `current` is empty: the slot's own buffer becomes the heap
                // (heapified in place), so a burst's capacity leaves with
                // the burst instead of staying with `current` for good.
                self.current = BinaryHeap::from(entries);
            } else {
                self.len -= entries.len();
                for Pending(Entry { at, seq, item }) in entries {
                    self.push(at, seq, item);
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for EventWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventWheel")
            .field("len", &self.len)
            .field("elapsed_tick", &self.elapsed)
            .finish()
    }
}

/// One node's armed timers: the generation of each armed [`TimerTag`]'s
/// live wheel entry. Both shard drivers keep one per node beside an
/// [`EventWheel`] whose timer entries carry `(tag, generation)` — the
/// simulator's shard and the wall-clock runtime of `sle-core`.
///
/// [`TimerTable::arm`] hands out the next generation, so re-arming a tag
/// supersedes the entry it already has in the wheel; [`TimerTable::cancel`]
/// forgets the tag; an entry fires only while its generation is still the
/// tag's ([`TimerTable::fire`]). Stale entries are dropped when they
/// surface, so arming and cancelling stay `O(1)`, and the table is a
/// [`TagMap`]: no hashing beyond one multiply per lookup.
///
/// ```
/// use sle_sim::actor::TimerTag;
/// use sle_sim::wheel::TimerTable;
///
/// let mut timers = TimerTable::new();
/// let first = timers.arm(TimerTag(1));
/// let second = timers.arm(TimerTag(1)); // re-arm: `first` is stale
/// assert!(!timers.fire(TimerTag(1), first));
/// assert!(timers.fire(TimerTag(1), second));
/// assert!(!timers.fire(TimerTag(1), second)); // fires once
/// let third = timers.arm(TimerTag(2));
/// timers.clear(); // a crash disarms everything
/// assert!(!timers.is_current(TimerTag(2), third));
/// assert!(timers.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TimerTable {
    /// The live generation of each armed tag, keyed by the raw tag value.
    live: TagMap,
    /// The last generation handed out. Never reset, not even by `clear`, so
    /// an entry armed before a clear never matches one armed after it.
    generation: u64,
}

impl TimerTable {
    /// Creates an empty table. Does not allocate until the first arm.
    pub fn new() -> Self {
        TimerTable::default()
    }

    /// Number of armed tags.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True if no tag is armed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Arms (or re-arms) `tag` and returns the generation its new wheel
    /// entry must carry.
    pub fn arm(&mut self, tag: TimerTag) -> u64 {
        self.generation += 1;
        self.live.insert(tag.0, self.generation);
        self.generation
    }

    /// Disarms `tag` if it is armed; its wheel entry becomes stale.
    pub fn cancel(&mut self, tag: TimerTag) {
        self.live.remove(tag.0);
    }

    /// True if the entry armed as `(tag, generation)` is still live.
    pub fn is_current(&self, tag: TimerTag, generation: u64) -> bool {
        self.live.get(tag.0) == Some(generation)
    }

    /// Fires the entry `(tag, generation)` if it is still live: disarms the
    /// tag and returns true. A stale entry returns false.
    pub fn fire(&mut self, tag: TimerTag, generation: u64) -> bool {
        let current = self.is_current(tag, generation);
        if current {
            self.live.remove(tag.0);
        }
        current
    }

    /// Disarms every tag (a crash), keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn yields_in_time_then_seq_order() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_nanos(500), 3, 'c');
        wheel.push(SimInstant::from_nanos(500), 1, 'a');
        wheel.push(SimInstant::from_nanos(100), 2, 'b');
        wheel.push(SimInstant::from_nanos(500), 2, 'd');
        let order: Vec<char> = std::iter::from_fn(|| wheel.pop().map(|(_, _, c)| c)).collect();
        assert_eq!(order, vec!['b', 'a', 'd', 'c']);
        assert!(wheel.is_empty());
    }

    #[test]
    fn events_in_the_same_tick_still_order_by_exact_nanos() {
        // 2^16 ns per tick: 10 and 20000 ns share tick 0 but must pop in
        // nanosecond order regardless of insertion order.
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_nanos(20_000), 1, "later");
        wheel.push(SimInstant::from_nanos(10), 2, "sooner");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("sooner"));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("later"));
    }

    #[test]
    fn far_future_events_are_representable() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::FAR_FUTURE, 1, "doomsday");
        wheel.push(SimInstant::from_secs_f64(1.0), 2, "soon");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("soon"));
        assert_eq!(wheel.peek_time(), Some(SimInstant::FAR_FUTURE));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("doomsday"));
        assert_eq!(wheel.peek_time(), None);
    }

    #[test]
    fn pushing_at_or_before_the_cursor_still_delivers() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_secs_f64(5.0), 1, "first");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("first"));
        // The cursor now sits at t=5 s; a push for an earlier instant (the
        // World never does this, but the wheel must not lose it) is
        // delivered immediately rather than silently dropped.
        wheel.push(SimInstant::from_secs_f64(1.0), 2, "stale");
        wheel.push(SimInstant::from_secs_f64(9.0), 3, "later");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("stale"));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("later"));
    }

    #[test]
    fn matches_a_sorted_model_over_random_workloads() {
        // Differential test against a plain sorted model: interleaved
        // pushes and pops across the full range of delays (same tick,
        // same level, cross-level, multi-day) must agree exactly. Now and
        // then a burst of up to 300 events lands on one instant: the
        // current one (into the tick being drained) or one ahead (a slot
        // that is drained whole later).
        let mut rng = SimRng::seed_from(0xD1CE);
        for _case in 0..20 {
            let mut wheel = EventWheel::new();
            let mut model: Vec<(SimInstant, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = SimInstant::ZERO;
            for _step in 0..400 {
                let pushes = rng.uniform_usize(4);
                for _ in 0..pushes {
                    let exponent = 4 + rng.uniform_usize(40) as u32;
                    let delay = rng.next_u64() % (1u64 << exponent);
                    let at = now + SimDuration::from_nanos(delay);
                    wheel.push(at, seq, seq);
                    model.push((at, seq));
                    seq += 1;
                }
                if rng.uniform_usize(10) == 0 {
                    let ahead = [0, rng.next_u64() % (1 << 22)][rng.uniform_usize(2)];
                    let at = now + SimDuration::from_nanos(ahead);
                    for _ in 0..=rng.uniform_usize(300) {
                        wheel.push(at, seq, seq);
                        model.push((at, seq));
                        seq += 1;
                    }
                }
                model.sort();
                let pops = rng.uniform_usize(4) + rng.uniform_usize(2) * rng.uniform_usize(200);
                for _ in 0..pops {
                    let expected = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(wheel.peek_time(), expected.map(|(at, _)| at));
                    let got = wheel.pop().map(|(at, s, _)| (at, s));
                    assert_eq!(got, expected);
                    if let Some((at, _)) = got {
                        now = at; // the simulator's clock follows the pops
                    }
                }
                assert_eq!(wheel.len(), model.len());
            }
            // Drain what's left: still in exact order.
            while let Some(expected) = if model.is_empty() {
                None
            } else {
                Some(model.remove(0))
            } {
                assert_eq!(wheel.pop().map(|(at, s, _)| (at, s)), Some(expected));
            }
            assert!(wheel.is_empty());
            assert_eq!(wheel.pop().map(|(_, _, i)| i), None);
        }
    }

    #[test]
    fn len_tracks_cascades() {
        let mut wheel = EventWheel::new();
        // A spread of delays guaranteed to occupy several levels.
        for (i, secs) in [0.0001, 0.01, 1.0, 70.0, 5000.0].iter().enumerate() {
            wheel.push(SimInstant::from_secs_f64(*secs), i as u64, i);
        }
        assert_eq!(wheel.len(), 5);
        assert!(!wheel.is_empty());
        let mut seen = 0;
        while wheel.pop().is_some() {
            seen += 1;
            assert_eq!(wheel.len(), 5 - seen);
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn debug_formatting_is_compact() {
        let wheel: EventWheel<u8> = EventWheel::new();
        let rendered = format!("{wheel:?}");
        assert!(rendered.contains("EventWheel"));
        assert!(rendered.contains("len"));
        let timers = TimerTable::default();
        assert!(format!("{timers:?}").contains("TimerTable"));
    }

    #[test]
    fn timer_wheel_rearms_and_cancels() {
        // Two nodes' tables over one wheel, as a shard driver keeps them.
        let mut tables = [TimerTable::new(), TimerTable::new()];
        let mut wheel: EventWheel<(usize, TimerTag)> = EventWheel::new();
        let mut arm = |tables: &mut [TimerTable; 2], node: usize, tag: u64, at: u64| {
            let generation = tables[node].arm(TimerTag(tag));
            wheel.push(
                SimInstant::from_nanos(at),
                generation,
                (node, TimerTag(tag)),
            );
        };
        arm(&mut tables, 0, 1, 500);
        arm(&mut tables, 0, 2, 200);
        arm(&mut tables, 1, 1, 300);
        // Re-arm supersedes the earlier deadline...
        arm(&mut tables, 0, 2, 900);
        assert_eq!((tables[0].len(), tables[1].len()), (2, 1));
        // ...and cancel disarms entirely.
        tables[1].cancel(TimerTag(1));
        assert!(tables[1].is_empty());
        let mut fired = Vec::new();
        while let Some((at, generation, (node, tag))) = wheel.pop() {
            if tables[node].fire(tag, generation) {
                fired.push((at.as_nanos(), node, tag.0));
            }
        }
        assert_eq!(fired, vec![(500, 0, 1), (900, 0, 2)]);
        assert!(tables.iter().all(TimerTable::is_empty));
    }

    #[test]
    fn timer_wheel_matches_a_sorted_model_over_random_workloads() {
        // Differential test against a sorted map model: four nodes' tables
        // over one wheel, driven the way both shard drivers drive them.
        // Random interleaved arms (often re-arming a live tag), cancels,
        // crashes (a node's whole table cleared) and drains of everything
        // due must agree with the model exactly, and so must the earliest
        // live deadline once stale entries in front are dropped.
        const NODES: usize = 4;
        let mut rng = SimRng::seed_from(0xFACE);
        for _case in 0..20 {
            let mut tables: Vec<TimerTable> = (0..NODES).map(|_| TimerTable::new()).collect();
            let mut wheel: EventWheel<(usize, TimerTag, u64)> = EventWheel::new();
            let mut model: std::collections::BTreeMap<(usize, u64), (SimInstant, u64)> =
                std::collections::BTreeMap::new();
            let mut order = 0u64;
            let mut now = SimInstant::ZERO;
            for _step in 0..300 {
                for _ in 0..rng.uniform_usize(4) {
                    let node = rng.uniform_usize(NODES);
                    let tag = rng.next_u64() % 6;
                    let exponent = 4 + rng.uniform_usize(38) as u32;
                    let at = now + SimDuration::from_nanos(rng.next_u64() % (1u64 << exponent));
                    order += 1;
                    let generation = tables[node].arm(TimerTag(tag));
                    wheel.push(at, order, (node, TimerTag(tag), generation));
                    model.insert((node, tag), (at, order));
                }
                match rng.uniform_usize(6) {
                    0 | 1 => {
                        let (node, tag) = (rng.uniform_usize(NODES), rng.next_u64() % 6);
                        tables[node].cancel(TimerTag(tag));
                        model.remove(&(node, tag));
                    }
                    2 => {
                        let node = rng.uniform_usize(NODES);
                        tables[node].clear();
                        model.retain(|&(n, _), _| n != node);
                    }
                    _ => {}
                }
                let armed: usize = tables.iter().map(TimerTable::len).sum();
                assert_eq!(armed, model.len());
                let next = loop {
                    match wheel.peek() {
                        Some((at, _, &(node, tag, generation))) => {
                            if tables[node].is_current(tag, generation) {
                                break Some(at);
                            }
                            wheel.pop();
                        }
                        None => break None,
                    }
                };
                assert_eq!(next, model.values().map(|&(at, _)| at).min());
                // Advance time and drain everything now due, in order.
                now += SimDuration::from_nanos(rng.next_u64() % (1u64 << 24));
                let mut fired = Vec::new();
                while wheel.peek_time().is_some_and(|at| at <= now) {
                    let (at, _, (node, tag, generation)) = wheel.pop().expect("peeked");
                    if tables[node].fire(tag, generation) {
                        fired.push((at, node, tag.0));
                    }
                }
                let mut due: Vec<_> = model
                    .iter()
                    .filter(|(_, &(at, _))| at <= now)
                    .map(|(&(node, tag), &(at, order))| (at, order, node, tag))
                    .collect();
                due.sort();
                for &(_, _, node, tag) in &due {
                    model.remove(&(node, tag));
                }
                let due: Vec<_> = due
                    .into_iter()
                    .map(|(at, _, node, tag)| (at, node, tag))
                    .collect();
                assert_eq!(fired, due);
            }
        }
    }
}
