//! The three metric primitives: counters, gauges and log2-bucket histograms.
//!
//! Each primitive is an `Arc`-backed handle: cloning is cheap, every clone
//! observes and mutates the same underlying atomics, and a handle keeps its
//! metric alive independently of the [`Registry`](crate::registry::Registry)
//! it may be bound into. This is what lets pre-existing stats structs (the
//! runtime's shard counters, the UDP endpoint's drop counters) *become*
//! registry entries instead of parallel accounting: the struct keeps its
//! handle, the registry holds a clone of the same handle, and one
//! `fetch_add` updates both views.
//!
//! Counters live in [`CounterBlock`]s: runs of cells at stable addresses,
//! shared by every handle into them. A lone [`Counter`] is a block of one;
//! a [family](crate::family) keeps every key's counters in one block, with
//! no name beside them.
//!
//! All operations use relaxed atomics — metrics never order protocol
//! memory accesses.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sle_sim::time::SimDuration;

/// One counter's cell: a relaxed atomic `u64` that only grows.
#[derive(Debug, Default)]
pub struct CounterCell(AtomicU64);

impl CounterCell {
    /// Increments the cell by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the cell by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A run of counter cells at stable addresses: `len` cells from `start`
/// of a shared allocation, indexed from zero.
///
/// ```
/// use sle_obs::CounterBlock;
/// let block = CounterBlock::new(3);
/// let second = block.counter(1); // the same cell, as a handle of its own
/// block[1].add(2);
/// second.inc();
/// assert_eq!((block[0].get(), block[1].get()), (0, 3));
/// ```
#[derive(Clone)]
pub struct CounterBlock {
    /// Boxed so that the `Arc` is one pointer wide and a block handle 16
    /// bytes: a service keeps room for one in every group's state,
    /// instrumented or not.
    cells: Arc<Box<[CounterCell]>>,
    start: u32,
    len: u32,
}

impl CounterBlock {
    /// A block of `len` cells of its own, all zero.
    pub fn new(len: usize) -> Self {
        CounterBlock::window(Arc::new(cells(len)), 0, len)
    }

    /// The `len` cells of `cells` from `start`.
    pub(crate) fn window(cells: Arc<Box<[CounterCell]>>, start: usize, len: usize) -> Self {
        assert!(start + len <= cells.len(), "a block past its cells");
        let narrow = |n: usize| u32::try_from(n).expect("a block within 2^32 cells");
        CounterBlock {
            cells,
            start: narrow(start),
            len: narrow(len),
        }
    }

    /// The number of cells.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a block of no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A handle to cell `i` alone.
    ///
    /// # Panics
    /// Panics if `i` is not below [`len`](Self::len).
    pub fn counter(&self, i: usize) -> Counter {
        assert!(i < self.len(), "cell {i} of a block of {}", self.len);
        Counter(CounterBlock::window(
            self.cells.clone(),
            self.start as usize + i,
            1,
        ))
    }
}

/// `len` zeroed cells.
pub(crate) fn cells(len: usize) -> Box<[CounterCell]> {
    (0..len).map(|_| CounterCell::default()).collect()
}

impl std::ops::Index<usize> for CounterBlock {
    type Output = CounterCell;

    #[inline]
    fn index(&self, i: usize) -> &CounterCell {
        assert!(i < self.len as usize, "cell {i} of a block of {}", self.len);
        &self.cells[self.start as usize + i]
    }
}

impl std::fmt::Debug for CounterBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let values = (0..self.len()).map(|i| self[i].get());
        f.debug_list().entries(values).finish()
    }
}

/// A monotonically increasing counter: a handle to one cell, of its own
/// or of a [`CounterBlock`].
///
/// ```
/// use sle_obs::Counter;
/// let c = Counter::new();
/// let view = c.clone(); // same underlying cell
/// c.inc();
/// c.add(4);
/// assert_eq!(view.get(), 5);
/// ```
#[derive(Clone)]
pub struct Counter(CounterBlock);

impl Default for Counter {
    fn default() -> Self {
        Counter(CounterBlock::new(1))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.0[0].inc();
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[0].add(n);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0[0].get()
    }

    /// Returns true if `other` is a handle to the same underlying cell.
    pub fn same_as(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.0.cells, &other.0.cells) && self.0.start == other.0.start
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger than the current value — a
    /// lock-free high-water mark (e.g. peak buffer-pool occupancy).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Buckets per lazily created chunk of a [`Histogram`].
const CHUNK: usize = 8;

/// Chunks a [`Histogram`] may create: the last holds the top bucket alone.
const CHUNKS: usize = HISTOGRAM_BUCKETS.div_ceil(CHUNK);

/// The counts and sums of [`CHUNK`] adjacent buckets.
#[derive(Debug, Default)]
struct Chunk {
    counts: [AtomicU64; CHUNK],
    sums: [AtomicU64; CHUNK],
}

/// A histogram's chunks, each created by the first sample it holds.
#[derive(Debug, Default)]
struct HistogramInner {
    chunks: [OnceLock<Box<Chunk>>; CHUNKS],
}

/// A fixed log2-bucket histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i` (for `i >= 1`) holds values in
/// `[2^(i-1), 2^i - 1]`. Durations are recorded as whole nanoseconds, so the
/// relative bucket resolution (a factor of two) is independent of the unit a
/// metric is later rendered in. The exact `count` and `sum` are kept
/// alongside the buckets, so means are exact even though percentiles are
/// bucket-bounded estimates.
///
/// The buckets are kept in chunks of eight, each created by the first
/// sample it holds: a latency that stays within a few octaves holds one or
/// two chunks of 128 bytes. The total count and sum are those of the
/// buckets, read at snapshot time.
///
/// ```
/// use sle_obs::Histogram;
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.sum, 106);
/// let p50 = snap.percentile(0.50);
/// assert!((2..=3).contains(&p50)); // within the bucket holding the median
/// ```
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Returns the bucket index for a sample value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Returns the smallest value belonging to bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Returns the largest value belonging to bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram(Arc::default())
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let i = bucket_index(value);
        let chunk = self.0.chunks[i / CHUNK].get_or_init(Box::default);
        chunk.counts[i % CHUNK].fetch_add(1, Ordering::Relaxed);
        chunk.sums[i % CHUNK].fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Returns a point-in-time snapshot of the histogram.
    ///
    /// The snapshot is not atomic with respect to concurrent `record`s: a
    /// racing sample may be visible in its bucket's count but not yet in
    /// its sum (or vice versa). Snapshots are for reporting, not for
    /// invariants between the fields.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for (c, chunk) in self.0.chunks.iter().enumerate() {
            let Some(chunk) = chunk.get() else { continue };
            let first = c * CHUNK;
            let last = HISTOGRAM_BUCKETS.min(first + CHUNK);
            for (i, (count, sum)) in (first..last).zip(chunk.counts.iter().zip(&chunk.sums)) {
                snap.buckets[i] = count.load(Ordering::Relaxed);
                snap.bucket_sums[i] = sum.load(Ordering::Relaxed);
                snap.count += snap.buckets[i];
                snap.sum = snap.sum.wrapping_add(snap.bucket_sums[i]);
            }
        }
        snap
    }

    /// Returns true if `other` is a handle to the same underlying cells.
    pub fn same_as(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// An owned copy of a histogram's state, mergeable and queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Exact sum of all recorded samples (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket sample counts; see [`bucket_lower`] / [`bucket_upper`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Per-bucket sums of the recorded samples (wrapping on overflow).
    /// These anchor percentile interpolation to where the bucket's samples
    /// actually sit, instead of assuming a fixed within-bucket distribution.
    pub bucket_sums: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot, the identity element of [`merge`](Self::merge).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
            bucket_sums: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Adds another snapshot into this one. Merging never loses samples:
    /// counts, sums and every bucket add element-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        for (mine, theirs) in self.bucket_sums.iter_mut().zip(other.bucket_sums.iter()) {
            *mine = mine.wrapping_add(*theirs);
        }
    }

    /// Exact mean of the recorded samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded samples.
    ///
    /// The estimate interpolates *piecewise-linearly* inside the bucket
    /// containing the `ceil(q * count)`-th smallest sample, anchored at the
    /// bucket's observed mean: ranks in the lower half of the bucket's
    /// population map linearly onto `[bucket_lower, mean]` and ranks in the
    /// upper half onto `[mean, bucket_upper]`. Because the anchor comes from
    /// the samples themselves (via [`bucket_sums`](Self::bucket_sums)), two
    /// histograms whose samples land in the same buckets at different
    /// positions report different percentiles — the earlier log-midpoint
    /// interpolation collapsed any symmetric bucket population onto
    /// `bucket_lower * sqrt(2)`, which is how every scale cell's election
    /// p50 read exactly 5.9 ms and every p99 exactly 1518.5 ms regardless
    /// of detection parameters. Still bucket-bounded: off by at most a
    /// factor of two from the true order statistic.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if i == 0 {
                    // Bucket 0 holds only the exact value 0.
                    return 0;
                }
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let mean = (self.bucket_sums[i] as f64 / n as f64).clamp(lo, hi);
                // The k-th of the bucket's n samples sits at position
                // (k - 0.5) / n of the bucket's population — strictly
                // interior, so the estimate never pins to a bucket edge.
                let f = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = if f < 0.5 {
                    lo + (mean - lo) * (f / 0.5)
                } else {
                    mean + (hi - mean) * ((f - 0.5) / 0.5)
                };
                return (est as u64).clamp(bucket_lower(i), bucket_upper(i));
            }
            seen += n;
        }
        // Unreachable when the bucket counts cover `count`; be conservative
        // if a racing snapshot left them short.
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// [`percentile`](Self::percentile) rendered as fractional milliseconds,
    /// for histograms that record durations in nanoseconds.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile(q) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Counter::new()));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1);
        }
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.mean(), Some(500.5));
        // True p50 is 500, in bucket [512/2, 511] = [256, 511]... rank 500
        // lands in bucket 9 ([256, 511]); the estimate must stay inside it.
        let p50 = snap.percentile(0.50);
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        let p100 = snap.percentile(1.0);
        assert!((512..=1023).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn percentiles_do_not_pin_to_bucket_boundaries() {
        // Regression: election latencies of 1.3–1.9 s all land in the
        // nanosecond bucket [2^30, 2^31 - 1]. The old edge interpolation
        // reported p99 (and p100) of *any* such sample set as exactly
        // 2^31 - 1 ns = 2147.48 ms; mean-anchored interpolation must return
        // a value strictly inside the bucket instead.
        let h = Histogram::new();
        for i in 0..200u64 {
            h.record(1_300_000_000 + i * 3_000_000);
        }
        let snap = h.snapshot();
        for q in [0.50, 0.90, 0.99, 1.0] {
            let p = snap.percentile(q);
            assert!(
                (1u64 << 30) < p && p < (1u64 << 31) - 1,
                "percentile({q}) = {p} sits on a log2 bucket boundary"
            );
            assert!(
                !p.is_power_of_two() && !(p + 1).is_power_of_two(),
                "percentile({q}) = {p} is a power-of-two edge"
            );
        }
        assert_ne!(snap.percentile(0.99), (1u64 << 31) - 1);
    }

    #[test]
    fn same_buckets_different_positions_give_different_percentiles() {
        // Regression: two latency populations that land in the *same* log2
        // buckets but at different positions inside them must not report
        // identical percentiles. The old log-midpoint interpolation mapped
        // any symmetric bucket population onto bucket_lower * sqrt(2), so
        // every scale cell's election p50 read exactly the same value no
        // matter what the detection parameters were.
        let fast = Histogram::new();
        let slow = Histogram::new();
        for i in 0..100u64 {
            // Both populations live entirely in the [2^22, 2^23 - 1] ns
            // bucket (4.19–8.39 ms), near opposite ends of it.
            fast.record(4_300_000 + i * 1_000);
            slow.record(8_200_000 + i * 1_000);
        }
        let (fast, slow) = (fast.snapshot(), slow.snapshot());
        for q in [0.50, 0.90, 0.99] {
            let (pf, ps) = (fast.percentile(q), slow.percentile(q));
            assert!(
                pf < ps,
                "percentile({q}): fast {pf} should be below slow {ps}"
            );
        }
        // The anchored estimates track the true medians to well under a
        // bucket width apart from each other.
        assert!(slow.percentile(0.50) - fast.percentile(0.50) > 3_000_000);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn merge_adds_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            all.record(v * 7);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn record_duration_uses_nanos() {
        let h = Histogram::new();
        h.record_duration(SimDuration::from_millis(2));
        let snap = h.snapshot();
        assert_eq!(snap.sum, 2_000_000);
        assert!((snap.percentile_ms(1.0) - 2.0).abs() < 2.0);
    }
}
