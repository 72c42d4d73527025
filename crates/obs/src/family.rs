//! Metric families: many keys with the same series, kept without names.
//!
//! A [`Family`] is declared by a [`FamilySchema`]: the name segment before
//! each of its one or two numeric keys, and the suffixes of the counters
//! and histograms every key has. The family keeps one [`CounterBlock`] and
//! the histograms per key, and renders a series' name
//! (`node.3.group.1.fd.mistakes`) only when a
//! [snapshot](crate::registry::Registry::snapshot) asks for it. Asking for
//! a key again, from a recovered process or a rejoin, hands back the same
//! cells, so its series count on.
//!
//! Counter cells sit in segments of about a kibibyte that never move, each
//! holding the blocks of as many keys as fit: a family of `k` keys with `w`
//! counters each holds `k·w` cells, at most one segment more, and the key
//! index beside them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::metrics::{cells, CounterBlock, CounterCell, Histogram, HistogramSnapshot};
use crate::registry::MetricValue;

/// The shape of a [`Family`]: how its keys are named and which series
/// each key has.
///
/// ```
/// use sle_obs::{FamilySchema, Registry};
///
/// static GROUP_SERIES: FamilySchema = FamilySchema {
///     heads: &["node", "group"],
///     counters: &["fd.suspicions", "fd.mistakes"],
///     histograms: &[],
/// };
/// let registry = Registry::new();
/// let cells = registry.family(&GROUP_SERIES).counters(&[3, 1]);
/// cells[1].inc();
/// let mistakes = registry.counter("node.3.group.1.fd.mistakes");
/// assert!(mistakes.same_as(&cells.counter(1)));
/// assert_eq!(registry.len(), 2);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct FamilySchema {
    /// The name segment before each key, one or two: `["node", "group"]`
    /// names the series of key `[3, 1]` `node.3.group.1.<suffix>`.
    pub heads: &'static [&'static str],
    /// The suffixes of each key's counters, in cell order.
    pub counters: &'static [&'static str],
    /// The suffixes of each key's histograms.
    pub histograms: &'static [&'static str],
}

/// One series of a family's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Series {
    /// The counter in cell `i` of the key's block.
    Counter(usize),
    /// The key's histogram `j`.
    Histogram(usize),
}

impl FamilySchema {
    /// The rendered name of `suffix` under `key`.
    fn name(&self, key: [u32; 2], suffix: &str) -> String {
        let mut name = String::new();
        for (head, k) in self.heads.iter().zip(key) {
            let _ = write!(name, "{head}.{k}.");
        }
        name.push_str(suffix);
        name
    }

    /// The key and series `name` renders, if it is one of this family's:
    /// keys in canonical decimal, so that rendering it gives `name` back.
    pub(crate) fn parse(&self, name: &str) -> Option<([u32; 2], Series)> {
        let mut key = [0; 2];
        let mut rest = name;
        for (head, k) in self.heads.iter().zip(&mut key) {
            let (digits, tail) = rest
                .strip_prefix(head)?
                .strip_prefix('.')?
                .split_once('.')?;
            let canonical = digits == "0" || !digits.starts_with('0');
            if !canonical || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            *k = digits.parse().ok()?;
            rest = tail;
        }
        let position = |suffixes: &[&str]| suffixes.iter().position(|&s| s == rest);
        let series = (position(self.counters).map(Series::Counter))
            .or_else(|| position(self.histograms).map(Series::Histogram))?;
        Some((key, series))
    }

    /// The number of series each key renders.
    fn width(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }
}

/// A family of series: the cells and histograms of every key it was asked
/// for, behind a cheap clonable handle. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Family(Arc<FamilyInner>);

#[derive(Debug)]
struct FamilyInner {
    schema: &'static FamilySchema,
    members: Mutex<Members>,
}

/// Every key a family was asked for, and its cells.
#[derive(Debug, Default)]
struct Members {
    /// Each key's slot, numbered in the order the keys came.
    slots: BTreeMap<[u32; 2], u32>,
    /// Segment `k` holds the counter blocks of slots `k·m .. (k+1)·m`, `m`
    /// being [`keys_per_segment`].
    segments: Vec<Arc<Box<[CounterCell]>>>,
    /// Slot `s`'s histograms are `histograms[s·h ..][..h]`, `h` being the
    /// schema's number of histograms.
    histograms: Vec<Histogram>,
}

impl Family {
    pub(crate) fn new(schema: &'static FamilySchema) -> Self {
        assert!(
            (1..=2).contains(&schema.heads.len()),
            "a family has one or two keys"
        );
        Family(Arc::new(FamilyInner {
            schema,
            members: Mutex::default(),
        }))
    }

    /// The family's schema.
    pub(crate) fn schema(&self) -> &'static FamilySchema {
        self.0.schema
    }

    fn lock(&self) -> MutexGuard<'_, Members> {
        self.0.members.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counters of `key`, created on first use; indexed as the
    /// schema's `counters`.
    ///
    /// # Panics
    /// Panics unless `key` has one number per head.
    pub fn counters(&self, key: &[u32]) -> CounterBlock {
        self.block_of(key_of(self.0.schema, key))
    }

    /// The histogram of `key` named by the schema's `histograms[j]`,
    /// created on first use.
    ///
    /// # Panics
    /// Panics unless `key` has one number per head and `j` names a
    /// histogram.
    pub fn histogram(&self, key: &[u32], j: usize) -> Histogram {
        self.histogram_of(key_of(self.0.schema, key), j)
    }

    /// [`counters`](Self::counters) of a parsed key.
    pub(crate) fn block_of(&self, key: [u32; 2]) -> CounterBlock {
        let schema = self.0.schema;
        let mut members = self.lock();
        let slot = members.slot(schema, key);
        members.block(schema, slot)
    }

    /// [`histogram`](Self::histogram) of a parsed key.
    pub(crate) fn histogram_of(&self, key: [u32; 2], j: usize) -> Histogram {
        let schema = self.0.schema;
        assert!(j < schema.histograms.len(), "histogram {j} of {schema:?}");
        let mut members = self.lock();
        let slot = members.slot(schema, key);
        members.histogram(schema, slot, j).clone()
    }

    /// The number of series the family renders.
    pub(crate) fn len(&self) -> usize {
        self.lock().slots.len() * self.0.schema.width()
    }

    /// Calls `f` with the name and value of every series of every key,
    /// keys in key order.
    pub(crate) fn render(&self, mut f: impl FnMut(String, MetricValue)) {
        let schema = self.0.schema;
        let members = self.lock();
        for (&key, &slot) in &members.slots {
            let block = members.block(schema, slot);
            for (i, suffix) in schema.counters.iter().enumerate() {
                f(
                    schema.name(key, suffix),
                    MetricValue::Counter(block[i].get()),
                );
            }
            for (j, suffix) in schema.histograms.iter().enumerate() {
                let histogram = members.histogram(schema, slot, j).snapshot();
                f(schema.name(key, suffix), MetricValue::Histogram(histogram));
            }
        }
    }

    /// Merges into `merged` every histogram whose name matches
    /// `prefix`/`suffix`.
    pub(crate) fn merge_histograms(
        &self,
        prefix: &str,
        suffix: &str,
        merged: &mut HistogramSnapshot,
    ) {
        let schema = self.0.schema;
        let members = self.lock();
        for (&key, &slot) in &members.slots {
            for (j, name) in schema.histograms.iter().enumerate() {
                let name = schema.name(key, name);
                if name.starts_with(prefix) && name.ends_with(suffix) {
                    merged.merge(&members.histogram(schema, slot, j).snapshot());
                }
            }
        }
    }
}

/// Counter cells per segment, a kibibyte's worth.
const SEGMENT_CELLS: usize = 128;

/// The keys whose counter blocks one segment holds: as many as fit in
/// [`SEGMENT_CELLS`], and at least one.
fn keys_per_segment(schema: &FamilySchema) -> usize {
    (SEGMENT_CELLS / schema.counters.len().max(1)).max(1)
}

/// `key` as the family's internal two-number key.
fn key_of(schema: &FamilySchema, key: &[u32]) -> [u32; 2] {
    assert_eq!(key.len(), schema.heads.len(), "a key of {schema:?}");
    [key[0], key.get(1).copied().unwrap_or(0)]
}

impl Members {
    /// The slot of `key`, created with zeroed counters and empty
    /// histograms if the key is new.
    fn slot(&mut self, schema: &FamilySchema, key: [u32; 2]) -> u32 {
        if let Some(&slot) = self.slots.get(&key) {
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("a family within 2^32 keys");
        let keys = keys_per_segment(schema);
        if (slot as usize).is_multiple_of(keys) {
            self.segments
                .push(Arc::new(cells(keys * schema.counters.len())));
        }
        let histograms = schema.histograms.len();
        self.histograms
            .extend((0..histograms).map(|_| Histogram::new()));
        self.slots.insert(key, slot);
        slot
    }

    /// Histogram `j` of `slot`.
    fn histogram(&self, schema: &FamilySchema, slot: u32, j: usize) -> &Histogram {
        &self.histograms[slot as usize * schema.histograms.len() + j]
    }

    /// The counter block of `slot`.
    fn block(&self, schema: &FamilySchema, slot: u32) -> CounterBlock {
        let keys = keys_per_segment(schema);
        let (k, offset) = (slot as usize / keys, slot as usize % keys);
        let width = schema.counters.len();
        CounterBlock::window(self.segments[k].clone(), offset * width, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static NODE: FamilySchema = FamilySchema {
        heads: &["node"],
        counters: &["a.one", "a.two"],
        histograms: &["lat_ns"],
    };

    static GROUP: FamilySchema = FamilySchema {
        heads: &["node", "group"],
        counters: &["fd.mistakes"],
        histograms: &[],
    };

    #[test]
    fn names_parse_back_to_their_key_and_series() {
        assert_eq!(NODE.name([12, 0], "a.two"), "node.12.a.two");
        assert_eq!(
            NODE.parse("node.12.a.two"),
            Some(([12, 0], Series::Counter(1)))
        );
        assert_eq!(
            NODE.parse("node.0.lat_ns"),
            Some(([0, 0], Series::Histogram(0)))
        );
        assert_eq!(
            GROUP.name([3, 1], "fd.mistakes"),
            "node.3.group.1.fd.mistakes"
        );
        assert_eq!(
            GROUP.parse("node.3.group.1.fd.mistakes"),
            Some(([3, 1], Series::Counter(0)))
        );
        // Not a series of the family: another suffix, a key that would not
        // render back as written, a key past u32.
        for name in [
            "node.3.group.1.fd.mistakes",
            "node.3.a.three",
            "node.03.a.one",
            "node.+3.a.one",
            "node..a.one",
            "node.4294967296.a.one",
            "nodes.3.a.one",
            "node.3",
        ] {
            assert_eq!(NODE.parse(name), None, "{name}");
        }
        assert_eq!(
            NODE.parse("node.4294967295.a.one").unwrap().0,
            [u32::MAX, 0]
        );
    }

    #[test]
    fn a_key_asked_again_gets_its_cells_back() {
        let family = Family::new(&GROUP);
        let mut blocks = Vec::new();
        for node in 0..20 {
            let block = family.counters(&[node, 7]);
            block[0].add(node as u64);
            blocks.push(block);
        }
        for (node, block) in (0..20).zip(&blocks) {
            let again = family.counters(&[node, 7]);
            assert!(again.counter(0).same_as(&block.counter(0)));
            assert_eq!(again[0].get(), node as u64);
        }
        // 20 keys of one cell: one segment.
        assert_eq!(family.lock().segments.len(), 1);
        let wide = Family::new(&NODE);
        for node in 0..130 {
            wide.counters(&[node])[1].add(node as u64);
        }
        // 130 keys of two cells, 64 to a segment.
        assert_eq!(wide.lock().segments.len(), 3);
        assert!((0..130).all(|node| wide.counters(&[node])[1].get() == node as u64));
        assert_eq!(family.len(), 20);
    }

    #[test]
    fn render_names_every_series_of_every_key() {
        let family = Family::new(&NODE);
        family.counters(&[2])[1].add(5);
        family.histogram(&[10], 0).record(9);
        let mut out = Vec::new();
        family.render(|name, value| out.push((name, value)));
        let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "node.2.a.one",
                "node.2.a.two",
                "node.2.lat_ns",
                "node.10.a.one",
                "node.10.a.two",
                "node.10.lat_ns"
            ]
        );
        assert_eq!(out[1].1, MetricValue::Counter(5));
        let mut merged = HistogramSnapshot::empty();
        family.merge_histograms("node.1", ".lat_ns", &mut merged);
        assert_eq!((merged.count, merged.sum), (1, 9));
    }
}
