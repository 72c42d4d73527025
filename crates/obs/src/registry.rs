//! The metrics registry: hierarchical names mapped to metric handles.
//!
//! A [`Registry`] is itself a cheap clonable handle; every clone shares the
//! same tables. It keeps metrics two ways:
//!
//! * **by name**, one handle per name: components either ask the registry
//!   for a handle (`registry.counter("runtime.shard.0.wakeups")`,
//!   get-or-create) or *bind* a handle they already own
//!   (`registry.bind_counter(name, &my_counter)`), so pre-existing stats
//!   structs become views over the registry without a second accounting
//!   path;
//! * **in [families](crate::family)**, for series that every node or every
//!   group membership has: one counter block and the histograms per key,
//!   no name kept. A family renders its names (`node.3.fd.detection_ns`,
//!   `node.3.group.1.fd.mistakes`) only at snapshot time, and a by-name
//!   lookup of one of them returns the family's own cell.
//!
//! Names are dotted hierarchies. The registry does not interpret them
//! beyond sorting and routing a family's names to it; exporters mangle
//! them per output format (see [`crate::export`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::family::{Family, FamilySchema, Series};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry's tables: metrics by name, and the families.
#[derive(Default)]
struct Tables {
    named: BTreeMap<String, Metric>,
    families: Vec<Family>,
}

impl Tables {
    /// The family whose series `name` is, with the key and the series.
    fn family_of(&self, name: &str) -> Option<(Family, [u32; 2], Series)> {
        self.families.iter().find_map(|family| {
            let (key, series) = family.schema().parse(name)?;
            Some((family.clone(), key, series))
        })
    }
}

/// A shared, thread-safe table of named metrics and metric families.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Tables>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.len())
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tables> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The family of `schema`, created on first use: every call with an
    /// equal schema returns the same family.
    ///
    /// # Panics
    /// Panics if a metric registered by name is one of the family's
    /// series: a name belongs to one table.
    pub fn family(&self, schema: &'static FamilySchema) -> Family {
        let mut tables = self.lock();
        if let Some(family) = tables.families.iter().find(|f| f.schema() == schema) {
            return family.clone();
        }
        if let Some(name) = tables
            .named
            .keys()
            .find(|name| schema.parse(name).is_some())
        {
            panic!("metric {name:?} is registered by name, outside its family");
        }
        let family = Family::new(schema);
        tables.families.push(family.clone());
        family
    }

    /// Returns the counter registered under `name`, creating it if absent.
    /// A name in a family's pattern is the family's cell, its key created
    /// if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// a name collision is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut tables = self.lock();
        if let Some((family, key, series)) = tables.family_of(name) {
            drop(tables);
            let Series::Counter(i) = series else {
                panic!("metric {name:?} is not a counter")
            };
            return family.block_of(key).counter(i);
        }
        match tables
            .named
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut tables = self.lock();
        if tables.family_of(name).is_some() {
            panic!("metric {name:?} is not a gauge");
        }
        match tables
            .named
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent. A name in a family's pattern is the family's histogram, its
    /// key created if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut tables = self.lock();
        if let Some((family, key, series)) = tables.family_of(name) {
            drop(tables);
            let Series::Histogram(j) = series else {
                panic!("metric {name:?} is not a histogram")
            };
            return family.histogram_of(key, j);
        }
        match tables
            .named
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Registers an existing counter handle under `name` (last bind wins).
    ///
    /// # Panics
    /// Panics if `name` is a family's series.
    pub fn bind_counter(&self, name: &str, counter: &Counter) {
        self.bind(name, Metric::Counter(counter.clone()));
    }

    /// Registers an existing gauge handle under `name` (last bind wins).
    ///
    /// # Panics
    /// Panics if `name` is a family's series.
    pub fn bind_gauge(&self, name: &str, gauge: &Gauge) {
        self.bind(name, Metric::Gauge(gauge.clone()));
    }

    fn bind(&self, name: &str, metric: Metric) {
        let mut tables = self.lock();
        if tables.family_of(name).is_some() {
            panic!("metric {name:?} belongs to a family");
        }
        tables.named.insert(name.to_string(), metric);
    }

    /// Number of registered metrics: the named ones, and every series of
    /// every family.
    pub fn len(&self) -> usize {
        let tables = self.lock();
        tables.named.len() + tables.families.iter().map(Family::len).sum::<usize>()
    }

    /// True if no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a point-in-time snapshot of every registered metric, sorted by
    /// name. Concurrent recording proceeds unhindered; the snapshot is a
    /// consistent *set of names* but each value is read independently.
    pub fn snapshot(&self) -> Snapshot {
        let tables = self.lock();
        let mut metrics: Vec<(String, MetricValue)> = (tables.named.iter())
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        for family in &tables.families {
            family.render(|name, value| metrics.push((name, value)));
        }
        metrics.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { metrics }
    }

    /// Merges the histograms of every metric whose name matches
    /// `prefix`/`suffix` (both may be empty to match everything). Useful for
    /// cluster-wide percentiles over per-node histograms, e.g.
    /// `merged_histogram("node.", ".elect.election_ns")`.
    pub fn merged_histogram(&self, prefix: &str, suffix: &str) -> HistogramSnapshot {
        let tables = self.lock();
        let mut merged = HistogramSnapshot::empty();
        for (name, metric) in tables.named.iter() {
            if let Metric::Histogram(h) = metric {
                if name.starts_with(prefix) && name.ends_with(suffix) {
                    merged.merge(&h.snapshot());
                }
            }
        }
        for family in &tables.families {
            family.merge_histograms(prefix, suffix, &mut merged);
        }
        merged
    }
}

/// A point-in-time copy of a registry's contents, sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub metrics: Vec<(String, MetricValue)>,
}

/// One metric's value inside a [`Snapshot`].
///
/// The histogram variant carries its full bucket array inline: snapshots
/// are built once per export and then only read, so keeping the variants
/// boxless trades a few hundred bytes per entry for a pointer-chase-free
/// query API.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's full bucket state.
    Histogram(HistogramSnapshot),
}

impl Snapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Sum of all counters whose name matches `prefix`/`suffix`.
    pub fn sum_counters(&self, prefix: &str, suffix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Merge of all histograms whose name matches `prefix`/`suffix`.
    pub fn merged_histogram(&self, prefix: &str, suffix: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for (name, value) in &self.metrics {
            if let MetricValue::Histogram(h) = value {
                if name.starts_with(prefix) && name.ends_with(suffix) {
                    merged.merge(h);
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(a.same_as(&b));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn bound_handle_is_a_view() {
        let r = Registry::new();
        let mine = Counter::new();
        mine.add(7);
        r.bind_counter("udp.delivered", &mine);
        mine.inc();
        match r.snapshot().get("udp.delivered") {
            Some(MetricValue::Counter(8)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // The registry hands back the same cell, not a copy.
        assert!(r.counter("udp.delivered").same_as(&mine));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("c.three").set(-3);
        r.histogram("a.lat_ms").record(5);
        let snap = r.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.lat_ms", "a.one", "b.two", "c.three"]);
        assert_eq!(snap.get("c.three"), Some(&MetricValue::Gauge(-3)));
        assert_eq!(snap.sum_counters("", "one"), 1);
        assert_eq!(snap.sum_counters("", ""), 3);
    }

    #[test]
    fn merged_histogram_filters_by_name() {
        let r = Registry::new();
        r.histogram("node.0.elect.election_ms").record(100);
        r.histogram("node.1.elect.election_ms").record(300);
        r.histogram("node.0.fd.detection_ms").record(999);
        let merged = r.merged_histogram("node.", ".elect.election_ms");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 400);
        let via_snapshot = r.snapshot().merged_histogram("node.", ".elect.election_ms");
        assert_eq!(merged, via_snapshot);
    }

    static NODE: FamilySchema = FamilySchema {
        heads: &["node"],
        counters: &["fd.fires", "fd.walks"],
        histograms: &["elect.election_ms"],
    };

    #[test]
    fn a_family_series_by_name_is_the_family_cell() {
        let r = Registry::new();
        r.counter("runtime.wakeups").add(3);
        let family = r.family(&NODE);
        assert_eq!(r.len(), 1);
        let block = family.counters(&[4]);
        block[1].add(2);
        // Every series of the key is registered, named at snapshot time.
        assert_eq!(r.len(), 4);
        assert!(r.counter("node.4.fd.walks").same_as(&block.counter(1)));
        assert!(r
            .family(&NODE)
            .counters(&[4])
            .counter(0)
            .same_as(&block.counter(0)));
        let elections = r.histogram("node.4.elect.election_ms");
        elections.record(100);
        assert!(elections.same_as(&family.histogram(&[4], 0)));
        // A name outside the pattern stays a named metric of its own.
        r.counter("node.04.fd.walks").inc();
        // A by-name lookup creates the key, as a first registration would.
        r.counter("node.0.fd.fires").inc();
        let snap = r.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "node.0.elect.election_ms",
                "node.0.fd.fires",
                "node.0.fd.walks",
                "node.04.fd.walks",
                "node.4.elect.election_ms",
                "node.4.fd.fires",
                "node.4.fd.walks",
                "runtime.wakeups",
            ]
        );
        assert_eq!(r.len(), names.len());
        assert_eq!(snap.sum_counters("node.", ".fd.walks"), 3);
        assert_eq!(snap.get("node.0.fd.fires"), Some(&MetricValue::Counter(1)));
        let merged = r.merged_histogram("node.", ".elect.election_ms");
        assert_eq!((merged.count, merged.sum), (1, 100));
        assert_eq!(merged, snap.merged_histogram("node.", ".elect.election_ms"));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn a_family_counter_is_not_a_histogram() {
        let r = Registry::new();
        r.family(&NODE);
        r.histogram("node.1.fd.fires");
    }

    #[test]
    #[should_panic(expected = "outside its family")]
    fn a_family_series_registered_by_name_first_panics() {
        let r = Registry::new();
        r.counter("node.1.fd.fires");
        r.family(&NODE);
    }
}
