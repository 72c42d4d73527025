//! The metrics registry: hierarchical names mapped to metric handles.
//!
//! A [`Registry`] is itself a cheap clonable handle; every clone shares the
//! same name table. Components either ask the registry for a handle
//! (`registry.counter("node.3.group.1.fd.mistakes")`, get-or-create) or
//! *bind* a handle they already own (`registry.bind_counter(name,
//! &my_counter)`), so pre-existing stats structs become views over the
//! registry without a second accounting path.
//!
//! Names are dotted hierarchies (`node.<n>.fd.detection_ns`,
//! `node.<n>.group.<g>.fd.mistakes`). The registry does not interpret them
//! beyond sorting; exporters mangle them per output format (see
//! [`crate::export`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A shared, thread-safe table of named metrics.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// a name collision is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
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
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Registers an existing counter handle under `name` (last bind wins).
    pub fn bind_counter(&self, name: &str, counter: &Counter) {
        self.lock()
            .insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// Registers an existing gauge handle under `name` (last bind wins).
    pub fn bind_gauge(&self, name: &str, gauge: &Gauge) {
        self.lock()
            .insert(name.to_string(), Metric::Gauge(gauge.clone()));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Takes a point-in-time snapshot of every registered metric, sorted by
    /// name. Concurrent recording proceeds unhindered; the snapshot is a
    /// consistent *set of names* but each value is read independently.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        Snapshot {
            metrics: map
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Merges the histograms of every metric whose name matches
    /// `prefix`/`suffix` (both may be empty to match everything). Useful for
    /// cluster-wide percentiles over per-node histograms, e.g.
    /// `merged_histogram("node.", ".elect.election_ns")`.
    pub fn merged_histogram(&self, prefix: &str, suffix: &str) -> HistogramSnapshot {
        let map = self.lock();
        let mut merged = HistogramSnapshot::empty();
        for (name, metric) in map.iter() {
            if let Metric::Histogram(h) = metric {
                if name.starts_with(prefix) && name.ends_with(suffix) {
                    merged.merge(&h.snapshot());
                }
            }
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
}
