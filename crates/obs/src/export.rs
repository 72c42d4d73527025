//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both exporters render a [`Snapshot`] — they never touch live metrics, so
//! exporting is race-free by construction. The JSON schema
//! (`sle-obs/1`) is documented in `docs/OBSERVABILITY.md`; the Prometheus
//! format follows the text exposition conventions (dotted metric names are
//! mangled to underscores, histograms export cumulative `_bucket{le=...}`
//! series plus `_sum` and `_count`).

use std::fmt::Write as _;

use crate::metrics::{bucket_upper, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::{MetricValue, Snapshot};

/// Mangles a dotted metric name into a Prometheus-legal one.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if legal { c } else { '_' });
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Writes one `# TYPE` line and one (or, for histograms, several) sample
/// lines per metric. Histogram buckets with zero observations are elided;
/// the cumulative counts and the terminal `+Inf` bucket are still exact.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.metrics {
        let pname = prometheus_name(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {pname} histogram");
                let mut cumulative = 0u64;
                for i in 0..HISTOGRAM_BUCKETS {
                    if h.buckets[i] == 0 {
                        continue;
                    }
                    cumulative += h.buckets[i];
                    // The top bucket's upper bound saturates at `u64::MAX`;
                    // a literal `le="18446744073709551615"` label is useless
                    // to queries, so its samples are folded into `+Inf`.
                    if i + 1 == HISTOGRAM_BUCKETS {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{pname}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper(i)
                    );
                }
                let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{pname}_sum {}", h.sum);
                let _ = writeln!(out, "{pname}_count {}", h.count);
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
        h.count,
        h.sum,
        h.percentile(0.50),
        h.percentile(0.99)
    );
    let mut first = true;
    for i in 0..HISTOGRAM_BUCKETS {
        if h.buckets[i] == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{},{}]", bucket_upper(i), h.buckets[i]);
    }
    out.push(']');
}

/// Renders a snapshot as a JSON document with schema `sle-obs/1`.
///
/// ```json
/// {
///   "schema": "sle-obs/1",
///   "metrics": [
///     {"name": "node.0.group.1.fd.mistakes", "type": "counter", "value": 0},
///     {"name": "runtime.workers", "type": "gauge", "value": 8},
///     {"name": "node.0.elect.election_ns", "type": "histogram",
///      "count": 3, "sum": 812000000, "p50": 250000000, "p99": 40000000,
///      "buckets": [[268435455, 1], [536870911, 2]]}
///   ]
/// }
/// ```
///
/// Histogram samples are raw recorded values (nanoseconds for durations);
/// `buckets` lists only non-empty buckets as `[upper_bound, count]` pairs.
pub fn render_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\"schema\":\"sle-obs/1\",\"metrics\":[");
    for (i, (name, value)) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",", json_escape(name));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
            }
            MetricValue::Histogram(h) => {
                out.push_str("\"type\":\"histogram\",");
                render_histogram_json(&mut out, h);
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("node.0.fd.mistakes").add(2);
        r.gauge("runtime.workers").set(8);
        let h = r.histogram("node.0.elect.election_ms");
        h.record(100);
        h.record(200);
        h.record(300);
        r
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE node_0_fd_mistakes counter"), "{text}");
        assert!(text.contains("node_0_fd_mistakes 2"), "{text}");
        assert!(text.contains("runtime_workers 8"), "{text}");
        assert!(text.contains("node_0_elect_election_ms_count 3"), "{text}");
        assert!(
            text.contains("node_0_elect_election_ms_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("node_0_elect_election_ms_sum 600"), "{text}");
        // Buckets are cumulative: 100 -> [64,127], 200 -> [128,255],
        // 300 -> [256,511].
        assert!(
            text.contains("node_0_elect_election_ms_bucket{le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("node_0_elect_election_ms_bucket{le=\"255\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("node_0_elect_election_ms_bucket{le=\"511\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = render_json(&sample_registry().snapshot());
        assert!(json.starts_with("{\"schema\":\"sle-obs/1\""), "{json}");
        assert!(
            json.contains("{\"name\":\"node.0.fd.mistakes\",\"type\":\"counter\",\"value\":2}"),
            "{json}"
        );
        assert!(
            json.contains("{\"name\":\"runtime.workers\",\"type\":\"gauge\",\"value\":8}"),
            "{json}"
        );
        assert!(json.contains("\"count\":3,\"sum\":600"), "{json}");
        assert!(json.contains("[127,1],[255,1],[511,1]"), "{json}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn top_bucket_le_label_folds_into_inf() {
        // A sample of `u64::MAX` lands in the top bucket, whose upper bound
        // saturates at `u64::MAX` — the exposition must not render a finite
        // `le="18446744073709551615"` line; those observations belong to
        // `+Inf` alone.
        let r = Registry::new();
        let h = r.histogram("fd.detection_ns");
        h.record(5);
        h.record(u64::MAX);
        let text = render_prometheus(&r.snapshot());
        // `sum` wraps modulo 2^64: 5 + (2^64 - 1) = 4.
        let expected = "# TYPE fd_detection_ns histogram\n\
                        fd_detection_ns_bucket{le=\"7\"} 1\n\
                        fd_detection_ns_bucket{le=\"+Inf\"} 2\n\
                        fd_detection_ns_sum 4\n\
                        fd_detection_ns_count 2\n";
        assert_eq!(text, expected);
        assert!(!text.contains("18446744073709551615"), "{text}");
    }

    #[test]
    fn name_mangling() {
        assert_eq!(prometheus_name("node.0.fd-x.y_z"), "node_0_fd_x_y_z");
        assert_eq!(prometheus_name("9abc"), "_abc");
    }
}
