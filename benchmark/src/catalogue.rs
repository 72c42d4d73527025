//! The benchmark's names: workloads, end-to-end metrics with their regression
//! bounds, and the per-layer ledger. `BENCHMARK.json` at the repository root
//! is this catalogue written out (`benchmark --emit-contract` prints it, and
//! a test holds the checked-in file to it).

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The contract's word for the direction.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// How long one measured run lasts (`--seconds`), as the contract fixes it.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim-steady",
        "fault-free simulated deployment in steady state, working set beyond the per-core caches: the core/fd/sim ALIVE, HELLO and timer re-arm paths do all the work",
    ),
    (
        "sim-churn",
        "paper Fig. 4-6 regime, lossy links and workstation crashes: the same code used the other way - suspicion, accusation, re-election, obs recording; simulator loop and medium dominate",
    ),
    (
        "rt-udp-steady",
        "the service on the wall clock over the shared UDP plane: wire codec, udp plane and pool, mailbox and shard runtime do the work, the simulator none",
    ),
    (
        "app-failover",
        "closed loop of 256 callers through a ClientHub while the serving leader is crash-stopped under load: lease, client routing, election edge, mailbox hand-off; no wire or UDP",
    ),
];

/// The end-to-end metrics: every workload reports every one (definitions
/// per workload in the README). The bounds are as wide as the contract
/// allows because the reference host is: between quiet and busy spells of
/// its neighbours the same binary's rates move by 10–15 %, and the resident
/// set of the threaded `rt-udp-steady` start-up by 7 % from run to run
/// (the simulated workloads' repeats within 1 %).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_node_s", "us", Better::Lower, 0.25),
    e2e("unavailable_frac", "fraction", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer ledger (layer = crate.module). A metric that does not
/// apply to a workload reads 0 there — which is itself the prediction
/// "this layer does no work on this workload".
pub const PER_LAYER: &[MetricDef] = &[
    // core.node — ActorProbe.
    layer("core.node.on_message_ns.hello", "ns", Lower),
    layer("core.node.on_message_ns.alive", "ns", Lower),
    layer("core.node.on_message_ns.alive_batch", "ns", Lower),
    layer("core.node.on_message_ns.accuse", "ns", Lower),
    layer("core.node.on_message_ns.leave", "ns", Lower),
    layer("core.node.on_message_ns.lease_grant", "ns", Lower),
    layer("core.node.on_message_ns.client_request", "ns", Lower),
    layer("core.node.on_message_calls.hello", "count", Lower),
    layer("core.node.on_message_calls.alive", "count", Lower),
    layer("core.node.on_message_calls.alive_batch", "count", Lower),
    layer("core.node.on_message_calls.accuse", "count", Lower),
    layer("core.node.on_message_calls.leave", "count", Lower),
    layer("core.node.on_message_calls.lease_grant", "count", Lower),
    layer("core.node.on_message_calls.client_request", "count", Lower),
    layer("core.node.on_timer_ns", "ns", Lower),
    layer("core.node.on_timer_calls", "count", Lower),
    layer("core.node.timers_per_node_s", "1/s", Lower),
    layer("core.node.effects_per_call", "count", Lower),
    // sim — spans and wheel replay.
    layer("sim.world.events", "count", Lower),
    layer("sim.world.traced_events", "count", Lower),
    layer("sim.world.crashes", "count", Lower),
    layer("sim.world.loop_self_ns_per_event", "ns", Lower),
    layer("sim.wheel.push_ns", "ns", Lower),
    layer("sim.wheel.pop_ns", "ns", Lower),
    // net — MediumProbe, mailbox ping.
    layer("net.network.transmit_ns_per_msg", "ns", Lower),
    layer("net.network.dropped_frac", "fraction", Lower),
    layer("net.network.msgs", "count", Lower),
    layer("net.mailbox.handoff_ns", "ns", Lower),
    // fd — detector replay, registry histograms.
    layer("fd.detector.on_heartbeat_ns", "ns", Lower),
    layer("fd.detector.poll_ns", "ns", Lower),
    layer("fd.detection_p50_ms", "ms", Lower),
    layer("fd.detection_p99_ms", "ms", Lower),
    layer("fd.mistakes", "count", Lower),
    // election — elector replay, QoS observer.
    layer("election.elector.on_alive_ns", "ns", Lower),
    layer("election.elector.on_suspect_ns", "ns", Lower),
    layer("election.leader_changes_per_crash", "count", Lower),
    // obs and the harness observer.
    layer("obs.histogram.record_ns", "ns", Lower),
    layer("obs.registry.series", "count", Lower),
    layer("harness.observer_ns_per_event", "ns", Lower),
    // wire — codec replay of the endpoint probe's sample.
    layer("wire.frames", "count", Lower),
    layer("wire.bytes_per_msg", "B", Lower),
    layer("wire.encode_ns.hello", "ns", Lower),
    layer("wire.encode_ns.alive_batch", "ns", Lower),
    layer("wire.encode_ns.lease_grant", "ns", Lower),
    layer("wire.encode_ns.client_request", "ns", Lower),
    layer("wire.encode_ns.client_reply", "ns", Lower),
    layer("wire.decode_ns.hello", "ns", Lower),
    layer("wire.decode_ns.alive_batch", "ns", Lower),
    layer("wire.decode_ns.lease_grant", "ns", Lower),
    layer("wire.decode_ns.client_request", "ns", Lower),
    layer("wire.decode_ns.client_reply", "ns", Lower),
    // udp — EndpointProbe, PlaneStats / PoolStats, reader CPU, echo.
    layer("udp.plane.send_ns_per_record", "ns", Lower),
    layer("udp.plane.flush_ns_per_datagram", "ns", Lower),
    layer("udp.plane.records_per_datagram", "count", Higher),
    layer("udp.plane.undelivered_frac", "fraction", Lower),
    layer("udp.plane.reader_cpu_ns_per_record", "ns", Lower),
    layer("udp.plane.reader_wakeups_per_s", "1/s", Lower),
    layer("udp.plane.echo_records_per_s", "1/s", Higher),
    layer("udp.pool.fallback_allocs", "count", Lower),
    // core.runtime — shard-thread CPU, RuntimeStats.
    layer("core.runtime.shard_cpu_ns_per_record", "ns", Lower),
    layer("core.runtime.wakeups_per_s", "1/s", Lower),
    layer("core.runtime.idle_wakeups_per_s", "1/s", Lower),
    layer("core.runtime.shard_busy_frac", "fraction", Lower),
    // app and core.lease — client EndpointProbe, HubReport, AppProbe, polling.
    layer("app.client.attempts_per_req", "count", Lower),
    layer("app.client.redirects_per_crash", "count", Lower),
    layer("app.client.timeouts_per_crash", "count", Lower),
    layer("app.client.rtt_ns.applied", "ns", Lower),
    layer("app.client.rtt_ns.redirect", "ns", Lower),
    layer("app.client.req_p50_us", "us", Lower),
    layer("app.client.req_tail_us", "us", Lower),
    layer("app.client.req_tail_pct", "%", Higher),
    layer("app.client.req_samples", "count", Higher),
    layer("app.counter.apply_ns", "ns", Lower),
    layer("core.lease.detect_elect_ms", "ms", Lower),
    layer("core.lease.settle_ms", "ms", Lower),
    layer("app.client.discover_ms", "ms", Lower),
    layer("app.failover_p50_ms", "ms", Lower),
    layer("app.failover_max_ms", "ms", Lower),
    // The paper-QoS quantities that cannot be dense end-to-end metrics
    // (zero or undefined on some workload).
    layer("qos.msgs_per_node_s", "1/s", Lower),
    layer("qos.election_p50_ms", "ms", Lower),
    layer("qos.election_tail_ms", "ms", Lower),
    layer("qos.election_tail_pct", "%", Higher),
    layer("qos.recovery_p50_ms", "ms", Lower),
    layer("qos.recovery_tail_ms", "ms", Lower),
    layer("qos.recovery_tail_pct", "%", Higher),
    layer("qos.recovery_samples", "count", Higher),
    layer("qos.leader_availability", "fraction", Higher),
    layer("qos.mistakes_per_group_hour", "1/h", Lower),
    layer("qos.leader_changes", "count", Lower),
    // The traced pass itself.
    layer("bench.trace_overhead_frac", "fraction", Lower),
];

/// Whether `name` is made only of the characters the contract allows, starts
/// with a letter or digit, and fits the length limit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `BENCHMARK.json`, written from this catalogue.
pub fn contract_json() -> String {
    let metric = |m: &MetricDef, bounded: bool| {
        let mut s = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        if bounded {
            s.push_str(&format!(", \"bound\": {}", m.bound));
        }
        s.push('}');
        s
    };
    let join = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        join(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
                .collect()
        ),
        join(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        join(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn the_catalogue_fits_the_contract() {
        let mut seen = std::collections::HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract_json().len() < 64 * 1024);
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("udp.plane.send_ns_per_record"));
        assert!(valid_name("sim-steady"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("quote\""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn the_checked_in_contract_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            contract_json(),
            "regenerate with `benchmark --emit-contract > BENCHMARK.json`"
        );
    }
}
