//! `rt-udp-steady`: the service on the wall clock, over real sockets.
//!
//! `Cluster::start_with_service_configs` drives 250 `ServiceNode`s on two
//! shard workers over `SharedUdpPlane::bind_loopback(250, 4)` — every
//! message is encoded by `sle-wire`, coalesced into datagrams, sent through
//! a loopback UDP socket, demultiplexed by a reader thread and handed to a
//! shard mailbox. 500 groups of 8 run Ω_l with `T_D` = 1 s and a 200 ms
//! HELLO interval. Nothing is ever crashed: after the election the workload
//! is the protocol's own steady traffic, and the quantity of interest is
//! what that costs — the paper's "lightweight".
//!
//! The simulator does none of the work here; `wire`, `udp`, `net::mailbox`
//! and `core::runtime` do all of it — and most of that is kernel services
//! (timer sleeps, wake-ups, loopback datagrams), whose price on the shared
//! reference host moves by a factor of two over minutes. The untraced pass
//! therefore runs the [`canary`](crate::canary) beside the cluster and
//! reports the CPU per node at the quiet host's price.

use std::time::{Duration, Instant};

use sle_core::{Cluster, ClusterConfig, JoinConfig, ServiceConfig, ServiceEvent, ServiceMessage};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::deploy;
use sle_net::transport::MessageEndpoint;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};
use sle_udp::{PlaneStatsSnapshot, SharedUdpEndpoint, SharedUdpPlane};

use crate::canary::{self, Canary};
use crate::catalogue::Better;
use crate::ledger::{self, Slot};
use crate::probes::{samples, EndpointProbe};
use crate::qos::GroupQos;
use crate::replay;
use crate::runner::{self, CpuSnapshot, Outcome, RunArgs};

/// The shape of the wall-clock UDP workload.
#[derive(Debug, Clone, Copy)]
pub struct RtShape {
    /// Service nodes.
    pub nodes: usize,
    /// Groups, strided over the nodes.
    pub groups: usize,
    /// Members per group.
    pub members: usize,
    /// Shared sockets (one demultiplexing reader thread each).
    pub sockets: usize,
    /// Shard workers.
    pub workers: usize,
    /// The failure-detection bound `T_D`.
    pub detection: SimDuration,
    /// HELLO gossip interval.
    pub hello: SimDuration,
    /// Steady-state running time between the election and the window.
    pub warmup: Duration,
    /// Set-ups per untraced run (`setup_s` is the quickest).
    pub setups: usize,
}

impl RtShape {
    /// The full shape, or the CI-sized one.
    pub fn new(smoke: bool) -> Self {
        RtShape {
            nodes: if smoke { 24 } else { 250 },
            groups: if smoke { 24 } else { 500 },
            members: if smoke { 4 } else { 8 },
            // Not the two the runtime bench uses: two default-sized receive
            // buffers overflow in the ALIVE bursts of 250 nodes (0.3–1.4 % of
            // the records undelivered), and about one run in ten then loses
            // enough consecutive ALIVEs to flip leaders nobody crashed.
            sockets: 4,
            workers: 2,
            // The paper's default. With 500 ms a stall of the shared host
            // that long (seen about once in 75 runs) made every group
            // suspect a leader nobody had crashed.
            detection: SimDuration::from_secs(1),
            hello: SimDuration::from_millis(200),
            warmup: Duration::from_millis(if smoke { 500 } else { 3000 }),
            setups: if smoke { 2 } else { 3 },
        }
    }

    fn deployment(&self, args: &RunArgs) -> Vec<Vec<NodeId>> {
        super::rotated_strided_groups(self.nodes, self.groups, self.members, args)
    }
}

/// How long a set-up may take to elect everywhere before it is given up.
const ELECTION_DEADLINE: Duration = Duration::from_secs(30);

/// A started cluster whose every group has elected.
struct Running {
    cluster: Cluster,
    plane: SharedUdpPlane<ServiceMessage>,
    started: Instant,
    qos: GroupQos,
    /// Whether every group agreed before the deadline.
    elected: bool,
}

impl Running {
    fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// Feeds the cluster's `LeaderChanged` stream to the QoS observer until
    /// `until`, stamping each event on receipt.
    fn observe_until(&mut self, until: Instant) {
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if let Some(event) = self.cluster.next_event(left.min(Duration::from_millis(20))) {
                let ServiceEvent::LeaderChanged { group, leader } = event.event;
                let now = self.now();
                self.qos.view_changed(now, event.node, group, leader);
            }
        }
    }
}

/// Binds the plane, starts the cluster and waits until every group's
/// members agree: everything `setup_s` covers.
fn set_up<E>(
    shape: &RtShape,
    groups: &[Vec<NodeId>],
    wrap: fn(SharedUdpEndpoint<ServiceMessage>) -> E,
) -> Running
where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(shape.nodes, shape.sockets)
        .expect("bind the loopback UDP plane");
    let endpoints: Vec<E> = plane.endpoints().into_iter().map(wrap).collect();
    let membership = deploy::membership(shape.nodes, groups);
    let join =
        JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(shape.detection));
    let configs = (0..shape.nodes)
        .map(|i| {
            let mut peers = membership.peers_of[i].clone();
            if peers.is_empty() {
                peers.push(NodeId(i as u32));
            }
            let mut config = ServiceConfig::new(NodeId(i as u32), peers, ElectorKind::OmegaL)
                .with_hello_interval(shape.hello);
            for &group in &membership.groups_of[i] {
                config = config.with_auto_join(group, join);
            }
            config
        })
        .collect();
    let options = ClusterConfig::new(ElectorKind::OmegaL).with_workers(shape.workers);
    let started = Instant::now();
    let cluster = Cluster::start_with_service_configs(endpoints, configs, &options);
    let mut running = Running {
        cluster,
        plane,
        started,
        qos: GroupQos::new(shape.nodes, groups, SimInstant::ZERO),
        elected: false,
    };
    let deadline = started + ELECTION_DEADLINE;
    while Instant::now() < deadline {
        running.observe_until((Instant::now() + Duration::from_millis(20)).min(deadline));
        if running.qos.fully_agreed() == groups.len() {
            running.elected = true;
            break;
        }
    }
    running
}

/// One slice of the window.
#[derive(Debug, Clone, Copy)]
struct Slice {
    secs: f64,
    cpu_ns: u64,
    shard_cpu_ns: u64,
    reader_cpu_ns: u64,
    delivered: u64,
    tracing: bool,
    /// How much dearer than in a quiet spell the host was (1 without a
    /// canary: the traced pass).
    host_factor: f64,
}

fn median_of(slices: &[Slice], tracing: bool, f: impl Fn(&Slice) -> f64) -> f64 {
    let mut values: Vec<f64> = slices
        .iter()
        .filter(|s| s.tracing == tracing)
        .map(f)
        .collect();
    runner::median(&mut values)
}

/// Runs the wall-clock UDP workload.
pub fn run(shape: &RtShape, args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let groups = shape.deployment(args);
    outcome.detail(
        "deployment",
        format!(
            "{} nodes x {} groups x {} members over {} sockets, {} shard workers, window {} s",
            shape.nodes, shape.groups, shape.members, shape.sockets, shape.workers, args.seconds
        ),
    );
    // `setup_s` is the quickest of several set-ups. The first one is the
    // cluster the window runs on; the others follow the window, so that
    // `peak_rss_mb` is one deployment's (re-built clusters land on fresh
    // allocator arenas: three set-ups in a row peaked anywhere between 47
    // and 62 MB). The traced pass reports no set-up time and sets up once.
    let build = || {
        runner::timed(|| {
            if args.traced {
                set_up(shape, &groups, EndpointProbe::new)
            } else {
                set_up(shape, &groups, |endpoint| endpoint)
            }
        })
    };
    let not_elected = |running: &Running| {
        format!(
            "only {} of {} groups agreed within {ELECTION_DEADLINE:?}",
            running.qos.fully_agreed(),
            groups.len()
        )
    };
    let (mut running, took) = build();
    let mut setup_s = vec![took.as_secs_f64()];
    if !running.elected {
        outcome.problem(not_elected(&running));
    }
    let canary = (!args.traced).then(|| Canary::start(None).expect("bind the canary's socket"));
    running.observe_until(Instant::now() + shape.warmup);

    // The window: one-second slices; in the traced pass the probes record
    // in every second one.
    let window_from = running.now();
    running.qos.begin_window(window_from);
    let plane_before = running.plane.stats();
    let pool_before = running.plane.pool_stats();
    let runtime_before = running.cluster.runtime_stats();
    let window_start = Instant::now();
    let slice_count = if args.traced {
        args.seconds.max(2).next_multiple_of(2)
    } else {
        args.seconds.max(1)
    };
    let mut slices = Vec::new();
    for slice in 0..slice_count {
        let tracing = args.traced && slice % 2 == 1;
        ledger::set_tracing(tracing);
        let cpu = CpuSnapshot::take();
        let rounds = canary.as_ref().map_or(0, Canary::rounds);
        let delivered = running.plane.stats().delivered;
        let start = Instant::now();
        running.observe_until(window_start + Duration::from_secs(slice + 1));
        let cpu_after = CpuSnapshot::take();
        let rounds = canary.as_ref().map_or(0, Canary::rounds) - rounds;
        let canary_cpu_ns = cpu_after.since(&cpu, canary::THREAD_NAME);
        slices.push(Slice {
            secs: start.elapsed().as_secs_f64(),
            cpu_ns: cpu_after.since(&cpu, "") - canary_cpu_ns,
            shard_cpu_ns: cpu_after.since(&cpu, "sle-shard"),
            reader_cpu_ns: cpu_after.since(&cpu, "sle-udp-plane"),
            delivered: running.plane.stats().delivered - delivered,
            tracing,
            host_factor: canary::host_factor(canary_cpu_ns, rounds),
        });
    }
    ledger::set_tracing(false);
    let window_s = window_start.elapsed().as_secs_f64();
    if let Some(canary) = canary {
        canary.stop();
    }
    let plane = {
        let now = running.plane.stats();
        PlaneStatsSnapshot {
            delivered: now.delivered - plane_before.delivered,
            records_sent: now.records_sent - plane_before.records_sent,
            datagrams_sent: now.datagrams_sent - plane_before.datagrams_sent,
            reader_wakeups: now.reader_wakeups - plane_before.reader_wakeups,
            ..now
        }
    };
    let pool = running.plane.pool_stats();
    let runtime = running.cluster.runtime_stats();
    let end = running.now();

    let Running {
        cluster,
        plane: plane_handle,
        qos,
        ..
    } = running;
    cluster.shutdown();
    drop(plane_handle);
    let report = qos.finish(end);
    let peak_rss_mb = runner::peak_rss_mb();
    if !args.traced {
        for _ in 1..shape.setups {
            let (again, took) = build();
            setup_s.push(took.as_secs_f64());
            if !again.elected {
                outcome.problem(not_elected(&again));
            }
            again.cluster.shutdown();
            drop(again.plane);
        }
    }

    // Operations: one per group; failed if any member changed its leader
    // view inside the window (nothing is crashed, so none is forced) or the
    // group is not agreed at the end.
    let not_agreed = report.groups - report.fully_agreed_at_end;
    outcome.attempted = report.groups as u64;
    outcome.failed = (not_agreed + report.groups_with_view_changes).min(report.groups) as u64;
    if not_agreed > 0 {
        outcome.problem(format!("{not_agreed} groups are not agreed at the end"));
    }
    let undelivered_frac = 1.0 - plane.delivered as f64 / plane.records_sent.max(1) as f64;
    outcome.detail("leader_view_changes_in_window", report.view_changes);
    outcome.detail("records_sent", plane.records_sent);
    outcome.detail("datagrams_sent", plane.datagrams_sent);
    outcome.detail("undelivered_frac", format!("{undelivered_frac:.6}"));
    outcome.detail("window_wall_s", format!("{window_s:.3}"));

    let nodes = shape.nodes as f64;
    if !args.traced {
        outcome.set("setup_s", runner::quiet_decile(&mut setup_s, Better::Lower));
        // The protocol's own offered load: flat by design. A drop means
        // records were lost or nodes fell silent.
        outcome.set(
            "ops_per_s",
            median_of(&slices, false, |s| s.delivered as f64 / s.secs),
        );
        // At the quiet host's price: each slice's CPU over the factor the
        // canary paid in that slice.
        let cpu_us = |s: &Slice| s.cpu_ns as f64 / 1e3 / nodes / s.secs;
        outcome.set(
            "cpu_us_per_node_s",
            median_of(&slices, false, |s| cpu_us(s) / s.host_factor),
        );
        outcome.detail(
            "cpu_us_per_node_s_as_paid",
            format!(
                "{:.1} us at a host factor of {:.3} (canary round {:.0} ns)",
                median_of(&slices, false, cpu_us),
                median_of(&slices, false, |s| s.host_factor),
                median_of(&slices, false, |s| s.host_factor) * canary::QUIET_ROUND_NS
            ),
        );
        outcome.set("unavailable_frac", 1.0 - report.availability);
        outcome.detail(
            "msgs_per_node_s",
            format!(
                "{:.3} datagrams/s",
                plane.datagrams_sent as f64 / nodes / window_s
            ),
        );
        if let Some(p) = runner::percentiles(&mut report.election_ms.clone()) {
            outcome.detail(
                "election_ms",
                format!(
                    "p50 {:.1}, max {:.1} wall ms over {} groups",
                    p.p50, p.max, p.samples
                ),
            );
        }
        outcome.set("peak_rss_mb", peak_rss_mb);
        return outcome;
    }

    let ledger = ledger::collect();
    let store = samples::take();
    let clock = runner::clock_overhead_ns() / 2.0;
    let traced_share = slices.iter().filter(|s| s.tracing).count() as f64 / slices.len() as f64;
    let send = ledger.stat(Slot::EndpointSend);
    let flush = ledger.stat(Slot::EndpointFlush);
    outcome.set(
        "udp.plane.send_ns_per_record",
        (send.ns_per_call() - clock).max(0.0),
    );
    // Flushes are per resident per round and mostly find nothing pending;
    // what a datagram costs is their total over the datagrams they sent.
    outcome.set(
        "udp.plane.flush_ns_per_datagram",
        (flush.total_ns() - flush.calls as f64 * clock).max(0.0)
            / (plane.datagrams_sent as f64 * traced_share).max(1.0),
    );
    outcome.set(
        "udp.plane.records_per_datagram",
        plane.records_sent as f64 / plane.datagrams_sent.max(1) as f64,
    );
    outcome.set("udp.plane.undelivered_frac", undelivered_frac.max(0.0));
    let delivered: u64 = slices.iter().map(|s| s.delivered).sum();
    let reader_cpu: u64 = slices.iter().map(|s| s.reader_cpu_ns).sum();
    let shard_cpu: u64 = slices.iter().map(|s| s.shard_cpu_ns).sum();
    outcome.set(
        "udp.plane.reader_cpu_ns_per_record",
        reader_cpu as f64 / delivered.max(1) as f64,
    );
    outcome.set(
        "udp.plane.reader_wakeups_per_s",
        plane.reader_wakeups as f64 / window_s,
    );
    outcome.set(
        "udp.pool.fallback_allocs",
        (pool.exhausted - pool_before.exhausted) as f64,
    );
    outcome.set(
        "udp.plane.echo_records_per_s",
        replay::plane_echo_records_per_s(Duration::from_millis(if args.smoke { 100 } else { 500 })),
    );
    outcome.set(
        "core.runtime.shard_cpu_ns_per_record",
        shard_cpu as f64 / delivered.max(1) as f64,
    );
    outcome.set(
        "core.runtime.wakeups_per_s",
        (runtime.wakeups - runtime_before.wakeups) as f64 / window_s,
    );
    outcome.set(
        "core.runtime.idle_wakeups_per_s",
        (runtime.idle_wakeups - runtime_before.idle_wakeups) as f64 / window_s,
    );
    outcome.set(
        "core.runtime.shard_busy_frac",
        shard_cpu as f64 / 1e9 / window_s / shape.workers as f64,
    );
    outcome.set("net.mailbox.handoff_ns", replay::mailbox_handoff_ns());

    outcome.set("wire.frames", plane.records_sent as f64);
    super::set_codec_metrics(&mut outcome, &store);
    super::set_stream_replay_metrics(&mut outcome, &store, shape.detection);

    outcome.set(
        "qos.msgs_per_node_s",
        plane.datagrams_sent as f64 / nodes / window_s,
    );
    super::set_election_metrics(&mut outcome, &report);
    outcome.set("qos.leader_availability", report.availability);
    outcome.set("qos.leader_changes", report.agreed_leader_changes as f64);
    let cpu_per_s = |s: &Slice| s.cpu_ns as f64 / s.secs;
    outcome.set(
        "bench.trace_overhead_frac",
        median_of(&slices, true, cpu_per_s) / median_of(&slices, false, cpu_per_s).max(1.0) - 1.0,
    );
    crate::write_span_dump(&ledger, &mut outcome);
    outcome
}
