//! `app-failover`: the client tier under forced leader crashes.
//!
//! Twelve servers on an in-memory mesh (perfect links) run Ω_l on **one**
//! shard worker with `T_D` = 250 ms; every server has a `FencedCounter`
//! installed, all reporting into one shared `FencingAudit`. One `ClientHub`
//! on a second thread drives a **closed loop**: 256 sessions, 256 requests
//! in flight, each caller waiting for its reply before sending the next.
//! The workload runs in segments of a fixed number of requests, and half a
//! second into every segment the thread that owns the `Cluster` crash-stops
//! the currently serving leader — under load, without waiting for the
//! re-election. The hub must time out, rediscover, follow redirects and
//! finish every request.
//!
//! Crash-stop only: `Cluster::recover` resumes a node with its old state,
//! and the resumed ex-leader retakes the leadership and serves under a
//! regressed token (see the README's fencing finding) — that hazard is
//! recorded, not benchmarked around.
//!
//! Lease, client routing, the election edge and the mailbox hand-off do the
//! work; `wire` and `udp` do none.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sle_app::{ClientConfig, ClientHub, FencedCounter, FencingAudit, HubReport};
use sle_core::lease::FencedApp;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ServiceMessage};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::LinkSpec;
use sle_net::transport::{Endpoint, InMemoryMesh, MessageEndpoint};
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

use crate::catalogue::Better;
use crate::ledger::{self, now_ns, Slot};
use crate::probes::{samples, AppProbe, ClientTimeline, EndpointProbe};
use crate::replay;
use crate::runner::{self, CpuSnapshot, Outcome, RunArgs};

const GROUP: GroupId = GroupId(1);

/// The shape of the client-tier workload.
#[derive(Debug, Clone, Copy)]
pub struct AppShape {
    /// Service nodes (one is crash-stopped per segment).
    pub servers: usize,
    /// The failure-detection bound `T_D` (also the lease term).
    pub detection: SimDuration,
    /// Client sessions = requests in flight (the closed loop's callers).
    pub sessions: u64,
    /// Requests each session issues per segment.
    pub per_session: u64,
    /// Requests each session issues in the set-up's warm-up.
    pub warmup_per_session: u64,
    /// How far into a segment the serving leader is crashed.
    pub crash_after: Duration,
    /// Seconds of `--seconds` per segment.
    pub seconds_per_segment: u64,
    /// Set-ups per untraced run (`setup_s` is the quickest).
    pub setups: usize,
}

impl AppShape {
    /// The full shape, or the CI-sized one.
    pub fn new(smoke: bool) -> Self {
        AppShape {
            servers: 12,
            detection: SimDuration::from_millis(250),
            sessions: 256,
            // Smoke: a segment must still be running when its crash comes
            // (128 000 requests were done in 80 ms on a quiet host).
            per_session: if smoke { 1000 } else { 8000 },
            warmup_per_session: if smoke { 50 } else { 400 },
            crash_after: Duration::from_millis(if smoke { 30 } else { 500 }),
            seconds_per_segment: 2,
            setups: if smoke { 2 } else { 3 },
        }
    }

    /// Segments for a run of `seconds`: at least one, at most as many as
    /// leave three servers standing; even in the traced pass (every second
    /// segment is traced).
    fn segments(&self, args: &RunArgs) -> u64 {
        let wanted = (args.seconds / self.seconds_per_segment).max(1);
        let most = self.servers as u64 - 3;
        if args.traced {
            wanted.next_multiple_of(2).min(most - most % 2)
        } else {
            wanted.min(most)
        }
    }
}

/// What the thread that owns the cluster tells the hub thread.
enum Order {
    /// Run one segment of `per_session` requests per session.
    Segment { per_session: u64 },
    /// Finish.
    Stop,
}

/// What the hub thread reports back.
enum Progress {
    /// A segment is about to start.
    Started,
    /// A segment finished.
    Done(Box<HubReport>),
}

/// The hub thread's body: runs segments on order and flushes its ledger
/// before it ends.
fn hub_loop<E: MessageEndpoint<ServiceMessage>>(
    mut hub: ClientHub<E>,
    sessions: u64,
    orders: Receiver<Order>,
    progress: Sender<Progress>,
) {
    while let Ok(Order::Segment { per_session }) = orders.recv() {
        if progress.send(Progress::Started).is_err() {
            break;
        }
        let report = hub.run_workload(sessions, per_session, 1);
        if progress.send(Progress::Done(Box::new(report))).is_err() {
            break;
        }
    }
    ledger::flush_thread();
}

/// A started deployment with a leader elected and a warmed-up hub thread.
struct Running {
    cluster: Cluster,
    alive: Vec<NodeId>,
    audit: Arc<FencingAudit>,
    orders: Sender<Order>,
    progress: Receiver<Progress>,
    hub: std::thread::JoinHandle<()>,
    timeline: Arc<ClientTimeline>,
    problems: Vec<String>,
}

impl Running {
    /// The serving leader: the survivors' agreed view, once it names a
    /// survivor.
    fn await_leader(&self, timeout: Duration) -> Option<NodeId> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(leader) = self.cluster.agreed_leader_among(GROUP, &self.alive) {
                if self.alive.contains(&leader.node) {
                    return Some(leader.node);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Orders one segment and returns once it has started.
    fn start_segment(&self, per_session: u64) -> bool {
        self.orders.send(Order::Segment { per_session }).is_ok()
            && matches!(self.progress.recv(), Ok(Progress::Started))
    }

    fn finish_segment(&self) -> Option<HubReport> {
        match self.progress.recv() {
            Ok(Progress::Done(report)) => Some(*report),
            _ => None,
        }
    }

    fn shut_down(self) -> Vec<String> {
        let _ = self.orders.send(Order::Stop);
        let mut problems = self.problems;
        if self.hub.join().is_err() {
            problems.push("the hub thread panicked".to_string());
        }
        self.cluster.shutdown();
        problems
    }
}

/// Builds the mesh, starts the cluster, installs the apps, elects, starts
/// the hub thread and runs the warm-up requests: everything `setup_s`
/// covers.
fn set_up<S, C, A>(
    shape: &AppShape,
    args: &RunArgs,
    wrap_server: fn(Endpoint<ServiceMessage>) -> S,
    wrap_client: fn(Endpoint<ServiceMessage>, Arc<ClientTimeline>) -> C,
    wrap_app: fn(FencedCounter) -> A,
) -> Running
where
    S: MessageEndpoint<ServiceMessage> + Send + 'static,
    C: MessageEndpoint<ServiceMessage> + Send + 'static,
    A: FencedApp + 'static,
{
    let servers = shape.servers;
    let mut mesh: InMemoryMesh<ServiceMessage> =
        InMemoryMesh::with_links(servers + 1, LinkSpec::perfect(), args.subseed(1));
    let endpoints: Vec<S> = (0..servers)
        .map(|i| wrap_server(mesh.endpoint(NodeId(i as u32)).expect("server endpoint")))
        .collect();
    let timeline = Arc::new(ClientTimeline::default());
    let client = wrap_client(
        mesh.endpoint(NodeId(servers as u32))
            .expect("client endpoint"),
        Arc::clone(&timeline),
    );
    let cluster = Cluster::start_endpoints_with_config(
        endpoints,
        ClusterConfig::new(ElectorKind::OmegaL)
            .with_workers(1)
            .with_mesh_seed(args.subseed(1)),
    );
    let audit = FencingAudit::shared();
    let qos = QosSpec::paper_default_with_detection(shape.detection);
    let mut problems = Vec::new();
    let alive: Vec<NodeId> = (0..servers as u32).map(NodeId).collect();
    for &node in &alive {
        let handle = cluster.handle(node).expect("handle");
        let app = wrap_app(FencedCounter::with_audit(Arc::clone(&audit)));
        if !handle.install_app(Box::new(app))
            || handle
                .join(GROUP, JoinConfig::candidate().with_qos(qos))
                .is_none()
        {
            problems.push(format!("server {node} refused its app or its join"));
        }
    }
    let mut config = ClientConfig::new(GROUP, alive.clone());
    config.max_inflight = shape.sessions as usize;
    config.deadline = Some(Duration::from_secs(60));
    let (orders, hub_orders) = channel();
    let (hub_progress, progress) = channel();
    let sessions = shape.sessions;
    let hub = std::thread::Builder::new()
        .name("bench-hub".to_string())
        .spawn(move || {
            hub_loop(
                ClientHub::new(client, config),
                sessions,
                hub_orders,
                hub_progress,
            )
        })
        .expect("spawn the hub thread");
    let mut running = Running {
        cluster,
        alive,
        audit,
        orders,
        progress,
        hub,
        timeline,
        problems,
    };
    if running.await_leader(Duration::from_secs(30)).is_none() {
        running
            .problems
            .push("no initial leader within 30 s".to_string());
    }
    // Warm-up: the hub discovers the leader and the lease settles.
    if !running.start_segment(shape.warmup_per_session)
        || running.finish_segment().is_none_or(|report| report.gave_up)
    {
        running
            .problems
            .push("the warm-up requests were not served".to_string());
    }
    running
}

/// What one segment measured.
struct Segment {
    report: HubReport,
    /// Process CPU nanoseconds from the segment's start to its last reply.
    cpu_ns: u64,
    tracing: bool,
    /// Traced segments only: crash → survivors agree on a live leader →
    /// that leader holds a lease → first applied reply, in milliseconds.
    detect_elect_ms: Option<f64>,
    settle_ms: Option<f64>,
    discover_ms: Option<f64>,
}

impl Segment {
    /// Applied requests per second of serving time (reply gaps above the
    /// stall floor excluded: they are the fail-over, counted on their own).
    fn req_per_s(&self) -> f64 {
        let serving = self.report.elapsed.saturating_sub(self.report.stalled);
        self.report.completed as f64 / serving.as_secs_f64().max(1e-9)
    }
}

/// Watches the survivors at 1 ms from the crash until they agree on a live
/// leader and that leader holds a lease. Returns the two instants in
/// [`now_ns`] time.
fn watch_failover(running: &Running, give_up: Duration) -> (Option<u64>, Option<u64>) {
    let deadline = Instant::now() + give_up;
    let mut elected: Option<(NodeId, u64)> = None;
    while Instant::now() < deadline {
        match elected {
            None => {
                if let Some(leader) = running.cluster.agreed_leader_among(GROUP, &running.alive) {
                    if running.alive.contains(&leader.node) {
                        elected = Some((leader.node, now_ns()));
                        continue;
                    }
                }
            }
            Some((leader, at)) => {
                let lease = running
                    .cluster
                    .handle(leader)
                    .and_then(|handle| handle.lease_of(GROUP));
                if lease.is_some() {
                    return (Some(at), Some(now_ns()));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (elected.map(|(_, at)| at), None)
}

/// Runs the client-tier workload.
pub fn run(shape: &AppShape, args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let segments = shape.segments(args);
    let per_segment = shape.sessions * shape.per_session;
    outcome.detail(
        "deployment",
        format!(
            "{} servers on one shard worker, closed loop of {} sessions, {segments} segments x {per_segment} requests, one leader crash each",
            shape.servers, shape.sessions
        ),
    );
    let setups = if args.traced { 1 } else { shape.setups.max(1) };
    let mut setup_s = Vec::new();
    let mut running: Option<Running> = None;
    for _ in 0..setups {
        if let Some(previous) = running.take() {
            outcome.problems.extend(previous.shut_down());
        }
        let (built, took) = runner::timed(|| {
            if args.traced {
                set_up(
                    shape,
                    args,
                    EndpointProbe::new,
                    |endpoint, timeline| {
                        EndpointProbe::client(endpoint, Duration::from_millis(50), timeline)
                    },
                    AppProbe::new,
                )
            } else {
                set_up(
                    shape,
                    args,
                    |endpoint| endpoint,
                    |endpoint, _| endpoint,
                    |app| app,
                )
            }
        });
        setup_s.push(took.as_secs_f64());
        running = Some(built);
    }
    let mut running = running.expect("at least one set-up");
    // The warm-up's accepts are not part of the window.
    let audit_before = running.audit.snapshot();
    let runtime_before = running.cluster.runtime_stats();

    let cpu_before = CpuSnapshot::take();
    let window_start = Instant::now();
    let mut measured: Vec<Segment> = Vec::new();
    for segment in 0..segments {
        let tracing = args.traced && segment % 2 == 1;
        ledger::set_tracing(tracing);
        let segment_cpu = CpuSnapshot::take();
        if !running.start_segment(shape.per_session) {
            outcome.problem(format!("segment {segment}: the hub thread is gone"));
            break;
        }
        std::thread::sleep(shape.crash_after);
        let mut watched = (None, None);
        let mut crashed_at = None;
        match running.await_leader(Duration::from_secs(10)) {
            Some(leader) => {
                crashed_at = Some(now_ns());
                running.cluster.crash(leader);
                running.alive.retain(|&node| node != leader);
                if tracing {
                    watched = watch_failover(&running, Duration::from_secs(10));
                }
                if args.pause_resume {
                    // Not crash-stop but pause: the node comes back with
                    // the state (and the lease) it had.
                    std::thread::sleep(Duration::from_secs(1));
                    running.cluster.recover(leader);
                    running.alive.push(leader);
                }
            }
            None => outcome.problem(format!("segment {segment}: no serving leader to crash")),
        }
        let Some(report) = running.finish_segment() else {
            outcome.problem(format!("segment {segment}: the hub thread is gone"));
            break;
        };
        if report.gave_up || report.completed != per_segment {
            outcome.problem(format!(
                "segment {segment}: {} of {per_segment} requests applied",
                report.completed
            ));
        }
        // The first applied reply after the crash ends the reply gap that
        // contains the crash instant.
        let first_reply = crashed_at.and_then(|crash| {
            let gaps = running
                .timeline
                .gaps
                .lock()
                .expect("client timeline poisoned");
            gaps.iter()
                .find(|&&(_, after)| after > crash)
                .map(|&(_, after)| after)
        });
        let ms = |from: Option<u64>, to: Option<u64>| match (from, to) {
            (Some(from), Some(to)) => Some(to.saturating_sub(from) as f64 / 1e6),
            _ => None,
        };
        measured.push(Segment {
            report,
            cpu_ns: CpuSnapshot::take().since(&segment_cpu, ""),
            tracing,
            detect_elect_ms: ms(crashed_at, watched.0),
            settle_ms: ms(watched.0, watched.1),
            discover_ms: ms(watched.1, first_reply),
        });
    }
    ledger::set_tracing(false);
    let window_s = window_start.elapsed().as_secs_f64();
    let cpu_after = CpuSnapshot::take();
    let shard_cpu_ns = cpu_after.since(&cpu_before, "sle-shard");
    let runtime = running.cluster.runtime_stats();
    let audit = running.audit.snapshot();
    outcome.problems.extend(running.shut_down());

    let requests = segments * per_segment;
    let applied: u64 = measured.iter().map(|s| s.report.completed).sum();
    let violations = audit.violations - audit_before.violations;
    outcome.attempted = requests;
    outcome.failed = requests.saturating_sub(applied) + violations;
    if violations > 0 {
        outcome.problem(format!("{violations} fencing violations in the audit"));
    }
    if audit.accepts - audit_before.accepts < applied {
        outcome.problem(format!(
            "the audit saw {} accepts, the clients {applied} applied replies",
            audit.accepts - audit_before.accepts
        ));
    }
    // One fail-over per segment: the longest reply gap.
    let mut failover_ms: Vec<f64> = measured
        .iter()
        .map(|s| s.report.longest_stall.as_secs_f64() * 1e3)
        .collect();
    for (i, s) in measured.iter().enumerate() {
        if s.report.longest_stall < Duration::from_millis(50) {
            outcome.problem(format!("segment {i}: the leader crash stalled no client"));
        }
    }
    let stalled: f64 = measured
        .iter()
        .map(|s| s.report.stalled.as_secs_f64())
        .sum();
    let elapsed: f64 = measured
        .iter()
        .map(|s| s.report.elapsed.as_secs_f64())
        .sum();
    let mut latencies_us: Vec<f64> = measured
        .iter()
        .flat_map(|s| s.report.latencies_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let latency = runner::percentiles(&mut latencies_us);
    let failover = runner::percentiles(&mut failover_ms);
    let sum = |f: fn(&HubReport) -> u64| measured.iter().map(|s| f(&s.report)).sum::<u64>() as f64;
    let crashes = measured.len().max(1) as f64;
    outcome.detail("requests_applied", applied);
    outcome.detail("window_wall_s", format!("{window_s:.3}"));
    outcome.detail(
        "fencing",
        format!(
            "{} accepts, {} rejections, {violations} violations",
            audit.accepts - audit_before.accepts,
            audit.rejections - audit_before.rejections
        ),
    );
    if let Some(p) = failover {
        outcome.detail(
            "failover_ms",
            format!(
                "p50 {:.1}, max {:.1} over {} crashes",
                p.p50, p.max, p.samples
            ),
        );
    }
    if let Some(p) = latency {
        let tail = p
            .tail
            .map_or(String::new(), |(pct, value)| format!(", p{pct} {value:.1}"));
        outcome.detail(
            "request_latency_us",
            format!("p50 {:.1}{tail} over {} requests", p.p50, p.samples),
        );
    }

    if !args.traced {
        outcome.set("setup_s", runner::quiet_decile(&mut setup_s, Better::Lower));
        // The quiet decile of at most nine segments is the best one.
        let mut rates: Vec<f64> = measured.iter().map(Segment::req_per_s).collect();
        let ops_per_s = runner::quiet_decile(&mut rates, Better::Higher);
        outcome.set("ops_per_s", ops_per_s);
        // CPU per request × requests per second, both at the quiet decile
        // (as on the simulated workloads). A saturated closed loop keeps its
        // two threads busy whatever the code costs, so this follows
        // `ops_per_s`; it is here for completeness.
        let mut cpu_per_request: Vec<f64> = measured
            .iter()
            .map(|s| s.cpu_ns as f64 / s.report.completed.max(1) as f64)
            .collect();
        outcome.set(
            "cpu_us_per_node_s",
            runner::quiet_decile(&mut cpu_per_request, Better::Lower) * ops_per_s
                / 1e3
                / shape.servers as f64,
        );
        // Client-visible: the share of a segment spent in reply gaps above
        // the 50 ms stall floor — its fail-over — when the rest of it is
        // served at the quiet decile's rate; the median segment. (As paid,
        // a slow spell of the host stretches the serving time and shrinks
        // the share: 0.11–0.25 over ten runs of one bad hour.)
        let serving_s = per_segment as f64 / ops_per_s;
        let mut shares: Vec<f64> = measured
            .iter()
            .map(|s| {
                let stalled = s.report.stalled.as_secs_f64();
                stalled / (stalled + serving_s)
            })
            .collect();
        outcome.set("unavailable_frac", runner::median(&mut shares));
        outcome.detail(
            "unavailable_frac_as_paid",
            format!("{:.4}", stalled / elapsed.max(1e-9)),
        );
        outcome.set("peak_rss_mb", runner::peak_rss_mb());
        return outcome;
    }

    let ledger = ledger::collect();
    let store = samples::take();
    let clock = runner::clock_overhead_ns() / 2.0;
    outcome.set(
        "app.client.attempts_per_req",
        sum(|r| r.attempts) / applied.max(1) as f64,
    );
    outcome.set(
        "app.client.redirects_per_crash",
        sum(|r| r.redirects) / crashes,
    );
    outcome.set(
        "app.client.timeouts_per_crash",
        sum(|r| r.timeouts) / crashes,
    );
    outcome.set(
        "app.client.rtt_ns.applied",
        ledger.stat(Slot::ClientApplied).ns_per_call(),
    );
    outcome.set(
        "app.client.rtt_ns.redirect",
        ledger.stat(Slot::ClientRedirect).ns_per_call(),
    );
    if let Some(p) = latency {
        outcome.set("app.client.req_p50_us", p.p50);
        outcome.set("app.client.req_samples", p.samples as f64);
        if let Some((pct, value)) = p.tail {
            outcome.set("app.client.req_tail_us", value);
            outcome.set("app.client.req_tail_pct", pct);
        }
    }
    outcome.set(
        "app.counter.apply_ns",
        (ledger.stat(Slot::AppApply).ns_per_call() - clock).max(0.0),
    );
    let median_of = |f: fn(&Segment) -> Option<f64>| {
        let mut values: Vec<f64> = measured.iter().filter_map(f).collect();
        runner::median(&mut values)
    };
    outcome.set(
        "core.lease.detect_elect_ms",
        median_of(|s| s.detect_elect_ms),
    );
    outcome.set("core.lease.settle_ms", median_of(|s| s.settle_ms));
    outcome.set("app.client.discover_ms", median_of(|s| s.discover_ms));
    if let Some(p) = failover {
        outcome.set("app.failover_p50_ms", p.p50);
        outcome.set("app.failover_max_ms", p.max);
    }
    outcome.set(
        "core.runtime.shard_cpu_ns_per_record",
        shard_cpu_ns as f64 / applied.max(1) as f64,
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
        shard_cpu_ns as f64 / 1e9 / window_s,
    );
    outcome.set("net.mailbox.handoff_ns", replay::mailbox_handoff_ns());
    // No frame is ever encoded on the mesh (`wire.frames` = 0); the codec
    // replay says what these messages *would* cost on a UDP plane.
    super::set_codec_metrics(&mut outcome, &store);
    outcome.set("qos.leader_availability", 1.0 - stalled / elapsed.max(1e-9));
    outcome.set("qos.leader_changes", crashes);
    let rate = |tracing: bool| {
        let mut rates: Vec<f64> = measured
            .iter()
            .filter(|s| s.tracing == tracing)
            .map(Segment::req_per_s)
            .collect();
        runner::median(&mut rates)
    };
    outcome.set(
        "bench.trace_overhead_frac",
        rate(false) / rate(true).max(1.0) - 1.0,
    );
    crate::write_span_dump(&ledger, &mut outcome);
    outcome
}
