//! The two virtual-time workloads: `sim-steady` and `sim-churn`.
//!
//! Both drive `World<ServiceNode, SimulatedNetwork>` — the sequential
//! simulator the evaluation, the chaos engine and `bench_scale` run on —
//! with S3 (Ω_l) services in strided multi-group deployments, and differ in
//! which way they use the same `core`/`fd`/`election`/`sim` code:
//!
//! * `sim-steady` — many groups on LAN links with no faults. After the
//!   election nothing ever changes: the leaders' batched ALIVEs, the HELLO
//!   gossip and the failure-detector re-arm timers are all the work, over a
//!   working set far larger than the per-core caches.
//! * `sim-churn` — a small, cache-resident population on the paper's lossy
//!   `(10 ms, 0.01)` links with workstations crashing and recovering, and
//!   `NodeInstruments` attached as the chaos engine ships them: suspicion,
//!   accusation, re-election, rejoin HELLOs, the medium's loss lottery and
//!   `sle-obs` recording.
//!
//! The timed window is a fixed span of *virtual* time derived from
//! `--seconds` (calibrated so it takes about that long on the reference
//! host), so every count and every virtual-time metric repeats exactly for
//! a seed.

use std::time::Instant;

use sle_core::ServiceNode;
use sle_core::{GroupId, JoinConfig, NodeInstruments, ServiceConfig, ServiceEvent, ServiceMessage};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::crash::{CrashPlan, CrashProfile};
use sle_harness::deploy;
use sle_net::link::LinkSpec;
use sle_net::network::{NetworkModel, SimulatedNetwork};
use sle_obs::{Registry, TraceRing};
use sle_sim::actor::{Actor, NodeId};
use sle_sim::medium::Medium;
use sle_sim::observer::Observer;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::world::World;

use crate::canary::{self, Canary};
use crate::catalogue::Better;
use crate::ledger::{self, Slot};
use crate::probes::{samples, ActorProbe, Hosted, MediumProbe, NetCounters, ObserverProbe};
use crate::qos::{GroupQos, QosReport, Traffic};
use crate::replay;
use crate::runner::{self, CpuSnapshot, Outcome, RunArgs};

/// The shape of one simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    /// Workstations.
    pub workstations: usize,
    /// Groups, strided over the workstations.
    pub groups: usize,
    /// Members per group.
    pub members: usize,
    /// Every link's behaviour.
    pub link: LinkSpec,
    /// The failure-detection bound `T_D` every member joins with.
    pub detection: SimDuration,
    /// Virtual time the deployment gets before the window (set-up).
    pub settle: SimDuration,
    /// Virtual seconds of window per second of `--seconds`.
    pub virtual_per_second: f64,
    /// Workstation crash/recovery process, if any.
    pub churn: Option<CrashProfile>,
    /// Whether `NodeInstruments` (registry + trace ring) are attached.
    pub instruments: bool,
    /// Set-ups per untraced run (`setup_s` is the quickest).
    pub setups: usize,
    /// Equal slices of virtual time the window is measured in (rates are
    /// quiet deciles over them).
    pub slices: u64,
}

impl SimShape {
    /// `sim-steady`: 250 workstations × 500 groups × 10 members (5 000
    /// processes, ≈ 72 MB), paper QoS, LAN links floored at 25 µs, no
    /// instruments. The population is as large as this host measures
    /// steadily: the working set is well beyond the 4 MB L2, but a 25 000-
    /// process deployment (320 MB) ran at 261k and at 107k events/s within
    /// one hour as the neighbours' memory traffic came and went. (Halving
    /// it again bought nothing: 2 500 and 5 000 processes both moved ≈ 19 %
    /// between a quiet and a busy spell of the host.)
    pub fn steady(smoke: bool) -> Self {
        SimShape {
            workstations: if smoke { 60 } else { 250 },
            groups: if smoke { 120 } else { 500 },
            members: 10,
            link: LinkSpec::lan().with_min_delay(SimDuration::from_micros(25)),
            detection: SimDuration::from_secs(1),
            settle: SimDuration::from_secs(5),
            virtual_per_second: if smoke { 6.0 } else { 30.0 },
            churn: None,
            instruments: false,
            setups: if smoke { 2 } else { 5 },
            // Whole virtual seconds per slice: every slice then holds the
            // same mix of HELLO rounds, ALIVE ticks and detector re-arms.
            slices: if smoke { 12 } else { 60 },
        }
    }

    /// `sim-churn`: 600 workstations × 1200 groups × 5 members on
    /// `(10 ms, 0.01)` links floored at 1 ms, workstations up 120 s and
    /// down 5 s on average, instruments attached.
    pub fn churn(smoke: bool) -> Self {
        SimShape {
            workstations: if smoke { 60 } else { 600 },
            groups: if smoke { 120 } else { 1200 },
            members: 5,
            link: LinkSpec::from_paper_tuple(10.0, 0.01)
                .with_min_delay(SimDuration::from_millis(1)),
            detection: SimDuration::from_secs(1),
            settle: SimDuration::from_secs(15),
            virtual_per_second: 35.0,
            churn: Some(CrashProfile {
                mean_uptime: SimDuration::from_secs(120),
                mean_downtime: SimDuration::from_secs(5),
            }),
            instruments: true,
            setups: if smoke { 2 } else { 5 },
            // 10 virtual seconds (≈ 50 workstation crashes) per slice at
            // the full size.
            slices: if smoke { 10 } else { 70 },
        }
    }

    fn window(&self, seconds: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.virtual_per_second * seconds as f64)
    }

    fn deployment(&self, args: &RunArgs) -> Vec<Vec<NodeId>> {
        super::rotated_strided_groups(self.workstations, self.groups, self.members, args)
    }
}

/// The observer the workloads run, bare or behind an [`ObserverProbe`].
trait QosHolder: Observer<ServiceEvent> {
    fn qos(&mut self) -> &mut GroupQos;
    fn into_qos(self) -> GroupQos;
}

impl QosHolder for GroupQos {
    fn qos(&mut self) -> &mut GroupQos {
        self
    }
    fn into_qos(self) -> GroupQos {
        self
    }
}

impl QosHolder for ObserverProbe<GroupQos> {
    fn qos(&mut self) -> &mut GroupQos {
        &mut self.inner
    }
    fn into_qos(self) -> GroupQos {
        self.inner
    }
}

/// A deployment that has been built and settled: everything `setup_s`
/// covers.
struct Settled<A: Actor, M: Medium, O> {
    world: World<A, M>,
    observer: O,
    registry: Registry,
}

/// Builds the world for `shape`, installs the crash plan, and runs the
/// settle span.
fn set_up<A, M, O>(
    shape: &SimShape,
    args: &RunArgs,
    groups: &[Vec<NodeId>],
    wrap_actor: fn(ServiceNode) -> A,
    wrap_medium: fn(SimulatedNetwork) -> M,
    wrap_observer: fn(GroupQos) -> O,
) -> Settled<A, M, O>
where
    A: Actor<Msg = ServiceMessage, Event = ServiceEvent> + 'static,
    M: Medium,
    O: QosHolder,
{
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(shape.workstations, groups);
    let registry = Registry::default();
    let ring = TraceRing::new(4096);
    let join =
        JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(shape.detection));
    let instruments = shape.instruments;
    let factory_registry = registry.clone();
    let mut world: World<A, M> = World::new(
        shape.workstations,
        Box::new(move |node, _incarnation| {
            let mut config =
                ServiceConfig::new(node, peers_of[node.index()].clone(), ElectorKind::OmegaL);
            for &group in &groups_of[node.index()] {
                config = config.with_auto_join(group, join);
            }
            let mut service = ServiceNode::new(config);
            if instruments {
                service.set_instruments(NodeInstruments::new(
                    &factory_registry,
                    ring.clone(),
                    node,
                ));
            }
            wrap_actor(service)
        }),
        wrap_medium(NetworkModel::new(shape.link).build(args.subseed(1))),
        args.subseed(2),
    );
    if let Some(profile) = shape.churn {
        let horizon = shape.settle + shape.window(args.seconds);
        CrashPlan::generate(shape.workstations, horizon, profile, args.subseed(3))
            .install(&mut world);
    }
    // Availability is measured from the very start (the initial election
    // is part of it); the window's counts start after the settle span.
    let mut observer = wrap_observer(GroupQos::new(shape.workstations, groups, SimInstant::ZERO));
    observer.qos().begin_window(SimInstant::ZERO + shape.settle);
    world.run_for(shape.settle, &mut observer);
    Settled {
        world,
        observer,
        registry,
    }
}

/// Counts that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactCounts {
    events: u64,
    messages: u64,
    crashes: u64,
    /// Sum of the virtual delivery instants: differs between seeds even
    /// when (as on loss-free links) the counts do not.
    delivered_at_sum: u64,
}

/// One slice of the timed window.
#[derive(Debug, Clone, Copy)]
struct Slice {
    wall_s: f64,
    cpu_ns: u64,
    events: u64,
    /// Whether the probes recorded during this slice (traced pass only).
    tracing: bool,
    /// How much dearer than in a quiet spell the host was, by the canary
    /// (1 without one: the traced pass and the determinism check).
    host_factor: f64,
}

/// What the timed window measured.
struct Window {
    slices: Vec<Slice>,
    wall_s: f64,
    events: u64,
    traffic: Traffic,
}

impl Window {
    /// Quiet decile over the slices (all of them, or only those with
    /// tracing on or off) of simulator events per wall second, at the quiet
    /// host's price (times the slice's host factor). The slices are equal
    /// spans of virtual time, so a slow spell of the host moves the slices
    /// it covers, not the figure ([`runner::quiet_decile`]).
    fn events_per_s(&self, tracing: Option<bool>) -> f64 {
        let mut rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| tracing.is_none_or(|t| s.tracing == t))
            .map(|s| s.events as f64 / s.wall_s * s.host_factor)
            .collect();
        runner::quiet_decile(&mut rates, Better::Higher)
    }

    /// Quiet decile over the slices of process CPU nanoseconds per event,
    /// at the quiet host's price.
    fn cpu_ns_per_event(&self) -> f64 {
        let mut costs: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.cpu_ns as f64 / s.events.max(1) as f64 / s.host_factor)
            .collect();
        runner::quiet_decile(&mut costs, Better::Lower)
    }

    /// Wall seconds and events of the slices with tracing on / off.
    fn total(&self, tracing: bool) -> (f64, u64) {
        self.slices
            .iter()
            .filter(|s| s.tracing == tracing)
            .fold((0.0, 0), |(wall, events), s| {
                (wall + s.wall_s, events + s.events)
            })
    }
}

fn traffic_since(now: Traffic, then: Traffic) -> Traffic {
    Traffic {
        sent: now.sent - then.sent,
        dropped: now.dropped - then.dropped,
        delivered: now.delivered - then.delivered,
        timers: now.timers - then.timers,
        crashes: now.crashes - then.crashes,
        recoveries: now.recoveries - then.recoveries,
        delivered_at_sum: now.delivered_at_sum.wrapping_sub(then.delivered_at_sum),
    }
}

/// `on_message` by kind: the ledger slot and its two metric names.
const ON_MESSAGE: &[(Slot, &str, &str)] = &[
    (
        Slot::OnHello,
        "core.node.on_message_ns.hello",
        "core.node.on_message_calls.hello",
    ),
    (
        Slot::OnAlive,
        "core.node.on_message_ns.alive",
        "core.node.on_message_calls.alive",
    ),
    (
        Slot::OnAliveBatch,
        "core.node.on_message_ns.alive_batch",
        "core.node.on_message_calls.alive_batch",
    ),
    (
        Slot::OnAccuse,
        "core.node.on_message_ns.accuse",
        "core.node.on_message_calls.accuse",
    ),
    (
        Slot::OnLeave,
        "core.node.on_message_ns.leave",
        "core.node.on_message_calls.leave",
    ),
    (
        Slot::OnLeaseGrant,
        "core.node.on_message_ns.lease_grant",
        "core.node.on_message_calls.lease_grant",
    ),
    (
        Slot::OnClientRequest,
        "core.node.on_message_ns.client_request",
        "core.node.on_message_calls.client_request",
    ),
];

/// Runs the timed window as `slices` equal slices of virtual time.
/// In the traced pass the probes record in every second slice; the others
/// are the reference `bench.trace_overhead_frac` compares against.
fn run_window<A, M, O>(
    settled: &mut Settled<A, M, O>,
    span: SimDuration,
    slices: u64,
    traced: bool,
    canary: Option<&Canary>,
) -> Window
where
    A: Actor<Msg = ServiceMessage, Event = ServiceEvent>,
    M: Medium,
    O: QosHolder,
{
    let world = &mut settled.world;
    let observer = &mut settled.observer;
    let events_before = world.events_processed();
    let traffic_before = observer.qos().traffic;
    let start = Instant::now();
    let end = world.now() + span;
    let mut measured = Vec::with_capacity(slices as usize);
    for slice in 0..slices {
        let tracing = traced && slice % 2 == 1;
        ledger::set_tracing(tracing);
        let until = if slice + 1 == slices {
            end
        } else {
            world.now() + span / slices
        };
        let events = world.events_processed();
        let cpu = CpuSnapshot::take();
        let rounds = canary.map_or(0, Canary::rounds);
        let slice_start = Instant::now();
        world.run_until(until, observer);
        let wall_s = slice_start.elapsed().as_secs_f64();
        let cpu_after = CpuSnapshot::take();
        let canary_cpu_ns = cpu_after.since(&cpu, canary::THREAD_NAME);
        measured.push(Slice {
            wall_s,
            cpu_ns: cpu_after.since(&cpu, "") - canary_cpu_ns,
            events: world.events_processed() - events,
            tracing,
            host_factor: canary::host_factor(
                canary_cpu_ns,
                canary.map_or(0, Canary::rounds) - rounds,
            ),
        });
    }
    ledger::set_tracing(false);
    Window {
        slices: measured,
        wall_s: start.elapsed().as_secs_f64(),
        events: world.events_processed() - events_before,
        traffic: traffic_since(observer.qos().traffic, traffic_before),
    }
}

/// Runs a reduced-size deployment of the same shape twice with the same
/// seed and once with another: the first two must agree on every count, the
/// third must differ.
fn determinism_check(shape: &SimShape, args: &RunArgs, outcome: &mut Outcome) {
    let small = SimShape {
        workstations: shape.workstations.min(48),
        groups: shape.groups.min(96),
        settle: SimDuration::from_secs(5),
        ..*shape
    };
    let run = |args: &RunArgs| {
        let args = RunArgs {
            seconds: 2,
            ..*args
        };
        let groups = small.deployment(&args);
        let mut settled = set_up::<ServiceNode, SimulatedNetwork, GroupQos>(
            &small,
            &args,
            &groups,
            |service| service,
            |network| network,
            |qos| qos,
        );
        let span = small.window(args.seconds).max(SimDuration::from_secs(10));
        run_window(&mut settled, span, 1, false, None);
        ExactCounts {
            events: settled.world.events_processed(),
            messages: settled.observer.traffic.sent,
            crashes: settled.observer.traffic.crashes,
            delivered_at_sum: settled.observer.traffic.delivered_at_sum,
        }
    };
    let first = run(args);
    let again = run(args);
    let other = run(&RunArgs {
        seed: args.seed ^ 0x5EED,
        ..*args
    });
    if first != again {
        outcome.problem(format!(
            "determinism: the same seed gave {first:?} and then {again:?}"
        ));
    }
    if first == other {
        outcome.problem(format!(
            "determinism: another seed reproduced {first:?} exactly — the seed is not used"
        ));
    }
}

/// Fills in what both passes report from the QoS observer, and returns the
/// report.
fn qos_results(
    shape: &SimShape,
    qos: GroupQos,
    end: SimInstant,
    window: SimDuration,
    outcome: &mut Outcome,
) -> QosReport {
    let report = qos.finish(end);
    // Operations: on the fault-free workload, one per group (failed if the
    // group is not agreed at the end or any member changed its leader view
    // inside the window); under churn, one per crash of an agreed leader
    // that left the group 10·T_D of window to recover in (failed if it
    // took longer, or never did).
    if shape.churn.is_none() {
        let not_agreed = report.groups - report.fully_agreed_at_end;
        outcome.attempted = report.groups as u64;
        outcome.failed = (not_agreed + report.groups_with_view_changes).min(report.groups) as u64;
        if not_agreed > 0 {
            outcome.problem(format!("{not_agreed} groups are not agreed at the end"));
        }
        if report.view_changes > 0 {
            outcome.problem(format!(
                "{} leader-view changes inside a fault-free window",
                report.view_changes
            ));
        }
    } else {
        let patience = shape.detection * 10;
        let cutoff = end - patience;
        let judged: Vec<_> = report
            .recoveries
            .iter()
            .filter(|r| r.crashed_at <= cutoff)
            .collect();
        outcome.attempted = judged.len() as u64;
        outcome.failed = judged
            .iter()
            .filter(|r| r.took.is_none_or(|took| took > patience))
            .count() as u64;
        if judged.len() < 10 {
            outcome.problem(format!(
                "only {} leader crashes in {window} of churn",
                judged.len()
            ));
        }
    }
    report
}

/// Runs one simulated workload.
pub fn run(shape: &SimShape, args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let groups = shape.deployment(args);
    let span = shape.window(args.seconds);
    let processes = shape.groups * shape.members;
    outcome.detail(
        "deployment",
        format!(
            "{} workstations x {} groups x {} members = {processes} processes, window {span} virtual",
            shape.workstations, shape.groups, shape.members
        ),
    );
    if args.traced {
        run_traced(shape, args, &groups, span, &mut outcome);
    } else {
        run_untraced(shape, args, &groups, span, &mut outcome);
    }
    determinism_check(shape, args, &mut outcome);
    outcome
}

fn run_untraced(
    shape: &SimShape,
    args: &RunArgs,
    groups: &[Vec<NodeId>],
    span: SimDuration,
    outcome: &mut Outcome,
) {
    // The simulator's thread on the first CPU, the canary on the last: left
    // to the scheduler the canary reads differently beside a busy thread
    // than on an idle CPU (see `canary`).
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    canary::run_on(0..1);
    let canary = Canary::start(Some(cpus - 1)).expect("bind the canary's socket");
    // Set up several times and keep the last: `setup_s` is the quickest, at
    // the quiet host's price like every time here.
    let mut setup_s = Vec::new();
    let mut settled = None;
    for _ in 0..shape.setups.max(1) {
        drop(settled.take());
        let cpu = CpuSnapshot::take();
        let rounds = canary.rounds();
        let (built, took) = runner::timed(|| {
            set_up::<ServiceNode, SimulatedNetwork, GroupQos>(
                shape,
                args,
                groups,
                |service| service,
                |network| network,
                |qos| qos,
            )
        });
        let host_factor = canary::host_factor(
            CpuSnapshot::take().since(&cpu, canary::THREAD_NAME),
            canary.rounds() - rounds,
        );
        setup_s.push(took.as_secs_f64() / host_factor);
        settled = Some(built);
    }
    let mut settled = settled.expect("at least one set-up");
    let window = run_window(&mut settled, span, shape.slices, false, Some(&canary));
    canary.stop();
    canary::run_on(0..cpus);
    let end = settled.world.now();
    let report = qos_results(shape, settled.observer.into_qos(), end, span, outcome);

    outcome.set("setup_s", runner::quiet_decile(&mut setup_s, Better::Lower));
    outcome.set("ops_per_s", window.events_per_s(None));
    // CPU per simulated workstation per *virtual* second: what it costs to
    // simulate the service, whatever the event count per second becomes.
    let events_per_node_s = window.events as f64 / shape.workstations as f64 / span.as_secs_f64();
    outcome.set(
        "cpu_us_per_node_s",
        window.cpu_ns_per_event() * events_per_node_s / 1e3,
    );
    outcome.set("unavailable_frac", 1.0 - report.availability);
    report_qos_details(shape, &report, outcome);
    outcome.detail(
        "msgs_per_node_s",
        format!(
            "{:.3} 1/s",
            window.traffic.sent as f64 / shape.workstations as f64 / span.as_secs_f64()
        ),
    );
    outcome.detail("window_wall_s", format!("{:.3}", window.wall_s));
    let mut factors: Vec<f64> = window.slices.iter().map(|s| s.host_factor).collect();
    outcome.detail(
        "ops_per_s_as_paid",
        format!(
            "{:.0} 1/s over the whole window, at a median host factor of {:.3}",
            window.events as f64 / window.wall_s,
            runner::median(&mut factors)
        ),
    );
    outcome.detail("events", window.events);
    outcome.detail("messages", window.traffic.sent);
    outcome.detail("workstation_crashes", window.traffic.crashes);
    outcome.set("peak_rss_mb", runner::peak_rss_mb());
}

/// The paper-QoS quantities the untraced pass measures anyway, for the
/// human-readable report (the traced pass puts them in the ledger).
fn report_qos_details(shape: &SimShape, report: &QosReport, outcome: &mut Outcome) {
    let ms = |name: &str, samples: &mut Vec<f64>, outcome: &mut Outcome| {
        if let Some(p) = runner::percentiles(samples) {
            let tail = p
                .tail
                .map_or(String::new(), |(pct, value)| format!(", p{pct} {value:.3}"));
            outcome.detail(
                name,
                format!(
                    "p50 {:.3}{tail}, max {:.3} virtual ms over {} samples",
                    p.p50, p.max, p.samples
                ),
            );
        }
    };
    ms("election_ms", &mut report.election_ms.clone(), outcome);
    if shape.churn.is_some() {
        ms("recovery_ms", &mut report.recovery_ms(), outcome);
        outcome.detail("leader_crashes", report.leader_crashes);
        outcome.detail(
            "mistakes_per_group_hour",
            format!("{:.4} 1/h", report.mistakes_per_group_hour()),
        );
    }
    outcome.detail("leader_availability", format!("{:.6}", report.availability));
}

fn run_traced(
    shape: &SimShape,
    args: &RunArgs,
    groups: &[Vec<NodeId>],
    span: SimDuration,
    outcome: &mut Outcome,
) {
    let mut settled = set_up(
        shape,
        args,
        groups,
        ActorProbe::new,
        MediumProbe::new,
        ObserverProbe::new,
    );
    let net_before = settled.world.medium_mut().net_stats();
    // An even slice count: half the window traced, half the reference.
    let slices = shape.slices.next_multiple_of(2);
    let window = run_window(&mut settled, span, slices, true, None);
    let net = settled.world.medium_mut().net_stats();
    let end = settled.world.now();
    let agreed_now = groups
        .iter()
        .enumerate()
        .filter(|(g, members)| {
            let group = GroupId(*g as u32 + 1);
            let mut views = members.iter().map(|&m| {
                settled
                    .world
                    .actor(m)
                    .and_then(|a| a.service().leader_of(group))
            });
            let first = views.next().flatten();
            first.is_some() && views.all(|v| v == first)
        })
        .count();
    let report = qos_results(shape, settled.observer.into_qos(), end, span, outcome);
    if shape.churn.is_none() && agreed_now != report.fully_agreed_at_end {
        outcome.problem(format!(
            "the observer sees {} agreed groups, the nodes' own views {agreed_now}",
            report.fully_agreed_at_end
        ));
    }
    let ledger = ledger::collect();
    let store = samples::take();
    let clock = runner::clock_overhead_ns() / 2.0;
    let per_call = |slot: Slot| (ledger.stat(slot).ns_per_call() - clock).max(0.0);

    for &(slot, ns_name, calls_name) in ON_MESSAGE {
        outcome.set(ns_name, per_call(slot));
        outcome.set(calls_name, ledger.stat(slot).calls as f64);
    }
    outcome.set("core.node.on_timer_ns", per_call(Slot::OnTimer));
    outcome.set(
        "core.node.on_timer_calls",
        ledger.stat(Slot::OnTimer).calls as f64,
    );
    outcome.set(
        "core.node.timers_per_node_s",
        window.traffic.timers as f64 / shape.workstations as f64 / span.as_secs_f64(),
    );
    const ACTOR_SLOTS: &[Slot] = &[
        Slot::OnStart,
        Slot::OnTimer,
        Slot::OnHello,
        Slot::OnAlive,
        Slot::OnAliveBatch,
        Slot::OnAccuse,
        Slot::OnLeave,
        Slot::OnLeaseGrant,
        Slot::OnClientRequest,
        Slot::OnOtherMessage,
    ];
    let actor = ledger.sum(ACTOR_SLOTS);
    let medium = ledger.stat(Slot::Transmit);
    let observer = ledger.stat(Slot::Observer);
    outcome.set(
        "core.node.effects_per_call",
        actor.extra as f64 / actor.calls.max(1) as f64,
    );
    outcome.set("sim.world.events", window.events as f64);
    outcome.set("sim.world.traced_events", window.total(true).1 as f64);
    outcome.set("sim.world.crashes", window.traffic.crashes as f64);
    let (traced_wall_s, traced_events) = window.total(true);
    let timed_calls = (actor.timed + medium.timed + observer.timed) as f64;
    // Every timed call spends one clock read outside its own span.
    let loop_self_ns = traced_wall_s * 1e9
        - (actor.total_ns() + medium.total_ns() + observer.total_ns())
        - timed_calls * clock;
    outcome.set(
        "sim.world.loop_self_ns_per_event",
        (loop_self_ns / traced_events.max(1) as f64).max(0.0),
    );
    outcome.set("net.network.transmit_ns_per_msg", per_call(Slot::Transmit));
    let offered = net.offered - net_before.offered;
    let delivered = net.delivered - net_before.delivered;
    outcome.set(
        "net.network.dropped_frac",
        (offered - delivered) as f64 / offered.max(1) as f64,
    );
    outcome.set("net.network.msgs", window.traffic.sent as f64);
    outcome.set(
        "harness.observer_ns_per_event",
        (observer.total_ns() - observer.calls as f64 * clock).max(0.0)
            / traced_events.max(1) as f64,
    );
    outcome.set(
        "election.leader_changes_per_crash",
        report.agreed_leader_changes as f64 / report.leader_crashes.max(1) as f64,
    );
    if shape.instruments {
        let detections = settled
            .registry
            .merged_histogram("node.", ".fd.detection_ns");
        outcome.set("fd.detection_p50_ms", detections.percentile_ms(0.50));
        outcome.set("fd.detection_p99_ms", detections.percentile_ms(0.99));
        outcome.set(
            "fd.mistakes",
            settled
                .registry
                .snapshot()
                .sum_counters("node.", ".fd.mistakes") as f64,
        );
        outcome.set("obs.registry.series", settled.registry.len() as f64);
        outcome.set("obs.histogram.record_ns", replay::histogram_record_ns());
    }
    let wheel = replay::wheel(&store.deadlines);
    outcome.set("sim.wheel.push_ns", wheel.push_ns);
    outcome.set("sim.wheel.pop_ns", wheel.pop_ns);
    super::set_stream_replay_metrics(outcome, &store, shape.detection);

    outcome.set(
        "qos.msgs_per_node_s",
        window.traffic.sent as f64 / shape.workstations as f64 / span.as_secs_f64(),
    );
    super::set_election_metrics(outcome, &report);
    if let Some(p) = runner::percentiles(&mut report.recovery_ms()) {
        outcome.set("qos.recovery_p50_ms", p.p50);
        outcome.set("qos.recovery_samples", p.samples as f64);
        if let Some((pct, value)) = p.tail {
            outcome.set("qos.recovery_tail_ms", value);
            outcome.set("qos.recovery_tail_pct", pct);
        }
    }
    outcome.set("qos.leader_availability", report.availability);
    outcome.set(
        "qos.mistakes_per_group_hour",
        report.mistakes_per_group_hour(),
    );
    outcome.set("qos.leader_changes", report.agreed_leader_changes as f64);

    // Quiet deciles over the slices of either kind: slow spells of the
    // host do not decide the figure.
    outcome.set(
        "bench.trace_overhead_frac",
        window.events_per_s(Some(false)) / window.events_per_s(Some(true)) - 1.0,
    );
    outcome.detail("events", window.events);
    outcome.detail("messages", window.traffic.sent);
    outcome.detail("workstation_crashes", window.traffic.crashes);
    outcome.detail("window_wall_s", format!("{:.3}", window.wall_s));
    crate::write_span_dump(&ledger, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::ProcessId;

    /// Everything a run is compared by: the exact counts, and every member's
    /// final view of every group's leader.
    fn fingerprint<A, M, O>(
        settled: &mut Settled<A, M, O>,
        groups: &[Vec<NodeId>],
    ) -> (u64, Traffic, Vec<Option<ProcessId>>)
    where
        A: Actor<Msg = ServiceMessage, Event = ServiceEvent> + Hosted,
        M: Medium,
        O: QosHolder,
    {
        let views = groups
            .iter()
            .enumerate()
            .flat_map(|(g, members)| {
                let group = GroupId(g as u32 + 1);
                let world = &settled.world;
                members
                    .iter()
                    .map(move |&m| world.actor(m).and_then(|a| a.service().leader_of(group)))
                    .collect::<Vec<_>>()
            })
            .collect();
        (
            settled.world.events_processed(),
            settled.observer.qos().traffic,
            views,
        )
    }

    /// For a fixed seed, a run with `ActorProbe`, `MediumProbe` and
    /// `ObserverProbe` installed (tracing on in every second slice) is the
    /// same run: identical event counts, message counts, delivery instants
    /// and final leaders.
    #[test]
    fn the_simulator_probes_are_transparent() {
        let _serial = ledger::TRACING_TEST_LOCK.lock();
        for shape in [SimShape::steady(true), SimShape::churn(true)] {
            let args = RunArgs {
                seed: 11,
                seconds: 1,
                traced: false,
                smoke: true,
                pause_resume: false,
            };
            let groups = shape.deployment(&args);
            let span = shape.window(args.seconds).max(SimDuration::from_secs(8));

            let mut bare = set_up::<ServiceNode, SimulatedNetwork, GroupQos>(
                &shape,
                &args,
                &groups,
                |service| service,
                |network| network,
                |qos| qos,
            );
            run_window(&mut bare, span, 4, false, None);
            let expected = fingerprint(&mut bare, &groups);

            let mut probed = set_up(
                &shape,
                &args,
                &groups,
                ActorProbe::new,
                MediumProbe::new,
                ObserverProbe::new,
            );
            run_window(&mut probed, span, 4, true, None);
            let ledger = ledger::collect();
            assert!(
                ledger.stat(Slot::OnTimer).calls > 0 && ledger.stat(Slot::Transmit).calls > 0,
                "the probes must have been recording"
            );
            assert_eq!(fingerprint(&mut probed, &groups), expected);
            assert!(expected.0 > 10_000, "the run must do real work");
        }
        samples::take();
    }

    #[test]
    fn the_seed_decides_the_deployment_and_the_run() {
        let shape = SimShape::churn(true);
        let mut outcome = Outcome::default();
        let args = RunArgs {
            seed: 4,
            seconds: 1,
            traced: false,
            smoke: true,
            pause_resume: false,
        };
        determinism_check(&shape, &args, &mut outcome);
        assert_eq!(outcome.problems, Vec::<String>::new());
        let other = RunArgs { seed: 5, ..args };
        assert_ne!(shape.deployment(&args), shape.deployment(&other));
        assert_eq!(shape.deployment(&args), shape.deployment(&args));
    }
}
