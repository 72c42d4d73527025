//! The real-time runtime macro-benchmark: large clusters on the **wall
//! clock**, on a fixed shard worker pool, with thread-count and
//! wakeup-discipline assertions.
//!
//! ```text
//! cargo run --release -p sle-bench --bin bench_runtime            # full (1000-node mesh + UDP cells)
//! cargo run --release -p sle-bench --bin bench_runtime -- --smoke # CI-sized
//! ```
//!
//! Where `bench_scale` proves the protocol scales in *virtual* time, this
//! binary proves the deployment scales in *real* time: the sharded runtime
//! of `sle-core` must run a 1000-node in-memory-mesh cluster, a 64-node
//! UDP cell with one socket per workstation (the paper's deployment), and a
//! **1000-node shared-socket UDP cell** (all nodes demultiplexed behind
//! `workers` sockets) on a fixed worker pool, elect a leader in every
//! group, and do it with
//!
//! * **O(workers) threads** — the runtime may spawn at most 16 threads
//!   beyond the transport's own reader threads, however many nodes run
//!   (a thread-per-node runtime fails this immediately at 1000 nodes); the
//!   UDP cells are gated harder still: their *total* spawn — runtime plus
//!   transport — must stay within `workers + sockets`, and
//! * **no polling** — workers sleep exactly to their timer wheel's next
//!   deadline or a mailbox wakeup, so wakeups that find nothing to do must
//!   stay below 100/s across the whole pool.
//!
//! Results are written to `BENCH_runtime.json` (schema
//! `sle-bench-runtime/3`, documented in `docs/BENCH.md`); CI runs
//! `--smoke` and uploads the file as the `runtime-bench` artifact. Exit
//! status: `0` when every assertion holds, `1` otherwise.
//!
//! Options: `--smoke` (CI sizes), `--out PATH` (default
//! `BENCH_runtime.json`), `--snapshot-prom PATH` / `--snapshot-json PATH`
//! (mesh telemetry registry exports), `--snapshot-plane-prom PATH` (the
//! shared plane's demux + buffer-pool counters, Prometheus format).

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ServiceConfig};
use sle_election::ElectorKind;
use sle_harness::deploy::{membership, strided_groups};
use sle_net::link::LinkSpec;
use sle_net::transport::{InMemoryMesh, MessageEndpoint};
use sle_obs::{Registry, Snapshot};
use sle_sim::time::SimDuration;
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

/// The hard ceiling on runtime threads (shard workers plus bookkeeping),
/// excluding the transport's own reader threads.
const MAX_RUNTIME_THREADS: usize = 16;
/// The hard ceiling on pool-wide idle wakeups per second.
const MAX_IDLE_WAKEUPS_PER_SEC: f64 = 100.0;
/// How long a cell may take to elect everywhere before the bench fails.
const ELECTION_DEADLINE: Duration = Duration::from_secs(60);
/// The telemetry overhead gate: with full observability on, the mesh
/// cell's election wall-clock may grow by at most this ratio...
const TELEMETRY_MAX_RATIO: f64 = 0.05;
/// ...or this absolute floor, whichever is larger (sub-second elections
/// carry scheduler noise a percentage alone would turn into flakes).
const TELEMETRY_NOISE_FLOOR_MS: u128 = 150;

struct Args {
    smoke: bool,
    out: String,
    snapshot_prom: Option<String>,
    snapshot_json: Option<String>,
    snapshot_plane_prom: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: "BENCH_runtime.json".to_string(),
        snapshot_prom: None,
        snapshot_json: None,
        snapshot_plane_prom: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = iter
                    .next()
                    .ok_or_else(|| "--out requires a path".to_string())?;
            }
            "--snapshot-prom" => {
                args.snapshot_prom = Some(
                    iter.next()
                        .ok_or_else(|| "--snapshot-prom requires a path".to_string())?,
                );
            }
            "--snapshot-json" => {
                args.snapshot_json = Some(
                    iter.next()
                        .ok_or_else(|| "--snapshot-json requires a path".to_string())?,
                );
            }
            "--snapshot-plane-prom" => {
                args.snapshot_plane_prom = Some(
                    iter.next()
                        .ok_or_else(|| "--snapshot-plane-prom requires a path".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_runtime [--smoke] [--out PATH] \
                     [--snapshot-prom PATH] [--snapshot-json PATH] \
                     [--snapshot-plane-prom PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Current OS thread count of this process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// One measured deployment.
struct Cell {
    name: String,
    transport: &'static str,
    nodes: usize,
    groups: usize,
    members_per_group: usize,
    workers: usize,
    /// OS threads the deployment added (shard workers + transport readers),
    /// when `/proc` is available.
    threads_spawned: Option<usize>,
    /// Reader threads the transport itself accounts for (one per UDP
    /// socket; zero for the in-memory mesh).
    transport_reader_threads: usize,
    /// Wall-clock from cluster start until every group's members agreed on
    /// a leader.
    elected_ms: u128,
    /// Pool-wide worker wakeups per second over the idle measurement
    /// window (after the elections settled).
    wakeups_per_sec: f64,
    /// Pool-wide wakeups that found nothing to do, per second, over the
    /// same window.
    idle_wakeups_per_sec: f64,
    wall_ms: u128,
    /// Whether the cell ran with the full observability stack attached.
    telemetry: bool,
    /// Election-latency percentiles over the always-on per-group election
    /// timestamps (cluster start → the group's members agreed), so every
    /// cell reports them whether or not telemetry ran. `None` only when no
    /// group elected at all.
    election_p50_ms: Option<f64>,
    election_p99_ms: Option<f64>,
    /// Wire datagrams per second over the idle measurement window, for
    /// transports that count them (the shared UDP plane); `None` for
    /// transports without a datagram counter.
    datagrams_per_sec: Option<f64>,
}

/// Nearest-rank percentile of an ascending-sorted sample, in milliseconds.
fn percentile_ms(sorted: &[Duration], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    Some(sorted[idx].as_secs_f64() * 1e3)
}

/// Per-node service configs for a strided deployment: each workstation
/// gossips only with workstations it shares a group with, and auto-joins
/// its groups at start.
fn service_configs(nodes: usize, groups: &[Vec<NodeId>]) -> Vec<ServiceConfig> {
    let deployment = membership(nodes, groups);
    (0..nodes)
        .map(|i| {
            let mut peers = deployment.peers_of[i].clone();
            if peers.is_empty() {
                // A workstation in no group still needs itself as a peer.
                peers.push(NodeId(i as u32));
            }
            let mut config = ServiceConfig::new(NodeId(i as u32), peers, ElectorKind::OmegaL)
                .with_hello_interval(SimDuration::from_millis(200));
            for &group in &deployment.groups_of[i] {
                config = config.with_auto_join(group, JoinConfig::candidate());
            }
            config
        })
        .collect()
}

/// Runs one deployment: build endpoints, start the sharded cluster, wait
/// for every group to elect (timestamping each group's agreement for the
/// always-on election percentiles), then measure the pool's wakeup
/// discipline — and the transport's datagram rate, when it counts one —
/// over an idle window.
#[allow(clippy::too_many_arguments)]
fn run_cell<E>(
    name: String,
    transport: &'static str,
    make_endpoints: impl FnOnce() -> Vec<E>,
    nodes: usize,
    groups: Vec<Vec<NodeId>>,
    workers: usize,
    transport_reader_threads: usize,
    idle_window: Duration,
    telemetry: bool,
    datagram_counter: Option<&dyn Fn() -> u64>,
    failures: &mut Vec<String>,
) -> (Cell, Option<Snapshot>)
where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    let wall = Instant::now();
    let members = groups.first().map(Vec::len).unwrap_or(0);
    let configs = service_configs(nodes, &groups);
    // Measured around endpoint construction too, so the transport's reader
    // threads are part of the accounting.
    let threads_before = os_threads();
    let endpoints = make_endpoints();

    let mut options = ClusterConfig::new(ElectorKind::OmegaL).with_workers(workers);
    let registry = Registry::default();
    if telemetry {
        options = options.with_observability(registry.clone());
    }
    let started = Instant::now();
    let cluster = Cluster::start_with_service_configs(endpoints, configs, &options);

    let threads_spawned = match (threads_before, os_threads()) {
        (Some(before), Some(after)) => Some(after.saturating_sub(before)),
        _ => None,
    };
    if let Some(spawned) = threads_spawned {
        let runtime_only = spawned.saturating_sub(transport_reader_threads);
        if runtime_only > MAX_RUNTIME_THREADS {
            failures.push(format!(
                "{name}: {runtime_only} runtime threads for {nodes} nodes \
                 (max {MAX_RUNTIME_THREADS}) — the pool is not O(workers)"
            ));
        }
    }

    // Wait for every group's members to agree on a leader, timestamping
    // each group's agreement: these always-on timestamps — not the
    // optional telemetry histograms — feed the election percentiles, so
    // telemetry-off cells stay comparable.
    let deadline = started + ELECTION_DEADLINE;
    let mut pending: Vec<usize> = (0..groups.len()).collect();
    let mut elected_at: Vec<Duration> = Vec::with_capacity(groups.len());
    while !pending.is_empty() && Instant::now() < deadline {
        pending.retain(|&g| {
            let agreed = cluster
                .agreed_leader_among(GroupId(g as u32 + 1), &groups[g])
                .is_some();
            if agreed {
                elected_at.push(started.elapsed());
            }
            !agreed
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    let elected_ms = started.elapsed().as_millis();
    if !pending.is_empty() {
        failures.push(format!(
            "{name}: {} of {} groups had not elected after {:?}",
            pending.len(),
            groups.len(),
            ELECTION_DEADLINE
        ));
    }

    // Steady state: count wakeups over an idle window. Productive wakeups
    // (HELLO/ALIVE timers, arriving gossip) continue; *idle* wakeups —
    // a worker waking to find nothing to do — must be a rarity.
    let before = cluster.runtime_stats();
    let datagrams_before = datagram_counter.map(|count| count());
    std::thread::sleep(idle_window);
    let after = cluster.runtime_stats();
    let secs = idle_window.as_secs_f64();
    let datagrams_per_sec = datagram_counter
        .zip(datagrams_before)
        .map(|(count, before)| (count().saturating_sub(before)) as f64 / secs);
    let wakeups_per_sec = (after.wakeups - before.wakeups) as f64 / secs;
    let idle_wakeups_per_sec = (after.idle_wakeups - before.idle_wakeups) as f64 / secs;
    if idle_wakeups_per_sec > MAX_IDLE_WAKEUPS_PER_SEC {
        failures.push(format!(
            "{name}: {idle_wakeups_per_sec:.0} idle wakeups/s across the pool \
             (max {MAX_IDLE_WAKEUPS_PER_SEC}) — someone is polling"
        ));
    }

    let snapshot = telemetry.then(|| registry.snapshot());
    // elected_at is already in agreement order, which is ascending by
    // construction (each poll pass appends the newly-agreed groups).
    elected_at.sort();
    let election_p50_ms = percentile_ms(&elected_at, 0.50);
    let election_p99_ms = percentile_ms(&elected_at, 0.99);
    cluster.shutdown();
    let cell = Cell {
        name,
        transport,
        nodes,
        groups: groups.len(),
        members_per_group: members,
        workers,
        threads_spawned,
        transport_reader_threads,
        elected_ms,
        wakeups_per_sec,
        idle_wakeups_per_sec,
        wall_ms: wall.elapsed().as_millis(),
        telemetry,
        election_p50_ms,
        election_p99_ms,
        datagrams_per_sec,
    };
    (cell, snapshot)
}

/// Runs and prints one UDP cell: `nodes` nodes behind `sockets` sockets of a
/// [`SharedUdpPlane`]. The cell's whole deployment — runtime and transport
/// — must fit in `workers + sockets` threads, so with fewer sockets than
/// nodes the transport is O(workers), not O(n). The plane is returned for
/// its counters.
fn run_udp_cell(
    transport: &'static str,
    (nodes, groups, members): (usize, usize, usize),
    workers: usize,
    sockets: usize,
    idle_window: Duration,
    failures: &mut Vec<String>,
) -> (Cell, SharedUdpPlane<ServiceMessage>) {
    // The plane is created inside `make_endpoints` so its reader threads
    // land inside `run_cell`'s thread accounting; the handle is kept here
    // for the datagram counter and the caller.
    let slot: OnceCell<SharedUdpPlane<ServiceMessage>> = OnceCell::new();
    let datagram_counter = || {
        slot.get()
            .map_or(0, |plane| plane.stats().datagrams_received)
    };
    let (cell, _) = run_cell(
        format!("{transport}-{nodes}x{groups}x{members}"),
        transport,
        || {
            let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(nodes, sockets)
                .expect("bind loopback UDP plane");
            let endpoints = plane.endpoints();
            slot.set(plane).expect("endpoints are made once");
            endpoints
        },
        nodes,
        strided_groups(nodes, groups, members),
        workers,
        sockets, // one reader thread per socket
        idle_window,
        false,
        Some(&datagram_counter),
        failures,
    );
    if let Some(spawned) = cell.threads_spawned {
        if spawned > workers + sockets {
            failures.push(format!(
                "{}: {spawned} total threads for {nodes} nodes \
                 (max {} = {workers} workers + {sockets} sockets)",
                cell.name,
                workers + sockets
            ));
        }
    }
    print_cell(&cell);
    let plane = slot.into_inner().expect("run_cell made the endpoints");
    (cell, plane)
}

/// The telemetry on/off comparison of the mesh cell.
struct Overhead {
    cell: String,
    off_ms: u128,
    on_ms: u128,
    allowed_ms: u128,
    ok: bool,
}

fn render_json(cells: &[Cell], overhead: &Overhead, smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"sle-bench-runtime/3\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let threads = cell
            .threads_spawned
            .map(|t| t.to_string())
            .unwrap_or_else(|| "null".to_string());
        let opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.1}"),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"transport\": \"{}\", \"nodes\": {}, \"groups\": {}, \
             \"members_per_group\": {}, \"workers\": {}, \"threads_spawned\": {}, \
             \"transport_reader_threads\": {}, \"elected_ms\": {}, \
             \"wakeups_per_sec\": {:.1}, \"idle_wakeups_per_sec\": {:.1}, \"wall_ms\": {}, \
             \"telemetry\": {}, \"election_p50_ms\": {}, \"election_p99_ms\": {}, \
             \"datagrams_per_sec\": {}}}",
            cell.name,
            cell.transport,
            cell.nodes,
            cell.groups,
            cell.members_per_group,
            cell.workers,
            threads,
            cell.transport_reader_threads,
            cell.elected_ms,
            cell.wakeups_per_sec,
            cell.idle_wakeups_per_sec,
            cell.wall_ms,
            cell.telemetry,
            opt(cell.election_p50_ms),
            opt(cell.election_p99_ms),
            opt(cell.datagrams_per_sec),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"telemetry_overhead\": {{\"cell\": \"{}\", \"off_ms\": {}, \"on_ms\": {}, \
         \"allowed_ms\": {}, \"ok\": {}}},",
        overhead.cell, overhead.off_ms, overhead.on_ms, overhead.allowed_ms, overhead.ok
    );
    let _ = writeln!(
        out,
        "  \"assertions\": {{\"max_runtime_threads\": {MAX_RUNTIME_THREADS}, \
         \"max_idle_wakeups_per_sec\": {MAX_IDLE_WAKEUPS_PER_SEC:.1}, \
         \"telemetry_max_ratio\": {TELEMETRY_MAX_RATIO}, \
         \"telemetry_noise_floor_ms\": {TELEMETRY_NOISE_FLOOR_MS}}}"
    );
    out.push_str("}\n");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let total = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // Cell 1: the in-memory mesh at four-digit node counts. One group per
    // 8 workstations, strided; every message still crosses the transport
    // seam and wakes a shard mailbox.
    let (mesh_nodes, mesh_groups, mesh_members, mesh_workers) = if args.smoke {
        (200, 25, 8, 8)
    } else {
        (1000, 125, 8, 8)
    };
    // Cell 2: real UDP sockets on loopback — the paper's deployment shape,
    // one datagram socket (and reader thread) per workstation.
    let (udp_nodes, udp_groups, udp_members, udp_workers) = if args.smoke {
        (16, 4, 4, 4)
    } else {
        (64, 8, 8, 8)
    };
    let idle_window = if args.smoke {
        Duration::from_secs(1)
    } else {
        Duration::from_secs(2)
    };

    println!(
        "{:<22} {:>6} {:>7} {:>8} {:>9} {:>11} {:>9} {:>8} {:>8}",
        "cell",
        "nodes",
        "groups",
        "workers",
        "threads",
        "elected-ms",
        "wakes/s",
        "idle/s",
        "wall-ms"
    );
    let make_mesh = |nodes: usize| {
        move || {
            let mut mesh: InMemoryMesh<ServiceMessage> =
                InMemoryMesh::with_links(nodes, LinkSpec::perfect(), 42);
            (0..nodes)
                .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
                .collect()
        }
    };
    // The overhead comparison: the same mesh deployment, telemetry off
    // (the baseline cell of schema /1) and telemetry on (full registry,
    // QoS histograms and the protocol trace attached to every node).
    let (off_cell, _) = run_cell(
        format!("mesh-{mesh_nodes}x{mesh_groups}x{mesh_members}"),
        "mesh",
        make_mesh(mesh_nodes),
        mesh_nodes,
        strided_groups(mesh_nodes, mesh_groups, mesh_members),
        mesh_workers,
        0,
        idle_window,
        false,
        None,
        &mut failures,
    );
    print_cell(&off_cell);
    let (on_cell, mesh_snapshot) = run_cell(
        format!("mesh-{mesh_nodes}x{mesh_groups}x{mesh_members}-telemetry"),
        "mesh",
        make_mesh(mesh_nodes),
        mesh_nodes,
        strided_groups(mesh_nodes, mesh_groups, mesh_members),
        mesh_workers,
        0,
        idle_window,
        true,
        None,
        &mut failures,
    );
    print_cell(&on_cell);

    let allowed_ms = off_cell.elected_ms
        + ((off_cell.elected_ms as f64 * TELEMETRY_MAX_RATIO) as u128)
            .max(TELEMETRY_NOISE_FLOOR_MS);
    let overhead = Overhead {
        cell: off_cell.name.clone(),
        off_ms: off_cell.elected_ms,
        on_ms: on_cell.elected_ms,
        allowed_ms,
        ok: on_cell.elected_ms <= allowed_ms,
    };
    if !overhead.ok {
        failures.push(format!(
            "{}: telemetry overhead gate failed — elected in {} ms with telemetry \
             vs {} ms without (allowed {} ms = +{:.0}% or +{} ms floor)",
            on_cell.name,
            overhead.on_ms,
            overhead.off_ms,
            overhead.allowed_ms,
            TELEMETRY_MAX_RATIO * 100.0,
            TELEMETRY_NOISE_FLOOR_MS,
        ));
    }
    cells.push(off_cell);
    cells.push(on_cell);

    let (cell, _) = run_udp_cell(
        "udp",
        (udp_nodes, udp_groups, udp_members),
        udp_workers,
        udp_nodes,
        idle_window,
        &mut failures,
    );
    cells.push(cell);

    // Cell 4: the UDP plane at mesh scale, every node's datagrams
    // demultiplexed behind `plane_sockets` sockets.
    let (plane_nodes, plane_groups, plane_members, plane_workers, plane_sockets) = if args.smoke {
        (200, 25, 8, 4, 4)
    } else {
        (1000, 125, 8, 8, 8)
    };
    let (cell, plane) = run_udp_cell(
        "udp-shared",
        (plane_nodes, plane_groups, plane_members),
        plane_workers,
        plane_sockets,
        idle_window,
        &mut failures,
    );
    cells.push(cell);
    if let Some(path) = &args.snapshot_plane_prom {
        let registry = Registry::default();
        plane.bind(&registry, "udp.plane");
        let snapshot = registry.snapshot();
        if let Err(e) = std::fs::write(path, sle_obs::render_prometheus(&snapshot)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote plane Prometheus snapshot to {path}");
    }

    if let Some(snapshot) = &mesh_snapshot {
        if let Some(path) = &args.snapshot_prom {
            if let Err(e) = std::fs::write(path, sle_obs::render_prometheus(snapshot)) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote Prometheus snapshot to {path}");
        }
        if let Some(path) = &args.snapshot_json {
            if let Err(e) = std::fs::write(path, sle_obs::render_json(snapshot)) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote JSON snapshot to {path}");
        }
    }

    let json = render_json(&cells, &overhead, args.smoke);
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", args.out);
        std::process::exit(2);
    });
    println!(
        "\nwrote {} ({} cells) in {:.1}s wall-clock",
        args.out,
        cells.len(),
        total.elapsed().as_secs_f64()
    );

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "OK: every group elected on O(workers) threads \
         (<= {MAX_RUNTIME_THREADS} runtime threads + transport readers), \
         idle wakeups <= {MAX_IDLE_WAKEUPS_PER_SEC}/s, telemetry overhead \
         {} ms vs {} ms baseline (allowed {} ms)",
        overhead.on_ms, overhead.off_ms, overhead.allowed_ms
    );
}

fn print_cell(cell: &Cell) {
    println!(
        "{:<22} {:>6} {:>7} {:>8} {:>9} {:>11} {:>9.1} {:>8.1} {:>8}",
        cell.name,
        cell.nodes,
        cell.groups,
        cell.workers,
        cell.threads_spawned
            .map(|t| t.to_string())
            .unwrap_or_else(|| "?".into()),
        cell.elected_ms,
        cell.wakeups_per_sec,
        cell.idle_wakeups_per_sec,
        cell.wall_ms,
    );
}
