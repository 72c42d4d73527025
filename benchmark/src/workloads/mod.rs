//! The four named workloads.

pub mod app;
pub mod rt;
pub mod sim;

use sle_harness::deploy;
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

use crate::probes::samples::Store;
use crate::probes::Kind;
use crate::qos::QosReport;
use crate::replay;
use crate::runner::{self, Outcome, RunArgs};

/// The message kinds the codec replay reports, with their two metric names.
const WIRE_KINDS: &[(Kind, &str, &str)] = &[
    (Kind::Hello, "wire.encode_ns.hello", "wire.decode_ns.hello"),
    (
        Kind::AliveBatch,
        "wire.encode_ns.alive_batch",
        "wire.decode_ns.alive_batch",
    ),
    (
        Kind::LeaseGrant,
        "wire.encode_ns.lease_grant",
        "wire.decode_ns.lease_grant",
    ),
    (
        Kind::ClientRequest,
        "wire.encode_ns.client_request",
        "wire.decode_ns.client_request",
    ),
    (
        Kind::ClientReply,
        "wire.encode_ns.client_reply",
        "wire.decode_ns.client_reply",
    ),
];

/// `groups` strided groups of `members` over `nodes` workstations
/// (`deploy::strided_groups`), relabelled by a seed-derived rotation so the
/// seed decides which workstations share groups with which.
fn rotated_strided_groups(
    nodes: usize,
    groups: usize,
    members: usize,
    args: &RunArgs,
) -> Vec<Vec<NodeId>> {
    let rotation = (args.subseed(0) % nodes as u64) as usize;
    deploy::strided_groups(nodes, groups, members)
        .into_iter()
        .map(|members| {
            members
                .into_iter()
                .map(|m| NodeId(((m.index() + rotation) % nodes) as u32))
                .collect()
        })
        .collect()
}

/// Ledger entries of the codec replay over the sampled messages.
fn set_codec_metrics(outcome: &mut Outcome, store: &Store) {
    let codec = replay::codec(&store.per_kind, &store.uniform);
    outcome.set("wire.bytes_per_msg", codec.bytes_per_msg);
    for (kind, encode, decode) in WIRE_KINDS {
        outcome.set(encode, codec.encode_ns.get(kind).copied().unwrap_or(0.0));
        outcome.set(decode, codec.decode_ns.get(kind).copied().unwrap_or(0.0));
    }
}

/// Ledger entries of the detector and elector replays over the kept ALIVE
/// streams.
fn set_stream_replay_metrics(outcome: &mut Outcome, store: &Store, detection: SimDuration) {
    let fd = replay::detector(&store.streams, detection);
    outcome.set("fd.detector.on_heartbeat_ns", fd.on_heartbeat_ns);
    outcome.set("fd.detector.poll_ns", fd.poll_ns);
    let elector = replay::elector(&store.streams);
    outcome.set("election.elector.on_alive_ns", elector.on_alive_ns);
    outcome.set("election.elector.on_suspect_ns", elector.on_suspect_ns);
}

/// Ledger entries of the election latencies (start → first full agreement).
fn set_election_metrics(outcome: &mut Outcome, report: &QosReport) {
    if let Some(p) = runner::percentiles(&mut report.election_ms.clone()) {
        outcome.set("qos.election_p50_ms", p.p50);
        if let Some((pct, value)) = p.tail {
            outcome.set("qos.election_tail_ms", value);
            outcome.set("qos.election_tail_pct", pct);
        }
    }
}

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "sim-steady" => sim::run(&sim::SimShape::steady(args.smoke), args),
        "sim-churn" => sim::run(&sim::SimShape::churn(args.smoke), args),
        "rt-udp-steady" => rt::run(&rt::RtShape::new(args.smoke), args),
        "app-failover" => app::run(&app::AppShape::new(args.smoke), args),
        _ => return None,
    })
}
