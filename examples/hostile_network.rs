//! Reproduce, in a few seconds, the paper's headline stress test: 12
//! workstations that each crash every 10 minutes on average, over links that
//! lose one message in ten with a 100 ms average delay — and report the three
//! QoS metrics of Section 5 for the S2 and S3 versions of the service, with
//! the verdict of the protocol-invariant checker on each run.
//!
//! Run with: `cargo run --release --example hostile_network`

use sle_chaos::{run_plan, FaultPlan, Scenario};
use sle_election::ElectorKind;
use sle_net::link::LinkSpec;
use sle_sim::time::SimDuration;

fn main() {
    let link = LinkSpec::from_paper_tuple(100.0, 0.1);
    // 30 virtual minutes per service version keeps the example quick; the
    // `reproduce` binary runs the full-length versions.
    let minutes = 30;

    println!("12 workstations, crash every ~10 min, links (D=100ms, pL=0.1), {minutes} virtual minutes\n");
    println!(
        "{:<14} {:>10} {:>14} {:>12} {:>10} verdict",
        "service", "Tr (s)", "mistakes/hour", "P_leader", "KB/s"
    );
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let scenario = Scenario::paper_default(algorithm, link)
            .with_duration(SimDuration::from_secs(minutes * 60));
        let report = run_plan(&scenario, &FaultPlan::quiet());
        let metrics = &report.qos;
        println!(
            "{:<14} {:>10.2} {:>14.2} {:>12.5} {:>10.2} {}",
            algorithm.to_string(),
            metrics.recovery.mean,
            metrics.mistakes_per_hour,
            metrics.leader_availability,
            metrics.kbytes_per_sec_per_node,
            report.verdict(),
        );
    }
    println!("\nCompare with the paper: S2 -> 99.82% availability, 62.38 KB/s;");
    println!("                        S3 -> 99.84% availability, 6.48 KB/s.");
}
