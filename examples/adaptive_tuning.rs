//! Static vs adaptive QoS tuning under a network regime shift.
//!
//! The network starts congested (40 ms exponential delays, 2% loss) and
//! clears up to the paper's LAN at t = 30 s; the commonly agreed leader is
//! crashed at t = 60.001 s. With the paper's static per-join configuration
//! the failure detector keeps its worst-case detection time at T_D^U = 1 s
//! forever; the adaptive policy measures the improvement and tightens the
//! bound, so the crash is detected — and the group recovers — faster, at
//! the same mistake budget. Both runs go through the chaos engine, so each
//! row carries the invariant checker's verdict.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use sle_chaos::{crash_detection, regime_shift, run_plan};
use sle_election::ElectorKind;
use sle_sim::actor::NodeId;

fn main() {
    println!("regime shift: (D=40ms, pL=0.02) -> LAN at t=30s; leader crash at t=60.001s\n");
    println!(
        "{:<16} {:>8} {:>14} {:>12} {:>10} {:>16} verdict",
        "service", "tuning", "detection (s)", "Tr (s)", "mistakes", "P_leader"
    );
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let (scenario, plan) = regime_shift(algorithm);
        let nodes = scenario.nodes as u32;
        let adaptive = scenario.clone().with_adaptive((0..nodes).map(NodeId));
        let [fixed, tuned] = [scenario, adaptive].map(|scenario| run_plan(&scenario, &plan));
        for (label, report) in [("static", &fixed), ("adaptive", &tuned)] {
            println!(
                "{:<16} {:>8} {:>14.3} {:>12.3} {:>10} {:>16.5} {}",
                algorithm.to_string(),
                label,
                crash_detection(report).map_or(f64::NAN, |d| d.as_secs_f64()),
                report.qos.recovery.mean,
                report.qos.unjustified_demotions,
                report.qos.leader_availability,
                report.verdict(),
            );
        }
        assert!(
            tuned.qos.recovery.mean <= fixed.qos.recovery.mean
                && tuned.qos.unjustified_demotions <= fixed.qos.unjustified_demotions,
            "{algorithm}: adaptive tuning must not be worse than static"
        );
    }
    println!("\ndetection runs from the leader's crash to the first accusation naming it.");
    println!("adaptive detection is bounded by the static T_D^U and tightens when the");
    println!("measured network allows it; mistakes never exceed the static run's.");
}
