//! The regime-shift experiment: the paper's static failure-detector
//! configuration against adaptive tuning, on links that improve mid-run.
//! The paper keeps every link's `(D, p_L)` fixed for a whole run; a static
//! detector keeps η + δ = `T_D^U` for good, while the workstations listed
//! in [`Scenario::adaptive`] tighten it to what the measured link allows.

use sle_election::ElectorKind;
use sle_net::link::LinkSpec;
use sle_obs::ProtoEvent;
use sle_sim::time::{SimDuration, SimInstant};

use crate::engine::ChaosReport;
use crate::plan::{FaultAction, FaultPlan};
use crate::scenario::{Scenario, EXPERIMENT_GROUP};

/// The regime-shift experiment for `algorithm`: six statically tuned
/// workstations on a congested network (40 ms, 2 % loss), measured from
/// 5 s to 90 s, and its plan: the links clear up to the LAN at 30 s, and
/// the leader crashes at 60.001 s, down for longer than the run.
pub fn regime_shift(algorithm: ElectorKind) -> (Scenario, FaultPlan) {
    // The warm-up keeps the initial election's settling out of the
    // mistake count.
    let scenario = Scenario {
        warmup: SimDuration::from_secs(5),
        ..Scenario::new(algorithm, 6)
    }
    .with_link(LinkSpec::from_paper_tuple(40.0, 0.02))
    .with_duration(SimDuration::from_secs(85))
    .with_seed(0xAD_2026);
    let down_for = scenario.end() - SimInstant::ZERO;
    let plan = FaultPlan::new("regime-shift")
        .at(30.0, FaultAction::SetLink(LinkSpec::lan()))
        .at_instant(
            SimInstant::from_secs_f64(60.0) + SimDuration::from_millis(1),
            FaultAction::CrashLeader { down_for },
        );
    (scenario, plan)
}

/// How long the survivors took to detect the run's first crash: from the
/// crashed workstation's `Crashed` mark in the protocol trace to the first
/// accusation that names it. `None` if nothing crashed or nobody accused.
pub fn crash_detection(report: &ChaosReport) -> Option<SimDuration> {
    let mut records = report.proto_trace.iter();
    let crash = records.find(|record| record.event == ProtoEvent::Crashed)?;
    let accused = crash.node.0;
    let group = EXPERIMENT_GROUP.0;
    records
        .find(|record| record.event == ProtoEvent::Accusation { group, accused })
        .map(|accusation| accusation.at - crash.at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders() {
        let (scenario, plan) = regime_shift(ElectorKind::OmegaL);
        assert_eq!(scenario.nodes, 6);
        assert_eq!(scenario.seed, 0xAD_2026);
        assert!(scenario.adaptive.is_empty(), "the paper's static tuning");
        assert_eq!(scenario.horizon(), SimInstant::from_secs_f64(90.0));
        let actions = plan.actions();
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0].action, FaultAction::SetLink(LinkSpec::lan()));
        assert_eq!(actions[1].at, SimInstant::from_nanos(60_001_000_000));
        let FaultAction::CrashLeader { down_for } = actions[1].action else {
            panic!("the second action crashes the leader");
        };
        assert!(actions[1].at + down_for > scenario.end(), "stays down");
    }
}
