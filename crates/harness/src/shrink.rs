//! Reducing a failing fault plan to a minimal reproducer.
//!
//! Greedy delta-debugging over the action list: repeatedly try dropping one
//! action (latest first — late actions are most often incidental); keep any
//! reduction that still violates an invariant. The result is 1-minimal: no
//! single action can be removed without the failure disappearing. Because
//! runs are deterministic, a shrunk plan fails forever, not just usually.

use crate::engine::run_plan;
use crate::plan::FaultPlan;
use crate::scenario::Scenario;

/// The outcome of shrinking a failing plan.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimal failing plan.
    pub plan: FaultPlan,
    /// How many chaos runs the search needed.
    pub runs: u64,
}

/// Shrinks `plan` to a 1-minimal plan that still makes `scenario` fail.
///
/// `plan` itself must fail under `scenario`; if it does not, it is returned
/// unchanged (zero reduction, one probe run).
pub fn shrink_plan(scenario: &Scenario, plan: &FaultPlan) -> Shrunk {
    let mut runs = 0u64;
    let mut fails = |candidate: &FaultPlan| {
        runs += 1;
        !run_plan(scenario, candidate).violations.is_empty()
    };
    if !fails(plan) {
        return Shrunk {
            plan: plan.clone(),
            runs,
        };
    }
    let mut current = plan.clone();
    'search: loop {
        for index in (0..current.len()).rev() {
            let candidate = current.without(index);
            if fails(&candidate) {
                current = candidate;
                continue 'search;
            }
        }
        break;
    }
    Shrunk {
        plan: current,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultAction;
    use sle_election::ElectorKind;
    use sle_fd::QosSpec;
    use sle_sim::actor::NodeId;
    use sle_sim::time::SimDuration;

    /// A weakened detector over a slow lossy link: the timeout shift cannot
    /// cover the delay tail, so false suspicions demote the leader in quiet
    /// time.
    fn weakened_scenario() -> Scenario {
        Scenario::new(ElectorKind::OmegaLc, 3)
            .with_duration(SimDuration::from_secs(30))
            .with_qos(
                QosSpec::new(
                    SimDuration::from_millis(40),
                    SimDuration::from_secs(3600),
                    0.999,
                )
                .expect("valid weakened QoS"),
            )
            .with_link(sle_net::link::LinkSpec::from_paper_tuple(25.0, 0.1))
    }

    #[test]
    fn a_weakened_detector_failure_shrinks_to_the_empty_plan() {
        let scenario = weakened_scenario();
        // Decorate the failure with irrelevant actions: the shrinker must
        // strip them all, proving the faults were never needed.
        let plan = FaultPlan::new("decorated")
            .at(12.0, FaultAction::Crash(NodeId(2)))
            .at(18.0, FaultAction::Recover(NodeId(2)));
        let shrunk = shrink_plan(&scenario, &plan);
        assert!(
            shrunk.plan.is_empty(),
            "irrelevant actions survived: {:?}",
            shrunk.plan
        );
        assert!(shrunk.runs >= 3, "probe + at least two reduction attempts");
    }

    #[test]
    fn a_passing_plan_is_returned_unchanged() {
        let scenario =
            Scenario::new(ElectorKind::OmegaL, 3).with_duration(SimDuration::from_secs(20));
        let plan = FaultPlan::new("fine").at(
            10.0,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(4),
            },
        );
        let shrunk = shrink_plan(&scenario, &plan);
        assert_eq!(shrunk.plan, plan);
        assert_eq!(shrunk.runs, 1);
    }
}
