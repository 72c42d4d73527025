//! End-to-end chaos runs: every fault-plan family against the paper's
//! three services, plus the weakened-detector detection demo.

use sle_chaos::{
    run_plan, shrink_plan, FaultAction, FaultPlan, PlanKind, Scenario, TraceEventKind,
    ViolationKind,
};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::LinkSpec;
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

fn scenario(algorithm: ElectorKind, seed: u64) -> Scenario {
    Scenario::new(algorithm, 5)
        .with_duration(SimDuration::from_secs(40))
        .with_seed(seed)
}

#[test]
fn every_plan_family_passes_on_every_service() {
    for algorithm in ElectorKind::all() {
        for kind in PlanKind::all() {
            let chaos = scenario(algorithm, 77);
            let plan = kind.generate(chaos.nodes, chaos.duration, chaos.link, 77);
            let report = run_plan(&chaos, &plan);
            assert!(
                report.ok(),
                "{algorithm} / {}: {:#?}",
                kind.name(),
                report.violations
            );
            assert!(
                report.final_leader.is_some(),
                "{algorithm} / {}: no final leader",
                kind.name()
            );
        }
    }
}

#[test]
fn partition_drops_traffic_and_heals_back_to_one_leader() {
    let chaos = scenario(ElectorKind::OmegaL, 3);
    let plan = FaultPlan::new("split-heal")
        .at(
            12.0,
            FaultAction::Partition(vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(2), NodeId(3), NodeId(4)],
            ]),
        )
        .at(24.0, FaultAction::Heal);
    let report = run_plan(&chaos, &plan);
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(
        report.network.partitioned > 0,
        "the partition never dropped a message"
    );
    assert!(report.final_leader.is_some(), "no reconvergence after heal");
}

#[test]
fn duplication_overlay_actually_duplicates_datagrams() {
    let chaos = scenario(ElectorKind::OmegaLc, 5);
    let overlay = chaos
        .link
        .with_duplication(0.3)
        .with_jitter(SimDuration::from_millis(40));
    let plan = FaultPlan::new("dup-window")
        .at(10.0, FaultAction::SetLink(overlay))
        .at(25.0, FaultAction::SetLink(chaos.link));
    let report = run_plan(&chaos, &plan);
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(
        report.network.duplicated > 0,
        "the duplication overlay never fired"
    );
}

#[test]
fn mid_run_leave_and_rejoin_of_the_leader_is_survived() {
    // Node 0 usually wins the initial election (smallest id / earliest
    // accusation rank); make it leave voluntarily and come back.
    let chaos = scenario(ElectorKind::OmegaLc, 11);
    let plan = FaultPlan::new("leader-leaves")
        .at(12.0, FaultAction::Leave(NodeId(0)))
        .at(22.0, FaultAction::Join(NodeId(0)));
    let report = run_plan(&chaos, &plan);
    assert!(report.ok(), "{:#?}", report.violations);
    let left = report
        .trace
        .iter()
        .any(|event| matches!(event.kind, TraceEventKind::Left { node: NodeId(0) }));
    let joined = report
        .trace
        .iter()
        .any(|event| matches!(event.kind, TraceEventKind::Joined { node: NodeId(0) }));
    assert!(left && joined, "churn was not applied");
    assert!(report.final_leader.is_some());
}

#[test]
fn weakened_detector_is_caught_and_shrunk_to_a_minimal_reproducer() {
    // Test-only weakening: a detection bound of 40 ms over a 25 ms-mean
    // lossy link. The shift cannot clear the delay tail, so the detector
    // keeps falsely suspecting the (alive) leader — exactly the class of
    // defect the checker exists to catch.
    let weakened = Scenario::new(ElectorKind::OmegaLc, 3)
        .with_duration(SimDuration::from_secs(30))
        .with_qos(
            QosSpec::new(
                SimDuration::from_millis(40),
                SimDuration::from_secs(3600),
                0.999,
            )
            .unwrap(),
        )
        .with_link(LinkSpec::from_paper_tuple(25.0, 0.1));
    let plan = PlanKind::DriftStep.generate(3, weakened.duration, weakened.link, 5);
    let report = run_plan(&weakened, &plan);
    assert!(
        !report.ok(),
        "the weakened detector must violate invariants"
    );
    assert!(
        report.violations.iter().any(|violation| violation.kind
            == ViolationKind::UnjustifiedDemotion
            || violation.kind == ViolationKind::MistakeRecurrenceExceeded),
        "unexpected violation mix: {:#?}",
        report.violations
    );
    // The faults in the plan are irrelevant to this failure: the shrinker
    // proves it by reducing the reproducer to the empty plan (the restore
    // action left alone is a no-op and must not shield the failure with a
    // settle window).
    let shrunk = shrink_plan(&weakened, &plan);
    assert!(
        shrunk.plan.is_empty(),
        "shrinking kept irrelevant actions: {:?}",
        shrunk.plan
    );
    assert!(!run_plan(&weakened, &shrunk.plan).ok());
}

#[test]
fn sweep_over_multiple_seeds_stays_clean() {
    // A narrow but real sweep (2 seeds x 6 families x 1 algorithm) through
    // the public sweep API, as the CI smoke job runs it.
    let sweep = sle_chaos::SweepConfig {
        algorithms: vec![ElectorKind::OmegaL],
        scenario: Scenario::new(ElectorKind::OmegaL, 4).with_duration(SimDuration::from_secs(35)),
        ..sle_chaos::SweepConfig::new().with_seeds(2)
    };
    let summary = sle_chaos::run_sweep(&sweep);
    assert_eq!(summary.runs, 2 * 6);
    assert!(summary.ok(), "{}", summary.render());
}
