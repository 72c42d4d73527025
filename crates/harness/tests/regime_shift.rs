//! Integration tests of `sle-fd`'s adaptive tuning policy under regime
//! shifts: on a network that improves mid-run, adaptive tuning must detect a
//! subsequent leader crash at least as fast as the static configuration
//! while making no more failure-detection mistakes. Every run goes through
//! the chaos engine, so each one must also uphold every invariant.

use sle_election::ElectorKind;
use sle_harness::{
    crash_detection, regime_shift, run_plan, ChaosReport, FaultAction, FaultPlan, Scenario,
};
use sle_net::link::LinkSpec;
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

/// Runs `scenario` under `plan` and checks what every regime run must show:
/// a clean verdict, and exactly one leader crash that the group recovered
/// from.
fn run(scenario: &Scenario, plan: &FaultPlan, what: &str) -> ChaosReport {
    let report = run_plan(scenario, plan);
    assert!(report.ok(), "{what}: {}", report.verdict());
    assert_eq!(report.proto_dropped, 0, "{what}: the trace ring overflowed");
    assert_eq!(report.qos.leader_crashes, 1, "{what}: one leader crash");
    assert_eq!(report.qos.recovery.count, 1, "{what}: never re-elected");
    report
}

fn all_adaptive(scenario: &Scenario) -> Scenario {
    let nodes = scenario.nodes as u32;
    scenario.clone().with_adaptive((0..nodes).map(NodeId))
}

#[test]
fn adaptive_tuning_is_no_worse_than_static_after_a_regime_shift() {
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let (scenario, plan) = regime_shift(algorithm);
        let fixed = run(&scenario, &plan, &format!("{algorithm} static"));
        let tuned = run(
            &all_adaptive(&scenario),
            &plan,
            &format!("{algorithm} adaptive"),
        );

        // The acceptance criterion: detection+recovery at least as fast, with
        // no more FD mistakes.
        assert!(
            tuned.qos.recovery.mean <= fixed.qos.recovery.mean
                && tuned.qos.unjustified_demotions <= fixed.qos.unjustified_demotions,
            "{algorithm}: adaptive (T_r = {:.3}s, mistakes = {}) worse than static \
             (T_r = {:.3}s, mistakes = {})",
            tuned.qos.recovery.mean,
            tuned.qos.unjustified_demotions,
            fixed.qos.recovery.mean,
            fixed.qos.unjustified_demotions,
        );

        // And the win must be structural, not luck: after 30 s on a LAN the
        // adaptive detectors must accuse the crashed leader sooner than the
        // static ones, which take up to T_D^U = 1 s.
        let fixed_detection = crash_detection(&fixed).expect("the static run accused");
        let tuned_detection = crash_detection(&tuned).expect("the adaptive run accused");
        assert!(fixed_detection <= scenario.qos.detection_time());
        assert!(
            tuned_detection < fixed_detection,
            "{algorithm}: adaptive detection {tuned_detection} not faster than static \
             {fixed_detection}"
        );
    }
}

#[test]
fn adaptive_and_static_agree_when_tuning_cannot_help() {
    // The same links, but the leader crash comes during the *degraded*
    // phase, before the improvement: adaptation must still not be worse.
    let (scenario, _) = regime_shift(ElectorKind::OmegaL);
    let measured = SimDuration::from_secs(45) - scenario.warmup;
    let scenario = scenario.with_seed(9).with_duration(measured);
    let plan = FaultPlan::new("early-crash")
        .at(
            20.001,
            FaultAction::CrashLeader {
                down_for: SimDuration::from_secs(3600),
            },
        )
        .at(30.0, FaultAction::SetLink(LinkSpec::lan()));
    let fixed = run(&scenario, &plan, "static");
    let tuned = run(&all_adaptive(&scenario), &plan, "adaptive");
    assert!(tuned.qos.unjustified_demotions <= fixed.qos.unjustified_demotions);
}

#[test]
fn static_policy_run_reports_full_detection_bound() {
    // The paper's static detector keeps η + δ = T_D^U on any link: it
    // accuses a crashed leader within T_D^U, and (unlike the adaptive
    // policy's 0.1 s on this LAN) not before half of it has passed.
    let (scenario, plan) = regime_shift(ElectorKind::OmegaLc);
    let report = run(&scenario, &plan, "static");
    let bound = scenario.qos.detection_time();
    let detection = crash_detection(&report).expect("the crashed leader was accused");
    assert!(
        detection <= bound && detection * 2 > bound,
        "detection {detection} against T_D^U {bound}"
    );
}

#[test]
fn a_half_upgraded_group_elects_and_survives_the_leader_crash() {
    // A rolling upgrade caught half-way: every other workstation joins
    // adaptively, the rest statically, all in one group. The monitors then
    // disagree about (η, δ) per link — the group must not care.
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let (scenario, plan) = regime_shift(algorithm);
        let all_static = run(&scenario, &plan, &format!("{algorithm} static"));
        let mixed = scenario.with_adaptive([NodeId(0), NodeId(2), NodeId(4)]);
        let mixed = run(&mixed, &plan, &format!("{algorithm} half-upgraded"));
        assert!(
            mixed.qos.unjustified_demotions <= all_static.qos.unjustified_demotions,
            "{algorithm}: mixed {} > static {}",
            mixed.qos.unjustified_demotions,
            all_static.qos.unjustified_demotions
        );
    }
}
