//! Integration tests of `sle-fd`'s adaptive tuning policy under regime
//! shifts: on a network that improves mid-run, adaptive tuning must detect a subsequent leader crash
//! at least as fast as the static configuration while making no more
//! failure-detection mistakes.

use sle_election::ElectorKind;
use sle_fd::TuningPolicy;
use sle_harness::RegimeShiftScenario;
use sle_sim::time::SimDuration;

#[test]
fn adaptive_tuning_is_no_worse_than_static_after_a_regime_shift() {
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let scenario = RegimeShiftScenario::improving_network("regime-shift", algorithm);
        let comparison = scenario.compare();

        let static_outcome = &comparison.static_outcome;
        let adaptive_outcome = &comparison.adaptive_outcome;

        // Both runs must actually exercise the crash-and-recover path.
        assert_eq!(
            static_outcome.metrics.leader_crashes, 1,
            "{algorithm}: static run must crash the leader once"
        );
        assert_eq!(
            adaptive_outcome.metrics.leader_crashes, 1,
            "{algorithm}: adaptive run must crash the leader once"
        );
        assert_eq!(
            static_outcome.metrics.recovery.count, 1,
            "{algorithm}: static run never re-elected"
        );
        assert_eq!(
            adaptive_outcome.metrics.recovery.count, 1,
            "{algorithm}: adaptive run never re-elected"
        );

        // The acceptance criterion: detection+recovery at least as fast, with
        // no more FD mistakes.
        assert!(
            comparison.adaptive_no_worse(),
            "{algorithm}: adaptive (T_r = {:.3}s, mistakes = {}) worse than static \
             (T_r = {:.3}s, mistakes = {})",
            adaptive_outcome.recovery_seconds(),
            adaptive_outcome.metrics.unjustified_demotions,
            static_outcome.recovery_seconds(),
            static_outcome.metrics.unjustified_demotions,
        );

        // And the win must be structural, not luck: after 30 s on a LAN the
        // adaptive policy must have tightened the worst-case detection bound
        // well below the static T_D^U = 1 s.
        let adaptive_bound = adaptive_outcome
            .detection_bound_towards_leader
            .expect("survivor still monitors the crashed leader");
        let static_bound = static_outcome
            .detection_bound_towards_leader
            .expect("survivor still monitors the crashed leader");
        assert_eq!(
            static_bound,
            scenario.qos.detection_time(),
            "{algorithm}: the static detector must keep η + δ = T_D^U"
        );
        assert!(
            adaptive_bound < static_bound,
            "{algorithm}: adaptive bound {adaptive_bound} not tighter than static {static_bound}"
        );
    }
}

#[test]
fn adaptive_and_static_agree_when_tuning_cannot_help() {
    // Identical scenario, but the leader crash comes during the *degraded*
    // phase, before the improvement: adaptation must still not be worse.
    let mut scenario =
        RegimeShiftScenario::improving_network("early-crash", ElectorKind::OmegaL).with_seed(9);
    scenario.leader_crash_at = sle_sim::time::SimInstant::from_secs_f64(20.0);
    scenario.duration = SimDuration::from_secs(45);
    let comparison = scenario.compare();
    assert_eq!(comparison.static_outcome.metrics.recovery.count, 1);
    assert_eq!(comparison.adaptive_outcome.metrics.recovery.count, 1);
    assert!(
        comparison.adaptive_outcome.metrics.unjustified_demotions
            <= comparison.static_outcome.metrics.unjustified_demotions
    );
}

#[test]
fn static_policy_run_reports_full_detection_bound() {
    let scenario = RegimeShiftScenario::improving_network("static-only", ElectorKind::OmegaLc);
    let outcome = scenario.run(TuningPolicy::Static);
    assert_eq!(
        outcome.detection_bound_towards_leader,
        Some(scenario.qos.detection_time())
    );
    assert_eq!(outcome.metrics.leader_crashes, 1);
}

#[test]
fn a_half_upgraded_group_elects_and_survives_the_leader_crash() {
    // A rolling upgrade caught half-way: every other workstation joins
    // adaptively, the rest statically, all in one group. The monitors then
    // disagree about (η, δ) per link — the group must not care.
    for algorithm in [ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        let scenario = RegimeShiftScenario::improving_network("rolling-upgrade", algorithm);
        let all_static = scenario.run(TuningPolicy::Static);
        let mixed = scenario.run_mixed(|node| match node.0 % 2 {
            0 => TuningPolicy::Adaptive,
            _ => TuningPolicy::Static,
        });
        // `run` itself insists on an agreed leader before the crash.
        assert_eq!(mixed.metrics.leader_crashes, 1, "{algorithm}");
        assert_eq!(
            mixed.metrics.recovery.count, 1,
            "{algorithm}: the half-upgraded group never re-elected"
        );
        assert!(
            mixed.metrics.unjustified_demotions <= all_static.metrics.unjustified_demotions,
            "{algorithm}: mixed {} > static {}",
            mixed.metrics.unjustified_demotions,
            all_static.metrics.unjustified_demotions
        );
    }
}
