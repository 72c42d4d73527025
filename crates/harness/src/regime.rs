//! The regime-shift experiment: static vs adaptive QoS tuning on a network
//! whose behaviour changes mid-run.
//!
//! The network starts in a degraded regime (WAN-ish delays, some loss),
//! then improves sharply — the kind of drift the paper's static per-join
//! configuration cannot exploit: its failure detector keeps the full
//! `T_D^U` worst-case detection time forever. The adaptive policy measures
//! the improvement and tightens η + δ, so when the leader is crashed *after*
//! the shift the group recovers faster — without additional false
//! suspicions, since the derived parameters honour the same
//! mistake-recurrence bound.

use sle_core::{JoinConfig, ProcessId, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_fd::TuningPolicy;
use sle_net::drift::{DriftSchedule, DriftingNetwork};
use sle_net::link::LinkSpec;
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::world::World;

use crate::metrics::{ExperimentMetrics, MetricsCollector};
use crate::scenario::EXPERIMENT_GROUP;

/// A regime-shift experiment: the same run executed once with static and
/// once with adaptive tuning, everything else (seed, schedule, crash time)
/// identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeShiftScenario {
    /// Human-readable name (used in reports).
    pub name: String,
    /// The service version under test.
    pub algorithm: ElectorKind,
    /// Number of workstations.
    pub nodes: usize,
    /// The drifting behaviour of every directed link.
    pub schedule: DriftSchedule,
    /// The application-level failure-detection QoS.
    pub qos: QosSpec,
    /// When the commonly agreed leader is crashed (chosen after the last
    /// regime shift, so adaptation has had time to converge).
    pub leader_crash_at: SimInstant,
    /// Total virtual duration of the run.
    pub duration: SimDuration,
    /// Experiment seed.
    pub seed: u64,
}

impl RegimeShiftScenario {
    /// The default regime shift: 6 workstations on a congested network
    /// (40 ms exponential delays, 2% loss) that clears up to the paper's LAN
    /// at t = 30 s; the leader crashes at t = 60 s.
    pub fn improving_network(name: impl Into<String>, algorithm: ElectorKind) -> Self {
        RegimeShiftScenario {
            name: name.into(),
            algorithm,
            nodes: 6,
            schedule: DriftSchedule::new(LinkSpec::from_paper_tuple(40.0, 0.02))
                .then_at(SimInstant::from_secs_f64(30.0), LinkSpec::lan()),
            qos: QosSpec::paper_default(),
            leader_crash_at: SimInstant::from_secs_f64(60.0),
            duration: SimDuration::from_secs(90),
            seed: 0xAD_2026,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the scenario under the given tuning policy.
    pub fn run(&self, tuning: TuningPolicy) -> RegimeShiftOutcome {
        self.run_mixed(move |_| tuning)
    }

    /// Runs the scenario with every workstation joining under the policy
    /// `tuning` gives it — a group caught half-way through a rolling upgrade.
    pub fn run_mixed(
        &self,
        tuning: impl Fn(NodeId) -> TuningPolicy + 'static,
    ) -> RegimeShiftOutcome {
        let n = self.nodes;
        let algorithm = self.algorithm;
        let qos = self.qos;
        let medium = self.schedule.clone().build();
        let mut world: World<ServiceNode, DriftingNetwork> = World::new(
            n,
            Box::new(move |node, _incarnation| {
                let join = (JoinConfig::candidate().with_qos(qos)).with_tuning(tuning(node));
                let config = ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(EXPERIMENT_GROUP, join);
                ServiceNode::new(config)
            }),
            medium,
            self.seed,
        );

        let mut collector = MetricsCollector::new(EXPERIMENT_GROUP, n, SimInstant::ZERO);
        world.run_until(self.leader_crash_at, &mut collector);
        let leader = agreed_leader(&world)
            .expect("the group must have agreed on a leader before the scheduled crash");

        // The worst-case detection bound a surviving node holds towards the
        // leader at this point shows how far tuning has converged (sampled
        // now — once the leader crashes its monitor is eventually dropped
        // from the survivor's membership).
        let observer_node = NodeId(if leader.node == NodeId(0) { 1 } else { 0 });
        let detection_bound = world.actor(observer_node).and_then(|node| {
            node.fd_params_of(EXPERIMENT_GROUP, leader.node)
                .map(|params| params.worst_case_detection())
        });

        let crash_at = world.now() + SimDuration::from_millis(1);
        world.schedule_crash(leader.node, crash_at);
        world.run_until(SimInstant::ZERO + self.duration, &mut collector);

        RegimeShiftOutcome {
            metrics: collector.finish(SimInstant::ZERO + self.duration),
            crashed_leader: leader,
            detection_bound_towards_leader: detection_bound,
        }
    }

    /// Runs the scenario once statically and once adaptively.
    pub fn compare(&self) -> RegimeShiftComparison {
        RegimeShiftComparison {
            static_outcome: self.run(TuningPolicy::Static),
            adaptive_outcome: self.run(TuningPolicy::adaptive()),
        }
    }
}

fn agreed_leader(world: &World<ServiceNode, DriftingNetwork>) -> Option<ProcessId> {
    let mut leader = None;
    for i in 0..world.num_nodes() {
        let node = NodeId(i as u32);
        if !world.is_up(node) {
            continue;
        }
        let view = world.actor(node)?.leader_of(EXPERIMENT_GROUP)?;
        match leader {
            None => leader = Some(view),
            Some(l) if l == view => {}
            _ => return None,
        }
    }
    leader
}

/// The result of one regime-shift run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeShiftOutcome {
    /// Full QoS metrics of the run (the single recovery sample is the
    /// detection + re-election time of the scheduled leader crash).
    pub metrics: ExperimentMetrics,
    /// The leader that was crashed.
    pub crashed_leader: ProcessId,
    /// The worst-case detection bound (η + δ) a survivor held towards the
    /// leader just before the scheduled crash.
    pub detection_bound_towards_leader: Option<SimDuration>,
}

impl RegimeShiftOutcome {
    /// The measured leader-detection-plus-recovery time, in seconds
    /// (`f64::INFINITY` if the group never re-elected).
    pub fn recovery_seconds(&self) -> f64 {
        if self.metrics.recovery.count == 0 {
            f64::INFINITY
        } else {
            self.metrics.recovery.mean
        }
    }
}

/// Static vs adaptive outcomes of the same regime-shift scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeShiftComparison {
    /// The run with the paper's static per-join configuration.
    pub static_outcome: RegimeShiftOutcome,
    /// The run with adaptive tuning enabled.
    pub adaptive_outcome: RegimeShiftOutcome,
}

impl RegimeShiftComparison {
    /// True iff the adaptive run detected and recovered from the leader
    /// crash at least as fast as the static run, while making no more
    /// mistakes (unjustified demotions).
    pub fn adaptive_no_worse(&self) -> bool {
        self.adaptive_outcome.recovery_seconds() <= self.static_outcome.recovery_seconds()
            && self.adaptive_outcome.metrics.unjustified_demotions
                <= self.static_outcome.metrics.unjustified_demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders() {
        let scenario =
            RegimeShiftScenario::improving_network("x", ElectorKind::OmegaL).with_seed(7);
        assert_eq!(scenario.seed, 7);
        assert_eq!(scenario.nodes, 6);
        assert_eq!(scenario.schedule.phases().len(), 2);
        assert!(scenario.leader_crash_at > scenario.schedule.phases()[1].0);
    }
}
