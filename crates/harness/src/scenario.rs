//! Experiment scenarios: everything needed to run one cell of one figure of
//! the paper's evaluation and obtain its metrics.

use sle_core::{GroupId, JoinConfig, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_net::network::NetworkModel;
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::world::World;

use crate::crash::{CrashPlan, CrashProfile};
use crate::metrics::{ExperimentMetrics, MetricsCollector};

/// The group used by all experiments.
pub const EXPERIMENT_GROUP: GroupId = GroupId(1);

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (used in reports).
    pub name: String,
    /// The service version under test (S1 = Ωid, S2 = Ωlc, S3 = Ωl).
    pub algorithm: ElectorKind,
    /// Number of workstations (and of candidate application processes).
    pub nodes: usize,
    /// Behaviour of every directed link.
    pub link: LinkSpec,
    /// Optional link-crash overlay (Figure 7).
    pub link_crashes: Option<LinkCrashSpec>,
    /// Workstation crash/recovery behaviour (None disables crashes).
    pub workstation_crashes: Option<CrashProfile>,
    /// QoS of the underlying failure detector.
    pub qos: QosSpec,
    /// Measured experiment duration (after the warm-up).
    pub duration: SimDuration,
    /// Warm-up excluded from all metrics.
    pub warmup: SimDuration,
    /// Experiment seed (controls everything stochastic).
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's default workload: 12 workstations, each
    /// crashing every 10 minutes on average, FD QoS (1 s, 100 days,
    /// 0.99999988), over the given lossy link behaviour.
    pub fn paper_default(name: impl Into<String>, algorithm: ElectorKind, link: LinkSpec) -> Self {
        Scenario {
            name: name.into(),
            algorithm,
            nodes: 12,
            link,
            link_crashes: None,
            workstation_crashes: Some(CrashProfile::paper_default()),
            qos: QosSpec::paper_default(),
            duration: SimDuration::from_secs(3600),
            warmup: SimDuration::from_secs(30),
            seed: 0xD5E2_2008,
        }
    }

    /// Overrides the number of workstations.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the measured duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a link-crash overlay.
    pub fn with_link_crashes(mut self, spec: LinkCrashSpec) -> Self {
        self.link_crashes = Some(spec);
        self
    }

    /// Disables workstation crashes.
    pub fn without_workstation_crashes(mut self) -> Self {
        self.workstation_crashes = None;
        self
    }

    /// Overrides the failure-detector QoS.
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Runs the scenario to completion and returns its metrics.
    pub fn run(&self) -> ExperimentMetrics {
        let n = self.nodes;
        let algorithm = self.algorithm;
        let qos = self.qos;
        let mut network = NetworkModel::new(self.link);
        if let Some(spec) = self.link_crashes {
            network = network.with_link_crashes(spec);
        }
        let medium = network.build(self.seed.wrapping_add(1));

        let mut world: World<ServiceNode, _> = World::new(
            n,
            Box::new(move |node, _incarnation| {
                let config = ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(EXPERIMENT_GROUP, JoinConfig::candidate().with_qos(qos));
                ServiceNode::new(config)
            }),
            medium,
            self.seed,
        );

        let total = self.warmup + self.duration;
        if let Some(profile) = self.workstation_crashes {
            let plan = CrashPlan::generate(n, total, profile, self.seed.wrapping_add(2));
            plan.install(&mut world);
        }

        let measure_from = SimInstant::ZERO + self.warmup;
        let mut collector = MetricsCollector::new(EXPERIMENT_GROUP, n, measure_from);
        world.run_until(SimInstant::ZERO + total, &mut collector);
        collector.finish(SimInstant::ZERO + total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke test of the full experiment pipeline: a quiet network
    /// with no crashes must give perfect availability and no mistakes.
    #[test]
    fn quiet_network_has_a_stable_leader() {
        let metrics = Scenario::paper_default("smoke", ElectorKind::OmegaLc, LinkSpec::lan())
            .with_nodes(4)
            .without_workstation_crashes()
            .with_duration(SimDuration::from_secs(120))
            .run();
        assert_eq!(metrics.unjustified_demotions, 0);
        assert!(
            metrics.leader_availability > 0.999,
            "availability {}",
            metrics.leader_availability
        );
        assert!(metrics.kbytes_per_sec_per_node > 0.0);
        assert_eq!(metrics.leader_crashes, 0);
    }

    /// Crashing workstations produce leader crashes, recoveries within a few
    /// seconds, and (for the stable algorithms) no unjustified demotions.
    #[test]
    fn crashing_workstations_are_recovered_from() {
        let metrics = Scenario::paper_default("crashes", ElectorKind::OmegaL, LinkSpec::lan())
            .with_nodes(6)
            .with_duration(SimDuration::from_secs(1800))
            .with_seed(77)
            .run();
        assert!(
            metrics.leader_crashes > 0,
            "expected at least one leader crash"
        );
        assert!(metrics.recovery.count > 0);
        assert!(
            metrics.recovery.mean < 3.0,
            "recovery too slow: {}s",
            metrics.recovery.mean
        );
        assert!(metrics.leader_availability > 0.95);
    }

    #[test]
    fn builders_compose() {
        let scenario = Scenario::paper_default("x", ElectorKind::OmegaId, LinkSpec::perfect())
            .with_nodes(5)
            .with_seed(3)
            .with_duration(SimDuration::from_secs(10))
            .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60))
            .with_qos(QosSpec::paper_default_with_detection(
                SimDuration::from_millis(500),
            ))
            .without_workstation_crashes();
        assert_eq!(scenario.nodes, 5);
        assert_eq!(scenario.seed, 3);
        assert!(scenario.link_crashes.is_some());
        assert!(scenario.workstation_crashes.is_none());
        assert_eq!(scenario.qos.detection_time(), SimDuration::from_millis(500));
    }
}
