//! The run description: everything a simulated deployment of the service
//! needs, from one cell of one figure of the paper's evaluation to one seed
//! of a chaos sweep. The [`engine`](crate::engine) runs it
//! ([`run_plan`](crate::run_plan)).

use sle_core::GroupId;
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

use crate::crash::CrashProfile;

/// The group used by all experiments.
pub const EXPERIMENT_GROUP: GroupId = GroupId(1);

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The service version under test (S1 = Ωid, S2 = Ωlc, S3 = Ωl).
    pub algorithm: ElectorKind,
    /// Number of workstations (all join the group as candidates).
    pub nodes: usize,
    /// Behaviour of every directed link.
    pub link: LinkSpec,
    /// Optional link-crash overlay (Figure 7).
    pub link_crashes: Option<LinkCrashSpec>,
    /// Workstation crash/recovery behaviour (None disables crashes).
    pub workstation_crashes: Option<CrashProfile>,
    /// QoS of the underlying failure detector.
    pub qos: QosSpec,
    /// The workstations that join under `TuningPolicy::Adaptive`; the rest
    /// keep the paper's static configuration. Empty by default.
    pub adaptive: Vec<NodeId>,
    /// Measured experiment duration (after the warm-up); fault plans land
    /// within it.
    pub duration: SimDuration,
    /// Warm-up excluded from all metrics.
    pub warmup: SimDuration,
    /// The invariant checker's settle window. The run goes on for a quiet
    /// tail of two settle windows after the measured duration, so the final
    /// eventual-agreement check has room.
    pub settle: SimDuration,
    /// Experiment seed (controls everything stochastic).
    pub seed: u64,
}

impl Scenario {
    /// The chaos-sweep workload: `nodes` workstations on a mildly lossy
    /// 10 ms network with the paper's QoS, no warm-up, no workstation
    /// crashes, a 45 s fault window and a 10 s settle window.
    pub fn new(algorithm: ElectorKind, nodes: usize) -> Self {
        Scenario {
            algorithm,
            nodes,
            link: LinkSpec::from_paper_tuple(10.0, 0.01),
            link_crashes: None,
            workstation_crashes: None,
            qos: QosSpec::paper_default(),
            adaptive: Vec::new(),
            duration: SimDuration::from_secs(45),
            warmup: SimDuration::ZERO,
            settle: SimDuration::from_secs(10),
            seed: 0xC4A0_5EED,
        }
    }

    /// The paper's default workload: 12 workstations, each crashing every
    /// 10 minutes on average, FD QoS (1 s, 100 days, 0.99999988), over the
    /// given lossy link behaviour, measured for an hour after a 30 s
    /// warm-up.
    pub fn paper_default(algorithm: ElectorKind, link: LinkSpec) -> Self {
        Scenario {
            link,
            workstation_crashes: Some(CrashProfile::paper_default()),
            duration: SimDuration::from_secs(3600),
            warmup: SimDuration::from_secs(30),
            seed: 0xD5E2_2008,
            ..Scenario::new(algorithm, 12)
        }
    }

    /// Overrides the number of workstations.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the baseline link behaviour.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Overrides the measured duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the settle window.
    pub fn with_settle(mut self, settle: SimDuration) -> Self {
        self.settle = settle;
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

    /// Lets `nodes` join under adaptive failure-detector tuning.
    pub fn with_adaptive(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.adaptive = nodes.into_iter().collect();
        self
    }

    /// End of the measured window: the warm-up plus the measured duration.
    pub fn horizon(&self) -> SimInstant {
        SimInstant::ZERO + self.warmup + self.duration
    }

    /// End of the run: the measured window plus a quiet tail of two settle
    /// windows.
    pub fn end(&self) -> SimInstant {
        self.horizon() + self.settle + self.settle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let scenario = Scenario::paper_default(ElectorKind::OmegaId, LinkSpec::perfect())
            .with_nodes(5)
            .with_seed(3)
            .with_duration(SimDuration::from_secs(10))
            .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60))
            .with_qos(QosSpec::paper_default_with_detection(
                SimDuration::from_millis(500),
            ))
            .without_workstation_crashes()
            .with_adaptive([NodeId(1), NodeId(3)]);
        assert_eq!(scenario.nodes, 5);
        assert_eq!(scenario.adaptive, [NodeId(1), NodeId(3)]);
        assert_eq!(scenario.seed, 3);
        assert!(scenario.link_crashes.is_some());
        assert!(scenario.workstation_crashes.is_none());
        assert_eq!(scenario.qos.detection_time(), SimDuration::from_millis(500));
        // 30 s warm-up + 10 s measured, then two 10 s settle windows.
        assert_eq!(scenario.horizon(), SimInstant::from_secs_f64(40.0));
        assert_eq!(scenario.end(), SimInstant::from_secs_f64(60.0));
    }
}
