//! Service and group configuration.

use sle_election::ElectorKind;
use sle_fd::{QosSpec, TuningPolicy};
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

use crate::process::GroupId;

/// Per-join parameters: what a process specifies when joining a group
/// (paper Section 4), extended with the tuning policy of its failure
/// detection. Both of the paper's notification styles are always available:
/// every leader change raises a [`ServiceEvent`](crate::events::ServiceEvent),
/// and [`ServiceNode::leader_of`](crate::node::ServiceNode::leader_of) answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Whether the joining process is a candidate for the group leadership.
    pub candidate: bool,
    /// The QoS of the failure detection underlying this group's election.
    pub qos: QosSpec,
    /// Whether η + δ may tighten below `T_D^U` when the measured link
    /// allows it ([`TuningPolicy::Static`], the default, reproduces the
    /// paper's configuration: η + δ pinned to `T_D^U`).
    pub tuning: TuningPolicy,
}

impl JoinConfig {
    /// A candidate joining with the paper's default QoS and static
    /// (paper-faithful) tuning.
    pub fn candidate() -> Self {
        JoinConfig {
            candidate: true,
            qos: QosSpec::paper_default(),
            tuning: TuningPolicy::Static,
        }
    }

    /// A non-candidate (passive listener) joining with the paper's default
    /// QoS.
    pub fn listener() -> Self {
        JoinConfig {
            candidate: false,
            qos: QosSpec::paper_default(),
            tuning: TuningPolicy::Static,
        }
    }

    /// Replaces the QoS specification.
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Replaces the tuning policy.
    pub fn with_tuning(mut self, tuning: TuningPolicy) -> Self {
        self.tuning = tuning;
        self
    }

    /// Enables adaptive tuning.
    pub fn with_adaptive_tuning(self) -> Self {
        self.with_tuning(TuningPolicy::adaptive())
    }
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig::candidate()
    }
}

/// A group membership to establish automatically when the service instance
/// starts (and re-establish after every recovery) — this is how the
/// experiments model application processes that immediately re-register and
/// re-join after their workstation restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoJoin {
    /// The group to join.
    pub group: GroupId,
    /// The join parameters.
    pub config: JoinConfig,
}

/// Configuration of one service instance (one per workstation).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// This workstation's identity.
    pub node: NodeId,
    /// All workstations participating in the service (the static peer list a
    /// deployment is configured with; groups are dynamic subsets of the
    /// processes running on these workstations).
    pub peers: Vec<NodeId>,
    /// The leader-election algorithm to run (the "version" of the service:
    /// S1, S2 or S3).
    pub algorithm: ElectorKind,
    /// How often HELLO membership announcements are sent.
    pub hello_interval: SimDuration,
    /// How long a member may stay silent (no HELLO) before it is dropped
    /// from the membership.
    pub membership_timeout: SimDuration,
    /// Group memberships established automatically at start-up.
    pub auto_joins: Vec<AutoJoin>,
}

impl ServiceConfig {
    /// Creates a configuration for `node` in a system of `peers`
    /// workstations, running `algorithm`.
    pub fn new(node: NodeId, peers: Vec<NodeId>, algorithm: ElectorKind) -> Self {
        ServiceConfig {
            node,
            peers,
            algorithm,
            hello_interval: SimDuration::from_millis(1000),
            membership_timeout: SimDuration::from_secs(5),
            auto_joins: Vec::new(),
        }
    }

    /// Convenience constructor for a full mesh of `n` workstations numbered
    /// `0..n`, as used by all the paper's experiments.
    pub fn full_mesh(node: NodeId, n: usize, algorithm: ElectorKind) -> Self {
        let peers = (0..n as u32).map(NodeId).collect();
        Self::new(node, peers, algorithm)
    }

    /// Adds an automatic group join performed at every (re)start.
    pub fn with_auto_join(mut self, group: GroupId, config: JoinConfig) -> Self {
        self.auto_joins.push(AutoJoin { group, config });
        self
    }

    /// Overrides the HELLO interval.
    pub fn with_hello_interval(mut self, interval: SimDuration) -> Self {
        self.hello_interval = interval;
        self
    }

    /// The peers other than this node.
    pub fn remote_peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.node;
        self.peers.iter().copied().filter(move |&p| p != me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_config_builders() {
        let c = JoinConfig::candidate();
        assert!(c.candidate);
        assert_eq!(c.tuning, TuningPolicy::Static);
        assert_eq!(
            JoinConfig::candidate().with_adaptive_tuning().tuning,
            TuningPolicy::Adaptive
        );
        assert!(!JoinConfig::listener().candidate);
        let q = QosSpec::paper_default_with_detection(SimDuration::from_millis(100));
        assert_eq!(JoinConfig::candidate().with_qos(q).qos, q);
        assert_eq!(JoinConfig::default(), JoinConfig::candidate());
    }

    #[test]
    fn full_mesh_lists_all_peers() {
        let config = ServiceConfig::full_mesh(NodeId(2), 4, ElectorKind::OmegaL);
        assert_eq!(config.peers.len(), 4);
        let remotes: Vec<NodeId> = config.remote_peers().collect();
        assert_eq!(remotes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(config.algorithm, ElectorKind::OmegaL);
    }

    #[test]
    fn auto_join_and_hello_interval_builders() {
        let config = ServiceConfig::full_mesh(NodeId(0), 3, ElectorKind::OmegaLc)
            .with_auto_join(GroupId(1), JoinConfig::candidate())
            .with_hello_interval(SimDuration::from_millis(500));
        assert_eq!(config.auto_joins.len(), 1);
        assert_eq!(config.auto_joins[0].group, GroupId(1));
        assert_eq!(config.hello_interval, SimDuration::from_millis(500));
    }
}
