//! The event trace a chaos run leaves behind.
//!
//! A [`TraceRecorder`] is a simulator [`Observer`] that timestamps
//! everything the invariant checker needs: each node's announced leader
//! view, crashes and recoveries, and — appended by the chaos engine itself,
//! which is the only party that knows — voluntary membership churn and
//! topology changes (partitions, heals, link overlays). The result is a
//! single chronological `Vec<TraceEvent>` the checker replays after the
//! run.

use sle_core::{GroupId, ProcessId, ServiceEvent};
use sle_obs::{ProtoEvent, TraceRing};
use sle_sim::actor::NodeId;
use sle_sim::observer::Observer;
use sle_sim::time::SimInstant;

/// One observable event of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A node announced a (possibly empty) leader view for the group.
    View {
        /// The announcing node.
        node: NodeId,
        /// Its new leader view.
        leader: Option<ProcessId>,
    },
    /// A workstation crashed.
    Crashed {
        /// The crashed node.
        node: NodeId,
    },
    /// A workstation recovered (and auto-rejoins the group).
    Recovered {
        /// The recovered node.
        node: NodeId,
    },
    /// Every local process of this workstation voluntarily left the group.
    Left {
        /// The departing node.
        node: NodeId,
    },
    /// The workstation (re)joined the group with a fresh candidate process.
    Joined {
        /// The joining node.
        node: NodeId,
    },
    /// The network was partitioned into these components.
    Partitioned {
        /// The components; nodes listed in none are isolated.
        components: Vec<Vec<NodeId>>,
    },
    /// The partition was healed.
    Healed,
    /// The behaviour of the links changed (overlay applied or removed).
    LinkChanged,
}

/// A trace event bound to the instant it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened (virtual time).
    pub at: SimInstant,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Records the chronological event trace of one chaos run.
#[derive(Debug)]
pub struct TraceRecorder {
    group: GroupId,
    events: Vec<TraceEvent>,
    /// Crash/recovery marks are mirrored into this protocol event ring, so
    /// a drained `sle-obs` trace is as complete as what the real-time
    /// runtime produces (whose `Cluster::crash`/`recover` push the same
    /// events) and passes the invariant checker after conversion.
    proto_mirror: TraceRing,
}

impl TraceRecorder {
    /// A recorder for leader views of `group` that mirrors crash/recovery
    /// marks into `proto_mirror`.
    pub fn new(group: GroupId, proto_mirror: TraceRing) -> Self {
        TraceRecorder {
            group,
            events: Vec::new(),
            proto_mirror,
        }
    }

    /// Appends an engine-side event (churn, topology) to the trace.
    pub fn mark(&mut self, at: SimInstant, kind: TraceEventKind) {
        self.events.push(TraceEvent { at, kind });
    }

    /// The trace so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the full trace.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Observer<ServiceEvent> for TraceRecorder {
    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        self.mark(now, TraceEventKind::Crashed { node });
        self.proto_mirror.push(node, now, ProtoEvent::Crashed);
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, _incarnation: u64) {
        self.mark(now, TraceEventKind::Recovered { node });
        self.proto_mirror.push(node, now, ProtoEvent::Recovered);
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = event;
        if *group == self.group {
            self.mark(
                now,
                TraceEventKind::View {
                    node,
                    leader: *leader,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_filters_foreign_groups_and_orders_events() {
        let ring = TraceRing::new(8);
        let mut recorder = TraceRecorder::new(GroupId(1), ring.clone());
        let t = SimInstant::from_secs_f64(1.0);
        recorder.event_emitted(
            t,
            NodeId(0),
            &ServiceEvent::LeaderChanged {
                group: GroupId(1),
                leader: Some(ProcessId::new(NodeId(0), 0)),
            },
        );
        recorder.event_emitted(
            t,
            NodeId(0),
            &ServiceEvent::LeaderChanged {
                group: GroupId(2),
                leader: None,
            },
        );
        recorder.node_crashed(SimInstant::from_secs_f64(2.0), NodeId(1));
        recorder.node_recovered(SimInstant::from_secs_f64(3.0), NodeId(1), 1);
        recorder.mark(SimInstant::from_secs_f64(4.0), TraceEventKind::Healed);
        let events = recorder.into_events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0].kind, TraceEventKind::View { .. }));
        assert!(matches!(
            events[1].kind,
            TraceEventKind::Crashed { node: NodeId(1) }
        ));
        assert!(matches!(
            events[2].kind,
            TraceEventKind::Recovered { node: NodeId(1) }
        ));
        assert_eq!(events[3].kind, TraceEventKind::Healed);
        // Only the crash and the recovery reach the protocol ring.
        let drain = ring.drain();
        assert_eq!(drain.dropped, 0);
        let mirrored: Vec<_> = drain.events.iter().map(|r| (r.node, r.event)).collect();
        assert_eq!(
            mirrored,
            [
                (NodeId(1), ProtoEvent::Crashed),
                (NodeId(1), ProtoEvent::Recovered)
            ]
        );
    }
}
