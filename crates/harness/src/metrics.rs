//! The leader-election QoS metrics of the paper's Section 5, plus the
//! bandwidth accounting of Section 6.5, implemented as a simulator
//! [`Observer`].
//!
//! * **Average leader recovery time** `T_r` — time from the crash of the
//!   (commonly agreed) leader to the next instant at which all alive group
//!   members agree on an alive leader.
//! * **Average mistake rate** `λ_u` — unjustified demotions per hour: a new
//!   leader becomes commonly agreed while the previous commonly agreed
//!   leader is still alive.
//! * **Leader availability** `P_leader` — fraction of time at which some
//!   alive process is considered leader by every alive group member.
//! * **Bandwidth** — exact message and byte counts, plus the per-packet
//!   framing a real deployment pays. The paper's CPU figure is not
//!   reproduced: a simulator has no CPU time to report, and the service's
//!   measured CPU cost is `benchmark/`'s `cpu_us_per_node_s`.
//!
//! A node that has not announced any leader view since it (re)started is
//! treated as still joining and does not take part in the agreement — this
//! matches the paper's measurements, in which the continual crash/recovery
//! churn of *non-leader* workstations affects neither λ_u nor P_leader.

use sle_core::{GroupId, ProcessId, ServiceEvent};
use sle_sim::actor::NodeId;
use sle_sim::observer::Observer;
use sle_sim::time::{SimDuration, SimInstant};

use crate::stats::Summary;

/// Per-packet framing overhead added to every message (Ethernet + IP + UDP
/// headers), as a real deployment pays on the wire.
const OVERHEAD_BYTES: u64 = 54;

/// The observer that computes every metric of the evaluation while an
/// experiment runs.
#[derive(Debug)]
pub struct MetricsCollector {
    group: GroupId,
    /// Metrics are only accumulated after this instant (warm-up exclusion).
    measure_from: SimInstant,

    traffic: TrafficMeter,
    node_up: Vec<bool>,
    views: Vec<Option<ProcessId>>,

    /// `Some(instant)` while a commonly agreed alive leader exists.
    agreement_since: Option<SimInstant>,
    /// The leader of the current agreement, if any.
    current_agreement: Option<ProcessId>,
    /// The leader of the most recent agreement (kept across gaps).
    last_agreed_leader: Option<ProcessId>,
    /// Whether the last agreed leader was still alive when agreement ended.
    last_leader_alive_at_loss: bool,
    agreed_time: SimDuration,
    measured_since: SimInstant,

    recovery_started: Option<SimInstant>,
    recovery_samples: Vec<f64>,
    unjustified_demotions: u64,
    leader_crashes: u64,
}

impl MetricsCollector {
    /// Creates a collector for `group` over `nodes` workstations; metrics are
    /// accumulated starting at `measure_from`.
    pub fn new(group: GroupId, nodes: usize, measure_from: SimInstant) -> Self {
        MetricsCollector {
            group,
            measure_from,
            traffic: TrafficMeter::new(measure_from, SimInstant::FAR_FUTURE),
            node_up: vec![true; nodes],
            views: vec![None; nodes],
            agreement_since: None,
            current_agreement: None,
            last_agreed_leader: None,
            last_leader_alive_at_loss: false,
            agreed_time: SimDuration::ZERO,
            measured_since: measure_from,
            recovery_started: None,
            recovery_samples: Vec::new(),
            unjustified_demotions: 0,
            leader_crashes: 0,
        }
    }

    fn in_measurement(&self, now: SimInstant) -> bool {
        now >= self.measure_from
    }

    /// Adds traffic counted elsewhere — by the per-shard meters of a
    /// sharded run, say — to what this collector observed itself.
    pub fn add_traffic(&mut self, meter: &TrafficMeter) {
        self.traffic.packets += meter.packets;
        self.traffic.bytes += meter.bytes;
    }

    /// The group currently has a commonly agreed, alive leader iff every
    /// alive node *that has announced a view* reports the same leader, at
    /// least one such node exists, and the leader's own node is alive.
    fn compute_agreement(&self) -> Option<ProcessId> {
        let mut agreed: Option<ProcessId> = None;
        let mut participants = 0usize;
        for (index, up) in self.node_up.iter().enumerate() {
            if !up {
                continue;
            }
            let Some(view) = self.views[index] else {
                continue; // still (re)joining: not a participant yet
            };
            participants += 1;
            match agreed {
                None => agreed = Some(view),
                Some(current) if current == view => {}
                _ => return None,
            }
        }
        if participants == 0 {
            return None;
        }
        let leader = agreed?;
        if self
            .node_up
            .get(leader.node.index())
            .copied()
            .unwrap_or(false)
        {
            Some(leader)
        } else {
            None
        }
    }

    /// Re-evaluates the agreement state after any change, accumulating the
    /// time spent in the previous state and recording T_r samples and
    /// unjustified demotions.
    fn refresh(&mut self, now: SimInstant) {
        // Close the interval spent in the previous state.
        if let Some(since) = self.agreement_since {
            let from = since.max(self.measure_from);
            if now > from {
                self.agreed_time += now - from;
            }
        }

        let new_agreement = self.compute_agreement();
        if new_agreement == self.current_agreement {
            // Only the clock moved; restart the accumulation interval.
            if self.current_agreement.is_some() {
                self.agreement_since = Some(now);
            }
            return;
        }

        match (self.current_agreement, new_agreement) {
            (Some(old), None) => {
                self.last_leader_alive_at_loss =
                    self.node_up.get(old.node.index()).copied().unwrap_or(false);
                self.agreement_since = None;
            }
            (old_opt, Some(new)) => {
                // A (new) agreement formed.
                let previous = old_opt.or(self.last_agreed_leader);
                if let Some(previous) = previous {
                    if previous != new {
                        let previous_alive = match old_opt {
                            Some(old) => {
                                self.node_up.get(old.node.index()).copied().unwrap_or(false)
                            }
                            None => self.last_leader_alive_at_loss,
                        };
                        if previous_alive && self.in_measurement(now) {
                            self.unjustified_demotions += 1;
                        }
                    }
                }
                if let Some(started) = self.recovery_started.take() {
                    if self.in_measurement(now) {
                        self.recovery_samples
                            .push(now.saturating_since(started).as_secs_f64());
                    }
                }
                self.last_agreed_leader = Some(new);
                self.agreement_since = Some(now);
            }
            (None, None) => {
                self.agreement_since = None;
            }
        }
        self.current_agreement = new_agreement;
    }

    /// Produces the experiment report for an experiment that ended at `end`.
    pub fn finish(mut self, end: SimInstant) -> ExperimentMetrics {
        self.refresh(end);
        // `refresh` with an unchanged state restarted the interval at `end`,
        // so the accumulated time is complete.
        let elapsed = end.saturating_since(self.measured_since);
        let elapsed_secs = elapsed.as_secs_f64().max(1e-9);
        let elapsed_hours = elapsed_secs / 3600.0;

        let nodes = self.node_up.len().max(1) as f64;
        let total_bytes = (self.traffic.bytes + self.traffic.packets * OVERHEAD_BYTES) as f64;

        ExperimentMetrics {
            duration: elapsed,
            recovery: Summary::of(&self.recovery_samples),
            mistakes_per_hour: self.unjustified_demotions as f64 / elapsed_hours,
            leader_availability: (self.agreed_time.as_secs_f64() / elapsed_secs).min(1.0),
            kbytes_per_sec_per_node: total_bytes / nodes / elapsed_secs / 1024.0,
            leader_crashes: self.leader_crashes,
            unjustified_demotions: self.unjustified_demotions,
            recovery_samples: self.recovery_samples,
        }
    }
}

impl Observer<ServiceEvent> for MetricsCollector {
    fn message_sent(&mut self, now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.traffic.count_packet(now, bytes);
    }

    fn message_delivered(&mut self, now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.traffic.count_packet(now, bytes);
    }

    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        if let Some(up) = self.node_up.get_mut(node.index()) {
            *up = false;
        }
        if let Some(view) = self.views.get_mut(node.index()) {
            *view = None;
        }
        // If the commonly agreed leader just crashed, start the recovery
        // clock (T_r measures from the crash, not from its detection).
        if let Some(leader) = self.current_agreement {
            if leader.node == node {
                if self.in_measurement(now) {
                    self.leader_crashes += 1;
                }
                self.recovery_started = Some(now);
            }
        }
        self.refresh(now);
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, _incarnation: u64) {
        if let Some(up) = self.node_up.get_mut(node.index()) {
            *up = true;
        }
        if let Some(view) = self.views.get_mut(node.index()) {
            *view = None;
        }
        self.refresh(now);
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = event;
        if *group != self.group {
            return;
        }
        if let Some(view) = self.views.get_mut(node.index()) {
            *view = *leader;
        }
        self.refresh(now);
    }
}

/// Counts the bandwidth half of the metrics: messages sent plus messages
/// delivered, and their payload bytes (excluding the framing overhead),
/// over the instants `from..=until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMeter {
    from: SimInstant,
    until: SimInstant,
    packets: u64,
    bytes: u64,
}

impl TrafficMeter {
    /// A meter counting from `from` through `until`, both included.
    pub fn new(from: SimInstant, until: SimInstant) -> Self {
        TrafficMeter {
            from,
            until,
            packets: 0,
            bytes: 0,
        }
    }

    /// One message sent or delivered, of `bytes` payload bytes.
    fn count_packet(&mut self, now: SimInstant, bytes: usize) {
        if (self.from..=self.until).contains(&now) {
            self.packets += 1;
            self.bytes += bytes as u64;
        }
    }
}

impl<E> Observer<E> for TrafficMeter {
    fn message_sent(&mut self, now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.count_packet(now, bytes);
    }

    fn message_delivered(&mut self, now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.count_packet(now, bytes);
    }
}

/// The metrics produced by one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMetrics {
    /// Measured (post warm-up) duration.
    pub duration: SimDuration,
    /// Leader recovery time statistics (seconds).
    pub recovery: Summary,
    /// Unjustified demotions per hour (λ_u).
    pub mistakes_per_hour: f64,
    /// Fraction of time with a commonly agreed alive leader (P_leader).
    pub leader_availability: f64,
    /// Average network traffic per workstation (sent + received), in KB/s.
    pub kbytes_per_sec_per_node: f64,
    /// Number of crashes of the commonly agreed leader observed.
    pub leader_crashes: u64,
    /// Total unjustified demotions observed.
    pub unjustified_demotions: u64,
    /// Raw leader-recovery samples (seconds).
    pub recovery_samples: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUP: GroupId = GroupId(1);

    fn leader(node: u32) -> ProcessId {
        ProcessId::new(NodeId(node), 0)
    }

    fn set_view(
        collector: &mut MetricsCollector,
        node: u32,
        view: Option<ProcessId>,
        at_secs: f64,
    ) {
        let event = ServiceEvent::LeaderChanged {
            group: GROUP,
            leader: view,
        };
        collector.event_emitted(SimInstant::from_secs_f64(at_secs), NodeId(node), &event);
    }

    #[test]
    fn availability_requires_all_announced_views_to_agree() {
        let mut collector = MetricsCollector::new(GROUP, 2, SimInstant::ZERO);
        // The two nodes disagree until t=4: no commonly agreed leader.
        set_view(&mut collector, 0, Some(leader(0)), 0.0);
        set_view(&mut collector, 1, Some(leader(1)), 0.0);
        set_view(&mut collector, 1, Some(leader(0)), 4.0);
        let metrics = collector.finish(SimInstant::from_secs_f64(10.0));
        assert!((metrics.leader_availability - 0.6).abs() < 1e-9);
        assert_eq!(metrics.recovery.count, 0);
    }

    #[test]
    fn a_joining_node_without_a_view_does_not_break_agreement() {
        let mut collector = MetricsCollector::new(GROUP, 3, SimInstant::ZERO);
        set_view(&mut collector, 0, Some(leader(0)), 0.0);
        set_view(&mut collector, 1, Some(leader(0)), 0.0);
        // Node 2 never announces anything: it is treated as still joining.
        let metrics = collector.finish(SimInstant::from_secs_f64(10.0));
        assert!((metrics.leader_availability - 1.0).abs() < 1e-9);
        assert_eq!(metrics.unjustified_demotions, 0);
    }

    #[test]
    fn leader_crash_produces_a_recovery_sample_and_no_mistake() {
        let mut collector = MetricsCollector::new(GROUP, 2, SimInstant::ZERO);
        set_view(&mut collector, 0, Some(leader(0)), 0.0);
        set_view(&mut collector, 1, Some(leader(0)), 0.0);
        collector.node_crashed(SimInstant::from_secs_f64(5.0), NodeId(0));
        // Agreement on the new leader is reached at t=6.2s.
        set_view(&mut collector, 1, Some(leader(1)), 6.2);
        let metrics = collector.finish(SimInstant::from_secs_f64(10.0));
        assert_eq!(metrics.recovery.count, 1);
        assert!((metrics.recovery.mean - 1.2).abs() < 1e-9);
        assert_eq!(metrics.leader_crashes, 1);
        // A justified demotion: not a mistake.
        assert_eq!(metrics.unjustified_demotions, 0);
        // Availability: agreed during [0,5) and [6.2,10) = 8.8 of 10 seconds.
        assert!((metrics.leader_availability - 0.88).abs() < 1e-9);
    }

    #[test]
    fn demoting_an_alive_leader_counts_as_one_mistake() {
        let mut collector = MetricsCollector::new(GROUP, 2, SimInstant::ZERO);
        set_view(&mut collector, 0, Some(leader(1)), 0.0);
        set_view(&mut collector, 1, Some(leader(1)), 0.0);
        // Both switch to node 0 while node 1 is still alive (going through a
        // brief disagreement, as in a real run).
        set_view(&mut collector, 0, Some(leader(0)), 5.0);
        set_view(&mut collector, 1, Some(leader(0)), 5.5);
        let metrics = collector.finish(SimInstant::from_secs_f64(3600.0));
        assert_eq!(metrics.unjustified_demotions, 1);
        assert!((metrics.mistakes_per_hour - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_churn_of_followers_is_not_a_mistake() {
        let mut collector = MetricsCollector::new(GROUP, 3, SimInstant::ZERO);
        for node in 0..3 {
            set_view(&mut collector, node, Some(leader(0)), 0.0);
        }
        // A follower crashes and recovers; after recovery it first has no
        // view, then re-learns the same leader. No mistake, no gap.
        collector.node_crashed(SimInstant::from_secs_f64(10.0), NodeId(2));
        collector.node_recovered(SimInstant::from_secs_f64(15.0), NodeId(2), 1);
        set_view(&mut collector, 2, Some(leader(0)), 15.4);
        let metrics = collector.finish(SimInstant::from_secs_f64(20.0));
        assert_eq!(metrics.unjustified_demotions, 0);
        assert!((metrics.leader_availability - 1.0).abs() < 1e-9);
        assert_eq!(metrics.recovery.count, 0);
    }

    #[test]
    fn warmup_period_is_excluded() {
        let measure_from = SimInstant::from_secs_f64(100.0);
        let mut collector = MetricsCollector::new(GROUP, 2, measure_from);
        set_view(&mut collector, 0, Some(leader(0)), 0.0);
        set_view(&mut collector, 1, Some(leader(0)), 0.0);
        // A demotion during warm-up is not counted.
        set_view(&mut collector, 0, Some(leader(1)), 50.0);
        set_view(&mut collector, 1, Some(leader(1)), 50.0);
        let metrics = collector.finish(SimInstant::from_secs_f64(200.0));
        assert_eq!(metrics.unjustified_demotions, 0);
        // Agreed the whole measured window.
        assert!((metrics.leader_availability - 1.0).abs() < 1e-9);
        assert_eq!(metrics.duration, SimDuration::from_secs(100));
    }

    #[test]
    fn traffic_accounting() {
        let mut collector = MetricsCollector::new(GROUP, 2, SimInstant::ZERO);
        let t = SimInstant::from_secs_f64(1.0);
        // 10 messages of 100 bytes from node 0 to node 1.
        for _ in 0..10 {
            collector.message_sent(t, NodeId(0), NodeId(1), 100);
            collector.message_delivered(t, NodeId(0), NodeId(1), 100);
        }
        let metrics = collector.finish(SimInstant::from_secs_f64(10.0));
        // Total bytes: 10*(100+54) sent + same received = 3080 over 2 nodes
        // over 10 s => 154 B/s per node.
        assert!((metrics.kbytes_per_sec_per_node - 154.0 / 1024.0).abs() < 1e-6);
    }

    #[test]
    fn dead_leader_view_is_not_an_agreement() {
        let mut collector = MetricsCollector::new(GROUP, 2, SimInstant::ZERO);
        set_view(&mut collector, 0, Some(leader(0)), 0.0);
        set_view(&mut collector, 1, Some(leader(0)), 0.0);
        collector.node_crashed(SimInstant::from_secs_f64(2.0), NodeId(0));
        // Node 1 still believes node 0 leads, but node 0 is dead: no leader.
        let metrics = collector.finish(SimInstant::from_secs_f64(4.0));
        assert!((metrics.leader_availability - 0.5).abs() < 1e-9);
    }
}
