//! Drifting-link network models.
//!
//! The DSN 2008 evaluation keeps each link's `(D, p_L)` fixed for a whole
//! run; real wide-area links drift between regimes (congestion episodes, path
//! changes, recovery). A [`DriftSchedule`] describes a piecewise-constant
//! timeline of [`LinkSpec`]s applied to every directed link, and
//! [`DriftingNetwork`] implements the simulator's [`Medium`] over it — the
//! workload under which static per-join failure-detector configuration is
//! visibly suboptimal and `sle-fd`'s adaptive tuning policy earns its keep.

use sle_sim::actor::NodeId;
use sle_sim::medium::{Fate, Medium, Verdict};
use sle_sim::rng::SimRng;
use sle_sim::time::SimInstant;
use sle_sim::timeline::Timeline;

use crate::link::LinkSpec;
use crate::network::NetworkStats;

/// A piecewise-constant timeline of link behaviour.
///
/// ```
/// use sle_net::drift::DriftSchedule;
/// use sle_net::link::LinkSpec;
/// use sle_sim::time::SimInstant;
///
/// // A congested start that clears up after 30 s.
/// let schedule = DriftSchedule::new(LinkSpec::from_paper_tuple(40.0, 0.02))
///     .then_at(SimInstant::from_secs_f64(30.0), LinkSpec::lan());
/// assert_eq!(schedule.spec_at(SimInstant::ZERO).loss_probability(), 0.02);
/// assert_eq!(schedule.spec_at(SimInstant::from_secs_f64(31.0)), LinkSpec::lan());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    phases: Timeline<LinkSpec>,
}

impl DriftSchedule {
    /// A schedule that starts (at time zero) with `initial`.
    pub fn new(initial: LinkSpec) -> Self {
        DriftSchedule {
            phases: Timeline::new(initial),
        }
    }

    /// Switches every link to `spec` from `at` onwards.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not later than the previous phase boundary.
    pub fn then_at(mut self, at: SimInstant, spec: LinkSpec) -> Self {
        self.phases = self.phases.then_at(at, spec);
        self
    }

    /// The phases of the schedule, in time order.
    pub fn phases(&self) -> &[(SimInstant, LinkSpec)] {
        self.phases.phases()
    }

    /// The link behaviour in force at `now`.
    pub fn spec_at(&self, now: SimInstant) -> LinkSpec {
        self.phases.at(now)
    }

    /// Instantiates the [`Medium`] for this schedule.
    pub fn build(self) -> DriftingNetwork {
        DriftingNetwork {
            schedule: self,
            stats: NetworkStats::default(),
        }
    }
}

/// A full mesh whose every directed link follows a [`DriftSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct DriftingNetwork {
    schedule: DriftSchedule,
    stats: NetworkStats,
}

impl DriftingNetwork {
    /// The schedule this network was built from.
    pub fn schedule(&self) -> &DriftSchedule {
        &self.schedule
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

impl Medium for DriftingNetwork {
    fn transmit(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Verdict {
        self.transmit_fate(now, from, to, wire_bytes, rng).into()
    }

    fn transmit_fate(
        &mut self,
        now: SimInstant,
        _from: NodeId,
        _to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Fate {
        self.stats.offered += 1;
        let fate = self.schedule.spec_at(now).sample_fate(rng);
        self.stats.record_fate(fate, wire_bytes);
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    #[test]
    fn overlay_specs_keep_duplicating_through_the_drift_medium() {
        let mut net = DriftSchedule::new(
            LinkSpec::lossy(SimDuration::from_millis(1), 0.0).with_duplication(1.0),
        )
        .build();
        let mut rng = SimRng::seed_from(21);
        let fate = net.transmit_fate(SimInstant::ZERO, NodeId(0), NodeId(1), 50, &mut rng);
        assert_eq!(fate.copies(), 2, "duplication overlay must survive drift");
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().delivered_bytes, 100);
        // The single-delivery view collapses to the first copy.
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 50, &mut rng)
            .is_delivered());
    }

    #[test]
    fn schedule_reports_the_active_phase() {
        let harsh = LinkSpec::from_paper_tuple(100.0, 0.1);
        let schedule =
            DriftSchedule::new(harsh).then_at(SimInstant::from_secs_f64(60.0), LinkSpec::lan());
        assert_eq!(schedule.phases().len(), 2);
        assert_eq!(schedule.spec_at(SimInstant::ZERO), harsh);
        assert_eq!(schedule.spec_at(SimInstant::from_secs_f64(59.999)), harsh);
        assert_eq!(
            schedule.spec_at(SimInstant::from_secs_f64(60.0)),
            LinkSpec::lan()
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_phases_panic() {
        let _ = DriftSchedule::new(LinkSpec::perfect())
            .then_at(SimInstant::from_secs_f64(10.0), LinkSpec::lan())
            .then_at(SimInstant::from_secs_f64(5.0), LinkSpec::perfect());
    }

    #[test]
    fn drifting_network_changes_loss_behaviour_mid_run() {
        // Phase 1 loses everything, phase 2 nothing.
        let mut net = DriftSchedule::new(LinkSpec::lossy(SimDuration::ZERO, 1.0))
            .then_at(SimInstant::from_secs_f64(10.0), LinkSpec::perfect())
            .build();
        let mut rng = SimRng::seed_from(3);
        for i in 0..100u64 {
            let verdict = net.transmit(
                SimInstant::ZERO + SimDuration::from_millis(i),
                NodeId(0),
                NodeId(1),
                10,
                &mut rng,
            );
            assert_eq!(verdict, Verdict::Dropped);
        }
        for i in 0..100u64 {
            let verdict = net.transmit(
                SimInstant::from_secs_f64(10.0) + SimDuration::from_millis(i),
                NodeId(0),
                NodeId(1),
                10,
                &mut rng,
            );
            assert!(verdict.is_delivered());
        }
        let stats = net.stats();
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.lost, 100);
        assert_eq!(stats.delivered, 100);
    }

    #[test]
    fn drifting_network_changes_delay_mid_run() {
        let mut net = DriftSchedule::new(LinkSpec::lossy(SimDuration::from_millis(100), 0.0))
            .then_at(
                SimInstant::from_secs_f64(5.0),
                LinkSpec::lossy(SimDuration::from_millis(1), 0.0),
            )
            .build();
        let mut rng = SimRng::seed_from(4);
        let sample_mean = |net: &mut DriftingNetwork, rng: &mut SimRng, at: SimInstant| {
            let n = 5_000;
            let total: f64 = (0..n)
                .map(|_| match net.transmit(at, NodeId(0), NodeId(1), 1, rng) {
                    Verdict::Deliver { delay } => delay.as_secs_f64(),
                    Verdict::Dropped => 0.0,
                })
                .sum();
            total / n as f64
        };
        let before = sample_mean(&mut net, &mut rng, SimInstant::ZERO);
        let after = sample_mean(&mut net, &mut rng, SimInstant::from_secs_f64(6.0));
        assert!((before - 0.1).abs() < 0.01, "before {before}");
        assert!((after - 0.001).abs() < 0.0005, "after {after}");
    }
}
