//! Piecewise-constant timelines of simulation parameters.
//!
//! Some models need "value X until time t, then value Y": stepped delivery
//! delays ([`SteppedDelayMedium`](crate::medium::SteppedDelayMedium)),
//! scheduled workload phases. A [`Timeline`] is that shape, shared so every
//! model uses the same builder rules (strictly increasing phase starts,
//! first phase at time zero) and the same lookup semantics.

use crate::time::SimInstant;

/// A piecewise-constant function of simulation time.
///
/// ```
/// use sle_sim::time::SimInstant;
/// use sle_sim::timeline::Timeline;
///
/// let speed = Timeline::new(10)
///     .then_at(SimInstant::from_secs_f64(5.0), 100);
/// assert_eq!(speed.at(SimInstant::ZERO), 10);
/// assert_eq!(speed.at(SimInstant::from_secs_f64(7.0)), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline<T> {
    /// `(effective from, value)` pairs, sorted by time; the first entry
    /// starts at time zero.
    phases: Vec<(SimInstant, T)>,
}

impl<T: Copy> Timeline<T> {
    /// A timeline that holds `initial` from time zero.
    pub fn new(initial: T) -> Self {
        Timeline {
            phases: vec![(SimInstant::ZERO, initial)],
        }
    }

    /// Switches to `value` from `at` onwards.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not later than the previous phase start.
    pub fn then_at(mut self, at: SimInstant, value: T) -> Self {
        let last = self.phases.last().expect("phases are never empty").0;
        assert!(
            at > last,
            "timeline phases must be strictly increasing in time"
        );
        self.phases.push((at, value));
        self
    }

    /// The phases of the timeline, in time order.
    pub fn phases(&self) -> &[(SimInstant, T)] {
        &self.phases
    }

    /// The value in force at `now`.
    pub fn at(&self, now: SimInstant) -> T {
        self.phases
            .iter()
            .rev()
            .find(|(from, _)| *from <= now)
            .map(|(_, value)| *value)
            .expect("the first phase starts at time zero")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_phase_holds_forever() {
        let t = Timeline::new("a");
        assert_eq!(t.at(SimInstant::ZERO), "a");
        assert_eq!(t.at(SimInstant::FAR_FUTURE), "a");
        assert_eq!(t.phases().len(), 1);
    }

    #[test]
    fn lookup_uses_the_latest_started_phase() {
        let t = Timeline::new(1)
            .then_at(SimInstant::from_secs_f64(1.0), 2)
            .then_at(SimInstant::from_secs_f64(2.0), 3);
        assert_eq!(t.at(SimInstant::from_secs_f64(0.999)), 1);
        assert_eq!(t.at(SimInstant::from_secs_f64(1.0)), 2);
        assert_eq!(t.at(SimInstant::from_secs_f64(1.999)), 2);
        assert_eq!(t.at(SimInstant::from_secs_f64(5.0)), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_phases_panic() {
        let _ = Timeline::new(0)
            .then_at(SimInstant::from_secs_f64(2.0), 1)
            .then_at(SimInstant::from_secs_f64(1.0), 2);
    }
}
