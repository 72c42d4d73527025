//! Deterministic random number generation for simulations.
//!
//! Every stochastic decision in an experiment (message losses, delays, crash
//! times, link outages) is drawn from a [`SimRng`] seeded from the experiment
//! seed, so a given scenario is exactly reproducible. Independent substreams
//! can be forked with [`SimRng::fork`] so that, e.g., the link model and the
//! crash injector do not perturb each other's sequences when one of them
//! changes how many samples it draws.

use crate::time::SimDuration;

/// The SplitMix64 increment (the golden ratio in 64-bit fixed point).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    finalize(*state)
}

/// The seed of the substream labelled `label` under `base`: the one mixer
/// every independent stream of a run is derived with — [`SimRng::fork`],
/// each simulated node's stream from the world seed, and each link's
/// outage stream in `sle-net`. A pure function of its two arguments, so a
/// stream never depends on the order in which the others are derived.
pub fn substream_seed(base: u64, label: u64) -> u64 {
    finalize(base ^ label.wrapping_mul(GOLDEN))
}

/// A deterministic, seedable random number generator with helpers for the
/// distributions used by the DSN 2008 experiments.
///
/// ```
/// use sle_sim::rng::SimRng;
/// use sle_sim::time::SimDuration;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mean = SimDuration::from_millis(100);
/// let sample = a.exponential(mean);
/// assert!(sample > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    /// xoshiro256++ state (self-contained so the simulator has no external
    /// dependencies; the distribution helpers below are all inverse-CDF
    /// based, so quality requirements are modest).
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; splitmix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if state == [0; 4] {
            state[0] = GOLDEN;
        }
        SimRng { state }
    }

    /// Forks an independent substream labelled by `label`.
    ///
    /// The substream is a pure function of the parent's seed position and the
    /// label, so forking is itself deterministic.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from(substream_seed(base, label))
    }

    /// Returns the next raw 64-bit value (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits give the standard [0, 1) double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "uniform_range: bounds must be finite with lo <= hi"
        );
        if lo == hi {
            lo
        } else {
            lo + self.uniform_f64() * (hi - lo)
        }
    }

    /// Returns a uniformly distributed integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize: n must be positive");
        // The modulo bias is below 2^-32 for any n a simulation uses.
        (self.next_u64() % n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// Samples an exponentially distributed duration with the given mean.
    ///
    /// This is the distribution the paper uses for message delays, workstation
    /// crash/recovery inter-arrival times and link crash/recovery times.
    /// A zero mean yields a zero duration.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sampling; 1 - U avoids ln(0).
        let u: f64 = 1.0 - self.uniform_f64();
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut f1 = parent1.fork(1);
        let mut f2 = parent2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut parent3 = SimRng::seed_from(99);
        let mut g1 = parent3.fork(2);
        // Different labels should (overwhelmingly) give different streams.
        assert_ne!(f1.next_u64(), g1.next_u64());
    }

    #[test]
    fn substream_seeds_keep_their_recorded_values() {
        // Every node stream, fork and link outage stream of a recorded run
        // is seeded through this mixer: these values must never move.
        assert_eq!(substream_seed(0, 0), 0);
        assert_eq!(substream_seed(42, 7), 0x53ad_348a_f3dd_af4b);
        assert_eq!(
            substream_seed(0xdead_beef, 3 << 32 | 5),
            0xceb0_a999_7c48_47ba
        );
        let mut parent = SimRng::seed_from(99);
        let base = parent.clone().next_u64();
        let mut fork = parent.fork(3);
        assert_eq!(
            fork.next_u64(),
            SimRng::seed_from(substream_seed(base, 3)).next_u64()
        );
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SimRng::seed_from(1);
        assert!(!rng.bernoulli(0.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_rate_roughly_matches_p() {
        let mut rng = SimRng::seed_from(1234);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.1)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut rng = SimRng::seed_from(5678);
        let mean = SimDuration::from_millis(100);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let observed = total / n as f64;
        assert!((observed - 0.1).abs() < 0.005, "observed mean = {observed}");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(rng.exponential(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let x = rng.uniform_range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform_range(5.0, 5.0), 5.0);
        for _ in 0..100 {
            assert!(rng.uniform_usize(4) < 4);
        }
    }
}
