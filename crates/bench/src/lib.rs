//! # sle-bench — benchmarks and figure regeneration
//!
//! This crate hosts:
//!
//! * the `reproduce` binary (`cargo run -p sle-bench --release --bin
//!   reproduce`), which re-runs every experimental cell of the paper's
//!   figures and prints paper-vs-measured tables,
//! * the `chaos_sweep` binary, the multi-seed adversarial sweep of
//!   `sle-chaos` (see `docs/CHAOS.md`), and
//! * the micro-benchmarks (`cargo bench`) for the failure detector, the
//!   election algorithms, the simulator and small
//!   versions of the figure scenarios. They are plain `harness = false`
//!   binaries built on the dependency-free helpers below ([`bench_loop`],
//!   [`bench_once`]), so the whole workspace builds without any third-party
//!   crate.
//!
//! The service's end-to-end and per-layer numbers are not measured here but
//! by the standalone `benchmark/` package that `BENCHMARK.json` names.
//!
//! ## Example: timing a snippet with the mini-harness
//!
//! ```
//! use sle_bench::{bench_loop, bench_once, black_box};
//!
//! // Prints "sum-1..100                ... ns/iter" on stdout.
//! bench_loop("sum-1..100", 100, || black_box((1u64..=100).sum::<u64>()));
//! assert_eq!(bench_once("once", || 6 * 7), 42);
//! ```

#![warn(missing_docs)]

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Prevents the optimiser from deleting a benchmark's result.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Times `iters` calls of `f` (after `iters / 10` warm-up calls) and prints
/// one `name: <ns>/iter` line — the dependency-free stand-in for a Criterion
/// benchmark.
pub fn bench_loop<T, F: FnMut() -> T>(name: &str, iters: u64, mut f: F) {
    let warmup = (iters / 10).max(1);
    for _ in 0..warmup {
        std_black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std_black_box(f());
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<55} {per_iter:>12.1} ns/iter  ({iters} iters)");
}

/// Times a single execution of `f` and prints one `name: <ms>` line — for
/// macro-benchmarks where one run is already seconds of work.
pub fn bench_once<T, F: FnOnce() -> T>(name: &str, f: F) -> T {
    let start = Instant::now();
    let result = std_black_box(f());
    let elapsed = start.elapsed();
    println!("{name:<55} {:>12.1} ms", elapsed.as_secs_f64() * 1e3);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_run() {
        bench_loop("noop", 10, || black_box(1 + 1));
        assert_eq!(bench_once("noop-once", || 7), 7);
    }
}
