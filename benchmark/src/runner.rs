//! What every workload shares: the run's arguments and result, `/proc`
//! readers for memory and CPU time, the percentile rule, the one JSON
//! writer, and the host descriptor.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::catalogue::{valid_name, Better, MetricDef, END_TO_END, PER_LAYER};

/// What one run of one workload was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload-generation seed: deployments, crash plans and medium seeds
    /// derive from it; the program under test receives only those inputs.
    pub seed: u64,
    /// How long the timed window should last on the reference host.
    pub seconds: u64,
    /// `false`: the untraced pass (end-to-end metrics). `true`: the traced
    /// pass (probes installed, per-layer metrics).
    pub traced: bool,
    /// Shrunk sizes for CI: the same shapes in seconds overall.
    pub smoke: bool,
    /// `app-failover` only: resume every crashed leader one second later
    /// (`Cluster::recover`) instead of leaving it crash-stopped — the
    /// reproduction of the pause/resume fencing hazard, not a benchmark.
    pub pause_resume: bool,
}

impl RunArgs {
    /// A sub-seed for one purpose, so no two consumers share a stream.
    pub fn subseed(&self, purpose: u64) -> u64 {
        // splitmix64 of (seed, purpose).
        let mut z = self
            .seed
            .wrapping_add(purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload's own unit; see the README).
    pub attempted: u64,
    /// Of those, failed. Never folded into a latency.
    pub failed: u64,
    /// Correctness checks that did not hold (empty = outputs correct).
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Further quantities for the human-readable report: counts that repeat
    /// exactly for a seed, and the paper-QoS numbers the untraced pass
    /// measures anyway.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.metrics.push((name, value));
    }

    /// Records a detail line.
    pub fn detail(&mut self, name: &str, value: impl std::fmt::Display) {
        self.details.push((name.to_string(), value.to_string()));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being every
/// entry of `defs` (a per-layer metric the workload did not set reads 0; an
/// end-to-end metric must be set). Names are validated on the way out.
pub fn result_json(
    outcome: &Outcome,
    defs: &[MetricDef],
    require_all: bool,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        if !valid_name(def.name) {
            return Err(format!("invalid metric name {:?}", def.name));
        }
        let value = match outcome.get(def.name) {
            Some(value) => value,
            None if require_all => return Err(format!("metric {} was not measured", def.name)),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", def.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name, value, def.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Median and tail of a sample by the percentile rule: the median, plus the
/// highest percentile of a fixed ladder that still has at least ten samples
/// beyond it (none with fewer than 100 samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
    /// The largest sample.
    pub max: f64,
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Applies the percentile rule to `samples` (sorted in place). `None` for an
/// empty sample.
pub fn percentiles(samples: &mut [f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail = [99.999, 99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|pct| {
            let rank = (pct / 100.0 * n as f64).ceil() as usize;
            n - rank.clamp(1, n) >= 10
        })
        .map(|pct| (pct, nearest_rank(samples, pct)));
    Some(Percentiles {
        samples: n,
        p50: nearest_rank(samples, 50.0),
        tail,
        max: samples[n - 1],
    })
}

/// Median of a few repeats (mean of the middle two for an even count; 0
/// for none).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The value at the quiet end of a run's repeats of one deterministic,
/// CPU-bound piece of work: the decile on the side the metric is better on
/// (nearest rank, so the best of ten or fewer; 0 for none).
///
/// On the shared reference host interference is one-sided — a neighbour on
/// the sibling hyper-thread, a stolen vCPU or an evicted cache only ever
/// slow such work down — and comes in spells of seconds. The median of a
/// run's slices moves with the share of the run a spell covered (12 % from
/// run to run on both simulated workloads, 30–40 % in a bad hour); the quiet
/// decile is what the code costs when left alone (6–8 % over the same runs).
/// A change that slows every slice moves it exactly as it moves the median.
pub fn quiet_decile(values: &mut [f64], better: Better) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let rank = n.div_ceil(10);
    match better {
        Better::Lower => values[rank - 1],
        Better::Higher => values[n - rank],
    }
}

/// This process's peak resident set in MB (`VmHWM`). Every workload runs in
/// a process of its own, so the figure is that workload's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU nanoseconds of every live thread of this process, by thread id,
/// with the thread's name (`/proc/self/task/*/{comm,schedstat}`).
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    threads: HashMap<u64, (String, u64)>,
}

impl CpuSnapshot {
    /// Reads the current figures.
    pub fn take() -> Self {
        let mut threads = HashMap::new();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return CpuSnapshot { threads };
        };
        for task in tasks.flatten() {
            let path = task.path();
            let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            // A thread may exit between the listing and the reads.
            let Ok(schedstat) = std::fs::read_to_string(path.join("schedstat")) else {
                continue;
            };
            let Some(run_ns) = schedstat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
            else {
                continue;
            };
            let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
            threads.insert(tid, (comm.trim().to_string(), run_ns));
        }
        CpuSnapshot { threads }
    }

    /// CPU nanoseconds spent since `earlier` by threads whose name starts
    /// with `prefix` (`""` = the whole process). Threads that started in
    /// between count from zero; threads that ended in between are not seen.
    pub fn since(&self, earlier: &CpuSnapshot, prefix: &str) -> u64 {
        self.threads
            .iter()
            .filter(|(_, (name, _))| name.starts_with(prefix))
            .map(|(tid, (_, now))| {
                let before = earlier.threads.get(tid).map_or(0, |(_, ns)| *ns);
                now.saturating_sub(before)
            })
            .sum()
    }
}

/// Times `body`, returning its result and the elapsed wall time.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = body();
    (result, start.elapsed())
}

/// Nanoseconds one `now_ns` pair costs — subtracted from per-call timings
/// of calls too short to batch.
pub fn clock_overhead_ns() -> f64 {
    let rounds = 200_000u64;
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..rounds {
        let t0 = crate::ledger::now_ns();
        let t1 = crate::ledger::now_ns();
        sink = sink.wrapping_add(t1 - t0);
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / rounds as f64
}

/// The host the numbers were taken on: cores, kernel, compiler.
pub fn host_descriptor() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string());
    format!("{cores} cores, kernel {kernel}, {rustc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_picks_the_highest_supported_tail() {
        assert_eq!(percentiles(&mut []), None);
        // Ten samples: a median, no tail.
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p = percentiles(&mut ten).expect("non-empty");
        assert_eq!((p.samples, p.p50, p.tail, p.max), (10, 5.0, None, 10.0));
        // 100 samples: p90 has exactly ten beyond it; p99 would have one.
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentiles(&mut hundred).expect("non-empty");
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.tail, Some((90.0, 90.0)));
        // 1000 samples support p99 (ten beyond), not p99.9 (one beyond).
        let mut thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentiles(&mut thousand).expect("non-empty");
        assert_eq!(p.tail, Some((99.0, 990.0)));
        // 99 samples: p90 leaves only nine beyond.
        let mut ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentiles(&mut ninety_nine).expect("non-empty").tail, None);
    }

    #[test]
    fn quiet_decile_is_the_better_side_nearest_rank() {
        let mut sixty: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(quiet_decile(&mut sixty, Better::Lower), 6.0);
        assert_eq!(quiet_decile(&mut sixty, Better::Higher), 55.0);
        // Ten or fewer: the best one.
        assert_eq!(quiet_decile(&mut [3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(quiet_decile(&mut [3.0, 1.0, 2.0], Better::Higher), 3.0);
        assert_eq!(quiet_decile(&mut [], Better::Lower), 0.0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut outcome = Outcome {
            attempted: 7,
            failed: 1,
            ..Outcome::default()
        };
        for def in END_TO_END {
            outcome.set(def.name, 1.5);
        }
        let line = result_json(&outcome, END_TO_END, true).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {")
        );
        for def in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                def.name, def.unit
            )));
        }
        assert!(!line.contains('\n'));
        // A missing end-to-end metric is an error; a missing layer metric is 0.
        let empty = Outcome::default();
        assert!(result_json(&empty, END_TO_END, true).is_err());
        let line = result_json(&empty, PER_LAYER, false).expect("layers default to 0");
        assert!(line.contains("\"wire.frames\": {\"value\": 0, \"unit\": \"count\"}"));
        assert!(line.contains("\"attempted\": 1"));
        // A failed check flips `correct`; a non-finite value is refused.
        let mut bad = Outcome::default();
        bad.problem("x");
        assert!(result_json(&bad, PER_LAYER, false)
            .expect("still printable")
            .starts_with("{\"correct\": false"));
        bad.set("wire.frames", f64::NAN);
        assert!(result_json(&bad, PER_LAYER, false).is_err());
    }

    #[test]
    fn cpu_snapshot_sees_this_thread_burn_time() {
        let before = CpuSnapshot::take();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = CpuSnapshot::take();
        let burnt = after.since(&before, "");
        assert!(burnt > 5_000_000, "only {burnt} ns of CPU seen");
        assert_eq!(after.since(&before, "no-such-thread-name"), 0);
        assert!(peak_rss_mb() > 1.0);
        assert!(
            RunArgs {
                seed: 1,
                seconds: 1,
                traced: false,
                smoke: true,
                pause_resume: false
            }
            .subseed(1)
                != RunArgs {
                    seed: 2,
                    seconds: 1,
                    traced: false,
                    smoke: true,
                    pause_resume: false
                }
                .subseed(1)
        );
    }
}
