//! The adversarial-schedule sweep: N seeds × M fault-plan families ×
//! S1/S2/S3, with invariant checking on every run and automatic shrinking
//! of failures to minimal, ready-to-paste regression tests.
//!
//! ```text
//! cargo run --release -p sle-harness --bin chaos_sweep                 # full sweep (50 seeds)
//! cargo run --release -p sle-harness --bin chaos_sweep -- --smoke     # CI-sized pinned mini-sweep
//! cargo run --release -p sle-harness --bin chaos_sweep -- --weakened  # prove the checker catches a bad detector
//! ```
//!
//! Options: `--seeds N`, `--seed-base N`, `--nodes N`,
//! `--duration-secs N`, `--no-shrink`, `--summary-file PATH` (write the
//! report there too — CI publishes it as a job artifact).
//!
//! Exit status: 0 when every run upholds every invariant (or, under
//! `--weakened`, when the deliberately broken detector *is* caught) and,
//! under `--smoke`, the membership-churn and duplication/reordering
//! families exercised the HELLO pull path and the partition and crash
//! families both ALIVE receive paths; 1 otherwise.

use std::time::Instant;

use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::{run_sweep, Scenario, SweepConfig};
use sle_net::link::LinkSpec;
use sle_sim::time::SimDuration;

struct Args {
    seeds: Option<u64>,
    seed_base: Option<u64>,
    nodes: Option<usize>,
    duration_secs: Option<u64>,
    smoke: bool,
    weakened: bool,
    no_shrink: bool,
    summary_file: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seeds: None,
        seed_base: None,
        nodes: None,
        duration_secs: None,
        smoke: false,
        weakened: false,
        no_shrink: false,
        summary_file: None,
    };
    let mut iter = argv.into_iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seeds" => args.seeds = Some(parse(&value("--seeds")?)?),
            "--seed-base" => args.seed_base = Some(parse(&value("--seed-base")?)?),
            "--nodes" => args.nodes = Some(parse(&value("--nodes")?)?),
            "--duration-secs" => args.duration_secs = Some(parse(&value("--duration-secs")?)?),
            "--smoke" => args.smoke = true,
            "--weakened" => args.weakened = true,
            "--no-shrink" => args.no_shrink = true,
            "--summary-file" => args.summary_file = Some(value("--summary-file")?),
            "--help" | "-h" => {
                println!(
                    "usage: chaos_sweep [--smoke] [--weakened] [--seeds N] [--seed-base N] \
                     [--nodes N] [--duration-secs N] [--no-shrink] [--summary-file PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // A sweep without runs, or over workstations that do not exist, checks
    // nothing and must not report that every run passed.
    if args.seeds == Some(0) {
        return Err("--seeds must be at least 1".to_string());
    }
    if args.nodes == Some(0) {
        return Err("--nodes must be at least 1".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("not a valid number: {text}"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };

    let mut config = if args.smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::new()
    };
    if let Some(seeds) = args.seeds {
        config = config.with_seeds(seeds);
    }
    if let Some(base) = args.seed_base {
        config.seed_base = base;
    }
    if let Some(nodes) = args.nodes {
        config.scenario.nodes = nodes;
    }
    if let Some(secs) = args.duration_secs {
        config.scenario.duration = SimDuration::from_secs(secs);
    }
    if args.no_shrink {
        config.shrink_failures = false;
    }
    if args.weakened {
        // Test-only weakening of the detector: a 40 ms detection bound over
        // a 25 ms-mean lossy link leaves the timeout shift under the delay
        // tail, so false suspicions demote the (alive) leader. The sweep
        // MUST flag this — it is the proof that the checker has teeth.
        let weakened = QosSpec::new(
            SimDuration::from_millis(40),
            SimDuration::from_secs(3600),
            0.999,
        )
        .expect("valid weakened QoS");
        config = config.with_seeds(args.seeds.unwrap_or(1));
        config.algorithms = vec![ElectorKind::OmegaLc];
        config.scenario = Scenario::new(ElectorKind::OmegaLc, args.nodes.unwrap_or(3))
            .with_qos(weakened)
            .with_link(LinkSpec::from_paper_tuple(25.0, 0.1))
            .with_duration(SimDuration::from_secs(args.duration_secs.unwrap_or(30)));
    }

    let started = Instant::now();
    let summary = run_sweep(&config);
    let elapsed = started.elapsed();

    let mut report = summary.render();
    report.push_str(&format!(
        "\n{} runs in {:.1}s wall-clock ({:.0} runs/s)\n",
        summary.runs,
        elapsed.as_secs_f64(),
        summary.runs as f64 / elapsed.as_secs_f64().max(1e-9)
    ));
    println!("{report}");

    if let Some(path) = &args.summary_file {
        if let Err(error) = std::fs::write(path, &report) {
            eprintln!("error: could not write {path}: {error}");
            std::process::exit(2);
        }
        println!("summary written to {path}");
    }

    if args.weakened {
        if summary.ok() {
            eprintln!("FAIL: the deliberately weakened detector was NOT caught");
            std::process::exit(1);
        }
        println!(
            "OK: the weakened detector was caught ({} failing runs, minimal reproducers above)",
            summary.failures.len()
        );
    } else if !summary.ok() {
        eprintln!(
            "FAIL: {} runs violated protocol invariants (reproducers above)",
            summary.failures.len()
        );
        std::process::exit(1);
    } else {
        println!("OK: every run upheld every invariant");
    }
    if args.smoke {
        if let Err(missing) = summary.hello_paths_exercised() {
            eprintln!("FAIL: {missing} — the HELLO pull path ran unchecked");
            std::process::exit(1);
        }
        println!("OK: the HELLO pull and stale-version paths ran under the checker");
        if let Err(missing) = summary.alive_paths_exercised() {
            eprintln!("FAIL: {missing} — an ALIVE, detector or HELLO-tick path ran unchecked");
            std::process::exit(1);
        }
        println!(
            "OK: repeated and applied ALIVE batches, revivals included, and quiet and walking \
             detector fires and HELLO ticks ran under the checker"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn an_empty_sweep_is_refused() {
        let error = parse(&["--seeds", "0"])
            .err()
            .expect("zero seeds run nothing");
        assert!(error.contains("--seeds"), "{error}");
        let error = parse(&["--smoke", "--nodes", "0"])
            .err()
            .expect("no workstations");
        assert!(error.contains("--nodes"), "{error}");
    }

    #[test]
    fn sizes_and_flags_are_read() {
        let args = parse(&["--seeds", "3", "--nodes", "1", "--smoke"]).expect("valid");
        assert_eq!(
            (args.seeds, args.nodes, args.smoke),
            (Some(3), Some(1), true)
        );
        assert!(parse(&["--seeds"]).is_err());
        assert!(parse(&["--nodes", "x"]).is_err());
    }
}
