//! The repository's benchmark: four named workloads, a handful of
//! end-to-end metrics every workload reports, and a per-layer ledger
//! measured from the outside in. See `README.md` next to this package.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--traced] [--smoke]      every workload, one child process each
//! benchmark --aa [--repeats K] [...]                           the whole set twice; do the two agree?
//! benchmark --emit-contract                                    prints BENCHMARK.json
//! benchmark --workload app-failover --pause-resume             the `Cluster::recover` fencing hazard
//! ```
//!
//! One run prints its report and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; it exits
//! non-zero when a correctness check fails.

mod canary;
mod catalogue;
mod ledger;
mod probes;
mod qos;
mod replay;
mod runner;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::OnceLock;

use catalogue::{Better, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use runner::{Outcome, RunArgs};

/// Where the traced pass writes its span dump.
static SPAN_DUMP: OnceLock<PathBuf> = OnceLock::new();

/// Writes the sampled spans next to the executable (inside the build
/// directory, so nothing lands in the source tree) and notes where.
pub(crate) fn write_span_dump(ledger: &ledger::Ledger, outcome: &mut Outcome) {
    let Some(path) = SPAN_DUMP.get() else {
        return;
    };
    match ledger::write_spans(ledger, path) {
        Ok(()) => outcome.detail(
            "span_dump",
            format!(
                "{} ({} spans, 1 trace in {}, {} dropped at the cap)",
                path.display(),
                ledger.spans.len(),
                ledger::SPAN_SAMPLE_EVERY,
                ledger.spans_dropped
            ),
        ),
        Err(error) => outcome.detail("span_dump", format!("not written: {error}")),
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    aa: bool,
    pause_resume: bool,
    repeats: u64,
    emit_contract: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        aa: false,
        pause_resume: false,
        repeats: 3,
        emit_contract: false,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--repeats" => {
                cli.repeats = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --repeats: {e}"))?;
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--pause-resume" => cli.pause_resume = true,
            "--emit-contract" => cli.emit_contract = true,
            "--help" | "-h" => {
                println!(
                    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
                     [--smoke] [--aa [--repeats K]] [--emit-contract]\n       \
                     benchmark --workload app-failover --pause-resume   (reproduces the fencing hazard)\n\
                     workloads: {}",
                    WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds == 0 || cli.seconds > 600 {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    if cli.repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 2;
    }
    Ok(cli)
}

fn defs_of(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs one workload in this process and prints its report and result line.
fn run_one(name: &str, cli: &Cli) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        smoke: cli.smoke,
        pause_resume: cli.pause_resume,
    };
    if cli.traced {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(PathBuf::from))
            .unwrap_or_default();
        let _ = SPAN_DUMP.set(dir.join(format!("spans-{name}-seed{}.tsv", cli.seed)));
    }
    let Some(outcome) = workloads::run(name, &args) else {
        eprintln!("error: unknown workload {name}");
        return ExitCode::from(2);
    };
    let defs = defs_of(cli.traced);
    println!(
        "workload {name}  seed {}  seconds {}  pass {}{}",
        cli.seed,
        cli.seconds,
        if cli.traced { "traced" } else { "untraced" },
        if cli.smoke { "  (smoke sizes)" } else { "" }
    );
    println!("host: {}", runner::host_descriptor());
    for (key, value) in &outcome.details {
        println!("  {key}: {value}");
    }
    for def in defs {
        if let Some(value) = outcome.get(def.name) {
            println!("  {:<44} {:>18.4} {}", def.name, value, def.unit);
        }
    }
    println!(
        "  operations: {} failed of {} attempted",
        outcome.failed,
        outcome.attempted.max(1)
    );
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    match runner::result_json(&outcome, defs, !cli.traced) {
        Ok(line) => {
            println!("{line}");
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(1)
        }
    }
}

/// What a child run reported, read back from its result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Reads the result line this program itself wrote (not a general JSON
/// parser: the writer in `runner::result_json` fixes the layout).
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |text: &str| {
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
            .unwrap_or(text.len());
        text[..end].parse::<f64>().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut values = Vec::new();
    let mut rest = after("\"metrics\": {")?;
    while let Some(start) = rest.find('"') {
        let name_end = start + 1 + rest[start + 1..].find('"')?;
        let name = &rest[start + 1..name_end];
        let value_at = name_end + rest[name_end..].find("\"value\":")? + "\"value\":".len();
        values.push((name.to_string(), number(rest[value_at..].trim_start())?));
        rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
    }
    Some(ChildResult {
        correct,
        attempted,
        failed,
        values,
    })
}

/// Runs one workload in a child process of its own (so `peak_rss_mb` is that
/// workload's) and returns what it reported; the child's report is echoed.
fn run_child(name: &str, cli: &Cli, seed: u64, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.traced { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    if echo {
        println!("{report}");
    }
    let result = parse_result_line(last).ok_or_else(|| {
        format!(
            "the {name} child printed no result (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    Ok(result)
}

/// Every workload once, one child each; prints every metric by name.
fn run_all(cli: &Cli) -> ExitCode {
    println!("host: {}", runner::host_descriptor());
    let mut ok = true;
    for (name, why) in WORKLOADS {
        println!("\n== {name} — {why}");
        match run_child(name, cli, cli.seed, true) {
            Ok(result) => {
                if !result.correct {
                    println!("  => {name}: a correctness check FAILED");
                }
                ok &= result.correct;
            }
            Err(error) => {
                eprintln!("error: {error}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives.
fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let at = |q: usize| {
        let position = q as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let delta = position - j as f64;
        values[j - 1] + delta * (values[j] - values[j - 1])
    };
    (at(1), at(2), at(3))
}

/// The whole set twice, back to back, with the same seeds: per end-to-end
/// metric and workload, both medians, the spread, and whether the second
/// median is within the metric's bound of the first.
fn run_aa(cli: &Cli) -> ExitCode {
    println!("host: {}", runner::host_descriptor());
    println!(
        "A/A: 2 sets x {} workloads x {} repeats (seeds {}..{})",
        WORKLOADS.len(),
        cli.repeats,
        cli.seed,
        cli.seed + cli.repeats - 1
    );
    // values[set][workload][metric] = one value per repeat.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut ok = true;
    for set in &mut values {
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            for repeat in 0..cli.repeats {
                match run_child(name, cli, cli.seed + repeat, false) {
                    Ok(result) => {
                        if !result.correct || result.failed > 0 {
                            println!(
                                "  {name} seed {}: correct={} failed {}/{}",
                                cli.seed + repeat,
                                result.correct,
                                result.failed,
                                result.attempted
                            );
                        }
                        ok &= result.correct;
                        for (m, def) in END_TO_END.iter().enumerate() {
                            if let Some((_, v)) = result.values.iter().find(|(n, _)| n == def.name)
                            {
                                set[w][m].push(*v);
                            }
                        }
                    }
                    Err(error) => {
                        eprintln!("error: {error}");
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "B vs A", "bound"
    );
    for (w, (name, _)) in WORKLOADS.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (q1, median_a, q3) = quartiles(&mut values[0][w][m]);
            let (_, median_b, _) = quartiles(&mut values[1][w][m]);
            let spread = (q3 - q1) / median_a;
            let worse = match def.better {
                Better::Lower => median_b / median_a - 1.0,
                Better::Higher => 1.0 - median_b / median_a,
            };
            // `setup_s` is exempt from the spread rule, not from the
            // second-median rule.
            let agrees = worse <= def.bound && (def.name == "setup_s" || spread <= def.bound);
            ok &= agrees;
            println!(
                "{name:<16} {:<20} {median_a:>14.4} {median_b:>14.4} {:>8.1}% {:>8.1}% {:>6.0}%  {}",
                def.name,
                spread * 100.0,
                worse * 100.0,
                def.bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_contract {
        print!("{}", catalogue::contract_json());
        return ExitCode::SUCCESS;
    }
    match (&cli.workload, cli.aa) {
        (Some(name), _) => run_one(name, &cli),
        (None, true) => run_aa(&cli),
        (None, false) => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_reads_back() {
        let mut outcome = Outcome {
            attempted: 12,
            failed: 3,
            ..Outcome::default()
        };
        for (i, def) in END_TO_END.iter().enumerate() {
            outcome.set(def.name, 1.25 + i as f64);
        }
        let line = runner::result_json(&outcome, END_TO_END, true).expect("complete");
        let back = parse_result_line(&line).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (12, 3));
        assert_eq!(back.values.len(), END_TO_END.len());
        for (i, def) in END_TO_END.iter().enumerate() {
            assert_eq!(back.values[i], (def.name.to_string(), 1.25 + i as f64));
        }
        assert!(parse_result_line("no result here").is_none());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
