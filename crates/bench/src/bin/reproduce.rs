//! Regenerates the tables behind every figure of the DSN 2008 evaluation.
//!
//! ```text
//! reproduce [FIGURE ...] [--minutes N] [--seed S] [--markdown]
//!
//!   FIGURE      one of sle_harness::figure_ids() (default: all, in that order)
//!   --minutes   measured virtual minutes per cell (default 30)
//!   --seed      experiment seed (default: built-in)
//!   --markdown  emit Markdown tables
//! ```
//!
//! The paper ran each experiment for 1–5 days of wall-clock time; here each
//! cell simulates `--minutes` of virtual time in a few seconds, on the
//! `sle-chaos` engine, which also checks the run's protocol invariants: the
//! last column is the verdict, `ok` or the violation count per kind. Longer
//! runs tighten the confidence intervals of T_r and λ_u but do not change
//! the shape of the results.

use sle_chaos::{run_plan, FaultPlan};
use sle_harness::{
    all_figures, figure_by_id, figure_ids, render_figure, render_figure_markdown, CellResult,
    Figure,
};
use sle_sim::time::SimDuration;

#[derive(Debug, PartialEq)]
struct Options {
    figures: Vec<String>,
    minutes: u64,
    seed: Option<u64>,
    markdown: bool,
    help: bool,
}

fn usage() -> String {
    format!(
        "usage: reproduce [{} ...] [--minutes N] [--seed S] [--markdown]",
        figure_ids().join("|")
    )
}

/// Parses the arguments after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        figures: Vec::new(),
        minutes: 30,
        seed: None,
        markdown: false,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--minutes" => {
                options.minutes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--minutes requires an integer argument")?;
            }
            "--seed" => {
                options.seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed requires an integer argument")?,
                );
            }
            "--markdown" => options.markdown = true,
            "--help" | "-h" => options.help = true,
            id if figure_ids().contains(&id) => options.figures.push(arg),
            other => {
                return Err(format!(
                    "unknown figure '{other}' (expected one of {})",
                    figure_ids().join(" ")
                ))
            }
        }
    }
    Ok(options)
}

fn main() {
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    if options.help {
        eprintln!("{}", usage());
        return;
    }
    let duration = SimDuration::from_secs(options.minutes.max(1) * 60);

    let figures: Vec<Figure> = if options.figures.is_empty() {
        all_figures(duration)
    } else {
        options
            .figures
            .iter()
            .map(|id| figure_by_id(id, duration).expect("parse_args admits listed ids only"))
            .collect()
    };

    for mut figure in figures {
        if let Some(seed) = options.seed {
            for cell in &mut figure.cells {
                cell.scenario.seed = seed;
            }
        }
        eprintln!(
            "running {} ({} cells, {} virtual minutes each)...",
            figure.id,
            figure.cells.len(),
            options.minutes
        );
        let results: Vec<CellResult> = figure
            .cells
            .iter()
            .map(|cell| {
                let report = run_plan(&cell.scenario, &FaultPlan::quiet());
                CellResult {
                    cell: cell.clone(),
                    verdict: report.verdict(),
                    measured: report.qos,
                }
            })
            .collect();
        if options.markdown {
            println!("{}", render_figure_markdown(&figure, &results));
        } else {
            println!("{}", render_figure(&figure, &results));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn a_bad_or_missing_seed_is_an_error() {
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["fig3", "--seed"]).is_err());
        assert!(parse(&["--minutes", "x"]).is_err());
        let options = parse(&["headline", "--seed", "7", "--minutes", "12"]).expect("valid");
        assert_eq!(options.seed, Some(7));
        assert_eq!(options.minutes, 12);
        assert_eq!(options.figures, ["headline"]);
    }

    #[test]
    fn unknown_figures_are_named_with_the_known_ones() {
        let error = parse(&["fig9"]).expect_err("no such figure");
        assert!(error.contains("'fig9'"), "{error}");
        assert!(error.contains("fig3 fig4"), "{error}");
        assert!(usage().contains("fig8|headline"), "{}", usage());
    }
}
