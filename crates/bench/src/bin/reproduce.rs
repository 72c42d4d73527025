//! Regenerates the tables behind every figure of the DSN 2008 evaluation.
//!
//! ```text
//! reproduce [FIGURE ...] [--minutes N] [--seed S] [--markdown]
//!
//!   FIGURE      fig3 fig4 fig5 fig6 fig7 fig8 headline (default: all)
//!   --minutes   measured virtual minutes per cell (default 30)
//!   --seed      experiment seed (default: built-in)
//!   --markdown  emit Markdown tables
//! ```
//!
//! The paper ran each experiment for 1–5 days of wall-clock time; here each
//! cell simulates `--minutes` of virtual time in a few seconds. Longer runs
//! tighten the confidence intervals of T_r and λ_u but do not change the
//! shape of the results.

use sle_harness::{all_figures, figure_by_id, render_figure, render_figure_markdown, Figure};
use sle_sim::time::SimDuration;

struct Options {
    figures: Vec<String>,
    minutes: u64,
    seed: Option<u64>,
    markdown: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        figures: Vec::new(),
        minutes: 30,
        seed: None,
        markdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--minutes" => {
                options.minutes = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--minutes requires an integer argument");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                options.seed = args.next().and_then(|v| v.parse().ok());
            }
            "--markdown" => options.markdown = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [fig3|fig4|fig5|fig6|fig7|fig8|headline ...] \
                     [--minutes N] [--seed S] [--markdown]"
                );
                std::process::exit(0);
            }
            other => options.figures.push(other.to_string()),
        }
    }
    options
}

fn main() {
    let options = parse_args();
    let duration = SimDuration::from_secs(options.minutes.max(1) * 60);

    let figures: Vec<Figure> = if options.figures.is_empty() {
        all_figures(duration)
    } else {
        options
            .figures
            .iter()
            .map(|id| {
                figure_by_id(id, duration).unwrap_or_else(|| {
                    eprintln!("unknown figure '{id}' (expected fig3..fig8 or headline)");
                    std::process::exit(2);
                })
            })
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
        let results = figure.run();
        if options.markdown {
            println!("{}", render_figure_markdown(&figure, &results));
        } else {
            println!("{}", render_figure(&figure, &results));
        }
    }
}
