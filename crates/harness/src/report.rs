//! Formatting of paper-vs-measured comparison tables.

use crate::figures::{CellResult, Figure};

fn fmt_opt(value: Option<f64>, precision: usize) -> String {
    match value {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    }
}

/// Renders one figure's results as a fixed-width text table with one row per
/// cell, paper-vs-measured columns for every metric the figure reports, and
/// the invariant verdict last.
pub fn render_figure(figure: &Figure, results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", figure.caption));
    out.push_str(&format!(
        "{:<28} {:>10} {:>10} {:>11} {:>11} {:>10} {:>10} {:>9} {:>9} {}\n",
        "cell",
        "Tr paper",
        "Tr meas",
        "mist/h pap",
        "mist/h meas",
        "Pl paper",
        "Pl meas",
        "KB/s pap",
        "KB/s meas",
        "verdict",
    ));
    for result in results {
        let paper = result.cell.paper;
        let m = &result.measured;
        let tr_measured = if m.recovery.count > 0 {
            Some(m.recovery.mean)
        } else {
            None
        };
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>11} {:>11.2} {:>10} {:>10.5} {:>9} {:>9.2} {}\n",
            result.cell.label,
            fmt_opt(paper.recovery_secs, 2),
            fmt_opt(tr_measured, 2),
            fmt_opt(paper.mistakes_per_hour, 1),
            m.mistakes_per_hour,
            fmt_opt(paper.availability, 5),
            m.leader_availability,
            fmt_opt(paper.kbytes_per_sec, 2),
            m.kbytes_per_sec_per_node,
            result.verdict,
        ));
    }
    out
}

/// Renders one figure's results as Markdown rows (`reproduce --markdown`).
pub fn render_figure_markdown(figure: &Figure, results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {}\n\n", figure.caption));
    out.push_str(
        "| cell | Tr paper (s) | Tr measured (s) | λu paper (/h) | λu measured (/h) | P_leader paper | P_leader measured | KB/s paper | KB/s measured | leader crashes | verdict |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for result in results {
        let paper = result.cell.paper;
        let m = &result.measured;
        let tr_measured = if m.recovery.count > 0 {
            format!("{:.2} ± {:.2}", m.recovery.mean, m.recovery.ci95)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {} | {:.5} | {} | {:.2} | {} | {} |\n",
            result.cell.label,
            fmt_opt(paper.recovery_secs, 2),
            tr_measured,
            fmt_opt(paper.mistakes_per_hour, 1),
            m.mistakes_per_hour,
            fmt_opt(paper.availability, 5),
            m.leader_availability,
            fmt_opt(paper.kbytes_per_sec, 2),
            m.kbytes_per_sec_per_node,
            m.leader_crashes,
            result.verdict,
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig3;
    use crate::metrics::ExperimentMetrics;
    use crate::stats::Summary;
    use sle_sim::time::SimDuration;

    fn fake_metrics() -> ExperimentMetrics {
        ExperimentMetrics {
            duration: SimDuration::from_secs(60),
            recovery: Summary::of(&[0.8, 0.9]),
            mistakes_per_hour: 5.5,
            leader_availability: 0.9981,
            kbytes_per_sec_per_node: 33.0,
            leader_crashes: 2,
            unjustified_demotions: 1,
            recovery_samples: vec![0.8, 0.9],
        }
    }

    #[test]
    fn renders_text_and_markdown() {
        let figure = fig3(SimDuration::from_secs(60));
        let results: Vec<CellResult> = figure
            .cells
            .iter()
            .take(2)
            .map(|cell| CellResult {
                cell: cell.clone(),
                measured: fake_metrics(),
                verdict: "unjustified-demotion=1".to_string(),
            })
            .collect();
        let text = render_figure(&figure, &results);
        assert!(text.contains("Figure 3"));
        assert!(text.contains("S1 (0.025ms, 0)"));
        assert!(text.contains("0.85"));
        assert!(text.contains("33.00 unjustified-demotion=1\n"));
        let md = render_figure_markdown(&figure, &results);
        assert!(md.starts_with("### Figure 3"));
        assert!(md.contains("| S1 (0.025ms, 0) |"));
        assert!(md.contains("±"));
        assert!(md.contains("| 2 | unjustified-demotion=1 |"));
    }
}
