//! One constructor per figure of the paper's evaluation (Section 6), listed
//! once in [`FIGURES`].
//!
//! Each figure is described as a list of [`Cell`]s: a scenario to run plus
//! the values the paper reports (read from its graphs and text), so the
//! `reproduce` binary can run every cell on the chaos [`engine`](crate::engine)
//! and print paper-vs-measured tables side by side.

use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_sim::time::SimDuration;

use crate::metrics::ExperimentMetrics;
use crate::scenario::Scenario;

/// The values the paper reports for one experimental cell (approximate when
/// read from a graph; exact when stated in the text).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PaperValues {
    /// Average leader recovery time, seconds.
    pub recovery_secs: Option<f64>,
    /// Average mistake rate, unjustified demotions per hour.
    pub mistakes_per_hour: Option<f64>,
    /// Leader availability (fraction of time).
    pub availability: Option<f64>,
    /// Network traffic per workstation, KB/s.
    pub kbytes_per_sec: Option<f64>,
}

/// One experimental cell: a label, the scenario to run and the paper's
/// reported values.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label, e.g. `"(100ms, 0.1)"`.
    pub label: String,
    /// The scenario to run.
    pub scenario: Scenario,
    /// The values reported by the paper.
    pub paper: PaperValues,
}

/// A fully described figure: identifier, caption and cells.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. `"fig3"`.
    pub id: &'static str,
    /// The paper's caption for the figure.
    pub caption: &'static str,
    /// The metrics that matter for this figure.
    pub metrics: &'static [&'static str],
    /// The cells to run.
    pub cells: Vec<Cell>,
}

/// A cell result: the cell description plus the measured metrics.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that was run.
    pub cell: Cell,
    /// The measured metrics.
    pub measured: ExperimentMetrics,
    /// The invariant checker's verdict on the run: `ok`, or the number of
    /// violations of each kind.
    pub verdict: String,
}

/// The five lossy-link settings of Figures 3–5: `(label, D ms, p_L)`.
pub const LOSSY_SETTINGS: [(&str, f64, f64); 5] = [
    ("(0.025ms, 0)", 0.025, 0.0),
    ("(10ms, 0.01)", 10.0, 0.01),
    ("(100ms, 0.01)", 100.0, 0.01),
    ("(10ms, 0.1)", 10.0, 0.1),
    ("(100ms, 0.1)", 100.0, 0.1),
];

/// One service's paper values across [`LOSSY_SETTINGS`]: T_r, λ_u and
/// P_leader.
struct LossySeries {
    algorithm: ElectorKind,
    recovery_secs: [f64; 5],
    mistakes_per_hour: f64,
    availability: [f64; 5],
}

const S1_LOSSY: LossySeries = LossySeries {
    algorithm: ElectorKind::OmegaId,
    recovery_secs: [0.81, 0.82, 0.87, 0.85, 0.94],
    mistakes_per_hour: 6.0,
    availability: [0.9980, 0.9979, 0.9978, 0.9979, 0.9975],
};

const S2_LOSSY: LossySeries = LossySeries {
    algorithm: ElectorKind::OmegaLc,
    recovery_secs: [0.88, 0.90, 0.95, 0.93, 1.00],
    mistakes_per_hour: 0.0,
    availability: [0.9985, 0.9985, 0.9984, 0.9984, 0.9982],
};

const S3_LOSSY: LossySeries = LossySeries {
    algorithm: ElectorKind::OmegaL,
    recovery_secs: [0.86, 0.89, 0.96, 0.94, 1.02],
    mistakes_per_hour: 0.0,
    availability: [0.9986, 0.9985, 0.9984, 0.9984, 0.9982],
};

/// The cells of a lossy-network figure: each setting in turn, with one cell
/// per service of `series`. `availability` says whether the figure plots
/// P_leader.
fn lossy_cells(series: &[LossySeries], availability: bool, duration: SimDuration) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (index, &(label, d, p)) in LOSSY_SETTINGS.iter().enumerate() {
        for s in series {
            let link = LinkSpec::from_paper_tuple(d, p);
            cells.push(Cell {
                label: format!("{} {}", s.algorithm.service_name(), label),
                scenario: Scenario::paper_default(s.algorithm, link).with_duration(duration),
                paper: PaperValues {
                    recovery_secs: Some(s.recovery_secs[index]),
                    mistakes_per_hour: Some(s.mistakes_per_hour),
                    availability: availability.then_some(s.availability[index]),
                    kbytes_per_sec: None,
                },
            });
        }
    }
    cells
}

/// Figure 3 — S1 (Ωid) in lossy networks: T_r and λ_u.
pub fn fig3(duration: SimDuration) -> Figure {
    Figure {
        id: "fig3",
        caption: "Figure 3: S1 in lossy networks",
        metrics: &["Tr", "mistakes/h"],
        cells: lossy_cells(&[S1_LOSSY], false, duration),
    }
}

/// Figure 4 — S1 vs S2 in lossy networks: T_r, λ_u and P_leader.
pub fn fig4(duration: SimDuration) -> Figure {
    Figure {
        id: "fig4",
        caption: "Figure 4: S1 and S2 in lossy networks",
        metrics: &["Tr", "mistakes/h", "P_leader"],
        cells: lossy_cells(&[S1_LOSSY, S2_LOSSY], true, duration),
    }
}

/// Figure 5 — S2 vs S3 in lossy networks: T_r and P_leader (λ_u = 0 for both).
pub fn fig5(duration: SimDuration) -> Figure {
    Figure {
        id: "fig5",
        caption: "Figure 5: S2 and S3 in lossy networks",
        metrics: &["Tr", "P_leader"],
        cells: lossy_cells(&[S2_LOSSY, S3_LOSSY], true, duration),
    }
}

/// Figure 6 — bandwidth overhead per workstation for 4/8/12 workstations,
/// S2 and S3, on the real LAN and on (100 ms, 0.1) links. The figure's CPU
/// half is not reproduced: a simulation has no CPU time to report. Traffic
/// converges within minutes, so cells run at most 10 minutes.
pub fn fig6(duration: SimDuration) -> Figure {
    let duration = duration.min(SimDuration::from_secs(600));
    // (algorithm, network, [KB/s per size])
    let (lan, lossy) = (LOSSY_SETTINGS[0], LOSSY_SETTINGS[4]);
    let configs = [
        (ElectorKind::OmegaLc, lossy, [8.0, 28.0, 62.38]),
        (ElectorKind::OmegaL, lossy, [2.2, 4.3, 6.48]),
        (ElectorKind::OmegaLc, lan, [5.0, 18.0, 40.0]),
        (ElectorKind::OmegaL, lan, [1.3, 2.4, 3.5]),
    ];
    let sizes = [4usize, 8, 12];
    let mut cells = Vec::new();
    for (algorithm, (label, d, p), traffic) in configs {
        for (i, &n) in sizes.iter().enumerate() {
            let link = LinkSpec::from_paper_tuple(d, p);
            cells.push(Cell {
                label: format!("{} {} n={}", algorithm.service_name(), label, n),
                scenario: Scenario::paper_default(algorithm, link)
                    .with_nodes(n)
                    .with_duration(duration),
                paper: PaperValues {
                    kbytes_per_sec: Some(traffic[i]),
                    ..Default::default()
                },
            });
        }
    }
    Figure {
        id: "fig6",
        caption: "Figure 6: CPU and bandwidth overhead",
        metrics: &["KB/s/workst."],
        cells,
    }
}

/// Figure 7 — S2 vs S3 with crash-prone links (mean uptime 600/300/60 s,
/// mean downtime 3 s): T_r, λ_u and P_leader.
pub fn fig7(duration: SimDuration) -> Figure {
    let settings = [
        (600u64, "(600s, 3s)"),
        (300, "(300s, 3s)"),
        (60, "(60s, 3s)"),
    ];
    // Paper values: availability is stated in the text for the extremes,
    // the rest is read from the graphs.
    let s2 = [
        (1.0, 10.0, 0.9983),
        (1.0, 30.0, 0.9980),
        (1.2, 250.0, 0.9878),
    ];
    let s3 = [
        (1.1, 30.0, 0.9975),
        (1.5, 120.0, 0.9766),
        (3.0, 450.0, 0.7742),
    ];
    let mut cells = Vec::new();
    for (index, &(uptime, label)) in settings.iter().enumerate() {
        for (algorithm, values) in [
            (ElectorKind::OmegaLc, s2[index]),
            (ElectorKind::OmegaL, s3[index]),
        ] {
            cells.push(Cell {
                label: format!("{} {}", algorithm.service_name(), label),
                scenario: Scenario::paper_default(algorithm, LinkSpec::lan())
                    .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(uptime))
                    .with_duration(duration),
                paper: PaperValues {
                    recovery_secs: Some(values.0),
                    mistakes_per_hour: Some(values.1),
                    availability: Some(values.2),
                    ..Default::default()
                },
            });
        }
    }
    Figure {
        id: "fig7",
        caption: "Figure 7: S2 and S3 with crash-prone links",
        metrics: &["Tr", "mistakes/h", "P_leader"],
        cells,
    }
}

/// Figure 8 — effect of the FD detection bound T_D^U on T_r and P_leader for
/// S2 and S3 (LAN links, workstation crashes every 10 minutes).
pub fn fig8(duration: SimDuration) -> Figure {
    let bounds_ms = [100u64, 250, 500, 750, 1000];
    let s2_tr = [0.09, 0.22, 0.45, 0.67, 0.88];
    let s3_tr = [0.09, 0.22, 0.44, 0.66, 0.86];
    let s2_avail = [0.99985, 0.99962, 0.99925, 0.99888, 0.99850];
    let s3_avail = [0.99985, 0.99963, 0.99926, 0.99890, 0.99855];
    let mut cells = Vec::new();
    for (index, &bound) in bounds_ms.iter().enumerate() {
        let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(bound));
        for (algorithm, tr, avail) in [
            (ElectorKind::OmegaLc, s2_tr[index], s2_avail[index]),
            (ElectorKind::OmegaL, s3_tr[index], s3_avail[index]),
        ] {
            cells.push(Cell {
                label: format!("{} TdU={}ms", algorithm.service_name(), bound),
                scenario: Scenario::paper_default(algorithm, LinkSpec::lan())
                    .with_qos(qos)
                    .with_duration(duration),
                paper: PaperValues {
                    recovery_secs: Some(tr),
                    availability: Some(avail),
                    ..Default::default()
                },
            });
        }
    }
    Figure {
        id: "fig8",
        caption: "Figure 8: effect of TdU on the QoS of S2 and S3",
        metrics: &["Tr", "P_leader"],
        cells,
    }
}

/// The headline numbers quoted in the paper's introduction and Section 6.5:
/// availability and bandwidth of S2 and S3 at 12 workstations in the
/// harshest lossy network (the paper's CPU figures are not reproduced).
pub fn headline(duration: SimDuration) -> Figure {
    let mut cells = Vec::new();
    for (algorithm, avail, traffic) in [
        (ElectorKind::OmegaL, 0.9984, 6.48),
        (ElectorKind::OmegaLc, 0.9982, 62.38),
    ] {
        cells.push(Cell {
            label: format!("{} (100ms, 0.1) n=12", algorithm.service_name()),
            scenario: Scenario::paper_default(algorithm, LinkSpec::from_paper_tuple(100.0, 0.1))
                .with_duration(duration),
            paper: PaperValues {
                availability: Some(avail),
                kbytes_per_sec: Some(traffic),
                mistakes_per_hour: Some(0.0),
                ..Default::default()
            },
        });
    }
    Figure {
        id: "headline",
        caption: "Headline numbers (Sections 1 and 6.5)",
        metrics: &["P_leader", "KB/s/workst.", "mistakes/h"],
        cells,
    }
}

/// Every figure's constructor, in `reproduce` order; each figure's id is
/// the one its constructor gives it.
pub const FIGURES: [fn(SimDuration) -> Figure; 7] = [fig3, fig4, fig5, fig6, fig7, fig8, headline];

/// Every figure, with the given per-cell measured duration.
pub fn all_figures(duration: SimDuration) -> Vec<Figure> {
    FIGURES.iter().map(|figure| figure(duration)).collect()
}

/// The figure ids, in [`FIGURES`] order.
pub fn figure_ids() -> Vec<&'static str> {
    all_figures(SimDuration::ZERO)
        .iter()
        .map(|figure| figure.id)
        .collect()
}

/// Looks a figure up by one of its [`figure_ids`].
pub fn figure_by_id(id: &str, duration: SimDuration) -> Option<Figure> {
    all_figures(duration)
        .into_iter()
        .find(|figure| figure.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_are_defined_with_cells() {
        let figures = all_figures(SimDuration::from_secs(60));
        assert_eq!(figures.len(), 7);
        for figure in &figures {
            assert!(!figure.cells.is_empty(), "{} has no cells", figure.id);
            assert!(!figure.metrics.is_empty());
        }
        // Expected cell counts per figure.
        assert_eq!(figures[0].cells.len(), 5); // fig3
        assert_eq!(figures[1].cells.len(), 10); // fig4
        assert_eq!(figures[2].cells.len(), 10); // fig5
        assert_eq!(figures[3].cells.len(), 12); // fig6
        assert_eq!(figures[4].cells.len(), 6); // fig7
        assert_eq!(figures[5].cells.len(), 10); // fig8
        assert_eq!(figures[6].cells.len(), 2); // headline
    }

    #[test]
    fn figure_lookup_by_id() {
        let ids = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "headline"];
        assert_eq!(figure_ids(), ids, "the reproduce order");
        for id in ids {
            let figure = figure_by_id(id, SimDuration::from_secs(60)).expect("a listed id");
            assert_eq!(figure.id, id);
        }
        assert!(figure_by_id("nope", SimDuration::from_secs(60)).is_none());
    }

    #[test]
    fn fig6_cells_run_at_most_ten_minutes() {
        let hour = SimDuration::from_secs(3600);
        let fig6 = figure_by_id("fig6", hour).expect("fig6");
        assert!(fig6
            .cells
            .iter()
            .all(|c| c.scenario.duration == SimDuration::from_secs(600)));
        let fig5 = figure_by_id("fig5", hour).expect("fig5");
        assert!(fig5.cells.iter().all(|c| c.scenario.duration == hour));
    }

    #[test]
    fn fig8_varies_the_detection_bound() {
        let figure = fig8(SimDuration::from_secs(60));
        let bounds: Vec<u64> = figure
            .cells
            .iter()
            .map(|c| c.scenario.qos.detection_time().as_millis())
            .collect();
        assert!(bounds.contains(&100));
        assert!(bounds.contains(&1000));
    }

    #[test]
    fn fig6_varies_group_size() {
        let figure = fig6(SimDuration::from_secs(60));
        let sizes: Vec<usize> = figure.cells.iter().map(|c| c.scenario.nodes).collect();
        assert!(sizes.contains(&4));
        assert!(sizes.contains(&8));
        assert!(sizes.contains(&12));
    }
}
