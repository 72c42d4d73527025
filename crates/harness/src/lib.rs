//! # sle-harness — the DSN 2008 evaluation, described
//!
//! This crate describes the paper's evaluation (Section 6): the workload
//! (12 workstations crashing every 10 minutes on average over lossy or
//! crash-prone links), the QoS metrics of Section 5 (leader recovery time,
//! mistake rate, leader availability), the bandwidth accounting of
//! Section 6.5, and one scenario set per figure. It runs none of them:
//! `sle-chaos` is the one driver of a simulated deployment, and reports
//! each run's QoS metrics beside its invariant verdict.
//!
//! * [`metrics`] — the metrics collector ([`metrics::MetricsCollector`]),
//! * [`deploy`] — strided multi-group deployment shapes shared by the
//!   scale benches and tests,
//! * [`crash`] — the workstation crash/recovery schedule,
//! * [`scenario`] — the run description ([`scenario::Scenario`]),
//! * [`figures`] — per-figure cell definitions with the paper's values,
//! * [`report`] — paper-vs-measured table rendering,
//! * [`stats`] — summary statistics (mean, 95% CI).
//!
//! The `reproduce` binary in the `sle-bench` crate runs every figure's
//! cells on the `sle-chaos` engine.
//!
//! ## Example: the paper's crash workload, in miniature
//!
//! Section 6 crashes each of 12 workstations on average every 10 minutes
//! and reports means with 95% confidence intervals; [`CrashPlan`] generates
//! that schedule and [`Summary`] does the reporting arithmetic:
//!
//! ```
//! use sle_harness::{CrashPlan, CrashProfile, Summary};
//! use sle_sim::time::SimDuration;
//!
//! let plan = CrashPlan::generate(
//!     12,
//!     SimDuration::from_secs(3600),
//!     CrashProfile::paper_default(),
//!     7,
//! );
//! // ~6 crashes per node-hour at one crash per 10 minutes of uptime.
//! assert!(plan.crash_count() > 12);
//!
//! let summary = Summary::of(&[1.0, 2.0, 3.0]);
//! assert_eq!(summary.mean, 2.0);
//! assert!(summary.ci95 > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crash;
pub mod deploy;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod stats;

pub use crash::{CrashEvent, CrashPlan, CrashProfile};
pub use figures::{
    all_figures, figure_by_id, figure_ids, Cell, CellResult, Figure, PaperValues, FIGURES,
};
pub use metrics::{ExperimentMetrics, MetricsCollector, TrafficMeter};
pub use report::{render_figure, render_figure_markdown};
pub use scenario::{Scenario, EXPERIMENT_GROUP};
pub use stats::Summary;
