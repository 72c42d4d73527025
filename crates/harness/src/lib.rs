//! # sle-harness — the DSN 2008 evaluation, run and checked
//!
//! This crate is the paper's evaluation (Section 6): the workload (12
//! workstations crashing every 10 minutes on average over lossy or
//! crash-prone links), the QoS metrics of Section 5 (leader recovery time,
//! mistake rate, leader availability), the bandwidth accounting of Section
//! 6.5 and one scenario set per figure — and the one driver of a simulated
//! deployment, which runs each of them and also *searches* for schedules
//! that break the service.
//!
//! The evaluation, described:
//!
//! * [`scenario`] — the run description ([`Scenario`]),
//! * [`crash`] — the workstation crash/recovery schedule,
//! * [`metrics`] — the metrics collector ([`MetricsCollector`]),
//! * [`figures`] — per-figure cell definitions with the paper's values,
//! * [`report`] — paper-vs-measured table rendering,
//! * [`stats`] — summary statistics (mean, 95% CI),
//! * [`deploy`] — strided multi-group deployment shapes shared by the
//!   scale tests and the benchmark.
//!
//! The evaluation, run and checked:
//!
//! * [`engine`] — runs a fault plan against a [`Scenario`] (a sweep seed,
//!   a figure cell, or the static-vs-adaptive [`regime`] shift) and reports
//!   the invariant verdict beside the paper's QoS metrics. [`run_plan`] is
//!   [`run_plan_parallel`] on one sim worker, and the report is the same
//!   for every worker count.
//! * [`plan`] — a fault-plan DSL: timed, seed-driven injections of network
//!   partitions and healing, workstation churn (crash/recover, mid-run
//!   join/leave, killing the current leader), message duplication /
//!   reordering / burst-loss overlays, and delay steps.
//! * [`trace`] and [`convert`] — the run's event trace, recorded by the
//!   engine or lifted from a drained `sle-obs` protocol trace.
//! * [`invariants`] — a checker replaying that trace against
//!   machine-checked statements of the paper's properties: eventual
//!   agreement, leader stability, the mistake-recurrence QoS bound, and
//!   "no two simultaneous stable leaders in one partition component".
//! * [`sweep`] — a multi-seed sweep runner executing N seeds × M fault
//!   plans across S1/S2/S3, shrinking ([`shrink`]) every failing seed to a
//!   1-minimal plan and rendering it as a ready-to-paste `#[test]`.
//!
//! Two binaries drive it: `reproduce` runs every figure's cells and prints
//! paper-vs-measured tables, and `chaos_sweep` runs the sweep from the
//! command line and CI. See `docs/CHAOS.md` for the DSL reference, the
//! precise invariant definitions (with paper-section references), and the
//! workflow for turning a sweep failure into a regression test.
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
//!
//! ## Example: a partition experiment in four lines
//!
//! ```
//! use sle_harness::{run_plan, FaultAction, FaultPlan, Scenario};
//! use sle_election::ElectorKind;
//! use sle_sim::actor::NodeId;
//! use sle_sim::time::SimDuration;
//!
//! let plan = FaultPlan::new("split-then-heal")
//!     .at(12.0, FaultAction::Partition(vec![
//!         vec![NodeId(0)],
//!         vec![NodeId(1), NodeId(2), NodeId(3)],
//!     ]))
//!     .at(20.0, FaultAction::Heal);
//! let scenario = Scenario::new(ElectorKind::OmegaL, 4)
//!     .with_duration(SimDuration::from_secs(30));
//! let report = run_plan(&scenario, &plan);
//! assert!(report.ok(), "invariant violations: {:#?}", report.violations);
//! assert!(report.network.partitioned > 0, "the partition did bite");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod convert;
pub mod crash;
pub mod deploy;
pub mod engine;
pub mod figures;
pub mod invariants;
pub mod metrics;
pub mod plan;
pub mod regime;
pub mod report;
pub mod scenario;
pub mod shrink;
pub mod stats;
pub mod sweep;
pub mod trace;

pub use convert::{convert_record, convert_trace};
pub use crash::{CrashEvent, CrashPlan, CrashProfile};
pub use engine::{run_plan, run_plan_parallel, ChaosReport};
pub use figures::{
    all_figures, figure_by_id, figure_ids, Cell, CellResult, Figure, PaperValues, FIGURES,
};
pub use invariants::{check_trace, InvariantSpec, Violation, ViolationKind};
pub use metrics::{ExperimentMetrics, MetricsCollector, TrafficMeter};
pub use plan::{link_to_code, FaultAction, FaultPlan, PlanKind, TimedAction};
pub use regime::{crash_detection, regime_shift};
pub use report::{render_figure, render_figure_markdown};
pub use scenario::{Scenario, EXPERIMENT_GROUP};
pub use shrink::{shrink_plan, Shrunk};
pub use stats::Summary;
pub use sweep::{
    render_regression_test, run_sweep, CellSummary, SweepConfig, SweepFailure, SweepSummary,
};
pub use trace::{TraceEvent, TraceEventKind, TraceRecorder};
