//! The multi-seed sweep runner: N seeds × M fault-plan families × the three
//! services, each failure shrunk to a minimal reproducer and rendered as a
//! ready-to-paste `#[test]`.

use sle_core::NodeCount;
use sle_election::ElectorKind;
use sle_obs::{MetricValue, Snapshot, TraceRecord};
use sle_sim::time::SimDuration;

use crate::engine::run_plan;
use crate::invariants::Violation;
use crate::plan::{link_to_code, FaultPlan, PlanKind};
use crate::scenario::Scenario;
use crate::shrink::shrink_plan;

/// What to sweep over.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Services under test.
    pub algorithms: Vec<ElectorKind>,
    /// Fault-plan families.
    pub plans: Vec<PlanKind>,
    /// Number of seeds per (algorithm, family) cell.
    pub seeds: u64,
    /// First seed; cell `k` uses `seed_base + k`.
    pub seed_base: u64,
    /// The workload of every run (workstations, link, QoS, fault window,
    /// settle window); each run sets its own algorithm and seed.
    pub scenario: Scenario,
    /// Whether to shrink failing plans (disable for a faster triage pass).
    pub shrink_failures: bool,
}

impl SweepConfig {
    /// The acceptance sweep: 50 seeds × all six families × S1/S2/S3.
    pub fn new() -> Self {
        SweepConfig {
            algorithms: ElectorKind::all().to_vec(),
            plans: PlanKind::all().to_vec(),
            seeds: 50,
            seed_base: 1000,
            scenario: Scenario::new(ElectorKind::OmegaLc, 5),
            shrink_failures: true,
        }
    }

    /// The CI smoke sweep: a pinned handful of seeds, sized to finish well
    /// under 30 s of wall-clock time.
    pub fn smoke() -> Self {
        let mut config = SweepConfig::new().with_seeds(4);
        config.scenario.duration = SimDuration::from_secs(35);
        config
    }

    /// Overrides the number of seeds per cell.
    pub fn with_seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::new()
    }
}

/// One failing sweep cell, shrunk and rendered.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The service that failed.
    pub algorithm: ElectorKind,
    /// The fault-plan family.
    pub plan_name: String,
    /// The failing seed.
    pub seed: u64,
    /// The violations of the original run.
    pub violations: Vec<Violation>,
    /// The 1-minimal plan that still fails.
    pub shrunk: FaultPlan,
    /// A ready-to-paste `#[test]` reproducing the failure.
    pub reproducer: String,
    /// End-of-run metrics registry snapshot of the failing run.
    pub metrics: Snapshot,
    /// The last events of the failing run's protocol trace.
    pub proto_tail: Vec<TraceRecord>,
}

/// How many trailing protocol-trace events a failure report keeps.
const PROTO_TAIL: usize = 12;

/// The `CellSummary::counts` slot of the per-group `fd.mistakes`, after
/// the node counters.
const REVIVALS: usize = NodeCount::COUNT;

/// The registry suffix `CellSummary::counts[slot]` sums, below `node.<n>.`.
fn summed_suffix(slot: usize) -> &'static str {
    NodeCount::ALL
        .get(slot)
        .map_or("fd.mistakes", |count| count.suffix())
}

/// Aggregate results of one cell (algorithm × family).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The service.
    pub algorithm: ElectorKind,
    /// The fault-plan family name.
    pub plan_name: String,
    /// Seeds run.
    pub runs: u64,
    /// Seeds that violated an invariant.
    pub failed: u64,
    /// Summed over the cell's runs and nodes: every node counter, at its
    /// [`NodeCount`] index, then the per-group `fd.mistakes` — suspected
    /// peers revived by a later ALIVE, each one a datagram that had to leave
    /// the repeat path. A node's counters span all its incarnations.
    pub counts: [u64; NodeCount::COUNT + 1],
}

impl CellSummary {
    /// `count` summed over the cell's runs and nodes.
    pub fn count(&self, count: NodeCount) -> u64 {
        self.counts[count as usize]
    }

    /// `fd.mistakes` summed over the cell's runs, nodes and groups.
    pub fn revivals(&self) -> u64 {
        self.counts[REVIVALS]
    }
}

/// A summary table column: header, width and what it shows of a cell.
type Column = (&'static str, usize, fn(&CellSummary) -> u64);

/// The summary table's columns after service and plan.
const COLUMNS: [Column; 14] = [
    ("runs", 6, |c| c.runs),
    ("failed", 8, |c| c.failed),
    ("hello pulls", 12, |c| c.count(NodeCount::HelloPullsSent)),
    ("hello stale", 12, |c| c.count(NodeCount::HelloStaleIgnored)),
    ("alive same", 12, |c| c.count(NodeCount::AliveUnchanged)),
    ("alive appl.", 12, |c| c.count(NodeCount::AliveApplied)),
    ("plan rbld", 10, |c| c.count(NodeCount::AlivePlanRebuilds)),
    ("reentries", 10, |c| c.count(NodeCount::AliveReentries)),
    ("grace ends", 11, |c| c.count(NodeCount::GraceEndedEarly)),
    ("revivals", 9, CellSummary::revivals),
    ("fd fires", 9, |c| c.count(NodeCount::FdFires)),
    ("fd walks", 9, |c| c.count(NodeCount::FdWalks)),
    ("fd moves", 9, |c| c.count(NodeCount::FdReconfigurations)),
    ("hello walks", 12, |c| c.count(NodeCount::HelloMemberWalks)),
];

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Total runs executed.
    pub runs: u64,
    /// Per-cell aggregates, in execution order.
    pub cells: Vec<CellSummary>,
    /// Every failure, shrunk and rendered.
    pub failures: Vec<SweepFailure>,
}

impl SweepSummary {
    /// True if every run upheld every invariant.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// `read` summed over the cells of `family`.
    fn total(&self, family: &str, read: impl Fn(&CellSummary) -> u64) -> u64 {
        let cells = self.cells.iter().filter(|c| c.plan_name == family);
        cells.map(read).sum()
    }

    /// Checks that the sweep put the HELLO pull path and the stale-version
    /// drop under the invariant checker: every membership-churn and
    /// duplication/reordering family must have sent pulls in at least one
    /// run, and at least one of those runs must have dropped a stale HELLO.
    /// `hello.pulls_sent` counts only the pulls of a node that found itself
    /// behind a peer, not the one every start sends, so a family passes only
    /// if its faults moved some version.
    /// (`chaos_sweep --smoke` fails otherwise: a sweep that never leaves the
    /// digest fast path proves nothing about the rest.)
    ///
    /// # Errors
    ///
    /// Names what was not exercised.
    pub fn hello_paths_exercised(&self) -> Result<(), String> {
        let families = [
            PlanKind::MemberChurn,
            PlanKind::LargeChurn,
            PlanKind::DupReorder,
        ];
        let mut stale = 0;
        for family in families.map(|kind| kind.name()) {
            let total = |count| self.total(family, |c| c.count(count));
            if total(NodeCount::HelloPullsSent) == 0 {
                return Err(format!("no {family} run sent a HELLO pull"));
            }
            stale += total(NodeCount::HelloStaleIgnored);
        }
        if stale == 0 {
            return Err("no churn or duplication run dropped a stale HELLO".to_string());
        }
        Ok(())
    }

    /// Checks that the sweep put both ALIVE receive paths under the
    /// invariant checker where it matters: every family that silences or
    /// crashes a live peer, and the duplication and reordering that send
    /// late copies, must have repeated what the rows hold (the stamp path)
    /// and applied some, and the partitions must have healed into revivals
    /// — a revival is a datagram that says what the rows hold and still
    /// had to be applied, because a suspicion came between. The silencing
    /// families must show both kinds of detector fire: re-armed from the
    /// peer's wake without touching a group, and walking the peer's groups.
    /// The partitions and the membership churn must show both kinds of
    /// HELLO tick likewise: some peers' groups walked, and fewer walks than
    /// the digests sent (one per peer and tick), so most peers left alone.
    /// Under Ω_l (S3) the partitions and the leader churn must have re-armed
    /// the ALIVE tick at once for a group that started sending again after
    /// its slot passed: the re-entry a suspected or crashed leader draws.
    ///
    /// # Errors
    ///
    /// Names what was not exercised.
    pub fn alive_paths_exercised(&self) -> Result<(), String> {
        for kind in [
            PlanKind::PartitionHeal,
            PlanKind::LeaderChurn,
            PlanKind::DupReorder,
        ] {
            let family = kind.name();
            let total = |count| self.total(family, |c| c.count(count));
            let unchanged = total(NodeCount::AliveUnchanged);
            let applied = total(NodeCount::AliveApplied);
            if unchanged == 0 || applied == 0 {
                return Err(format!(
                    "{family} runs took one ALIVE path only ({unchanged} unchanged, {applied} applied)"
                ));
            }
            if kind == PlanKind::DupReorder {
                continue;
            }
            if kind == PlanKind::PartitionHeal && self.total(family, CellSummary::revivals) == 0 {
                return Err(format!("no {family} run revived a suspected peer"));
            }
            let s3 = |c: &&CellSummary| c.plan_name == family && c.algorithm == ElectorKind::OmegaL;
            let reentries = |c: &CellSummary| c.count(NodeCount::AliveReentries);
            if self.cells.iter().filter(s3).map(reentries).sum::<u64>() == 0 {
                return Err(format!("no S3 {family} run sent an ALIVE at its re-entry"));
            }
            let (fires, walks) = (total(NodeCount::FdFires), total(NodeCount::FdWalks));
            if walks == 0 || walks == fires {
                return Err(format!(
                    "{family} runs took one detector-timer path only ({fires} fires, {walks} walks)"
                ));
            }
        }
        for kind in [PlanKind::PartitionHeal, PlanKind::MemberChurn] {
            let family = kind.name();
            let total = |count| self.total(family, |c| c.count(count));
            let digests = total(NodeCount::HelloDigestSent);
            let walks = total(NodeCount::HelloMemberWalks);
            if walks == 0 || walks >= digests {
                return Err(format!(
                    "{family} runs took one HELLO-tick path only ({digests} digests, {walks} member walks)"
                ));
            }
        }
        Ok(())
    }

    /// Checks that the sweep moved an operating point (η, δ) on a repeated
    /// ALIVE datagram under the invariant checker: the one move that must
    /// drop a cached detector wake no applied datagram drops. Loss, reordering and
    /// a delay step move the link estimate, so the duplication/reordering
    /// and drift families must have done it between them.
    ///
    /// # Errors
    ///
    /// Names what was not exercised.
    pub fn fd_moves_exercised(&self) -> Result<(), String> {
        let families = [PlanKind::DupReorder, PlanKind::DriftStep].map(|kind| kind.name());
        let moves = |family| self.total(family, |c| c.count(NodeCount::FdMovesOnRepeats));
        if families.into_iter().map(moves).sum::<u64>() == 0 {
            return Err(format!(
                "no {} or {} run moved an operating point on a repeated ALIVE batch",
                families[0], families[1]
            ));
        }
        Ok(())
    }

    /// Checks that every service ended a self-election grace early, on a
    /// complete view, under the invariant checker: every family starts
    /// cold, so a service that never did ran only the 2·T_D fallback.
    ///
    /// # Errors
    ///
    /// Names the service that did not.
    pub fn grace_ends_exercised(&self) -> Result<(), String> {
        for algorithm in ElectorKind::all() {
            let cells = self.cells.iter().filter(|c| c.algorithm == algorithm);
            let ends: u64 = cells.map(|c| c.count(NodeCount::GraceEndedEarly)).sum();
            if ends == 0 && self.cells.iter().any(|c| c.algorithm == algorithm) {
                let label = algorithm_label(algorithm);
                return Err(format!("no {label} run ended a self-election grace early"));
            }
        }
        Ok(())
    }

    /// Renders the summary as a text table (printed by the `chaos_sweep`
    /// binary and published as the CI artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos sweep: {} runs, {} failing\n\n",
            self.runs,
            self.failures.len()
        ));
        out.push_str(&format!("{:<10} {:<16}", "service", "plan"));
        for (header, width, _) in COLUMNS {
            out.push_str(&format!(" {header:>width$}"));
        }
        out.push('\n');
        for cell in &self.cells {
            let label = algorithm_label(cell.algorithm);
            out.push_str(&format!("{label:<10} {:<16}", cell.plan_name));
            for (_, width, value) in COLUMNS {
                out.push_str(&format!(" {:>width$}", value(cell)));
            }
            out.push('\n');
        }
        for failure in &self.failures {
            out.push_str(&format!(
                "\n--- FAILURE: {} / {} / seed {} ---\n",
                algorithm_label(failure.algorithm),
                failure.plan_name,
                failure.seed
            ));
            for violation in &failure.violations {
                out.push_str(&format!("  {violation}\n"));
            }
            out.push_str(&render_failure_metrics(&failure.metrics));
            if !failure.proto_tail.is_empty() {
                out.push_str(&format!(
                    "  last {} protocol events:\n",
                    failure.proto_tail.len()
                ));
                for record in &failure.proto_tail {
                    out.push_str(&format!("    {record}\n"));
                }
            }
            out.push_str(&format!(
                "  shrunk to {} action(s); regression test:\n\n{}\n",
                failure.shrunk.len(),
                failure.reproducer
            ));
        }
        out
    }
}

/// A compact digest of the failing run's registry snapshot: the aggregate
/// QoS histograms, the mistake count, and the network counters.
fn render_failure_metrics(metrics: &Snapshot) -> String {
    let mut out = String::new();
    let detection = metrics.merged_histogram("node.", ".fd.detection_ns");
    let election = metrics.merged_histogram("node.", ".elect.election_ns");
    let mistakes = metrics.sum_counters("node.", ".fd.mistakes");
    out.push_str(&format!(
        "  metrics: {} detections (p99 {:.1} ms), {} elections (p99 {:.1} ms), {} mistakes\n",
        detection.count,
        detection.percentile_ms(0.99),
        election.count,
        election.percentile_ms(0.99),
        mistakes,
    ));
    let gauge = |name: &str| match metrics.get(name) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    };
    out.push_str(&format!(
        "  network: {} offered, {} lost, {} blocked, {} partitioned\n",
        gauge("sim.net.offered"),
        gauge("sim.net.lost"),
        gauge("sim.net.blocked"),
        gauge("sim.net.partitioned"),
    ));
    out
}

/// `S2/omega-lc` for Ωlc.
fn algorithm_label(algorithm: ElectorKind) -> String {
    let name = algorithm.algorithm_name().to_lowercase();
    format!("{}/{}", algorithm.service_name(), name.replace('_', "-"))
}

/// Runs the whole sweep, shrinking and rendering every failure.
pub fn run_sweep(config: &SweepConfig) -> SweepSummary {
    let mut runs = 0u64;
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for &algorithm in &config.algorithms {
        for &kind in &config.plans {
            let mut cell = CellSummary {
                algorithm,
                plan_name: kind.name().to_string(),
                runs: config.seeds,
                failed: 0,
                counts: [0; NodeCount::COUNT + 1],
            };
            // Scale-hungry families (LargeChurn needs room for 100+
            // processes) raise the deployment to their floor; the others
            // keep the sweep's configured size.
            let nodes = config.scenario.nodes.max(kind.min_nodes());
            for offset in 0..config.seeds {
                let seed = config.seed_base + offset;
                let scenario = Scenario {
                    algorithm,
                    nodes,
                    seed,
                    ..config.scenario.clone()
                };
                let plan = kind.generate(nodes, scenario.duration, scenario.link, seed);
                let report = run_plan(&scenario, &plan);
                runs += 1;
                for (slot, sum) in cell.counts.iter_mut().enumerate() {
                    let suffix = format!(".{}", summed_suffix(slot));
                    *sum += report.metrics.sum_counters("node.", &suffix);
                }
                if report.ok() {
                    continue;
                }
                cell.failed += 1;
                let shrunk = if config.shrink_failures {
                    shrink_plan(&scenario, &plan).plan
                } else {
                    plan.clone()
                };
                let reproducer = render_regression_test(&scenario, &shrunk, kind.name(), seed);
                let tail_from = report.proto_trace.len().saturating_sub(PROTO_TAIL);
                failures.push(SweepFailure {
                    algorithm,
                    plan_name: kind.name().to_string(),
                    seed,
                    violations: report.violations,
                    shrunk,
                    reproducer,
                    metrics: report.metrics,
                    proto_tail: report.proto_trace[tail_from..].to_vec(),
                });
            }
            cells.push(cell);
        }
    }
    SweepSummary {
        runs,
        cells,
        failures,
    }
}

/// Renders a failing `(scenario, plan)` pair of a sweep as a self-contained
/// `#[test]` function, ready to paste into `crates/harness/tests/`. It
/// renders the fields a sweep sets: a sweep scenario has no warm-up, no
/// crash process and no link-crash overlay.
pub fn render_regression_test(
    scenario: &Scenario,
    plan: &FaultPlan,
    family: &str,
    seed: u64,
) -> String {
    let mut actions = String::new();
    for timed in plan.actions() {
        actions.push_str(&format!(
            "\n        .at_nanos({}, {})",
            timed.at.as_nanos(),
            timed.action.to_code()
        ));
    }
    // The algorithm is part of the name: the same (family, seed) failing on
    // two services must render two distinct `#[test]` functions.
    let slug = format!(
        "{}_{}",
        scenario.algorithm.algorithm_name().to_lowercase(),
        family.replace('-', "_")
    );
    format!(
        "#[test]\n\
         fn chaos_regression_{slug}_seed_{seed}() {{\n\
         \x20   let plan = sle_harness::FaultPlan::new(\"{name}\"){actions};\n\
         \x20   let scenario = sle_harness::Scenario::new(\n\
         \x20       sle_election::ElectorKind::{algorithm:?},\n\
         \x20       {nodes},\n\
         \x20   )\n\
         \x20   .with_seed({seed})\n\
         \x20   .with_link({link})\n\
         \x20   .with_qos(\n\
         \x20       sle_fd::QosSpec::new(\n\
         \x20           sle_sim::SimDuration::from_nanos({qos_td}),\n\
         \x20           sle_sim::SimDuration::from_nanos({qos_tmr}),\n\
         \x20           {qos_pa:?},\n\
         \x20       )\n\
         \x20       .expect(\"valid QoS\"),\n\
         \x20   )\n\
         \x20   .with_duration(sle_sim::SimDuration::from_nanos({duration}))\n\
         \x20   .with_settle(sle_sim::SimDuration::from_nanos({settle}));\n\
         \x20   let report = sle_harness::run_plan(&scenario, &plan);\n\
         \x20   assert!(report.ok(), \"invariant violations: {{:#?}}\", report.violations);\n\
         }}\n",
        slug = slug,
        seed = seed,
        name = plan.name(),
        actions = actions,
        algorithm = scenario.algorithm,
        nodes = scenario.nodes,
        link = link_to_code(&scenario.link),
        qos_td = scenario.qos.detection_time().as_nanos(),
        qos_tmr = scenario.qos.mistake_recurrence().as_nanos(),
        qos_pa = scenario.qos.availability(),
        duration = scenario.duration.as_nanos(),
        settle = scenario.settle.as_nanos(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_fd::QosSpec;
    use sle_net::link::LinkSpec;

    #[test]
    fn a_small_healthy_sweep_is_clean() {
        let mut config = SweepConfig::new().with_seeds(2);
        config.scenario = Scenario::new(ElectorKind::OmegaLc, 4)
            .with_link(LinkSpec::lan())
            .with_duration(SimDuration::from_secs(35));
        let summary = run_sweep(&config);
        assert_eq!(summary.runs, 2 * 6 * 3);
        assert!(summary.ok(), "{}", summary.render());
        assert_eq!(summary.cells.len(), 18);
        assert!(summary.render().contains("chaos sweep"));
        assert!(summary.render().contains("large-churn"));
        assert!(summary.render().contains("hello pulls"));
        // The churn and duplication families leave the digest fast path;
        // the partition, crash and duplication families take both ALIVE
        // paths.
        assert_eq!(summary.hello_paths_exercised(), Ok(()));
        assert_eq!(summary.alive_paths_exercised(), Ok(()));
        assert_eq!(summary.fd_moves_exercised(), Ok(()));
        assert_eq!(summary.grace_ends_exercised(), Ok(()));
        assert!(summary.render().contains("alive same"));
        assert!(summary.render().contains("grace ends"));
        assert!(summary.render().contains("fd walks"));
        assert!(summary.render().contains("fd moves"));
        assert!(summary.render().contains("hello walks"));
    }

    #[test]
    fn a_weakened_detector_is_caught_and_rendered() {
        let weakened = QosSpec::new(
            SimDuration::from_millis(40),
            SimDuration::from_secs(3600),
            0.999,
        )
        .unwrap();
        let config = SweepConfig {
            algorithms: vec![ElectorKind::OmegaLc],
            plans: vec![PlanKind::LeaderChurn],
            scenario: Scenario::new(ElectorKind::OmegaLc, 3)
                .with_qos(weakened)
                .with_link(LinkSpec::from_paper_tuple(25.0, 0.1))
                .with_duration(SimDuration::from_secs(30)),
            ..SweepConfig::new().with_seeds(1)
        };
        let summary = run_sweep(&config);
        assert!(!summary.ok(), "the weakened detector must be caught");
        let failure = &summary.failures[0];
        // The failure block carries the run's observability context.
        assert!(
            !failure.metrics.metrics.is_empty(),
            "empty metrics snapshot"
        );
        assert!(!failure.proto_tail.is_empty(), "empty protocol trace tail");
        let rendered = summary.render();
        assert!(rendered.contains("metrics:"), "{rendered}");
        assert!(rendered.contains("last "), "{rendered}");
        assert!(failure.reproducer.contains("#[test]"));
        assert!(failure
            .reproducer
            .contains("chaos_regression_omega_lc_leader_churn"));
        assert!(
            failure.shrunk.len() <= 2,
            "shrinking failed: {:?}",
            failure.shrunk
        );
        assert!(summary.render().contains("FAILURE"));
    }
}
