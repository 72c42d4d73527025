//! Short versions of the paper's figure scenarios, runnable as a bench.
//!
//! These keep `cargo bench` quick (a couple of virtual minutes per cell);
//! use the `reproduce` binary for full-length regeneration of the tables.

use sle_bench::bench_once;
use sle_chaos::{regime_shift, run_plan, ChaosReport, FaultPlan, Scenario};
use sle_election::ElectorKind;
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_sim::actor::NodeId;
use sle_sim::time::SimDuration;

/// Runs `scenario` for two measured minutes on the chaos engine.
fn quick(scenario: Scenario) -> ChaosReport {
    run_plan(
        &scenario.with_duration(SimDuration::from_secs(120)),
        &FaultPlan::quiet(),
    )
}

fn main() {
    bench_once("figure_cells_2min/fig4_S2_lossy_100ms_0.1", || {
        quick(Scenario::paper_default(
            ElectorKind::OmegaLc,
            LinkSpec::from_paper_tuple(100.0, 0.1),
        ))
    });
    bench_once("figure_cells_2min/fig5_S3_lossy_100ms_0.1", || {
        quick(Scenario::paper_default(
            ElectorKind::OmegaL,
            LinkSpec::from_paper_tuple(100.0, 0.1),
        ))
    });
    bench_once("figure_cells_2min/fig7_S2_link_crashes_60s", || {
        quick(
            Scenario::paper_default(ElectorKind::OmegaLc, LinkSpec::lan())
                .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60)),
        )
    });
    bench_once("figure_cells_2min/fig3_S1_lan", || {
        quick(Scenario::paper_default(
            ElectorKind::OmegaId,
            LinkSpec::lan(),
        ))
    });
    bench_once("regime_shift/static_vs_adaptive", || {
        let (scenario, plan) = regime_shift(ElectorKind::OmegaL);
        let adaptive = scenario.clone().with_adaptive((0..6).map(NodeId));
        [scenario, adaptive].map(|scenario| run_plan(&scenario, &plan))
    });
}
