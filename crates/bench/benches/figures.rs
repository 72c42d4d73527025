//! Short versions of the paper's figure scenarios, runnable as a bench.
//!
//! These keep `cargo bench` quick (a couple of virtual minutes per cell);
//! use the `reproduce` binary for full-length regeneration of the tables.

use sle_bench::bench_once;
use sle_election::ElectorKind;
use sle_harness::{RegimeShiftScenario, Scenario};
use sle_net::link::{LinkCrashSpec, LinkSpec};
use sle_sim::time::SimDuration;

fn quick(scenario: Scenario) -> Scenario {
    scenario.with_duration(SimDuration::from_secs(120))
}

fn main() {
    bench_once("figure_cells_2min/fig4_S2_lossy_100ms_0.1", || {
        quick(Scenario::paper_default(
            "bench",
            ElectorKind::OmegaLc,
            LinkSpec::from_paper_tuple(100.0, 0.1),
        ))
        .run()
    });
    bench_once("figure_cells_2min/fig5_S3_lossy_100ms_0.1", || {
        quick(Scenario::paper_default(
            "bench",
            ElectorKind::OmegaL,
            LinkSpec::from_paper_tuple(100.0, 0.1),
        ))
        .run()
    });
    bench_once("figure_cells_2min/fig7_S2_link_crashes_60s", || {
        quick(
            Scenario::paper_default("bench", ElectorKind::OmegaLc, LinkSpec::lan())
                .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60)),
        )
        .run()
    });
    bench_once("figure_cells_2min/fig3_S1_lan", || {
        quick(Scenario::paper_default(
            "bench",
            ElectorKind::OmegaId,
            LinkSpec::lan(),
        ))
        .run()
    });
    bench_once("regime_shift/static_vs_adaptive", || {
        RegimeShiftScenario::improving_network("bench", ElectorKind::OmegaL).compare()
    });
}
