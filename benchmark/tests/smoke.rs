//! Runs the built benchmark the way the driver does, at `--smoke` sizes:
//! every workload, both passes, must build, run, pass its own checks and
//! print the full metric set on its last line.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");
const WORKLOADS: [&str; 4] = ["sim-steady", "sim-churn", "rt-udp-steady", "app-failover"];

struct Run {
    ok: bool,
    report: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.as_str()));
    Run {
        ok: output.status.success(),
        report: report.to_string(),
        result: result.to_string(),
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let start = contract
        .find(&format!("\"{section}\": ["))
        .expect("section");
    let body = &contract[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name end")].to_string())
        .collect()
}

/// The value printed for `name` on a result line.
fn metric(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    rest[..rest.find(',').expect("value end")]
        .parse()
        .expect("a number")
}

/// The value of a `  key: value` line of the report.
fn detail(report: &str, key: &str) -> String {
    report
        .lines()
        .find_map(|line| line.trim().strip_prefix(&format!("{key}: ")))
        .unwrap_or_else(|| panic!("no {key} line in\n{report}"))
        .to_string()
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric_in_both_passes() {
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = run(workload, 3, trace);
            assert!(run.ok, "{workload} trace {trace} failed:\n{}", run.report);
            assert!(
                run.result
                    .starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace {trace}: {}",
                run.result
            );
            assert!(run.result.contains("\"failed\": 0,"), "{}", run.result);
            let names = contract_names(section);
            assert!(!names.is_empty());
            for name in &names {
                let value = metric(&run.result, name);
                assert!(value.is_finite(), "{workload} {name}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload} {name} = {value}");
                }
            }
            // Exactly the contract's metrics, no more.
            assert_eq!(
                run.result.matches("{\"value\": ").count(),
                names.len(),
                "{workload} trace {trace}"
            );
        }
    }
}

#[test]
fn the_layers_separate_as_predicted() {
    let sim_steady = run("sim-steady", 3, 1).result;
    let sim_churn = run("sim-churn", 3, 1).result;
    let rt = run("rt-udp-steady", 3, 1).result;
    let app = run("app-failover", 3, 1).result;
    // wire / udp do no work under the simulator or on the mesh …
    for result in [&sim_steady, &sim_churn, &app] {
        assert_eq!(metric(result, "wire.frames"), 0.0);
        assert_eq!(metric(result, "udp.plane.send_ns_per_record"), 0.0);
        assert_eq!(metric(result, "udp.plane.records_per_datagram"), 0.0);
    }
    assert!(metric(&rt, "wire.frames") > 0.0);
    assert!(metric(&rt, "udp.plane.records_per_datagram") >= 1.0);
    assert!(metric(&rt, "wire.encode_ns.hello") > 0.0);
    // … and the simulator none on the wall-clock workloads.
    for result in [&rt, &app] {
        assert_eq!(metric(result, "sim.world.events"), 0.0);
        assert_eq!(metric(result, "sim.wheel.push_ns"), 0.0);
        assert_eq!(metric(result, "net.network.msgs"), 0.0);
    }
    // Accusations belong to the fault path.
    assert_eq!(
        metric(&sim_steady, "core.node.on_message_calls.accuse"),
        0.0
    );
    assert!(metric(&sim_churn, "core.node.on_message_calls.accuse") > 0.0);
    assert!(metric(&sim_churn, "qos.recovery_samples") > 0.0);
    assert!(metric(&sim_churn, "obs.registry.series") > 0.0);
    assert_eq!(metric(&sim_steady, "obs.registry.series"), 0.0);
    // The client tier only exists on app-failover.
    assert!(metric(&app, "app.client.req_samples") > 0.0);
    assert!(metric(&app, "app.failover_p50_ms") > 0.0);
    assert_eq!(metric(&rt, "app.client.req_samples"), 0.0);
}

#[test]
fn simulated_runs_repeat_exactly_for_a_seed_and_differ_for_another() {
    for workload in ["sim-steady", "sim-churn"] {
        let first = run(workload, 5, 0);
        let again = run(workload, 5, 0);
        let other = run(workload, 6, 0);
        let traced = run(workload, 5, 1);
        assert!(first.ok && again.ok && other.ok && traced.ok);
        for key in [
            "events",
            "messages",
            "workstation_crashes",
            "leader_availability",
        ] {
            assert_eq!(
                detail(&first.report, key),
                detail(&again.report, key),
                "{workload} {key}"
            );
        }
        assert_eq!(
            metric(&first.result, "unavailable_frac"),
            metric(&again.result, "unavailable_frac")
        );
        // The traced pass reproduces the untraced pass's counts.
        assert_eq!(
            detail(&first.report, "events"),
            format!("{}", metric(&traced.result, "sim.world.events"))
        );
        assert_eq!(
            detail(&first.report, "messages"),
            format!("{}", metric(&traced.result, "net.network.msgs"))
        );
        if workload == "sim-churn" {
            assert_ne!(
                detail(&first.report, "events"),
                detail(&other.report, "events")
            );
        }
    }
}

#[test]
fn usage_errors_and_the_contract() {
    let unknown = Command::new(EXE)
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run");
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
    let bad = Command::new(EXE).arg("--bogus").output().expect("run");
    assert_eq!(bad.status.code(), Some(2));
    let contract = Command::new(EXE)
        .arg("--emit-contract")
        .output()
        .expect("run");
    assert!(contract.status.success());
    assert_eq!(
        String::from_utf8(contract.stdout).expect("utf-8"),
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json")
    );
}
