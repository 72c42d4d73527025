//! Micro-benchmarks of the failure-detector building blocks: the
//! configurator search under both tuning policies, the link-quality
//! estimator and the freshness monitor's heartbeat path.

use sle_bench::{bench_loop, black_box};
use sle_fd::{
    configure, FailureDetector, LinkQuality, LinkQualityEstimator, QosSpec, TuningPolicy,
};
use sle_sim::actor::NodeId;
use sle_sim::time::{SimDuration, SimInstant};

fn bench_configurator() {
    let qos = QosSpec::paper_default();
    let ms = SimDuration::from_millis;
    // A hostile link (deep static walk, no adaptive bound below T_D^U) and
    // a clean one (first static step, adaptive bound a few steps in).
    let links = [
        ("lossy", LinkQuality::from_parts(0.1, ms(100), ms(100))),
        ("clean", LinkQuality::from_parts(0.0, ms(10), ms(1))),
    ];
    for (link, quality) in links {
        for policy in [TuningPolicy::Static, TuningPolicy::Adaptive] {
            let name = format!("fd_configure_{policy:?}_{link}").to_lowercase();
            bench_loop(&name, 100_000, || {
                configure(black_box(&qos), black_box(&quality), black_box(policy))
            });
        }
    }
}

fn bench_estimator() {
    let mut estimator = LinkQualityEstimator::new(256);
    let mut seq = 0u64;
    bench_loop(
        "link_quality_estimator_record_and_estimate",
        100_000,
        || {
            let sent = SimInstant::ZERO + SimDuration::from_millis(seq * 100);
            estimator.record(seq, sent, sent + SimDuration::from_millis(5));
            seq += 1;
            black_box(estimator.estimate())
        },
    );
}

fn bench_monitor() {
    let peer = NodeId(1);
    let mut fd = FailureDetector::new(QosSpec::paper_default());
    fd.ensure_peer(peer, SimInstant::ZERO);
    let interval = SimDuration::from_millis(250);
    let mut seq = 0u64;
    let mut now = SimInstant::ZERO;
    bench_loop("peer_monitor_heartbeat", 1_000_000, || {
        now += interval;
        seq += 1;
        black_box(fd.on_heartbeat(peer, seq, now, interval, now));
        black_box(fd.poll(now))
    });
}

fn main() {
    bench_configurator();
    bench_estimator();
    bench_monitor();
}
