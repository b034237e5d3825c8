//! Campaign-as-a-service under open-loop load: sustained throughput and
//! tail latency.
//!
//! Unlike the other benches this is not a `b.iter()` microbench — the
//! quantity of interest is how the *service* behaves when mutants are
//! offered at a fixed rate it does not control. An in-process server
//! (same classification machinery as the batch campaign, fed through the
//! bounded admission queue) is driven by the open-loop client with the
//! acceptance mix — two scenarios, one on deterministically flaky
//! hardware — and two load points are recorded:
//!
//! * **steady** — an offered rate the worker pool can sustain: latency
//!   percentiles here are queueing-free service time;
//! * **saturating** — offered far above capacity with a small queue: the
//!   shed rate and queue-bounded tail show the backpressure behaviour.
//!
//! A full (non `--test`) run records offered/sustained rates, p50/p99/
//! p99.9/max latency and the shed counters under the `service` key of
//! `BENCH_dispatch.json`. `--test` runs a fast smoke of the same round
//! trip and writes nothing.

use criterion::Criterion;
use devil_serve::{parse_mix, run_load, InProcServer, LoadConfig, LoadReport, ServeConfig};

const MIX: &str = "ide-boot/ide_piix4_c:0.9:2,mouse-stream+faults/busmouse_c:0.9";

fn drive(threads: usize, queue_cap: usize, freq: f64, total: u64) -> LoadReport {
    let server = InProcServer::start(ServeConfig {
        threads,
        queue_cap,
        ..ServeConfig::default()
    });
    let config = LoadConfig {
        freq,
        total,
        mix: parse_mix(MIX).expect("bench mix parses"),
        seed: 42,
        report_every: None,
        deadline_ms: 0,
    };
    let report = run_load(server.connect(), &config).expect("load run completes");
    let stats = server.shutdown().expect("server exits cleanly");
    assert_eq!(
        report.completed + report.shed + report.expired + report.errors,
        report.offered,
        "run must drain"
    );
    assert_eq!(report.errors, 0, "bench mix routes cleanly");
    assert_eq!(stats.completed, report.completed, "client and server books agree");
    report
}

fn json_for(report: &LoadReport, freq: f64) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    format!(
        "{{\"offered_per_sec\": {freq:.0}, \"offered\": {}, \"completed\": {}, \"shed\": {}, \
         \"sustained_per_sec\": {:.1}, \"latency_ms\": {{\"p50\": {:.2}, \"p99\": {:.2}, \
         \"p999\": {:.2}, \"max\": {:.2}}}}}",
        report.offered,
        report.completed,
        report.shed,
        report.sustained_per_sec(),
        ms(report.latency.percentile(50.0)),
        ms(report.latency.percentile(99.0)),
        ms(report.latency.percentile(99.9)),
        ms(report.latency.max()),
    )
}

fn main() {
    let c = Criterion::from_args();
    if c.is_test_mode() {
        // Smoke: a tiny open-loop run, every submission answered.
        let report = drive(2, 1024, 400.0, 60);
        println!("service smoke: {}", report.summary().replace('\n', "; "));
        return;
    }

    // Steady: a rate the pool sustains — percentiles are service time.
    let steady_freq = 400.0;
    let steady = drive(0, 1024, steady_freq, 4000);

    // Saturating: offered an order of magnitude above the steady point
    // with a small queue — backpressure must show up as sheds, not as an
    // unbounded tail.
    let sat_freq = 5000.0;
    let saturating = drive(0, 64, sat_freq, 4000);

    let threads = devil_mutagen::effective_threads(0);
    let section = format!(
        "{{\"workload\": {{\"service\": \"in-process campaign service, open-loop client, mix `{MIX}` ({} workers); steady vs saturating offered load\"}}, \"steady\": {}, \"saturating\": {}}}",
        threads,
        json_for(&steady, steady_freq),
        json_for(&saturating, sat_freq),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "service", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("updated `service` in {path}");
            println!("{section}");
        }
    }
    println!("\nsteady ({steady_freq}/s offered):\n{}", steady.summary());
    println!("saturating ({sat_freq}/s offered):\n{}", saturating.summary());
}
