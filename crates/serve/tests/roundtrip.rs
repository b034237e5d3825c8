//! End-to-end round trips of the campaign service against the batch
//! engine, over in-process connections (no OS networking).
//!
//! Pins the acceptance properties of campaign-as-a-service:
//!
//! * **Outcome parity** — every mutant classified through the service
//!   produces exactly the outcome the batch `Campaign` path produces
//!   for the same mutant under the same scenario and fault plan;
//! * **Open-loop accounting** — a mixed workload (two scenarios, one on
//!   deterministically flaky hardware) offered at a fixed rate drains
//!   to `offered = completed + shed + expired + errors`, with a
//!   populated latency histogram and consistent client/server counters;
//! * **Backpressure** — a deliberately tiny admission queue sheds
//!   instead of buffering without bound, and says so;
//! * **Graceful drain** — a drain mid-burst answers every accepted job,
//!   sheds the rest explicitly, and loses zero replies;
//! * **Warm checkpoints** — catalog mutants resume from the front-end
//!   checkpoint the server pinned at start, even after a client's first
//!   submission had another prefix.

use devil_drivers::corpus::{build_faulted, build_scenario, find_variant};
use devil_hwsim::{FaultPlan, DEFAULT_FAULT_SEED};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::ScenarioMachine;
use devil_kernel::Outcome;
use devil_minic::pp::IncludeCache;
use devil_mutagen::{sample, Campaign, Mutant};
use devil_serve::proto::{read_frame, write_frame, Request, Response, SubmitMutant};
use devil_serve::{parse_mix, run_load, InProcServer, LoadConfig, ServeConfig};
use std::collections::HashMap;
use std::time::Duration;

/// One workload of the parity test: a scenario (optionally faulted) and
/// a driver to mutate under it.
struct Workload {
    scenario: &'static str,
    plan: &'static str, // "" = fault-free
    driver: &'static str,
}

fn batch_outcomes(w: &Workload, mutants: &[Mutant], file: &'static str) -> Vec<Outcome> {
    let v = find_variant(w.scenario, w.driver).expect("catalog workload");
    let incs: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let cache = IncludeCache::new(&incs);
    Campaign::new(
        || {
            let scenario = if w.plan.is_empty() {
                build_scenario(w.scenario)
            } else {
                build_faulted(
                    w.scenario,
                    FaultPlan::named(w.plan, DEFAULT_FAULT_SEED).expect("bundled plan"),
                )
            }
            .expect("catalog scenario builds");
            ScenarioMachine::with_scenario(scenario, DEFAULT_FUEL)
        },
        |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            machine.run_cached(file, &m.source, &cache, Some(m.line), None).0
        },
    )
    .with_threads(4)
    .run(mutants)
}

fn submit_req(id: u64, scenario: &str, plan: &str, file: &str, source: &str) -> SubmitMutant {
    SubmitMutant {
        req_id: id,
        scenario: scenario.into(),
        plan: plan.into(),
        plan_seed: DEFAULT_FAULT_SEED,
        file: file.into(),
        dead_line: 0,
        deadline_ms: 0,
        source: source.into(),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn service_outcomes_match_the_batch_campaign() {
    let workloads = [
        Workload { scenario: "mouse-stream", plan: "", driver: "busmouse_c" },
        Workload { scenario: "ide-boot", plan: "mixed", driver: "ide_piix4_c" },
    ];
    let server = InProcServer::start(ServeConfig { threads: 4, ..ServeConfig::default() });
    let (mut r, mut w) = server.connect().split();

    let mut expected: HashMap<u64, Outcome> = HashMap::new();
    let mut next_id = 0u64;
    for wl in &workloads {
        let v = find_variant(wl.scenario, wl.driver).expect("catalog workload");
        let mutants = sample(v.mutants(), 0.05, 1234);
        assert!(!mutants.is_empty(), "{} sampled no mutants", wl.scenario);
        let batch = batch_outcomes(wl, &mutants, v.file);
        for (m, outcome) in mutants.iter().zip(batch) {
            let mut req = submit_req(next_id, wl.scenario, wl.plan, v.file, &m.source);
            req.dead_line = m.line;
            write_frame(&mut w, &Request::Submit(req).encode()).unwrap();
            expected.insert(next_id, outcome);
            next_id += 1;
        }
    }
    drop(w);

    let mut got: HashMap<u64, Outcome> = HashMap::new();
    while let Some(payload) = read_frame(&mut r).unwrap() {
        match Response::decode(&payload).unwrap() {
            Response::Outcome { req_id, outcome, .. } => {
                got.insert(req_id, outcome);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(got.len(), expected.len(), "every submission answered");
    for (id, want) in &expected {
        assert_eq!(got[id], *want, "req {id}: service and batch disagree");
    }
    let stats = server.shutdown().expect("server exits cleanly");
    assert_eq!(stats.completed, expected.len() as u64);
    assert_eq!(stats.shed, 0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn open_loop_mixed_load_drains_with_consistent_accounting() {
    let server = InProcServer::start(ServeConfig { threads: 4, ..ServeConfig::default() });
    let config = LoadConfig {
        freq: 400.0,
        total: 160,
        mix: parse_mix("mouse-stream/busmouse_c:0.9:2,ide-boot+faults/ide_piix4_c:0.9")
            .unwrap(),
        seed: 7,
        report_every: None,
        deadline_ms: 0,
    };
    let report = run_load(server.connect(), &config).unwrap();
    let stats = server.shutdown().expect("server exits cleanly");

    assert_eq!(report.offered, config.total);
    assert_eq!(report.errors, 0, "mix entries all route");
    assert_eq!(report.completed + report.shed, report.offered, "run drained");
    assert_eq!(report.expired, 0, "no deadlines requested");
    assert_eq!(report.latency.count(), report.completed);
    assert!(report.completed > 0);
    assert!(report.sustained_per_sec() > 0.0);
    let p50 = report.latency.percentile(50.0);
    let p99 = report.latency.percentile(99.0);
    let p999 = report.latency.percentile(99.9);
    assert!(p50 <= p99 && p99 <= p999 && p999 <= report.latency.max());
    let total_outcomes: u64 = report.outcomes.iter().map(|(_, n)| n).sum();
    assert_eq!(total_outcomes, report.completed);

    // Client and server books agree, through both the in-band final
    // stats reply and the post-shutdown snapshot.
    let final_stats = report.server.expect("final stats answered");
    assert_eq!(final_stats.completed, report.completed);
    assert_eq!(final_stats.shed, report.shed);
    assert_eq!(stats.completed, report.completed);
    assert_eq!(stats.accepted, report.completed);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn saturated_queue_sheds_instead_of_buffering() {
    // One worker, a one-slot queue, and submissions offered far faster
    // than a boot classifies: most must shed, every one must be
    // answered.
    let server = InProcServer::start(ServeConfig {
        threads: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let config = LoadConfig {
        freq: 1e6,
        total: 50,
        mix: parse_mix("mouse-stream/busmouse_c").unwrap(),
        seed: 11,
        report_every: None,
        deadline_ms: 0,
    };
    let report = run_load(server.connect(), &config).unwrap();
    let stats = server.shutdown().expect("server exits cleanly");
    assert_eq!(report.completed + report.shed, report.offered);
    assert!(report.shed > 0, "a one-slot queue under 1M/s offered load must shed");
    assert_eq!(stats.shed, report.shed);
    assert_eq!(stats.max_depth as usize, 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn queued_submissions_expire_under_saturation_with_balanced_books() {
    // One worker, a 5ms per-job budget, and 200 submissions offered
    // essentially at once: the backlog cannot possibly classify inside
    // its budget, so most jobs expire in the queue — and every single
    // one is accounted for on both sets of books.
    let server = InProcServer::start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let config = LoadConfig {
        freq: 1e6,
        total: 200,
        mix: parse_mix("mouse-stream/busmouse_c:0").unwrap(),
        seed: 13,
        report_every: None,
        deadline_ms: 5,
    };
    let report = run_load(server.connect(), &config).unwrap();
    let stats = server.shutdown().expect("server exits cleanly");

    assert_eq!(
        report.completed + report.shed + report.expired + report.errors,
        report.offered,
        "offered = completed + shed + expired + errors"
    );
    assert!(report.expired > 0, "a 1-worker backlog must outlive a 5ms budget");
    assert_eq!(report.latency.count(), report.completed);
    // Server books match the client's, and balance internally.
    assert_eq!(stats.expired, report.expired);
    assert_eq!(stats.completed, report.completed);
    assert_eq!(stats.shed, report.shed);
    assert_eq!(stats.accepted, stats.completed + stats.expired);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn graceful_drain_mid_burst_loses_no_replies() {
    let total = 40u64;
    let server = InProcServer::start(ServeConfig { threads: 2, ..ServeConfig::default() });
    let (mut r, mut w) = server.connect().split();
    let v = find_variant("mouse-stream", "busmouse_c").expect("catalog workload");
    for id in 0..total {
        write_frame(
            &mut w,
            &Request::Submit(submit_req(id, "mouse-stream", "", v.file, v.source)).encode(),
        )
        .unwrap();
    }
    // Drain with a zero grace: whatever is still queued when the drain
    // lands is force-shed immediately. The client keeps its write half
    // open — hanging up is the *server's* job once everything is
    // answered.
    server.drain(Some(Duration::ZERO));
    let (mut classified, mut shed, mut turned_away) = (0u64, 0u64, 0u64);
    let mut seen = std::collections::HashSet::new();
    while let Some(payload) = read_frame(&mut r).unwrap() {
        match Response::decode(&payload).unwrap() {
            Response::Outcome { req_id, outcome, .. } => {
                assert_eq!(outcome, Outcome::Boot);
                assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                classified += 1;
            }
            Response::Shed { req_id } => {
                assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                shed += 1;
            }
            Response::Draining { req_id } => {
                assert!(seen.insert(req_id), "duplicate reply for {req_id}");
                turned_away += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        classified + shed + turned_away,
        total,
        "every submission answered exactly once across the drain"
    );
    let stats = server.shutdown().expect("drained server exits cleanly");
    assert_eq!(stats.completed, classified);
    assert_eq!(stats.shed, shed);
}

/// Ask the server for its counters over an open connection.
fn server_stats(
    r: &mut impl std::io::Read,
    w: &mut impl std::io::Write,
    req_id: u64,
) -> devil_serve::proto::ServiceStats {
    write_frame(w, &Request::Stats { req_id }.encode()).unwrap();
    let payload = read_frame(r).unwrap().expect("server answers STATS");
    match Response::decode(&payload).unwrap() {
        Response::Stats { stats, .. } => stats,
        other => panic!("unexpected response {other:?}"),
    }
}

/// The server compiles each catalog driver once at start, so a client
/// whose first submission has another prefix cannot pin it: the catalog
/// mutants after it still resume from the catalog driver's checkpoint,
/// and still classify exactly as the batch path does.
#[test]
fn warmed_checkpoints_survive_a_foreign_first_submission() {
    let wl = Workload { scenario: "mouse-stream", plan: "", driver: "busmouse_cdevil" };
    let v = find_variant(wl.scenario, wl.driver).expect("catalog workload");
    let mutants = sample(v.mutants(), 0.04, 77);
    assert!(!mutants.is_empty());
    let batch = batch_outcomes(&wl, &mutants, v.file);

    let server = InProcServer::start(ServeConfig { threads: 2, ..ServeConfig::default() });
    let (mut r, mut w) = server.connect().split();
    let before = server_stats(&mut r, &mut w, u64::MAX);
    let foreign = format!("int foreign_first;\n{}", v.source);
    let submissions =
        std::iter::once((foreign.as_str(), 0)).chain(mutants.iter().map(|m| (m.source.as_str(), m.line)));
    for (id, (source, line)) in submissions.enumerate() {
        let mut req = submit_req(id as u64, wl.scenario, wl.plan, v.file, source);
        req.dead_line = line;
        write_frame(&mut w, &Request::Submit(req).encode()).unwrap();
    }
    let mut got: HashMap<u64, Outcome> = HashMap::new();
    while got.len() <= mutants.len() {
        let payload = read_frame(&mut r).unwrap().expect("every submission answered");
        match Response::decode(&payload).unwrap() {
            Response::Outcome { req_id, outcome, .. } => {
                got.insert(req_id, outcome);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    for (i, want) in batch.iter().enumerate() {
        assert_eq!(got[&(i as u64 + 1)], *want, "mutant {i}: service and batch disagree");
    }
    let after = server_stats(&mut r, &mut w, u64::MAX - 1);
    drop(w);
    server.shutdown().expect("server exits cleanly");
    assert_eq!(after.compiles_full - before.compiles_full, 1, "only the foreign prefix ran in full");
    assert_eq!(
        after.compiles_resumed - before.compiles_resumed,
        mutants.len() as u64,
        "every catalog mutant resumed from the warmed checkpoint"
    );
}

#[test]
fn a_hundred_thousand_deep_submission_is_a_compile_check() {
    // A ~200 KB driver whose expression nests 100,000 parentheses deep:
    // the parser's nesting budget turns it into a spanned compile error
    // on the worker's 2 MiB stack, and the same worker goes on to boot a
    // clean driver.
    let deep = format!(
        "int ide_probe(void) {{ int x; x = {}1{}; return x; }}",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    rejected_then_clean_boot(&deep, "nesting deeper than");
}

#[test]
fn a_hundred_thousand_star_declaration_is_a_compile_check() {
    // A ~100 KB driver declaring a pointer with 100,000 stars: the
    // parser's type budget turns it into a spanned compile error, as for
    // deep expressions.
    let deep = format!(
        "int ide_probe(void) {{ int {}p; return 0; }}",
        "*".repeat(100_000)
    );
    rejected_then_clean_boot(&deep, "type nesting deeper than");
}

#[test]
fn a_hundred_thousand_struct_chain_is_a_compile_check() {
    // A ~3.6 MB driver defining 100,000 structs, each holding the one
    // before it by value: the parser's struct budget rejects the 65th
    // definition, as for deep expressions and types.
    let mut deep = String::from("struct s1 { int a; };\n");
    for k in 2..=100_000 {
        deep.push_str(&format!("struct s{k} {{ struct s{} f; }};\n", k - 1));
    }
    deep.push_str("int ide_probe(void) { struct s100000 v; return 0; }\n");
    rejected_then_clean_boot(&deep, "struct nesting deeper than");
}

#[test]
fn a_billion_int_local_is_a_compile_check() {
    // A 58-byte driver whose local would ask lowering for 24 GB and abort
    // the process: the parser's object-size bound turns it into a spanned
    // compile error.
    rejected_then_clean_boot(
        "int ide_probe(void) { int a[1000000000]; return 0; }",
        "array larger than",
    );
}

#[test]
fn a_sixty_level_doubling_chain_is_a_compile_check() {
    // Each struct holds two of the one before, so a value of the last
    // would be 2^60 bytes, and lowering one costs four times as much
    // every two levels: the size bound rejects the 17th struct's body.
    let mut src = String::from("struct s0 { char c; };\n");
    for k in 1..=60 {
        src.push_str(&format!("struct s{k} {{ struct s{0} a; struct s{0} b; }};\n", k - 1));
    }
    src.push_str("int ide_probe(void) { struct s60 v; return 0; }\n");
    rejected_then_clean_boot(&src, "struct larger than");
}

/// Submit `deep` to a one-worker `InProcServer`, expect `CompileCheck`
/// with `message` in its detail, then have the same worker boot the clean
/// `ide_piix4_c`.
fn rejected_then_clean_boot(deep: &str, message: &str) {
    let v = find_variant("ide-boot", "ide_piix4_c").expect("catalog driver");
    let server = InProcServer::start(ServeConfig { threads: 1, ..ServeConfig::default() });
    let (mut r, mut w) = server.connect().split();
    for (id, source) in [(0u64, deep), (1, v.source)] {
        write_frame(&mut w, &Request::Submit(submit_req(id, "ide-boot", "", v.file, source)).encode())
            .unwrap();
        let payload = read_frame(&mut r).unwrap().expect("the submission is answered");
        match Response::decode(&payload).unwrap() {
            Response::Outcome { req_id, outcome, detail } => {
                assert_eq!(req_id, id);
                let want = if id == 0 { Outcome::CompileCheck } else { Outcome::Boot };
                assert_eq!(outcome, want, "{detail}");
                if id == 0 {
                    assert!(detail.contains(message), "{detail}");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    drop(w);
    server.shutdown().expect("server exits cleanly");
}
