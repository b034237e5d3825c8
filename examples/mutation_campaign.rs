//! Run a miniature mutation campaign (a 5% sample) under any scenario in
//! the catalog and print the outcome distribution — a fast preview of
//! Tables 3 and 4 for the IDE boot, and of their equivalents for every
//! other workload. The full campaigns live in `devil-bench`.
//!
//! ```text
//! cargo run --release --example mutation_campaign \
//!     [-- <scenario> [--threads=N] [--fault-plan=NAME] [--fault-seed=N]
//!         [--ledger=PATH] [--resume]]
//! ```
//!
//! `--ledger=PATH` checkpoints every classification to a crash-safe
//! append-only outcome ledger (`devil::mutagen::ledger`) as workers
//! produce it; `--resume` replays the file's surviving records as hits
//! first and classifies only what is missing, so a campaign killed
//! partway — even `kill -9` — finishes with the same distribution as an
//! uninterrupted run. Without `--resume` the file starts fresh.
//!
//! `<scenario>` defaults to `ide-boot`; any name from
//! `devil::drivers::corpus::scenario_names()` works (`ide-stress`,
//! `mouse-stream`, `ne2000-stress`), as does its `<name>+faults` variant.
//! Every driver paired with the scenario is mutated and campaigned.
//!
//! `--threads=N` sets the worker-thread count; the default (`0`) uses
//! every available core.
//!
//! `--fault-plan=NAME` runs the campaign on deterministically flaky
//! hardware under one of the bundled fault plans (`none`, `flaky-status`,
//! `dropped-irq`, `bus-noise`, `absent-window`, `mixed`); `--fault-seed=N`
//! picks the plan's PRNG seed (default `DEFAULT_FAULT_SEED`, decimal or
//! `0x`/`0X` hex accepted). Passing either flag — or a
//! `<scenario>+faults` name — selects the fault variant; the bare name
//! with no flags runs fault-free.
//!
//! Each worker thread owns one [`ScenarioMachine`]: the simulated machine
//! is built once per worker and snapshot-restored before every mutant
//! (IDE platter restores ride the dirty-sector journal; the fault
//! interposer's cursor rewinds with the snapshot, so every mutant sees
//! the same fault sequence), instead of being reconstructed ~100 times.
//! The generated stub headers are pre-lexed once per campaign into a
//! shared [`IncludeCache`] (it is `Sync`), and the first mutant compiled
//! through it records a front-end checkpoint of the driver's prefix up to
//! its `#include`, so every worker preprocesses, parses and checks only
//! the rest of each mutant; the campaign prints how many compiles resumed
//! each stage and why the others ran in full. Each mutant runs through
//! the minic bytecode VM.

use devil::drivers::corpus::{
    build_faulted, build_scenario, scenario_catalog, scenario_names, DriverVariant,
};
use devil::hwsim::{FaultPlan, DEFAULT_FAULT_SEED};
use devil::kernel::boot::{Outcome, DEFAULT_FUEL};
use devil::kernel::scenario::ScenarioMachine;
use devil::minic::pp::IncludeCache;
use devil::mutagen::c::CMutationModel;
use devil::mutagen::{sample, source_fingerprint, Campaign, Ledger, LedgerKey, Mutant};
use devil_bench::tables::parse_seed;
use std::collections::BTreeMap;

fn campaign(
    scenario_name: &'static str,
    plan: Option<&FaultPlan>,
    v: &DriverVariant,
    threads: usize,
    ledger: Option<&Ledger>,
) {
    let header_texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
    let model = CMutationModel::new(v.source, &header_texts, v.style);
    let mutants = sample(model.mutants(), 0.05, 42);
    let incs: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    // One pre-lexed header set for the whole campaign; workers share it.
    let cache = IncludeCache::new(&incs);
    let file = v.file;
    let runner = Campaign::new(
        || {
            let scenario = match plan {
                Some(p) => build_faulted(scenario_name, p.clone()),
                None => build_scenario(scenario_name),
            }
            .expect("catalog scenario builds");
            ScenarioMachine::with_scenario(scenario, DEFAULT_FUEL)
        },
        |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            machine.run_cached(file, &m.source, &cache, Some(m.line), None).0
        },
    )
    .with_threads(threads);
    let outcomes = match ledger {
        None => runner.run(&mutants),
        Some(ledger) => {
            let rev = ledger.spec_rev();
            let (plan_name, plan_seed) =
                plan.map(|p| (p.name().to_string(), p.seed())).unwrap_or_default();
            runner.run_memoized(
                &mutants,
                ledger,
                |m| LedgerKey {
                    file: file.to_string(),
                    source: source_fingerprint(&m.source),
                    scenario: scenario_name.to_string(),
                    plan: plan_name.clone(),
                    plan_seed,
                    dead_line: m.line,
                    spec_rev: rev,
                },
                |o| o.is_deterministic().then(|| (o.code(), String::new())),
                |code, _| Outcome::from_code(code),
            )
        }
    };
    let mut tally: BTreeMap<Outcome, usize> = BTreeMap::new();
    for o in outcomes {
        *tally.entry(o).or_default() += 1;
    }
    let hardware = match plan {
        Some(p) => format!(" [fault plan `{}`, seed {:#x}]", p.name(), p.seed()),
        None => String::new(),
    };
    println!(
        "{} under {scenario_name}{hardware}: {} sites, {} mutants evaluated",
        v.label,
        model.sites().len(),
        mutants.len()
    );
    if let Some(l) = ledger {
        let c = l.counters();
        println!("  ledger: {} replayed, {} classified fresh", c.hits, c.misses);
    }
    let r = cache.resume_stats();
    println!(
        "  front end: resumed preprocess {} parse {} check {}; in full: \
         {} without a checkpoint, {} for a directive; checked in full: \
         {} for a struct completion, {} for a name clash",
        r.pp, r.parse, r.check, r.no_checkpoint, r.directive, r.struct_completion, r.name_clash
    );
    for outcome in Outcome::table_order() {
        if let Some(n) = tally.get(&outcome) {
            println!(
                "  {outcome:<20} {n:>5}  ({:.1}%)",
                100.0 * *n as f64 / mutants.len() as f64
            );
        }
    }
    let detected: usize = tally
        .iter()
        .filter(|(o, _)| o.is_detected())
        .map(|(_, n)| n)
        .sum();
    println!(
        "  detected at compile or run time: {:.1}%\n",
        100.0 * detected as f64 / mutants.len() as f64
    );
}

fn main() {
    let mut requested: Option<String> = None;
    let mut plan_name: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    // 0 = one worker per available core (the `Campaign` convention).
    let mut threads: usize = 0;
    let mut ledger_path: Option<std::path::PathBuf> = None;
    let mut resume = false;
    for arg in std::env::args().skip(1) {
        if arg == "--resume" {
            resume = true;
        } else if let Some(p) = arg.strip_prefix("--ledger=") {
            ledger_path = Some(std::path::PathBuf::from(p));
        } else if let Some(v) = arg.strip_prefix("--fault-plan=") {
            plan_name = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--fault-seed=") {
            match parse_seed(v) {
                Ok(n) => fault_seed = Some(n),
                Err(e) => {
                    eprintln!("--fault-seed: {e}");
                    std::process::exit(1);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().unwrap_or_else(|_| {
                eprintln!("--threads expects a thread count, got `{v}`");
                std::process::exit(1);
            });
        } else if requested.is_none() {
            requested = Some(arg);
        } else {
            eprintln!("unexpected argument `{arg}`");
            std::process::exit(1);
        }
    }
    let mut requested = requested.unwrap_or_else(|| "ide-boot".into());
    // `<name>+faults` is shorthand for the default plan; explicit flags
    // compose with it.
    if let Some(base) = requested.strip_suffix("+faults") {
        requested = base.to_string();
        plan_name.get_or_insert_with(|| "mixed".into());
    }
    if fault_seed.is_some() {
        plan_name.get_or_insert_with(|| "mixed".into());
    }
    let plan = plan_name.map(|name| {
        FaultPlan::named(&name, fault_seed.unwrap_or(DEFAULT_FAULT_SEED)).unwrap_or_else(
            || {
                eprintln!(
                    "unknown fault plan `{name}`; available: {}",
                    FaultPlan::plan_names().join(", ")
                );
                std::process::exit(1);
            },
        )
    });
    if resume && ledger_path.is_none() {
        eprintln!("--resume requires --ledger=PATH");
        std::process::exit(1);
    }
    let Some(case) = scenario_catalog().into_iter().find(|c| c.scenario == requested) else {
        eprintln!(
            "unknown scenario `{requested}`; available: {} (each also as `<name>+faults`)",
            scenario_names().join(", ")
        );
        std::process::exit(1);
    };
    // --ledger without --resume starts the file fresh; every driver of
    // the scenario appends to the same file (per-driver spec revisions
    // keep their entries apart).
    let mut keep = resume;
    for v in &case.drivers {
        let ledger = ledger_path.as_ref().map(|path| {
            let opts = devil_bench::tables::CampaignOptions {
                fault_plan: plan.clone(),
                ..devil_bench::tables::CampaignOptions::default()
            };
            let l = devil_bench::tables::open_campaign_ledger(path, keep, v, &opts)
                .unwrap_or_else(|e| {
                    eprintln!("cannot open ledger {}: {e}", path.display());
                    std::process::exit(1);
                });
            keep = true;
            l
        });
        campaign(case.scenario, plan.as_ref(), v, threads, ledger.as_ref());
    }
}
