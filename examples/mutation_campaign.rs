//! Run a miniature mutation campaign (a 5% sample at seed 42) under any
//! scenario in the catalog and print the outcome distribution — a fast
//! preview of Tables 3 and 4 for the IDE boot, and of their equivalents
//! for every other workload. The full campaigns live in `devil-bench`.
//!
//! ```text
//! cargo run --release --example mutation_campaign \
//!     [-- [--scenario=NAME] [--threads=N] [--fault-plan=NAME]
//!         [--fault-seed=N] [--ledger=PATH] [--resume]]
//! ```
//!
//! The flags are those of the campaign binaries, parsed by the same
//! `devil_bench::tables::CampaignArgs`. Every driver the catalog pairs
//! with the scenario (default `ide-boot`) is mutated and campaigned, on
//! every available core unless `--threads` says otherwise.
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

use devil::drivers::corpus::{build_faulted, build_scenario, find_case, DriverVariant};
use devil::kernel::boot::{Outcome, DEFAULT_FUEL};
use devil::kernel::scenario::ScenarioMachine;
use devil::minic::pp::IncludeCache;
use devil::mutagen::c::CMutationModel;
use devil::mutagen::{sample, Campaign, Ledger, LedgerKey, Mutant};
use devil_bench::tables::{CampaignArgs, CampaignOptions};
use std::collections::BTreeMap;

fn campaign(args: &CampaignArgs, v: &DriverVariant, ledger: Option<&Ledger>) {
    let (scenario, opts) = (args.scenario.as_str(), &args.opts);
    let plan = opts.fault_plan.as_ref();
    let header_texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
    let model = CMutationModel::new(v.source, &header_texts, v.style);
    let mutants = sample(model.mutants(), opts.fraction, opts.seed);
    let incs: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    // One pre-lexed header set for the whole campaign; workers share it.
    let cache = IncludeCache::new(&incs);
    let file = v.file;
    let runner = Campaign::new(
        || {
            let built = match plan {
                Some(p) => build_faulted(scenario, p.clone()),
                None => build_scenario(scenario),
            }
            .expect("catalog scenario builds");
            ScenarioMachine::with_scenario(built, DEFAULT_FUEL)
        },
        |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            machine.run_cached(file, &m.source, &cache, Some(m.line), None).0
        },
    )
    .with_threads(opts.threads);
    let outcomes = match ledger {
        None => runner.run(&mutants),
        Some(ledger) => {
            let rev = ledger.spec_rev();
            let (plan_name, plan_seed) = plan.map_or(("", 0), |p| (p.name(), p.seed()));
            runner.run_memoized(
                &mutants,
                ledger,
                |m| LedgerKey::new(file, &m.source, scenario, plan_name, plan_seed, m.line, rev),
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
        "{} under {scenario}{hardware}: {} sites, {} mutants evaluated",
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
    let args = CampaignArgs::from_env(
        CampaignOptions { fraction: 0.05, seed: 42, ..CampaignOptions::default() },
        &["--scenario", "--threads", "--fault-plan", "--fault-seed", "--ledger", "--resume"],
    );
    let case = find_case(&args.scenario).expect("CampaignArgs accepts catalog scenarios only");
    for (nth, v) in case.drivers.iter().enumerate() {
        let ledger = args.open_ledger(v, nth);
        campaign(&args, v, ledger.as_ref());
    }
}
