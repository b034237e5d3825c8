//! Run a miniature mutation campaign (a 5% sample at seed 42) under any
//! scenario in the catalog and print its outcome tables — a fast preview
//! of Tables 3 and 4 for the IDE boot, and of their equivalents for every
//! other workload. The full campaigns live in `devil-bench`.
//!
//! ```text
//! cargo run --release --example mutation_campaign \
//!     [-- [--scenario=NAME] [--threads=N] [--fault-plan=NAME]
//!         [--fault-seed=N] [--ledger=PATH] [--resume]]
//! ```
//!
//! The flags are those of the campaign binaries, parsed by the same
//! `devil_bench::tables::CampaignArgs`, and every driver the catalog pairs
//! with the scenario (default `ide-boot`) is campaigned by the same
//! `devil_bench::tables::scenario_campaign`, on every available core
//! unless `--threads` says otherwise: one snapshot-restored machine per
//! worker, every mutant compiled through one campaign-wide include cache
//! and run on the minic bytecode VM. After each table the example prints
//! how many compiles resumed each front-end stage from the cache's
//! checkpoint of the driver's prefix, and why the others ran in full.

use devil::drivers::corpus::find_case;
use devil_bench::tables::{render_outcome_table, scenario_campaign, CampaignArgs, CampaignOptions};

fn main() {
    let args = CampaignArgs::from_env(
        CampaignOptions { fraction: 0.05, seed: 42, ..CampaignOptions::default() },
        &["--scenario", "--threads", "--fault-plan", "--fault-seed", "--ledger", "--resume"],
    );
    let (scenario, opts) = (args.scenario.as_str(), &args.opts);
    let case = find_case(scenario).expect("CampaignArgs accepts catalog scenarios only");
    let hardware = match &opts.fault_plan {
        Some(p) => format!(" [fault plan `{}`, seed {:#x}]", p.name(), p.seed()),
        None => String::new(),
    };
    for (nth, v) in case.drivers.iter().enumerate() {
        let ledger = args.open_ledger(v, nth);
        let t = scenario_campaign(scenario, v, opts, ledger.as_ref());
        let title = format!("{} under {scenario}{hardware}", v.label);
        print!("{}", render_outcome_table(&t, &title));
        if let Some(l) = &ledger {
            let c = l.counters();
            println!("  ledger: {} replayed, {} classified fresh", c.hits, c.misses);
        }
        let r = t.front_end;
        println!(
            "  front end: resumed preprocess {} parse {} check {}; in full: \
             {} without a checkpoint, {} for a directive; checked in full: \
             {} for a struct completion, {} for a name clash\n",
            r.pp, r.parse, r.check, r.no_checkpoint, r.directive, r.struct_completion, r.name_clash
        );
    }
}
