//! Regenerate Table 3: mutations on the C code of a driver corpus.
//!
//! Usage: `table3 [--scenario=NAME] [--all] [--fraction=F] [--seed=N]
//! [--threads=N] [--fault-plan=NAME] [--fault-seed=N] [--ledger=PATH]
//! [--resume]` — the flags of `devil_bench::tables::CampaignArgs`.
//!
//! One table is printed per plain-C driver the scenario catalog pairs
//! with the scenario; the default scenario is the paper's IDE boot.

use devil_bench::tables::{print_tables, CampaignArgs, CampaignOptions};
use devil_mutagen::c::CStyle;

const FLAGS: &[&str] = &[
    "--scenario",
    "--all",
    "--fraction",
    "--seed",
    "--threads",
    "--fault-plan",
    "--fault-seed",
    "--ledger",
    "--resume",
];

fn main() {
    let args = CampaignArgs::from_env(CampaignOptions::default(), FLAGS);
    print_tables(
        &args,
        "Table 3: Mutations on C code",
        CStyle::PlainC,
        "(paper: compile 26.7, crash 2.9, loop 11.2, halt 21.5, damaged 2.9, boot 34.7 %)",
    );
}
