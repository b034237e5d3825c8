//! Regenerate Table 4: mutations on the CDevil glue of a driver corpus.
//!
//! Usage: `table4 [--scenario=NAME] [--all] [--fraction=F] [--seed=N]
//! [--threads=N] [--weak-types] [--no-asserts] [--fault-plan=NAME]
//! [--fault-seed=N] [--ledger=PATH] [--resume]` — the flags of
//! `devil_bench::tables::CampaignArgs`.
//!
//! One table is printed per CDevil glue driver the scenario catalog
//! pairs with the scenario (a scenario whose corpus has no CDevil
//! variant, e.g. `ne2000-stress`, reports so and exits cleanly); the
//! default scenario is the paper's IDE boot.
//!
//! Ablations (DESIGN.md §5): `--weak-types` runs the campaign against
//! *production* stubs (plain integer typedefs — the struct encoding and
//! all assertions gone); `--no-asserts` keeps the struct encoding but
//! strips every run-time assertion, isolating what the type system alone
//! buys. Both apply to the IDE glue, whose header is regenerated per
//! flavour. The ledger revision folds in the stub headers, so ablation
//! runs can share a `--ledger` file with the debug-stub run without ever
//! being served each other's outcomes.

use devil_bench::tables::{print_tables, CampaignArgs, CampaignOptions};
use devil_mutagen::c::CStyle;

const FLAGS: &[&str] = &[
    "--scenario",
    "--all",
    "--fraction",
    "--seed",
    "--threads",
    "--weak-types",
    "--no-asserts",
    "--fault-plan",
    "--fault-seed",
    "--ledger",
    "--resume",
];

fn main() {
    let args = CampaignArgs::from_env(CampaignOptions::default(), FLAGS);
    print_tables(
        &args,
        "Table 4: Mutations on CDevil code",
        CStyle::CDevil,
        "(paper: compile 58.0, run-time 14.1, crash 0, loop 0.7, halt 4.9, damaged 0.5, boot 12.3, dead 9.4 %)",
    );
}
