//! Run the complete evaluation: Tables 1–4, the figures, and the §4.2
//! headline comparison. This is the one-shot reproduction entry point.
//!
//! Usage: `repro [--fraction=F] [--seed=N]` (seeds decimal or `0x`/`0X`
//! hex; parsed by `devil_bench::tables::CampaignArgs`)

use devil_bench::tables::{
    render_outcome_table, render_table1, render_table2, scenario_campaign, scenario_variants,
    table2, CampaignArgs, CampaignOptions, Headline, OutcomeTable,
};
use devil_mutagen::c::CStyle;

/// The Table 3/4 campaign on the `ide-boot` driver of one side of the split.
fn ide_boot_campaign(style: CStyle, opts: &CampaignOptions) -> OutcomeTable {
    let variants = scenario_variants("ide-boot", style);
    let v = variants
        .first()
        .expect("the catalog pairs the IDE boot with both drivers");
    scenario_campaign("ide-boot", v, opts, None)
}

fn main() {
    let opts = CampaignArgs::from_env(CampaignOptions::default(), &["--fraction", "--seed"]).opts;

    println!("==============================================================");
    println!(" Reproduction: Improving Driver Robustness (Devil, DSN-2001)");
    println!("==============================================================\n");

    println!("--- Table 1: mutation rules for C operators -----------------\n");
    println!("{}", render_table1());

    println!("--- Table 2: Devil compiler mutation coverage ----------------");
    println!("(paper: 95.4 / 88.8 / 91.7 / 92.6 / 90.3 % detected)\n");
    let t2 = table2();
    println!("{}", render_table2(&t2));

    println!("--- Table 3: mutations on the C IDE driver -------------------");
    println!("(paper: compile 26.7, crash 2.9, loop 11.2, halt 21.5, damaged 2.9, boot 34.7 %)\n");
    let t3 = ide_boot_campaign(CStyle::PlainC, &opts);
    println!("{}", render_outcome_table(&t3, ""));

    println!("--- Table 4: mutations on the CDevil IDE driver --------------");
    println!(
        "(paper: compile 58.0, run-time 14.1, crash 0, loop 0.7, halt 4.9, damaged 0.5, boot 12.3, dead 9.4 %)\n"
    );
    let t4 = ide_boot_campaign(CStyle::CDevil, &opts);
    println!("{}", render_outcome_table(&t4, ""));

    println!("--- Headline (§4.2) ------------------------------------------");
    println!("(paper: 72% vs 26.7% detected — nearly 3x; 12.3% vs 34.7% undetected — 3x fewer)\n");
    let h = Headline::from_tables(&t3, &t4);
    println!("{}", h.render());

    // Shape assertions: the qualitative claims of the paper must hold.
    let mut failures = Vec::new();
    for row in &t2 {
        if row.pct() < 75.0 {
            failures.push(format!(
                "Table 2 shape: {} detected only {:.1}% (expected ~90%)",
                row.name,
                row.pct()
            ));
        }
    }
    if h.detection_factor() < 1.5 {
        failures.push(format!(
            "headline shape: detection factor {:.2} < 1.5",
            h.detection_factor()
        ));
    }
    if h.undetected_factor() < 1.5 {
        failures.push(format!(
            "headline shape: undetected factor {:.2} < 1.5",
            h.undetected_factor()
        ));
    }
    if failures.is_empty() {
        println!("shape check: PASS (Devil wins on both axes, spec coverage ~90%)");
    } else {
        for f in &failures {
            println!("shape check FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
