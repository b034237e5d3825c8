//! Per-scenario differential tests: for every non-boot scenario in the
//! catalog (`devil_drivers::corpus`), the sampled mutant set of each of
//! its drivers is pushed through
//!
//! * the **rebuild** path — `scenario::run_mutant_in`, which builds a
//!   fresh machine per mutant,
//! * the **reset** path — a `mutagen::Campaign` of per-worker
//!   `ScenarioMachine`s that snapshot-restore one machine per mutant
//!   (the dirty-sector journal fast path on the IDE scenarios), and
//! * both execution engines — the bytecode VM vs the tree-walking
//!   interpreter oracle, comparing outcome, detail, console and coverage,
//!
//! and the outcome vector is pinned against a per-scenario golden file
//! under `tests/golden/` (`scenario_<name>.txt`). The IDE *boot* scenario
//! keeps its original golden in `campaign_differential.txt`.
//!
//! Regenerate the golden files with:
//!
//! ```text
//! DEVIL_BLESS=1 cargo test --release --test scenario_differential
//! ```

use devil::drivers::corpus::{build_scenario, find_case};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::{run_compiled, run_interp, run_mutant_in, ScenarioMachine};
use devil::kernel::{Outcome, ScenarioReport};
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::{run_parallel, sample, Campaign, Mutant};
use std::fmt::Write as _;

/// Workers for the campaign paths: two exercises cross-thread workspace
/// ownership without flooding small CI machines.
const THREADS: usize = 2;

/// Same sampling seed as the boot-scenario golden, for continuity.
const SEED: u64 = 2001;

fn golden_path(scenario: &str) -> String {
    format!(
        "{}/tests/golden/scenario_{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        scenario.replace('-', "_")
    )
}

/// Run one mutant through both engines on fresh machines; `None` when it
/// does not compile (classified CompileCheck upstream of any engine).
fn run_both(
    scenario_name: &str,
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Option<(ScenarioReport, ScenarioReport)> {
    let program = devil::minic::compile_with_includes(file, source, includes).ok()?;
    let mut s_vm = build_scenario(scenario_name).expect("catalog scenario builds");
    let mut io_vm = s_vm.build();
    let vm = run_compiled(&s_vm, &program.to_bytecode(), &mut io_vm, DEFAULT_FUEL);
    let mut s_tw = build_scenario(scenario_name).expect("catalog scenario builds");
    let mut io_tw = s_tw.build();
    let tw = run_interp(&s_tw, &program, &mut io_tw, DEFAULT_FUEL);
    Some((vm, tw))
}

fn check_scenario(name: &str) {
    let case = find_case(name).expect("scenario in catalog");
    let mut golden = String::new();
    for v in &case.drivers {
        let mutants = sample(v.mutants(), v.golden_fraction, SEED);
        assert!(
            mutants.len() >= 10,
            "{}/{}: sample too small ({}) to be meaningful",
            case.scenario,
            v.label,
            mutants.len()
        );
        let incs: Vec<(&str, &str)> =
            v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();

        // Rebuild path: a fresh machine per mutant.
        let rebuild: Vec<Outcome> = run_parallel(&mutants, THREADS, |m| {
            run_mutant_in(
                build_scenario(case.scenario).expect("catalog scenario builds"),
                v.file,
                &m.source,
                &incs,
                Some(m.line),
                DEFAULT_FUEL,
            )
            .0
        });
        // Reset path: one machine per worker, snapshot-restored per mutant.
        let reset: Vec<Outcome> = Campaign::new(
            || {
                ScenarioMachine::with_scenario(
                    build_scenario(case.scenario).expect("catalog scenario builds"),
                    DEFAULT_FUEL,
                )
            },
            |machine: &mut ScenarioMachine<_>, m: &Mutant| {
                machine.run(v.file, &m.source, &incs, Some(m.line)).0
            },
        )
        .with_threads(THREADS)
        .run(&mutants);

        // Engine differential: VM vs interpreter on every mutant.
        let checked: Vec<bool> = run_parallel(&mutants, THREADS, |m| {
            if let Some((vm, tw)) = run_both(case.scenario, v.file, &m.source, &incs) {
                let what = format!(
                    "{}/{}: site {} ({})",
                    case.scenario, v.label, m.site, m.description
                );
                assert_eq!(vm.outcome, tw.outcome, "{what}: outcome diverged");
                assert_eq!(vm.detail, tw.detail, "{what}: detail diverged");
                assert_eq!(vm.console, tw.console, "{what}: console diverged");
                assert_eq!(vm.coverage, tw.coverage, "{what}: coverage diverged");
            }
            true
        });
        assert_eq!(checked.len(), mutants.len());

        for (i, m) in mutants.iter().enumerate() {
            assert_eq!(
                rebuild[i], reset[i],
                "{}/{}: site {} ({}) classified differently by the reset engine",
                case.scenario, v.label, m.site, m.description
            );
            writeln!(
                golden,
                "{}\t{}\t{}\t{:?}",
                v.label, m.site, m.description, reset[i]
            )
            .expect("writing to a String cannot fail");
        }
    }

    let path = golden_path(case.scenario);
    if std::env::var_os("DEVIL_BLESS").is_some() {
        std::fs::write(&path, &golden).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing — run with DEVIL_BLESS=1 to create it");
    assert_eq!(
        golden, expected,
        "{} outcomes diverged from {path} (rerun with DEVIL_BLESS=1 if the change is intended)",
        case.scenario
    );
}

// One test per scenario so a regression names its workload directly (and
// the scenarios run in parallel under the default test harness). The
// ide-boot scenario is pinned by the original `campaign_differential`
// golden, byte-identical since the engine port, so it is not repeated
// here.

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn mouse_stream_scenario_differential() {
    check_scenario("mouse-stream");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ne2000_stress_scenario_differential() {
    check_scenario("ne2000-stress");
}

/// The block-transfer driver swap re-blessed the main ne2000 golden; this
/// test pins that the *execution overhaul itself* reclassified nothing.
/// The PR-4 word-at-a-time driver's sampled mutant set must classify
/// exactly as it did before superinstructions and bulk I/O landed — the
/// outcome vector (and therefore every per-outcome count) stays
/// byte-identical to the frozen words golden, which is a verbatim copy of
/// the pre-overhaul `scenario_ne2000_stress.txt`. Only the wire-log
/// granularity of the *block* driver may differ from the words driver;
/// classifications may not. This file is frozen: `DEVIL_BLESS` does not
/// rewrite it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ne2000_word_driver_outcome_counts_unchanged() {
    use devil::drivers::ne2000::{NE2000_C_DRIVER_WORDS, NE2000_C_FILE};
    let model = CMutationModel::new(NE2000_C_DRIVER_WORDS, &[], CStyle::PlainC);
    let mutants = sample(model.mutants(), 0.05, SEED);
    assert!(mutants.len() >= 10, "sample too small ({})", mutants.len());
    let outcomes: Vec<Outcome> = Campaign::new(
        || {
            ScenarioMachine::with_scenario(
                build_scenario("ne2000-stress").expect("catalog scenario builds"),
                DEFAULT_FUEL,
            )
        },
        |machine: &mut ScenarioMachine<_>, m: &Mutant| {
            machine.run(NE2000_C_FILE, &m.source, &[], Some(m.line)).0
        },
    )
    .with_threads(THREADS)
    .run(&mutants);
    let mut golden = String::new();
    for (m, o) in mutants.iter().zip(&outcomes) {
        writeln!(golden, "ne2000_c\t{}\t{}\t{:?}", m.site, m.description, o)
            .expect("writing to a String cannot fail");
    }
    let path = format!(
        "{}/tests/golden/scenario_ne2000_stress_words.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).expect("frozen words golden present");
    assert_eq!(
        golden, expected,
        "word-at-a-time ne2000 outcomes changed — the execution overhaul must not \
         reclassify the PR-4 corpus ({path} is frozen, not re-blessable)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ide_stress_scenario_differential() {
    check_scenario("ide-stress");
}
