//! Differential tests for deterministic hardware fault injection.
//!
//! Every scenario in the catalog has a `<name>+faults` variant that runs
//! the same workload on deterministically flaky hardware (the bundled
//! `mixed` plan under `DEFAULT_FAULT_SEED`). This suite pins four
//! properties of that layer:
//!
//! * **Determinism across execution strategies** — for each scenario's
//!   sampled mutant set, the rebuild path (fresh machine per mutant), the
//!   reset path (snapshot-restored `ScenarioMachine`, fault cursor
//!   rewound by the restore) and both engines (bytecode VM vs the
//!   tree-walking interpreter) classify every mutant identically, and
//!   the outcome vector is pinned in `tests/golden/`
//!   (`scenario_<name>_faults.txt`).
//! * **Attribution soundness** — a *clean* driver run under every bundled
//!   plan across many seeds never produces a compile-time or run-time
//!   check: hardware misbehaviour must never be attributed to a driver
//!   bug. The full outcome tally is pinned in
//!   `tests/golden/fault_attribution.txt`.
//! * **Empty-plan identity** — selecting the `none` plan changes nothing
//!   observable (the hwsim proptests pin this at the bus level for a
//!   force-installed empty interposer; here it is pinned end-to-end
//!   through a scenario run, where rule-less plans are routed around the
//!   interposer so they keep the block-transfer fast paths).
//! * **Replay equality** — re-running a faulted machine after a restore
//!   reproduces the first run bit-for-bit, and matches a freshly built
//!   machine: the fault stream is part of the snapshot.
//!
//! Regenerate the golden files with:
//!
//! ```text
//! DEVIL_BLESS=1 cargo test --release --test fault_differential
//! ```

use devil::drivers::corpus::{
    build_faulted, build_scenario, default_fault_plan, find_case, scenario_catalog,
};
use devil::hwsim::FaultPlan;
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::{run_compiled, run_interp, run_mutant_in, ScenarioMachine};
use devil::kernel::{Outcome, ScenarioReport};
use devil::mutagen::{run_parallel, sample, Campaign, Mutant};
use devil_bench::tables::{fault_attribution, render_attribution};
use std::fmt::Write as _;

/// Same worker count as the fault-free differential suite.
const THREADS: usize = 2;

/// Same sampling seed as the fault-free goldens, so the `+faults` golden
/// for a scenario covers the *same* mutant set and classification drift
/// is attributable to the fault plan alone.
const SEED: u64 = 2001;

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        name.replace('-', "_")
    )
}

fn check_golden(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var_os("DEVIL_BLESS").is_some() {
        std::fs::write(&path, produced).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing — run with DEVIL_BLESS=1 to create it");
    assert_eq!(
        produced, expected,
        "{name} diverged from {path} (rerun with DEVIL_BLESS=1 if the change is intended)"
    );
}

/// Run one mutant through both engines on fresh *faulted* machines;
/// `None` when it does not compile.
fn run_both_faulted(
    scenario_name: &str,
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Option<(ScenarioReport, ScenarioReport)> {
    let program = devil::minic::compile_with_includes(file, source, includes).ok()?;
    let mut s_vm = build_faulted(scenario_name, default_fault_plan())
        .expect("catalog scenario builds");
    let mut io_vm = s_vm.build();
    let vm = run_compiled(&s_vm, &program.to_bytecode(), &mut io_vm, DEFAULT_FUEL);
    let mut s_tw = build_faulted(scenario_name, default_fault_plan())
        .expect("catalog scenario builds");
    let mut io_tw = s_tw.build();
    let tw = run_interp(&s_tw, &program, &mut io_tw, DEFAULT_FUEL);
    Some((vm, tw))
}

fn check_fault_scenario(name: &str) {
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

        // Rebuild path: a fresh faulted machine per mutant. The plan is
        // installed inside `Scenario::build`, so the fault stream starts
        // at the seed for every mutant.
        let rebuild: Vec<Outcome> = run_parallel(&mutants, THREADS, |m| {
            run_mutant_in(
                build_faulted(case.scenario, default_fault_plan())
                    .expect("catalog scenario builds"),
                v.file,
                &m.source,
                &incs,
                Some(m.line),
                DEFAULT_FUEL,
            )
            .0
        });
        // Reset path: one faulted machine per worker; the snapshot holds
        // the seed-position fault cursor and every restore rewinds it.
        let reset: Vec<Outcome> = Campaign::new(
            || {
                ScenarioMachine::with_scenario(
                    build_faulted(case.scenario, default_fault_plan())
                        .expect("catalog scenario builds"),
                    DEFAULT_FUEL,
                )
            },
            |machine: &mut ScenarioMachine<_>, m: &Mutant| {
                machine.run(v.file, &m.source, &incs, Some(m.line)).0
            },
        )
        .with_threads(THREADS)
        .run(&mutants);

        // Engine differential: the VM and the interpreter must sample
        // the exact same fault stream (the block fast paths decline when
        // an interposer is installed, so accesses stay 1:1).
        let checked: Vec<bool> = run_parallel(&mutants, THREADS, |m| {
            if let Some((vm, tw)) = run_both_faulted(case.scenario, v.file, &m.source, &incs) {
                let what = format!(
                    "{}/{}: site {} ({})",
                    case.scenario, v.label, m.site, m.description
                );
                assert_eq!(vm.outcome, tw.outcome, "{what}: outcome diverged under faults");
                assert_eq!(vm.detail, tw.detail, "{what}: detail diverged under faults");
                assert_eq!(vm.console, tw.console, "{what}: console diverged under faults");
                assert_eq!(vm.coverage, tw.coverage, "{what}: coverage diverged under faults");
            }
            true
        });
        assert_eq!(checked.len(), mutants.len());

        for (i, m) in mutants.iter().enumerate() {
            assert_eq!(
                rebuild[i], reset[i],
                "{}/{}: site {} ({}) classified differently by the reset engine under faults",
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
    check_golden(&format!("scenario_{}_faults", case.scenario), &golden);
}

// One test per scenario, mirroring the fault-free differential suite.
// The boot scenario is included here (its fault-free golden lives in
// `campaign_differential.txt`, but it has no fault variant pinned there).

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ide_boot_faults_differential() {
    check_fault_scenario("ide-boot");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ide_stress_faults_differential() {
    check_fault_scenario("ide-stress");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn mouse_stream_faults_differential() {
    check_fault_scenario("mouse-stream");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn ne2000_stress_faults_differential() {
    check_fault_scenario("ne2000-stress");
}

/// The attribution control: every *clean* catalog driver, under every
/// bundled plan, across a spread of seeds. No run may classify as a
/// compile-time or run-time check — those are the "driver bug detected"
/// verdicts, and the driver is unmutated, so any such outcome would be
/// hardware noise misattributed to the driver. The full tally is pinned
/// as a golden so rate/plan tuning is a conscious re-bless.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn clean_drivers_attribute_zero_bugs_to_hardware() {
    let seeds: Vec<u64> = (0..8u64).map(|i| 0xD11A_0000 + i * 0x9E37).collect();
    let rows = fault_attribution(FaultPlan::plan_names(), &seeds, THREADS, DEFAULT_FUEL);
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(
            row.misattributed(),
            0,
            "{}/{} under plan `{}`: hardware-only faults were classified as \
             driver-bug detections ({:?})",
            row.scenario,
            row.driver,
            row.plan,
            row.outcomes
        );
    }
    check_golden("fault_attribution", &render_attribution(&rows));
}

/// Selecting the `none` plan end-to-end (through `build_faulted` and a
/// whole scenario run) is observationally identical to fault-free
/// hardware — outcome, detail, console, coverage and every bus counter
/// match. Since the empty plan is routed around the interposer entirely
/// (`FaultScenario::build` skips installation for rule-less plans, so
/// the block I/O fast paths stay active), the machine must also report
/// *no* interposer present.
#[test]
fn empty_plan_scenario_runs_are_identical() {
    for case in scenario_catalog() {
        for v in &case.drivers {
            let incs: Vec<(&str, &str)> =
                v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let compiled = devil::minic::compile_with_includes(v.file, v.source, &incs)
                .expect("clean catalog drivers compile")
                .to_bytecode();
            let mut s_f = build_faulted(case.scenario, FaultPlan::none(0xA11CE))
                .expect("catalog scenario builds");
            let mut io_f = s_f.build();
            let with = run_compiled(&s_f, &compiled, &mut io_f, DEFAULT_FUEL);
            let mut s_p = build_scenario(case.scenario).expect("catalog scenario builds");
            let mut io_p = s_p.build();
            let without = run_compiled(&s_p, &compiled, &mut io_p, DEFAULT_FUEL);
            let what = format!("{}/{}", case.scenario, v.label);
            assert_eq!(with.outcome, without.outcome, "{what}: outcome");
            assert_eq!(with.detail, without.detail, "{what}: detail");
            assert_eq!(with.console, without.console, "{what}: console");
            assert_eq!(with.coverage, without.coverage, "{what}: coverage");
            assert_eq!(io_f.clock(), io_p.clock(), "{what}: bus clock");
            assert_eq!(io_f.read_count(), io_p.read_count(), "{what}: read count");
            assert_eq!(io_f.write_count(), io_p.write_count(), "{what}: write count");
            assert_eq!(
                io_f.fault_injected(),
                None,
                "{what}: empty plan must be routed to the fault-free path"
            );
            assert_eq!(io_p.fault_injected(), None, "{what}: no interposer");
        }
    }
}

/// Replay equality: a faulted `ScenarioMachine` re-run after its
/// per-mutant restore reproduces the first run exactly (the restore
/// rewinds the fault cursor to the pristine snapshot's seed position),
/// and both match a freshly built machine.
#[test]
fn faulted_machine_reset_replays_the_fault_stream() {
    for case in scenario_catalog() {
        for v in &case.drivers {
            let incs: Vec<(&str, &str)> =
                v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let compiled = devil::minic::compile_with_includes(v.file, v.source, &incs)
                .expect("clean catalog drivers compile")
                .to_bytecode();
            let mut machine = ScenarioMachine::with_scenario(
                build_faulted(case.scenario, default_fault_plan())
                    .expect("catalog scenario builds"),
                DEFAULT_FUEL,
            );
            let first = machine.run_compiled(&compiled);
            let again = machine.run_compiled(&compiled);
            let mut fresh = ScenarioMachine::with_scenario(
                build_faulted(case.scenario, default_fault_plan())
                    .expect("catalog scenario builds"),
                DEFAULT_FUEL,
            );
            let rebuilt = fresh.run_compiled(&compiled);
            let what = format!("{}/{}", case.scenario, v.label);
            for (label, other) in [("reset replay", &again), ("fresh rebuild", &rebuilt)] {
                assert_eq!(first.outcome, other.outcome, "{what}: {label} outcome");
                assert_eq!(first.detail, other.detail, "{what}: {label} detail");
                assert_eq!(first.console, other.console, "{what}: {label} console");
                assert_eq!(first.coverage, other.coverage, "{what}: {label} coverage");
            }
        }
    }
}
