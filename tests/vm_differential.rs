//! VM-vs-tree-walker differential test: the bytecode VM boot path must be
//! *observationally identical* to the tree-walking interpreter it
//! replaced — same outcomes, same detail strings, same console logs, same
//! line coverage — over every bundled driver's clean boot **and** over the
//! busmouse/IDE mutant sets (the same sampled sets the golden campaign
//! test pins, so `tests/golden/campaign_differential.txt` stays unchanged
//! by construction).
//!
//! This is the acceptance gate for `minic::bytecode`/`minic::vm`: the
//! tree-walker is the oracle (the `reference::LinearIoSpace` pattern), and
//! any semantic divergence — a fault at the wrong line, one fuel unit
//! burned early, a missed coverage bit flipping a DeadCode refinement —
//! fails here before it can silently skew campaign tables.

use devil::drivers::{busmouse, ide};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::fs;
use devil::kernel::scenario::{run_compiled, run_interp, Outcome, ScenarioReport};
use devil::kernel::scenarios::IdeBootScenario;
use devil::kernel::Scenario;
use devil::minic::{CompiledProgram, Program};
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::{run_parallel, sample, Mutant};

/// Compare every observable of two boot reports.
fn assert_reports_equal(vm: &ScenarioReport, interp: &ScenarioReport, what: &str) {
    assert_eq!(vm.outcome, interp.outcome, "{what}: outcome diverged");
    assert_eq!(vm.detail, interp.detail, "{what}: detail diverged");
    assert_eq!(vm.console, interp.console, "{what}: console diverged");
    assert_eq!(vm.coverage, interp.coverage, "{what}: coverage diverged");
}

/// Boot a lowered driver under the `ide-boot` scenario, on a fresh
/// machine the scenario built.
fn boot_vm(compiled: &CompiledProgram, fuel: u64) -> ScenarioReport {
    let mut scenario = IdeBootScenario::new(fs::standard_files());
    let mut io = scenario.build();
    run_compiled(&scenario, compiled, &mut io, fuel)
}

/// [`boot_vm`] through the tree-walking oracle.
fn boot_interp(program: &Program, fuel: u64) -> ScenarioReport {
    let mut scenario = IdeBootScenario::new(fs::standard_files());
    let mut io = scenario.build();
    run_interp(&scenario, program, &mut io, fuel)
}

/// Boot one driver through both engines on fresh machines.
fn boot_both(
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
    fuel: u64,
) -> Option<(ScenarioReport, ScenarioReport)> {
    let program = devil::minic::compile_with_includes(file, source, includes).ok()?;
    Some((boot_vm(&program.to_bytecode(), fuel), boot_interp(&program, fuel)))
}

/// One clean-boot case: file name, source, include set.
type BootCase<'a> = (&'a str, &'a str, Vec<(&'a str, &'a str)>);

#[test]
fn clean_boots_are_engine_identical() {
    let bm_includes = busmouse::bm_includes();
    let ide_includes = ide::cdevil_includes();
    let cases: Vec<BootCase> = vec![
        (ide::IDE_C_FILE, ide::IDE_C_DRIVER, vec![]),
        (
            ide::IDE_CDEVIL_FILE,
            ide::IDE_CDEVIL_DRIVER,
            ide_includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect(),
        ),
        (busmouse::BM_C_FILE, busmouse::BM_C_DRIVER, vec![]),
        (
            busmouse::BM_CDEVIL_FILE,
            busmouse::BM_CDEVIL_DRIVER,
            bm_includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect(),
        ),
    ];
    for (file, source, includes) in cases {
        let (vm, tw) =
            boot_both(file, source, &includes, DEFAULT_FUEL).expect("bundled drivers compile");
        assert_reports_equal(&vm, &tw, file);
        // The IDE drivers must actually boot; the busmouse drivers go
        // through the IDE harness and halt identically on both engines.
        if file.starts_with("ide") {
            assert_eq!(vm.outcome, Outcome::Boot, "{file}: {}", vm.detail);
        }
    }
}

/// The unfused encoding stays a first-class path: booting through
/// `to_bytecode_unfused` must match both the tree-walking oracle and the
/// (default) fused boot on every observable — the end-to-end guarantee
/// that the superinstruction pass can be turned off without changing a
/// single classification.
#[test]
fn unfused_bytecode_boots_identically() {
    let ide_includes = ide::cdevil_includes();
    let cases: Vec<BootCase> = vec![
        (ide::IDE_C_FILE, ide::IDE_C_DRIVER, vec![]),
        (
            ide::IDE_CDEVIL_FILE,
            ide::IDE_CDEVIL_DRIVER,
            ide_includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect(),
        ),
    ];
    for (file, source, includes) in cases {
        let program = devil::minic::compile_with_includes(file, source, &includes)
            .expect("bundled drivers compile");
        let unfused = program.to_bytecode_unfused();
        let fused = program.to_bytecode();
        assert_eq!(unfused.fused_op_count(), 0);
        assert!(fused.fused_op_count() > 0, "{file}: driver loops must fuse");
        for fuel in [DEFAULT_FUEL, 20_000] {
            let a = boot_vm(&unfused, fuel);
            let b = boot_vm(&fused, fuel);
            assert_reports_equal(&a, &b, &format!("{file} unfused-vs-fused, fuel {fuel}"));
            let tw = boot_interp(&program, fuel);
            assert_reports_equal(&a, &tw, &format!("{file} unfused-vs-oracle, fuel {fuel}"));
        }
    }
}

#[test]
fn fuel_starvation_classifies_identically() {
    // Sweep boot fuel budgets so OutOfFuel lands mid-boot at many
    // different points; the engines must stop at exactly the same place.
    for fuel in [0u64, 1, 10, 1_000, 20_000, 100_000] {
        let (vm, tw) = boot_both(ide::IDE_C_FILE, ide::IDE_C_DRIVER, &[], fuel)
            .expect("bundled driver compiles");
        assert_reports_equal(&vm, &tw, &format!("ide_c with fuel {fuel}"));
    }
}

struct MutantSet {
    label: &'static str,
    file: &'static str,
    source: &'static str,
    headers: Vec<(String, String)>,
    style: CStyle,
    fraction: f64,
}

/// The same sets (and sampling seed) the golden campaign test uses.
fn mutant_sets() -> Vec<MutantSet> {
    vec![
        MutantSet {
            label: "busmouse_c",
            file: busmouse::BM_C_FILE,
            source: busmouse::BM_C_DRIVER,
            headers: Vec::new(),
            style: CStyle::PlainC,
            fraction: 0.10,
        },
        MutantSet {
            label: "ide_piix4_c",
            file: ide::IDE_C_FILE,
            source: ide::IDE_C_DRIVER,
            headers: Vec::new(),
            style: CStyle::PlainC,
            fraction: 0.008,
        },
        MutantSet {
            label: "ide_piix4_cdevil",
            file: ide::IDE_CDEVIL_FILE,
            source: ide::IDE_CDEVIL_DRIVER,
            headers: ide::cdevil_includes(),
            style: CStyle::CDevil,
            fraction: 0.008,
        },
    ]
}

#[test]
// ~200 interpreted kernel boots; CI runs it in the release step next to
// the golden campaign differential.
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn mutant_sets_are_engine_identical() {
    for set in mutant_sets() {
        let header_texts: Vec<&str> = set.headers.iter().map(|(_, t)| t.as_str()).collect();
        let model = CMutationModel::new(set.source, &header_texts, set.style);
        let mutants: Vec<Mutant> = sample(model.mutants(), set.fraction, 2001);
        assert!(mutants.len() >= 10, "{}: sample too small", set.label);
        let incs: Vec<(&str, &str)> =
            set.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let checked: Vec<bool> = run_parallel(&mutants, 2, |m| {
            match boot_both(set.file, &m.source, &incs, DEFAULT_FUEL) {
                // Compile-rejected mutants never reach either engine.
                None => true,
                Some((vm, tw)) => {
                    assert_reports_equal(
                        &vm,
                        &tw,
                        &format!("{}: site {} ({})", set.label, m.site, m.description),
                    );
                    true
                }
            }
        });
        assert_eq!(checked.len(), mutants.len());
    }
}
