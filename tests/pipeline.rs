//! End-to-end integration: specification → checker → codegen → minic
//! compile → simulated boot, across crates.

use devil::core::codegen::{generate, CodegenMode};
use devil::drivers::{ide, specs};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::fs;
use devil::kernel::scenario::{run_compiled, run_mutant_in, Detail, Outcome};
use devil::kernel::scenarios::IdeBootScenario;
use devil::kernel::Scenario;
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::devil::DevilMutationModel;

/// The rebuild-per-mutant pipeline under the `ide-boot` scenario.
fn classify(file: &str, source: &str, includes: &[(&str, &str)]) -> (Outcome, Detail) {
    let scenario = IdeBootScenario::new(fs::standard_files());
    run_mutant_in(scenario, file, source, includes, None, DEFAULT_FUEL)
}

#[test]
fn every_bundled_spec_round_trips_through_codegen_and_minic() {
    for (name, file, src) in specs::all() {
        let checked = specs::compile(file, src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for mode in [CodegenMode::Debug, CodegenMode::Production, CodegenMode::DebugNoAsserts] {
            let c = generate(&checked, mode);
            // The generated header alone must be a valid translation unit.
            devil::minic::compile(file, &c)
                .unwrap_or_else(|e| panic!("{name} ({mode:?}): generated C does not compile: {e}"));
        }
    }
}

#[test]
fn both_ide_drivers_boot_identically_clean() {
    for (file, src, includes) in [
        (ide::IDE_C_FILE, ide::IDE_C_DRIVER.to_string(), vec![]),
        (
            ide::IDE_CDEVIL_FILE,
            ide::IDE_CDEVIL_DRIVER.to_string(),
            ide::cdevil_includes(),
        ),
    ] {
        let incs: Vec<(&str, &str)> =
            includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let program = devil::minic::compile_with_includes(file, &src, &incs).unwrap();
        let mut scenario = IdeBootScenario::new(fs::standard_files());
        let mut io = scenario.build();
        let report = run_compiled(&scenario, &program.to_bytecode(), &mut io, DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::Boot, "{file}: {}", report.detail);
    }
}

#[test]
fn devil_compiler_catches_most_spec_mutants() {
    // A quick slice of Table 2: sample the busmouse mutants.
    let model = DevilMutationModel::new(specs::BUSMOUSE).unwrap();
    let mutants = devil::mutagen::sample(model.mutants(), 0.2, 99);
    let detected = mutants
        .iter()
        .filter(|m| devil::core::compile("busmouse.dil", &m.source).is_err())
        .count();
    let rate = detected as f64 / mutants.len() as f64;
    assert!(
        rate > 0.8,
        "Devil compiler detected only {:.0}% of spec mutants",
        rate * 100.0
    );
}

#[test]
fn classic_type_confusion_compile_time_in_cdevil_run_time_in_dil_eq() {
    // The Figure-4 scenario: passing the wrong typed constant.
    let bad = ide::IDE_CDEVIL_DRIVER.replace("set_Drive(MASTER);", "set_Drive(IDENTIFY);");
    assert_ne!(bad, ide::IDE_CDEVIL_DRIVER);
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let e = devil::minic::compile_with_includes(ide::IDE_CDEVIL_FILE, &bad, &incs_ref)
        .expect_err("struct types must catch this");
    assert!(e.to_string().contains("set_Drive"), "{e}");

    // The same confusion inside dil_eq is caught at *run time* (§2.3).
    let bad = ide::IDE_CDEVIL_DRIVER
        .replace("if (!dil_eq(get_Drive(), MASTER))", "if (!dil_eq(get_Drive(), IDENTIFY))");
    assert_ne!(bad, ide::IDE_CDEVIL_DRIVER);
    let (outcome, detail) = classify(ide::IDE_CDEVIL_FILE, &bad, &incs_ref);
    assert_eq!(outcome, Outcome::RuntimeCheck, "{detail}");
}

#[test]
fn plain_c_misses_what_devil_catches() {
    // Swap the drive-select constant in the C driver: compiles, boots,
    // and the error stays latent (status floats to "no drive" -> halt at
    // mount; the compiler said nothing).
    let bad = ide::IDE_C_DRIVER.replace("outb(0xe0 | sel, HD_CURRENT);", "outb(0xf0 | sel, HD_CURRENT);");
    assert_ne!(bad, ide::IDE_C_DRIVER);
    let (outcome, _) = classify(ide::IDE_C_FILE, &bad, &[]);
    assert!(
        !outcome.is_detected(),
        "plain C must not detect the raw constant typo, got {outcome}"
    );
}

#[test]
fn future_work_typed_eq_moves_the_check_to_compile_time() {
    // §6 of the paper: "we want to build a preprocessor tool that
    // generates a compile-time comparison function for any Devil type."
    // Implemented as the generated `eq_<var>` functions. The same
    // confusion that dil_eq only catches at run time is now a type error.
    let good = ide::IDE_CDEVIL_DRIVER
        .replace("if (!dil_eq(get_Drive(), MASTER))", "if (!eq_Drive(get_Drive(), MASTER))");
    assert_ne!(good, ide::IDE_CDEVIL_DRIVER);
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    devil::minic::compile_with_includes(ide::IDE_CDEVIL_FILE, &good, &incs_ref)
        .expect("typed comparison compiles");
    let bad = good.replace("eq_Drive(get_Drive(), MASTER)", "eq_Drive(get_Drive(), IDENTIFY)");
    let e = devil::minic::compile_with_includes(ide::IDE_CDEVIL_FILE, &bad, &incs_ref)
        .expect_err("typed comparison must reject the wrong constant at compile time");
    assert!(e.to_string().contains("eq_Drive"), "{e}");
}

#[test]
fn weak_types_ablation_collapses_compile_detection() {
    // The DESIGN.md ablation: against production stubs the struct encoding
    // disappears, so the same type-confusion mutant sails through.
    let bad = ide::IDE_CDEVIL_DRIVER.replace("set_Drive(MASTER);", "set_Drive(IDENTIFY);");
    let weak = [(
        ide::IDE_HEADER_NAME.to_string(),
        ide::ide_header(CodegenMode::Production),
    )];
    let weak_ref: Vec<(&str, &str)> =
        weak.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    devil::minic::compile_with_includes(ide::IDE_CDEVIL_FILE, &bad, &weak_ref)
        .expect("production stubs cannot catch type confusion");
}

#[test]
fn mutation_site_lines_agree_with_coverage_files() {
    // Dead-code classification depends on (file, line) agreement between
    // the mutation model and the interpreter.
    let model = CMutationModel::new(ide::IDE_CDEVIL_DRIVER, &[], CStyle::CDevil);
    let dead_line = ide::IDE_CDEVIL_DRIVER
        .lines()
        .position(|l| l.contains("sector id not found"))
        .unwrap() as u32
        + 1;
    // There is at least one site on the dead switch arm.
    assert!(
        model.sites().iter().any(|s| s.line == dead_line),
        "expected a mutation site on the dead arm at line {dead_line}"
    );
}

#[test]
fn table2_row_for_pci_spec_runs_quickly() {
    let model = DevilMutationModel::new(specs::PCI82371).unwrap();
    let mutants = model.mutants();
    assert!(mutants.len() > 500);
    let detected = mutants
        .iter()
        .filter(|m| devil::core::compile("pci82371.dil", &m.source).is_err())
        .count();
    let rate = detected as f64 / mutants.len() as f64;
    assert!((0.75..=1.0).contains(&rate), "detection rate {rate}");
}
