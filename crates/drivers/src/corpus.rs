//! The scenario catalog: which driver corpus runs under which workload.
//!
//! The scenario engine (`devil_kernel::scenario`) is deliberately
//! driver-agnostic. This module's one table names each scenario once,
//! with its constructor and the drivers that implement its entry-point
//! contract (and the mutation style each is mutated with). The table is
//! built on first use, which generates the CDevil stub headers, and every
//! lookup borrows it for the rest of the process: the campaign CLIs, the
//! service and its load client, the golden differential tests and the
//! `scenarios` bench. [`parse_scenario`] is the one reader of the
//! `<name>+faults` suffix (the same workload and corpus on flaky
//! hardware), for [`build_scenario`] and `devil_serve::parse_mix` alike;
//! every other lookup takes base names only.

use crate::{busmouse, ide, ne2000};
use devil_hwsim::{FaultPlan, DEFAULT_FAULT_SEED};
use devil_kernel::fs;
use devil_kernel::scenario::{FaultScenario, Scenario};
use devil_kernel::scenarios::{
    IdeBootScenario, IdeStressScenario, MouseStreamScenario, Ne2000StressScenario,
};
use devil_mutagen::c::{CMutationModel, CStyle};
use devil_mutagen::Mutant;
use std::sync::LazyLock;

/// One driver that runs under a scenario.
#[derive(Clone)]
pub struct DriverVariant {
    /// Stable label (golden files, table headings).
    pub label: &'static str,
    /// File name used in diagnostics and coverage.
    pub file: &'static str,
    /// Driver source with `DEVIL_MUT_BEGIN`/`END` markers.
    pub source: &'static str,
    /// Generated stub headers the driver compiles against (empty for
    /// plain C).
    pub headers: Vec<(String, String)>,
    /// Mutation style for `CMutationModel`.
    pub style: CStyle,
    /// Sampling fraction used by the golden differential tests — tuned so
    /// every variant contributes a few dozen mutants, not thousands.
    pub golden_fraction: f64,
}

impl DriverVariant {
    /// Every mutant of this driver, in generation order: a
    /// `CMutationModel` over its source and its own catalog headers.
    pub fn mutants(&self) -> Vec<Mutant> {
        let headers: Vec<&str> = self.headers.iter().map(|(_, text)| text.as_str()).collect();
        CMutationModel::new(self.source, &headers, self.style).mutants()
    }
}

/// One scenario, its constructor and its driver corpus.
pub struct ScenarioCase {
    /// The scenario's name, which is also its `Scenario::name()`.
    pub scenario: &'static str,
    /// The drivers exporting this scenario's entry-point contract.
    pub drivers: Vec<DriverVariant>,
    /// Constructs the scenario on fault-free hardware.
    new: fn() -> Box<dyn Scenario + Send>,
}

impl ScenarioCase {
    /// Construct the scenario, on hardware made flaky by `plan` when one
    /// is given: the `<name>+faults` variant.
    pub fn build(&self, plan: Option<FaultPlan>) -> Box<dyn Scenario + Send> {
        let base = (self.new)();
        match plan {
            Some(plan) => Box::new(FaultScenario::new(base, plan)),
            None => base,
        }
    }
}

/// The catalog, built on first use.
static CATALOG: LazyLock<Vec<ScenarioCase>> = LazyLock::new(|| {
    // The IDE pair serves every scenario that speaks the
    // `ide_probe`/`ide_read`/`ide_write` contract.
    let ide = vec![
        DriverVariant {
            label: "ide_piix4_c",
            file: ide::IDE_C_FILE,
            source: ide::IDE_C_DRIVER,
            headers: Vec::new(),
            style: CStyle::PlainC,
            golden_fraction: 0.008,
        },
        DriverVariant {
            label: "ide_piix4_cdevil",
            file: ide::IDE_CDEVIL_FILE,
            source: ide::IDE_CDEVIL_DRIVER,
            headers: ide::cdevil_includes(),
            style: CStyle::CDevil,
            golden_fraction: 0.008,
        },
    ];
    vec![
        ScenarioCase {
            scenario: "ide-boot",
            drivers: ide.clone(),
            new: || Box::new(IdeBootScenario::new(fs::standard_files())),
        },
        ScenarioCase {
            scenario: "ide-stress",
            drivers: ide,
            new: || Box::new(IdeStressScenario::new(fs::standard_files())),
        },
        ScenarioCase {
            scenario: "mouse-stream",
            drivers: vec![
                DriverVariant {
                    label: "busmouse_c",
                    file: busmouse::BM_C_FILE,
                    source: busmouse::BM_C_DRIVER,
                    headers: Vec::new(),
                    style: CStyle::PlainC,
                    golden_fraction: 0.10,
                },
                DriverVariant {
                    label: "busmouse_cdevil",
                    file: busmouse::BM_CDEVIL_FILE,
                    source: busmouse::BM_CDEVIL_DRIVER,
                    headers: busmouse::bm_includes(),
                    style: CStyle::CDevil,
                    golden_fraction: 0.10,
                },
            ],
            new: || Box::new(MouseStreamScenario::new()),
        },
        ScenarioCase {
            scenario: "ne2000-stress",
            drivers: vec![DriverVariant {
                label: "ne2000_c",
                file: ne2000::NE2000_C_FILE,
                source: ne2000::NE2000_C_DRIVER,
                headers: Vec::new(),
                style: CStyle::PlainC,
                golden_fraction: 0.05,
            }],
            new: || Box::new(Ne2000StressScenario::new()),
        },
    ]
});

/// The full pairing of scenarios and driver corpora, in table order.
pub fn scenario_catalog() -> &'static [ScenarioCase] {
    &CATALOG
}

/// Every scenario name in the catalog, in table order.
pub fn scenario_names() -> Vec<&'static str> {
    CATALOG.iter().map(|c| c.scenario).collect()
}

/// The catalog entry for one scenario by its base name (no `+faults`),
/// or `None` for names not in the catalog.
pub fn find_case(scenario: &str) -> Option<&'static ScenarioCase> {
    CATALOG.iter().find(|c| c.scenario == scenario)
}

/// Look up one driver of a scenario's corpus by its stable label — the
/// request-routing path of the campaign service, which keys workloads by
/// `(scenario, driver label)`.
pub fn find_variant(scenario: &str, label: &str) -> Option<&'static DriverVariant> {
    find_case(scenario)?
        .drivers
        .iter()
        .find(|v| v.label == label)
}

/// Resolve a scenario name: a catalog name runs on fault-free hardware,
/// and `<name>+faults` runs the same workload and corpus under the
/// [`default_fault_plan`]. Exactly one suffix is read, so
/// `<name>+faults+faults` resolves to nothing, as does any name whose
/// base is not in the catalog.
pub fn parse_scenario(name: &str) -> Option<(&'static ScenarioCase, Option<FaultPlan>)> {
    match name.strip_suffix("+faults") {
        Some(base) => Some((find_case(base)?, Some(default_fault_plan()))),
        None => Some((find_case(name)?, None)),
    }
}

/// Construct a scenario by name, as [`parse_scenario`] reads it: the
/// kebab-case `Scenario::name()` of a catalog entry, or its `+faults`
/// variant. For a different plan or seed use [`build_faulted`].
pub fn build_scenario(name: &str) -> Option<Box<dyn Scenario + Send>> {
    let (case, plan) = parse_scenario(name)?;
    Some(case.build(plan))
}

/// Construct the `<name>+faults` variant of a catalog scenario, given by
/// its base name, under an explicit [`FaultPlan`] — the per-plan/per-seed
/// axis of the fault attribution campaigns.
pub fn build_faulted(name: &str, plan: FaultPlan) -> Option<Box<dyn Scenario + Send>> {
    Some(find_case(name)?.build(Some(plan)))
}

/// The fault plan `<name>+faults` scenarios run under when none is given
/// explicitly: the `mixed` plan (a little of every fault kind at gentle
/// rates) at the harness-wide default seed — what the fault golden files
/// pin.
pub fn default_fault_plan() -> FaultPlan {
    FaultPlan::named("mixed", DEFAULT_FAULT_SEED).expect("`mixed` is a bundled plan")
}

/// Spec-revision fingerprint over the five bundled `.dil` specs, the
/// engine version and the `fuel` budget — the `spec_rev` every outcome
/// ledger key in this workspace is stamped with (see
/// `devil_kernel::fingerprint`). Compute it once per campaign or service,
/// never per mutant.
pub fn spec_revision(fuel: u64) -> u64 {
    devil_kernel::fingerprint::spec_revision(
        crate::specs::all().iter().map(|(_, file, src)| (*file, *src)),
        fuel,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_kernel::boot::DEFAULT_FUEL;
    use devil_kernel::scenario::run_mutant_in;
    use devil_kernel::Outcome;

    #[test]
    fn every_catalog_name_builds() {
        for case in scenario_catalog() {
            let s = build_scenario(case.scenario).expect("catalog names must build");
            assert_eq!(s.name(), case.scenario);
            assert!(!case.drivers.is_empty());
        }
        assert!(build_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn scenario_names_match_the_catalog() {
        let in_table_order: Vec<&str> = scenario_catalog().iter().map(|c| c.scenario).collect();
        assert_eq!(scenario_names(), in_table_order);
        // find_case returns the first match, so a repeated name would
        // shadow its later entry.
        let mut unique = in_table_order.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            in_table_order.len(),
            "scenario names are unique"
        );
    }

    #[test]
    fn fault_variants_build_for_every_catalog_name() {
        for case in scenario_catalog() {
            let full = format!("{}+faults", case.scenario);
            let s = build_scenario(&full).expect("fault variant must build");
            assert_eq!(s.name(), full);
            assert!(
                build_scenario(&format!("{full}+faults")).is_none(),
                "one suffix only"
            );
        }
        assert!(build_scenario("no-such-scenario+faults").is_none());
        // Explicit plans work too, and keep the same variant name.
        let s = build_faulted("mouse-stream", FaultPlan::named("bus-noise", 7).unwrap())
            .unwrap();
        assert_eq!(s.name(), "mouse-stream+faults");
        assert!(build_faulted("mouse-stream+faults", default_fault_plan()).is_none());
    }

    #[test]
    fn faults_suffix_resolves_to_the_base_case_under_the_default_plan() {
        for case in scenario_catalog() {
            let (base, plan) = parse_scenario(case.scenario).expect("catalog name resolves");
            assert!(std::ptr::eq(base, case) && plan.is_none());
            let faulted = format!("{}+faults", case.scenario);
            let (base, plan) = parse_scenario(&faulted).expect("fault variant resolves");
            assert!(std::ptr::eq(base, case), "{faulted} runs the base corpus");
            assert_eq!(plan, Some(default_fault_plan()), "{faulted}");
            assert!(parse_scenario(&format!("{faulted}+faults")).is_none());
        }
        assert!(parse_scenario("no-such-scenario+faults").is_none());
        assert!(parse_scenario("+faults").is_none());
    }

    #[test]
    fn catalog_lookups_resolve_names_labels_and_files() {
        for case in scenario_catalog() {
            let found = find_case(case.scenario).expect("catalog case resolves");
            assert!(std::ptr::eq(found, case));
            assert!(
                find_case(&format!("{}+faults", case.scenario)).is_none(),
                "base names only"
            );
            for v in &case.drivers {
                let variant = find_variant(case.scenario, v.label)
                    .expect("driver label resolves");
                assert_eq!(variant.file, v.file);
            }
        }
        assert!(find_case("no-such-scenario").is_none());
        assert!(find_variant("ide-boot", "no-such-driver").is_none());
    }

    #[test]
    fn lookups_borrow_the_one_catalog() {
        let first = find_variant("ide-boot", "ide_piix4_cdevil").unwrap();
        let again = find_variant("ide-boot", "ide_piix4_cdevil").unwrap();
        assert!(
            std::ptr::eq(first, again),
            "the catalog is built once per process"
        );
        assert!(std::ptr::eq(scenario_catalog(), scenario_catalog()));
    }

    #[test]
    fn every_clean_driver_passes_its_scenario() {
        // At half the budget too: a clean run that needs more than half
        // of `DEFAULT_FUEL` fails here instead of turning the campaigns'
        // verdicts into silent InfiniteLoops.
        for case in scenario_catalog() {
            for v in &case.drivers {
                let incs: Vec<(&str, &str)> =
                    v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                for fuel in [DEFAULT_FUEL, DEFAULT_FUEL / 2] {
                    let scenario = build_scenario(case.scenario).unwrap();
                    let (outcome, detail) =
                        run_mutant_in(scenario, v.file, v.source, &incs, None, fuel);
                    assert_eq!(
                        outcome,
                        Outcome::Boot,
                        "{}/{} at fuel {fuel}: clean driver must pass clean: {detail}",
                        case.scenario,
                        v.label
                    );
                }
            }
        }
    }
}
