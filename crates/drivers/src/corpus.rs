//! The scenario catalog: which driver corpus runs under which workload.
//!
//! The scenario engine (`devil_kernel::scenario`) is deliberately
//! driver-agnostic; this module supplies the pairing the experiments
//! actually run — for every scenario name, the drivers that implement its
//! entry-point contract (and the mutation style each is mutated with).
//! The campaign CLIs (`devil table3`/`devil table4` and the
//! `mutation_campaign` example, all taking `--scenario=<name>`), the
//! per-scenario golden differential tests and the `scenarios` bench all
//! resolve workloads through this one table.

use crate::{busmouse, ide, ne2000};
use devil_hwsim::{FaultPlan, DEFAULT_FAULT_SEED};
use devil_kernel::fs;
use devil_kernel::scenario::{FaultScenario, Scenario};
use devil_kernel::scenarios::{
    IdeBootScenario, IdeStressScenario, MouseStreamScenario, Ne2000StressScenario,
};
use devil_mutagen::c::CStyle;

/// One driver that runs under a scenario.
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

/// One scenario and its driver corpus.
pub struct ScenarioCase {
    /// The scenario name ([`build_scenario`] accepts it).
    pub scenario: &'static str,
    /// The drivers exporting this scenario's entry-point contract.
    pub drivers: Vec<DriverVariant>,
}

/// Construct a scenario by name. Names are the kebab-case
/// `Scenario::name()` values listed by [`scenario_names`], and every one
/// of them also exists as a `<name>+faults` variant: the same workload on
/// deterministically flaky hardware, under the [`default_fault_plan`].
/// For a different plan or seed use [`build_faulted`].
pub fn build_scenario(name: &str) -> Option<Box<dyn Scenario + Send>> {
    if let Some(base) = name.strip_suffix("+faults") {
        return build_faulted(base, default_fault_plan());
    }
    match name {
        "ide-boot" => Some(Box::new(IdeBootScenario::new(fs::standard_files()))),
        "ide-stress" => Some(Box::new(IdeStressScenario::new(fs::standard_files()))),
        "mouse-stream" => Some(Box::new(MouseStreamScenario::new())),
        "ne2000-stress" => Some(Box::new(Ne2000StressScenario::new())),
        _ => None,
    }
}

/// Construct the `<name>+faults` variant of a catalog scenario under an
/// explicit [`FaultPlan`] — the per-plan/per-seed axis of the fault
/// attribution campaigns.
pub fn build_faulted(name: &str, plan: FaultPlan) -> Option<Box<dyn Scenario + Send>> {
    let base = build_scenario(name)?;
    Some(Box::new(FaultScenario::new(base, plan)))
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

/// Every scenario name in the catalog, in table order (kept in sync with
/// [`scenario_catalog`] by the crate's tests — no driver corpus is built
/// just to list names).
pub fn scenario_names() -> &'static [&'static str] {
    &["ide-boot", "ide-stress", "mouse-stream", "ne2000-stress"]
}

/// The catalog entry for one scenario, or `None` for names not in the
/// catalog (`+faults` suffixes resolve to their base scenario's corpus:
/// the fault variant runs the same drivers on flakier hardware).
pub fn find_case(scenario: &str) -> Option<ScenarioCase> {
    let base = scenario.strip_suffix("+faults").unwrap_or(scenario);
    scenario_catalog().into_iter().find(|c| c.scenario == base)
}

/// Look up one driver of a scenario's corpus by its stable label — the
/// request-routing path of the campaign service, which keys workloads by
/// `(scenario, driver label)`.
pub fn find_variant(scenario: &str, label: &str) -> Option<DriverVariant> {
    find_case(scenario)?.drivers.into_iter().find(|v| v.label == label)
}

/// The include headers a driver file compiles against, looked up across
/// the whole catalog by file name (`None` for unknown files). Service
/// workers use this to build one shared pre-lexed `IncludeCache` per
/// driver file, whatever scenario a request pairs it with.
pub fn driver_headers(file: &str) -> Option<Vec<(String, String)>> {
    scenario_catalog()
        .into_iter()
        .flat_map(|c| c.drivers)
        .find(|v| v.file == file)
        .map(|v| v.headers)
}

/// The IDE driver pair — shared by every scenario that speaks the
/// `ide_probe`/`ide_read`/`ide_write` contract.
fn ide_drivers() -> Vec<DriverVariant> {
    vec![
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
    ]
}

/// The full pairing of scenarios and driver corpora.
pub fn scenario_catalog() -> Vec<ScenarioCase> {
    vec![
        ScenarioCase { scenario: "ide-boot", drivers: ide_drivers() },
        ScenarioCase { scenario: "ide-stress", drivers: ide_drivers() },
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
        },
    ]
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
    fn fault_variants_build_for_every_catalog_name() {
        for name in scenario_names() {
            let full = format!("{name}+faults");
            let s = build_scenario(&full).expect("fault variant must build");
            assert_eq!(s.name(), full);
        }
        assert!(build_scenario("no-such-scenario+faults").is_none());
        // Explicit plans work too, and keep the same variant name.
        let s = build_faulted("mouse-stream", FaultPlan::named("bus-noise", 7).unwrap())
            .unwrap();
        assert_eq!(s.name(), "mouse-stream+faults");
    }

    #[test]
    fn scenario_names_match_the_catalog() {
        let from_catalog: Vec<&str> =
            scenario_catalog().iter().map(|c| c.scenario).collect();
        assert_eq!(scenario_names(), from_catalog.as_slice());
    }

    #[test]
    fn catalog_lookups_resolve_names_labels_and_files() {
        for case in scenario_catalog() {
            let found = find_case(case.scenario).expect("catalog case resolves");
            assert_eq!(found.scenario, case.scenario);
            // The fault variant shares the base scenario's corpus.
            let faulted = find_case(&format!("{}+faults", case.scenario))
                .expect("fault variant resolves to the base corpus");
            assert_eq!(faulted.scenario, case.scenario);
            for v in &case.drivers {
                let variant = find_variant(case.scenario, v.label)
                    .expect("driver label resolves");
                assert_eq!(variant.file, v.file);
                let headers = driver_headers(v.file).expect("driver file resolves");
                assert_eq!(headers.len(), v.headers.len());
            }
        }
        assert!(find_case("no-such-scenario").is_none());
        assert!(find_variant("ide-boot", "no-such-driver").is_none());
        assert!(driver_headers("no_such_file.c").is_none());
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
