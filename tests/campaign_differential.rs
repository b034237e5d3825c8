//! Differential campaign test: the snapshot-reset engine must classify
//! exactly like the rebuild-per-mutant path.
//!
//! Samples the bundled busmouse and IDE (PIIX4) driver mutant sets, runs
//! every sampled mutant through
//!
//! * the **rebuild** path — `kernel::scenario::run_mutant_in` on the
//!   `ide-boot` scenario, which constructs a fresh machine per mutant, and
//! * the **reset** path — a `mutagen::Campaign` of per-worker
//!   `ScenarioMachine`s that snapshot-restore one machine per mutant,
//!
//! and asserts the outcome vectors are identical — then pins both against
//! the golden file under `tests/golden/`, so a semantic regression in
//! either path (not just a divergence between them) fails the test.
//!
//! Regenerate the golden file with:
//!
//! ```text
//! DEVIL_BLESS=1 cargo test --release --test campaign_differential
//! ```

use devil::drivers::{busmouse, ide};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::fs;
use devil::kernel::scenario::{run_mutant_in, Outcome, ScenarioMachine};
use devil::kernel::scenarios::IdeBootScenario;
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::{run_parallel, sample, Campaign, Mutant};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_differential.txt"
);

/// Workers for both paths. Two is enough to exercise cross-thread
/// workspace ownership without flooding small CI machines.
const THREADS: usize = 2;

struct MutantSet {
    label: &'static str,
    file: &'static str,
    source: &'static str,
    headers: Vec<(String, String)>,
    style: CStyle,
    /// Sampling fraction, tuned so each set stays at a few dozen boots.
    fraction: f64,
}

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

fn sampled_mutants(set: &MutantSet) -> Vec<Mutant> {
    let header_texts: Vec<&str> = set.headers.iter().map(|(_, t)| t.as_str()).collect();
    let model = CMutationModel::new(set.source, &header_texts, set.style);
    sample(model.mutants(), set.fraction, 2001)
}

#[test]
// ~100 interpreted kernel boots: 20 s unoptimized vs 2 s in release. CI
// runs it in a dedicated release step; skipping the debug pass avoids
// paying for the same boots twice per pipeline.
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release (CI does)")]
fn reset_engine_matches_rebuild_per_mutant() {
    let files = fs::standard_files();
    let mut golden = String::new();
    for set in mutant_sets() {
        let mutants = sampled_mutants(&set);
        assert!(
            mutants.len() >= 10,
            "{}: sample too small ({}) to be meaningful",
            set.label,
            mutants.len()
        );
        let incs: Vec<(&str, &str)> =
            set.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();

        // Old path: a fresh machine per mutant.
        let rebuild: Vec<Outcome> = run_parallel(&mutants, THREADS, |m| {
            let scenario = IdeBootScenario::new(&files[..]);
            run_mutant_in(scenario, set.file, &m.source, &incs, Some(m.line), DEFAULT_FUEL).0
        });
        // New path: one machine per worker, snapshot-restored per mutant.
        let reset: Vec<Outcome> = Campaign::new(
            || ScenarioMachine::with_scenario(IdeBootScenario::new(&files[..]), DEFAULT_FUEL),
            |machine: &mut ScenarioMachine<IdeBootScenario>, m: &Mutant| {
                machine.run(set.file, &m.source, &incs, Some(m.line)).0
            },
        )
        .with_threads(THREADS)
        .run(&mutants);

        for (i, m) in mutants.iter().enumerate() {
            assert_eq!(
                rebuild[i], reset[i],
                "{}: site {} ({}) classified differently by the reset engine",
                set.label, m.site, m.description
            );
            writeln!(
                golden,
                "{}\t{}\t{}\t{:?}",
                set.label, m.site, m.description, reset[i]
            )
            .expect("writing to a String cannot fail");
        }
    }

    if std::env::var_os("DEVIL_BLESS").is_some() {
        std::fs::write(GOLDEN, &golden).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with DEVIL_BLESS=1 to create it");
    assert_eq!(
        golden, expected,
        "campaign outcomes diverged from tests/golden/campaign_differential.txt \
         (rerun with DEVIL_BLESS=1 if the change is intended)"
    );
}
