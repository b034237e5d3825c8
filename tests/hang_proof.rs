//! The VM's hang detector against the tree-walking oracle, over every
//! hang of both full IDE mutant populations.
//!
//! The bytecode VM ends a call early when its whole state, the machine's
//! included, repeats exactly (`devil_minic::vm::CYCLE_CHECK_AFTER`): such
//! a run could only end by running its fuel out, so the VM reports that at
//! once. The interpreter has no detector and always burns the budget. For
//! every mutant the VM classifies `InfiniteLoop` under the `ide-boot`
//! scenario, this test runs the oracle on the same machine and requires
//! the same outcome, detail, console and coverage. Bus accesses show how
//! far each engine ran: a proven hang stops with far fewer than the
//! oracle's full-budget run makes.

use devil::drivers::corpus::{find_case, DriverVariant};
use devil::hwsim::{IoSpace, Snapshot};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::{run_compiled, run_interp, Outcome, ScenarioReport};
use devil::kernel::Scenario;
use devil::minic::pp::IncludeCache;
use devil::mutagen::{Campaign, Mutant};

/// What one hang cost each engine, in bus accesses.
struct Hang {
    vm: u64,
    oracle: u64,
}

fn accesses(io: &IoSpace) -> u64 {
    io.read_count() + io.write_count()
}

/// Every hang of `v`'s full population, checked against the oracle.
fn hangs_of(v: &DriverVariant) -> Vec<Hang> {
    let case = find_case("ide-boot").expect("ide-boot is in the catalog");
    let includes: Vec<(&str, &str)> = v
        .headers
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let cache = IncludeCache::new(&includes);
    let mutants: Vec<Mutant> = v.mutants();
    let found = Campaign::new(
        || {
            let mut scenario = case.build(None);
            let io = scenario.build();
            let pristine = io.snapshot();
            (scenario, io, pristine)
        },
        |(scenario, io, pristine): &mut (Box<dyn Scenario + Send>, IoSpace, Snapshot),
         m: &Mutant| {
            let program = devil::minic::compile_with_cache(v.file, &m.source, &cache).ok()?;
            io.restore(pristine)
                .expect("pristine snapshot of this machine");
            let start = accesses(io);
            let vm = run_compiled(&**scenario, &program.to_bytecode(), io, DEFAULT_FUEL);
            if vm.outcome != Outcome::InfiniteLoop {
                return None;
            }
            let vm_accesses = accesses(io) - start;
            io.restore(pristine)
                .expect("pristine snapshot of this machine");
            let oracle = run_interp(&**scenario, &program, io, DEFAULT_FUEL);
            assert_same(
                &vm,
                &oracle,
                &format!("{}: site {} ({})", v.label, m.site, m.description),
            );
            Some(Hang {
                vm: vm_accesses,
                oracle: accesses(io) - start,
            })
        },
    )
    .with_threads(2)
    .run(&mutants);
    found.into_iter().flatten().collect()
}

fn assert_same(vm: &ScenarioReport, oracle: &ScenarioReport, what: &str) {
    assert_eq!(vm.outcome, oracle.outcome, "{what}: outcome diverged");
    assert_eq!(vm.detail, oracle.detail, "{what}: detail diverged");
    assert_eq!(vm.console, oracle.console, "{what}: console diverged");
    assert_eq!(vm.coverage, oracle.coverage, "{what}: coverage diverged");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimized; run with --release (CI does)"
)]
fn every_ide_hang_ends_as_the_oracle_does() {
    let case = find_case("ide-boot").expect("ide-boot is in the catalog");
    // Each population's hang count pins its outcomes: the detector only
    // ends hangs sooner, it never turns a run into one or out of one.
    for (label, all_hangs, least_early) in [("ide_piix4_c", 171, 135), ("ide_piix4_cdevil", 109, 1)]
    {
        let v = case
            .drivers
            .iter()
            .find(|v| v.label == label)
            .expect("catalog driver");
        let hangs = hangs_of(v);
        assert_eq!(hangs.len(), all_hangs, "{label}: the hang count moved");
        // A proven hang stops within a few cycles of the check threshold;
        // the oracle's run makes every access of the 1.5M-unit budget.
        let early = hangs.iter().filter(|h| h.vm * 4 < h.oracle).count();
        eprintln!("{label}: {early} of {} hangs proven early", hangs.len());
        assert!(
            early >= least_early,
            "{label}: only {early} of {} hangs ended early (want at least {least_early})",
            hangs.len()
        );
    }
}
