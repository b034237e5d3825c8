//! Fault-injection overhead: what the interposer costs per mutant.
//!
//! The fault layer sits on the `IoSpace` dispatch hot path, so every
//! campaign — faulted or not — cares about its cost. Four per-mutant
//! configurations of the clean IDE boot driver isolate it:
//!
//! * **fault_free** — no interposer installed: the baseline per-mutant
//!   unit (snapshot restore + full boot on the bytecode VM), block I/O
//!   fast paths active.
//! * **noop_plan** — the `none` plan selected through the campaign path
//!   (`build_faulted`). Rule-less plans are routed around the interposer
//!   entirely, so this must track `fault_free` — the ratio is the
//!   regression guard for that routing.
//! * **noop_seam** — the rule-less interposer *force-installed* at the
//!   bus level, which is what `--fault-plan=none` used to pay: the
//!   interposer is consulted on every access and the block fast paths
//!   decline, but zero rules match. Kept measurable as the "before"
//!   number, and because the hwsim proptests pin this configuration's
//!   behavioural identity.
//! * **mixed_plan** — the default `mixed` plan under
//!   `DEFAULT_FAULT_SEED`: rule matching plus PRNG draws on the faulted
//!   windows. The boot degrades (the hardware *is* flaky) but must never
//!   classify as a compile- or run-time check — that is the attribution
//!   guarantee, asserted on every iteration here.
//!
//! A full (non `--test`) run records the numbers and the overhead ratios
//! under the `faults` key of `BENCH_dispatch.json` (shared with the
//! other benches via `criterion::update_json_section`).

use criterion::{criterion_group, Criterion};
use devil_drivers::corpus::{build_faulted, build_scenario, scenario_catalog};
use devil_hwsim::{FaultPlan, IoSpace, DEFAULT_FAULT_SEED};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{Drive, Outcome, Scenario, ScenarioEngine, ScenarioMachine};
use devil_minic::bytecode::CompiledProgram;

const SCENARIO: &str = "ide-boot";

/// A scenario with a fault plan force-installed at the bus level,
/// bypassing the empty-plan routing in `FaultScenario` — the
/// configuration the campaign path paid before rule-less plans were
/// routed to the fault-free path.
struct SeamScenario {
    inner: Box<dyn Scenario + Send>,
    plan: FaultPlan,
}

impl Scenario for SeamScenario {
    fn name(&self) -> &'static str {
        "ide-boot+seam"
    }
    fn build(&mut self) -> IoSpace {
        let mut io = self.inner.build();
        io.install_faults(self.plan.clone());
        io
    }
    fn drive(&self, engine: &mut dyn ScenarioEngine) -> Drive {
        self.inner.drive(engine)
    }
    fn inspect(&self, io: &mut IoSpace, damage: &mut Vec<String>) {
        self.inner.inspect(io, damage)
    }
}

fn clean_ide_driver() -> CompiledProgram {
    let case = scenario_catalog()
        .into_iter()
        .find(|c| c.scenario == SCENARIO)
        .expect("ide-boot is in the catalog");
    let v = &case.drivers[0];
    let incs: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    devil_minic::compile_with_includes(v.file, v.source, &incs)
        .expect("bundled drivers compile")
        .to_bytecode()
}

fn bench_faults(c: &mut Criterion) {
    let compiled = clean_ide_driver();
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(20);

    let mut machine = ScenarioMachine::with_scenario(
        build_scenario(SCENARIO).expect("catalog scenario builds"),
        DEFAULT_FUEL,
    );
    g.bench_function("fault_free", |b| {
        b.iter(|| {
            let report = machine.run_compiled(&compiled);
            assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
        });
    });

    let mut machine = ScenarioMachine::with_scenario(
        build_faulted(SCENARIO, FaultPlan::none(DEFAULT_FAULT_SEED))
            .expect("catalog scenario builds"),
        DEFAULT_FUEL,
    );
    g.bench_function("noop_plan", |b| {
        b.iter(|| {
            let report = machine.run_compiled(&compiled);
            assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
        });
    });

    let mut machine = ScenarioMachine::with_scenario(
        SeamScenario {
            inner: build_scenario(SCENARIO).expect("catalog scenario builds"),
            plan: FaultPlan::none(DEFAULT_FAULT_SEED),
        },
        DEFAULT_FUEL,
    );
    g.bench_function("noop_seam", |b| {
        b.iter(|| {
            let report = machine.run_compiled(&compiled);
            assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
        });
    });

    let mut machine = ScenarioMachine::with_scenario(
        build_faulted(SCENARIO, FaultPlan::named("mixed", DEFAULT_FAULT_SEED).unwrap())
            .expect("catalog scenario builds"),
        DEFAULT_FUEL,
    );
    g.bench_function("mixed_plan", |b| {
        b.iter(|| {
            let report = machine.run_compiled(&compiled);
            // A clean driver on flaky hardware may fail to boot, but the
            // failure must never look like a detected driver bug.
            assert!(
                !report.outcome.is_detected(),
                "hardware fault misattributed as a driver bug: {:?} ({})",
                report.outcome,
                report.detail
            );
        });
    });

    g.finish();
}

fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let free = criterion::ns_per_iter(rs, "fault_overhead/fault_free");
    let noop = criterion::ns_per_iter(rs, "fault_overhead/noop_plan");
    let seam = criterion::ns_per_iter(rs, "fault_overhead/noop_seam");
    let mixed = criterion::ns_per_iter(rs, "fault_overhead/mixed_plan");
    let entries = criterion::results_json(rs);
    let section = format!(
        "{{\"workload\": {{\"fault_overhead\": \"clean IDE boot per mutant (snapshot restore + bytecode VM): no interposer vs the none plan through the campaign path (routed around the interposer) vs a force-installed empty interposer (seam + no block fast path) vs the default mixed plan\"}}, \"results\": {entries}, \"overhead\": {{\"noop_plan_vs_fault_free\": {:.2}, \"noop_seam_vs_fault_free\": {:.2}, \"mixed_plan_vs_fault_free\": {:.2}}}}}",
        noop / free,
        seam / free,
        mixed / free,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "faults", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `faults` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_faults);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
