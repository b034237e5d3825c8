//! Per-scenario campaign throughput: the per-mutant unit of every
//! workload in the catalog.
//!
//! For each `(scenario, driver)` pairing in `devil_drivers::corpus` this
//! measures the cost the campaign engine pays per mutant once the mutant
//! is compiled: snapshot-restore the scenario's machine (the IDE
//! scenarios ride the platter's dirty-sector journal) and drive the full
//! workload through the bytecode VM. A second group measures the full
//! per-mutant pipeline (compile against the shared include cache + run)
//! for each scenario's heaviest driver.
//!
//! A full (non `--test`) run records the numbers under the `scenarios`
//! key of `BENCH_dispatch.json` (shared with the other benches via
//! `criterion::update_json_section`).

use criterion::{criterion_group, Criterion};
use devil_drivers::corpus::{build_scenario, scenario_catalog};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{Outcome, ScenarioMachine};
use devil_minic::pp::IncludeCache;

fn bench_scenarios(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_mutant");
    g.sample_size(20);
    for case in scenario_catalog() {
        for v in &case.drivers {
            let incs: Vec<(&str, &str)> =
                v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let program = devil_minic::compile_with_includes(v.file, v.source, &incs)
                .expect("bundled drivers compile");
            let compiled = program.to_bytecode();
            let mut machine = ScenarioMachine::with_scenario(
                build_scenario(case.scenario).expect("catalog scenario builds"),
                DEFAULT_FUEL,
            );
            g.bench_function(format!("{}_{}", case.scenario, v.label), |b| {
                b.iter(|| {
                    let report = machine.run_compiled(&compiled);
                    assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
                });
            });
        }
    }
    g.finish();

    // Full per-mutant pipeline (compile + run) on each scenario's last
    // driver variant — the CDevil flavour where one exists, i.e. the
    // pairing whose compile the shared include cache accelerates.
    let mut g = c.benchmark_group("scenario_pipeline");
    g.sample_size(10);
    for case in scenario_catalog() {
        let v = case.drivers.last().expect("every scenario has drivers");
        let incs: Vec<(&str, &str)> =
            v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let cache = IncludeCache::new(&incs);
        let mut machine = ScenarioMachine::with_scenario(
            build_scenario(case.scenario).expect("catalog scenario builds"),
            DEFAULT_FUEL,
        );
        g.bench_function(format!("{}_{}", case.scenario, v.label), |b| {
            b.iter(|| {
                let (outcome, detail) = machine.run_cached(v.file, v.source, &cache, None, None);
                assert_eq!(outcome, Outcome::Boot, "{detail}");
            });
        });
    }
    g.finish();
}

fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let entries = criterion::results_json(rs);
    let boot_c = criterion::ns_per_iter(rs, "scenario_mutant/ide-boot_ide_piix4_c");
    let stress_c = criterion::ns_per_iter(rs, "scenario_mutant/ide-stress_ide_piix4_c");
    let mouse = criterion::ns_per_iter(rs, "scenario_mutant/mouse-stream_busmouse_c");
    let ne = criterion::ns_per_iter(rs, "scenario_mutant/ne2000-stress_ne2000_c");
    let section = format!(
        "{{\"workload\": {{\"scenario_mutant\": \"per-mutant unit per scenario: snapshot restore (dirty-journal on IDE) + full workload on the bytecode VM, precompiled driver\", \"scenario_pipeline\": \"per-mutant incl. cached-include compile, per scenario\"}}, \"results\": {entries}, \"per_mutant_ns\": {{\"ide_boot_c\": {boot_c:.0}, \"ide_stress_c\": {stress_c:.0}, \"mouse_stream_c\": {mouse:.0}, \"ne2000_stress_c\": {ne:.0}}}}}"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "scenarios", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `scenarios` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_scenarios);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
