//! Boot-harness throughput: one full simulated boot per iteration — the
//! unit of Table 3/4 work (the paper needed ~2 minutes per mutant on real
//! hardware; this measures our equivalent).
//!
//! Since the snapshot/reset engine cut the machine reset to ~2 µs, the
//! minic execution engine is >95% of a mutant boot, so this bench runs
//! every workload through **both** engines:
//!
//! * `boot/*_interp` — the tree-walking interpreter (the oracle);
//! * `boot/*_vm` — the bytecode VM (the production boot path);
//! * `mutant_boot/*` — the campaign per-mutant unit on the `ide-boot`
//!   scenario: snapshot-restore the machine, then boot a precompiled
//!   driver (the machine-reset-only numbers live in the `campaign_reset`
//!   bench on the NE2000 harness);
//! * `mutant_pipeline/*` — the full per-mutant pipeline including the
//!   compile: `ScenarioMachine::run` on the `ide-boot` scenario
//!   (pre-lexed include cache + VM) vs compile-from-scratch + tree-walker;
//! * `driver_compile/*` — front-end cost, with and without the include
//!   cache.
//!
//! A full (non `--test`) run records the numbers and the VM-vs-interpreter
//! speedups under the `boot` key of `BENCH_dispatch.json` (shared with the
//! other benches via `criterion::update_json_section`).

use criterion::{criterion_group, Criterion};
use devil_drivers::ide;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::fs;
use devil_kernel::scenario::{run_compiled, run_interp, Outcome, Scenario, ScenarioMachine};
use devil_kernel::scenarios::IdeBootScenario;
use devil_minic::pp::IncludeCache;
use devil_minic::Program;

fn compile_c() -> Program {
    devil_minic::compile(ide::IDE_C_FILE, ide::IDE_C_DRIVER).unwrap()
}

fn compile_cdevil() -> Program {
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    devil_minic::compile_with_includes(ide::IDE_CDEVIL_FILE, ide::IDE_CDEVIL_DRIVER, &incs_ref)
        .unwrap()
}

fn bench_boot(c: &mut Criterion) {
    let mut g = c.benchmark_group("boot");
    g.sample_size(20);
    let files = fs::standard_files();
    for (label, program) in [("c_driver", compile_c()), ("cdevil_driver", compile_cdevil())] {
        let compiled = program.to_bytecode();
        g.bench_function(format!("{label}_interp"), |b| {
            b.iter(|| {
                let mut scenario = IdeBootScenario::new(&files[..]);
                let mut io = scenario.build();
                let report = run_interp(&scenario, &program, &mut io, DEFAULT_FUEL);
                assert_eq!(report.outcome, Outcome::Boot);
            });
        });
        g.bench_function(format!("{label}_vm"), |b| {
            b.iter(|| {
                let mut scenario = IdeBootScenario::new(&files[..]);
                let mut io = scenario.build();
                let report = run_compiled(&scenario, &compiled, &mut io, DEFAULT_FUEL);
                assert_eq!(report.outcome, Outcome::Boot);
            });
        });
    }
    g.finish();
}

/// The campaign per-mutant unit: machine already built, snapshot-restore
/// then boot. This is what the reset engine executes thousands of times.
/// The CDevil flavour is the headline: debug stubs make its boot
/// execution-bound, whereas the tiny C driver boot is dominated by the
/// 2 MiB platter restore and the device models themselves (the ROADMAP's
/// dirty-sector journal is the next lever there).
fn bench_mutant_boot(c: &mut Criterion) {
    let mut g = c.benchmark_group("mutant_boot");
    g.sample_size(20);
    let mut scenario = IdeBootScenario::new(fs::standard_files());
    let mut io = scenario.build();
    let pristine = io.snapshot();
    for (label, program) in
        [("ide_c", compile_c()), ("ide_cdevil", compile_cdevil())]
    {
        let compiled = program.to_bytecode();
        g.bench_function(format!("{label}_interp"), |b| {
            b.iter(|| {
                io.restore(&pristine).unwrap();
                let report = run_interp(&scenario, &program, &mut io, DEFAULT_FUEL);
                assert_eq!(report.outcome, Outcome::Boot);
            });
        });
        g.bench_function(format!("{label}_vm"), |b| {
            b.iter(|| {
                io.restore(&pristine).unwrap();
                let report = run_compiled(&scenario, &compiled, &mut io, DEFAULT_FUEL);
                assert_eq!(report.outcome, Outcome::Boot);
            });
        });
    }
    g.finish();
}

/// Full per-mutant pipeline including the front end, CDevil flavour (the
/// generated header dominates compile time, so the include cache matters).
fn bench_mutant_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("mutant_pipeline");
    g.sample_size(10);
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();

    // Old path: compile from scratch, tree-walker boot, fresh machine state
    // via snapshot restore.
    let mut scenario = IdeBootScenario::new(fs::standard_files());
    let mut io = scenario.build();
    let pristine = io.snapshot();
    g.bench_function("cdevil_interp_uncached", |b| {
        b.iter(|| {
            let program = devil_minic::compile_with_includes(
                ide::IDE_CDEVIL_FILE,
                ide::IDE_CDEVIL_DRIVER,
                &incs_ref,
            )
            .unwrap();
            io.restore(&pristine).unwrap();
            let report = run_interp(&scenario, &program, &mut io, DEFAULT_FUEL);
            assert_eq!(report.outcome, Outcome::Boot);
        });
    });

    // New path: ScenarioMachine (include cache + lowering + VM boot).
    let mut machine =
        ScenarioMachine::with_scenario(IdeBootScenario::new(fs::standard_files()), DEFAULT_FUEL);
    g.bench_function("cdevil_campaign_machine", |b| {
        b.iter(|| {
            let (outcome, _) =
                machine.run(ide::IDE_CDEVIL_FILE, ide::IDE_CDEVIL_DRIVER, &incs_ref, None);
            assert_eq!(outcome, Outcome::Boot);
        });
    });
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("driver_compile");
    g.bench_function("c_driver", |b| b.iter(compile_c));
    g.bench_function("cdevil_driver", |b| b.iter(compile_cdevil));
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let cache = IncludeCache::new(&incs_ref);
    g.bench_function("cdevil_driver_cached_includes", |b| {
        b.iter(|| {
            devil_minic::compile_with_cache(
                ide::IDE_CDEVIL_FILE,
                ide::IDE_CDEVIL_DRIVER,
                &cache,
            )
            .unwrap()
        });
    });
    let program = compile_cdevil();
    g.bench_function("cdevil_lower_to_bytecode", |b| b.iter(|| program.to_bytecode()));
    g.finish();
}

fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let boot_c_interp = criterion::ns_per_iter(rs, "boot/c_driver_interp");
    let boot_c_vm = criterion::ns_per_iter(rs, "boot/c_driver_vm");
    let boot_cd_interp = criterion::ns_per_iter(rs, "boot/cdevil_driver_interp");
    let boot_cd_vm = criterion::ns_per_iter(rs, "boot/cdevil_driver_vm");
    let mut_interp = criterion::ns_per_iter(rs, "mutant_boot/ide_cdevil_interp");
    let mut_vm = criterion::ns_per_iter(rs, "mutant_boot/ide_cdevil_vm");
    let mut_c_interp = criterion::ns_per_iter(rs, "mutant_boot/ide_c_interp");
    let mut_c_vm = criterion::ns_per_iter(rs, "mutant_boot/ide_c_vm");
    let pipe_old = criterion::ns_per_iter(rs, "mutant_pipeline/cdevil_interp_uncached");
    let pipe_new = criterion::ns_per_iter(rs, "mutant_pipeline/cdevil_campaign_machine");
    let compile_uncached = criterion::ns_per_iter(rs, "driver_compile/cdevil_driver");
    let compile_cached =
        criterion::ns_per_iter(rs, "driver_compile/cdevil_driver_cached_includes");
    let entries = criterion::results_json(rs);
    let section = format!(
        "{{\"workload\": {{\"boot\": \"full simulated IDE boot, tree-walking interpreter vs bytecode VM\", \"mutant_boot\": \"campaign per-mutant unit: snapshot restore + boot of a precompiled driver\", \"mutant_pipeline\": \"per-mutant incl. front end: scratch compile + tree-walk vs ScenarioMachine on ide-boot (include cache + VM)\", \"driver_compile\": \"front-end cost, plus bytecode lowering and the pre-lexed include cache\"}}, \"results\": {entries}, \"speedup\": {{\"boot_c_vm_vs_interp\": {:.2}, \"boot_cdevil_vm_vs_interp\": {:.2}, \"per_mutant_boot_vm_vs_interp\": {:.2}, \"per_mutant_boot_c_vm_vs_interp\": {:.2}, \"per_mutant_pipeline_new_vs_old\": {:.2}, \"cdevil_compile_cached_includes\": {:.2}}}}}",
        boot_c_interp / boot_c_vm,
        boot_cd_interp / boot_cd_vm,
        mut_interp / mut_vm,
        mut_c_interp / mut_c_vm,
        pipe_old / pipe_new,
        compile_uncached / compile_cached,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "boot", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `boot` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_boot, bench_mutant_boot, bench_mutant_pipeline, bench_compile);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
