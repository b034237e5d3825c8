//! VM execution-core throughput: the superinstruction fusion pass and the
//! block-transfer I/O fast path, A/B-measured against the PR-4 execution
//! paths they replace.
//!
//! * `vm_exec/cdevil_boot_{fused,unfused}` — the CDevil IDE per-mutant
//!   boot (snapshot restore + boot of a precompiled driver) with the
//!   superinstruction pass on vs off; the unfused flavour *is* the PR-4
//!   dispatch loop.
//! * `vm_exec/ne2000_stress_{block,words_fused,words_unfused}` — the
//!   NE2000 stress per-mutant unit on the block-transfer driver
//!   (`insb`/`insw`/`outsw` riding the `hwsim` bulk-access hook) vs the
//!   word-at-a-time driver, fused and unfused; `words_unfused` is the
//!   full PR-4 path.
//! * `vm_exec/poll_loop_{fused,unfused}` — a bare polling loop, for the
//!   ns-per-fuel-unit number the ROADMAP tracks.
//!
//! A full (non `--test`) run records the numbers and the speedups under
//! the `vm_exec` key of `BENCH_dispatch.json` (shared with the other
//! benches via `criterion::update_json_section`).

use criterion::{criterion_group, Criterion};
use devil_drivers::corpus::build_scenario;
use devil_drivers::{ide, ne2000};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::fs;
use devil_kernel::scenario::{Outcome, ScenarioMachine};
use devil_kernel::scenarios::IdeBootScenario;
use devil_minic::interp::NullHost;
use devil_minic::value::Value;
use devil_minic::vm::Vm;
use devil_minic::{CompiledProgram, Program};

fn compile_cdevil() -> Program {
    let incs = ide::cdevil_includes();
    let incs_ref: Vec<(&str, &str)> =
        incs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    devil_minic::compile_with_includes(ide::IDE_CDEVIL_FILE, ide::IDE_CDEVIL_DRIVER, &incs_ref)
        .unwrap()
}

fn bench_vm_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_exec");
    g.sample_size(20);

    // CDevil IDE per-mutant boot: fusion on vs off (same machine, same
    // snapshot-restore engine — only the dispatch encoding differs).
    let cdevil = compile_cdevil();
    let mut machine =
        ScenarioMachine::with_scenario(IdeBootScenario::new(fs::standard_files()), DEFAULT_FUEL);
    for (label, compiled) in [
        ("cdevil_boot_fused", cdevil.to_bytecode()),
        ("cdevil_boot_unfused", cdevil.to_bytecode_unfused()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let report = machine.run_compiled(&compiled);
                assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
            });
        });
    }

    // NE2000 stress per-mutant: block-transfer driver vs word-at-a-time
    // driver; `words_unfused` is the full PR-4 execution path.
    let block = devil_minic::compile(ne2000::NE2000_C_FILE, ne2000::NE2000_C_DRIVER)
        .unwrap();
    let words = devil_minic::compile(ne2000::NE2000_C_FILE, ne2000::NE2000_C_DRIVER_WORDS)
        .unwrap();
    let mut machine = ScenarioMachine::with_scenario(
        build_scenario("ne2000-stress").expect("catalog scenario builds"),
        DEFAULT_FUEL,
    );
    let cases: [(&str, CompiledProgram); 3] = [
        ("ne2000_stress_block", block.to_bytecode()),
        ("ne2000_stress_words_fused", words.to_bytecode()),
        ("ne2000_stress_words_unfused", words.to_bytecode_unfused()),
    ];
    for (label, compiled) in &cases {
        g.bench_function(*label, |b| {
            b.iter(|| {
                let report = machine.run_compiled(compiled);
                assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
            });
        });
    }

    // Bare polling loop: the ns-per-fuel-unit microbenchmark.
    let poll = devil_minic::compile(
        "poll.c",
        "int spin(int n) { int t = 0; while (t < n) { t++; } return t; }",
    )
    .unwrap();
    for (label, compiled) in
        [("poll_loop_fused", poll.to_bytecode()), ("poll_loop_unfused", poll.to_bytecode_unfused())]
    {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut host = NullHost::default();
                let mut vm = Vm::new(&compiled, &mut host, 10_000_000);
                let r = vm.call("spin", &[Value::Int(100_000)]).unwrap();
                assert_eq!(r.as_int(), Some(100_000));
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
    let boot_fused = criterion::ns_per_iter(rs, "vm_exec/cdevil_boot_fused");
    let boot_unfused = criterion::ns_per_iter(rs, "vm_exec/cdevil_boot_unfused");
    let ne_block = criterion::ns_per_iter(rs, "vm_exec/ne2000_stress_block");
    let ne_words_fused = criterion::ns_per_iter(rs, "vm_exec/ne2000_stress_words_fused");
    let ne_words = criterion::ns_per_iter(rs, "vm_exec/ne2000_stress_words_unfused");
    let poll_fused = criterion::ns_per_iter(rs, "vm_exec/poll_loop_fused");
    let poll_unfused = criterion::ns_per_iter(rs, "vm_exec/poll_loop_unfused");
    // The bare loop burns 3 fuel units per iteration (condition line,
    // load, const) plus the fused step; report ns per fuel unit over the
    // 100k-iteration spin's ~400k burns.
    let burns = 400_000.0;
    let entries = criterion::results_json(rs);
    let section = format!(
        "{{\"workload\": {{\"cdevil_boot\": \"CDevil IDE per-mutant boot (restore + precompiled boot), superinstruction fusion on vs off (unfused = PR-4 dispatch)\", \"ne2000_stress\": \"NE2000 stress per-mutant, block-transfer driver + bulk device hook vs word-at-a-time driver (words_unfused = PR-4 path)\", \"poll_loop\": \"bare 100k-iteration polling loop, ns/fuel-unit tracker\"}}, \"results\": {entries}, \"speedup\": {{\"cdevil_boot_fusion\": {:.2}, \"ne2000_stress_block_vs_pr4\": {:.2}, \"ne2000_stress_fusion_only\": {:.2}, \"poll_loop_fusion\": {:.2}}}, \"ns_per_fuel_unit\": {{\"fused\": {:.1}, \"unfused\": {:.1}}}}}",
        boot_unfused / boot_fused,
        ne_words / ne_block,
        ne_words / ne_words_fused,
        poll_unfused / poll_fused,
        poll_fused / burns,
        poll_unfused / burns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "vm_exec", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `vm_exec` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_vm_exec);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
