//! Mutation-engine throughput: site extraction and mutant generation for
//! the Devil and C models (the front half of Tables 2–4).

use criterion::{criterion_group, criterion_main, Criterion};
use devil_core::codegen::CodegenMode;
use devil_drivers::{ide, specs};
use devil_mutagen::c::{CMutationModel, CStyle};
use devil_mutagen::devil::DevilMutationModel;

fn bench_devil_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("devil_mutation_model");
    g.bench_function("busmouse_sites", |b| {
        b.iter(|| DevilMutationModel::new(std::hint::black_box(specs::BUSMOUSE)).unwrap());
    });
    g.bench_function("ide_sites", |b| {
        b.iter(|| DevilMutationModel::new(std::hint::black_box(specs::IDE_PIIX4)).unwrap());
    });
    let model = DevilMutationModel::new(specs::BUSMOUSE).unwrap();
    g.bench_function("busmouse_generate_all", |b| {
        b.iter(|| std::hint::black_box(&model).mutants());
    });
    g.finish();
}

fn bench_c_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("c_mutation_model");
    g.bench_function("ide_c_sites", |b| {
        b.iter(|| CMutationModel::new(std::hint::black_box(ide::IDE_C_DRIVER), &[], CStyle::PlainC));
    });
    let hdr = ide::ide_header(CodegenMode::Debug);
    g.bench_function("ide_cdevil_sites", |b| {
        b.iter(|| {
            CMutationModel::new(
                std::hint::black_box(ide::IDE_CDEVIL_DRIVER),
                &[hdr.as_str()],
                CStyle::CDevil,
            )
        });
    });
    let model = CMutationModel::new(ide::IDE_C_DRIVER, &[], CStyle::PlainC);
    g.bench_function("ide_c_generate_all", |b| {
        b.iter(|| std::hint::black_box(&model).mutants());
    });
    g.finish();
}

fn bench_compile_detection(c: &mut Criterion) {
    // One mutant through the Devil compiler — the unit of Table 2 work.
    let model = DevilMutationModel::new(specs::BUSMOUSE).unwrap();
    let mutant = model.mutants().into_iter().next().unwrap();
    c.bench_function("devil_compile_one_mutant", |b| {
        b.iter(|| devil_core::compile("busmouse.dil", std::hint::black_box(&mutant.source)).is_err());
    });
}

criterion_group!(benches, bench_devil_model, bench_c_model, bench_compile_detection);
criterion_main!(benches);
