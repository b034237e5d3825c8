//! Campaign machine reset: the IDE restore every boot mutant pays.
//!
//! A mutation campaign builds the simulated machine once per worker and
//! snapshot-restores it before each mutant. The boot campaigns restore an
//! IDE machine: a 2 MiB platter plus controller state. `dirty_journal` is
//! the production path — a boot dirties a couple of sectors, and
//! restoring the same snapshot again copies only those. `full_platter`
//! defeats the journal by alternating two (content-identical) snapshots,
//! so every restore takes the full-copy fallback: exactly the pre-journal
//! cost.
//!
//! A full (non `--test`) run records the numbers and the journal's
//! speedup under the `campaign_reset` key of `BENCH_dispatch.json`
//! (shared with the other benches via `criterion::update_json_section`).

use criterion::{criterion_group, Criterion};
use devil_hwsim::devices::{IdeController, SECTOR_SIZE};
use devil_kernel::boot::standard_ide_machine;
use devil_kernel::fs;

fn bench_ide_restore(c: &mut Criterion) {
    let files = fs::standard_files();
    let mut g = c.benchmark_group("ide_restore");

    let (mut io, ide) = standard_ide_machine(&files);
    let (log_lba, _) = fs::file_extent(&files, "log").expect("standard image has a log");
    let snap = io.snapshot();
    io.restore(&snap).unwrap(); // arm the journal
    g.bench_function("dirty_journal", |b| {
        b.iter(|| {
            let dev = io.device_mut::<IdeController>(ide).unwrap();
            dev.disk_mut().write_sector(log_lba, &[0xAB; SECTOR_SIZE]);
            dev.disk_mut().write_sector(log_lba + 1, &[0xCD; SECTOR_SIZE]);
            io.restore(&snap).unwrap();
        });
    });

    let snap_a = io.snapshot();
    let snap_b = io.snapshot();
    let mut flip = false;
    g.bench_function("full_platter", |b| {
        b.iter(|| {
            let dev = io.device_mut::<IdeController>(ide).unwrap();
            dev.disk_mut().write_sector(log_lba, &[0xAB; SECTOR_SIZE]);
            dev.disk_mut().write_sector(log_lba + 1, &[0xCD; SECTOR_SIZE]);
            flip = !flip;
            io.restore(if flip { &snap_a } else { &snap_b }).unwrap();
        });
    });
    g.finish();
}

fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let ide_dirty = criterion::ns_per_iter(rs, "ide_restore/dirty_journal");
    let ide_full = criterion::ns_per_iter(rs, "ide_restore/full_platter");
    let entries = criterion::results_json(rs);
    let section = format!(
        "{{\"workload\": {{\"ide_restore\": \"IDE machine reset (2 MiB platter, 2 sectors dirtied): dirty-sector-journal restore vs the full-platter copy fallback\"}}, \"results\": {entries}, \"speedup\": {{\"ide_restore_dirty_vs_full\": {:.2}}}}}",
        ide_full / ide_dirty,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "campaign_reset", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `campaign_reset` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_ide_restore);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
