//! Bus dispatch throughput: the O(1) port routing table + lazy ticking of
//! [`devil_hwsim::IoSpace`] against the pre-refactor baseline preserved in
//! [`devil_hwsim::reference::LinearIoSpace`] (linear mapping scan, eager
//! per-device tick fan-out).
//!
//! Besides the criterion groups, a full (non `--test`) run rewrites
//! `BENCH_dispatch.json` at the repository root with the measured
//! numbers and speedups, so the perf trajectory is committed alongside
//! the code. The stub fast-path comparison measured by the
//! `stub_fastpath` bench is included in the same file.

use criterion::{criterion_group, Criterion};
use devil_core::runtime::{DeviceInstance, StubMode};
use devil_drivers::specs;
use devil_hwsim::devices::Busmouse;
use devil_hwsim::reference::{LinearIoSpace, NullDevice};
use devil_hwsim::{IoBus, IoSpace};

/// Windows used for the dispatch workload: 16 devices spread across the
/// port space, the shape of a fully populated ISA machine.
const WINDOWS: [(u16, u16); 16] = [
    (0x060, 8),
    (0x170, 16),
    (0x1F0, 16),
    (0x220, 16),
    (0x238, 8),
    (0x278, 8),
    (0x2E8, 8),
    (0x300, 32),
    (0x330, 8),
    (0x378, 8),
    (0x3B0, 16),
    (0x3C0, 16),
    (0x3E8, 8),
    (0x3F0, 8),
    (0x3F8, 8),
    (0xCF8, 8),
];

fn fast_machine() -> IoSpace {
    let mut io = IoSpace::new();
    for (base, len) in WINDOWS {
        io.map(base, len, Box::new(NullDevice::new())).unwrap();
    }
    io
}

fn slow_machine() -> LinearIoSpace {
    let mut io = LinearIoSpace::new();
    for (base, len) in WINDOWS {
        io.map(base, len, Box::new(NullDevice::new())).unwrap();
    }
    io
}

/// The probe sequence: one write + one read per window, round robin, plus
/// a floating unmapped access — the mix a polling driver produces.
fn pound<B: IoBus>(bus: &mut B) -> u32 {
    let mut acc = 0u32;
    for (base, _) in WINDOWS {
        bus.outb(base + 1, 0x5A).unwrap();
        acc = acc.rotate_left(1) ^ bus.inb(base + 1).unwrap() as u32;
    }
    acc ^ bus.inb(0x8000).unwrap() as u32
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus_dispatch");
    g.bench_function("table_o1", |b| {
        let mut io = fast_machine();
        b.iter(|| std::hint::black_box(pound(&mut io)));
    });
    g.bench_function("linear_reference", |b| {
        let mut io = slow_machine();
        b.iter(|| std::hint::black_box(pound(&mut io)));
    });
    g.finish();
}

// ---------------------------------------------------------------- stubs

const BASE: u16 = 0x23C;

fn mouse_machine() -> IoSpace {
    let mut io = IoSpace::new();
    let id = io.map(BASE, 4, Box::new(Busmouse::new())).unwrap();
    io.device_mut::<Busmouse>(id).unwrap().inject_motion(5, -9, 0b011);
    io
}

fn bench_stub_paths(c: &mut Criterion) {
    let checked = specs::compile("busmouse.dil", specs::BUSMOUSE).unwrap();
    let mut g = c.benchmark_group("stub_access");

    g.bench_function("string_keyed", |b| {
        let mut io = mouse_machine();
        let mut dev = DeviceInstance::new(&checked, &[BASE], StubMode::Debug);
        b.iter(|| {
            let dx = dev.get(&mut io, "dx").unwrap().raw;
            let dy = dev.get(&mut io, "dy").unwrap().raw;
            let bt = dev.get(&mut io, "buttons").unwrap().raw;
            std::hint::black_box((dx, dy, bt))
        });
    });

    g.bench_function("id_fast_path", |b| {
        let mut io = mouse_machine();
        let mut dev = DeviceInstance::new(&checked, &[BASE], StubMode::Debug);
        let dx_id = dev.var_id("dx").unwrap();
        let dy_id = dev.var_id("dy").unwrap();
        let bt_id = dev.var_id("buttons").unwrap();
        b.iter(|| {
            let dx = dev.get_by_id(&mut io, dx_id).unwrap().raw;
            let dy = dev.get_by_id(&mut io, dy_id).unwrap().raw;
            let bt = dev.get_by_id(&mut io, bt_id).unwrap().raw;
            std::hint::black_box((dx, dy, bt))
        });
    });

    g.finish();
}

fn emit_json(c: &mut Criterion) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let table = criterion::ns_per_iter(rs, "bus_dispatch/table_o1");
    let linear = criterion::ns_per_iter(rs, "bus_dispatch/linear_reference");
    let entries = criterion::results_json(rs);
    let section = format!(
        "{{\"workload\": {{\"bus_dispatch\": \"16 mapped devices, 1 write + 1 read per window + 1 unmapped read per iter (33 accesses)\", \"stub_access\": \"busmouse dx/dy/buttons state read through debug stubs (11 port accesses)\"}}, \"results\": {entries}, \"speedup\": {{\"bus_dispatch_table_vs_linear\": {:.2}}}}}",
        linear / table,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "bus_dispatch", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `bus_dispatch` in {path}");
            println!("{section}");
        }
    }
}

criterion_group!(benches, bench_dispatch, bench_stub_paths);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    emit_json(&mut c);
}
