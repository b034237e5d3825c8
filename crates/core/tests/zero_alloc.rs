//! Proof that the compiled stub access plans are allocation-free.
//!
//! Binds the busmouse and IDE specifications to live device models and
//! asserts that `get`/`set` (string-keyed), `get_by_id`/`set_by_id` and
//! `read_register`/`write_register` perform zero heap allocations on
//! success — in debug mode, with pre-actions and partial-write cache
//! merges on the path. This is the acceptance gate for the access-plan
//! layer of `devil_core::runtime`.
//!
//! Kept to a single `#[test]` so no concurrent test thread can disturb
//! the global counter.

use devil_core::runtime::{DeviceInstance, StubMode};
use devil_hwsim::devices::{Busmouse, IdeController, IdeDisk};
use devil_hwsim::IoSpace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Only allocations made by the thread inside `allocations_during`
    /// are counted — libtest's harness threads allocate at their own
    /// pace and must not flake the assertion.
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

struct CountingAllocator;

// SAFETY: delegates directly to `System`, only incrementing a counter for
// allocations made by a thread that opted in.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

const BUSMOUSE: &str = r#"
device logitech_busmouse (base : bit[8] port @ {0..3})
{
  register sig_reg = base @ 1 : bit[8];
  variable signature = sig_reg, volatile, write trigger : int(8);
  register cr = write base @ 3, mask '1001000.' : bit[8];
  variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
  register interrupt_reg = write base @ 2, mask '000.0000' : bit[8];
  variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };
  register index_reg = write base @ 2, mask '1..00000' : bit[8];
  private variable index = index_reg[6..5] : int(2);
  register x_low  = read base @ 0, pre {index = 0}, mask '****....' : bit[8];
  register x_high = read base @ 0, pre {index = 1}, mask '****....' : bit[8];
  register y_low  = read base @ 0, pre {index = 2}, mask '****....' : bit[8];
  register y_high = read base @ 0, pre {index = 3}, mask '...*....' : bit[8];
  variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
  variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
  variable buttons = y_high[7..5], volatile : int(3);
}
"#;

const MOUSE_BASE: u16 = 0x23C;
const IDE_BASE: u16 = 0x1F0;

#[test]
fn stub_hot_paths_are_allocation_free() {
    // --- busmouse: concatenated fragments + pre-actions + cache merges ---
    let spec = devil_core::compile("busmouse.dil", BUSMOUSE).unwrap();
    let mut io = IoSpace::new();
    let id = io.map(MOUSE_BASE, 4, Box::new(Busmouse::new())).unwrap();
    io.device_mut::<Busmouse>(id).unwrap().inject_motion(-5, 18, 0b011);
    let mut dev = DeviceInstance::new(&spec, &[MOUSE_BASE], StubMode::Debug);

    let dx = dev.var_id("dx").unwrap();
    let dy = dev.var_id("dy").unwrap();
    let buttons = dev.var_id("buttons").unwrap();
    let signature = dev.var_id("signature").unwrap();
    let sig_val = dev.int_value("signature", 0x5A).unwrap();

    // Warm-up: first traversal of every path.
    dev.get(&mut io, "dx").unwrap();
    dev.set(&mut io, "signature", sig_val).unwrap();

    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u64;
        for _ in 0..10_000 {
            // String-keyed wrappers (binary-search resolve, no allocation).
            acc ^= dev.get(&mut io, "dx").unwrap().raw;
            acc ^= dev.get(&mut io, "buttons").unwrap().raw;
            dev.set(&mut io, "signature", sig_val).unwrap();
            // Dense-ID fast path.
            acc ^= dev.get_by_id(&mut io, dx).unwrap().raw;
            acc ^= dev.get_by_id(&mut io, dy).unwrap().raw;
            acc ^= dev.get_by_id(&mut io, buttons).unwrap().raw;
            dev.set_by_id(&mut io, signature, sig_val).unwrap();
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "busmouse stub hot path allocated {allocs} times (checksum {checksum:#x})"
    );

    // --- IDE: register-level stubs on a timer-driven device --------------
    let ide_spec = devil_core::compile(
        "ide_min.dil",
        r#"
device ide_min (dp : bit[16] port @ {0..0}, cmd : bit[8] port @ {2..7})
{
  register data_reg = dp @ 0 : bit[16];
  variable io_data = data_reg, volatile : int(16);
  register nsect_reg = cmd @ 2 : bit[8];
  variable sector_count = nsect_reg : int(8);
  register sect_reg = cmd @ 3 : bit[8];
  variable sector_number = sect_reg : int(8);
  register lcyl_reg = cmd @ 4 : bit[8];
  variable cyl_low = lcyl_reg : int(8);
  register hcyl_reg = cmd @ 5 : bit[8];
  variable cyl_high = hcyl_reg : int(8);
  register select_reg = cmd @ 6, mask '1.1.....' : bit[8];
  variable drive = select_reg[4] : int(1);
  variable head = select_reg[3..0] : int(4);
  variable lba = select_reg[6] : int(1);
  register status_reg = read cmd @ 7, mask '...*.**.' : bit[8];
  variable busy = status_reg[7], volatile : int(1);
  variable ready = status_reg[6], volatile : int(1);
  variable wfault = status_reg[5], volatile : int(1);
  variable drq = status_reg[3], volatile : int(1);
  variable err = status_reg[0], volatile : int(1);
}
"#,
    )
    .unwrap();
    let mut io = IoSpace::new();
    io.map(IDE_BASE, 9, Box::new(IdeController::new(IdeDisk::small()))).unwrap();
    let mut dev = DeviceInstance::new(&ide_spec, &[IDE_BASE, IDE_BASE], StubMode::Debug);
    let busy = dev.var_id("busy").unwrap();
    let status = dev.register_id("status_reg").unwrap();
    let select = dev.register_id("select_reg").unwrap();
    let count = dev.var_id("sector_count").unwrap();
    let count_val = dev.int_value("sector_count", 1).unwrap();

    dev.get_by_id(&mut io, busy).unwrap();
    dev.write_register(&mut io, select, 0x40).unwrap();

    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u64;
        for _ in 0..10_000 {
            acc ^= dev.get_by_id(&mut io, busy).unwrap().raw;
            acc ^= dev.read_register(&mut io, status).unwrap();
            dev.write_register(&mut io, select, 0x40).unwrap();
            dev.set_by_id(&mut io, count, count_val).unwrap();
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "IDE register hot path allocated {allocs} times (checksum {checksum:#x})"
    );

    // --- campaign reset: machine restore --------------------------------
    // The per-mutant reset loop of the campaign engine: dirty the machine
    // through the stubs, then rewind it. Must never allocate.
    let machine_snap = io.snapshot();
    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u64;
        for round in 0..1_000u64 {
            dev.write_register(&mut io, select, 0x40 | (round & 0x0F)).unwrap();
            dev.set_by_id(&mut io, count, count_val).unwrap();
            acc ^= dev.read_register(&mut io, status).unwrap();
            io.restore(&machine_snap).unwrap();
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "campaign reset loop allocated {allocs} times (checksum {checksum:#x})"
    );
}
