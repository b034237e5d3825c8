//! Proof that the bus hot path is allocation-free on success.
//!
//! A counting global allocator wraps the system allocator; the test maps
//! representative devices, warms the paths up, and then asserts that a
//! long burst of mapped, unmapped-floating and device-timer accesses
//! performs exactly zero heap allocations. This is the acceptance gate
//! for the O(1) dispatch refactor: `read_any`/`write_any` must never
//! allocate when nothing fails.
//!
//! Kept to a single `#[test]` so no concurrent test thread can disturb
//! the global counter.

use devil_hwsim::bus::ScratchRegisters;
use devil_hwsim::devices::{Busmouse, IdeController, IdeDisk};
use devil_hwsim::{FaultPlan, IoBus, IoSpace, DEFAULT_FAULT_SEED};
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

#[test]
fn hot_path_is_allocation_free() {
    let mut io = IoSpace::new();
    io.map(0x100, 16, Box::new(ScratchRegisters::new(16))).unwrap();
    let mouse = io.map(0x23C, 4, Box::new(Busmouse::new())).unwrap();
    io.map(0x1F0, 9, Box::new(IdeController::new(IdeDisk::small()))).unwrap();
    io.device_mut::<Busmouse>(mouse).unwrap().inject_motion(3, -4, 0b101);

    // Warm up every path once (first touches may lazily initialise).
    io.outb(0x105, 0xAA).unwrap();
    io.inb(0x105).unwrap();
    io.inb(0x1F7).unwrap();
    io.inb(0x8000).unwrap();

    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u32;
        for round in 0..10_000u32 {
            // Mapped scratch window, all widths.
            io.outb(0x100 + (round % 14) as u16, round as u8).unwrap();
            acc ^= io.inb(0x100 + (round % 14) as u16).unwrap() as u32;
            io.outw(0x100, round as u16).unwrap();
            acc ^= io.inw(0x100).unwrap() as u32;
            // Device with a busy timer: IDE status poll.
            acc ^= io.inb(0x1F7).unwrap() as u32;
            // Mouse index-multiplexed data reads.
            io.outb(0x23E, 0x80).unwrap();
            acc ^= io.inb(0x23C).unwrap() as u32;
            // Unmapped float.
            acc ^= io.inb(0x9000).unwrap() as u32;
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "bus hot path allocated {allocs} times over 70k accesses (checksum {checksum:#x})"
    );

    // Device faults are also allocation-free end to end now that
    // DeviceFault is Copy: a refused width on the IDE task file.
    let (allocs, _) = allocations_during(|| {
        for _ in 0..100 {
            let err = io.inl(0x1F2).unwrap_err();
            std::hint::black_box(&err);
        }
    });
    assert_eq!(allocs, 0, "device fault path allocated {allocs} times");

    // The campaign reset loop: snapshot once, then every
    // burst-of-accesses → restore round must be allocation-free — this is
    // what makes per-mutant machine reset cheaper than reconstruction.
    let snap = io.snapshot();
    // Warm one round up before counting, so a buffer a device sizes on
    // first use does not count against the steady state.
    io.outb(0x1F7, 0xEC).unwrap();
    io.inb(0x1F7).unwrap();
    io.restore(&snap).unwrap();
    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u32;
        for round in 0..1_000u32 {
            // Dirty the machine: scratch bytes, an IDE IDENTIFY command, a
            // mouse latch, an unmapped float.
            io.outb(0x100 + (round % 14) as u16, round as u8).unwrap();
            io.outb(0x1F7, 0xEC).unwrap();
            acc ^= io.inb(0x1F7).unwrap() as u32;
            io.outb(0x23E, 0x80).unwrap();
            acc ^= io.inb(0x23C).unwrap() as u32;
            acc ^= io.inb(0x9000).unwrap() as u32;
            // Rewind to pristine.
            io.restore(&snap).unwrap();
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "snapshot restore allocated {allocs} times over 1000 reset rounds (checksum {checksum:#x})"
    );
    assert_eq!(io.snapshot(), snap, "machine ends bit-identical to the snapshot");

    // The fault interposer keeps both guarantees. With a plan installed
    // every access takes the interposer seam (the block fast paths
    // decline), each matching rule draws from the inline PRNG, and the
    // restore path rewinds the fault cursor — all of it without touching
    // the heap. Plan construction allocates; it happens outside the
    // counted region, like `map()`.
    io.install_faults(FaultPlan::named("mixed", DEFAULT_FAULT_SEED).expect("bundled plan"));
    // Warm up and capture a mid-plan snapshot (non-zero cursor).
    io.outb(0x1F7, 0xEC).unwrap();
    io.inb(0x1F7).unwrap();
    let snap = io.snapshot();
    let (allocs, checksum) = allocations_during(|| {
        let mut acc = 0u32;
        for round in 0..1_000u32 {
            io.outb(0x100 + (round % 14) as u16, round as u8).unwrap();
            io.outb(0x1F7, 0xEC).unwrap();
            acc ^= io.inb(0x1F7).unwrap() as u32;
            io.outb(0x23E, 0x80).unwrap();
            acc ^= io.inb(0x23C).unwrap() as u32;
            acc ^= io.inb(0x9000).unwrap() as u32;
            io.restore(&snap).unwrap();
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "faulted access + restore allocated {allocs} times over 1000 rounds (checksum {checksum:#x})"
    );
    assert_eq!(io.snapshot(), snap, "faulted machine ends bit-identical to the snapshot");
}
