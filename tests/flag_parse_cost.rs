//! Parsing a subcommand's flags builds the scenario catalog only when
//! the subcommand takes `--scenario` or `--mix`.
//!
//! Building the catalog generates the IDE and busmouse stub headers,
//! about half of what `devil table1` or `devil fig2` costs end to end
//! when done for nothing. The catalog is built once per process, so this
//! file holds one test, which parses the catalog-free subcommands first,
//! and a counting allocator measures the bytes each parse allocates.

use devil::cli::CampaignArgs;
use devil_bench::tables::CampaignOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to `System`, only adding up requested sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes allocated while parsing `args` with `accepted` flags.
fn parse_bytes(args: &[&str], accepted: &str) -> u64 {
    let accepted: Vec<&str> = accepted.split_whitespace().collect();
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let before = BYTES.load(Ordering::Relaxed);
    CampaignArgs::parse(args, CampaignOptions::default(), &accepted).expect("flags parse");
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn only_scenario_and_mix_flags_build_the_catalog() {
    // The flag sets of `devil table1`, `fig2`, `repro`, `serve` and
    // `drain`: none resolves a scenario or a mix.
    for (args, accepted) in [
        (&[][..], ""),
        (&["--fraction=0.05", "--seed=7"][..], "--fraction --seed"),
        (
            &["--threads=2", "--queue-cap=8"][..],
            "--addr --threads --queue-cap --ledger",
        ),
        (&["--addr=127.0.0.1:1"][..], "--addr --drain-grace"),
    ] {
        let bytes = parse_bytes(args, accepted);
        assert!(
            bytes < 16 * 1024,
            "parsing {args:?} allocated {bytes} bytes"
        );
    }
    // A subcommand that takes `--scenario` builds it, stub headers and
    // all, on its first parse.
    let bytes = parse_bytes(&["--scenario=ide-boot"], "--scenario --fraction");
    assert!(
        bytes > 64 * 1024,
        "building the catalog allocated only {bytes} bytes"
    );
}
