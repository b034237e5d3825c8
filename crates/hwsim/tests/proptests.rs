//! Property tests for the bus fabric and the IDE model.

use devil_hwsim::bus::ScratchRegisters;
use devil_hwsim::devices::{IdeController, IdeDisk, SECTOR_SIZE};
use devil_hwsim::reference::{LinearIoSpace, NullDevice};
use devil_hwsim::{FaultPlan, IoBus, IoSpace, UnmappedPolicy};
use proptest::prelude::*;

const IDE: u16 = 0x1F0;

fn ide_machine() -> IoSpace {
    let mut io = IoSpace::new();
    io.map(IDE, 9, Box::new(IdeController::new(IdeDisk::small()))).unwrap();
    io
}

fn wait_ready(io: &mut IoSpace) -> u8 {
    for _ in 0..100_000 {
        let st = io.inb(IDE + 7).unwrap();
        if st & 0x80 == 0 {
            return st;
        }
    }
    panic!("drive stayed busy");
}

fn select(io: &mut IoSpace, lba: u32, count: u8) {
    io.outb(IDE + 2, count).unwrap();
    io.outb(IDE + 3, lba as u8).unwrap();
    io.outb(IDE + 4, (lba >> 8) as u8).unwrap();
    io.outb(IDE + 5, (lba >> 16) as u8).unwrap();
    io.outb(IDE + 6, 0xE0 | ((lba >> 24) & 0xF) as u8).unwrap();
}

proptest! {
    /// Scratch windows behave like memory under arbitrary byte programs.
    #[test]
    fn scratch_is_last_writer_wins(ops in prop::collection::vec((0u16..16, any::<u8>()), 1..64)) {
        let mut io = IoSpace::new();
        io.map(0x100, 16, Box::new(ScratchRegisters::new(16))).unwrap();
        let mut model = [0u8; 16];
        for (off, val) in ops {
            io.outb(0x100 + off, val).unwrap();
            model[off as usize] = val;
        }
        for off in 0..16u16 {
            prop_assert_eq!(io.inb(0x100 + off).unwrap(), model[off as usize]);
        }
    }

    /// Whatever sector content is written over the ATA wire reads back
    /// identically (write/read round trip through the full protocol).
    #[test]
    fn ide_wire_round_trip(lba in 0u32..4096, seed in any::<u64>()) {
        let mut io = ide_machine();
        let words: Vec<u16> = (0..256u64)
            .map(|i| (seed.wrapping_mul(i + 1).wrapping_add(i) & 0xFFFF) as u16)
            .collect();
        select(&mut io, lba, 1);
        io.outb(IDE + 7, 0x30).unwrap(); // WRITE SECTORS
        let st = wait_ready(&mut io);
        prop_assert_ne!(st & 0x08, 0, "DRQ after write command");
        for w in &words {
            io.outw(IDE, *w).unwrap();
        }
        select(&mut io, lba, 1);
        io.outb(IDE + 7, 0x20).unwrap(); // READ SECTORS
        wait_ready(&mut io);
        for w in &words {
            prop_assert_eq!(io.inw(IDE).unwrap(), *w);
        }
        prop_assert_eq!(io.inb(IDE + 7).unwrap() & 0x08, 0, "DRQ clears");
    }

    /// Unknown commands always abort and never wedge the drive.
    #[test]
    fn ide_unknown_commands_abort(cmd in any::<u8>()) {
        prop_assume!(!matches!(cmd, 0x20 | 0x21 | 0x30 | 0x31 | 0x10..=0x1F | 0x91 | 0xE7 | 0xEC | 0xEF));
        let mut io = ide_machine();
        io.outb(IDE + 7, cmd).unwrap();
        let st = wait_ready(&mut io);
        prop_assert_ne!(st & 0x01, 0, "ERR for command {:#x}", cmd);
        // The drive recovers: a valid command still works.
        select(&mut io, 3, 1);
        io.outb(IDE + 7, 0x20).unwrap();
        let st = wait_ready(&mut io);
        prop_assert_ne!(st & 0x08, 0, "drive still serves reads");
    }

    /// Host-side sector writes round trip through `sector()`.
    #[test]
    fn disk_host_round_trip(lba in 0u32..4096, byte in any::<u8>()) {
        let mut disk = IdeDisk::small();
        let sect = [byte; SECTOR_SIZE];
        disk.write_sector(lba, &sect);
        prop_assert_eq!(disk.sector(lba), &sect[..]);
    }

    /// The O(1) routing table agrees with a reference linear-scan lookup
    /// for arbitrary `map()` sequences: identical accept/reject decisions
    /// (overlaps, empty windows, end-of-space wrap) and identical dispatch
    /// for every probed port, under both unmapped policies.
    #[test]
    fn routing_table_matches_linear_reference(
        windows in prop::collection::vec(
            (
                prop_oneof![0u16..96, 0xFFD0u16..0xFFFF, any::<u16>()],
                0u16..48,
            ),
            0..24,
        ),
        probes in prop::collection::vec(any::<u16>(), 1..64),
        strict in any::<bool>(),
    ) {
        let mut fast = IoSpace::new();
        let mut slow = LinearIoSpace::new();
        if strict {
            fast.set_unmapped_policy(UnmappedPolicy::Fault);
            slow.set_unmapped_policy(UnmappedPolicy::Fault);
        }
        for (base, len) in &windows {
            let a = fast.map(*base, *len, Box::new(NullDevice::new()));
            let b = slow.map(*base, *len, Box::new(NullDevice::new()));
            prop_assert_eq!(a.is_ok(), b.is_ok(), "map({:#x}, {}) decisions differ", base, len);
            if let (Err(ea), Err(eb)) = (a, b) {
                prop_assert_eq!(ea, eb, "map({:#x}, {}) error kinds differ", base, len);
            }
        }
        for &port in &probes {
            // NullDevice echoes the window-relative offset, so agreement
            // here proves both the routing decision and the base/offset
            // arithmetic match.
            prop_assert_eq!(fast.outb(port, port as u8), slow.outb(port, port as u8));
            prop_assert_eq!(fast.inb(port), slow.inb(port), "port {:#x}", port);
            prop_assert_eq!(fast.inw(port), slow.inw(port), "port {:#x}", port);
        }
    }

    /// Probing windows right at the end of the port space: the table must
    /// accept `[0xFFFF, 1]`, reject any wrap, and route the last port.
    #[test]
    fn routing_table_end_of_space(len in 1u16..4) {
        let mut fast = IoSpace::new();
        let mut slow = LinearIoSpace::new();
        let base = 0xFFFFu16.saturating_sub(len - 1);
        fast.map(base, len, Box::new(NullDevice::new())).unwrap();
        slow.map(base, len, Box::new(NullDevice::new())).unwrap();
        prop_assert!(fast.map(0xFFFF, 2, Box::new(NullDevice::new())).is_err());
        prop_assert_eq!(fast.inb(0xFFFF).unwrap(), slow.inb(0xFFFF).unwrap());
        prop_assert_eq!(fast.inb(0xFFFF).unwrap(), (len - 1) as u8);
    }

    /// The bus clock advances exactly once per access, for any access mix.
    #[test]
    fn clock_counts_accesses(reads in 0u64..50, writes in 0u64..50) {
        let mut io = IoSpace::new();
        for _ in 0..reads {
            io.inb(0x500).unwrap();
        }
        for _ in 0..writes {
            io.outb(0x500, 1).unwrap();
        }
        prop_assert_eq!(io.clock(), reads + writes);
        prop_assert_eq!(io.read_count(), reads);
        prop_assert_eq!(io.write_count(), writes);
    }

    /// Snapshot/restore equivalence: for an arbitrary access prefix,
    /// `snapshot()` → more arbitrary accesses → `restore()` leaves every
    /// device, counter and register bit-identical to a freshly built
    /// machine that only replayed the prefix — and observably identical
    /// to the eager-ticking [`LinearIoSpace`] reference after the same
    /// prefix.
    #[test]
    fn snapshot_restore_equals_fresh_replay(
        prefix in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..120),
        suffix in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..120),
    ) {
        let mut restored = snapshot_machine();
        let mut fresh = snapshot_machine();
        let mut reference = snapshot_linear_machine();
        for op in &prefix {
            let a = apply(&mut restored, op);
            let b = apply(&mut fresh, op);
            let l = apply(&mut reference, op);
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, l, "table and linear fabrics disagree on {:?}", op);
        }
        let snap = restored.snapshot();
        // Diverge: the restored machine runs arbitrary extra traffic.
        for op in &suffix {
            let _ = apply(&mut restored, op);
        }
        restored.restore(&snap).unwrap();
        // Bit-identical to both the captured state and a fresh replay.
        prop_assert_eq!(restored.snapshot(), snap.clone());
        prop_assert_eq!(fresh.snapshot(), snap);
        prop_assert_eq!(restored.clock(), fresh.clock());
        prop_assert_eq!(restored.read_count(), fresh.read_count());
        prop_assert_eq!(restored.write_count(), fresh.write_count());
        // Observably identical from here on, with the linear reference as
        // the oracle: replay a deterministic probe over every window.
        for op in probe_ops() {
            let a = apply(&mut restored, &op);
            let b = apply(&mut fresh, &op);
            let l = apply(&mut reference, &op);
            prop_assert_eq!(a, b, "restored and fresh diverge on {:?}", op);
            prop_assert_eq!(a, l, "restored and linear diverge on {:?}", op);
        }
    }

    /// An installed fault interposer with an *empty* plan is
    /// observationally the identity, for arbitrary access programs over
    /// the full device zoo: every result, counter and wire-log entry
    /// matches the same machine with no interposer at all. Only the
    /// introspection hook differs (`fault_injected()` reports `Some(0)`
    /// instead of `None`). This pins that the interposer seam itself —
    /// which also forces the block fast paths onto the per-access loop —
    /// cannot perturb behaviour; only fault rules can.
    #[test]
    fn noop_fault_plan_is_identity(
        ops in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..120),
        seed in any::<u64>(),
    ) {
        let mut faulted = snapshot_machine();
        faulted.install_faults(FaultPlan::none(seed));
        let mut plain = snapshot_machine();
        faulted.enable_trace();
        plain.enable_trace();
        for op in &ops {
            let a = apply(&mut faulted, op);
            let b = apply(&mut plain, op);
            prop_assert_eq!(a, b, "{:?} diverged under the empty fault plan", op);
        }
        prop_assert_eq!(faulted.clock(), plain.clock());
        prop_assert_eq!(faulted.read_count(), plain.read_count());
        prop_assert_eq!(faulted.write_count(), plain.write_count());
        prop_assert_eq!(faulted.take_trace(), plain.take_trace());
        prop_assert_eq!(faulted.fault_injected(), Some(0));
        prop_assert_eq!(plain.fault_injected(), None);
    }

    /// Restoring the same snapshot twice in a row is idempotent, whatever
    /// happened in between.
    #[test]
    fn restore_is_idempotent(
        ops in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..60),
    ) {
        let mut io = snapshot_machine();
        let snap = io.snapshot();
        for op in &ops {
            let _ = apply(&mut io, op);
        }
        io.restore(&snap).unwrap();
        let first = io.snapshot();
        io.restore(&snap).unwrap();
        prop_assert_eq!(io.snapshot(), first);
    }

    /// The cycle-state contract for every device a catalog scenario maps:
    /// after any access prefix (with ticks interleaved, so busy windows
    /// open and close), whenever the device reports its cycle state, a
    /// tick of any length leaves that report and its `save` bytes
    /// unchanged.
    #[test]
    fn cycle_state_is_tick_invariant(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 1..160),
        ticks in prop::collection::vec(1u64..64, 1..8),
    ) {
        use devil_hwsim::devices::{Busmouse, Ne2000};
        check_tick_invariance(IdeController::new(IdeDisk::small()), 9, &ops, &ticks);
        check_tick_invariance(Busmouse::new(), 4, &ops, &ticks);
        check_tick_invariance(Ne2000::new(SNAPSHOT_MAC), 0x20, &ops, &ticks);
    }

    /// The IDE controller's cycle state stands in for its 2 MiB platter,
    /// yet two states that differ only on the platter must report
    /// differently. Repeating a write command after a write elsewhere
    /// leaves every register and the sector buffer as the first run left
    /// them, so only the platter can tell the two reports apart, whether
    /// the words arrive one by one or as a block; and so can only the
    /// platter after a restore of the first run's snapshot.
    #[test]
    fn ide_platter_writes_change_the_cycle_state(
        lba in 0u32..4000,
        other in 0u32..4000,
        count in 1u8..4,
        block in any::<bool>(),
    ) {
        prop_assume!(lba.abs_diff(other) >= u32::from(count));
        let mut io = ide_machine();
        let report = |io: &IoSpace| {
            let mut out = Vec::new();
            assert!(io.cycle_state(&mut out), "an idle drive reports");
            out
        };
        let write = |io: &mut IoSpace, lba: u32, word: u16| {
            select(io, lba, count);
            io.outb(IDE + 7, 0x30).unwrap(); // WRITE SECTORS
            wait_ready(io);
            for _ in 0..count {
                if block {
                    io.write_block(IDE, devil_hwsim::AccessSize::Word, &[u32::from(word); 256]);
                } else {
                    for _ in 0..256 {
                        io.outw(IDE, word).unwrap();
                    }
                }
            }
            report(io)
        };
        let first = write(&mut io, lba, 0x5A5A);
        let snap = io.snapshot();
        write(&mut io, other, 0xA5A5); // a blank disk: these sectors change
        let again = write(&mut io, lba, 0x5A5A);
        prop_assert_ne!(&again, &first);
        io.restore(&snap).unwrap();
        prop_assert_ne!(report(&io), again);
    }
}

/// Drive `dev` through `ops` (offset selector, value selector, size
/// selector, read/write + value bits), ticking by `ticks` in turn, and
/// check the tick invariance of its cycle state after every access.
fn check_tick_invariance<D: devil_hwsim::IoDevice>(
    mut dev: D,
    window: u16,
    ops: &[(u8, u8, u8, u16)],
    ticks: &[u64],
) {
    use devil_hwsim::{AccessSize, StateWriter};
    // Command bytes and register values that walk the IDE and NE2000
    // state machines through their phases; anything else is noise.
    const VALUES: [u8; 12] = [0x20, 0x30, 0xEC, 0x10, 0x91, 0xE0, 0x04, 0x00, 0x22, 0x26, 0x12, 0x40];
    let capture = |dev: &D| {
        let (mut cycle, mut saved) = (Vec::new(), Vec::new());
        let reported = dev.cycle_state(&mut StateWriter::new(&mut cycle));
        dev.save(&mut StateWriter::new(&mut saved));
        reported.then_some((cycle, saved))
    };
    for (i, &(off, val, size, bits)) in ops.iter().enumerate() {
        let offset = u16::from(off) % window;
        let size = match size % 3 {
            0 => AccessSize::Byte,
            1 => AccessSize::Word,
            _ => AccessSize::Dword,
        };
        let value = match VALUES.get(usize::from(val) % 16) {
            Some(v) => u32::from(*v),
            None => u32::from(bits),
        };
        if bits & 1 == 0 {
            let _ = dev.read(offset, size);
        } else {
            let _ = dev.write(offset, size, value);
        }
        if let Some(before) = capture(&dev) {
            dev.tick(ticks[i % ticks.len()]);
            let after = capture(&dev);
            prop_assert_eq!(after, Some(before), "{} changed under a tick", dev.name());
        } else if val % 3 == 0 {
            dev.tick(ticks[i % ticks.len()]);
        }
    }
}

#[test]
fn the_space_declines_under_a_trace_or_an_interposer() {
    let io = snapshot_machine();
    let mut out = Vec::new();
    // Permedia2, PCI and the bus-master keep the default and decline.
    assert!(!io.cycle_state(&mut out));

    let mut io = IoSpace::new();
    io.map(0x23C, 4, Box::new(devil_hwsim::devices::Busmouse::new())).unwrap();
    out.clear();
    assert!(io.cycle_state(&mut out));
    let quiet = out.clone();
    io.outb(0x23D, 0xA5).unwrap();
    out.clear();
    assert!(io.cycle_state(&mut out));
    assert_ne!(out, quiet, "the signature latch steers the mouse");
    io.enable_trace();
    assert!(!io.cycle_state(&mut Vec::new()));
    io.take_trace();
    io.install_faults(FaultPlan::named("mixed", 7).unwrap());
    assert!(!io.cycle_state(&mut Vec::new()));
}

// ------------------------------------------------- snapshot test harness

/// Ports covered by the snapshot equivalence workload: every window of
/// [`snapshot_machine`] plus an unmapped float.
const SNAPSHOT_PORTS: [u16; 32] = [
    0x100, 0x101, 0x105, 0x10F, // scratch
    0x23C, 0x23D, 0x23E, 0x23F, // busmouse
    0x1F0, 0x1F1, 0x1F2, 0x1F3, 0x1F4, 0x1F5, 0x1F6, 0x1F7, 0x1F8, // ide
    0x300, 0x301, 0x307, 0x30A, 0x310, // ne2000
    0x31F, // ne2000 reset port
    0xC000, 0xC003, 0xC004, 0xC006, // permedia2
    0xCF8, 0xCFC, // pci config mechanism #1
    0xF000, 0xF002, // piix bus-master ide
    0x8000, // unmapped
];

const SNAPSHOT_MAC: [u8; 6] = [0x00, 0x0E, 0xA5, 0x01, 0x02, 0x03];

/// A machine with one device of every model the crate ships, so every
/// `save`/`load` codec is exercised: plain memory (scratch),
/// index-multiplexed latches (busmouse), busy-timer protocol engines with
/// backing storage (IDE, Permedia2), paged registers with remote DMA
/// (NE2000), and the PCI config/bus-master pair.
fn map_snapshot_devices(mut map: impl FnMut(u16, u16, Box<dyn devil_hwsim::IoDevice>)) {
    use devil_hwsim::devices::{
        BusMasterIde, Busmouse, Ne2000, PciConfigSpace, PciFunction, Permedia2,
    };
    map(0x100, 16, Box::new(ScratchRegisters::new(16)));
    map(0x23C, 4, Box::new(Busmouse::new()));
    map(IDE, 9, Box::new(IdeController::new(IdeDisk::small())));
    map(0x300, 0x20, Box::new(Ne2000::new(SNAPSHOT_MAC)));
    map(0xC000, 13, Box::new(Permedia2::new()));
    let mut cfg = PciConfigSpace::new();
    cfg.add_function(PciFunction::piix_ide(0xF000));
    map(0xCF8, 8, Box::new(cfg));
    map(0xF000, 16, Box::new(BusMasterIde::new()));
}

fn snapshot_machine() -> IoSpace {
    let mut io = IoSpace::new();
    map_snapshot_devices(|base, len, dev| {
        io.map(base, len, dev).unwrap();
    });
    io
}

/// The same device set in the eager-ticking linear reference fabric.
fn snapshot_linear_machine() -> LinearIoSpace {
    let mut io = LinearIoSpace::new();
    map_snapshot_devices(|base, len, dev| {
        io.map(base, len, dev).unwrap();
    });
    io
}

/// Decode one generated op onto a bus and return its observable result
/// (including faults), widened to a comparable shape.
fn apply<B: IoBus>(bus: &mut B, op: &(u16, u8, u8, bool)) -> Result<u32, devil_hwsim::BusFault> {
    let (port_sel, value, size_sel, is_read) = *op;
    let port = SNAPSHOT_PORTS[port_sel as usize % SNAPSHOT_PORTS.len()];
    let value = u32::from(value).wrapping_mul(0x0101_0101);
    match (size_sel % 3, is_read) {
        (0, true) => bus.inb(port).map(u32::from),
        (1, true) => bus.inw(port).map(u32::from),
        (_, true) => bus.inl(port),
        (0, false) => bus.outb(port, value as u8).map(|()| 0),
        (1, false) => bus.outw(port, value as u16).map(|()| 0),
        (_, false) => bus.outl(port, value).map(|()| 0),
    }
}

/// A deterministic post-restore probe: one byte read of every workload
/// port (floating, faulting or data-moving — all compared).
fn probe_ops() -> Vec<(u16, u8, u8, bool)> {
    (0..SNAPSHOT_PORTS.len() as u16).map(|i| (i, 0, 0, true)).collect()
}
