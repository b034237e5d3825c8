//! Deterministic hardware fault injection: flaky status bits, dropped
//! interrupt edges, bus noise and device-absent windows — replayable to
//! the bit.
//!
//! # Why
//!
//! The paper's claim is that Devil-generated checks catch *driver*
//! errors. A robust harness must also show the outcome taxonomy does not
//! misattribute *hardware* misbehaviour as driver bugs: a status bit that
//! reads back stuck, an interrupt edge that never arrives, a data line
//! glitching under bus noise, a card that briefly drops off the bus. This
//! module injects exactly those faults into an
//! [`IoSpace`](crate::IoSpace) — between the device models and the driver
//! — so the *clean* drivers can be run on *flaky* hardware and the
//! resulting outcome distribution inspected: a hardware-only fault must
//! never classify as a compile- or run-time *check* (those are the
//! driver-bug detections), only as the machine-level outcomes a real
//! flaky PC would show (halted probe, hung poll loop, damaged data, or a
//! clean run when the fault fell somewhere harmless).
//!
//! # Determinism
//!
//! A [`FaultPlan`] is a pure value: a seed plus a list of [`FaultRule`]s.
//! Fault decisions are drawn from one [`XorShift64`] stream seeded from
//! the plan, advanced only at port accesses that a rule covers — so the
//! fault sequence is a deterministic function of `(plan, access
//! sequence)` and a campaign run replays bit-identically across rebuilds,
//! snapshot restores and both execution engines. The interposer's entire
//! mutable state (the PRNG word and the injection counter) is captured by
//! [`IoSpace::snapshot`](crate::IoSpace::snapshot) and rewound by
//! [`IoSpace::restore`](crate::IoSpace::restore), so the per-mutant reset
//! lifecycle replays the same faults at the same access positions for
//! every mutant.
//!
//! # Composition with the bus
//!
//! The interposer sits at dispatch time, *after* routing and *before*
//! the CPU sees a value:
//!
//! * read values are filtered on the way back (stuck/flipped bits), and
//!   the wire trace records the value the CPU actually saw;
//! * writes are recorded in the trace as issued (the CPU did issue them)
//!   and then possibly dropped or bit-flipped before reaching the model;
//! * during an [`FaultKind::Absent`] clock window a covered port behaves
//!   exactly like unmapped ISA space — reads float to all-ones, writes
//!   vanish, the device model is neither called nor ticked;
//! * device *models* are never mutated by a fault: ground-truth
//!   inspection (`Scenario::inspect`) still sees what the hardware truly
//!   holds, which is what lets a harness distinguish "driver decoded it
//!   wrong" from "the wire lied".
//!
//! While an interposer is installed, the `read_block`/`write_block` bulk
//! fast path is declined and every element takes the single-access path,
//! so faults are sampled per access identically on both engines (the
//! bulk contract already guarantees observational equivalence).
//!
//! # Example
//!
//! ```
//! use devil_hwsim::fault::FaultPlan;
//! use devil_hwsim::bus::ScratchRegisters;
//! use devil_hwsim::{IoBus, IoSpace};
//!
//! let mut io = IoSpace::new();
//! io.map(0x100, 4, Box::new(ScratchRegisters::new(4))).unwrap();
//! io.install_faults(FaultPlan::named("bus-noise", 0xD11A).unwrap());
//! let snap = io.snapshot(); // captures the fault cursor too
//! let a: Vec<u8> = (0..32).map(|_| io.inb(0x100).unwrap()).collect();
//! io.restore(&snap).unwrap();
//! let b: Vec<u8> = (0..32).map(|_| io.inb(0x100).unwrap()).collect();
//! assert_eq!(a, b, "restored fault stream replays bit-identically");
//! ```

use devil_rng::XorShift64;

/// Seed used by the harness-wide *default* fault plans (golden files, the
/// `+faults` scenario variants, the CLI defaults).
pub const DEFAULT_FAULT_SEED: u64 = 0xD11A;

/// What one [`FaultRule`] does to a covered access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// OR the mask into read values: status bits that occasionally read
    /// back stuck high (a busy flag that never clears, a spurious
    /// interrupt-pending edge).
    StuckHigh(u32),
    /// Clear the mask bits in read values: status bits stuck low (a
    /// ready flag the driver never sees, a dropped interrupt edge).
    StuckLow(u32),
    /// XOR one randomly chosen set bit of the mask into a read value:
    /// transient bus noise on the data lines.
    FlipRead(u32),
    /// XOR one randomly chosen set bit of the mask into a written value
    /// before it reaches the device model.
    FlipWrite(u32),
    /// The write never reaches the device — a lost command or
    /// acknowledge edge. The wire trace still records it (the CPU did
    /// issue it).
    DropWrite,
    /// The device is absent from the bus for the clock window
    /// `from..until`: covered reads float to all-ones, covered writes
    /// vanish, the model is neither called nor ticked. `rate` is ignored
    /// (the window alone decides).
    Absent {
        /// First bus clock of the window.
        from: u64,
        /// First bus clock past the window.
        until: u64,
    },
}

impl FaultKind {
    /// Whether this kind perturbs port reads.
    fn affects_reads(self) -> bool {
        matches!(
            self,
            FaultKind::StuckHigh(_) | FaultKind::StuckLow(_) | FaultKind::FlipRead(_)
        )
    }

    /// Whether this kind perturbs port writes.
    fn affects_writes(self) -> bool {
        matches!(self, FaultKind::FlipWrite(_) | FaultKind::DropWrite)
    }
}

/// One fault source: a port window, a [`FaultKind`] and a firing rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// First covered port.
    pub base: u16,
    /// Window length in ports (`0x1_0000` covers the whole space).
    pub len: u32,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// The rule fires on `1 in rate` covered accesses (0 = never,
    /// 1 = every access). Ignored by [`FaultKind::Absent`].
    pub rate: u32,
}

impl FaultRule {
    /// A rule covering the entire 64 K port space.
    pub fn everywhere(kind: FaultKind, rate: u32) -> Self {
        FaultRule { base: 0, len: 0x1_0000, kind, rate }
    }

    /// Whether `port` falls inside this rule's window.
    #[inline]
    fn covers(&self, port: u16) -> bool {
        (port as u32).wrapping_sub(self.base as u32) < self.len
    }
}

/// A complete, replayable fault schedule: a name, a seed and the rules.
///
/// Plans are pure values — two machines given equal plans inject
/// identical fault sequences for identical access sequences. The bundled
/// named plans ([`FaultPlan::named`], [`FaultPlan::plan_names`]) are what
/// the `+faults` scenario variants, the campaign CLI and the golden
/// attribution files use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    name: String,
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan from explicit rules.
    pub fn new(name: impl Into<String>, seed: u64, rules: Vec<FaultRule>) -> Self {
        FaultPlan { name: name.into(), seed, rules }
    }

    /// A plan with no rules: installs an interposer that perturbs
    /// nothing. Useful for pinning that the interposer machinery itself
    /// is observationally free.
    pub fn none(seed: u64) -> Self {
        FaultPlan::new("none", seed, Vec::new())
    }

    /// Construct one of the bundled named plans (see
    /// [`FaultPlan::plan_names`]), or `None` for an unknown name.
    ///
    /// The bundled plans cover the whole port space with low per-access
    /// rates — "the machine is flaky", not "this register is broken" —
    /// which is exactly the generic-hardware-misbehaviour question the
    /// attribution experiment asks.
    pub fn named(name: &str, seed: u64) -> Option<FaultPlan> {
        let rules = match name {
            "none" => Vec::new(),
            // Status bits that occasionally read back wrong: the top bit
            // (BSY-style) stuck high, a ready/IRQ-style bit stuck low.
            "flaky-status" => vec![
                FaultRule::everywhere(FaultKind::StuckHigh(0x80), 48),
                FaultRule::everywhere(FaultKind::StuckLow(0x40), 48),
            ],
            // Interrupt edges that never arrive: pending/ready bits read
            // back clear, and an occasional command/ack write is lost.
            "dropped-irq" => vec![
                FaultRule::everywhere(FaultKind::StuckLow(0x88), 40),
                FaultRule::everywhere(FaultKind::DropWrite, 96),
            ],
            // Transient single-bit noise on the data lines, both ways.
            "bus-noise" => vec![
                FaultRule::everywhere(FaultKind::FlipRead(0xFF), 56),
                FaultRule::everywhere(FaultKind::FlipWrite(0xFF), 56),
            ],
            // The card drops off the bus for a while mid-workload.
            "absent-window" => vec![FaultRule::everywhere(
                FaultKind::Absent { from: 1500, until: 2100 },
                0,
            )],
            // The realistic flaky machine: everything above at gentler
            // rates. This is the default plan of the `+faults` scenario
            // variants.
            "mixed" => vec![
                FaultRule::everywhere(FaultKind::StuckHigh(0x80), 160),
                FaultRule::everywhere(FaultKind::StuckLow(0x40), 160),
                FaultRule::everywhere(FaultKind::FlipRead(0xFF), 224),
                FaultRule::everywhere(FaultKind::FlipWrite(0xFF), 224),
                FaultRule::everywhere(FaultKind::DropWrite, 256),
            ],
            _ => return None,
        };
        Some(FaultPlan::new(name, seed, rules))
    }

    /// The bundled plan names accepted by [`FaultPlan::named`], in
    /// display order.
    pub fn plan_names() -> &'static [&'static str] {
        &["none", "flaky-status", "dropped-irq", "bus-noise", "absent-window", "mixed"]
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PRNG seed fault decisions are drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// The interposer an [`IoSpace`](crate::IoSpace) installs between its
/// routing table and the CPU-visible values (see the [module docs](self)
/// for the exact composition). Mutable state is two words — the PRNG
/// cursor and the injection counter — both snapshot/restored by the
/// machine.
#[derive(Debug, Clone)]
pub struct FaultInterposer {
    plan: FaultPlan,
    rng: XorShift64,
    injected: u64,
}

/// The interposer's mutable state at a point in time, as captured inside
/// a [`Snapshot`](crate::Snapshot). Restoring it rewinds the fault
/// stream to that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCursor {
    pub(crate) rng: u64,
    pub(crate) injected: u64,
}

impl FaultInterposer {
    /// Install-time construction: the PRNG starts at the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = XorShift64::new(plan.seed());
        FaultInterposer { plan, rng, injected: 0 }
    }

    /// The plan this interposer executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of fault events injected so far (stuck/flipped reads,
    /// dropped or flipped writes, absent-window accesses).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Capture the mutable state for a machine snapshot.
    pub(crate) fn cursor(&self) -> FaultCursor {
        FaultCursor { rng: self.rng.state(), injected: self.injected }
    }

    /// Rewind the mutable state from a machine snapshot.
    pub(crate) fn restore_cursor(&mut self, cursor: &FaultCursor) {
        self.rng = XorShift64::from_state(cursor.rng);
        self.injected = cursor.injected;
    }

    /// Whether a covered device is absent from the bus at `clock`.
    /// Draws nothing from the PRNG — the window alone decides, so the
    /// check is free and order-independent.
    #[inline]
    pub(crate) fn absent(&mut self, port: u16, clock: u64) -> bool {
        for rule in &self.plan.rules {
            if let FaultKind::Absent { from, until } = rule.kind {
                if rule.covers(port) && (from..until).contains(&clock) {
                    self.injected += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Filter a read value on its way back to the CPU. Exactly one PRNG
    /// step per read-affecting rule covering `port` (plus one per flip
    /// that fires, to choose the bit), so the stream position is a pure
    /// function of the access sequence.
    #[inline]
    pub(crate) fn filter_read(&mut self, port: u16, mut value: u32) -> u32 {
        for rule in &self.plan.rules {
            if !rule.kind.affects_reads() || !rule.covers(port) {
                continue;
            }
            if !self.rng.one_in(rule.rate) {
                continue;
            }
            self.injected += 1;
            value = match rule.kind {
                FaultKind::StuckHigh(mask) => value | mask,
                FaultKind::StuckLow(mask) => value & !mask,
                FaultKind::FlipRead(mask) => value ^ pick_bit(&mut self.rng, mask),
                _ => unreachable!("read filter sees only read kinds"),
            };
        }
        value
    }

    /// Filter a written value on its way to the device; `None` means the
    /// write was dropped. Same PRNG discipline as
    /// [`FaultInterposer::filter_read`].
    #[inline]
    pub(crate) fn filter_write(&mut self, port: u16, mut value: u32) -> Option<u32> {
        for rule in &self.plan.rules {
            if !rule.kind.affects_writes() || !rule.covers(port) {
                continue;
            }
            if !self.rng.one_in(rule.rate) {
                continue;
            }
            self.injected += 1;
            match rule.kind {
                FaultKind::DropWrite => return None,
                FaultKind::FlipWrite(mask) => value ^= pick_bit(&mut self.rng, mask),
                _ => unreachable!("write filter sees only write kinds"),
            }
        }
        Some(value)
    }
}

/// One randomly chosen set bit of `mask` (0 when the mask is empty).
#[inline]
fn pick_bit(rng: &mut XorShift64, mask: u32) -> u32 {
    let n = mask.count_ones();
    if n == 0 {
        return 0;
    }
    let mut pick = rng.below(n as u64) as u32;
    let mut m = mask;
    loop {
        let bit = m & m.wrapping_neg();
        if pick == 0 {
            return bit;
        }
        m &= !bit;
        pick -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::ScratchRegisters;
    use crate::{IoBus, IoSpace};

    fn noisy_machine(plan: &str) -> IoSpace {
        let mut io = IoSpace::new();
        io.map(0x100, 8, Box::new(ScratchRegisters::new(8))).unwrap();
        io.install_faults(FaultPlan::named(plan, 7).unwrap());
        io
    }

    #[test]
    fn every_named_plan_builds_and_none_is_empty() {
        for name in FaultPlan::plan_names() {
            let plan = FaultPlan::named(name, 1).unwrap();
            assert_eq!(plan.name(), *name);
        }
        assert!(FaultPlan::named("none", 1).unwrap().rules().is_empty());
        assert!(FaultPlan::named("no-such-plan", 1).is_none());
    }

    #[test]
    fn rule_window_coverage() {
        let r = FaultRule { base: 0x1F0, len: 8, kind: FaultKind::DropWrite, rate: 1 };
        assert!(r.covers(0x1F0));
        assert!(r.covers(0x1F7));
        assert!(!r.covers(0x1F8));
        assert!(!r.covers(0x1EF));
        assert!(FaultRule::everywhere(FaultKind::DropWrite, 1).covers(0xFFFF));
    }

    #[test]
    fn pick_bit_returns_a_set_bit() {
        let mut rng = XorShift64::new(3);
        for _ in 0..200 {
            let bit = pick_bit(&mut rng, 0b1010_0110);
            assert_eq!(bit.count_ones(), 1);
            assert_ne!(bit & 0b1010_0110, 0);
        }
        assert_eq!(pick_bit(&mut rng, 0), 0);
    }

    #[test]
    fn same_plan_same_fault_stream() {
        let run = || {
            let mut io = noisy_machine("mixed");
            let mut seen = Vec::new();
            for i in 0..2000u32 {
                io.outb(0x100 + (i % 8) as u16, i as u8).unwrap();
                seen.push(io.inb(0x100 + (i % 8) as u16).unwrap());
            }
            (seen, io.fault_injected().unwrap())
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(ia > 0, "the mixed plan injects something over 4000 accesses");
    }

    #[test]
    fn different_seeds_inject_differently() {
        let run = |seed| {
            let mut io = IoSpace::new();
            io.map(0x100, 8, Box::new(ScratchRegisters::new(8))).unwrap();
            io.install_faults(FaultPlan::named("bus-noise", seed).unwrap());
            (0..512u32).map(|_| io.inb(0x100).unwrap()).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn mid_plan_snapshot_restore_replays_the_tail_exactly() {
        let mut io = noisy_machine("mixed");
        // Burn into the plan: 40 mixed accesses.
        for i in 0..40u32 {
            io.outb(0x100 + (i % 8) as u16, i as u8).unwrap();
        }
        let snap = io.snapshot();
        let tail = |io: &mut IoSpace| -> Vec<u8> {
            (0..200u32)
                .map(|i| {
                    io.outb(0x104, i as u8).unwrap();
                    io.inb(0x100 + (i % 8) as u16).unwrap()
                })
                .collect()
        };
        let first = tail(&mut io);
        let end = io.snapshot();
        io.restore(&snap).unwrap();
        let second = tail(&mut io);
        assert_eq!(first, second, "restored mid-plan cursor replays the same faults");
        assert_eq!(io.snapshot(), end, "machine ends bit-identical to the first pass");
    }

    #[test]
    fn absent_window_floats_and_recovers() {
        let mut io = IoSpace::new();
        io.map(0x100, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        io.outb(0x100, 0x5A).unwrap();
        io.install_faults(FaultPlan::new(
            "gap",
            1,
            vec![FaultRule::everywhere(FaultKind::Absent { from: 3, until: 6 }, 0)],
        ));
        // clock is 1 after the write above; reads at clocks 2..=8.
        let seen: Vec<u8> = (0..7).map(|_| io.inb(0x100).unwrap()).collect();
        assert_eq!(seen, [0x5A, 0xFF, 0xFF, 0xFF, 0x5A, 0x5A, 0x5A]);
        // Writes inside the window vanish; the device keeps its value.
        let mut io = IoSpace::new();
        io.map(0x100, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        io.install_faults(FaultPlan::new(
            "gap",
            1,
            vec![FaultRule::everywhere(FaultKind::Absent { from: 0, until: 2 }, 0)],
        ));
        io.outb(0x100, 0x77).unwrap(); // clock 1: absent, dropped
        io.outb(0x100, 0x33).unwrap(); // clock 2: present again
        assert_eq!(io.inb(0x100).unwrap(), 0x33);
    }

    #[test]
    fn stuck_and_flip_kinds_shape_reads() {
        let mut io = IoSpace::new();
        io.map(0x100, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        io.outb(0x100, 0x0F).unwrap();
        io.install_faults(FaultPlan::new(
            "stuck",
            1,
            vec![
                FaultRule::everywhere(FaultKind::StuckHigh(0x80), 1),
                FaultRule::everywhere(FaultKind::StuckLow(0x01), 1),
            ],
        ));
        assert_eq!(io.inb(0x100).unwrap(), 0x8E, "OR 0x80 then clear 0x01");
        // Device state itself is untouched by read faults.
        io.clear_faults();
        assert_eq!(io.inb(0x100).unwrap(), 0x0F);
    }

    #[test]
    fn dropped_writes_never_reach_the_device_but_hit_the_trace() {
        let mut io = IoSpace::new();
        io.map(0x100, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        io.install_faults(FaultPlan::new(
            "drop",
            1,
            vec![FaultRule::everywhere(FaultKind::DropWrite, 1)],
        ));
        io.enable_trace();
        io.outb(0x100, 0xAA).unwrap();
        assert_eq!(io.inb(0x100).unwrap(), 0, "write was dropped");
        let trace = io.take_trace();
        assert_eq!(trace.len(), 2, "the CPU still issued the write");
        assert_eq!(trace[0].value, 0xAA, "wire log records what was issued");
    }

    #[test]
    fn interposer_presence_mismatch_is_a_restore_error() {
        let mut io = IoSpace::new();
        io.map(0x100, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        let bare = io.snapshot();
        io.install_faults(FaultPlan::none(1));
        assert_eq!(
            io.restore(&bare).unwrap_err(),
            crate::snap::RestoreError::FaultSetChanged { snapshot: false, machine: true }
        );
        let faulted = io.snapshot();
        io.clear_faults();
        assert_eq!(
            io.restore(&faulted).unwrap_err(),
            crate::snap::RestoreError::FaultSetChanged { snapshot: true, machine: false }
        );
    }
}
