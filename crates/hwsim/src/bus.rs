//! The port-mapped I/O bus fabric.
//!
//! An [`IoSpace`] owns a set of [`IoDevice`]s, each mapped at a base port
//! with a length. Drivers (interpreted C or Devil stubs) talk to the space
//! through the [`IoBus`] trait — `inb`/`outb` and the 16/32-bit variants —
//! exactly mirroring the x86 port instructions the paper's drivers used.
//!
//! Unmapped accesses follow the faithful ISA behaviour: reads float high
//! (all ones for the width) and writes vanish. A stray access does not
//! stop the machine, it silently misbehaves, exactly as on the paper's
//! test PC.

use crate::fault::{FaultInterposer, FaultPlan};
use crate::snap::{RestoreError, Snapshot, StateReader, StateWriter};
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique snapshot identities, starting at 1 (0 = "unknown").
fn next_snapshot_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Width of a single port access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// 8-bit access (`inb`/`outb`).
    Byte,
    /// 16-bit access (`inw`/`outw`).
    Word,
    /// 32-bit access (`inl`/`outl`).
    Dword,
}

impl AccessSize {
    /// Number of bits moved by this access.
    pub fn bits(self) -> u32 {
        match self {
            AccessSize::Byte => 8,
            AccessSize::Word => 16,
            AccessSize::Dword => 32,
        }
    }

    /// Mask covering the bits moved by this access.
    pub fn mask(self) -> u32 {
        match self {
            AccessSize::Byte => 0xFF,
            AccessSize::Word => 0xFFFF,
            AccessSize::Dword => 0xFFFF_FFFF,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessSize::Byte => f.write_str("byte"),
            AccessSize::Word => f.write_str("word"),
            AccessSize::Dword => f.write_str("dword"),
        }
    }
}

/// Direction of a port access, used in the bus trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An `in` instruction.
    Read,
    /// An `out` instruction.
    Write,
}

/// One recorded bus access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Monotonic bus timestamp (one tick per access).
    pub time: u64,
    /// Port address.
    pub port: u16,
    /// Width of the access.
    pub size: AccessSize,
    /// Read or write.
    pub kind: AccessKind,
    /// Value read or written.
    pub value: u32,
}

/// A refusal raised by a device model, without heap allocation.
///
/// Devices reject accesses that are not meaningful for their register file
/// (wrong width, offset outside the decoded window, or a protocol rule).
/// The enum is `Copy`, so the success path of a port access never touches
/// the allocator — the paper's core performance claim for generated stubs
/// depends on the failure machinery being free when nothing fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// The access width is not supported at this offset.
    Width {
        /// Offset within the device window.
        offset: u16,
        /// Attempted width.
        size: AccessSize,
    },
    /// The offset is outside the device's decoded window.
    OutOfWindow {
        /// Offset within the device window.
        offset: u16,
    },
    /// A device-specific protocol rule was violated.
    Protocol(&'static str),
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::Width { offset, size } => {
                write!(f, "{size} access unsupported at offset {offset:#x}")
            }
            DeviceFault::OutOfWindow { offset } => {
                write!(f, "offset {offset:#x} is outside the device window")
            }
            DeviceFault::Protocol(rule) => f.write_str(rule),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// A fault raised by the bus fabric or a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusFault {
    /// A device refused the access (e.g. unsupported width on that register).
    Device {
        /// Faulting port.
        port: u16,
        /// The device's refusal.
        fault: DeviceFault,
    },
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusFault::Device { port, fault } => {
                write!(f, "device fault at port {port:#06x}: {fault}")
            }
        }
    }
}

impl std::error::Error for BusFault {}

/// Identifier of a mapped device within an [`IoSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(usize);

/// Error mapping a device into an [`IoSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The requested window overlaps an existing mapping.
    Overlap {
        /// Requested base port.
        base: u16,
        /// Requested window length.
        len: u16,
    },
    /// The window is empty or runs past the end of the 64 KiB port space.
    BadWindow {
        /// Requested base port.
        base: u16,
        /// Requested window length.
        len: u16,
    },
    /// The packed routing table is full: 65 535 devices are already
    /// mapped (device indices above `0xFFFE` cannot be encoded).
    TooManyDevices,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap { base, len } => {
                write!(f, "window {base:#06x}+{len} overlaps an existing mapping")
            }
            MapError::BadWindow { base, len } => {
                write!(f, "window {base:#06x}+{len} is empty or exceeds the port space")
            }
            MapError::TooManyDevices => {
                f.write_str("routing table is full: 65535 devices already mapped")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// A port-mapped peripheral model.
///
/// Offsets passed to [`IoDevice::read`]/[`IoDevice::write`] are relative to
/// the mapping base. Models are free to keep arbitrary internal state; the
/// bus clock is advanced by one tick per access and delivered via `tick`.
/// The `Any` supertrait is what lets [`IoSpace::device`] and
/// [`IoSpace::device_mut`] hand a mapped model back as its concrete type.
pub trait IoDevice: Any {
    /// Short device name used in traces and faults.
    fn name(&self) -> &str;

    /// Handle a port read at `offset` (relative to the mapping base).
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceFault`] when the access is not meaningful for the
    /// device (e.g. a dword read of a byte-only register) and the bus
    /// should fault.
    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault>;

    /// Handle a port write at `offset` (relative to the mapping base).
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceFault`] when the access is not meaningful for the
    /// device.
    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault>;

    /// Advance internal time by `ticks` bus cycles.
    ///
    /// Devices use this for busy timers (e.g. the IDE controller staying BSY
    /// for a few polls after a command). The default does nothing.
    ///
    /// The bus delivers ticks *lazily*: a device sees its accumulated clock
    /// delta immediately before each of its own accesses (and on
    /// [`IoSpace::sync`]), not one call per bus cycle. Timer logic must
    /// therefore handle multi-tick deltas — which every model does, since
    /// the signature always carried a count.
    fn tick(&mut self, ticks: u64) {
        let _ = ticks;
    }

    /// Serialize every piece of *mutable* device state into `w`.
    ///
    /// Part of the snapshot/restore campaign machinery (see
    /// [`crate::snap`]): [`IoSpace::snapshot`] concatenates each device's
    /// payload, and [`IoSpace::restore`] hands the exact same bytes back to
    /// [`IoDevice::load`]. Construction-time configuration (geometry, MAC
    /// address, window wiring) need not be saved — a snapshot is only ever
    /// restored into the machine it was captured from.
    ///
    /// The default saves nothing, which is correct **only** for a fully
    /// stateless device. Every stateful model must override `save` and
    /// `load` as an exact pair.
    fn save(&self, w: &mut StateWriter<'_>) {
        let _ = w;
    }

    /// Restore the state written by [`IoDevice::save`] on this device.
    ///
    /// Must consume exactly the bytes `save` wrote and leave the device
    /// bit-identical to the saved one, without allocating on the success
    /// path (dynamic logs may allocate when the saved content exceeds the
    /// live capacity — see [`crate::snap`]). The default loads nothing.
    fn load(&mut self, r: &mut StateReader<'_>) {
        let _ = r;
    }

    /// Write the state that steers this device's future behaviour into
    /// `w` and return `true`, or return `false` when the device cannot
    /// vouch for it now. The bytecode VM's hang detector compares these
    /// bytes between two points of one run (see [`crate::snap`]).
    ///
    /// # Contract
    ///
    /// * Report only while the device is **quiescent**: no
    ///   [`IoDevice::tick`], of any length, may change this state or the
    ///   [`IoDevice::save`] bytes. The bus clock then cannot steer the
    ///   device, so it stays out of the comparison. A device with a
    ///   pending timer returns `false`.
    /// * Two equal reports must mean equal behaviour under any access
    ///   sequence. A report may stand in for a large buffer with a
    ///   counter that moves on every write to it (the IDE platter's write
    ///   generation): two reports of the same state may then differ,
    ///   which only hides a repetition, never invents one.
    /// * What `false` leaves in `w` is ignored.
    ///
    /// The default returns `false`, which turns the detector off for any
    /// machine that maps the device.
    fn cycle_state(&self, w: &mut StateWriter<'_>) -> bool {
        let _ = w;
        false
    }

    /// Serve `out.len()` consecutive reads at `offset` as **one** call —
    /// the bulk-access hook behind [`IoSpace::read_block`], which is how
    /// `insb`/`insw`-style string I/O moves a whole repetition count to
    /// the device at memcpy speed instead of one dispatch per element.
    ///
    /// # Contract
    ///
    /// * Return `false` **without touching any state** when the fast path
    ///   does not apply (wrong offset or width, wrong transfer phase,
    ///   unaligned stream position, a pending busy timer); the bus then
    ///   falls back to the single-access loop.
    /// * When returning `true`, every element must be filled exactly as
    ///   the equivalent sequence of [`IoDevice::read`] calls would have
    ///   filled it, including mid-block state transitions (a transfer
    ///   that completes part-way floats the remainder, just as the
    ///   per-access reads would).
    /// * An accepting device must be insensitive to tick granularity
    ///   across the block: the bus delivers the block's clock ticks in
    ///   one [`IoDevice::tick`] batch rather than one per element, so a
    ///   device whose timers could fire *mid-block* must decline while
    ///   such a timer is pending.
    ///
    /// The default declines everything, which is always correct.
    fn read_block(&mut self, offset: u16, size: AccessSize, out: &mut [u32]) -> bool {
        let _ = (offset, size, out);
        false
    }

    /// Serve `values.len()` consecutive writes at `offset` as one call —
    /// the `outsb`/`outsw` counterpart of [`IoDevice::read_block`], under
    /// the same all-or-decline contract. Values arrive unmasked; use only
    /// the low `size` bits of each, as [`IoDevice::write`] would see.
    fn write_block(&mut self, offset: u16, size: AccessSize, values: &[u32]) -> bool {
        let _ = (offset, size, values);
        false
    }
}

/// The byte-granular port bus interface the drivers program against.
///
/// This is the only thing generated Devil stubs and interpreted C drivers
/// see; both real hardware models and test doubles implement it. Functions
/// that accept `B: IoBus` can also be handed `&mut B` thanks to the blanket
/// impl below.
pub trait IoBus {
    /// 8-bit port read.
    ///
    /// # Errors
    ///
    /// Propagates a device's refusal as a [`BusFault`].
    fn inb(&mut self, port: u16) -> Result<u8, BusFault>;
    /// 16-bit port read.
    ///
    /// # Errors
    ///
    /// See [`IoBus::inb`].
    fn inw(&mut self, port: u16) -> Result<u16, BusFault>;
    /// 32-bit port read.
    ///
    /// # Errors
    ///
    /// See [`IoBus::inb`].
    fn inl(&mut self, port: u16) -> Result<u32, BusFault>;
    /// 8-bit port write.
    ///
    /// # Errors
    ///
    /// See [`IoBus::inb`].
    fn outb(&mut self, port: u16, value: u8) -> Result<(), BusFault>;
    /// 16-bit port write.
    ///
    /// # Errors
    ///
    /// See [`IoBus::inb`].
    fn outw(&mut self, port: u16, value: u16) -> Result<(), BusFault>;
    /// 32-bit port write.
    ///
    /// # Errors
    ///
    /// See [`IoBus::inb`].
    fn outl(&mut self, port: u16, value: u32) -> Result<(), BusFault>;
}

impl<B: IoBus + ?Sized> IoBus for &mut B {
    fn inb(&mut self, port: u16) -> Result<u8, BusFault> {
        (**self).inb(port)
    }
    fn inw(&mut self, port: u16) -> Result<u16, BusFault> {
        (**self).inw(port)
    }
    fn inl(&mut self, port: u16) -> Result<u32, BusFault> {
        (**self).inl(port)
    }
    fn outb(&mut self, port: u16, value: u8) -> Result<(), BusFault> {
        (**self).outb(port, value)
    }
    fn outw(&mut self, port: u16, value: u16) -> Result<(), BusFault> {
        (**self).outw(port, value)
    }
    fn outl(&mut self, port: u16, value: u32) -> Result<(), BusFault> {
        (**self).outl(port, value)
    }
}

/// One entry of the flat port routing table: packed `(device index + 1,
/// base port)`, or [`EMPTY_SLOT`] when no device decodes the port.
type PortSlot = u32;

/// Slot value for unmapped ports.
const EMPTY_SLOT: PortSlot = 0;

/// Number of ports in the x86 I/O space.
const PORT_SPACE: usize = 0x1_0000;

#[inline]
fn pack_slot(device: usize, base: u16) -> PortSlot {
    ((device as u32 + 1) << 16) | base as u32
}

#[inline]
fn unpack_slot(slot: PortSlot) -> (usize, u16) {
    ((slot >> 16) as usize - 1, (slot & 0xFFFF) as u16)
}

/// Initial capacity reserved when tracing is enabled, so long traced runs
/// do not pay reallocation churn from the first few thousand accesses.
const TRACE_INITIAL_CAPACITY: usize = 16 * 1024;

/// The machine's port-mapped I/O space.
///
/// Owns all peripheral models, routes accesses by port, keeps a monotonic
/// clock, counts accesses, and (optionally) records a full access trace.
///
/// # Dispatch
///
/// Routing uses a flat 64 K-entry table built at [`IoSpace::map`] time:
/// one load per access resolves the owning device and its base port, so
/// dispatch is O(1) in the number of mapped devices and allocation-free.
///
/// # Time
///
/// The bus clock still advances once per access, but tick delivery to
/// devices is *lazy*: each device accumulates its clock delta and receives
/// it in one [`IoDevice::tick`] call immediately before its next access
/// (or when [`IoSpace::sync`] is called, or before a
/// [`IoSpace::device_mut`] inspection). A device polled in a loop
/// therefore observes exactly the same tick sequence as under eager
/// delivery, while devices not involved in an access burst cost nothing.
pub struct IoSpace {
    table: Box<[PortSlot; PORT_SPACE]>,
    devices: Vec<Box<dyn IoDevice>>,
    /// Per-device clock value at which ticks were last delivered.
    last_sync: Vec<u64>,
    clock: u64,
    reads: u64,
    writes: u64,
    trace: Option<Vec<Access>>,
    /// Deterministic hardware-fault interposer, when installed (see
    /// [`crate::fault`]). Sits between routing and the CPU-visible values.
    faults: Option<FaultInterposer>,
}

impl fmt::Debug for IoSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoSpace")
            .field("devices", &self.devices.len())
            .field("clock", &self.clock)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl Default for IoSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl IoSpace {
    /// Create an empty I/O space.
    pub fn new() -> Self {
        let table: Box<[PortSlot]> = vec![EMPTY_SLOT; PORT_SPACE].into_boxed_slice();
        IoSpace {
            table: table.try_into().expect("table has PORT_SPACE entries"),
            devices: Vec::new(),
            last_sync: Vec::new(),
            clock: 0,
            reads: 0,
            writes: 0,
            trace: None,
            faults: None,
        }
    }

    /// Install a deterministic hardware-fault interposer executing `plan`
    /// (replacing any previous one, cursor reset to the plan's seed).
    ///
    /// Like device mapping, installation is machine *configuration*: do it
    /// before [`IoSpace::snapshot`]. A snapshot records the interposer's
    /// cursor, and [`IoSpace::restore`] refuses to cross an
    /// install/[`IoSpace::clear_faults`] boundary
    /// ([`RestoreError::FaultSetChanged`]).
    ///
    /// While an interposer is installed the block-transfer fast path is
    /// declined and every element of a [`IoSpace::read_block`] /
    /// [`IoSpace::write_block`] takes the single-access path, so faults
    /// are sampled once per access on every execution engine.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultInterposer::new(plan));
    }

    /// Remove the fault interposer, if any. Snapshots taken while it was
    /// installed can no longer be restored (and vice versa).
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// The installed fault interposer, if any.
    pub fn faults(&self) -> Option<&FaultInterposer> {
        self.faults.as_ref()
    }

    /// Number of fault events injected so far, or `None` when no
    /// interposer is installed.
    pub fn fault_injected(&self) -> Option<u64> {
        self.faults.as_ref().map(FaultInterposer::injected)
    }

    /// Start recording every access.
    ///
    /// If tracing is already enabled the accesses recorded so far are kept;
    /// a trace previously removed with [`IoSpace::take_trace`] is gone and
    /// recording restarts from an empty buffer. Capacity is pre-reserved so
    /// long traced runs do not pay per-access reallocation churn.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::with_capacity(TRACE_INITIAL_CAPACITY));
        }
    }

    /// Stop recording and return the trace collected so far, if any.
    pub fn take_trace(&mut self) -> Vec<Access> {
        self.trace.take().unwrap_or_default()
    }

    /// Number of port reads performed so far.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of port writes performed so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Current bus clock (one tick per access).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Map `device` at `[base, base + len)`.
    ///
    /// Builds the O(1) routing entries for the window. Costs O(`len`);
    /// dispatch afterwards is one table load regardless of how many
    /// devices are mapped.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the range overlaps an existing mapping, is
    /// empty, runs past the end of the port space, or the routing table is
    /// full (65 535 devices). The device is dropped on error.
    pub fn map(
        &mut self,
        base: u16,
        len: u16,
        device: Box<dyn IoDevice>,
    ) -> Result<DeviceId, MapError> {
        if len == 0 || (base as u32) + (len as u32) > PORT_SPACE as u32 {
            return Err(MapError::BadWindow { base, len });
        }
        let window = base as usize..base as usize + len as usize;
        if self.table[window.clone()].iter().any(|&s| s != EMPTY_SLOT) {
            return Err(MapError::Overlap { base, len });
        }
        let idx = self.devices.len();
        if idx > 0xFFFE {
            // `pack_slot` stores `idx + 1` in 16 bits, so 0xFFFE is the
            // largest representable index.
            return Err(MapError::TooManyDevices);
        }
        let slot = pack_slot(idx, base);
        self.table[window].fill(slot);
        self.devices.push(device);
        self.last_sync.push(self.clock);
        Ok(DeviceId(idx))
    }

    /// Borrow a mapped device, downcast to its concrete type.
    ///
    /// Returns `None` when the id is stale or the type does not match.
    /// Pending ticks are *not* delivered (this takes `&self`); call
    /// [`IoSpace::sync`] first when inspecting timer-driven state outside
    /// an access sequence.
    pub fn device<T: IoDevice>(&self, id: DeviceId) -> Option<&T> {
        // Upcast the device, not its box: `&Box<dyn IoDevice>` coerces to
        // `&dyn Any` too, but with the box's type id, so no downcast hits.
        let dev: &dyn Any = &**self.devices.get(id.0)?;
        dev.downcast_ref::<T>()
    }

    /// Mutably borrow a mapped device, downcast to its concrete type.
    ///
    /// Delivers the device's pending clock delta first, so timer-driven
    /// state is current.
    pub fn device_mut<T: IoDevice>(&mut self, id: DeviceId) -> Option<&mut T> {
        if id.0 < self.devices.len() {
            self.touch(id.0);
        }
        let dev: &mut dyn Any = &mut **self.devices.get_mut(id.0)?;
        dev.downcast_mut::<T>()
    }

    /// Deliver every device's accumulated clock delta now.
    ///
    /// Equivalent to the old eager behaviour at a point in time: after
    /// `sync()` all devices have observed the full bus clock.
    pub fn sync(&mut self) {
        for idx in 0..self.devices.len() {
            self.touch(idx);
        }
    }

    /// Capture the machine's complete mutable state.
    ///
    /// Saves the clock, the access counters, the per-device lazy-tick
    /// bookkeeping, the trace recorded so far (when tracing is on) and
    /// every device's [`IoDevice::save`] payload. Pending ticks are *not*
    /// delivered first — the lazy-delivery positions are part of the state,
    /// so a restored machine is bit-identical to one that replayed the
    /// same access prefix from scratch.
    ///
    /// Campaigns call this once on the freshly built machine and then
    /// [`IoSpace::restore`] per mutant; see [`crate::snap`] for the full
    /// lifecycle.
    pub fn snapshot(&self) -> Snapshot {
        let mut state = Vec::new();
        let mut spans = Vec::with_capacity(self.devices.len() + 1);
        spans.push(0);
        for dev in &self.devices {
            {
                let mut w = StateWriter::new(&mut state);
                dev.save(&mut w);
            }
            spans.push(state.len());
        }
        Snapshot {
            id: next_snapshot_id(),
            clock: self.clock,
            reads: self.reads,
            writes: self.writes,
            last_sync: self.last_sync.clone(),
            state,
            spans,
            trace: self.trace.clone(),
            fault: self.faults.as_ref().map(FaultInterposer::cursor),
        }
    }

    /// Rewind the machine to a previously captured [`Snapshot`].
    ///
    /// Restores counters, clock, trace, lazy-tick
    /// bookkeeping and every device's state. The O(1) routing table is
    /// *reused*, not rebuilt — the mapped device set must be exactly the
    /// one the snapshot was taken from. Allocation-free on success as long
    /// as the snapshot's dynamic logs fit the live machine's capacity
    /// (always true when the snapshot machine was freshly built).
    ///
    /// # Errors
    ///
    /// [`RestoreError::DeviceSetChanged`] when the device count differs
    /// (e.g. a device was mapped after the snapshot); the machine is left
    /// untouched. [`RestoreError::StatePayloadMismatch`] when a device's
    /// `load` does not consume exactly its saved payload, indicating an
    /// inconsistent [`IoDevice::save`]/[`IoDevice::load`] pair; the rewind
    /// still completes in full — per-device payloads are span-isolated, so
    /// every other device, the counters and the trace are restored — but
    /// the flagged device's own state is only as good as its broken codec.
    /// This error means a device implementation bug, not a runtime
    /// condition: fix the `save`/`load` pair rather than recovering.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), RestoreError> {
        if snap.last_sync.len() != self.devices.len() {
            return Err(RestoreError::DeviceSetChanged {
                snapshot: snap.last_sync.len(),
                machine: self.devices.len(),
            });
        }
        match (&snap.fault, &mut self.faults) {
            (Some(cursor), Some(live)) => live.restore_cursor(cursor),
            (None, None) => {}
            (s, m) => {
                // Like the device set, the fault interposer is machine
                // configuration: a snapshot cannot cross an
                // install/clear boundary.
                return Err(RestoreError::FaultSetChanged {
                    snapshot: s.is_some(),
                    machine: m.is_some(),
                });
            }
        }
        self.clock = snap.clock;
        self.reads = snap.reads;
        self.writes = snap.writes;
        self.last_sync.copy_from_slice(&snap.last_sync);
        let mut mismatch = None;
        for (idx, dev) in self.devices.iter_mut().enumerate() {
            let payload = &snap.state[snap.spans[idx]..snap.spans[idx + 1]];
            let mut r = StateReader::with_id(payload, snap.id);
            dev.load(&mut r);
            if r.remaining() != 0 && mismatch.is_none() {
                mismatch = Some(RestoreError::StatePayloadMismatch {
                    device: idx,
                    unread: r.remaining(),
                });
            }
        }
        match (&mut self.trace, &snap.trace) {
            (Some(live), Some(saved)) => {
                live.clear();
                live.extend_from_slice(saved);
            }
            (live @ Some(_), None) => *live = None,
            (live @ None, Some(saved)) => *live = Some(saved.clone()),
            (None, None) => {}
        }
        match mismatch {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Append the state that steers the machine's future behaviour to
    /// `out`: each device's [`IoDevice::cycle_state`] followed by its
    /// length. Returns `false`, leaving `out` to be ignored, when any
    /// device declines, or when a fault interposer (whose PRNG cursor
    /// and clock-driven windows steer every access) or an access trace
    /// (which records every access) is installed.
    ///
    /// The clock, the counters and the lazy-tick bookkeeping stay out: a
    /// quiescent device ignores ticks, so none of them steers it.
    pub fn cycle_state(&self, out: &mut Vec<u8>) -> bool {
        if self.faults.is_some() || self.trace.is_some() {
            return false;
        }
        for dev in &self.devices {
            let start = out.len();
            if !dev.cycle_state(&mut StateWriter::new(out)) {
                return false;
            }
            let len = (out.len() - start) as u32;
            out.extend_from_slice(&len.to_le_bytes());
        }
        true
    }

    /// Deliver device `idx`'s pending ticks.
    #[inline]
    fn touch(&mut self, idx: usize) {
        let delta = self.clock - self.last_sync[idx];
        if delta > 0 {
            self.last_sync[idx] = self.clock;
            self.devices[idx].tick(delta);
        }
    }

    #[inline]
    fn record(&mut self, port: u16, size: AccessSize, kind: AccessKind, value: u32) {
        if let Some(trace) = &mut self.trace {
            trace.push(Access { time: self.clock, port, size, kind, value });
        }
    }

    /// Width-generic read: the single hot path behind `inb`/`inw`/`inl`.
    ///
    /// Allocation-free on success: one table load, one lazy tick delivery,
    /// one device call.
    pub(crate) fn read_any(&mut self, port: u16, size: AccessSize) -> Result<u32, BusFault> {
        self.clock += 1;
        self.reads += 1;
        let clock = self.clock;
        let slot = self.table[port as usize];
        let mut value = if slot != EMPTY_SLOT {
            if self.faults.as_mut().is_some_and(|f| f.absent(port, clock)) {
                // The device is off the bus this window: the line floats
                // and the model is neither called nor ticked.
                size.mask()
            } else {
                let (idx, base) = unpack_slot(slot);
                self.touch(idx);
                self.devices[idx]
                    .read(port - base, size)
                    .map_err(|fault| BusFault::Device { port, fault })?
            }
        } else {
            size.mask()
        };
        if let Some(f) = &mut self.faults {
            // Read faults perturb what the CPU sees, never the model; the
            // trace below therefore records the post-fault wire value.
            value = f.filter_read(port, value);
        }
        let value = value & size.mask();
        self.record(port, size, AccessKind::Read, value);
        Ok(value)
    }

    /// Block read: `out.len()` consecutive reads of `size` at `port` —
    /// the bulk fast path behind `insb`/`insw`-style string I/O.
    ///
    /// Observationally identical to the equivalent loop of single
    /// accesses with per-element errors replaced by the ISA float value
    /// (exactly how the kernel host consumes single-access errors): same
    /// clock and counter advance, same total tick delivery, same device
    /// end state. When the owning device accepts the block via
    /// [`IoDevice::read_block`] the whole transfer is one device call;
    /// otherwise it degrades to the per-access loop. Traced spaces and
    /// spaces with a fault interposer installed always take the
    /// per-access loop, so a recorded wire log keeps single-access
    /// granularity and faults are sampled once per element.
    pub fn read_block(&mut self, port: u16, size: AccessSize, out: &mut [u32]) {
        if out.is_empty() {
            return;
        }
        let slot = self.table[port as usize];
        if self.trace.is_none() && self.faults.is_none() && slot != EMPTY_SLOT {
            let (idx, base) = unpack_slot(slot);
            // Catch the device up before it inspects its own state; an
            // accepting device is tick-batch-insensitive by contract.
            self.touch(idx);
            if self.devices[idx].read_block(port - base, size, out) {
                let n = out.len() as u64;
                self.clock += n;
                self.reads += n;
                // Deliver the block's own ticks as one batch, so a timer
                // due *after* the block still fires on schedule.
                self.touch(idx);
                let mask = size.mask();
                for v in out.iter_mut() {
                    *v &= mask;
                }
                return;
            }
        }
        for v in out.iter_mut() {
            *v = self.read_any(port, size).unwrap_or_else(|_| size.mask());
        }
    }

    /// Block write of `values` — the `outsb`/`outsw` counterpart of
    /// [`IoSpace::read_block`], with the same equivalence guarantees
    /// (per-element errors are swallowed, as the kernel host does for
    /// single writes).
    pub fn write_block(&mut self, port: u16, size: AccessSize, values: &[u32]) {
        if values.is_empty() {
            return;
        }
        let slot = self.table[port as usize];
        if self.trace.is_none() && self.faults.is_none() && slot != EMPTY_SLOT {
            let (idx, base) = unpack_slot(slot);
            self.touch(idx);
            if self.devices[idx].write_block(port - base, size, values) {
                let n = values.len() as u64;
                self.clock += n;
                self.writes += n;
                // See `read_block`: the block's ticks are owed in one batch.
                self.touch(idx);
                return;
            }
        }
        for v in values {
            let _ = self.write_any(port, size, *v);
        }
    }

    /// Width-generic write: the single hot path behind `outb`/`outw`/`outl`.
    ///
    /// Allocation-free on success (see [`IoSpace::read_any`]).
    pub(crate) fn write_any(&mut self, port: u16, size: AccessSize, value: u32) -> Result<(), BusFault> {
        self.clock += 1;
        self.writes += 1;
        let mut value = value & size.mask();
        // The trace records what the CPU issued; a write fault below may
        // still drop or corrupt it on the way to the model.
        self.record(port, size, AccessKind::Write, value);
        let slot = self.table[port as usize];
        if slot != EMPTY_SLOT {
            let clock = self.clock;
            if let Some(f) = &mut self.faults {
                if f.absent(port, clock) {
                    // Device off the bus: the write vanishes, no tick.
                    return Ok(());
                }
                match f.filter_write(port, value) {
                    Some(v) => value = v & size.mask(),
                    None => return Ok(()), // dropped edge
                }
            }
            let (idx, base) = unpack_slot(slot);
            self.touch(idx);
            self.devices[idx]
                .write(port - base, size, value)
                .map_err(|fault| BusFault::Device { port, fault })
        } else {
            Ok(())
        }
    }
}

impl IoBus for IoSpace {
    fn inb(&mut self, port: u16) -> Result<u8, BusFault> {
        Ok(self.read_any(port, AccessSize::Byte)? as u8)
    }

    fn inw(&mut self, port: u16) -> Result<u16, BusFault> {
        Ok(self.read_any(port, AccessSize::Word)? as u16)
    }

    fn inl(&mut self, port: u16) -> Result<u32, BusFault> {
        self.read_any(port, AccessSize::Dword)
    }

    fn outb(&mut self, port: u16, value: u8) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Byte, value as u32)
    }

    fn outw(&mut self, port: u16, value: u16) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Word, value as u32)
    }

    fn outl(&mut self, port: u16, value: u32) -> Result<(), BusFault> {
        self.write_any(port, AccessSize::Dword, value)
    }
}

/// A trivial RAM-backed register file, handy for tests and as scaffolding.
///
/// Every byte in the window is readable and writable with no side effects.
#[derive(Debug, Clone)]
pub struct ScratchRegisters {
    bytes: Vec<u8>,
}

impl ScratchRegisters {
    /// Create a scratch window of `len` bytes, all zero.
    pub fn new(len: usize) -> Self {
        ScratchRegisters { bytes: vec![0; len] }
    }

    /// Current contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl IoDevice for ScratchRegisters {
    fn name(&self) -> &str {
        "scratch"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        let n = (size.bits() / 8) as usize;
        let start = offset as usize;
        if start >= self.bytes.len() {
            return Err(DeviceFault::OutOfWindow { offset });
        }
        if start + n > self.bytes.len() {
            // The offset decodes, but the access width spills past the end.
            return Err(DeviceFault::Width { offset, size });
        }
        let mut v = 0u32;
        for i in 0..n {
            v |= (self.bytes[start + i] as u32) << (8 * i);
        }
        Ok(v)
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        let n = (size.bits() / 8) as usize;
        let start = offset as usize;
        if start >= self.bytes.len() {
            return Err(DeviceFault::OutOfWindow { offset });
        }
        if start + n > self.bytes.len() {
            return Err(DeviceFault::Width { offset, size });
        }
        for i in 0..n {
            self.bytes[start + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.bytes(&self.bytes);
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        r.fill(&mut self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rejects_overlap() {
        let mut io = IoSpace::new();
        io.map(0x100, 8, Box::new(ScratchRegisters::new(8))).unwrap();
        assert!(io.map(0x104, 8, Box::new(ScratchRegisters::new(8))).is_err());
        assert!(io.map(0x0fc, 8, Box::new(ScratchRegisters::new(8))).is_err());
        io.map(0x108, 8, Box::new(ScratchRegisters::new(8))).unwrap();
    }

    #[test]
    fn map_rejects_wrap_and_zero_len() {
        let mut io = IoSpace::new();
        assert!(io.map(0xFFFF, 2, Box::new(ScratchRegisters::new(2))).is_err());
        assert!(io.map(0x10, 0, Box::new(ScratchRegisters::new(1))).is_err());
        io.map(0xFFFF, 1, Box::new(ScratchRegisters::new(1))).unwrap();
    }

    #[test]
    fn map_fills_the_table_and_reports_exhaustion() {
        // 65 535 one-port devices fit (indices 0..=0xFFFE); the 65 536th
        // cannot be encoded and must fail cleanly, not panic.
        let mut io = IoSpace::new();
        for port in 0..0xFFFFu32 {
            io.map(port as u16, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        }
        assert_eq!(
            io.map(0xFFFF, 1, Box::new(ScratchRegisters::new(1))).unwrap_err(),
            MapError::TooManyDevices
        );
        // The full table still dispatches correctly at both ends.
        io.outb(0x0000, 0x11).unwrap();
        io.outb(0xFFFE, 0x22).unwrap();
        assert_eq!(io.inb(0x0000).unwrap(), 0x11);
        assert_eq!(io.inb(0xFFFE).unwrap(), 0x22);
    }

    #[test]
    fn unmapped_float_reads_all_ones() {
        let mut io = IoSpace::new();
        assert_eq!(io.inb(0x400).unwrap(), 0xFF);
        assert_eq!(io.inw(0x400).unwrap(), 0xFFFF);
        assert_eq!(io.inl(0x400).unwrap(), 0xFFFF_FFFF);
        io.outb(0x400, 0x12).unwrap();
    }

    #[test]
    fn scratch_round_trips_all_widths() {
        let mut io = IoSpace::new();
        io.map(0x100, 8, Box::new(ScratchRegisters::new(8))).unwrap();
        io.outb(0x100, 0xAB).unwrap();
        assert_eq!(io.inb(0x100).unwrap(), 0xAB);
        io.outw(0x102, 0xBEEF).unwrap();
        assert_eq!(io.inw(0x102).unwrap(), 0xBEEF);
        assert_eq!(io.inb(0x102).unwrap(), 0xEF);
        assert_eq!(io.inb(0x103).unwrap(), 0xBE);
        io.outl(0x104, 0xDEAD_BEEF).unwrap();
        assert_eq!(io.inl(0x104).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn trace_records_access_stream() {
        let mut io = IoSpace::new();
        io.map(0x100, 4, Box::new(ScratchRegisters::new(4))).unwrap();
        io.enable_trace();
        io.outb(0x100, 7).unwrap();
        io.inb(0x100).unwrap();
        let t = io.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, AccessKind::Write);
        assert_eq!(t[0].value, 7);
        assert_eq!(t[1].kind, AccessKind::Read);
        assert_eq!(t[1].value, 7);
        assert!(t[0].time < t[1].time);
    }

    #[test]
    fn counters_and_clock_advance() {
        let mut io = IoSpace::new();
        assert_eq!(io.clock(), 0);
        io.inb(0x1).unwrap();
        io.outb(0x1, 0).unwrap();
        io.inw(0x1).unwrap();
        assert_eq!(io.read_count(), 2);
        assert_eq!(io.write_count(), 1);
        assert_eq!(io.clock(), 3);
    }

    #[test]
    fn device_downcast_works() {
        let mut io = IoSpace::new();
        let id = io.map(0x10, 2, Box::new(ScratchRegisters::new(2))).unwrap();
        io.outb(0x10, 0x55).unwrap();
        let dev: &ScratchRegisters = io.device(id).unwrap();
        assert_eq!(dev.bytes()[0], 0x55);
        assert!(io.device::<crate::devices::Busmouse>(id).is_none());
        let dev: &mut ScratchRegisters = io.device_mut(id).unwrap();
        dev.write(1, AccessSize::Byte, 0xAA).unwrap();
        assert_eq!(io.inb(0x11).unwrap(), 0xAA);
        assert!(io.device_mut::<crate::devices::Busmouse>(id).is_none());
    }

    #[test]
    fn device_fault_surfaces_message() {
        let mut io = IoSpace::new();
        // Window of 2 bytes but mapped over 4 ports: offsets 2..4 fault.
        io.map(0x10, 4, Box::new(ScratchRegisters::new(2))).unwrap();
        let BusFault::Device { port, .. } = io.inb(0x13).unwrap_err();
        assert_eq!(port, 0x13);
    }

    #[test]
    fn snapshot_restore_round_trips_counters_and_state() {
        let mut io = IoSpace::new();
        io.map(0x100, 4, Box::new(ScratchRegisters::new(4))).unwrap();
        io.enable_trace();
        io.outb(0x100, 0x11).unwrap();
        let snap = io.snapshot();
        assert_eq!(snap.device_count(), 1);
        assert_eq!(snap.clock(), 1);
        // Diverge: more writes, more trace, more clock.
        io.outb(0x101, 0x22).unwrap();
        io.inb(0x101).unwrap();
        io.restore(&snap).unwrap();
        assert_eq!(io.clock(), 1);
        assert_eq!(io.read_count(), 0);
        assert_eq!(io.write_count(), 1);
        assert_eq!(io.inb(0x101).unwrap(), 0, "scratch byte rewound");
        assert_eq!(io.inb(0x100).unwrap(), 0x11, "pre-snapshot byte kept");
        // The trace was rewound too: snapshot held 1 access, plus the two
        // probe reads above.
        assert_eq!(io.take_trace().len(), 3);
    }

    #[test]
    fn restore_is_repeatable() {
        let mut io = IoSpace::new();
        io.map(0x10, 2, Box::new(ScratchRegisters::new(2))).unwrap();
        let snap = io.snapshot();
        for round in 0..3u8 {
            io.outb(0x10, round.wrapping_add(7)).unwrap();
            io.restore(&snap).unwrap();
            assert_eq!(io.inb(0x10).unwrap(), 0);
            io.restore(&snap).unwrap();
        }
        assert_eq!(io.snapshot(), snap, "machine is bit-identical again");
    }

    #[test]
    fn restore_rejects_changed_device_set() {
        let mut io = IoSpace::new();
        io.map(0x10, 2, Box::new(ScratchRegisters::new(2))).unwrap();
        let snap = io.snapshot();
        io.map(0x20, 2, Box::new(ScratchRegisters::new(2))).unwrap();
        assert_eq!(
            io.restore(&snap).unwrap_err(),
            crate::snap::RestoreError::DeviceSetChanged { snapshot: 1, machine: 2 }
        );
    }

    /// A device whose `save`/`load` pair is deliberately inconsistent:
    /// `save` writes two bytes, `load` consumes one.
    struct BrokenCodec(u8);

    impl IoDevice for BrokenCodec {
        fn name(&self) -> &str {
            "broken"
        }
        fn read(&mut self, _offset: u16, _size: AccessSize) -> Result<u32, DeviceFault> {
            Ok(self.0 as u32)
        }
        fn write(&mut self, _offset: u16, _size: AccessSize, value: u32) -> Result<(), DeviceFault> {
            self.0 = value as u8;
            Ok(())
        }
        fn save(&self, w: &mut StateWriter<'_>) {
            w.u8(self.0);
            w.u8(0xEE);
        }
        fn load(&mut self, r: &mut StateReader<'_>) {
            self.0 = r.u8();
        }
    }

    #[test]
    fn restore_completes_the_rewind_despite_a_codec_mismatch() {
        let mut io = IoSpace::new();
        io.map(0x10, 1, Box::new(BrokenCodec(0x41))).unwrap();
        io.map(0x20, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        io.outb(0x20, 0x11).unwrap();
        let snap = io.snapshot();
        io.outb(0x10, 0x42).unwrap();
        io.outb(0x20, 0x22).unwrap();
        assert_eq!(
            io.restore(&snap).unwrap_err(),
            crate::snap::RestoreError::StatePayloadMismatch { device: 0, unread: 1 }
        );
        // The error flags the broken pair, but the rewind still completed:
        // the healthy device and the counters match the snapshot.
        assert_eq!(io.clock(), snap.clock());
        assert_eq!(io.inb(0x20).unwrap(), 0x11, "healthy device rewound");
        assert_eq!(io.inb(0x10).unwrap(), 0x41, "broken device loaded what its codec read");
    }

    #[test]
    fn restore_turns_tracing_back_off() {
        let mut io = IoSpace::new();
        io.map(0x10, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        let snap = io.snapshot(); // tracing off at capture
        io.enable_trace();
        io.outb(0x10, 1).unwrap();
        io.restore(&snap).unwrap();
        io.outb(0x10, 2).unwrap();
        assert!(io.take_trace().is_empty(), "tracing state follows the snapshot");
    }

    #[test]
    fn bus_trait_object_and_mut_ref_usable() {
        fn poke<B: IoBus>(mut bus: B) -> u8 {
            bus.outb(0x10, 3).unwrap();
            bus.inb(0x10).unwrap()
        }
        let mut io = IoSpace::new();
        io.map(0x10, 1, Box::new(ScratchRegisters::new(1))).unwrap();
        assert_eq!(poke(&mut io), 3);
    }
}
