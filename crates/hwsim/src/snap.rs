//! Machine snapshots: capture an [`IoSpace`](crate::IoSpace) once, restore
//! it thousands of times.
//!
//! # Why
//!
//! The paper's mutation campaigns evaluate thousands of driver variants
//! against the *same* simulated machine. Rebuilding the machine per mutant
//! pays the 64 K routing-table construction, every device allocation and
//! the filesystem `mkfs` again and again; a [`Snapshot`] amortises all of
//! that to one memcpy-sized `restore` per mutant.
//!
//! # Lifecycle — the contract every scenario must uphold
//!
//! The kernel crate's scenario engine (`devil_kernel::scenario`) runs any
//! workload — IDE boot, mouse event streams, NE2000 packet stress —
//! through this exact sequence, and a `Scenario` implementation must keep
//! to it:
//!
//! 1. **Build once** (`Scenario::build`): map every device, run *all*
//!    host-side setup (`mkfs`, pre-loaded device state, ...). Everything
//!    the workload expects to find on the machine must exist **before**
//!    the snapshot; anything done later is erased by the next restore.
//! 2. Capture the pristine state once with
//!    [`IoSpace::snapshot`](crate::IoSpace::snapshot).
//! 3. Per mutant: [`IoSpace::restore`](crate::IoSpace::restore), drive
//!    the workload (`Scenario::drive`), inspect the quiesced machine
//!    (`Scenario::inspect`), classify. Restore rewinds the clock, the
//!    access counters, the trace, the pending lazy-tick bookkeeping and
//!    every device's internal state; the routing table is *reused*, never
//!    rebuilt — the device set must therefore be unchanged, which
//!    [`RestoreError::DeviceSetChanged`] enforces. A scenario must never
//!    map or unmap devices after `build`, and must not keep host-side
//!    state of its own that a restore cannot rewind (derive everything
//!    observable from the machine or from per-run locals).
//! 4. Mid-drive event injection (mouse motion, injected frames) is fine —
//!    it mutates device state, which the next restore rewinds like any
//!    other traffic. Injections are per-run workload, not setup: they must
//!    be replayed by `drive` on every run, not done once in `build`.
//!
//! Restoring is allocation-free on the success path as long as every
//! dynamic log captured by the snapshot (trace, NE2000 transmit log,
//! Permedia 2 FIFO, ...) fits the capacity the live machine already has —
//! trivially true for the campaign pattern above, where the snapshot is
//! taken on a freshly built machine with empty logs.
//!
//! # Bulk transfers between restores
//!
//! Since the block-transfer fast path landed
//! ([`IoSpace::read_block`](crate::IoSpace::read_block) /
//! [`write_block`](crate::IoSpace::write_block)), a device may serve a
//! whole `insw`-style repetition count as **one** call between restores.
//! This is invisible to the snapshot machinery by construction: the
//! bulk-access contract (documented on
//! [`IoDevice::read_block`](crate::bus::IoDevice::read_block)) requires
//! the device to end in exactly the state the equivalent single-access
//! loop would have produced, so `save`/`load` codecs never see a
//! difference and restore equality stays byte-exact whichever path the
//! driver took.
//!
//! # Fault-injection state
//!
//! When a deterministic fault interposer is installed
//! ([`IoSpace::install_faults`](crate::IoSpace::install_faults), see
//! [`crate::fault`]), its mutable state — the PRNG cursor and the
//! injection counter — is part of the machine state this module manages:
//!
//! * [`IoSpace::snapshot`](crate::IoSpace::snapshot) captures the cursor,
//!   and restore rewinds it, so each per-mutant run replays the *same*
//!   fault sequence at the same access positions as a freshly built
//!   machine would. Fault injection therefore composes with the
//!   build-once/restore-per-mutant lifecycle above with no scenario
//!   changes.
//! * The *plan* itself is machine configuration, like the device set: it
//!   is installed before the snapshot and never recorded in it. Restoring
//!   across an install/clear boundary is refused with
//!   [`RestoreError::FaultSetChanged`], mirroring
//!   [`RestoreError::DeviceSetChanged`].
//! * Two snapshots of fault-injected machines compare equal exactly when
//!   the underlying machines (devices, counters, trace **and** fault
//!   cursor) are bit-identical — the cursor participates in snapshot
//!   equality.
//!
//! # Incremental restore (dirty journals)
//!
//! A device whose payload is dominated by one large buffer may keep a
//! *dirty journal* — a record of the regions written since its state last
//! matched a snapshot — and restore only those regions when rewinding to
//! the **same** snapshot again. Every [`StateReader`] carries the identity
//! of the snapshot its payload came from ([`StateReader::snapshot_id`];
//! 0 when unknown): the fast path is only legal when that identity equals
//! the one the journal is relative to, and anything else must fall back to
//! a full reload. The IDE disk's dirty-sector journal is the canonical
//! implementation — it cut the 2 MiB per-mutant platter copy to the few
//! sectors a boot actually writes.
//!
//! # Failure ownership under supervision
//!
//! The campaign layer (`devil_mutagen::Campaign::supervised`) catches
//! panics raised while classifying a single mutant. A panic may leave
//! the live machine mid-drive — a restore would only be legal if every
//! device were still internally consistent, which a panicking engine
//! cannot promise — so supervision never attempts one: the worker's
//! whole workspace (machines, snapshots, caches) is dropped and rebuilt
//! from scratch, and the mutant reports as `EngineError`. Wall-clock
//! overruns are gentler: the cooperative deadline token stops the run at
//! a fuel-burn or dispatch boundary, the machine is consistent (just
//! unfinished), and the ordinary restore-per-mutant cycle continues —
//! the mutant classifies as `Deadline`. Only failures *outside* a
//! classify still abort the campaign, deliberately: a snapshot codec
//! that cannot round-trip, a `save`/`load` pair that diverges, a
//! [`RestoreError`] from a scenario breaking the lifecycle above are
//! harness defects, not mutant behaviours, and reporting them as
//! outcomes would corrupt the taxonomy.
//!
//! # What a device must implement
//!
//! Every [`IoDevice`](crate::IoDevice) with *mutable* state must override
//! [`save`](crate::IoDevice::save) and [`load`](crate::IoDevice::load) as
//! an exact pair: `load` must consume precisely the bytes `save` wrote and
//! leave the device bit-identical to the saved one. Construction-time
//! configuration (geometry, MAC address, port wiring) need not be saved —
//! restore always targets the machine the snapshot came from. The default
//! implementations save and load nothing, which is only correct for a
//! completely stateless device; forgetting the override makes restores
//! silently keep stale state, and the snapshot equivalence property test
//! exists to catch exactly that.
//!
//! # Cycle state
//!
//! A mutant that polls a register that never changes loops until its fuel
//! runs out. The bytecode VM proves such a hang early by finding its whole
//! state repeated exactly, and the machine's part of that state comes from
//! [`IoSpace::cycle_state`](crate::IoSpace::cycle_state): each device's
//! [`IoDevice::cycle_state`](crate::IoDevice::cycle_state) report, in
//! mapping order.
//!
//! * A device reports only while **quiescent**: no `tick` can change its
//!   report or its `save` bytes. The bus clock then steers nothing, so the
//!   clock, the counters and the lazy-tick bookkeeping stay out. The IDE
//!   controller declines while a command keeps it busy; the busmouse and
//!   the NE2000 have no timers and always report.
//! * A report covers everything that steers the device. The busmouse and
//!   the NE2000 report their `save` bytes. The IDE controller reports its
//!   registers, phase, sector buffer and transfer position, and in place
//!   of its 2 MiB platter a write generation that moves on every sector
//!   write and restore. A generation can only miss a repetition, never
//!   claim a false one.
//! * The space declines while a fault interposer is installed (its PRNG
//!   cursor and clock-driven windows steer every access) or an access
//!   trace records (the trace grows with every access). A device that
//!   keeps the default declines always, which turns the detector off for
//!   its machine.
//!
//! The `cycle_state_is_tick_invariant` property test pins the quiescence
//! rule for every device a catalog scenario maps, and
//! `ide_platter_writes_change_the_cycle_state` that the IDE report sees
//! every platter write.

use crate::bus::UnmappedPolicy;
use crate::fault::FaultCursor;

/// Append-only encoder handed to [`IoDevice::save`](crate::IoDevice::save).
///
/// All integers are encoded little-endian. The writer may grow its buffer
/// (snapshots are taken once); the matching [`StateReader`] never
/// allocates.
#[derive(Debug)]
pub struct StateWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> StateWriter<'a> {
    /// Wrap a byte buffer.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        StateWriter { buf }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (no length prefix — the reader must know the size).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn len_bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes(v);
    }

    /// Append a slice of u32s (no length prefix).
    pub fn u32s(&mut self, v: &[u32]) {
        for w in v {
            self.u32(*w);
        }
    }

    /// Append a `u64` length prefix followed by the u32s.
    pub fn len_u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        self.u32s(v);
    }
}

/// Cursor over a device's saved payload, handed to
/// [`IoDevice::load`](crate::IoDevice::load).
///
/// Every accessor is allocation-free; reading past the end of the payload
/// panics, because it means `save` and `load` disagree — a device bug, not
/// a runtime condition.
#[derive(Debug)]
pub struct StateReader<'a> {
    rest: &'a [u8],
    snapshot_id: u64,
}

impl<'a> StateReader<'a> {
    /// Wrap a saved payload of unknown provenance (no snapshot identity).
    pub fn new(rest: &'a [u8]) -> Self {
        StateReader { rest, snapshot_id: 0 }
    }

    /// Wrap a payload that belongs to the [`Snapshot`] with identity `id`
    /// (as [`IoSpace::restore`](crate::IoSpace::restore) does).
    pub fn with_id(rest: &'a [u8], snapshot_id: u64) -> Self {
        StateReader { rest, snapshot_id }
    }

    /// Identity of the snapshot this payload came from, or 0 when unknown.
    ///
    /// Devices with an incremental restore fast path (the IDE disk's
    /// dirty-sector journal) compare this against the identity of the
    /// snapshot they last diverged from: a match means only the recorded
    /// divergence needs undoing; any other value forces a full reload.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        head
    }

    /// Read one byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a bool.
    pub fn bool(&mut self) -> bool {
        self.u8() != 0
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("two bytes"))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("four bytes"))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("eight bytes"))
    }

    /// Borrow `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        self.take(n)
    }

    /// Copy exactly `out.len()` bytes into `out`.
    pub fn fill(&mut self, out: &mut [u8]) {
        let n = out.len();
        out.copy_from_slice(self.take(n));
    }

    /// Copy exactly `out.len()` u32s into `out`.
    pub fn fill_u32s(&mut self, out: &mut [u32]) {
        for w in out {
            *w = self.u32();
        }
    }

    /// Replace `out`'s contents with a `u64`-length-prefixed u32 run.
    /// Allocates only when `out`'s capacity is insufficient.
    pub fn fill_len_u32s(&mut self, out: &mut Vec<u32>) {
        let n = self.u64() as usize;
        out.clear();
        for _ in 0..n {
            out.push(self.u32());
        }
    }
}

/// Saved state of one [`IoSpace`](crate::IoSpace): bus counters, clock,
/// lazy-tick bookkeeping, trace, and every device's serialized state.
///
/// Produced by [`IoSpace::snapshot`](crate::IoSpace::snapshot), consumed
/// (any number of times) by [`IoSpace::restore`](crate::IoSpace::restore).
/// See the [module docs](self) for the campaign lifecycle. Two snapshots
/// compare equal exactly when they capture bit-identical machines, which
/// is what the equivalence property tests assert — the [`Snapshot::id`]
/// is an identity, not content, and is excluded from the comparison.
#[derive(Debug, Clone, Eq)]
pub struct Snapshot {
    /// Process-unique identity assigned at capture time (clones share it).
    /// Passed to every device `load` via [`StateReader::snapshot_id`] so
    /// incremental restore paths can tell "rewinding to the same snapshot
    /// again" apart from "rewinding to a different one".
    pub(crate) id: u64,
    pub(crate) policy: UnmappedPolicy,
    pub(crate) clock: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) last_sync: Vec<u64>,
    /// Concatenated per-device `save` payloads.
    pub(crate) state: Vec<u8>,
    /// `state[spans[i] .. spans[i + 1]]` is device `i`'s payload.
    pub(crate) spans: Vec<usize>,
    /// Recorded accesses at snapshot time; `None` when tracing was off.
    pub(crate) trace: Option<Vec<crate::bus::Access>>,
    /// Fault-interposer cursor at snapshot time; `None` when no
    /// interposer was installed (see [`crate::fault`]).
    pub(crate) fault: Option<FaultCursor>,
}

impl Snapshot {
    /// Number of devices captured.
    pub fn device_count(&self) -> usize {
        self.last_sync.len()
    }

    /// Bus clock at capture time.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Process-unique identity of this capture (clones share it).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Content equality: everything except the capture identity, so a machine
/// restored from a snapshot still snapshots equal to it.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.clock == other.clock
            && self.reads == other.reads
            && self.writes == other.writes
            && self.last_sync == other.last_sync
            && self.state == other.state
            && self.spans == other.spans
            && self.trace == other.trace
            && self.fault == other.fault
    }
}

/// Error restoring a [`Snapshot`] into an [`IoSpace`](crate::IoSpace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The machine's device set differs from the snapshot's — devices were
    /// mapped after the snapshot was taken, or the snapshot belongs to a
    /// different machine. The routing table is reused by `restore`, so the
    /// device set must be identical.
    DeviceSetChanged {
        /// Devices captured in the snapshot.
        snapshot: usize,
        /// Devices mapped in the machine being restored.
        machine: usize,
    },
    /// Device `device` did not consume its payload exactly: its
    /// `save`/`load` pair is inconsistent, or the snapshot came from a
    /// machine with a different device at this slot.
    StatePayloadMismatch {
        /// Index of the offending device (mapping order).
        device: usize,
        /// Bytes left unread after `load` returned.
        unread: usize,
    },
    /// A fault interposer was installed (or removed) after the snapshot
    /// was taken. Like the device set, the interposer is machine
    /// configuration — a snapshot only records its *cursor*, so restore
    /// cannot cross an install/clear boundary. The machine is left
    /// untouched.
    FaultSetChanged {
        /// Whether the snapshot recorded a fault cursor.
        snapshot: bool,
        /// Whether the machine has an interposer installed.
        machine: bool,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::DeviceSetChanged { snapshot, machine } => write!(
                f,
                "snapshot captured {snapshot} devices but the machine has {machine}"
            ),
            RestoreError::StatePayloadMismatch { device, unread } => write!(
                f,
                "device #{device} left {unread} bytes of its snapshot payload unread"
            ),
            RestoreError::FaultSetChanged { snapshot, machine } => {
                let state = |present| if present { "with" } else { "without" };
                write!(
                    f,
                    "snapshot taken {} a fault interposer but the machine is {} one",
                    state(*snapshot),
                    state(*machine)
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}
