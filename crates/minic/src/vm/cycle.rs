//! Hang proof by exact state repetition (R. P. Brent, "An improved Monte
//! Carlo factorization algorithm", BIT 20, 1980).
//!
//! A mutant that polls a register that never changes loops until its
//! fuel runs out. Once a run has burned [`CYCLE_CHECK_AFTER`] units, the
//! VM takes a checkpoint at every [`CHECK_EVERY`]-th backward jump. Within
//! one [`Vm::call`], each checkpoint's state is a function of the one
//! before (run on to the next so many backward jumps), so a checkpoint
//! that repeats an earlier one of the same call repeats forever. The VM
//! keeps one saved state and compares each checkpoint against it; it
//! replaces the saved state at checkpoints 1, 2, 4, 8, … after the last
//! save, so a cycle of any length is met within twice its length once
//! that distance passes it. The state is everything that steers the rest
//! of the call:
//!
//! * the code and pc, the caller frames, the slots, the scope stacks, the
//!   operand stack and the pending lvalues;
//! * every heap object with its live flag, the free list and the
//!   globals;
//! * the host's [`Host::cycle_state`] report.
//!
//! Fuel, coverage, the deadline and the allocation pools steer nothing.
//! Execution from a state is a function of the state, so a repeated state
//! repeats forever: the call could only end by running out of fuel, having
//! covered no line and printed nothing it had not already. The VM
//! therefore sets its fuel to 0 and returns [`RunError::OutOfFuel`], which
//! is exactly what running the budget out would give. Only an exact match
//! counts; values are compared field by field, never by a hash.
//!
//! The saved state is a copy that shares no struct buffer with the live
//! heap: a shared `Rc` would make `Rc::make_mut` copy on the next field
//! store and `Rc::try_unwrap` fail to recycle the buffer. Struct values
//! are flattened into [`Cell`]s, whose buffers are reused from save to
//! save, so a checkpoint allocates nothing once they have grown.
//!
//! Comparison runs cheapest first: scalars and lengths, then the heap
//! object that mismatched last time, then the rest, the host report last.
//! A loop whose counter lives in a heap object mismatches at the same
//! object every time, and most checkpoints end at that one object. On
//! the CDevil IDE driver the detector spends ~0.1 ms of a ~30 ms hang it
//! cannot prove, and ~50 µs of a ~5 ms Boot mutant's run; without the
//! hint, ~3.4 ms and ~210 µs.
//!
//! The state is compared only within one [`Vm::call`]: between two calls
//! the caller may inject events or act on what a call returned, which no
//! saved state records. A new call therefore forgets the saved state but
//! keeps the schedule, so a run saves a number of times logarithmic in
//! its checkpoints, not in each call's: a CDevil boot makes 17 calls of
//! ~250 backward jumps each, and saves 9 times. Restarting the schedule
//! in every call makes that 79 saves, and ~290 µs in the detector.

use super::{Lval, Obj, Vm};
use crate::bytecode::Op;
use crate::interp::{Host, RunError};
use crate::value::{Place, Value};
use std::rc::Rc;

/// Fuel a run burns before the VM starts looking for a repeated state.
///
/// A clean plain-C `ide-boot` burns 8,774 units and never reaches it; a
/// hang that the detector cannot prove burns the kernel's whole
/// `DEFAULT_FUEL` (1,500,000).
pub const CYCLE_CHECK_AFTER: u64 = 20_000;

/// Backward jumps per checkpoint. A clean CDevil boot runs armed for 92%
/// of its fuel, with a backward jump every ~60 units. Checking every jump
/// instead took the detector's time on the CDevil IDE driver from ~50 to
/// ~95 µs per Boot mutant, and from ~0.1 to ~0.55 ms per hang it cannot
/// prove. One jump in eight delays a proof by at most eight loop
/// iterations per checkpoint.
const CHECK_EVERY: u32 = 8;

/// One flattened value: a struct is its field count followed by its
/// fields, each flattened in turn.
#[derive(Debug)]
enum Cell {
    Int(i64),
    Ptr(Option<Place>),
    /// String literals are immutable, so sharing them is harmless.
    Str(Rc<String>),
    Struct(usize),
}

/// One saved checkpoint (see the module docs for what it holds).
#[derive(Debug, Default)]
struct State {
    code: usize,
    pc: usize,
    depth: u32,
    slot_base: usize,
    scope_floor: usize,
    /// Per caller frame: code, pc, slot base, scope floor.
    frames: Vec<[usize; 4]>,
    slots: Vec<usize>,
    scope_objs: Vec<usize>,
    scope_bases: Vec<usize>,
    free: Vec<usize>,
    globals: Vec<Option<usize>>,
    stack_len: usize,
    stack: Vec<Cell>,
    lvs: Vec<Lval>,
    /// Per heap object: live flag, first cell, value count.
    objects: Vec<(bool, usize, usize)>,
    cells: Vec<Cell>,
    host: Vec<u8>,
}

/// The detector's state, owned by the VM.
#[derive(Debug)]
pub(super) struct Cycle {
    /// Backward jumps left before the next checkpoint.
    countdown: u32,
    /// Checkpoints since the last save.
    lam: u64,
    /// Checkpoints between the last save and the next one.
    power: u64,
    /// Whether `saved` holds a checkpoint of the current call.
    valid: bool,
    /// The heap object that differed at the last comparison.
    hint: Option<usize>,
    saved: State,
    /// The host's current report, reused between checkpoints.
    host_now: Vec<u8>,
}

impl Cycle {
    /// Nothing saved, and the first save due at the first checkpoint.
    pub(super) fn new() -> Self {
        Cycle {
            countdown: CHECK_EVERY,
            lam: 0,
            power: 1,
            valid: false,
            hint: None,
            saved: State::default(),
            host_now: Vec::new(),
        }
    }

    /// A new call starts: no state saved before it can repeat in it.
    pub(super) fn forget(&mut self) {
        self.valid = false;
    }
}

impl<H: Host> Vm<'_, H> {
    /// A backward jump to `pc` of `ops` in an armed run. Ends the call as
    /// fuel exhaustion when a checkpoint repeats the saved state.
    #[inline]
    pub(super) fn cycle_jump(&mut self, ops: &[Op], pc: usize) -> Result<(), Box<RunError>> {
        self.cycle.countdown -= 1;
        if self.cycle.countdown > 0 {
            return Ok(());
        }
        self.cycle.countdown = CHECK_EVERY;
        self.cycle_checkpoint(ops, pc)
    }

    #[cold]
    #[inline(never)]
    fn cycle_checkpoint(&mut self, ops: &[Op], pc: usize) -> Result<(), Box<RunError>> {
        if self.cycle.valid && self.repeats(ops, pc) {
            self.fuel = 0;
            return Err(Box::new(RunError::OutOfFuel));
        }
        self.cycle.lam += 1;
        // A host that cannot report now (a device mid-command) is asked
        // again at the next checkpoint.
        if self.cycle.lam >= self.cycle.power && self.save(ops, pc) {
            self.cycle.lam = 0;
            self.cycle.power = self.cycle.power.saturating_mul(2);
        }
        Ok(())
    }

    /// Replace the saved state with the current one; `false` when the
    /// host declines to report.
    fn save(&mut self, ops: &[Op], pc: usize) -> bool {
        let s = &mut self.cycle.saved;
        s.host.clear();
        self.cycle.valid = self.host.cycle_state(&mut s.host);
        if !self.cycle.valid {
            return false;
        }
        // Size the comparison buffer now, while copying is allowed to
        // allocate, rather than at the first comparison that reaches it.
        self.cycle.host_now.reserve(s.host.len());
        s.code = ops.as_ptr() as usize;
        s.pc = pc;
        s.depth = self.depth;
        s.slot_base = self.slot_base;
        s.scope_floor = self.scope_floor;
        s.frames.clear();
        s.frames.extend(
            self.frames
                .iter()
                .map(|f| [f.body.ops.as_ptr() as usize, f.pc, f.slot_base, f.scope_floor]),
        );
        s.slots.clone_from(&self.slots);
        s.scope_objs.clone_from(&self.scope_objs);
        s.scope_bases.clone_from(&self.scope_bases);
        s.free.clone_from(&self.free);
        s.globals.clone_from(&self.globals);
        s.stack_len = self.stack.len();
        s.stack.clear();
        for v in &self.stack {
            flatten(v, &mut s.stack);
        }
        s.lvs.clone_from(&self.lvs);
        s.objects.clear();
        s.cells.clear();
        for o in &self.objects {
            let first = s.cells.len();
            for v in &o.data {
                flatten(v, &mut s.cells);
            }
            s.objects.push((o.live, first, o.data.len()));
        }
        true
    }

    /// Whether the current state equals the saved one, cheapest
    /// comparison first; remembers what mismatched for next time.
    fn repeats(&mut self, ops: &[Op], pc: usize) -> bool {
        let Cycle {
            saved: s,
            hint,
            host_now,
            ..
        } = &mut self.cycle;
        if s.code != ops.as_ptr() as usize
            || s.pc != pc
            || s.depth != self.depth
            || s.slot_base != self.slot_base
            || s.scope_floor != self.scope_floor
            || s.frames.len() != self.frames.len()
            || s.slots.len() != self.slots.len()
            || s.scope_objs.len() != self.scope_objs.len()
            || s.scope_bases.len() != self.scope_bases.len()
            || s.free.len() != self.free.len()
            || s.stack_len != self.stack.len()
            || s.lvs.len() != self.lvs.len()
            || s.objects.len() != self.objects.len()
        {
            return false;
        }
        if let Some(obj) = *hint {
            if !same_object(&self.objects[obj], s.objects[obj], &s.cells) {
                return false;
            }
        }
        let same_frames = s
            .frames
            .iter()
            .zip(&self.frames)
            .all(|(a, f)| *a == [f.body.ops.as_ptr() as usize, f.pc, f.slot_base, f.scope_floor]);
        let same_lvs = s
            .lvs
            .iter()
            .zip(&self.lvs)
            .all(|(a, b)| a.place == b.place && a.fields() == b.fields());
        if !same_frames
            || s.slots != self.slots
            || s.scope_objs != self.scope_objs
            || s.scope_bases != self.scope_bases
            || s.free != self.free
            || s.globals != self.globals
            || !same(&self.stack, &s.stack, &mut 0)
            || !same_lvs
        {
            *hint = None;
            return false;
        }
        for (obj, o) in self.objects.iter().enumerate() {
            if !same_object(o, s.objects[obj], &s.cells) {
                *hint = Some(obj);
                return false;
            }
        }
        host_now.clear();
        self.host.cycle_state(host_now) && *host_now == s.host
    }
}

/// Append `v` to `out` as cells.
fn flatten(v: &Value, out: &mut Vec<Cell>) {
    match v {
        Value::Int(i) => out.push(Cell::Int(*i)),
        Value::Ptr(p) => out.push(Cell::Ptr(*p)),
        Value::Str(s) => out.push(Cell::Str(Rc::clone(s))),
        Value::Struct(fields) => {
            out.push(Cell::Struct(fields.len()));
            for f in fields.iter() {
                flatten(f, out);
            }
        }
    }
}

/// Whether heap object `o` equals its saved `(live, first cell, value
/// count)`.
fn same_object(o: &Obj, (live, first, len): (bool, usize, usize), cells: &[Cell]) -> bool {
    o.live == live && o.data.len() == len && same(&o.data, cells, &mut { first })
}

/// Whether `vals` equal the cells from `*at` on, advancing `*at` past
/// them.
fn same(vals: &[Value], cells: &[Cell], at: &mut usize) -> bool {
    vals.iter().all(|v| {
        let Some(c) = cells.get(*at) else {
            return false;
        };
        *at += 1;
        match (v, c) {
            (Value::Int(a), Cell::Int(b)) => a == b,
            (Value::Ptr(a), Cell::Ptr(b)) => a == b,
            (Value::Str(a), Cell::Str(b)) => Rc::ptr_eq(a, b) || a == b,
            (Value::Struct(fields), Cell::Struct(n)) => {
                fields.len() == *n && same(fields, cells, at)
            }
            _ => false,
        }
    })
}
