//! Flat-dispatch bytecode VM — the fast boot path for `minic` programs.
//!
//! Executes a [`CompiledProgram`] produced by
//! [`Program::to_bytecode`](crate::Program::to_bytecode) or a
//! [`LowerCache`](crate::bytecode::LowerCache) against the same [`Host`]
//! trait, fuel budget and [`RunError`] taxonomy as the tree-walking
//! [`Interpreter`](crate::interp::Interpreter), which survives as the
//! *differential oracle*: anything observable — return
//! values, fault kind/file/line, console output, line coverage, and the
//! exact fuel-burn sequence — must be identical between the two engines,
//! the same relationship `hwsim::reference::LinearIoSpace` has to the
//! routing-table `IoSpace`.
//!
//! # Lowering invariants the VM relies on
//!
//! * every AST node burns exactly once, parent before children, so fuel
//!   exhaustion stops at the same instruction the tree-walker would;
//! * every op indexes the tables of the body it belongs to (a function's
//!   or a global initialiser's), which the frame loop carries beside the
//!   op stream and switches on every call and return;
//! * variable references arrive as `Var` operands, frame slots or global
//!   indices, and every op looks them up through one helper — the checker
//!   guarantees they resolve, so an unset variable can only mean an
//!   arity-mismatched harness call or a global whose initialiser faulted,
//!   which faults `BadValue` exactly like the tree-walker's failed name
//!   lookup;
//! * the object heap reproduces the interpreter's id assignment: globals
//!   allocate first in declaration order, locals allocate at their `Decl`,
//!   scopes release in push order onto a LIFO free list. Synthetic
//!   pointer-to-int addresses ("`(obj+1)*0x10000+idx`") therefore agree
//!   byte-for-byte. Unlike the interpreter, a released slot keeps its
//!   (cleared) element buffer for reuse, which is why the dispatch loop is
//!   allocation-free in steady state (`crates/minic/tests/zero_alloc.rs`);
//! * member-access field paths are static per expression; they live
//!   inline up to [`MAX_FIELD_DEPTH`] and spill to the heap beyond it
//!   (nominal struct nesting in driver code is depth ≤ 2).
//!
//! The `vm_differential` integration test and the minic proptests pin the
//! oracle relationship over the full driver corpus and mutant sets.
//!
//! One difference is deliberate: past [`CYCLE_CHECK_AFTER`] burned units
//! the VM proves a hang when its whole state repeats within one call, and
//! ends the call there as fuel exhaustion (see the `cycle` module). The
//! result, the remaining fuel, the console and the coverage are what
//! running the budget out gives; only the host sees fewer accesses. The
//! interpreter keeps no detector, so it stays the reference. The
//! `hang_proof` integration test holds the two engines equal over every
//! hang of both IDE mutant populations.

use crate::bytecode::{
    BFunc, Body, Builtin, CastKind, Coerce, CompiledProgram, FuseEnd, FuseRhs, FuseSrc, FusedOp,
    GFinish, Op, Var, NO_FIELD,
};
use crate::coverage::Coverage;
use crate::deadline::{Deadline, DEADLINE_CHECK_INTERVAL};
use crate::interp::{FaultKind, Host, RunError, ABSORB_OBJ, MAX_DEPTH, OOB_SLACK, WILD_OBJ};
use crate::value::{wrap_int, ObjId, Place, Value};
use crate::ast::BinOp;
use std::rc::Rc;

mod cycle;

pub use cycle::CYCLE_CHECK_AFTER;

/// Field-path length stored inline; driver structs nest ≤ 2 deep, so the
/// heap spill beyond this is a correctness escape hatch, not a hot path.
pub const MAX_FIELD_DEPTH: usize = 12;

/// Internal result type: errors ride boxed so the `Result` every
/// dispatched op returns stays two words — `RunError` itself carries
/// `String`s, and moving a ~7-word `Result` per op was measurable on the
/// execution core. Unboxed at the public [`Vm::call`] boundary.
type VmResult<T> = Result<T, Box<RunError>>;

/// A resolved lvalue: an element place plus a field path into nested
/// structs. The path lives inline up to [`MAX_FIELD_DEPTH`] and spills to
/// the heap beyond it, so arbitrarily deep (checker-legal) member chains
/// behave exactly like the tree-walker's `Vec`-backed paths.
#[derive(Debug, Clone)]
struct Lval {
    place: Place,
    path: [u16; MAX_FIELD_DEPTH],
    depth: u8,
    spill: Option<Vec<u16>>,
}

impl Lval {
    fn at(place: Place) -> Lval {
        Lval { place, path: [0; MAX_FIELD_DEPTH], depth: 0, spill: None }
    }

    fn fields(&self) -> &[u16] {
        match &self.spill {
            Some(v) => v,
            None => &self.path[..self.depth as usize],
        }
    }

    fn push_field(&mut self, fidx: u16) {
        if let Some(v) = &mut self.spill {
            v.push(fidx);
        } else if (self.depth as usize) < MAX_FIELD_DEPTH {
            self.path[self.depth as usize] = fidx;
            self.depth += 1;
        } else {
            let mut v = Vec::with_capacity(MAX_FIELD_DEPTH + 1);
            v.extend_from_slice(&self.path);
            v.push(fidx);
            self.spill = Some(v);
        }
    }

    fn is_bare(&self) -> bool {
        self.depth == 0 && self.spill.is_none()
    }
}

/// One heap object. `live == false` is the tree-walker's `None` slot
/// (use-after-scope trap); the buffer is kept for allocation-free reuse.
#[derive(Debug, Default)]
struct Obj {
    live: bool,
    data: Vec<Value>,
}

/// A suspended caller frame.
struct Saved<'a> {
    body: &'a Body,
    pc: usize,
    slot_base: usize,
    scope_floor: usize,
}

/// The VM. Create one per run; it owns the object heap and the coverage
/// bitmap, and borrows the compiled program and host for its lifetime.
pub struct Vm<'a, H: Host> {
    program: &'a CompiledProgram,
    host: &'a mut H,
    fuel: u64,
    deadline: Option<Deadline>,
    /// Burns until the next wall-clock probe (`u32::MAX` when unbounded).
    deadline_ticks: u32,
    coverage: Coverage,
    objects: Vec<Obj>,
    free: Vec<usize>,
    globals: Vec<Option<usize>>,
    globals_ready: bool,
    stack: Vec<Value>,
    lvs: Vec<Lval>,
    slots: Vec<usize>,
    scope_objs: Vec<usize>,
    scope_bases: Vec<usize>,
    frames: Vec<Saved<'a>>,
    slot_base: usize,
    scope_floor: usize,
    depth: u32,
    scratch: Vec<Value>,
    /// Reusable staging buffer for the block-transfer builtins
    /// (`insb`/`insw`/`outsb`/`outsw`) — sized once, then steady-state
    /// allocation-free like the rest of the dispatch loop.
    io_block: Vec<i64>,
    /// Last line recorded in `coverage` (`u32::MAX` = none): the burn
    /// fast path skips the bitmap when the line repeats.
    last_cov: u32,
    /// Recycled struct-value buffers: stub-style code constructs (and
    /// drops) thousands of small struct rvalues per boot, and reusing
    /// their `Vec`s halves the dispatch loop's allocator traffic.
    struct_pool: Vec<Vec<Value>>,
    /// The hang detector (see [`CYCLE_CHECK_AFTER`]), and the fuel level
    /// below which it takes checkpoints.
    cycle: cycle::Cycle,
    cycle_below: u64,
}

/// Upper bound on pooled struct buffers (they are tiny — a few `Value`s
/// each — so the cap is about pathological programs, not memory).
const STRUCT_POOL_CAP: usize = 256;

impl<'a, H: Host> Vm<'a, H> {
    /// Create a VM with a fuel budget (same unit as the interpreter's:
    /// one AST node evaluated per fuel point).
    pub fn new(program: &'a CompiledProgram, host: &'a mut H, fuel: u64) -> Self {
        Vm {
            program,
            host,
            fuel,
            deadline: None,
            deadline_ticks: u32::MAX,
            coverage: Coverage::new(),
            objects: Vec::new(),
            free: Vec::new(),
            globals: vec![None; program.globals.len()],
            globals_ready: false,
            stack: Vec::new(),
            lvs: Vec::new(),
            slots: Vec::new(),
            scope_objs: Vec::new(),
            scope_bases: Vec::new(),
            frames: Vec::new(),
            slot_base: 0,
            scope_floor: 0,
            depth: 0,
            scratch: Vec::new(),
            io_block: Vec::new(),
            last_cov: u32::MAX,
            struct_pool: Vec::new(),
            cycle: cycle::Cycle::new(),
            cycle_below: fuel.saturating_sub(CYCLE_CHECK_AFTER),
        }
    }

    /// Remaining fuel.
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Bound the run by a wall-clock deadline (in addition to fuel). The
    /// deadline is probed cooperatively — amortised over fuel burns and at
    /// the block-I/O/delay builtins — and never touches fuel or coverage
    /// accounting, so runs that finish in time are bit-identical to
    /// unbounded runs (and to the interpreter, which has no deadline).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> Self {
        self.deadline = deadline;
        self.deadline_ticks =
            if deadline.is_some() { DEADLINE_CHECK_INTERVAL } else { u32::MAX };
        self
    }

    /// Mutable access to the host environment — for harnesses that inject
    /// device events (mouse motion, network frames) between driver calls.
    pub fn host_mut(&mut self) -> &mut H {
        self.host
    }

    /// Executed-line coverage so far.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Move the coverage map out, leaving an empty one behind.
    pub fn take_coverage(&mut self) -> Coverage {
        self.last_cov = u32::MAX; // the memo must not outlive its bitmap
        std::mem::take(&mut self.coverage)
    }

    /// Whether the packed line id was ever executed.
    pub fn line_covered(&self, packed: u32) -> bool {
        self.coverage.contains(packed)
    }

    /// Call a function by name with the given argument values.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] for panics, faults, fuel exhaustion, or an
    /// unknown entry point — identically to the interpreter.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, RunError> {
        self.ensure_globals().map_err(|e| *e)?;
        let Some(fidx) = self.program.function(name) else {
            return Err(RunError::NoSuchFunction(name.to_string()));
        };
        self.cycle.forget();
        let result = self.run_call(fidx, args);
        if result.is_err() {
            self.unwind_all();
        } else {
            debug_assert!(self.stack.is_empty() && self.lvs.is_empty());
        }
        result.map_err(|e| *e)
    }

    /// Snapshot a global object's elements; `None` for unknown names or
    /// when global initialisation itself faulted.
    pub fn global_values(&mut self, name: &str) -> Option<Vec<Value>> {
        self.global_data(name).cloned()
    }

    /// Read one element of a global object without snapshotting the whole
    /// object (no allocation); `None` for unknown names, dead objects or
    /// out-of-range indexes.
    pub fn global_value(&mut self, name: &str, idx: usize) -> Option<Value> {
        self.global_data(name)?.get(idx).cloned()
    }

    /// Overwrite element `idx` of a global object; `false` when the global
    /// or index does not exist.
    pub fn set_global_element(&mut self, name: &str, idx: usize, value: Value) -> bool {
        match self.global_data(name).and_then(|data| data.get_mut(idx)) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// The elements of the global `name`, once the initialisers have run;
    /// `None` for an unknown name, a dead object, or when initialisation
    /// faulted.
    fn global_data(&mut self, name: &str) -> Option<&mut Vec<Value>> {
        self.ensure_globals().ok()?;
        let id = self.globals[self.program.global(name)? as usize]?;
        let o = self.objects.get_mut(id)?;
        o.live.then_some(&mut o.data)
    }

    // ----- setup ----------------------------------------------------------

    fn ensure_globals(&mut self) -> VmResult<()> {
        if self.globals_ready {
            return Ok(());
        }
        self.globals_ready = true;
        for gidx in 0..self.program.globals.len() {
            let g = &self.program.globals[gidx];
            match self.run_global(gidx) {
                Ok(id) => self.globals[gidx] = Some(id),
                Err(mut err) => {
                    // `eval_const` re-stamps only the fault *line* to the
                    // global's declaration line.
                    if let RunError::Fault { line: l, .. } = &mut *err {
                        let (_, local) = crate::token::unpack_line(g.line);
                        *l = local;
                    }
                    self.stack.clear();
                    self.lvs.clear();
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    /// Evaluate one global's initialiser ops and assemble its object.
    fn run_global(&mut self, gidx: usize) -> VmResult<usize> {
        let program: &'a CompiledProgram = self.program;
        let g = &program.globals[gidx];
        let body: &'a Body = &g.body;
        let mut pc = 0usize;
        while pc < body.ops.len() {
            let op = &body.ops[pc];
            pc += 1;
            // Global initialisers are checker-enforced constant
            // expressions: no calls, declarations or scopes can appear.
            let flow = self.dispatch(op, body)?;
            match flow {
                Flow::Next => {}
                Flow::Jump(t) => pc = t as usize,
                Flow::Call { .. } | Flow::Ret => {
                    unreachable!("constant initialisers cannot call or return")
                }
            }
        }
        let id = self.alloc();
        let mut data = std::mem::take(&mut self.objects[id].data);
        match &g.finish {
            GFinish::Zero { template } => {
                data.extend_from_slice(&body.templates[*template as usize]);
            }
            GFinish::Scalar { coerce } => {
                let v = self.stack.pop().expect("scalar initialiser evaluated");
                data.push(apply_coerce(*coerce, v));
            }
            GFinish::Array { template, items } => {
                data.extend_from_slice(&body.templates[*template as usize]);
                let base = self.stack.len() - *items as usize;
                // Aggregate items store *raw*, mirroring `ensure_globals`.
                for (i, v) in self.stack.drain(base..).enumerate() {
                    if i < data.len() {
                        data[i] = v;
                    }
                }
            }
            GFinish::Struct { template, items } => {
                let mut vals: Vec<Value> = body.templates[*template as usize].to_vec();
                let base = self.stack.len() - *items as usize;
                for (i, v) in self.stack.drain(base..).enumerate() {
                    if i < vals.len() {
                        vals[i] = v;
                    }
                }
                data.push(Value::Struct(Rc::new(vals)));
            }
        }
        self.objects[id].data = data;
        Ok(id)
    }

    // ----- frame machinery ------------------------------------------------

    fn run_call(&mut self, fidx: u16, args: &[Value]) -> VmResult<Value> {
        let program: &'a CompiledProgram = self.program;
        let func: &'a BFunc = &program.funcs[fidx as usize];
        self.enter_frame(func)?;
        for (i, (coerce, arg)) in func.params.iter().zip(args).enumerate() {
            self.bind(i, *coerce, arg.clone());
        }
        // The running body, and its ops apart so the loop indexes them
        // directly.
        let mut body: &'a Body = &func.body;
        let mut ops: &'a [Op] = &body.ops;
        let mut pc = 0usize;
        loop {
            let op = &ops[pc];
            pc += 1;
            match self.dispatch(op, body)? {
                Flow::Next => {}
                Flow::Jump(t) => {
                    let t = t as usize;
                    if t < pc && self.fuel < self.cycle_below {
                        self.cycle_jump(ops, t)?;
                    }
                    pc = t;
                }
                Flow::Call { fidx } => {
                    let callee: &'a BFunc = &program.funcs[fidx as usize];
                    let saved =
                        Saved { body, pc, slot_base: self.slot_base, scope_floor: self.scope_floor };
                    self.enter_frame(callee)?;
                    self.frames.push(saved);
                    self.bind_args(0, callee_argc(op), &callee.params);
                    body = &callee.body;
                    ops = &body.ops;
                    pc = 0;
                }
                Flow::Ret => {
                    let ret = self.stack.pop().expect("return value on stack");
                    while self.scope_bases.len() > self.scope_floor {
                        self.exit_scope();
                    }
                    self.slots.truncate(self.slot_base);
                    self.depth -= 1;
                    match self.frames.pop() {
                        Some(saved) => {
                            body = saved.body;
                            ops = &body.ops;
                            pc = saved.pc;
                            self.slot_base = saved.slot_base;
                            self.scope_floor = saved.scope_floor;
                            self.stack.push(ret);
                        }
                        None => return Ok(ret),
                    }
                }
            }
        }
    }

    /// Open `func`'s frame: its slots, unset, and its frame scope. Past
    /// `MAX_DEPTH` calls this faults `StackOverflow` at `func`'s definition.
    fn enter_frame(&mut self, func: &BFunc) -> VmResult<()> {
        if self.depth >= MAX_DEPTH {
            return Err(self.fault(FaultKind::StackOverflow, func.line));
        }
        self.depth += 1;
        self.slot_base = self.slots.len();
        self.slots.resize(self.slot_base + func.slots as usize, usize::MAX);
        self.scope_floor = self.scope_bases.len();
        self.enter_scope();
        Ok(())
    }

    /// Release everything after an error, in the order the tree-walker's
    /// stack unwinding would: innermost scope first.
    fn unwind_all(&mut self) {
        while let Some(base) = self.scope_bases.pop() {
            for i in base..self.scope_objs.len() {
                let id = self.scope_objs[i];
                self.kill(id);
            }
            self.scope_objs.truncate(base);
        }
        self.slots.clear();
        self.frames.clear();
        self.stack.clear();
        self.lvs.clear();
        self.slot_base = 0;
        self.scope_floor = 0;
        self.depth = 0;
    }

    fn enter_scope(&mut self) {
        self.scope_bases.push(self.scope_objs.len());
    }

    fn exit_scope(&mut self) {
        let base = self.scope_bases.pop().expect("scope to exit");
        // Release in push order, mirroring `release_scope`.
        for i in base..self.scope_objs.len() {
            let id = self.scope_objs[i];
            self.kill(id);
        }
        self.scope_objs.truncate(base);
    }

    fn kill(&mut self, id: usize) {
        if let Some(o) = self.objects.get_mut(id) {
            o.live = false;
            // Drop values now; keep the buffer for reuse — and reclaim
            // uniquely-owned struct buffers into the pool while at it.
            for v in o.data.drain(..) {
                if let Value::Struct(rc) = v {
                    if self.struct_pool.len() < STRUCT_POOL_CAP {
                        if let Ok(mut inner) = Rc::try_unwrap(rc) {
                            inner.clear();
                            self.struct_pool.push(inner);
                        }
                    }
                }
            }
            self.free.push(id);
        }
    }

    /// Recycle a struct rvalue's buffer once its last owner lets go —
    /// `dil_val`-style field extraction is where most stub structs die.
    #[inline]
    fn reclaim_struct(&mut self, fields: Rc<Vec<Value>>) {
        if self.struct_pool.len() < STRUCT_POOL_CAP {
            if let Ok(mut inner) = Rc::try_unwrap(fields) {
                inner.clear();
                self.struct_pool.push(inner);
            }
        }
    }

    fn alloc(&mut self) -> usize {
        if let Some(id) = self.free.pop() {
            self.objects[id].live = true;
            id
        } else {
            self.objects.push(Obj { live: true, data: Vec::new() });
            self.objects.len() - 1
        }
    }

    /// Bind `v`, store-coerced, to a fresh object that frame slot `slot`
    /// names and the innermost scope owns — a parameter or a scalar
    /// declaration, in the tree-walker's allocation order.
    fn bind(&mut self, slot: usize, coerce: Coerce, v: Value) {
        let id = self.alloc();
        self.objects[id].data.push(apply_coerce(coerce, v));
        self.own(slot, id);
    }

    /// Hand the freshly allocated object `id` to the innermost scope and
    /// name it by frame slot `slot`.
    fn own(&mut self, slot: usize, id: usize) {
        self.scope_objs.push(id);
        self.slots[self.slot_base + slot] = id;
    }

    /// Bind the top `argc` operand values, first argument deepest, to the
    /// parameter slots from `first_slot` on, allocating in parameter order
    /// (the ObjId sequence the oracle's calls produce), and pop them.
    /// Arguments past `coerces` are dropped unbound, like the
    /// tree-walker's.
    fn bind_args(&mut self, first_slot: usize, argc: usize, coerces: &[Coerce]) {
        let base = self.stack.len() - argc;
        for (i, coerce) in coerces.iter().enumerate().take(argc) {
            let arg = std::mem::replace(&mut self.stack[base + i], Value::Int(0));
            self.bind(first_slot + i, *coerce, arg);
        }
        self.stack.truncate(base);
    }

    // ----- helpers (mirrors of the interpreter's) -------------------------

    fn loc(&self, packed: u32) -> (String, u32) {
        let (file, line) = self.program.loc(packed);
        (file.to_string(), line)
    }

    fn fault(&self, kind: FaultKind, packed: u32) -> Box<RunError> {
        let (file, line) = self.loc(packed);
        Box::new(RunError::Fault { kind, file, line })
    }

    #[inline]
    fn burn(&mut self, packed: u32) -> VmResult<()> {
        // One-entry memo: polling loops burn the same source line many
        // times per iteration (condition, operand and constant all sit on
        // one line), and re-setting an already-set coverage bit is the
        // single most repeated piece of work in the dispatch loop.
        if packed != self.last_cov {
            self.coverage.insert(packed);
            self.last_cov = packed;
        }
        if self.fuel == 0 {
            return Err(Box::new(RunError::OutOfFuel));
        }
        self.fuel -= 1;
        self.deadline_ticks -= 1;
        if self.deadline_ticks == 0 {
            return self.deadline_probe();
        }
        Ok(())
    }

    /// Amortised wall-clock probe: called once per
    /// [`DEADLINE_CHECK_INTERVAL`] burns, reloads the countdown.
    #[cold]
    fn deadline_probe(&mut self) -> VmResult<()> {
        match self.deadline {
            Some(d) if d.expired() => Err(Box::new(RunError::DeadlineExpired)),
            Some(_) => {
                self.deadline_ticks = DEADLINE_CHECK_INTERVAL;
                Ok(())
            }
            None => {
                self.deadline_ticks = u32::MAX;
                Ok(())
            }
        }
    }

    /// Direct wall-clock check at dispatch boundaries that consume
    /// unbounded fuel in one step (block I/O, delays).
    fn deadline_dispatch_check(&self) -> VmResult<()> {
        match self.deadline {
            Some(d) if d.expired() => Err(Box::new(RunError::DeadlineExpired)),
            _ => Ok(()),
        }
    }

    fn obj(&self, place: Place, packed: u32) -> VmResult<&Vec<Value>> {
        if place.obj.0 == WILD_OBJ || place.obj.0 == ABSORB_OBJ {
            return Err(self.fault(FaultKind::WildDeref, packed));
        }
        match self.objects.get(place.obj.0) {
            Some(o) if o.live => Ok(&o.data),
            Some(_) => Err(self.fault(FaultKind::UseAfterScope, packed)),
            None => Err(self.fault(FaultKind::WildDeref, packed)),
        }
    }

    fn read_place(&self, lv: &Lval, packed: u32) -> VmResult<Value> {
        if lv.place.obj.0 == ABSORB_OBJ {
            return Ok(Value::Int(0));
        }
        let data = self.obj(lv.place, packed)?;
        if lv.place.idx >= data.len() {
            return if lv.place.idx < data.len() + OOB_SLACK {
                Ok(Value::Int(0)) // nearby memory: silent garbage
            } else {
                Err(self.fault(FaultKind::OutOfBounds, packed))
            };
        }
        let mut v = data
            .get(lv.place.idx)
            .ok_or_else(|| self.fault(FaultKind::OutOfBounds, packed))?;
        for f in lv.fields() {
            let Value::Struct(fields) = v else {
                return Err(self.fault(FaultKind::BadValue, packed));
            };
            v = fields
                .get(*f as usize)
                .ok_or_else(|| self.fault(FaultKind::BadValue, packed))?;
        }
        Ok(v.clone())
    }

    fn write_place(&mut self, lv: &Lval, value: Value, packed: u32) -> VmResult<()> {
        if lv.place.obj.0 == ABSORB_OBJ {
            return Ok(()); // nearby memory: silent corruption
        }
        if lv.place.obj.0 == WILD_OBJ {
            return Err(self.fault(FaultKind::WildDeref, packed));
        }
        // One object lookup for the whole store. Unlike the tree-walker,
        // fault values build lazily: a fault carries an allocated file
        // name, and the success path of a store must stay allocation-free
        // (which is also why the faults below are bare kinds until the
        // very end).
        let kind = match self.objects.get_mut(lv.place.obj.0) {
            Some(o) => {
                // Nearby overruns corrupt silently; far ones crash.
                if o.live && lv.place.idx >= o.data.len() {
                    if lv.place.idx < o.data.len() + OOB_SLACK {
                        return Ok(());
                    }
                    FaultKind::OutOfBounds
                } else {
                    match Self::write_slot(o, lv, value) {
                        Ok(()) => return Ok(()),
                        Err(kind) => kind,
                    }
                }
            }
            None => FaultKind::WildDeref,
        };
        Err(self.fault(kind, packed))
    }

    /// The mutation half of [`Vm::write_place`], with faults as bare kinds
    /// so the caller can stamp the location without eager allocation.
    fn write_slot(o: &mut Obj, lv: &Lval, value: Value) -> Result<(), FaultKind> {
        if !o.live {
            return Err(FaultKind::UseAfterScope);
        }
        let mut v = o.data.get_mut(lv.place.idx).ok_or(FaultKind::OutOfBounds)?;
        for f in lv.fields() {
            let Value::Struct(fields) = v else { return Err(FaultKind::BadValue) };
            v = Rc::make_mut(fields)
                .get_mut(*f as usize)
                .ok_or(FaultKind::BadValue)?;
        }
        *v = value;
        Ok(())
    }

    fn apply_binop(&self, op: BinOp, l: Value, r: Value, line: u32) -> VmResult<Value> {
        use BinOp::*;
        // Pointer arithmetic and comparisons.
        match (&l, &r) {
            (Value::Ptr(lp), Value::Ptr(rp)) => {
                let cmp = |b: bool| Ok(Value::Int(i64::from(b)));
                return match op {
                    Eq => cmp(lp == rp),
                    Ne => cmp(lp != rp),
                    Lt | Gt | Le | Ge => {
                        let (a, b) = match (lp, rp) {
                            (Some(a), Some(b)) if a.obj == b.obj => (a.idx, b.idx),
                            _ => (0, 0),
                        };
                        cmp(match op {
                            Lt => a < b,
                            Gt => a > b,
                            Le => a <= b,
                            _ => a >= b,
                        })
                    }
                    Sub => {
                        let (a, b) = match (lp, rp) {
                            (Some(a), Some(b)) if a.obj == b.obj => {
                                (a.idx as i64, b.idx as i64)
                            }
                            _ => (0, 0),
                        };
                        Ok(Value::Int(a - b))
                    }
                    _ => Err(self.fault(FaultKind::BadValue, line)),
                };
            }
            (Value::Ptr(p), Value::Int(n)) if matches!(op, Add | Sub) => {
                let Some(p) = p else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let idx = if op == Add {
                    p.idx as i64 + *n
                } else {
                    p.idx as i64 - *n
                };
                if idx < 0 {
                    return if idx > -(OOB_SLACK as i64) {
                        Ok(Value::Ptr(Some(Place { obj: ObjId(ABSORB_OBJ), idx: 0 })))
                    } else {
                        Err(self.fault(FaultKind::OutOfBounds, line))
                    };
                }
                return Ok(Value::Ptr(Some(Place { obj: p.obj, idx: idx as usize })));
            }
            (Value::Int(n), Value::Ptr(Some(p))) if op == Add => {
                return Ok(Value::Ptr(Some(Place { obj: p.obj, idx: p.idx + *n as usize })));
            }
            _ => {}
        }
        let (Some(a), Some(b)) = (l.as_int(), r.as_int()) else {
            return Err(self.fault(FaultKind::BadValue, line));
        };
        let v = match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    return Err(self.fault(FaultKind::DivByZero, line));
                }
                a.wrapping_div(b)
            }
            Rem => {
                if b == 0 {
                    return Err(self.fault(FaultKind::DivByZero, line));
                }
                a.wrapping_rem(b)
            }
            // x86 semantics: the shift count is masked, never trapping.
            Shl => a.wrapping_shl((b as u32) & 63),
            Shr => {
                if a >= 0 {
                    a.wrapping_shr((b as u32) & 63)
                } else {
                    ((a as u32) >> ((b as u32) & 31)) as i64
                }
            }
            BitAnd => a & b,
            BitOr => a | b,
            BitXor => a ^ b,
            Eq => i64::from(a == b),
            Ne => i64::from(a != b),
            Lt => i64::from(a < b),
            Gt => i64::from(a > b),
            Le => i64::from(a <= b),
            Ge => i64::from(a >= b),
            LogAnd | LogOr => unreachable!("short-circuited by lowering"),
        };
        Ok(Value::Int(v))
    }

    // ----- dispatch -------------------------------------------------------

    /// Execute one op of `body`. Control-transfer ops report back to the
    /// frame loop. Inlined into both drivers (`run_call`'s hot loop and
    /// the cold global-initialiser loop) so the per-op call overhead
    /// vanishes.
    #[inline(always)]
    fn dispatch(&mut self, op: &Op, body: &'a Body) -> VmResult<Flow> {
        match op {
            Op::Line(l) => self.burn(*l)?,
            Op::Const { cidx, line } => {
                self.burn(*line)?;
                self.stack.push(body.consts[*cidx as usize].clone());
            }
            Op::ConstN { cidx, seq } => {
                for l in body.burn_seqs[*seq as usize].iter() {
                    self.burn(*l)?;
                }
                self.stack.push(body.consts[*cidx as usize].clone());
            }
            Op::PushConst { cidx } => {
                self.stack.push(body.consts[*cidx as usize].clone());
            }
            Op::LoadVar { var, line } => {
                self.burn(*line)?;
                let v = self.var_value(*var, *line)?;
                self.stack.push(v);
            }
            Op::PlaceVar { var, line } => {
                let lv = self.var_place(*var, *line)?;
                self.lvs.push(lv);
            }

            Op::IndexPlace { line, idx_line } => {
                let index = self.stack.pop().expect("index value");
                let base = self.stack.pop().expect("base value");
                let i = index
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, *idx_line))?;
                let place = self.index_place(base, i, *line)?;
                self.lvs.push(Lval::at(place));
            }
            Op::PtrPlace { line } => {
                let v = self.stack.pop().expect("pointer operand");
                match v {
                    Value::Ptr(Some(p)) => self.lvs.push(Lval::at(p)),
                    Value::Ptr(None) => {
                        return Err(self.fault(FaultKind::NullDeref, *line))
                    }
                    _ => return Err(self.fault(FaultKind::BadValue, *line)),
                }
            }
            Op::MemberStep { fidx, line } => {
                let lv = self.lvs.last().expect("member base place");
                let v = self.read_place(lv, *line)?;
                let Value::Struct(_) = v else {
                    return Err(self.fault(FaultKind::BadValue, *line));
                };
                if *fidx == NO_FIELD {
                    return Err(self.fault(FaultKind::BadValue, *line));
                }
                self.lvs
                    .last_mut()
                    .expect("member base place")
                    .push_field(*fidx);
            }
            Op::ReadPlace { line } => {
                let lv = self.lvs.pop().expect("place to read");
                let v = self.read_place(&lv, *line)?;
                self.stack.push(v);
            }
            Op::MemberValue { fidx, line } => {
                let v = self.stack.pop().expect("struct rvalue");
                let v = self.pick_field(v, *fidx, *line)?;
                self.stack.push(v);
            }
            Op::AddrOf => {
                let lv = self.lvs.pop().expect("addressed place");
                let v = if lv.is_bare() {
                    Value::Ptr(Some(lv.place))
                } else {
                    // Pointers into struct interiors are wild if formed.
                    Value::Ptr(Some(Place { obj: ObjId(WILD_OBJ), idx: 0 }))
                };
                self.stack.push(v);
            }
            Op::Store { line } => {
                let lv = self.lvs.pop().expect("store target");
                let rv = self.stack.pop().expect("store value");
                self.write_place(&lv, rv.clone(), *line)?;
                self.stack.push(rv);
            }
            Op::StoreBin { op, line } => {
                let lv = self.lvs.pop().expect("store target");
                let rv = self.stack.pop().expect("store value");
                let new = self.store_op(&lv, *op, rv, *line)?;
                self.stack.push(new);
            }
            Op::StoreVarPop { var, line } => {
                let rv = self.stack.pop().expect("store value");
                self.store_var(*var, rv, *line)?;
            }
            Op::StoreOpVarPop { var, op, line } => {
                let lv = self.var_place(*var, *line)?;
                let rv = self.stack.pop().expect("store value");
                self.store_op(&lv, *op, rv, *line)?;
            }
            Op::IncDecVarPop { var, inc, line } => {
                let lv = self.var_place(*var, *line)?;
                self.inc_dec(&lv, *inc, false, *line)?;
            }
            Op::IncDec { inc, prefix, line } => {
                let lv = self.lvs.pop().expect("incdec target");
                let v = self.inc_dec(&lv, *inc, *prefix, *line)?;
                self.stack.push(v);
            }
            Op::Neg { line } => {
                let v = self.stack.pop().expect("negate operand");
                let i = v
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, *line))?;
                self.stack.push(Value::Int(i.wrapping_neg()));
            }
            Op::LogicalNot => {
                let v = self.stack.pop().expect("not operand");
                self.stack.push(Value::Int(i64::from(!v.truthy())));
            }
            Op::BitNot { line } => {
                let v = self.stack.pop().expect("bitnot operand");
                let i = v
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, *line))?;
                self.stack.push(Value::Int(!i));
            }
            Op::Bin { op, line } => {
                let r = self.stack.pop().expect("rhs");
                let l = self.stack.pop().expect("lhs");
                let v = self.apply_binop(*op, l, r, *line)?;
                self.stack.push(v);
            }
            Op::BinConst { op, cidx, rhs_line, line } => {
                self.burn(*rhs_line)?;
                let l = self.stack.pop().expect("lhs");
                let r = body.consts[*cidx as usize].clone();
                let v = self.apply_binop(*op, l, r, *line)?;
                self.stack.push(v);
            }
            Op::CoerceBool => {
                let v = self.stack.pop().expect("bool operand");
                self.stack.push(Value::Int(i64::from(v.truthy())));
            }
            Op::Cast { kind, line } => {
                let v = self.stack.pop().expect("cast operand");
                let out = self.apply_cast(*kind, v, *line)?;
                self.stack.push(out);
            }
            Op::Pop => {
                self.stack.pop().expect("value to discard");
            }
            Op::Jump { target } => return Ok(Flow::Jump(*target)),
            Op::JumpIfFalse { target } => {
                let v = self.stack.pop().expect("condition");
                if !v.truthy() {
                    return Ok(Flow::Jump(*target));
                }
            }
            Op::JumpIfTrue { target } => {
                let v = self.stack.pop().expect("condition");
                if v.truthy() {
                    return Ok(Flow::Jump(*target));
                }
            }
            Op::BrFalseConst { target } => {
                let v = self.stack.pop().expect("lhs of &&");
                if !v.truthy() {
                    self.stack.push(Value::Int(0));
                    return Ok(Flow::Jump(*target));
                }
            }
            Op::BrTrueConst { target } => {
                let v = self.stack.pop().expect("lhs of ||");
                if v.truthy() {
                    self.stack.push(Value::Int(1));
                    return Ok(Flow::Jump(*target));
                }
            }
            Op::Switch { table } => {
                let t = &body.switches[*table as usize];
                let v = self.stack.pop().expect("switch scrutinee");
                let v = v
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, t.line))?;
                let target = t
                    .cases
                    .iter()
                    .find(|(c, _)| *c == v)
                    .map(|(_, t)| *t)
                    .or(t.default);
                match target {
                    Some(target) => {
                        if t.enter_scope {
                            self.enter_scope();
                        }
                        return Ok(Flow::Jump(target));
                    }
                    None => return Ok(Flow::Jump(t.end)),
                }
            }
            Op::EnterScope => self.enter_scope(),
            Op::ExitScope => self.exit_scope(),
            Op::DeclZero { slot, template } => {
                let id = self.alloc();
                let mut data = std::mem::take(&mut self.objects[id].data);
                let template = &body.templates[*template as usize];
                match &template[..] {
                    // Struct locals copy into a pooled, *unshared* buffer
                    // up front, so later field stores never pay a
                    // `Rc::make_mut` deep copy against the interned
                    // template. Value-identical to the plain clone.
                    [Value::Struct(fields)] => {
                        let mut buf = self.struct_pool.pop().unwrap_or_default();
                        buf.clear();
                        buf.extend_from_slice(fields);
                        data.push(Value::Struct(Rc::new(buf)));
                    }
                    _ => data.extend_from_slice(template),
                }
                self.objects[id].data = data;
                self.own(*slot as usize, id);
            }
            Op::DeclScalar { slot, coerce } => {
                let v = self.stack.pop().expect("initialiser value");
                self.bind(*slot as usize, *coerce, v);
            }
            Op::DeclArray { slot, template, items, coerce } => {
                let id = self.alloc();
                let mut data = std::mem::take(&mut self.objects[id].data);
                data.extend_from_slice(&body.templates[*template as usize]);
                let base = self.stack.len() - *items as usize;
                for (i, v) in self.stack.drain(base..).enumerate() {
                    if i < data.len() {
                        data[i] = apply_coerce(*coerce, v);
                    }
                }
                self.objects[id].data = data;
                self.own(*slot as usize, id);
            }
            Op::DeclStruct { slot, template, items, coerces } => {
                let mut vals: Vec<Value> = body.templates[*template as usize].to_vec();
                let coerces = &body.field_coerces[*coerces as usize];
                let base = self.stack.len() - *items as usize;
                for (i, v) in self.stack.drain(base..).enumerate() {
                    if i < vals.len() {
                        vals[i] = apply_coerce(coerces[i], v);
                    }
                }
                self.bind(*slot as usize, Coerce::None, Value::Struct(Rc::new(vals)));
            }
            Op::StoreFieldLocalPop { slot, fidx, line } => {
                let rv = self.stack.pop().expect("store value");
                self.store_field_local(*slot, *fidx, *line, rv)?;
            }
            Op::IncDecJmp { var, inc, line, target } => {
                self.burn(*line)?;
                let lv = self.var_place(*var, *line)?;
                self.inc_dec(&lv, *inc, false, *line)?;
                return Ok(Flow::Jump(*target));
            }
            Op::FusedBr { idx } => {
                if let Some(target) = self.exec_fused(&body.fused[*idx as usize], body)? {
                    return Ok(Flow::Jump(target));
                }
            }
            Op::InlineEnter { first_slot, argc, coerces, call_line, line } => {
                // A folded call-expression `Line` burns before anything,
                // exactly where the standalone op did.
                if *call_line != u32::MAX {
                    self.burn(*call_line)?;
                }
                // The depth check of a real call, at the same fault site.
                if self.depth >= MAX_DEPTH {
                    return Err(self.fault(FaultKind::StackOverflow, *line));
                }
                self.depth += 1;
                self.enter_scope();
                // Bind arguments exactly like the out-of-line machinery.
                let coerces = &body.field_coerces[*coerces as usize];
                self.bind_args(*first_slot as usize, *argc as usize, coerces);
            }
            Op::InlineExit => self.inline_exit(),
            Op::InlineExitPop => {
                self.inline_exit();
                self.stack.pop().expect("discarded return value");
            }
            Op::InlineExitJmp { target } => {
                self.inline_exit();
                return Ok(Flow::Jump(*target));
            }
            Op::InlineExitDecl { slot, coerce } => {
                self.inline_exit();
                let v = self.stack.pop().expect("initialiser value");
                self.bind(*slot as usize, *coerce, v);
            }
            Op::InlineExitStore { slot, line } => {
                self.inline_exit();
                let rv = self.stack.pop().expect("store value");
                self.store_var(Var::Local(*slot), rv, *line)?;
            }
            Op::CallUser { fidx, .. } => return Ok(Flow::Call { fidx: *fidx }),
            Op::CallBuiltin { which, argc, line } => {
                // Port I/O is the single hottest builtin shape (polling
                // loops issue one `inb` per iteration); read the fixed
                // arguments straight off the stack instead of staging
                // them through the scratch buffer.
                match which {
                    Builtin::Inb | Builtin::Inw | Builtin::Inl if *argc == 1 => {
                        let port = self.stack.pop().and_then(|v| v.as_int()).unwrap_or(0);
                        let v = self.port_in(*which, port);
                        self.stack.push(v);
                    }
                    Builtin::Outb | Builtin::Outw | Builtin::Outl if *argc == 2 => {
                        let port = self.stack.pop().and_then(|v| v.as_int()).unwrap_or(0);
                        let value = self.stack.pop().and_then(|v| v.as_int()).unwrap_or(0);
                        self.port_out(*which, port, value);
                        self.stack.push(Value::Int(0));
                    }
                    _ => self.call_builtin(*which, *argc as usize, *line)?,
                }
            }
            Op::Ret => return Ok(Flow::Ret),
            Op::Trap { kind, line } => return Err(self.fault(*kind, *line)),
        }
        Ok(Flow::Next)
    }

    /// The object `var` names: the one lookup of a variable, local or
    /// global. An unset one faults `BadValue` at `line`.
    #[inline]
    fn var_object(&self, var: Var, line: u32) -> VmResult<usize> {
        let id = match var {
            Var::Local(slot) => self.slots[self.slot_base + slot as usize],
            Var::Global(gidx) => self.globals[gidx as usize].unwrap_or(usize::MAX),
        };
        if id == usize::MAX {
            return Err(self.fault(FaultKind::BadValue, line));
        }
        Ok(id)
    }

    /// The place `var` names (`Op::PlaceVar`).
    #[inline]
    fn var_place(&self, var: Var, line: u32) -> VmResult<Lval> {
        let id = self.var_object(var, line)?;
        Ok(Lval::at(Place { obj: ObjId(id), idx: 0 }))
    }

    /// The rvalue of `var` (`Op::LoadVar` after its burn): an array
    /// decays to a pointer to its first element.
    #[inline]
    fn var_value(&self, var: Var, line: u32) -> VmResult<Value> {
        let place = Place { obj: ObjId(self.var_object(var, line)?), idx: 0 };
        let data = self.obj(place, line)?;
        Ok(if data.len() > 1 { Value::Ptr(Some(place)) } else { data[0].clone() })
    }

    /// Write `rv` to `var` (`Op::StoreVarPop`).
    #[inline]
    fn store_var(&mut self, var: Var, rv: Value, line: u32) -> VmResult<()> {
        let lv = self.var_place(var, line)?;
        self.write_place(&lv, rv, line)
    }

    /// Compound assignment through a place (`Op::StoreBin`): apply `op` to
    /// the value there and `rv`, write the result back and return it.
    fn store_op(&mut self, lv: &Lval, op: BinOp, rv: Value, line: u32) -> VmResult<Value> {
        let old = self.read_place(lv, line)?;
        let new = self.apply_binop(op, old, rv, line)?;
        self.write_place(lv, new.clone(), line)?;
        Ok(new)
    }

    /// Execute one superinstruction of `body` (see [`FusedOp`] for the
    /// exact replayed sequence). Returns the branch target when taken.
    /// Kept `inline(always)` for the same reason as `dispatch`: polling
    /// loops are almost nothing but this.
    #[inline(always)]
    fn exec_fused(&mut self, f: &FusedOp, body: &Body) -> VmResult<Option<u32>> {
        for l in f.pre.iter() {
            self.burn(*l)?;
        }
        let mut v = match &f.src {
            FuseSrc::Var { var, line } => {
                self.burn(*line)?;
                self.var_value(*var, *line)?
            }
            FuseSrc::IncDec { var, inc, prefix, place_line, line } => {
                let lv = self.var_place(*var, *place_line)?;
                self.inc_dec(&lv, *inc, *prefix, *line)?
            }
            FuseSrc::PortIn { which, cidx, port_line } => {
                self.burn(*port_line)?;
                let port = body.consts[*cidx as usize].as_int().unwrap_or(0);
                self.port_in(*which, port)
            }
            FuseSrc::FieldLocal { slot, fidx, place_line, line } => {
                self.field_local_value(*slot, *fidx, *place_line, *line)?
            }
            FuseSrc::ConstVal { cidx, line } => {
                self.burn(*line)?;
                body.consts[*cidx as usize].clone()
            }
            FuseSrc::ConstSeq { cidx, seq } => {
                for l in body.burn_seqs[*seq as usize].iter() {
                    self.burn(*l)?;
                }
                body.consts[*cidx as usize].clone()
            }
            FuseSrc::StackTop => self.stack.pop().expect("fused operand"),
        };
        if let Some((fidx, line)) = f.field {
            v = self.pick_field(v, fidx, line)?;
        }
        for stage in f.stage1.iter().chain(f.stage2.iter()) {
            let r = match &stage.rhs {
                FuseRhs::Const { cidx, line } => {
                    self.burn(*line)?;
                    body.consts[*cidx as usize].clone()
                }
                FuseRhs::Var { var, line } => {
                    self.burn(*line)?;
                    self.var_value(*var, *line)?
                }
                FuseRhs::FieldLocal { slot, fidx, place_line, line } => {
                    self.burn(*line)?;
                    self.field_local_value(*slot, *fidx, *place_line, *line)?
                }
            };
            v = self.apply_binop(stage.op, v, r, stage.line)?;
        }
        if let Some((kind, line)) = &f.cast {
            v = self.apply_cast(*kind, v, *line)?;
        }
        if f.coerce_bool {
            v = Value::Int(i64::from(v.truthy()));
        }
        match f.end {
            FuseEnd::Push => self.stack.push(v),
            FuseEnd::IfFalse => {
                if !v.truthy() {
                    return Ok(Some(f.target));
                }
            }
            FuseEnd::IfTrue => {
                if v.truthy() {
                    return Ok(Some(f.target));
                }
            }
            FuseEnd::FalseConst => {
                if !v.truthy() {
                    self.stack.push(Value::Int(0));
                    return Ok(Some(f.target));
                }
            }
            FuseEnd::TrueConst => {
                if v.truthy() {
                    self.stack.push(Value::Int(1));
                    return Ok(Some(f.target));
                }
            }
            FuseEnd::StoreVar { var, line } => self.store_var(var, v, line)?,
            FuseEnd::StoreField { slot, fidx, line } => {
                self.store_field_local(slot, fidx, line, v)?;
            }
            FuseEnd::DeclScalar { slot, coerce } => self.bind(slot as usize, coerce, v),
            FuseEnd::Jump => {
                self.stack.push(v);
                return Ok(Some(f.target));
            }
            FuseEnd::In { which } => {
                let v = self.port_in(which, v.as_int().unwrap_or(0));
                self.stack.push(v);
            }
            FuseEnd::OutDyn { which, pop } => {
                let value = self.stack.pop().and_then(|v| v.as_int()).unwrap_or(0);
                self.port_out(which, v.as_int().unwrap_or(0), value);
                if !pop {
                    self.stack.push(Value::Int(0));
                }
            }
            FuseEnd::StoreIndexLocal { slot, line } => {
                // The `LoadVar` index burn, then `IndexPlace` + `Store`
                // semantics with the computed value as the base.
                self.burn(line)?;
                let index = self.var_value(Var::Local(slot), line)?;
                let i = index
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, line))?;
                let place = self.index_place(v, i, line)?;
                let rv = self.stack.pop().expect("indexed store value");
                self.write_place(&Lval::at(place), rv, line)?;
            }
            FuseEnd::PortOut { which, cidx, line, pop } => {
                self.burn(line)?;
                let port = body.consts[cidx as usize].as_int().unwrap_or(0);
                self.port_out(which, port, v.as_int().unwrap_or(0));
                if !pop {
                    self.stack.push(Value::Int(0));
                }
            }
        }
        Ok(None)
    }

    /// Field `fidx` of the struct rvalue `v` (`Op::MemberValue`),
    /// recycling the struct's buffer when `v` held its last reference.
    #[inline]
    fn pick_field(&mut self, v: Value, fidx: u16, line: u32) -> VmResult<Value> {
        let Value::Struct(fields) = v else {
            return Err(self.fault(FaultKind::BadValue, line));
        };
        if fidx == NO_FIELD {
            return Err(self.fault(FaultKind::BadValue, line));
        }
        let picked = fields
            .get(fidx as usize)
            .cloned()
            .ok_or_else(|| self.fault(FaultKind::BadValue, line))?;
        self.reclaim_struct(fields);
        Ok(picked)
    }

    /// The place `i` elements past the pointer `base` (`Op::IndexPlace`,
    /// pointer arithmetic): an element just before the object lands in
    /// absorbing memory, one farther out than `OOB_SLACK` faults.
    fn index_place(&self, base: Value, i: i64, line: u32) -> VmResult<Place> {
        let p = match base {
            Value::Ptr(Some(p)) => p,
            Value::Ptr(None) => return Err(self.fault(FaultKind::NullDeref, line)),
            _ => return Err(self.fault(FaultKind::BadValue, line)),
        };
        let idx = p.idx as i64 + i;
        if idx >= 0 {
            Ok(Place { obj: p.obj, idx: idx as usize })
        } else if idx > -(OOB_SLACK as i64) {
            Ok(Place { obj: ObjId(ABSORB_OBJ), idx: 0 })
        } else {
            Err(self.fault(FaultKind::OutOfBounds, line))
        }
    }

    /// Read a port with the width of `which` (`inb`/`inw`/`inl`).
    #[inline]
    fn port_in(&mut self, which: Builtin, port: i64) -> Value {
        let (size, mask) = port_width(which);
        Value::Int(self.host.io_read(port as u16, size) & mask)
    }

    /// Write `value` to a port with the width of `which`
    /// (`outb`/`outw`/`outl`).
    #[inline]
    fn port_out(&mut self, which: Builtin, port: i64, value: i64) {
        let (size, mask) = port_width(which);
        self.host.io_write(port as u16, size, value & mask);
    }

    /// Close an inlined call (`Op::InlineExit`): release its frame scope
    /// and drop the call depth.
    fn inline_exit(&mut self) {
        self.exit_scope();
        self.depth -= 1;
    }

    /// The rvalue of `local.field` — exact replay of the
    /// `PlaceVar; MemberStep; ReadPlace` sequence (fault order
    /// included), without the three dispatches and the intermediate
    /// struct clone walk.
    #[inline]
    fn field_local_value(
        &mut self,
        slot: u16,
        fidx: u16,
        place_line: u32,
        line: u32,
    ) -> VmResult<Value> {
        let lv = self.var_place(Var::Local(slot), place_line)?;
        let base = self.read_place(&lv, line)?;
        self.pick_field(base, fidx, line)
    }

    /// `Op::Cast` semantics over a popped value.
    #[inline]
    fn apply_cast(&self, kind: CastKind, v: Value, line: u32) -> VmResult<Value> {
        Ok(match (kind, v) {
            (CastKind::Int { signed, bits }, Value::Int(i)) => {
                Value::Int(wrap_int(i, bits, signed))
            }
            (CastKind::Int { .. }, Value::Ptr(Some(p))) => {
                Value::Int((p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64)
            }
            (CastKind::Int { .. }, Value::Ptr(None)) => Value::Int(0),
            (CastKind::Int { .. }, Value::Str(_)) => Value::Int(0x5_0000),
            (CastKind::Ptr, Value::Int(0)) => Value::Ptr(None),
            (CastKind::Ptr, Value::Int(i)) => {
                Value::Ptr(Some(Place { obj: ObjId(WILD_OBJ), idx: i as usize }))
            }
            (CastKind::Ptr, v @ (Value::Ptr(_) | Value::Str(_))) => v,
            (CastKind::Void, _) => Value::Int(0),
            (_, v) => {
                let _ = v;
                return Err(self.fault(FaultKind::BadValue, line));
            }
        })
    }

    /// Write `rv` through `local.field` — the `PlaceVar; MemberStep;
    /// Store; Pop` tail in one step, fault order preserved (MemberStep's
    /// struct read first, then the field write).
    fn store_field_local(
        &mut self,
        slot: u16,
        fidx: u16,
        line: u32,
        rv: Value,
    ) -> VmResult<()> {
        let mut lv = self.var_place(Var::Local(slot), line)?;
        let base = self.read_place(&lv, line)?;
        if !matches!(base, Value::Struct(_)) {
            return Err(self.fault(FaultKind::BadValue, line));
        }
        // Release the base's Rc clone *before* the write: a live extra
        // reference would force `Rc::make_mut` to deep-copy the struct on
        // every single field store.
        drop(base);
        if fidx == NO_FIELD {
            return Err(self.fault(FaultKind::BadValue, line));
        }
        lv.push_field(fidx);
        self.write_place(&lv, rv, line)
    }

    /// `++`/`--` through a place (`Op::IncDec`): write the stepped value
    /// back and return the expression's value, the new one for a prefix
    /// form and the old one otherwise. The statement forms discard it and
    /// pass `prefix: false`, which clones nothing.
    fn inc_dec(&mut self, lv: &Lval, inc: bool, prefix: bool, line: u32) -> VmResult<Value> {
        let old = self.read_place(lv, line)?;
        let new = match &old {
            Value::Int(i) => Value::Int(if inc { i + 1 } else { i - 1 }),
            Value::Ptr(Some(p)) => {
                let idx = if inc { p.idx + 1 } else { p.idx.wrapping_sub(1) };
                Value::Ptr(Some(Place { obj: p.obj, idx }))
            }
            _ => return Err(self.fault(FaultKind::BadValue, line)),
        };
        let result = if prefix { new.clone() } else { old };
        self.write_place(lv, new, line)?;
        Ok(result)
    }

    // ----- builtins (verbatim semantics of `try_builtin`) -----------------

    fn call_builtin(
        &mut self,
        which: Builtin,
        argc: usize,
        line: u32,
    ) -> VmResult<()> {
        let mut vals = std::mem::take(&mut self.scratch);
        vals.clear();
        let base = self.stack.len() - argc;
        vals.extend(self.stack.drain(base..));
        let result = self.run_builtin(which, &vals, line);
        self.scratch = vals;
        let v = result?;
        self.stack.push(v);
        Ok(())
    }

    fn run_builtin(
        &mut self,
        which: Builtin,
        vals: &[Value],
        line: u32,
    ) -> VmResult<Value> {
        let int_arg = |i: usize| -> i64 { vals.get(i).and_then(Value::as_int).unwrap_or(0) };
        let v = match which {
            Builtin::Inb | Builtin::Inw | Builtin::Inl => self.port_in(which, int_arg(0)),
            Builtin::Outb | Builtin::Outw | Builtin::Outl => {
                self.port_out(which, int_arg(1), int_arg(0));
                Value::Int(0)
            }
            Builtin::Insw | Builtin::Insb => {
                self.deadline_dispatch_check()?;
                let port = int_arg(0) as u16;
                let count = int_arg(2).max(0) as usize;
                let Some(Value::Ptr(Some(p))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let (size, mask) = port_width(which);
                if self.fuel >= count as u64 && self.block_span_ok(&p, count) {
                    // Block fast path: one bulk host call, then a straight
                    // element copy into the (bounds-checked) destination.
                    // Burn-exact: the per-element loop below would burn one
                    // fuel point per element with no possible fault.
                    let mut buf = std::mem::take(&mut self.io_block);
                    buf.clear();
                    buf.resize(count, 0);
                    self.host.io_read_block(port, size, &mut buf);
                    let data = &mut self.objects[p.obj.0].data;
                    for (slot, w) in data[p.idx..p.idx + count].iter_mut().zip(&buf) {
                        *slot = Value::Int(*w & mask);
                    }
                    self.io_block = buf;
                    self.fuel -= count as u64;
                } else {
                    for i in 0..count {
                        let w = self.host.io_read(port, size) & mask;
                        let lv = Lval::at(Place { obj: p.obj, idx: p.idx + i });
                        self.write_place(&lv, Value::Int(w), line)?;
                        if self.fuel == 0 {
                            return Err(Box::new(RunError::OutOfFuel));
                        }
                        self.fuel -= 1;
                    }
                }
                Value::Int(0)
            }
            Builtin::Outsw | Builtin::Outsb => {
                self.deadline_dispatch_check()?;
                let port = int_arg(0) as u16;
                let count = int_arg(2).max(0) as usize;
                let Some(Value::Ptr(Some(p))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let (size, mask) = port_width(which);
                if self.fuel >= count as u64 && self.block_span_ok(&p, count) {
                    let mut buf = std::mem::take(&mut self.io_block);
                    buf.clear();
                    let data = &self.objects[p.obj.0].data;
                    buf.extend(
                        data[p.idx..p.idx + count]
                            .iter()
                            .map(|v| v.as_int().unwrap_or(0) & mask),
                    );
                    self.host.io_write_block(port, size, &buf);
                    self.io_block = buf;
                    self.fuel -= count as u64;
                } else {
                    for i in 0..count {
                        let lv = Lval::at(Place { obj: p.obj, idx: p.idx + i });
                        let w = self.read_place(&lv, line)?.as_int().unwrap_or(0);
                        self.host.io_write(port, size, w & mask);
                        if self.fuel == 0 {
                            return Err(Box::new(RunError::OutOfFuel));
                        }
                        self.fuel -= 1;
                    }
                }
                Value::Int(0)
            }
            Builtin::Printk => {
                let msg = self.format_message(vals, line)?;
                self.host.console(&msg);
                Value::Int(0)
            }
            Builtin::Panic => {
                let message = self.format_message(vals, line)?;
                let (file, local) = self.loc(line);
                return Err(Box::new(RunError::Panic { message, file, line: local }));
            }
            Builtin::Udelay | Builtin::Mdelay => {
                self.deadline_dispatch_check()?;
                let n = int_arg(0).max(0) as u64;
                let usec = if which == Builtin::Mdelay { n * 1000 } else { n };
                self.host.delay(usec);
                // Delays burn fuel proportionally — a mutant that delays
                // forever is a hang.
                let cost = usec.max(1);
                if self.fuel < cost {
                    self.fuel = 0;
                    return Err(Box::new(RunError::OutOfFuel));
                }
                self.fuel -= cost;
                Value::Int(0)
            }
            Builtin::Strcmp => {
                // Two literal operands (`dil_eq`'s filename check — the
                // hottest strcmp there is) compare without materialising
                // `String`s; anything pointer-shaped takes the exact
                // `cstr_of` path.
                let ord = match (vals.first(), vals.get(1)) {
                    (Some(Value::Str(a)), Some(Value::Str(b))) => a.cmp(b),
                    _ => {
                        let a = self.cstr_of(vals.first(), line)?;
                        let b = self.cstr_of(vals.get(1), line)?;
                        a.cmp(&b)
                    }
                };
                Value::Int(match ord {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Builtin::Memset => {
                let Some(Value::Ptr(Some(p))) = vals.first().cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let fill = int_arg(1);
                // Element-granular, like the tree-walker.
                let count = int_arg(2).max(0) as usize;
                for i in 0..count {
                    let lv = Lval::at(Place { obj: p.obj, idx: p.idx + i });
                    self.write_place(&lv, Value::Int(fill), line)?;
                }
                Value::Ptr(Some(p))
            }
            Builtin::Memcpy => {
                let Some(Value::Ptr(Some(d))) = vals.first().cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let Some(Value::Ptr(Some(s))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let count = int_arg(2).max(0) as usize;
                for i in 0..count {
                    let from = Lval::at(Place { obj: s.obj, idx: s.idx + i });
                    let v = self.read_place(&from, line)?;
                    let to = Lval::at(Place { obj: d.obj, idx: d.idx + i });
                    self.write_place(&to, v, line)?;
                }
                Value::Ptr(Some(d))
            }
        };
        Ok(v)
    }

    /// Whether `count` consecutive elements starting at `p` lie wholly
    /// inside one live plain object — the precondition for the block
    /// builtins' bulk path. Everything else (wild/absorbing pointers,
    /// out-of-bounds slack, dead objects, fuel exhaustion mid-transfer)
    /// takes the per-element loop, which reproduces the tree-walker's
    /// behaviour access by access.
    #[inline]
    fn block_span_ok(&self, p: &Place, count: usize) -> bool {
        match self.objects.get(p.obj.0) {
            Some(o) => {
                o.live && p.idx.checked_add(count).is_some_and(|end| end <= o.data.len())
            }
            None => false,
        }
    }

    fn cstr_of(&self, v: Option<&Value>, line: u32) -> VmResult<String> {
        match v {
            Some(Value::Str(s)) => Ok(s.to_string()),
            Some(Value::Ptr(Some(p))) => {
                let data = self.obj(*p, line)?;
                let mut out = String::new();
                for v in &data[p.idx.min(data.len())..] {
                    match v.as_int() {
                        Some(0) | None => break,
                        Some(c) => out.push((c as u8) as char),
                    }
                }
                Ok(out)
            }
            Some(Value::Ptr(None)) => Err(self.fault(FaultKind::NullDeref, line)),
            _ => Err(self.fault(FaultKind::BadValue, line)),
        }
    }

    /// printf-style formatting for `printk`/`panic`: `%d %u %x %s %c %%`.
    fn format_message(&self, vals: &[Value], line: u32) -> VmResult<String> {
        let fmt = self.cstr_of(vals.first(), line)?;
        let mut out = String::new();
        let mut arg = 1;
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // Skip length modifiers (l, h).
            while matches!(chars.peek(), Some('l') | Some('h')) {
                chars.next();
            }
            match chars.next() {
                Some('%') => out.push('%'),
                Some('d') | Some('i') => {
                    out.push_str(
                        &vals.get(arg).and_then(Value::as_int).unwrap_or(0).to_string(),
                    );
                    arg += 1;
                }
                Some('u') => {
                    let v = vals.get(arg).and_then(Value::as_int).unwrap_or(0);
                    out.push_str(&format!("{}", v as u64 & 0xFFFF_FFFF));
                    arg += 1;
                }
                Some('x') | Some('X') => {
                    let v = vals.get(arg).and_then(Value::as_int).unwrap_or(0);
                    out.push_str(&format!("{:x}", v as u64 & 0xFFFF_FFFF));
                    arg += 1;
                }
                Some('c') => {
                    let v = vals.get(arg).and_then(Value::as_int).unwrap_or(0);
                    out.push((v as u8) as char);
                    arg += 1;
                }
                Some('s') => {
                    let s = self
                        .cstr_of(vals.get(arg), line)
                        .unwrap_or_else(|_| "<bad-str>".into());
                    out.push_str(&s);
                    arg += 1;
                }
                other => {
                    out.push('%');
                    if let Some(o) = other {
                        out.push(o);
                    }
                }
            }
        }
        Ok(out)
    }
}



enum Flow {
    Next,
    Jump(u32),
    Call { fidx: u16 },
    Ret,
}

fn callee_argc(op: &Op) -> usize {
    match op {
        Op::CallUser { argc, .. } => *argc as usize,
        _ => unreachable!("Flow::Call only from CallUser"),
    }
}

/// The access size and value mask of a port builtin's width: the `b`,
/// `w` and `l` of `inb`/`outb`/`insb`/`outsb` and their siblings.
fn port_width(which: Builtin) -> (u8, i64) {
    match which {
        Builtin::Inb | Builtin::Outb | Builtin::Insb | Builtin::Outsb => (1, 0xFF),
        Builtin::Inw | Builtin::Outw | Builtin::Insw | Builtin::Outsw => (2, 0xFFFF),
        _ => (4, 0xFFFF_FFFF),
    }
}

/// The lowered form of `coerce_store`: integer targets truncate, pointers
/// flatten to the synthetic address, strings to the string sentinel,
/// everything else passes through.
fn apply_coerce(c: Coerce, v: Value) -> Value {
    match c {
        Coerce::None => v,
        Coerce::Int { signed, bits } => match v {
            Value::Int(i) => Value::Int(wrap_int(i, bits, signed)),
            Value::Ptr(Some(p)) => Value::Int(wrap_int(
                (p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64,
                bits,
                signed,
            )),
            Value::Ptr(None) => Value::Int(0),
            Value::Str(_) => Value::Int(wrap_int(0x5_0000, bits, signed)),
            v => v,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, NullHost};
    use crate::{compile, Program};

    fn run_vm(src: &str, entry: &str, args: &[Value]) -> Result<Value, RunError> {
        let p = compile("t.c", src).expect("test program must compile");
        let c = p.to_bytecode();
        let mut host = NullHost::default();
        let mut vm = Vm::new(&c, &mut host, 1_000_000);
        vm.call(entry, args)
    }

    fn run_vm_int(src: &str, entry: &str, args: &[Value]) -> i64 {
        run_vm(src, entry, args).unwrap().as_int().unwrap()
    }

    /// Run a program through both engines and assert every observable —
    /// result, fuel, coverage, console — is identical.
    fn differential(src: &str, entry: &str, args: &[Value], fuel: u64) {
        let p: Program = compile("t.c", src).expect("test program must compile");
        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&p, &mut ih, fuel);
        let want = interp.call(entry, args);
        let want_fuel = interp.fuel_left();
        let want_cov = interp.coverage().clone();
        drop(interp);

        let c = p.to_bytecode();
        let mut vh = NullHost::default();
        let mut vm = Vm::new(&c, &mut vh, fuel);
        let got = vm.call(entry, args);
        assert_eq!(got, want, "engines disagree on result for {src}");
        assert_eq!(vm.fuel_left(), want_fuel, "fuel burn diverged for {src}");
        assert_eq!(*vm.coverage(), want_cov, "coverage diverged for {src}");
        drop(vm);
        assert_eq!(vh.log, ih.log, "console diverged for {src}");
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }";
        assert_eq!(run_vm_int(src, "fact", &[6.into()]), 720);
        differential(src, "fact", &[6.into()], 1_000_000);
    }

    #[test]
    fn loops_and_compound_assignment() {
        let src =
            "int sum(int n) { int s = 0; int i; for (i = 1; i <= n; i++) s += i; return s; }";
        assert_eq!(run_vm_int(src, "sum", &[10.into()]), 55);
        differential(src, "sum", &[10.into()], 1_000_000);
    }

    #[test]
    fn arrays_pointers_and_structs() {
        let src = "
            struct P_ { int x; int y; };
            typedef struct P_ P;
            int f(void) {
                int a[4];
                int *p = a;
                int i;
                P q;
                for (i = 0; i < 4; i++) a[i] = i * i;
                q.x = p[3];
                q.y = *(a + 2);
                return q.x + q.y;
            }";
        assert_eq!(run_vm_int(src, "f", &[]), 13);
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn switch_fallthrough_and_break() {
        let src = "
            int f(int x) {
                int r = 0;
                switch (x) {
                    case 1: r += 1;
                    case 2: r += 2; break;
                    case 3: r += 4; break;
                    default: r = 100;
                }
                return r;
            }";
        for x in [1i64, 2, 3, 9] {
            differential(src, "f", &[x.into()], 1_000_000);
        }
        assert_eq!(run_vm_int(src, "f", &[1.into()]), 3);
        assert_eq!(run_vm_int(src, "f", &[9.into()]), 100);
    }

    #[test]
    fn globals_and_initializers() {
        let src = "
            int counter = 5;
            unsigned short table[4] = {1, 2, 3, 4};
            int f(void) { counter += table[2]; return counter; }";
        assert_eq!(run_vm_int(src, "f", &[]), 8);
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn faults_match_the_tree_walker() {
        for (src, expect) in [
            (
                "int f(void) { int *p = (int *)0; return *p; }",
                FaultKind::NullDeref,
            ),
            (
                "int f(void) { int *p = (int *)0xdead; return *p; }",
                FaultKind::WildDeref,
            ),
            ("int f(int d) { return 10 / d; }", FaultKind::DivByZero),
            (
                "int f(void) { int a[4]; return a[999999]; }",
                FaultKind::OutOfBounds,
            ),
            ("int f(int n) { return f(n + 1); }", FaultKind::StackOverflow),
        ] {
            let args: &[Value] = if src.contains("int d") || src.contains("int n") {
                &[Value::Int(0)]
            } else {
                &[]
            };
            let e = run_vm(src, "f", args).unwrap_err();
            assert!(
                matches!(&e, RunError::Fault { kind, .. } if *kind == expect),
                "{src}: {e:?}"
            );
            differential(src, "f", args, 1_000_000);
        }
    }

    #[test]
    fn fuel_exhaustion_is_bit_identical() {
        // Sweep fuel budgets across the interesting boundary so the VM
        // provably stops at the same node the tree-walker does.
        let src = "int f(void) { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }";
        for fuel in 0..200 {
            differential(src, "f", &[], fuel);
        }
    }

    #[test]
    fn panic_message_and_location_match() {
        let src = "int f(void) {\n  panic(\"bad state %d\", 7);\n  return 0;\n}";
        let e = run_vm(src, "f", &[]).unwrap_err();
        match &e {
            RunError::Panic { message, file, line } => {
                assert_eq!(message, "bad state 7");
                assert_eq!(file, "t.c");
                assert_eq!(*line, 2);
            }
            other => panic!("expected panic, got {other:?}"),
        }
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn non_ascii_string_literals_print_unchanged() {
        let src = r#"int f(void) { printk("café %d", 1); return strcmp("é", "e"); }"#;
        differential(src, "f", &[], 1_000_000);
        let p = compile("t.c", src).unwrap();
        let c = p.to_bytecode();
        let mut h = NullHost::default();
        Vm::new(&c, &mut h, 1_000_000).call("f", &[]).unwrap();
        assert_eq!(h.log, ["café 1"]);
    }

    #[test]
    fn printk_and_string_builtins_match() {
        let src = r#"int f(void) {
            printk("ide: %s drive %d status %x", "hda", 1, 0x50);
            return strcmp("abc", "abd");
        }"#;
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn nearby_oob_silent_far_oob_faults() {
        differential(
            "int f(void) { int a[4]; a[9] = 5; return a[9] + 1; }",
            "f",
            &[],
            1_000_000,
        );
    }

    #[test]
    fn pointer_to_int_synthetic_addresses_agree() {
        // The synthetic address leaks object ids; the VM's heap must
        // assign them in exactly the interpreter's order.
        let src = "
            int g1;
            int g2;
            int f(void) {
                int a;
                int b;
                int *p = &b;
                int x = (int)p;
                int *q = &g2;
                return x * 100000 + (int)q;
            }";
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn scope_reuse_preserves_object_id_sequence() {
        // Loop-local declarations release and re-allocate; ids must cycle
        // exactly like the interpreter's free list.
        let src = "
            int f(void) {
                int i;
                int total = 0;
                for (i = 0; i < 100; i++) { int tmp = i; int *p = &tmp; total += (int)p; }
                return total;
            }";
        differential(src, "f", &[], 10_000_000);
    }

    #[test]
    fn dead_object_access_is_use_after_scope() {
        let src = "
            int f(void) {
                int *p = (int *)0;
                if (1) { int x = 3; p = &x; }
                return *p;
            }";
        let e = run_vm(src, "f", &[]).unwrap_err();
        assert!(
            matches!(&e, RunError::Fault { kind: FaultKind::UseAfterScope, .. }),
            "{e:?}"
        );
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn do_while_ternary_comma_incdec() {
        let src = "
            int f(int a) {
                int n = 0;
                do { n++; } while (n < a);
                return a ? (a = a + n, a) : --n;
            }";
        for a in [0i64, 1, 5] {
            differential(src, "f", &[a.into()], 1_000_000);
        }
    }

    #[test]
    fn function_designator_address_matches() {
        let src = "int g(void) { return 1; }\nint f(void) { int x = g; return x; }";
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn port_io_reaches_host_in_linux_argument_order() {
        struct Probe {
            reads: Vec<u16>,
            writes: Vec<(u16, i64)>,
        }
        impl Host for Probe {
            fn io_read(&mut self, port: u16, _s: u8) -> i64 {
                self.reads.push(port);
                0x42
            }
            fn io_write(&mut self, port: u16, _s: u8, v: i64) {
                self.writes.push((port, v));
            }
            fn console(&mut self, _m: &str) {}
        }
        let p = compile("t.c", "int f(void) { outb(0xA5, 0x1F7); return inb(0x1F7); }")
            .unwrap();
        let c = p.to_bytecode();
        let mut host = Probe { reads: vec![], writes: vec![] };
        let mut vm = Vm::new(&c, &mut host, 10_000);
        let r = vm.call("f", &[]).unwrap();
        assert_eq!(r.as_int(), Some(0x42));
        drop(vm);
        assert_eq!(host.writes, vec![(0x1F7, 0xA5)]);
        assert_eq!(host.reads, vec![0x1F7]);
    }

    #[test]
    fn insw_and_delays_burn_fuel_identically() {
        let src = "
            unsigned short buf[8];
            int f(void) { insw(0x1F0, buf, 8); udelay(40); return buf[0]; }";
        for fuel in [0u64, 5, 20, 45, 60, 100, 10_000] {
            differential(src, "f", &[], fuel);
        }
    }

    #[test]
    fn coverage_tracks_executed_lines() {
        let src = "int f(int x) {\n  if (x) {\n    return 1;\n  }\n  return 2;\n}";
        let p = compile("t.c", src).unwrap();
        let c = p.to_bytecode();
        let mut host = NullHost::default();
        let mut vm = Vm::new(&c, &mut host, 10_000);
        vm.call("f", &[0.into()]).unwrap();
        let fid = p.unit.file_id("t.c").unwrap();
        let packed = |l: u32| crate::token::pack_line(fid, l);
        assert!(vm.line_covered(packed(2)), "condition line executed");
        assert!(!vm.line_covered(packed(3)), "then-branch not executed");
        assert!(vm.line_covered(packed(5)), "fall-through return executed");
    }

    #[test]
    fn dil_assert_style_panic_via_macros() {
        let src = "
#define dil_assert(expr) ((expr) ? 0 : panic(\"Devil assertion failed in file %s line %d\", __FILE__, __LINE__))
int f(int x) { dil_assert(x == 1); return x; }";
        differential(src, "f", &[1.into()], 1_000_000);
        differential(src, "f", &[2.into()], 1_000_000);
    }

    #[test]
    fn global_init_fault_remaps_to_declaration_line() {
        let src = "int x = 1 / 0;\nint f(void) { return x; }";
        let e = run_vm(src, "f", &[]).unwrap_err();
        assert!(
            matches!(&e, RunError::Fault { kind: FaultKind::DivByZero, line: 1, .. }),
            "{e:?}"
        );
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn struct_copy_is_by_value() {
        let src = "
            struct P_ { int x; };
            typedef struct P_ P;
            int f(void) { P a; P b; a.x = 1; b = a; b.x = 9; return a.x; }";
        assert_eq!(run_vm_int(src, "f", &[]), 1);
        differential(src, "f", &[], 1_000_000);
    }

    #[test]
    fn deep_member_chains_spill_identically() {
        // A checker-legal member chain deeper than MAX_FIELD_DEPTH must
        // spill to the heap and keep matching the oracle, not panic.
        let mut src = String::from("struct A0_ { int v; };\n");
        for i in 1..=14 {
            src += &format!("struct A{i}_ {{ struct A{}_ f{i}; }};\n", i - 1);
        }
        let chain: String =
            (1..=14).rev().map(|i| format!("f{i}.")).collect::<Vec<_>>().join("");
        src += &format!(
            "int f(void) {{ struct A14_ x; x.{chain}v = 7; return x.{chain}v + 1; }}"
        );
        assert_eq!(run_vm_int(&src, "f", &[]), 8);
        differential(&src, "f", &[], 1_000_000);
    }

    /// A floating bus that counts its reads and opts in to the hang
    /// detector.
    #[derive(Default)]
    struct CountingHost {
        reads: u64,
        log: Vec<String>,
    }

    impl Host for CountingHost {
        fn io_read(&mut self, _port: u16, _size: u8) -> i64 {
            self.reads += 1;
            0xFF
        }
        fn io_write(&mut self, _port: u16, _size: u8, _value: i64) {}
        fn console(&mut self, message: &str) {
            self.log.push(message.to_string());
        }
        fn cycle_state(&self, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&(self.log.len() as u64).to_le_bytes());
            true
        }
    }

    /// Run `f` on both engines over counting hosts, check that every
    /// observable agrees, and return the two read counts (VM, oracle).
    fn reads_on_both(src: &str, fuel: u64) -> (u64, u64) {
        let p = compile("t.c", src).expect("test program must compile");
        let mut ih = CountingHost::default();
        let mut interp = Interpreter::new(&p, &mut ih, fuel);
        let want = interp.call("f", &[]);
        let (want_fuel, want_cov) = (interp.fuel_left(), interp.coverage().clone());
        drop(interp);
        let c = p.to_bytecode();
        let mut vh = CountingHost::default();
        let mut vm = Vm::new(&c, &mut vh, fuel);
        assert_eq!(vm.call("f", &[]), want, "result diverged for {src}");
        assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for {src}");
        assert_eq!(*vm.coverage(), want_cov, "coverage diverged for {src}");
        drop(vm);
        assert_eq!(vh.log, ih.log, "console diverged for {src}");
        (vh.reads, ih.reads)
    }

    #[test]
    fn a_repeated_state_ends_the_call_as_fuel_exhaustion() {
        for src in [
            "int f(void) { while (inb(0x1F7) & 0x80) ; return 0; }",
            "int f(void) { int x = 0; while (inb(0x1F7)) { x = (x + 1) & 7; } return x; }",
            "int g(int v) { int t = v ^ 1; return t; }
             int f(void) { int x = 0; for (;;) { x = g(x) + inb(0x1F7) - 0xFF; } return x; }",
        ] {
            let (vm, oracle) = reads_on_both(src, 1_500_000);
            assert!(vm * 20 < oracle, "no early end for {src}: {vm} reads against {oracle}");
        }
    }

    #[test]
    fn a_moving_state_runs_the_budget_out() {
        // A counter and a growing console never repeat: neither may end
        // early.
        for src in [
            "int f(void) { int i; for (i = 0; inb(0x1F7); i++) ; return i; }",
            "int f(void) { while (inb(0x1F7)) printk(\"still busy\"); return 0; }",
        ] {
            let (vm, oracle) = reads_on_both(src, 200_000);
            assert_eq!(vm, oracle, "{src} ended early");
        }
    }

    #[test]
    fn the_detector_forgets_between_calls() {
        // Every call of `f(3)` passes through the same states, so
        // checkpoints of different calls repeat each other; only a
        // repetition within one call is a hang, so every call completes.
        let src = "int polls = 0;
            int f(int n) { int i; for (i = 0; i < n; i++) polls = polls + inb(0x1F7) - 0xFF; return n; }";
        let p = compile("t.c", src).unwrap();
        let c = p.to_bytecode();
        let mut host = CountingHost::default();
        let mut vm = Vm::new(&c, &mut host, 1_000_000);
        vm.call("f", &[Value::Int(10_000)]).unwrap();
        for _ in 0..200 {
            assert_eq!(vm.call("f", &[Value::Int(3)]), Ok(Value::Int(3)));
        }
    }

    #[test]
    fn typed_stores_wrap_like_c() {
        let src = "
            typedef unsigned char u8;
            typedef signed char s8;
            int f(void) { u8 x = 300; s8 y = (s8)0xFB; return x * 1000 + y; }";
        assert_eq!(run_vm_int(src, "f", &[]), 44_000 - 5);
        differential(src, "f", &[], 1_000_000);
    }
}
