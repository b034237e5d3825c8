//! Fuel-bounded tree-walking interpreter — `minic`'s "run time".
//!
//! Executes a checked [`Program`] against a [`Host`] that supplies the
//! machine environment (port I/O, console, delays). The interpreter is the
//! stand-in for booting the paper's test kernel:
//!
//! * `panic("...")` surfaces as [`RunError::Panic`] (the kernel printing a
//!   message and halting — the *Halt* and *Run-time check* outcomes);
//! * C undefined behaviour — null/wild dereference, out-of-bounds access,
//!   use of a dead object, division by zero, runaway recursion — surfaces
//!   as [`RunError::Fault`] (the kernel silently wedging — *Crash*);
//! * fuel exhaustion surfaces as [`RunError::OutOfFuel`] (the kernel never
//!   finishing the boot — *Infinite loop*);
//! * executed source lines are recorded per file, which the mutation
//!   harness uses to classify *Dead code* mutants.

use crate::ast::*;
use crate::coverage::Coverage;
use crate::types::CType;
use crate::value::{wrap_int, ObjId, Place, Value};
use crate::Program;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// The machine environment a driver program runs against.
pub trait Host {
    /// Port read of `size` bytes (1, 2 or 4). ISA semantics: never fails;
    /// unmapped ports float.
    fn io_read(&mut self, port: u16, size: u8) -> i64;
    /// Port write of `size` bytes.
    fn io_write(&mut self, port: u16, size: u8, value: i64);
    /// `printk` output.
    fn console(&mut self, message: &str);
    /// `udelay`/`mdelay`; the default does nothing.
    fn delay(&mut self, usec: u64) {
        let _ = usec;
    }
    /// Bulk port read: fill `out` with `out.len()` consecutive reads of
    /// `size` bytes — the block-transfer fast path behind `insb`/`insw`.
    /// The default loops [`Host::io_read`]; an override must be
    /// observationally identical to that loop (same values, same device
    /// end state), which is how the bytecode VM's bulk path stays
    /// equivalent to the tree-walking oracle's single accesses.
    fn io_read_block(&mut self, port: u16, size: u8, out: &mut [i64]) {
        for slot in out {
            *slot = self.io_read(port, size);
        }
    }
    /// Bulk port write of `values` — the `outsb`/`outsw` counterpart of
    /// [`Host::io_read_block`], with the same equivalence obligation.
    fn io_write_block(&mut self, port: u16, size: u8, values: &[i64]) {
        for v in values {
            self.io_write(port, size, *v);
        }
    }
    /// Append to `out` every piece of host state that can steer what the
    /// host answers from now on, or the console's future, and return
    /// `true`; return `false` when the host cannot vouch for that now.
    ///
    /// The bytecode VM's hang detector (see [`crate::vm`]) compares these
    /// bytes between two points of one call: equal bytes must mean that
    /// every later `io_read`, `io_write`, `delay` or `console` behaves
    /// the same. What `false` leaves in `out` is ignored. The default
    /// returns `false`, which keeps the detector off for the host.
    fn cycle_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
}

/// A host with no hardware: reads float to all-ones, writes vanish,
/// console output is collected.
#[derive(Debug, Default)]
pub struct NullHost {
    /// Collected `printk` output.
    pub log: Vec<String>,
}

impl Host for NullHost {
    fn io_read(&mut self, _port: u16, size: u8) -> i64 {
        match size {
            1 => 0xFF,
            2 => 0xFFFF,
            _ => 0xFFFF_FFFF,
        }
    }

    fn io_write(&mut self, _port: u16, _size: u8, _value: i64) {}

    fn console(&mut self, message: &str) {
        self.log.push(message.to_string());
    }

    /// The console's length: reads and writes steer nothing.
    fn cycle_state(&self, out: &mut Vec<u8>) -> bool {
        out.extend_from_slice(&(self.log.len() as u64).to_le_bytes());
        true
    }
}

/// The kinds of undefined behaviour the interpreter traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Dereference of the null pointer.
    NullDeref,
    /// Dereference of a wild (integer-cast) pointer.
    WildDeref,
    /// Access past the end of an object.
    OutOfBounds,
    /// Access to an object whose lifetime ended.
    UseAfterScope,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Call-stack depth exceeded.
    StackOverflow,
    /// A value was used in a way its shape does not support (defensive;
    /// normally prevented by the checker).
    BadValue,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::NullDeref => f.write_str("null pointer dereference"),
            FaultKind::WildDeref => f.write_str("wild pointer dereference"),
            FaultKind::OutOfBounds => f.write_str("out-of-bounds access"),
            FaultKind::UseAfterScope => f.write_str("use of object after end of life"),
            FaultKind::DivByZero => f.write_str("division by zero"),
            FaultKind::StackOverflow => f.write_str("stack overflow"),
            FaultKind::BadValue => f.write_str("invalid value shape"),
        }
    }
}

/// Run-time outcomes other than normal completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// `panic(...)` was called: the kernel printed `message` and halted.
    Panic {
        /// Formatted panic message.
        message: String,
        /// File of the call site.
        file: String,
        /// Line of the call site.
        line: u32,
    },
    /// Undefined behaviour: the machine silently crashed.
    Fault {
        /// What kind of UB.
        kind: FaultKind,
        /// File of the faulting expression.
        file: String,
        /// Line of the faulting expression.
        line: u32,
    },
    /// The fuel budget ran out: the program is (as good as) hung.
    OutOfFuel,
    /// The run's wall-clock [`Deadline`](crate::deadline::Deadline)
    /// passed before it finished (only the bytecode VM takes a deadline).
    /// Unlike [`RunError::OutOfFuel`] this is a statement about real time,
    /// not executed work: the harness gave up waiting, it did not observe
    /// a hang.
    DeadlineExpired,
    /// The entry function does not exist (harness error).
    NoSuchFunction(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panic { message, file, line } => {
                write!(f, "kernel panic at {file}:{line}: {message}")
            }
            RunError::Fault { kind, file, line } => {
                write!(f, "machine fault at {file}:{line}: {kind}")
            }
            RunError::OutOfFuel => f.write_str("execution fuel exhausted (hang)"),
            RunError::DeadlineExpired => f.write_str("wall-clock deadline exceeded"),
            RunError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
        }
    }
}

impl std::error::Error for RunError {}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Resolved lvalue: an element place plus a field path into nested structs.
#[derive(Debug, Clone)]
struct Lv {
    place: Place,
    fields: Vec<usize>,
}

pub(crate) const WILD_OBJ: usize = usize::MAX;
/// Sentinel object for "nearby kernel memory": small out-of-bounds
/// accesses on static objects land here — reads return zero, writes are
/// absorbed — because overrunning a static buffer in a 2001 kernel
/// silently corrupted adjacent memory rather than trapping. Accesses far
/// outside any object (wild pointers) still crash.
pub(crate) const ABSORB_OBJ: usize = usize::MAX - 1;
/// How far past an object's end an access still counts as "nearby".
pub(crate) const OOB_SLACK: usize = 16384;
pub(crate) const MAX_DEPTH: u32 = 64;

/// The interpreter. Create one per run; it owns the object heap and the
/// coverage set.
pub struct Interpreter<'a, H: Host> {
    program: &'a Program,
    host: &'a mut H,
    fuel: u64,
    objects: Vec<Option<Vec<Value>>>,
    free: Vec<usize>,
    globals: HashMap<String, ObjId>,
    globals_ready: bool,
    scopes: Vec<Vec<(String, ObjId)>>,
    frame_bases: Vec<usize>,
    coverage: Coverage,
    depth: u32,
}

impl<'a, H: Host> Interpreter<'a, H> {
    /// Create an interpreter with a fuel budget (roughly: AST nodes
    /// evaluated before the run counts as hung).
    pub fn new(program: &'a Program, host: &'a mut H, fuel: u64) -> Self {
        Interpreter {
            program,
            host,
            fuel,
            objects: Vec::new(),
            free: Vec::new(),
            globals: HashMap::new(),
            globals_ready: false,
            scopes: Vec::new(),
            frame_bases: Vec::new(),
            coverage: Coverage::new(),
            depth: 0,
        }
    }

    /// Remaining fuel.
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Mutable access to the host environment — for harnesses that inject
    /// device events (mouse motion, network frames) between driver calls.
    pub fn host_mut(&mut self) -> &mut H {
        self.host
    }

    /// Packed line ids executed so far (see [`crate::token::pack_line`]).
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Move the coverage map out (e.g. into a boot report), leaving an
    /// empty one behind — replaces the `HashSet` clone the boot harness
    /// used to pay per mutant.
    pub fn take_coverage(&mut self) -> Coverage {
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
    /// unknown entry point.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, RunError> {
        self.ensure_globals()?;
        let Some(func) = self.program.unit.function(name) else {
            return Err(RunError::NoSuchFunction(name.to_string()));
        };
        self.invoke(func, args.to_vec())
    }

    /// Snapshot a global object's elements (a scalar yields one element,
    /// an array all of them). Returns `None` for unknown names or when
    /// global initialisation itself faulted.
    pub fn global_values(&mut self, name: &str) -> Option<Vec<Value>> {
        self.ensure_globals().ok()?;
        let id = *self.globals.get(name)?;
        self.objects.get(id.0)?.clone()
    }

    /// Read one element of a global object without snapshotting the whole
    /// object (no allocation); `None` for unknown names, dead objects or
    /// out-of-range indexes.
    pub fn global_value(&mut self, name: &str, idx: usize) -> Option<Value> {
        self.ensure_globals().ok()?;
        let id = *self.globals.get(name)?;
        self.objects.get(id.0)?.as_ref()?.get(idx).cloned()
    }

    /// Overwrite element `idx` of a global object (for harness-injected
    /// data, e.g. filling a driver's I/O buffer before a write test).
    /// Returns `false` when the global or index does not exist.
    pub fn set_global_element(&mut self, name: &str, idx: usize, value: Value) -> bool {
        if self.ensure_globals().is_err() {
            return false;
        }
        let Some(&id) = self.globals.get(name) else { return false };
        let Some(Some(data)) = self.objects.get_mut(id.0) else { return false };
        match data.get_mut(idx) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    // ----- setup ---------------------------------------------------------

    fn ensure_globals(&mut self) -> Result<(), RunError> {
        if self.globals_ready {
            return Ok(());
        }
        self.globals_ready = true;
        for g in self.program.unit.globals() {
            let data = match (&g.ty, &g.init) {
                (CType::Array(elem, n), init) => {
                    let mut v = vec![self.zero_of(elem); *n];
                    if let Some(Init::List(items)) = init {
                        for (i, it) in items.iter().enumerate() {
                            v[i] = self.eval_const(it, g.line)?;
                        }
                    }
                    v
                }
                (ty, Some(Init::Expr(e))) => {
                    let val = self.eval_const(e, g.line)?;
                    vec![self.coerce_store(ty, val)]
                }
                (CType::Struct(id), Some(Init::List(items))) => {
                    let fields = &self.program.structs.get(*id).fields;
                    let mut vals: Vec<Value> =
                        fields.iter().map(|(_, t)| self.zero_of(t)).collect();
                    for (i, it) in items.iter().enumerate() {
                        vals[i] = self.eval_const(it, g.line)?;
                    }
                    vec![Value::Struct(Rc::new(vals))]
                }
                (ty, _) => vec![self.zero_of(ty)],
            };
            let id = self.alloc(data);
            self.globals.insert(g.name.clone(), id);
        }
        Ok(())
    }

    fn eval_const(&mut self, e: &'a Expr, line: u32) -> Result<Value, RunError> {
        // Global initialisers are checker-enforced constant expressions;
        // evaluate them with the normal machinery in an empty frame.
        self.frame_bases.push(self.scopes.len());
        let r = self.eval(e);
        self.frame_bases.pop();
        r.map_err(|mut err| {
            if let RunError::Fault { line: l, .. } = &mut err {
                let (_, local) = crate::token::unpack_line(line);
                *l = local;
            }
            err
        })
    }

    fn zero_of(&self, ty: &CType) -> Value {
        match ty {
            CType::Int { .. } | CType::Void => Value::Int(0),
            CType::Ptr(_) => Value::Ptr(None),
            CType::Array(e, n) => {
                // Arrays nested in structs are not supported by the parser;
                // defensively produce a struct-like shape.
                Value::Struct(Rc::new(vec![self.zero_of(e); *n]))
            }
            CType::Struct(id) => {
                let fields = &self.program.structs.get(*id).fields;
                Value::Struct(Rc::new(fields.iter().map(|(_, t)| self.zero_of(t)).collect()))
            }
        }
    }

    fn alloc(&mut self, data: Vec<Value>) -> ObjId {
        if let Some(i) = self.free.pop() {
            self.objects[i] = Some(data);
            ObjId(i)
        } else {
            self.objects.push(Some(data));
            ObjId(self.objects.len() - 1)
        }
    }

    fn release_scope(&mut self, scope: Vec<(String, ObjId)>) {
        for (_, id) in scope {
            if id.0 < self.objects.len() {
                self.objects[id.0] = None;
                self.free.push(id.0);
            }
        }
    }

    // ----- helpers -------------------------------------------------------

    fn loc(&self, packed: u32) -> (String, u32) {
        let (file, line) = self.program.unit.file_line(packed);
        (file.to_string(), line)
    }

    fn fault(&self, kind: FaultKind, packed: u32) -> RunError {
        let (file, line) = self.loc(packed);
        RunError::Fault { kind, file, line }
    }

    fn burn(&mut self, packed: u32) -> Result<(), RunError> {
        self.coverage.insert(packed);
        if self.fuel == 0 {
            return Err(RunError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn lookup_var(&self, name: &str) -> Option<ObjId> {
        let base = self.frame_bases.last().copied().unwrap_or(0);
        for scope in self.scopes[base..].iter().rev() {
            if let Some((_, id)) = scope.iter().rev().find(|(n, _)| n == name) {
                return Some(*id);
            }
        }
        self.globals.get(name).copied()
    }

    fn obj(&self, place: Place, packed: u32) -> Result<&Vec<Value>, RunError> {
        if place.obj.0 == WILD_OBJ || place.obj.0 == ABSORB_OBJ {
            return Err(self.fault(FaultKind::WildDeref, packed));
        }
        match self.objects.get(place.obj.0) {
            Some(Some(data)) => Ok(data),
            Some(None) => Err(self.fault(FaultKind::UseAfterScope, packed)),
            None => Err(self.fault(FaultKind::WildDeref, packed)),
        }
    }

    fn read_place(&self, lv: &Lv, packed: u32) -> Result<Value, RunError> {
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
        for f in &lv.fields {
            let Value::Struct(fields) = v else {
                return Err(self.fault(FaultKind::BadValue, packed));
            };
            v = fields
                .get(*f)
                .ok_or_else(|| self.fault(FaultKind::BadValue, packed))?;
        }
        Ok(v.clone())
    }

    fn write_place(&mut self, lv: &Lv, value: Value, packed: u32) -> Result<(), RunError> {
        if lv.place.obj.0 == ABSORB_OBJ {
            return Ok(()); // nearby memory: silent corruption
        }
        if lv.place.obj.0 == WILD_OBJ {
            return Err(self.fault(FaultKind::WildDeref, packed));
        }
        // Nearby overruns corrupt silently; far ones crash.
        if let Some(Some(data)) = self.objects.get(lv.place.obj.0) {
            if lv.place.idx >= data.len() {
                return if lv.place.idx < data.len() + OOB_SLACK {
                    Ok(())
                } else {
                    Err(self.fault(FaultKind::OutOfBounds, packed))
                };
            }
        }
        let fault_oob = self.fault(FaultKind::OutOfBounds, packed);
        let fault_bad = self.fault(FaultKind::BadValue, packed);
        let fault_dead = self.fault(FaultKind::UseAfterScope, packed);
        let Some(slot) = self.objects.get_mut(lv.place.obj.0) else {
            return Err(self.fault(FaultKind::WildDeref, packed));
        };
        let Some(data) = slot.as_mut() else { return Err(fault_dead) };
        let mut v = data.get_mut(lv.place.idx).ok_or(fault_oob)?;
        for f in &lv.fields {
            let Value::Struct(fields) = v else { return Err(fault_bad.clone()) };
            v = Rc::make_mut(fields).get_mut(*f).ok_or_else(|| fault_bad.clone())?;
        }
        *v = value;
        Ok(())
    }

    fn coerce_store(&self, ty: &CType, v: Value) -> Value {
        match (ty, v) {
            (CType::Int { signed, bits }, Value::Int(i)) => {
                Value::Int(wrap_int(i, *bits, *signed))
            }
            // Storing a pointer into an integer object: flatten to a
            // synthetic address (the implicit conversion 2001 gcc warned
            // about and did anyway).
            (CType::Int { signed, bits }, Value::Ptr(Some(p))) => Value::Int(wrap_int(
                (p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64,
                *bits,
                *signed,
            )),
            (CType::Int { .. }, Value::Ptr(None)) => Value::Int(0),
            (CType::Int { signed, bits }, Value::Str(_)) => {
                Value::Int(wrap_int(0x5_0000, *bits, *signed))
            }
            (_, v) => v,
        }
    }

    // ----- function invocation --------------------------------------------

    fn invoke(&mut self, func: &'a Function, args: Vec<Value>) -> Result<Value, RunError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.fault(FaultKind::StackOverflow, func.line));
        }
        self.depth += 1;
        self.frame_bases.push(self.scopes.len());
        self.scopes.push(Vec::new());
        for ((name, ty), arg) in func.params.iter().zip(args) {
            let v = self.coerce_store(ty, arg);
            let id = self.alloc(vec![v]);
            self.scopes
                .last_mut()
                .expect("frame scope pushed")
                .push((name.clone(), id));
        }
        let result = self.exec_block_inline(&func.body);
        // Unwind this frame's scopes.
        let base = self.frame_bases.pop().expect("frame base pushed");
        while self.scopes.len() > base {
            let scope = self.scopes.pop().expect("scopes length checked");
            self.release_scope(scope);
        }
        self.depth -= 1;
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)), // fall off the end: indeterminate, C says
        }
    }

    // ----- statements ------------------------------------------------------

    fn exec_block(&mut self, b: &'a Block) -> Result<Flow, RunError> {
        self.scopes.push(Vec::new());
        let r = self.exec_block_inline(b);
        let scope = self.scopes.pop().expect("scope pushed");
        self.release_scope(scope);
        r
    }

    fn exec_block_inline(&mut self, b: &'a Block) -> Result<Flow, RunError> {
        for s in &b.stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'a Stmt) -> Result<Flow, RunError> {
        match s {
            Stmt::Decl { name, ty, init, line } => {
                self.burn(*line)?;
                let data = match (ty, init) {
                    (CType::Array(elem, n), init) => {
                        let mut v = vec![self.zero_of(elem); *n];
                        if let Some(Init::List(items)) = init {
                            for (i, it) in items.iter().enumerate() {
                                let val = self.eval(it)?;
                                if i < v.len() {
                                    v[i] = self.coerce_store(elem, val);
                                }
                            }
                        }
                        v
                    }
                    (CType::Struct(id), Some(Init::List(items))) => {
                        let field_tys: Vec<CType> = self
                            .program
                            .structs
                            .get(*id)
                            .fields
                            .iter()
                            .map(|(_, t)| t.clone())
                            .collect();
                        let mut vals: Vec<Value> =
                            field_tys.iter().map(|t| self.zero_of(t)).collect();
                        for (i, it) in items.iter().enumerate() {
                            let val = self.eval(it)?;
                            if i < vals.len() {
                                vals[i] = self.coerce_store(&field_tys[i], val);
                            }
                        }
                        vec![Value::Struct(Rc::new(vals))]
                    }
                    (ty, Some(Init::Expr(e))) => {
                        let val = self.eval(e)?;
                        vec![self.coerce_store(ty, val)]
                    }
                    (ty, _) => vec![self.zero_of(ty)],
                };
                let id = self.alloc(data);
                self.scopes
                    .last_mut()
                    .expect("inside a scope")
                    .push((name.clone(), id));
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_blk, else_blk } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_blk)
                } else if let Some(eb) = else_blk {
                    self.exec_block(eb)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(Vec::new());
                let r = (|| {
                    if let Some(init) = init {
                        self.exec_stmt(init)?;
                    }
                    loop {
                        if let Some(c) = cond {
                            if !self.eval(c)?.truthy() {
                                break;
                            }
                        }
                        match self.exec_block(body)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(st) = step {
                            self.eval(st)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                let scope = self.scopes.pop().expect("scope pushed");
                self.release_scope(scope);
                r
            }
            Stmt::Switch { expr, arms, line } => {
                self.burn(*line)?;
                let v = self
                    .eval(expr)?
                    .as_int()
                    .ok_or_else(|| self.fault(FaultKind::BadValue, *line))?;
                // Find the first matching arm (or default), then fall
                // through subsequent arms until a break.
                let mut start = arms
                    .iter()
                    .position(|a| a.labels.iter().any(|l| matches!(l, CaseLabel::Case(c) if *c == v)));
                if start.is_none() {
                    start = arms
                        .iter()
                        .position(|a| a.labels.contains(&CaseLabel::Default));
                }
                let Some(start) = start else { return Ok(Flow::Normal) };
                self.scopes.push(Vec::new());
                let mut flow = Flow::Normal;
                'arms: for arm in &arms[start..] {
                    for st in &arm.stmts {
                        match self.exec_stmt(st)? {
                            Flow::Normal => {}
                            Flow::Break => {
                                flow = Flow::Normal;
                                break 'arms;
                            }
                            other => {
                                flow = other;
                                break 'arms;
                            }
                        }
                    }
                }
                let scope = self.scopes.pop().expect("scope pushed");
                self.release_scope(scope);
                Ok(flow)
            }
            Stmt::Return(e, line) => {
                self.burn(*line)?;
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(line) => {
                self.burn(*line)?;
                Ok(Flow::Break)
            }
            Stmt::Continue(line) => {
                self.burn(*line)?;
                Ok(Flow::Continue)
            }
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Empty => Ok(Flow::Normal),
        }
    }

    // ----- expressions -----------------------------------------------------

    fn eval(&mut self, e: &'a Expr) -> Result<Value, RunError> {
        self.burn(e.line())?;
        match e {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value as i64)),
            Expr::CharLit { value, .. } => Ok(Value::Int(*value as i64)),
            Expr::StrLit { value, .. } => Ok(Value::Str(Rc::new(value.clone()))),
            Expr::Ident { name, line } => {
                let Some(id) = self.lookup_var(name) else {
                    // A function designator used as a value: produce a
                    // synthetic, deterministic "address" (an integer, like
                    // the flat code addresses the paper's kernel had). The
                    // driver then writes garbage to the hardware instead of
                    // crashing the compiler — the silent failure mode the
                    // experiments measure.
                    if self.program.unit.function(name).is_some()
                        || crate::check::builtins().declares(name)
                    {
                        let addr = 0x0800_0000u32
                            .wrapping_add(name.bytes().fold(0u32, |a, b| {
                                a.wrapping_mul(31).wrapping_add(b as u32)
                            }) & 0xFFFF);
                        return Ok(Value::Int(addr as i64));
                    }
                    return Err(self.fault(FaultKind::BadValue, *line));
                };
                // Arrays decay to a pointer to their first element.
                let data = self.obj(Place { obj: id, idx: 0 }, *line)?;
                if data.len() > 1 {
                    Ok(Value::Ptr(Some(Place { obj: id, idx: 0 })))
                } else {
                    Ok(data[0].clone())
                }
            }
            Expr::Unary { op, expr, line } => match op {
                UnOp::Neg => {
                    let v = self.int_of(expr)?;
                    Ok(Value::Int(v.wrapping_neg()))
                }
                UnOp::Plus => self.eval(expr),
                UnOp::Not => {
                    let v = self.eval(expr)?;
                    Ok(Value::Int(i64::from(!v.truthy())))
                }
                UnOp::BitNot => {
                    let v = self.int_of(expr)?;
                    Ok(Value::Int(!v))
                }
                UnOp::Deref => {
                    let lv = self.lvalue(e)?;
                    self.read_place(&lv, *line)
                }
                UnOp::AddrOf => {
                    let lv = self.lvalue(expr)?;
                    if lv.fields.is_empty() {
                        Ok(Value::Ptr(Some(lv.place)))
                    } else {
                        // Pointers into struct interiors are not used by the
                        // corpus; treat as wild if ever formed.
                        Ok(Value::Ptr(Some(Place { obj: ObjId(WILD_OBJ), idx: 0 })))
                    }
                }
            },
            Expr::Binary { op, lhs, rhs, line } => self.eval_binary(*op, lhs, rhs, *line),
            Expr::Assign { op, lhs, rhs, line } => {
                let rv = self.eval(rhs)?;
                let lv = self.lvalue(lhs)?;
                let new = match op {
                    None => rv,
                    Some(op) => {
                        let old = self.read_place(&lv, *line)?;
                        self.apply_binop(
                            *op,
                            old,
                            rv,
                            *line,
                        )?
                    }
                };
                self.write_place(&lv, new.clone(), *line)?;
                Ok(new)
            }
            Expr::Cond { cond, then_e, else_e, .. } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            Expr::Call { callee, args, line } => self.eval_call(callee, args, *line),
            Expr::Index { line, .. } => {
                let lv = self.lvalue(e)?;
                self.read_place(&lv, *line)
            }
            Expr::Member { base, field, arrow, line } => {
                if !*arrow && !is_lvalue_expr(base) {
                    // Member of an rvalue, e.g. `get_busy().val`.
                    let v = self.eval(base)?;
                    let Value::Struct(fields) = v else {
                        return Err(self.fault(FaultKind::BadValue, *line));
                    };
                    let idx = self.field_index_of(base, field, *line)?;
                    return fields
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| self.fault(FaultKind::BadValue, *line));
                }
                let lv = self.lvalue(e)?;
                self.read_place(&lv, *line)
            }
            Expr::Cast { ty, expr, line } => {
                let v = self.eval(expr)?;
                match (ty, v) {
                    (CType::Int { signed, bits }, Value::Int(i)) => {
                        Ok(Value::Int(wrap_int(i, *bits, *signed)))
                    }
                    (CType::Int { .. }, Value::Ptr(Some(p))) => {
                        // Synthesise a stable fake address.
                        Ok(Value::Int((p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64))
                    }
                    (CType::Int { .. }, Value::Ptr(None)) => Ok(Value::Int(0)),
                    (CType::Int { .. }, Value::Str(_)) => Ok(Value::Int(0x5_0000)),
                    (CType::Ptr(_), Value::Int(0)) => Ok(Value::Ptr(None)),
                    (CType::Ptr(_), Value::Int(i)) => Ok(Value::Ptr(Some(Place {
                        obj: ObjId(WILD_OBJ),
                        idx: i as usize,
                    }))),
                    (CType::Ptr(_), v @ (Value::Ptr(_) | Value::Str(_))) => Ok(v),
                    (CType::Void, _) => Ok(Value::Int(0)),
                    (_, v) => {
                        let _ = v;
                        Err(self.fault(FaultKind::BadValue, *line))
                    }
                }
            }
            Expr::IncDec { expr, inc, prefix, line } => {
                let lv = self.lvalue(expr)?;
                let old = self.read_place(&lv, *line)?;
                let new = match &old {
                    Value::Int(i) => Value::Int(if *inc { i + 1 } else { i - 1 }),
                    Value::Ptr(Some(p)) => {
                        let idx = if *inc {
                            p.idx + 1
                        } else {
                            p.idx.wrapping_sub(1)
                        };
                        Value::Ptr(Some(Place { obj: p.obj, idx }))
                    }
                    _ => return Err(self.fault(FaultKind::BadValue, *line)),
                };
                self.write_place(&lv, new.clone(), *line)?;
                Ok(if *prefix { new } else { old })
            }
            Expr::Comma { lhs, rhs } => {
                self.eval(lhs)?;
                self.eval(rhs)
            }
            Expr::SizeofType { ty, .. } => {
                Ok(Value::Int(ty.size_bytes(&self.program.structs) as i64))
            }
        }
    }

    fn int_of(&mut self, e: &'a Expr) -> Result<i64, RunError> {
        let v = self.eval(e)?;
        v.as_int()
            .ok_or_else(|| self.fault(FaultKind::BadValue, e.line()))
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &'a Expr,
        rhs: &'a Expr,
        line: u32,
    ) -> Result<Value, RunError> {
        // Short-circuit forms first.
        match op {
            BinOp::LogAnd => {
                let l = self.eval(lhs)?;
                if !l.truthy() {
                    return Ok(Value::Int(0));
                }
                let r = self.eval(rhs)?;
                return Ok(Value::Int(i64::from(r.truthy())));
            }
            BinOp::LogOr => {
                let l = self.eval(lhs)?;
                if l.truthy() {
                    return Ok(Value::Int(1));
                }
                let r = self.eval(rhs)?;
                return Ok(Value::Int(i64::from(r.truthy())));
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        self.apply_binop(op, l, r, line)
    }

    fn apply_binop(&self, op: BinOp, l: Value, r: Value, line: u32) -> Result<Value, RunError> {
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
                    // Below the object: nearby if small, absorbed.
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
                    // Driver code shifts unsigned register values; emulate
                    // a 32-bit logical shift for negative representations.
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
            LogAnd | LogOr => unreachable!("short-circuited above"),
        };
        Ok(Value::Int(v))
    }

    fn lvalue(&mut self, e: &'a Expr) -> Result<Lv, RunError> {
        match e {
            Expr::Ident { name, line } => {
                let Some(id) = self.lookup_var(name) else {
                    return Err(self.fault(FaultKind::BadValue, *line));
                };
                Ok(Lv { place: Place { obj: id, idx: 0 }, fields: Vec::new() })
            }
            Expr::Unary { op: UnOp::Deref, expr, line } => {
                let v = self.eval(expr)?;
                match v {
                    Value::Ptr(Some(p)) => Ok(Lv { place: p, fields: Vec::new() }),
                    Value::Ptr(None) => Err(self.fault(FaultKind::NullDeref, *line)),
                    _ => Err(self.fault(FaultKind::BadValue, *line)),
                }
            }
            Expr::Index { base, index, line } => {
                let b = self.eval(base)?;
                let i = self.int_of(index)?;
                match b {
                    Value::Ptr(Some(p)) => {
                        let idx = p.idx as i64 + i;
                        if idx < 0 {
                            return if idx > -(OOB_SLACK as i64) {
                                Ok(Lv {
                                    place: Place { obj: ObjId(ABSORB_OBJ), idx: 0 },
                                    fields: Vec::new(),
                                })
                            } else {
                                Err(self.fault(FaultKind::OutOfBounds, *line))
                            };
                        }
                        Ok(Lv {
                            place: Place { obj: p.obj, idx: idx as usize },
                            fields: Vec::new(),
                        })
                    }
                    Value::Ptr(None) => Err(self.fault(FaultKind::NullDeref, *line)),
                    _ => Err(self.fault(FaultKind::BadValue, *line)),
                }
            }
            Expr::Member { base, field, arrow, line } => {
                let mut lv = if *arrow {
                    let v = self.eval(base)?;
                    let Value::Ptr(Some(p)) = v else {
                        return Err(self.fault(
                            if matches!(v, Value::Ptr(None)) {
                                FaultKind::NullDeref
                            } else {
                                FaultKind::BadValue
                            },
                            *line,
                        ));
                    };
                    Lv { place: p, fields: Vec::new() }
                } else {
                    self.lvalue(base)?
                };
                // Resolve the field index from the *value* shape.
                let v = self.read_place(&lv, *line)?;
                let Value::Struct(_) = v else {
                    return Err(self.fault(FaultKind::BadValue, *line));
                };
                let idx = self.field_index_of(base, field, *line)?;
                lv.fields.push(idx);
                Ok(lv)
            }
            _ => Err(self.fault(FaultKind::BadValue, e.line())),
        }
    }

    /// Find the field index by consulting the checker-approved struct table:
    /// we re-derive the struct type of `base` syntactically. Because the
    /// program type-checked, every struct value flowing here has a unique
    /// field list; searching all structs for a matching field name is safe
    /// as long as field names are unambiguous per shape — generated code
    /// uses identical field names (`filename`, `type`, `val`) across types,
    /// but they share positions by construction, so position lookup on any
    /// match is correct.
    fn field_index_of(&self, _base: &Expr, field: &str, line: u32) -> Result<usize, RunError> {
        for i in 0..self.program.structs.len() {
            let def = self.program.structs.get(crate::types::StructId(i));
            if let Some(idx) = def.field_index(field) {
                return Ok(idx);
            }
        }
        Err(self.fault(FaultKind::BadValue, line))
    }

    // ----- calls -----------------------------------------------------------

    fn eval_call(
        &mut self,
        callee: &'a Expr,
        args: &'a [Expr],
        line: u32,
    ) -> Result<Value, RunError> {
        let Expr::Ident { name, .. } = callee else {
            return Err(self.fault(FaultKind::BadValue, line));
        };
        // User functions shadow builtins only if defined.
        if self.program.unit.function(name).is_none() {
            if let Some(v) = self.try_builtin(name, args, line)? {
                return Ok(v);
            }
        }
        let Some(func) = self.program.unit.function(name) else {
            return Err(self.fault(FaultKind::BadValue, line));
        };
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        self.invoke(func, vals)
    }

    fn try_builtin(
        &mut self,
        name: &str,
        args: &'a [Expr],
        line: u32,
    ) -> Result<Option<Value>, RunError> {
        let known = matches!(
            name,
            "inb" | "inw" | "inl" | "outb" | "outw" | "outl" | "insb" | "insw" | "outsb"
                | "outsw"
                | "printk"
                | "panic"
                | "udelay"
                | "mdelay"
                | "strcmp"
                | "memset"
                | "memcpy"
        );
        if !known {
            return Ok(None);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        let int_arg = |i: usize| -> i64 { vals.get(i).and_then(Value::as_int).unwrap_or(0) };
        let v = match name {
            "inb" => Value::Int(self.host.io_read(int_arg(0) as u16, 1) & 0xFF),
            "inw" => Value::Int(self.host.io_read(int_arg(0) as u16, 2) & 0xFFFF),
            "inl" => Value::Int(self.host.io_read(int_arg(0) as u16, 4) & 0xFFFF_FFFF),
            "outb" => {
                self.host.io_write(int_arg(1) as u16, 1, int_arg(0) & 0xFF);
                Value::Int(0)
            }
            "outw" => {
                self.host.io_write(int_arg(1) as u16, 2, int_arg(0) & 0xFFFF);
                Value::Int(0)
            }
            "outl" => {
                self.host.io_write(int_arg(1) as u16, 4, int_arg(0) & 0xFFFF_FFFF);
                Value::Int(0)
            }
            "insw" | "insb" => {
                let port = int_arg(0) as u16;
                let count = int_arg(2).max(0) as usize;
                let (size, mask) = if name == "insb" { (1, 0xFF) } else { (2, 0xFFFF) };
                let Some(Value::Ptr(Some(p))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                for i in 0..count {
                    let w = self.host.io_read(port, size) & mask;
                    let lv = Lv {
                        place: Place { obj: p.obj, idx: p.idx + i },
                        fields: Vec::new(),
                    };
                    self.write_place(&lv, Value::Int(w), line)?;
                    if self.fuel == 0 {
                        return Err(RunError::OutOfFuel);
                    }
                    self.fuel -= 1;
                }
                Value::Int(0)
            }
            "outsw" | "outsb" => {
                let port = int_arg(0) as u16;
                let count = int_arg(2).max(0) as usize;
                let (size, mask) = if name == "outsb" { (1, 0xFF) } else { (2, 0xFFFF) };
                let Some(Value::Ptr(Some(p))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                for i in 0..count {
                    let lv = Lv {
                        place: Place { obj: p.obj, idx: p.idx + i },
                        fields: Vec::new(),
                    };
                    let w = self
                        .read_place(&lv, line)?
                        .as_int()
                        .unwrap_or(0);
                    self.host.io_write(port, size, w & mask);
                    if self.fuel == 0 {
                        return Err(RunError::OutOfFuel);
                    }
                    self.fuel -= 1;
                }
                Value::Int(0)
            }
            "printk" => {
                let msg = self.format_message(&vals, line)?;
                self.host.console(&msg);
                Value::Int(0)
            }
            "panic" => {
                let message = self.format_message(&vals, line)?;
                let (file, local) = self.loc(line);
                return Err(RunError::Panic { message, file, line: local });
            }
            "udelay" | "mdelay" => {
                let n = int_arg(0).max(0) as u64;
                let usec = if name == "mdelay" { n * 1000 } else { n };
                self.host.delay(usec);
                // Delays burn fuel proportionally — a mutant that delays
                // forever is a hang.
                let cost = usec.max(1);
                if self.fuel < cost {
                    self.fuel = 0;
                    return Err(RunError::OutOfFuel);
                }
                self.fuel -= cost;
                Value::Int(0)
            }
            "strcmp" => {
                let a = self.cstr_of(vals.first(), line)?;
                let b = self.cstr_of(vals.get(1), line)?;
                Value::Int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            "memset" => {
                let Some(Value::Ptr(Some(p))) = vals.first().cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let fill = int_arg(1);
                // Element-granular: n is interpreted as an element count
                // (the corpus only ever memsets whole typed buffers).
                let count = int_arg(2).max(0) as usize;
                for i in 0..count {
                    let lv = Lv {
                        place: Place { obj: p.obj, idx: p.idx + i },
                        fields: Vec::new(),
                    };
                    self.write_place(&lv, Value::Int(fill), line)?;
                }
                Value::Ptr(Some(p))
            }
            "memcpy" => {
                let Some(Value::Ptr(Some(d))) = vals.first().cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let Some(Value::Ptr(Some(s))) = vals.get(1).cloned() else {
                    return Err(self.fault(FaultKind::NullDeref, line));
                };
                let count = int_arg(2).max(0) as usize;
                for i in 0..count {
                    let from = Lv {
                        place: Place { obj: s.obj, idx: s.idx + i },
                        fields: Vec::new(),
                    };
                    let v = self.read_place(&from, line)?;
                    let to = Lv {
                        place: Place { obj: d.obj, idx: d.idx + i },
                        fields: Vec::new(),
                    };
                    self.write_place(&to, v, line)?;
                }
                Value::Ptr(Some(d))
            }
            _ => unreachable!("filtered by `known`"),
        };
        Ok(Some(v))
    }

    fn cstr_of(&self, v: Option<&Value>, line: u32) -> Result<String, RunError> {
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
    fn format_message(&self, vals: &[Value], line: u32) -> Result<String, RunError> {
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

/// Whether an expression can be resolved as an lvalue (syntactically).
fn is_lvalue_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Ident { .. }
            | Expr::Index { .. }
            | Expr::Member { .. }
            | Expr::Unary { op: UnOp::Deref, .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn run(src: &str, entry: &str, args: &[Value]) -> Result<Value, RunError> {
        let p = compile("t.c", src).expect("test program must compile");
        let mut host = NullHost::default();
        let mut i = Interpreter::new(&p, &mut host, 1_000_000);
        i.call(entry, args)
    }

    fn run_int(src: &str, entry: &str, args: &[Value]) -> i64 {
        run(src, entry, args).unwrap().as_int().unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }";
        assert_eq!(run_int(src, "fact", &[6.into()]), 720);
    }

    #[test]
    fn loops_and_compound_assignment() {
        let src = "int sum(int n) { int s = 0; int i; for (i = 1; i <= n; i++) s += i; return s; }";
        assert_eq!(run_int(src, "sum", &[10.into()]), 55);
    }

    #[test]
    fn bit_manipulation_matches_c() {
        let src = "int f(int v) { return ((v >> 4) & 0xF) | ((v & 0xF) << 4); }";
        assert_eq!(run_int(src, "f", &[0xA5.into()]), 0x5A);
    }

    #[test]
    fn arrays_and_pointers() {
        let src = "
            int f(void) {
                int a[4];
                int *p = a;
                int i;
                for (i = 0; i < 4; i++) a[i] = i * i;
                return p[3] + *(a + 2);
            }";
        assert_eq!(run_int(src, "f", &[]), 13);
    }

    #[test]
    fn structs_and_members() {
        let src = "
            struct P_ { int x; int y; };
            typedef struct P_ P;
            int f(void) { P p; p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }";
        assert_eq!(run_int(src, "f", &[]), 25);
    }

    #[test]
    fn struct_copy_is_by_value() {
        let src = "
            struct P_ { int x; };
            typedef struct P_ P;
            int f(void) { P a; P b; a.x = 1; b = a; b.x = 9; return a.x; }";
        assert_eq!(run_int(src, "f", &[]), 1);
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
        assert_eq!(run_int(src, "f", &[1.into()]), 3);
        assert_eq!(run_int(src, "f", &[2.into()]), 2);
        assert_eq!(run_int(src, "f", &[3.into()]), 4);
        assert_eq!(run_int(src, "f", &[9.into()]), 100);
    }

    #[test]
    fn globals_and_initializers() {
        let src = "
            int counter = 5;
            unsigned short table[4] = {1, 2, 3, 4};
            int f(void) { counter += table[2]; return counter; }";
        assert_eq!(run_int(src, "f", &[]), 8);
    }

    #[test]
    fn const_struct_globals_with_file_macro() {
        let src = r#"
            struct S_ { const char *f; int t; unsigned int v; };
            typedef struct S_ S;
            static const S MASTER = {__FILE__, 4, 0};
            int f(void) { return MASTER.t; }"#;
        assert_eq!(run_int(src, "f", &[]), 4);
    }

    #[test]
    fn port_io_reaches_host() {
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
        let p = compile(
            "t.c",
            "int f(void) { outb(0xA5, 0x1F7); return inb(0x1F7); }",
        )
        .unwrap();
        let mut host = Probe { reads: vec![], writes: vec![] };
        let mut i = Interpreter::new(&p, &mut host, 10_000);
        let r = i.call("f", &[]).unwrap();
        assert_eq!(r.as_int(), Some(0x42));
        assert_eq!(host.writes, vec![(0x1F7, 0xA5)]);
        assert_eq!(host.reads, vec![0x1F7]);
    }

    #[test]
    fn panic_surfaces_with_message_and_line() {
        let src = "int f(void) {\n  panic(\"bad state %d\", 7);\n  return 0;\n}";
        let e = run(src, "f", &[]).unwrap_err();
        match e {
            RunError::Panic { message, file, line } => {
                assert_eq!(message, "bad state 7");
                assert_eq!(file, "t.c");
                assert_eq!(line, 2);
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn dil_assert_style_panic() {
        let src = "
#define dil_assert(expr) ((expr) ? 0 : panic(\"Devil assertion failed in file %s line %d\", __FILE__, __LINE__))
int f(int x) { dil_assert(x == 1); return x; }";
        assert_eq!(run_int(src, "f", &[1.into()]), 1);
        let e = run(src, "f", &[2.into()]).unwrap_err();
        match e {
            RunError::Panic { message, .. } => {
                assert!(message.contains("Devil assertion failed"), "{message}");
                assert!(message.contains("t.c"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nearby_out_of_bounds_is_silent_garbage() {
        // Overrunning a static buffer corrupts adjacent memory silently
        // (the hardest-to-debug case the paper worries about).
        let src = "int f(void) { int a[4]; a[9] = 5; return a[9] + 1; }";
        assert_eq!(run_int(src, "f", &[]), 1, "read returns 0, write absorbed");
    }

    #[test]
    fn far_out_of_bounds_is_a_fault() {
        let src = "int f(void) { int a[4]; return a[999999]; }";
        let e = run(src, "f", &[]).unwrap_err();
        assert!(matches!(e, RunError::Fault { kind: FaultKind::OutOfBounds, .. }), "{e:?}");
    }

    #[test]
    fn null_deref_is_a_fault() {
        let src = "int f(void) { int *p = (int *)0; return *p; }";
        let e = run(src, "f", &[]).unwrap_err();
        assert!(matches!(e, RunError::Fault { kind: FaultKind::NullDeref, .. }), "{e:?}");
    }

    #[test]
    fn wild_pointer_is_a_fault() {
        let src = "int f(void) { int *p = (int *)0xdead; return *p; }";
        let e = run(src, "f", &[]).unwrap_err();
        assert!(matches!(e, RunError::Fault { kind: FaultKind::WildDeref, .. }), "{e:?}");
    }

    #[test]
    fn division_by_zero_is_a_fault() {
        let src = "int f(int d) { return 10 / d; }";
        let e = run(src, "f", &[0.into()]).unwrap_err();
        assert!(matches!(e, RunError::Fault { kind: FaultKind::DivByZero, .. }), "{e:?}");
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let src = "int f(void) { while (1) { } return 0; }";
        let e = run(src, "f", &[]).unwrap_err();
        assert_eq!(e, RunError::OutOfFuel);
    }

    #[test]
    fn runaway_recursion_is_stack_overflow() {
        let src = "int f(int n) { return f(n + 1); }";
        let e = run(src, "f", &[0.into()]).unwrap_err();
        assert!(matches!(e, RunError::Fault { kind: FaultKind::StackOverflow, .. }), "{e:?}");
    }

    #[test]
    fn coverage_tracks_executed_lines() {
        let src = "int f(int x) {\n  if (x) {\n    return 1;\n  }\n  return 2;\n}";
        let p = compile("t.c", src).unwrap();
        let mut host = NullHost::default();
        let mut i = Interpreter::new(&p, &mut host, 10_000);
        i.call("f", &[0.into()]).unwrap();
        let fid = p.unit.file_id("t.c").unwrap();
        let packed = |l: u32| crate::token::pack_line(fid, l);
        assert!(i.line_covered(packed(2)), "condition line executed");
        assert!(!i.line_covered(packed(3)), "then-branch not executed");
        assert!(i.line_covered(packed(5)), "fall-through return executed");
    }

    #[test]
    fn printk_formats_to_console() {
        let p = compile(
            "t.c",
            r#"int f(void) { printk("ide: %s drive %d status %x", "hda", 1, 0x50); return 0; }"#,
        )
        .unwrap();
        let mut host = NullHost::default();
        let mut i = Interpreter::new(&p, &mut host, 10_000);
        i.call("f", &[]).unwrap();
        assert_eq!(host.log, vec!["ide: hda drive 1 status 50".to_string()]);
    }

    #[test]
    fn strcmp_on_literals() {
        let src = r#"int f(void) { return strcmp("abc", "abc") == 0 && strcmp("a", "b") < 0; }"#;
        assert_eq!(run_int(src, "f", &[]), 1);
    }

    #[test]
    fn insw_fills_buffer() {
        struct Seq(u16);
        impl Host for Seq {
            fn io_read(&mut self, _p: u16, _s: u8) -> i64 {
                self.0 += 1;
                self.0 as i64
            }
            fn io_write(&mut self, _p: u16, _s: u8, _v: i64) {}
            fn console(&mut self, _m: &str) {}
        }
        let p = compile(
            "t.c",
            "unsigned short buf[8];\nint f(void) { insw(0x1F0, buf, 8); return buf[0] + buf[7]; }",
        )
        .unwrap();
        let mut host = Seq(0);
        let mut i = Interpreter::new(&p, &mut host, 10_000);
        assert_eq!(i.call("f", &[]).unwrap().as_int(), Some(1 + 8));
    }

    #[test]
    fn unsigned_wrap_on_typed_store() {
        let src = "
            typedef unsigned char u8;
            int f(void) { u8 x = 300; return x; }";
        assert_eq!(run_int(src, "f", &[]), 44);
    }

    #[test]
    fn signed_char_store_sign_extends() {
        let src = "
            typedef signed char s8;
            int f(void) { s8 x = (s8)0xFB; return x; }";
        assert_eq!(run_int(src, "f", &[]), -5);
    }

    #[test]
    fn do_while_runs_once() {
        let src = "int f(void) { int n = 0; do { n++; } while (0); return n; }";
        assert_eq!(run_int(src, "f", &[]), 1);
    }

    #[test]
    fn ternary_and_comma() {
        let src = "int f(int a) { return a ? (a = a + 1, a) : 0; }";
        assert_eq!(run_int(src, "f", &[5.into()]), 6);
        assert_eq!(run_int(src, "f", &[0.into()]), 0);
    }

    #[test]
    fn scope_reuse_does_not_leak_objects_unbounded() {
        let src = "
            int f(void) {
                int i;
                int total = 0;
                for (i = 0; i < 1000; i++) { int tmp = i; total += tmp; }
                return total;
            }";
        let p = compile("t.c", src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&p, &mut host, 10_000_000);
        assert_eq!(interp.call("f", &[]).unwrap().as_int(), Some(499500));
        assert!(
            interp.objects.len() < 50,
            "scope-freed objects must be reused, have {}",
            interp.objects.len()
        );
    }
}
