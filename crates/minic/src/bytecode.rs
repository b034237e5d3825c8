//! Compile-to-bytecode lowering for checked programs.
//!
//! The tree-walking interpreter ([`crate::interp`]) resolves every variable
//! with a string `HashMap` lookup, re-walks `Box`ed AST nodes per
//! evaluation, and re-allocates every string literal it touches. This
//! module lowers a checked [`Program`] once into a flat [`CompiledProgram`]
//! — numeric frame/global slots, precomputed jump offsets, interned
//! constants — which [`crate::vm::Vm`] then executes with a single
//! flat-dispatch loop.
//!
//! # One body per item
//!
//! Each function and each global initialiser lowers on its own into a
//! body that owns its tables: constants, burn sequences, templates,
//! coercion lists, switch tables and superinstructions. The VM reads the
//! tables of the body it is running. An item's lowering therefore depends
//! only on its own definition, the definitions of the functions it calls
//! (the inliner reads them), and the program's shape: its function and
//! global name lists, its struct table and its file list. Name lookups
//! (callees, globals, struct members) go through indexes built once per
//! shape. [`Program::to_bytecode`] lowers every item; a [`LowerCache`]
//! lowers only the items whose inputs it has not seen, and shares the
//! rest by `Rc`, with an equal result.
//!
//! # Equivalence contract
//!
//! The VM must be *observationally identical* to the tree-walker: same
//! result values, same [`crate::interp::RunError`]s (kind, file, line),
//! same console output, same line coverage, and — crucially — the same
//! **fuel-burn sequence**, because `OutOfFuel` classification depends on
//! the exact point execution stops. The lowering therefore:
//!
//! * emits exactly one burn per AST node, in tree-walk evaluation order
//!   (a node's burn precedes its children's, mirroring
//!   `Interpreter::eval`); leaf ops self-burn, interior nodes get a
//!   leading `Op::Line`;
//! * resolves every identifier once, at lowering time, to a `Var`
//!   operand — a frame slot or a global index — but keeps the *runtime*
//!   object model (object ids, scope release order, free-list reuse)
//!   byte-compatible so synthetic pointer addresses and `UseAfterScope`
//!   faults agree;
//! * folds constant subtrees only when they cannot fault, and records the
//!   burn sequence the folded subtree would have produced so fuel and
//!   coverage accounting are unchanged (`Op::Const`/`Op::ConstN`).
//!
//! The tree-walker stays alive as the differential oracle; the
//! `vm_differential` integration test and the minic proptests pin the
//! contract.
//!
//! # Superinstructions
//!
//! Driver boots are dominated by polling loops — `while (t < 20000)`,
//! `while ((inb(port) & BUSY) != 0)`, `while (--retries > 0)` — whose
//! bodies lower to 4–8 tiny ops per iteration, each paying a full
//! dispatch round. A post-lowering peephole pass (`crate::fuse`) collapses
//! the dominant shapes into single *superinstructions*:
//!
//! * **load + compare + branch** (`t < 20000` loop conditions),
//! * **load + binop-const + compare + branch** (`(s & 0x80) == 0`),
//! * **incdec + compare + branch** (`--retries > 0`, prefix or postfix),
//! * **port-read + mask + compare** (status-register spins over
//!   `inb`/`inw`/`inl` with a constant port), and
//! * the for-loop step+back-jump pair (`i++` + `Jump`).
//!
//! Each fused op is described by a `FusedOp` in a side table of its
//! function's body, keeping `Op` itself small; the
//! branchless flavour (`FuseEnd::Push`) also folds interior
//! `Line*;Load;BinConst` runs of straight-line code. The pass preserves
//! the equivalence contract **exactly**: every fused op replays the burn
//! sequence of the ops it replaces, in order, interleaved with the same
//! side effects and the same fault sites, so fuel exhaustion, coverage
//! and device traffic are bit-identical with fusion on or off. A fused
//! op never spans a branch-in point — any interior jump target vetoes
//! the match (`crate::fuse` owns that analysis and the target remap).
//!
//! The unfused encoding stays reachable through
//! [`Program::to_bytecode_unfused`], which the differential tests and the
//! `vm_exec` bench use as the A/B baseline.

use crate::ast::*;
use crate::interp::FaultKind;
use crate::types::{CType, StructId};
use crate::value::{Place, Value};
use crate::Program;
use std::collections::HashMap;
use std::rc::Rc;

mod cache;

pub use cache::LowerCache;

/// Store-coercion applied when a value lands in a typed object — the
/// lowered form of `Interpreter::coerce_store` (integer targets truncate,
/// everything else passes through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coerce {
    /// Non-integer target: store as-is.
    None,
    /// Integer target: wrap to width/signedness; pointers flatten to the
    /// synthetic address, strings to the string sentinel.
    Int {
        /// Signedness of the target type.
        signed: bool,
        /// Width in bits.
        bits: u8,
    },
}

impl Coerce {
    fn of(ty: &CType) -> Coerce {
        match ty {
            CType::Int { signed, bits } => Coerce::Int { signed: *signed, bits: *bits },
            _ => Coerce::None,
        }
    }
}

/// Lowered cast target — just enough of [`CType`] to replicate
/// `Interpreter::eval`'s cast arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CastKind {
    /// Cast to an integer type.
    Int {
        /// Signedness of the target.
        signed: bool,
        /// Width in bits.
        bits: u8,
    },
    /// Cast to any pointer type.
    Ptr,
    /// Cast to `void`.
    Void,
    /// Anything else (array/struct targets): a runtime `BadValue` fault.
    Other,
}

impl CastKind {
    fn of(ty: &CType) -> CastKind {
        match ty {
            CType::Int { signed, bits } => CastKind::Int { signed: *signed, bits: *bits },
            CType::Ptr(_) => CastKind::Ptr,
            CType::Void => CastKind::Void,
            CType::Array(_, _) | CType::Struct(_) => CastKind::Other,
        }
    }
}

/// The kernel-environment builtins, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the C builtins
pub(crate) enum Builtin {
    Inb,
    Inw,
    Inl,
    Outb,
    Outw,
    Outl,
    Insb,
    Insw,
    Outsb,
    Outsw,
    Printk,
    Panic,
    Udelay,
    Mdelay,
    Strcmp,
    Memset,
    Memcpy,
}

fn builtin_of(name: &str) -> Option<Builtin> {
    // Mirrors the `known` list in `Interpreter::try_builtin`.
    Some(match name {
        "inb" => Builtin::Inb,
        "inw" => Builtin::Inw,
        "inl" => Builtin::Inl,
        "outb" => Builtin::Outb,
        "outw" => Builtin::Outw,
        "outl" => Builtin::Outl,
        "insb" => Builtin::Insb,
        "insw" => Builtin::Insw,
        "outsb" => Builtin::Outsb,
        "outsw" => Builtin::Outsw,
        "printk" => Builtin::Printk,
        "panic" => Builtin::Panic,
        "udelay" => Builtin::Udelay,
        "mdelay" => Builtin::Mdelay,
        "strcmp" => Builtin::Strcmp,
        "memset" => Builtin::Memset,
        "memcpy" => Builtin::Memcpy,
        _ => return None,
    })
}

/// Sentinel field index for a member name no struct defines (unreachable
/// after type checking; faults `BadValue` like the tree-walker).
pub(crate) const NO_FIELD: u16 = u16::MAX;

/// The variable operand: a named object, resolved once at lowering time
/// (`Lower::resolve`) to a slot of the running function's frame or to a
/// global. Locals and globals share every op and fused form that names a
/// variable, and the VM looks either up in one place; an unset variable
/// (a slot an arity-mismatched harness call never bound, a global whose
/// initialisation faulted) faults `BadValue` at the op's line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Var {
    /// A slot of the running function's frame (parameters first).
    Local(u16),
    /// An index into [`CompiledProgram`]`::globals`.
    Global(u16),
}

/// One VM instruction. `line` payloads are packed `(file_id, line)` ids
/// (see [`crate::token::pack_line`]); `target`s are absolute indices into
/// the owning function's op vector; `var`s are [`Var`] operands; table
/// indexes (`cidx`, `seq`, `template`, `coerces`, `table`, `idx`) index
/// the owning [`Body`]'s tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Burn fuel + record coverage for one AST node entry.
    Line(u32),
    /// Folded single-node constant: burn `line`, push `consts[cidx]`.
    Const { cidx: u32, line: u32 },
    /// Folded constant subtree: burn every line of `burn_seqs[seq]` in
    /// order, then push `consts[cidx]`.
    ConstN { cidx: u32, seq: u32 },
    /// Push `consts[cidx]` without burning (synthesised values, e.g. the
    /// implicit `return 0`).
    PushConst { cidx: u32 },
    /// Identifier rvalue (burns `line`; arrays decay).
    LoadVar { var: Var, line: u32 },
    /// Identifier lvalue (no burn — mirrors `lvalue`).
    PlaceVar { var: Var, line: u32 },
    /// Pop a pointer value, push its place (`*p` lvalue, `p->f` base).
    PtrPlace { line: u32 },
    /// Pop index then base values, push the indexed place.
    IndexPlace { line: u32, idx_line: u32 },
    /// Extend the top place with one struct field step.
    MemberStep { fidx: u16, line: u32 },
    /// Pop a place, push the value read through it.
    ReadPlace { line: u32 },
    /// Pop a struct rvalue, push one field of it.
    MemberValue { fidx: u16, line: u32 },
    /// Pop a place, push a pointer to it (wild if into a struct interior).
    AddrOf,
    /// Pop place and value, write, push the stored value.
    Store { line: u32 },
    /// Compound assignment: read-modify-write through the popped place.
    StoreBin { op: BinOp, line: u32 },
    /// Fused `x = <expr>;` statement: pop, write, push nothing.
    /// Burn/fault behaviour is identical to `PlaceVar;Store;Pop` — the
    /// fused ops exist because polling loops are made of these statements.
    StoreVarPop { var: Var, line: u32 },
    /// Fused `x op= <expr>;` statement.
    StoreOpVarPop { var: Var, op: BinOp, line: u32 },
    /// Fused `x++;`-style statement (result discarded, so prefix/postfix
    /// are indistinguishable).
    IncDecVarPop { var: Var, inc: bool, line: u32 },
    /// `++`/`--` through the popped place.
    IncDec { inc: bool, prefix: bool, line: u32 },
    /// Arithmetic negate (`line` is the operand's, for `BadValue`).
    Neg { line: u32 },
    /// Logical not.
    LogicalNot,
    /// Bitwise not (`line` is the operand's).
    BitNot { line: u32 },
    /// Binary operator over the top two values.
    Bin { op: BinOp, line: u32 },
    /// Fused binary operator whose rhs folded to a single-burn constant
    /// (`t < 20000`, `s & 0x80`, …): burn `rhs_line`, then apply `op` to
    /// the top value and `consts[cidx]` — burn order and faults identical
    /// to the unfused `…; Const; Bin` sequence.
    BinConst { op: BinOp, cidx: u32, rhs_line: u32, line: u32 },
    /// Pop a value, push its truthiness as 0/1 (`&&`/`||` result).
    CoerceBool,
    /// Cast the top value.
    Cast { kind: CastKind, line: u32 },
    /// Discard the top value.
    Pop,
    /// Unconditional jump.
    Jump { target: u32 },
    /// Pop; jump when falsy.
    JumpIfFalse { target: u32 },
    /// Pop; jump when truthy.
    JumpIfTrue { target: u32 },
    /// `&&` short-circuit: pop; when falsy push 0 and jump.
    BrFalseConst { target: u32 },
    /// `||` short-circuit: pop; when truthy push 1 and jump.
    BrTrueConst { target: u32 },
    /// Dispatch on the popped integer via `switches[table]`.
    Switch { table: u32 },
    /// Open a block scope (object-release bookkeeping).
    EnterScope,
    /// Close the innermost scope, releasing its objects in push order.
    ExitScope,
    /// Declare a local with zero/default contents from `templates`.
    DeclZero { slot: u16, template: u32 },
    /// Declare a scalar local from the popped initialiser.
    DeclScalar { slot: u16, coerce: Coerce },
    /// Declare an array local; pops `items` initialisers.
    DeclArray { slot: u16, template: u32, items: u16, coerce: Coerce },
    /// Declare a struct local; pops `items` initialisers, coercing each
    /// through `field_coerces[coerces]`.
    DeclStruct { slot: u16, template: u32, items: u16, coerces: u32 },
    /// Fused `x++;`-style statement followed by an unconditional jump —
    /// the step + back-jump pair every `for` loop executes once per
    /// iteration. Burn/fault behaviour identical to
    /// `Line; IncDecVarPop; Jump`.
    IncDecJmp { var: Var, inc: bool, line: u32, target: u32 },
    /// Fused `local.field = <expr>;` statement tail: pop the value, write
    /// it through one field step of a local struct. Replaces
    /// `PlaceVar; MemberStep; Store; Pop` on a local when all three carry
    /// the same packed line (single-source-line member assigns — the shape
    /// every generated stub's `mk_*`/`get_*` constructor is made of).
    StoreFieldLocalPop { slot: u16, fidx: u16, line: u32 },
    /// A fused superinstruction: `fused[idx]` describes a whole
    /// burns → load → fold → compare → branch sequence executed in one
    /// dispatch (see [`FusedOp`]).
    FusedBr { idx: u32 },
    /// Open an inlined call: depth-check (`StackOverflow` at the callee's
    /// definition `line`, exactly where a real call faults), enter the
    /// frame scope, and bind the top `argc` stack values to the
    /// contiguous parameter slots starting at `first_slot` (coercing each
    /// through `field_coerces[coerces]`) — byte-for-byte the object churn
    /// of the out-of-line call machinery, minus the frame bookkeeping.
    /// `call_line` is `u32::MAX` when no burn was folded in; the [`fuse`]
    /// pass folds the call expression's leading `Op::Line` here for
    /// zero-argument calls (burned before the depth check, exactly as the
    /// standalone `Line` would have been).
    InlineEnter { first_slot: u16, argc: u8, coerces: u32, call_line: u32, line: u32 },
    /// Close an inlined call: exit the frame scope, drop the call depth.
    /// The return value sits on the stack, as after a real `Ret`.
    InlineExit,
    /// `InlineExit` + `Op::Pop`: a statement-level inlined call whose
    /// return value is discarded.
    InlineExitPop,
    /// `InlineExit` + `Op::Jump`: a nested inlined call whose value is
    /// immediately returned by the enclosing inlined body.
    InlineExitJmp { target: u32 },
    /// `InlineExit` + `Op::DeclScalar`: `int x = small_call();`.
    InlineExitDecl { slot: u16, coerce: Coerce },
    /// `InlineExit` + `Op::StoreVarPop` on a local: `x = small_call();`.
    InlineExitStore { slot: u16, line: u32 },
    /// Call a user function with the top `argc` values as arguments.
    CallUser { fidx: u16, argc: u8 },
    /// Call a kernel builtin with the top `argc` values.
    CallBuiltin { which: Builtin, argc: u8, line: u32 },
    /// Return the top value, unwinding the frame.
    Ret,
    /// Unconditional fault (defensive lowering of checker-rejected shapes).
    Trap { kind: FaultKind, line: u32 },
}

/// One superinstruction, referenced by [`Op::FusedBr`] and produced only
/// by the [`fuse`] pass. Execution order (each step able to fault or run
/// out of fuel exactly where the unfused sequence would):
///
/// 1. burn every line in `pre` (the leading `Op::Line`s of the span);
/// 2. produce the source value per [`FuseSrc`] (with its own burns),
///    then pick `field` out of it when set (`Op::MemberValue`);
/// 3. apply `stage1` then `stage2` (burn the rhs line, then the binop —
///    the `Op::BinConst` / `Op::LoadVar;Op::Bin` semantics);
/// 4. optionally cast (`Op::Cast`), then optionally coerce to 0/1
///    (`Op::CoerceBool`), in that matched order;
/// 5. consume the value per [`FuseEnd`]: push it, branch on it, store it
///    (a [`Var`], a member field, a fresh declaration).
///
/// A source, a stage's rhs or an end that names a plain variable carries
/// one [`Var`], local or global alike; the member and indexed forms
/// (`FieldLocal`, `StoreField`, `StoreIndexLocal`) match locals only.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FusedOp {
    /// Leading `Op::Line` burns, in program order.
    pub(crate) pre: Box<[u32]>,
    /// How the value under test is produced.
    pub(crate) src: FuseSrc,
    /// First folded binary stage, if any.
    pub(crate) stage1: Option<FuseStage>,
    /// Second folded binary stage, if any (never set without `stage1`).
    pub(crate) stage2: Option<FuseStage>,
    /// A folded `Op::MemberValue` (struct-rvalue field pick), applied
    /// right after the source value materialises.
    pub(crate) field: Option<(u16, u32)>,
    /// A folded `Op::Cast`, applied after the stages.
    pub(crate) cast: Option<(CastKind, u32)>,
    /// Whether an `Op::CoerceBool` was folded in (`&&`/`||` results).
    pub(crate) coerce_bool: bool,
    /// What happens to the computed value.
    pub(crate) end: FuseEnd,
    /// Branch target (op index); meaningless for non-branch ends.
    pub(crate) target: u32,
}

impl FusedOp {
    /// Whether `target` is live (the end is a branch flavour).
    pub(crate) fn has_target(&self) -> bool {
        matches!(
            self.end,
            FuseEnd::IfFalse
                | FuseEnd::IfTrue
                | FuseEnd::FalseConst
                | FuseEnd::TrueConst
                | FuseEnd::Jump
        )
    }
}

/// Terminal action of a [`FusedOp`] — the branch or store the computed
/// value flows into, each replaying its unfused op(s) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuseEnd {
    /// No consumer fused: push the value (interior expression fusion).
    Push,
    /// `Op::JumpIfFalse`.
    IfFalse,
    /// `Op::JumpIfTrue`.
    IfTrue,
    /// `Op::BrFalseConst` (`&&` short-circuit: push 0 and jump on falsy).
    FalseConst,
    /// `Op::BrTrueConst` (`||` short-circuit: push 1 and jump on truthy).
    TrueConst,
    /// `Op::StoreVarPop`: `x = <value>;` statement sink.
    StoreVar { var: Var, line: u32 },
    /// The `PlaceVar; MemberStep; Store; Pop` tail on a local (see
    /// [`Op::StoreFieldLocalPop`]): `local.field = <value>;` sink.
    StoreField { slot: u16, fidx: u16, line: u32 },
    /// `Op::DeclScalar`: `int x = <value>;` sink.
    DeclScalar { slot: u16, coerce: Coerce },
    /// `Op::Jump`: push the value, then branch unconditionally — the
    /// `return <value>;` tail of an inlined call (value + jump to the
    /// frame's `InlineExit`).
    Jump,
    /// `Op::Const` (the port, burns `line`) + a 2-argument
    /// `Op::CallBuiltin` for `outb`/`outw`/`outl`, plus the statement's
    /// `Op::Pop` when `pop` is set: one host port write consuming the
    /// computed value.
    PortOut { which: Builtin, cidx: u32, line: u32, pop: bool },
    /// A 1-argument `Op::CallBuiltin` for `inb`/`inw`/`inl` whose *port*
    /// is the computed value (generated stubs read `base + offset` ports
    /// resolved at init time): pop nothing, read, push the result.
    In { which: Builtin },
    /// A 2-argument `Op::CallBuiltin` for `outb`/`outw`/`outl` whose port
    /// is the computed value and whose data word is the next value down
    /// the operand stack, plus the statement's `Op::Pop` when set.
    OutDyn { which: Builtin, pop: bool },
    /// The `LoadVar; IndexPlace; Store; Pop` tail of `g[i] = <value>;`
    /// with `i` a local, where the computed value is the *base* (a
    /// decayed array) — all four ops on one source line, which is all
    /// that is stored. The stored value is the next value down the
    /// operand stack.
    StoreIndexLocal { slot: u16, line: u32 },
}

/// The value-producing head of a [`FusedOp`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FuseSrc {
    /// `Op::LoadVar` (burns `line`; arrays decay; an unset variable faults).
    Var { var: Var, line: u32 },
    /// `Op::PlaceVar` + `Op::IncDec`: `--x` / `x++` as a value.
    /// `place_line` is the identifier's (unset-variable fault site), `line`
    /// the operator's (read/write fault site). No burn — the enclosing
    /// expression's `Line`s are in `pre`.
    IncDec { var: Var, inc: bool, prefix: bool, place_line: u32, line: u32 },
    /// `Op::Const` (the port, burns `port_line`) + a 1-argument
    /// `Op::CallBuiltin` for `inb`/`inw`/`inl`: one host port read.
    PortIn { which: Builtin, cidx: u32, port_line: u32 },
    /// `Op::PlaceVar` (a local) + `Op::MemberStep` + `Op::ReadPlace`: the
    /// rvalue of `local.field` (`dil_val(x)`, stub type tags, ...). No burn —
    /// the member expression's `Line` is in `pre`; faults replay the
    /// three ops' order exactly.
    FieldLocal { slot: u16, fidx: u16, place_line: u32, line: u32 },
    /// `Op::Const`: a folded constant source (burns `line`) — `return 0;`
    /// values, constant arguments, `v.type = 1;` right-hand sides.
    ConstVal { cidx: u32, line: u32 },
    /// `Op::ConstN`: a folded constant subtree, replaying its whole burn
    /// sequence (`-1` literals and friends).
    ConstSeq { cidx: u32, seq: u32 },
    /// The value already on the operand stack (a call's return value, a
    /// previously fused push): pop it. Only matched when a folded middle
    /// op (stage, cast, member pick, bool coercion) guarantees the
    /// unfused sequence would pop at exactly this point.
    StackTop,
}

/// One folded binary stage of a [`FusedOp`] — the `Op::BinConst` (or
/// `Op::LoadVar` + `Op::Bin`) it replaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuseStage {
    /// The operator.
    pub(crate) op: BinOp,
    /// Where the right-hand operand comes from.
    pub(crate) rhs: FuseRhs,
    /// The binary expression's own line (fault site of the apply).
    pub(crate) line: u32,
}

/// Right-hand operand of a [`FuseStage`]; every flavour burns `line`
/// before the value materialises, exactly like the op it replaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FuseRhs {
    /// Interned constant (`Op::BinConst`'s `rhs_line` burn).
    Const { cidx: u32, line: u32 },
    /// A variable load (`Op::LoadVar` + `Op::Bin`).
    Var { var: Var, line: u32 },
    /// A local member load (`Line; PlaceVar; MemberStep; ReadPlace` +
    /// `Op::Bin`) — `a.val == b.val` comparisons in generated stubs.
    FieldLocal { slot: u16, fidx: u16, place_line: u32, line: u32 },
}

/// How a global's object is assembled from its evaluated initialisers —
/// the lowered form of `Interpreter::ensure_globals` (which, unlike local
/// declarations, stores aggregate items *uncoerced*).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum GFinish {
    /// No initialiser: clone the zero template.
    Zero { template: u32 },
    /// Scalar initialiser: coerce the single popped value.
    Scalar { coerce: Coerce },
    /// Array initialiser list: pops `items` raw values over the template.
    Array { template: u32, items: u16 },
    /// Struct initialiser list: pops `items` raw field values.
    Struct { template: u32, items: u16 },
}

/// A lowered body: a function's or a global initialiser's ops and the
/// tables they index. Each body owns its tables, so an item lowers to the
/// same body whatever else its program holds, and a body is shared, not
/// copied, by every program that reuses it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Body {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    pub(crate) burn_seqs: Vec<Box<[u32]>>,
    pub(crate) templates: Vec<Box<[Value]>>,
    pub(crate) field_coerces: Vec<Box<[Coerce]>>,
    pub(crate) switches: Vec<SwitchTable>,
    /// Superinstruction descriptors referenced by [`Op::FusedBr`]; empty
    /// until the [`fuse`] pass runs.
    pub(crate) fused: Vec<FusedOp>,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BFunc {
    pub(crate) name: String,
    pub(crate) body: Body,
    /// Frame size in slots (params first).
    pub(crate) slots: u16,
    /// Per-parameter store coercions.
    pub(crate) params: Box<[Coerce]>,
    /// Packed definition line (stack-overflow fault site).
    pub(crate) line: u32,
}

/// A lowered global: initialiser evaluation ops plus assembly recipe.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BGlobal {
    pub(crate) name: String,
    pub(crate) body: Body,
    pub(crate) finish: GFinish,
    /// Packed declaration line — faults during initialisation are
    /// re-stamped to this local line, as `eval_const` does.
    pub(crate) line: u32,
}

/// One lowered `switch`: first-matching-arm dispatch table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SwitchTable {
    pub(crate) cases: Vec<(i64, u32)>,
    pub(crate) default: Option<u32>,
    /// Jump target when no arm matches.
    pub(crate) end: u32,
    /// Whether dispatching into an arm opens the switch scope.
    pub(crate) enter_scope: bool,
    /// Packed line of the `switch` (non-integer scrutinee fault).
    pub(crate) line: u32,
}

/// A program lowered to bytecode, ready for [`crate::vm::Vm`].
///
/// Produced by [`Program::to_bytecode`] or a [`LowerCache`]; immutable and
/// freely shareable across boots of the same mutant. Its functions and
/// globals are reference-counted, each owning its tables, so programs
/// lowered through one cache share every item they did not change, and
/// two programs compare equal exactly when every item lowered alike.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub(crate) funcs: Vec<Rc<BFunc>>,
    pub(crate) globals: Vec<Rc<BGlobal>>,
    /// Participating file names (index = `file_id`).
    pub(crate) files: Vec<String>,
}

impl CompiledProgram {
    /// Index of a function by name.
    pub(crate) fn function(&self, name: &str) -> Option<u16> {
        self.funcs.iter().position(|f| f.name == name).map(|i| i as u16)
    }

    /// Index of a global by name.
    pub(crate) fn global(&self, name: &str) -> Option<u16> {
        self.globals.iter().position(|g| g.name == name).map(|i| i as u16)
    }

    /// Resolve a packed line id to `(file name, local line)`.
    pub(crate) fn loc(&self, packed: u32) -> (&str, u32) {
        let (fid, line) = crate::token::unpack_line(packed);
        let name = self
            .files
            .get(fid as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>");
        (name, line)
    }

    /// Number of lowered functions (diagnostics).
    pub fn function_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of superinstructions the fusion pass produced — zero for
    /// an unfused program (diagnostics; the zero-alloc and fusion tests
    /// use this to prove the fast path is actually exercised).
    pub fn fused_op_count(&self) -> usize {
        self.funcs.iter().map(|f| f.body.fused.len()).sum()
    }
}

use crate::fuse::fuse;

impl Program {
    /// Lower this checked program to bytecode, inlining small calls and
    /// applying the superinstruction fusion pass — the production
    /// encoding. Every item takes the [`LowerCache`]'s miss path, so this
    /// is what a cache returns for a program it has never seen.
    ///
    /// Lowering is total for checker-approved programs; shapes the checker
    /// rejects (and which therefore cannot reach a [`crate::vm::Vm`]
    /// through [`crate::compile`]) lower to the same runtime fault the
    /// tree-walker raises.
    pub fn to_bytecode(&self) -> CompiledProgram {
        lower_program(self, true)
    }

    /// Lower without the superinstruction pass or the call-inlining pass
    /// — the flag that keeps the PR-4 encoding reachable, so differential
    /// tests cover both dispatch paths and the `vm_exec` bench has a
    /// faithful A/B baseline.
    pub fn to_bytecode_unfused(&self) -> CompiledProgram {
        lower_program(self, false)
    }
}

/// Lower every item of `program` on the miss path.
fn lower_program(program: &Program, optimise: bool) -> CompiledProgram {
    let names = Names::of(program);
    let lw = Lowering::new(program, &names, optimise);
    CompiledProgram {
        globals: program.unit.globals().map(|g| Rc::new(lw.global(g).0)).collect(),
        funcs: (0..lw.funcs.len()).map(|i| Rc::new(lw.function(i).0)).collect(),
        files: program.unit.files.clone(),
    }
}

/// The name lookups lowering makes, built once per program shape (its
/// function and global name lists and its struct table) instead of
/// scanned at every use. The first definition of a name wins, as a scan
/// in declaration order finds it.
#[derive(Debug)]
pub(crate) struct Names {
    /// Function index by name.
    funcs: HashMap<String, u16>,
    /// Global index by name.
    globals: HashMap<String, u16>,
    /// Field position by member name, taken from the first struct in
    /// table order that has such a field — `Interpreter::field_index_of`'s
    /// answer (positions agree across the generated stub types by
    /// construction).
    fields: HashMap<String, u16>,
}

impl Names {
    pub(crate) fn of(program: &Program) -> Names {
        fn index<'a>(names: impl Iterator<Item = &'a String>) -> HashMap<String, u16> {
            let mut map = HashMap::new();
            for (i, name) in names.enumerate() {
                map.entry(name.clone()).or_insert(i as u16);
            }
            map
        }
        let mut fields = HashMap::new();
        for id in 0..program.structs.len() {
            let def = program.structs.get(StructId(id));
            for (i, (name, _)) in def.fields.iter().enumerate() {
                fields.entry(name.clone()).or_insert(i as u16);
            }
        }
        Names {
            funcs: index(program.unit.functions().map(|f| &f.name)),
            globals: index(program.unit.globals().map(|g| &g.name)),
            fields,
        }
    }
}

/// One program as the miss path lowers its items: the program, its
/// [`Names`], and its functions by index.
pub(crate) struct Lowering<'p> {
    program: &'p Program,
    names: &'p Names,
    funcs: Vec<&'p Function>,
    /// Whether small calls are inlined ([`Lower::should_inline`]) and
    /// function bodies fused; off only for `to_bytecode_unfused`.
    optimise: bool,
}

impl<'p> Lowering<'p> {
    pub(crate) fn new(program: &'p Program, names: &'p Names, optimise: bool) -> Self {
        Lowering { program, names, funcs: program.unit.functions().collect(), optimise }
    }

    /// Lower function `fidx` (and fuse it when optimising). Also returns
    /// the indexes of the functions whose definitions the lowering read
    /// (every callee it resolved, inlined or not, and theirs when
    /// inlined): the lowering is a function of the program's shape, the
    /// function's own definition and those.
    pub(crate) fn function(&self, fidx: usize) -> (BFunc, Vec<u16>) {
        let mut lw = Lower::new(self);
        let mut f = lw.lower_function(self.funcs[fidx]);
        if self.optimise {
            fuse(&mut f.body);
        }
        (f, lw.reads)
    }

    /// Lower one global's initialiser (never fused: initialisers are
    /// checker-enforced constant expressions with no loops to win back),
    /// with the functions its lowering read, as for [`Lowering::function`].
    pub(crate) fn global(&self, g: &Global) -> (BGlobal, Vec<u16>) {
        let mut lw = Lower::new(self);
        let g = lw.lower_global(g);
        (g, lw.reads)
    }
}

/// Whether an expression can be resolved as an lvalue (syntactically) —
/// mirror of the interpreter's `is_lvalue_expr`.
fn is_lvalue_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Ident { .. }
            | Expr::Index { .. }
            | Expr::Member { .. }
            | Expr::Unary { op: UnOp::Deref, .. }
    )
}

struct LScope {
    names: Vec<(String, u16)>,
    /// Whether this scope exists at runtime (has an `EnterScope` op or is
    /// the implicit frame scope / runtime switch scope).
    emitted: bool,
}

enum CtxKind {
    Loop,
    Switch,
    /// An inlined call body: `return` statements unwind to here and jump
    /// to the `InlineExit` (collected in `break_patches`), and `break`/
    /// `continue` resolution never crosses this boundary.
    Inline,
}

struct Ctx {
    kind: CtxKind,
    /// Emitted-scope count outside this construct — break unwinds to here.
    scopes_outside: usize,
    /// Emitted-scope count at the loop body — continue unwinds to here.
    scopes_body: usize,
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
    /// Continue target when already known (while loops).
    continue_target: Option<u32>,
}

/// The state of lowering one item: the body being built, with its
/// interning maps, and the scopes, contexts and inline chain of the code
/// being emitted.
struct Lower<'a> {
    cx: &'a Lowering<'a>,
    body: Body,
    int_consts: HashMap<i64, u32>,
    str_consts: HashMap<String, u32>,
    scopes: Vec<LScope>,
    ctxs: Vec<Ctx>,
    next_slot: u16,
    /// Function indices currently being inlined (cycle guard).
    inline_stack: Vec<u16>,
    /// Name resolution stops at this scope index — an inlined body must
    /// see its own frame and the globals, never the caller's locals.
    resolve_floor: usize,
    /// Every function whose definition this lowering read, once each.
    reads: Vec<u16>,
}

impl<'a> Lower<'a> {
    fn new(cx: &'a Lowering<'a>) -> Self {
        Lower {
            cx,
            body: Body::default(),
            int_consts: HashMap::new(),
            str_consts: HashMap::new(),
            scopes: Vec::new(),
            ctxs: Vec::new(),
            next_slot: 0,
            inline_stack: Vec::new(),
            resolve_floor: 0,
            reads: Vec::new(),
        }
    }

    // ----- tables ---------------------------------------------------------

    fn intern(&mut self, v: Value) -> u32 {
        match &v {
            Value::Int(i) => {
                if let Some(&idx) = self.int_consts.get(i) {
                    return idx;
                }
                let idx = self.body.consts.len() as u32;
                self.int_consts.insert(*i, idx);
                self.body.consts.push(v);
                idx
            }
            Value::Str(s) => {
                if let Some(&idx) = self.str_consts.get(s.as_ref()) {
                    return idx;
                }
                let idx = self.body.consts.len() as u32;
                self.str_consts.insert(s.to_string(), idx);
                self.body.consts.push(v);
                idx
            }
            _ => {
                if let Some(i) = self.body.consts.iter().position(|c| *c == v) {
                    return i as u32;
                }
                self.body.consts.push(v);
                self.body.consts.len() as u32 - 1
            }
        }
    }

    fn intern_seq(&mut self, seq: Vec<u32>) -> u32 {
        if let Some(i) = self.body.burn_seqs.iter().position(|s| s.as_ref() == seq.as_slice()) {
            return i as u32;
        }
        self.body.burn_seqs.push(seq.into_boxed_slice());
        self.body.burn_seqs.len() as u32 - 1
    }

    fn intern_coerces(&mut self, coerces: Vec<Coerce>) -> u32 {
        if let Some(i) = self.body.field_coerces.iter().position(|c| c.as_ref() == coerces.as_slice()) {
            return i as u32;
        }
        self.body.field_coerces.push(coerces.into_boxed_slice());
        self.body.field_coerces.len() as u32 - 1
    }

    fn intern_template(&mut self, t: Vec<Value>) -> u32 {
        if let Some(i) = self.body.templates.iter().position(|s| s.as_ref() == t.as_slice()) {
            return i as u32;
        }
        self.body.templates.push(t.into_boxed_slice());
        self.body.templates.len() as u32 - 1
    }

    /// Zero value of a type — must mirror `Interpreter::zero_of` exactly
    /// (including the struct-shaped representation of nested arrays).
    fn zero_of(&self, ty: &CType) -> Value {
        match ty {
            CType::Int { .. } | CType::Void => Value::Int(0),
            CType::Ptr(_) => Value::Ptr(None),
            CType::Array(e, n) => Value::Struct(Rc::new(vec![self.zero_of(e); *n])),
            CType::Struct(id) => {
                let fields = &self.cx.program.structs.get(*id).fields;
                Value::Struct(Rc::new(fields.iter().map(|(_, t)| self.zero_of(t)).collect()))
            }
        }
    }

    /// First field index matching `name` across *all* struct definitions
    /// (see [`Names`]).
    fn field_index(&self, name: &str) -> u16 {
        self.cx.names.fields.get(name).copied().unwrap_or(NO_FIELD)
    }

    /// The variable `name` denotes here: the innermost visible local,
    /// else a global; `None` for anything else (functions, builtins,
    /// checker-rejected names).
    fn resolve(&self, name: &str) -> Option<Var> {
        for scope in self.scopes[self.resolve_floor..].iter().rev() {
            if let Some((_, slot)) = scope.names.iter().rev().find(|(n, _)| n == name) {
                return Some(Var::Local(*slot));
            }
        }
        self.cx.names.globals.get(name).map(|&gidx| Var::Global(gidx))
    }

    fn declare(&mut self, name: &str) -> u16 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.scopes
            .last_mut()
            .expect("inside a scope")
            .names
            .push((name.to_string(), slot));
        slot
    }

    fn emitted_scopes(&self) -> usize {
        self.scopes.iter().filter(|s| s.emitted).count()
    }

    // ----- constant folding ----------------------------------------------

    /// Evaluate a subtree that provably cannot fault, returning its value
    /// and the burn sequence `Interpreter::eval` would have produced.
    fn fold(&self, e: &Expr) -> Option<(Value, Vec<u32>)> {
        match e {
            Expr::IntLit { value, line } => Some((Value::Int(*value as i64), vec![*line])),
            Expr::CharLit { value, line } => Some((Value::Int(*value as i64), vec![*line])),
            Expr::StrLit { value, line } => {
                Some((Value::Str(Rc::new(value.clone())), vec![*line]))
            }
            Expr::SizeofType { ty, line } => Some((
                Value::Int(ty.size_bytes(&self.cx.program.structs) as i64),
                vec![*line],
            )),
            Expr::Ident { name, line } => {
                // Only the function-designator-as-value case is constant;
                // real variables load at run time.
                if self.resolve(name).is_some() {
                    return None;
                }
                if self.cx.names.funcs.contains_key(name)
                    || crate::check::builtins().declares(name)
                {
                    let addr = 0x0800_0000u32.wrapping_add(
                        name.bytes()
                            .fold(0u32, |a, b| a.wrapping_mul(31).wrapping_add(b as u32))
                            & 0xFFFF,
                    );
                    return Some((Value::Int(addr as i64), vec![*line]));
                }
                None
            }
            Expr::Unary { op, expr, line } => {
                let (v, mut seq) = self.fold(expr)?;
                let out = match op {
                    UnOp::Plus => v,
                    UnOp::Neg => Value::Int(v.as_int()?.wrapping_neg()),
                    UnOp::BitNot => Value::Int(!v.as_int()?),
                    UnOp::Not => Value::Int(i64::from(!v.truthy())),
                    UnOp::Deref | UnOp::AddrOf => return None,
                };
                let mut burns = vec![*line];
                burns.append(&mut seq);
                Some((out, burns))
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let (l, mut lseq) = self.fold(lhs)?;
                match op {
                    BinOp::LogAnd | BinOp::LogOr => {
                        let short = (*op == BinOp::LogAnd) != l.truthy();
                        let mut burns = vec![*line];
                        burns.append(&mut lseq);
                        if short {
                            let v = i64::from(*op == BinOp::LogOr);
                            return Some((Value::Int(v), burns));
                        }
                        let (r, mut rseq) = self.fold(rhs)?;
                        burns.append(&mut rseq);
                        Some((Value::Int(i64::from(r.truthy())), burns))
                    }
                    _ => {
                        let (r, mut rseq) = self.fold(rhs)?;
                        let (a, b) = (l.as_int()?, r.as_int()?);
                        let v = fold_int_binop(*op, a, b)?;
                        let mut burns = vec![*line];
                        burns.append(&mut lseq);
                        burns.append(&mut rseq);
                        Some((Value::Int(v), burns))
                    }
                }
            }
            Expr::Cast { ty, expr, line } => {
                let (v, mut seq) = self.fold(expr)?;
                // Mirror of the interpreter's cast arm, constant cases only.
                let out = match (ty, v) {
                    (CType::Int { signed, bits }, Value::Int(i)) => {
                        Value::Int(crate::value::wrap_int(i, *bits, *signed))
                    }
                    (CType::Int { .. }, Value::Ptr(Some(p))) => {
                        Value::Int((p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64)
                    }
                    (CType::Int { .. }, Value::Ptr(None)) => Value::Int(0),
                    (CType::Int { .. }, Value::Str(_)) => Value::Int(0x5_0000),
                    (CType::Ptr(_), Value::Int(0)) => Value::Ptr(None),
                    (CType::Ptr(_), Value::Int(i)) => Value::Ptr(Some(Place {
                        obj: crate::value::ObjId(crate::interp::WILD_OBJ),
                        idx: i as usize,
                    })),
                    (CType::Ptr(_), v @ (Value::Ptr(_) | Value::Str(_))) => v,
                    (CType::Void, _) => Value::Int(0),
                    _ => return None,
                };
                let mut burns = vec![*line];
                burns.append(&mut seq);
                Some((out, burns))
            }
            _ => None,
        }
    }

    fn emit_folded(&mut self, v: Value, seq: Vec<u32>) {
        let cidx = self.intern(v);
        if seq.len() == 1 {
            self.body.ops.push(Op::Const { cidx, line: seq[0] });
        } else {
            let seq = self.intern_seq(seq);
            self.body.ops.push(Op::ConstN { cidx, seq });
        }
    }

    // ----- expressions ----------------------------------------------------

    fn emit_expr(&mut self, e: &Expr) {
        if let Some((v, seq)) = self.fold(e) {
            self.emit_folded(v, seq);
            return;
        }
        match e {
            // Constant leaves are always folded above.
            Expr::IntLit { .. }
            | Expr::CharLit { .. }
            | Expr::StrLit { .. }
            | Expr::SizeofType { .. } => unreachable!("constant leaves fold"),
            Expr::Ident { name, line } => match self.resolve(name) {
                Some(var) => self.body.ops.push(Op::LoadVar { var, line: *line }),
                None => {
                    // Unknown non-function name: checker-rejected; fault
                    // exactly where the tree-walker does.
                    self.body.ops.push(Op::Line(*line));
                    self.body.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                }
            },
            Expr::Unary { op, expr, line } => {
                self.body.ops.push(Op::Line(*line));
                match op {
                    UnOp::Neg => {
                        self.emit_expr(expr);
                        self.body.ops.push(Op::Neg { line: expr.line() });
                    }
                    UnOp::Plus => self.emit_expr(expr),
                    UnOp::Not => {
                        self.emit_expr(expr);
                        self.body.ops.push(Op::LogicalNot);
                    }
                    UnOp::BitNot => {
                        self.emit_expr(expr);
                        self.body.ops.push(Op::BitNot { line: expr.line() });
                    }
                    UnOp::Deref => {
                        self.emit_lvalue(e);
                        self.body.ops.push(Op::ReadPlace { line: *line });
                    }
                    UnOp::AddrOf => {
                        self.emit_lvalue(expr);
                        self.body.ops.push(Op::AddrOf);
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.body.ops.push(Op::Line(*line));
                match op {
                    BinOp::LogAnd => {
                        self.emit_expr(lhs);
                        let br = self.placeholder();
                        self.emit_expr(rhs);
                        self.body.ops.push(Op::CoerceBool);
                        let end = self.here();
                        self.body.ops[br] = Op::BrFalseConst { target: end };
                    }
                    BinOp::LogOr => {
                        self.emit_expr(lhs);
                        let br = self.placeholder();
                        self.emit_expr(rhs);
                        self.body.ops.push(Op::CoerceBool);
                        let end = self.here();
                        self.body.ops[br] = Op::BrTrueConst { target: end };
                    }
                    _ => {
                        self.emit_expr(lhs);
                        match self.fold(rhs) {
                            Some((v, seq)) if seq.len() == 1 => {
                                let cidx = self.intern(v);
                                self.body.ops.push(Op::BinConst {
                                    op: *op,
                                    cidx,
                                    rhs_line: seq[0],
                                    line: *line,
                                });
                            }
                            Some((v, seq)) => {
                                self.emit_folded(v, seq);
                                self.body.ops.push(Op::Bin { op: *op, line: *line });
                            }
                            None => {
                                self.emit_expr(rhs);
                                self.body.ops.push(Op::Bin { op: *op, line: *line });
                            }
                        }
                    }
                }
            }
            Expr::Assign { op, lhs, rhs, line } => {
                self.body.ops.push(Op::Line(*line));
                // Evaluation order: value first, then target place.
                self.emit_expr(rhs);
                self.emit_lvalue(lhs);
                self.body.ops.push(match op {
                    None => Op::Store { line: *line },
                    Some(op) => Op::StoreBin { op: *op, line: *line },
                });
            }
            Expr::Cond { cond, then_e, else_e, line } => {
                self.body.ops.push(Op::Line(*line));
                self.emit_expr(cond);
                let br = self.placeholder();
                self.emit_expr(then_e);
                let jmp = self.placeholder();
                let at_else = self.here();
                self.body.ops[br] = Op::JumpIfFalse { target: at_else };
                self.emit_expr(else_e);
                let end = self.here();
                self.body.ops[jmp] = Op::Jump { target: end };
            }
            Expr::Call { callee, args, line } => {
                self.body.ops.push(Op::Line(*line));
                let Expr::Ident { name, .. } = callee.as_ref() else {
                    self.body.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                    return;
                };
                let cx = self.cx;
                if let Some(&fidx) = cx.names.funcs.get(name) {
                    for a in args {
                        self.emit_expr(a);
                    }
                    // Whether inlined or not, the callee's definition
                    // steers this lowering (`should_inline` reads it).
                    if !self.reads.contains(&fidx) {
                        self.reads.push(fidx);
                    }
                    let func = cx.funcs[fidx as usize];
                    if self.should_inline(fidx, func, args.len()) {
                        self.emit_inline_call(fidx, func);
                    } else {
                        self.body.ops.push(Op::CallUser { fidx, argc: args.len() as u8 });
                    }
                } else if let Some(which) = builtin_of(name) {
                    for a in args {
                        self.emit_expr(a);
                    }
                    self.body.ops.push(Op::CallBuiltin { which, argc: args.len() as u8, line: *line });
                } else {
                    // Declared-but-undefined prototype: faults before any
                    // argument evaluates, like the tree-walker.
                    self.body.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                }
            }
            Expr::Member { base, field, arrow: false, line } if !is_lvalue_expr(base) => {
                self.body.ops.push(Op::Line(*line));
                self.emit_expr(base);
                let fidx = self.field_index(field);
                self.body.ops.push(Op::MemberValue { fidx, line: *line });
            }
            Expr::Index { line, .. } | Expr::Member { line, .. } => {
                self.body.ops.push(Op::Line(*line));
                self.emit_lvalue(e);
                self.body.ops.push(Op::ReadPlace { line: *line });
            }
            Expr::Cast { ty, expr, line } => {
                self.body.ops.push(Op::Line(*line));
                self.emit_expr(expr);
                self.body.ops.push(Op::Cast { kind: CastKind::of(ty), line: *line });
            }
            Expr::IncDec { expr, inc, prefix, line } => {
                self.body.ops.push(Op::Line(*line));
                self.emit_lvalue(expr);
                self.body.ops.push(Op::IncDec { inc: *inc, prefix: *prefix, line: *line });
            }
            Expr::Comma { lhs, rhs } => {
                // `eval` burns the comma's own (= rhs's) line first.
                self.body.ops.push(Op::Line(rhs.line()));
                self.emit_expr(lhs);
                self.body.ops.push(Op::Pop);
                self.emit_expr(rhs);
            }
        }
    }

    fn emit_lvalue(&mut self, e: &Expr) {
        match e {
            Expr::Ident { name, line } => self.body.ops.push(match self.resolve(name) {
                Some(var) => Op::PlaceVar { var, line: *line },
                None => Op::Trap { kind: FaultKind::BadValue, line: *line },
            }),
            Expr::Unary { op: UnOp::Deref, expr, line } => {
                self.emit_expr(expr);
                self.body.ops.push(Op::PtrPlace { line: *line });
            }
            Expr::Index { base, index, line } => {
                self.emit_expr(base);
                self.emit_expr(index);
                self.body.ops.push(Op::IndexPlace { line: *line, idx_line: index.line() });
            }
            Expr::Member { base, field, arrow, line } => {
                let fidx = self.field_index(field);
                if *arrow {
                    self.emit_expr(base);
                    self.body.ops.push(Op::PtrPlace { line: *line });
                } else {
                    self.emit_lvalue(base);
                }
                self.body.ops.push(Op::MemberStep { fidx, line: *line });
            }
            other => self.body.ops.push(Op::Trap {
                kind: FaultKind::BadValue,
                line: other.line(),
            }),
        }
    }

    // ----- inlining -------------------------------------------------------

    /// Whether a call to `func` is flattened into the caller. Small
    /// leaf-ish functions only — the generated stub accessors
    /// (`reg_get_*`, `dil_get_*_raw`, `get_*`/`set_*`/`mk_*`/`eq_*`) and
    /// the drivers' little wait/select helpers — where the out-of-line
    /// frame machinery costs more than the body. Guards: exact arity
    /// (anything else keeps the call's argument-dropping semantics in one
    /// place), no recursion through the current inline chain, bounded
    /// nesting depth, bounded body size.
    fn should_inline(&self, fidx: u16, func: &Function, argc: usize) -> bool {
        const MAX_INLINE_DEPTH: usize = 4;
        const MAX_INLINE_STMTS: usize = 16;
        self.cx.optimise
            && argc == func.params.len()
            && self.inline_stack.len() < MAX_INLINE_DEPTH
            && !self.inline_stack.contains(&fidx)
            && block_stmts(&func.body) <= MAX_INLINE_STMTS
    }

    /// Lower `func`'s body in place of a `CallUser`, with the arguments
    /// already evaluated on the stack. Byte-equivalent to the real call:
    /// `InlineEnter` replays the depth check and the parameter-object
    /// churn, the body's `return`s unwind their scopes and jump to the
    /// closing `InlineExit`, and falling off the end yields 0 — so object
    /// ids, burns, faults and `StackOverflow` sites all match the
    /// tree-walking oracle's out-of-line execution exactly.
    fn emit_inline_call(&mut self, fidx: u16, func: &Function) {
        self.inline_stack.push(fidx);
        let coerces: Vec<Coerce> = func.params.iter().map(|(_, ty)| Coerce::of(ty)).collect();
        let coerces = self.intern_coerces(coerces);
        // The frame scope: emitted via InlineEnter's scope entry. The
        // callee must not see the caller's locals, so resolution floors
        // at this scope for the duration of the body.
        self.scopes.push(LScope { names: Vec::new(), emitted: true });
        let saved_floor = std::mem::replace(&mut self.resolve_floor, self.scopes.len() - 1);
        let first_slot = self.next_slot;
        for (name, _) in &func.params {
            self.declare(name);
        }
        self.body.ops.push(Op::InlineEnter {
            first_slot,
            argc: func.params.len() as u8,
            coerces,
            call_line: u32::MAX,
            line: func.line,
        });
        self.ctxs.push(Ctx {
            kind: CtxKind::Inline,
            scopes_outside: 0, // unused: nothing branches past an inline frame
            scopes_body: self.emitted_scopes(),
            break_patches: Vec::new(), // return-to-exit patches
            continue_patches: Vec::new(),
            continue_target: None,
        });
        for s in &func.body.stmts {
            self.emit_stmt(s);
        }
        // Falling off the end returns 0 (without burning), like `Ret`.
        let cidx = self.intern(Value::Int(0));
        self.body.ops.push(Op::PushConst { cidx });
        let end = self.here();
        let ctx = self.ctxs.pop().expect("inline ctx pushed");
        self.patch(ctx.break_patches, end);
        debug_assert!(ctx.continue_patches.is_empty());
        self.body.ops.push(Op::InlineExit);
        self.scopes.pop();
        self.resolve_floor = saved_floor;
        self.inline_stack.pop();
    }

    /// The innermost context a `break`/`continue` may bind to, never
    /// crossing an inlined frame (the checker guarantees checked code
    /// never tries; this keeps checker-rejected shapes inert).
    fn branch_ctx(&self, loops_only: bool) -> Option<usize> {
        for (i, c) in self.ctxs.iter().enumerate().rev() {
            match c.kind {
                CtxKind::Inline => return None,
                CtxKind::Loop => return Some(i),
                CtxKind::Switch if !loops_only => return Some(i),
                CtxKind::Switch => {}
            }
        }
        None
    }

    // ----- statements -----------------------------------------------------

    fn placeholder(&mut self) -> usize {
        self.body.ops.push(Op::Jump { target: u32::MAX });
        self.body.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.body.ops.len() as u32
    }

    fn emit_block(&mut self, b: &Block) {
        let has_decl = b.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. }));
        if has_decl {
            self.body.ops.push(Op::EnterScope);
        }
        self.scopes.push(LScope { names: Vec::new(), emitted: has_decl });
        for s in &b.stmts {
            self.emit_stmt(s);
        }
        self.scopes.pop();
        if has_decl {
            self.body.ops.push(Op::ExitScope);
        }
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { name, ty, init, line } => {
                self.body.ops.push(Op::Line(*line));
                match (ty, init) {
                    (CType::Array(elem, n), init) => {
                        let template =
                            self.intern_template(vec![self.zero_of(elem); *n]);
                        let mut items = 0u16;
                        if let Some(Init::List(list)) = init {
                            for it in list {
                                self.emit_expr(it);
                            }
                            items = list.len() as u16;
                        }
                        let slot = self.declare(name);
                        self.body.ops.push(Op::DeclArray {
                            slot,
                            template,
                            items,
                            coerce: Coerce::of(elem),
                        });
                    }
                    (CType::Struct(id), Some(Init::List(list))) => {
                        let fields = self.cx.program.structs.get(*id).fields.clone();
                        let template = self.intern_template(
                            fields.iter().map(|(_, t)| self.zero_of(t)).collect(),
                        );
                        let coerces: Vec<Coerce> =
                            fields.iter().map(|(_, t)| Coerce::of(t)).collect();
                        let cidx = self.intern_coerces(coerces);
                        for it in list {
                            self.emit_expr(it);
                        }
                        let slot = self.declare(name);
                        self.body.ops.push(Op::DeclStruct {
                            slot,
                            template,
                            items: list.len() as u16,
                            coerces: cidx,
                        });
                    }
                    (ty, Some(Init::Expr(e))) => {
                        self.emit_expr(e);
                        let slot = self.declare(name);
                        self.body.ops.push(Op::DeclScalar { slot, coerce: Coerce::of(ty) });
                    }
                    (ty, _) => {
                        let template = self.intern_template(vec![self.zero_of(ty)]);
                        let slot = self.declare(name);
                        self.body.ops.push(Op::DeclZero { slot, template });
                    }
                }
            }
            Stmt::Expr(e) => self.emit_expr_stmt(e),
            Stmt::If { cond, then_blk, else_blk } => {
                self.emit_expr(cond);
                let br = self.placeholder();
                self.emit_block(then_blk);
                match else_blk {
                    Some(eb) => {
                        let jmp = self.placeholder();
                        let at_else = self.here();
                        self.body.ops[br] = Op::JumpIfFalse { target: at_else };
                        self.emit_block(eb);
                        let end = self.here();
                        self.body.ops[jmp] = Op::Jump { target: end };
                    }
                    None => {
                        let end = self.here();
                        self.body.ops[br] = Op::JumpIfFalse { target: end };
                    }
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                self.emit_expr(cond);
                let br = self.placeholder();
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: Some(start),
                });
                self.emit_block(body);
                self.body.ops.push(Op::Jump { target: start });
                let end = self.here();
                self.body.ops[br] = Op::JumpIfFalse { target: end };
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                debug_assert!(ctx.continue_patches.is_empty());
            }
            Stmt::DoWhile { body, cond } => {
                let start = self.here();
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                self.emit_block(body);
                let at_cond = self.here();
                self.emit_expr(cond);
                self.body.ops.push(Op::JumpIfTrue { target: start });
                let end = self.here();
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                self.patch(ctx.continue_patches, at_cond);
            }
            Stmt::For { init, cond, step, body } => {
                let has_scope = matches!(init.as_deref(), Some(Stmt::Decl { .. }));
                if has_scope {
                    self.body.ops.push(Op::EnterScope);
                }
                self.scopes.push(LScope { names: Vec::new(), emitted: has_scope });
                if let Some(init) = init {
                    self.emit_stmt(init);
                }
                let start = self.here();
                let br = cond.as_ref().map(|c| {
                    self.emit_expr(c);
                    self.placeholder()
                });
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                self.emit_block(body);
                let at_step = self.here();
                if let Some(st) = step {
                    self.emit_expr_stmt(st);
                }
                self.body.ops.push(Op::Jump { target: start });
                let end = self.here();
                if let Some(br) = br {
                    self.body.ops[br] = Op::JumpIfFalse { target: end };
                }
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                self.patch(ctx.continue_patches, at_step);
                self.scopes.pop();
                if has_scope {
                    self.body.ops.push(Op::ExitScope);
                }
            }
            Stmt::Switch { expr, arms, line } => {
                self.body.ops.push(Op::Line(*line));
                self.emit_expr(expr);
                let enter_scope = arms
                    .iter()
                    .any(|a| a.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. })));
                let table = self.body.switches.len() as u32;
                self.body.switches.push(SwitchTable {
                    cases: Vec::new(),
                    default: None,
                    end: u32::MAX,
                    enter_scope,
                    line: *line,
                });
                self.body.ops.push(Op::Switch { table });
                self.ctxs.push(Ctx {
                    kind: CtxKind::Switch,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: 0, // switches never host `continue` targets
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                // All arms share one runtime scope, entered by the Switch
                // dispatch itself.
                self.scopes.push(LScope { names: Vec::new(), emitted: enter_scope });
                let mut arm_starts = Vec::with_capacity(arms.len());
                for arm in arms {
                    arm_starts.push(self.here());
                    for st in &arm.stmts {
                        self.emit_stmt(st);
                    }
                }
                self.scopes.pop();
                if enter_scope {
                    self.body.ops.push(Op::ExitScope);
                }
                let end = self.here();
                let ctx = self.ctxs.pop().expect("switch ctx pushed");
                self.patch(ctx.break_patches, end);
                debug_assert!(ctx.continue_patches.is_empty());
                let tbl = &mut self.body.switches[table as usize];
                tbl.end = end;
                for (arm, start) in arms.iter().zip(arm_starts) {
                    for l in &arm.labels {
                        match l {
                            CaseLabel::Case(v) => tbl.cases.push((*v, start)),
                            CaseLabel::Default => {
                                if tbl.default.is_none() {
                                    tbl.default = Some(start);
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Return(e, line) => {
                self.body.ops.push(Op::Line(*line));
                match e {
                    Some(e) => self.emit_expr(e),
                    None => {
                        let cidx = self.intern(Value::Int(0));
                        self.body.ops.push(Op::PushConst { cidx });
                    }
                }
                // Inside an inlined body, `return` unwinds the scopes it
                // opened and jumps to the frame's `InlineExit`; a real
                // `Ret` would tear down the whole (caller's) frame.
                match self.ctxs.iter().rposition(|c| matches!(c.kind, CtxKind::Inline)) {
                    Some(i) => {
                        let unwind = self.emitted_scopes() - self.ctxs[i].scopes_body;
                        for _ in 0..unwind {
                            self.body.ops.push(Op::ExitScope);
                        }
                        let p = self.placeholder();
                        self.ctxs[i].break_patches.push(p);
                    }
                    None => self.body.ops.push(Op::Ret),
                }
            }
            Stmt::Break(line) => {
                self.body.ops.push(Op::Line(*line));
                if let Some(i) = self.branch_ctx(false) {
                    let unwind = self.emitted_scopes() - self.ctxs[i].scopes_outside;
                    for _ in 0..unwind {
                        self.body.ops.push(Op::ExitScope);
                    }
                    let p = self.placeholder();
                    self.ctxs[i].break_patches.push(p);
                }
                // `break` outside any loop/switch is checker-rejected.
            }
            Stmt::Continue(line) => {
                self.body.ops.push(Op::Line(*line));
                if let Some(i) = self.branch_ctx(true) {
                    let unwind = self.emitted_scopes() - self.ctxs[i].scopes_body;
                    for _ in 0..unwind {
                        self.body.ops.push(Op::ExitScope);
                    }
                    match self.ctxs[i].continue_target {
                        Some(t) => self.body.ops.push(Op::Jump { target: t }),
                        None => {
                            let p = self.placeholder();
                            self.ctxs[i].continue_patches.push(p);
                        }
                    }
                }
            }
            Stmt::Block(b) => self.emit_block(b),
            Stmt::Empty => {}
        }
    }

    /// An expression evaluated for effect only (expression statements and
    /// `for` steps). Statement-level stores to plain variables are the
    /// bulk of driver hot loops; fuse them so the value never round-trips
    /// through the stacks. The burn sequence and fault behaviour are
    /// unchanged (`PlaceVar`, `Store` and `Pop` never burn).
    fn emit_expr_stmt(&mut self, e: &Expr) {
        let var = |target: &Expr| match target {
            Expr::Ident { name, .. } => self.resolve(name),
            _ => None,
        };
        match e {
            Expr::Assign { op, lhs, rhs, line } => {
                if let Some(var) = var(lhs) {
                    self.body.ops.push(Op::Line(*line));
                    self.emit_expr(rhs);
                    self.body.ops.push(match op {
                        None => Op::StoreVarPop { var, line: *line },
                        Some(op) => Op::StoreOpVarPop { var, op: *op, line: *line },
                    });
                    return;
                }
            }
            Expr::IncDec { expr, inc, line, .. } => {
                if let Some(var) = var(expr) {
                    self.body.ops.push(Op::Line(*line));
                    self.body.ops.push(Op::IncDecVarPop { var, inc: *inc, line: *line });
                    return;
                }
            }
            _ => {}
        }
        self.emit_expr(e);
        self.body.ops.push(Op::Pop);
    }

    fn patch(&mut self, patches: Vec<usize>, target: u32) {
        for p in patches {
            self.body.ops[p] = Op::Jump { target };
        }
    }

    // ----- items ----------------------------------------------------------

    fn lower_function(&mut self, f: &Function) -> BFunc {
        // The frame scope (params + body top-level decls) is pushed by the
        // call machinery itself, so it is "emitted" without an op.
        self.scopes.push(LScope { names: Vec::new(), emitted: true });
        let mut params = Vec::with_capacity(f.params.len());
        for (name, ty) in &f.params {
            self.declare(name);
            params.push(Coerce::of(ty));
        }
        // Body statements run inline in the frame scope, exactly like
        // `exec_block_inline` in the tree-walker.
        for s in &f.body.stmts {
            self.emit_stmt(s);
        }
        // Falling off the end returns 0 (without burning fuel).
        let cidx = self.intern(Value::Int(0));
        self.body.ops.push(Op::PushConst { cidx });
        self.body.ops.push(Op::Ret);
        self.scopes.pop();
        BFunc {
            name: f.name.clone(),
            body: std::mem::take(&mut self.body),
            slots: self.next_slot,
            params: params.into_boxed_slice(),
            line: f.line,
        }
    }

    fn lower_global(&mut self, g: &Global) -> BGlobal {
        // Mirror `ensure_globals`: aggregates store evaluated items *raw*,
        // scalars coerce; missing initialisers clone the zero template.
        let finish = match (&g.ty, &g.init) {
            (CType::Array(elem, n), init) => {
                let template = self.intern_template(vec![self.zero_of(elem); *n]);
                let mut items = 0u16;
                if let Some(Init::List(list)) = init {
                    for it in list {
                        self.emit_expr(it);
                    }
                    items = list.len() as u16;
                }
                if items == 0 {
                    GFinish::Zero { template }
                } else {
                    GFinish::Array { template, items }
                }
            }
            (ty, Some(Init::Expr(e))) => {
                self.emit_expr(e);
                GFinish::Scalar { coerce: Coerce::of(ty) }
            }
            (CType::Struct(id), Some(Init::List(list))) => {
                let fields = &self.cx.program.structs.get(*id).fields;
                let template =
                    self.intern_template(fields.iter().map(|(_, t)| self.zero_of(t)).collect());
                for it in list {
                    self.emit_expr(it);
                }
                GFinish::Struct { template, items: list.len() as u16 }
            }
            (ty, _) => {
                let template = self.intern_template(vec![self.zero_of(ty)]);
                GFinish::Zero { template }
            }
        };
        BGlobal {
            name: g.name.clone(),
            body: std::mem::take(&mut self.body),
            finish,
            line: g.line,
        }
    }
}

/// Recursive statement count of a block — the inlining size metric
/// (statements are a good proxy for emitted ops in the C subset; the
/// limit in [`Lower::should_inline`] is calibrated to the generated stub
/// accessors and the drivers' small wait/select helpers).
fn block_stmts(b: &Block) -> usize {
    b.stmts.iter().map(stmt_count).sum()
}

fn stmt_count(s: &Stmt) -> usize {
    1 + match s {
        Stmt::If { then_blk, else_blk, .. } => {
            block_stmts(then_blk) + else_blk.as_ref().map_or(0, block_stmts)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => block_stmts(body),
        Stmt::For { init, body, .. } => {
            init.as_deref().map_or(0, stmt_count) + block_stmts(body)
        }
        Stmt::Switch { arms, .. } => arms
            .iter()
            .map(|a| a.stmts.iter().map(stmt_count).sum::<usize>())
            .sum(),
        Stmt::Block(b) => block_stmts(b),
        _ => 0,
    }
}

/// Integer binary operator evaluation for folding — the `Int × Int` arm of
/// `Interpreter::apply_binop`, returning `None` for anything that would
/// fault at run time (division by zero stays unfolded).
fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
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
        LogAnd | LogOr => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn lowers_a_driver_shaped_program() {
        let p = compile(
            "t.c",
            "unsigned short buf[4];\n\
             int f(int n) {\n\
               int i;\n\
               int acc = 0;\n\
               for (i = 0; i < n; i++) { acc += buf[i & 3]; }\n\
               switch (acc) { case 0: return 1; default: break; }\n\
               return acc;\n\
             }",
        )
        .unwrap();
        let c = p.to_bytecode();
        assert_eq!(c.function_count(), 1);
        assert_eq!(c.globals.len(), 1);
        assert!(c.funcs[0].slots >= 3, "n, i, acc get slots");
        assert!(matches!(c.funcs[0].body.ops.last(), Some(Op::Ret)));
        assert_eq!(c.funcs[0].body.switches.len(), 1);
    }

    #[test]
    fn constant_subtrees_fold_with_burns_preserved() {
        let p = compile("t.c", "int f(void) { return (3 + 4) * 2; }").unwrap();
        // The unfused encoding: lowering shapes, before the peephole pass.
        let c = p.to_bytecode_unfused();
        // The whole arithmetic subtree folds to one ConstN carrying the
        // five-node burn sequence (mul, add, 3, 4, 2).
        let body = &c.funcs[0].body;
        let folded = body.ops.iter().find_map(|op| match op {
            Op::ConstN { cidx, seq } => Some((*cidx, *seq)),
            _ => None,
        });
        let (cidx, seq) = folded.expect("constant subtree folds to ConstN");
        assert_eq!(body.consts[cidx as usize], Value::Int(14));
        assert_eq!(body.burn_seqs[seq as usize].len(), 5);
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        let p = compile("t.c", "int f(void) { return 1 / 0; }").unwrap();
        let c = p.to_bytecode_unfused();
        assert!(
            c.funcs[0].body.ops.iter().any(|op| matches!(
                op,
                Op::Bin { op: BinOp::Div, .. } | Op::BinConst { op: BinOp::Div, .. }
            )),
            "faulting division must stay a runtime op: {:?}",
            c.funcs[0].body.ops
        );
    }

    #[test]
    fn string_literals_intern_once() {
        let p = compile(
            "t.c",
            r#"int f(void) { return strcmp("abc", "abc"); }"#,
        )
        .unwrap();
        let c = p.to_bytecode();
        let strs = c.funcs[0]
            .body
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Str(_)))
            .count();
        assert_eq!(strs, 1, "identical literals share one constant");
    }
}
