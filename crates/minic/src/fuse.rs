//! The superinstruction peephole pass.
//!
//! Rewrites a lowered function's op vector, collapsing the polling-loop
//! shapes documented in [`crate::bytecode`] into single [`Op::FusedBr`] /
//! [`Op::IncDecJmp`] dispatches. The pass is purely structural: every
//! fused op replays the exact burn sequence, side effects and fault sites
//! of the ops it replaces, so the VM stays bit-identical to the
//! tree-walking oracle with fusion on or off.
//!
//! # Branch-in safety
//!
//! A fused op occupies one index, so a jump may land on the *first* op of
//! a fused span but never inside it. Before matching, the pass collects
//! every branch-in point — explicit jump targets, switch case/default/end
//! targets — and vetoes any candidate span with an interior target. All
//! surviving targets are then remapped through the old→new index map
//! (including the function's switch tables). Loop heads are pattern
//! *starts* by construction (`emit_expr` emits the condition's `Line`
//! first), so the common back-edges still land on fused ops.
//!
//! Global initialisers are never fused: they are checker-enforced
//! constant expressions with no loops to win back.

use crate::bytecode::{Body, Builtin, FuseEnd, FuseRhs, FuseSrc, FuseStage, FusedOp, Op, Var};

/// Run the pass over one lowered function body, in place, appending its
/// superinstructions to the body's own `fused` table. Idempotent:
/// already-fused ops never match a pattern again.
pub(crate) fn fuse(body: &mut Body) {
    let ops = std::mem::take(&mut body.ops);
    let (ops, map) = fuse_ops(ops, body);
    // Remap the switch tables through the same index map.
    for t in &mut body.switches {
        for (_, s) in &mut t.cases {
            *s = map[*s as usize];
        }
        if let Some(d) = &mut t.default {
            *d = map[*d as usize];
        }
        t.end = map[t.end as usize];
    }
    body.ops = ops;
}

/// A matched replacement and the number of input ops it covers.
enum Rep {
    Fused(FusedOp),
    IncDecJmp { var: Var, inc: bool, line: u32, target: u32 },
    StoreField { slot: u16, fidx: u16, line: u32 },
    InlineEnter { first_slot: u16, argc: u8, coerces: u32, call_line: u32, line: u32 },
    InlineExitPop,
    InlineExitJmp { target: u32 },
    InlineExitDecl { slot: u16, coerce: crate::bytecode::Coerce },
    InlineExitStore { slot: u16, line: u32 },
}

/// Fuse `ops` (taken out of `body`, whose tables they index), returning
/// the new ops and the old→new index map.
fn fuse_ops(ops: Vec<Op>, body: &mut Body) -> (Vec<Op>, Vec<u32>) {
    let n = ops.len();
    // ----- branch-in points -----------------------------------------------
    let mut is_target = vec![false; n + 1];
    let mark = |t: u32, is_target: &mut Vec<bool>| {
        if let Some(slot) = is_target.get_mut(t as usize) {
            *slot = true;
        }
    };
    for op in &ops {
        match op {
            Op::Jump { target }
            | Op::JumpIfFalse { target }
            | Op::JumpIfTrue { target }
            | Op::BrFalseConst { target }
            | Op::BrTrueConst { target }
            | Op::IncDecJmp { target, .. }
            | Op::InlineExitJmp { target } => mark(*target, &mut is_target),
            Op::FusedBr { idx } => {
                let f = &body.fused[*idx as usize];
                if f.has_target() {
                    mark(f.target, &mut is_target);
                }
            }
            Op::Switch { table } => {
                let t = &body.switches[*table as usize];
                for (_, s) in &t.cases {
                    mark(*s, &mut is_target);
                }
                if let Some(d) = t.default {
                    mark(d, &mut is_target);
                }
                mark(t.end, &mut is_target);
            }
            _ => {}
        }
    }
    // ----- scan and rebuild -----------------------------------------------
    let mut out: Vec<Op> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        let new_idx = out.len() as u32;
        match match_at(&ops, i, &is_target) {
            Some((len, rep)) => {
                for slot in &mut map[i..i + len] {
                    *slot = new_idx;
                }
                out.push(match rep {
                    Rep::Fused(f) => {
                        body.fused.push(f);
                        Op::FusedBr { idx: body.fused.len() as u32 - 1 }
                    }
                    Rep::IncDecJmp { var, inc, line, target } => {
                        Op::IncDecJmp { var, inc, line, target }
                    }
                    Rep::StoreField { slot, fidx, line } => {
                        Op::StoreFieldLocalPop { slot, fidx, line }
                    }
                    Rep::InlineEnter { first_slot, argc, coerces, call_line, line } => {
                        Op::InlineEnter { first_slot, argc, coerces, call_line, line }
                    }
                    Rep::InlineExitPop => Op::InlineExitPop,
                    Rep::InlineExitJmp { target } => Op::InlineExitJmp { target },
                    Rep::InlineExitDecl { slot, coerce } => Op::InlineExitDecl { slot, coerce },
                    Rep::InlineExitStore { slot, line } => Op::InlineExitStore { slot, line },
                });
                i += len;
            }
            None => {
                map[i] = new_idx;
                out.push(ops[i].clone());
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;
    // ----- remap targets --------------------------------------------------
    for op in &mut out {
        match op {
            Op::Jump { target }
            | Op::JumpIfFalse { target }
            | Op::JumpIfTrue { target }
            | Op::BrFalseConst { target }
            | Op::BrTrueConst { target }
            | Op::IncDecJmp { target, .. }
            | Op::InlineExitJmp { target } => *target = map[*target as usize],
            Op::FusedBr { idx } => {
                let f = &mut body.fused[*idx as usize];
                if f.has_target() {
                    f.target = map[f.target as usize];
                }
            }
            _ => {}
        }
    }
    (out, map)
}

/// Try to match a fusable span starting at `at`. Returns the span length
/// and its replacement, or `None` when nothing (profitable) matches. A
/// span is rejected when any op after its first is a branch-in point.
fn match_at(ops: &[Op], at: usize, is_target: &[bool]) -> Option<(usize, Rep)> {
    let n = ops.len();
    let clear = |end: usize| (at + 1..=end).all(|k| !is_target[k]);
    // Leading burns — counted first, materialised only on a successful
    // match (this function runs at every op of every compiled mutant, so
    // the miss path must not allocate).
    let mut j = at;
    while j < n && matches!(ops[j], Op::Line(_)) {
        j += 1;
    }
    let n_pre = j - at;
    let pre_lines = |count: usize| -> Box<[u32]> {
        ops[at..at + count]
            .iter()
            .map(|op| match op {
                Op::Line(l) => *l,
                _ => unreachable!("counted as a Line"),
            })
            .collect()
    };
    // The for-loop step + back-jump pair: exactly `Line; IncDecVarPop; Jump`.
    if n_pre == 1 && j + 1 < n {
        if let (Op::IncDecVarPop { var, inc, line }, Op::Jump { target }) = (&ops[j], &ops[j + 1])
        {
            if clear(j + 1) {
                return Some((
                    j + 2 - at,
                    Rep::IncDecJmp { var: *var, inc: *inc, line: *line, target: *target },
                ));
            }
        }
    }
    // A zero-argument inlined call directly after its call expression's
    // `Line`: fold the burn into the `InlineEnter` itself. (With
    // arguments, their ops separate the two and the `Line` stays.)
    if n_pre == 1 && j < n {
        if let Op::InlineEnter { first_slot, argc, coerces, call_line: u32::MAX, line } =
            ops[j]
        {
            if clear(j) {
                let Op::Line(call_line) = ops[at] else { unreachable!("counted as a Line") };
                return Some((
                    2,
                    Rep::InlineEnter { first_slot, argc, coerces, call_line, line },
                ));
            }
        }
    }
    // A discarded inlined-call result (`InlineExit; Pop`) or a nested
    // call returned straight through (`InlineExit; Jump`), in one
    // dispatch each.
    if n_pre == 0 && j + 1 < n && matches!(ops[j], Op::InlineExit) && clear(j + 1) {
        match &ops[j + 1] {
            Op::Pop => return Some((2, Rep::InlineExitPop)),
            Op::Jump { target } => {
                return Some((2, Rep::InlineExitJmp { target: *target }))
            }
            Op::DeclScalar { slot, coerce } => {
                return Some((2, Rep::InlineExitDecl { slot: *slot, coerce: *coerce }))
            }
            Op::StoreVarPop { var: Var::Local(slot), line } => {
                return Some((2, Rep::InlineExitStore { slot: *slot, line: *line }))
            }
            _ => {}
        }
    }
    // Statement-level member store: the `PlaceVar; MemberStep; Store;
    // Pop` tail of `local.field = <rhs>;` — no leading burn (the
    // statement's `Line` sits before the rhs), no op in the span burns,
    // and single-source-line statements give all three ops one packed
    // line, which is all `Op::StoreFieldLocalPop` carries.
    if n_pre == 0 && j + 3 < n {
        if let (
            Op::PlaceVar { var: Var::Local(slot), line: pl },
            Op::MemberStep { fidx, line: ml },
            Op::Store { line: sl },
            Op::Pop,
        ) = (&ops[j], &ops[j + 1], &ops[j + 2], &ops[j + 3])
        {
            if pl == ml && ml == sl && clear(j + 3) {
                return Some((4, Rep::StoreField { slot: *slot, fidx: *fidx, line: *pl }));
            }
        }
    }
    // Source value.
    let src = match ops.get(j)? {
        Op::LoadVar { var, line } => {
            j += 1;
            FuseSrc::Var { var: *var, line: *line }
        }
        Op::PlaceVar { var: Var::Local(slot), line }
            if matches!(ops.get(j + 1), Some(Op::MemberStep { .. }))
                && matches!(ops.get(j + 2), Some(Op::ReadPlace { .. })) =>
        {
            let Some(Op::MemberStep { fidx, line: ml }) = ops.get(j + 1) else {
                unreachable!("guard matched");
            };
            j += 3;
            FuseSrc::FieldLocal { slot: *slot, fidx: *fidx, place_line: *line, line: *ml }
        }
        Op::PlaceVar { var, line } => {
            let Some(Op::IncDec { inc, prefix, line: op_line }) = ops.get(j + 1) else {
                return None;
            };
            j += 2;
            FuseSrc::IncDec {
                var: *var,
                inc: *inc,
                prefix: *prefix,
                place_line: *line,
                line: *op_line,
            }
        }
        Op::Const { cidx, line } => match ops.get(j + 1) {
            Some(Op::CallBuiltin { which, argc: 1, .. })
                if matches!(which, Builtin::Inb | Builtin::Inw | Builtin::Inl) =>
            {
                j += 2;
                FuseSrc::PortIn { which: *which, cidx: *cidx, port_line: *line }
            }
            _ => {
                j += 1;
                FuseSrc::ConstVal { cidx: *cidx, line: *line }
            }
        },
        Op::ConstN { cidx, seq } => {
            j += 1;
            FuseSrc::ConstSeq { cidx: *cidx, seq: *seq }
        }
        // Anything else: the value may already be on the operand stack (a
        // call result, an earlier fused push). Matched only if a folded
        // middle op below proves the unfused ops would pop right here.
        _ => FuseSrc::StackTop,
    };
    if matches!(src, FuseSrc::StackTop) && n_pre != 0 {
        // Leading `Line`s before a stack-top span belong to enclosing
        // expressions; folding them is burn-order-identical, but an
        // empty-stack mismatch is not representable, so keep the span
        // tight and let the Lines fuse with whatever produced the value.
        return None;
    }
    // A folded struct-field pick of the freshly produced value.
    let field = match ops.get(j) {
        Some(Op::MemberValue { fidx, line }) => {
            j += 1;
            Some((*fidx, *line))
        }
        _ => None,
    };
    // Up to two folded binary stages.
    let mut stages: [Option<FuseStage>; 2] = [None, None];
    for stage in &mut stages {
        *stage = match ops.get(j) {
            Some(Op::BinConst { op, cidx, rhs_line, line }) => {
                j += 1;
                Some(FuseStage {
                    op: *op,
                    rhs: FuseRhs::Const { cidx: *cidx, line: *rhs_line },
                    line: *line,
                })
            }
            Some(Op::LoadVar { var, line: load_line }) => match ops.get(j + 1) {
                Some(Op::Bin { op, line }) => {
                    j += 2;
                    Some(FuseStage {
                        op: *op,
                        rhs: FuseRhs::Var { var: *var, line: *load_line },
                        line: *line,
                    })
                }
                _ => break,
            },
            // `Line; PlaceVar; MemberStep; ReadPlace; Bin` on a local — a
            // member rvalue as the right operand (`a.val == b.val`).
            Some(Op::Line(burn)) => match (ops.get(j + 1), ops.get(j + 2), ops.get(j + 3), ops.get(j + 4)) {
                (
                    Some(Op::PlaceVar { var: Var::Local(slot), line: pl }),
                    Some(Op::MemberStep { fidx, line: ml }),
                    Some(Op::ReadPlace { .. }),
                    Some(Op::Bin { op, line }),
                ) if burn == ml => {
                    j += 5;
                    Some(FuseStage {
                        op: *op,
                        rhs: FuseRhs::FieldLocal {
                            slot: *slot,
                            fidx: *fidx,
                            place_line: *pl,
                            line: *ml,
                        },
                        line: *line,
                    })
                }
                _ => break,
            },
            _ => break,
        };
    }
    let [stage1, stage2] = stages;
    // Optional postfix unaries, in the only order lowering emits them for
    // fusable shapes: a cast of the computed value, then the `&&`/`||`
    // boolean coercion.
    let cast = match ops.get(j) {
        Some(Op::Cast { kind, line }) => {
            j += 1;
            Some((*kind, *line))
        }
        _ => None,
    };
    let coerce_bool = matches!(ops.get(j), Some(Op::CoerceBool));
    if coerce_bool {
        j += 1;
    }
    // The value's consumer: a branch, a store/declaration sink, or (when
    // nothing fusable follows) a plain push.
    let (end, target, len) = match ops.get(j) {
        Some(Op::Jump { target }) => (FuseEnd::Jump, *target, j + 1 - at),
        Some(Op::Const { cidx, line })
            if matches!(
                ops.get(j + 1),
                Some(Op::CallBuiltin { which: Builtin::Outb | Builtin::Outw | Builtin::Outl, argc: 2, .. })
            ) =>
        {
            let Some(Op::CallBuiltin { which, .. }) = ops.get(j + 1) else {
                unreachable!("guard matched");
            };
            let pop = matches!(ops.get(j + 2), Some(Op::Pop));
            let len = if pop { j + 3 - at } else { j + 2 - at };
            (FuseEnd::PortOut { which: *which, cidx: *cidx, line: *line, pop }, 0, len)
        }
        Some(Op::CallBuiltin { which, argc: 1, .. })
            if matches!(which, Builtin::Inb | Builtin::Inw | Builtin::Inl) =>
        {
            (FuseEnd::In { which: *which }, 0, j + 1 - at)
        }
        Some(Op::CallBuiltin { which, argc: 2, .. })
            if matches!(which, Builtin::Outb | Builtin::Outw | Builtin::Outl) =>
        {
            let pop = matches!(ops.get(j + 1), Some(Op::Pop));
            let len = if pop { j + 2 - at } else { j + 1 - at };
            (FuseEnd::OutDyn { which: *which, pop }, 0, len)
        }
        Some(Op::LoadVar { var: Var::Local(slot), line: l1 })
            if matches!(
                (ops.get(j + 1), ops.get(j + 2), ops.get(j + 3)),
                (
                    Some(Op::IndexPlace { line: l2, idx_line: l3 }),
                    Some(Op::Store { line: l4 }),
                    Some(Op::Pop),
                ) if l1 == l2 && l2 == l3 && l3 == l4
            ) =>
        {
            (FuseEnd::StoreIndexLocal { slot: *slot, line: *l1 }, 0, j + 4 - at)
        }
        Some(Op::JumpIfFalse { target }) => (FuseEnd::IfFalse, *target, j + 1 - at),
        Some(Op::JumpIfTrue { target }) => (FuseEnd::IfTrue, *target, j + 1 - at),
        Some(Op::BrFalseConst { target }) => (FuseEnd::FalseConst, *target, j + 1 - at),
        Some(Op::BrTrueConst { target }) => (FuseEnd::TrueConst, *target, j + 1 - at),
        Some(Op::StoreVarPop { var, line }) => {
            (FuseEnd::StoreVar { var: *var, line: *line }, 0, j + 1 - at)
        }
        Some(Op::DeclScalar { slot, coerce }) => {
            (FuseEnd::DeclScalar { slot: *slot, coerce: *coerce }, 0, j + 1 - at)
        }
        Some(Op::PlaceVar { var: Var::Local(slot), line: pl }) => {
            match (ops.get(j + 1), ops.get(j + 2), ops.get(j + 3)) {
                (
                    Some(Op::MemberStep { fidx, line: ml }),
                    Some(Op::Store { line: sl }),
                    Some(Op::Pop),
                ) if pl == ml && ml == sl => (
                    FuseEnd::StoreField { slot: *slot, fidx: *fidx, line: *pl },
                    0,
                    j + 4 - at,
                ),
                _ => (FuseEnd::Push, 0, j - at),
            }
        }
        _ => (FuseEnd::Push, 0, j - at),
    };
    // Profitability: one dispatch must replace at least two. CoerceBool
    // alone is its own op either way, so require real content around it.
    if len < 2 || !clear(at + len - 1) {
        return None;
    }
    // A stack-top source is only sound when some folded op provably pops
    // the stack at this exact point in the unfused encoding: a middle op
    // (field pick, stage, cast, bool coercion) or a value-consuming end.
    if matches!(src, FuseSrc::StackTop)
        && field.is_none()
        && stage1.is_none()
        && cast.is_none()
        && !coerce_bool
        && matches!(end, FuseEnd::Push)
    {
        return None;
    }
    Some((
        len,
        Rep::Fused(FusedOp {
            pre: pre_lines(n_pre),
            src,
            field,
            stage1,
            stage2,
            cast,
            coerce_bool,
            end,
            target,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::interp::{Interpreter, NullHost};
    use crate::value::Value;
    use crate::vm::Vm;

    /// Run a program through the interpreter, the unfused VM and the
    /// fused VM, asserting all observables agree, for a sweep of fuel
    /// budgets (so exhaustion lands on every interesting op boundary).
    fn differential(src: &str, entry: &str, args: &[Value], fuels: &[u64]) {
        let p = compile("t.c", src).expect("test program compiles");
        let unfused = p.to_bytecode_unfused();
        let fused = p.to_bytecode();
        assert_eq!(unfused.fused_op_count(), 0);
        for &fuel in fuels {
            let mut ih = NullHost::default();
            let mut interp = Interpreter::new(&p, &mut ih, fuel);
            let want = interp.call(entry, args);
            let want_fuel = interp.fuel_left();
            let want_cov = interp.coverage().clone();
            drop(interp);
            for compiled in [&unfused, &fused] {
                let mut vh = NullHost::default();
                let mut vm = Vm::new(compiled, &mut vh, fuel);
                let got = vm.call(entry, args);
                assert_eq!(got, want, "result diverged (fuel {fuel}) for {src}");
                assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged (fuel {fuel}) for {src}");
                assert_eq!(*vm.coverage(), want_cov, "coverage diverged (fuel {fuel}) for {src}");
                drop(vm);
                assert_eq!(vh.log, ih.log, "console diverged (fuel {fuel}) for {src}");
            }
        }
    }

    fn fuel_sweep() -> Vec<u64> {
        (0..120).chain([500, 10_000, 1_000_000]).collect()
    }

    #[test]
    fn polling_loop_shapes_fuse_and_stay_identical() {
        let src = "
            int f(int n) {
                int t = 0;
                int retries = 5;
                while (t < n) { t++; }
                do { t = t + 2; } while ((t & 0x100) == 0 && --retries > 0);
                while (--n > 0) { t += n & 3; }
                return t;
            }";
        let c = compile("t.c", src).unwrap().to_bytecode();
        assert!(c.fused_op_count() >= 3, "loop conditions fuse: {}", c.fused_op_count());
        differential(src, "f", &[Value::Int(9)], &fuel_sweep());
    }

    #[test]
    fn status_spin_fuses_the_port_read() {
        let src = "
            int f(void) {
                int polls = 0;
                while ((inb(0x1F7) & 0x80) == 0x80) { polls++; if (polls > 3) return -1; }
                return polls;
            }";
        let c = compile("t.c", src).unwrap().to_bytecode();
        // The spin condition (Line x3, Const, CallBuiltin, BinConst x2,
        // JumpIfFalse — 8 ops) must collapse to one dispatch.
        assert!(c.fused_op_count() >= 1);
        // NullHost floats reads at 0xFF, so the loop spins to the bail-out.
        differential(src, "f", &[], &fuel_sweep());
    }

    #[test]
    fn for_loop_step_fuses_into_incdecjmp() {
        let src = "int f(int n) { int i; int s = 0; for (i = 0; i < n; i++) { s += i; } return s; }";
        let c = compile("t.c", src).unwrap().to_bytecode();
        let has_step = c.funcs[0]
            .body
            .ops
            .iter()
            .any(|op| matches!(op, Op::IncDecJmp { .. }));
        assert!(has_step, "for-loop step+jump must fuse: {:?}", c.funcs[0].body.ops);
        differential(src, "f", &[Value::Int(10)], &fuel_sweep());
    }

    #[test]
    fn local_bound_compare_fuses_via_load_rhs() {
        // `i < n` compares against a *local*, exercising FuseRhs::Var.
        let src = "int f(int n) { int i = 0; while (i < n) { i++; } return i; }";
        let c = compile("t.c", src).unwrap().to_bytecode();
        let load_rhs = c.funcs[0].body.fused.iter().any(|f| {
            f.stage1
                .as_ref()
                .is_some_and(|s| matches!(s.rhs, FuseRhs::Var { var: Var::Local(_), .. }))
        });
        assert!(load_rhs, "load-rhs compare must fuse");
        differential(src, "f", &[Value::Int(7)], &fuel_sweep());
    }

    #[test]
    fn fused_ops_never_swallow_a_branch_in_point() {
        // In `lhs && rhs` the short-circuit BrFalseConst targets the final
        // JumpIf* directly — a branch-in point in the middle of what would
        // otherwise be a fusable rhs span. The branch op must survive as
        // its own instruction; the rhs may only fuse branchlessly.
        let src = "
            int f(int a) {
                int r = 8;
                int hits = 0;
                do { hits++; } while ((a & 1) && --r > 0);
                return hits * 100 + r;
            }";
        let p = compile("t.c", src).unwrap();
        let c = p.to_bytecode();
        // Find every short-circuit op and check its target still lands on
        // a standalone branch op (not inside a fused span).
        let mut checked = 0;
        for f in &c.funcs {
            let body = &f.body;
            for op in &body.ops {
                let target = match op {
                    Op::BrFalseConst { target } | Op::BrTrueConst { target } => *target,
                    Op::FusedBr { idx } => {
                        let fu = &body.fused[*idx as usize];
                        if !matches!(fu.end, FuseEnd::FalseConst | FuseEnd::TrueConst) {
                            continue;
                        }
                        fu.target
                    }
                    _ => continue,
                };
                checked += 1;
                assert!(
                    matches!(
                        body.ops[target as usize],
                        Op::JumpIfFalse { .. } | Op::JumpIfTrue { .. }
                    ),
                    "short-circuit target must stay a branch op: {:?}",
                    body.ops[target as usize]
                );
            }
        }
        assert!(checked >= 1, "test must exercise a short-circuit");
        for a in [0i64, 1, 2, 3] {
            differential(src, "f", &[Value::Int(a)], &fuel_sweep());
        }
    }

    #[test]
    fn switch_case_targets_remap_through_fusion() {
        let src = "
            int f(int x) {
                int r = 0;
                int i;
                for (i = 0; i < 3; i++) {
                    switch (x + i) {
                        case 1: r += 1;
                        case 2: r += 10; break;
                        default: r += 100;
                    }
                }
                return r;
            }";
        for x in [0i64, 1, 2, 5] {
            differential(src, "f", &[Value::Int(x)], &fuel_sweep());
        }
    }


    #[test]
    fn small_calls_inline_and_ops_stay_compact() {
        // The inlining pass must flatten small helpers (no CallUser left)
        // and none of the new encodings may grow `Op` past 16 bytes — the
        // dispatch loop streams these, so size is part of the perf
        // contract.
        assert!(std::mem::size_of::<Op>() <= 16, "Op grew: {}", std::mem::size_of::<Op>());
        let src = "
            static int helper(int a) { return a + 1; }
            int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += helper(i); return s; }";
        let c = compile("t.c", src).unwrap().to_bytecode();
        let inl = c
            .funcs
            .iter()
            .flat_map(|f| &f.body.ops)
            .filter(|o| matches!(o, Op::InlineEnter { .. }))
            .count();
        let calls = c
            .funcs
            .iter()
            .flat_map(|f| &f.body.ops)
            .filter(|o| matches!(o, Op::CallUser { .. }))
            .count();
        assert!(inl >= 1, "small helper must inline");
        assert_eq!(calls, 0, "no out-of-line call should remain");
        differential(src, "f", &[Value::Int(12)], &fuel_sweep());
        // Recursion must keep the real call machinery (and its
        // StackOverflow fault), never inline into itself.
        let rec = "int f(int n) { if (n <= 1) return 1; return n * f(n - 1); }";
        let c = compile("t.c", rec).unwrap().to_bytecode();
        let calls = c
            .funcs
            .iter()
            .flat_map(|f| &f.body.ops)
            .filter(|o| matches!(o, Op::CallUser { .. }))
            .count();
        assert!(calls >= 1, "recursive calls must stay out of line");
        differential(rec, "f", &[Value::Int(6)], &fuel_sweep());
    }
    #[test]
    fn fusion_is_idempotent() {
        let src = "int f(int n) { int t = 0; while (t < n) { t++; } return t; }";
        let p = compile("t.c", src).unwrap();
        let once = p.to_bytecode();
        let mut twice = once.funcs[0].body.clone();
        fuse(&mut twice);
        assert_eq!(once.funcs[0].body, twice);
    }

    #[test]
    fn faulting_fused_sources_keep_their_sites() {
        // A pointer compared against a constant faults BadValue inside the
        // fused stage exactly where the unfused Bin would.
        let src = "
            int f(void) {
                int a[4];
                int *p = a;
                int n = 0;
                while (p < 3) { n++; }
                return n;
            }";
        differential(src, "f", &[], &fuel_sweep());
    }
}
