//! The type checker — `minic`'s "compile time".
//!
//! Reproduces the error discipline of a Linux kernel build (gcc with
//! warnings promoted to errors) on the supported subset:
//!
//! * undeclared identifiers and implicitly declared functions are errors;
//! * struct types are *nominal* — mixing two different struct types, or a
//!   struct and an integer, is an error (this is exactly the mechanism the
//!   Devil debug stubs exploit, §2.3 of the paper);
//! * pointers and integers do not mix implicitly (explicit casts are fine);
//! * calls are checked for arity and per-argument type;
//! * using a function name as a value, calling a non-function, assigning to
//!   a non-lvalue or to a `const`, and binary operators on structs are all
//!   errors.

use crate::ast::*;
use crate::error::{CError, CPhase};
use crate::types::{CType, StructTable};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// A function signature (user-defined or builtin).
#[derive(Debug, Clone)]
pub struct Sig {
    /// Return type.
    pub ret: CType,
    /// Fixed parameter types.
    pub params: Vec<CType>,
    /// Accepts extra arguments after the fixed ones.
    pub varargs: bool,
}

/// The kernel-environment builtins available to drivers without
/// declaration, mirroring what `<asm/io.h>` + `<linux/kernel.h>` provide.
pub fn builtin_signatures() -> HashMap<String, Sig> {
    let u8t = CType::Int { signed: false, bits: 8 };
    let u16t = CType::Int { signed: false, bits: 16 };
    let u32t = CType::Int { signed: false, bits: 32 };
    let intt = CType::int();
    let cstr = CType::Ptr(Box::new(CType::Int { signed: true, bits: 8 }));
    let vptr = CType::Ptr(Box::new(CType::Void));
    let mut m = HashMap::new();
    let mut def = |name: &str, ret: CType, params: Vec<CType>, varargs: bool| {
        m.insert(name.to_string(), Sig { ret, params, varargs });
    };
    def("inb", u8t.clone(), vec![u16t.clone()], false);
    def("inw", u16t.clone(), vec![u16t.clone()], false);
    def("inl", u32t.clone(), vec![u16t.clone()], false);
    // Linux argument order: value first, then port.
    def("outb", CType::Void, vec![u8t.clone(), u16t.clone()], false);
    def("outw", CType::Void, vec![u16t.clone(), u16t.clone()], false);
    def("outl", CType::Void, vec![u32t.clone(), u16t.clone()], false);
    def("insb", CType::Void, vec![u16t.clone(), vptr.clone(), intt.clone()], false);
    def("insw", CType::Void, vec![u16t.clone(), vptr.clone(), intt.clone()], false);
    def("outsb", CType::Void, vec![u16t.clone(), vptr.clone(), intt.clone()], false);
    def("outsw", CType::Void, vec![u16t.clone(), vptr.clone(), intt.clone()], false);
    def("printk", intt.clone(), vec![cstr.clone()], true);
    def("panic", intt.clone(), vec![cstr.clone()], true);
    def("udelay", CType::Void, vec![u32t.clone()], false);
    def("mdelay", CType::Void, vec![u32t.clone()], false);
    def("strcmp", intt.clone(), vec![cstr.clone(), cstr.clone()], false);
    def("memset", vptr.clone(), vec![vptr.clone(), intt.clone(), u32t.clone()], false);
    def("memcpy", vptr.clone(), vec![vptr.clone(), vptr.clone(), u32t.clone()], false);
    m
}

/// Names declared at file scope: function signatures (builtins
/// included), the names of defined functions, and globals with their
/// `const` flag — the checker's pass-1 environment.
#[derive(Debug, Clone, Default)]
pub(crate) struct Env {
    funcs: HashMap<String, Sig>,
    defined: HashSet<String>,
    globals: HashMap<String, (CType, bool)>,
}

impl Env {
    /// Whether `name` is declared here as a function or a global.
    pub(crate) fn declares(&self, name: &str) -> bool {
        self.funcs.contains_key(name) || self.globals.contains_key(name)
    }

    /// `base` with these declarations added on top, as one environment.
    pub(crate) fn over(self, base: &Env) -> Env {
        let mut env = base.clone();
        env.funcs.extend(self.funcs);
        env.defined.extend(self.defined);
        env.globals.extend(self.globals);
        env
    }
}

/// The environment every unit starts from: the builtins alone.
pub(crate) fn builtins() -> &'static Env {
    static BUILTINS: OnceLock<Env> = OnceLock::new();
    BUILTINS.get_or_init(|| Env { funcs: builtin_signatures(), ..Env::default() })
}

/// Type-check a unit.
///
/// # Errors
///
/// Returns the first violation (a kernel build would report them all, but
/// one is enough to classify a mutant as compile-time detected).
pub fn check(unit: &Unit) -> Result<StructTable, CError> {
    check_items(unit.items(), &unit.structs, builtins())?;
    Ok(unit.structs.clone())
}

/// Check `items` as the file-scope items that follow the declarations in
/// `base`, in three passes: collect signatures and globals, then check
/// global initialisers, then function bodies. Returns what the items
/// declare. Declarations shadow `base` as a later declaration would
/// replace an earlier one, so checking a unit's items in two runs matches
/// one run over all of them only when the second run declares no name the
/// first did: pass 1 of the whole unit ends before pass 2 of the first
/// items begins.
///
/// # Errors
///
/// Returns the first violation.
pub(crate) fn check_items<'a>(
    items: impl Iterator<Item = &'a Item> + Clone,
    structs: &StructTable,
    base: &Env,
) -> Result<Env, CError> {
    let mut cx = Checker {
        structs,
        base,
        env: Env::default(),
        scopes: Vec::new(),
        current_ret: CType::Void,
        loop_depth: 0,
        switch_depth: 0,
    };
    // Pass 1: collect signatures and globals.
    for item in items.clone() {
        match item {
            Item::Proto(p) => {
                let sig = Sig { ret: p.ret.clone(), params: p.params.clone(), varargs: p.varargs };
                if let Some(prev) = cx.func(&p.name) {
                    if prev.params.len() != sig.params.len() || prev.ret != sig.ret {
                        return Err(err(p.line, format!("conflicting declaration of `{}`", p.name)));
                    }
                }
                cx.env.funcs.insert(p.name.clone(), sig);
            }
            Item::Func(f) => {
                let sig = Sig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|(_, t)| t.clone()).collect(),
                    varargs: false,
                };
                if cx.defined(&f.name) {
                    return Err(err(f.line, format!("redefinition of function `{}`", f.name)));
                }
                cx.env.defined.insert(f.name.clone());
                if cx.global(&f.name).is_some() {
                    return Err(err(
                        f.line,
                        format!("`{}` redeclared as a different kind of symbol", f.name),
                    ));
                }
                if let Some(prev) = cx.func(&f.name) {
                    if prev.params.len() != sig.params.len() || prev.ret != sig.ret {
                        return Err(err(
                            f.line,
                            format!("definition of `{}` conflicts with its declaration", f.name),
                        ));
                    }
                }
                cx.env.funcs.insert(f.name.clone(), sig);
            }
            Item::Global(g) => {
                if cx.global(&g.name).is_some() {
                    return Err(err(g.line, format!("redefinition of `{}`", g.name)));
                }
                cx.env.globals.insert(g.name.clone(), (g.ty.clone(), g.is_const));
                if cx.defined(&g.name) || cx.func(&g.name).is_some() {
                    return Err(err(
                        g.line,
                        format!("`{}` redeclared as a different kind of symbol", g.name),
                    ));
                }
                cx.complete_type(&g.ty, g.line)?;
            }
        }
    }
    // Pass 2: check global initialisers.
    for item in items.clone() {
        if let Item::Global(Global { ty, init: Some(init), line, .. }) = item {
            cx.check_init(ty, init, *line)?;
            cx.require_const_init(init, *line)?;
        }
    }
    // Pass 3: check function bodies.
    for item in items {
        let Item::Func(f) = item else { continue };
        cx.current_ret = f.ret.clone();
        cx.scopes.clear();
        cx.scopes.push(HashMap::new());
        for (name, ty) in &f.params {
            cx.complete_type(ty, f.line)?;
            cx.scopes
                .last_mut()
                .expect("scope pushed")
                .insert(name.clone(), ty.clone());
        }
        cx.check_block(&f.body)?;
        cx.scopes.pop();
    }
    Ok(cx.env)
}

fn err(line: u32, msg: impl Into<String>) -> CError {
    // `line` is a packed (file_id, line) pair; the caller re-stamps the
    // file name via `Checker::err` when it can. This fallback keeps the
    // local line readable.
    let (_, local) = crate::token::unpack_line(line);
    CError::new(CPhase::Check, "<unit>", local, msg)
}

struct Checker<'u> {
    structs: &'u StructTable,
    /// Declarations made before the items being checked.
    base: &'u Env,
    /// Declarations the items being checked make; they shadow `base`.
    env: Env,
    scopes: Vec<HashMap<String, CType>>,
    current_ret: CType,
    loop_depth: u32,
    switch_depth: u32,
}

#[derive(Debug, Clone)]
struct Typed {
    ty: CType,
    lvalue: bool,
    constant: bool,
}

impl Typed {
    fn rvalue(ty: CType) -> Typed {
        Typed { ty, lvalue: false, constant: false }
    }

    fn lvalue(ty: CType) -> Typed {
        Typed { ty, lvalue: true, constant: false }
    }
}

impl<'u> Checker<'u> {
    fn func(&self, name: &str) -> Option<&Sig> {
        self.env.funcs.get(name).or_else(|| self.base.funcs.get(name))
    }

    fn global(&self, name: &str) -> Option<&(CType, bool)> {
        self.env.globals.get(name).or_else(|| self.base.globals.get(name))
    }

    fn defined(&self, name: &str) -> bool {
        self.env.defined.contains(name) || self.base.defined.contains(name)
    }

    fn complete_type(&self, ty: &CType, line: u32) -> Result<(), CError> {
        match ty {
            CType::Struct(id) => {
                let def = self.structs.get(*id);
                if def.layout.is_none() {
                    return Err(err(line, format!("storage of incomplete type `struct {}`", def.name)));
                }
                Ok(())
            }
            CType::Array(t, n) => {
                if *n == 0 {
                    return Err(err(line, "zero-length array"));
                }
                self.complete_type(t, line)
            }
            CType::Void => Err(err(line, "variable has type void")),
            _ => Ok(()),
        }
    }

    fn lookup(&self, name: &str) -> Option<(CType, bool)> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some((t.clone(), false));
            }
        }
        self.global(name).cloned()
    }

    fn display(&self, t: &CType) -> String {
        t.display(self.structs).to_string()
    }

    // ----- statements -------------------------------------------------------

    fn check_block(&mut self, b: &Block) -> Result<(), CError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), CError> {
        match s {
            Stmt::Decl { name, ty, init, line } => {
                self.complete_type(ty, *line)?;
                if self
                    .scopes
                    .last()
                    .expect("inside a scope")
                    .contains_key(name)
                {
                    return Err(err(*line, format!("redeclaration of `{name}`")));
                }
                if let Some(init) = init {
                    self.check_init(ty, init, *line)?;
                }
                self.scopes
                    .last_mut()
                    .expect("inside a scope")
                    .insert(name.clone(), ty.clone());
                Ok(())
            }
            Stmt::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.require_scalar(cond)?;
                self.check_block(then_blk)?;
                if let Some(eb) = else_blk {
                    self.check_block(eb)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.require_scalar(cond)?;
                self.loop_depth += 1;
                let r = self.check_block(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::DoWhile { body, cond } => {
                self.loop_depth += 1;
                let r = self.check_block(body);
                self.loop_depth -= 1;
                r?;
                self.require_scalar(cond)
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(c) = cond {
                    self.require_scalar(c)?;
                }
                if let Some(st) = step {
                    self.check_expr(st)?;
                }
                self.loop_depth += 1;
                let r = self.check_block(body);
                self.loop_depth -= 1;
                self.scopes.pop();
                r
            }
            Stmt::Switch { expr, arms, line } => {
                let t = self.check_expr(expr)?;
                if !t.ty.is_integer() {
                    return Err(err(
                        *line,
                        format!("switch quantity is not an integer ({})", self.display(&t.ty)),
                    ));
                }
                let mut seen = HashSet::new();
                for arm in arms {
                    for l in &arm.labels {
                        if !seen.insert(*l) {
                            return Err(err(*line, "duplicate case label in switch"));
                        }
                    }
                }
                self.switch_depth += 1;
                for arm in arms {
                    self.scopes.push(HashMap::new());
                    for st in &arm.stmts {
                        self.check_stmt(st)?;
                    }
                    self.scopes.pop();
                }
                self.switch_depth -= 1;
                Ok(())
            }
            Stmt::Return(e, line) => match (e, self.current_ret.clone()) {
                (None, CType::Void) => Ok(()),
                (None, t) => Err(err(
                    *line,
                    format!("return with no value in function returning {}", self.display(&t)),
                )),
                (Some(e), ret) => {
                    let t = self.check_expr(e)?;
                    if ret == CType::Void {
                        return Err(err(*line, "return with a value in void function"));
                    }
                    if !ret.accepts(&t.ty) {
                        return Err(err(
                            *line,
                            format!(
                                "incompatible return type: expected {}, got {}",
                                self.display(&ret),
                                self.display(&t.ty)
                            ),
                        ));
                    }
                    Ok(())
                }
            },
            Stmt::Break(line) => {
                if self.loop_depth == 0 && self.switch_depth == 0 {
                    return Err(err(*line, "`break` outside loop or switch"));
                }
                Ok(())
            }
            Stmt::Continue(line) => {
                if self.loop_depth == 0 {
                    return Err(err(*line, "`continue` outside loop"));
                }
                Ok(())
            }
            Stmt::Block(b) => self.check_block(b),
            Stmt::Empty => Ok(()),
        }
    }

    fn check_init(&mut self, ty: &CType, init: &Init, line: u32) -> Result<(), CError> {
        match (ty, init) {
            (CType::Array(elem, n), Init::List(items)) => {
                if items.len() > *n {
                    return Err(err(line, "too many initialisers for array"));
                }
                for it in items {
                    let t = self.check_expr(it)?;
                    if !elem.accepts(&t.ty) {
                        return Err(err(
                            line,
                            format!(
                                "array initialiser type {} does not match element type {}",
                                self.display(&t.ty),
                                self.display(elem)
                            ),
                        ));
                    }
                }
                Ok(())
            }
            (CType::Struct(id), Init::List(items)) => {
                let fields = self.structs.get(*id).fields.clone();
                if items.len() > fields.len() {
                    return Err(err(line, "too many initialisers for struct"));
                }
                for (it, (fname, fty)) in items.iter().zip(fields.iter()) {
                    let t = self.check_expr(it)?;
                    if !fty.accepts(&t.ty) {
                        return Err(err(
                            line,
                            format!(
                                "initialiser for field `{fname}` has type {}, expected {}",
                                self.display(&t.ty),
                                self.display(fty)
                            ),
                        ));
                    }
                }
                Ok(())
            }
            (CType::Array(_, _) | CType::Struct(_), Init::Expr(_)) => {
                Err(err(line, "aggregate needs a brace-enclosed initialiser"))
            }
            (scalar, Init::Expr(e)) => {
                let t = self.check_expr(e)?;
                if !scalar.accepts(&t.ty) {
                    return Err(err(
                        line,
                        format!(
                            "initialising {} with incompatible type {}",
                            self.display(scalar),
                            self.display(&t.ty)
                        ),
                    ));
                }
                Ok(())
            }
            (_, Init::List(_)) => Err(err(line, "scalar initialised with a brace list")),
        }
    }

    fn require_const_init(&self, init: &Init, line: u32) -> Result<(), CError> {
        let ok = match init {
            Init::Expr(e) => is_const_expr(e),
            Init::List(items) => items.iter().all(is_const_expr),
        };
        if ok {
            Ok(())
        } else {
            Err(err(line, "initialiser element is not a compile-time constant"))
        }
    }

    fn require_scalar(&mut self, e: &Expr) -> Result<(), CError> {
        let t = self.check_expr(e)?;
        if t.ty.is_integer() || t.ty.is_pointer_like() {
            Ok(())
        } else {
            Err(err(
                e.line(),
                format!("used {} value where a scalar is required", self.display(&t.ty)),
            ))
        }
    }

    // ----- expressions -------------------------------------------------------

    fn check_expr(&mut self, e: &Expr) -> Result<Typed, CError> {
        match e {
            Expr::IntLit { .. } | Expr::CharLit { .. } => Ok(Typed::rvalue(CType::int())),
            Expr::StrLit { .. } => Ok(Typed::rvalue(CType::Ptr(Box::new(CType::Int {
                signed: true,
                bits: 8,
            })))),
            Expr::Ident { name, line } => {
                if let Some((ty, is_const)) = self.lookup(name) {
                    return Ok(Typed { ty, lvalue: true, constant: is_const });
                }
                if self.func(name).is_some() {
                    // A function designator decays to a pointer; using it
                    // as a value drew only a warning from the paper's gcc.
                    return Ok(Typed::rvalue(CType::Ptr(Box::new(CType::Void))));
                }
                Err(err(*line, format!("`{name}` undeclared")))
            }
            Expr::Unary { op, expr, line } => {
                let t = self.check_expr(expr)?;
                match op {
                    UnOp::Neg | UnOp::Plus | UnOp::BitNot => {
                        if !t.ty.is_integer() {
                            return Err(err(
                                *line,
                                format!("invalid operand type {} to unary operator", self.display(&t.ty)),
                            ));
                        }
                        Ok(Typed::rvalue(CType::int()))
                    }
                    UnOp::Not => {
                        if t.ty.is_integer() || t.ty.is_pointer_like() {
                            Ok(Typed::rvalue(CType::int()))
                        } else {
                            Err(err(*line, "invalid operand to `!`"))
                        }
                    }
                    UnOp::Deref => match t.ty.pointee() {
                        Some(p) => Ok(Typed::lvalue(p.clone())),
                        None => Err(err(
                            *line,
                            format!("cannot dereference non-pointer type {}", self.display(&t.ty)),
                        )),
                    },
                    UnOp::AddrOf => {
                        if !t.lvalue {
                            return Err(err(*line, "cannot take the address of an rvalue"));
                        }
                        Ok(Typed::rvalue(CType::Ptr(Box::new(t.ty))))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let l = self.check_expr(lhs)?;
                let r = self.check_expr(rhs)?;
                self.check_binop(*op, &l.ty, &r.ty, *line)
            }
            Expr::Assign { op, lhs, rhs, line } => {
                let l = self.check_expr(lhs)?;
                if !l.lvalue {
                    return Err(err(*line, "assignment target is not an lvalue"));
                }
                if l.constant {
                    return Err(err(*line, "assignment to const-qualified object"));
                }
                if matches!(l.ty, CType::Array(_, _)) {
                    return Err(err(*line, "cannot assign to an array"));
                }
                let r = self.check_expr(rhs)?;
                if let Some(op) = op {
                    // Compound assignment: integer (or pointer +=/-= int).
                    let ok = (l.ty.is_integer() && r.ty.is_integer())
                        || (matches!(l.ty, CType::Ptr(_))
                            && matches!(op, BinOp::Add | BinOp::Sub)
                            && r.ty.is_integer());
                    if !ok {
                        return Err(err(
                            *line,
                            format!(
                                "invalid operands to compound assignment ({} and {})",
                                self.display(&l.ty),
                                self.display(&r.ty)
                            ),
                        ));
                    }
                } else if !l.ty.accepts(&r.ty) {
                    return Err(err(
                        *line,
                        format!(
                            "incompatible types in assignment ({} from {})",
                            self.display(&l.ty),
                            self.display(&r.ty)
                        ),
                    ));
                }
                Ok(Typed::rvalue(l.ty))
            }
            Expr::Cond { cond, then_e, else_e, line } => {
                self.require_scalar(cond)?;
                let a = self.check_expr(then_e)?;
                let b = self.check_expr(else_e)?;
                if a.ty.is_integer() && b.ty.is_integer() {
                    Ok(Typed::rvalue(CType::int()))
                } else if a.ty.accepts(&b.ty) {
                    Ok(Typed::rvalue(a.ty))
                } else if b.ty.accepts(&a.ty) {
                    Ok(Typed::rvalue(b.ty))
                } else {
                    Err(err(
                        *line,
                        format!(
                            "incompatible branch types in `?:` ({} vs {})",
                            self.display(&a.ty),
                            self.display(&b.ty)
                        ),
                    ))
                }
            }
            Expr::Call { callee, args, line } => {
                let Expr::Ident { name, .. } = callee.as_ref() else {
                    // Calling a literal or computed value: exactly the
                    // macro-expansion artefact gcc flags.
                    return Err(err(*line, "called object is not a function"));
                };
                if self.lookup(name).is_some() {
                    return Err(err(*line, format!("called object `{name}` is not a function")));
                }
                let Some(sig) = self.func(name).cloned() else {
                    return Err(err(*line, format!("implicit declaration of function `{name}`")));
                };
                if args.len() < sig.params.len() || (!sig.varargs && args.len() > sig.params.len())
                {
                    return Err(err(
                        *line,
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (i, a) in args.iter().enumerate() {
                    let t = self.check_expr(a)?;
                    if let Some(want) = sig.params.get(i) {
                        if !want.accepts(&t.ty) {
                            return Err(err(
                                *line,
                                format!(
                                    "argument {} of `{name}`: expected {}, got {}",
                                    i + 1,
                                    self.display(want),
                                    self.display(&t.ty)
                                ),
                            ));
                        }
                    }
                }
                Ok(Typed::rvalue(sig.ret))
            }
            Expr::Index { base, index, line } => {
                let b = self.check_expr(base)?;
                let i = self.check_expr(index)?;
                if !i.ty.is_integer() {
                    return Err(err(*line, "array subscript is not an integer"));
                }
                match b.ty.pointee() {
                    Some(p) => Ok(Typed::lvalue(p.clone())),
                    None => Err(err(
                        *line,
                        format!("subscripted value ({}) is not an array or pointer", self.display(&b.ty)),
                    )),
                }
            }
            Expr::Member { base, field, arrow, line } => {
                let b = self.check_expr(base)?;
                let sid = if *arrow {
                    match b.ty.pointee() {
                        Some(CType::Struct(id)) => *id,
                        _ => {
                            return Err(err(
                                *line,
                                format!("`->` on non-pointer-to-struct ({})", self.display(&b.ty)),
                            ));
                        }
                    }
                } else {
                    match b.ty {
                        CType::Struct(id) => id,
                        _ => {
                            return Err(err(
                                *line,
                                format!(
                                    "request for member `{field}` in non-struct ({})",
                                    self.display(&b.ty)
                                ),
                            ));
                        }
                    }
                };
                let def = self.structs.get(sid);
                match def.field_index(field) {
                    Some(i) => Ok(Typed {
                        ty: def.fields[i].1.clone(),
                        lvalue: true,
                        constant: b.constant,
                    }),
                    None => Err(err(
                        *line,
                        format!("no member `{field}` in struct {}", def.name),
                    )),
                }
            }
            Expr::Cast { ty, expr, line } => {
                let t = self.check_expr(expr)?;
                let ok = match (ty, &t.ty) {
                    (CType::Int { .. }, f) if f.is_integer() || f.is_pointer_like() => true,
                    (CType::Ptr(_), f) if f.is_integer() || f.is_pointer_like() => true,
                    (CType::Struct(a), CType::Struct(b)) => a == b,
                    (CType::Void, _) => true,
                    _ => false,
                };
                if !ok {
                    return Err(err(
                        *line,
                        format!(
                            "invalid cast from {} to {}",
                            self.display(&t.ty),
                            self.display(ty)
                        ),
                    ));
                }
                Ok(Typed::rvalue(ty.clone()))
            }
            Expr::IncDec { expr, line, .. } => {
                let t = self.check_expr(expr)?;
                if !t.lvalue {
                    return Err(err(*line, "increment/decrement target is not an lvalue"));
                }
                if t.constant {
                    return Err(err(*line, "increment/decrement of const object"));
                }
                if !(t.ty.is_integer() || matches!(t.ty, CType::Ptr(_))) {
                    return Err(err(*line, "invalid operand to increment/decrement"));
                }
                Ok(Typed::rvalue(t.ty))
            }
            Expr::Comma { lhs, rhs } => {
                self.check_expr(lhs)?;
                let r = self.check_expr(rhs)?;
                Ok(Typed::rvalue(r.ty))
            }
            Expr::SizeofType { ty, line } => {
                // gcc: "invalid application of 'sizeof' to incomplete type".
                let mut elem = ty;
                while let CType::Array(t, _) = elem {
                    elem = t;
                }
                if let CType::Struct(id) = elem {
                    let def = self.structs.get(*id);
                    if def.layout.is_none() {
                        return Err(err(
                            *line,
                            format!("invalid application of `sizeof` to incomplete type `struct {}`", def.name),
                        ));
                    }
                }
                Ok(Typed::rvalue(CType::int()))
            }
        }
    }

    fn check_binop(&self, op: BinOp, l: &CType, r: &CType, line: u32) -> Result<Typed, CError> {
        use BinOp::*;
        if matches!(l, CType::Struct(_)) || matches!(r, CType::Struct(_)) {
            return Err(err(
                line,
                format!(
                    "invalid operands to binary operator ({} and {})",
                    self.display(l),
                    self.display(r)
                ),
            ));
        }
        match op {
            Add => match (l.is_pointer_like(), r.is_pointer_like()) {
                (false, false) if l.is_integer() && r.is_integer() => {
                    Ok(Typed::rvalue(CType::int()))
                }
                (true, false) if r.is_integer() => Ok(Typed::rvalue(decay(l))),
                (false, true) if l.is_integer() => Ok(Typed::rvalue(decay(r))),
                _ => Err(err(line, "invalid operands to `+`")),
            },
            Sub => match (l.is_pointer_like(), r.is_pointer_like()) {
                (false, false) if l.is_integer() && r.is_integer() => {
                    Ok(Typed::rvalue(CType::int()))
                }
                (true, false) if r.is_integer() => Ok(Typed::rvalue(decay(l))),
                (true, true) => Ok(Typed::rvalue(CType::int())),
                _ => Err(err(line, "invalid operands to `-`")),
            },
            Mul | Div | Rem | Shl | Shr | BitAnd | BitOr | BitXor => {
                if l.is_integer() && r.is_integer() {
                    Ok(Typed::rvalue(CType::int()))
                } else {
                    Err(err(
                        line,
                        format!(
                            "invalid operands to arithmetic operator ({} and {})",
                            self.display(l),
                            self.display(r)
                        ),
                    ))
                }
            }
            Eq | Ne | Lt | Gt | Le | Ge => {
                // Pointer/integer comparisons warned but compiled in 2001.
                let scalar = |t: &CType| t.is_integer() || t.is_pointer_like();
                if scalar(l) && scalar(r) {
                    Ok(Typed::rvalue(CType::int()))
                } else {
                    Err(err(
                        line,
                        format!(
                            "comparison between incompatible types ({} and {})",
                            self.display(l),
                            self.display(r)
                        ),
                    ))
                }
            }
            LogAnd | LogOr => {
                let scalar = |t: &CType| t.is_integer() || t.is_pointer_like();
                if scalar(l) && scalar(r) {
                    Ok(Typed::rvalue(CType::int()))
                } else {
                    Err(err(line, "invalid operands to logical operator"))
                }
            }
        }
    }
}

fn decay(t: &CType) -> CType {
    match t {
        CType::Array(e, _) => CType::Ptr(e.clone()),
        other => other.clone(),
    }
}

fn is_const_expr(e: &Expr) -> bool {
    match e {
        Expr::IntLit { .. } | Expr::CharLit { .. } | Expr::StrLit { .. } => true,
        Expr::Unary { op: UnOp::Neg | UnOp::Plus | UnOp::BitNot, expr, .. } => is_const_expr(expr),
        Expr::Binary { lhs, rhs, .. } => is_const_expr(lhs) && is_const_expr(rhs),
        Expr::Cast { expr, .. } => is_const_expr(expr),
        Expr::SizeofType { .. } => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::error::CPhase;
    use crate::{compile, compile_with_includes};

    fn err_of(src: &str) -> String {
        let e = compile("t.c", src).unwrap_err();
        assert_eq!(e.phase, CPhase::Check, "{e}");
        e.message
    }

    const PRELUDE: &str = "typedef unsigned char u8;\ntypedef unsigned short u16;\ntypedef unsigned int u32;\n";

    #[test]
    fn accepts_plain_driver_code() {
        let src = format!(
            "{PRELUDE}
             u8 status(void) {{ return inb(0x1F7); }}
             void cmd(u8 c) {{ outb(c, 0x1F7); }}
             int wait_ready(void) {{
               int t = 10000;
               while (t-- > 0) {{
                 if ((status() & 0x80) == 0) return 1;
               }}
               return 0;
             }}"
        );
        assert!(compile("t.c", &src).is_ok());
    }

    #[test]
    fn undeclared_identifier() {
        assert!(err_of("int f(void) { return undeclared_thing; }").contains("undeclared"));
    }

    #[test]
    fn implicit_function_declaration() {
        assert!(err_of("int f(void) { return g(); }").contains("implicit declaration"));
    }

    #[test]
    fn distinct_structs_do_not_mix() {
        let msg = err_of(
            "struct A_ { int x; }; struct B_ { int x; };
             typedef struct A_ A; typedef struct B_ B;
             void g(A a);
             int f(void) { B b; b.x = 1; g(b); return 0; }",
        );
        assert!(msg.contains("expected struct A_"), "{msg}");
    }

    #[test]
    fn struct_to_int_is_error() {
        let msg = err_of(
            "struct S_ { int x; }; typedef struct S_ S;
             int f(void) { S s; s.x = 0; return s; }",
        );
        assert!(msg.contains("incompatible return type"), "{msg}");
    }

    #[test]
    fn binary_op_on_struct_is_error() {
        let msg = err_of(
            "struct S_ { int x; }; typedef struct S_ S;
             int f(void) { S a; S b; a.x = 0; b.x = 0; return a == b; }",
        );
        assert!(msg.contains("invalid operands"), "{msg}");
    }

    #[test]
    fn pointer_integer_mixing_warns_but_compiles() {
        // The paper's gcc (2001, no -Werror) only warned here; the build
        // proceeded — so this must NOT count as compile-time detection.
        assert!(compile("t.c", "int f(int *p) { int x; x = p; return x; }").is_ok());
    }

    #[test]
    fn explicit_casts_are_fine() {
        assert!(compile("t.c", "int f(int *p) { return (int)p; }").is_ok());
    }

    #[test]
    fn function_as_value_compiles_like_2001_gcc() {
        // A function designator decays to a pointer; passing or storing it
        // as an integer warned but compiled.
        assert!(compile("t.c", "int g(void) { return 1; }\nint f(void) { int x = g; return x; }")
            .is_ok());
        // Multiplicative/bitwise arithmetic on it is still a hard error.
        let msg = err_of("int g(void) { return 1; }\nint f(void) { return g * 2; }");
        assert!(msg.contains("invalid operands"), "{msg}");
    }

    #[test]
    fn calling_non_function_is_error() {
        let msg = err_of("int f(int x) { return x(3); }");
        assert!(msg.contains("not a function"), "{msg}");
        let msg = err_of("int f(int x) { return 0x23c(3); }");
        assert!(msg.contains("not a function"), "{msg}");
    }

    #[test]
    fn arity_is_checked() {
        let msg = err_of("int g(int a, int b) { return a + b; }\nint f(void) { return g(1); }");
        assert!(msg.contains("expects 2"), "{msg}");
    }

    #[test]
    fn argument_types_are_checked() {
        let msg = err_of(
            "struct S_ { int x; }; typedef struct S_ S;
             int g(int a) { return a; }
             int f(void) { S s; s.x = 0; return g(s); }",
        );
        assert!(msg.contains("argument 1"), "{msg}");
    }

    #[test]
    fn builtins_are_known_and_typed() {
        assert!(compile("t.c", "int f(void) { return inb(0x1F7) + inw(0x1F0); }").is_ok());
        let msg = err_of(
            "struct S_ { int x; }; typedef struct S_ S;
             void f(void) { S s; s.x = 0; outb(s, 0x1F7); }",
        );
        assert!(msg.contains("argument 1"), "{msg}");
    }

    #[test]
    fn assignment_to_rvalue_is_error() {
        let msg = err_of("int f(int a) { a + 1 = 2; return a; }");
        assert!(msg.contains("not an lvalue"), "{msg}");
    }

    #[test]
    fn assignment_to_const_global_is_error() {
        let msg = err_of("static const int K = 4;\nint f(void) { K = 5; return K; }");
        assert!(msg.contains("const"), "{msg}");
    }

    #[test]
    fn member_errors() {
        let msg = err_of(
            "struct S_ { int x; }; typedef struct S_ S;
             int f(void) { S s; s.x = 1; return s.y; }",
        );
        assert!(msg.contains("no member `y`"), "{msg}");
        let msg = err_of("int f(int a) { return a.x; }");
        assert!(msg.contains("non-struct"), "{msg}");
    }

    #[test]
    fn subscript_errors() {
        let msg = err_of("int f(int a) { return a[0]; }");
        assert!(msg.contains("not an array or pointer"), "{msg}");
    }

    #[test]
    fn break_continue_placement() {
        assert!(err_of("void f(void) { break; }").contains("break"));
        assert!(err_of("void f(void) { continue; }").contains("continue"));
        assert!(compile("t.c", "void f(void) { while (1) { break; } }").is_ok());
    }

    #[test]
    fn switch_duplicate_case() {
        let msg = err_of(
            "int f(int x) { switch (x) { case 1: return 0; case 1: return 1; } return 2; }",
        );
        assert!(msg.contains("duplicate case"), "{msg}");
    }

    #[test]
    fn return_type_discipline() {
        assert!(err_of("void f(void) { return 3; }").contains("void function"));
        assert!(err_of("int f(void) { return; }").contains("no value"));
    }

    #[test]
    fn global_initialiser_must_be_constant() {
        let msg = err_of("int g(void) { return 1; }\nint x = g();");
        assert!(msg.contains("constant"), "{msg}");
    }

    #[test]
    fn struct_initialiser_field_types() {
        // `const char *f = 3` warned in 2001 gcc but compiled.
        assert!(compile(
            "t.c",
            "struct S_ { const char *f; int t; }; typedef struct S_ S;
             static const S v = {3, 4};
             int use(void) { return v.t; }"
        )
        .is_ok());
        assert!(compile(
            "t.c",
            "struct S_ { const char *f; int t; }; typedef struct S_ S;
             static const S v = {\"x\", 4};
             int use(void) { return v.t; }"
        )
        .is_ok());
    }

    #[test]
    fn incomplete_struct_storage_is_error() {
        let msg = err_of("struct Fwd; // unsupported; use tag-only reference\nint f(void) { struct Fwd x; return 0; }");
        assert!(msg.contains("incomplete"), "{msg}");
    }

    #[test]
    fn sizeof_an_incomplete_struct_is_error() {
        for src in [
            "struct U;\nint f(void) {\n return sizeof(struct U); }",
            "\nint f(void) {\n return sizeof(struct Never); }",
        ] {
            let e = compile("t.c", src).unwrap_err();
            assert_eq!((e.phase, e.line), (CPhase::Check, 3), "{e}");
            assert!(e.message.contains("invalid application of `sizeof` to incomplete type"), "{e}");
        }
        // A pointer to one is complete, and a struct is complete after its body.
        let src = "struct U; int f(void) { return sizeof(struct U *); }
                   struct U { int a; }; int g(void) { return sizeof(struct U); }";
        assert!(compile("t.c", src).is_ok());
    }

    #[test]
    fn generated_debug_header_shape_typechecks() {
        // A miniature of what devil-core's debug backend emits.
        let header = r#"
typedef unsigned char u8;
typedef unsigned short u16;
typedef unsigned int u32;
#define dil_assert(expr) ((expr) ? 0 : panic("Devil assertion failed in file %s line %d", __FILE__, __LINE__))
#define dil_eq(x, y) ( dil_assert(!strcmp(x.filename, y.filename) && x.type == y.type), x.val == y.val)
static u16 dil_base_base;
static u8 dil_cache_ide_select;
struct Drive_t_ { const char *filename; int type; u32 val; };
typedef struct Drive_t_ Drive_t;
static const Drive_t MASTER = {__FILE__, 4, 0x0u};
static const Drive_t SLAVE = {__FILE__, 4, 0x1u};
static void reg_set_ide_select(u8 v)
{
    outb((u8)((v & 0x5fu) | 0xa0u), dil_base_base + 6);
    dil_cache_ide_select = v & 0x5fu;
}
static u8 reg_get_ide_select(void)
{
    u8 v = (u8)inb(dil_base_base + 6);
    dil_assert((v & 0xa0u) == 0xa0u);
    return v;
}
static void set_Drive(Drive_t v)
{
    dil_assert(v.type == 4);
    dil_assert(v.val == 0x1u || v.val == 0x0u);
    reg_set_ide_select((u8)((dil_cache_ide_select & 0xefu) | (v.val << 4)));
}
static Drive_t get_Drive(void)
{
    Drive_t v;
    u32 tmp_v = ((u32)reg_get_ide_select() >> 4) & 0x1u;
    v.filename = __FILE__; v.type = 4; v.val = tmp_v;
    return v;
}
"#;
        let driver = r#"
#include "ide.dil.h"
int probe(void)
{
    set_Drive(MASTER);
    if (dil_eq(get_Drive(), MASTER)) { return 1; }
    return 0;
}
"#;
        let r = compile_with_includes("drv.c", driver, &[("ide.dil.h", header)]);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn type_confusion_in_cdevil_is_compile_error() {
        // Passing the *wrong family's* constant — the mutation the debug
        // stubs exist to catch.
        let header = r#"
typedef unsigned int u32;
struct Drive_t_ { const char *filename; int type; u32 val; };
typedef struct Drive_t_ Drive_t;
struct Irq_t_ { const char *filename; int type; u32 val; };
typedef struct Irq_t_ Irq_t;
static const Drive_t MASTER = {__FILE__, 4, 0x0u};
static const Irq_t IRQ_ON = {__FILE__, 5, 0x1u};
static void set_Drive(Drive_t v) { (void)v; }
"#;
        let bad = "#include \"h.h\"\nvoid f(void) { set_Drive(IRQ_ON); }";
        let e = compile_with_includes("drv.c", bad, &[("h.h", header)]).unwrap_err();
        assert_eq!(e.phase, CPhase::Check);
        assert!(e.message.contains("argument 1"), "{e}");
    }
}
