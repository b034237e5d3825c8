//! Abstract syntax tree for the C subset.

use crate::types::{CType, StructTable};
use std::sync::Arc;

/// A parsed translation unit.
///
/// Its top-level items are a shared prefix followed by the unit's own
/// items. A unit parsed in full has an empty prefix; a unit resumed from a
/// front-end checkpoint (see [`crate::compile_with_cache`]) shares the
/// checkpoint's prefix items instead of copying them. Equality compares
/// the item sequence, so where the split falls does not matter.
#[derive(Debug, Clone)]
pub struct Unit {
    prefix: Arc<[Item]>,
    items: Vec<Item>,
    /// Struct definitions interned during parsing.
    pub structs: StructTable,
    /// Participating file names; index = the `file_id` packed into AST
    /// `line` fields (see [`crate::token::pack_line`]).
    pub files: Vec<String>,
}

impl PartialEq for Unit {
    fn eq(&self, other: &Unit) -> bool {
        self.items().eq(other.items()) && self.structs == other.structs && self.files == other.files
    }
}

impl Unit {
    /// A unit whose items are `prefix` (shared) followed by `items`.
    pub(crate) fn new(
        prefix: Arc<[Item]>,
        items: Vec<Item>,
        structs: StructTable,
        files: Vec<String>,
    ) -> Unit {
        Unit { prefix, items, structs, files }
    }

    /// Top-level items in source order.
    pub fn items(&self) -> impl Iterator<Item = &Item> + Clone {
        self.prefix.iter().chain(&self.items)
    }

    /// The items after the shared prefix: every item of a unit parsed in
    /// full, the remainder's items of a resumed one.
    pub(crate) fn own_items(&self) -> &[Item] {
        &self.items
    }

    /// The shared prefix items (empty for a unit parsed in full). Two units
    /// whose prefixes are the same allocation hold the same prefix items.
    pub(crate) fn prefix(&self) -> &Arc<[Item]> {
        &self.prefix
    }

    /// Split a unit parsed in full into its items (as one shareable
    /// slice) and its struct table — how a front-end checkpoint keeps a
    /// parsed prefix.
    pub(crate) fn into_shared(self) -> (Arc<[Item]>, StructTable) {
        debug_assert!(self.prefix.is_empty(), "a checkpoint shares a unit parsed in full");
        (Arc::from(self.items), self.structs)
    }

    /// Resolve a packed line id to `(file name, 1-based line)`.
    pub fn file_line(&self, packed: u32) -> (&str, u32) {
        let (fid, line) = crate::token::unpack_line(packed);
        let name = self
            .files
            .get(fid as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>");
        (name, line)
    }

    /// The file id assigned to `name`, if it participated in this unit.
    pub fn file_id(&self, name: &str) -> Option<u16> {
        self.files.iter().position(|f| f == name).map(|i| i as u16)
    }

    /// Iterate over function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Iterate over global variable definitions.
    pub fn globals(&self) -> impl Iterator<Item = &Global> {
        self.items().filter_map(|i| match i {
            Item::Global(g) => Some(g),
            _ => None,
        })
    }
}

/// One top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A global variable (with optional initialiser).
    Global(Global),
    /// A function definition.
    Func(Function),
    /// A function prototype (declaration without body).
    Proto(Prototype),
}

impl Item {
    /// The name the item declares.
    pub(crate) fn name(&self) -> &str {
        match self {
            Item::Global(g) => &g.name,
            Item::Func(f) => &f.name,
            Item::Proto(p) => &p.name,
        }
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: CType,
    /// Initialiser, if any.
    pub init: Option<Init>,
    /// Declared `const`.
    pub is_const: bool,
    /// Source line.
    pub line: u32,
}

/// A function prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct Prototype {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameter types.
    pub params: Vec<CType>,
    /// Trailing `...`.
    pub varargs: bool,
    /// Source line.
    pub line: u32,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Named parameters.
    pub params: Vec<(String, CType)>,
    /// Body.
    pub body: Block,
    /// Source line of the definition.
    pub line: u32,
}

/// An initialiser.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// Scalar initialiser.
    Expr(Expr),
    /// Brace-enclosed list (structs and arrays).
    List(Vec<Expr>),
}

/// A brace block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: CType,
        /// Optional initialiser.
        init: Option<Init>,
        /// Source line.
        line: u32,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if` / `else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch.
        else_blk: Option<Block>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `do { } while` loop.
    DoWhile {
        /// Body.
        body: Block,
        /// Condition (checked after each iteration).
        cond: Expr,
    },
    /// `for` loop.
    For {
        /// Init statement (decl or expression).
        init: Option<Box<Stmt>>,
        /// Condition; absent means always true.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Block,
    },
    /// `switch` with fall-through arms.
    Switch {
        /// Scrutinee.
        expr: Expr,
        /// Arms in order.
        arms: Vec<SwitchArm>,
        /// Source line.
        line: u32,
    },
    /// `return`.
    Return(Option<Expr>, u32),
    /// `break`.
    Break(u32),
    /// `continue`.
    Continue(u32),
    /// Nested block.
    Block(Block),
    /// Stray `;`.
    Empty,
}

/// One arm of a switch; execution falls through to the next arm unless a
/// `break` intervenes.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchArm {
    /// Labels guarding this arm.
    pub labels: Vec<CaseLabel>,
    /// Statements of the arm.
    pub stmts: Vec<Stmt>,
}

/// A case label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseLabel {
    /// `case N:`
    Case(i64),
    /// `default:`
    Default,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `+` (no-op)
    Plus,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `*`
    Deref,
    /// `&`
    AddrOf,
}

/// Binary operators (assignment handled separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer constant.
    IntLit {
        /// Value (always non-negative at parse time).
        value: u64,
        /// Source line.
        line: u32,
    },
    /// Character constant.
    CharLit {
        /// Decoded byte.
        value: u8,
        /// Source line.
        line: u32,
    },
    /// String literal.
    StrLit {
        /// Decoded contents.
        value: String,
        /// Source line.
        line: u32,
    },
    /// Identifier use.
    Ident {
        /// Name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Assignment (plain or compound).
    Assign {
        /// Compound operator, or `None` for `=`.
        op: Option<BinOp>,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Ternary conditional.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_e: Box<Expr>,
        /// Value when false.
        else_e: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Function call; the callee must name a function.
    Call {
        /// Callee expression (checked to be a function designator).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// Array / pointer indexing.
    Index {
        /// Base.
        base: Box<Expr>,
        /// Index.
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Struct member access (`.` or `->`).
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `->` rather than `.`.
        arrow: bool,
        /// Source line.
        line: u32,
    },
    /// Cast.
    Cast {
        /// Target type.
        ty: CType,
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Pre- or post-increment/decrement.
    IncDec {
        /// Target lvalue.
        expr: Box<Expr>,
        /// `++` rather than `--`.
        inc: bool,
        /// Prefix form.
        prefix: bool,
        /// Source line.
        line: u32,
    },
    /// Comma operator.
    Comma {
        /// Discarded operand.
        lhs: Box<Expr>,
        /// Result operand.
        rhs: Box<Expr>,
    },
    /// `sizeof(type)` or `sizeof expr`, resolved to a constant at check time.
    SizeofType {
        /// The measured type.
        ty: CType,
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// Best-effort source line of the expression.
    pub fn line(&self) -> u32 {
        match self {
            Expr::IntLit { line, .. }
            | Expr::CharLit { line, .. }
            | Expr::StrLit { line, .. }
            | Expr::Ident { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cond { line, .. }
            | Expr::Call { line, .. }
            | Expr::Index { line, .. }
            | Expr::Member { line, .. }
            | Expr::Cast { line, .. }
            | Expr::IncDec { line, .. }
            | Expr::SizeofType { line, .. } => *line,
            Expr::Comma { rhs, .. } => rhs.line(),
        }
    }
}
