//! The C type representation used by the checker and interpreter.

use std::collections::HashMap;
use std::fmt;

/// Index of a struct definition in the [`StructTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructId(pub usize);

/// A C type in the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType {
    /// `void` — only as a return type or behind a pointer.
    Void,
    /// Integer types; `bits` ∈ {8, 16, 32} (`long` maps to 32, matching the
    /// i386 kernels the paper targeted).
    Int {
        /// Signedness.
        signed: bool,
        /// Width in bits.
        bits: u8,
    },
    /// Pointer to another type.
    Ptr(Box<CType>),
    /// One-dimensional array with a known length.
    Array(Box<CType>, usize),
    /// A nominal struct type — the load-bearing piece of the debug stubs.
    Struct(StructId),
}

impl CType {
    /// `int` — the default promotion target.
    pub fn int() -> CType {
        CType::Int { signed: true, bits: 32 }
    }

    /// Whether this is any integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, CType::Int { .. })
    }

    /// Whether the type is a pointer (or an array, which decays to one).
    pub fn is_pointer_like(&self) -> bool {
        matches!(self, CType::Ptr(_) | CType::Array(_, _))
    }

    /// The pointee after array decay, if pointer-like.
    pub fn pointee(&self) -> Option<&CType> {
        match self {
            CType::Ptr(t) => Some(t),
            CType::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Whether a value of type `self` accepts a value of type `from`
    /// without a *fatal* diagnostic, matching the discipline of the gcc
    /// the paper used (circa 2001, no `-Werror`): integers interconvert
    /// freely; pointer↔integer mixing and incompatible pointer assignments
    /// draw *warnings*, which do not stop a kernel build of that era, so
    /// they are accepted here; nominal struct mismatches are hard errors —
    /// which is exactly the property the Devil debug stubs exploit.
    pub fn accepts(&self, from: &CType) -> bool {
        match (self, from) {
            (CType::Int { .. }, CType::Int { .. }) => true,
            (CType::Struct(a), CType::Struct(b)) => a == b,
            // Warnings in 2001 gcc, accepted: ptr <- int, int <- ptr,
            // ptr <- any ptr.
            (CType::Int { .. }, f) if f.is_pointer_like() => true,
            (CType::Ptr(_), CType::Int { .. }) => true,
            (CType::Ptr(_), f) if f.is_pointer_like() => true,
            (CType::Void, CType::Void) => true,
            _ => false,
        }
    }

    /// Size in bytes, as `sizeof` reports it: a struct's is read from its
    /// [`Layout`] (0 while it is declared only), and an array element
    /// takes at least one byte (see [`Layout::size`]).
    pub fn size_bytes(&self, structs: &StructTable) -> usize {
        match self {
            CType::Void => 0,
            CType::Int { bits, .. } => (*bits as usize) / 8,
            CType::Ptr(_) => 4,
            CType::Array(t, n) => t.size_bytes(structs).max(1).saturating_mul(*n),
            CType::Struct(id) => structs.get(*id).layout.map_or(0, |l| l.size),
        }
    }

    /// Render with a struct table for names.
    pub fn display<'a>(&'a self, structs: &'a StructTable) -> TypeDisplay<'a> {
        TypeDisplay { ty: self, structs }
    }
}

/// Helper for rendering a [`CType`] with struct names resolved.
#[derive(Debug)]
pub struct TypeDisplay<'a> {
    ty: &'a CType,
    structs: &'a StructTable,
}

impl fmt::Display for TypeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            CType::Void => f.write_str("void"),
            CType::Int { signed, bits } => {
                let base = match bits {
                    8 => "char",
                    16 => "short",
                    _ => "int",
                };
                if *signed {
                    write!(f, "{base}")
                } else {
                    write!(f, "unsigned {base}")
                }
            }
            CType::Ptr(t) => write!(f, "{} *", t.display(self.structs)),
            CType::Array(t, n) => write!(f, "{}[{n}]", t.display(self.structs)),
            CType::Struct(id) => write!(f, "struct {}", self.structs.get(*id).name),
        }
    }
}

/// What a struct's body fixes when its closing `}` is read. Every field
/// a struct holds by value names a struct defined before it, so nothing
/// defined later can change a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// How many structs and arrays a value of the struct nests, counting
    /// its own level.
    pub depth: u32,
    /// Size in bytes: the sum of its fields' sizes, with no padding. A
    /// field, like an array element, takes at least one byte, so the size
    /// bounds the values either engine stores for the struct even where
    /// it holds empty structs or zero-length arrays. Sums saturate.
    pub size: usize,
}

/// A struct tag of the unit, declared only or defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Tag name (e.g. `Drive_t_`).
    pub name: String,
    /// Ordered fields; empty while declared only.
    pub fields: Vec<(String, CType)>,
    /// The layout its body fixed, or `None` while the struct is declared
    /// only: the one test for an incomplete struct.
    pub layout: Option<Layout>,
}

impl StructDef {
    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(f, _)| f == name)
    }
}

/// All struct tags of a translation unit, by id in order of first mention,
/// with a tag index so declaring or looking up a tag costs one hash probe.
/// A tag gets at most one body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructTable {
    defs: Vec<StructDef>,
    ids: HashMap<String, StructId>,
}

impl StructTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of tag `name`, declared with no body if it is new.
    pub fn declare(&mut self, name: &str) -> StructId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = StructId(self.defs.len());
        self.defs.push(StructDef { name: name.to_string(), fields: Vec::new(), layout: None });
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Give the declared struct `id` its body, and return the layout that
    /// fixes; or, if `id` has a body already, return `None` and change
    /// nothing. Each field's depth and size are read from the layouts of
    /// the structs it holds by value, so a struct held by value must be
    /// defined first; one that is not counts as empty.
    pub fn define(&mut self, id: StructId, fields: Vec<(String, CType)>) -> Option<Layout> {
        if self.get(id).layout.is_some() {
            return None;
        }
        let mut layout = Layout { depth: 1, size: 0 };
        for (_, ty) in &fields {
            let mut depth = 1;
            let mut elem = ty;
            while let CType::Array(inner, _) = elem {
                depth += 1;
                elem = inner;
            }
            if let CType::Struct(held) = elem {
                depth += self.get(*held).layout.map_or(0, |l| l.depth);
            }
            layout.depth = layout.depth.max(depth);
            layout.size = layout.size.saturating_add(ty.size_bytes(self).max(1));
        }
        let def = &mut self.defs[id.0];
        def.fields = fields;
        def.layout = Some(layout);
        Some(layout)
    }

    /// Look up a tag.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.ids.get(name).copied()
    }

    /// Fetch a definition.
    ///
    /// # Panics
    ///
    /// Panics when `id` did not come from this table.
    pub fn get(&self, id: StructId) -> &StructDef {
        &self.defs[id.0]
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no tag is declared.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_interconversion_allowed() {
        let a = CType::Int { signed: true, bits: 32 };
        let b = CType::Int { signed: false, bits: 8 };
        assert!(a.accepts(&b));
        assert!(b.accepts(&a));
    }

    #[test]
    fn distinct_structs_rejected() {
        let mut t = StructTable::new();
        let a = t.declare("A");
        let b = t.declare("B");
        assert!(CType::Struct(a).accepts(&CType::Struct(a)));
        assert!(!CType::Struct(a).accepts(&CType::Struct(b)));
    }

    #[test]
    fn pointer_integer_mixing_warns_only() {
        // 2001 gcc semantics: accepted with a warning (see `accepts`).
        let p = CType::Ptr(Box::new(CType::int()));
        assert!(p.accepts(&CType::int()));
        assert!(CType::int().accepts(&p));
    }

    #[test]
    fn array_decays_to_pointer() {
        let arr = CType::Array(Box::new(CType::Int { signed: false, bits: 16 }), 256);
        let p = CType::Ptr(Box::new(CType::Int { signed: false, bits: 16 }));
        assert!(p.accepts(&arr));
        let wrong = CType::Ptr(Box::new(CType::Int { signed: false, bits: 8 }));
        assert!(wrong.accepts(&arr), "incompatible pointee only warned");
    }

    #[test]
    fn void_pointer_is_wild() {
        let vp = CType::Ptr(Box::new(CType::Void));
        let ip = CType::Ptr(Box::new(CType::int()));
        assert!(vp.accepts(&ip));
        assert!(ip.accepts(&vp));
    }

    #[test]
    fn sizes() {
        let t = StructTable::new();
        assert_eq!(CType::int().size_bytes(&t), 4);
        assert_eq!(CType::Int { signed: false, bits: 8 }.size_bytes(&t), 1);
        assert_eq!(
            CType::Array(Box::new(CType::Int { signed: false, bits: 16 }), 256).size_bytes(&t),
            512
        );
    }

    #[test]
    fn forward_declaration_fills_in() {
        let mut t = StructTable::new();
        let id = t.declare("S");
        assert_eq!(t.get(id).layout, None, "declared only");
        assert_eq!(t.lookup("S"), Some(id));
        assert_eq!(t.declare("S"), id);
        let layout = t.define(id, vec![("x".into(), CType::int())]);
        assert_eq!(layout, Some(Layout { depth: 1, size: 4 }));
        assert_eq!(t.define(id, vec![]), None, "a tag gets one body");
        assert_eq!(t.get(id).layout, layout);
        assert_eq!(t.get(id).fields.len(), 1);
        assert_eq!(CType::Struct(id).size_bytes(&t), 4);
    }

    #[test]
    fn layouts_read_the_structs_held_by_value() {
        let mut t = StructTable::new();
        let empty = t.declare("E");
        assert_eq!(t.define(empty, vec![]), Some(Layout { depth: 1, size: 0 }));
        let inner = t.declare("I");
        let bytes = CType::Array(Box::new(CType::Int { signed: false, bits: 8 }), 3);
        assert_eq!(t.define(inner, vec![("b".into(), bytes)]), Some(Layout { depth: 2, size: 3 }));
        let outer = t.declare("O");
        let pair = CType::Array(Box::new(CType::Struct(inner)), 2);
        let fields = vec![
            ("pair".into(), pair),
            ("e".into(), CType::Struct(empty)),
            ("p".into(), CType::Ptr(Box::new(CType::Struct(outer)))),
        ];
        // Two `I`s, one byte for the empty struct, a pointer.
        assert_eq!(t.define(outer, fields), Some(Layout { depth: 4, size: 11 }));
        let empties = CType::Array(Box::new(CType::Struct(empty)), 5);
        assert_eq!(empties.size_bytes(&t), 5, "an element takes at least a byte");
        let huge = CType::Array(Box::new(CType::Struct(outer)), usize::MAX);
        assert_eq!(huge.size_bytes(&t), usize::MAX, "saturates");
    }

    #[test]
    fn display_renders() {
        let t = StructTable::new();
        let ty = CType::Ptr(Box::new(CType::Int { signed: true, bits: 8 }));
        assert_eq!(ty.display(&t).to_string(), "char *");
    }
}
