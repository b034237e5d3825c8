//! The C type representation used by the checker and interpreter.

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

    /// Size in bytes (arrays included), used by `sizeof`.
    pub fn size_bytes(&self, structs: &StructTable) -> usize {
        match self {
            CType::Void => 0,
            CType::Int { bits, .. } => (*bits as usize) / 8,
            CType::Ptr(_) => 4,
            CType::Array(t, n) => t.size_bytes(structs) * n,
            CType::Struct(id) => structs
                .get(*id)
                .fields
                .iter()
                .map(|(_, t)| t.size_bytes(structs))
                .sum(),
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

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Tag name (e.g. `Drive_t_`).
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, CType)>,
}

impl StructDef {
    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(f, _)| f == name)
    }
}

/// All struct definitions of a translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructTable {
    defs: Vec<StructDef>,
}

impl StructTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a struct definition, returning its id. Re-registering a tag
    /// returns the existing id with fields updated if previously empty
    /// (forward declaration support).
    pub fn define(&mut self, def: StructDef) -> StructId {
        if let Some(i) = self.defs.iter().position(|d| d.name == def.name) {
            if self.defs[i].fields.is_empty() {
                self.defs[i] = def;
            }
            StructId(i)
        } else {
            self.defs.push(def);
            StructId(self.defs.len() - 1)
        }
    }

    /// Look up a tag.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.defs.iter().position(|d| d.name == name).map(StructId)
    }

    /// Fetch a definition.
    ///
    /// # Panics
    ///
    /// Panics when `id` did not come from this table.
    pub fn get(&self, id: StructId) -> &StructDef {
        &self.defs[id.0]
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no structs are defined.
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
        let a = t.define(StructDef { name: "A".into(), fields: vec![] });
        let b = t.define(StructDef { name: "B".into(), fields: vec![] });
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
        let id = t.define(StructDef { name: "S".into(), fields: vec![] });
        let id2 = t.define(StructDef {
            name: "S".into(),
            fields: vec![("x".into(), CType::int())],
        });
        assert_eq!(id, id2);
        assert_eq!(t.get(id).fields.len(), 1);
    }

    #[test]
    fn display_renders() {
        let t = StructTable::new();
        let ty = CType::Ptr(Box::new(CType::Int { signed: true, bits: 8 }));
        assert_eq!(ty.display(&t).to_string(), "char *");
    }
}
