//! Checked intermediate representation of a Devil specification.
//!
//! The checker ([`crate::check`]) lowers a parsed [`crate::ast::DeviceSpec`]
//! into a [`CheckedSpec`]: names resolved to indices, masks parsed into
//! [`Mask`] bit classes, variable fragments resolved to `(register, bits)`
//! pairs, and access directions computed. Code generation and the stub
//! runtime work exclusively from this IR.

use crate::ast::{Direction, MappingDir};
use std::fmt;

/// Index of a port parameter within a [`CheckedSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub usize);

/// Index of a register within a [`CheckedSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub usize);

/// Index of a variable within a [`CheckedSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

/// Classification of one register bit, from the mask pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskBit {
    /// `.` — carries information when read and written.
    Relevant,
    /// `0` — irrelevant when read, must be written as 0.
    Fixed0,
    /// `1` — irrelevant when read, must be written as 1.
    Fixed1,
    /// `*` — irrelevant in both directions.
    Irrelevant,
}

/// A register's bit-constraint mask.
///
/// Bit 0 of all the `u64` views is the register's least-significant bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    bits: Vec<MaskBit>, // index 0 = LSB
}

impl Mask {
    /// A mask of `size` bits, all relevant (the default when no `mask`
    /// attribute is given).
    pub fn all_relevant(size: u32) -> Self {
        Mask { bits: vec![MaskBit::Relevant; size as usize] }
    }

    /// Parse a pattern written MSB-first (as in the source text).
    ///
    /// Returns `None` if the pattern contains a character outside
    /// `{0, 1, *, .}`.
    pub fn from_pattern(pattern: &str) -> Option<Self> {
        let mut bits = Vec::with_capacity(pattern.len());
        for c in pattern.chars().rev() {
            bits.push(match c {
                '.' => MaskBit::Relevant,
                '0' => MaskBit::Fixed0,
                '1' => MaskBit::Fixed1,
                '*' => MaskBit::Irrelevant,
                _ => return None,
            });
        }
        Some(Mask { bits })
    }

    /// Number of bits in the mask.
    pub fn len(&self) -> u32 {
        self.bits.len() as u32
    }

    /// Whether the mask has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The class of bit `i` (LSB = 0).
    pub fn bit(&self, i: u32) -> MaskBit {
        self.bits[i as usize]
    }

    /// Bitmask of relevant (`.`) positions.
    pub fn relevant(&self) -> u64 {
        self.fold(|b| b == MaskBit::Relevant)
    }

    /// Bitmask of positions forced to one on writes.
    pub fn fixed_ones(&self) -> u64 {
        self.fold(|b| b == MaskBit::Fixed1)
    }

    /// Bitmask of positions forced to zero on writes.
    pub fn fixed_zeros(&self) -> u64 {
        self.fold(|b| b == MaskBit::Fixed0)
    }

    /// Bitmask of positions with *any* fixed value.
    pub fn fixed(&self) -> u64 {
        self.fixed_ones() | self.fixed_zeros()
    }

    /// Transform a raw value so all fixed bits hold their required value and
    /// irrelevant bits are cleared — what the write stub sends on the wire.
    pub fn apply_write(&self, value: u64) -> u64 {
        (value & self.relevant()) | self.fixed_ones()
    }

    /// Whether a value read from the device honours the fixed bits.
    pub fn read_respects_fixed(&self, value: u64) -> bool {
        (value & self.fixed_ones()) == self.fixed_ones()
            && (value & self.fixed_zeros()) == 0
    }

    fn fold(&self, pred: impl Fn(MaskBit) -> bool) -> u64 {
        // Bits beyond 63 cannot be represented in the u64 views; they only
        // arise from invalid sizes the checker rejects separately.
        self.bits
            .iter()
            .take(64)
            .enumerate()
            .filter(|(_, b)| pred(**b))
            .fold(0u64, |acc, (i, _)| acc | (1 << i))
    }
}

impl fmt::Display for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits.iter().rev() {
            f.write_str(match b {
                MaskBit::Relevant => ".",
                MaskBit::Fixed0 => "0",
                MaskBit::Fixed1 => "1",
                MaskBit::Irrelevant => "*",
            })?;
        }
        Ok(())
    }
}

/// A resolved port parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDef {
    /// Parameter name.
    pub name: String,
    /// Data width in bits (8, 16 or 32).
    pub width: u32,
    /// Inclusive valid offset range.
    pub range: (u64, u64),
}

/// A resolved register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterDef {
    /// Register name.
    pub name: String,
    /// Size in bits.
    pub size: u32,
    /// Port used for reads, if readable.
    pub read_port: Option<(PortId, u64)>,
    /// Port used for writes, if writable.
    pub write_port: Option<(PortId, u64)>,
    /// Bit-constraint mask (all-relevant when unspecified).
    pub mask: Mask,
    /// Pre-actions: `(variable, value)` assignments required before access.
    pub pre: Vec<(VarId, u64)>,
}

impl RegisterDef {
    /// Whether the register can be read.
    pub fn readable(&self) -> bool {
        self.read_port.is_some()
    }

    /// Whether the register can be written.
    pub fn writable(&self) -> bool {
        self.write_port.is_some()
    }
}

/// A resolved variable fragment: bits `msb..=lsb` of `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentDef {
    /// Source register.
    pub reg: RegId,
    /// Most significant selected bit.
    pub msb: u32,
    /// Least significant selected bit.
    pub lsb: u32,
}

impl FragmentDef {
    /// Number of bits this fragment contributes.
    pub fn width(&self) -> u32 {
        self.msb - self.lsb + 1
    }

    /// Bitmask of the selected bits within the register.
    pub fn reg_mask(&self) -> u64 {
        let w = self.width();
        if w >= 64 {
            u64::MAX
        } else {
            ((1u64 << w) - 1) << self.lsb
        }
    }
}

/// A resolved variable type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarType {
    /// `int(n)` / `signed int(n)`.
    Int {
        /// Sign-extended?
        signed: bool,
        /// Width in bits.
        bits: u32,
    },
    /// `bool` — one bit.
    Bool,
    /// Symbolic value mapping; patterns resolved to integers.
    Enum {
        /// `(symbol, direction, value)` arms.
        arms: Vec<(String, MappingDir, u64)>,
    },
    /// Fixed set of allowed integers (sorted, deduplicated).
    IntSet {
        /// Allowed values.
        values: Vec<u64>,
    },
}

impl VarType {
    /// Whether `raw` (the bits read from the device, zero-extended) is a
    /// legal value of this type — the debug stub's post-read assertion.
    pub fn admits(&self, raw: u64, width: u32) -> bool {
        match self {
            VarType::Int { .. } | VarType::Bool => {
                width >= 64 || raw < (1u64 << width)
            }
            VarType::Enum { arms } => arms
                .iter()
                .any(|(_, dir, v)| *dir != MappingDir::Write && *v == raw),
            VarType::IntSet { values } => values.contains(&raw),
        }
    }

    /// A short human name for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            VarType::Int { signed: true, bits } => format!("signed int({bits})"),
            VarType::Int { signed: false, bits } => format!("int({bits})"),
            VarType::Bool => "bool".into(),
            VarType::Enum { arms } => {
                format!("enum of {} symbols", arms.len())
            }
            VarType::IntSet { values } => format!("int set of {} values", values.len()),
        }
    }
}

/// A resolved device variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableDef {
    /// Variable name.
    pub name: String,
    /// Not exported to the driver API.
    pub private: bool,
    /// Value may change under device control.
    pub volatile: bool,
    /// Access trigger, if any.
    pub trigger: Option<Direction>,
    /// Fragments, most significant first.
    pub frags: Vec<FragmentDef>,
    /// The variable's type.
    pub ty: VarType,
    /// Total width in bits.
    pub width: u32,
    /// Whether the driver may read it.
    pub readable: bool,
    /// Whether the driver may write it.
    pub writable: bool,
    /// Specification-unique type identifier (the `type` field of the debug
    /// struct in Figure 4).
    pub type_id: u32,
}

/// A fully checked Devil specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedSpec {
    /// Device name.
    pub name: String,
    /// Port parameters.
    pub ports: Vec<PortDef>,
    /// Registers.
    pub registers: Vec<RegisterDef>,
    /// Variables (public and private).
    pub variables: Vec<VariableDef>,
}

impl CheckedSpec {
    /// The device's name.
    pub fn device_name(&self) -> &str {
        &self.name
    }

    /// Look up a variable by name.
    pub fn variable(&self, name: &str) -> Option<(VarId, &VariableDef)> {
        self.variables
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, v)| (VarId(i), v))
    }

    /// Look up a register by name.
    pub fn register(&self, name: &str) -> Option<(RegId, &RegisterDef)> {
        self.registers
            .iter()
            .enumerate()
            .find(|(_, r)| r.name == name)
            .map(|(i, r)| (RegId(i), r))
    }

    /// Render the Figure-2 style schematic: ports → registers → variables.
    pub fn render_schematic(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("device {}\n", self.name));
        out.push_str("ports:\n");
        for p in &self.ports {
            out.push_str(&format!(
                "  {} : bit[{}] @ {{{}..{}}}\n",
                p.name, p.width, p.range.0, p.range.1
            ));
        }
        out.push_str("registers:\n");
        for r in &self.registers {
            let dir = |p: &Option<(PortId, u64)>, label: &str| {
                p.map(|(pid, off)| format!("{} {}@{}", label, self.ports[pid.0].name, off))
            };
            let mut ends: Vec<String> = Vec::new();
            if let Some(s) = dir(&r.read_port, "read") {
                ends.push(s);
            }
            if let Some(s) = dir(&r.write_port, "write") {
                ends.push(s);
            }
            out.push_str(&format!(
                "  {:<14} bit[{}] mask '{}' {}\n",
                r.name,
                r.size,
                r.mask,
                ends.join(", ")
            ));
            for (var, val) in &r.pre {
                out.push_str(&format!(
                    "    pre: {} = {}\n",
                    self.variables[var.0].name, val
                ));
            }
        }
        out.push_str("variables:\n");
        for v in &self.variables {
            let frags: Vec<String> = v
                .frags
                .iter()
                .map(|f| format!("{}[{}..{}]", self.registers[f.reg.0].name, f.msb, f.lsb))
                .collect();
            out.push_str(&format!(
                "  {}{:<12} = {} : {}\n",
                if v.private { "(private) " } else { "" },
                v.name,
                frags.join(" # "),
                v.ty.describe()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_pattern_round_trip() {
        let m = Mask::from_pattern("1001000.").unwrap();
        assert_eq!(m.to_string(), "1001000.");
        assert_eq!(m.len(), 8);
        assert_eq!(m.bit(0), MaskBit::Relevant);
        assert_eq!(m.bit(7), MaskBit::Fixed1);
        assert_eq!(m.bit(4), MaskBit::Fixed1);
        assert_eq!(m.bit(6), MaskBit::Fixed0);
    }

    #[test]
    fn mask_views() {
        // '1..00000': bit7 fixed 1, bits 6..5 relevant, bits 4..0 fixed 0.
        let m = Mask::from_pattern("1..00000").unwrap();
        assert_eq!(m.relevant(), 0b0110_0000);
        assert_eq!(m.fixed_ones(), 0b1000_0000);
        assert_eq!(m.fixed_zeros(), 0b0001_1111);
    }

    #[test]
    fn apply_write_forces_fixed_bits() {
        let m = Mask::from_pattern("1..00000").unwrap();
        // Writing index=2 (bits 6..5 = 10) must force bit 7 on, rest off.
        assert_eq!(m.apply_write(0b0100_0000), 0b1100_0000);
        // Stray bits outside the relevant window are stripped.
        assert_eq!(m.apply_write(0xFF), 0b1110_0000);
    }

    #[test]
    fn read_respects_fixed_checks_both_polarities() {
        let m = Mask::from_pattern("1.1.....").unwrap();
        assert!(m.read_respects_fixed(0xA0));
        assert!(m.read_respects_fixed(0xFF));
        assert!(!m.read_respects_fixed(0x20)); // bit 7 missing
        assert!(!m.read_respects_fixed(0x80)); // bit 5 missing
        let z = Mask::from_pattern("0.......").unwrap();
        assert!(!z.read_respects_fixed(0x80));
        assert!(z.read_respects_fixed(0x7F));
    }

    #[test]
    fn all_relevant_mask() {
        let m = Mask::all_relevant(8);
        assert_eq!(m.relevant(), 0xFF);
        assert_eq!(m.fixed(), 0);
        assert_eq!(m.apply_write(0x5A), 0x5A);
    }

    #[test]
    fn from_pattern_rejects_bad_chars() {
        assert!(Mask::from_pattern("10x.").is_none());
    }

    #[test]
    fn irrelevant_bits_stripped_on_write() {
        let m = Mask::from_pattern("****....").unwrap();
        assert_eq!(m.apply_write(0xFF), 0x0F);
        assert!(m.read_respects_fixed(0xFF), "no fixed bits to violate");
    }

    #[test]
    fn fragment_geometry() {
        let f = FragmentDef { reg: RegId(0), msb: 6, lsb: 5 };
        assert_eq!(f.width(), 2);
        assert_eq!(f.reg_mask(), 0b0110_0000);
        let whole = FragmentDef { reg: RegId(0), msb: 7, lsb: 0 };
        assert_eq!(whole.reg_mask(), 0xFF);
    }

    #[test]
    fn var_type_admits() {
        let set = VarType::IntSet { values: vec![0, 2, 3] };
        assert!(set.admits(2, 2));
        assert!(!set.admits(1, 2));
        let e = VarType::Enum {
            arms: vec![
                ("A".into(), MappingDir::Both, 1),
                ("B".into(), MappingDir::Write, 0),
            ],
        };
        assert!(e.admits(1, 1));
        // 0 is only a *write* symbol; reading it back is a violation.
        assert!(!e.admits(0, 1));
        let i = VarType::Int { signed: false, bits: 2 };
        assert!(i.admits(3, 2));
        assert!(!i.admits(4, 2));
    }
}
