//! Executable Devil stubs.
//!
//! The Devil compiler's C backend ([`crate::codegen`]) emits textual stubs
//! for a C driver; this module executes the *same semantics* natively
//! against any [`IoBus`] — pre-actions, register caching, mask application,
//! fragment concatenation, and (in [`StubMode::Debug`]) the run-time
//! assertions of §2.3: type-tag checks, value-range checks after reads, and
//! fixed-mask-bit verification.
//!
//! Rust examples, property tests and benches use this runtime; the mutation
//! experiments use the generated C interpreted by `devil-minic`. A
//! differential test in the facade crate checks the two agree access for
//! access.
//!
//! # The compiled access-plan layer
//!
//! The paper's central performance claim is that checked register access
//! is cheap enough to leave enabled in production drivers. To honour that,
//! [`DeviceInstance::new`] *compiles* the bound specification once:
//!
//! * every register gets a `RegPlan` — its resolved port address and
//!   width (base + offset folded together) and its mask pre-split into
//!   `relevant` / `fixed_ones` / `fixed_zeros` bit words;
//! * variable and register names are interned into index tables sorted by
//!   name, so the string-keyed API resolves a name with a binary search
//!   over dense IDs instead of a linear scan over `String`s. Each
//!   instance sorts and owns its tables: binding is a one-time cost (the
//!   mutation campaigns run the generated C, and bind no instance).
//!
//! After construction, the hot paths — [`DeviceInstance::get_by_id`],
//! [`DeviceInstance::set_by_id`], [`DeviceInstance::read_register`] and
//! [`DeviceInstance::write_register`] — operate entirely on borrowed spec
//! data and `Copy` plans: no `clone()`, no `String`, zero heap allocation
//! on success (error paths may allocate; they are off the fast path by
//! definition). The string-keyed [`DeviceInstance::get`] /
//! [`DeviceInstance::set`] remain as thin resolve-then-dispatch wrappers.

use crate::ast::MappingDir;
use crate::ir::{CheckedSpec, RegId, VarId, VarType, VariableDef};
use devil_hwsim::{BusFault, IoBus};
use std::fmt;

/// Whether stubs carry the debug machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StubMode {
    /// Fast path: no run-time checks, values are raw integers.
    Production,
    /// Development path: typed values with tags, assertions on every access.
    #[default]
    Debug,
}

/// A value tagged with its Devil type, mirroring the `{filename, type, val}`
/// struct the debug C backend generates (Figure 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypedValue {
    /// Specification-unique type identifier.
    pub type_id: u32,
    /// Raw bits, zero-extended.
    pub raw: u64,
}

impl TypedValue {
    /// Interpret the raw bits as a signed integer of `width` bits.
    pub fn as_signed(&self, width: u32) -> i64 {
        if width == 0 || width >= 64 {
            return self.raw as i64;
        }
        let sign = 1u64 << (width - 1);
        if self.raw & sign != 0 {
            (self.raw | !((1u64 << width) - 1)) as i64
        } else {
            self.raw as i64
        }
    }
}

impl fmt::Display for TypedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x} (type #{})", self.raw, self.type_id)
    }
}

/// Errors raised by stub execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubError {
    /// The variable does not exist in the specification.
    UnknownVariable(String),
    /// The register does not exist in the specification.
    UnknownRegister(String),
    /// The symbol does not exist in the variable's enumerated type.
    UnknownSymbol {
        /// Variable name.
        variable: String,
        /// Requested symbol.
        symbol: String,
    },
    /// Attempt to access a private variable from driver code.
    PrivateVariable(String),
    /// Read of a variable that is not readable (or write of a non-writable
    /// one).
    DirectionViolation {
        /// Variable name.
        variable: String,
        /// `"read"` or `"write"`.
        attempted: &'static str,
    },
    /// A debug-mode run-time assertion failed — the paper's
    /// `dil_assert`/panic path.
    Assertion {
        /// Variable or register involved.
        subject: String,
        /// What went wrong.
        message: String,
    },
    /// The underlying bus faulted.
    Bus(BusFault),
}

impl fmt::Display for StubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StubError::UnknownVariable(v) => write!(f, "unknown device variable `{v}`"),
            StubError::UnknownRegister(r) => write!(f, "unknown device register `{r}`"),
            StubError::UnknownSymbol { variable, symbol } => {
                write!(f, "`{symbol}` is not a symbol of variable `{variable}`")
            }
            StubError::PrivateVariable(v) => {
                write!(f, "variable `{v}` is private to the specification")
            }
            StubError::DirectionViolation { variable, attempted } => {
                write!(f, "variable `{variable}` does not support {attempted} access")
            }
            StubError::Assertion { subject, message } => {
                write!(f, "Devil assertion failed on `{subject}`: {message}")
            }
            StubError::Bus(fault) => write!(f, "bus fault: {fault}"),
        }
    }
}

impl std::error::Error for StubError {}

impl From<BusFault> for StubError {
    fn from(fault: BusFault) -> Self {
        StubError::Bus(fault)
    }
}

/// One resolved port endpoint of a register: absolute address and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortAccess {
    /// Absolute port address (base + offset, folded at bind time).
    addr: u16,
    /// Data width in bits (8, 16 or 32).
    width: u8,
}

/// A register's compiled access plan: everything the hot path needs,
/// precomputed at [`DeviceInstance::new`] time into `Copy` scalars.
#[derive(Debug, Clone, Copy)]
struct RegPlan {
    /// Resolved read endpoint, if readable.
    read: Option<PortAccess>,
    /// Resolved write endpoint, if writable.
    write: Option<PortAccess>,
    /// Mask bits carrying information (`.`).
    relevant: u64,
    /// Mask bits forced to one on writes / asserted on reads.
    fixed_ones: u64,
    /// Mask bits forced to zero on writes / asserted on reads.
    fixed_zeros: u64,
    /// Whether the register has pre-actions (cheap skip when not).
    has_pre: bool,
}

/// An instantiated device interface: a checked specification bound to
/// concrete base ports, with per-register write caches and compiled
/// access plans (see the module docs).
#[derive(Debug, Clone)]
pub struct DeviceInstance<'s> {
    spec: &'s CheckedSpec,
    mode: StubMode,
    cache: Vec<u64>,
    plans: Vec<RegPlan>,
    /// Variable indices sorted by variable name (dense-ID interning).
    vars_by_name: Vec<u32>,
    /// Register indices sorted by register name.
    regs_by_name: Vec<u32>,
}

impl<'s> DeviceInstance<'s> {
    /// Bind `spec` to one base port per port parameter, compiling the
    /// per-register access plans and the name-interning tables.
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not provide exactly one base per parameter —
    /// that is a harness bug, not a runtime condition.
    pub fn new(spec: &'s CheckedSpec, bases: &[u16], mode: StubMode) -> Self {
        assert_eq!(
            bases.len(),
            spec.ports.len(),
            "expected one base port per port parameter"
        );
        let resolve = |end: Option<(crate::ir::PortId, u64)>| {
            end.map(|(pid, off)| PortAccess {
                addr: bases[pid.0].wrapping_add(off as u16),
                width: spec.ports[pid.0].width as u8,
            })
        };
        let plans = spec
            .registers
            .iter()
            .map(|r| RegPlan {
                read: resolve(r.read_port),
                write: resolve(r.write_port),
                relevant: r.mask.relevant(),
                fixed_ones: r.mask.fixed_ones(),
                fixed_zeros: r.mask.fixed_zeros(),
                has_pre: !r.pre.is_empty(),
            })
            .collect();
        let mut vars_by_name: Vec<u32> = (0..spec.variables.len() as u32).collect();
        vars_by_name.sort_by_key(|&i| &spec.variables[i as usize].name);
        let mut regs_by_name: Vec<u32> = (0..spec.registers.len() as u32).collect();
        regs_by_name.sort_by_key(|&i| &spec.registers[i as usize].name);
        DeviceInstance {
            spec,
            mode,
            cache: vec![0; spec.registers.len()],
            plans,
            vars_by_name,
            regs_by_name,
        }
    }

    /// The specification this instance executes.
    pub fn spec(&self) -> &CheckedSpec {
        self.spec
    }

    /// The stub mode.
    pub fn mode(&self) -> StubMode {
        self.mode
    }

    /// Resolve a variable name to its dense ID without allocating.
    ///
    /// # Errors
    ///
    /// [`StubError::UnknownVariable`] when no variable has this name.
    pub fn var_id(&self, name: &str) -> Result<VarId, StubError> {
        let spec = self.spec;
        self.vars_by_name
            .binary_search_by(|&i| spec.variables[i as usize].name.as_str().cmp(name))
            .map(|pos| VarId(self.vars_by_name[pos] as usize))
            .map_err(|_| StubError::UnknownVariable(name.into()))
    }

    /// Resolve a register name to its dense ID without allocating.
    ///
    /// # Errors
    ///
    /// [`StubError::UnknownRegister`] when no register has this name.
    pub fn register_id(&self, name: &str) -> Result<RegId, StubError> {
        let spec = self.spec;
        self.regs_by_name
            .binary_search_by(|&i| spec.registers[i as usize].name.as_str().cmp(name))
            .map(|pos| RegId(self.regs_by_name[pos] as usize))
            .map_err(|_| StubError::UnknownRegister(name.into()))
    }

    /// Construct the typed value for an enumerated symbol, e.g.
    /// `value_of("Drive", "MASTER")`.
    ///
    /// # Errors
    ///
    /// Fails when the variable or symbol does not exist.
    pub fn value_of(&self, variable: &str, symbol: &str) -> Result<TypedValue, StubError> {
        let v = &self.spec.variables[self.var_id(variable)?.0];
        match &v.ty {
            VarType::Enum { arms } => arms
                .iter()
                .find(|(name, _, _)| name == symbol)
                .map(|(_, _, val)| TypedValue { type_id: v.type_id, raw: *val })
                .ok_or_else(|| StubError::UnknownSymbol {
                    variable: variable.into(),
                    symbol: symbol.into(),
                }),
            _ => Err(StubError::UnknownSymbol {
                variable: variable.into(),
                symbol: symbol.into(),
            }),
        }
    }

    /// Construct a typed integer value for `variable` (the `mk_<var>`
    /// constructor of the generated C).
    ///
    /// # Errors
    ///
    /// Fails when the variable does not exist.
    pub fn int_value(&self, variable: &str, value: u64) -> Result<TypedValue, StubError> {
        let v = &self.spec.variables[self.var_id(variable)?.0];
        Ok(TypedValue { type_id: v.type_id, raw: value })
    }

    /// Read a public device variable — the `get_<var>` stub.
    ///
    /// Thin wrapper over [`DeviceInstance::get_by_id`]: resolve, dispatch.
    ///
    /// # Errors
    ///
    /// Propagates bus faults and, in debug mode, raises
    /// [`StubError::Assertion`] when the value read violates the variable's
    /// type or a register's fixed mask bits.
    pub fn get<B: IoBus>(&mut self, bus: &mut B, variable: &str) -> Result<TypedValue, StubError> {
        let vid = self.var_id(variable)?;
        self.get_by_id(bus, vid)
    }

    /// Write a public device variable — the `set_<var>` stub.
    ///
    /// Thin wrapper over [`DeviceInstance::set_by_id`]: resolve, dispatch.
    ///
    /// # Errors
    ///
    /// Propagates bus faults; in debug mode raises [`StubError::Assertion`]
    /// on a type-tag mismatch (the `dil_eq`-style check) or an illegal value.
    pub fn set<B: IoBus>(
        &mut self,
        bus: &mut B,
        variable: &str,
        value: TypedValue,
    ) -> Result<(), StubError> {
        let vid = self.var_id(variable)?;
        self.set_by_id(bus, vid, value)
    }

    fn variable_def(&self, vid: VarId) -> &'s VariableDef {
        &self.spec.variables[vid.0]
    }

    /// Read a public device variable by dense ID — the allocation-free
    /// fast path behind [`DeviceInstance::get`].
    ///
    /// # Errors
    ///
    /// Rejects private or non-readable variables; propagates bus faults;
    /// in debug mode raises [`StubError::Assertion`] on illegal values.
    pub fn get_by_id<B: IoBus>(&mut self, bus: &mut B, vid: VarId) -> Result<TypedValue, StubError> {
        let v = self.variable_def(vid);
        if v.private {
            return Err(StubError::PrivateVariable(v.name.clone()));
        }
        if !v.readable {
            return Err(StubError::DirectionViolation {
                variable: v.name.clone(),
                attempted: "read",
            });
        }
        self.read_var(bus, vid)
    }

    /// Write a public device variable by dense ID — the allocation-free
    /// fast path behind [`DeviceInstance::set`].
    ///
    /// # Errors
    ///
    /// Rejects private or non-writable variables and (in debug mode) type
    /// tag or value violations; propagates bus faults.
    pub fn set_by_id<B: IoBus>(
        &mut self,
        bus: &mut B,
        vid: VarId,
        value: TypedValue,
    ) -> Result<(), StubError> {
        let v = self.variable_def(vid);
        if v.private {
            return Err(StubError::PrivateVariable(v.name.clone()));
        }
        if !v.writable {
            return Err(StubError::DirectionViolation {
                variable: v.name.clone(),
                attempted: "write",
            });
        }
        if self.mode == StubMode::Debug {
            if value.type_id != v.type_id {
                return Err(StubError::Assertion {
                    subject: v.name.clone(),
                    message: format!(
                        "type tag mismatch: value has type #{}, variable has type #{}",
                        value.type_id, v.type_id
                    ),
                });
            }
            self.assert_value_legal(v.name.as_str(), &v.ty, v.width, value.raw, false)?;
        }
        self.write_var(bus, vid, value.raw)
    }

    /// Fragment-concatenating read, shared by the public paths and the
    /// pre-action machinery (which may touch private variables).
    fn read_var<B: IoBus>(&mut self, bus: &mut B, vid: VarId) -> Result<TypedValue, StubError> {
        let v = self.variable_def(vid);
        let mut raw = 0u64;
        for frag in &v.frags {
            let reg_val = self.read_register(bus, frag.reg)?;
            let w = frag.width();
            let bits = (reg_val >> frag.lsb) & mask_of(w);
            raw = (raw << w) | bits;
        }
        if self.mode == StubMode::Debug {
            self.assert_value_legal(&v.name, &v.ty, v.width, raw, true)?;
        }
        Ok(TypedValue { type_id: v.type_id, raw })
    }

    /// Fragment-scattering write, shared by the public paths and the
    /// pre-action machinery (which may touch private variables).
    fn write_var<B: IoBus>(&mut self, bus: &mut B, vid: VarId, raw: u64) -> Result<(), StubError> {
        let v = self.variable_def(vid);
        let mut remaining = v.width;
        for frag in &v.frags {
            let w = frag.width();
            remaining -= w;
            let bits = (raw >> remaining) & mask_of(w);
            self.write_register_bits(bus, frag.reg, frag.lsb, w, bits)?;
        }
        Ok(())
    }

    /// Read a register through its read port, honouring pre-actions and
    /// debug-mode fixed-bit assertions — the `reg_get_<r>` stub.
    ///
    /// Operates on the compiled `RegPlan`: no clones, no allocation on
    /// success.
    ///
    /// # Errors
    ///
    /// Fails when the register is not readable, on bus faults, or on a
    /// debug-mode mask violation.
    pub fn read_register<B: IoBus>(&mut self, bus: &mut B, reg: RegId) -> Result<u64, StubError> {
        let plan = self.plans[reg.0];
        let Some(pa) = plan.read else {
            return Err(StubError::DirectionViolation {
                variable: self.spec.registers[reg.0].name.clone(),
                attempted: "read",
            });
        };
        if plan.has_pre {
            self.run_pre_actions(bus, reg)?;
        }
        let value = match pa.width {
            8 => bus.inb(pa.addr)? as u64,
            16 => bus.inw(pa.addr)? as u64,
            _ => bus.inl(pa.addr)? as u64,
        };
        if self.mode == StubMode::Debug
            && ((value & plan.fixed_ones) != plan.fixed_ones || (value & plan.fixed_zeros) != 0)
        {
            let r = &self.spec.registers[reg.0];
            return Err(StubError::Assertion {
                subject: r.name.clone(),
                message: format!(
                    "read value {value:#x} violates mask '{}' — specification or device is wrong",
                    r.mask
                ),
            });
        }
        Ok(value)
    }

    /// Write a whole register through its write port (mask applied) — the
    /// `reg_set_<r>` stub.
    ///
    /// Operates on the compiled `RegPlan`: no clones, no allocation on
    /// success.
    ///
    /// # Errors
    ///
    /// Fails when the register is not writable or on bus faults.
    pub fn write_register<B: IoBus>(
        &mut self,
        bus: &mut B,
        reg: RegId,
        value: u64,
    ) -> Result<(), StubError> {
        let plan = self.plans[reg.0];
        let Some(pa) = plan.write else {
            return Err(StubError::DirectionViolation {
                variable: self.spec.registers[reg.0].name.clone(),
                attempted: "write",
            });
        };
        if plan.has_pre {
            self.run_pre_actions(bus, reg)?;
        }
        let wire = (value & plan.relevant) | plan.fixed_ones;
        match pa.width {
            8 => bus.outb(pa.addr, wire as u8)?,
            16 => bus.outw(pa.addr, wire as u16)?,
            _ => bus.outl(pa.addr, wire as u32)?,
        }
        self.cache[reg.0] = value & plan.relevant;
        Ok(())
    }

    fn write_register_bits<B: IoBus>(
        &mut self,
        bus: &mut B,
        reg: RegId,
        lsb: u32,
        width: u32,
        bits: u64,
    ) -> Result<(), StubError> {
        let frag_mask = mask_of(width) << lsb;
        let full = frag_mask == self.plans[reg.0].relevant;
        let value = if full {
            bits << lsb
        } else {
            // Partial update: merge with the cached relevant bits, exactly
            // like the generated `cache.cache_<reg>` dance of Figure 4.
            (self.cache[reg.0] & !frag_mask) | (bits << lsb)
        };
        self.write_register(bus, reg, value)
    }

    fn run_pre_actions<B: IoBus>(&mut self, bus: &mut B, reg: RegId) -> Result<(), StubError> {
        let spec = self.spec;
        for &(vid, value) in &spec.registers[reg.0].pre {
            self.write_var(bus, vid, value)?;
        }
        Ok(())
    }

    fn assert_value_legal(
        &self,
        name: &str,
        ty: &VarType,
        width: u32,
        raw: u64,
        reading: bool,
    ) -> Result<(), StubError> {
        let legal = match ty {
            VarType::Enum { arms } => arms.iter().any(|(_, dir, v)| {
                *v == raw
                    && match dir {
                        MappingDir::Both => true,
                        MappingDir::Read => reading,
                        MappingDir::Write => !reading,
                    }
            }),
            other => other.admits(raw, width),
        };
        if legal {
            Ok(())
        } else {
            Err(StubError::Assertion {
                subject: name.into(),
                message: format!(
                    "{} value {raw:#x} is not a legal {} value",
                    if reading { "read" } else { "written" },
                    ty.describe()
                ),
            })
        }
    }
}

fn mask_of(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use devil_hwsim::devices::Busmouse;
    use devil_hwsim::IoSpace;

    const BUSMOUSE: &str = r#"
device logitech_busmouse (base : bit[8] port @ {0..3})
{
  register sig_reg = base @ 1 : bit[8];
  variable signature = sig_reg, volatile, write trigger : int(8);
  register cr = write base @ 3, mask '1001000.' : bit[8];
  variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
  register interrupt_reg = write base @ 2, mask '000.0000' : bit[8];
  variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };
  register index_reg = write base @ 2, mask '1..00000' : bit[8];
  private variable index = index_reg[6..5] : int(2);
  register x_low  = read base @ 0, pre {index = 0}, mask '****....' : bit[8];
  register x_high = read base @ 0, pre {index = 1}, mask '****....' : bit[8];
  register y_low  = read base @ 0, pre {index = 2}, mask '****....' : bit[8];
  register y_high = read base @ 0, pre {index = 3}, mask '...*....' : bit[8];
  variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
  variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
  variable buttons = y_high[7..5], volatile : int(3);
}
"#;

    const BASE: u16 = 0x23C;

    fn setup(_mode: StubMode) -> (IoSpace, devil_hwsim::DeviceId, CheckedSpec) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 4, Box::new(Busmouse::new())).unwrap();
        let spec = crate::check::check(&parse(BUSMOUSE).unwrap()).unwrap();
        (io, id, spec)
    }

    #[test]
    fn signature_round_trip() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let v = dev.int_value("signature", 0xA5).unwrap();
        dev.set(&mut io, "signature", v).unwrap();
        let back = dev.get(&mut io, "signature").unwrap();
        assert_eq!(back.raw, 0xA5);
    }

    #[test]
    fn motion_read_concatenates_and_signs() {
        let (mut io, id, spec) = setup(StubMode::Debug);
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(-5, 18, 0b011);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let dx = dev.get(&mut io, "dx").unwrap();
        assert_eq!(dx.as_signed(8), -5);
        let (_, vdy) = spec.variable("dy").unwrap();
        assert!(vdy.readable);
        // A fresh frame: inject again because reading dx consumed nothing
        // (only y_high reads latch the frame in the model).
        let dy = dev.get(&mut io, "dy").unwrap();
        assert_eq!(dy.as_signed(8), 18);
        let b = dev.get(&mut io, "buttons").unwrap();
        assert_eq!(b.raw, 0b011);
    }

    #[test]
    fn pre_actions_program_the_index() {
        let (mut io, id, spec) = setup(StubMode::Debug);
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(0x35u8 as i8, 0, 0);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let dx = dev.get(&mut io, "dx").unwrap();
        assert_eq!(dx.raw, 0x35);
        // The index latch must have been driven through index_reg with its
        // fixed bit 7 set; the mouse model only honours index writes when
        // bit 7 is present, so a correct read proves the mask was applied.
    }

    #[test]
    fn enum_set_uses_symbol_values() {
        let (mut io, id, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let enable = dev.value_of("interrupt", "ENABLE").unwrap();
        dev.set(&mut io, "interrupt", enable).unwrap();
        assert!(io.device::<Busmouse>(id).unwrap().interrupts_enabled());
        let disable = dev.value_of("interrupt", "DISABLE").unwrap();
        dev.set(&mut io, "interrupt", disable).unwrap();
        assert!(!io.device::<Busmouse>(id).unwrap().interrupts_enabled());
    }

    #[test]
    fn debug_mode_catches_type_confusion() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        // The classic inattention error: passing interrupt's value to config.
        let wrong = dev.value_of("interrupt", "DISABLE").unwrap();
        let err = dev.set(&mut io, "config", wrong).unwrap_err();
        assert!(matches!(err, StubError::Assertion { .. }), "{err}");
    }

    #[test]
    fn production_mode_misses_type_confusion() {
        let (mut io, _, spec) = setup(StubMode::Production);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Production);
        let wrong = dev.value_of("interrupt", "DISABLE").unwrap();
        // Silently writes the raw bit — the undetectable "Boot" outcome.
        dev.set(&mut io, "config", wrong).unwrap();
    }

    #[test]
    fn debug_mode_checks_value_range() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let too_big = dev.int_value("buttons", 0x9).unwrap(); // 3-bit variable
        let err = dev.set(&mut io, "buttons", too_big);
        // buttons is read-only, so direction fires first; use signature.
        assert!(err.is_err());
        let too_big = dev.int_value("signature", 0x1FF).unwrap();
        let err = dev.set(&mut io, "signature", too_big).unwrap_err();
        assert!(matches!(err, StubError::Assertion { .. }), "{err}");
    }

    #[test]
    fn private_variables_are_fenced() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let err = dev.get(&mut io, "index").unwrap_err();
        assert!(matches!(err, StubError::PrivateVariable(_)));
        let v = TypedValue { type_id: 0, raw: 0 };
        let err = dev.set(&mut io, "index", v).unwrap_err();
        assert!(matches!(err, StubError::PrivateVariable(_)));
    }

    #[test]
    fn direction_violations_reported() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let err = dev.get(&mut io, "config").unwrap_err();
        assert!(matches!(err, StubError::DirectionViolation { attempted: "read", .. }));
        let v = dev.int_value("dx", 1).unwrap();
        let err = dev.set(&mut io, "dx", v).unwrap_err();
        assert!(matches!(err, StubError::DirectionViolation { attempted: "write", .. }));
    }

    #[test]
    fn unknown_names_reported() {
        let (mut io, _, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        assert!(matches!(
            dev.get(&mut io, "dz").unwrap_err(),
            StubError::UnknownVariable(_)
        ));
        assert!(matches!(
            dev.value_of("interrupt", "NOPE").unwrap_err(),
            StubError::UnknownSymbol { .. }
        ));
    }

    #[test]
    fn signed_extension() {
        let v = TypedValue { type_id: 1, raw: 0xFB };
        assert_eq!(v.as_signed(8), -5);
        let v = TypedValue { type_id: 1, raw: 0x7F };
        assert_eq!(v.as_signed(8), 127);
        let v = TypedValue { type_id: 1, raw: 0x3 };
        assert_eq!(v.as_signed(2), -1);
    }

    #[test]
    fn write_trigger_variable_writes_through() {
        let (mut io, id, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let v = dev.int_value("signature", 0x5A).unwrap();
        dev.set(&mut io, "signature", v).unwrap();
        // Value visible in the device model (port write happened).
        let m = io.device::<Busmouse>(id).unwrap();
        let _ = m; // signature latch asserted via get above in other test
        let back = dev.get(&mut io, "signature").unwrap();
        assert_eq!(back.raw, 0x5A);
    }

    #[test]
    fn partial_write_merges_with_cache() {
        // config is cr[0]; cr has fixed bits. Writing config must not
        // disturb other relevant bits (there are none here, but the cache
        // path is exercised via interrupt/index sharing base@2).
        let (mut io, id, spec) = setup(StubMode::Debug);
        let mut dev = DeviceInstance::new(&spec, &[BASE], StubMode::Debug);
        let dis = dev.value_of("interrupt", "DISABLE").unwrap();
        dev.set(&mut io, "interrupt", dis).unwrap();
        assert!(!io.device::<Busmouse>(id).unwrap().interrupts_enabled());
        // Now reading dx programs the index register (same port base@2)
        // without touching the interrupt gate, because they are distinct
        // registers with disjoint masks.
        let _ = dev.get(&mut io, "dx").unwrap();
        assert!(!io.device::<Busmouse>(id).unwrap().interrupts_enabled());
    }
}
