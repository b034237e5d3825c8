//! C stub generation — the Devil compiler's backend.
//!
//! From a [`CheckedSpec`] this module emits a self-contained C header
//! implementing the device's functional interface, in one of two modes
//! (§2.3 of the paper):
//!
//! * **Production** — raw `inb`/`outb` sequences; every Devil type is a
//!   plain integer typedef, enum symbols are `#define`d integers, and no
//!   run-time checks are emitted. Fast, but a typo in the driver compiles
//!   and runs.
//! * **Debug** — every Devil type becomes a *distinct C struct*
//!   `{ const char *filename; int type; u32 val; }` (Figure 4), so using
//!   the wrong `set_`/`get_` family or the wrong symbolic constant is a
//!   compile-time type error; stubs additionally carry `dil_assert`
//!   run-time checks on value ranges and on register fixed-mask bits, and
//!   the `dil_eq` macro performs the run-time type-tag comparison.
//!
//! The generated text is ordinary C90-with-`inline`; the `devil-minic`
//! crate compiles and executes it against the simulated hardware, which is
//! how the paper's Table 4 experiment is reproduced.
//!
//! Naming scheme (for a variable `Drive` of device `ide`):
//!
//! | item | name |
//! |---|---|
//! | typed getter / setter | `get_Drive()` / `set_Drive(v)` |
//! | value constructor | `mk_Drive(x)` |
//! | enum constants | `MASTER`, `SLAVE` |
//! | raw (untyped) accessors | `dil_get_Drive_raw()` / `dil_set_Drive_raw(x)` |
//! | register stubs | `reg_get_ide_select()` / `reg_set_ide_select(v)` |
//! | init | `ide_init(u16 base)` |

use crate::ast::MappingDir;
use crate::ir::{CheckedSpec, RegisterDef, VarType, VariableDef};
use std::fmt::Write as _;

/// Backend mode: production or debug stubs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodegenMode {
    /// No run-time checks; integer typedefs.
    Production,
    /// Struct-encoded types plus run-time assertions.
    #[default]
    Debug,
    /// Ablation mode: struct-encoded types (full compile-time checking)
    /// but with every run-time assertion stripped — used to measure what
    /// the type encoding alone buys (`devil table4 --no-asserts`).
    DebugNoAsserts,
}

impl CodegenMode {
    /// Whether the mode uses the struct encoding of Devil types.
    pub fn struct_types(self) -> bool {
        !matches!(self, CodegenMode::Production)
    }

    /// Whether run-time assertions are emitted.
    pub fn asserts(self) -> bool {
        matches!(self, CodegenMode::Debug)
    }
}

/// Generate the full C header for `spec`.
pub fn generate(spec: &CheckedSpec, mode: CodegenMode) -> String {
    Codegen { spec, mode, out: String::new() }.run()
}

struct Codegen<'s> {
    spec: &'s CheckedSpec,
    mode: CodegenMode,
    out: String,
}

impl<'s> Codegen<'s> {
    fn run(mut self) -> String {
        let dev = &self.spec.name;
        let mode = match self.mode {
            CodegenMode::Production => "production",
            CodegenMode::Debug => "debug",
            CodegenMode::DebugNoAsserts => "debug (assertions stripped)",
        };
        let _ = writeln!(self.out, "/* Generated by the Devil compiler — {mode} mode.");
        let _ = writeln!(self.out, " * Device: {dev}");
        let _ = writeln!(self.out, " * Do not edit: regenerate from the .dil specification. */");
        self.out.push('\n');
        self.prelude();
        self.bases_and_caches();
        self.prototypes();
        self.init_function();
        for (i, r) in self.spec.registers.iter().enumerate() {
            self.register_stubs(i, r);
        }
        let vars: Vec<(usize, VariableDef)> = self
            .spec
            .variables
            .iter()
            .cloned()
            .enumerate()
            .collect();
        for (i, v) in &vars {
            self.raw_accessors(*i, v);
        }
        for (_, v) in &vars {
            if !v.private {
                self.typed_api(v);
            }
        }
        self.out
    }

    fn prelude(&mut self) {
        self.out.push_str(
            "typedef unsigned char u8;\n\
             typedef unsigned short u16;\n\
             typedef unsigned int u32;\n\
             typedef signed char s8;\n\
             typedef short s16;\n\
             typedef int s32;\n\n",
        );
        if self.mode.struct_types() {
            if self.mode.asserts() {
                self.out.push_str(
                    "#define dil_assert(expr) ((expr) ? 0 : \\\n\
                     \x20   panic(\"Devil assertion failed in file %s line %d\", __FILE__, __LINE__))\n",
                );
            } else {
                self.out.push_str("#define dil_assert(expr) (0)\n");
            }
            self.out.push_str(
                "#define dil_eq(x, y) ( \\\n\
                 \x20   dil_assert(!strcmp(x.filename, y.filename) \\\n\
                 \x20       && x.type == y.type), \\\n\
                 \x20   x.val == y.val)\n\
                 #define dil_val(x) ((x).val)\n\n",
            );
        } else {
            self.out.push_str(
                "#define dil_eq(x, y) ((x) == (y))\n\
                 #define dil_val(x) (x)\n\n",
            );
        }
    }

    fn bases_and_caches(&mut self) {
        for p in &self.spec.ports {
            let _ = writeln!(self.out, "static u16 dil_base_{};", p.name);
        }
        for r in &self.spec.registers {
            if r.writable() {
                let _ = writeln!(self.out, "static {} dil_cache_{};", self.ctype(r.size), r.name);
            }
        }
        self.out.push('\n');
    }

    fn ctype(&self, bits: u32) -> &'static str {
        match bits {
            0..=8 => "u8",
            9..=16 => "u16",
            _ => "u32",
        }
    }

    fn port_io(&self, width: u32) -> (&'static str, &'static str) {
        match width {
            8 => ("inb", "outb"),
            16 => ("inw", "outw"),
            _ => ("inl", "outl"),
        }
    }

    fn prototypes(&mut self) {
        for r in &self.spec.registers {
            let t = self.ctype(r.size);
            if r.readable() {
                let _ = writeln!(self.out, "static {t} reg_get_{}(void);", r.name);
            }
            if r.writable() {
                let _ = writeln!(self.out, "static void reg_set_{}({t} v);", r.name);
            }
        }
        for v in &self.spec.variables {
            if v.readable {
                let _ = writeln!(self.out, "static u32 dil_get_{}_raw(void);", v.name);
            }
            if v.writable {
                let _ = writeln!(self.out, "static void dil_set_{}_raw(u32 raw);", v.name);
            }
        }
        self.out.push('\n');
    }

    fn init_function(&mut self) {
        let params: Vec<String> = self
            .spec
            .ports
            .iter()
            .map(|p| format!("u16 {}", p.name))
            .collect();
        let _ = writeln!(
            self.out,
            "static void {}_init({})\n{{",
            self.spec.name,
            params.join(", ")
        );
        for p in &self.spec.ports {
            let _ = writeln!(self.out, "    dil_base_{} = {};", p.name, p.name);
        }
        for r in &self.spec.registers {
            if r.writable() {
                let _ = writeln!(self.out, "    dil_cache_{} = 0;", r.name);
            }
        }
        self.out.push_str("}\n\n");
    }

    fn emit_pre_actions(&mut self, r: &RegisterDef) {
        for (vid, value) in &r.pre {
            let var = &self.spec.variables[vid.0];
            let _ = writeln!(self.out, "    /* pre: {} = {} */", var.name, value);
            let _ = writeln!(self.out, "    dil_set_{}_raw({:#x}u);", var.name, value);
        }
    }

    fn register_stubs(&mut self, _idx: usize, r: &RegisterDef) {
        let r = r.clone();
        let t = self.ctype(r.size);
        if let Some((port, offset)) = r.write_port {
            let pname = self.spec.ports[port.0].name.clone();
            let (_, out_fn) = self.port_io(self.spec.ports[port.0].width);
            let _ = writeln!(self.out, "/* write stub for the {} register */", r.name);
            let _ = writeln!(self.out, "static void reg_set_{}({t} v)\n{{", r.name);
            self.emit_pre_actions(&r);
            let relevant = r.mask.relevant();
            let ones = r.mask.fixed_ones();
            let wire = if ones != 0 {
                format!("({t})((v & {relevant:#x}u) | {ones:#x}u)")
            } else {
                format!("({t})(v & {relevant:#x}u)")
            };
            let _ = writeln!(self.out, "    {out_fn}({wire}, dil_base_{pname} + {offset});");
            let _ = writeln!(self.out, "    dil_cache_{} = v & {relevant:#x}u;", r.name);
            self.out.push_str("}\n\n");
        }
        if let Some((port, offset)) = r.read_port {
            let pname = self.spec.ports[port.0].name.clone();
            let (in_fn, _) = self.port_io(self.spec.ports[port.0].width);
            let _ = writeln!(self.out, "/* read stub for the {} register */", r.name);
            let _ = writeln!(self.out, "static {t} reg_get_{}(void)\n{{", r.name);
            self.emit_pre_actions(&r);
            let _ = writeln!(
                self.out,
                "    {t} v = ({t}){in_fn}(dil_base_{pname} + {offset});"
            );
            if self.mode.asserts() && r.mask.fixed() != 0 {
                let ones = r.mask.fixed_ones();
                let zeros = r.mask.fixed_zeros();
                let mut conds = Vec::new();
                if ones != 0 {
                    conds.push(format!("(v & {ones:#x}u) == {ones:#x}u"));
                }
                if zeros != 0 {
                    conds.push(format!("(v & {zeros:#x}u) == 0u"));
                }
                let _ = writeln!(self.out, "    dil_assert({});", conds.join(" && "));
            }
            self.out.push_str("    return v;\n}\n\n");
        }
    }

    fn raw_accessors(&mut self, _idx: usize, v: &VariableDef) {
        if v.readable {
            let _ = writeln!(self.out, "/* raw read of variable {} */", v.name);
            let _ = writeln!(self.out, "static u32 dil_get_{}_raw(void)\n{{", v.name);
            self.out.push_str("    u32 tmp = 0u;\n");
            for f in &v.frags {
                let reg = &self.spec.registers[f.reg.0];
                let w = f.width();
                let m = low_mask(w);
                let _ = writeln!(
                    self.out,
                    "    tmp = (tmp << {w}) | (((u32)reg_get_{}() >> {}) & {m:#x}u);",
                    reg.name, f.lsb
                );
            }
            self.out.push_str("    return tmp;\n}\n\n");
        }
        if v.writable {
            let _ = writeln!(self.out, "/* raw write of variable {} */", v.name);
            let _ = writeln!(self.out, "static void dil_set_{}_raw(u32 raw)\n{{", v.name);
            let mut remaining = v.width;
            for (i, f) in v.frags.iter().enumerate() {
                let reg = self.spec.registers[f.reg.0].clone();
                let w = f.width();
                remaining -= w;
                let m = low_mask(w);
                let _ = writeln!(
                    self.out,
                    "    u32 f{i} = (raw >> {remaining}) & {m:#x}u;"
                );
                let frag_mask = m << f.lsb;
                let t = self.ctype(reg.size);
                if frag_mask == reg.mask.relevant() {
                    let _ = writeln!(self.out, "    reg_set_{}(({t})(f{i} << {}));", reg.name, f.lsb);
                } else {
                    let _ = writeln!(
                        self.out,
                        "    reg_set_{}(({t})((dil_cache_{} & {:#x}u) | (f{i} << {})));",
                        reg.name,
                        reg.name,
                        !frag_mask & low_mask(reg.size),
                        f.lsb
                    );
                }
            }
            self.out.push_str("}\n\n");
        }
    }

    fn typed_api(&mut self, v: &VariableDef) {
        if self.mode.struct_types() {
            self.typed_api_debug(v);
        } else {
            self.typed_api_production(v);
        }
    }

    fn value_check(&self, v: &VariableDef, expr: &str, reading: bool) -> Option<String> {
        match &v.ty {
            VarType::Int { .. } | VarType::Bool => {
                if v.width >= 32 {
                    None
                } else {
                    Some(format!("{expr} <= {:#x}u", low_mask(v.width)))
                }
            }
            VarType::Enum { arms } => {
                let legal: Vec<String> = arms
                    .iter()
                    .filter(|(_, dir, _)| match dir {
                        MappingDir::Both => true,
                        MappingDir::Read => reading,
                        MappingDir::Write => !reading,
                    })
                    .map(|(_, _, val)| format!("{expr} == {val:#x}u"))
                    .collect();
                if legal.is_empty() {
                    None
                } else {
                    Some(legal.join(" || "))
                }
            }
            VarType::IntSet { values } => {
                let legal: Vec<String> =
                    values.iter().map(|val| format!("{expr} == {val:#x}u")).collect();
                Some(legal.join(" || "))
            }
        }
    }

    /// The paper's stated future work (§6): a *compile-time checked*
    /// comparison function per Devil type, so that equality tests no longer
    /// have to go through the type-generic `dil_eq` macro (whose type check
    /// only fires at run time). Using `eq_<var>(a, b)` with a value of the
    /// wrong Devil type is a C type error.
    fn typed_eq_fn(&mut self, v: &VariableDef) {
        let name = &v.name;
        let _ = writeln!(
            self.out,
            "static int eq_{name}({name}_t a, {name}_t b)\n{{\n    return a.val == b.val;\n}}\n"
        );
    }

    fn typed_api_debug(&mut self, v: &VariableDef) {
        let name = &v.name.clone();
        let tid = v.type_id;
        let _ = writeln!(self.out, "/* Type representation for {name} */");
        let _ = writeln!(
            self.out,
            "struct {name}_t_ {{ const char *filename; int type; u32 val; }};"
        );
        let _ = writeln!(self.out, "typedef struct {name}_t_ {name}_t;");
        if let VarType::Enum { arms } = &v.ty.clone() {
            for (sym, _, val) in arms {
                let _ = writeln!(
                    self.out,
                    "static const {name}_t {sym} = {{__FILE__, {tid}, {val:#x}u}};"
                );
            }
        }
        let _ = writeln!(self.out, "static {name}_t mk_{name}(u32 x)\n{{");
        let _ = writeln!(self.out, "    {name}_t v;");
        let _ = writeln!(
            self.out,
            "    v.filename = __FILE__; v.type = {tid}; v.val = x;"
        );
        self.out.push_str("    return v;\n}\n\n");
        self.typed_eq_fn(v);
        if v.readable {
            let _ = writeln!(self.out, "/* read stub for the {name} variable */");
            let _ = writeln!(self.out, "static {name}_t get_{name}(void)\n{{");
            let _ = writeln!(self.out, "    {name}_t v;");
            let _ = writeln!(self.out, "    u32 tmp_v = dil_get_{name}_raw();");
            if self.mode.asserts() {
                if let Some(check) = self.value_check(v, "tmp_v", true) {
                    let _ = writeln!(self.out, "    dil_assert({check});");
                }
            }
            let _ = writeln!(
                self.out,
                "    v.filename = __FILE__; v.type = {tid}; v.val = tmp_v;"
            );
            self.out.push_str("    return v;\n}\n\n");
            if matches!(v.ty, VarType::Int { signed: true, .. }) {
                self.signed_helper(v, &format!("get_{name}().val"));
            }
        }
        if v.writable {
            let _ = writeln!(self.out, "/* write stub for the {name} variable */");
            let _ = writeln!(self.out, "static void set_{name}({name}_t v)\n{{");
            if self.mode.asserts() {
                let _ = writeln!(self.out, "    dil_assert(v.type == {tid});");
                if let Some(check) = self.value_check(v, "v.val", false) {
                    let _ = writeln!(self.out, "    dil_assert({check});");
                }
            }
            let _ = writeln!(self.out, "    dil_set_{name}_raw(v.val);");
            self.out.push_str("}\n\n");
        }
    }

    fn typed_api_production(&mut self, v: &VariableDef) {
        let name = &v.name.clone();
        let _ = writeln!(self.out, "/* Type representation for {name} */");
        let _ = writeln!(self.out, "typedef u32 {name}_t;");
        if let VarType::Enum { arms } = &v.ty.clone() {
            for (sym, _, val) in arms {
                let _ = writeln!(self.out, "#define {sym} {val:#x}u");
            }
        }
        let _ = writeln!(self.out, "#define mk_{name}(x) ((u32)(x))");
        let _ = writeln!(self.out, "#define eq_{name}(a, b) ((a) == (b))");
        if v.readable {
            let _ = writeln!(self.out, "/* read stub for the {name} variable */");
            let _ = writeln!(self.out, "static u32 get_{name}(void)\n{{");
            let _ = writeln!(self.out, "    return dil_get_{name}_raw();");
            self.out.push_str("}\n\n");
            if matches!(v.ty, VarType::Int { signed: true, .. }) {
                self.signed_helper(v, &format!("get_{name}()"));
            }
        }
        if v.writable {
            let _ = writeln!(self.out, "/* write stub for the {name} variable */");
            let _ = writeln!(self.out, "static void set_{name}(u32 v)\n{{");
            let _ = writeln!(self.out, "    dil_set_{name}_raw(v);");
            self.out.push_str("}\n\n");
        }
    }

    /// Sign-extension helper for `signed int(n)` variables.
    fn signed_helper(&mut self, v: &VariableDef, raw_expr: &str) {
        let name = &v.name;
        let w = v.width;
        let sign_bit = 1u64 << (w.saturating_sub(1));
        let ext = !low_mask(w) & 0xFFFF_FFFF;
        let _ = writeln!(self.out, "static s32 get_{name}_signed(void)\n{{");
        let _ = writeln!(self.out, "    u32 x = {raw_expr};");
        let _ = writeln!(
            self.out,
            "    return (s32)((x & {sign_bit:#x}u) ? (x | {ext:#x}u) : x);"
        );
        self.out.push_str("}\n\n");
    }
}

fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    const IDE_FRAGMENT: &str = r#"
device ide (base : bit[8] port @ {0..0})
{
  register ide_select = base@0, mask '1.1.....' : bit[8];
  variable Drive = ide_select[4] : { SLAVE <=> '1', MASTER <=> '0' };
  variable head  = ide_select[3..0] : int(4);
  variable lba   = ide_select[6] : bool;
}
"#;

    fn gen(mode: CodegenMode) -> String {
        let spec = check(&parse(IDE_FRAGMENT).unwrap()).unwrap();
        generate(&spec, mode)
    }

    #[test]
    fn debug_mode_emits_figure4_shape() {
        let c = gen(CodegenMode::Debug);
        // Struct type per variable (Figure 4 lines 2-3).
        assert!(c.contains("struct Drive_t_ { const char *filename; int type; u32 val; };"), "{c}");
        assert!(c.contains("typedef struct Drive_t_ Drive_t;"), "{c}");
        // Enum constants with type tags (lines 4-5).
        assert!(c.contains("static const Drive_t MASTER = {__FILE__,"), "{c}");
        assert!(c.contains("static const Drive_t SLAVE = {__FILE__,"), "{c}");
        // Register stubs (lines 8-16).
        assert!(c.contains("static void reg_set_ide_select(u8 v)"), "{c}");
        assert!(c.contains("static u8 reg_get_ide_select(void)"), "{c}");
        assert!(c.contains("dil_cache_ide_select"), "{c}");
        // Variable stubs (lines 19-29).
        assert!(c.contains("static void set_Drive(Drive_t v)"), "{c}");
        assert!(c.contains("static Drive_t get_Drive(void)"), "{c}");
        // Run-time machinery.
        assert!(c.contains("#define dil_assert"), "{c}");
        assert!(c.contains("#define dil_eq"), "{c}");
    }

    #[test]
    fn debug_write_checks_type_tag_and_value() {
        let c = gen(CodegenMode::Debug);
        let set = c.split("static void set_Drive").nth(1).unwrap();
        let body = &set[..set.find('}').unwrap()];
        assert!(body.contains("dil_assert(v.type =="), "{body}");
        assert!(body.contains("v.val == 0x1u || v.val == 0x0u"), "{body}");
    }

    #[test]
    fn debug_read_asserts_fixed_mask_bits() {
        let c = gen(CodegenMode::Debug);
        // '1.1.....': bits 7 and 5 fixed to 1.
        assert!(c.contains("dil_assert((v & 0xa0u) == 0xa0u)"), "{c}");
    }

    #[test]
    fn write_stub_applies_mask() {
        let c = gen(CodegenMode::Debug);
        // Relevant bits of '1.1.....' are 0x5f; fixed ones 0xa0.
        assert!(c.contains("outb((u8)((v & 0x5fu) | 0xa0u), dil_base_base + 0)"), "{c}");
    }

    #[test]
    fn production_mode_has_no_checks() {
        let c = gen(CodegenMode::Production);
        assert!(!c.contains("dil_assert"), "{c}");
        assert!(!c.contains("struct Drive_t_"), "{c}");
        assert!(c.contains("typedef u32 Drive_t;"), "{c}");
        assert!(c.contains("#define MASTER 0x0u"), "{c}");
        assert!(c.contains("#define dil_eq(x, y) ((x) == (y))"), "{c}");
    }

    #[test]
    fn init_function_sets_bases() {
        let c = gen(CodegenMode::Debug);
        assert!(c.contains("static void ide_init(u16 base)"), "{c}");
        assert!(c.contains("dil_base_base = base;"), "{c}");
    }

    #[test]
    fn partial_write_merges_with_cache() {
        let c = gen(CodegenMode::Debug);
        // Drive is 1 bit of an 8-bit register: must merge via the cache.
        let raw = c.split("static void dil_set_Drive_raw").nth(1).unwrap();
        let body = &raw[..raw.find("}\n").unwrap()];
        assert!(body.contains("dil_cache_ide_select"), "{body}");
    }

    #[test]
    fn pre_actions_emitted_before_access() {
        let src = r#"
device d (base : bit[8] port @ {0..1})
{
  register idx = write base @ 1 : bit[8];
  private variable sel = idx[1..0] : int(2);
  variable pad = idx[7..2] : int(6);
  register data = read base @ 0, pre {sel = 2} : bit[8];
  variable v = data, volatile : int(8);
}
"#;
        let spec = check(&parse(src).unwrap()).unwrap();
        let c = generate(&spec, CodegenMode::Debug);
        let get = c.split("static u8 reg_get_data(void)\n{").nth(1).unwrap();
        let body = &get[..get.find("return").unwrap()];
        assert!(body.contains("dil_set_sel_raw(0x2u);"), "{body}");
        // And the pre-write lands *before* the port read.
        let pre_pos = body.find("dil_set_sel_raw").unwrap();
        let read_pos = body.find("inb(").unwrap();
        assert!(pre_pos < read_pos);
    }

    #[test]
    fn private_variables_have_no_typed_api() {
        let src = r#"
device d (base : bit[8] port @ {0..1})
{
  register idx = write base @ 1 : bit[8];
  private variable sel = idx[1..0] : int(2);
  variable pad = idx[7..2] : int(6);
  register data = read base @ 0, pre {sel = 0} : bit[8];
  variable v = data, volatile : int(8);
}
"#;
        let spec = check(&parse(src).unwrap()).unwrap();
        let c = generate(&spec, CodegenMode::Debug);
        assert!(!c.contains("get_sel(void)"), "{c}");
        assert!(!c.contains("struct sel_t_"), "{c}");
        assert!(c.contains("dil_set_sel_raw"), "{c}");
    }

    #[test]
    fn signed_variables_get_sign_helper() {
        let src = r#"
device d (base : bit[8] port @ {0..0})
{
  register r = read base @ 0 : bit[8];
  variable dx = r, volatile : signed int(8);
}
"#;
        let spec = check(&parse(src).unwrap()).unwrap();
        for mode in [CodegenMode::Debug, CodegenMode::Production] {
            let c = generate(&spec, mode);
            assert!(c.contains("static s32 get_dx_signed(void)"), "{c}");
            assert!(c.contains("0x80u"), "{c}");
        }
    }

    #[test]
    fn sixteen_bit_ports_use_word_io() {
        let src = r#"
device d (base : bit[16] port @ {0..0})
{
  register data = base @ 0 : bit[16];
  variable word = data, volatile : int(16);
}
"#;
        let spec = check(&parse(src).unwrap()).unwrap();
        let c = generate(&spec, CodegenMode::Production);
        assert!(c.contains("inw("), "{c}");
        assert!(c.contains("outw("), "{c}");
        assert!(c.contains("static u16 reg_get_data(void)"), "{c}");
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(gen(CodegenMode::Debug), gen(CodegenMode::Debug));
    }

    #[test]
    fn typed_eq_functions_emitted_in_both_modes() {
        // The paper's §6 future work: per-type comparison functions that
        // move the dil_eq type check to compile time.
        let c = gen(CodegenMode::Debug);
        assert!(c.contains("static int eq_Drive(Drive_t a, Drive_t b)"), "{c}");
        let p = gen(CodegenMode::Production);
        assert!(p.contains("#define eq_Drive(a, b) ((a) == (b))"), "{p}");
    }
}
