//! The five Devil specifications of the paper's Table 2.

use devil_core::{CheckedSpec, CompileError, Spec};

/// Logitech busmouse — Figure 3 of the paper, verbatim.
pub const BUSMOUSE: &str = include_str!("../specs/busmouse.dil");
/// Intel 82371FB PCI bus-master IDE function.
pub const PCI82371: &str = include_str!("../specs/pci82371.dil");
/// Intel PIIX4 IDE interface (both channels).
pub const IDE_PIIX4: &str = include_str!("../specs/ide_piix4.dil");
/// NE2000 (DP8390) Ethernet controller.
pub const NE2000: &str = include_str!("../specs/ne2000.dil");
/// 3Dlabs Permedia 2 graphics controller.
pub const PERMEDIA2: &str = include_str!("../specs/permedia2.dil");

/// `(display name, file name, source)` for all five specifications, in
/// Table 2 order.
pub fn all() -> [(&'static str, &'static str, &'static str); 5] {
    [
        ("Logitech Busmouse", "busmouse.dil", BUSMOUSE),
        ("PCI Bus Master (Intel 82371FB)", "pci82371.dil", PCI82371),
        ("IDE (Intel PIIX4)", "ide_piix4.dil", IDE_PIIX4),
        ("Ethernet NE2000 (ns8390)", "ne2000.dil", NE2000),
        ("Graphic card (Permedia 2)", "permedia2.dil", PERMEDIA2),
    ]
}

/// Parse and check one of the bundled specifications.
///
/// # Errors
///
/// Propagates compiler errors — the bundled specs are tested to be clean,
/// so an error here means the caller passed a mutated source.
pub fn compile(file: &str, source: &str) -> Result<CheckedSpec, CompileError> {
    Spec::parse(file, source)?.check()
}

/// Count the non-blank, non-comment-only lines of a specification (the
/// "Number of lines" column of Table 2).
pub fn effective_lines(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_specs_compile_clean() {
        for (name, file, src) in all() {
            match compile(file, src) {
                Ok(checked) => {
                    assert!(!checked.variables.is_empty(), "{name} has no variables");
                }
                Err(e) => panic!("{name} failed to check:\n{e}"),
            }
        }
    }

    #[test]
    fn busmouse_matches_figure3_structure() {
        let c = compile("busmouse.dil", BUSMOUSE).unwrap();
        assert_eq!(c.device_name(), "logitech_busmouse");
        assert_eq!(c.registers.len(), 8);
        assert_eq!(c.variables.len(), 7);
        assert!(c.variable("dx").unwrap().1.readable);
        assert!(c.variable("index").unwrap().1.private);
    }

    #[test]
    fn ide_exposes_the_figure4_drive_variable() {
        let c = compile("ide_piix4.dil", IDE_PIIX4).unwrap();
        let (_, drive) = c.variable("Drive").unwrap();
        assert!(drive.readable && drive.writable);
        match &drive.ty {
            devil_core::ir::VarType::Enum { arms } => {
                assert!(arms.iter().any(|(n, _, v)| n == "MASTER" && *v == 0));
                assert!(arms.iter().any(|(n, _, v)| n == "SLAVE" && *v == 1));
            }
            other => panic!("Drive should be an enum, got {other:?}"),
        }
        // The status bits the driver polls.
        for v in ["busy", "ready", "drq", "error_bit"] {
            assert!(c.variable(v).is_some(), "missing status variable {v}");
        }
    }

    #[test]
    fn ne2000_page_select_is_private_with_pre_actions() {
        let c = compile("ne2000.dil", NE2000).unwrap();
        let (page_id, page) = c.variable("page").unwrap();
        assert!(page.private);
        let (_, pstart) = c.register("pstart_reg").unwrap();
        assert_eq!(pstart.pre, vec![(page_id, 0)]);
        let (_, par0) = c.register("par0_reg").unwrap();
        assert_eq!(par0.pre, vec![(page_id, 1)]);
    }

    #[test]
    fn line_counts_are_in_the_papers_range() {
        // Paper: busmouse 22, PCI 27, IDE 130, NE2000 131, Permedia2 128.
        let counts: Vec<(usize, usize, &str)> = vec![
            (15, 30, BUSMOUSE),
            (15, 35, PCI82371),
            (60, 140, IDE_PIIX4),
            (70, 140, NE2000),
            (25, 135, PERMEDIA2),
        ]
        .into_iter()
        .collect();
        for (lo, hi, src) in counts {
            let n = effective_lines(src);
            assert!((lo..=hi).contains(&n), "line count {n} outside {lo}..={hi}");
        }
    }

    #[test]
    fn specs_generate_c_in_both_modes() {
        use devil_core::codegen::{generate, CodegenMode};
        for (name, file, src) in all() {
            let checked = compile(file, src).unwrap();
            for mode in [CodegenMode::Debug, CodegenMode::Production] {
                let c = generate(&checked, mode);
                assert!(c.contains("_init"), "{name}: no init function");
            }
        }
    }
}
