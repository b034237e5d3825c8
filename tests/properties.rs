//! Property-based tests over cross-crate invariants.

use devil::core::ir::Mask;
use devil::core::runtime::{DeviceInstance, StubMode};
use devil::hwsim::devices::Busmouse;
use devil::hwsim::IoSpace;
use devil::mutagen::literal::{literal_mutations, LiteralClass};
use proptest::prelude::*;

const BASE: u16 = 0x23C;

fn checked_busmouse() -> devil::core::CheckedSpec {
    devil::core::compile("busmouse.dil", devil::drivers::specs::BUSMOUSE).unwrap()
}

proptest! {
    /// Any injected motion is read back exactly through the Devil stubs.
    #[test]
    fn stub_runtime_round_trips_motion(dx in any::<i8>(), dy in any::<i8>(), b in 0u8..8) {
        let checked = checked_busmouse();
        let mut io = IoSpace::new();
        let id = io.map(BASE, 4, Box::new(Busmouse::new())).unwrap();
        io.device_mut::<Busmouse>(id).unwrap().inject_motion(dx, dy, b);
        let mut dev = DeviceInstance::new(&checked, &[BASE], StubMode::Debug);
        prop_assert_eq!(dev.get(&mut io, "dx").unwrap().as_signed(8), dx as i64);
        prop_assert_eq!(dev.get(&mut io, "dy").unwrap().as_signed(8), dy as i64);
        prop_assert_eq!(dev.get(&mut io, "buttons").unwrap().raw, b as u64);
    }

    /// Mask algebra: a write through any mask respects the fixed bits and
    /// preserves exactly the relevant ones.
    #[test]
    fn mask_apply_write_invariants(pattern in "[01*.]{1,16}", value in any::<u64>()) {
        let mask = Mask::from_pattern(&pattern).unwrap();
        let wire = mask.apply_write(value);
        prop_assert_eq!(wire & mask.fixed_ones(), mask.fixed_ones());
        prop_assert_eq!(wire & mask.fixed_zeros(), 0);
        prop_assert_eq!(wire & mask.relevant(), value & mask.relevant());
        // The wire value always satisfies its own read check.
        prop_assert!(mask.read_respects_fixed(wire));
    }

    /// Mask views partition the bit positions.
    #[test]
    fn mask_views_partition(pattern in "[01*.]{1,32}") {
        let mask = Mask::from_pattern(&pattern).unwrap();
        let all = if mask.len() >= 64 { u64::MAX } else { (1u64 << mask.len()) - 1 };
        let r = mask.relevant();
        let o = mask.fixed_ones();
        let z = mask.fixed_zeros();
        prop_assert_eq!(r & o, 0);
        prop_assert_eq!(r & z, 0);
        prop_assert_eq!(o & z, 0);
        prop_assert!(r | o | z <= all);
    }

    /// Literal mutations stay in class, differ from the original, and
    /// never produce an empty literal.
    #[test]
    fn literal_mutations_stay_in_class(n in 0u64..100_000) {
        let text = n.to_string();
        for m in literal_mutations(&text, LiteralClass::Decimal, 0) {
            prop_assert!(!m.is_empty());
            prop_assert_ne!(&m, &text);
            prop_assert!(m.bytes().all(|b| b.is_ascii_digit()), "{}", m);
        }
        let hex = format!("0x{n:x}");
        for m in literal_mutations(&hex, LiteralClass::Hex, 2) {
            prop_assert!(m.starts_with("0x"));
            prop_assert!(m.len() > 2);
            prop_assert_ne!(&m, &hex);
        }
    }

    /// The Devil lexer never panics and always terminates on arbitrary
    /// input (fuzz-ish robustness).
    #[test]
    fn devil_lexer_total(input in "\\PC{0,200}") {
        let _ = devil::core::lexer::lex(&input);
    }

    /// The C preprocessor + parser never panic on arbitrary input.
    #[test]
    fn minic_frontend_total(input in "\\PC{0,200}") {
        let _ = devil::minic::compile("fuzz.c", &input);
    }

    /// Single-character corruption of a correct spec either still compiles
    /// or produces a proper error — never a panic (the Table 2 engine
    /// depends on this).
    #[test]
    fn corrupted_spec_never_panics(pos in 0usize..800, byte in 32u8..127) {
        let src = devil::drivers::specs::BUSMOUSE;
        if pos < src.len() && src.is_char_boundary(pos) {
            let mut s = src.as_bytes().to_vec();
            s[pos] = byte;
            if let Ok(text) = String::from_utf8(s) {
                let _ = devil::core::compile("fuzz.dil", &text);
            }
        }
    }

    /// Sampling is a subset of the input with the requested cardinality.
    #[test]
    fn sample_is_subset(frac in 0.0f64..1.0, seed in any::<u64>()) {
        let model = devil::mutagen::devil::DevilMutationModel::new(
            devil::drivers::specs::BUSMOUSE,
        ).unwrap();
        let all = model.mutants();
        let total = all.len();
        let sampled = devil::mutagen::sample(all, frac, seed);
        let expect = ((total as f64) * frac).round() as usize;
        prop_assert_eq!(sampled.len(), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Booting the clean drivers is deterministic: same outcome, console
    /// and coverage every time, regardless of seed-like inputs.
    #[test]
    fn clean_boot_is_deterministic(_x in any::<u8>()) {
        use devil::kernel::boot::DEFAULT_FUEL;
        use devil::kernel::scenario::run_compiled;
        use devil::kernel::scenarios::IdeBootScenario;
        use devil::kernel::Scenario;
        let program = devil::minic::compile(
            devil::drivers::ide::IDE_C_FILE,
            devil::drivers::ide::IDE_C_DRIVER,
        ).unwrap().to_bytecode();
        let boot = || {
            let mut scenario = IdeBootScenario::new(devil::kernel::fs::standard_files());
            let mut io = scenario.build();
            run_compiled(&scenario, &program, &mut io, DEFAULT_FUEL)
        };
        let (a, b) = (boot(), boot());
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.console, b.console);
        prop_assert_eq!(a.coverage, b.coverage);
    }
}
