//! Property tests for minic: a differential check of expression semantics
//! against Rust's own 32-bit integer arithmetic, a bytecode-VM-vs-
//! tree-walker equivalence property, plus front-end totality.

use devil_minic::interp::{Interpreter, NullHost};
use devil_minic::value::{wrap_int, Value};
use devil_minic::vm::Vm;
use proptest::prelude::*;

/// A random arithmetic expression over two variables, as C text and as a
/// Rust closure, for differential evaluation.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    Lit(i32),
    Bin(&'static str, Box<E>, Box<E>),
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        (0i32..1000).prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            prop::sample::select(vec!["+", "-", "*", "&", "|", "^"]),
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| E::Bin(op, Box::new(l), Box::new(r)))
    })
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::Lit(v) => v.to_string(),
            E::Bin(op, l, r) => format!("({} {} {})", l.to_c(), op, r.to_c()),
        }
    }

    fn eval(&self, a: i32, b: i32) -> i32 {
        match self {
            E::A => a,
            E::B => b,
            E::Lit(v) => *v,
            E::Bin(op, l, r) => {
                let (x, y) = (l.eval(a, b), r.eval(a, b));
                match *op {
                    "+" => x.wrapping_add(y),
                    "-" => x.wrapping_sub(y),
                    "*" => x.wrapping_mul(y),
                    "&" => x & y,
                    "|" => x | y,
                    _ => x ^ y,
                }
            }
        }
    }
}

proptest! {
    /// minic evaluates arbitrary integer arithmetic exactly like a 32-bit
    /// C compiler (differential against Rust's wrapping semantics).
    #[test]
    fn arithmetic_matches_c_semantics(e in expr_strategy(), a in any::<i16>(), b in any::<i16>()) {
        let src = format!("int f(int a, int b) {{ return {}; }}", e.to_c());
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 1_000_000);
        let got = interp
            .call("f", &[(a as i64).into(), (b as i64).into()])
            .unwrap()
            .as_int()
            .unwrap();
        let want = e.eval(a as i32, b as i32);
        // minic computes in i64 and wraps on the typed return boundary.
        prop_assert_eq!(wrap_int(got, 32, true) as i32, want, "{}", src);
    }

    /// Shifts match x86 semantics for in-range counts.
    #[test]
    fn shifts_match(x in any::<u16>(), n in 0u32..16) {
        let src = format!("int f(void) {{ return ({x} << {n}) | ({x} >> {n}); }}");
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 100_000);
        let got = interp.call("f", &[]).unwrap().as_int().unwrap();
        let want = ((x as i64) << n) | ((x as i64) >> n);
        prop_assert_eq!(got, want);
    }

    /// wrap_int is a proper truncation: stable under repetition and
    /// agrees with Rust's `as` casts.
    #[test]
    fn wrap_int_matches_rust_casts(v in any::<i64>()) {
        prop_assert_eq!(wrap_int(v, 8, false), (v as u8) as i64);
        prop_assert_eq!(wrap_int(v, 8, true), (v as i8) as i64);
        prop_assert_eq!(wrap_int(v, 16, false), (v as u16) as i64);
        prop_assert_eq!(wrap_int(v, 16, true), (v as i16) as i64);
        prop_assert_eq!(wrap_int(v, 32, true), (v as i32) as i64);
        let once = wrap_int(v, 16, true);
        prop_assert_eq!(wrap_int(once, 16, true), once);
    }

    /// The bytecode VM is observationally identical to the tree-walking
    /// oracle on arbitrary integer arithmetic: same value, same remaining
    /// fuel, same line coverage — even under tight fuel budgets where one
    /// extra burn would flip the result to `OutOfFuel`.
    #[test]
    fn vm_matches_tree_walker(e in expr_strategy(), a in any::<i16>(), b in any::<i16>(), fuel in 0u64..400) {
        let src = format!("int f(int a, int b) {{ return {}; }}", e.to_c());
        let program = devil_minic::compile("t.c", &src).unwrap();
        let args = [Value::Int(a as i64), Value::Int(b as i64)];

        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &args);
        let want_fuel = interp.fuel_left();
        let want_cov = interp.coverage().clone();

        let compiled = program.to_bytecode();
        let mut vh = NullHost::default();
        let mut vm = Vm::new(&compiled, &mut vh, fuel);
        let got = vm.call("f", &args);
        prop_assert_eq!(&got, &want, "value diverged for {}", src);
        prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for {}", src);
        prop_assert_eq!(vm.coverage(), &want_cov, "coverage diverged for {}", src);
    }

    /// Superinstruction fusion is observationally invisible: lowering a
    /// random checked program with the peephole pass on and off yields
    /// identical outcomes, console output, coverage bitmaps and remaining
    /// fuel on the VM — under tight budgets too, so the fuel-burn
    /// *sequence* provably matches (one reordered burn would flip which
    /// run exhausts first), and against the tree-walking oracle as well.
    #[test]
    fn fusion_on_and_off_are_identical(e in expr_strategy(), a in any::<i16>(), b in any::<i16>(), fuel in 0u64..600) {
        // Wrap the random expression in the loop shapes the pass targets
        // (const-bound while, local-bound while, prefix-decrement spin,
        // port spin) so fused ops actually execute.
        let src = format!(
            "int f(int a, int b) {{
                int t = 0;
                int r = 3;
                int acc = 0;
                while (t < 4) {{ t++; acc += {expr}; }}
                while (t < b) {{ t++; }}
                do {{ acc ^= t; }} while (--r > 0);
                while ((inb(0x1F7) & 0x80) == 0) {{ acc--; }}
                return acc;
            }}",
            expr = e.to_c()
        );
        let program = devil_minic::compile("t.c", &src).unwrap();
        let args = [Value::Int(a as i64), Value::Int(b as i64)];

        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &args);
        let want_fuel = interp.fuel_left();
        let want_cov = interp.coverage().clone();
        drop(interp);

        let unfused = program.to_bytecode_unfused();
        let fused = program.to_bytecode();
        prop_assert_eq!(unfused.fused_op_count(), 0);
        prop_assert!(fused.fused_op_count() > 0, "harness loops must fuse");
        for compiled in [&unfused, &fused] {
            let mut vh = NullHost::default();
            let mut vm = Vm::new(compiled, &mut vh, fuel);
            let got = vm.call("f", &args);
            prop_assert_eq!(&got, &want, "value diverged for {}", src);
            prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for {}", src);
            prop_assert_eq!(vm.coverage(), &want_cov, "coverage diverged for {}", src);
            drop(vm);
            prop_assert_eq!(&vh.log, &ih.log, "console diverged for {}", src);
        }
    }

    /// The block-transfer builtins match the oracle element for element,
    /// including partial transfers under fuel starvation and the
    /// out-of-bounds tail behaviour of a short destination.
    #[test]
    fn block_builtins_match_tree_walker(count in 0i64..40, fuel in 0u64..400) {
        let src = format!(
            "unsigned short buf[16];
             unsigned char bytes[16];
             int f(void) {{
                 insw(0x1F0, buf, {count});
                 outsw(0x1F0, buf, {count});
                 insb(0x1F0, bytes, {count});
                 outsb(0x1F0, bytes, {count});
                 return buf[0] + bytes[0];
             }}"
        );
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &[]);
        let want_fuel = interp.fuel_left();
        let compiled = program.to_bytecode();
        let mut vh = NullHost::default();
        let mut vm = Vm::new(&compiled, &mut vh, fuel);
        let got = vm.call("f", &[]);
        prop_assert_eq!(&got, &want, "value diverged for count {}", count);
        prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for count {}", count);
    }

    /// The preprocessor and parser never panic on printable garbage, and
    /// whatever compiles also lowers to bytecode without panicking.
    #[test]
    fn frontend_totality(src in "[ -~\\n]{0,300}") {
        if let Ok(p) = devil_minic::compile("fuzz.c", &src) {
            let _ = p.to_bytecode();
        }
    }

    /// Comparison chains produce strictly 0/1.
    #[test]
    fn comparisons_are_boolean(a in any::<i32>(), b in any::<i32>()) {
        let src = "int f(int a, int b) { return (a < b) + (a > b) + (a == b); }";
        let program = devil_minic::compile("t.c", src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 100_000);
        let got = interp
            .call("f", &[(a as i64).into(), (b as i64).into()])
            .unwrap()
            .as_int()
            .unwrap();
        prop_assert_eq!(got, 1, "exactly one of <, >, == holds");
    }
}

/// Loop-body statements for the hang-detector property. Some keep the
/// state in a cycle (masked updates, a callee that recomputes, scope
/// churn through pointers, struct fields), some move it for good (a
/// counter, console output, an unmasked narrow-typed store).
const LOOP_STMTS: [&str; 9] = [
    "x = (x + 3) & 7;",
    "n++;",
    "x = g(x);",
    "printk(\"x=%d\", x);",
    "if (x == 5) x = 0; else x = x | 1;",
    "{ int t = x; int *p = &t; x = *p ^ 2; }",
    "c = c + 1;",
    "k = inb(0x1F7) & 0x0F;",
    "s.a = x; s.b = s.a + 1;",
];

/// Loop conditions: a port that always reads busy, a bound a counter
/// reaches, and conditions the body may or may not ever falsify.
const LOOP_CONDS: [&str; 5] = ["inb(0x1F7) & 0x80", "n < 3000", "1", "x != 6", "k < 100"];

/// A small driver-shaped program whose `f` runs one loop built from
/// `cond` and `body` (indices into [`LOOP_CONDS`] and [`LOOP_STMTS`]).
fn loop_program(cond: usize, body: &[usize]) -> String {
    let body: String = body.iter().map(|&i| LOOP_STMTS[i]).collect::<Vec<_>>().join("\n        ");
    format!(
        "typedef unsigned char u8;
struct S_ {{ int a; int b; }};
int g(int v) {{ int i; for (i = 0; i < 2; i++) v = (v * 5 + 1) & 15; return v; }}
int f(void) {{
    int x = 1; int n = 0; int k = 0; u8 c = 250; struct S_ s;
    s.a = 0; s.b = 0;
    while ({cond}) {{
        {body}
    }}
    return x + n + k + c + s.b;
}}",
        cond = LOOP_CONDS[cond]
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The VM's hang detector is invisible: over loops that repeat their
    /// state, count, or print, and under budgets on both sides of the
    /// fuel at which the detector starts looking, the VM gives the
    /// oracle's result, remaining fuel, coverage and console.
    #[test]
    fn hang_detection_matches_tree_walker(
        cond in 0usize..LOOP_CONDS.len(),
        body in prop::collection::vec(0usize..LOOP_STMTS.len(), 1..4),
        fuel in 0u64..60_000,
    ) {
        let src = loop_program(cond, &body);
        let program = devil_minic::compile("t.c", &src).unwrap();
        let compiled = program.to_bytecode();
        for fuel in [fuel, fuel + devil_minic::vm::CYCLE_CHECK_AFTER] {
            let mut ih = NullHost::default();
            let mut interp = Interpreter::new(&program, &mut ih, fuel);
            let want = interp.call("f", &[]);
            let want_fuel = interp.fuel_left();
            let want_cov = interp.coverage().clone();
            drop(interp);

            let mut vh = NullHost::default();
            let mut vm = Vm::new(&compiled, &mut vh, fuel);
            let got = vm.call("f", &[]);
            prop_assert_eq!(&got, &want, "value diverged at fuel {} for {}", fuel, src);
            prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged at fuel {} for {}", fuel, src);
            prop_assert_eq!(vm.coverage(), &want_cov, "coverage diverged at fuel {} for {}", fuel, src);
            drop(vm);
            prop_assert_eq!(&vh.log, &ih.log, "console diverged at fuel {} for {}", fuel, src);
        }
    }
}
