//! The parser's nesting budgets (`parser::MAX_NESTING`): one for
//! statements and expressions, one for types, and one for structs held by
//! value.
//!
//! The checker, lowering and the interpreter recurse over the syntax
//! tree and over types, so a deeply nested program could overflow a
//! worker's stack and abort the process. The parser rejects anything
//! nested deeper than its budget with a spanned parse error. These tests
//! find, for each nesting shape, the deepest program the parser accepts,
//! and check that it compiles, lowers and runs on both engines within a
//! 2 MiB thread stack (the size of a spawned campaign or service worker),
//! while one level deeper, and 100,000 levels deep, is an error.

use devil_minic::interp::{Interpreter, NullHost};
use devil_minic::parser::MAX_NESTING;
use devil_minic::vm::Vm;
use devil_minic::CPhase;

/// One nesting shape: the opening text repeated `depth` times around an
/// innermost statement, operand or declarator name, then the closing text
/// as often.
struct Shape {
    name: &'static str,
    open: &'static str,
    inner: &'static str,
    close: &'static str,
    at: At,
}

/// Where a shape nests.
enum At {
    /// In the statements of `f`'s body.
    Statement,
    /// In the expression of `x = ...;`.
    Expression,
    /// In the declarator of a local, `int ...;`.
    Declarator,
    /// In a chain of typedefs before `f`, each naming a pointer to the one
    /// before it, whose last one types a local (`open`, `inner` and
    /// `close` are unused).
    TypedefChain,
    /// In a chain of struct definitions before `f`, each holding the one
    /// before it by value, whose last one types two locals, one copied to
    /// the other (`open`, `inner` and `close` are unused).
    StructChain,
}

static SHAPES: [Shape; 11] = [
    Shape {
        name: "blocks",
        open: "{ ",
        inner: "x = 2;",
        close: "} ",
        at: At::Statement,
    },
    Shape {
        name: "if bodies",
        open: "if (x) { ",
        inner: "x = 2;",
        close: "} ",
        at: At::Statement,
    },
    Shape {
        name: "loops",
        open: "while (x < 2) ",
        inner: "x++;",
        close: "",
        at: At::Statement,
    },
    Shape {
        name: "parentheses",
        open: "(",
        inner: "2",
        close: ")",
        at: At::Expression,
    },
    Shape {
        name: "unary minus",
        open: "- ",
        inner: "2",
        close: "",
        at: At::Expression,
    },
    Shape {
        name: "casts",
        open: "(int)",
        inner: "2",
        close: "",
        at: At::Expression,
    },
    Shape {
        name: "assignments",
        open: "x = ",
        inner: "2",
        close: "",
        at: At::Expression,
    },
    Shape {
        name: "sums",
        open: "",
        inner: "2",
        close: " + 0",
        at: At::Expression,
    },
    Shape {
        name: "pointer declarators",
        open: "*",
        inner: "p",
        close: "",
        at: At::Declarator,
    },
    Shape {
        name: "typedef chains",
        open: "",
        inner: "",
        close: "",
        at: At::TypedefChain,
    },
    Shape {
        name: "struct chains",
        open: "",
        inner: "",
        close: "",
        at: At::StructChain,
    },
];

fn program(shape: &Shape, depth: usize) -> String {
    let nested = format!(
        "{}{}{}",
        shape.open.repeat(depth),
        shape.inner,
        shape.close.repeat(depth)
    );
    let mut typedefs = String::new();
    let body = match shape.at {
        At::Statement => nested,
        At::Expression => format!("x = {nested};"),
        At::Declarator => format!("int {nested};"),
        At::TypedefChain => {
            typedefs.push_str("typedef int t0;\n");
            for k in 1..=depth {
                typedefs.push_str(&format!("typedef t{} *t{k};\n", k - 1));
            }
            format!("t{depth} p;")
        }
        At::StructChain => {
            typedefs.push_str("struct s1 { int a; };\n");
            for k in 2..=depth {
                typedefs.push_str(&format!("struct s{k} {{ struct s{} f; }};\n", k - 1));
            }
            format!("struct s{depth} v;\n  struct s{depth} w;\n  w = v;")
        }
    };
    format!("{typedefs}int f(void) {{\n  int x = 1;\n  {body}\n  return x;\n}}\n")
}

/// Run `work` on a thread with a worker's 2 MiB stack.
fn on_worker_stack<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(work)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the worker thread survives")
}

/// Whether `src` is rejected for nesting too deep, at a source line.
fn too_deep(src: &str) -> bool {
    match devil_minic::compile("deep.c", src) {
        Ok(_) => false,
        Err(e) => {
            assert_eq!(e.phase, CPhase::Parse, "{e}");
            assert_eq!(e.file, "deep.c");
            assert!(e.line >= 1, "{e}");
            assert!(e.message.contains("nesting deeper than"), "{e}");
            true
        }
    }
}

#[test]
fn the_deepest_accepted_program_runs_on_a_worker_stack() {
    for shape in &SHAPES {
        let deepest = on_worker_stack(move || {
            let accepted = (1..).take_while(|&d| !too_deep(&program(shape, d))).last();
            accepted.expect("one level of nesting is accepted")
        });
        // Every shape holds one or two levels per nesting step, so the
        // budget allows at least a third of its levels in each; a type has
        // the whole of its own budget, wherever it is written.
        assert!(
            deepest >= MAX_NESTING as usize / 3,
            "{}: only {deepest} levels accepted",
            shape.name
        );
        if matches!(shape.at, At::Declarator | At::TypedefChain | At::StructChain) {
            assert_eq!(deepest, MAX_NESTING as usize, "{}", shape.name);
        }
        let src = program(shape, deepest);
        let (vm, oracle) = on_worker_stack(move || {
            let program = devil_minic::compile("deep.c", &src).expect("accepted program compiles");
            let compiled = program.to_bytecode();
            let mut vh = NullHost::default();
            let vm = Vm::new(&compiled, &mut vh, 1_000_000).call("f", &[]);
            let mut ih = NullHost::default();
            let oracle = Interpreter::new(&program, &mut ih, 1_000_000).call("f", &[]);
            // Values hold `Rc`s, which stay on the worker thread.
            let int = |r: Result<devil_minic::value::Value, _>| r.map(|v| v.as_int());
            (int(vm), int(oracle))
        });
        assert_eq!(
            vm, oracle,
            "{}: engines disagree at {deepest} levels",
            shape.name
        );
        assert!(vm.is_ok(), "{}: {vm:?}", shape.name);
        let one_more = program(shape, deepest + 1);
        assert!(
            on_worker_stack(move || too_deep(&one_more)),
            "{}",
            shape.name
        );
    }
}

#[test]
fn a_hundred_thousand_levels_is_a_parse_error() {
    for shape in &SHAPES {
        let src = program(shape, 100_000);
        assert!(on_worker_stack(move || too_deep(&src)), "{}", shape.name);
    }
}

/// `depth` structs, each holding the one defined after it by value, and a
/// local of the first.
fn forward_struct_chain(depth: usize) -> String {
    let mut src = String::new();
    for k in 1..depth {
        src.push_str(&format!("struct s{k} {{ struct s{} f; }};\n", k + 1));
    }
    src + &format!("struct s{depth} {{ int a; }};\nint f(void) {{\n  struct s1 v;\n  return 0;\n}}\n")
}

#[test]
fn structs_nest_by_value_within_the_budget_however_they_are_defined() {
    let budget = MAX_NESTING as usize;
    let deepest = forward_struct_chain(budget);
    assert!(!on_worker_stack(move || too_deep(&deepest)), "{budget} levels are accepted");
    // One level past the budget, a struct holding itself, and two holding
    // each other (one through an array) all nest too deep.
    for src in [
        forward_struct_chain(budget + 1),
        "struct a { struct a f; };\nint f(void) {\n  struct a x;\n  return 0;\n}\n".into(),
        "struct b;\nstruct a { struct b f; };\nstruct b { struct a g[2]; };\n\
         int f(void) {\n  struct a x;\n  return 0;\n}\n"
            .into(),
    ] {
        let shown = src.lines().next().unwrap_or_default().to_string();
        assert!(on_worker_stack(move || too_deep(&src)), "{shown}");
    }
}
