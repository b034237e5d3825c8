//! The parser's nesting budget (`parser::MAX_NESTING`).
//!
//! The checker, lowering and the interpreter recurse over the syntax
//! tree, so a deeply nested program could overflow a worker's stack and
//! abort the process. The parser rejects anything nested deeper than its
//! budget with a spanned parse error. These tests find, for each nesting
//! shape, the deepest program the parser accepts, and check that it
//! compiles, lowers and runs on both engines within a 2 MiB thread stack
//! (the size of a spawned campaign or service worker), while one level
//! deeper, and 100,000 levels deep, is an error.

use devil_minic::interp::{Interpreter, NullHost};
use devil_minic::parser::MAX_NESTING;
use devil_minic::vm::Vm;
use devil_minic::CPhase;

/// One nesting shape: the opening text repeated `depth` times around an
/// innermost statement or operand, then the closing text as often.
struct Shape {
    name: &'static str,
    open: &'static str,
    inner: &'static str,
    close: &'static str,
    /// Whether the shape nests statements (else an expression in
    /// `x = ...;`).
    statement: bool,
}

static SHAPES: [Shape; 8] = [
    Shape {
        name: "blocks",
        open: "{ ",
        inner: "x = 2;",
        close: "} ",
        statement: true,
    },
    Shape {
        name: "if bodies",
        open: "if (x) { ",
        inner: "x = 2;",
        close: "} ",
        statement: true,
    },
    Shape {
        name: "loops",
        open: "while (x < 2) ",
        inner: "x++;",
        close: "",
        statement: true,
    },
    Shape {
        name: "parentheses",
        open: "(",
        inner: "2",
        close: ")",
        statement: false,
    },
    Shape {
        name: "unary minus",
        open: "- ",
        inner: "2",
        close: "",
        statement: false,
    },
    Shape {
        name: "casts",
        open: "(int)",
        inner: "2",
        close: "",
        statement: false,
    },
    Shape {
        name: "assignments",
        open: "x = ",
        inner: "2",
        close: "",
        statement: false,
    },
    Shape {
        name: "sums",
        open: "",
        inner: "2",
        close: " + 0",
        statement: false,
    },
];

fn program(shape: &Shape, depth: usize) -> String {
    let nested = format!(
        "{}{}{}",
        shape.open.repeat(depth),
        shape.inner,
        shape.close.repeat(depth)
    );
    let body = if shape.statement {
        nested
    } else {
        format!("x = {nested};")
    };
    format!("int f(void) {{\n  int x = 1;\n  {body}\n  return x;\n}}\n")
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
        // budget allows at least a third of its levels in each.
        assert!(
            deepest >= MAX_NESTING as usize / 3,
            "{}: only {deepest} levels accepted",
            shape.name
        );
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
