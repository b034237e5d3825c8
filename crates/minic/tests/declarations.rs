//! Struct and array declarations, checked where the parser builds them:
//! a struct holds by value only structs defined before it and gets one
//! body, so its layout is final at its `}`; and no array type or struct
//! body is larger than `parser::MAX_OBJECT_BYTES`.
//!
//! Each test compiles on a thread with a worker's 2 MiB stack, and runs
//! what compiles on both engines. The property test generates units of
//! struct definitions and a local, and checks that `compile` accepts
//! exactly the units the rules allow, that what it accepts lowers and
//! runs within a fixed allocation bound, and that what it rejects is a
//! spanned error.

use devil_minic::interp::{Interpreter, NullHost};
use devil_minic::parser::{MAX_NESTING, MAX_OBJECT_BYTES};
use devil_minic::vm::Vm;
use devil_minic::{CError, CPhase};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread tearing down its locals has no counter left to add to.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

struct CountingAllocator;

// SAFETY: delegates directly to `System`, only adding up the sizes each
// thread requests.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Run `work` on a thread with a worker's 2 MiB stack.
fn on_worker_stack<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(work)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the worker thread survives")
}

/// Compile `src` as `t.c` on a worker stack and, if it compiles, call its
/// `f` on both engines, which must agree. Returns `f`'s value and the
/// bytes lowering and the VM call allocated.
fn compile_and_run(src: &str) -> Result<(i64, u64), CError> {
    let src = src.to_string();
    on_worker_stack(move || {
        let program = devil_minic::compile("t.c", &src)?;
        let before = ALLOCATED.with(Cell::get);
        let compiled = program.to_bytecode();
        let mut vh = NullHost::default();
        let vm = Vm::new(&compiled, &mut vh, 1_000_000).call("f", &[]).map(|v| v.as_int());
        let bytes = ALLOCATED.with(Cell::get) - before;
        let mut ih = NullHost::default();
        let oracle = Interpreter::new(&program, &mut ih, 1_000_000).call("f", &[]).map(|v| v.as_int());
        assert_eq!(vm, oracle, "the engines disagree on {src}");
        let value = vm.ok().flatten().expect("`f` returns an int");
        Ok((value, bytes))
    })
}

/// Compile `src`, expecting a parse error at `line` whose message holds
/// `message`.
fn parse_error(src: &str, line: u32, message: &str) {
    let e = compile_and_run(src).expect_err(src);
    assert_eq!((e.phase, e.file.as_str(), e.line), (CPhase::Parse, "t.c", line), "{e}");
    assert!(e.message.contains(message), "{e}");
}

#[test]
fn a_struct_held_by_value_must_be_defined_first() {
    parse_error(
        "struct A { struct B f; int k; };\nint f(void) { struct A x; x.k = 3; return x.k; }\n",
        1,
        "field `f` has incomplete type `struct B`",
    );
    parse_error(
        "struct B;\nstruct A {\n  int k;\n  struct B f[2];\n};\n",
        4,
        "array element has incomplete type `struct B`",
    );
    parse_error(
        "struct A { struct A *next; struct A self; };\n",
        1,
        "field `self` has incomplete type `struct A`",
    );
    // Held through a pointer, or defined first, it is complete.
    let src = "struct B;\nstruct A { struct B *p; int k; };\nstruct B { struct A a; struct A pair[2]; };\n\
               int f(void) { struct B b; b.a.k = 3; return b.a.k; }\n";
    assert_eq!(compile_and_run(src).map(|(v, _)| v), Ok(3));
}

#[test]
fn a_tag_gets_one_body() {
    parse_error(
        "struct S { int a; };\nstruct S { int b; };\n",
        2,
        "redefinition of `struct S`",
    );
    parse_error(
        "struct S { struct S { int a; } inner; };\n",
        1,
        "redefinition of `struct S`",
    );
    // Declarations before and after the body are not bodies.
    let src = "struct S;\nstruct S { int a; };\nstruct S;\n\
               int f(void) { struct S s; s.a = 5; return s.a; }\n";
    assert_eq!(compile_and_run(src).map(|(v, _)| v), Ok(5));
}

#[test]
fn an_empty_body_defines_an_empty_struct() {
    // As in GNU C, an empty struct is complete and has size 0; held as a
    // field it takes one byte (see `types::Layout::size`).
    let src = "struct E {};\nstruct H { struct E e; char c; };\n\
               int f(void) { struct E e; struct H h; return sizeof(struct E) * 10 + sizeof(struct H); }\n";
    assert_eq!(compile_and_run(src).map(|(v, _)| v), Ok(2));
}

/// Each object shape at the size bound, and the same shape past it: one
/// byte past for arrays and struct bodies, one level past for a chain of
/// structs each holding two of the one before, the costliest shape per
/// byte measured.
fn objects_at_the_bound() -> Vec<(&'static str, String, String)> {
    let local = |n: usize| format!("int f(void) {{ char a[{n}]; a[{n} - 1] = 3; return a[{n} - 1]; }}\n");
    let global = |n: usize| format!("char g[{n}];\nint f(void) {{ g[0] = 4; return g[0]; }}\n");
    let body = |n: usize| {
        format!(
            "struct big {{ char a[{}]; char b; }};\n\
             int f(void) {{ struct big v; struct big w; v.b = 5; w = v; return w.b; }}\n",
            n - 1
        )
    };
    let chain = |levels: usize| {
        let mut src = String::from("struct s0 { char c; };\n");
        for k in 1..=levels {
            src.push_str(&format!("struct s{k} {{ struct s{0} a; struct s{0} b; }};\n", k - 1));
        }
        src + &format!("int f(void) {{ struct s{levels} v; struct s{levels} w; w = v; return 6; }}\n")
    };
    let levels = MAX_OBJECT_BYTES.ilog2() as usize;
    assert_eq!(1 << levels, MAX_OBJECT_BYTES, "the chain fills the bound exactly");
    let n = MAX_OBJECT_BYTES;
    vec![
        ("local array", local(n), local(n + 1)),
        ("global array", global(n), global(n + 1)),
        ("struct body", body(n), body(n + 1)),
        ("doubling chain", chain(levels), chain(levels + 1)),
    ]
}

#[test]
fn the_largest_object_runs_on_a_worker_stack_and_one_byte_more_is_an_error() {
    let too_large = format!("larger than {MAX_OBJECT_BYTES} bytes");
    for (shape, largest, past) in objects_at_the_bound() {
        let value = compile_and_run(&largest).map(|(v, _)| v);
        assert!(matches!(value, Ok(3..=6)), "{shape}: {value:?}");
        let e = compile_and_run(&past).expect_err(shape);
        assert_eq!(e.phase, CPhase::Parse, "{shape}: {e}");
        assert!(e.line >= 1 && e.message.contains(&too_large), "{shape}: {e}");
    }
    // Lengths whose byte count overflows a `usize` saturate, not wrap.
    for len in ["18446744073709551615", "4611686018427387904"] {
        parse_error(&format!("int a[{len}];\n"), 1, &too_large);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times a 2.4 MB unit; run in release")]
fn a_hundred_thousand_struct_definitions_compile_in_linear_time() {
    // Each tag is declared and looked up once, through the tag index.
    let mut src = String::new();
    for k in 0..100_000 {
        src.push_str(&format!("struct s{k} {{ int a; }};\n"));
    }
    src.push_str("int f(void) { struct s99999 v; v.a = 6; return v.a; }\n");
    let started = Instant::now();
    let compiled = on_worker_stack(move || devil_minic::compile("many.c", &src).map(|_| ()));
    let took = started.elapsed();
    assert_eq!(compiled, Ok(()));
    assert!(took < Duration::from_secs(5), "100,000 definitions took {took:?}");
}

/// Scalar field types and their sizes.
const SCALARS: [(&str, usize); 3] = [("char", 1), ("short", 2), ("int", 4)];

/// Array lengths around the size bound, and two whose byte counts
/// overflow a `usize`.
const LENGTHS: [usize; 13] = [
    0,
    1,
    2,
    3,
    4_095,
    16_384,
    21_845,
    32_768,
    65_535,
    65_536,
    65_537,
    1 << 40,
    usize::MAX,
];

/// The type of a generated field or local. A tag is drawn relative to
/// the struct being defined (see [`tag`]).
#[derive(Debug, Clone, Copy)]
enum Use {
    Scalar(usize),
    Pointer(usize),
    Value(usize),
    Array(usize, usize),
    ScalarArray(usize, usize),
}

fn use_strategy() -> impl Strategy<Value = Use> {
    prop_oneof![
        (0..SCALARS.len()).prop_map(Use::Scalar),
        (0usize..11).prop_map(Use::Pointer),
        (0usize..11).prop_map(Use::Value),
        (0usize..11, 0..LENGTHS.len()).prop_map(|(t, n)| Use::Array(t, n)),
        (0..SCALARS.len(), 0..LENGTHS.len()).prop_map(|(s, n)| Use::ScalarArray(s, n)),
    ]
}

/// The tag `pick` names from struct `k` (the local's `k` is the struct
/// count): mostly an earlier struct, else `k`'s own tag or a later one,
/// which may never be defined.
fn tag(k: usize, pick: usize) -> usize {
    match pick {
        0..=7 if k > 0 => pick % k,
        0..=8 => k,
        9 => k + 1,
        _ => k + 3,
    }
}

/// The declaration of `name` with type `u`, written in struct `k`.
fn declaration(k: usize, u: Use, name: &str) -> String {
    match u {
        Use::Scalar(s) => format!("{} {name};", SCALARS[s].0),
        Use::Pointer(t) => format!("struct s{} *{name};", tag(k, t)),
        Use::Value(t) => format!("struct s{} {name};", tag(k, t)),
        Use::Array(t, n) => format!("struct s{} {name}[{}];", tag(k, t), LENGTHS[n]),
        Use::ScalarArray(s, n) => format!("{} {name}[{}];", SCALARS[s].0, LENGTHS[n]),
    }
}

fn unit_source(structs: &[Vec<Use>], local: Use) -> String {
    let mut src = String::new();
    for (k, fields) in structs.iter().enumerate() {
        src.push_str(&format!("struct s{k} {{"));
        for (i, &field) in fields.iter().enumerate() {
            src.push_str(&format!(" {}", declaration(k, field, &format!("f{i}"))));
        }
        src.push_str(" };\n");
    }
    let local = declaration(structs.len(), local, "v");
    src + &format!("int f(void) {{\n  {local}\n  return 7;\n}}\n")
}

/// The by-value depth and byte size of an object of type `u` written in
/// struct `k`, given the depth and size of each struct defined so far;
/// `None` where the rules reject it.
fn object(layouts: &[(u32, usize)], k: usize, u: Use) -> Option<(u32, usize)> {
    let array = |(depth, size): (u32, usize), n: usize| {
        let bytes = size.max(1).saturating_mul(LENGTHS[n]);
        (bytes <= MAX_OBJECT_BYTES).then_some((depth + 1, bytes))
    };
    match u {
        Use::Scalar(s) => Some((0, SCALARS[s].1)),
        Use::Pointer(_) => Some((0, 4)),
        Use::Value(t) => layouts.get(tag(k, t)).copied(),
        Use::Array(t, n) => array(*layouts.get(tag(k, t))?, n),
        Use::ScalarArray(s, n) => array((0, SCALARS[s].1), n),
    }
}

/// Whether the rules accept the unit: every struct held by value is
/// defined before it is used, no struct nests deeper than `MAX_NESTING`,
/// no object is larger than `MAX_OBJECT_BYTES`, and the local, which the
/// checker requires to be complete, is no zero-length array.
fn valid(structs: &[Vec<Use>], local: Use) -> bool {
    let mut layouts = Vec::new();
    for (k, fields) in structs.iter().enumerate() {
        let (mut depth, mut size) = (1, 0usize);
        for &field in fields {
            let Some((d, s)) = object(&layouts, k, field) else { return false };
            depth = depth.max(d + 1);
            size = size.saturating_add(s.max(1));
        }
        if depth > MAX_NESTING || size > MAX_OBJECT_BYTES {
            return false;
        }
        layouts.push((depth, size));
    }
    let zero_length = matches!(local, Use::Array(_, 0) | Use::ScalarArray(_, 0));
    object(&layouts, structs.len(), local).is_some() && !zero_length
}

/// What lowering and one VM call may allocate for a unit that holds one
/// object at the size bound, with room to spare: a 64 KiB char array
/// takes about 3 MB and a chain of structs each holding two of the one
/// before about 20 MB.
const ALLOCATION_BOUND: u64 = 1_024 * MAX_OBJECT_BYTES as u64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1_024 }))]

    /// `compile` never panics, accepts exactly the units the rules allow,
    /// and rejects the rest with a spanned error; what it accepts lowers
    /// and runs on both engines, which agree, within the allocation bound.
    #[test]
    fn declarations_compile_exactly_when_the_rules_allow(
        structs in prop::collection::vec(prop::collection::vec(use_strategy(), 0..4), 0..9),
        local in use_strategy(),
    ) {
        let src = unit_source(&structs, local);
        match compile_and_run(&src) {
            Ok((value, bytes)) => {
                prop_assert!(valid(&structs, local), "accepted:\n{src}");
                prop_assert_eq!(value, 7);
                prop_assert!(bytes < ALLOCATION_BOUND, "{bytes} bytes for:\n{src}");
            }
            Err(e) => {
                prop_assert!(!valid(&structs, local), "{e}\n{src}");
                prop_assert!(!e.file.is_empty() && e.line >= 1, "{e}");
            }
        }
    }
}
