//! # devil-minic — a C-subset compiler and interpreter
//!
//! The Devil paper compiles mutated drivers with gcc and boots them in a
//! real Linux kernel. This crate stands in for both: a faithful C-subset
//! front end whose **type checker** reproduces the compile-time error
//! detection of a kernel build (nominal struct types, pointer/integer
//! discipline, arity checking — with warnings promoted to errors, as kernel
//! builds do), and a fuel-bounded **interpreter** that executes the driver
//! against simulated hardware so run-time outcomes (assertion, crash, hang,
//! panic) can be observed deterministically.
//!
//! Pipeline: [`pp`] (preprocessor) → [`parser`] → [`check`] (the
//! "compile") → [`bytecode`] (lowering, with small-call inlining and the
//! superinstruction fusion pass) → [`vm`] (the "run").
//!
//! The tree-walking [`interp`] predates the VM and survives as its
//! differential oracle: both engines execute the same checked [`Program`]
//! with observably identical results (see `bytecode`'s equivalence
//! contract). New harness code should lower once with
//! [`Program::to_bytecode`] and boot mutants through [`vm::Vm`].
//!
//! # Front-end checkpoints
//!
//! A CDevil driver includes a generated stub header that is most of its
//! token stream, and every mutant of the driver differs from it only
//! after the `#include`. [`compile_with_cache`] therefore compiles that
//! header once per [`pp::IncludeCache`]. The first compile through a
//! cache cuts its main file after the last `#include` line and, if that
//! prefix compiles on its own, records a checkpoint (if it does not, the
//! cache never records one; a long-lived cache should be warmed with the
//! clean driver, as the classification service does): the preprocessor's
//! macro table and file list, the parser's items, struct table and
//! typedefs, and the checker's pass-1 environment with the prefix's
//! initialisers and bodies already checked. Every later compile whose
//! source starts with the same prefix bytes preprocesses, parses and
//! checks only the remainder, from that state, and shares the prefix's
//! items instead of copying them. Each stage is one implementation that
//! takes a starting state; a full compile starts from the empty one.
//!
//! The cut must fall outside every conditional block, comment, string,
//! character constant and `\` continuation, or no checkpoint is made.
//! A stage resumes only when the remainder cannot change what the
//! prefix compiled to; otherwise it runs in full over the whole unit,
//! which is also the oracle the resumed stages are tested against:
//!
//! * the preprocessor expands the whole unit with the macro table the
//!   *last* directive leaves (`int x = K;\n#define K 9` sets `x` to 9), so
//!   preprocessing runs in full when the remainder holds any directive
//!   (no macro call can span the cut: a prefix that compiles on its own
//!   ends with a complete item, never with a function-like macro's
//!   name); parsing resumes whenever preprocessing did and succeeded;
//! * the checker collects every declaration before it checks any body,
//!   so checking runs in full when the remainder completes a struct the
//!   prefix only declared, or declares a name the prefix or a builtin
//!   already declares.
//!
//! [`pp::IncludeCache::resume_stats`] counts the compiles that resumed
//! each stage and, per guard, those that fell back.
//!
//! ```
//! use devil_minic::{compile, interp::{Interpreter, NullHost}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile("add.c", "int add(int a, int b) { return a + b; }")?;
//! let mut host = NullHost::default();
//! let mut interp = Interpreter::new(&program, &mut host, 10_000);
//! let result = interp.call("add", &[2.into(), 40.into()])?;
//! assert_eq!(result.as_int(), Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod check;
pub mod coverage;
pub mod deadline;
pub mod error;
mod fuse;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pp;
mod resume;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

pub use bytecode::CompiledProgram;
pub use coverage::Coverage;
pub use deadline::Deadline;
pub use error::{CError, CPhase};
pub use resume::ResumeStats;

/// A fully checked program, ready to interpret.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The translation unit.
    pub unit: ast::Unit,
    /// Struct layouts resolved by the checker.
    pub structs: types::StructTable,
}

/// Preprocess, parse and type-check one translation unit.
///
/// # Errors
///
/// Returns the first preprocessing or syntax error, or the full list of
/// type errors, as a [`CError`].
pub fn compile(file: &str, source: &str) -> Result<Program, CError> {
    compile_with_includes(file, source, &[])
}

/// Like [`compile`], with a set of `(name, text)` virtual include files for
/// `#include "name"` resolution — how CDevil drivers pull in their
/// generated stub header.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_includes(
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Result<Program, CError> {
    let tokens = pp::preprocess(file, source, includes)?;
    let unit = parser::parse(tokens)?;
    let structs = check::check(&unit)?;
    Ok(Program { unit, structs })
}

/// Like [`compile_with_includes`], over a [`pp::IncludeCache`]'s include
/// set — the mutation-campaign fast path, where thousands of mutated
/// drivers compile against one unchanged header set. Build the cache once
/// (it is `Sync`; campaign workers can share it): the main file's prefix
/// up to its last `#include` is preprocessed, parsed and checked once, by
/// the first compile through the cache (see
/// [Front-end checkpoints](crate#front-end-checkpoints)). Later compiles
/// of the same file starting with the same prefix bytes compile only what
/// follows it; any other source compiles in full.
///
/// # Errors
///
/// Identical to [`compile_with_includes`] over `cache.includes()`.
pub fn compile_with_cache(
    file: &str,
    source: &str,
    cache: &pp::IncludeCache,
) -> Result<Program, CError> {
    resume::compile(file, source, cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let p = compile("t.c", "int main(void) { return 7; }").unwrap();
        assert_eq!(p.unit.functions().count(), 1);
    }

    #[test]
    fn compile_reports_type_errors() {
        let err = compile("t.c", "int f(void) { return g(); }").unwrap_err();
        assert_eq!(err.phase, CPhase::Check);
    }

    #[test]
    fn include_resolution() {
        let p = compile_with_includes(
            "drv.c",
            "#include \"hdr.h\"\nint use(void) { return helper(); }",
            &[("hdr.h", "static int helper(void) { return 3; }")],
        )
        .unwrap();
        assert_eq!(p.unit.functions().count(), 2);
    }
}
