//! # devil-core — the Devil IDL
//!
//! A reimplementation of the Devil interface-definition language from
//! *Improving Driver Robustness: an Evaluation of the Devil Approach*
//! (Réveillère & Muller, DSN-2001). A Devil specification describes a
//! device's communication interface in three layers — ports, registers and
//! typed device variables — and the compiler here:
//!
//! 1. parses it ([`parser`]),
//! 2. checks intra-layer and inter-layer consistency ([`check`]),
//! 3. generates C stubs in production or debug mode ([`codegen`]), and
//! 4. can execute the stubs directly against simulated hardware
//!    ([`runtime`]).
//!
//! ```
//! use devil_core::Spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//! device demo (base : bit[8] port @ {0..0}) {
//!   register status = read base @ 0 : bit[8];
//!   variable ready = status[7] : bool;
//!   variable code  = status[6..0] : int(7);
//! }
//! "#;
//! let checked = Spec::parse("demo.dil", src)?.check()?;
//! assert_eq!(checked.device_name(), "demo");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod codegen;
pub mod error;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod runtime;
pub mod span;
pub mod token;

pub use error::{DevilError, Stage};
pub use ir::CheckedSpec;

use span::SourceFile;
use std::fmt;

/// A parsed Devil specification bundled with its source file, the
/// convenient top-level entry point.
#[derive(Debug, Clone)]
pub struct Spec {
    file: SourceFile,
    ast: ast::DeviceSpec,
}

impl Spec {
    /// Lex and parse `source`, reporting errors against `name`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] carrying the rendered snippet on lexical
    /// or syntax errors.
    pub fn parse(name: &str, source: &str) -> Result<Spec, CompileError> {
        let file = SourceFile::new(name, source);
        match parser::parse(source) {
            Ok(ast) => Ok(Spec { file, ast }),
            Err(e) => Err(CompileError { rendered: e.render(&file), errors: vec![e] }),
        }
    }

    /// The parsed AST.
    pub fn ast(&self) -> &ast::DeviceSpec {
        &self.ast
    }

    /// The source file.
    pub fn file(&self) -> &SourceFile {
        &self.file
    }

    /// Run the layered consistency checker.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] collecting *all* violations.
    pub fn check(&self) -> Result<CheckedSpec, CompileError> {
        check::check(&self.ast).map_err(|errors| {
            let rendered = errors
                .iter()
                .map(|e| e.render(&self.file))
                .collect::<Vec<_>>()
                .join("\n");
            CompileError { rendered, errors }
        })
    }
}

/// Parse and check in one step.
///
/// # Errors
///
/// Returns the first stage's [`CompileError`]; parsing errors win over
/// checking errors because checking never runs on an unparsable file.
pub fn compile(name: &str, source: &str) -> Result<CheckedSpec, CompileError> {
    Spec::parse(name, source)?.check()
}

/// One or more Devil compilation errors with pre-rendered snippets.
#[derive(Debug, Clone)]
pub struct CompileError {
    rendered: String,
    errors: Vec<DevilError>,
}

impl CompileError {
    /// The individual stage errors.
    pub fn errors(&self) -> &[DevilError] {
        &self.errors
    }

    /// The stage of the first error.
    pub fn stage(&self) -> Stage {
        self.errors[0].stage
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_happy_path() {
        let checked = compile(
            "mini.dil",
            "device mini (b : bit[8] port @ {0..0}) {
               register r = b @ 0 : bit[8];
               variable v = r : int(8);
             }",
        )
        .unwrap();
        assert_eq!(checked.device_name(), "mini");
    }

    #[test]
    fn compile_error_renders_snippet() {
        let err = compile("bad.dil", "device mini (").unwrap_err();
        assert_eq!(err.stage(), Stage::Parse);
        assert!(err.to_string().contains("bad.dil:1:"), "{err}");
    }

    #[test]
    fn check_error_lists_all_violations() {
        let err = compile(
            "multi.dil",
            "device d (b : bit[8] port @ {0..1}) {
               register r = b @ 0 : bit[8];
               variable v = r : int(9);
             }",
        )
        .unwrap_err();
        // int(9) mismatch AND offset 1 unused.
        assert!(err.errors().len() >= 2, "{err}");
    }
}
