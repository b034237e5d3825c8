//! Front-end checkpoints: compile a main file's header prefix once, then
//! preprocess, parse and check only what follows it.
//!
//! The crate docs describe the checkpoint and its guards; this module
//! holds the checkpoint, the guard checks between stages, and the counts
//! of how compiles used it.

use crate::ast::Unit;
use crate::check::{self, Env};
use crate::error::CError;
use crate::parser::{self, ParseState};
use crate::pp::{self, IncludeCache, PrefixState};
use crate::types::StructId;
use crate::Program;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a compile ran a stage in full instead of resuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Guard {
    /// No checkpoint covers the source: none was recorded, or it was
    /// recorded for another file name or other prefix bytes.
    NoCheckpoint,
    /// The remainder holds a preprocessor directive.
    Directive,
    /// The remainder completes a struct the prefix only declared.
    StructCompletion,
    /// The remainder declares a name the prefix or a builtin declares.
    NameClash,
}

/// How the compiles through one [`IncludeCache`] used its front-end
/// checkpoint: how many resumed each stage, and, per guard, how many ran
/// in full. A compile whose resumed preprocessing succeeds resumes
/// parsing too, and then checking unless a check guard declines it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Compiles that preprocessed only the remainder.
    pub pp: u64,
    /// Compiles that parsed only the remainder.
    pub parse: u64,
    /// Compiles that checked only the remainder.
    pub check: u64,
    /// Compiles run in full because no checkpoint covers their prefix.
    pub no_checkpoint: u64,
    /// Compiles run in full because the remainder holds a directive.
    pub directive: u64,
    /// Compiles checked in full because the remainder completes a struct
    /// the prefix only declared.
    pub struct_completion: u64,
    /// Compiles checked in full because the remainder declares a name the
    /// prefix or a builtin declares.
    pub name_clash: u64,
}

impl ResumeStats {
    /// Compiles that ran every stage in full.
    pub fn full(&self) -> u64 {
        self.no_checkpoint + self.directive
    }
}

/// The stage a compile resumed.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Pp,
    Parse,
    Check,
}

/// The live counts behind [`ResumeStats`]. They publish no other data, so
/// relaxed ordering suffices.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    resumed: [AtomicU64; 3],
    declined: [AtomicU64; 4],
}

impl Counters {
    fn resumed(&self, stage: Stage) {
        self.resumed[stage as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn declined(&self, guard: Guard) {
        self.declined[guard as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ResumeStats {
        let r = |s: Stage| self.resumed[s as usize].load(Ordering::Relaxed);
        let d = |g: Guard| self.declined[g as usize].load(Ordering::Relaxed);
        ResumeStats {
            pp: r(Stage::Pp),
            parse: r(Stage::Parse),
            check: r(Stage::Check),
            no_checkpoint: d(Guard::NoCheckpoint),
            directive: d(Guard::Directive),
            struct_completion: d(Guard::StructCompletion),
            name_clash: d(Guard::NameClash),
        }
    }
}

/// The front end's state after a main file's prefix, which compiled on
/// its own.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    file: String,
    prefix: String,
    pp: PrefixState,
    parse: ParseState,
    /// The builtins and every file-scope name the prefix declares, its
    /// initialisers and function bodies already checked.
    env: Env,
    /// Structs the prefix declared without defining them.
    incomplete: Vec<StructId>,
}

impl Checkpoint {
    /// Compile `source`'s prefix on its own. `None` when the source has no
    /// prefix to cut, or the prefix does not compile.
    fn build(file: &str, source: &str, cache: &IncludeCache) -> Option<Checkpoint> {
        let prefix = &source[..pp::prefix_cut(source)?];
        let (pp, tokens) = pp::preprocess_prefix(file, prefix, cache).ok()?;
        let empty = ParseState::default();
        let (unit, typedefs) = parser::parse_from(tokens, &empty).ok()?;
        let typedefs = typedefs.into_owned();
        let declared = check::check_items(unit.items(), &unit.structs, check::builtins()).ok()?;
        let (items, structs) = unit.into_shared();
        let incomplete = (0..structs.len())
            .map(StructId)
            .filter(|&id| structs.get(id).fields.is_empty())
            .collect();
        Some(Checkpoint {
            file: file.to_string(),
            prefix: prefix.to_string(),
            pp,
            parse: ParseState {
                items,
                structs,
                typedefs,
            },
            env: declared.over(check::builtins()),
            incomplete,
        })
    }

    /// The guard that keeps `unit`'s remainder from being checked on top
    /// of the prefix's environment, if any: the prefix's bodies were
    /// checked against the prefix's declarations and struct table, which
    /// a remainder may neither shadow nor complete.
    fn check_guard(&self, unit: &Unit) -> Option<Guard> {
        if self
            .incomplete
            .iter()
            .any(|&id| !unit.structs.get(id).fields.is_empty())
        {
            return Some(Guard::StructCompletion);
        }
        unit.own_items()
            .iter()
            .any(|item| self.env.declares(item.name()))
            .then_some(Guard::NameClash)
    }
}

/// The checkpoint that covers `file`'s `source`, pinning one from this
/// source if the cache has none yet.
fn checkpoint<'c>(cache: &'c IncludeCache, file: &str, source: &str) -> Option<&'c Checkpoint> {
    if cache.is_empty() {
        return None;
    }
    let ck = cache
        .checkpoint
        .get_or_init(|| Checkpoint::build(file, source, cache))
        .as_ref()?;
    (ck.file == file && source.starts_with(&ck.prefix)).then_some(ck)
}

/// Compile `source` through `cache`, resuming each stage from the cache's
/// checkpoint unless a guard declines it; see [`crate::compile_with_cache`].
pub(crate) fn compile(file: &str, source: &str, cache: &IncludeCache) -> Result<Program, CError> {
    let counters = &cache.counters;
    let Some(ck) = checkpoint(cache, file, source) else {
        counters.declined(Guard::NoCheckpoint);
        return compile_in_full(file, source, cache);
    };
    let tokens = match pp::preprocess_rest(file, source, ck.prefix.len(), &ck.pp) {
        Ok(tokens) => tokens,
        Err(guard) => {
            counters.declined(guard);
            return compile_in_full(file, source, cache);
        }
    };
    counters.resumed(Stage::Pp);
    let tokens = tokens?;
    counters.resumed(Stage::Parse);
    let (unit, _) = parser::parse_from(tokens, &ck.parse)?;
    let structs = match ck.check_guard(&unit) {
        Some(guard) => {
            counters.declined(guard);
            check::check(&unit)?
        }
        None => {
            counters.resumed(Stage::Check);
            check::check_items(unit.own_items().iter(), &unit.structs, &ck.env)?;
            unit.structs.clone()
        }
    };
    Ok(Program { unit, structs })
}

/// Every stage over the whole unit: the fallback, and the oracle the
/// resumed stages are tested against.
fn compile_in_full(file: &str, source: &str, cache: &IncludeCache) -> Result<Program, CError> {
    crate::compile_with_includes(file, source, &cache.includes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_with_includes;

    const FILE: &str = "drv.c";
    const PREFIX: &str = "int before;\n#include \"h.h\"\n";

    /// Compile `PREFIX + clean` (which pins the checkpoint), then
    /// `PREFIX + rest`, through one cache over `header`. Asserts the second
    /// compile returns exactly what the full compile does; returns that
    /// result and the cache's counts.
    fn after_clean(
        header: &str,
        clean: &str,
        rest: &str,
    ) -> (Result<Program, CError>, ResumeStats) {
        let includes = [("h.h", header)];
        let cache = IncludeCache::new(&includes);
        compile_checked(&cache, &includes, &format!("{PREFIX}{clean}"))
            .expect("the clean remainder compiles");
        let result = compile_checked(&cache, &includes, &format!("{PREFIX}{rest}"));
        (result, cache.resume_stats())
    }

    /// Compile `source` through `cache`, asserting the result is exactly
    /// the full compile's.
    fn compile_checked(
        cache: &IncludeCache,
        includes: &[(&str, &str)],
        source: &str,
    ) -> Result<Program, CError> {
        let cached = compile(FILE, source, cache);
        assert_eq!(
            cached,
            compile_with_includes(FILE, source, includes),
            "{source}"
        );
        cached
    }

    /// Counts of a clean compile that pinned the checkpoint, plus `more`.
    fn clean_plus(more: ResumeStats) -> ResumeStats {
        ResumeStats {
            pp: more.pp + 1,
            parse: more.parse + 1,
            check: more.check + 1,
            ..more
        }
    }

    #[test]
    fn a_clean_remainder_resumes_every_stage() {
        let header = "#define K 2\nstatic int helper(int x) { return x * K; }\n";
        let (result, stats) = after_clean(
            header,
            "int a(void) { return helper(1); }\n",
            "int b(void) { return helper(K) + before; }\n",
        );
        let program = result.expect("compiles");
        assert_eq!(program.unit.functions().count(), 2);
        assert_eq!(
            stats,
            clean_plus(ResumeStats {
                pp: 1,
                parse: 1,
                check: 1,
                ..Default::default()
            })
        );
    }

    #[test]
    fn a_directive_after_the_cut_declines_preprocessing() {
        // The header's `K` expands with the table the last directive
        // leaves, so redefining it after the include changes `helper`.
        let header = "#define K 1\nstatic int helper(void) { return K; }\n";
        let (result, stats) = after_clean(
            header,
            "int use(void) { return helper(); }\n",
            "#undef K\n#define K 9\nint use(void) { return helper(); }\n",
        );
        let program = result.expect("compiles");
        let helper = program.unit.function("helper").expect("header function");
        assert!(
            matches!(
                &helper.body.stmts[0],
                crate::ast::Stmt::Return(Some(crate::ast::Expr::IntLit { value: 9, .. }), _)
            ),
            "{helper:?}"
        );
        assert_eq!(
            stats,
            clean_plus(ResumeStats {
                directive: 1,
                ..Default::default()
            })
        );
    }

    #[test]
    fn a_prefix_ending_in_a_function_like_macro_name_makes_no_checkpoint() {
        // `F` followed by the remainder's `(y)` is a call that spans the
        // cut; on its own the prefix ends in a bare identifier and does
        // not parse, so no checkpoint covers it.
        let includes = [("h.h", "#define F(x) int x\nF")];
        let cache = IncludeCache::new(&includes);
        let source = format!("{PREFIX}(y);\nint use(void) {{ return y; }}\n");
        compile_checked(&cache, &includes, &source).expect("the call compiles");
        let stats = cache.resume_stats();
        assert_eq!(
            stats,
            ResumeStats {
                no_checkpoint: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn completing_a_prefix_struct_declines_checking() {
        let header = "struct Fwd;\nstatic int nonnull(struct Fwd *p) { return p != 0; }\n";
        let (result, stats) = after_clean(
            header,
            "int use(void) { return nonnull(0); }\n",
            "struct Fwd { int x; };\nstruct Fwd g;\nint use(void) { return nonnull(&g) + g.x; }\n",
        );
        result.expect("compiles");
        assert_eq!(
            stats,
            clean_plus(ResumeStats {
                pp: 1,
                parse: 1,
                struct_completion: 1,
                ..Default::default()
            })
        );
    }

    /// A header with two nominal struct types and a function whose body
    /// calls another header function.
    const TYPED_HEADER: &str = "struct A_ { int a; };\ntypedef struct A_ A;\n\
        struct B_ { int b; };\ntypedef struct B_ B;\nstatic const A ka = {1};\n\
        int hdr_global;\nstatic int takes(A v) { return v.a; }\n\
        static int calls(void) { udelay(5); return takes(ka); }\n";

    const CLEAN_USE: &str = "int use(void) { return calls(); }\n";

    fn name_clash(rest: &str) -> Result<Program, CError> {
        let (result, stats) = after_clean(TYPED_HEADER, CLEAN_USE, rest);
        assert_eq!(
            stats,
            clean_plus(ResumeStats {
                pp: 1,
                parse: 1,
                name_clash: 1,
                ..Default::default()
            })
        );
        result
    }

    #[test]
    fn redeclaring_a_header_function_declines_checking() {
        // Same name, arity and return type, other parameter type: the
        // header's `calls` is checked against the new signature and fails.
        let err = name_clash(&format!("int takes(B v);\n{CLEAN_USE}")).unwrap_err();
        assert!(err.message.contains("argument 1 of `takes`"), "{err}");
    }

    #[test]
    fn redefining_a_builtin_declines_checking() {
        let err = name_clash(&format!("void udelay(B b) {{ }}\n{CLEAN_USE}")).unwrap_err();
        assert!(err.message.contains("argument 1 of `udelay`"), "{err}");
    }

    #[test]
    fn a_prototype_named_like_a_header_global_declines_checking() {
        name_clash(&format!("int hdr_global(void);\n{CLEAN_USE}")).expect("compiles");
    }

    #[test]
    fn no_cut_inside_a_comment_string_continuation_or_conditional() {
        let header = "static int helper(void) { return 3; }\n";
        let includes = [("h.h", header)];
        for source in [
            // The include line ends inside a block comment.
            "#include \"h.h\" /* open\n close */ int use(void) { return helper(); }\n",
            // ... inside a string that opened on the line before.
            "char *s = \"x\n#include \"h.h\"\n\";\nint use(void) { return helper(); }\n",
            // ... in a `\` continuation.
            "#include \"h.h\" \\\nint use(void) { return helper(); }\n",
            // ... inside a conditional block.
            "#ifndef NONE\n#include \"h.h\"\n#endif\nint use(void) { return helper(); }\n",
        ] {
            let cache = IncludeCache::new(&includes);
            let _ = compile_checked(&cache, &includes, source);
            let stats = cache.resume_stats();
            assert_eq!(
                stats,
                ResumeStats {
                    no_checkpoint: 1,
                    ..Default::default()
                },
                "{source}"
            );
        }
    }

    #[test]
    fn a_different_prefix_or_file_runs_in_full() {
        let includes = [("h.h", "static int helper(void) { return 3; }\n")];
        let cache = IncludeCache::new(&includes);
        let clean = format!("{PREFIX}int use(void) {{ return helper(); }}\n");
        compile_checked(&cache, &includes, &clean).expect("compiles");
        let other = clean.replacen("before", "after", 1);
        compile_checked(&cache, &includes, &other).expect("compiles");
        let renamed = compile(&format!("other_{FILE}"), &clean, &cache);
        assert_eq!(
            renamed,
            compile_with_includes(&format!("other_{FILE}"), &clean, &includes)
        );
        let stats = cache.resume_stats();
        assert_eq!(
            stats,
            clean_plus(ResumeStats {
                no_checkpoint: 2,
                ..Default::default()
            })
        );
    }
}
