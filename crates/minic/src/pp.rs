//! The C preprocessor.
//!
//! Supports the subset the drivers and generated stubs need: object-like
//! and function-like `#define` (with argument substitution and recursion
//! guard), `#undef`, `#include "file"` against a caller-provided virtual
//! file set, `#ifdef`/`#ifndef`/`#else`/`#endif`, line continuations,
//! block/line comments, and the `__FILE__`/`__LINE__` builtins (use-site
//! semantics, which is what `dil_assert`'s panic message relies on).
//!
//! Directives run in source order while the unit's tokens are collected,
//! and only then is the whole token stream macro-expanded, with the macro
//! table the *last* directive left: `int x = K;\n#define K 9` sets `x` to
//! 9. A front-end checkpoint (see the [crate docs](crate#front-end-checkpoints))
//! rests on this rule. It preprocesses a main file's prefix, up to and
//! including its last `#include` line, once; a later compile with the same
//! prefix bytes starts from the prefix's macro table and file list and
//! lexes and expands only the remainder. That is exact only when the
//! remainder holds no directive, which could change the table the prefix
//! expands with, so any directive there sends the compile down the full
//! path. The cut itself must fall between logical lines, outside every
//! conditional block, and at rest for the comment stripper (outside every
//! comment, string and character constant), so the prefix's stripped text
//! and logical lines are a prefix of the whole file's.

use crate::error::{CError, CPhase};
use crate::lexer::lex_line;
use crate::resume::{Checkpoint, Counters, Guard, ResumeStats};
use crate::token::{CTok, CToken, Punct};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

#[derive(Debug, Clone)]
enum Macro {
    Object(Vec<CToken>),
    Function { params: Vec<String>, body: Vec<CToken> },
}

/// The include set a campaign compiles every mutant of one driver
/// against, and the driver's front-end checkpoint (see
/// [`crate::compile_with_cache`]): the first compile through the cache
/// pins the main file's prefix, up to its last `#include`, and counts of
/// how later compiles used it are kept in [`IncludeCache::resume_stats`].
///
/// The cache is immutable after construction (a `OnceLock` holds the
/// checkpoint; the counts are atomics) and `Sync`, so one instance can
/// serve every worker of a `mutagen::Campaign` simultaneously.
#[derive(Debug, Default)]
pub struct IncludeCache {
    includes: Vec<(String, String)>,
    pub(crate) checkpoint: OnceLock<Option<Checkpoint>>,
    pub(crate) counters: Counters,
}

impl IncludeCache {
    /// Build a cache over `(name, text)` include files.
    pub fn new(includes: &[(&str, &str)]) -> Self {
        IncludeCache {
            includes: includes.iter().map(|(n, t)| (n.to_string(), t.to_string())).collect(),
            ..IncludeCache::default()
        }
    }

    /// How the compiles through this cache used its front-end checkpoint:
    /// the stages they resumed, and per guard the ones that ran in full.
    pub fn resume_stats(&self) -> ResumeStats {
        self.counters.snapshot()
    }

    /// Whether the cache holds any include file at all — without one, no
    /// prefix can end in an `#include` that compiles.
    pub(crate) fn is_empty(&self) -> bool {
        self.includes.is_empty()
    }

    /// Whether this cache was built over exactly these include files.
    pub fn matches(&self, includes: &[(&str, &str)]) -> bool {
        self.includes.len() == includes.len()
            && self.includes.iter().zip(includes).all(|((n, t), (m, u))| n == m && t == u)
    }

    /// The include set as borrowed `(name, text)` pairs.
    pub fn includes(&self) -> Vec<(&str, &str)> {
        self.includes.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect()
    }
}

/// Run the preprocessor over `source`, resolving `#include "name"` against
/// `includes`.
///
/// Returns the expanded token stream and the list of participating file
/// names; index `i` of that list is the `file_id` stamped on tokens from
/// that file.
///
/// # Errors
///
/// Reports malformed directives, unknown includes, unbalanced conditionals
/// and tokenisation failures.
pub fn preprocess(
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Result<(Vec<CToken>, Vec<String>), CError> {
    let mut pp = Preprocessor::new(includes, Cow::Owned(HashMap::new()), vec![file.to_string()]);
    pp.file(file, 0, source, LineStart::TOP)?;
    pp.finish(file, source)
}

/// [`preprocess`] over an [`IncludeCache`]'s include set — the whole
/// unit, without its front-end checkpoint.
///
/// # Errors
///
/// Identical to [`preprocess`] over `cache.includes()`.
pub fn preprocess_cached(
    file: &str,
    source: &str,
    cache: &IncludeCache,
) -> Result<(Vec<CToken>, Vec<String>), CError> {
    preprocess(file, source, &cache.includes())
}

/// A preprocessed unit: its token stream, and its file names (index =
/// the `file_id` stamped on tokens).
type Expanded = (Vec<CToken>, Vec<String>);

/// The preprocessor's state at a front-end checkpoint's cut: the macro
/// table and file list the main file's prefix leaves behind, and where
/// its remainder starts.
#[derive(Debug)]
pub(crate) struct PrefixState {
    macros: HashMap<String, Macro>,
    files: Vec<String>,
    rest: LineStart,
}

/// Preprocess the main-file prefix `prefix` on its own, as a checkpoint
/// does once: its state at the cut, and its token stream.
///
/// # Errors
///
/// As [`preprocess_cached`] over `prefix`.
pub(crate) fn preprocess_prefix(
    file: &str,
    prefix: &str,
    cache: &IncludeCache,
) -> Result<(PrefixState, Expanded), CError> {
    let includes = cache.includes();
    let mut pp = Preprocessor::new(&includes, Cow::Owned(HashMap::new()), vec![file.to_string()]);
    pp.file(file, 0, prefix, LineStart::TOP)?;
    let files = pp.files.clone();
    let tokens = pp.finish(file, prefix)?;
    let rest = LineStart {
        line: prefix.matches('\n').count() as u32 + 1,
        off: strip_block_comments(prefix).0.len(),
    };
    let macros = std::mem::take(&mut pp.macros).into_owned();
    Ok((PrefixState { macros, files, rest }, tokens))
}

/// Preprocess `source` from the cut a prefix state was recorded at, with
/// the prefix's final macro table, returning only the remainder's tokens
/// (and the end-of-input token of the whole source).
///
/// The preprocessor collects the whole unit's tokens before expanding
/// any, so every macro use expands with the table the *last* directive
/// leaves. The remainder's tokens therefore match a full run's only when
/// that table is the prefix's: `Err` declines with [`Guard::Directive`]
/// when the remainder holds a directive. (No macro call spans the cut: the
/// prefix compiled on its own, so its tokens end with a complete item.)
/// `Ok` carries the stage's result, errors included, which are those a
/// full run reports.
pub(crate) fn preprocess_rest(
    file: &str,
    source: &str,
    prefix_len: usize,
    state: &PrefixState,
) -> Result<Result<Expanded, CError>, Guard> {
    let mut pp = Preprocessor::new(&[], Cow::Borrowed(&state.macros), state.files.clone());
    pp.frozen = true;
    let lexed = pp.file(file, 0, &source[prefix_len..], state.rest);
    if pp.declined {
        return Err(Guard::Directive);
    }
    Ok(lexed.and_then(|()| pp.finish(file, source)))
}

/// The length of `source`'s checkpoint prefix: everything up to and
/// including its last `#include` line. `None` when there is no such line
/// outside every conditional block, when the line is the last one, or
/// when the cut after it would fall inside a comment, a string or a
/// character constant. The cut always falls between logical lines, so
/// never inside a `\` continuation.
pub(crate) fn prefix_cut(source: &str) -> Option<usize> {
    let (text, _) = strip_block_comments(source);
    let lines = logical_lines(&text, LineStart::TOP);
    let mut depth = 0usize;
    let mut last = None;
    for (k, (_, _, text)) in lines.iter().enumerate() {
        let Some(rest) = text.trim_start().strip_prefix('#') else { continue };
        match rest.trim_start().split(char::is_whitespace).next() {
            Some("ifdef" | "ifndef") => depth += 1,
            Some("endif") => depth = depth.saturating_sub(1),
            Some("include") if depth == 0 => last = Some(k),
            _ => {}
        }
    }
    // The cut falls at the start of the physical line where the logical
    // line after the `#include` begins.
    let next_line = lines.get(last? + 1)?.0 as usize;
    let cut = source.match_indices('\n').nth(next_line - 2)?.0 + 1;
    strip_block_comments(&source[..cut]).1.then_some(cut)
}

struct Preprocessor<'a> {
    includes: &'a [(&'a str, &'a str)],
    /// Borrowed from a checkpoint when resuming, owned otherwise.
    macros: Cow<'a, HashMap<String, Macro>>,
    /// Resuming after a checkpoint's cut: a directive stops the run and
    /// sets `declined` instead of taking effect.
    frozen: bool,
    declined: bool,
    raw: Vec<CToken>,
    depth: u32,
    files: Vec<String>,
}

/// Where a main file's text begins: its first line number and its offset
/// in the comment-stripped text of the whole file.
#[derive(Debug, Clone, Copy)]
struct LineStart {
    line: u32,
    off: usize,
}

impl LineStart {
    const TOP: LineStart = LineStart { line: 1, off: 0 };
}

/// Split comment-stripped source into continuation-joined logical lines of
/// `(start_line, start_offset, text)`, numbering from `start`.
fn logical_lines(text: &str, start: LineStart) -> Vec<(u32, usize, String)> {
    let mut logical: Vec<(u32, usize, String)> = Vec::new();
    let mut cur = String::new();
    let mut cur_start_line = start.line;
    let mut cur_start_off = start.off;
    let mut line_no = start.line;
    let mut offset = start.off;
    let mut continuing = false;
    #[allow(clippy::explicit_counter_loop)] // offset advances with line_no
    for line in text.split('\n') {
        if !continuing {
            cur_start_line = line_no;
            cur_start_off = offset;
            cur.clear();
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            cur.push_str(stripped);
            cur.push(' ');
            continuing = true;
        } else {
            cur.push_str(line);
            continuing = false;
            logical.push((cur_start_line, cur_start_off, cur.clone()));
        }
        offset += line.len() + 1;
        line_no += 1;
    }
    if continuing {
        logical.push((cur_start_line, cur_start_off, cur.clone()));
    }
    logical
}

/// Strip `/* ... */` and `//` comments, preserving newlines so line
/// numbers hold. String literals and character constants are copied
/// whole, escapes included, so a comment opener inside one stays. The
/// flag says whether the scan ended at rest: outside every comment,
/// string and character constant.
fn strip_block_comments(src: &str) -> (String, bool) {
    // Bytes, so a multi-byte UTF-8 sequence is copied through whole.
    let mut out: Vec<u8> = Vec::with_capacity(src.len());
    let b = src.as_bytes();
    let mut i = 0;
    let mut in_comment = false;
    // The quote that closes the string or character constant we are in.
    let mut quote: Option<u8> = None;
    while i < b.len() {
        if in_comment {
            if b[i] == b'\n' {
                out.push(b'\n');
                i += 1;
            } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                in_comment = false;
                out.extend_from_slice(b"  ");
                i += 2;
            } else {
                out.push(b' ');
                i += 1;
            }
        } else if let Some(q) = quote {
            out.push(b[i]);
            if b[i] == b'\\' && i + 1 < b.len() {
                out.push(b[i + 1]);
                i += 1;
            } else if b[i] == q {
                quote = None;
            }
            i += 1;
        } else if b[i] == b'"' || b[i] == b'\'' {
            quote = Some(b[i]);
            out.push(b[i]);
            i += 1;
        } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
            in_comment = true;
            out.extend_from_slice(b"  ");
            i += 2;
        } else if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
            // Line comment: skip to newline.
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else {
            out.push(b[i]);
            i += 1;
        }
    }
    let at_rest = !in_comment && quote.is_none();
    // A comment, which starts and ends on a character boundary, became
    // ASCII byte for byte and every other byte was copied, so the text
    // is still UTF-8.
    let out = String::from_utf8(out).expect("comment stripping keeps UTF-8 sequences whole");
    (out, at_rest)
}

impl<'a> Preprocessor<'a> {
    fn new(
        includes: &'a [(&'a str, &'a str)],
        macros: Cow<'a, HashMap<String, Macro>>,
        files: Vec<String>,
    ) -> Self {
        Preprocessor {
            includes,
            macros,
            frozen: false,
            declined: false,
            raw: Vec::new(),
            depth: 0,
            files,
        }
    }

    /// Expand the collected tokens with the final macro table and end the
    /// stream with `source`'s end-of-input token.
    fn finish(&mut self, file: &str, source: &str) -> Result<Expanded, CError> {
        let raw = std::mem::take(&mut self.raw);
        let mut out = Vec::new();
        let mut i = 0;
        self.expand(&raw, &mut i, raw.len(), &mut out, &HashSet::new())?;
        out.push(CToken {
            tok: CTok::Eof,
            file: file.to_string(),
            file_id: 0,
            line: source.lines().count() as u32 + 1,
            pos: source.len(),
            len: 0,
        });
        Ok((out, std::mem::take(&mut self.files)))
    }

    fn file(&mut self, name: &str, file_id: u16, source: &str, start: LineStart) -> Result<(), CError> {
        self.depth += 1;
        if self.depth > 16 {
            return Err(CError::new(CPhase::Preprocess, name, 1, "include depth exceeded"));
        }
        let (text, _) = strip_block_comments(source);
        // Conditional-inclusion stack: (parent_active, this_branch_taken).
        let mut cond: Vec<(bool, bool)> = Vec::new();
        for (line, off, text) in logical_lines(&text, start) {
            let trimmed = text.trim_start();
            let active = cond.iter().all(|(p, t)| *p && *t);
            if let Some(rest) = trimmed.strip_prefix('#') {
                if self.frozen {
                    self.declined = true;
                    return Ok(());
                }
                let rest = rest.trim_start();
                let (directive, args) =
                    rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
                match directive {
                    "define" | "undef" | "include" if active => {
                        self.active_directive(name, file_id, line, off, directive, args)?;
                    }
                    "ifdef" => {
                        cond.push((active, self.macros.contains_key(args.trim())));
                    }
                    "ifndef" => {
                        cond.push((active, !self.macros.contains_key(args.trim())));
                    }
                    "else" => {
                        let Some((p, t)) = cond.pop() else {
                            return Err(CError::new(
                                CPhase::Preprocess,
                                name,
                                line,
                                "#else without #if",
                            ));
                        };
                        cond.push((p, !t));
                    }
                    "endif" => {
                        if cond.pop().is_none() {
                            return Err(CError::new(
                                CPhase::Preprocess,
                                name,
                                line,
                                "#endif without #if",
                            ));
                        }
                    }
                    _ if !active => {}
                    other => {
                        return Err(CError::new(
                            CPhase::Preprocess,
                            name,
                            line,
                            format!("unsupported directive `#{other}`"),
                        ));
                    }
                }
            } else if active {
                let toks = lex_line(name, file_id, line, off, &text)?;
                self.raw.extend(toks);
            }
        }
        if !cond.is_empty() {
            return Err(CError::new(CPhase::Preprocess, name, 1, "unterminated #if block"));
        }
        self.depth -= 1;
        Ok(())
    }

    /// Handle one *active* non-conditional directive.
    fn active_directive(
        &mut self,
        name: &str,
        file_id: u16,
        line: u32,
        off: usize,
        directive: &str,
        args: &str,
    ) -> Result<(), CError> {
        match directive {
            "define" => self.define(name, file_id, line, off, args.trim()),
            "undef" => {
                self.macros.to_mut().remove(args.trim());
                Ok(())
            }
            "include" => {
                let arg = args.trim();
                let inner = arg
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| {
                        CError::new(
                            CPhase::Preprocess,
                            name,
                            line,
                            format!("#include expects \"file\", got `{arg}`"),
                        )
                    })?;
                let Some((_, text)) = self.includes.iter().find(|(n, _)| *n == inner)
                else {
                    return Err(CError::new(
                        CPhase::Preprocess,
                        name,
                        line,
                        format!("include file \"{inner}\" not found"),
                    ));
                };
                let inner_id = match self.files.iter().position(|f| f == inner) {
                    Some(i) => i as u16,
                    None => {
                        self.files.push(inner.to_string());
                        (self.files.len() - 1) as u16
                    }
                };
                self.file(inner, inner_id, text, LineStart::TOP)
            }
            other => Err(CError::new(
                CPhase::Preprocess,
                name,
                line,
                format!("unsupported directive `#{other}`"),
            )),
        }
    }

    fn define(
        &mut self,
        file: &str,
        file_id: u16,
        line: u32,
        off: usize,
        text: &str,
    ) -> Result<(), CError> {
        let toks = lex_line(file, file_id, line, off, text)?;
        if toks.is_empty() {
            return Err(CError::new(CPhase::Preprocess, file, line, "#define needs a name"));
        }
        let CTok::Ident(name) = &toks[0].tok else {
            return Err(CError::new(CPhase::Preprocess, file, line, "#define needs a name"));
        };
        let name = name.clone();
        // Function-like iff '(' immediately follows the name in the source.
        let fn_like = toks.len() > 1
            && toks[1].tok == CTok::Punct(Punct::LParen)
            && toks[1].pos == toks[0].pos + toks[0].len;
        if fn_like {
            let mut params = Vec::new();
            let mut i = 2;
            if toks.get(i).map(|t| &t.tok) == Some(&CTok::Punct(Punct::RParen)) {
                i += 1;
            } else {
                loop {
                    match toks.get(i).map(|t| &t.tok) {
                        Some(CTok::Ident(p)) => params.push(p.clone()),
                        _ => {
                            return Err(CError::new(
                                CPhase::Preprocess,
                                file,
                                line,
                                "malformed macro parameter list",
                            ));
                        }
                    }
                    i += 1;
                    match toks.get(i).map(|t| &t.tok) {
                        Some(CTok::Punct(Punct::Comma)) => i += 1,
                        Some(CTok::Punct(Punct::RParen)) => {
                            i += 1;
                            break;
                        }
                        _ => {
                            return Err(CError::new(
                                CPhase::Preprocess,
                                file,
                                line,
                                "malformed macro parameter list",
                            ));
                        }
                    }
                }
            }
            let body = toks[i..].to_vec();
            if let Some(Macro::Function { params: p0, body: b0 }) = self.macros.get(&name) {
                if *p0 != params || !same_tokens(b0, &body) {
                    return Err(CError::new(
                        CPhase::Preprocess,
                        file,
                        line,
                        format!("macro `{name}` redefined with a different body"),
                    ));
                }
            }
            self.macros.to_mut().insert(name, Macro::Function { params, body });
        } else {
            let body = toks[1..].to_vec();
            if let Some(Macro::Object(b0)) = self.macros.get(&name) {
                if !same_tokens(b0, &body) {
                    return Err(CError::new(
                        CPhase::Preprocess,
                        file,
                        line,
                        format!("macro `{name}` redefined with a different body"),
                    ));
                }
            }
            self.macros.to_mut().insert(name, Macro::Object(body));
        }
        Ok(())
    }

    /// Expand `input[*i..end]` into `out`.
    fn expand(
        &self,
        input: &[CToken],
        i: &mut usize,
        end: usize,
        out: &mut Vec<CToken>,
        hidden: &HashSet<String>,
    ) -> Result<(), CError> {
        while *i < end {
            let t = &input[*i];
            *i += 1;
            let CTok::Ident(name) = &t.tok else {
                out.push(t.clone());
                continue;
            };
            if name == "__FILE__" {
                out.push(CToken::synthesized(CTok::Str(t.file.clone()), t));
                continue;
            }
            if name == "__LINE__" {
                out.push(CToken::synthesized(
                    CTok::Int { value: t.line as u64, text: t.line.to_string() },
                    t,
                ));
                continue;
            }
            if hidden.contains(name) {
                out.push(t.clone());
                continue;
            }
            match self.macros.get(name) {
                Some(Macro::Object(body)) => {
                    let mut sub_hidden = hidden.clone();
                    sub_hidden.insert(name.clone());
                    let relocated = relocate(body, t);
                    let mut j = 0;
                    self.expand(&relocated, &mut j, relocated.len(), out, &sub_hidden)?;
                }
                Some(Macro::Function { params, body }) => {
                    // Only a call if '(' follows; otherwise plain identifier.
                    if input.get(*i).map(|n| &n.tok) != Some(&CTok::Punct(Punct::LParen)) {
                        out.push(t.clone());
                        continue;
                    }
                    *i += 1; // consume '('
                    let args = collect_args(input, i, t)?;
                    if args.len() != params.len() && !(params.is_empty() && args.len() == 1 && args[0].is_empty())
                    {
                        return Err(CError::new(
                            CPhase::Preprocess,
                            &t.file,
                            t.line,
                            format!(
                                "macro `{name}` expects {} argument(s), got {}",
                                params.len(),
                                args.len()
                            ),
                        ));
                    }
                    // Substitute parameters (arguments are substituted
                    // unexpanded, then the whole body is rescanned — close
                    // enough to C for this subset).
                    let mut substituted = Vec::new();
                    for bt in relocate(body, t) {
                        if let CTok::Ident(p) = &bt.tok {
                            if let Some(idx) = params.iter().position(|q| q == p) {
                                substituted.extend(relocate(&args[idx], t));
                                continue;
                            }
                        }
                        substituted.push(bt);
                    }
                    let mut sub_hidden = hidden.clone();
                    sub_hidden.insert(name.clone());
                    let mut j = 0;
                    self.expand(&substituted, &mut j, substituted.len(), out, &sub_hidden)?;
                }
                None => out.push(t.clone()),
            }
        }
        Ok(())
    }
}

/// Token-sequence equality ignoring positions (for redefinition checks —
/// gcc accepts identical redefinitions, rejects differing ones under
/// `-Werror`).
fn same_tokens(a: &[CToken], b: &[CToken]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.tok == y.tok)
}

/// Prepare macro-body tokens for splicing at a use site.
///
/// Ordinary body tokens keep their *definition* location — this is what
/// lets the interpreter's line coverage attribute execution to the
/// `#define` line itself, so a mutation inside an exercised macro body is
/// correctly seen as executed. Only the `__FILE__`/`__LINE__` builtins are
/// re-stamped to the use site, preserving their standard C semantics
/// (which `dil_assert`'s panic message depends on).
fn relocate(body: &[CToken], site: &CToken) -> Vec<CToken> {
    body.iter()
        .map(|t| {
            let is_location_builtin =
                matches!(&t.tok, CTok::Ident(n) if n == "__FILE__" || n == "__LINE__");
            if is_location_builtin {
                CToken {
                    tok: t.tok.clone(),
                    file: site.file.clone(),
                    file_id: site.file_id,
                    line: site.line,
                    pos: t.pos,
                    len: t.len,
                }
            } else {
                t.clone()
            }
        })
        .collect()
}

/// Collect macro-call arguments; `*i` sits just past the '('.
fn collect_args(
    input: &[CToken],
    i: &mut usize,
    site: &CToken,
) -> Result<Vec<Vec<CToken>>, CError> {
    let mut args: Vec<Vec<CToken>> = vec![Vec::new()];
    let mut depth = 0u32;
    loop {
        let Some(t) = input.get(*i) else {
            return Err(CError::new(
                CPhase::Preprocess,
                &site.file,
                site.line,
                "unterminated macro call",
            ));
        };
        *i += 1;
        match &t.tok {
            CTok::Punct(Punct::LParen) => {
                depth += 1;
                args.last_mut().expect("non-empty").push(t.clone());
            }
            CTok::Punct(Punct::RParen) => {
                if depth == 0 {
                    return Ok(args);
                }
                depth -= 1;
                args.last_mut().expect("non-empty").push(t.clone());
            }
            CTok::Punct(Punct::Comma) if depth == 0 => args.push(Vec::new()),
            CTok::Eof => {
                return Err(CError::new(
                    CPhase::Preprocess,
                    &site.file,
                    site.line,
                    "unterminated macro call",
                ));
            }
            _ => args.last_mut().expect("non-empty").push(t.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<CTok> {
        preprocess("t.c", src, &[])
            .unwrap()
            .0
            .into_iter()
            .map(|t| t.tok)
            .filter(|t| *t != CTok::Eof)
            .collect()
    }

    #[test]
    fn non_ascii_text_passes_through_with_true_positions() {
        // Multi-byte UTF-8 in a comment, a string and a character constant
        // (which the lexer rejects, but comment stripping copies whole).
        let src = "/* naïve */ int f(void) { printk(\"café %d\", 1); return v; } int g;";
        let (toks, _) = preprocess("t.c", src, &[]).unwrap();
        assert!(toks.iter().any(|t| t.tok == CTok::Str("café %d".into())));
        for name in ["v", "g"] {
            let tok = toks.iter().find(|t| t.tok == CTok::Ident(name.into())).unwrap();
            let at = src.find(&format!(" {name};")).unwrap() + 1;
            assert_eq!((tok.pos, &src[tok.pos..tok.pos + 1]), (at, name));
        }
        assert_eq!(strip_block_comments("'é' // é\n\"é\\é\"").0, "'é' \n\"é\\é\"");
    }

    fn idents(src: &str) -> Vec<String> {
        run(src)
            .into_iter()
            .filter_map(|t| match t {
                CTok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn object_macro_expands() {
        let ts = run("#define PORT 0x23c\nx = PORT;");
        assert!(ts.contains(&CTok::Int { value: 0x23c, text: "0x23c".into() }));
    }

    #[test]
    fn object_macro_chains() {
        let ts = run("#define A B\n#define B 7\nA;");
        assert!(ts.contains(&CTok::Int { value: 7, text: "7".into() }));
    }

    #[test]
    fn function_macro_substitutes_args() {
        let ts = run("#define SHIFT(x, n) ((x) << (n))\ny = SHIFT(v, 4);");
        let rendered: Vec<String> = ts.iter().map(|t| format!("{t}")).collect();
        let joined = rendered.join(" ");
        assert_eq!(joined, "`y` `=` `(` `(` `v` `)` `<<` `(` `4` `)` `)` `;`");
    }

    #[test]
    fn function_macro_without_parens_is_plain() {
        let ids = idents("#define F(x) x\nint F;");
        assert_eq!(ids, vec!["int", "F"]);
    }

    #[test]
    fn recursion_guard_stops_self_reference() {
        let ids = idents("#define X X\nX;");
        assert_eq!(ids, vec!["X"]);
    }

    #[test]
    fn file_and_line_builtins() {
        let ts = preprocess("drv.c", "a\nb __LINE__ __FILE__", &[]).unwrap().0;
        let line_tok = ts.iter().find(|t| matches!(t.tok, CTok::Int { .. })).unwrap();
        assert_eq!(line_tok.tok, CTok::Int { value: 2, text: "2".into() });
        assert!(ts.iter().any(|t| t.tok == CTok::Str("drv.c".into())));
    }

    #[test]
    fn line_macro_through_define_uses_call_site() {
        let src = "#define HERE __LINE__\nx;\ny = HERE;";
        let ts = preprocess("t.c", src, &[]).unwrap().0;
        let line_tok = ts.iter().find(|t| matches!(t.tok, CTok::Int { .. })).unwrap();
        assert_eq!(line_tok.tok, CTok::Int { value: 3, text: "3".into() });
    }

    #[test]
    fn continuation_lines_join() {
        let ids = idents("#define LONG a \\\n b\nLONG;");
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn block_comments_stripped_with_lines_kept() {
        let ts = preprocess("t.c", "/* one\ntwo */ x", &[]).unwrap().0;
        let x = ts.iter().find(|t| t.tok == CTok::Ident("x".into())).unwrap();
        assert_eq!(x.line, 2);
    }

    #[test]
    fn comment_inside_string_preserved() {
        let ts = run("s = \"/* not a comment */\";");
        assert!(ts.contains(&CTok::Str("/* not a comment */".into())));
    }

    #[test]
    fn quote_in_a_character_constant_does_not_open_a_string() {
        let ts = run("int f(void) { char c = '\"'; /* n */ return c; }");
        assert!(ts.contains(&CTok::Char(b'"')));
        assert!(!ts.contains(&CTok::Punct(Punct::Slash)), "{ts:?}");
        // Escapes inside character constants are skipped as in strings.
        let ts = run("a = '\\''; /* x */ b = '\\\\'; /* \" */ c;");
        let chars: Vec<&CTok> = ts.iter().filter(|t| matches!(t, CTok::Char(_))).collect();
        assert_eq!(chars, [&CTok::Char(b'\''), &CTok::Char(b'\\')]);
        assert!(!ts.contains(&CTok::Punct(Punct::Slash)), "{ts:?}");
    }

    #[test]
    fn ifdef_blocks() {
        let ids = idents("#define YES 1\n#ifdef YES\nin;\n#else\nout;\n#endif");
        assert_eq!(ids, vec!["in"]);
        let ids = idents("#ifdef NO\nin;\n#else\nout;\n#endif");
        assert_eq!(ids, vec!["out"]);
        let ids = idents("#ifndef NO\na;\n#endif");
        assert_eq!(ids, vec!["a"]);
    }

    #[test]
    fn nested_ifdef() {
        let ids = idents("#ifdef NO\n#ifdef ALSO\nx;\n#endif\ny;\n#endif\nz;");
        assert_eq!(ids, vec!["z"]);
    }

    #[test]
    fn undef_removes_macro() {
        let ids = idents("#define A b\n#undef A\nA;");
        assert_eq!(ids, vec!["A"]);
    }

    #[test]
    fn include_splices_tokens() {
        let ts = preprocess("m.c", "#include \"h.h\"\nafter;", &[("h.h", "inside;")]).unwrap().0;
        let ids: Vec<&str> = ts
            .iter()
            .filter_map(|t| match &t.tok {
                CTok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec!["inside", "after"]);
        // Included tokens carry their own file name.
        let inside = ts.iter().find(|t| t.tok == CTok::Ident("inside".into())).unwrap();
        assert_eq!(inside.file, "h.h");
    }

    #[test]
    fn missing_include_is_error() {
        let err = preprocess("m.c", "#include \"gone.h\"", &[]).unwrap_err();
        assert_eq!(err.phase, CPhase::Preprocess);
        assert!(err.message.contains("gone.h"));
    }

    #[test]
    fn include_defines_visible_after() {
        let (ts, _) = preprocess(
            "m.c",
            "#include \"h.h\"\nx = K;",
            &[("h.h", "#define K 9")],
        )
        .unwrap();
        assert!(ts.iter().any(|t| t.tok == CTok::Int { value: 9, text: "9".into() }));
    }

    #[test]
    fn wrong_arity_macro_call_is_error() {
        let err = preprocess("t.c", "#define F(a, b) a\nF(1);", &[]).unwrap_err();
        assert!(err.message.contains("expects 2"));
    }

    #[test]
    fn unbalanced_endif_is_error() {
        assert!(preprocess("t.c", "#endif", &[]).is_err());
        assert!(preprocess("t.c", "#ifdef A\nx;", &[]).is_err());
    }

    #[test]
    fn cached_include_is_token_identical() {
        let header = "#define K 9\nstatic int helper(void) { return K; }\nint table[4];";
        let driver = "#include \"h.h\"\nint use(void) { return helper() + table[0]; }";
        let includes = [("h.h", header)];
        let plain = preprocess("drv.c", driver, &includes).unwrap();
        let cache = IncludeCache::new(&includes);
        for _ in 0..3 {
            let cached = preprocess_cached("drv.c", driver, &cache).unwrap();
            assert_eq!(cached, plain, "cached preprocessing must be bit-identical");
        }
    }

    #[test]
    fn conditional_includes_bypass_the_cache() {
        // The include defines `a` only under #ifndef; the skipped branch
        // is never lexed, through a cache or not.
        let header = "#ifndef SKIP\nint a;\n#else\nbad bad bad ###\n#endif";
        let driver = "#include \"h.h\"\nint use(void) { return a; }";
        let includes = [("h.h", header)];
        let plain = preprocess("drv.c", driver, &includes).unwrap();
        let cache = IncludeCache::new(&includes);
        let cached = preprocess_cached("drv.c", driver, &cache).unwrap();
        assert_eq!(cached, plain);
    }

    #[test]
    fn cached_nested_includes_resolve() {
        let outer = "#include \"inner.h\"\n#define OUTER 1";
        let inner = "int deep;";
        let includes = [("outer.h", outer), ("inner.h", inner)];
        let driver = "#include \"outer.h\"\nint use(void) { return deep + OUTER; }";
        let plain = preprocess("drv.c", driver, &includes).unwrap();
        let cache = IncludeCache::new(&includes);
        let cached = preprocess_cached("drv.c", driver, &cache).unwrap();
        assert_eq!(cached, plain);
    }

    #[test]
    fn cache_errors_match_uncached_errors() {
        // A bad define inside the include must produce the same error.
        let header = "#define 5bad 1";
        let includes = [("h.h", header)];
        let driver = "#include \"h.h\"\n";
        let plain = preprocess("drv.c", driver, &includes).unwrap_err();
        let cache = IncludeCache::new(&includes);
        let cached = preprocess_cached("drv.c", driver, &cache).unwrap_err();
        assert_eq!(cached, plain);
    }

    #[test]
    fn cache_matches_compares_contents() {
        let cache = IncludeCache::new(&[("a.h", "int x;")]);
        assert!(cache.matches(&[("a.h", "int x;")]));
        assert!(!cache.matches(&[("a.h", "int y;")]));
        assert!(!cache.matches(&[("b.h", "int x;")]));
        assert!(!cache.matches(&[]));
    }

    #[test]
    fn nested_parens_in_macro_args() {
        let ts = run("#define ID(x) x\ny = ID((a, b));");
        // The inner (a, b) stays one argument.
        let commas = ts.iter().filter(|t| **t == CTok::Punct(Punct::Comma)).count();
        assert_eq!(commas, 1);
    }

    #[test]
    fn dil_assert_shape_expands() {
        let src = "#define dil_assert(expr) ((expr) ? 0 : \\\n panic(\"fail %s %d\", __FILE__, __LINE__))\ndil_assert(x == 1);";
        let ts = preprocess("t.c", src, &[]).unwrap().0;
        let has_panic = ts.iter().any(|t| t.tok == CTok::Ident("panic".into()));
        assert!(has_panic);
        // __LINE__ resolves to the use line (3rd source line... use is line 3).
        let line_vals: Vec<u64> = ts
            .iter()
            .filter_map(|t| match &t.tok {
                CTok::Int { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(line_vals.contains(&3), "{line_vals:?}");
    }
}
