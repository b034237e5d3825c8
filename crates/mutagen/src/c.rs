//! Mutation-site extraction and mutant generation for C driver sources
//! (§3.3 of the paper).
//!
//! The paper mutates only the *hardware operating code* of a driver, marked
//! here by `/* DEVIL_MUT_BEGIN */` and `/* DEVIL_MUT_END */` comment lines
//! (absent markers make the whole file mutable). The extractor is a raw
//! text scanner (comments, strings and characters are skipped, preprocessor
//! lines are scanned for their tokens), so byte-exact splices can be
//! produced without round-tripping through the preprocessor.
//!
//! Identifier replacement pools differ by style, exactly as §3.3 describes:
//!
//! * [`CStyle::PlainC`] — macros erase all abstraction: any identifier
//!   *defined* in the translation unit (macro, function, global) can stand
//!   in for any other.
//! * [`CStyle::CDevil`] — the generated interface is typed, so swaps stay
//!   within a semantic family: `get_*`↔`get_*`, `set_*`↔`set_*`,
//!   `mk_*`↔`mk_*`, `reg_get_*`/`reg_set_*` families, and ALL-CAPS
//!   constants among themselves.

use crate::literal::{literal_mutations, LiteralClass};
use crate::operator::c_operator_mutants;
use crate::site::{make_mutant, Mutant, MutationSite, SiteKind};
use std::collections::BTreeSet;

/// Marker opening a mutable region.
pub const REGION_BEGIN: &str = "DEVIL_MUT_BEGIN";
/// Marker closing a mutable region.
pub const REGION_END: &str = "DEVIL_MUT_END";

/// Which identifier-pool discipline to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CStyle {
    /// Original C driver: one flat pool of defined identifiers.
    PlainC,
    /// CDevil glue code: pools per stub family.
    CDevil,
}

/// C keywords and type words that are never identifier sites.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "do", "return", "break", "continue", "switch", "case",
    "default", "sizeof", "typedef", "struct", "static", "inline", "extern", "const", "volatile",
    "void", "char", "short", "int", "long", "unsigned", "signed", "define", "undef", "include",
    "ifdef", "ifndef", "endif",
];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Raw {
    Ident(String),
    Number(String),
    Op(String),
    Other(char),
}

#[derive(Debug, Clone)]
struct RawToken {
    raw: Raw,
    pos: usize,
    len: usize,
    line: u32,
}

/// Scan raw C text into mutation-relevant tokens. Strings, chars and
/// comments are skipped (their contents are not mutation targets).
fn scan(source: &str) -> Vec<RawToken> {
    let b = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(b.len());
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1;
            }
            b'\'' => {
                i += 1;
                while i < b.len() && b[i] != b'\'' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(RawToken {
                    raw: Raw::Number(source[start..i].to_string()),
                    pos: start,
                    len: i - start,
                    line,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(RawToken {
                    raw: Raw::Ident(source[start..i].to_string()),
                    pos: start,
                    len: i - start,
                    line,
                });
            }
            _ => {
                // Longest-match operators.
                let rest = &source[i..];
                let op_len = ["<<=", ">>="]
                    .iter()
                    .find(|o| rest.starts_with(**o))
                    .map(|o| o.len())
                    .or_else(|| {
                        [
                            "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
                            "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                        ]
                        .iter()
                        .find(|o| rest.starts_with(**o))
                        .map(|o| o.len())
                    });
                if let Some(n) = op_len {
                    out.push(RawToken {
                        raw: Raw::Op(source[i..i + n].to_string()),
                        pos: i,
                        len: n,
                        line,
                    });
                    i += n;
                } else {
                    let ch = source[i..].chars().next().expect("in bounds");
                    let n = ch.len_utf8();
                    if "|&^+-~!*".contains(ch) {
                        out.push(RawToken {
                            raw: Raw::Op(ch.to_string()),
                            pos: i,
                            len: n,
                            line,
                        });
                    } else {
                        out.push(RawToken { raw: Raw::Other(ch), pos: i, len: n, line });
                    }
                    i += n;
                }
            }
        }
    }
    out
}

/// The byte ranges of the mutable regions.
fn regions(source: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(b) = source[search..].find(REGION_BEGIN) {
        let begin = search + b + REGION_BEGIN.len();
        let Some(e) = source[begin..].find(REGION_END) else {
            out.push((begin, source.len()));
            break;
        };
        out.push((begin, begin + e));
        search = begin + e + REGION_END.len();
    }
    if out.is_empty() {
        out.push((0, source.len()));
    }
    out
}

/// The semantic family of an identifier under CDevil rules.
fn cdevil_family(name: &str) -> &'static str {
    if name.starts_with("reg_get_") {
        "reg_get"
    } else if name.starts_with("reg_set_") {
        "reg_set"
    } else if name.starts_with("dil_get_") {
        "dil_get"
    } else if name.starts_with("dil_set_") {
        "dil_set"
    } else if name.starts_with("get_") {
        "get"
    } else if name.starts_with("set_") {
        "set"
    } else if name.starts_with("mk_") {
        "mk"
    } else if name.starts_with("eq_") {
        "eq"
    } else if !name.is_empty()
        && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        "const"
    } else {
        "other"
    }
}

/// A C mutation model: sites + replacement candidates.
#[derive(Debug)]
pub struct CMutationModel {
    source: String,
    sites: Vec<MutationSite>,
    replacements: Vec<Vec<String>>,
}

impl CMutationModel {
    /// Analyse a driver source. `headers` contribute identifier-pool
    /// entries (the CDevil generated header) but are never mutated.
    pub fn new(source: &str, headers: &[&str], style: CStyle) -> Self {
        let tokens = scan(source);
        let regions = regions(source);
        let in_region = |pos: usize| regions.iter().any(|(a, b)| pos >= *a && pos < *b);

        // Identifier pool: all defined identifiers across driver + headers.
        let mut defined: BTreeSet<String> = BTreeSet::new();
        for text in std::iter::once(source).chain(headers.iter().copied()) {
            collect_defined(text, &mut defined);
        }
        let pool: Vec<String> = defined.into_iter().collect();

        let mut sites = Vec::new();
        let mut replacements = Vec::new();
        for (idx, t) in tokens.iter().enumerate() {
            if !in_region(t.pos) {
                continue;
            }
            match &t.raw {
                Raw::Number(text) => {
                    let (class, plen) = LiteralClass::classify_number(text);
                    let reps = literal_mutations(text, class, plen);
                    if !reps.is_empty() {
                        sites.push(MutationSite {
                            pos: t.pos,
                            len: t.len,
                            line: t.line,
                            kind: SiteKind::Literal,
                            original: text.clone(),
                        });
                        replacements.push(reps);
                    }
                }
                Raw::Op(op) => {
                    // Binary-only operators need a binary context; `~`/`!`
                    // and `+`/`-` are fine in both.
                    let needs_binary = matches!(op.as_str(), "|" | "&" | "^");
                    if needs_binary && !binary_context(&tokens, idx) {
                        continue;
                    }
                    let reps: Vec<String> = c_operator_mutants(op)
                        .iter()
                        .filter(|r| {
                            // Binary-only replacements (`|`, `&`, `^`,
                            // `&&`, `||`) need a binary context too.
                            !matches!(**r, "|" | "&" | "^" | "&&" | "||")
                                || binary_context(&tokens, idx)
                        })
                        .map(|s| s.to_string())
                        .collect();
                    if !reps.is_empty() {
                        sites.push(MutationSite {
                            pos: t.pos,
                            len: t.len,
                            line: t.line,
                            kind: SiteKind::Operator,
                            original: op.clone(),
                        });
                        replacements.push(reps);
                    }
                }
                Raw::Ident(name) => {
                    if KEYWORDS.contains(&name.as_str()) {
                        continue;
                    }
                    // Plain C models *operand* confusion (§3.1: "confusion
                    // in register names is quite frequent") — callee
                    // positions are not sites. CDevil keeps them: the
                    // paper's §3.3 explicitly mutates the generated
                    // interface's function names within their family.
                    if style == CStyle::PlainC {
                        let is_callee = tokens
                            .get(idx + 1)
                            .is_some_and(|n| matches!(n.raw, Raw::Other('(')));
                        if is_callee {
                            continue;
                        }
                    }
                    let reps: Vec<String> = match style {
                        CStyle::PlainC => pool
                            .iter()
                            .filter(|p| *p != name)
                            .cloned()
                            .collect(),
                        CStyle::CDevil => {
                            let fam = cdevil_family(name);
                            pool.iter()
                                .filter(|p| *p != name && cdevil_family(p) == fam)
                                .cloned()
                                .collect()
                        }
                    };
                    if !reps.is_empty() {
                        sites.push(MutationSite {
                            pos: t.pos,
                            len: t.len,
                            line: t.line,
                            kind: SiteKind::Identifier,
                            original: name.clone(),
                        });
                        replacements.push(reps);
                    }
                }
                Raw::Other(_) => {}
            }
        }
        CMutationModel { source: source.to_string(), sites, replacements }
    }

    /// The mutation sites, in source order.
    pub fn sites(&self) -> &[MutationSite] {
        &self.sites
    }

    /// Generate every mutant.
    pub fn mutants(&self) -> Vec<Mutant> {
        let mut out = Vec::new();
        for (i, reps) in self.replacements.iter().enumerate() {
            for r in reps {
                out.push(make_mutant(&self.source, &self.sites, i, r.clone()));
            }
        }
        out
    }
}

/// Heuristic binary-operator context: the previous token ends an operand.
fn binary_context(tokens: &[RawToken], idx: usize) -> bool {
    let Some(prev) = tokens[..idx].last() else { return false };
    match &prev.raw {
        Raw::Ident(n) => !KEYWORDS.contains(&n.as_str()),
        Raw::Number(_) => true,
        Raw::Other(c) => matches!(c, ')' | ']'),
        Raw::Op(o) => o == "++" || o == "--",
    }
}

/// Identifiers *defined* in `text`: `#define` names, function definitions /
/// prototypes, and file-scope variables. A light syntactic pass is enough
/// for the corpus's style.
fn collect_defined(text: &str, out: &mut BTreeSet<String>) {
    let tokens = scan(text);
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate() {
        match &t.raw {
            Raw::Other('{') => depth += 1,
            Raw::Other('}') => depth -= 1,
            Raw::Ident(n)
                if n == "define" && i > 0 && matches!(tokens[i - 1].raw, Raw::Other('#')) =>
            {
                if let Some(RawToken { raw: Raw::Ident(name), .. }) = tokens.get(i + 1) {
                    out.insert(name.clone());
                }
            }
            Raw::Ident(n)
                if !KEYWORDS.contains(&n.as_str())
                    && depth == 0
                    && i > 0 =>
            {
                // `type NAME (` → function; `type NAME =`, `type NAME ;`,
                // `type NAME [` → global. The previous token must be a type
                // word or `*`.
                let prev_is_type = match &tokens[i - 1].raw {
                    Raw::Ident(p) => {
                        matches!(
                            p.as_str(),
                            "void" | "char" | "short" | "int" | "long" | "unsigned" | "signed"
                        ) || p.ends_with("_t")
                            || p == "u8"
                            || p == "u16"
                            || p == "u32"
                            || p == "s8"
                            || p == "s16"
                            || p == "s32"
                    }
                    Raw::Op(o) => o == "*",
                    _ => false,
                };
                if prev_is_type {
                    match tokens.get(i + 1).map(|t| &t.raw) {
                        Some(Raw::Other('(')) | Some(Raw::Other(';')) | Some(Raw::Other('['))
                        | Some(Raw::Op(_)) => {
                            out.insert(n.clone());
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRIVER: &str = r#"
#define MSE_DATA_PORT  0x23c
#define MSE_CONTROL_PORT 0x23e
#define MSE_READ_Y_HIGH 0xe0

static int mouse_ready;

/* DEVIL_MUT_BEGIN */
int read_y_high(void)
{
    int v;
    outb(MSE_READ_Y_HIGH, MSE_CONTROL_PORT);
    v = inb(MSE_DATA_PORT) & 0xf;
    return (v << 4) | 1;
}
/* DEVIL_MUT_END */

int untouched(void) { return 0x99; }
"#;

    fn model() -> CMutationModel {
        CMutationModel::new(DRIVER, &[], CStyle::PlainC)
    }

    #[test]
    fn sites_respect_region_markers() {
        let m = model();
        assert!(
            !m.sites().iter().any(|s| s.original == "0x99"),
            "code outside the region must not be mutated"
        );
        assert!(m.sites().iter().any(|s| s.original == "0xf"));
    }

    #[test]
    fn literal_sites_classified() {
        let m = model();
        let site = m.sites().iter().find(|s| s.original == "0xf").unwrap();
        assert_eq!(site.kind, SiteKind::Literal);
    }

    #[test]
    fn operator_sites_in_binary_context() {
        let m = model();
        let amp = m
            .sites()
            .iter()
            .filter(|s| s.kind == SiteKind::Operator && s.original == "&")
            .count();
        assert_eq!(amp, 1, "one binary & in the region");
        let shl = m
            .sites()
            .iter()
            .any(|s| s.kind == SiteKind::Operator && s.original == "<<");
        assert!(shl);
        let pipe = m
            .sites()
            .iter()
            .any(|s| s.kind == SiteKind::Operator && s.original == "|");
        assert!(pipe);
    }

    #[test]
    fn identifier_pool_is_defined_names() {
        let m = model();
        let site = m
            .sites()
            .iter()
            .position(|s| s.original == "MSE_DATA_PORT")
            .expect("macro use is a site");
        let reps = &m.replacements[site];
        assert!(reps.contains(&"MSE_CONTROL_PORT".to_string()), "{reps:?}");
        assert!(reps.contains(&"mouse_ready".to_string()), "plain C pools mix everything");
        assert!(reps.contains(&"read_y_high".to_string()), "functions too: {reps:?}");
        assert!(!reps.contains(&"v".to_string()), "locals are not defined names");
    }

    #[test]
    fn cdevil_pools_stay_in_family() {
        let src = r#"
/* DEVIL_MUT_BEGIN */
void f(void)
{
    set_Drive(MASTER);
    set_Irq(IRQ_ON);
    x = get_Status();
}
/* DEVIL_MUT_END */
"#;
        let hdr = r#"
static void set_Drive(Drive_t v) { }
static void set_Irq(Irq_t v) { }
static u32 get_Status(void) { return 0; }
static u32 get_Error(void) { return 0; }
#define MASTER 0
#define IRQ_ON 1
"#;
        let m = CMutationModel::new(src, &[hdr], CStyle::CDevil);
        let set_site = m
            .sites()
            .iter()
            .position(|s| s.original == "set_Drive")
            .expect("set_Drive site");
        assert_eq!(m.replacements[set_site], vec!["set_Irq".to_string()]);
        let get_site = m
            .sites()
            .iter()
            .position(|s| s.original == "get_Status")
            .expect("get_Status site");
        assert_eq!(m.replacements[get_site], vec!["get_Error".to_string()]);
        let const_site = m
            .sites()
            .iter()
            .position(|s| s.original == "MASTER")
            .expect("constant site");
        assert!(m.replacements[const_site].contains(&"IRQ_ON".to_string()));
        assert!(!m.replacements[const_site].contains(&"set_Irq".to_string()));
    }

    #[test]
    fn no_markers_means_whole_file() {
        let m = CMutationModel::new("int f(void) { return 0x10; }", &[], CStyle::PlainC);
        assert!(m.sites().iter().any(|s| s.original == "0x10"));
    }

    #[test]
    fn mutants_splice_exactly() {
        let m = model();
        for mt in m.mutants().iter().take(50) {
            assert_ne!(mt.source, DRIVER);
            assert_eq!(mt.source.len(), DRIVER.len() + mt.source.len() - DRIVER.len());
        }
    }

    #[test]
    fn unary_amp_not_mutated() {
        let src = "/* DEVIL_MUT_BEGIN */\nvoid f(int *p) { g(&x); }\n/* DEVIL_MUT_END */";
        let m = CMutationModel::new(src, &[], CStyle::PlainC);
        assert!(
            !m.sites()
                .iter()
                .any(|s| s.kind == SiteKind::Operator && s.original == "&"),
            "unary & must not become | or ^"
        );
    }

    #[test]
    fn unary_not_and_tilde_swap() {
        let src = "/* DEVIL_MUT_BEGIN */\nint f(int x) { return !x + ~x; }\n/* DEVIL_MUT_END */";
        let m = CMutationModel::new(src, &[], CStyle::PlainC);
        let bang = m.sites().iter().find(|s| s.original == "!").unwrap();
        assert_eq!(bang.kind, SiteKind::Operator);
        assert!(m.sites().iter().any(|s| s.original == "~"));
    }

    #[test]
    fn compound_assignment_operators_mutate() {
        let src = "/* DEVIL_MUT_BEGIN */\nvoid f(int x) { x |= 1; x <<= 2; }\n/* DEVIL_MUT_END */";
        let m = CMutationModel::new(src, &[], CStyle::PlainC);
        assert!(m.sites().iter().any(|s| s.original == "|="));
        assert!(m.sites().iter().any(|s| s.original == "<<="));
    }

    #[test]
    fn strings_and_comments_are_not_scanned() {
        let src = "/* DEVIL_MUT_BEGIN */\nvoid f(void) { printk(\"0x123 | ~\"); /* 0x456 */ }\n/* DEVIL_MUT_END */";
        let m = CMutationModel::new(src, &[], CStyle::PlainC);
        assert!(!m.sites().iter().any(|s| s.kind == SiteKind::Literal));
        assert!(!m.sites().iter().any(|s| s.kind == SiteKind::Operator));
    }

    #[test]
    fn lines_recorded_for_dead_code_analysis() {
        let m = model();
        let site = m.sites().iter().find(|s| s.original == "0xf").unwrap();
        // `v = inb(MSE_DATA_PORT) & 0xf;` is on line 13 of DRIVER.
        assert_eq!(site.line, 13, "{site:?}");
    }

    #[test]
    fn multiple_regions_supported() {
        let src = "/* DEVIL_MUT_BEGIN */ int a = 0x1; /* DEVIL_MUT_END */ int b = 0x2; /* DEVIL_MUT_BEGIN */ int c = 0x3; /* DEVIL_MUT_END */";
        let m = CMutationModel::new(src, &[], CStyle::PlainC);
        assert!(m.sites().iter().any(|s| s.original == "0x1"));
        assert!(!m.sites().iter().any(|s| s.original == "0x2"));
        assert!(m.sites().iter().any(|s| s.original == "0x3"));
    }
}
