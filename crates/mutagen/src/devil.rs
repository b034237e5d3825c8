//! Mutation-site extraction and mutant generation for Devil specifications
//! (§3.2 of the paper).
//!
//! Sites are derived from the parsed AST so that every mutation is applied
//! in a context where the result stays *syntactically* valid:
//!
//! * every integer literal (offsets, sizes, bit indices, range bounds,
//!   pre-action values) — class decimal or hexadecimal;
//! * every quoted bit literal — class bit-pattern (`{0,1,*,.}`) for
//!   register masks, bit-string (`{0,1,*}`) for enum value patterns;
//! * mapping arrows (`=>` / `<=` / `<=>`) and the `,`/`..` operators inside
//!   integer-set types;
//! * identifier *uses* within their semantic class: register references in
//!   variable fragments, variable references in pre-actions, port
//!   references in port clauses — plus register declaration names. Variable
//!   declaration names are never mutated (§3.2: that would only rename the
//!   generated stub, not change the specification's semantics).

use crate::literal::{literal_mutations, LiteralClass};
use crate::operator::devil_operator_mutants;
use crate::site::{make_mutant, Mutant, MutationSite, SiteKind};
use devil_core::ast::{Item, TypeExpr};
use devil_core::error::DevilError;
use devil_core::lexer::lex;
use devil_core::parser::parse;
use devil_core::span::Span;
use devil_core::token::TokenKind;

/// Everything the generator knows about one specification.
#[derive(Debug)]
pub struct DevilMutationModel {
    source: String,
    sites: Vec<MutationSite>,
    /// Parallel to `sites`: the replacement texts for each site.
    replacements: Vec<Vec<String>>,
}

impl DevilMutationModel {
    /// Analyse `source`, which must be a well-formed specification.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the original does not parse — the model
    /// mutates *correct* specifications.
    pub fn new(source: &str) -> Result<Self, DevilError> {
        let ast = parse(source)?;
        let tokens = lex(source)?;
        let line_starts = line_starts(source);
        let line_of = |pos: usize| line_of(&line_starts, pos);

        let mut sites = Vec::new();
        let mut replacements = Vec::new();
        let mut add = |pos: usize, len: usize, kind: SiteKind, original: String, reps: Vec<String>| {
            if !reps.is_empty() {
                sites.push(MutationSite { pos, len, line: line_of(pos), kind, original });
                replacements.push(reps);
            }
        };

        // Classify bit literals: mask positions come from register decls.
        let mask_spans: Vec<Span> = ast
            .registers()
            .filter_map(|r| r.mask.as_ref().map(|m| m.span))
            .collect();
        // Int-set type spans: `,` and `..` inside them are mutable.
        let mut set_spans: Vec<Span> = Vec::new();
        for v in ast.variables() {
            if let TypeExpr::IntSet { span, .. } = &v.ty {
                set_spans.push(*span);
            }
        }

        for t in &tokens {
            match &t.kind {
                TokenKind::Int { text, .. } => {
                    let (class, plen) = LiteralClass::classify_number(text);
                    add(
                        t.span.start,
                        t.span.len(),
                        SiteKind::Literal,
                        text.clone(),
                        literal_mutations(text, class, plen),
                    );
                }
                TokenKind::BitLiteral(pattern) => {
                    let class = if mask_spans.contains(&t.span) {
                        LiteralClass::BitPattern
                    } else {
                        LiteralClass::BitString
                    };
                    // Mutate the contents, keeping the quotes.
                    let inner: Vec<String> = literal_mutations(pattern, class, 0);
                    add(
                        t.span.start + 1,
                        pattern.len(),
                        SiteKind::Literal,
                        pattern.clone(),
                        inner,
                    );
                }
                TokenKind::FatArrow | TokenKind::ReadArrow | TokenKind::BothArrow => {
                    let original = source[t.span.start..t.span.end].to_string();
                    let reps = devil_operator_mutants(&original)
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                    add(t.span.start, t.span.len(), SiteKind::Operator, original, reps);
                }
                TokenKind::DotDot | TokenKind::Comma => {
                    let inside_set = set_spans
                        .iter()
                        .any(|s| t.span.start >= s.start && t.span.end <= s.end);
                    if inside_set {
                        let original = source[t.span.start..t.span.end].to_string();
                        let reps = devil_operator_mutants(&original)
                            .iter()
                            .map(|s| s.to_string())
                            .collect();
                        add(t.span.start, t.span.len(), SiteKind::Operator, original, reps);
                    }
                }
                _ => {}
            }
        }

        // Identifier sites from the AST (use sites + register decl names).
        let reg_pool: Vec<String> = ast.registers().map(|r| r.name.name.clone()).collect();
        let var_pool: Vec<String> = ast.variables().map(|v| v.name.name.clone()).collect();
        let port_pool: Vec<String> = ast.params.iter().map(|p| p.name.name.clone()).collect();
        let others = |pool: &[String], me: &str| -> Vec<String> {
            pool.iter().filter(|n| *n != me).cloned().collect()
        };
        let mut ident_site = |span: Span, name: &str, pool: &[String]| {
            add(
                span.start,
                span.len(),
                SiteKind::Identifier,
                name.to_string(),
                others(pool, name),
            );
        };
        for item in &ast.items {
            match item {
                Item::Register(r) => {
                    ident_site(r.name.span, &r.name.name, &reg_pool);
                    for pc in &r.ports {
                        ident_site(pc.port.span, &pc.port.name, &port_pool);
                    }
                    for pa in &r.pre {
                        ident_site(pa.var.span, &pa.var.name, &var_pool);
                    }
                }
                Item::Variable(v) => {
                    for f in &v.frags {
                        ident_site(f.register.span, &f.register.name, &reg_pool);
                    }
                }
            }
        }

        // Deterministic ordering by position.
        let mut order: Vec<usize> = (0..sites.len()).collect();
        order.sort_by_key(|&i| sites[i].pos);
        let sites = order.iter().map(|&i| sites[i].clone()).collect();
        let replacements = order.iter().map(|&i| replacements[i].clone()).collect();
        Ok(DevilMutationModel { source: source.to_string(), sites, replacements })
    }

    /// The mutation sites, ordered by position.
    pub fn sites(&self) -> &[MutationSite] {
        &self.sites
    }

    /// Generate every mutant.
    ///
    /// §3.1 requires mutants to be syntactically correct; the rare
    /// context-sensitive case (a set `,` flipped to `..` next to an
    /// existing range) is filtered out by re-parsing each candidate.
    pub fn mutants(&self) -> Vec<Mutant> {
        let mut out = Vec::new();
        for (i, reps) in self.replacements.iter().enumerate() {
            for r in reps {
                let m = make_mutant(&self.source, &self.sites, i, r.clone());
                if self.sites[i].kind != SiteKind::Operator || parse(&m.source).is_ok() {
                    out.push(m);
                }
            }
        }
        out
    }
}

fn line_starts(source: &str) -> Vec<usize> {
    let mut v = vec![0];
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

fn line_of(starts: &[usize], pos: usize) -> u32 {
    match starts.binary_search(&pos) {
        Ok(i) => i as u32 + 1,
        Err(i) => i as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"device d (base : bit[8] port @ {0..1})
{
  register ctl = write base @ 1, mask '1..00000' : bit[8];
  private variable sel = ctl[6..5] : int(2);
  variable pad = ctl[4..0] : int(5);
  register data = read base @ 0, pre {sel = 2} : bit[8];
  variable v = data, volatile : int(8);
  variable mode = ctl[4] : { FAST => '1', SLOW => '0' };
}
"#;

    // A spec where ctl[4..0] bits would clash: adjust — use a clean one.
    const CLEAN: &str = r#"device d (base : bit[8] port @ {0..1})
{
  register ctl = write base @ 1, mask '1..00000' : bit[8];
  private variable sel = ctl[6..5] : int(2);
  register data = read base @ 0, pre {sel = 2} : bit[8];
  variable v = data, volatile : int(8);
  variable w = data2 : int {0, 2..3};
  register data2 = read base @ 0, pre {sel = 1}, mask '******..' : bit[8];
}
"#;

    #[test]
    fn extracts_literal_sites() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let lits: Vec<&MutationSite> =
            m.sites().iter().filter(|s| s.kind == SiteKind::Literal).collect();
        // 8 (port width), 0, 1 (range), 1 (offset), mask, 8 (size), 6, 5,
        // 2 (int width), 4, 0, 5, 0 (offset), 2 (pre), 8, 8, 4, patterns...
        assert!(lits.len() > 15, "{}", lits.len());
        assert!(lits.iter().any(|s| s.original == "1..00000"));
    }

    #[test]
    fn mask_sites_use_bit_pattern_class() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let mask_site = m
            .sites()
            .iter()
            .position(|s| s.original == "1..00000")
            .unwrap();
        let reps = &m.replacements[mask_site];
        assert!(reps.iter().any(|r| r.contains('.')));
        assert!(reps.iter().any(|r| r.contains('*')));
    }

    #[test]
    fn enum_patterns_use_bit_string_class() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let pat = m
            .sites()
            .iter()
            .position(|s| s.kind == SiteKind::Literal && s.original == "1" && s.len == 1)
            .expect("enum pattern '1' site");
        let reps = &m.replacements[pat];
        assert!(
            reps.iter().all(|r| !r.contains('.')),
            "enum patterns must not gain mask dots: {reps:?}"
        );
    }

    #[test]
    fn arrow_sites_swap_within_class() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let arrows: Vec<&MutationSite> = m
            .sites()
            .iter()
            .filter(|s| s.kind == SiteKind::Operator && s.original.contains('='))
            .collect();
        assert_eq!(arrows.len(), 2, "{arrows:?}");
    }

    #[test]
    fn set_comma_and_range_sites() {
        let m = DevilMutationModel::new(CLEAN).unwrap();
        let ops: Vec<&MutationSite> = m
            .sites()
            .iter()
            .filter(|s| s.kind == SiteKind::Operator && (s.original == "," || s.original == ".."))
            .collect();
        assert_eq!(ops.len(), 2, "{ops:?}");
    }

    #[test]
    fn port_range_dotdot_is_not_a_site() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        // The {0..1} in the device header must not be mutable to `,`.
        let header_op = m
            .sites()
            .iter()
            .find(|s| s.kind == SiteKind::Operator && s.pos < SPEC.find('{').unwrap() + 8);
        assert!(header_op.is_none(), "{header_op:?}");
    }

    #[test]
    fn identifier_sites_stay_in_class() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        // The `ctl` use in `sel = ctl[6..5]` must offer `data` (register
        // pool) but never `pad` or `v` (variables).
        let site = m
            .sites()
            .iter()
            .position(|s| {
                s.kind == SiteKind::Identifier
                    && s.original == "ctl"
                    && SPEC[..s.pos].ends_with("sel = ")
            })
            .expect("fragment use site");
        let reps = &m.replacements[site];
        assert!(reps.contains(&"data".to_string()), "{reps:?}");
        assert!(!reps.contains(&"pad".to_string()), "{reps:?}");
        assert!(!reps.contains(&"v".to_string()), "{reps:?}");
    }

    #[test]
    fn variable_decl_names_are_not_sites() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        // `variable pad = ...` — the `pad` after `variable` is a decl site.
        let decl_pos = SPEC.find("variable pad").unwrap() + "variable ".len();
        assert!(
            !m.sites().iter().any(|s| s.pos == decl_pos),
            "variable decl name must not be mutated"
        );
    }

    #[test]
    fn pre_action_variable_site_uses_variable_pool() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let site = m
            .sites()
            .iter()
            .position(|s| s.kind == SiteKind::Identifier && s.original == "sel")
            .expect("pre-action site");
        let reps = &m.replacements[site];
        assert!(reps.contains(&"pad".to_string()), "{reps:?}");
        assert!(!reps.contains(&"ctl".to_string()), "{reps:?}");
    }

    #[test]
    fn all_mutants_differ_from_original_and_are_lexable() {
        let m = DevilMutationModel::new(SPEC).unwrap();
        let mutants = m.mutants();
        assert!(mutants.len() > 300, "{}", mutants.len());
        for mt in mutants.iter().take(500) {
            assert_ne!(mt.source, SPEC);
            // Lexically valid by construction.
            devil_core::lexer::lex(&mt.source).expect("mutants must lex");
        }
    }

    #[test]
    fn all_mutants_parse() {
        // Syntactic validity: by §3.1 every mutant must parse.
        let m = DevilMutationModel::new(CLEAN).unwrap();
        let bad = m
            .mutants()
            .iter()
            .filter(|mt| devil_core::parser::parse(&mt.source).is_err())
            .count();
        assert_eq!(bad, 0);
    }

    #[test]
    fn figure3_busmouse_site_count_is_plausible() {
        const BUSMOUSE: &str = r#"device logitech_busmouse (base : bit[8] port @ {0..3})
{
  register sig_reg = base @ 1 : bit[8];
  variable signature = sig_reg, volatile, write trigger : int(8);
  register cr = write base @ 3, mask '1001000.' : bit[8];
  variable config = cr[0] : { CONFIGURATION => '1', DEFAULT_MODE => '0' };
  register interrupt_reg = write base @ 2, mask '000.0000' : bit[8];
  variable interrupt = interrupt_reg[4] : { ENABLE => '0', DISABLE => '1' };
  register index_reg = write base @ 2, mask '1..00000' : bit[8];
  private variable index = index_reg[6..5] : int(2);
  register x_low  = read base @ 0, pre {index = 0}, mask '****....' : bit[8];
  register x_high = read base @ 0, pre {index = 1}, mask '****....' : bit[8];
  register y_low  = read base @ 0, pre {index = 2}, mask '****....' : bit[8];
  register y_high = read base @ 0, pre {index = 3}, mask '...*....' : bit[8];
  variable dx = x_high[3..0] # x_low[3..0], volatile : signed int(8);
  variable dy = y_high[3..0] # y_low[3..0], volatile : signed int(8);
  variable buttons = y_high[7..5], volatile : int(3);
}
"#;
        let m = DevilMutationModel::new(BUSMOUSE).unwrap();
        // Paper Table 2: 87 sites, 1678 mutants for the busmouse.
        let sites = m.sites().len();
        let mutants = m.mutants().len();
        assert!((60..=130).contains(&sites), "sites = {sites}");
        assert!((1000..=3000).contains(&mutants), "mutants = {mutants}");
    }
}
