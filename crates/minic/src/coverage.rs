//! Line-coverage bitmap shared by the tree-walking interpreter and the
//! bytecode VM.
//!
//! The interpreter used to record executed lines in a `HashSet<u32>` of
//! packed `(file_id, line)` ids — one hash per executed AST node, plus a
//! full set clone when the boot harness extracted the result. Coverage is
//! on the hottest path there is (every fuel burn records a line), so this
//! module replaces the set with per-file bitmaps sized once per program:
//! an insert is an unpack, an index and an `|=`; extraction is a move.
//!
//! The bitmap is sized at compile time from the maximum source line each
//! participating file contributes to the AST ([`Coverage::for_unit`]).
//! Inserts beyond the sized range grow the bitmap (they can only come from
//! synthesized tokens, which carry in-range lines today — growth is a
//! defensive slow path, not a design point).

use crate::ast::Unit;
use crate::token::unpack_line;

/// Executed-line set over packed `(file_id, line)` ids (see
/// [`crate::token::pack_line`]), stored as one bitmap per file.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// `files[fid][line / 64] & (1 << (line % 64))` — bit per 1-based line.
    files: Vec<Vec<u64>>,
}

impl Coverage {
    /// An empty coverage map with no pre-sized files.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Pre-size for a checked unit: one bitmap per participating file,
    /// sized to the greatest line any of its AST nodes carries.
    pub fn for_unit(unit: &Unit) -> Self {
        let bounds = line_bounds(unit);
        Coverage::with_bounds(&bounds)
    }

    /// Pre-size from explicit per-file maximum line numbers (index =
    /// `file_id`), as recorded by the bytecode compiler.
    pub fn with_bounds(bounds: &[u32]) -> Self {
        Coverage {
            files: bounds
                .iter()
                .map(|max| vec![0u64; (*max as usize + 64) / 64])
                .collect(),
        }
    }

    /// Record a packed line as executed.
    #[inline]
    pub fn insert(&mut self, packed: u32) {
        let (fid, line) = unpack_line(packed);
        let (word, bit) = (line as usize / 64, line % 64);
        match self
            .files
            .get_mut(fid as usize)
            .and_then(|f| f.get_mut(word))
        {
            Some(w) => *w |= 1 << bit,
            None => self.insert_grow(fid, word, bit),
        }
    }

    #[cold]
    fn insert_grow(&mut self, fid: u16, word: usize, bit: u32) {
        if self.files.len() <= fid as usize {
            self.files.resize(fid as usize + 1, Vec::new());
        }
        let f = &mut self.files[fid as usize];
        if f.len() <= word {
            f.resize(word + 1, 0);
        }
        f[word] |= 1 << bit;
    }

    /// Whether the packed line was ever executed.
    #[inline]
    pub fn contains(&self, packed: u32) -> bool {
        let (fid, line) = unpack_line(packed);
        self.files
            .get(fid as usize)
            .and_then(|f| f.get(line as usize / 64))
            .is_some_and(|w| w & (1 << (line % 64)) != 0)
    }

    /// Whether no line was executed.
    pub fn is_empty(&self) -> bool {
        self.files.iter().all(|f| f.iter().all(|w| *w == 0))
    }

    /// Number of executed lines.
    pub fn count(&self) -> usize {
        self.files
            .iter()
            .map(|f| f.iter().map(|w| w.count_ones() as usize).sum::<usize>())
            .sum()
    }

    /// Union `other` into `self`, growing the bitmaps as needed — e.g. to
    /// aggregate per-mutant coverage into campaign-wide coverage.
    pub fn merge(&mut self, other: &Coverage) {
        if self.files.len() < other.files.len() {
            self.files.resize(other.files.len(), Vec::new());
        }
        for (mine, theirs) in self.files.iter_mut().zip(&other.files) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m |= *t;
            }
        }
    }

    /// Iterate the executed packed line ids in `(file_id, line)` order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.files.iter().enumerate().flat_map(|(fid, f)| {
            f.iter().enumerate().flat_map(move |(word, bits)| {
                (0..64)
                    .filter(move |bit| bits & (1 << bit) != 0)
                    .map(move |bit| {
                        crate::token::pack_line(fid as u16, word as u32 * 64 + bit)
                    })
            })
        })
    }
}

/// Two coverages are equal when they contain the same lines, regardless of
/// how each was sized.
impl PartialEq for Coverage {
    fn eq(&self, other: &Self) -> bool {
        let words = |c: &Coverage, fid: usize, word: usize| -> u64 {
            c.files
                .get(fid)
                .and_then(|f| f.get(word))
                .copied()
                .unwrap_or(0)
        };
        let nf = self.files.len().max(other.files.len());
        (0..nf).all(|fid| {
            let nw = self
                .files
                .get(fid)
                .map_or(0, Vec::len)
                .max(other.files.get(fid).map_or(0, Vec::len));
            (0..nw).all(|w| words(self, fid, w) == words(other, fid, w))
        })
    }
}

impl Eq for Coverage {}

/// Maximum 1-based source line per file id appearing anywhere in the AST —
/// the sizing input for [`Coverage::with_bounds`]. Index = `file_id`.
pub fn line_bounds(unit: &Unit) -> Vec<u32> {
    let mut bounds = vec![0u32; unit.files.len()];
    let mut note = |packed: u32| {
        let (fid, line) = unpack_line(packed);
        if bounds.len() <= fid as usize {
            bounds.resize(fid as usize + 1, 0);
        }
        let slot = &mut bounds[fid as usize];
        *slot = (*slot).max(line);
    };
    for item in unit.items() {
        match item {
            crate::ast::Item::Global(g) => {
                note(g.line);
                if let Some(init) = &g.init {
                    scan_init(init, &mut note);
                }
            }
            crate::ast::Item::Proto(p) => note(p.line),
            crate::ast::Item::Func(f) => {
                note(f.line);
                scan_block(&f.body, &mut note);
            }
        }
    }
    bounds
}

fn scan_init(init: &crate::ast::Init, note: &mut impl FnMut(u32)) {
    match init {
        crate::ast::Init::Expr(e) => scan_expr(e, note),
        crate::ast::Init::List(items) => items.iter().for_each(|e| scan_expr(e, note)),
    }
}

fn scan_block(b: &crate::ast::Block, note: &mut impl FnMut(u32)) {
    b.stmts.iter().for_each(|s| scan_stmt(s, note));
}

fn scan_stmt(s: &crate::ast::Stmt, note: &mut impl FnMut(u32)) {
    use crate::ast::Stmt;
    match s {
        Stmt::Decl { init, line, .. } => {
            note(*line);
            if let Some(init) = init {
                scan_init(init, note);
            }
        }
        Stmt::Expr(e) => scan_expr(e, note),
        Stmt::If { cond, then_blk, else_blk } => {
            scan_expr(cond, note);
            scan_block(then_blk, note);
            if let Some(eb) = else_blk {
                scan_block(eb, note);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            scan_expr(cond, note);
            scan_block(body, note);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(init) = init {
                scan_stmt(init, note);
            }
            if let Some(c) = cond {
                scan_expr(c, note);
            }
            if let Some(st) = step {
                scan_expr(st, note);
            }
            scan_block(body, note);
        }
        Stmt::Switch { expr, arms, line } => {
            note(*line);
            scan_expr(expr, note);
            for arm in arms {
                arm.stmts.iter().for_each(|st| scan_stmt(st, note));
            }
        }
        Stmt::Return(e, line) => {
            note(*line);
            if let Some(e) = e {
                scan_expr(e, note);
            }
        }
        Stmt::Break(line) | Stmt::Continue(line) => note(*line),
        Stmt::Block(b) => scan_block(b, note),
        Stmt::Empty => {}
    }
}

fn scan_expr(e: &crate::ast::Expr, note: &mut impl FnMut(u32)) {
    use crate::ast::Expr;
    note(e.line());
    match e {
        Expr::IntLit { .. }
        | Expr::CharLit { .. }
        | Expr::StrLit { .. }
        | Expr::Ident { .. }
        | Expr::SizeofType { .. } => {}
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IncDec { expr, .. } => {
            scan_expr(expr, note)
        }
        Expr::Binary { lhs, rhs, .. }
        | Expr::Assign { lhs, rhs, .. }
        | Expr::Comma { lhs, rhs } => {
            scan_expr(lhs, note);
            scan_expr(rhs, note);
        }
        Expr::Cond { cond, then_e, else_e, .. } => {
            scan_expr(cond, note);
            scan_expr(then_e, note);
            scan_expr(else_e, note);
        }
        Expr::Call { callee, args, .. } => {
            scan_expr(callee, note);
            args.iter().for_each(|a| scan_expr(a, note));
        }
        Expr::Index { base, index, .. } => {
            scan_expr(base, note);
            scan_expr(index, note);
        }
        Expr::Member { base, .. } => scan_expr(base, note),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::pack_line;

    #[test]
    fn insert_contains_roundtrip() {
        let mut c = Coverage::with_bounds(&[100, 50]);
        assert!(c.is_empty());
        c.insert(pack_line(0, 7));
        c.insert(pack_line(1, 50));
        assert!(c.contains(pack_line(0, 7)));
        assert!(c.contains(pack_line(1, 50)));
        assert!(!c.contains(pack_line(0, 8)));
        assert!(!c.contains(pack_line(2, 7)));
        assert_eq!(c.count(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn out_of_range_insert_grows() {
        let mut c = Coverage::with_bounds(&[4]);
        c.insert(pack_line(3, 9999));
        assert!(c.contains(pack_line(3, 9999)));
    }

    #[test]
    fn equality_ignores_sizing() {
        let mut a = Coverage::with_bounds(&[100]);
        let mut b = Coverage::with_bounds(&[1000, 30]);
        a.insert(pack_line(0, 42));
        b.insert(pack_line(0, 42));
        assert_eq!(a, b);
        b.insert(pack_line(1, 1));
        assert_ne!(a, b);
    }

    #[test]
    fn iter_yields_sorted_packed_lines() {
        let mut c = Coverage::with_bounds(&[100, 100]);
        for p in [pack_line(1, 3), pack_line(0, 64), pack_line(0, 2)] {
            c.insert(p);
        }
        let got: Vec<u32> = c.iter().collect();
        assert_eq!(got, vec![pack_line(0, 2), pack_line(0, 64), pack_line(1, 3)]);
    }

    #[test]
    fn line_zero_round_trips() {
        // Line 0 never comes from real tokens (lines are 1-based), but the
        // bitmap must not treat it specially: bit 0 of word 0.
        let mut c = Coverage::with_bounds(&[10]);
        assert!(!c.contains(pack_line(0, 0)));
        c.insert(pack_line(0, 0));
        assert!(c.contains(pack_line(0, 0)));
        assert!(!c.contains(pack_line(0, 1)), "line 1 must stay clear");
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn lines_past_the_last_word_grow_and_query_clean() {
        // `with_bounds(&[64])` sizes two words (lines 0..=127). Lines past
        // the last word must query false without panicking, and insert
        // through the grow path.
        let mut c = Coverage::with_bounds(&[64]);
        assert!(!c.contains(pack_line(0, 128)));
        assert!(!c.contains(pack_line(0, 100_000)));
        c.insert(pack_line(0, 128)); // first bit of the word past the end
        c.insert(pack_line(0, 191)); // last bit of that word
        assert!(c.contains(pack_line(0, 128)));
        assert!(c.contains(pack_line(0, 191)));
        assert!(!c.contains(pack_line(0, 127)));
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn merge_of_differently_sized_bitmaps() {
        // Small ∪ large and large ∪ small must agree, grow correctly, and
        // leave the source untouched.
        let mut small = Coverage::with_bounds(&[10]);
        small.insert(pack_line(0, 3));
        let mut large = Coverage::with_bounds(&[500, 100]);
        large.insert(pack_line(0, 400));
        large.insert(pack_line(1, 64));

        let mut a = small.clone();
        a.merge(&large);
        let mut b = large.clone();
        b.merge(&small);
        assert_eq!(a, b, "merge must be symmetric in content");
        for p in [pack_line(0, 3), pack_line(0, 400), pack_line(1, 64)] {
            assert!(a.contains(p));
        }
        assert_eq!(a.count(), 3);
        // Sources untouched.
        assert_eq!(small.count(), 1);
        assert_eq!(large.count(), 2);
        // Merging an empty map changes nothing.
        let before = a.clone();
        a.merge(&Coverage::new());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut c = Coverage::with_bounds(&[64]);
        c.insert(pack_line(0, 5));
        let copy = c.clone();
        c.merge(&copy);
        assert_eq!(c, copy);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn bounds_cover_every_ast_line() {
        let p = crate::compile(
            "t.c",
            "int g = 3;\nint f(int x) {\n  if (x) {\n    return 1;\n  }\n  return 2;\n}",
        )
        .unwrap();
        let bounds = line_bounds(&p.unit);
        assert_eq!(bounds.len(), 1);
        assert!(bounds[0] >= 6, "{bounds:?}");
    }
}
