//! Source positions and human-readable diagnostics.
//!
//! Every token and AST node carries a [`Span`] into the original source
//! text; [`SourceFile`] converts spans to line/column pairs and renders the
//! offending line, so the Devil compiler's error messages point at the exact
//! character a mutation (or a human typo) landed on — the paper's whole
//! point is *when* an error surfaces, so precise reporting is part of the
//! reproduction.

use std::fmt;

/// A half-open byte range `[start, end)` into a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Construct a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no characters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Line/column position (both 1-based) resolved from a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A named source file with cached line starts.
#[derive(Debug, Clone)]
pub struct SourceFile {
    name: String,
    text: String,
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Wrap `text` under the given display `name`.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let mut line_starts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile { name: name.into(), text, line_starts }
    }

    /// Display name (typically the file name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Resolve a byte offset to a line/column pair.
    pub fn line_col(&self, offset: usize) -> LineCol {
        let offset = offset.min(self.text.len());
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol { line: line + 1, col: offset - self.line_starts[line] + 1 }
    }

    /// The full source line (without trailing newline) containing `offset`.
    pub fn line_text(&self, offset: usize) -> &str {
        let lc = self.line_col(offset);
        let start = self.line_starts[lc.line - 1];
        let end = self
            .line_starts
            .get(lc.line)
            .map(|e| e - 1)
            .unwrap_or(self.text.len());
        &self.text[start..end.max(start)]
    }

    /// Render a compiler-style snippet for `span`:
    ///
    /// ```text
    /// busmouse.dil:5:23
    ///     variable signature = sig_reg, volatile ...
    ///                          ^^^^^^^
    /// ```
    pub fn render_snippet(&self, span: Span) -> String {
        let lc = self.line_col(span.start);
        let line = self.line_text(span.start);
        let caret_start = lc.col - 1;
        let caret_len = span.len().clamp(1, line.len().saturating_sub(caret_start).max(1));
        let mut out = format!("{}:{}\n    {}\n    ", self.name, lc, line);
        for _ in 0..caret_start {
            out.push(' ');
        }
        for _ in 0..caret_len {
            out.push('^');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn line_col_resolution() {
        let f = SourceFile::new("t", "ab\ncd\n\nef");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(f.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(6), LineCol { line: 3, col: 1 });
        assert_eq!(f.line_col(7), LineCol { line: 4, col: 1 });
        // Past the end clamps to the last position.
        assert_eq!(f.line_col(1000).line, 4);
    }

    #[test]
    fn line_text_extracts_whole_line() {
        let f = SourceFile::new("t", "first\nsecond\nthird");
        assert_eq!(f.line_text(0), "first");
        assert_eq!(f.line_text(7), "second");
        assert_eq!(f.line_text(14), "third");
    }

    #[test]
    fn snippet_points_at_span() {
        let f = SourceFile::new("x.dil", "register cr = base @ 3;");
        let s = f.render_snippet(Span::new(9, 11));
        assert!(s.contains("x.dil:1:10"), "{s}");
        assert!(s.contains("^^"), "{s}");
    }

    #[test]
    fn empty_file_has_one_line() {
        let f = SourceFile::new("t", "");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_text(0), "");
    }
}
