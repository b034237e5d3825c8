//! C tokeniser.
//!
//! Produces a flat token stream with file/line/offset metadata. Newlines
//! are not tokens, but the preprocessor needs line structure, so it calls
//! [`lex_line`] per (continuation-joined) line; ordinary users go through
//! [`crate::pp::preprocess`].

use crate::error::{CError, CPhase};
use crate::token::{CTok, CToken, Punct};

/// Tokenise one line of C source (no newline inside).
///
/// `file` and `line` are recorded on every token; `base_offset` is the byte
/// offset of the line start in the original file, so token positions remain
/// meaningful for the mutation engine.
///
/// # Errors
///
/// Returns a lex-phase [`CError`] for malformed literals or stray bytes.
pub fn lex_line(
    file: &str,
    file_id: u16,
    line: u32,
    base_offset: usize,
    text: &str,
) -> Result<Vec<CToken>, CError> {
    let mut out = Vec::new();
    let b = text.as_bytes();
    let mut i = 0;
    let err = |i: usize, msg: String| CError::new(CPhase::Lex, file, line, msg).tap(i);
    while i < b.len() {
        let start = i;
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => break, // line comment
            b'0'..=b'9' => {
                let (tok, len) = lex_number(&text[i..])
                    .map_err(|m| err(i, m))?;
                i += len;
                out.push(mk(file, file_id, line, base_offset + start, len, tok));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let name = &text[i..j];
                out.push(mk(
                    file,
                    file_id,
                    line,
                    base_offset + start,
                    j - i,
                    CTok::Ident(name.to_string()),
                ));
                i = j;
            }
            b'"' => {
                let (s, len) = lex_string(&text[i..]).map_err(|m| err(i, m))?;
                out.push(mk(file, file_id, line, base_offset + start, len, CTok::Str(s)));
                i += len;
            }
            b'\'' => {
                let (ch, len) = lex_char(&text[i..]).map_err(|m| err(i, m))?;
                out.push(mk(file, file_id, line, base_offset + start, len, CTok::Char(ch)));
                i += len;
            }
            b'#' => {
                out.push(mk(file, file_id, line, base_offset + start, 1, CTok::Hash));
                i += 1;
            }
            _ => {
                let (p, len) = lex_punct(&text[i..])
                    .ok_or_else(|| err(i, format!("stray character `{}`", c as char)))?;
                out.push(mk(file, file_id, line, base_offset + start, len, CTok::Punct(p)));
                i += len;
            }
        }
    }
    Ok(out)
}

trait Tap {
    fn tap(self, _i: usize) -> Self;
}
impl Tap for CError {
    fn tap(self, _i: usize) -> Self {
        self
    }
}

fn mk(file: &str, file_id: u16, line: u32, pos: usize, len: usize, tok: CTok) -> CToken {
    CToken { tok, file: file.to_string(), file_id, line, pos, len }
}

fn lex_number(s: &str) -> Result<(CTok, usize), String> {
    let b = s.as_bytes();
    let mut i = 0;
    let hex = b.len() > 2 && b[0] == b'0' && (b[1] | 0x20) == b'x';
    if hex {
        i = 2;
        while i < b.len() && b[i].is_ascii_hexdigit() {
            i += 1;
        }
        if i == 2 {
            return Err("malformed hexadecimal constant".into());
        }
    } else {
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
    }
    let digits_end = i;
    // Integer suffixes: any order of u/U and l/L (max 2 Ls).
    while i < b.len() && matches!(b[i] | 0x20, b'u' | b'l') {
        i += 1;
    }
    if i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        return Err("malformed integer constant".into());
    }
    let digits = &s[..digits_end];
    let value = if hex {
        u64::from_str_radix(&digits[2..], 16)
    } else if digits.len() > 1 && digits.starts_with('0') {
        // Octal. All-digit check above guarantees parseability of 0-7 only:
        if digits.bytes().any(|d| d >= b'8') {
            return Err(format!("invalid octal constant `{digits}`"));
        }
        u64::from_str_radix(&digits[1..], 8)
    } else {
        digits.parse::<u64>()
    }
    .map_err(|_| "integer constant out of range".to_string())?;
    Ok((CTok::Int { value, text: s[..i].to_string() }, i))
}

fn lex_string(s: &str) -> Result<(String, usize), String> {
    let b = s.as_bytes();
    let mut out = String::new();
    let mut i = 1;
    while i < b.len() {
        match b[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let (c, used) = unescape(&b[i..])?;
                out.push(c as char);
                i += used;
            }
            c if c.is_ascii() => {
                out.push(c as char);
                i += 1;
            }
            // A multi-byte UTF-8 sequence, copied through whole.
            _ => {
                let c = s[i..].chars().next().expect("`i` is on a character boundary");
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    Err("unterminated string literal".into())
}

fn lex_char(s: &str) -> Result<(u8, usize), String> {
    let b = s.as_bytes();
    if b.len() < 3 {
        return Err("malformed character constant".into());
    }
    let (c, used) = if b[1] == b'\\' {
        unescape(&b[1..])?
    } else {
        (b[1], 1)
    };
    if b.get(1 + used) != Some(&b'\'') {
        return Err("unterminated character constant".into());
    }
    Ok((c, 2 + used))
}

fn unescape(b: &[u8]) -> Result<(u8, usize), String> {
    debug_assert_eq!(b[0], b'\\');
    let c = *b.get(1).ok_or("dangling backslash")?;
    Ok(match c {
        b'n' => (b'\n', 2),
        b't' => (b'\t', 2),
        b'r' => (b'\r', 2),
        b'0' => (0, 2),
        b'\\' => (b'\\', 2),
        b'\'' => (b'\'', 2),
        b'"' => (b'"', 2),
        other => return Err(format!("unknown escape `\\{}`", other as char)),
    })
}

fn lex_punct(s: &str) -> Option<(Punct, usize)> {
    use Punct::*;
    let b = s.as_bytes();
    let three: Option<Punct> = match s.get(..3) {
        Some("<<=") => Some(ShlAssign),
        Some(">>=") => Some(ShrAssign),
        Some("...") => Some(Ellipsis),
        _ => None,
    };
    if let Some(p) = three {
        return Some((p, 3));
    }
    lex_punct_short(b)
}

fn lex_punct_short(b: &[u8]) -> Option<(Punct, usize)> {
    use Punct::*;
    if b.len() >= 2 {
        let two = match &b[..2] {
            b"->" => Some(Arrow),
            b"++" => Some(Inc),
            b"--" => Some(Dec),
            b"<<" => Some(Shl),
            b">>" => Some(Shr),
            b"<=" => Some(Le),
            b">=" => Some(Ge),
            b"==" => Some(EqEq),
            b"!=" => Some(Ne),
            b"&&" => Some(AndAnd),
            b"||" => Some(OrOr),
            b"*=" => Some(StarAssign),
            b"/=" => Some(SlashAssign),
            b"%=" => Some(PercentAssign),
            b"+=" => Some(PlusAssign),
            b"-=" => Some(MinusAssign),
            b"&=" => Some(AmpAssign),
            b"^=" => Some(CaretAssign),
            b"|=" => Some(PipeAssign),
            _ => None,
        };
        if let Some(p) = two {
            return Some((p, 2));
        }
    }
    let one = match b.first()? {
        b'(' => LParen,
        b')' => RParen,
        b'{' => LBrace,
        b'}' => RBrace,
        b'[' => LBracket,
        b']' => RBracket,
        b';' => Semi,
        b',' => Comma,
        b'.' => Dot,
        b'&' => Amp,
        b'*' => Star,
        b'+' => Plus,
        b'-' => Minus,
        b'~' => Tilde,
        b'!' => Bang,
        b'/' => Slash,
        b'%' => Percent,
        b'<' => Lt,
        b'>' => Gt,
        b'^' => Caret,
        b'|' => Pipe,
        b'?' => Question,
        b':' => Colon,
        b'=' => Assign,
        _ => return None,
    };
    Some((one, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<CTok> {
        lex_line("t.c", 0, 1, 0, s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers_all_bases_and_suffixes() {
        let ts = toks("10 0x1F 017 0 5u 0xffu 12UL");
        let vals: Vec<u64> = ts
            .iter()
            .map(|t| match t {
                CTok::Int { value, .. } => *value,
                _ => panic!("{t:?}"),
            })
            .collect();
        assert_eq!(vals, vec![10, 31, 15, 0, 5, 255, 12]);
    }

    #[test]
    fn preserves_literal_spelling() {
        let ts = lex_line("t.c", 0, 1, 0, "0x1F0").unwrap();
        assert!(matches!(&ts[0].tok, CTok::Int { text, .. } if text == "0x1F0"));
    }

    #[test]
    fn operators_longest_match() {
        let ts = toks("a <<= b >> c < d <= e");
        assert!(ts.contains(&CTok::Punct(Punct::ShlAssign)));
        assert!(ts.contains(&CTok::Punct(Punct::Shr)));
        assert!(ts.contains(&CTok::Punct(Punct::Lt)));
        assert!(ts.contains(&CTok::Punct(Punct::Le)));
    }

    #[test]
    fn strings_and_chars_unescape() {
        let ts = toks(r#""a\nb" '\t' 'x'"#);
        assert_eq!(ts[0], CTok::Str("a\nb".into()));
        assert_eq!(ts[1], CTok::Char(b'\t'));
        assert_eq!(ts[2], CTok::Char(b'x'));
    }

    #[test]
    fn line_comment_stops_lexing() {
        let ts = toks("x = 1; // comment with $tray chars");
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn positions_track_offsets() {
        let ts = lex_line("t.c", 0, 7, 100, "ab + 0x10").unwrap();
        assert_eq!(ts[0].pos, 100);
        assert_eq!(ts[0].len, 2);
        assert_eq!(ts[1].pos, 103);
        assert_eq!(ts[2].pos, 105);
        assert_eq!(ts[2].len, 4);
        assert!(ts.iter().all(|t| t.line == 7));
    }

    #[test]
    fn bad_octal_rejected() {
        assert!(lex_line("t.c", 0, 1, 0, "018").is_err());
    }

    #[test]
    fn bad_suffix_rejected() {
        assert!(lex_line("t.c", 0, 1, 0, "0x1Fzz").is_err());
        assert!(lex_line("t.c", 0, 1, 0, "12ab").is_err());
    }

    #[test]
    fn stray_byte_rejected() {
        assert!(lex_line("t.c", 0, 1, 0, "a $ b").is_err());
    }

    #[test]
    fn arrow_and_member() {
        let ts = toks("p->x . y");
        assert_eq!(
            ts,
            vec![
                CTok::Ident("p".into()),
                CTok::Punct(Punct::Arrow),
                CTok::Ident("x".into()),
                CTok::Punct(Punct::Dot),
                CTok::Ident("y".into()),
            ]
        );
    }
}
