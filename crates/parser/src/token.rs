//! Tokens and source spans.

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Builds a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based `(line, column)` of the span start within `source`.
    ///
    /// Scans `source` once; to resolve many spans against one source, build
    /// a [`LineIndex`] and query it instead.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        LineIndex::new(source).line_col(self.start)
    }
}

/// The byte offsets at which the lines of one source text start, so that an
/// offset resolves to its line by binary search instead of a prefix scan.
///
/// Lines end at `\n` (a `\r` before it stays part of the line); columns
/// are 1-based byte counts within the line.
#[derive(Debug, Clone)]
pub struct LineIndex {
    /// `starts[i]` is the offset of line `i + 1`; `starts[0] == 0`.
    starts: Vec<usize>,
    /// Length of the indexed source in bytes.
    len: usize,
}

impl LineIndex {
    /// Indexes `source` in one pass.
    pub fn new(source: &str) -> Self {
        let starts = std::iter::once(0)
            .chain(
                source
                    .bytes()
                    .enumerate()
                    .filter(|&(_, b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        LineIndex {
            starts,
            len: source.len(),
        }
    }

    /// 1-based `(line, column)` of byte `offset`. The line is that of
    /// `min(offset, len)`; the column counts from that line's start to the
    /// unclamped `offset`, so an offset past the end keeps counting columns
    /// on the last line.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.line_of(offset);
        (line + 1, offset - self.starts[line] + 1)
    }

    /// The byte range of the line holding `min(offset, len)`, without its
    /// terminating `\n`.
    pub fn line_range(&self, offset: usize) -> std::ops::Range<usize> {
        let line = self.line_of(offset);
        let end = self.starts.get(line + 1).map_or(self.len, |&next| next - 1);
        self.starts[line]..end
    }

    /// 0-based line of `min(offset, len)`: no line starts past `len`, so
    /// an offset beyond the end falls on the last line without clamping.
    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset) - 1
    }
}

/// The kind of a lexical token. Tokens carry no text of their own: a name's
/// or variable's text is the source slice under its [`Token::span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Lower-case identifier or digit sequence: a symbol name.
    Name,
    /// Upper-case or `_`-initial identifier: a variable name.
    Variable,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.` (clause terminator)
    Dot,
    /// `:-`
    Turnstile,
    /// `>=`
    Supertype,
    /// `+`
    Plus,
    /// `-` (argument mode in `MODE` declarations)
    Minus,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description for diagnostics; `text` is the
    /// token's source text, shown for names and variables.
    pub fn describe(self, text: &str) -> String {
        match self {
            TokenKind::Name => format!("name `{text}`"),
            TokenKind::Variable => format!("variable `{text}`"),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::Dot => "`.`".to_string(),
            TokenKind::Turnstile => "`:-`".to_string(),
            TokenKind::Supertype => "`>=`".to_string(),
            TokenKind::Plus => "`+`".to_string(),
            TokenKind::Minus => "`-`".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// A token: its kind and the span of its source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// Where in the source the token came from.
    pub span: Span,
}

impl Token {
    /// The token's text within `src`, the source it was lexed from.
    pub fn text(self, src: &str) -> &str {
        &src[self.span.start..self.span.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_is_one_based() {
        let src = "abc\ndef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(2, 3).line_col(src), (1, 3));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 1));
        assert_eq!(Span::new(6, 7).line_col(src), (2, 3));
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 5);
        let b = Span::new(10, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }
}
