//! Hand-written lexer for the declaration language.
//!
//! The lexer scans bytes. ASCII — everything in the paper's examples — is
//! classified by byte, through a table that agrees with `char`'s
//! predicates. A `char` is decoded only at a byte `>= 0x80` and classified
//! by those predicates (`is_whitespace`, `is_alphabetic`,
//! `is_alphanumeric`, `is_uppercase`). Tokens are a kind plus a span: a
//! name's text is the source slice under its span, so lexing allocates
//! nothing per token.

use crate::error::{ParseError, ParseErrorKind};
use crate::token::{Span, Token, TokenKind};

/// A lexer over source text; produces [`Token`]s on demand.
#[derive(Debug, Clone)]
pub struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    /// The lexical error that stopped [`Lexer::scan`], if any.
    error: Option<ParseError>,
}

/// [`CLASS`] of an ASCII byte that continues an identifier (alphanumerics,
/// `_`, `$`).
const IDENT: u8 = 1;
/// [`CLASS`] of an ASCII byte that `char::is_whitespace` accepts (`\t`,
/// `\n`, vertical tab, form feed, `\r` and space).
const SPACE: u8 = 2;

/// Classes of the ASCII bytes; every byte `>= 0x80` is class 0 and is
/// classified by decoding its `char`.
static CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x80 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' {
            table[b] = IDENT;
        } else if matches!(c, b'\t'..=b'\r' | b' ') {
            table[b] = SPACE;
        }
        b += 1;
    }
    table
};

fn class(b: u8) -> u8 {
    CLASS[usize::from(b)]
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            error: None,
        }
    }

    /// Lexes the entire input into a token vector ending with `Eof`.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error encountered.
    pub fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            out.push(tok);
            if tok.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    /// Lexes the next token.
    ///
    /// # Errors
    ///
    /// [`ParseErrorKind::UnexpectedChar`] on an unknown character and
    /// [`ParseErrorKind::UnterminatedComment`] on an unclosed `/*`.
    pub fn next_token(&mut self) -> Result<Token, ParseError> {
        let tok = self.scan();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(tok),
        }
    }

    /// Lexes the next token. On a lexical error it records the error for
    /// [`Lexer::take_error`] and returns an `Eof` token at the error
    /// without advancing.
    pub(crate) fn scan(&mut self) -> Token {
        let bytes = self.src.as_bytes();
        let start = self.skip_trivia();
        let Some(&b) = bytes.get(start) else {
            return self.token(TokenKind::Eof, start);
        };
        let next = bytes.get(start + 1).copied();
        let (kind, end) = match b {
            b'(' => (TokenKind::LParen, start + 1),
            b')' => (TokenKind::RParen, start + 1),
            b',' => (TokenKind::Comma, start + 1),
            b'.' => (TokenKind::Dot, start + 1),
            b'+' => (TokenKind::Plus, start + 1),
            b'-' => (TokenKind::Minus, start + 1),
            b':' if next == Some(b'-') => (TokenKind::Turnstile, start + 2),
            b'>' if next == Some(b'=') => (TokenKind::Supertype, start + 2),
            b'0'..=b'9' => {
                let digits = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                (TokenKind::Name, start + digits)
            }
            b'A'..=b'Z' | b'_' => (TokenKind::Variable, self.ident_end(start + 1)),
            b'a'..=b'z' | b'$' => (TokenKind::Name, self.ident_end(start + 1)),
            _ => {
                let c = self.char_at(start);
                if !c.is_alphabetic() {
                    self.error = Some(ParseError::new(
                        ParseErrorKind::UnexpectedChar(c),
                        Span::new(start, start + c.len_utf8()),
                    ));
                    return self.token(TokenKind::Eof, start);
                }
                let kind = if c.is_uppercase() {
                    TokenKind::Variable
                } else {
                    TokenKind::Name
                };
                (kind, self.ident_end(start + c.len_utf8()))
            }
        };
        self.pos = end;
        self.token(kind, start)
    }

    /// Takes the error that stopped [`Lexer::scan`], if any.
    pub(crate) fn take_error(&mut self) -> Option<ParseError> {
        self.error.take()
    }

    /// A token of `kind` from `start` to the current position.
    fn token(&self, kind: TokenKind, start: usize) -> Token {
        Token {
            kind,
            span: Span::new(start, self.pos),
        }
    }

    /// The `char` starting at byte `pos` (a char boundary).
    fn char_at(&self, pos: usize) -> char {
        self.src[pos..].chars().next().expect("not at end of input")
    }

    /// Skips whitespace and comments; returns the offset of the next
    /// token. An unterminated block comment records its error and skips
    /// to the end of input.
    fn skip_trivia(&mut self) -> usize {
        let bytes = self.src.as_bytes();
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos) {
            if class(b) == SPACE {
                pos += 1;
            } else if b == b'%' {
                // `\n` never occurs inside a multibyte sequence.
                pos = bytes[pos..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |i| pos + i + 1);
            } else if b == b'/' && bytes.get(pos + 1) == Some(&b'*') {
                match self.src[pos + 2..].find("*/") {
                    Some(i) => pos += 2 + i + 2,
                    None => {
                        self.error = Some(ParseError::new(
                            ParseErrorKind::UnterminatedComment,
                            Span::new(pos, bytes.len()),
                        ));
                        pos = bytes.len();
                    }
                }
            } else if b >= 0x80 && self.char_at(pos).is_whitespace() {
                pos += self.char_at(pos).len_utf8();
            } else {
                break;
            }
        }
        self.pos = pos;
        pos
    }

    /// The end of the identifier characters (alphanumerics, `_`, `$`)
    /// starting at `pos`.
    fn ident_end(&self, mut pos: usize) -> usize {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(pos) {
            if class(b) == IDENT {
                pos += 1;
            } else if b >= 0x80 && self.char_at(pos).is_alphanumeric() {
                pos += self.char_at(pos).len_utf8();
            } else {
                break;
            }
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<(TokenKind, &str)> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn lexes_paper_constraint() {
        use TokenKind::*;
        assert_eq!(
            tokens("nat >= 0 + succ(nat)."),
            vec![
                (Name, "nat"),
                (Supertype, ">="),
                (Name, "0"),
                (Plus, "+"),
                (Name, "succ"),
                (LParen, "("),
                (Name, "nat"),
                (RParen, ")"),
                (Dot, "."),
                (Eof, ""),
            ]
        );
    }

    #[test]
    fn lexes_clause_with_variables() {
        use TokenKind::*;
        assert_eq!(
            tokens("app(nil, L, L) :- q(L)."),
            vec![
                (Name, "app"),
                (LParen, "("),
                (Name, "nil"),
                (Comma, ","),
                (Variable, "L"),
                (Comma, ","),
                (Variable, "L"),
                (RParen, ")"),
                (Turnstile, ":-"),
                (Name, "q"),
                (LParen, "("),
                (Variable, "L"),
                (RParen, ")"),
                (Dot, "."),
                (Eof, ""),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        assert_eq!(
            tokens("% line\n a /* block\nstill */ b."),
            vec![(Name, "a"), (Name, "b"), (Dot, "."), (Eof, "")]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = Lexer::new("/* oops").tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedComment);
    }

    #[test]
    fn underscore_is_variable() {
        use TokenKind::*;
        assert_eq!(
            tokens("_Foo _"),
            vec![(Variable, "_Foo"), (Variable, "_"), (Eof, "")]
        );
    }

    #[test]
    fn digits_are_names() {
        use TokenKind::*;
        assert_eq!(
            tokens("0 succ 42 7up"),
            vec![
                (Name, "0"),
                (Name, "succ"),
                (Name, "42"),
                (Name, "7"),
                (Name, "up"),
                (Eof, "")
            ]
        );
    }

    #[test]
    fn unexpected_char_reports_span() {
        let err = Lexer::new("a ?").tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedChar('?'));
        assert_eq!(err.span, Span::new(2, 3));
    }

    /// The byte classification agrees with the `char` predicates on every
    /// ASCII byte: each one alone, and each one after an identifier start.
    #[test]
    fn ascii_classification_matches_char_predicates() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            let alone = c.to_string();
            let expect_token = c.is_alphabetic() || c.is_ascii_digit() || c == '_' || c == '$';
            match Lexer::new(&alone).tokenize() {
                Ok(toks) if c.is_whitespace() => assert_eq!(toks.len(), 1, "{b:#x}"),
                Ok(toks) if expect_token => {
                    let want = if c.is_uppercase() || c == '_' {
                        TokenKind::Variable
                    } else {
                        TokenKind::Name
                    };
                    assert_eq!(toks[0].kind, want, "{b:#x}");
                }
                Ok(_) | Err(_) => {}
            }
            let after = format!("a{c}");
            let toks = Lexer::new(&after).tokenize();
            let continues = c.is_alphanumeric() || c == '_' || c == '$';
            if let Ok(toks) = toks {
                assert_eq!(toks[0].span.end == 2, continues, "{b:#x}");
            }
        }
    }
}
