//! Parse and load errors with source positions.

use std::fmt;

use lp_term::SigError;

use crate::token::Span;

/// What went wrong while parsing or loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A character the lexer does not understand.
    UnexpectedChar(char),
    /// A `/*` comment that never closes.
    UnterminatedComment,
    /// The parser wanted something else here.
    UnexpectedToken {
        /// The token found, as described by [`TokenKind::describe`]
        /// (`name \`foo\``, `` `.` ``, `end of input`, …).
        ///
        /// [`TokenKind::describe`]: crate::TokenKind::describe
        found: String,
        /// What was expected instead (prose).
        expected: String,
    },
    /// A symbol used in a clause/constraint/type without a declaration.
    UndeclaredSymbol(String),
    /// Kind or arity discipline violated (from the signature).
    Signature(SigError),
    /// A declaration-level structural error, e.g. a constraint whose
    /// left-hand side is not a type-constructor application.
    Malformed(String),
    /// A term nested deeper than the parser's recursion limit. The limit
    /// exists so adversarial input (e.g. ten thousand `(`s) is answered
    /// with a spanned diagnostic instead of a stack overflow.
    NestingTooDeep(usize),
}

/// A parse/load error with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The error category and payload.
    pub kind: ParseErrorKind,
    /// Where in the source it occurred.
    pub span: Span,
}

impl ParseError {
    /// Builds an error at a span.
    pub fn new(kind: ParseErrorKind, span: Span) -> Self {
        ParseError { kind, span }
    }

    /// Renders the error with 1-based line/column against the source text.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        format!("{line}:{col}: {self}")
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ParseErrorKind::UnterminatedComment => write!(f, "unterminated block comment"),
            ParseErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseErrorKind::UndeclaredSymbol(name) => {
                write!(
                    f,
                    "undeclared symbol `{name}` (declare it with FUNC, TYPE or PRED)"
                )
            }
            ParseErrorKind::Signature(e) => write!(f, "{e}"),
            ParseErrorKind::Malformed(msg) => f.write_str(msg),
            ParseErrorKind::NestingTooDeep(limit) => {
                write!(f, "term nesting exceeds the parser limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<(SigError, Span)> for ParseError {
    fn from((e, span): (SigError, Span)) -> Self {
        ParseError::new(ParseErrorKind::Signature(e), span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_position() {
        let err = ParseError::new(
            ParseErrorKind::UndeclaredSymbol("foo".into()),
            Span::new(4, 7),
        );
        let rendered = err.render("abc\nfoo.");
        assert!(rendered.starts_with("2:1:"), "got {rendered}");
        assert!(rendered.contains("foo"));
    }
}
