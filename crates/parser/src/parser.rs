//! Recursive-descent parser producing the flat [`SyntaxTree`].
//!
//! The parser pulls one token at a time from the lexer (tokens are `Copy`
//! and carry no text) and slices names out of the source. Argument and
//! list entries are gathered on one reusable stack and moved into the
//! tree as a run when their list closes, so parsing allocates nothing per
//! token.
//!
//! Errors are reported as if the whole file were lexed before parsing: a
//! lexical error anywhere in the file wins over a syntax error before it.
//! The parser stops at the first lexical error; after a syntax error it
//! lexes the rest of the file to look for one.

use crate::ast::{Item, Mode, NodeId, NodeKind, Run, SyntaxTree};
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::Lexer;
use crate::token::{Span, Token, TokenKind};

/// Deepest term nesting the parser accepts. The recursive-descent
/// `term`/`primary` cycle consumes one stack frame pair per level, so an
/// explicit bound turns pathological input (e.g. a file of ten thousand
/// `(`s) into a spanned [`ParseError`] instead of a stack overflow.
pub const MAX_TERM_DEPTH: usize = 256;

/// Parses a whole source file into a [`SyntaxTree`] of top-level items.
///
/// Errors come in the order a lex-then-parse front end gives them: a
/// lexical error anywhere wins over a syntax error earlier in the file.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its span.
pub fn parse_items(src: &str) -> Result<SyntaxTree<'_>, ParseError> {
    let mut p = Parser::new(src)?;
    let parsed = p.items();
    let (tree, ()) = p.finish(parsed)?;
    Ok(tree)
}

/// Parses a single term (optionally `.`-terminated), e.g. a type or goal
/// given on a command line.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, including trailing input.
pub(crate) fn parse_single_term(src: &str) -> Result<(SyntaxTree<'_>, NodeId), ParseError> {
    let mut p = Parser::new(src)?;
    let parsed = p.single_term();
    p.finish(parsed)
}

struct Parser<'src> {
    src: &'src str,
    lexer: Lexer<'src>,
    /// The current token. After a lexical error it is an `Eof` at the
    /// error, and the lexer holds the error.
    tok: Token,
    /// Current `primary` recursion depth, bounded by [`MAX_TERM_DEPTH`].
    depth: usize,
    tree: SyntaxTree<'src>,
    /// Entries of the lists still open, innermost last.
    pending: Vec<NodeId>,
    /// Modes of the `MODE` entry being parsed.
    pending_modes: Vec<Mode>,
}

impl<'src> Parser<'src> {
    fn new(src: &'src str) -> Result<Self, ParseError> {
        if u32::try_from(src.len()).is_err() {
            return Err(ParseError::new(
                ParseErrorKind::Malformed(format!(
                    "a source of {} bytes exceeds the parser's limit of 4 GiB",
                    src.len()
                )),
                Span::default(),
            ));
        }
        let mut p = Parser {
            src,
            lexer: Lexer::new(src),
            tok: Token {
                kind: TokenKind::Eof,
                span: Span::default(),
            },
            depth: 0,
            tree: SyntaxTree::new(src),
            pending: Vec::new(),
            pending_modes: Vec::new(),
        };
        p.tok = p.lexer.scan();
        Ok(p)
    }

    /// The result of a parse, with the lexical-error-first order applied:
    /// a lexical error met while parsing, or anywhere after a syntax
    /// error, replaces the parse's own result.
    fn finish<T>(
        mut self,
        parsed: Result<T, ParseError>,
    ) -> Result<(SyntaxTree<'src>, T), ParseError> {
        if parsed.is_err() {
            while self.tok.kind != TokenKind::Eof {
                self.tok = self.lexer.scan();
            }
        }
        match self.lexer.take_error() {
            Some(e) => Err(e),
            None => parsed.map(|value| (self.tree, value)),
        }
    }

    fn items(&mut self) -> Result<(), ParseError> {
        while self.kind() != TokenKind::Eof {
            let item = self.item()?;
            self.tree.push_item(item);
        }
        Ok(())
    }

    /// One term, an optional `.`, then the end of input.
    fn single_term(&mut self) -> Result<NodeId, ParseError> {
        let t = self.term()?;
        if self.kind() == TokenKind::Dot {
            self.bump();
        }
        if self.kind() != TokenKind::Eof {
            return Err(self.unexpected("end of input"));
        }
        Ok(t)
    }

    fn kind(&self) -> TokenKind {
        self.tok.kind
    }

    /// The current token's source text.
    fn text(&self) -> &'src str {
        self.tok.text(self.src)
    }

    /// Consumes the current token (staying put at `Eof`) and returns its
    /// span.
    fn bump(&mut self) -> Span {
        let span = self.tok.span;
        if self.tok.kind != TokenKind::Eof {
            self.tok = self.lexer.scan();
        }
        span
    }

    /// Consumes a token of `kind`, returning its span.
    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Span, ParseError> {
        if self.kind() == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Consumes a `,` if there is one.
    fn comma(&mut self) -> bool {
        let found = self.kind() == TokenKind::Comma;
        if found {
            self.bump();
        }
        found
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::UnexpectedToken {
                found: self.kind().describe(self.text()),
                expected: expected.to_string(),
            },
            self.tok.span,
        )
    }

    fn span_of(&self, id: NodeId) -> Span {
        self.tree.node(id).span()
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        let keyword = match self.kind() {
            TokenKind::Variable => self.text(),
            _ => "",
        };
        if matches!(keyword, "FUNC" | "TYPE" | "PRED" | "MODE") {
            self.bump();
            let (item, what) = match keyword {
                "FUNC" => (
                    Item::FuncDecl(self.name_list()?),
                    "`.` after FUNC declaration",
                ),
                "TYPE" => (
                    Item::TypeDecl(self.name_list()?),
                    "`.` after TYPE declaration",
                ),
                "PRED" => (
                    Item::PredDecl(self.term_list()?),
                    "`.` after PRED declaration",
                ),
                _ => (
                    Item::ModeDecl(self.mode_decls()?),
                    "`.` after MODE declaration",
                ),
            };
            self.expect(TokenKind::Dot, what)?;
            return Ok(item);
        }
        if self.kind() == TokenKind::Turnstile {
            let start = self.bump();
            let body = self.term_list()?;
            let end = self.expect(TokenKind::Dot, "`.` after query")?;
            return Ok(Item::Query {
                body,
                span: start.merge(end),
            });
        }
        // Constraint, fact or rule: starts with a term.
        let lhs = self.term()?;
        let start = self.span_of(lhs);
        match self.kind() {
            TokenKind::Supertype => {
                self.bump();
                let rhs = self.term()?;
                let end = self.expect(TokenKind::Dot, "`.` after constraint")?;
                Ok(Item::Constraint {
                    lhs,
                    rhs,
                    span: start.merge(end),
                })
            }
            TokenKind::Turnstile => {
                self.bump();
                let body = self.term_list()?;
                let end = self.expect(TokenKind::Dot, "`.` after clause body")?;
                Ok(Item::Clause {
                    head: lhs,
                    body,
                    span: start.merge(end),
                })
            }
            TokenKind::Dot => {
                let end = self.bump();
                Ok(Item::Clause {
                    head: lhs,
                    body: Run::default(),
                    span: start.merge(end),
                })
            }
            _ => Err(self.unexpected("`>=`, `:-` or `.` after a top-level term")),
        }
    }

    /// `name (, name)*` — for FUNC/TYPE lists, as constant nodes. `+` is
    /// accepted as a name here (the paper itself declares `TYPE +.`).
    fn name_list(&mut self) -> Result<Run, ParseError> {
        let from = self.pending.len();
        loop {
            if !matches!(self.kind(), TokenKind::Name | TokenKind::Plus) {
                return Err(self.unexpected("a symbol name"));
            }
            let span = self.bump();
            let name = self
                .tree
                .push_node(NodeKind::App, span, span, Run::default());
            self.pending.push(name);
            if !self.comma() {
                return Ok(self.tree.push_list(&mut self.pending, from));
            }
        }
    }

    /// `mode_decl (, mode_decl)*` — the entries of a `MODE` declaration.
    fn mode_decls(&mut self) -> Result<Run, ParseError> {
        let first = self.mode_decl()?;
        while self.comma() {
            self.mode_decl()?;
        }
        Ok(self.tree.mode_decl_run(first))
    }

    /// `name ( mode (, mode)* )` — one entry of a `MODE` declaration;
    /// returns its index among the tree's entries.
    fn mode_decl(&mut self) -> Result<u32, ParseError> {
        if self.kind() != TokenKind::Name {
            return Err(self.unexpected("a predicate name"));
        }
        let name = self.text();
        let start = self.bump();
        self.expect(
            TokenKind::LParen,
            "`(` after the predicate name in a MODE declaration",
        )?;
        loop {
            let mode = self.mode()?;
            self.pending_modes.push(mode);
            if !self.comma() {
                break;
            }
        }
        let end = self.expect(TokenKind::RParen, "`)` closing the mode list")?;
        let modes = self.tree.push_modes(&mut self.pending_modes);
        Ok(self.tree.push_mode_decl(name, start.merge(end), modes))
    }

    fn mode(&mut self) -> Result<Mode, ParseError> {
        let mode = match self.kind() {
            TokenKind::Plus => Mode::In,
            TokenKind::Minus => Mode::Out,
            _ => return Err(self.unexpected("`+` or `-`")),
        };
        self.bump();
        Ok(mode)
    }

    /// `term (, term)*` — atom lists, `PRED` lists and argument lists.
    fn term_list(&mut self) -> Result<Run, ParseError> {
        let from = self.pending.len();
        loop {
            let t = self.term()?;
            self.pending.push(t);
            if !self.comma() {
                break;
            }
        }
        Ok(self.tree.push_list(&mut self.pending, from))
    }

    /// `term := primary (`+` primary)*`, left-associative.
    fn term(&mut self) -> Result<NodeId, ParseError> {
        let mut lhs = self.primary()?;
        while self.kind() == TokenKind::Plus {
            let plus = self.bump();
            let rhs = self.primary()?;
            let span = self.span_of(lhs).merge(self.span_of(rhs));
            let from = self.pending.len();
            self.pending.extend([lhs, rhs]);
            let args = self.tree.push_list(&mut self.pending, from);
            lhs = self.tree.push_node(NodeKind::App, plus, span, args);
        }
        Ok(lhs)
    }

    /// Depth-guarded wrapper: every route back into `primary` (argument
    /// lists and parenthesized terms go through `term`) passes here, so
    /// this one check bounds the whole recursive cycle.
    fn primary(&mut self) -> Result<NodeId, ParseError> {
        if self.depth >= MAX_TERM_DEPTH {
            return Err(ParseError::new(
                ParseErrorKind::NestingTooDeep(MAX_TERM_DEPTH),
                self.tok.span,
            ));
        }
        self.depth += 1;
        let result = self.primary_unguarded();
        self.depth -= 1;
        result
    }

    fn primary_unguarded(&mut self) -> Result<NodeId, ParseError> {
        match self.kind() {
            TokenKind::Variable => {
                let span = self.bump();
                Ok(self
                    .tree
                    .push_node(NodeKind::Var, span, span, Run::default()))
            }
            TokenKind::Name => {
                let name = self.bump();
                if self.kind() != TokenKind::LParen {
                    return Ok(self
                        .tree
                        .push_node(NodeKind::App, name, name, Run::default()));
                }
                self.bump();
                let args = self.term_list()?;
                let end = self.expect(TokenKind::RParen, "`)` closing the argument list")?;
                Ok(self
                    .tree
                    .push_node(NodeKind::App, name, name.merge(end), args))
            }
            TokenKind::LParen => {
                // Parenthesized term, e.g. the right side of `a + (b + c)`.
                self.bump();
                let t = self.term()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(t)
            }
            _ => Err(self.unexpected("a term")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a node as `name(args…)`, ignoring spans.
    fn show(tree: &SyntaxTree<'_>, id: NodeId) -> String {
        let name = tree.name(id);
        let args: Vec<String> = tree.args(id).iter().map(|&a| show(tree, a)).collect();
        if args.is_empty() {
            name.to_string()
        } else {
            format!("{name}({})", args.join(", "))
        }
    }

    fn names(tree: &SyntaxTree<'_>, run: Run) -> Vec<String> {
        tree.list(run).iter().map(|&id| show(tree, id)).collect()
    }

    fn constraint_rhs(src: &str) -> String {
        let tree = parse_items(src).unwrap();
        match tree.items()[0] {
            Item::Constraint { rhs, .. } => show(&tree, rhs),
            other => panic!("expected Constraint, got {other:?}"),
        }
    }

    #[test]
    fn parses_func_and_type_decls() {
        let tree = parse_items("FUNC 0, succ, pred.\nTYPE nat, unnat, int.").unwrap();
        match tree.items() {
            [Item::FuncDecl(fs), Item::TypeDecl(ts)] => {
                assert_eq!(names(&tree, *fs), ["0", "succ", "pred"]);
                assert_eq!(names(&tree, *ts), ["nat", "unnat", "int"]);
            }
            other => panic!("expected FUNC and TYPE, got {other:?}"),
        }
    }

    #[test]
    fn parses_plus_in_type_decl() {
        let tree = parse_items("TYPE +.").unwrap();
        assert!(matches!(tree.items(), [Item::TypeDecl(ns)] if names(&tree, *ns) == ["+"]));
    }

    #[test]
    fn parses_constraint_with_union() {
        let tree = parse_items("nat >= 0 + succ(nat).").unwrap();
        match tree.items()[0] {
            Item::Constraint { lhs, rhs, span } => {
                assert_eq!(show(&tree, lhs), "nat");
                assert_eq!(show(&tree, rhs), "+(0, succ(nat))");
                assert_eq!(span, Span::new(0, 21));
                assert_eq!(tree.node(rhs).span(), Span::new(7, 20));
            }
            other => panic!("expected Constraint, got {other:?}"),
        }
    }

    #[test]
    fn plus_is_left_associative() {
        assert_eq!(constraint_rhs("int >= a + b + c."), "+(+(a, b), c)");
    }

    #[test]
    fn parens_override_associativity() {
        assert_eq!(constraint_rhs("int >= a + (b + c)."), "+(a, +(b, c))");
    }

    #[test]
    fn parses_rule_and_fact_and_query() {
        let src =
            "app(nil, L, L).\napp(cons(X,L), M, cons(X,N)) :- app(L, M, N).\n:- app(nil, nil, Z).";
        let tree = parse_items(src).unwrap();
        let items = tree.items();
        assert!(matches!(items[0], Item::Clause { body, .. } if tree.list(body).is_empty()));
        match items[1] {
            Item::Clause { head, body, .. } => {
                assert_eq!(show(&tree, head), "app(cons(X, L), M, cons(X, N))");
                assert_eq!(names(&tree, body), ["app(L, M, N)"]);
                assert_eq!(tree.node(tree.args(head)[1]).kind(), NodeKind::Var);
            }
            other => panic!("expected Clause, got {other:?}"),
        }
        assert!(matches!(items[2], Item::Query { body, .. } if tree.list(body).len() == 1));
    }

    #[test]
    fn parses_pred_decl() {
        let tree = parse_items("PRED app(list(A), list(A), list(A)), member(A, list(A)).").unwrap();
        match tree.items()[0] {
            Item::PredDecl(ts) => assert_eq!(
                names(&tree, ts),
                ["app(list(A), list(A), list(A))", "member(A, list(A))"]
            ),
            other => panic!("expected PredDecl, got {other:?}"),
        }
    }

    #[test]
    fn parses_mode_decl() {
        let tree = parse_items("MODE app(+, +, -), member(-, +).").unwrap();
        match tree.items()[0] {
            Item::ModeDecl(run) => {
                let ds = tree.mode_decls(run);
                assert_eq!(ds.len(), 2);
                assert_eq!(ds[0].name, "app");
                assert_eq!(tree.modes(&ds[0]), [Mode::In, Mode::In, Mode::Out]);
                assert_eq!(ds[1].name, "member");
                assert_eq!(tree.modes(&ds[1]), [Mode::Out, Mode::In]);
            }
            other => panic!("expected ModeDecl, got {other:?}"),
        }
    }

    #[test]
    fn mode_decl_rejects_bare_name() {
        let err = parse_items("MODE p.").unwrap_err();
        assert!(err.to_string().contains("MODE"), "{err}");
    }

    #[test]
    fn mode_decl_rejects_type_argument() {
        let err = parse_items("MODE p(nat).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn error_on_missing_dot() {
        let err = parse_items("FUNC a, b").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedToken { .. }));
        assert!(err.to_string().contains("FUNC"));
    }

    #[test]
    fn error_on_stray_supertype() {
        let err = parse_items(">= nat.").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn lexical_error_wins_over_earlier_syntax_error() {
        let err = parse_items("p :- . ?").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedChar('?'));
    }
}
