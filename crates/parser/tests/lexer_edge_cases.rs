//! Unicode and line-ending corners of the lexer: which characters start a
//! name or a variable, which are skipped as whitespace, and how wide the
//! span of a multibyte character is.

use lp_parser::{parse_module, Lexer, ParseErrorKind, Span};
use lp_term::SymKind;

/// The source text of every token but the final `Eof`.
fn texts(src: &str) -> Vec<&str> {
    let tokens = Lexer::new(src).tokenize().expect("lexes");
    let (eof, rest) = tokens.split_last().expect("ends with Eof");
    assert_eq!(eof.span, Span::new(src.len(), src.len()));
    rest.iter()
        .map(|t| &src[t.span.start..t.span.end])
        .collect()
}

#[test]
fn non_ascii_letters_continue_and_start_names() {
    let src = "FUNC café, niño, ñu. TYPE t. t >= café + niño(t) + ñu.";
    assert_eq!(
        texts(src),
        [
            "FUNC", "café", ",", "niño", ",", "ñu", ".", "TYPE", "t", ".", "t", ">=", "café", "+",
            "niño", "(", "t", ")", "+", "ñu", "."
        ]
    );
    let m = parse_module(src).expect("loads");
    for name in ["café", "niño", "ñu"] {
        let sym = m.sig.lookup(name).expect("declared");
        assert_eq!(m.sig.kind(sym), SymKind::Func);
        let span = m.sym_span(sym).expect("declared in source");
        assert_eq!(&src[span.start..span.end], name);
    }
}

#[test]
fn uppercase_non_ascii_initial_is_a_variable() {
    let src = "FUNC a. p(Ärger, a) :- p(a, Ärger).";
    let m = parse_module(src).expect("loads");
    let clause = &m.clauses[0];
    assert_eq!(clause.clause.vars().len(), 1);
    assert_eq!(clause.var_spans.len(), 2);
    for (v, span) in &clause.var_spans {
        assert_eq!(clause.hints.get(*v), Some("Ärger"));
        assert_eq!(&src[span.start..span.end], "Ärger");
    }
}

#[test]
fn titlecase_initial_is_a_name() {
    // U+01C5 is a titlecase letter, not an uppercase one: it starts a
    // symbol name, exactly like a lower-case letter.
    let src = "FUNC ǅx. p(ǅx).";
    let m = parse_module(src).expect("loads");
    let sym = m.sig.lookup("ǅx").expect("declared as a name");
    assert_eq!(m.sig.kind(sym), SymKind::Func);
    assert!(m.clauses[0].var_spans.is_empty());
}

#[test]
fn unicode_whitespace_is_skipped() {
    let src = "FUNC\u{a0}a,\u{3000}b.\u{a0}p(a)\u{3000}:-\u{3000}p(b).";
    assert_eq!(
        texts(src),
        ["FUNC", "a", ",", "b", ".", "p", "(", "a", ")", ":-", "p", "(", "b", ")", "."]
    );
    let m = parse_module(src).expect("loads");
    assert_eq!(m.clauses.len(), 1);
}

#[test]
fn multibyte_unexpected_char_spans_its_utf8_width() {
    let src = "FUNC a.\np(a) → q(a).";
    let err = Lexer::new(src).tokenize().unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::UnexpectedChar('→'));
    let start = src.find('→').unwrap();
    assert_eq!(err.span, Span::new(start, start + '→'.len_utf8()));
    assert_eq!(err.span.end - err.span.start, 3);
    let err = parse_module(src).unwrap_err();
    assert_eq!(err.render(src), "2:6: unexpected character `→`");
}

#[test]
fn crlf_line_endings_and_multibyte_block_comments() {
    let src = "FUNC a.\r\n/* ünïcödé → ∀x\r\n */ p(a).\r\n% ∃ line\r\n:- p(X) q.";
    let err = parse_module(src).unwrap_err();
    // The `\r` stays part of its line; columns count bytes.
    assert_eq!(
        err.render(src),
        "5:9: expected `.` after query, found name `q`"
    );
    let ok = "FUNC a.\r\n/* ünïcödé → ∀x\r\n */ p(a).\r\n% ∃ line\r\n:- p(X).";
    assert_eq!(
        texts(ok),
        ["FUNC", "a", ".", "p", "(", "a", ")", ".", ":-", "p", "(", "X", ")", "."]
    );
    let m = parse_module(ok).expect("loads");
    let span = m.clauses[0].span;
    assert_eq!(&ok[span.start..span.end], "p(a).");
}

#[test]
fn unterminated_block_comment_spans_to_the_end() {
    let src = "FUNC a. /* → never closed";
    let err = Lexer::new(src).tokenize().unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::UnterminatedComment);
    assert_eq!(err.span, Span::new(8, src.len()));
}
