//! Frozen front-end golden: every observable output of lexing, parsing and
//! loading, for a fixed set of inputs, pinned byte-for-byte in
//! `tests/golden/front_end.txt`.
//!
//! The inputs are the shipped examples, the hardening corpus, fixed-size
//! lp-gen programs, and hand-written error cases (one or more per
//! [`ParseErrorKind`](lp_parser::ParseErrorKind), a syntax error after an
//! undeclared symbol, and nesting at and one past `MAX_TERM_DEPTH`). A
//! failed load records `ParseError::render`; a successful one records a
//! deterministic dump of the whole `Module`: the unparsed text, every raw
//! term with its variable numbering, the signature in symbol order, and
//! every span, hint and watermark.
//!
//! On a mismatch the test writes what it produced next to the build's
//! other test output and names that file in the panic message.

use std::fmt::Write as _;
use std::path::Path;

use lp_parser::{parse_module, unparse, Loader, LoaderOptions, Module, Span, MAX_TERM_DEPTH};
use lp_term::{NameHints, Sym, Term, TermDisplay, Var};

fn span(s: Span) -> String {
    format!("{}..{}", s.start, s.end)
}

fn spans(ss: &[Span]) -> String {
    ss.iter().map(|&s| span(s)).collect::<Vec<_>>().join(" ")
}

fn raw(t: &Term, m: &Module) -> String {
    TermDisplay::new(t, &m.sig).to_string()
}

fn hints(h: &NameHints) -> String {
    let mut pairs: Vec<(Var, &str)> = h.iter().collect();
    pairs.sort_by_key(|&(v, _)| v.0);
    pairs
        .iter()
        .map(|(v, n)| format!("_G{}={n}", v.0))
        .collect::<Vec<_>>()
        .join(" ")
}

fn var_spans(vs: &[(Var, Span)]) -> String {
    vs.iter()
        .map(|&(v, s)| format!("_G{}@{}", v.0, span(s)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn dump_module(m: &Module, out: &mut String) {
    out.push_str("unparse:\n");
    out.push_str(&unparse(m));
    out.push_str("signature:\n");
    for s in m.sig.symbols() {
        let arity = m
            .sig
            .arity(s)
            .map_or_else(|| "?".to_string(), |a| a.to_string());
        writeln!(
            out,
            "  #{} {} {:?}/{arity}",
            s.index(),
            m.sig.name(s),
            m.sig.kind(s)
        )
        .unwrap();
    }
    writeln!(
        out,
        "union: {:?}",
        m.union_sym.map(|s: Sym| m.sig.name(s).to_string())
    )
    .unwrap();
    for (i, c) in m.constraints.iter().enumerate() {
        writeln!(
            out,
            "constraint {i}: {} >= {} span={} hints=[{}]",
            raw(&c.lhs, m),
            raw(&c.rhs, m),
            c.span.map_or_else(|| "none".to_string(), span),
            hints(&c.hints)
        )
        .unwrap();
    }
    for (i, pt) in m.pred_types.iter().enumerate() {
        writeln!(out, "pred_type {i}: {}", raw(pt, m)).unwrap();
    }
    writeln!(out, "pred_type_spans: [{}]", spans(&m.pred_type_spans)).unwrap();
    for (p, modes) in &m.pred_modes {
        let ms: String = modes.iter().map(|mode| mode.symbol()).collect();
        writeln!(out, "pred_mode: {} {ms}", m.sig.name(*p)).unwrap();
    }
    writeln!(out, "pred_mode_spans: [{}]", spans(&m.pred_mode_spans)).unwrap();
    let sym_spans: Vec<String> = m
        .sym_spans
        .iter()
        .map(|&(s, sp)| format!("{}@{}", m.sig.name(s), span(sp)))
        .collect();
    writeln!(out, "sym_spans: [{}]", sym_spans.join(" ")).unwrap();
    for (i, c) in m.clauses.iter().enumerate() {
        let body: Vec<String> = c.clause.body.iter().map(|b| raw(b, m)).collect();
        writeln!(
            out,
            "clause {i}: {} :- [{}] span={} atoms=[{}] vars=[{}] hints=[{}]",
            raw(&c.clause.head, m),
            body.join(", "),
            span(c.span),
            spans(&c.atom_spans),
            var_spans(&c.var_spans),
            hints(&c.hints)
        )
        .unwrap();
    }
    for (i, q) in m.queries.iter().enumerate() {
        let goals: Vec<String> = q.goals.iter().map(|g| raw(g, m)).collect();
        writeln!(
            out,
            "query {i}: [{}] span={} atoms=[{}] vars=[{}] hints=[{}]",
            goals.join(", "),
            span(q.span),
            spans(&q.atom_spans),
            var_spans(&q.var_spans),
            hints(&q.hints)
        )
        .unwrap();
    }
    writeln!(out, "watermark: {}", m.gen.watermark()).unwrap();
}

fn record(label: &str, src: &str, out: &mut String) {
    writeln!(out, "=== {label}").unwrap();
    match parse_module(src) {
        Ok(m) => dump_module(&m, out),
        Err(e) => writeln!(out, "error: {}", e.render(src)).unwrap(),
    }
}

/// `q(f(f(…z…)))` with `depth` nested terms in all.
fn nested(depth: usize) -> String {
    let mut src = String::from("FUNC f, z. q(");
    for _ in 0..depth - 2 {
        src.push_str("f(");
    }
    src.push('z');
    for _ in 0..depth - 1 {
        src.push(')');
    }
    src.push('.');
    src
}

/// Hand-written inputs: every error kind (most of them more than once,
/// once per distinct message), plus small successes for the corners the
/// larger inputs do not reach.
fn hand_written() -> Vec<(&'static str, String)> {
    let cases: &[(&str, &str)] = &[
        // UnexpectedChar, ASCII and multibyte.
        ("unexpected-char", "FUNC a. p(a) ? q."),
        ("unexpected-char-multibyte", "FUNC a.\np(a) → q(a)."),
        ("unexpected-char-colon", "p :: q."),
        ("unexpected-char-gt", "t > u."),
        // UnterminatedComment.
        ("unterminated-comment", "FUNC a. /* never closed\n p(a)."),
        // UnexpectedToken: one case per expectation.
        ("expect-dot-func", "FUNC a, b TYPE t."),
        ("expect-dot-type", "TYPE t u."),
        ("expect-dot-pred", "TYPE t. PRED p(t) q(t)."),
        ("expect-dot-mode", "MODE p(+) q(-)."),
        ("expect-dot-query", ":- p(a) q."),
        ("expect-dot-constraint", "TYPE t. t >= t t."),
        ("expect-dot-clause", "p :- q r."),
        ("expect-top-level", "p q."),
        ("expect-symbol-name", "FUNC X."),
        ("expect-symbol-name-eof", "FUNC a,"),
        ("expect-pred-name", "MODE X(+)."),
        ("expect-mode-lparen", "MODE p."),
        ("expect-mode-rparen", "MODE p(+ -)."),
        ("expect-mode", "MODE p(nat)."),
        ("expect-arg-rparen", "FUNC f. p(f(a b))."),
        ("expect-paren-rparen", "TYPE t. t >= (t t)."),
        ("expect-term", "TYPE t. t >= ."),
        ("expect-term-eof", "p :- "),
        ("expect-term-comma", "p(,)."),
        ("stray-supertype", ">= nat."),
        ("stray-rparen", ")"),
        ("stray-minus", "- p."),
        ("stray-plus-clause", "p(a) + ."),
        // UndeclaredSymbol, in each position.
        ("undeclared-clause", "p(foo)."),
        ("undeclared-type", "PRED q(r)."),
        ("undeclared-constraint", "TYPE t. t >= u."),
        ("undeclared-nested", "FUNC f. p(f(g(h)))."),
        // Two-phase order: the syntax error wins over an earlier
        // undeclared symbol.
        ("syntax-after-undeclared", "p(foo).\nq(a) :- ."),
        ("char-after-undeclared", "p(foo).\nq ? r."),
        // Signature: kind and arity clashes.
        ("kind-clash", "FUNC a. TYPE a."),
        ("kind-clash-pred", "FUNC p. p(X)."),
        ("arity-clash", "FUNC f. TYPE t. t >= f(t). PRED p(t). p(f(X, Y))."),
        ("arity-clash-pred", "FUNC a. p(a) :- p."),
        ("arity-clash-mode", "TYPE t. PRED p(t). MODE p(+, -)."),
        // Malformed: one per message.
        ("malformed-pred-var", "PRED X."),
        ("malformed-atom-var", "p :- X."),
        ("malformed-head-var", "X :- p."),
        ("malformed-duplicate-pred", "TYPE t. PRED p(t). PRED p(t)."),
        ("malformed-duplicate-mode", "MODE p(+). MODE p(-)."),
        ("malformed-lhs-func", "FUNC f. TYPE t. f(A) >= t."),
        ("malformed-lhs-var", "TYPE t. A >= t."),
        ("malformed-rhs-var", "TYPE c, d. c(A) >= d(A, B)."),
        ("malformed-rhs-anon", "TYPE c. c(A) >= _."),
        ("malformed-type-in-program", "TYPE t. p(t)."),
        ("malformed-pred-in-type", "TYPE t. PRED p(t). PRED q(p)."),
        ("malformed-pred-in-program", "FUNC a. p(a). q(p(a))."),
        // Successes.
        ("empty", ""),
        ("comments-only", "% nothing\n/* here */\n"),
        ("union-left-nested", "FUNC a, b, c. TYPE t. t >= a + b + c.\nPRED p(t + t + t)."),
        ("union-parenthesized", "FUNC a, b, c. TYPE t. t >= a + (b + (c)).\n"),
        ("plus-declared", "TYPE +. FUNC a."),
        ("redeclared-keeps-first", "FUNC a, b. TYPE t. FUNC a. TYPE t, u."),
        ("anonymous-vars", "FUNC a. p(_, X, _, X) :- q(_, Y), r(Y, _).\n:- p(_, _, Z, Z)."),
        ("implicit-preds", "FUNC a. q(a) :- r(a), s. :- t(a), q(a)."),
        ("mode-decl", "TYPE t. PRED p(t, t). MODE p(+, -), q(-)."),
        ("digits-and-dollar", "FUNC 0, 42, a$b, c_1, $x. p(0, 42, a$b, c_1, X_1, $x)."),
        ("keywords-as-vars", "p(FUNCX, TYPES, Pred) :- q(MODEL)."),
        ("unicode-names", "FUNC café, niño, ǅx. TYPE ñt.\nñt >= café + niño(ñt) + ǅx.\nPRED p(ñt).\np(niño(Ärger)) :- p(Ärger)."),
        ("unicode-whitespace", "FUNC\u{a0}a,\u{3000}b.\u{2003}p(a)\u{85}:-\u{2028}p(b)."),
        ("crlf", "FUNC a.\r\np(a).\r\n/* é → ü */\r\n:- p(X)."),
        ("crlf-error", "FUNC a.\r\np(a).\r\n:- p(X) q."),
        ("comment-multibyte", "/* ünïcödé → ∀x */ FUNC a. % ∃ line\np(a)."),
    ];
    let mut out: Vec<(&str, String)> = cases
        .iter()
        .map(|&(label, src)| (label, src.to_string()))
        .collect();
    out.push(("nesting-at-limit", nested(MAX_TERM_DEPTH)));
    out.push(("nesting-past-limit", nested(MAX_TERM_DEPTH + 1)));
    let open = "(".repeat(MAX_TERM_DEPTH + 4);
    out.push(("deep-parens", format!("TYPE t. t >= {open}t.")));
    let mut deep_plus = String::from("TYPE t. t >= t");
    for _ in 0..MAX_TERM_DEPTH + 4 {
        deep_plus.push_str(" + (t");
    }
    deep_plus.push_str(&")".repeat(MAX_TERM_DEPTH + 4));
    deep_plus.push('.');
    out.push(("deep-plus", deep_plus));
    let mut wide = String::from("TYPE t, u. t >= u");
    for _ in 0..300 {
        wide.push_str(" + u");
    }
    wide.push('.');
    out.push(("wide-union", wide));
    out
}

/// `Loader::parse_type`, `parse_program_term` and `parse_goals` against
/// `examples/app.slp`, successes and failures alike.
fn standalone(examples: &Path, out: &mut String) {
    let src = std::fs::read_to_string(examples.join("app.slp")).expect("app.slp reads");
    let module = parse_module(&src).expect("app.slp loads");
    let cases: &[(&str, &str)] = &[
        ("type", "list(A)"),
        ("type", "nelist(A) + elist."),
        ("type", "list(list(B + A))"),
        ("type", "list(A) list(B)"),
        ("type", "undeclared(A)"),
        ("type", "app(A, B, C)"),
        ("type", "(((nat)))"),
        ("program_term", "cons(0, nil)"),
        ("program_term", "cons(X, cons(_, X))"),
        ("program_term", "list(A)"),
        ("goals", "app(X, Y, cons(0, nil))"),
        ("goals", ":- app(nil, L, L), app(L, _, M)."),
        ("goals", "app(X, Y"),
        ("goals", "X"),
        ("goals", ""),
    ];
    for &(what, text) in cases {
        let mut loader = Loader::resume(module.clone(), LoaderOptions::default());
        let result = match what {
            "type" => loader.parse_type(text).map(|(t, h)| (vec![t], h)),
            "program_term" => loader.parse_program_term(text).map(|(t, h)| (vec![t], h)),
            _ => loader.parse_goals(text),
        };
        match result {
            Ok((terms, h)) => {
                let shown: Vec<String> = terms.iter().map(|t| raw(t, &module)).collect();
                writeln!(
                    out,
                    "{what} {text:?}: [{}] hints=[{}] watermark={}",
                    shown.join(", "),
                    hints(&h),
                    loader.finish().gen.watermark()
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "{what} {text:?}: error: {}", e.render(text)).unwrap(),
        }
    }
    // Implicit function symbols are declared in resolution (preorder) order.
    let mut loader = Loader::new(LoaderOptions {
        implicit_funcs: true,
        ..LoaderOptions::default()
    });
    let loaded = loader.load_source("p(f(g, h(k)), g) :- q(h(m), n).");
    writeln!(
        out,
        "implicit_funcs: {:?}",
        loaded.map_err(|e| e.to_string())
    )
    .unwrap();
    let m = loader.finish();
    dump_module(&m, out);
}

fn sorted_files(dir: &Path, ext: Option<&str>) -> Vec<std::path::PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("directory reads")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| ext.is_none_or(|x| p.extension().is_some_and(|e| e == x)))
        .collect();
    paths.sort();
    paths
}

fn produce() -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples = manifest.join("../../examples");
    let mut out = String::new();
    for path in sorted_files(&examples, Some("slp")) {
        let src = std::fs::read_to_string(&path).expect("example reads");
        let name = path.file_name().unwrap().to_string_lossy();
        record(&format!("examples/{name}"), &src, &mut out);
    }
    for path in sorted_files(&manifest.join("tests/corpus"), None) {
        let bytes = std::fs::read(&path).expect("corpus file reads");
        let src = String::from_utf8_lossy(&bytes);
        let name = path.file_name().unwrap().to_string_lossy();
        record(&format!("corpus/{name}"), &src, &mut out);
    }
    use lp_gen::programs;
    let generated = [
        ("pipeline(4, 3)", programs::pipeline(4, 3)),
        (
            "pipeline_with_errors(3, 2, 2)",
            programs::pipeline_with_errors(3, 2, 2),
        ),
        ("fact_base(12)", programs::fact_base(12)),
        ("nrev(6)", programs::nrev(6)),
    ];
    for (label, src) in &generated {
        record(&format!("lp-gen {label}"), src, &mut out);
    }
    for seed in 1..=3 {
        let src = lp_gen::worlds::random_source(seed);
        record(&format!("lp-gen random_source({seed})"), &src, &mut out);
    }
    for (label, src) in hand_written() {
        record(&format!("case {label}"), &src, &mut out);
    }
    out.push_str("=== standalone terms\n");
    standalone(&examples, &mut out);
    out
}

#[test]
fn front_end_matches_frozen_golden() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/front_end.txt");
    let actual = produce();
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != expected {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("front_end.actual.txt");
        std::fs::write(&dump, &actual).expect("write actual output");
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(
                || actual.lines().count().min(expected.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "front-end output differs from {} (first difference at line {line}); \
             the output was written to {}",
            golden_path.display(),
            dump.display()
        );
    }
}
