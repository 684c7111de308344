//! Span-carrying structured diagnostics with terminal and JSON renderers.
//!
//! The paper's §3 restrictions (uniformity, guardedness) and the §6
//! well-typedness conditions are *rejections*: to be useful as a tool they
//! must point at source. A [`Diagnostic`] pairs a stable code (`E…`/`W…`)
//! with a [`Span`] from the parser, free-form notes, and related spans
//! (e.g. the `PRED` declaration a clause head violates). Two renderers are
//! provided:
//!
//! * [`render_human`] — a rustc-style excerpt with a caret underline;
//! * [`render_json_all`] — a machine-readable array for editors and CI.
//!
//! Both renderers are deterministic: [`sort`] orders findings by source
//! position, severity and code, never by hash-map iteration order.
//!
//! Positions are resolved through one [`LineIndex`] per rendered source (a
//! [`Source`]), so a report of `d` findings over an `n`-byte file costs
//! `O(n + d log n)`, not a prefix scan per span. The JSON `line` and
//! `column` fields are 1-based, and `column` counts bytes within the line
//! (a tab or a multibyte character before the span counts its UTF-8 length).

use std::fmt::{self, Write as _};

use lp_parser::{LineIndex, ParseError, Span};

use crate::obs::json::escape_into;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is rejected (exit code 2).
    Error,
    /// Suspicious but accepted (exit code 1 under `--deny warnings`).
    Warning,
}

impl Severity {
    /// The lowercase name used in both report formats.
    fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `E0102` (non-uniform) or `W0301` (dead clause).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Primary source location, when one is known.
    pub span: Option<Span>,
    /// The one-line message.
    pub message: String,
    /// Free-form elaborations rendered as `= note:` lines.
    pub notes: Vec<String>,
    /// Secondary locations with their own captions.
    pub related: Vec<(Span, String)>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: None,
            message: message.into(),
            notes: Vec::new(),
            related: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches the primary span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches the primary span when one is known.
    #[must_use]
    pub fn with_opt_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Appends a note line.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Appends a related span with a caption.
    #[must_use]
    pub fn related(mut self, span: Span, message: impl Into<String>) -> Self {
        self.related.push((span, message.into()));
        self
    }

    /// Whether this is an error (as opposed to a warning).
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

/// Converts a parser error into a `E0001` diagnostic.
impl From<&ParseError> for Diagnostic {
    fn from(e: &ParseError) -> Self {
        Diagnostic::error("E0001", e.to_string()).with_span(e.span)
    }
}

/// Sorts findings deterministically: by start offset (unspanned findings
/// last), then errors before warnings, then code, then message.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let ka = (a.span.map_or(usize::MAX, |s| s.start), a.severity);
        let kb = (b.span.map_or(usize::MAX, |s| s.start), b.severity);
        ka.cmp(&kb)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Counts `(errors, warnings)`.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags.iter().filter(|d| d.is_error()).count();
    (errors, diags.len() - errors)
}

/// A source text with its [`LineIndex`], built once per file: the
/// single-diagnostic renderers resolve every span against it.
#[derive(Debug, Clone)]
pub struct Source<'a> {
    text: &'a str,
    lines: LineIndex,
}

impl<'a> Source<'a> {
    /// Indexes `text` in one pass.
    pub fn new(text: &'a str) -> Self {
        Source {
            text,
            lines: LineIndex::new(text),
        }
    }

    /// The indexed text.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// 1-based `(line, column)` of byte `offset`, as [`Span::line_col`]
    /// computes it.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        self.lines.line_col(offset)
    }
}

/// Renders one diagnostic in the terminal (rustc-like) format.
pub fn render_human(d: &Diagnostic, source: &Source<'_>, filename: &str) -> String {
    let mut out = String::new();
    write_human(&mut out, d, source, filename);
    out
}

fn write_human(out: &mut String, d: &Diagnostic, source: &Source<'_>, filename: &str) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(span) = d.span {
        write_excerpt(out, source, filename, span, '^');
    }
    for (span, caption) in &d.related {
        let _ = writeln!(out, "note: {caption}");
        write_excerpt(out, source, filename, *span, '-');
    }
    for note in &d.notes {
        let _ = writeln!(out, "  = note: {note}");
    }
}

/// Renders a whole report in the terminal format, one blank line between
/// findings, with a final summary line. The report is written into one
/// buffer.
pub fn render_human_all(diags: &[Diagnostic], source: &str, filename: &str) -> String {
    let source = Source::new(source);
    let mut out = String::new();
    for d in diags {
        write_human(&mut out, d, &source, filename);
        out.push('\n');
    }
    let (errors, warnings) = counts(diags);
    let _ = writeln!(out, "{filename}: {errors} error(s), {warnings} warning(s)");
    out
}

/// Renders a whole report as a JSON array (machine-readable mode), written
/// into one buffer.
///
/// Each element carries the code, severity, message, resolved
/// line/column positions for the primary and related spans, and notes.
pub fn render_json_all(diags: &[Diagnostic], source: &str, filename: &str) -> String {
    if diags.is_empty() {
        return "[]\n".to_string();
    }
    let source = Source::new(source);
    let mut out = String::from("[\n  ");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n  ");
        }
        write_json_one(&mut out, d, &source, filename);
    }
    out.push_str("\n]\n");
    out
}

/// Renders one diagnostic as a JSON object (one element of
/// [`render_json_all`]'s array) — exposed so callers embedding diagnostics
/// in larger documents (`slp explain --format json`) reuse the exact same
/// encoding.
pub fn render_json_one(d: &Diagnostic, source: &Source<'_>, filename: &str) -> String {
    let mut out = String::new();
    write_json_one(&mut out, d, source, filename);
    out
}

fn write_json_one(out: &mut String, d: &Diagnostic, source: &Source<'_>, filename: &str) {
    out.push_str("{\"code\":");
    escape_into(out, d.code);
    out.push_str(",\"severity\":");
    escape_into(out, d.severity.as_str());
    out.push_str(",\"message\":");
    escape_into(out, &d.message);
    out.push_str(",\"file\":");
    escape_into(out, filename);
    out.push_str(",\"span\":");
    match d.span {
        Some(span) => write_json_span(out, source, span),
        None => out.push_str("null"),
    }
    out.push_str(",\"notes\":[");
    for (i, note) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, note);
    }
    out.push_str("],\"related\":[");
    for (i, (span, caption)) in d.related.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span\":");
        write_json_span(out, source, *span);
        out.push_str(",\"message\":");
        escape_into(out, caption);
        out.push('}');
    }
    out.push_str("]}");
}

fn write_json_span(out: &mut String, source: &Source<'_>, span: Span) {
    let (line, column) = source.line_col(span.start);
    let _ = write!(
        out,
        "{{\"start\":{},\"end\":{},\"line\":{line},\"column\":{column}}}",
        span.start, span.end
    );
}

/// Appends a source excerpt: location line, the source line, and an
/// underline.
///
/// ```text
///   --> file.slp:12:1
///    |
/// 12 | q(pred(0)).
///    | ^^^^^^^^^^
/// ```
fn write_excerpt(out: &mut String, source: &Source<'_>, filename: &str, span: Span, marker: char) {
    let src = source.text;
    let start = span.start.min(src.len());
    let (line, col) = source.line_col(start);
    let line_span = source.lines.line_range(start);
    let text = &src[line_span.clone()];
    let width = line.to_string().len();
    let _ = write!(
        out,
        "{:width$}--> {filename}:{line}:{col}\n{:width$} |\n{line} | {text}\n{:width$} | ",
        "", "", ""
    );
    for c in src[line_span.start..start].chars() {
        out.push(if c == '\t' { '\t' } else { ' ' });
    }
    // Underline the span, clamped to its first line, at least one marker.
    let underline_chars = src[start..span.end.min(line_span.end).max(start)]
        .chars()
        .count()
        .max(1);
    out.extend(std::iter::repeat_n(marker, underline_chars));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_has_caret_under_span() {
        let src = "TYPE t.\nt >= t.\n";
        // Span of the second `t` on line 2 (offset 13..14).
        let d = Diagnostic::error("E0103", "not guarded").with_span(Span::new(13, 14));
        let text = render_human(&d, &Source::new(src), "x.slp");
        assert!(text.contains("error[E0103]: not guarded"), "{text}");
        assert!(text.contains("--> x.slp:2:6"), "{text}");
        assert!(text.contains("2 | t >= t."), "{text}");
        let caret_line = text
            .lines()
            .find(|l| l.contains('^'))
            .expect("caret line present");
        assert_eq!(caret_line.find('^'), caret_line.rfind('^'));
        // The caret column matches the span column within `2 | t >= t.`.
        assert_eq!(caret_line, "  |      ^");
    }

    #[test]
    fn related_spans_render_with_dashes() {
        let src = "PRED p(t).\np(a).\n";
        let d = Diagnostic::warning("W0501", "overlap")
            .with_span(Span::new(11, 15))
            .related(Span::new(0, 10), "declared here");
        let text = render_human(&d, &Source::new(src), "x.slp");
        assert!(text.contains("note: declared here"), "{text}");
        assert!(text.contains("----"), "{text}");
    }

    #[test]
    fn json_escapes_and_structures() {
        let src = "p(\"a\").\n";
        let d = Diagnostic::error("E0001", "bad \"quote\"\n")
            .with_span(Span::new(0, 1))
            .note("see\tdocs");
        let json = render_json_all(&[d], src, "x.slp");
        assert!(json.contains("\"bad \\\"quote\\\"\\n\""), "{json}");
        assert!(json.contains("\"see\\tdocs\""), "{json}");
        assert!(json.contains("\"line\":1,\"column\":1"), "{json}");
        assert!(json.starts_with("[\n"), "{json}");
    }

    #[test]
    fn empty_report_is_empty_array() {
        assert_eq!(render_json_all(&[], "", "x.slp"), "[]\n");
    }

    #[test]
    fn sort_orders_by_span_then_severity() {
        let mut diags = vec![
            Diagnostic::warning("W0401", "later").with_span(Span::new(20, 21)),
            Diagnostic::warning("W0402", "no span"),
            Diagnostic::error("E0201", "early").with_span(Span::new(5, 6)),
            Diagnostic::error("E0202", "same pos").with_span(Span::new(20, 21)),
        ];
        sort(&mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["E0201", "E0202", "W0401", "W0402"]);
    }

    #[test]
    fn summary_counts() {
        let diags = vec![
            Diagnostic::error("E0201", "e"),
            Diagnostic::warning("W0401", "w"),
            Diagnostic::warning("W0402", "w"),
        ];
        assert_eq!(counts(&diags), (1, 2));
        let all = render_human_all(&diags, "", "x.slp");
        assert!(all.ends_with("x.slp: 1 error(s), 2 warning(s)\n"), "{all}");
    }

    #[test]
    fn parse_error_converts_with_span() {
        let e = lp_parser::parse_module("p(foo).").unwrap_err();
        let d = Diagnostic::from(&e);
        assert_eq!(d.code, "E0001");
        assert!(d.span.is_some());
        assert!(d.message.contains("foo"));
    }
}
