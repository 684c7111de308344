//! `perfbench-probe`: the compiled half of the perfbench harness.
//!
//! ```text
//! perfbench-probe gen < PLAN
//! perfbench-probe layers < MANIFEST
//! ```
//!
//! `gen` writes one generated program per plan line (`KIND ARGS... PATH`),
//! using the `lp-gen` program families.
//!
//! `layers` replays each manifest line (`UNIT MODE PATH`, MODE `check` or
//! `audit`) in-process through the library's public entry points and prints
//! one JSON line per unit: the spans it timed around each layer call,
//! per-call clause and query check times, and the sizes the harness needs
//! for its rates. Nothing inside the library is instrumented; every time
//! here is measured around a public call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::time::Instant;

use subtype_lp::core::consistency::AuditConfig;
use subtype_lp::core::{
    Checker, ConstraintSet, GroundClosure, ModeAnalysis, PredTypeTable, ProofTable,
    ShardedProofTable, Timer,
};
use subtype_lp::gen::programs;
use subtype_lp::parser::parse_module;
use subtype_lp::TypedProgram;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(),
        Some("layers") => layers(),
        _ => Err("usage: perfbench-probe gen|layers < INPUT".to_string()),
    };
    if let Err(msg) = result {
        eprintln!("perfbench-probe: {msg}");
        std::process::exit(2);
    }
}

/// A list term whose elements are the numerals `succ^d(0)` for each digit
/// `d` of `digits`, first digit first.
fn numeral_list(digits: &str) -> String {
    let mut list = String::from("nil");
    for d in digits.bytes().rev() {
        let mut numeral = String::from("0");
        for _ in 0..(d - b'0') {
            numeral = format!("succ({numeral})");
        }
        list = format!("cons({numeral}, {list})");
    }
    list
}

/// `nrev(n)` with its query list replaced by the numerals in `digits`,
/// followed by `queries - 1` more reversal queries over prefixes of it.
fn nrev_program(n: usize, queries: usize, digits: &str) -> Result<String, String> {
    if digits.len() != n || !digits.bytes().all(|d| d.is_ascii_digit()) {
        return Err(format!("nrev {n}: expected {n} digits, got `{digits}`"));
    }
    let generated = programs::nrev(n);
    let rules = generated
        .rsplit_once(":- rev(")
        .map(|(rules, _)| rules)
        .ok_or("lp-gen nrev has no query")?;
    let mut src = format!("{rules}:- rev({}, R).\n", numeral_list(digits));
    for q in 1..queries {
        let prefix = &digits[..n * q / queries];
        writeln!(src, ":- rev({}, R).", numeral_list(prefix)).expect("write to String");
    }
    Ok(src)
}

fn num(fields: &[&str], i: usize) -> Result<usize, String> {
    let f = fields.get(i).ok_or("plan line too short")?;
    f.parse().map_err(|_| format!("not a number: {f}"))
}

/// Reads the plan from stdin and writes each program.
fn gen() -> Result<(), String> {
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some((&path, head)) = fields.split_last() else {
            continue;
        };
        let src = match head.first().copied() {
            Some("pipeline") => programs::pipeline(num(head, 1)?, num(head, 2)?),
            Some("pipeline_with_errors") => {
                programs::pipeline_with_errors(num(head, 1)?, num(head, 2)?, num(head, 3)?)
            }
            Some("fact_base") => programs::fact_base(num(head, 1)?),
            Some("nrev") => nrev_program(
                num(head, 1)?,
                num(head, 2)?,
                head.get(3).ok_or("nrev needs digits")?,
            )?,
            Some("nrev_rules") => programs::nrev(0),
            _ => return Err(format!("unknown plan line: {line}")),
        };
        std::fs::write(path, src).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Spans of one unit: `(name, parent index, start ns, end ns)`, times
/// relative to the probe's start. Index 0 is the unit's root span.
struct Spans {
    epoch: Instant,
    spans: Vec<(&'static str, Option<usize>, u64, u64)>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a child of the root span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = std::hint::black_box(f());
        let end = self.now();
        self.spans.push((name, Some(0), start, end));
        r
    }
}

/// What the harness reads back for one unit.
#[derive(Default)]
struct UnitReport {
    bytes: usize,
    clauses: usize,
    queries: usize,
    clause_ns: Vec<u64>,
    query_ns: Vec<u64>,
    audit_check_query_ns: u64,
    error: Option<String>,
}

fn replay(mode: &str, src: &str, spans: &mut Spans, report: &mut UnitReport) -> Result<(), String> {
    report.bytes = src.len();
    let module = spans
        .time("parser.parse", || parse_module(src))
        .map_err(|e| e.to_string())?;
    report.clauses = module.clauses.len();
    report.queries = module.queries.len();
    let (checked, preds) = spans
        .time("constraint.validate", || {
            let checked = ConstraintSet::from_module(&module)
                .and_then(|set| set.checked(&module.sig))
                .map_err(|e| e.to_string())?;
            let preds = PredTypeTable::from_module(&module).map_err(|e| e.to_string())?;
            Ok::<_, String>((checked, preds))
        })
        .map_err(|e| format!("declarations: {e}"))?;
    let set = ConstraintSet::from_module(&module).map_err(|e| e.to_string())?;
    spans.time("closure.build", || GroundClosure::build(&module.sig, &set));
    spans.time("table.alloc", ShardedProofTable::new);

    let table = RefCell::new(ProofTable::new());
    let checker = Checker::with_table(&module.sig, &checked, &preds, &table);
    let start = spans.now();
    for c in &module.clauses {
        let t = Instant::now();
        let _ = std::hint::black_box(checker.check_clause(&c.clause));
        report.clause_ns.push(t.elapsed().as_nanos() as u64);
    }
    for q in &module.queries {
        let t = Instant::now();
        let _ = std::hint::black_box(checker.check_query(&q.goals));
        report.query_ns.push(t.elapsed().as_nanos() as u64);
    }
    let end = spans.now();
    spans.spans.push(("welltyped.check", Some(0), start, end));
    let constraints = checked.as_set().constraints();
    spans.time("witness.validate", || {
        table.borrow().validate_witnesses(&module.sig, constraints)
    });
    spans.time("modes.infer", || ModeAnalysis::new(&module).run());

    if mode == "audit" {
        // The engine alone, then the audited run of the same query: their
        // difference, less the checker time inside the audit, is the
        // auditor's own cost.
        let program = TypedProgram::from_module(module).map_err(|e| e.to_string())?;
        spans.time("engine.solve", || program.run_query(0, 1));
        let before = program.metrics_snapshot().timer_nanos(Timer::CheckQuery);
        let config = AuditConfig {
            max_solutions: 1,
            ..AuditConfig::default()
        };
        spans.time("consistency.audit", || program.audit_query(0, config));
        report.audit_check_query_ns =
            program.metrics_snapshot().timer_nanos(Timer::CheckQuery) - before;
    }
    Ok(())
}

/// JSON string quoting for error messages.
fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Replays each manifest line and prints its JSON report.
fn layers() -> Result<(), String> {
    let epoch = Instant::now();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [unit, mode, path] = fields[..] else {
            continue;
        };
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut spans = Spans {
            epoch,
            spans: Vec::new(),
        };
        let start = spans.now();
        spans.spans.push(("probe.unit", None, start, start));
        let mut report = UnitReport::default();
        if let Err(e) = replay(mode, &src, &mut spans, &mut report) {
            report.error = Some(e);
        }
        spans.spans[0].3 = spans.now();
        let spans_json: Vec<String> = spans
            .spans
            .iter()
            .map(|(name, parent, s, e)| {
                let parent = parent.map_or("null".to_string(), |p| p.to_string());
                format!("[\"{name}\",{parent},{s},{e}]")
            })
            .collect();
        let error = report.error.map_or("null".to_string(), |e| jstr(&e));
        println!(
            "{{\"unit\":\"{unit}\",\"bytes\":{},\"clauses\":{},\"queries\":{},\
             \"spans\":[{}],\"clause_ns\":[{}],\"query_ns\":[{}],\
             \"audit_check_query_ns\":{},\"error\":{error}}}",
            report.bytes,
            report.clauses,
            report.queries,
            spans_json.join(","),
            join(&report.clause_ns),
            join(&report.query_ns),
            report.audit_check_query_ns,
        );
    }
    Ok(())
}
