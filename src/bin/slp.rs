//! `slp` — the subtype-lp command-line interface.
//!
//! ```text
//! slp check   FILE... [--jobs N] [--verify-witnesses]
//!                                  type-check every clause and query
//! slp explain FILE PRED [--format json|human]
//!                                  show, per clause/query of PRED, either a
//!                                  numbered replay of the subtype derivation
//!                                  (the proof witness) or a minimal failing
//!                                  core explaining why checking refused it
//! slp lint    FILE... [--jobs N] [--deny warnings] [--format json]
//!                                  run the static analyzer (dead clauses,
//!                                  empty types, head condition, unused
//!                                  symbols, overlapping heads, …)
//! slp run     FILE [-q N] [-n N]   run a query (after checking)
//! slp audit   FILE [-q N] [-n N] [--modes] [--jobs N]
//!                                  run with Theorem 6 consistency auditing;
//!                                  `--modes` additionally runs the fixpoint
//!                                  mode analysis (E0601/W0602/W0603/E0604)
//!                                  and checks every resolvent's input
//!                                  positions stay ground
//! slp subtype FILE SUP SUB         decide SUP >= SUB (deterministic prover)
//! slp match   FILE TYPE TERM       evaluate match(TYPE, TERM)
//! slp filter  FILE FROM TO         generate a filtering predicate (§7)
//! slp export  FILE                 print the module in canonical syntax
//! slp info    FILE                 summarize declarations
//! ```
//!
//! `check --verify-witnesses` audits the proof table after checking: every
//! cached `Proved` entry is replayed step-by-step through
//! [`witness::validate_in`](subtype_lp::core::witness::validate_in),
//! independently of the prover that built it. A clean audit changes
//! nothing (stdout stays byte-identical); any entry that fails to replay
//! is an `E0301` error on stderr with exit code 2. The tallies surface as
//! the `witness_validated` / `witness_invalid` counters under `--stats`.
//!
//! `check` and `lint` accept many files (and `*`/`?` globs, for shells that
//! do not expand them) and fan the batch out across `--jobs N` worker
//! threads (default: one per core). Output is collected per file and
//! emitted in input order, so a parallel run is byte-identical to the
//! serial one. With a single file, `check` and `lint` parallelize across
//! *clauses* instead, their workers sharing one proof table behind a
//! mutex.
//!
//! Stream discipline: results (well-typed summaries, lint findings, JSON)
//! go to **stdout**; every error — usage mistakes, unreadable files, parse
//! and type errors — is rendered to **stderr**. Unknown or malformed flags
//! exit with code 2 and a usage hint instead of being ignored. Exit codes:
//! 0 clean, 1 for warnings under `lint --deny warnings`, 2 for errors; a
//! multi-file batch exits with the worst per-file code.
//!
//! Observability: `check`, `lint`, `run` and `audit` accept `--stats`
//! (emit one metrics document — human-readable, or the stable
//! `slp-metrics/1` JSON schema under `--format json` — on **stderr** after
//! the results; stdout is byte-identical to a run without the flag) and
//! `--trace FILE` (append-free JSONL span log of subtype proofs, table
//! traffic, cmatch expansions and clause checks). One registry serves the
//! whole invocation, shared by every file in a batch and every worker
//! thread.

use std::collections::BTreeMap;
use std::process::ExitCode;

use subtype_lp::core::consistency::AuditConfig;
use subtype_lp::core::diag::{self, Diagnostic};
use subtype_lp::core::lint::{
    clause_check_diagnostic, decl_diagnostic, lint_module_obs, mode_diagnostics,
    query_check_diagnostic, LintOptions,
};
use subtype_lp::core::obs::json;
use subtype_lp::core::{
    match_type, mode_string, par, ConstraintSet, Counter, FaultPlan, MatchOutcome, MetricsRegistry,
    ModeAnalysis, NaiveProver, ProofTable, Prover, ServeConfig, ServeSession, ShardedProofTable,
    TableHandle, TabledProver, Timer,
};
use subtype_lp::parser::{parse_module, Module};
use subtype_lp::term::TermDisplay;
use subtype_lp::TypedProgram;

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("slp: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  slp check FILE... [--jobs N] [--verify-witnesses] [--stats]\n            [--format json|human] [--trace FILE]\n  slp explain FILE PRED [--format json|human] [--stats] [--trace FILE]\n  slp lint FILE... [--jobs N] [--deny warnings] [--format json|human]\n           [--stats] [--trace FILE]\n  slp run FILE [-q QUERY] [-n MAX] [--stats] [--format json|human] [--trace FILE]\n  slp audit FILE [-q QUERY] [-n MAX] [--modes] [--jobs N] [--stats]\n            [--format json|human] [--trace FILE]\n  slp serve [--stdio | --socket PATH] [--jobs N] [--faults SPEC]\n            [--budget N] [--deadline-ms N] [--stats] [--trace FILE]\n  slp subtype FILE SUPERTYPE SUBTYPE [--naive]\n  slp match FILE TYPE TERM\n  slp filter FILE FROM_TYPE TO_TYPE\n  slp export FILE\n  slp info FILE\n\nAll commands accept --no-table to disable subtype-proof tabling.\n`check` and `lint` accept several FILEs (and simple *|? globs); the batch\nruns on --jobs N worker threads (default: all cores) with output in input\norder, byte-identical to a serial run. A single FILE spreads its clauses\nover the --jobs N workers instead.\nResults go to stdout; errors are rendered to stderr.\n--stats emits one metrics document on stderr after the results\n(`slp-metrics/1` JSON under --format json); --trace FILE writes a JSONL\nspan log of prover/table/checker events.\nExit codes: 0 clean, 1 warnings under --deny warnings, 2 errors."
        .to_string()
}

// ---------------------------------------------------------------------------
// Strict argument parsing
// ---------------------------------------------------------------------------

/// Parsed command line: the command, its positional operands in order, and
/// its flags. Unknown flags are rejected up front — a typo like
/// `--deny-warnings` or `--job` must not silently run without the option.
struct ParsedArgs {
    command: String,
    operands: Vec<String>,
    flags: BTreeMap<String, Option<String>>,
}

impl ParsedArgs {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).and_then(|v| v.as_deref())
    }
}

/// Per-command flag table: `(flag, takes_value)`.
fn flag_spec(command: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match command {
        "check" => &[
            ("--jobs", true),
            ("--no-table", false),
            ("--stats", false),
            ("--format", true),
            ("--trace", true),
            ("--verify-witnesses", false),
        ],
        "explain" => &[
            ("--format", true),
            ("--no-table", false),
            ("--stats", false),
            ("--trace", true),
        ],
        "lint" => &[
            ("--jobs", true),
            ("--deny", true),
            ("--format", true),
            ("--no-table", false),
            ("--stats", false),
            ("--trace", true),
        ],
        "run" => &[
            ("-q", true),
            ("-n", true),
            ("--no-table", false),
            ("--stats", false),
            ("--format", true),
            ("--trace", true),
        ],
        "audit" => &[
            ("-q", true),
            ("-n", true),
            ("--modes", false),
            ("--jobs", true),
            ("--no-table", false),
            ("--stats", false),
            ("--format", true),
            ("--trace", true),
        ],
        "serve" => &[
            ("--stdio", false),
            ("--socket", true),
            ("--jobs", true),
            ("--faults", true),
            ("--budget", true),
            ("--deadline-ms", true),
            ("--no-table", false),
            ("--stats", false),
            ("--format", true),
            ("--trace", true),
        ],
        "subtype" => &[("--naive", false), ("--no-table", false)],
        "match" | "filter" | "export" | "info" => &[("--no-table", false)],
        _ => return None,
    })
}

fn parse_args(args: &[String]) -> Result<ParsedArgs, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let Some(spec) = flag_spec(command) else {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    };
    let mut operands = Vec::new();
    let mut flags = BTreeMap::new();
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        if a.starts_with('-') && a.len() > 1 {
            match spec.iter().find(|(name, _)| name == a) {
                Some((name, true)) => {
                    let value = rest
                        .next()
                        .ok_or_else(|| format!("flag `{name}` expects a value\n{}", usage()))?;
                    flags.insert(name.to_string(), Some(value.clone()));
                }
                Some((name, false)) => {
                    flags.insert(name.to_string(), None);
                }
                None => {
                    return Err(format!(
                        "unknown flag `{a}` for `slp {command}`\n{}",
                        usage()
                    ));
                }
            }
        } else {
            operands.push(a.clone());
        }
    }
    Ok(ParsedArgs {
        command: command.clone(),
        operands,
        flags,
    })
}

/// `--jobs N`: 0 (or the flag missing) means one worker per available core.
/// A count above [`par::MAX_JOBS`] is refused before any worker starts.
fn jobs_of(parsed: &ParsedArgs) -> Result<usize, String> {
    let requested = match parsed.value("--jobs") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--jobs expects a number, got `{v}`\n{}", usage()))?,
    };
    if requested > par::MAX_JOBS {
        return Err(format!(
            "--jobs {requested} is above the limit of {} workers",
            par::MAX_JOBS
        ));
    }
    Ok(par::effective_jobs(requested))
}

// ---------------------------------------------------------------------------
// Glob expansion (for shells that hand patterns through verbatim)
// ---------------------------------------------------------------------------

/// Matches `pattern` (with `*` and `?`) against a whole file name.
fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    fn go(p: &[char], n: &[char]) -> bool {
        match p.first() {
            None => n.is_empty(),
            Some('*') => go(&p[1..], n) || (!n.is_empty() && go(p, &n[1..])),
            Some('?') => !n.is_empty() && go(&p[1..], &n[1..]),
            Some(c) => n.first() == Some(c) && go(&p[1..], &n[1..]),
        }
    }
    go(&p, &n)
}

/// Expands one operand: a literal path passes through; a basename pattern
/// containing `*`/`?` is matched against its directory's entries (sorted,
/// so batches are deterministic).
fn expand_operand(op: &str) -> Result<Vec<String>, String> {
    if !op.contains('*') && !op.contains('?') {
        return Ok(vec![op.to_string()]);
    }
    let (dir, pattern) = match op.rsplit_once('/') {
        Some((d, p)) => (d.to_string(), p),
        None => (".".to_string(), op),
    };
    if dir.contains('*') || dir.contains('?') {
        return Err(format!(
            "glob `{op}`: wildcards are only supported in the file name"
        ));
    }
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("glob `{op}`: cannot read {dir}: {e}"))?;
    let mut matches = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("glob `{op}`: {e}"))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if glob_match(pattern, &name) {
            matches.push(if dir == "." {
                name.into_owned()
            } else {
                format!("{dir}/{name}")
            });
        }
    }
    if matches.is_empty() {
        return Err(format!("glob `{op}` matches no files"));
    }
    matches.sort();
    Ok(matches)
}

fn expand_files(operands: &[String]) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for op in operands {
        files.extend(expand_operand(op)?);
    }
    Ok(files)
}

// ---------------------------------------------------------------------------
// The batch pipeline
// ---------------------------------------------------------------------------

/// One file's collected output: emitted (stdout then stderr) strictly in
/// input order after the parallel workers have finished.
struct FileReport {
    stdout: String,
    stderr: String,
    code: u8,
}

/// Runs `worker` over `files` on up to `jobs` threads and emits the reports
/// in input order. The overall exit code is the worst per-file code.
fn run_batch(
    files: &[String],
    jobs: usize,
    worker: impl Fn(&str) -> FileReport + Sync,
) -> ExitCode {
    let reports = par::run_indexed(jobs, files, None, |_, f| worker(f));
    let mut out = Stdout::new();
    let mut worst = 0u8;
    for r in &reports {
        out.write(&r.stdout);
        eprint!("{}", r.stderr);
        worst = worst.max(r.code);
    }
    out.finish();
    ExitCode::from(worst)
}

/// Results written through one locked stdout handle. A reader that closes
/// the pipe early (`slp lint FILE | head`) ends the output: later writes
/// are dropped and the run keeps its own exit code. Any other write error
/// is reported once on stderr.
struct Stdout {
    out: std::io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn new() -> Self {
        Stdout {
            out: std::io::stdout().lock(),
            closed: false,
        }
    }

    fn write(&mut self, text: &str) {
        if !self.closed {
            let written = self.out.write_all(text.as_bytes());
            self.check(written);
        }
    }

    /// The `write!`/`writeln!` target: formats straight into the handle.
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        if !self.closed {
            let written = self.out.write_fmt(args);
            self.check(written);
        }
    }

    fn finish(mut self) {
        if !self.closed {
            let flushed = self.out.flush();
            self.check(flushed);
        }
    }

    fn check(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("slp: cannot write results: {e}");
            }
        }
    }
}

/// Splits `--jobs` between files and clauses: `(file_jobs, clause_jobs)`.
/// Files are the unit of parallelism for a batch; a single file
/// parallelizes across its clauses instead (sharing one proof table
/// between the workers).
fn split_jobs(files: &[String], jobs: usize) -> (usize, usize) {
    if files.len() > 1 {
        (jobs, 1)
    } else {
        (1, jobs)
    }
}

/// `--format json|human` (shared by lint findings and `--stats` output).
fn json_format(parsed: &ParsedArgs) -> Result<bool, String> {
    match parsed.value("--format") {
        Some("json") => Ok(true),
        Some("human") | None => Ok(false),
        Some(other) => Err(format!(
            "--format expects `json` or `human`, got {other}\n{}",
            usage()
        )),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_args(args)?;
    let no_table = parsed.has("--no-table");

    // One registry per invocation: every file in a batch, every worker
    // thread, and every table backend counts into it, so `--stats` is a
    // single coherent document rather than a merge of per-table views.
    let obs = MetricsRegistry::shared();
    if let Some(path) = parsed.value("--trace") {
        let sink = std::fs::File::create(path)
            .map_err(|e| format!("--trace: cannot create {path}: {e}"))?;
        obs.set_trace(Box::new(std::io::BufWriter::new(sink)));
    }

    let code = dispatch(&parsed, no_table, &obs)?;

    // Results are already on stdout; the stats document goes to stderr so
    // stdout stays byte-identical to a run without `--stats`.
    if let Some(mut sink) = obs.take_trace() {
        let _ = sink.flush();
    }
    if parsed.has("--stats") {
        let snapshot = obs.snapshot();
        if json_format(&parsed)? {
            eprintln!("{}", snapshot.render_json());
        } else {
            eprint!("{}", snapshot.render_human());
        }
    }
    Ok(code)
}

fn dispatch(
    parsed: &ParsedArgs,
    no_table: bool,
    obs: &Arc<MetricsRegistry>,
) -> Result<ExitCode, String> {
    match parsed.command.as_str() {
        "check" => {
            // Validate `--format` up front even though check results ignore
            // it; a typo must fail loudly, not silently drop the stats doc.
            json_format(parsed)?;
            let files = expand_files(require_files(parsed)?)?;
            let jobs = jobs_of(parsed)?;
            let (file_jobs, clause_jobs) = split_jobs(&files, jobs);
            let multi = files.len() > 1;
            let verify = parsed.has("--verify-witnesses");
            Ok(run_batch(&files, file_jobs, |file| {
                check_file(file, clause_jobs, no_table, multi, verify, obs)
            }))
        }
        "lint" => {
            let files = expand_files(require_files(parsed)?)?;
            let jobs = jobs_of(parsed)?;
            let json = json_format(parsed)?;
            let deny_warnings = match parsed.value("--deny") {
                Some("warnings") => true,
                None => false,
                Some(other) => {
                    return Err(format!(
                        "--deny expects `warnings`, got {other}\n{}",
                        usage()
                    ))
                }
            };
            let (file_jobs, clause_jobs) = split_jobs(&files, jobs);
            Ok(run_batch(&files, file_jobs, |file| {
                lint_file(file, clause_jobs, no_table, json, deny_warnings, obs)
            }))
        }
        "serve" => serve_cmd(parsed, obs),
        _ => run_single(parsed, no_table, obs),
    }
}

/// `slp serve`: the persistent JSON-lines checking daemon (core::serve).
/// `--stdio` (the default) answers requests from stdin on stdout;
/// `--socket PATH` binds a Unix socket and serves connections one at a
/// time. `--faults SPEC` (e.g. `panic@3,shed@5`) injects the
/// deterministic fault plan used by the replay tests.
fn serve_cmd(parsed: &ParsedArgs, obs: &Arc<MetricsRegistry>) -> Result<ExitCode, String> {
    json_format(parsed)?; // fail typos loudly even though responses are always JSON
    if parsed.has("--stdio") && parsed.value("--socket").is_some() {
        return Err(format!("--stdio and --socket are exclusive\n{}", usage()));
    }
    let faults = match parsed.value("--faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
        None => FaultPlan::none(),
    };
    let parse_num = |flag: &str| -> Result<Option<u64>, String> {
        parsed
            .value(flag)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} expects a number, got `{v}`\n{}", usage()))
            })
            .transpose()
    };
    let config = ServeConfig {
        jobs: jobs_of(parsed)?,
        default_budget: parse_num("--budget")?,
        default_deadline_ms: parse_num("--deadline-ms")?,
        faults,
        tabling: !parsed.has("--no-table"),
        ..ServeConfig::default()
    };
    let mut session = ServeSession::with_metrics(config, obs.clone());

    // Injected (and genuinely unexpected) panics are contained at the
    // request boundary and answered in-band as `status:"panic"`; the
    // default hook would interleave a backtrace with the response stream
    // on stderr, so silence it for the daemon's lifetime.
    std::panic::set_hook(Box::new(|_| {}));

    match parsed.value("--socket") {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            session
                .run(stdin.lock(), stdout.lock())
                .map_err(|e| format!("serve: {e}"))?;
        }
        Some(path) => {
            let _ = std::fs::remove_file(path); // stale socket from a crash
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("serve: cannot bind {path}: {e}"))?;
            // Connections are served one at a time: the session (and its
            // warm table) is shared across them, and `shutdown` ends the
            // daemon, not just the connection.
            while !session.closed() {
                let (stream, _) = listener
                    .accept()
                    .map_err(|e| format!("serve: accept: {e}"))?;
                let reader =
                    std::io::BufReader::new(stream.try_clone().map_err(|e| format!("serve: {e}"))?);
                session
                    .run(reader, stream)
                    .map_err(|e| format!("serve: {e}"))?;
            }
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn require_files(parsed: &ParsedArgs) -> Result<&[String], String> {
    if parsed.operands.is_empty() {
        return Err(format!(
            "`slp {}` needs at least one FILE\n{}",
            parsed.command,
            usage()
        ));
    }
    Ok(&parsed.operands)
}

/// Type-checks one file into a report (never prints directly: reports are
/// emitted in input order by the batch driver).
fn check_file(
    file: &str,
    clause_jobs: usize,
    no_table: bool,
    multi: bool,
    verify_witnesses: bool,
    obs: &Arc<MetricsRegistry>,
) -> FileReport {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            return FileReport {
                stdout: String::new(),
                stderr: format!("slp: cannot read {file}: {e}\n"),
                code: 2,
            }
        }
    };
    obs.incr(Counter::FilesProcessed);
    let parse_span = obs.start(Timer::Parse);
    let parsed = parse_module(&src);
    drop(parse_span);
    let module = match parsed {
        Ok(m) => m,
        Err(e) => return error_report(&[Diagnostic::from(&e)], &src, file),
    };
    let validate_span = obs.start(Timer::Validate);
    let built = TypedProgram::from_module_with_metrics(module, obs.clone());
    drop(validate_span);
    let program = match built {
        Ok(p) => p.with_tabling(!no_table),
        Err((e, module)) => return error_report(&program_diagnostics(&module, &e), &src, file),
    };
    let diags = check_program_diags(&program, clause_jobs, no_table, verify_witnesses);
    if !diags.is_empty() {
        return error_report(&diags, &src, file);
    }
    let prefix = if multi {
        format!("{file}: ")
    } else {
        String::new()
    };
    FileReport {
        stdout: format!(
            "{prefix}well-typed: {} clause(s), {} query(ies)\n",
            program.module().clauses.len(),
            program.module().queries.len()
        ),
        stderr: String::new(),
        code: 0,
    }
}

/// Lints one file into a report. Findings are the command's *results* and
/// stay on stdout (in both formats); only I/O failures go to stderr.
fn lint_file(
    file: &str,
    clause_jobs: usize,
    no_table: bool,
    json: bool,
    deny_warnings: bool,
    obs: &Arc<MetricsRegistry>,
) -> FileReport {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            return FileReport {
                stdout: String::new(),
                stderr: format!("slp: cannot read {file}: {e}\n"),
                code: 2,
            }
        }
    };
    obs.incr(Counter::FilesProcessed);
    let parse_span = obs.start(Timer::Parse);
    let parsed = parse_module(&src);
    drop(parse_span);
    let diags = match parsed {
        Err(e) => vec![Diagnostic::from(&e)],
        Ok(m) => lint_module_obs(
            &m,
            &LintOptions {
                tabling: !no_table,
                jobs: clause_jobs,
                ..LintOptions::default()
            },
            Some(obs),
        ),
    };
    let stdout = if json {
        diag::render_json_all(&diags, &src, file)
    } else {
        diag::render_human_all(&diags, &src, file)
    };
    let (errors, warnings) = diag::counts(&diags);
    FileReport {
        stdout,
        stderr: String::new(),
        code: lint_exit_code(errors, warnings, deny_warnings),
    }
}

/// Exit code of one linted file. Errors always win: a file with both
/// errors and denied warnings exits 2, never 1 — and because
/// [`run_batch`] aggregates the batch code as a per-file maximum, the
/// same ordering holds across files.
fn lint_exit_code(errors: usize, warnings: usize, deny_warnings: bool) -> u8 {
    if errors > 0 {
        2
    } else if deny_warnings && warnings > 0 {
        1
    } else {
        0
    }
}

/// Renders error diagnostics into a stderr report with exit code 2.
fn error_report(diags: &[Diagnostic], src: &str, file: &str) -> FileReport {
    let mut ds = diags.to_vec();
    diag::sort(&mut ds);
    FileReport {
        stdout: String::new(),
        stderr: diag::render_human_all(&ds, src, file),
        code: 2,
    }
}

// ---------------------------------------------------------------------------
// Single-file commands (run/audit/subtype/match/filter/export/info)
// ---------------------------------------------------------------------------

fn run_single(
    parsed: &ParsedArgs,
    no_table: bool,
    obs: &Arc<MetricsRegistry>,
) -> Result<ExitCode, String> {
    let file = parsed
        .operands
        .first()
        .ok_or_else(|| format!("`slp {}` needs a FILE\n{}", parsed.command, usage()))?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    obs.incr(Counter::FilesProcessed);
    let parse_span = obs.start(Timer::Parse);
    let parse_result = parse_module(&src);
    drop(parse_span);
    let module = match parse_result {
        Ok(m) => m,
        Err(e) => return Ok(report_errors(&[Diagnostic::from(&e)], &src, file)),
    };
    let validate_span = obs.start(Timer::Validate);
    let built = TypedProgram::from_module_with_metrics(module, obs.clone());
    drop(validate_span);
    let program = match built {
        Ok(p) => p.with_tabling(!no_table),
        Err((e, module)) => {
            return Ok(report_errors(&program_diagnostics(&module, &e), &src, file))
        }
    };

    let mut out = Stdout::new();
    let result = match parsed.command.as_str() {
        "run" => execute(&program, &src, file, parsed, false, &mut out),
        "audit" => execute(&program, &src, file, parsed, true, &mut out),
        "explain" => explain_cmd(&program, &src, file, parsed, &mut out),
        "subtype" => subtype(program, parsed, &mut out).map(|()| ExitCode::SUCCESS),
        "match" => match_cmd(program, parsed, &mut out).map(|()| ExitCode::SUCCESS),
        "filter" => filter_cmd(program, parsed, &mut out).map(|()| ExitCode::SUCCESS),
        "export" => {
            out.write(&subtype_lp::parser::unparse(program.module()));
            Ok(ExitCode::SUCCESS)
        }
        "info" => {
            info(&program, &mut out);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    out.finish();
    result
}

/// Renders error diagnostics to stderr and yields exit code 2.
fn report_errors(diags: &[Diagnostic], src: &str, file: &str) -> ExitCode {
    let r = error_report(diags, src, file);
    eprint!("{}", r.stderr);
    ExitCode::from(r.code)
}

/// Maps a program-construction failure onto span-carrying diagnostics.
fn program_diagnostics(module: &Module, e: &subtype_lp::Error) -> Vec<Diagnostic> {
    match e {
        subtype_lp::Error::Parse(p) => vec![Diagnostic::from(p)],
        subtype_lp::Error::Declarations(d) => vec![decl_diagnostic(module, d)],
        // `from_module` only produces `Check` for predicate-type-table
        // errors (duplicate declarations etc.), whose spans the diagnostic
        // constructor resolves itself; the index is not a clause index.
        subtype_lp::Error::Check(errors) => errors
            .iter()
            .map(|(i, e)| clause_check_diagnostic(module, *i, e))
            .collect(),
    }
}

/// Diagnostics for every ill-typed clause and query, or empty when the
/// program is well-typed. With `clause_jobs > 1` the clauses (and queries)
/// are checked across the worker pool, sharing one proof table when tabling
/// is on; the diagnostics come back in clause order either way, so the
/// rendered output is byte-identical to the serial run.
///
/// With `verify_witnesses`, whichever proof table served the check is
/// audited afterwards: every cached `Proved` entry is replayed through
/// `witness::validate_in`, and any replay failure becomes an `E0301`
/// diagnostic. A clean audit adds nothing, so stdout stays byte-identical
/// across `--jobs` counts.
fn check_program_diags(
    program: &TypedProgram,
    clause_jobs: usize,
    no_table: bool,
    verify_witnesses: bool,
) -> Vec<Diagnostic> {
    let module = program.module();
    let mut diags = Vec::new();
    // The shared table counts into the program's registry, so serial and
    // clause-parallel runs report through the same document.
    let shared = (clause_jobs > 1 && !no_table)
        .then(|| ShardedProofTable::with_metrics(program.metrics().clone()));
    let (clauses, queries) = if clause_jobs > 1 {
        (
            program.check_clauses_parallel(shared.as_ref(), clause_jobs),
            program.check_queries_parallel(shared.as_ref(), clause_jobs),
        )
    } else {
        (program.check_clauses(), program.check_queries())
    };
    if let Err(subtype_lp::Error::Check(errs)) = clauses {
        diags.extend(
            errs.iter()
                .map(|(i, e)| clause_check_diagnostic(module, *i, e)),
        );
    }
    if let Err(subtype_lp::Error::Check(errs)) = queries {
        diags.extend(
            errs.iter()
                .map(|(i, e)| query_check_diagnostic(module, *i, e)),
        );
    }
    if verify_witnesses {
        let constraints = program.constraints().as_set().constraints();
        let table = match &shared {
            Some(t) => TableHandle::Shared(t),
            None => TableHandle::Local(program.proof_table()),
        };
        let (validated, invalid) = table.validate_witnesses(&module.sig, constraints);
        if invalid > 0 {
            diags.push(
                Diagnostic::error(
                    "E0301",
                    format!(
                        "witness audit failed: {invalid} of {} cached subtype proof(s) did not \
                         replay",
                        validated + invalid
                    ),
                )
                .note(
                    "every `Proved` proof-table entry must replay step-by-step through \
                     witness::validate_in; a failure here means the table holds a verdict \
                     its own derivation chain cannot justify",
                ),
            );
        }
    }
    diags
}

fn flag_usize(parsed: &ParsedArgs, flag: &str) -> Result<Option<usize>, String> {
    match parsed.value(flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} expects a number, got `{v}`\n{}", usage())),
    }
}

/// `-n MAX`, the most answers to find (default 10). Zero is a usage
/// error: `run` would print `no.` for a query that may well succeed.
fn max_answers(parsed: &ParsedArgs) -> Result<usize, String> {
    match flag_usize(parsed, "-n")? {
        Some(0) => Err(format!(
            "-n expects at least 1 answer, got `0`\n{}",
            usage()
        )),
        max => Ok(max.unwrap_or(10)),
    }
}

fn execute(
    program: &TypedProgram,
    src: &str,
    file: &str,
    parsed: &ParsedArgs,
    auditing: bool,
    out: &mut Stdout,
) -> Result<ExitCode, String> {
    // `audit --jobs N` parallelizes the pre-execution type check across
    // clauses (sharing one proof table); the audit itself is serial
    // and its output byte-identical at every job count.
    let jobs = if auditing { jobs_of(parsed)? } else { 1 };
    let max = max_answers(parsed)?;
    let diags = check_program_diags(program, jobs, !program.tabling(), false);
    if !diags.is_empty() {
        return Ok(report_errors(&diags, src, file));
    }
    let query = flag_usize(parsed, "-q")?.unwrap_or(0);
    let queries = &program.module().queries;
    if queries.is_empty() {
        return Err("the program contains no queries".into());
    }
    if query >= queries.len() {
        return Err(format!(
            "query index {query} out of range (program has {})",
            queries.len()
        ));
    }
    if auditing && parsed.has("--modes") {
        return audit_modes(program, src, file, parsed, query, max, out);
    }
    if auditing {
        let report = program.audit_query(
            query,
            AuditConfig {
                max_solutions: max,
                ..AuditConfig::default()
            },
        );
        for sol in &report.solutions {
            writeln!(out, "{}", solution_line(program, query, sol));
        }
        writeln!(
            out,
            "audited {} resolvent(s): {} violation(s), answers {}",
            report.resolvents_checked,
            report.violations.len(),
            if report.answers_consistent {
                "consistent"
            } else {
                "INCONSISTENT"
            }
        );
        if !report.is_clean() {
            return Err("consistency violations detected".into());
        }
    } else {
        let solutions = program.run_query(query, max);
        if solutions.is_empty() {
            writeln!(out, "no.");
        }
        for sol in &solutions {
            writeln!(out, "{}", solution_line(program, query, sol));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `slp audit --modes`: the static mode report (the same `E0601`–`W0605`
/// findings `slp lint` emits, via the shared pass) followed by a moded
/// Theorem 6 audit — every resolvent, the initial query goals included,
/// must keep the selected atom's `+` positions ground. Findings are the
/// command's results and go to stdout in both formats.
fn audit_modes(
    program: &TypedProgram,
    src: &str,
    file: &str,
    parsed: &ParsedArgs,
    query: usize,
    max: usize,
    out: &mut Stdout,
) -> Result<ExitCode, String> {
    let json = json_format(parsed)?;
    let module = program.module();
    let sig = &module.sig;

    // The diagnostics pass below re-runs the analysis with observability
    // wired in (counters, trace spans); this silent run only supplies the
    // mode assignment the resolvent checks audit against.
    let report = ModeAnalysis::new(module).run();
    let diags = mode_diagnostics(
        module,
        program.constraints(),
        program.pred_types(),
        &LintOptions {
            tabling: program.tabling(),
            ..LintOptions::default()
        },
        Some(program.metrics().as_ref()),
    );
    let audit = program.audit_query_with_modes(
        query,
        AuditConfig {
            max_solutions: max,
            ..AuditConfig::default()
        },
        &report.modes,
    );

    let mode_rows: Vec<(String, String, bool)> = report
        .modes
        .iter()
        .map(|(&p, modes)| {
            (
                sig.name(p).to_string(),
                mode_string(modes),
                report.declared.contains(&p),
            )
        })
        .collect();
    let (errors, _) = diag::counts(&diags);
    let well_moded = errors == 0 && audit.is_well_moded();

    if json {
        let modes_json: Vec<String> = mode_rows
            .iter()
            .map(|(pred, modes, declared)| {
                format!(
                    "{{\"pred\":{},\"modes\":{},\"declared\":{declared}}}",
                    json::escape(pred),
                    json::escape(modes)
                )
            })
            .collect();
        let source = diag::Source::new(src);
        let diags_json: Vec<String> = diags
            .iter()
            .map(|d| diag::render_json_one(d, &source, file))
            .collect();
        let solutions_json: Vec<String> = audit
            .solutions
            .iter()
            .map(|sol| json::escape(&solution_line(program, query, sol)))
            .collect();
        let violations_json: Vec<String> = audit
            .mode_violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"depth\":{},\"pred\":{},\"argument\":{},\"atom\":{}}}",
                    v.depth,
                    json::escape(sig.name(v.pred)),
                    v.position + 1,
                    json::escape(&program.display(&v.resolvent[0]).to_string())
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"slp-audit-modes\":1,\"file\":{},\"query\":{query},\"modes\":[{}],\
             \"diagnostics\":[{}],\"solutions\":[{}],\"resolvents\":{},\
             \"violations\":{},\"answers_consistent\":{},\"mode_resolvents\":{},\
             \"mode_violations\":[{}],\"well_moded\":{well_moded}}}",
            json::escape(file),
            modes_json.join(","),
            diags_json.join(","),
            solutions_json.join(","),
            audit.resolvents_checked,
            audit.violations.len(),
            audit.answers_consistent,
            audit.mode_resolvents,
            violations_json.join(",")
        );
    } else {
        writeln!(
            out,
            "mode report: {} predicate(s), {} declared, {} inferred",
            mode_rows.len(),
            report.declared.len(),
            mode_rows.len() - report.declared.len()
        );
        for (pred, modes, declared) in &mode_rows {
            writeln!(
                out,
                "  {pred}{modes}  [{}]",
                if *declared { "declared" } else { "inferred" }
            );
        }
        write!(out, "{}", diag::render_human_all(&diags, src, file));
        for sol in &audit.solutions {
            writeln!(out, "{}", solution_line(program, query, sol));
        }
        for v in &audit.mode_violations {
            writeln!(
                out,
                "mode violation at depth {}: input argument {} of `{}` is unbound in `{}`",
                v.depth,
                v.position + 1,
                sig.name(v.pred),
                program.display(&v.resolvent[0])
            );
        }
        writeln!(
            out,
            "audited {} resolvent(s): {} violation(s), answers {}",
            audit.resolvents_checked,
            audit.violations.len(),
            if audit.answers_consistent {
                "consistent"
            } else {
                "INCONSISTENT"
            }
        );
        writeln!(
            out,
            "mode-checked {} resolvent(s): {} mode violation(s)",
            audit.mode_resolvents,
            audit.mode_violations.len()
        );
    }

    if !audit.is_clean() {
        return Err("consistency violations detected".into());
    }
    if !well_moded {
        return Err("mode violations detected".into());
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one solution in the `run`/`audit` answer format (`yes.` or
/// sorted `Name = value` bindings).
fn solution_line(
    program: &TypedProgram,
    query: usize,
    sol: &subtype_lp::engine::Solution,
) -> String {
    let q = &program.module().queries[query];
    let mut parts = Vec::new();
    for (v, name) in q.hints.iter() {
        let value = sol.answer.resolve(&subtype_lp::term::Term::Var(v));
        let shown = program.display_with(&value, &q.hints).to_string();
        if shown != name {
            parts.push(format!("{name} = {shown}"));
        }
    }
    parts.sort();
    if parts.is_empty() {
        "yes.".to_string()
    } else {
        format!("{}.", parts.join(", "))
    }
}

fn operand<'a>(parsed: &'a ParsedArgs, index: usize, what: &str) -> Result<&'a String, String> {
    parsed
        .operands
        .get(index)
        .ok_or_else(|| format!("`slp {}` needs {what}\n{}", parsed.command, usage()))
}

fn subtype(program: TypedProgram, parsed: &ParsedArgs, out: &mut Stdout) -> Result<(), String> {
    let sup_src = operand(parsed, 1, "a SUPERTYPE")?;
    let sub_src = operand(parsed, 2, "a SUBTYPE")?;
    let naive = parsed.has("--naive");
    let tabled = !parsed.has("--no-table");
    let obs = program.metrics().clone();
    let mut loader = program.into_loader();
    let (sup, _) = loader
        .parse_type(sup_src)
        .map_err(|e| format!("supertype: {e}"))?;
    let (sub, _) = loader
        .parse_type(sub_src)
        .map_err(|e| format!("subtype: {e}"))?;
    let module = loader.finish();
    let cs = ConstraintSet::from_module(&module).map_err(|e| e.to_string())?;
    if naive {
        let prover = NaiveProver::new(&module.sig, &cs);
        let outcome = prover.prove(&sup, &sub);
        writeln!(out, "naive SLD over H_C: {outcome:?}");
        return Ok(());
    }
    let checked = cs.checked(&module.sig).map_err(|e| e.to_string())?;
    let table = RefCell::new(ProofTable::with_metrics(obs));
    let proof = if tabled {
        TabledProver::new(&module.sig, &checked, &table).subtype(&sup, &sub)
    } else {
        Prover::new(&module.sig, &checked).subtype(&sup, &sub)
    };
    let verdict = match &proof {
        subtype_lp::core::Proof::Proved(answer) => {
            let witness: Vec<String> = answer
                .iter()
                .map(|(v, t)| format!("_G{} = {}", v.0, TermDisplay::new(t, &module.sig)))
                .collect();
            if witness.is_empty() {
                "derivable".to_string()
            } else {
                format!("derivable with {}", witness.join(", "))
            }
        }
        subtype_lp::core::Proof::Refuted => "not derivable (exhaustive search)".to_string(),
        subtype_lp::core::Proof::Unknown => "inconclusive (search budget)".to_string(),
    };
    writeln!(
        out,
        "{} >= {}: {verdict}",
        TermDisplay::new(&sup, &module.sig),
        TermDisplay::new(&sub, &module.sig)
    );
    Ok(())
}

fn match_cmd(program: TypedProgram, parsed: &ParsedArgs, out: &mut Stdout) -> Result<(), String> {
    let ty_src = operand(parsed, 1, "a TYPE")?;
    let term_src = operand(parsed, 2, "a TERM")?;
    let mut loader = program.into_loader();
    let (ty, ty_hints) = loader
        .parse_type(ty_src)
        .map_err(|e| format!("type: {e}"))?;
    let (term, mut hints) = loader
        .parse_program_term(term_src)
        .map_err(|e| format!("term: {e}"))?;
    // Type and term were parsed in separate scopes, so their variables are
    // distinct; merge the hint tables for display.
    for (v, name) in ty_hints.iter() {
        hints.insert(v, name);
    }
    let module = loader.finish();
    let cs = ConstraintSet::from_module(&module)
        .map_err(|e| e.to_string())?
        .checked(&module.sig)
        .map_err(|e| e.to_string())?;
    match match_type(&module.sig, &cs, &ty, &term) {
        MatchOutcome::Typing(theta) => {
            if theta.is_empty() {
                writeln!(out, "match: {{}} (the empty typing)");
            } else {
                let bindings: Vec<String> = theta
                    .iter()
                    .map(|(v, t)| {
                        let name = hints
                            .get(v)
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("_G{}", v.0));
                        format!(
                            "{name} ↦ {}",
                            TermDisplay::new(t, &module.sig).with_hints(&hints)
                        )
                    })
                    .collect();
                writeln!(out, "match: {{{}}}", bindings.join(", "));
            }
        }
        MatchOutcome::Fail => writeln!(out, "match: fail (no typing exists)"),
        MatchOutcome::Bottom => writeln!(out, "match: ⊥ (no unique most general typing)"),
    }
    Ok(())
}

fn filter_cmd(program: TypedProgram, parsed: &ParsedArgs, out: &mut Stdout) -> Result<(), String> {
    let from_src = operand(parsed, 1, "a FROM_TYPE")?;
    let to_src = operand(parsed, 2, "a TO_TYPE")?;
    let mut loader = program.into_loader();
    let (from, _) = loader
        .parse_type(from_src)
        .map_err(|e| format!("from: {e}"))?;
    let (to, _) = loader.parse_type(to_src).map_err(|e| format!("to: {e}"))?;
    let mut module = loader.finish();
    let cs = ConstraintSet::from_module(&module)
        .map_err(|e| e.to_string())?
        .checked(&module.sig)
        .map_err(|e| e.to_string())?;
    let lib = subtype_lp::core::build_filter(&mut module.sig, &cs, &from, &to, &mut module.gen)
        .map_err(|e| e.to_string())?;
    for pt in &lib.pred_types {
        writeln!(out, "PRED {}.", TermDisplay::new(pt, &module.sig));
    }
    for c in &lib.clauses {
        let head = TermDisplay::new(&c.head, &module.sig);
        if c.body.is_empty() {
            writeln!(out, "{head}.");
        } else {
            let body: Vec<String> = c
                .body
                .iter()
                .map(|b| TermDisplay::new(b, &module.sig).to_string())
                .collect();
            writeln!(out, "{head} :- {}.", body.join(", "));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `slp explain` — checkable verdicts and minimal refutation cores
// ---------------------------------------------------------------------------

/// One derivation step rendered for output (both formats consume these).
struct StepLine {
    rule: &'static str,
    constraint: Option<usize>,
    goal: String,
}

/// One clause or query selected for explanation.
struct ExplainTarget<'a> {
    what: &'static str,
    index: usize,
    span: subtype_lp::parser::Span,
    hints: &'a subtype_lp::term::NameHints,
    explanation: subtype_lp::core::CheckExplanation,
}

/// Explains every clause and query of one predicate: a numbered replay of
/// the proof witness when checking succeeded, or the diagnostic plus the
/// 1-minimal refutation core when it did not. Explanations are the
/// command's *results*, so everything — including the rejection
/// diagnostics — goes to stdout, and a program that fails to type-check
/// still explains successfully (exit 0). Only usage, parse, declaration
/// and unknown-predicate errors exit 2.
fn explain_cmd(
    program: &TypedProgram,
    src: &str,
    file: &str,
    parsed: &ParsedArgs,
    out: &mut Stdout,
) -> Result<ExitCode, String> {
    use subtype_lp::term::{SymKind, Term};

    let pred_name = operand(parsed, 1, "a PRED name")?.clone();
    let json = json_format(parsed)?;
    let module = program.module();
    let sig = &module.sig;
    let pred = sig
        .lookup(&pred_name)
        .filter(|s| sig.kind(*s) == SymKind::Pred)
        .ok_or_else(|| format!("{file} declares no predicate `{pred_name}`"))?;

    let checker = program.checker();
    let mentions = |t: &Term| t.functor() == Some(pred);
    let mut targets = Vec::new();
    for (i, lc) in module.clauses.iter().enumerate() {
        if mentions(&lc.clause.head) || lc.clause.body.iter().any(&mentions) {
            targets.push(ExplainTarget {
                what: "clause",
                index: i,
                span: lc.span,
                hints: &lc.hints,
                explanation: checker.explain_clause(&lc.clause),
            });
        }
    }
    for (i, q) in module.queries.iter().enumerate() {
        if q.goals.iter().any(&mentions) {
            targets.push(ExplainTarget {
                what: "query",
                index: i,
                span: q.span,
                hints: &q.hints,
                explanation: checker.explain_query(&q.goals),
            });
        }
    }
    if targets.is_empty() {
        return Err(format!(
            "predicate `{pred_name}` has no clauses or queries in {file}"
        ));
    }

    let source = diag::Source::new(src);
    let mut human = String::new();
    let mut items = Vec::new();
    let mut well_typed = 0usize;
    for t in &targets {
        let (verdict, section, item) = explain_target(program, &source, file, t);
        if verdict == "well-typed" {
            well_typed += 1;
        }
        human.push_str(&section);
        items.push(item);
    }

    if json {
        writeln!(
            out,
            "{{\"slp-explain\":1,\"file\":{},\"predicate\":{},\"items\":[\n  {}\n]}}",
            json::escape(file),
            json::escape(&pred_name),
            items.join(",\n  ")
        );
    } else {
        write!(out, "{human}");
        writeln!(
            out,
            "{file}: explained {} item(s) for `{pred_name}`: {} well-typed, {} rejected",
            targets.len(),
            well_typed,
            targets.len() - well_typed
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one explanation target as `(verdict, human section, JSON item)`
/// against the file's source, indexed once by the caller.
fn explain_target(
    program: &TypedProgram,
    source: &diag::Source<'_>,
    file: &str,
    t: &ExplainTarget,
) -> (&'static str, String, String) {
    use subtype_lp::core::witness;
    use subtype_lp::core::{Step, Witnessed};
    use subtype_lp::term::Term;

    let module = program.module();
    let sig = &module.sig;
    let constraints = program.constraints().as_set().constraints();
    let obs = program.metrics();

    let src = source.text();
    let (line, _) = source.line_col(t.span.start);
    let quoted: String = src[t.span.start.min(src.len())..t.span.end.min(src.len())]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    let disp = |term: &Term| TermDisplay::new(term, sig).to_string();
    let disp_hinted = |term: &Term| TermDisplay::new(term, sig).with_hints(t.hints).to_string();
    // A `+`-alternative constraint by its global (declaration-order) index,
    // with the declaration's own parameter names.
    let show_constraint = |k: usize| match module.constraints.get(k) {
        Some(c) => format!(
            "{} >= {}",
            TermDisplay::new(&c.lhs, sig).with_hints(&c.hints),
            TermDisplay::new(&c.rhs, sig).with_hints(&c.hints)
        ),
        None => format!("#{k}"),
    };

    let solve = t.explanation.solve.as_ref();
    // The phase-2 conjunction with its origins: goal i was built from the
    // deferred commitment `α ⊒ t` in `origins[i]`.
    let goal_lines: Vec<(String, String)> = solve
        .map(|s| {
            s.goals
                .iter()
                .zip(&s.origins)
                .map(|((sup, sub), (alpha, commit))| {
                    (
                        format!("{} >= {}", disp(sup), disp(sub)),
                        format!(
                            "{} admits {}",
                            disp(&Term::Var(*alpha)),
                            disp_hinted(commit)
                        ),
                    )
                })
                .collect()
        })
        .unwrap_or_default();

    let mut section = format!("-- {} #{} ({file}:{line}): {quoted}\n", t.what, t.index);
    let verdict;
    let mut steps_json: Vec<String> = Vec::new();
    let mut core_json: Vec<String> = Vec::new();
    let mut witness_validated = "null".to_string();
    let mut diag_json = "null".to_string();

    match (&t.explanation.result, solve.map(|s| &s.verdict)) {
        (Ok(_), Some(Witnessed::Proved(w))) => {
            verdict = "well-typed";
            let mut steps: Vec<StepLine> = Vec::new();
            let replay = witness::replay(sig, constraints, w, |_, step, sup, sub| {
                let (rule, constraint) = match step {
                    Step::Refl => ("refl", None),
                    Step::Decompose => ("decompose", None),
                    Step::Constraint(k) => ("constraint", Some(k)),
                };
                steps.push(StepLine {
                    rule,
                    constraint,
                    goal: format!("{} >= {}", disp(sup), disp(sub)),
                });
            });
            section.push_str(&format!(
                "   well-typed: {} deferred commitment(s) proved\n",
                goal_lines.len()
            ));
            for (i, (goal, commit)) in goal_lines.iter().enumerate() {
                section.push_str(&format!("     goal {}: {goal}   [{commit}]\n", i + 1));
            }
            match &replay {
                Ok(()) => {
                    obs.incr(Counter::WitnessValidated);
                    witness_validated = "true".to_string();
                    section.push_str(&format!(
                        "   derivation (validated, {} step(s)):\n",
                        steps.len()
                    ));
                    for (i, s) in steps.iter().enumerate() {
                        match s.constraint {
                            Some(k) => section.push_str(&format!(
                                "     {}. {} #{k} ({}): {}\n",
                                i + 1,
                                s.rule,
                                show_constraint(k),
                                s.goal
                            )),
                            None => section.push_str(&format!(
                                "     {}. {}: {}\n",
                                i + 1,
                                s.rule,
                                s.goal
                            )),
                        }
                    }
                }
                Err(e) => {
                    obs.incr(Counter::WitnessInvalid);
                    witness_validated = "false".to_string();
                    section.push_str(&format!("   WITNESS INVALID: {e}\n"));
                }
            }
            steps_json = steps
                .iter()
                .map(|s| {
                    let c = s.constraint.map_or("null".to_string(), |k| k.to_string());
                    format!(
                        "{{\"rule\":{},\"constraint\":{c},\"goal\":{}}}",
                        json::escape(s.rule),
                        json::escape(&s.goal)
                    )
                })
                .collect();
        }
        (Ok(_), _) => {
            verdict = "well-typed";
            witness_validated = "true".to_string();
            section.push_str("   well-typed: no residual subtype obligations\n");
        }
        (Err(e), v) => {
            verdict = if matches!(v, Some(Witnessed::Unknown)) {
                "inconclusive"
            } else {
                "rejected"
            };
            let mut d = if t.what == "clause" {
                clause_check_diagnostic(module, t.index, e)
            } else {
                query_check_diagnostic(module, t.index, e)
            };
            if let Some(Witnessed::Refuted { core }) = v {
                for (m, &j) in core.iter().enumerate() {
                    let (goal, commit) = &goal_lines[j];
                    d = d.note(format!(
                        "refutation core {}/{}: {goal} is underivable (required because \
                         {commit})",
                        m + 1,
                        core.len()
                    ));
                    core_json.push(format!(
                        "{{\"goal\":{},\"commitment\":{}}}",
                        json::escape(goal),
                        json::escape(commit)
                    ));
                }
                d = d.note(
                    "the core is 1-minimal: drop any one of these commitments and the \
                     remainder becomes derivable",
                );
            }
            section.push_str(&diag::render_human(&d, source, file));
            diag_json = diag::render_json_one(&d, source, file);
        }
    }

    let item = format!(
        "{{\"kind\":{},\"index\":{},\"line\":{line},\"source\":{},\"verdict\":{},\
         \"goals\":[{}],\"steps\":[{}],\"witness_validated\":{witness_validated},\
         \"core\":[{}],\"diagnostic\":{diag_json}}}",
        json::escape(t.what),
        t.index,
        json::escape(&quoted),
        json::escape(verdict),
        goal_lines
            .iter()
            .map(|(g, c)| format!(
                "{{\"goal\":{},\"commitment\":{}}}",
                json::escape(g),
                json::escape(c)
            ))
            .collect::<Vec<_>>()
            .join(","),
        steps_json.join(","),
        core_json.join(",")
    );
    (verdict, section, item)
}

fn info(program: &TypedProgram, out: &mut Stdout) {
    let m = program.module();
    let sig = &m.sig;
    use subtype_lp::term::SymKind;
    let names = |kind: SymKind| -> Vec<String> {
        sig.symbols_of_kind(kind)
            .map(|s| match sig.arity(s) {
                Some(n) => format!("{}/{n}", sig.name(s)),
                None => sig.name(s).to_string(),
            })
            .collect()
    };
    writeln!(out, "function symbols: {}", names(SymKind::Func).join(", "));
    writeln!(
        out,
        "type constructors: {}",
        names(SymKind::TypeCtor).join(", ")
    );
    writeln!(
        out,
        "predicates:        {}",
        names(SymKind::Pred).join(", ")
    );
    writeln!(out, "constraints:");
    for c in program.constraints().as_set().constraints() {
        writeln!(
            out,
            "  {} >= {}",
            TermDisplay::new(&c.lhs, sig),
            TermDisplay::new(&c.rhs, sig)
        );
    }
    writeln!(out, "predicate types:");
    // Declaration order: the table's own order is a hash map's, which
    // differs from process to process.
    for t in &m.pred_types {
        writeln!(out, "  {}", TermDisplay::new(t, sig));
    }
    writeln!(
        out,
        "{} clause(s), {} query(ies)",
        m.clauses.len(),
        m.queries.len()
    );
}
