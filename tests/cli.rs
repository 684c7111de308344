//! End-to-end tests of the `slp` command-line interface.

use std::io::Write;
use std::process::Command;

const APP: &str = "
    FUNC 0, succ, pred, nil, cons.
    TYPE nat, unnat, int, elist, nelist, list.
    nat >= 0 + succ(nat).
    unnat >= 0 + pred(unnat).
    int >= nat + unnat.
    elist >= nil.
    nelist(A) >= cons(A, list(A)).
    list(A) >= elist + nelist(A).
    PRED app(list(A), list(A), list(A)).
    app(nil, L, L).
    app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
    :- app(cons(0, nil), cons(succ(0), nil), Z).
";

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("slp-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

fn slp(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_slp"))
        .args(args)
        .output()
        .expect("slp runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_accepts_well_typed_program() {
    let f = write_fixture("app.slp", APP);
    let (ok, stdout, _) = slp(&["check", f.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("well-typed"));
}

#[test]
fn check_rejects_ill_typed_query() {
    let f = write_fixture("bad.slp", &format!("{APP}\n:- app(nil, 0, 0)."));
    let (ok, _, stderr) = slp(&["check", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("ill-typed"));
}

#[test]
fn run_prints_answer() {
    let f = write_fixture("run.slp", APP);
    let (ok, stdout, _) = slp(&["run", f.to_str().unwrap()]);
    assert!(ok, "stdout: {stdout}");
    assert!(
        stdout.contains("Z = cons(0, cons(succ(0), nil))"),
        "{stdout}"
    );
}

#[test]
fn audit_reports_clean_run() {
    let f = write_fixture("audit.slp", APP);
    let (ok, stdout, _) = slp(&["audit", f.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 violation(s)"));
    assert!(stdout.contains("answers consistent"));
}

#[test]
fn subtype_judgements() {
    let f = write_fixture("sub.slp", APP);
    let (ok, stdout, _) = slp(&["subtype", f.to_str().unwrap(), "int", "nat"]);
    assert!(ok);
    assert!(stdout.contains("derivable"), "{stdout}");
    let (ok, stdout, _) = slp(&["subtype", f.to_str().unwrap(), "nat", "int"]);
    assert!(ok);
    assert!(stdout.contains("not derivable"), "{stdout}");
}

#[test]
fn match_judgements() {
    let f = write_fixture("match.slp", APP);
    let (ok, stdout, _) = slp(&["match", f.to_str().unwrap(), "list(A)", "cons(X, Y)"]);
    assert!(ok);
    assert!(stdout.contains("X ↦ A"), "{stdout}");
    assert!(stdout.contains("Y ↦ list(A)"), "{stdout}");
    let (ok, stdout, _) = slp(&["match", f.to_str().unwrap(), "int", "cons(X, nil)"]);
    assert!(ok);
    assert!(stdout.contains("fail"), "{stdout}");
}

#[test]
fn info_summarizes_declarations() {
    let f = write_fixture("info.slp", APP);
    let (ok, stdout, _) = slp(&["info", f.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("cons/2"));
    assert!(stdout.contains("list/1"));
    assert!(stdout.contains("app/3"));
}

#[test]
fn filter_generates_int2nat() {
    let f = write_fixture("filter.slp", APP);
    let (ok, stdout, _) = slp(&["filter", f.to_str().unwrap(), "int", "nat"]);
    assert!(ok, "{stdout}");
    // The paper's int2nat, modulo naming: one clause per nat shape.
    assert!(stdout.contains("PRED filter0(int, nat)."), "{stdout}");
    assert!(stdout.contains("filter0(0, 0)."), "{stdout}");
    assert!(stdout.contains("succ"), "{stdout}");
}

#[test]
fn export_round_trips_through_check() {
    let f = write_fixture("export.slp", APP);
    let (ok, stdout, _) = slp(&["export", f.to_str().unwrap()]);
    assert!(ok);
    let f2 = write_fixture("export2.slp", &stdout);
    let (ok2, stdout2, stderr2) = slp(&["check", f2.to_str().unwrap()]);
    assert!(ok2, "exported program fails: {stdout2} {stderr2}\n{stdout}");
}

/// Path of a committed paper-world example program.
fn example(name: &str) -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

/// Runs `slp` with and without `--no-table` and requires byte-identical
/// status, stdout and stderr — tabling must be observationally inert.
fn golden(args: &[&str]) -> (bool, String, String) {
    let tabled = slp(args);
    let mut untabled_args = args.to_vec();
    untabled_args.push("--no-table");
    let untabled = slp(&untabled_args);
    assert_eq!(
        tabled, untabled,
        "`--no-table` changed observable output for {args:?}"
    );
    tabled
}

#[test]
fn no_table_is_byte_identical_on_paper_examples() {
    let nrev = write_fixture("nrev12.slp", &lp_gen::programs::nrev(12));
    let nrev = nrev.to_str().unwrap().to_string();
    for f in [example("app.slp"), example("naturals.slp"), nrev] {
        let (ok, stdout, _) = golden(&["check", &f]);
        assert!(ok, "{f} should be well-typed: {stdout}");
        let (ok, _, _) = golden(&["run", &f]);
        assert!(ok);
        let (ok, _, _) = golden(&["audit", &f]);
        assert!(ok);
        golden(&["info", &f]);
        golden(&["export", &f]);
        // The clause-parallel path, with and without its shared table.
        let (ok, _, _) = golden(&["check", &f, "--jobs", "2"]);
        assert!(ok);
        let (ok, _, _) = golden(&["check", &f, "--jobs", "2", "--verify-witnesses"]);
        assert!(ok);
        let (ok, _, _) = golden(&["audit", &f, "--jobs", "2"]);
        assert!(ok);
    }
}

#[test]
fn no_table_is_byte_identical_on_judgement_commands() {
    let f = example("app.slp");
    let (_, stdout, _) = golden(&["subtype", &f, "int", "nat"]);
    assert!(stdout.contains("derivable"), "{stdout}");
    let (_, stdout, _) = golden(&["subtype", &f, "nat", "int"]);
    assert!(stdout.contains("not derivable"), "{stdout}");
    golden(&["subtype", &f, "list(nat)", "nelist(nat)"]);
    golden(&["match", &f, "list(A)", "cons(X, Y)"]);
    golden(&["filter", &f, "int", "nat"]);
}

#[test]
fn parse_errors_have_positions() {
    let f = write_fixture("syntax.slp", "FUNC a b.");
    let (ok, _, stderr) = slp(&["check", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("1:"), "{stderr}");
}

/// Like [`slp`], but returns the raw exit code.
fn slp_code(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_slp"))
        .args(args)
        .output()
        .expect("slp runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// An lp-gen world whose constraint expansions double a type term at each
/// step: the emptiness analysis runs out of its budget of term nodes and
/// says so (`W0303`) instead of growing until the allocator aborts. The
/// address-space cap keeps a regression from taking the host's memory.
#[test]
fn exploding_inhabitation_query_stays_within_its_budget() {
    let f = write_fixture("world_2087.slp", &lp_gen::worlds::random_source(2087));
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1048576; exec \"$0\" lint \"$1\"")
        .arg(env!("CARGO_BIN_EXE_slp"))
        .arg(&f)
        .output()
        .expect("sh runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("warning[W0303]"), "{stdout}");
}

#[test]
fn unknown_flags_exit_2_with_usage_on_stderr() {
    let f = example("app.slp");
    for args in [
        &["check", &f, "--frobnicate"] as &[&str],
        &["lint", &f, "--deny-warnings"],
        &["run", &f, "--jobs", "2"],
        &["--jobs", "2"],
    ] {
        let (code, stdout, stderr) = slp_code(args);
        assert_eq!(code, 2, "{args:?} must be rejected");
        assert!(stdout.is_empty(), "{args:?} printed to stdout: {stdout}");
        assert!(stderr.contains("usage:"), "{args:?} stderr: {stderr}");
    }
    let (code, _, stderr) = slp_code(&["check", &f, "--jobs"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("expects a value"), "{stderr}");
    let (code, _, stderr) = slp_code(&["check", &f, "--jobs", "many"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("expects a number"), "{stderr}");
}

#[test]
fn zero_answers_is_a_usage_error() {
    let f = example("app.slp");
    for args in [
        &["run", &f, "-n", "0"] as &[&str],
        &["audit", &f, "-n", "0"],
        &["audit", &f, "-n", "0", "--modes"],
        &["audit", &f, "-n", "0", "--modes", "--format", "json"],
    ] {
        let (code, stdout, stderr) = slp_code(args);
        assert_eq!(code, 2, "{args:?} must be refused");
        assert!(stdout.is_empty(), "{args:?} printed to stdout: {stdout}");
        assert!(stderr.contains("-n expects"), "{args:?} stderr: {stderr}");
    }
    let (code, stdout, _) = slp_code(&["run", &f, "-n", "1"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn jobs_above_the_limit_exit_2_naming_it() {
    let f = example("app.slp");
    let limit = format!("limit of {} workers", subtype_lp::core::par::MAX_JOBS);
    for args in [
        &["check", &f, "--jobs", "100000"] as &[&str],
        &["lint", &f, "--jobs", "100000"],
        &["audit", &f, "--jobs", "100000"],
        &["serve", "--jobs", "100000"],
    ] {
        let (code, stdout, stderr) = slp_code(args);
        assert_eq!(code, 2, "{args:?} must be refused");
        assert!(stdout.is_empty(), "{args:?} printed to stdout: {stdout}");
        assert!(stderr.contains(&limit), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn unknown_command_exits_2() {
    let (code, stdout, stderr) = slp_code(&["chek", "x.slp"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn multi_file_check_prefixes_and_orders_output() {
    let app = example("app.slp");
    let nat = example("naturals.slp");
    let (code, stdout, stderr) = slp_code(&["check", &app, &nat]);
    assert_eq!(code, 0, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with(&app), "{stdout}");
    assert!(lines[1].starts_with(&nat), "{stdout}");
    assert!(lines[0].contains("well-typed"), "{stdout}");
}

#[test]
fn multi_file_exit_code_is_worst_per_file() {
    let good = example("app.slp");
    let bad = write_fixture("worst.slp", &format!("{APP}\n:- app(nil, 0, 0)."));
    let bad = bad.to_str().unwrap();
    let (code, stdout, stderr) = slp_code(&["check", &good, bad]);
    assert_eq!(code, 2);
    // The clean file's summary still reaches stdout; the errors go to
    // stderr.
    assert!(stdout.contains("well-typed"), "{stdout}");
    assert!(stderr.contains("ill-typed"), "{stderr}");
}

#[test]
fn missing_file_in_batch_reports_on_stderr() {
    let good = example("app.slp");
    let (code, stdout, stderr) = slp_code(&["check", &good, "no-such-file.slp"]);
    assert_eq!(code, 2);
    assert!(stdout.contains("well-typed"), "{stdout}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn glob_expands_in_sorted_order() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let pattern = format!("{}/natural?.slp", dir.to_str().unwrap());
    let (code, stdout, _) = slp_code(&["check", &pattern]);
    assert_eq!(code, 0);
    assert!(stdout.contains("well-typed"), "{stdout}");
    let (code, _, stderr) = slp_code(&["check", &format!("{}/zzz*.slp", dir.to_str().unwrap())]);
    assert_eq!(code, 2);
    assert!(stderr.contains("matches no files"), "{stderr}");
}

#[test]
fn jobs_one_and_four_are_byte_identical() {
    let files = [
        example("app.slp"),
        example("naturals.slp"),
        example("lint_demo.slp"),
        example("modes_demo.slp"),
    ];
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    for cmd in [
        &["check"] as &[&str],
        &["lint"],
        &["lint", "--format", "json"],
    ] {
        let mut serial: Vec<&str> = cmd.to_vec();
        serial.extend(&files);
        serial.extend(["--jobs", "1"]);
        let mut parallel: Vec<&str> = cmd.to_vec();
        parallel.extend(&files);
        parallel.extend(["--jobs", "4"]);
        assert_eq!(
            slp_code(&serial),
            slp_code(&parallel),
            "--jobs changed observable output for {cmd:?}"
        );
    }
    // Single file: `check --jobs 4` takes the clause-parallel path.
    for file in &files {
        assert_eq!(
            slp_code(&["check", file, "--jobs", "1"]),
            slp_code(&["check", file, "--jobs", "4"]),
            "clause-level parallelism changed output for {file}"
        );
    }
}

// ---------------------------------------------------------------------------
// Observability: --stats and --trace
// ---------------------------------------------------------------------------

/// Masks every numeric value in a metrics document, leaving only field
/// names, order and structure — the stable part of the schema.
fn mask_numbers(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut chars = doc.chars().peekable();
    let mut prev = '\0';
    while let Some(c) = chars.next() {
        if prev == ':' && (c.is_ascii_digit()) {
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() || d == '.' {
                    chars.next();
                } else {
                    break;
                }
            }
            out.push('N');
            prev = 'N';
        } else {
            out.push(c);
            prev = c;
        }
    }
    out
}

#[test]
fn stats_leaves_stdout_byte_identical() {
    let f = write_fixture("stats_identical.slp", APP);
    let file = f.to_str().unwrap();
    let (ok_plain, out_plain, err_plain) = slp(&["check", file]);
    let (ok_stats, out_stats, err_stats) = slp(&["check", file, "--stats", "--format", "json"]);
    assert!(ok_plain && ok_stats);
    assert_eq!(out_plain, out_stats, "--stats must not touch stdout");
    assert!(err_plain.is_empty());
    assert!(
        err_stats.contains("\"schema\":\"slp-metrics/1\""),
        "{err_stats}"
    );
}

#[test]
fn stats_json_matches_schema_golden_and_round_trips() {
    use subtype_lp::core::obs::json::JsonValue;

    let f = write_fixture("stats_schema.slp", APP);
    let (ok, _, stderr) = slp(&["check", f.to_str().unwrap(), "--stats", "--format", "json"]);
    assert!(ok);
    let doc = stderr.trim_end();
    // Key order is part of the contract: the masked document must be
    // byte-identical to the committed golden.
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats_schema.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("committed stats schema golden");
    assert_eq!(
        format!("{}\n", mask_numbers(doc)),
        golden,
        "stats schema drifted; re-bless with scripts/bless.sh if intentional"
    );
    // The document survives the serde-free parser byte-for-byte.
    let parsed = JsonValue::parse(doc).expect("stats document parses");
    assert_eq!(parsed.render(), doc, "render(parse(doc)) != doc");
    // Spot-check values through the parsed form.
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(
        counters.get("files_processed").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        counters.get("clause_checks").and_then(JsonValue::as_u64),
        Some(2)
    );
}

#[test]
fn stats_human_format_lists_every_counter() {
    let f = write_fixture("stats_human.slp", APP);
    let (ok, _, stderr) = slp(&["check", f.to_str().unwrap(), "--stats"]);
    assert!(ok);
    assert!(stderr.contains("metrics (slp-metrics/1)"), "{stderr}");
    for name in ["table_hits", "subtype_goals", "files_processed"] {
        assert!(stderr.contains(name), "missing {name} in:\n{stderr}");
    }
}

#[test]
fn trace_writes_parseable_jsonl_spans() {
    use subtype_lp::core::obs::json::JsonValue;

    let f = write_fixture("trace.slp", APP);
    let trace = std::env::temp_dir().join("slp-cli-tests/trace-out.jsonl");
    let (ok, _, _) = slp(&[
        "check",
        f.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok);
    let log = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!log.is_empty(), "trace log must not be empty");
    let mut seen = std::collections::BTreeSet::new();
    for (i, line) in log.lines().enumerate() {
        let event = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("trace line {i} is not JSON ({e}): {line}"));
        assert_eq!(
            event.get("seq").and_then(JsonValue::as_u64),
            Some(i as u64),
            "sequence numbers are dense from 0"
        );
        assert!(event.get("t_ns").is_some());
        let ev = event
            .get("ev")
            .and_then(JsonValue::as_str)
            .expect("every span names its event");
        seen.insert(ev.to_string());
    }
    for expected in ["check.begin", "check.end", "subtype.start", "subtype.end"] {
        assert!(seen.contains(expected), "no {expected} span in {seen:?}");
    }
}

/// `--verify-witnesses` is a silent audit on a healthy program: stdout is
/// byte-identical to a plain check at every job count, and the counters
/// confirm the audit actually replayed something.
#[test]
fn verify_witnesses_is_stdout_inert_and_counts_validations() {
    use subtype_lp::core::obs::json::JsonValue;

    let f = write_fixture("vw.slp", APP);
    let file = f.to_str().unwrap();
    let (ok, plain, _) = slp(&["check", file]);
    assert!(ok);
    for jobs in ["1", "4"] {
        let (ok, stdout, stderr) = slp(&[
            "check",
            file,
            "--jobs",
            jobs,
            "--verify-witnesses",
            "--stats",
            "--format",
            "json",
        ]);
        assert!(ok, "audit must pass on a well-typed program: {stderr}");
        assert_eq!(stdout, plain, "--verify-witnesses must not touch stdout");
        let doc = JsonValue::parse(stderr.trim_end()).expect("stats parses");
        let counter = |name: &str| {
            doc.get("counters")
                .unwrap()
                .get(name)
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert!(counter("witness_validated") >= 1, "nothing was audited");
        assert_eq!(counter("witness_invalid"), 0);
        assert!(counter("witness_emitted") >= counter("witness_validated"));
    }
}

// ---------------------------------------------------------------------------
// Modes: lint exit codes, `audit --modes`
// ---------------------------------------------------------------------------

/// A well-moded variant of [`APP`]: one declared predicate whose only call
/// supplies both inputs bound, plus an undeclared recursive predicate that
/// lints as a lone W0603 warning.
const MODED_APP: &str = "
    FUNC 0, succ, pred, nil, cons.
    TYPE nat, unnat, int, elist, nelist, list.
    nat >= 0 + succ(nat).
    unnat >= 0 + pred(unnat).
    int >= nat + unnat.
    elist >= nil.
    nelist(A) >= cons(A, list(A)).
    list(A) >= elist + nelist(A).
    PRED app(list(A), list(A), list(A)).
    MODE app(+, +, -).
    app(nil, L, L).
    app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
    PRED loop(nat).
    loop(X) :- loop(X).
    :- app(cons(0, nil), cons(succ(0), nil), Z).
";

#[test]
fn lint_exit_codes_let_errors_beat_denied_warnings() {
    let warn = write_fixture("warn_only.slp", MODED_APP);
    let warn = warn.to_str().unwrap();
    let dirty = example("modes_demo.slp");
    let clean = example("app.slp");
    // Warnings alone: 0 by default, 1 under --deny warnings.
    let (code, _, _) = slp_code(&["lint", warn]);
    assert_eq!(code, 0);
    let (code, _, _) = slp_code(&["lint", warn, "--deny", "warnings"]);
    assert_eq!(code, 1);
    // Errors always win: a file with both errors and warnings exits 2
    // whether or not warnings are denied — never 1.
    let (code, _, _) = slp_code(&["lint", &dirty]);
    assert_eq!(code, 2);
    let (code, _, _) = slp_code(&["lint", &dirty, "--deny", "warnings"]);
    assert_eq!(code, 2);
    // Batch exit code is the per-file maximum under the same ordering.
    let (code, _, _) = slp_code(&["lint", &clean, warn, "--deny", "warnings"]);
    assert_eq!(code, 1);
    let (code, _, _) = slp_code(&["lint", &clean, warn, &dirty, "--deny", "warnings"]);
    assert_eq!(code, 2);
}

#[test]
fn audit_modes_flags_the_counterexample() {
    let f = example("modes_demo.slp");
    let (code, stdout, stderr) = slp_code(&["audit", &f, "--modes"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("mode violations detected"), "{stderr}");
    assert!(stdout.contains("error[E0604]"), "{stdout}");
    assert!(stdout.contains("mode report:"), "{stdout}");
    // The dynamic walk itself is clean on the well-moded query 0.
    assert!(stdout.contains("0 mode violation(s)"), "{stdout}");
    assert!(stdout.contains("answers consistent"), "{stdout}");
}

#[test]
fn audit_modes_catches_the_runtime_violation() {
    let f = example("modes_demo.slp");
    let (code, stdout, _) = slp_code(&["audit", &f, "--modes", "-q", "1"]);
    assert_eq!(code, 2);
    assert!(
        stdout.contains("mode violation at depth 0: input argument 1 of `use`"),
        "{stdout}"
    );
    assert!(stdout.contains("1 mode violation(s)"), "{stdout}");
}

#[test]
fn audit_modes_passes_the_well_moded_variant() {
    let f = write_fixture("well_moded.slp", MODED_APP);
    let (code, stdout, stderr) = slp_code(&["audit", f.to_str().unwrap(), "--modes"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("0 mode violation(s)"), "{stdout}");
    assert!(stdout.contains("app(+, +, -)  [declared]"), "{stdout}");
    assert!(stdout.contains("loop(+)  [inferred]"), "{stdout}");
}

#[test]
fn audit_modes_is_byte_identical_across_job_counts() {
    let f = example("modes_demo.slp");
    for query in ["0", "1"] {
        assert_eq!(
            slp_code(&["audit", &f, "--modes", "-q", query, "--jobs", "1"]),
            slp_code(&["audit", &f, "--modes", "-q", query, "--jobs", "4"]),
            "--jobs changed `audit --modes` output on query {query}"
        );
    }
}

#[test]
fn audit_modes_json_is_parseable_and_structured() {
    use subtype_lp::core::obs::json::JsonValue;

    let f = example("modes_demo.slp");
    let (code, stdout, _) = slp_code(&["audit", &f, "--modes", "-q", "1", "--format", "json"]);
    assert_eq!(code, 2);
    let doc = JsonValue::parse(stdout.trim_end()).expect("audit doc parses");
    assert_eq!(
        doc.get("slp-audit-modes").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(doc.get("well_moded"), Some(&JsonValue::Bool(false)));
    let Some(JsonValue::Arr(violations)) = doc.get("mode_violations") else {
        panic!("mode_violations array missing");
    };
    assert_eq!(violations.len(), 1, "{stdout}");
    assert_eq!(
        violations[0].get("pred").and_then(JsonValue::as_str),
        Some("use")
    );
    assert_eq!(
        violations[0].get("argument").and_then(JsonValue::as_u64),
        Some(1)
    );
    let Some(JsonValue::Arr(modes)) = doc.get("modes") else {
        panic!("modes array missing");
    };
    assert_eq!(modes.len(), 6, "{stdout}");
}

#[test]
fn counter_metrics_agree_across_job_counts() {
    use subtype_lp::core::obs::json::JsonValue;
    use subtype_lp::core::Counter;

    let f = write_fixture("stats_jobs.slp", APP);
    let file = f.to_str().unwrap();
    let doc = |jobs: &str| {
        let (ok, _, stderr) = slp(&["check", file, "--jobs", jobs, "--stats", "--format", "json"]);
        assert!(ok);
        JsonValue::parse(stderr.trim_end()).expect("stats parses")
    };
    let serial = doc("1");
    for jobs in ["4", "8"] {
        let parallel = doc(jobs);
        for c in Counter::ALL {
            if !c.scheduling_invariant() {
                continue;
            }
            assert_eq!(
                serial
                    .get("counters")
                    .unwrap()
                    .get(c.name())
                    .unwrap()
                    .as_u64(),
                parallel
                    .get("counters")
                    .unwrap()
                    .get(c.name())
                    .unwrap()
                    .as_u64(),
                "{} must not depend on --jobs {jobs}",
                c.name()
            );
        }
    }
}

/// Replays the committed serve transcript (with the injected panic the CI
/// gate uses) and returns the response stream.
fn serve_replay(extra: &[&str]) -> String {
    use std::process::Stdio;
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");
    let requests = std::fs::read(format!("{golden}serve_session.requests")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_slp"))
        .args(["serve", "--stdio", "--faults", "panic@5"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("slp serve runs");
    child.stdin.take().unwrap().write_all(&requests).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn serve_replay_without_the_table_matches_the_golden() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serve_session.golden"
    ))
    .unwrap();
    assert_eq!(serve_replay(&[]), golden);
    // Untabled, the only two table-derived counts — the entries a delta
    // kept (`reused`) and their running total (`incremental_reuse`) — are
    // those of an empty table. Every other byte is the golden's.
    let untabled = golden
        .replace("\"reused\":1", "\"reused\":0")
        .replace("\"incremental_reuse\":1", "\"incremental_reuse\":0");
    assert_ne!(untabled, golden, "the golden pins both table counts at 1");
    for jobs in ["1", "4"] {
        assert_eq!(serve_replay(&["--no-table", "--jobs", jobs]), untabled);
    }
}

/// A reader that closes the pipe early (`slp lint FILE | head -c 100`) ends
/// the output: `slp` neither panics nor exits 101, and keeps the exit code
/// of a full run.
#[test]
fn closed_stdout_ends_output_without_a_panic() {
    use std::io::Read;
    use std::process::Stdio;

    // Far more output than a pipe buffers, so `slp` is still writing when
    // the reader goes away.
    let f = write_fixture("broken_pipe.slp", &lp_gen::programs::pipeline(600, 3));
    let file = f.to_str().unwrap();
    let wide = write_fixture("broken_pipe_wide.slp", &lp_gen::programs::pipeline(2000, 1));
    let wide = wide.to_str().unwrap();
    let facts = write_fixture("broken_pipe_facts.slp", &lp_gen::programs::fact_base(5000));
    let facts = facts.to_str().unwrap();
    let commands: [&[&str]; 5] = [
        &["lint", file],
        &["lint", file, "--format", "json"],
        &["export", file],
        &["info", wide],
        &["run", facts, "-n", "5000"],
    ];
    for args in commands {
        let (full_code, full_out, _) = slp_code(args);
        assert!(full_out.len() > 1 << 16, "{args:?}: output too small");
        let mut child = Command::new(env!("CARGO_BIN_EXE_slp"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("slp runs");
        let mut head = [0u8; 100];
        child
            .stdout
            .take()
            .unwrap()
            .read_exact(&mut head)
            .expect("the first 100 bytes arrive");
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(full_code), "{args:?}: {stderr}");
    }
}
