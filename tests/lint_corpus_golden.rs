//! Frozen lint golden: `slp lint` over a fixed lp-gen corpus, pinned
//! byte-for-byte in `tests/golden/lint_corpus.{txt,json}`.
//!
//! The corpus is lp-gen's `pipeline`, `pipeline_with_errors`, `fact_base`
//! (whose numerals repeat, so it carries duplicate ground facts), `nrev`,
//! a few random worlds, and one hand-written predicate whose heads mix
//! variable, ground and non-ground first arguments. Each file is linted
//! from its own directory under a relative name, so the embedded file
//! names are stable. Every record holds the exit code, stdout and stderr;
//! `--jobs 2` and `--jobs 8` must reproduce the `--jobs 1` record exactly.
//!
//! On a mismatch the test writes what it produced next to the build's
//! other test output and names that file in the panic message.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use lp_gen::{programs, worlds};

/// Overlap shapes the generated families do not reach: a variable first
/// argument, duplicate ground heads, and ground heads under non-ground
/// ones with the same principal functor.
const OVERLAP: &str = "\
FUNC 0, succ, nil, cons.
TYPE nat, list.
nat >= 0 + succ(nat).
list(A) >= nil + cons(A, list(A)).
PRED q(nat, nat).
q(X, 0).
q(0, Y).
q(0, 0).
q(succ(X), Y).
q(succ(0), 0).
q(0, 0).
q(succ(succ(Z)), succ(Z)).
q(X, Y).
PRED len(list(A), nat).
len(nil, 0).
len(cons(H, T), succ(N)) :- len(T, N).
len(cons(0, nil), succ(0)).
len(nil, 0).
len(L, N).
";

fn corpus() -> Vec<(String, String)> {
    let mut files = vec![
        ("pipeline_12_3".to_string(), programs::pipeline(12, 3)),
        (
            "pipeline_with_errors_8_3_5".to_string(),
            programs::pipeline_with_errors(8, 3, 5),
        ),
        ("fact_base_40".to_string(), programs::fact_base(40)),
        ("nrev_6".to_string(), programs::nrev(6)),
        ("overlap".to_string(), OVERLAP.to_string()),
    ];
    for seed in 0..6 {
        files.push((format!("world_{seed}"), worlds::random_source(seed)));
    }
    files
}

/// Runs `slp lint NAME ARGS...` in `dir`; returns a record of exit code,
/// stdout and stderr.
fn lint(dir: &Path, name: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_slp"))
        .current_dir(dir)
        .arg("lint")
        .arg(name)
        .args(args)
        .output()
        .expect("slp runs");
    format!(
        "=== {name} exit {}\n--- stdout\n{}--- stderr\n{}",
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// Lints the corpus in one format (`tag` names its scratch directory);
/// every `--jobs` value must agree.
fn produce(tag: &str, format: &[&str]) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-corpus-{tag}"));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let mut out = String::new();
    for (stem, src) in corpus() {
        let name = format!("{stem}.slp");
        std::fs::write(dir.join(&name), src).expect("write corpus file");
        let serial = lint(&dir, &name, &[format, &["--jobs", "1"]].concat());
        for jobs in ["2", "8"] {
            let parallel = lint(&dir, &name, &[format, &["--jobs", jobs]].concat());
            assert_eq!(
                parallel, serial,
                "{name}: --jobs {jobs} differs from --jobs 1"
            );
        }
        writeln!(out, "{serial}").unwrap();
    }
    out
}

fn assert_golden(file: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != expected {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{file}.actual"));
        std::fs::write(&dump, actual).expect("write actual output");
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(
                || actual.lines().count().min(expected.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "lint output differs from {} (first difference at line {line}); \
             the output was written to {}",
            golden_path.display(),
            dump.display()
        );
    }
}

#[test]
fn lint_corpus_matches_frozen_human_golden() {
    assert_golden("lint_corpus.txt", &produce("human", &[]));
}

#[test]
fn lint_corpus_matches_frozen_json_golden() {
    assert_golden("lint_corpus.json", &produce("json", &["--format", "json"]));
}
