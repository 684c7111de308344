//! Golden tests for `slp lint`: the committed outputs under `tests/golden/`
//! must match the binary byte for byte, in both human and JSON formats,
//! with and without tabling.
//!
//! The binary is invoked from the crate root with a relative path so the
//! file names embedded in the output match a `./ci.sh` invocation.

use std::path::Path;
use std::process::Command;

/// Runs `slp lint` from the crate root; returns (exit code, stdout, stderr).
fn lint(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_slp"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .arg("lint")
        .args(args)
        .output()
        .expect("slp runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Asserts that linting `example` matches the committed goldens in both
/// formats, tabled and untabled, and exits with `expect_code`.
fn check_example(example: &str, stem: &str, expect_code: i32) {
    let file = format!("examples/{example}");
    for extra in [&[][..], &["--no-table"][..]] {
        let mut args = vec![file.as_str()];
        args.extend_from_slice(extra);
        let (code, stdout, stderr) = lint(&args);
        assert_eq!(code, expect_code, "{example} {extra:?}: {stdout}{stderr}");
        assert_eq!(
            stdout,
            golden(&format!("{stem}.txt")),
            "{example} {extra:?}"
        );
        assert_eq!(stderr, "", "{example} {extra:?}");

        let mut jargs = vec![file.as_str(), "--format", "json"];
        jargs.extend_from_slice(extra);
        let (jcode, jstdout, _) = lint(&jargs);
        assert_eq!(jcode, expect_code);
        assert_eq!(jstdout, golden(&format!("{stem}.json")), "{example} json");
    }
}

#[test]
fn lint_scaled_matches_golden() {
    // 159 lines: the excerpt gutter widens to three digits.
    check_example("lint_scaled.slp", "lint_scaled", 2);
}

#[test]
fn lint_demo_matches_golden() {
    check_example("lint_demo.slp", "lint_demo", 2);
}

#[test]
fn app_is_clean_and_matches_golden() {
    check_example("app.slp", "app", 0);
}

#[test]
fn naturals_is_clean_and_matches_golden() {
    check_example("naturals.slp", "naturals", 0);
}

#[test]
fn demo_reports_every_pass() {
    let (_, stdout, _) = lint(&["examples/lint_demo.slp"]);
    for code in [
        "E0201", "E0202", "W0301", "W0302", "W0401", "W0402", "W0403", "W0404", "W0405", "W0501",
        "W0502",
    ] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
}

#[test]
fn deny_warnings_flips_exit_code() {
    // lint_demo has errors: always 2, --deny changes nothing.
    let (code, _, _) = lint(&["examples/lint_demo.slp", "--deny", "warnings"]);
    assert_eq!(code, 2);
    // A warnings-only file: 0 normally, 1 under --deny warnings.
    let dir = std::env::temp_dir().join("slp-lint-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let warny = dir.join("warny.slp");
    std::fs::write(
        &warny,
        "FUNC 0, orphan. TYPE nat. nat >= 0. PRED p(nat). p(0). :- p(0).\n",
    )
    .unwrap();
    let (code, stdout, _) = lint(&[warny.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("W0402"), "{stdout}");
    let (code, _, _) = lint(&[warny.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(code, 1);
}

#[test]
fn json_mode_round_trips_spans() {
    let (_, stdout, _) = lint(&["examples/lint_demo.slp", "--format", "json"]);
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/lint_demo.slp"),
    )
    .unwrap();
    // Hand-rolled spot check (no JSON dependency): every reported span's
    // start/end offsets slice the source at char boundaries and are
    // non-empty and in range.
    let mut checked = 0;
    for piece in stdout.split("\"span\":{").skip(1) {
        let obj = &piece[..piece.find('}').unwrap()];
        let field = |name: &str| -> usize {
            let at = obj.find(name).unwrap() + name.len();
            obj[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let (start, end) = (field("\"start\":"), field("\"end\":"));
        assert!(start < end && end <= src.len(), "span {start}..{end}");
        assert!(src.is_char_boundary(start) && src.is_char_boundary(end));
        checked += 1;
    }
    assert!(checked >= 10, "expected many spans, saw {checked}");
}

#[test]
fn section3_rejections_render_with_caret() {
    let dir = std::env::temp_dir().join("slp-lint-golden");
    std::fs::create_dir_all(&dir).unwrap();
    // Non-uniform: repeated parameter on the left-hand side.
    let nonuniform = dir.join("nonuniform.slp");
    std::fs::write(&nonuniform, "FUNC a. TYPE t.\nt(A, A) >= a.\n").unwrap();
    let (code, stdout, _) = lint(&[nonuniform.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stdout.contains("E0102"), "{stdout}");
    assert!(stdout.contains("t(A, A) >= a."), "{stdout}");
    assert!(stdout.contains('^'), "{stdout}");
    // Unguarded: t and u depend directly on each other.
    let unguarded = dir.join("unguarded.slp");
    std::fs::write(&unguarded, "TYPE t, u.\nt >= u.\nu >= t.\n").unwrap();
    let (code, stdout, _) = lint(&[unguarded.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stdout.contains("E0103"), "{stdout}");
    assert!(stdout.contains('^'), "{stdout}");
    // `slp check` renders the same §3 rejection to stderr.
    let (code2, _, stderr) = {
        let out = Command::new(env!("CARGO_BIN_EXE_slp"))
            .args(["check", unguarded.to_str().unwrap()])
            .output()
            .unwrap();
        (
            out.status.code().unwrap(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(code2, 2);
    assert!(stderr.contains("E0103"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
}

#[test]
fn parse_errors_are_e0001_with_span() {
    let dir = std::env::temp_dir().join("slp-lint-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("syntax.slp");
    std::fs::write(&bad, "FUNC a b.\n").unwrap();
    let (code, stdout, _) = lint(&[bad.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(stdout.contains("E0001"), "{stdout}");
    assert!(stdout.contains(":1:"), "{stdout}");
}

/// The prefix-counting line/column rule the renderers once ran per span,
/// kept as the oracle: the line counts the newlines before `min(start, len)`,
/// the column counts from the last of them to `start`.
fn oracle_line_col(start: usize, source: &str) -> (usize, usize) {
    let upto = &source[..start.min(source.len())];
    let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = upto.rfind('\n').map_or(start + 1, |nl| start - nl);
    (line, col)
}

/// The numeric field `name` (e.g. `"line":`) of a flat JSON object body.
fn json_field(obj: &str, name: &str) -> usize {
    let at = obj.find(name).unwrap_or_else(|| panic!("{name} in {obj}")) + name.len();
    obj[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Every `--> file:L:C` excerpt header of a human report, in order, with
/// the code of its finding and whether it is the finding's primary span.
fn human_positions(report: &str, file: &str) -> Vec<(String, bool, (usize, usize))> {
    let header = format!("--> {file}:");
    let mut code = String::new();
    let mut primary = false;
    let mut out = Vec::new();
    for line in report.lines() {
        if let Some(rest) = line
            .strip_prefix("error[")
            .or_else(|| line.strip_prefix("warning["))
        {
            code = rest[..rest.find(']').unwrap()].to_string();
            primary = true;
        } else if let Some(at) = line.find(&header) {
            let (l, c) = line[at + header.len()..].split_once(':').unwrap();
            out.push((
                code.clone(),
                primary,
                (l.parse().unwrap(), c.parse().unwrap()),
            ));
            primary = false;
        }
    }
    out
}

#[test]
fn scaled_report_positions_match_the_counting_oracle() {
    let dir = std::env::temp_dir().join(format!("slp-lint-scaled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scaled.slp");
    let src = subtype_lp::gen::programs::pipeline_with_errors(700, 3, 5);
    std::fs::write(&path, &src).unwrap();
    let file = path.to_str().unwrap();

    // JSON: every primary and related span resolves as the oracle does.
    let (code, json, _) = lint(&[file, "--format", "json"]);
    assert_eq!(code, 2);
    let mut json_positions = Vec::new();
    for piece in json.split("\"span\":{").skip(1) {
        let obj = &piece[..piece.find('}').unwrap()];
        let start = json_field(obj, "\"start\":");
        let got = (json_field(obj, "\"line\":"), json_field(obj, "\"column\":"));
        assert_eq!(got, oracle_line_col(start, &src), "span at {start}");
        json_positions.push(got);
    }
    assert!(
        json_positions.len() > 2_000,
        "{} spans",
        json_positions.len()
    );
    assert!(json_positions.iter().any(|&(line, _)| line >= 1_000));
    assert_eq!(json.matches("\"severity\":\"error\"").count(), 5);

    // Human: the excerpt headers are the same spans in the same order.
    let (code, human, _) = lint(&[file]);
    assert_eq!(code, 2);
    let lint_positions = human_positions(&human, file);
    let headers: Vec<(usize, usize)> = lint_positions.iter().map(|p| p.2).collect();
    assert_eq!(headers, json_positions);
    assert!(human.contains(&format!("{file}: 5 error(s), ")), "summary");

    // `slp check` places its E0201 rejections where lint does.
    let out = Command::new(env!("CARGO_BIN_EXE_slp"))
        .args(["check", file])
        .output()
        .expect("slp runs");
    assert_eq!(out.status.code(), Some(2));
    let e0201 = |positions: Vec<(String, bool, (usize, usize))>| -> Vec<(usize, usize)> {
        positions
            .into_iter()
            .filter(|(code, primary, _)| code == "E0201" && *primary)
            .map(|p| p.2)
            .collect()
    };
    let check_errors = e0201(human_positions(&String::from_utf8_lossy(&out.stderr), file));
    assert_eq!(check_errors.len(), 5, "{check_errors:?}");
    assert_eq!(check_errors, e0201(lint_positions));
    std::fs::remove_dir_all(&dir).ok();
}
