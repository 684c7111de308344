//! Property tests pinning the parallel `slp` batch pipeline to the serial
//! one: over randomly generated programs (clean and error-seeded), running
//! `check`/`lint` with `--jobs 4` must produce byte-identical stdout,
//! byte-identical stderr, and the same exit code as `--jobs 1` — in both
//! the human and JSON formats, for a batch and for a single file.
//!
//! The generated corpus comes from `lp_gen::programs`, so every failing
//! case is reproducible from the proptest seed alone.

use std::io::Write;
use std::process::Command;

use lp_gen::programs;
use proptest::prelude::*;

/// Runs `slp` and captures (exit code, stdout, stderr).
fn slp(args: &[&str]) -> (i32, String, String) {
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

/// Writes each source to a distinct fixture file and returns the paths.
/// The batch index keeps concurrent test binaries from clobbering each
/// other's fixtures.
fn write_batch(tag: &str, sources: &[String]) -> Vec<String> {
    let dir = std::env::temp_dir()
        .join("slp-cli-parallel")
        .join(format!("{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let path = dir.join(format!("p{i}.slp"));
            let mut f = std::fs::File::create(&path).unwrap();
            f.write_all(src.as_bytes()).unwrap();
            path.to_str().unwrap().to_string()
        })
        .collect()
}

/// Asserts `--jobs 1` and `--jobs 4` agree byte-for-byte for `cmd` over
/// `files`, and returns the serial run for further checks.
fn assert_jobs_equivalent(
    cmd: &[&str],
    files: &[String],
) -> Result<(i32, String, String), TestCaseError> {
    let file_refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let mut serial: Vec<&str> = cmd.to_vec();
    serial.extend(&file_refs);
    serial.extend(["--jobs", "1"]);
    let mut parallel: Vec<&str> = cmd.to_vec();
    parallel.extend(&file_refs);
    parallel.extend(["--jobs", "4"]);
    let s = slp(&serial);
    let p = slp(&parallel);
    prop_assert_eq!(&s, &p, "--jobs changed observable output for {:?}", cmd);
    Ok(s)
}

proptest! {
    // Each case spawns a dozen slp processes; a modest case count still
    // sweeps many program shapes.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batches mixing well-typed pipelines, error-seeded pipelines, and a
    /// fact base: parallel output is byte-identical to serial for `check`
    /// and for `lint` in both formats, and the exit code is the worst
    /// per-file code.
    #[test]
    fn jobs_equivalence_over_generated_programs(
        n in 1usize..5,
        k in 1usize..4,
        errors in 0usize..3,
        facts in 1usize..20,
    ) {
        let sources = vec![
            programs::pipeline(n, k),
            programs::pipeline_with_errors(n, k, errors),
            programs::fact_base(facts),
            programs::nrev(n),
        ];
        let tag = format!("{n}-{k}-{errors}-{facts}");
        let files = write_batch(&tag, &sources);

        let (check_code, _, check_err) = assert_jobs_equivalent(&["check"], &files)?;
        let (lint_code, lint_out, _) = assert_jobs_equivalent(&["lint"], &files)?;
        assert_jobs_equivalent(&["lint", "--format", "json"], &files)?;
        assert_jobs_equivalent(&["lint", "--deny", "warnings"], &files)?;

        // The error-seeded file drives the whole batch's exit code.
        if errors > 0 {
            prop_assert_eq!(check_code, 2, "stderr: {}", check_err);
            prop_assert_eq!(lint_code, 2, "stdout: {}", lint_out);
        } else {
            prop_assert_eq!(check_code, 0, "stderr: {}", check_err);
        }

        // Single-file clause-level parallelism agrees too: a clean and an
        // erroring program, and the fact base with its duplicate facts.
        for file in [&files[0], &files[1], &files[2]] {
            let one = std::slice::from_ref(file);
            assert_jobs_equivalent(&["check"], one)?;
            assert_jobs_equivalent(&["lint"], one)?;
            assert_jobs_equivalent(&["lint", "--format", "json"], one)?;
            assert_jobs_equivalent(&["lint", "--deny", "warnings"], one)?;
        }
    }
}

/// A 1,500-way enumeration type over four facts. The loader keeps the
/// union as a left-nested `+` spine 1,499 deep, and checking recurses down
/// it. Pool workers get the main thread's stack size, so `--jobs 2` must
/// behave exactly like `--jobs 1` instead of overflowing a worker's stack.
#[test]
fn wide_union_checks_the_same_on_pool_workers() {
    let n = 1500;
    let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
    let mut src = format!(
        "FUNC {}.\nTYPE t.\nt >= {}.\nPRED p(t, t).\n",
        names.join(", "),
        names.join(" + ")
    );
    for (i, j) in [(0, 1), (1, 0), (n - 1, 0), (7, n - 2)] {
        src.push_str(&format!("p(c{i}, c{j}).\n"));
    }
    let files = write_batch("wide-union", &[src]);
    let serial = slp(&["check", &files[0], "--jobs", "1"]);
    let parallel = slp(&["check", &files[0], "--jobs", "2"]);
    assert_eq!(serial.0, 0, "--jobs 1 stderr: {}", serial.2);
    assert_eq!(parallel, serial, "--jobs 2 differs from --jobs 1");
}
