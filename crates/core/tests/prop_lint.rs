//! Property tests for the lint driver: over 200 generated programs —
//! random guarded worlds plus the `lp-gen` program families — linting
//! never panics, is byte-for-byte deterministic across runs, and is
//! unaffected by proof tabling (the `--no-table` CLI switch) and by the
//! number of workers running the per-clause passes.

use lp_gen::{programs, worlds};
use lp_parser::parse_module;
use subtype_core::diag;
use subtype_core::lint::{lint_module, LintOptions};

/// Lints a source string under the given options, returning the rendered
/// human report (the CLI's observable output).
fn lint_text(src: &str, tabling: bool, jobs: usize) -> String {
    let module = parse_module(src)
        .unwrap_or_else(|e| panic!("generated source must parse: {}\n{src}", e.render(src)));
    let diags = lint_module(
        &module,
        &LintOptions {
            tabling,
            jobs,
            ..LintOptions::default()
        },
    );
    diag::render_human_all(&diags, src, "gen.slp")
}

/// The shared property: no panic, deterministic, tabling-invariant, and
/// the same report on 1, 2 or 4 workers.
fn assert_lint_stable(src: &str) {
    let a = lint_text(src, true, 1);
    let b = lint_text(src, true, 1);
    assert_eq!(a, b, "two tabled runs differ on:\n{src}");
    let c = lint_text(src, false, 1);
    assert_eq!(a, c, "tabling changed the report on:\n{src}");
    for jobs in [2, 4] {
        let d = lint_text(src, true, jobs);
        assert_eq!(a, d, "--jobs {jobs} changed the report on:\n{src}");
    }
}

/// Number of random-world seeds. Together with the program families below
/// this keeps the corpus above 200 generated programs; random worlds are by
/// far the most expensive per case (untabled prover searches over arbitrary
/// guarded constraint systems), so the bulk of the volume comes from the
/// cheap families.
const WORLD_SEEDS: u64 = 48;

/// Worlds whose constraint expansions double a type term at each step
/// (such as `c1(A) >= c4(c4(f1(A, A)))`). Their inhabitation queries run
/// out of budget (`W0303`); while the budget counted explored terms
/// rather than their nodes, these grew to gigabytes and aborted.
const EXPLODING_WORLD_SEEDS: [u64; 7] = [2087, 2771, 2875, 3146, 3762, 5805, 8212];

#[test]
fn random_worlds_lint_deterministically() {
    for seed in (0..WORLD_SEEDS).chain(EXPLODING_WORLD_SEEDS) {
        assert_lint_stable(&worlds::random_source(seed));
    }
}

#[test]
fn program_families_lint_deterministically() {
    let mut cases = Vec::new();
    for n in 1..9 {
        for k in 1..5 {
            cases.push(programs::pipeline(n, k));
            cases.push(programs::pipeline_with_errors(n, k, n));
        }
    }
    for n in 0..45 {
        cases.push(programs::nrev(n));
        cases.push(programs::fact_base(n));
    }
    assert!(
        cases.len() as u64 + WORLD_SEEDS >= 200,
        "corpus shrank below the 200-program floor: {} family cases",
        cases.len()
    );
    for src in &cases {
        assert_lint_stable(src);
    }
}

#[test]
fn well_typed_families_have_no_errors() {
    // The well-typed families may trigger style warnings but never a
    // type-level error; the corrupted pipeline always reports E0201.
    for src in [programs::pipeline(3, 2), programs::nrev(4)] {
        let m = parse_module(&src).unwrap();
        let diags = lint_module(&m, &LintOptions::default());
        assert!(
            diags.iter().all(|d| !d.is_error()),
            "unexpected error in well-typed family: {diags:?}"
        );
    }
    let bad = programs::pipeline_with_errors(2, 1, 2);
    let m = parse_module(&bad).unwrap();
    let diags = lint_module(&m, &LintOptions::default());
    assert!(diags.iter().any(|d| d.code == "E0201"), "{diags:?}");
}
