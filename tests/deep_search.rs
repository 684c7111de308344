//! End-to-end runs at sizes where copying the substitution into every
//! choice point made `slp` quadratic in time and memory: a 1024-cell list
//! built by doubling, and the Theorem-6 audit of naive reverse on 40
//! elements. The assertions are on answers and counts, never on wall time.

use std::process::Command;

use lp_gen::programs;

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("slp-deep-search-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// Runs `slp` and returns (success, stdout, stderr).
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

/// The value of `"name":N` in a `--stats --format json` document.
fn counter(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {stats}"))
        + key.len();
    stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// `pow(k, nil, L)` builds a list of 2^k cells (each level calls the level
/// below twice); `last/2` then walks it.
fn doubling(k: usize) -> String {
    let mut n = String::from("0");
    for _ in 0..k {
        n = format!("succ({n})");
    }
    format!(
        "FUNC 0, succ, nil, cons.
         TYPE nat, elist, nelist, list.
         nat >= 0 + succ(nat).
         elist >= nil.
         nelist(A) >= cons(A, list(A)).
         list(A) >= elist + nelist(A).
         PRED pow(nat, list(nat), list(nat)).
         PRED last(list(nat), nat).
         pow(0, L, cons(0, L)).
         pow(succ(N), L, R) :- pow(N, L, M), pow(N, M, R).
         last(cons(X, nil), X).
         last(cons(Y, cons(Z, L)), X) :- last(cons(Z, L), X).
         :- pow({n}, nil, L), last(L, X).
        "
    )
}

#[test]
fn doubling_to_1024_cells_runs_in_linear_steps() {
    let k = 10;
    let f = write_fixture("pow10.slp", &doubling(k));
    let (ok, stdout, stderr) = slp(&["run", f.to_str().unwrap(), "--stats", "--format", "json"]);
    assert!(ok, "{stderr}");
    assert!(stdout.trim_end().ends_with(", X = 0."), "{stdout}");
    assert_eq!(stdout.matches("cons(0, ").count(), 1 << k);
    // 2^k - 1 `pow` rules, 2^k `pow` facts, 2^k - 1 `last` rules, 1 fact.
    assert_eq!(counter(&stderr, "engine_steps"), 3 * (1 << k) - 1);
}

#[test]
fn audit_of_nrev_40_checks_every_resolvent() {
    let n = 40;
    let f = write_fixture("nrev40.slp", &programs::nrev(n));
    let (ok, stdout, stderr) = slp(&["audit", f.to_str().unwrap(), "-n", "1", "--jobs", "1"]);
    assert!(ok, "{stderr}");
    let resolvents = (n + 1) * (n + 2) / 2;
    assert!(
        stdout.contains(&format!(
            "audited {resolvents} resolvent(s): 0 violation(s), answers consistent"
        )),
        "{stdout}"
    );
}
