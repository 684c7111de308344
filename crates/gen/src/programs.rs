//! Families of well-typed source programs, parameterized by size.
//!
//! Programs are produced as *source text* so both the Jacobs checker and
//! the MO84 baseline consume exactly the same input through the same
//! front end (experiment F3), and the SLD engine can execute them
//! (experiment F4).

use std::fmt::Write as _;

/// The paper's list/nat type declarations, shared by the program families.
pub const LIST_DECLS: &str = "\
FUNC 0, succ, pred, nil, cons.
TYPE nat, unnat, int, elist, nelist, list.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
elist >= nil.
nelist(A) >= cons(A, list(A)).
list(A) >= elist + nelist(A).
";

/// MO84-expressible list declarations (no constructor-to-constructor
/// subtyping, no overloading): the fragment both checkers accept.
pub const MO84_LIST_DECLS: &str = "\
FUNC nil, cons, 0, succ.
TYPE list, nat.
nat >= 0 + succ(nat).
list(A) >= nil + cons(A, list(A)).
";

/// A pipeline of `n` list predicates, each defined by `k` structurally
/// recursive clauses and calling the next stage — a well-typed program with
/// `n·(k+1)` clauses for throughput benchmarks.
///
/// Uses only the MO84-expressible declarations, so the same text feeds both
/// checkers.
pub fn pipeline(n: usize, k: usize) -> String {
    let mut src = String::from(MO84_LIST_DECLS);
    for i in 0..n {
        writeln!(src, "PRED p{i}(list(A), list(A)).").unwrap();
    }
    for i in 0..n {
        let next = if i + 1 < n {
            format!("p{}", i + 1)
        } else {
            String::new()
        };
        // Base clause.
        writeln!(src, "p{i}(nil, nil).").unwrap();
        for j in 0..k {
            // k recursive clauses, each consuming `j+1` constructors.
            let mut lhs = String::from("T");
            let mut rhs = String::from("R");
            for d in 0..=j {
                lhs = format!("cons(X{d}, {lhs})");
                rhs = format!("cons(X{d}, {rhs})");
            }
            if next.is_empty() {
                writeln!(src, "p{i}({lhs}, {rhs}) :- p{i}(T, R).").unwrap();
            } else {
                writeln!(src, "p{i}({lhs}, {rhs}) :- {next}(T, R).").unwrap();
            }
        }
    }
    src
}

/// The classic naive-reverse workload over typed lists: `rev/2` and `app/3`
/// plus a query reversing a list of `n` numerals. Executing it produces
/// Θ(n²) resolution steps — the standard LIPS workload, used by the
/// consistency-auditing overhead benchmark (F4).
pub fn nrev(n: usize) -> String {
    let mut src = String::from(LIST_DECLS);
    src.push_str(
        "PRED app(list(A), list(A), list(A)).\n\
         PRED rev(list(A), list(A)).\n\
         app(nil, L, L).\n\
         app(cons(X, L), M, cons(X, N)) :- app(L, M, N).\n\
         rev(nil, nil).\n\
         rev(cons(X, L), R) :- rev(L, T), app(T, cons(X, nil), R).\n",
    );
    let mut list = String::from("nil");
    for i in 0..n {
        let mut numeral = String::from("0");
        for _ in 0..(i % 3) {
            numeral = format!("succ({numeral})");
        }
        list = format!("cons({numeral}, {list})");
    }
    writeln!(src, ":- rev({list}, R).").unwrap();
    src
}

/// A program with `n` facts of increasing numeral size for predicate
/// `store/1 : int`, plus a query scanning them — exercises fact indexing and
/// per-resolvent auditing with wide, shallow derivations.
pub fn fact_base(n: usize) -> String {
    let mut src = String::from(LIST_DECLS);
    src.push_str("PRED store(int).\n");
    for i in 0..n {
        let mut numeral = String::from("0");
        let wrapper = if i % 2 == 0 { "succ" } else { "pred" };
        for _ in 0..(i % 5) {
            numeral = format!("{wrapper}({numeral})");
        }
        writeln!(src, "store({numeral}).").unwrap();
    }
    src.push_str(":- store(X).\n");
    src
}

/// A program with `n` pairwise distinct ground facts for `digits/width`,
/// every argument a `nat`: fact `i` holds the `width` low base-4 digits of
/// `i`, each a numeral from `0` to `succ(succ(succ(0)))`. No two heads
/// unify, so an overlap pass that tries every pair of heads does
/// n(n−1)/2 failed unifications. A fixed `width` keeps every fact the
/// same size as `n` grows.
///
/// # Panics
///
/// Panics if `width` is 0 or `n` exceeds `4^width`, where the facts could
/// not be distinct.
pub fn distinct_facts(n: usize, width: u32) -> String {
    assert!(
        width > 0 && 2 * width < usize::BITS && n <= 1 << (2 * width),
        "{n} distinct facts need more than {width} base-4 digits"
    );
    const DIGITS: [&str; 4] = ["0", "succ(0)", "succ(succ(0))", "succ(succ(succ(0)))"];
    let mut src = String::from(LIST_DECLS);
    let args = vec!["nat"; width as usize];
    writeln!(src, "PRED digits({}).", args.join(", ")).unwrap();
    for i in 0..n {
        let digits: Vec<&str> = (0..width).map(|d| DIGITS[i >> (2 * d) & 3]).collect();
        writeln!(src, "digits({}).", digits.join(", ")).unwrap();
    }
    src
}

/// An *ill-typed* variant of [`pipeline`] with `errors` clauses corrupted
/// (a nat pushed into a list position), for negative-path benchmarking and
/// fault-injection tests.
pub fn pipeline_with_errors(n: usize, k: usize, errors: usize) -> String {
    let mut src = pipeline(n, k);
    for e in 0..errors {
        let i = e % n.max(1);
        writeln!(src, "p{i}(cons(0, nil), 0).").unwrap();
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_parser::parse_module;
    use subtype_core::{Checker, ConstraintSet, PredTypeTable};

    fn check_all(src: &str) -> Result<(), String> {
        let m = parse_module(src).map_err(|e| e.render(src))?;
        let cs = ConstraintSet::from_module(&m)
            .map_err(|e| e.to_string())?
            .checked(&m.sig)
            .map_err(|e| e.to_string())?;
        let preds = PredTypeTable::from_module(&m).map_err(|e| e.to_string())?;
        let checker = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        checker
            .check_program(clauses.iter())
            .map(|_| ())
            .map_err(|es| format!("{:?}", es))
    }

    #[test]
    fn pipeline_is_well_typed() {
        for (n, k) in [(1, 1), (3, 2), (8, 3)] {
            let src = pipeline(n, k);
            check_all(&src).unwrap_or_else(|e| panic!("pipeline({n},{k}): {e}"));
        }
    }

    #[test]
    fn pipeline_clause_count_scales() {
        let src = pipeline(10, 2);
        let m = parse_module(&src).unwrap();
        assert_eq!(m.clauses.len(), 10 * 3);
        assert_eq!(m.pred_types.len(), 10);
    }

    #[test]
    fn nrev_is_well_typed_and_runs() {
        let src = nrev(5);
        check_all(&src).unwrap();
        let m = parse_module(&src).unwrap();
        let db = m.database();
        let mut q = lp_engine::Query::new(
            &db,
            m.queries[0].goals.clone(),
            lp_engine::SolveConfig::default(),
        );
        assert!(q.next_solution().is_some());
    }

    #[test]
    fn fact_base_is_well_typed() {
        check_all(&fact_base(20)).unwrap();
    }

    #[test]
    fn distinct_facts_are_well_typed_and_distinct() {
        for (n, width) in [(1, 1), (4, 1), (5, 2), (256, 4)] {
            let src = distinct_facts(n, width);
            check_all(&src).unwrap();
            let m = parse_module(&src).unwrap();
            let heads: std::collections::BTreeSet<_> =
                m.clauses.iter().map(|c| c.clause.head.clone()).collect();
            assert_eq!(heads.len(), n);
        }
    }

    #[test]
    fn corrupted_pipeline_is_rejected() {
        let src = pipeline_with_errors(3, 2, 2);
        assert!(check_all(&src).is_err());
    }

    #[test]
    fn mo84_decls_convert_to_signatures() {
        let m = parse_module(MO84_LIST_DECLS).unwrap();
        let cs = ConstraintSet::from_module(&m).unwrap();
        lp_baseline::FuncSigTable::from_constraints(&m.sig, &cs).expect("convertible");
    }
}
