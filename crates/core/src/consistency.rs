//! Runtime consistency auditing (paper §6, Theorem 6).
//!
//! Theorem 6: *every resolvent of a well-typed negative clause and a
//! well-typed program clause is well-typed*; a corollary is that every
//! answer substitution computed by a well-typed program is type consistent.
//!
//! The [`Auditor`] validates this empirically: it runs a query on the SLD
//! engine and re-checks **every resolvent produced during execution** as a
//! negative clause, recording any violation. For well-typed programs the
//! violation list must stay empty (experiment E7); for deliberately
//! ill-typed programs the auditor demonstrates how type errors surface at
//! runtime (fault injection).

use std::collections::BTreeMap;

use lp_engine::{Database, Query, Solution, SolveConfig, Stats, Step};
use lp_parser::Mode;
use lp_term::{Sym, Term};

use crate::modes::resolvent_input_violations;
use crate::welltyped::{Checker, TypeCheckError};

/// A resolvent that failed the well-typedness conditions during execution.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Depth of the resolvent in the SLD derivation.
    pub depth: usize,
    /// The offending resolvent (goal atoms, bindings applied).
    pub resolvent: Vec<Term>,
    /// Why it is ill-typed.
    pub error: TypeCheckError,
}

/// A resolvent whose selected atom broke the mode discipline: an input
/// (`+`) position was not ground at call time (the runtime counterpart of
/// the static `E0601` check, exercised by `slp audit --modes`).
#[derive(Debug, Clone)]
pub struct ModeStepViolation {
    /// Depth of the resolvent in the SLD derivation.
    pub depth: usize,
    /// The called predicate.
    pub pred: Sym,
    /// 0-based input argument position that was not ground.
    pub position: usize,
    /// The offending resolvent (goal atoms, bindings applied).
    pub resolvent: Vec<Term>,
}

/// The outcome of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Resolvents produced (and checked) during the search.
    pub resolvents_checked: u64,
    /// Resolvents that were ill-typed.
    pub violations: Vec<Violation>,
    /// Resolvents whose selected atom was additionally checked for mode
    /// discipline (zero unless run through [`Auditor::run_with_modes`]).
    pub mode_resolvents: u64,
    /// Resolvents whose selected atom had a non-ground input position.
    pub mode_violations: Vec<ModeStepViolation>,
    /// Solutions found (up to the configured limit).
    pub solutions: Vec<Solution>,
    /// Whether every computed answer substitution left the instantiated
    /// query well-typed (the corollary to Theorem 6).
    pub answers_consistent: bool,
    /// Generation stamp of the audited database (see
    /// [`Database::generation`]): records which clause set the verdicts in
    /// this report — and any proof-table entries populated while producing
    /// them — were derived from.
    pub db_generation: u64,
    /// Resolution counters of the underlying SLD search (attempts, steps,
    /// depth cutoffs) — the audit's own engine traffic, so observability
    /// can account for it the same way as an unaudited run.
    pub engine: Stats,
}

impl AuditReport {
    /// Whether the run exhibited no type violation at all.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.answers_consistent
    }

    /// Whether every checked resolvent also respected the mode discipline
    /// (vacuously true when no mode table was supplied).
    pub fn is_well_moded(&self) -> bool {
        self.mode_violations.is_empty()
    }
}

/// Limits for an audited run.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Engine limits (depth/step bounds) for the underlying search.
    pub solve: SolveConfig,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            max_solutions: 10,
            solve: SolveConfig {
                max_steps: Some(100_000),
                ..SolveConfig::default()
            },
        }
    }
}

/// Audits query executions against the well-typedness conditions.
#[derive(Debug, Clone, Copy)]
pub struct Auditor<'a> {
    checker: Checker<'a>,
}

impl<'a> Auditor<'a> {
    /// Creates an auditor wrapping a checker.
    pub fn new(checker: Checker<'a>) -> Self {
        Auditor { checker }
    }

    /// Runs `:- goals.` against `db`, checking every resolvent produced.
    pub fn run(&self, db: &Database, goals: &[Term], config: AuditConfig) -> AuditReport {
        self.run_with_modes(db, goals, config, None)
    }

    /// [`Auditor::run`], additionally checking every resolvent's selected
    /// atom against `modes` (when supplied): its input (`+`) positions must
    /// be ground at call time. Violations land in
    /// [`AuditReport::mode_violations`]; the mode checks never change the
    /// search itself, so solutions and type verdicts are identical to an
    /// unmoded run.
    pub fn run_with_modes(
        &self,
        db: &Database,
        goals: &[Term],
        config: AuditConfig,
        modes: Option<&BTreeMap<Sym, Vec<Mode>>>,
    ) -> AuditReport {
        let mut query = Query::new(db, goals.to_vec(), config.solve);
        let mut report = AuditReport {
            answers_consistent: true,
            db_generation: query.db_generation(),
            ..AuditReport::default()
        };
        let checker = self.checker;
        // The initial goal list is the first resolvent of the derivation;
        // the engine observer only reports the ones resolution produces.
        if let Some(table) = modes {
            report.mode_resolvents += 1;
            for (pred, position) in resolvent_input_violations(table, goals) {
                report.mode_violations.push(ModeStepViolation {
                    depth: 0,
                    pred,
                    position,
                    resolvent: goals.to_vec(),
                });
            }
        }
        loop {
            let mut new_violations: Vec<Violation> = Vec::new();
            let mut new_mode_violations: Vec<ModeStepViolation> = Vec::new();
            let mut checked = 0u64;
            let mut mode_checked = 0u64;
            let solution = query.next_solution_observed(&mut |step: &Step| {
                checked += 1;
                if step.resolvent.is_empty() {
                    return; // the empty clause is trivially well-typed
                }
                if let Err(error) = checker.check_query_verdict(&step.resolvent) {
                    new_violations.push(Violation {
                        depth: step.depth,
                        resolvent: step.resolvent.clone(),
                        error,
                    });
                }
                if let Some(table) = modes {
                    mode_checked += 1;
                    for (pred, position) in resolvent_input_violations(table, &step.resolvent) {
                        new_mode_violations.push(ModeStepViolation {
                            depth: step.depth,
                            pred,
                            position,
                            resolvent: step.resolvent.clone(),
                        });
                    }
                }
            });
            report.resolvents_checked += checked;
            report.mode_resolvents += mode_checked;
            report.violations.extend(new_violations);
            report.mode_violations.extend(new_mode_violations);
            match solution {
                Some(sol) => {
                    // Corollary: the instantiated query must stay well-typed.
                    let instantiated: Vec<Term> =
                        goals.iter().map(|g| sol.answer.resolve(g)).collect();
                    if checker.check_query_verdict(&instantiated).is_err() {
                        report.answers_consistent = false;
                    }
                    report.solutions.push(sol);
                    if report.solutions.len() >= config.max_solutions {
                        report.engine = query.stats();
                        return report;
                    }
                }
                None => {
                    report.engine = query.stats();
                    return report;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::welltyped::PredTypeTable;
    use lp_parser::parse_module;

    const LIST_DECLS: &str = "
        FUNC 0, succ, pred, nil, cons.
        TYPE nat, unnat, int, elist, nelist, list.
        nat >= 0 + succ(nat).
        unnat >= 0 + pred(unnat).
        int >= nat + unnat.
        elist >= nil.
        nelist(A) >= cons(A, list(A)).
        list(A) >= elist + nelist(A).
    ";

    fn audit(src: &str) -> AuditReport {
        let m = parse_module(src).expect("fixture parses");
        let cs = ConstraintSet::from_module(&m)
            .unwrap()
            .checked(&m.sig)
            .unwrap();
        let preds = PredTypeTable::from_module(&m).unwrap();
        let checker = Checker::new(&m.sig, &cs, &preds);
        let db = m.database();
        Auditor::new(checker).run(&db, &m.queries[0].goals, AuditConfig::default())
    }

    #[test]
    fn well_typed_append_run_is_clean() {
        let report = audit(&format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             :- app(cons(0, nil), cons(succ(0), nil), Z).
            "
        ));
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.solutions.len(), 1);
        assert!(report.resolvents_checked >= 2);
    }

    #[test]
    fn enumerating_splits_stays_clean() {
        let report = audit(&format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             :- app(X, Y, cons(0, cons(0, nil))).
            "
        ));
        assert!(report.is_clean());
        assert_eq!(report.solutions.len(), 3);
    }

    #[test]
    fn ill_typed_program_produces_violations() {
        // §5's failure mode, forced through an UNCHECKED program: p expects
        // an int but the fact stores a list; running :- q(X), p(X) with
        // q/p sharing X drags the list into p. We bypass the static checker
        // (which would reject this) and watch the auditor flag resolvents.
        let src = format!(
            "{LIST_DECLS}
             PRED p(int).
             PRED q(list(int)).
             p(nil).           % ill-typed fact (would be rejected statically)
             q(cons(0, nil)).
             :- p(X).
            "
        );
        let m = parse_module(&src).unwrap();
        let cs = ConstraintSet::from_module(&m)
            .unwrap()
            .checked(&m.sig)
            .unwrap();
        let preds = PredTypeTable::from_module(&m).unwrap();
        let checker = Checker::new(&m.sig, &cs, &preds);
        // The program is indeed statically ill-typed (clause 0).
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        assert!(checker.check_program(clauses.iter()).is_err());
        // Dynamically: the query itself is fine, but the answer X = nil is
        // not an int — the corollary check fails.
        let db = m.database();
        let report = Auditor::new(checker).run(&db, &m.queries[0].goals, AuditConfig::default());
        assert!(!report.answers_consistent);
        assert!(!report.is_clean());
    }

    fn audit_modes(src: &str) -> AuditReport {
        let m = parse_module(src).expect("fixture parses");
        let cs = ConstraintSet::from_module(&m)
            .unwrap()
            .checked(&m.sig)
            .unwrap();
        let preds = PredTypeTable::from_module(&m).unwrap();
        let checker = Checker::new(&m.sig, &cs, &preds);
        let db = m.database();
        let modes = crate::modes::ModeAnalysis::new(&m).run().modes;
        Auditor::new(checker).run_with_modes(
            &db,
            &m.queries[0].goals,
            AuditConfig::default(),
            Some(&modes),
        )
    }

    #[test]
    fn well_moded_run_has_no_mode_violations() {
        let report = audit_modes(&format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             MODE app(+, +, -).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             :- app(cons(0, nil), cons(succ(0), nil), Z).
            "
        ));
        assert!(report.is_clean());
        assert!(report.is_well_moded(), "{:?}", report.mode_violations);
        assert!(report.mode_resolvents > 0);
    }

    #[test]
    fn unbound_input_at_runtime_is_a_mode_violation() {
        let src = format!(
            "{LIST_DECLS}
             PRED use(nat). MODE use(+). use(0).
             :- use(X).
            "
        );
        let report = audit_modes(&src);
        // The typing audit is clean (X : nat is consistent) …
        assert!(report.is_clean());
        // … but the selected atom's input position is not ground.
        assert!(!report.is_well_moded());
        assert_eq!(report.mode_violations[0].position, 0);
        assert_eq!(report.mode_violations[0].depth, 0);
    }

    #[test]
    fn unmoded_run_reports_no_mode_traffic() {
        let report = audit(&format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             :- app(cons(0, nil), cons(succ(0), nil), Z).
            "
        ));
        assert_eq!(report.mode_resolvents, 0);
        assert!(report.is_well_moded());
    }

    /// Every resolvent an audit of `:- goals.` checks: the goals
    /// themselves, each resolvent the engine derives, and each answer's
    /// instantiated query.
    fn audited_resolvents(db: &Database, goals: &[Term]) -> Vec<Vec<Term>> {
        let config = AuditConfig::default();
        let mut query = Query::new(db, goals.to_vec(), config.solve);
        let mut out = vec![goals.to_vec()];
        for _ in 0..config.max_solutions {
            let solution = query.next_solution_observed(&mut |step: &Step| {
                if !step.resolvent.is_empty() {
                    out.push(step.resolvent.clone());
                }
            });
            let Some(solution) = solution else { break };
            out.push(goals.iter().map(|g| solution.answer.resolve(g)).collect());
        }
        out
    }

    /// Resolvents checked by the oracle, by the list verdict.
    #[derive(Debug, Default)]
    struct Tally {
        ok: u32,
        ill_typed_atom: u32,
        unsatisfiable: u32,
    }

    /// Audits every query of `src`, untabled and tabled, and requires the
    /// auditor's set verdict to equal the evidence-carrying list verdict,
    /// error included, on every resolvent.
    fn set_verdict_matches_list(src: &str, tally: &mut Tally) {
        let m = parse_module(src).expect("fixture parses");
        let cs = ConstraintSet::from_module(&m)
            .unwrap()
            .checked(&m.sig)
            .unwrap();
        let preds = PredTypeTable::from_module(&m).unwrap();
        let table = std::cell::RefCell::new(crate::table::ProofTable::new());
        let db = m.database();
        for checker in [
            Checker::new(&m.sig, &cs, &preds),
            Checker::with_table(&m.sig, &cs, &preds, &table),
        ] {
            for query in &m.queries {
                for resolvent in audited_resolvents(&db, &query.goals) {
                    let list = checker.check_query(&resolvent).map(drop);
                    let set = checker.check_query_verdict(&resolvent);
                    assert_eq!(set, list, "{src}\nresolvent {resolvent:?}");
                    match list {
                        Ok(()) => tally.ok += 1,
                        Err(TypeCheckError::IllTypedAtom { .. }) => tally.ill_typed_atom += 1,
                        Err(TypeCheckError::UnsatisfiableCommitments { .. }) => {
                            tally.unsatisfiable += 1;
                        }
                        Err(e) => panic!("unexpected check error: {e}"),
                    }
                }
            }
        }
    }

    /// A numeral: `succ` or `pred` applied `depth` times to `0`.
    fn numeral(depth: usize, negative: bool) -> String {
        let f = if negative { "pred" } else { "succ" };
        (0..depth).fold("0".to_string(), |t, _| format!("{f}({t})"))
    }

    #[test]
    fn set_verdict_equals_list_verdict_on_every_audited_resolvent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut sources = Vec::new();
        // Seeded naive reverse: list cells repeat a few numerals, so most
        // of a resolvent's commitments are duplicates.
        let mut rng = StdRng::seed_from_u64(25);
        for n in [0, 1, 4, 9, 14] {
            let mut list = "nil".to_string();
            for _ in 0..n {
                let cell = numeral(rng.gen_range(0..3), rng.gen_bool(0.2));
                list = format!("cons({cell}, {list})");
            }
            let rules = lp_gen::programs::nrev(0);
            let rules = rules.rsplit_once(":- rev(").expect("nrev has a query").0;
            sources.push(format!("{rules}:- rev({list}, R).\n"));
        }
        // The list programs of this module.
        let app = "PRED app(list(A), list(A), list(A)).
                   app(nil, L, L).
                   app(cons(X, L), M, cons(X, N)) :- app(L, M, N).";
        sources.push(format!(
            "{LIST_DECLS} {app}
             :- app(cons(0, nil), cons(succ(0), nil), Z).
             :- app(X, Y, cons(0, cons(pred(0), cons(succ(0), cons(0, nil))))).
             :- app(cons(0, nil), Y, cons(0, cons(0, nil))).
            "
        ));
        // The committed examples that have queries.
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let mut with_queries = 0;
        for name in ["app.slp", "naturals.slp", "modes_demo.slp"] {
            let src = std::fs::read_to_string(format!("{examples}/{name}")).unwrap();
            with_queries += usize::from(src.contains(":-"));
            sources.push(src);
        }
        assert_eq!(with_queries, 3);
        // Fault injection: statically ill-typed programs whose runs reach
        // ill-typed resolvents.
        sources.push(format!(
            "{LIST_DECLS}
             PRED p(int). PRED q(list(int)).
             p(nil). q(cons(0, nil)).
             :- p(X).
             :- q(X), p(Y).
             PRED head(list(int), int).
             head(cons(X, L), X).
             head(nil, nil).
             :- head(L, X).
            "
        ));
        // `eq(X, cons(X, nil))` commits a variable to a type admitting a
        // list of itself, which no type does, so the solve itself fails
        // (the prover runs out of steps: `Ambiguous`). The failing
        // commitment is the first of the first clause's resolvent, after
        // duplicates, and the last of the second's.
        sources.push(format!(
            "{LIST_DECLS}
             PRED eq(A, A). eq(X, X).
             PRED any(A). any(X).
             PRED same(list(A)). same(L).
             PRED loop(A).
             loop(X) :- eq(X, cons(X, nil)), same(cons(0, cons(0, cons(succ(0), nil)))), any(0).
             loop(X) :- any(nil), eq(cons(X, nil), X).
             :- loop(Y).
            "
        ));
        let mut tally = Tally::default();
        for src in &sources {
            set_verdict_matches_list(src, &mut tally);
        }
        // 468 / 6 / 6 when written: each fault resolvent counts once per
        // checker.
        assert!(tally.ok >= 400, "{tally:?}");
        assert!(tally.ill_typed_atom >= 6, "{tally:?}");
        assert!(tally.unsatisfiable >= 6, "{tally:?}");
    }

    #[test]
    fn deep_recursion_audits_every_step() {
        // nrev-style workload: reverse of a 5-element list; every resolvent
        // along the way is checked.
        let report = audit(&format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             PRED rev(list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             rev(nil, nil).
             rev(cons(X, L), R) :- rev(L, T), app(T, cons(X, nil), R).
             :- rev(cons(0, cons(succ(0), cons(0, cons(succ(0), cons(0, nil))))), R).
            "
        ));
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.solutions.len(), 1);
        assert!(report.resolvents_checked > 10);
    }
}
