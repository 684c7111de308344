//! # subtype-lp
//!
//! A complete implementation of the type system of
//! *Type Declarations as Subtype Constraints in Logic Programming*
//! (Dean Jacobs, PLDI 1990): parametric polymorphism with name-based
//! subtypes for logic programs, together with everything needed to use it —
//! a declaration-language front end, an SLD resolution engine, the
//! deterministic subtype prover of §3, the `match` algorithm of §4, the
//! well-typedness checker of §6, a runtime consistency auditor for
//! Theorem 6, and a Mycroft–O'Keefe baseline checker for comparison.
//!
//! The workspace crates are re-exported here under short names:
//!
//! * [`term`] — symbols, terms, substitutions, unification;
//! * [`engine`] — clause database and SLD resolution;
//! * [`parser`] — the `FUNC`/`TYPE`/`PRED`/`>=` declaration language;
//! * [`core`] — the paper's type system;
//! * [`baseline`] — the \[MO84\] comparison checker;
//! * [`gen`] — workload generators used by tests and benchmarks.
//!
//! For most uses, [`TypedProgram`] is the entry point:
//!
//! ```
//! use subtype_lp::TypedProgram;
//!
//! let program = TypedProgram::from_source(
//!     "FUNC 0, succ, pred, nil, cons.
//!      TYPE nat, unnat, int, elist, nelist, list.
//!      nat >= 0 + succ(nat).
//!      unnat >= 0 + pred(unnat).
//!      int >= nat + unnat.
//!      elist >= nil.
//!      nelist(A) >= cons(A, list(A)).
//!      list(A) >= elist + nelist(A).
//!
//!      PRED app(list(A), list(A), list(A)).
//!      app(nil, L, L).
//!      app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
//!
//!      :- app(cons(0, nil), cons(succ(0), nil), Z).",
//! )?;
//!
//! // Static checking: every clause and query respects the PRED types.
//! program.check_all()?;
//!
//! // Execution with consistency auditing (Theorem 6): every resolvent
//! // produced during the run is re-checked.
//! let report = program.audit_query(0, Default::default());
//! assert!(report.is_clean());
//! assert_eq!(report.solutions.len(), 1);
//! # Ok::<(), subtype_lp::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub use lp_baseline as baseline;
pub use lp_engine as engine;
pub use lp_gen as gen;
pub use lp_parser as parser;
pub use lp_term as term;
pub use subtype_core as core;

use lp_engine::{Database, Query, Solution, SolveConfig};
use lp_parser::{Loader, LoaderOptions, Mode, Module, ParseError};
use lp_term::{NameHints, Sym, Term, TermDisplay};
use subtype_core::consistency::{AuditConfig, AuditReport, Auditor};
use subtype_core::modes::{ModeAnalysis, ModeReport};
use subtype_core::welltyped::ClauseTyping;
use subtype_core::TraceEvent;
use subtype_core::{
    CheckedConstraints, Checker, ConstraintSet, Counter, MetricsRegistry, MetricsSnapshot,
    ParallelChecker, PredTypeTable, ProofTable, Prover, ShardedProofTable, TableStats,
    TabledProver, Timer, TypeCheckError, TypeDeclError,
};

/// Any error surfaced by the high-level API.
#[derive(Debug, Clone)]
pub enum Error {
    /// Lexical, syntactic or symbol-resolution error.
    Parse(ParseError),
    /// Ill-formed, non-uniform or unguarded type declarations.
    Declarations(TypeDeclError),
    /// Ill-typed clauses (with their indices) or queries.
    Check(Vec<(usize, TypeCheckError)>),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Declarations(e) => write!(f, "type declaration error: {e}"),
            Error::Check(errors) => {
                writeln!(f, "{} ill-typed clause(s)/query(ies):", errors.len())?;
                for (i, e) in errors {
                    writeln!(f, "  #{i}: {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<TypeDeclError> for Error {
    fn from(e: TypeDeclError) -> Self {
        Error::Declarations(e)
    }
}

/// A parsed, validated, ready-to-check-and-run typed logic program.
///
/// The program owns a [`ProofTable`] shared by every checker, matcher and
/// auditor it hands out, so subtype judgements repeated across clauses,
/// queries and audited resolvents are derived once. Tabling is on by default
/// and can be toggled with [`TypedProgram::set_tabling`]; the table is
/// generation-keyed, so it can never serve verdicts from a different
/// constraint theory (see [`subtype_core::table`]).
#[derive(Debug)]
pub struct TypedProgram {
    module: Module,
    constraints: CheckedConstraints,
    pred_types: PredTypeTable,
    table: RefCell<ProofTable>,
    /// The registry the shared [`ProofTable`] counts into; also receives
    /// checker, engine and audit accounting from this program's methods.
    obs: Arc<MetricsRegistry>,
    tabling: bool,
}

impl Clone for TypedProgram {
    fn clone(&self) -> Self {
        // `ProofTable::clone` seeds a *fresh* registry from a snapshot so the
        // clone accounts independently; keep `obs` pointing at that same
        // fresh registry rather than the original's.
        let table = self.table.clone();
        let obs = table.borrow().metrics().clone();
        TypedProgram {
            module: self.module.clone(),
            constraints: self.constraints.clone(),
            pred_types: self.pred_types.clone(),
            table,
            obs,
            tabling: self.tabling,
        }
    }
}

impl TypedProgram {
    /// Parses `src` and validates its type declarations (Definitions 2, 6
    /// and 9).
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] or [`Error::Declarations`].
    pub fn from_source(src: &str) -> Result<Self, Error> {
        let module = lp_parser::parse_module(src)?;
        Self::from_module(module)
    }

    /// Wraps an already-loaded module.
    ///
    /// # Errors
    ///
    /// [`Error::Declarations`] if the constraints are malformed, non-uniform
    /// or unguarded.
    pub fn from_module(module: Module) -> Result<Self, Error> {
        Self::from_module_with_metrics(module, MetricsRegistry::shared()).map_err(|(e, _)| e)
    }

    /// [`TypedProgram::from_module`], counting into a caller-supplied
    /// registry (shared, for instance, with a [`ShardedProofTable`] or with
    /// other programs in the same batch).
    ///
    /// # Errors
    ///
    /// [`Error::Declarations`] if the constraints are malformed, non-uniform
    /// or unguarded, together with the module, so that the caller can still
    /// resolve the error's spans against it.
    pub fn from_module_with_metrics(
        module: Module,
        obs: Arc<MetricsRegistry>,
    ) -> Result<Self, (Error, Box<Module>)> {
        let (constraints, pred_types) = match Self::validate(&module) {
            Ok(v) => v,
            Err(e) => return Err((e, Box::new(module))),
        };
        Ok(TypedProgram {
            module,
            constraints,
            pred_types,
            table: RefCell::new(ProofTable::with_metrics(obs.clone())),
            obs,
            tabling: true,
        })
    }

    /// Checks `module`'s type declarations (Definitions 2, 6 and 9) and
    /// builds its predicate-type table.
    fn validate(module: &Module) -> Result<(CheckedConstraints, PredTypeTable), Error> {
        let constraints = ConstraintSet::from_module(module)?.checked(&module.sig)?;
        let pred_types =
            PredTypeTable::from_module(module).map_err(|e| Error::Check(vec![(0, e)]))?;
        Ok((constraints, pred_types))
    }

    /// The metrics registry this program (and its shared proof table) counts
    /// into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// A point-in-time snapshot of every counter and timer recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables proof tabling for the checkers and provers this
    /// program hands out. Disabling does not clear the table, so re-enabling
    /// picks the cache back up.
    pub fn set_tabling(&mut self, enabled: bool) {
        self.tabling = enabled;
    }

    /// Builder-style [`TypedProgram::set_tabling`].
    pub fn with_tabling(mut self, enabled: bool) -> Self {
        self.tabling = enabled;
        self
    }

    /// Whether proof tabling is currently enabled.
    pub fn tabling(&self) -> bool {
        self.tabling
    }

    /// The shared proof table (populated lazily by checking and proving).
    pub fn proof_table(&self) -> &RefCell<ProofTable> {
        &self.table
    }

    /// Lifetime hit/miss/insert/evict counters of the shared proof table.
    pub fn table_stats(&self) -> TableStats {
        self.table.borrow().stats()
    }

    /// The underlying module (signature, clauses, queries, hints).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The checked constraint set.
    pub fn constraints(&self) -> &CheckedConstraints {
        &self.constraints
    }

    /// The predicate-type table (`D` of Definition 15).
    pub fn pred_types(&self) -> &PredTypeTable {
        &self.pred_types
    }

    /// A well-typedness checker borrowing this program (tabled unless
    /// disabled via [`TypedProgram::set_tabling`]).
    pub fn checker(&self) -> Checker<'_> {
        let checker = if self.tabling {
            Checker::with_table(
                &self.module.sig,
                &self.constraints,
                &self.pred_types,
                &self.table,
            )
        } else {
            Checker::new(&self.module.sig, &self.constraints, &self.pred_types)
        };
        checker.with_obs(Some(&self.obs))
    }

    /// A deterministic subtype prover borrowing this program.
    pub fn prover(&self) -> Prover<'_> {
        Prover::new(&self.module.sig, &self.constraints)
    }

    /// A caching subtype prover over this program's shared proof table
    /// (regardless of the [`TypedProgram::tabling`] toggle, which only
    /// governs the provers created implicitly by [`TypedProgram::checker`]).
    pub fn tabled_prover(&self) -> TabledProver<'_> {
        TabledProver::new(&self.module.sig, &self.constraints, &self.table)
    }

    /// Checks every program clause (Definition 16).
    ///
    /// # Errors
    ///
    /// [`Error::Check`] with one entry per ill-typed clause.
    pub fn check_clauses(&self) -> Result<Vec<ClauseTyping>, Error> {
        self.checker()
            .check_program(self.module.clauses.iter().map(|c| &c.clause))
            .map_err(Error::Check)
    }

    /// Checks every query.
    ///
    /// # Errors
    ///
    /// [`Error::Check`] with one entry per ill-typed query (indices are
    /// query indices).
    pub fn check_queries(&self) -> Result<Vec<ClauseTyping>, Error> {
        let checker = self.checker();
        let mut typings = Vec::new();
        let mut errors = Vec::new();
        for (i, q) in self.module.queries.iter().enumerate() {
            match checker.check_query(&q.goals) {
                Ok(t) => typings.push(t),
                Err(e) => errors.push((i, e)),
            }
        }
        if errors.is_empty() {
            Ok(typings)
        } else {
            Err(Error::Check(errors))
        }
    }

    /// Checks all clauses and all queries.
    ///
    /// # Errors
    ///
    /// The first of [`Self::check_clauses`] / [`Self::check_queries`] to
    /// fail.
    pub fn check_all(&self) -> Result<(), Error> {
        self.check_clauses()?;
        self.check_queries()?;
        Ok(())
    }

    /// A clause-level parallel checker over `jobs` workers (0 = one per
    /// core) sharing `table` when tabling is wanted.
    ///
    /// This takes a [`ShardedProofTable`] — the same [`ProofTable`] behind
    /// one mutex — instead of the program's own table: the `RefCell` that
    /// wraps it cannot cross threads, and serial callers pay no locking.
    pub fn parallel_checker<'a>(
        &'a self,
        table: Option<&'a ShardedProofTable>,
        jobs: usize,
    ) -> ParallelChecker<'a> {
        let checker = match table {
            Some(t) => ParallelChecker::with_table(
                &self.module.sig,
                &self.constraints,
                &self.pred_types,
                t,
                jobs,
            ),
            None => {
                ParallelChecker::new(&self.module.sig, &self.constraints, &self.pred_types, jobs)
            }
        };
        checker.with_obs(Some(&self.obs))
    }

    /// Checks every program clause across `jobs` worker threads, sharing
    /// subtype derivations through `table`. Error order (and typings) are
    /// identical to [`Self::check_clauses`].
    ///
    /// # Errors
    ///
    /// [`Error::Check`] with one entry per ill-typed clause, ascending.
    pub fn check_clauses_parallel(
        &self,
        table: Option<&ShardedProofTable>,
        jobs: usize,
    ) -> Result<Vec<ClauseTyping>, Error> {
        let clauses: Vec<_> = self.module.clauses.iter().map(|c| &c.clause).collect();
        self.parallel_checker(table, jobs)
            .check_program(&clauses)
            .map_err(Error::Check)
    }

    /// Checks every query across `jobs` worker threads. Error order is
    /// identical to [`Self::check_queries`].
    ///
    /// # Errors
    ///
    /// [`Error::Check`] with one entry per ill-typed query, ascending.
    pub fn check_queries_parallel(
        &self,
        table: Option<&ShardedProofTable>,
        jobs: usize,
    ) -> Result<Vec<ClauseTyping>, Error> {
        let queries: Vec<&[Term]> = self
            .module
            .queries
            .iter()
            .map(|q| q.goals.as_slice())
            .collect();
        self.parallel_checker(table, jobs)
            .check_queries(&queries)
            .map_err(Error::Check)
    }

    /// Builds the engine database for the program's clauses.
    pub fn database(&self) -> Database {
        self.module.database()
    }

    /// Runs query number `index`, returning up to `max_solutions` answers.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn run_query(&self, index: usize, max_solutions: usize) -> Vec<Solution> {
        let db = self.database();
        let goals = self.module.queries[index].goals.clone();
        let started = Instant::now();
        let mut q = Query::new(&db, goals, SolveConfig::default());
        let mut out = Vec::new();
        while out.len() < max_solutions {
            match q.next_solution() {
                Some(s) => out.push(s),
                None => break,
            }
        }
        self.record_solve(started, q.stats());
        out
    }

    /// Folds one finished (or abandoned) search into the registry.
    fn record_solve(&self, started: Instant, stats: engine::Stats) {
        self.obs.observe(Timer::EngineSolve, started.elapsed());
        self.obs.add(Counter::EngineAttempts, stats.attempts);
        self.obs.add(Counter::EngineSteps, stats.steps);
        self.obs
            .add(Counter::EngineDepthCutoffs, stats.depth_cutoffs);
    }

    /// Runs query number `index` under the Theorem 6 consistency auditor.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn audit_query(&self, index: usize, config: AuditConfig) -> AuditReport {
        let db = self.database();
        let started = Instant::now();
        let report =
            Auditor::new(self.checker()).run(&db, &self.module.queries[index].goals, config);
        self.record_solve(started, report.engine);
        self.obs
            .add(Counter::AuditResolvents, report.resolvents_checked);
        report
    }

    /// Runs the fixpoint mode-inference pass over this program: declared
    /// `MODE` predicates are checked, the rest inferred (see
    /// [`subtype_core::modes`]). Inferences count into this program's
    /// registry.
    pub fn mode_report(&self) -> ModeReport {
        ModeAnalysis::new(&self.module)
            .with_obs(Some(&self.obs))
            .run()
    }

    /// [`TypedProgram::audit_query`] under the mode discipline: besides the
    /// Theorem 6 well-typedness check, every resolvent (including the
    /// initial query goals) must keep the selected atom's `+` positions
    /// ground under `modes`. The extra traffic lands in the
    /// `audit_mode_resolvents` / `mode_violations` counters, and each
    /// violating resolvent emits a `mode.audit` trace span.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn audit_query_with_modes(
        &self,
        index: usize,
        config: AuditConfig,
        modes: &BTreeMap<Sym, Vec<Mode>>,
    ) -> AuditReport {
        let db = self.database();
        let started = Instant::now();
        let report = Auditor::new(self.checker()).run_with_modes(
            &db,
            &self.module.queries[index].goals,
            config,
            Some(modes),
        );
        self.record_solve(started, report.engine);
        self.obs
            .add(Counter::AuditResolvents, report.resolvents_checked);
        self.obs
            .add(Counter::AuditModeResolvents, report.mode_resolvents);
        self.obs
            .add(Counter::ModeViolations, report.mode_violations.len() as u64);
        if self.obs.tracing() {
            for v in &report.mode_violations {
                self.obs.trace(&TraceEvent::ModeAudit {
                    pred: self.module.sig.name(v.pred),
                    ok: false,
                });
            }
        }
        report
    }

    /// Displays a term with this program's symbol names.
    pub fn display<'a>(&'a self, t: &'a Term) -> TermDisplay<'a> {
        TermDisplay::new(t, &self.module.sig)
    }

    /// Displays a term with symbol names and variable name hints.
    pub fn display_with<'a>(&'a self, t: &'a Term, hints: &'a NameHints) -> TermDisplay<'a> {
        TermDisplay::new(t, &self.module.sig).with_hints(hints)
    }

    /// Consumes the program, re-opening it as a [`Loader`] (to resolve
    /// additional command-line types, terms or goals).
    pub fn into_loader(self) -> Loader {
        Loader::resume(self.module, LoaderOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        :- app(X, Y, cons(0, nil)).
    ";

    #[test]
    fn end_to_end_check_and_run() {
        let p = TypedProgram::from_source(APP).unwrap();
        p.check_all().unwrap();
        let solutions = p.run_query(0, 10);
        assert_eq!(solutions.len(), 2);
    }

    #[test]
    fn audit_is_clean_for_well_typed_program() {
        let p = TypedProgram::from_source(APP).unwrap();
        let report = p.audit_query(0, AuditConfig::default());
        assert!(report.is_clean());
        assert_eq!(report.solutions.len(), 2);
    }

    #[test]
    fn unguarded_declarations_rejected_at_load() {
        let err = TypedProgram::from_source("TYPE c. c >= c.").unwrap_err();
        assert!(matches!(err, Error::Declarations(_)));
    }

    #[test]
    fn ill_typed_query_reported() {
        let src = format!("{APP}\n:- app(nil, 0, 0).");
        let p = TypedProgram::from_source(&src).unwrap();
        p.check_clauses().unwrap();
        let err = p.check_queries().unwrap_err();
        let Error::Check(errors) = err else {
            panic!("expected Check");
        };
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 1);
    }

    #[test]
    fn tabling_caches_repeat_checks_and_matches_untabled_verdicts() {
        let p = TypedProgram::from_source(APP).unwrap();
        p.check_all().unwrap();
        let first = p.table_stats();
        assert!(
            first.misses > 0,
            "checking APP consults the prover at least once"
        );
        p.check_all().unwrap();
        let second = p.table_stats();
        assert!(second.hits > first.hits, "re-check is served from cache");
        assert_eq!(second.misses, first.misses, "no new derivations needed");
        // The untabled checker reaches the same verdicts.
        let plain = TypedProgram::from_source(APP).unwrap().with_tabling(false);
        plain.check_all().unwrap();
        assert_eq!(plain.table_stats(), Default::default());
    }

    #[test]
    fn audited_runs_reuse_the_table_across_resolvents() {
        let p = TypedProgram::from_source(APP).unwrap();
        let report = p.audit_query(0, AuditConfig::default());
        assert!(report.is_clean());
        let stats = p.table_stats();
        assert!(
            stats.hits > 0,
            "resolvents repeat judgements; expected table hits, got {stats:?}"
        );
    }

    #[test]
    fn loader_roundtrip_resolves_cli_terms() {
        let p = TypedProgram::from_source(APP).unwrap();
        let mut loader = p.into_loader();
        let (ty, _) = loader.parse_type("list(int)").unwrap();
        let (t, _) = loader.parse_program_term("cons(0, nil)").unwrap();
        let module = loader.finish();
        let cs = ConstraintSet::from_module(&module)
            .unwrap()
            .checked(&module.sig)
            .unwrap();
        let prover = Prover::new(&module.sig, &cs);
        assert!(prover.member(&ty, &t).is_proved());
    }
}
