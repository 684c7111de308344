//! Well-typedness of clauses, queries and programs (paper §§5–6).
//!
//! Definition 16: a program clause `A₀ :- A₁,…,Aₖ.` is well-typed iff there
//! exist substitutions `η₁…ηₖ` such that `match(type(A₀), A₀)` and
//! `match(type(Aᵢ)ηᵢ, Aᵢ)` are all defined and in agreement; a query needs
//! only the body conditions. The effective checker (the constraint-
//! generating matcher, [`cmatch`](crate::cmatch)) realizes the `ηᵢ` as
//! fresh *flexible* type variables and agreement as unification.
//!
//! [`PredTypeTable`] is the paper's set `D` of predicate types, one per
//! predicate symbol (Definitions 14–15).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;

use lp_engine::Clause;
use lp_term::{Signature, Sym, SymKind, Term, Var};

use crate::budget::Budget;
use crate::cmatch::{CMatchFailure, CMatcher, CState, SolveOutcome};
use crate::constraint::CheckedConstraints;
use crate::obs::{Counter, MetricsRegistry, Timer, TraceEvent};
use crate::par;
use crate::shard::ShardedProofTable;
use crate::table::{ProofTable, TableHandle};

/// The fixed set `D` of predicate types (Definition 15).
#[derive(Debug, Clone, Default)]
pub struct PredTypeTable {
    types: HashMap<Sym, Term>,
    /// One past the largest variable of any declared type, kept up to date
    /// by [`PredTypeTable::insert`] so a check need not rescan the table.
    var_watermark: u32,
}

impl PredTypeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the table from a loaded module's `PRED` declarations.
    ///
    /// # Errors
    ///
    /// [`TypeCheckError::DuplicatePredType`] on a duplicate declaration
    /// (the loader also rejects these, so this guards hand-built modules).
    pub fn from_module(module: &lp_parser::Module) -> Result<Self, TypeCheckError> {
        let mut table = PredTypeTable::new();
        for pt in &module.pred_types {
            table.insert(&module.sig, pt.clone())?;
        }
        Ok(table)
    }

    /// Inserts the predicate type `p(τ₁…τₙ)`.
    ///
    /// # Errors
    ///
    /// [`TypeCheckError::DuplicatePredType`] if `p` already has a type;
    /// [`TypeCheckError::NotAPredicate`] if the outermost symbol of the term
    /// is not a predicate symbol.
    pub fn insert(&mut self, sig: &Signature, pred_type: Term) -> Result<(), TypeCheckError> {
        let Some(p) = pred_type.functor() else {
            return Err(TypeCheckError::NotAPredicate {
                detail: "a predicate type must be a predicate application".into(),
            });
        };
        if sig.kind(p) != SymKind::Pred {
            return Err(TypeCheckError::NotAPredicate {
                detail: format!("`{}` is not a predicate symbol", sig.name(p)),
            });
        }
        if self.types.contains_key(&p) {
            return Err(TypeCheckError::DuplicatePredType {
                pred: sig.name(p).to_string(),
            });
        }
        crate::arena::visit_vars(&pred_type, &mut |v| {
            self.var_watermark = self.var_watermark.max(v.0 + 1);
        });
        self.types.insert(p, pred_type);
        Ok(())
    }

    /// The declared type of predicate `p` (Definition 15's `type(A)`).
    pub fn get(&self, p: Sym) -> Option<&Term> {
        self.types.get(&p)
    }

    /// One past the largest type variable of any declared predicate type.
    pub(crate) fn var_watermark(&self) -> u32 {
        self.var_watermark
    }

    /// Number of typed predicates.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates over `(predicate, type)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Term)> {
        self.types.iter().map(|(p, t)| (*p, t))
    }
}

/// Why a clause or query failed the well-typedness conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeCheckError {
    /// A predicate used in the program has no declared type.
    MissingPredType {
        /// The predicate's name.
        pred: String,
    },
    /// Two `PRED` declarations for the same predicate.
    DuplicatePredType {
        /// The predicate's name.
        pred: String,
    },
    /// A predicate type whose outermost symbol is not a predicate.
    NotAPredicate {
        /// Explanation.
        detail: String,
    },
    /// An atom failed constraint matching.
    IllTypedAtom {
        /// Index of the atom within the clause: 0 is the head for program
        /// clauses; for queries, 0 is the first goal.
        atom: usize,
        /// The predicate's name.
        pred: String,
        /// The matcher's reason.
        failure: CMatchFailure,
    },
    /// The clause's collected type-variable commitments (the `η_i` of
    /// Definition 16) have no solution.
    UnsatisfiableCommitments {
        /// The matcher's reason.
        failure: CMatchFailure,
    },
}

impl fmt::Display for TypeCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeCheckError::MissingPredType { pred } => {
                write!(f, "predicate `{pred}` has no PRED declaration")
            }
            TypeCheckError::DuplicatePredType { pred } => {
                write!(f, "duplicate predicate type for `{pred}`")
            }
            TypeCheckError::NotAPredicate { detail } => f.write_str(detail),
            TypeCheckError::IllTypedAtom {
                atom,
                pred,
                failure,
            } => write!(f, "atom #{atom} (`{pred}`) is ill-typed: {failure}"),
            TypeCheckError::UnsatisfiableCommitments { failure } => write!(
                f,
                "the clause's type-variable commitments cannot be satisfied: {failure}"
            ),
        }
    }
}

impl std::error::Error for TypeCheckError {}

/// The per-clause evidence produced by a successful check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClauseTyping {
    /// Each program variable's type, fully resolved. Unresolved flexible
    /// type variables may remain (maximally general commitments).
    pub var_types: BTreeMap<Var, Term>,
    /// The instantiated predicate type of each atom (`type(Aᵢ)ηᵢ` resolved),
    /// in the same order as the atoms checked (head first for clauses).
    pub atom_types: Vec<Term>,
}

/// The result of an *explained* clause or query check: the ordinary
/// verdict plus, when the commitment-solving phase ran, its witnessed
/// outcome — a replayable derivation chain for accepted clauses, a
/// 1-minimal refutation core for `UnsatisfiableCommitments` rejections.
/// `slp explain` renders these through [`crate::witness::replay`].
#[derive(Debug, Clone)]
pub struct CheckExplanation {
    /// The verdict, identical to what [`Checker::check_clause`] /
    /// [`Checker::check_query`] would have returned.
    pub result: Result<ClauseTyping, TypeCheckError>,
    /// Evidence from the phase-2 constraint solve. `None` when the check
    /// failed before solving (e.g. a structural `IllTypedAtom`) or when
    /// no commitments were deferred.
    pub solve: Option<SolveOutcome>,
}

/// The well-typedness checker (Definition 16, effective version).
#[derive(Debug, Clone, Copy)]
pub struct Checker<'a> {
    sig: &'a Signature,
    cs: &'a CheckedConstraints,
    preds: &'a PredTypeTable,
    /// Which proof table every clause's commitment-solving step proves
    /// through (see [`crate::table`]).
    table: TableHandle<'a>,
    /// Observability: clause/query counters, phase timers and check
    /// begin/end spans. `None` costs nothing.
    obs: Option<&'a MetricsRegistry>,
    /// Optional expansion budget inherited by the constraint matcher
    /// (see [`crate::budget::Budget`]). `None` = unbounded.
    budget: Option<&'a Budget>,
}

impl<'a> Checker<'a> {
    /// Creates a checker for the given signature, checked constraints and
    /// predicate types.
    pub fn new(sig: &'a Signature, cs: &'a CheckedConstraints, preds: &'a PredTypeTable) -> Self {
        Self::with_handle(sig, cs, preds, TableHandle::Untabled)
    }

    /// Like [`Checker::new`], but subtype judgements arising while solving
    /// each clause's `η` commitments go through the shared [`ProofTable`], so
    /// judgements repeated across clauses (and across whole re-checks, e.g.
    /// by the Theorem 6 auditor) are derived once.
    pub fn with_table(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        preds: &'a PredTypeTable,
        table: &'a RefCell<ProofTable>,
    ) -> Self {
        Self::with_handle(sig, cs, preds, TableHandle::Local(table))
    }

    /// Like [`Checker::new`], but with an explicit proof-table handle
    /// (possibly a table shared by worker threads).
    pub fn with_handle(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        preds: &'a PredTypeTable,
        table: TableHandle<'a>,
    ) -> Self {
        Checker {
            sig,
            cs,
            preds,
            table,
            obs: None,
            budget: None,
        }
    }

    /// Attaches a metrics registry (builder style): clause/query checks are
    /// counted, timed, and span-traced through it, and the constraint
    /// matcher inherits it for expansion counting.
    pub fn with_obs(mut self, obs: Option<&'a MetricsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches an expansion budget (builder style), inherited by the
    /// constraint matcher of every clause/query check. An exhausted budget
    /// rejects with [`CMatchFailure::BudgetExhausted`] instead of
    /// searching without bound.
    pub fn with_budget(mut self, budget: Option<&'a Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// Checks a program clause (Definition 16, first form).
    ///
    /// # Errors
    ///
    /// A [`TypeCheckError`] naming the offending atom.
    pub fn check_clause(&self, clause: &Clause) -> Result<ClauseTyping, TypeCheckError> {
        let atoms: Vec<&Term> = clause.atoms().collect();
        let started = self.begin_check("clause", Counter::ClauseChecks, Timer::CheckClause);
        let result = self.check_atoms(&atoms, true);
        self.end_check("clause", Timer::CheckClause, started, result.is_ok());
        result
    }

    /// Checks a negative clause / query (Definition 16, second form).
    ///
    /// # Errors
    ///
    /// A [`TypeCheckError`] naming the offending goal.
    pub fn check_query(&self, goals: &[Term]) -> Result<ClauseTyping, TypeCheckError> {
        let atoms: Vec<&Term> = goals.iter().collect();
        let started = self.begin_check("query", Counter::QueryChecks, Timer::CheckQuery);
        let result = self.check_atoms(&atoms, false);
        self.end_check("query", Timer::CheckQuery, started, result.is_ok());
        result
    }

    /// [`Checker::check_query`] without the evidence: the same verdict and
    /// the same `query_checks` counter and `check_query` timer, but no
    /// resolved [`ClauseTyping`] and no witness. The open commitments are
    /// proved as a deduplicated set ([`CMatcher::finalize_verdict`]), so a
    /// long resolvent whose commitments repeat (`α >= d` once per list
    /// cell) costs one prover goal per distinct commitment. The Theorem 6
    /// auditor, which checks every resolvent, needs only this.
    ///
    /// # Errors
    ///
    /// A [`TypeCheckError`] naming the offending goal.
    pub(crate) fn check_query_verdict(&self, goals: &[Term]) -> Result<(), TypeCheckError> {
        let atoms: Vec<&Term> = goals.iter().collect();
        let started = self.begin_check("query", Counter::QueryChecks, Timer::CheckQuery);
        let (mut state, matched) = self.match_atoms(&atoms, false, 0);
        let result = matched.and_then(|_| {
            self.matcher()
                .finalize_verdict(&mut state)
                .map_err(unsatisfiable)
        });
        self.end_check("query", Timer::CheckQuery, started, result.is_ok());
        result
    }

    /// [`Checker::check_clause`] with the evidence kept: same verdict and
    /// same instrumentation, plus the witnessed commitment solve.
    pub fn explain_clause(&self, clause: &Clause) -> CheckExplanation {
        let atoms: Vec<&Term> = clause.atoms().collect();
        let started = self.begin_check("clause", Counter::ClauseChecks, Timer::CheckClause);
        let (result, solve) = self.check_atoms_explained(&atoms, true);
        self.end_check("clause", Timer::CheckClause, started, result.is_ok());
        CheckExplanation { result, solve }
    }

    /// [`Checker::check_query`] with the evidence kept.
    pub fn explain_query(&self, goals: &[Term]) -> CheckExplanation {
        let atoms: Vec<&Term> = goals.iter().collect();
        let started = self.begin_check("query", Counter::QueryChecks, Timer::CheckQuery);
        let (result, solve) = self.check_atoms_explained(&atoms, false);
        self.end_check("query", Timer::CheckQuery, started, result.is_ok());
        CheckExplanation { result, solve }
    }

    /// Counts + traces the start of one clause/query check; returns the
    /// span start instant when observability is on.
    fn begin_check(&self, kind: &str, counter: Counter, _timer: Timer) -> Option<Instant> {
        let o = self.obs?;
        o.incr(counter);
        if o.tracing() {
            o.trace(&TraceEvent::CheckBegin { kind });
        }
        Some(Instant::now())
    }

    /// Records the timer span and the `check.end` trace event.
    fn end_check(&self, kind: &str, timer: Timer, started: Option<Instant>, ok: bool) {
        let (Some(o), Some(started)) = (self.obs, started) else {
            return;
        };
        let elapsed = started.elapsed();
        o.observe(timer, elapsed);
        if o.tracing() {
            o.trace(&TraceEvent::CheckEnd {
                kind,
                ok,
                nanos: elapsed.as_nanos() as u64,
            });
        }
    }

    /// Checks every clause of a program, collecting all errors.
    ///
    /// # Errors
    ///
    /// One `(clause index, error)` pair per ill-typed clause.
    pub fn check_program<'c>(
        &self,
        clauses: impl IntoIterator<Item = &'c Clause>,
    ) -> Result<Vec<ClauseTyping>, Vec<(usize, TypeCheckError)>> {
        let mut typings = Vec::new();
        let mut errors = Vec::new();
        for (i, clause) in clauses.into_iter().enumerate() {
            match self.check_clause(clause) {
                Ok(t) => typings.push(t),
                Err(e) => errors.push((i, e)),
            }
        }
        if errors.is_empty() {
            Ok(typings)
        } else {
            Err(errors)
        }
    }

    /// Shared engine: `rigid_head` marks whether atom 0 is a clause head
    /// (its predicate-type variables must stay rigid).
    fn check_atoms(
        &self,
        atoms: &[&Term],
        rigid_head: bool,
    ) -> Result<ClauseTyping, TypeCheckError> {
        self.check_atoms_explained(atoms, rigid_head).0
    }

    /// [`Checker::check_atoms`] keeping the witnessed phase-2 solve
    /// alongside the verdict (`None` when the check never reached it).
    #[allow(clippy::type_complexity)]
    fn check_atoms_explained(
        &self,
        atoms: &[&Term],
        rigid_head: bool,
    ) -> (Result<ClauseTyping, TypeCheckError>, Option<SolveOutcome>) {
        let (mut state, matched) = self.solve_atoms(atoms, rigid_head, 0);
        let solve = state.take_last_solve();
        let result = matched.map(|atom_types| ClauseTyping {
            var_types: state.all_types(),
            atom_types: atom_types.iter().map(|t| state.resolve(t)).collect(),
        });
        (result, solve)
    }

    /// Matches a clause head alone against its declared type with
    /// *flexible* type variables, then solves the commitments: whether
    /// *some* invocation type matches the head. Fresh type variables are
    /// numbered from at least `floor`.
    ///
    /// # Errors
    ///
    /// The matcher's reason when no invocation type matches the head.
    ///
    /// # Panics
    ///
    /// If the head's predicate has no declared type.
    pub(crate) fn match_head(&self, head: &Term, floor: u32) -> Result<CState, CMatchFailure> {
        let (state, matched) = self.solve_atoms(&[head], false, floor);
        match matched {
            Ok(_) => Ok(state),
            Err(
                TypeCheckError::IllTypedAtom { failure, .. }
                | TypeCheckError::UnsatisfiableCommitments { failure },
            ) => Err(failure),
            Err(e) => panic!("head match needs a declared type: {e}"),
        }
    }

    /// The constraint matcher every check of this checker runs.
    fn matcher(&self) -> CMatcher<'a> {
        CMatcher::with_handle(self.sig, self.cs, self.table)
            .with_obs(self.obs)
            .with_budget(self.budget)
    }

    /// [`Checker::match_atoms`], then the collected η commitments solved
    /// with evidence ([`CMatcher::finalize`], paper §7). The returned state
    /// holds the witnessed solve whether it succeeded or not.
    fn solve_atoms(
        &self,
        atoms: &[&Term],
        rigid_head: bool,
        floor: u32,
    ) -> (CState, Result<Vec<Term>, TypeCheckError>) {
        let (mut state, matched) = self.match_atoms(atoms, rigid_head, floor);
        let result = matched.and_then(|atom_types| {
            self.matcher()
                .finalize(&mut state)
                .map(|()| atom_types)
                .map_err(unsatisfiable)
        });
        (state, result)
    }

    /// Matches every atom against its renamed predicate type, collecting
    /// the η commitments unsolved. Returns the matching state and either
    /// each atom's (unresolved) instantiated type or the first failure.
    /// Fresh type variables are numbered from at least `floor`.
    fn match_atoms(
        &self,
        atoms: &[&Term],
        rigid_head: bool,
        floor: u32,
    ) -> (CState, Result<Vec<Term>, TypeCheckError>) {
        // Fresh type variables must not collide with program variables.
        // Allocation-free walk: `Term::vars` would build a set per atom
        // just to fold a maximum over it.
        let mut watermark = self.preds.var_watermark().max(floor);
        for a in atoms {
            crate::arena::visit_vars(a, &mut |v| watermark = watermark.max(v.0 + 1));
        }
        let mut state = CState::new(watermark);
        let cm = self.matcher();
        let mut atom_types = Vec::with_capacity(atoms.len());
        for (index, atom) in atoms.iter().enumerate() {
            let p = atom.functor().expect("atoms are applications");
            let Some(declared) = self.preds.get(p) else {
                let pred = self.sig.name(p).to_string();
                return (state, Err(TypeCheckError::MissingPredType { pred }));
            };
            // Rename the predicate type apart; head variables are rigid,
            // body (and query) variables flexible — they are the ηᵢ.
            let rigid = rigid_head && index == 0;
            let renamed = rename_apart(declared, &mut state, rigid);
            atom_types.push(renamed.clone());
            for (tau_i, t_i) in renamed.args().iter().zip(atom.args()) {
                if let Err(failure) = cm.cmatch(&mut state, tau_i, t_i) {
                    let error = TypeCheckError::IllTypedAtom {
                        atom: index,
                        pred: self.sig.name(p).to_string(),
                        failure,
                    };
                    return (state, Err(error));
                }
            }
        }
        (state, Ok(atom_types))
    }
}

/// A failed commitment solve as a check error.
fn unsatisfiable(failure: CMatchFailure) -> TypeCheckError {
    TypeCheckError::UnsatisfiableCommitments { failure }
}

/// A clause-level parallel front end for [`Checker`].
///
/// Definition 16 checks each clause (and each query) in isolation — no
/// state flows between them — so the program-wide check is embarrassingly
/// parallel. `ParallelChecker` dispatches clauses across the workspace
/// worker pool ([`crate::par`] — a worker that frees up claims the next
/// chunk of clauses from one shared cursor, so none idles behind a fixed
/// partition); workers share one
/// [`ShardedProofTable`] (when tabling is on) — the serial checker's
/// [`ProofTable`] behind one mutex, locked only to probe
/// or write — so a judgement derived for one clause is a cache hit for every
/// other clause on any thread.
///
/// Results are reassembled in clause order, so the error list (and the
/// typings) are **identical** to a serial [`Checker::check_program`] run:
/// cached answers are translated back into each call's own variables
/// exactly as a live derivation would have produced them (see
/// [`crate::table`]), and eviction or scheduling differences can only move
/// work between hit and miss, never change a verdict.
#[derive(Debug, Clone, Copy)]
pub struct ParallelChecker<'a> {
    sig: &'a Signature,
    cs: &'a CheckedConstraints,
    preds: &'a PredTypeTable,
    /// `None` = untabled workers; `Some` = all workers share this table.
    table: Option<&'a ShardedProofTable>,
    jobs: usize,
    /// Observability shared by every worker's serial checker.
    obs: Option<&'a MetricsRegistry>,
    /// One shared expansion budget bounding all workers together.
    budget: Option<&'a Budget>,
}

impl<'a> ParallelChecker<'a> {
    /// An untabled parallel checker with up to `jobs` workers (0 = one per
    /// available core).
    pub fn new(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        preds: &'a PredTypeTable,
        jobs: usize,
    ) -> Self {
        ParallelChecker {
            sig,
            cs,
            preds,
            table: None,
            jobs,
            obs: None,
            budget: None,
        }
    }

    /// Like [`ParallelChecker::new`], but every worker proves through the
    /// shared table.
    pub fn with_table(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        preds: &'a PredTypeTable,
        table: &'a ShardedProofTable,
        jobs: usize,
    ) -> Self {
        ParallelChecker {
            sig,
            cs,
            preds,
            table: Some(table),
            jobs,
            obs: None,
            budget: None,
        }
    }

    /// Attaches a metrics registry (builder style) shared by every worker.
    /// The registry's atomics are `Sync`, so workers report concurrently
    /// without coordination.
    pub fn with_obs(mut self, obs: Option<&'a MetricsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches one shared expansion budget (builder style): the atomic
    /// spend tally bounds all workers *together*, so a parallel check
    /// consumes the same total budget as a serial one.
    pub fn with_budget(mut self, budget: Option<&'a Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// The per-worker serial checker.
    fn checker(&self) -> Checker<'a> {
        let handle = match self.table {
            Some(t) => TableHandle::Shared(t),
            None => TableHandle::Untabled,
        };
        Checker::with_handle(self.sig, self.cs, self.preds, handle)
            .with_obs(self.obs)
            .with_budget(self.budget)
    }

    /// Checks every clause of a program across the worker pool, collecting
    /// all errors in clause order (the same contract as
    /// [`Checker::check_program`]).
    ///
    /// # Errors
    ///
    /// One `(clause index, error)` pair per ill-typed clause, ascending.
    pub fn check_program(
        &self,
        clauses: &[&Clause],
    ) -> Result<Vec<ClauseTyping>, Vec<(usize, TypeCheckError)>> {
        let results = par::run_indexed(self.jobs, clauses, self.obs, |_, clause| {
            self.checker().check_clause(clause)
        });
        collect_indexed(results)
    }

    /// Checks every query across the worker pool, collecting all errors in
    /// query order.
    ///
    /// # Errors
    ///
    /// One `(query index, error)` pair per ill-typed query, ascending.
    pub fn check_queries(
        &self,
        queries: &[&[Term]],
    ) -> Result<Vec<ClauseTyping>, Vec<(usize, TypeCheckError)>> {
        let results = par::run_indexed(self.jobs, queries, self.obs, |_, goals| {
            self.checker().check_query(goals)
        });
        collect_indexed(results)
    }
}

/// Splits per-item results into all-typings or the indexed error list —
/// byte-compatible with the serial checker's accumulation order.
fn collect_indexed(
    results: Vec<Result<ClauseTyping, TypeCheckError>>,
) -> Result<Vec<ClauseTyping>, Vec<(usize, TypeCheckError)>> {
    let mut typings = Vec::new();
    let mut errors = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(t) => typings.push(t),
            Err(e) => errors.push((i, e)),
        }
    }
    if errors.is_empty() {
        Ok(typings)
    } else {
        Err(errors)
    }
}

/// Renames a predicate type with fresh (rigid or flexible) type variables,
/// shared occurrences staying shared.
fn rename_apart(pred_type: &Term, state: &mut CState, rigid: bool) -> Term {
    let mut map = std::collections::HashMap::new();
    pred_type.map_vars(&mut |v| {
        let w = *map.entry(v).or_insert_with(|| {
            if rigid {
                state.fresh_rigid()
            } else {
                state.fresh_flexible()
            }
        });
        Term::Var(w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_parser::parse_module;

    use crate::constraint::ConstraintSet;

    /// Paper fixtures: lists + nat world with various PRED declarations.
    fn setup(src: &str) -> (lp_parser::Module, CheckedConstraints, PredTypeTable) {
        let m = parse_module(src).expect("fixture parses");
        let cs = ConstraintSet::from_module(&m)
            .expect("constraints valid")
            .checked(&m.sig)
            .expect("uniform and guarded");
        let preds = PredTypeTable::from_module(&m).expect("pred types valid");
        (m, cs, preds)
    }

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

    #[test]
    fn paper_app_program_is_well_typed() {
        // §1: PRED app(list(A), list(A), list(A)) with the usual clauses.
        let src = format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        let typings = checker.check_program(clauses.iter()).expect("well-typed");
        assert_eq!(typings.len(), 2);
        // In the second clause, X : A and L, M, N : list(A).
        let t = &typings[1];
        assert_eq!(t.var_types.len(), 4);
    }

    #[test]
    fn paper_query_app_nil_0_0_is_rejected() {
        // §1: "this rules out certain successful queries, such as
        // :- app(nil, 0, 0)."
        let src = format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             :- app(nil, 0, 0).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_query(&m.queries[0].goals).unwrap_err();
        assert!(matches!(err, TypeCheckError::IllTypedAtom { atom: 0, .. }));
    }

    #[test]
    fn paper_aliasing_query_rejected() {
        // §5: PRED p(int). PRED q(list(A)). The query :- p(X), q(X) must be
        // rejected — X would appear as both an int and a list(A).
        let src = format!(
            "{LIST_DECLS}
             PRED p(int).
             PRED q(list(A)).
             :- p(X), q(X).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_query(&m.queries[0].goals).unwrap_err();
        let TypeCheckError::IllTypedAtom { failure, .. } = err else {
            panic!("expected IllTypedAtom");
        };
        assert!(matches!(failure, CMatchFailure::VariableClash { .. }));
    }

    #[test]
    fn paper_clause_crossing_type_contexts_rejected() {
        // §5: PRED r(list(A)). r(X) :- p(X). with PRED p(int).
        let src = format!(
            "{LIST_DECLS}
             PRED p(int).
             PRED r(list(A)).
             r(X) :- p(X).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_clause(&m.clauses[0].clause).unwrap_err();
        assert!(matches!(err, TypeCheckError::IllTypedAtom { atom: 1, .. }));
    }

    #[test]
    fn paper_repeated_head_variable_rejected() {
        // §5: PRED s(int, list(A)). s(X, X).
        let src = format!(
            "{LIST_DECLS}
             PRED s(int, list(A)).
             s(X, X).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_clause(&m.clauses[0].clause).unwrap_err();
        assert!(matches!(err, TypeCheckError::IllTypedAtom { atom: 0, .. }));
    }

    #[test]
    fn paper_head_commitment_rejected() {
        // §5: PRED p(list(A)). The clause p(cons(nil, nil)). must be
        // rejected — it would commit A to elist.
        let src = format!(
            "{LIST_DECLS}
             PRED p(list(A)).
             p(cons(nil, nil)).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_clause(&m.clauses[0].clause).unwrap_err();
        let TypeCheckError::IllTypedAtom { failure, .. } = err else {
            panic!("expected IllTypedAtom");
        };
        assert!(matches!(failure, CMatchFailure::RigidCommitment { .. }));
    }

    #[test]
    fn paper_body_commitment_accepted() {
        // §5: PRED p(list(A)). PRED q(list(int)). The query :- p(X), q(X).
        // is acceptable — X may be assigned list(int) (η commits A := int).
        let src = format!(
            "{LIST_DECLS}
             PRED p(list(A)).
             PRED q(list(int)).
             :- p(X), q(X).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let typing = checker.check_query(&m.queries[0].goals).expect("accepted");
        // X ends up typed list(int).
        let x_type = typing.var_types.values().next().expect("X typed");
        let list = m.sig.lookup("list").unwrap();
        let int = m.sig.lookup("int").unwrap();
        assert_eq!(x_type, &Term::app(list, vec![Term::constant(int)]));
    }

    #[test]
    fn section7_nat_int_query_rejected_as_written() {
        // §7: PRED p(nat). PRED q(int). :- p(X), q(X). is NOT expressible
        // without a conversion predicate — the checker rejects it (nat and
        // int are different type contexts; agreement is syntactic).
        let src = format!(
            "{LIST_DECLS}
             PRED p(nat).
             PRED q(int).
             :- p(X), q(X).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        assert!(checker.check_query(&m.queries[0].goals).is_err());
    }

    #[test]
    fn section7_int2nat_filtering_program_is_well_typed() {
        // §7: the int2nat conversion predicate and the reformulated query.
        let src = format!(
            "{LIST_DECLS}
             PRED p(nat).
             PRED q(int).
             PRED int2nat(int, nat).
             int2nat(0, 0).
             int2nat(succ(X), succ(X)).
             p(0).
             q(0).
             :- p(X), int2nat(Y, X), q(Y).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        checker.check_program(clauses.iter()).expect("well-typed");
        checker
            .check_query(&m.queries[0].goals)
            .expect("filtered query accepted");
    }

    #[test]
    fn missing_pred_type_is_reported() {
        let src = format!("{LIST_DECLS} p(nil).");
        let m = parse_module(&src).unwrap();
        let cs = ConstraintSet::from_module(&m)
            .unwrap()
            .checked(&m.sig)
            .unwrap();
        let preds = PredTypeTable::new();
        let checker = Checker::new(&m.sig, &cs, &preds);
        let err = checker.check_clause(&m.clauses[0].clause).unwrap_err();
        assert!(matches!(err, TypeCheckError::MissingPredType { .. }));
    }

    #[test]
    fn subtype_use_in_facts_is_accepted() {
        // Facts may use subtypes covariantly: storing a nat where an int is
        // expected is fine.
        let src = format!(
            "{LIST_DECLS}
             PRED q(int).
             q(succ(0)).
             q(pred(0)).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        checker.check_program(clauses.iter()).expect("well-typed");
    }

    #[test]
    fn check_program_collects_all_errors() {
        let src = format!(
            "{LIST_DECLS}
             PRED p(nat).
             p(pred(0)).
             p(0).
             p(cons(nil, nil)).
            "
        );
        let (m, cs, preds) = setup(&src);
        let checker = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<_> = m.clauses.iter().map(|c| c.clause.clone()).collect();
        let errors = checker.check_program(clauses.iter()).unwrap_err();
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].0, 0);
        assert_eq!(errors[1].0, 2);
    }

    #[test]
    fn parallel_checker_matches_serial_verdicts_and_order() {
        let src = format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             PRED p(nat).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
             p(pred(0)).
             p(0).
             p(cons(nil, nil)).
             :- app(nil, 0, 0).
             :- app(X, Y, cons(0, nil)).
            "
        );
        let (m, cs, preds) = setup(&src);
        let serial = Checker::new(&m.sig, &cs, &preds);
        let clauses: Vec<&lp_engine::Clause> = m.clauses.iter().map(|c| &c.clause).collect();
        let queries: Vec<&[Term]> = m.queries.iter().map(|q| q.goals.as_slice()).collect();
        let serial_errs = serial.check_program(clauses.iter().copied()).unwrap_err();

        for jobs in [1usize, 4] {
            let table = ShardedProofTable::new();
            let par = ParallelChecker::with_table(&m.sig, &cs, &preds, &table, jobs);
            let par_errs = par.check_program(&clauses).unwrap_err();
            assert_eq!(
                serial_errs, par_errs,
                "clause errors diverge at jobs={jobs}"
            );
            let q_serial: Vec<_> = queries
                .iter()
                .enumerate()
                .filter_map(|(i, g)| serial.check_query(g).err().map(|e| (i, e)))
                .collect();
            let q_par = par.check_queries(&queries).unwrap_err();
            assert_eq!(q_serial, q_par, "query errors diverge at jobs={jobs}");
        }
    }

    #[test]
    fn parallel_checker_accepts_and_types_identically() {
        let src = format!(
            "{LIST_DECLS}
             PRED app(list(A), list(A), list(A)).
             app(nil, L, L).
             app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
            "
        );
        let (m, cs, preds) = setup(&src);
        let clauses: Vec<&lp_engine::Clause> = m.clauses.iter().map(|c| &c.clause).collect();
        let serial = Checker::new(&m.sig, &cs, &preds)
            .check_program(clauses.iter().copied())
            .expect("well-typed");
        let table = ShardedProofTable::new();
        let par = ParallelChecker::with_table(&m.sig, &cs, &preds, &table, 4)
            .check_program(&clauses)
            .expect("well-typed");
        assert_eq!(serial, par, "typings must be identical, hit or miss");
    }
}
