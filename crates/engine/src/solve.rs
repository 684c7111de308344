//! Leftmost-selection SLD resolution with chronological backtracking.
//!
//! The solver explores the SLD tree depth-first, clauses in source order,
//! exactly the computation rule the paper assumes ("without loss of
//! generality we assume the leftmost atom is always selected", Theorem 6).
//! Search can be bounded by branch depth and by a global step budget; both
//! are needed to run the (infinite-tree) Horn theory `H_C` as the reference
//! subtype prover.

use lp_term::{rename_term, unify_trailed, OccursCheck, Subst, Term, Trail, Var, VarGen};
use std::collections::HashMap;

use crate::database::Database;

/// Search limits and options for a [`Query`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveConfig {
    /// Maximum number of resolution steps along any branch (`None` =
    /// unbounded). Branches cut at this depth are recorded in
    /// [`Stats::depth_cutoffs`], so iterative deepening can distinguish
    /// "search space exhausted" from "ran into the bound".
    pub max_depth: Option<usize>,
    /// Global budget on resolution attempts across the whole search.
    pub max_steps: Option<u64>,
    /// Occurs-check mode for head unification.
    pub occurs: OccursCheck,
}

impl SolveConfig {
    /// Convenience: a config with the given branch-depth bound.
    pub fn depth_bounded(max_depth: usize) -> Self {
        SolveConfig {
            max_depth: Some(max_depth),
            ..Self::default()
        }
    }
}

/// Counters describing a finished (or in-progress) search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Resolution attempts (head unifications tried).
    pub attempts: u64,
    /// Successful resolution steps (resolvents produced).
    pub steps: u64,
    /// Branches pruned because they reached [`SolveConfig::max_depth`].
    pub depth_cutoffs: u64,
    /// Whether the global step budget ran out (results are then incomplete).
    pub budget_exhausted: bool,
}

/// One answer to a query.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The computed answer substitution, restricted to the query's variables
    /// and normalized (idempotent).
    pub answer: Subst,
    /// Length of the SLD refutation that produced this answer.
    pub depth: usize,
}

/// A single resolution step, reported to observers.
///
/// Theorem 6 of the paper speaks about "every resolvent produced during the
/// execution"; the consistency harness receives exactly those resolvents
/// here, with the mgu already applied. The solver builds a `Step` (and so
/// resolves the whole resolvent) only when an observer is installed —
/// [`Query::next_solution`] never pays for it.
#[derive(Debug, Clone)]
pub struct Step {
    /// Depth (number of resolution steps) of the *new* resolvent.
    pub depth: usize,
    /// Index in the database of the clause used.
    pub clause_index: usize,
    /// The selected atom, with current bindings applied.
    pub selected: Term,
    /// The new resolvent `(:- body, rest)θ`, fully resolved.
    pub resolvent: Vec<Term>,
}

/// A choice point: a goal list plus the candidate clauses not yet tried.
///
/// The frame's substitution is the query's shared one undone back to
/// `mark`: every binding made at or below this choice point sits above the
/// mark on the trail.
#[derive(Debug)]
struct Frame {
    goals: Vec<Term>,
    mark: usize,
    candidates: Vec<usize>,
    next: usize,
    depth: usize,
}

/// A running SLD query over a [`Database`].
///
/// Acts as a resumable iterator: each call to [`Query::next_solution`]
/// continues the depth-first search from where the previous answer was found.
/// The search keeps one substitution and a trail of the variables it bound;
/// backtracking undoes to the choice point's trail mark.
pub struct Query<'db> {
    db: &'db Database,
    config: SolveConfig,
    gen: VarGen,
    stack: Vec<Frame>,
    subst: Subst,
    trail: Trail,
    query_vars: Vec<Var>,
    stats: Stats,
}

impl std::fmt::Debug for Query<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("config", &self.config)
            .field("stack_depth", &self.stack.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'db> Query<'db> {
    /// Starts a query `:- goals.` against `db`.
    ///
    /// Variables in `goals` are taken as the query's free variables; fresh
    /// variables for clause renaming are drawn from past both the database's
    /// and the goals' watermark, so no capture can occur.
    pub fn new(db: &'db Database, goals: Vec<Term>, config: SolveConfig) -> Self {
        let mut gen = VarGen::starting_at(db.var_watermark());
        let mut query_vars = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for g in &goals {
            g.collect_vars(&mut seen);
        }
        for v in seen {
            gen.reserve(v);
            query_vars.push(v);
        }
        let root = Frame {
            candidates: candidates_for(db, goals.first()),
            goals,
            mark: 0,
            next: 0,
            depth: 0,
        };
        Query {
            db,
            config,
            gen,
            stack: vec![root],
            subst: Subst::new(),
            trail: Trail::new(),
            query_vars,
            stats: Stats::default(),
        }
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The generation stamp of the database this query runs against (stable
    /// for the query's lifetime — the database is borrowed immutably).
    /// Observers that cache per-resolvent work (e.g. a tabled consistency
    /// auditor) key their caches on this.
    pub fn db_generation(&self) -> u64 {
        self.db.generation()
    }

    /// Produces the next answer, or `None` when the search space (as limited
    /// by the configuration) is exhausted.
    pub fn next_solution(&mut self) -> Option<Solution> {
        self.run(None)
    }

    /// Like [`Query::next_solution`], invoking `observer` on every successful
    /// resolution step (including steps on branches that later fail). Each
    /// [`Step`] — the selected atom and the resolvent under the current
    /// bindings — is built only for the observer.
    pub fn next_solution_observed(&mut self, observer: &mut dyn FnMut(&Step)) -> Option<Solution> {
        self.run(Some(observer))
    }

    /// Whether the last exhaustion was conclusive: `true` means the entire
    /// SLD tree was explored with no branch cut by depth or budget limits, so
    /// "no more solutions" is a proof of failure rather than a timeout.
    pub fn exhausted_conclusively(&self) -> bool {
        self.stack.is_empty() && self.stats.depth_cutoffs == 0 && !self.stats.budget_exhausted
    }

    fn run(&mut self, mut observer: Option<&mut dyn FnMut(&Step)>) -> Option<Solution> {
        while let Some(frame) = self.stack.last_mut() {
            // An empty goal list is a refutation; report it and backtrack.
            // Nothing was bound since the frame was pushed, so the shared
            // substitution is exactly the frame's.
            if frame.goals.is_empty() {
                let depth = frame.depth;
                self.stack.pop();
                let answer = self
                    .subst
                    .restrict(self.query_vars.iter().copied())
                    .normalize();
                return Some(Solution { answer, depth });
            }
            // Depth bound: cut this branch.
            if let Some(max) = self.config.max_depth {
                if frame.depth >= max {
                    self.stats.depth_cutoffs += 1;
                    self.stack.pop();
                    continue;
                }
            }
            // Try the next candidate clause at this choice point.
            let Some(&clause_index) = frame.candidates.get(frame.next) else {
                self.stack.pop();
                continue;
            };
            frame.next += 1;

            if let Some(budget) = self.config.max_steps {
                if self.stats.attempts >= budget {
                    self.stats.budget_exhausted = true;
                    self.stack.clear();
                    return None;
                }
            }
            self.stats.attempts += 1;

            // Retract the previous alternative's bindings (and any partial
            // bindings of a failed unification) before trying this one.
            self.trail.undo_to(&mut self.subst, frame.mark);
            let clause = self.db.clause(clause_index);
            // Standardize the clause apart.
            let mut map = HashMap::new();
            let head = rename_term(&clause.head, &mut self.gen, &mut map);
            if unify_trailed(
                &frame.goals[0],
                &head,
                &mut self.subst,
                self.config.occurs,
                &mut self.trail,
            )
            .is_err()
            {
                continue;
            }
            let depth = frame.depth + 1;
            self.stats.steps += 1;
            let selected = observer
                .is_some()
                .then(|| self.subst.resolve(&frame.goals[0]));
            // The resolvent replaces the selected atom by the clause body. A
            // choice point with no clause left to try is never revisited, so
            // its goal list moves into the new frame instead of being copied.
            let body = clause
                .body
                .iter()
                .map(|b| rename_term(b, &mut self.gen, &mut map));
            let goals = if frame.next == frame.candidates.len() {
                let mut goals = std::mem::take(&mut frame.goals);
                goals.splice(0..1, body);
                self.stack.pop();
                goals
            } else {
                let mut goals = Vec::with_capacity(clause.body.len() + frame.goals.len() - 1);
                goals.extend(body);
                goals.extend_from_slice(&frame.goals[1..]);
                goals
            };

            if let (Some(observer), Some(selected)) = (observer.as_deref_mut(), selected) {
                observer(&Step {
                    depth,
                    clause_index,
                    selected,
                    resolvent: goals.iter().map(|g| self.subst.resolve(g)).collect(),
                });
            }

            let candidates = candidates_for(self.db, goals.first());
            self.stack.push(Frame {
                goals,
                mark: self.trail.mark(),
                candidates,
                next: 0,
                depth,
            });
        }
        None
    }
}

fn candidates_for(db: &Database, goal: Option<&Term>) -> Vec<usize> {
    match goal {
        None => Vec::new(),
        Some(g) => {
            let f = g
                .functor()
                .expect("goal atoms must be predicate applications");
            db.candidates(f, g.args().len()).to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use lp_term::{Signature, Sym, SymKind};

    struct Lists {
        sig: Signature,
        nil: Sym,
        cons: Sym,
        app: Sym,
        gen: VarGen,
    }

    fn lists() -> (Lists, Database) {
        let mut sig = Signature::new();
        let nil = sig.declare("nil", SymKind::Func).unwrap();
        let cons = sig.declare("cons", SymKind::Func).unwrap();
        let app = sig.declare("app", SymKind::Pred).unwrap();
        let mut gen = VarGen::new();
        let mut db = Database::new();
        // app(nil, L, L).
        let l = gen.fresh();
        db.add(Clause::fact(Term::app(
            app,
            vec![Term::constant(nil), Term::Var(l), Term::Var(l)],
        )));
        // app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
        let (x, l2, m, n) = (gen.fresh(), gen.fresh(), gen.fresh(), gen.fresh());
        db.add(Clause::rule(
            Term::app(
                app,
                vec![
                    Term::app(cons, vec![Term::Var(x), Term::Var(l2)]),
                    Term::Var(m),
                    Term::app(cons, vec![Term::Var(x), Term::Var(n)]),
                ],
            ),
            vec![Term::app(
                app,
                vec![Term::Var(l2), Term::Var(m), Term::Var(n)],
            )],
        ));
        (
            Lists {
                sig,
                nil,
                cons,
                app,
                gen,
            },
            db,
        )
    }

    fn list_of(fx: &Lists, items: &[Term]) -> Term {
        items.iter().rev().fold(Term::constant(fx.nil), |acc, t| {
            Term::app(fx.cons, vec![t.clone(), acc])
        })
    }

    #[test]
    fn append_ground_query_succeeds_once() {
        let (mut fx, db) = lists();
        let a = list_of(&fx, &[Term::constant(fx.nil)]);
        let b = list_of(&fx, &[Term::constant(fx.nil), Term::constant(fx.nil)]);
        let z = fx.gen.fresh();
        let goal = Term::app(fx.app, vec![a, b, Term::Var(z)]);
        let mut q = Query::new(&db, vec![goal], SolveConfig::default());
        let sol = q.next_solution().expect("one solution");
        let expect = list_of(
            &fx,
            &[
                Term::constant(fx.nil),
                Term::constant(fx.nil),
                Term::constant(fx.nil),
            ],
        );
        assert_eq!(sol.answer.resolve(&Term::Var(z)), expect);
        assert!(q.next_solution().is_none());
        assert!(q.exhausted_conclusively());
        let _ = &fx.sig;
    }

    #[test]
    fn append_enumerates_all_splits() {
        let (mut fx, db) = lists();
        // app(X, Y, [nil, nil, nil]) has 4 solutions.
        let full = list_of(
            &fx,
            &[
                Term::constant(fx.nil),
                Term::constant(fx.nil),
                Term::constant(fx.nil),
            ],
        );
        let (x, y) = (fx.gen.fresh(), fx.gen.fresh());
        let goal = Term::app(fx.app, vec![Term::Var(x), Term::Var(y), full]);
        let mut q = Query::new(&db, vec![goal], SolveConfig::default());
        let mut n = 0;
        while let Some(_s) = q.next_solution() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert!(q.exhausted_conclusively());
    }

    #[test]
    fn depth_bound_cuts_and_reports() {
        let (mut fx, db) = lists();
        // Infinitely many solutions: app(X, Y, Z) — bound the depth.
        let (x, y, z) = (fx.gen.fresh(), fx.gen.fresh(), fx.gen.fresh());
        let goal = Term::app(fx.app, vec![Term::Var(x), Term::Var(y), Term::Var(z)]);
        let mut q = Query::new(&db, vec![goal], SolveConfig::depth_bounded(3));
        let mut n = 0;
        while let Some(_s) = q.next_solution() {
            n += 1;
        }
        assert_eq!(n, 3); // lengths 0, 1, 2 of the first list
        assert!(q.stats().depth_cutoffs > 0);
        assert!(!q.exhausted_conclusively());
    }

    #[test]
    fn step_budget_halts_search() {
        let (mut fx, db) = lists();
        let (x, y, z) = (fx.gen.fresh(), fx.gen.fresh(), fx.gen.fresh());
        let goal = Term::app(fx.app, vec![Term::Var(x), Term::Var(y), Term::Var(z)]);
        let config = SolveConfig {
            max_steps: Some(5),
            ..SolveConfig::default()
        };
        let mut q = Query::new(&db, vec![goal], config);
        while q.next_solution().is_some() {}
        assert!(q.stats().budget_exhausted);
        assert!(!q.exhausted_conclusively());
    }

    #[test]
    fn observer_sees_every_resolvent() {
        let (mut fx, db) = lists();
        let a = list_of(&fx, &[Term::constant(fx.nil), Term::constant(fx.nil)]);
        let b = list_of(&fx, &[]);
        let z = fx.gen.fresh();
        let goal = Term::app(fx.app, vec![a, b, Term::Var(z)]);
        let mut q = Query::new(&db, vec![goal], SolveConfig::default());
        let mut steps = Vec::new();
        let sol = q
            .next_solution_observed(&mut |s: &Step| steps.push(s.clone()))
            .expect("solution");
        // Two recursive steps plus the base fact = 3 resolution steps.
        assert_eq!(sol.depth, 3);
        assert_eq!(steps.len(), 3);
        // The final resolvent is empty.
        assert!(steps.last().unwrap().resolvent.is_empty());
        // Selected atoms are ground-ified by the time they are reported.
        for s in &steps {
            assert_eq!(s.selected.functor(), Some(fx.app));
        }
    }

    #[test]
    fn no_solution_for_unmatched_predicate() {
        let (mut fx, db) = lists();
        let mut sig2 = fx.sig.clone();
        let other = sig2.declare("other", SymKind::Pred).unwrap();
        let goal = Term::app(other, vec![Term::Var(fx.gen.fresh())]);
        let mut q = Query::new(&db, vec![goal], SolveConfig::default());
        assert!(q.next_solution().is_none());
        assert!(q.exhausted_conclusively());
    }

    #[test]
    fn conjunction_threads_bindings() {
        let (mut fx, db) = lists();
        // :- app(X, [nil], Z), app(Z, [nil], W).
        let (x, z, w) = (fx.gen.fresh(), fx.gen.fresh(), fx.gen.fresh());
        let one = list_of(&fx, &[Term::constant(fx.nil)]);
        let g1 = Term::app(fx.app, vec![Term::Var(x), one.clone(), Term::Var(z)]);
        let g2 = Term::app(fx.app, vec![Term::Var(z), one, Term::Var(w)]);
        let mut q = Query::new(&db, vec![g1, g2], SolveConfig::default());
        let sol = q.next_solution().expect("solution with X = nil");
        // X = nil, Z = [nil], W = [nil, nil].
        assert_eq!(sol.answer.resolve(&Term::Var(x)), Term::constant(fx.nil));
        assert_eq!(
            sol.answer.resolve(&Term::Var(w)),
            list_of(&fx, &[Term::constant(fx.nil), Term::constant(fx.nil)])
        );
    }
}
