//! Differential tests for the trail-based solver.
//!
//! [`Query`] keeps one substitution and undoes bindings back to a trail mark
//! on backtracking. The reference solver below is the textbook alternative:
//! every choice point owns a full copy of the substitution, and every step
//! builds its resolvent whether or not anyone looks. The two must be
//! indistinguishable from outside: the same answers in the same order, the
//! same [`Stats`] after every call, the same [`Step`] stream — also when a
//! depth or step bound cuts the search.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lp_engine::{Database, Query, Solution, SolveConfig, Stats, Step};
use lp_gen::{programs, terms, worlds};
use lp_term::{rename_term, unify_with, Subst, Term, Var, VarGen};
use subtype_core::HornTheory;

/// A choice point owning its own copy of the substitution.
struct RefFrame {
    goals: Vec<Term>,
    subst: Subst,
    candidates: Vec<usize>,
    next: usize,
    depth: usize,
}

/// Clone-per-frame SLD resolution with the same clause order, renaming
/// order and bound semantics as [`Query`].
struct RefQuery<'db> {
    db: &'db Database,
    config: SolveConfig,
    gen: VarGen,
    stack: Vec<RefFrame>,
    query_vars: Vec<Var>,
    stats: Stats,
}

impl<'db> RefQuery<'db> {
    fn new(db: &'db Database, goals: Vec<Term>, config: SolveConfig) -> Self {
        let mut gen = VarGen::starting_at(db.var_watermark());
        let mut seen = BTreeSet::new();
        for g in &goals {
            g.collect_vars(&mut seen);
        }
        let query_vars: Vec<Var> = seen.into_iter().collect();
        for &v in &query_vars {
            gen.reserve(v);
        }
        let root = RefFrame {
            candidates: candidates_for(db, goals.first()),
            goals,
            subst: Subst::new(),
            next: 0,
            depth: 0,
        };
        RefQuery {
            db,
            config,
            gen,
            stack: vec![root],
            query_vars,
            stats: Stats::default(),
        }
    }

    fn exhausted_conclusively(&self) -> bool {
        self.stack.is_empty() && self.stats.depth_cutoffs == 0 && !self.stats.budget_exhausted
    }

    fn next_solution_observed(&mut self, observer: &mut dyn FnMut(&Step)) -> Option<Solution> {
        while let Some(frame) = self.stack.last_mut() {
            if frame.goals.is_empty() {
                let depth = frame.depth;
                let subst = frame.subst.clone();
                self.stack.pop();
                let answer = subst.restrict(self.query_vars.iter().copied()).normalize();
                return Some(Solution { answer, depth });
            }
            if let Some(max) = self.config.max_depth {
                if frame.depth >= max {
                    self.stats.depth_cutoffs += 1;
                    self.stack.pop();
                    continue;
                }
            }
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
            let selected = frame.goals[0].clone();
            let mut subst = frame.subst.clone();
            let clause = self.db.clause(clause_index);
            let mut map = HashMap::new();
            let head = rename_term(&clause.head, &mut self.gen, &mut map);
            if unify_with(&selected, &head, &mut subst, self.config.occurs).is_err() {
                continue;
            }
            let mut goals = Vec::new();
            for b in &clause.body {
                goals.push(rename_term(b, &mut self.gen, &mut map));
            }
            goals.extend_from_slice(&frame.goals[1..]);
            let depth = frame.depth + 1;
            self.stats.steps += 1;
            observer(&Step {
                depth,
                clause_index,
                selected: subst.resolve(&selected),
                resolvent: goals.iter().map(|g| subst.resolve(g)).collect(),
            });
            let candidates = candidates_for(self.db, goals.first());
            self.stack.push(RefFrame {
                goals,
                subst,
                candidates,
                next: 0,
                depth,
            });
        }
        None
    }
}

fn candidates_for(db: &Database, goal: Option<&Term>) -> Vec<usize> {
    goal.map(|g| db.candidates(g.functor().unwrap(), g.args().len()).to_vec())
        .unwrap_or_default()
}

/// A step as comparable data.
type StepKey = (usize, usize, Term, Vec<Term>);

fn key(s: &Step) -> StepKey {
    (
        s.depth,
        s.clause_index,
        s.selected.clone(),
        s.resolvent.clone(),
    )
}

/// Pulls up to `max_answers` answers from both solvers, asserting after
/// every call that answers, stats and the steps observed so far agree.
fn assert_same_search(
    db: &Database,
    goals: &[Term],
    config: SolveConfig,
    max_answers: usize,
) -> Result<(), TestCaseError> {
    let mut trail = Query::new(db, goals.to_vec(), config);
    let mut reference = RefQuery::new(db, goals.to_vec(), config);
    let mut trail_steps: Vec<StepKey> = Vec::new();
    let mut ref_steps: Vec<StepKey> = Vec::new();
    for _ in 0..max_answers {
        let a = trail.next_solution_observed(&mut |s| trail_steps.push(key(s)));
        let b = reference.next_solution_observed(&mut |s| ref_steps.push(key(s)));
        prop_assert_eq!(
            a.as_ref().map(|s| (&s.answer, s.depth)),
            b.as_ref().map(|s| (&s.answer, s.depth))
        );
        prop_assert_eq!(trail.stats(), reference.stats);
        prop_assert_eq!(&trail_steps, &ref_steps);
        if a.is_none() {
            prop_assert_eq!(
                trail.exhausted_conclusively(),
                reference.exhausted_conclusively()
            );
            break;
        }
    }
    // The unobserved path takes the same search.
    let mut unobserved = Query::new(db, goals.to_vec(), config);
    let mut rerun = RefQuery::new(db, goals.to_vec(), config);
    for _ in 0..max_answers {
        let a = unobserved.next_solution();
        let b = rerun.next_solution_observed(&mut |_| {});
        prop_assert_eq!(a.as_ref().map(|s| &s.answer), b.as_ref().map(|s| &s.answer));
        prop_assert_eq!(unobserved.stats(), rerun.stats);
        if a.is_none() {
            break;
        }
    }
    Ok(())
}

/// Random search bounds: none, a depth bound, a step bound, or both.
fn bounds(rng: &mut StdRng, depth: usize, steps: u64) -> SolveConfig {
    SolveConfig {
        max_depth: rng.gen_bool(0.6).then(|| rng.gen_range(1..=depth)),
        max_steps: rng.gen_bool(0.5).then(|| rng.gen_range(1..=steps)),
        ..SolveConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Horn theory `H_C` of a random world: an infinite SLD tree
    /// (transitivity always applies), open subtype goals, and bounds that
    /// cut it at random places.
    #[test]
    fn horn_theory_searches_agree(seed in any::<u64>()) {
        let world = worlds::random(seed % 256, worlds::RandomWorldConfig::default());
        let horn = HornTheory::build(&world.sig, &world.cs);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = world.gen.clone();
        let vars: Vec<Var> = (0..2).map(|_| gen.fresh()).collect();
        let sup = terms::random_type(&mut rng, &world, 2, &vars);
        let sub = terms::random_type(&mut rng, &world, 2, &vars);
        let goal = Term::app(horn.geq(), vec![sup, sub]);
        let mut config = bounds(&mut rng, 6, 400);
        if config.max_depth.is_none() && config.max_steps.is_none() {
            config.max_depth = Some(4);
        }
        assert_same_search(horn.database(), &[goal], config, 12)?;
    }

    /// Generated programs with their own queries: the random lint/mode
    /// corpus (ill-typed facts, `q(X) :- q(X)` loops), reversal and
    /// pipelines queried both on a concrete list and fully open.
    #[test]
    fn generated_program_searches_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..6usize);
        let mut src = match seed % 3 {
            0 => worlds::random_source(seed % 512),
            1 => programs::nrev(n),
            _ => programs::pipeline(rng.gen_range(1..4), rng.gen_range(1..3)),
        };
        if seed % 3 == 2 {
            let mut list = String::from("nil");
            for _ in 0..n {
                list = format!("cons(0, {list})");
            }
            src.push_str(&format!(":- p0({list}, R).\n:- p0(L, R).\n"));
        }
        let module = lp_parser::parse_module(&src).expect("generated programs parse");
        let db = module.database();
        for q in &module.queries {
            let config = bounds(&mut rng, 12, 300);
            assert_same_search(&db, &q.goals, config, 8)?;
        }
    }
}
