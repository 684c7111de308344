//! The deterministic subtype derivation strategy (paper §3).
//!
//! The prover decides `τ₁ ⪰_C τ₂` by applying the clause-selection strategy
//! of Theorems 1 and 2 directly, instead of searching the SLD tree of `H_C`:
//!
//! * supertype outermost symbol `f ∈ F` (Theorem 1): the subtype must be an
//!   application of the same `f`; decompose argument-wise (substitution
//!   axiom). Any other symbol refutes the goal.
//! * supertype outermost symbol `c ∈ T` (Theorem 2): try the substitution
//!   axiom when the subtype is also a `c`-application, and the *two-step
//!   application* (Definition 7) of each constraint defining `c` — i.e.
//!   rewrite `c(τ₁…τₙ) →_C σ` and continue with `σ >= τ₂`.
//!
//! Guardedness (Theorem 3) makes every rewriting chain terminate, and
//! argument decomposition strictly shrinks the subtype, so the whole search
//! is finite — no depth bound needed, unlike the naive prover.
//!
//! # Variable goals (an extension beyond the paper)
//!
//! The paper's strategy is stated for goals whose supertype outermost symbol
//! is in `F ∪ T`. Goals with a *variable* on either side arise when deciding
//! polymorphic subtyping (e.g. membership `list(A) ⪰ cons(foo, nil)`
//! uncovers `A >= foo`). Plain unification answers such goals, but is
//! incomplete under conjunction: `f(A, A) ⪰ f(0, pred(0))` needs `A = int`,
//! not `A = 0`. The prover therefore tries, in order:
//!
//! 1. unification of the variable with the other side, then
//! 2. binding the variable to `s(β₁…βₙ)` for each declared constructor `s`
//!    (type constructors for a supertype variable; function symbols and type
//!    constructors for a subtype variable), with fresh variables `βᵢ`,
//!    bounded by [`ProverConfig::var_expansion_budget`] per branch.
//!
//! When a failing search had to cut such an enumeration (or hit the global
//! step budget), the result is [`Proof::Unknown`] rather than
//! [`Proof::Refuted`] — refutations are only reported when the search was
//! exhaustive. Positive answers are always certain.

use std::collections::BTreeSet;

use lp_term::{unify_trailed, OccursCheck, Signature, Subst, SymKind, Term, Trail, Var, VarGen};

use crate::constraint::CheckedConstraints;
use crate::witness::Step;

/// Limits for the deterministic prover.
#[derive(Debug, Clone, Copy)]
pub struct ProverConfig {
    /// How many variable-constructor enumerations a single branch may
    /// perform (see the module docs). `0` disables the extension, leaving
    /// pure unification for variable goals.
    pub var_expansion_budget: u32,
    /// Global safety budget on search nodes.
    pub max_steps: u64,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            var_expansion_budget: 4,
            max_steps: 1_000_000,
        }
    }
}

/// The outcome of a subtype query.
#[derive(Debug, Clone, PartialEq)]
pub enum Proof {
    /// Derivable; carries the computed answer substitution (bindings of the
    /// goal's variables witnessing the derivation).
    Proved(Subst),
    /// Not derivable — the search was exhaustive.
    Refuted,
    /// The search failed but was cut by a budget; no conclusion.
    Unknown,
}

impl Proof {
    /// Whether a derivation was found.
    pub fn is_proved(&self) -> bool {
        matches!(self, Proof::Proved(_))
    }

    /// Whether non-derivability was established conclusively.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Proof::Refuted)
    }

    /// Whether the search was inconclusive.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Proof::Unknown)
    }

    /// The answer substitution, if proved.
    pub fn answer(&self) -> Option<&Subst> {
        match self {
            Proof::Proved(s) => Some(s),
            _ => None,
        }
    }
}

/// Deterministic subtype prover over a checked (uniform, guarded) set.
#[derive(Debug, Clone, Copy)]
pub struct Prover<'a> {
    sig: &'a Signature,
    cs: &'a CheckedConstraints,
    config: ProverConfig,
}

impl<'a> Prover<'a> {
    /// Creates a prover with default limits.
    pub fn new(sig: &'a Signature, cs: &'a CheckedConstraints) -> Self {
        Prover {
            sig,
            cs,
            config: ProverConfig::default(),
        }
    }

    /// Creates a prover with explicit limits.
    pub fn with_config(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        config: ProverConfig,
    ) -> Self {
        Prover { sig, cs, config }
    }

    /// The active configuration.
    pub fn config(&self) -> ProverConfig {
        self.config
    }

    /// Decides `sup ⪰_C sub` (Definition 3): is there a substitution `θ`
    /// such that `(sup >= sub)θ` is a semantic consequence of `H_C`?
    ///
    /// Variables shared between `sup` and `sub` are honoured (they must be
    /// instantiated consistently). To ask the *universal* question of
    /// Definition 5 ("is `sup` more general than `sub`?"), freeze `sub`
    /// first — see [`typing::is_more_general`](crate::typing::is_more_general).
    pub fn subtype(&self, sup: &Term, sub: &Term) -> Proof {
        self.subtype_all(&[(sup.clone(), sub.clone())])
    }

    /// Decides a *conjunction* of subtype goals sharing variables: is there
    /// one substitution satisfying `supᵢ ⪰_C subᵢ` for all `i`?
    pub fn subtype_all(&self, goals: &[(Term, Term)]) -> Proof {
        self.subtype_all_rigid(goals, &BTreeSet::new(), 0)
    }

    /// Like [`Prover::subtype_all`], but variables in `rigid` are *inert*:
    /// they unify only with themselves and are never enumerated. This is how
    /// the well-typedness checker keeps head predicate-type variables
    /// universal while solving the body's `η` commitments (paper §7).
    ///
    /// `var_watermark` must be past every variable the caller cares about;
    /// internal fresh variables start there.
    pub fn subtype_all_rigid(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Proof {
        self.subtype_all_rigid_traced(goals, rigid, var_watermark).0
    }

    /// Like [`Prover::subtype_all_rigid`], additionally returning the H_C
    /// derivation chain of a successful search — the raw material of a
    /// [`Witness`](crate::witness::Witness). The chain is empty unless the
    /// proof is [`Proof::Proved`]; replaying it under the returned answer
    /// with [`crate::witness::replay`] discharges every goal.
    pub fn subtype_all_rigid_traced(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> (Proof, Vec<Step>) {
        let mut gen = VarGen::starting_at(var_watermark);
        for (a, b) in goals {
            // Allocation-free preorder walk — `Term::vars` would collect a
            // set per goal side just to reserve each element once.
            crate::arena::visit_vars(a, &mut |v| gen.reserve(v));
            crate::arena::visit_vars(b, &mut |v| gen.reserve(v));
        }
        for &v in rigid {
            gen.reserve(v);
        }
        let mut search = Search {
            prover: self,
            gen,
            rigid,
            steps: 0,
            cut: false,
            trail: Vec::new(),
            subst: Subst::new(),
            bound: Trail::new(),
        };
        let budget = self.config.var_expansion_budget;
        // The first solution stops the search with its bindings in place.
        if search.prove_seq(goals, budget, &mut |_| true) {
            (Proof::Proved(search.subst.normalize()), search.trail)
        } else if search.cut {
            (Proof::Unknown, Vec::new())
        } else {
            (Proof::Refuted, Vec::new())
        }
    }

    /// Membership in the type's denotation (Definition 4):
    /// `t ∈ M_C⟦τ⟧` iff `τ ⪰_C t` for ground `t`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` is not ground; for open terms the
    /// membership question is [`typing::is_more_general`] territory.
    ///
    /// [`typing::is_more_general`]: crate::typing::is_more_general
    pub fn member(&self, ty: &Term, t: &Term) -> Proof {
        debug_assert!(t.is_ground(), "membership is defined on ground terms");
        self.subtype(ty, t)
    }
}

/// One in-flight search with its budgets.
struct Search<'p, 'a> {
    prover: &'p Prover<'a>,
    gen: VarGen,
    rigid: &'p BTreeSet<Var>,
    steps: u64,
    cut: bool,
    /// The H_C chain of the path currently being explored. Discipline: every
    /// alternative pushes its step before recursing and truncates back to
    /// its entry mark on failure, so any `prove` returning `false` leaves
    /// the trail exactly as it found it — on success the trail is the
    /// complete depth-first derivation of the accepted answer.
    trail: Vec<Step>,
    /// The one substitution of the search. Same discipline as `trail`:
    /// every binding is recorded on `bound`, and an alternative that fails
    /// undoes back to its entry mark, so a failing `prove` leaves `subst`
    /// as it found it and a successful search ends holding the answer.
    subst: Subst,
    bound: Trail,
}

/// Continuation invoked per solution (the bindings are in
/// [`Search::subst`]); returns `true` to stop the search.
type Cont<'k, 'p, 'a> = &'k mut dyn FnMut(&mut Search<'p, 'a>) -> bool;

impl<'p, 'a> Search<'p, 'a> {
    fn is_rigid(&self, v: Var) -> bool {
        self.rigid.contains(&v)
    }

    /// Pushes `step`, runs `attempt`, and rolls the trail back if the
    /// attempt fails — the one place the trail discipline lives.
    fn with_step(&mut self, step: Step, attempt: impl FnOnce(&mut Self) -> bool) -> bool {
        let mark = self.trail.len();
        self.trail.push(step);
        if attempt(self) {
            return true;
        }
        self.trail.truncate(mark);
        false
    }

    /// Binds `v` to `t`, runs `attempt`, and undoes the binding if the
    /// attempt fails.
    fn with_binding(&mut self, v: Var, t: Term, attempt: impl FnOnce(&mut Self) -> bool) -> bool {
        let mark = self.bound.mark();
        self.bound.bind(&mut self.subst, v, t);
        if attempt(self) {
            return true;
        }
        self.bound.undo_to(&mut self.subst, mark);
        false
    }

    /// Unifies `a` with `b` and continues with `k` under a `Refl` step;
    /// undoes every binding (partial ones included) if either fails.
    fn unify_then(&mut self, a: &Term, b: &Term, k: Cont<'_, 'p, 'a>) -> bool {
        let mark = self.bound.mark();
        if unify_trailed(a, b, &mut self.subst, OccursCheck::Enabled, &mut self.bound).is_ok()
            && self.with_step(Step::Refl, k)
        {
            return true;
        }
        self.bound.undo_to(&mut self.subst, mark);
        false
    }

    /// Enumerates solutions of `sup >= sub` under the current bindings,
    /// feeding each to `k`. Returns `true` iff `k` accepted one (search
    /// stops then, bindings in place); `false` leaves the bindings as found.
    fn prove(&mut self, sup: &Term, sub: &Term, budget: u32, k: Cont<'_, 'p, 'a>) -> bool {
        self.steps += 1;
        if self.steps > self.prover.config.max_steps {
            self.cut = true;
            return false;
        }
        let sup = self.subst.walk(sup).clone();
        let sub = self.subst.walk(sub).clone();
        match (&sup, &sub) {
            // Both variables: unify, optionally enumerate the supertype.
            (Term::Var(v), Term::Var(w)) => {
                if v == w {
                    return self.with_step(Step::Refl, k);
                }
                match (self.is_rigid(*v), self.is_rigid(*w)) {
                    // Two distinct universals are never related.
                    (true, true) => false,
                    (true, false) | (false, true) => {
                        // Bind the bindable one to the rigid one.
                        let (bindable, other) = if self.is_rigid(*v) {
                            (*w, *v)
                        } else {
                            (*v, *w)
                        };
                        // Enumeration cannot help: any constructor binding
                        // would have to relate to an inert variable.
                        self.with_binding(bindable, Term::Var(other), |me| {
                            me.with_step(Step::Refl, k)
                        })
                    }
                    (false, false) => {
                        if self
                            .with_binding(*v, Term::Var(*w), |me| me.with_step(Step::Refl, &mut *k))
                        {
                            return true;
                        }
                        self.enumerate_var(&sup, &sub, budget, VarSide::Supertype, k)
                    }
                }
            }
            // Supertype variable vs application: unify (θ exists trivially),
            // or bind the variable to a type constructor and keep deriving.
            (Term::Var(v), Term::App(..)) => {
                if self.is_rigid(*v) {
                    return false;
                }
                if self.unify_then(&sup, &sub, &mut *k) {
                    return true;
                }
                self.enumerate_var(&sup, &sub, budget, VarSide::Supertype, k)
            }
            // Application vs subtype variable.
            (Term::App(c, _), Term::Var(w)) => {
                let w_rigid = self.is_rigid(*w);
                if !w_rigid && self.unify_then(&sup, &sub, &mut *k) {
                    return true;
                }
                // A type-constructor supertype can also be *rewritten* first:
                // c(τ…) →_C σ, then σ >= W (e.g. int >= W with W = nat) —
                // and for a rigid W this is the only hope (σ may *be* W).
                if self.prover.sig.kind(*c) == SymKind::TypeCtor {
                    for (idx, e) in self.prover.cs.expansions_indexed(&sup) {
                        if self.with_step(Step::Constraint(idx), |me| {
                            me.prove(&e, &sub, budget, &mut *k)
                        }) {
                            return true;
                        }
                    }
                }
                if w_rigid {
                    return false;
                }
                self.enumerate_var(&sub, &sup, budget, VarSide::Subtype, k)
            }
            (Term::App(f, fargs), Term::App(g, gargs)) => {
                match self.prover.sig.kind(*f) {
                    // Theorem 1: only the substitution axiom for f applies.
                    SymKind::Func | SymKind::Skolem | SymKind::Pred => {
                        if f != g || fargs.len() != gargs.len() {
                            return false;
                        }
                        let goals: Vec<(Term, Term)> =
                            fargs.iter().cloned().zip(gargs.iter().cloned()).collect();
                        self.with_step(Step::Decompose, |me| me.prove_seq(&goals, budget, k))
                    }
                    // Theorem 2: substitution axiom (same ctor) and two-step
                    // constraint applications.
                    SymKind::TypeCtor => {
                        if f == g && fargs.len() == gargs.len() {
                            let goals: Vec<(Term, Term)> =
                                fargs.iter().cloned().zip(gargs.iter().cloned()).collect();
                            if self.with_step(Step::Decompose, |me| {
                                me.prove_seq(&goals, budget, &mut *k)
                            }) {
                                return true;
                            }
                        }
                        for (idx, e) in self.prover.cs.expansions_indexed(&sup) {
                            if self.with_step(Step::Constraint(idx), |me| {
                                me.prove(&e, &sub, budget, &mut *k)
                            }) {
                                return true;
                            }
                        }
                        false
                    }
                }
            }
        }
    }

    /// Proves a conjunction of goals left to right with full backtracking.
    fn prove_seq(&mut self, goals: &[(Term, Term)], budget: u32, k: Cont<'_, 'p, 'a>) -> bool {
        match goals.split_first() {
            None => k(self),
            Some(((a, b), rest)) => {
                self.prove(a, b, budget, &mut |me| me.prove_seq(rest, budget, k))
            }
        }
    }

    /// Budget-bounded enumeration of constructor bindings for a variable
    /// goal (the extension described in the module docs). `var` is the
    /// variable side, `other` the opposite side of the goal.
    fn enumerate_var(
        &mut self,
        var: &Term,
        other: &Term,
        budget: u32,
        side: VarSide,
        k: Cont<'_, 'p, 'a>,
    ) -> bool {
        if budget == 0 {
            // We are giving up alternatives: failures are now inconclusive.
            self.cut = true;
            return false;
        }
        let Term::Var(v) = var else {
            unreachable!("enumerate_var is called on a variable side");
        };
        let candidates: Vec<_> = self
            .prover
            .sig
            .symbols()
            .filter(|&s| match self.prover.sig.kind(s) {
                // A supertype variable standing for a *type* can only gain
                // derivations through type constructors (anything else is
                // already covered by unification, Theorem 1).
                SymKind::TypeCtor => true,
                SymKind::Func => side == VarSide::Subtype,
                SymKind::Skolem | SymKind::Pred => false,
            })
            .collect();
        for c in candidates {
            let n = self.prover.sig.arity(c).unwrap_or(0);
            let fresh: Vec<Term> = (0..n).map(|_| Term::Var(self.gen.fresh())).collect();
            let candidate = Term::app(c, fresh);
            if candidate == *other {
                continue; // identical to the unification alternative
            }
            // Occurs check: `v` must not occur in `other` such that binding
            // creates a cycle — fresh arguments make this impossible, but
            // `v` itself must be unbound (guaranteed: we walked it).
            if self.with_binding(*v, candidate.clone(), |me| match side {
                VarSide::Supertype => me.prove(&candidate, other, budget - 1, &mut *k),
                VarSide::Subtype => me.prove(other, &candidate, budget - 1, &mut *k),
            }) {
                return true;
            }
        }
        false
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarSide {
    Supertype,
    Subtype,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use lp_term::{Sym, VarGen};

    /// The paper's §1 world: nat/unnat/int and elist/nelist/list.
    pub(crate) struct World {
        pub sig: Signature,
        pub gen: VarGen,
        pub cs: CheckedConstraints,
        pub zero: Sym,
        pub succ: Sym,
        pub pred: Sym,
        pub nat: Sym,
        pub unnat: Sym,
        pub int: Sym,
        pub nil: Sym,
        pub cons: Sym,
        pub foo: Sym,
        pub elist: Sym,
        pub nelist: Sym,
        pub list: Sym,
    }

    pub(crate) fn world() -> World {
        let mut sig = Signature::new();
        let zero = sig.declare_with_arity("0", SymKind::Func, 0).unwrap();
        let succ = sig.declare_with_arity("succ", SymKind::Func, 1).unwrap();
        let pred = sig.declare_with_arity("pred", SymKind::Func, 1).unwrap();
        let nil = sig.declare_with_arity("nil", SymKind::Func, 0).unwrap();
        let cons = sig.declare_with_arity("cons", SymKind::Func, 2).unwrap();
        let foo = sig.declare_with_arity("foo", SymKind::Func, 0).unwrap();
        let nat = sig.declare_with_arity("nat", SymKind::TypeCtor, 0).unwrap();
        let unnat = sig
            .declare_with_arity("unnat", SymKind::TypeCtor, 0)
            .unwrap();
        let int = sig.declare_with_arity("int", SymKind::TypeCtor, 0).unwrap();
        let elist = sig
            .declare_with_arity("elist", SymKind::TypeCtor, 0)
            .unwrap();
        let nelist = sig
            .declare_with_arity("nelist", SymKind::TypeCtor, 1)
            .unwrap();
        let list = sig
            .declare_with_arity("list", SymKind::TypeCtor, 1)
            .unwrap();
        let mut gen = VarGen::new();
        let mut cs = ConstraintSet::new();
        let plus = cs.add_union(&mut sig, &mut gen).unwrap();
        let union2 = |a: Term, b: Term| Term::app(plus, vec![a, b]);
        // nat >= 0 + succ(nat).
        cs.add(
            &sig,
            Term::constant(nat),
            union2(
                Term::constant(zero),
                Term::app(succ, vec![Term::constant(nat)]),
            ),
        )
        .unwrap();
        // unnat >= 0 + pred(unnat).
        cs.add(
            &sig,
            Term::constant(unnat),
            union2(
                Term::constant(zero),
                Term::app(pred, vec![Term::constant(unnat)]),
            ),
        )
        .unwrap();
        // int >= nat + unnat.
        cs.add(
            &sig,
            Term::constant(int),
            union2(Term::constant(nat), Term::constant(unnat)),
        )
        .unwrap();
        // elist >= nil.
        cs.add(&sig, Term::constant(elist), Term::constant(nil))
            .unwrap();
        // nelist(A) >= cons(A, list(A)).
        let a = gen.fresh();
        cs.add(
            &sig,
            Term::app(nelist, vec![Term::Var(a)]),
            Term::app(
                cons,
                vec![Term::Var(a), Term::app(list, vec![Term::Var(a)])],
            ),
        )
        .unwrap();
        // list(A) >= elist + nelist(A).
        let a2 = gen.fresh();
        cs.add(
            &sig,
            Term::app(list, vec![Term::Var(a2)]),
            union2(
                Term::constant(elist),
                Term::app(nelist, vec![Term::Var(a2)]),
            ),
        )
        .unwrap();
        let cs = cs.checked(&sig).unwrap();
        World {
            sig,
            gen,
            cs,
            zero,
            succ,
            pred,
            nat,
            unnat,
            int,
            nil,
            cons,
            foo,
            elist,
            nelist,
            list,
        }
    }

    impl World {
        pub fn num(&self, n: i64) -> Term {
            let mut t = Term::constant(self.zero);
            let wrapper = if n >= 0 { self.succ } else { self.pred };
            for _ in 0..n.abs() {
                t = Term::app(wrapper, vec![t]);
            }
            t
        }

        pub fn list_of(&self, items: &[Term]) -> Term {
            items.iter().rev().fold(Term::constant(self.nil), |acc, t| {
                Term::app(self.cons, vec![t.clone(), acc])
            })
        }
    }

    #[test]
    fn basic_ctor_subtyping() {
        let w = world();
        let p = Prover::new(&w.sig, &w.cs);
        assert!(p
            .subtype(&Term::constant(w.int), &Term::constant(w.nat))
            .is_proved());
        assert!(p
            .subtype(&Term::constant(w.int), &Term::constant(w.unnat))
            .is_proved());
        assert!(p
            .subtype(&Term::constant(w.nat), &Term::constant(w.int))
            .is_refuted());
        assert!(p
            .subtype(&Term::constant(w.nat), &Term::constant(w.unnat))
            .is_refuted());
        // Reflexivity through the substitution axiom.
        assert!(p
            .subtype(&Term::constant(w.nat), &Term::constant(w.nat))
            .is_proved());
    }

    #[test]
    fn membership_of_numerals() {
        let w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let nat = Term::constant(w.nat);
        let unnat = Term::constant(w.unnat);
        let int = Term::constant(w.int);
        assert!(p.member(&nat, &w.num(0)).is_proved());
        assert!(p.member(&nat, &w.num(3)).is_proved());
        assert!(p.member(&nat, &w.num(-1)).is_refuted());
        assert!(p.member(&unnat, &w.num(-2)).is_proved());
        assert!(p.member(&unnat, &w.num(2)).is_refuted());
        assert!(p.member(&int, &w.num(5)).is_proved());
        assert!(p.member(&int, &w.num(-5)).is_proved());
    }

    #[test]
    fn paper_section2_membership_derivation() {
        // cons(foo, nil) ∈ M_C⟦list(A)⟧ — the worked example of §2.
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let ty = Term::app(w.list, vec![Term::Var(a)]);
        let t = Term::app(w.cons, vec![Term::constant(w.foo), Term::constant(w.nil)]);
        let proof = p.member(&ty, &t);
        assert!(proof.is_proved());
        // The computed answer instantiates A (to a supertype of foo — here
        // unification yields foo itself).
        let answer = proof.answer().unwrap();
        assert_eq!(answer.resolve(&Term::Var(a)), Term::constant(w.foo));
    }

    #[test]
    fn polymorphic_list_subtyping() {
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let b = w.gen.fresh();
        // list(A) ⪰ nelist(B) (existentially: A and B unify).
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let nelist_b = Term::app(w.nelist, vec![Term::Var(b)]);
        assert!(p.subtype(&list_a, &nelist_b).is_proved());
        // list(int) ⪰ nelist(int) but not vice versa.
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &nelist_int).is_proved());
        assert!(p.subtype(&nelist_int, &list_int).is_refuted());
        // elist is a subtype of any list(τ).
        assert!(p.subtype(&list_int, &Term::constant(w.elist)).is_proved());
    }

    #[test]
    fn no_depth_subtyping_across_unrelated_ctors() {
        let w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        assert!(p.subtype(&Term::constant(w.int), &list_int).is_refuted());
        assert!(p.subtype(&list_int, &Term::constant(w.int)).is_refuted());
    }

    #[test]
    fn covariant_argument_subtyping() {
        // list(int) ⪰ list(nat) via the substitution axiom for list.
        let w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        assert!(p.subtype(&list_int, &list_nat).is_proved());
        assert!(p.subtype(&list_nat, &list_int).is_refuted());
    }

    #[test]
    fn membership_of_heterogeneous_list_needs_join() {
        // cons(0, cons(pred(0), nil)) ∈ M_C⟦list(A)⟧ requires A ⪰ 0 and
        // A ⪰ pred(0) simultaneously: unification alone would commit A = 0
        // and fail. The budget-bounded enumeration finds A = unnat (or int).
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let ty = Term::app(w.list, vec![Term::Var(a)]);
        let t = w.list_of(&[w.num(0), w.num(-1)]);
        let proof = p.member(&ty, &t);
        assert!(proof.is_proved(), "got {proof:?}");
        // And the witness type must cover both elements.
        let witness = proof.answer().unwrap().resolve(&Term::Var(a));
        assert!(p.member(&witness, &w.num(0)).is_proved());
        assert!(p.member(&witness, &w.num(-1)).is_proved());
    }

    #[test]
    fn zero_budget_reports_unknown_not_refuted() {
        let mut w = world();
        let config = ProverConfig {
            var_expansion_budget: 0,
            ..ProverConfig::default()
        };
        let p = Prover::with_config(&w.sig, &w.cs, config);
        let a = w.gen.fresh();
        let ty = Term::app(w.list, vec![Term::Var(a)]);
        let t = w.list_of(&[w.num(0), w.num(-1)]);
        let proof = p.member(&ty, &t);
        assert!(proof.is_unknown(), "got {proof:?}");
    }

    #[test]
    fn nested_lists() {
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        // cons(cons(0, nil), nil) ∈ M_C⟦list(list(nat))⟧.
        let inner = w.list_of(&[w.num(0)]);
        let t = w.list_of(&[inner]);
        let ty = Term::app(w.list, vec![Term::app(w.list, vec![Term::constant(w.nat)])]);
        assert!(p.member(&ty, &t).is_proved());
        // But not of list(list(unnat)) — succ(0) is not an unnat… use num(1).
        let t2 = w.list_of(&[w.list_of(&[w.num(1)])]);
        let ty2 = Term::app(
            w.list,
            vec![Term::app(w.list, vec![Term::constant(w.unnat)])],
        );
        assert!(p.member(&ty2, &t2).is_refuted());
        let _ = w.gen.fresh();
    }

    #[test]
    fn union_types_directly() {
        // f(int) + f(list(A)) style unions work as bare types.
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let plus = w.sig.lookup("+").unwrap();
        let union = Term::app(plus, vec![Term::constant(w.nat), Term::constant(w.elist)]);
        assert!(p.member(&union, &w.num(2)).is_proved());
        assert!(p.member(&union, &Term::constant(w.nil)).is_proved());
        assert!(p.member(&union, &w.list_of(&[w.num(0)])).is_refuted());
        let _ = w.gen.fresh();
    }

    #[test]
    fn answers_are_normalized_and_relevant() {
        let mut w = world();
        let p = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let ty = Term::app(w.nelist, vec![Term::Var(a)]);
        let t = w.list_of(&[w.num(0)]);
        let proof = p.member(&ty, &t);
        let answer = proof.answer().expect("proved");
        // The answer binds a to some type covering 0.
        let witness = answer.resolve(&Term::Var(a));
        assert!(!witness.is_var());
    }
}
