//! Subtype constraints and constraint sets (paper Definition 2).
//!
//! A subtype constraint for `c/n ∈ T` has the form `c(τ₁,…,τₙ) >= τ` with
//! `var(τ) ⊆ var(c(τ₁,…,τₙ))`. A [`ConstraintSet`] holds a collection of
//! such constraints indexed by their defining type constructor; a
//! [`CheckedConstraints`] is a constraint set that has additionally passed
//! the *uniform polymorphism* and *guardedness* checks of §3 and therefore
//! supports the deterministic derivation strategy and `match`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lp_term::{Signature, Sym, SymKind, Term, VarGen};

use crate::analysis::{self, TypeDeclError};
use crate::closure::GroundClosure;

/// Process-wide source of generation stamps (see [`next_generation`]).
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Returns a fresh, process-unique, strictly increasing generation stamp.
///
/// Every [`ConstraintSet`] carries the stamp of its last mutation; caches
/// keyed on the theory `H_C` (notably [`ProofTable`](crate::table::ProofTable))
/// compare stamps to detect that their entries were derived under a different
/// constraint theory and must be invalidated. Stamps are unique across *all*
/// sets in the process, so two distinct sets never share a stamp even if they
/// hold identical constraints — a cache can therefore never confuse one
/// world's verdicts with another's.
pub fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed) + 1
}

/// One subtype constraint `lhs >= rhs` (Definition 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtypeConstraint {
    /// The left-hand side `c(τ₁,…,τₙ)`; its outermost symbol is in `T`.
    pub lhs: Term,
    /// The right-hand side `τ`; `var(rhs) ⊆ var(lhs)`.
    pub rhs: Term,
}

impl SubtypeConstraint {
    /// The defining type constructor `c`.
    pub fn ctor(&self) -> Sym {
        self.lhs.functor().expect("lhs is a type-ctor application")
    }

    /// The parameters `τ₁,…,τₙ` of the left-hand side.
    pub fn params(&self) -> &[Term] {
        self.lhs.args()
    }

    /// Whether this constraint is uniform polymorphic (Definition 6): each
    /// parameter is a distinct variable.
    pub fn is_uniform(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        self.params().iter().all(|p| match p {
            Term::Var(v) => seen.insert(*v),
            _ => false,
        })
    }
}

/// A set of subtype constraints, indexed by defining constructor.
#[derive(Debug, Clone)]
pub struct ConstraintSet {
    constraints: Vec<SubtypeConstraint>,
    by_ctor: HashMap<Sym, Vec<usize>>,
    generation: u64,
}

impl Default for ConstraintSet {
    fn default() -> Self {
        ConstraintSet {
            constraints: Vec::new(),
            by_ctor: HashMap::new(),
            generation: next_generation(),
        }
    }
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the set from a loaded [`Module`](lp_parser::Module), validating
    /// each constraint against the module's signature.
    ///
    /// # Errors
    ///
    /// [`TypeDeclError::MalformedConstraint`] if a constraint violates
    /// Definition 2 (the loader already enforces this, so this only fires on
    /// hand-built modules).
    pub fn from_module(module: &lp_parser::Module) -> Result<Self, TypeDeclError> {
        let mut set = ConstraintSet::new();
        for c in &module.constraints {
            set.add(&module.sig, c.lhs.clone(), c.rhs.clone())?;
        }
        Ok(set)
    }

    /// Adds a constraint after validating Definition 2 against `sig`.
    ///
    /// # Errors
    ///
    /// [`TypeDeclError::MalformedConstraint`] if the left-hand side is not a
    /// type-constructor application or the right-hand side has variables not
    /// bound on the left.
    pub fn add(&mut self, sig: &Signature, lhs: Term, rhs: Term) -> Result<(), TypeDeclError> {
        match lhs.functor() {
            Some(c) if sig.kind(c) == SymKind::TypeCtor => {}
            _ => {
                return Err(TypeDeclError::MalformedConstraint {
                    detail: "left-hand side must be a type-constructor application".into(),
                })
            }
        }
        let lhs_vars = lhs.vars();
        if !rhs.vars().is_subset(&lhs_vars) {
            return Err(TypeDeclError::MalformedConstraint {
                detail: "right-hand side variables must occur on the left (Definition 2)".into(),
            });
        }
        let idx = self.constraints.len();
        let c = SubtypeConstraint { lhs, rhs };
        self.by_ctor.entry(c.ctor()).or_default().push(idx);
        self.constraints.push(c);
        self.generation = next_generation();
        Ok(())
    }

    /// The set's generation stamp: refreshed by every successful mutation
    /// ([`ConstraintSet::add`] and everything built on it), unique across all
    /// sets in the process. See [`next_generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Declares the predefined polymorphic union `+` in `sig` (if absent) and
    /// adds its constraints `A+B >= A.` and `A+B >= B.` (paper §1).
    ///
    /// # Errors
    ///
    /// [`TypeDeclError::MalformedConstraint`] never in practice;
    /// [`lp_term::SigError`] kind clashes surface as malformed constraints.
    pub fn add_union(
        &mut self,
        sig: &mut Signature,
        gen: &mut VarGen,
    ) -> Result<Sym, TypeDeclError> {
        let plus = sig
            .declare_with_arity("+", SymKind::TypeCtor, 2)
            .map_err(|e| TypeDeclError::MalformedConstraint {
                detail: format!("cannot predefine `+`: {e}"),
            })?;
        let (a, b) = (gen.fresh(), gen.fresh());
        self.add(
            sig,
            Term::app(plus, vec![Term::Var(a), Term::Var(b)]),
            Term::Var(a),
        )?;
        let (a2, b2) = (gen.fresh(), gen.fresh());
        self.add(
            sig,
            Term::app(plus, vec![Term::Var(a2), Term::Var(b2)]),
            Term::Var(b2),
        )?;
        Ok(plus)
    }

    /// All constraints in declaration order.
    pub fn constraints(&self) -> &[SubtypeConstraint] {
        &self.constraints
    }

    /// The constraints defining `c`, in declaration order.
    pub fn for_ctor(&self, c: Sym) -> impl Iterator<Item = &SubtypeConstraint> {
        self.for_ctor_indexed(c).map(|(_, con)| con)
    }

    /// Like [`ConstraintSet::for_ctor`], paired with each constraint's
    /// *global* declaration-order index — the index proof witnesses name in
    /// [`crate::witness::Step::Constraint`].
    pub fn for_ctor_indexed(&self, c: Sym) -> impl Iterator<Item = (usize, &SubtypeConstraint)> {
        self.by_ctor
            .get(&c)
            .into_iter()
            .flatten()
            .map(|&i| (i, &self.constraints[i]))
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Runs the §3 static checks, producing a [`CheckedConstraints`] that the
    /// deterministic prover and `match` can use.
    ///
    /// # Errors
    ///
    /// [`TypeDeclError::NonUniform`] (Definition 6) or
    /// [`TypeDeclError::Unguarded`] (Definition 9), with the offending
    /// constraint or dependence cycle.
    pub fn checked(self, sig: &Signature) -> Result<CheckedConstraints, TypeDeclError> {
        self.checked_with(sig, None)
    }

    /// Like [`ConstraintSet::checked`], but reuses `prev`'s precomputed
    /// ground closure when the new set provably cannot change it (see
    /// [`GroundClosure::compatible_with`]): the adoption rule behind
    /// incremental `serve` deltas, where most loads append clauses without
    /// touching any watched constraint list.
    ///
    /// # Errors
    ///
    /// Same as [`ConstraintSet::checked`].
    pub fn checked_reusing(
        self,
        sig: &Signature,
        prev: &CheckedConstraints,
    ) -> Result<CheckedConstraints, TypeDeclError> {
        self.checked_with(sig, Some(prev))
    }

    fn checked_with(
        self,
        sig: &Signature,
        reuse: Option<&CheckedConstraints>,
    ) -> Result<CheckedConstraints, TypeDeclError> {
        analysis::check_uniform(sig, &self)?;
        let deps = analysis::DependenceGraph::build(sig, &self);
        deps.check_guarded(sig)?;
        let closure = match reuse {
            Some(prev) if prev.closure.compatible_with(&self) => Arc::clone(&prev.closure),
            _ => Arc::new(GroundClosure::build(sig, &self)),
        };
        Ok(CheckedConstraints { set: self, closure })
    }
}

/// A constraint set known to be uniform polymorphic and guarded.
///
/// Obtained via [`ConstraintSet::checked`]; this is the precondition for the
/// deterministic strategy (Theorems 2–3) and for `match` (Definition 13).
#[derive(Debug, Clone)]
pub struct CheckedConstraints {
    set: ConstraintSet,
    /// Precomputed ground-fragment closure (paper §3 on the ground types
    /// reachable from the nullary constructors). Shared by clone/adoption;
    /// immutable, so sharing across threads and serve generations is safe.
    closure: Arc<GroundClosure>,
}

impl CheckedConstraints {
    /// The underlying constraint set.
    pub fn as_set(&self) -> &ConstraintSet {
        &self.set
    }

    /// The precomputed ground-fragment closure for this set. O(1) oracle for
    /// ground `t1 >= t2` goals; abstains on anything it did not precompute.
    pub fn ground_closure(&self) -> &Arc<GroundClosure> {
        &self.closure
    }

    /// The generation stamp inherited from the underlying set at the moment
    /// it was checked. [`ConstraintSet::checked`] consumes the set, so the
    /// stamp cannot go stale: any later mutation happens to a different
    /// (cloned) set with a newer stamp.
    pub fn generation(&self) -> u64 {
        self.set.generation()
    }

    /// The constraints defining `c`.
    pub fn for_ctor(&self, c: Sym) -> impl Iterator<Item = &SubtypeConstraint> {
        self.set.for_ctor(c)
    }

    /// The one-step rewriting `c(τ₁,…,τₙ) →_C σ` used by two-step
    /// application (Definition 7) and by `match` (Definition 13):
    /// for each constraint `c(α₁,…,αₙ) >= τ`, yields
    /// `τ{α₁ ↦ τ₁, …, αₙ ↦ τₙ}`.
    ///
    /// Returns an empty vector if `ty` is not a type-constructor application
    /// or has no defining constraints.
    ///
    /// `ty`'s variables must be standardized apart from the constraint
    /// parameters (every loader and checker draws goal variables from a
    /// generator seeded past the declarations, so this holds naturally);
    /// a capturing argument like `c(α)` for a constraint `c(α) >= τ` would
    /// make the substitution `{α ↦ c(α)}` cyclic.
    pub fn expansions(&self, ty: &Term) -> Vec<Term> {
        self.expansions_indexed(ty)
            .into_iter()
            .map(|(_, e)| e)
            .collect()
    }

    /// [`CheckedConstraints::expansions`] paired with the global
    /// (declaration-order) index of the constraint each rewriting applies —
    /// the index recorded in proof witnesses
    /// ([`crate::witness::Step::Constraint`]).
    pub fn expansions_indexed(&self, ty: &Term) -> Vec<(usize, Term)> {
        let Some(c) = ty.functor() else {
            return Vec::new();
        };
        let args = ty.args();
        self.set
            .for_ctor_indexed(c)
            .filter(|(_, con)| con.params().len() == args.len())
            .map(|(idx, con)| {
                // Uniformity: parameters are distinct variables, so the
                // paper's {αᵢ ↦ τᵢ} replaces each variable by the argument
                // at its parameter's position. Standardized-apart arguments
                // mention no αⱼ, so nothing substituted needs resolving.
                let params = con.params();
                let expansion = con.rhs.map_vars(&mut |v| {
                    params
                        .iter()
                        .position(|p| *p == Term::Var(v))
                        .map_or(Term::Var(v), |i| args[i].clone())
                });
                (idx, expansion)
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lp_term::{Subst, SymKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// This crate's checked constraints for an `lp-gen` world. `lp-gen`
    /// links its own build of this crate, so its `checked` field is a
    /// different type here; the constraints are rebuilt from the same terms.
    pub(crate) fn checked_of(w: &lp_gen::worlds::BuiltWorld) -> CheckedConstraints {
        let mut cs = ConstraintSet::new();
        for c in w.cs.constraints() {
            cs.add(&w.sig, c.lhs.clone(), c.rhs.clone()).unwrap();
        }
        cs.checked(&w.sig).unwrap()
    }

    fn nat_sig() -> (Signature, VarGen) {
        let mut sig = Signature::new();
        for f in ["0", "succ", "pred"] {
            sig.declare(f, SymKind::Func).unwrap();
        }
        for t in ["nat", "unnat", "int"] {
            sig.declare(t, SymKind::TypeCtor).unwrap();
        }
        (sig, VarGen::new())
    }

    #[test]
    fn add_validates_lhs_kind() {
        let (sig, _gen) = nat_sig();
        let zero = sig.lookup("0").unwrap();
        let nat = sig.lookup("nat").unwrap();
        let mut cs = ConstraintSet::new();
        let err = cs
            .add(&sig, Term::constant(zero), Term::constant(nat))
            .unwrap_err();
        assert!(matches!(err, TypeDeclError::MalformedConstraint { .. }));
    }

    #[test]
    fn add_validates_var_scoping() {
        let (mut sig, mut gen) = nat_sig();
        let c = sig.declare("c", SymKind::TypeCtor).unwrap();
        let d = sig.declare("d", SymKind::TypeCtor).unwrap();
        let (a, b) = (gen.fresh(), gen.fresh());
        let mut cs = ConstraintSet::new();
        let err = cs
            .add(
                &sig,
                Term::app(c, vec![Term::Var(a)]),
                Term::app(d, vec![Term::Var(a), Term::Var(b)]),
            )
            .unwrap_err();
        assert!(matches!(err, TypeDeclError::MalformedConstraint { .. }));
    }

    #[test]
    fn for_ctor_groups_constraints() {
        let (sig, _) = nat_sig();
        let nat = sig.lookup("nat").unwrap();
        let int = sig.lookup("int").unwrap();
        let zero = sig.lookup("0").unwrap();
        let mut cs = ConstraintSet::new();
        cs.add(&sig, Term::constant(nat), Term::constant(zero))
            .unwrap();
        cs.add(&sig, Term::constant(int), Term::constant(nat))
            .unwrap();
        cs.add(&sig, Term::constant(nat), Term::constant(nat))
            .unwrap();
        assert_eq!(cs.for_ctor(nat).count(), 2);
        assert_eq!(cs.for_ctor(int).count(), 1);
        assert_eq!(cs.for_ctor(zero).count(), 0);
    }

    #[test]
    fn uniformity_of_individual_constraints() {
        let (mut sig, mut gen) = nat_sig();
        let c = sig.declare("c", SymKind::TypeCtor).unwrap();
        let nat = sig.lookup("nat").unwrap();
        let (a, b) = (gen.fresh(), gen.fresh());
        let uniform = SubtypeConstraint {
            lhs: Term::app(c, vec![Term::Var(a), Term::Var(b)]),
            rhs: Term::Var(a),
        };
        assert!(uniform.is_uniform());
        let repeated = SubtypeConstraint {
            lhs: Term::app(c, vec![Term::Var(a), Term::Var(a)]),
            rhs: Term::Var(a),
        };
        assert!(!repeated.is_uniform());
        let non_var = SubtypeConstraint {
            lhs: Term::app(c, vec![Term::constant(nat), Term::Var(b)]),
            rhs: Term::Var(b),
        };
        assert!(!non_var.is_uniform());
    }

    #[test]
    fn expansions_substitute_parameters() {
        // list(A) >= elist + nelist(A), instantiated at list(nat).
        let (mut sig, mut gen) = nat_sig();
        let list = sig.declare("list", SymKind::TypeCtor).unwrap();
        let elist = sig.declare("elist", SymKind::TypeCtor).unwrap();
        let nelist = sig.declare("nelist", SymKind::TypeCtor).unwrap();
        let nat = sig.lookup("nat").unwrap();
        let mut cs = ConstraintSet::new();
        let plus = cs.add_union(&mut sig, &mut gen).unwrap();
        let a = gen.fresh();
        cs.add(
            &sig,
            Term::app(list, vec![Term::Var(a)]),
            Term::app(
                plus,
                vec![Term::constant(elist), Term::app(nelist, vec![Term::Var(a)])],
            ),
        )
        .unwrap();
        let checked = cs.checked(&sig).unwrap();
        let exps = checked.expansions(&Term::app(list, vec![Term::constant(nat)]));
        assert_eq!(exps.len(), 1);
        assert_eq!(
            exps[0],
            Term::app(
                plus,
                vec![
                    Term::constant(elist),
                    Term::app(nelist, vec![Term::constant(nat)]),
                ]
            )
        );
        // Union expands both ways.
        let union_exps = checked.expansions(&exps[0]);
        assert_eq!(union_exps.len(), 2);
        assert_eq!(union_exps[0], Term::constant(elist));
        assert_eq!(union_exps[1], Term::app(nelist, vec![Term::constant(nat)]));
    }

    /// `nat >= 0`, `int >= nat` over the nat signature, plus a parameterized
    /// `c(A) >= A` that never enters the ground fragment.
    fn ground_world() -> (Signature, ConstraintSet, Sym) {
        let (mut sig, mut gen) = nat_sig();
        let c = sig.declare_with_arity("c", SymKind::TypeCtor, 1).unwrap();
        let nat = sig.lookup("nat").unwrap();
        let int = sig.lookup("int").unwrap();
        let zero = sig.lookup("0").unwrap();
        let mut cs = ConstraintSet::new();
        cs.add(&sig, Term::constant(nat), Term::constant(zero))
            .unwrap();
        cs.add(&sig, Term::constant(int), Term::constant(nat))
            .unwrap();
        let a = gen.fresh();
        cs.add(&sig, Term::app(c, vec![Term::Var(a)]), Term::Var(a))
            .unwrap();
        (sig, cs, c)
    }

    #[test]
    fn checked_reusing_adopts_closure_when_watched_lists_unchanged() {
        let (sig, cs, c) = ground_world();
        let prev = cs.clone().checked(&sig).unwrap();
        // Identical constraints → same watched lists → adoption.
        let again = cs.clone().checked_reusing(&sig, &prev).unwrap();
        assert!(Arc::ptr_eq(prev.ground_closure(), again.ground_closure()));
        // A delta on the parameterized (unwatched) constructor is invisible
        // to the ground fragment and must also adopt.
        let mut gen = VarGen::starting_at(100);
        let b = gen.fresh();
        let mut grown = cs.clone();
        grown
            .add(&sig, Term::app(c, vec![Term::Var(b)]), Term::Var(b))
            .unwrap();
        let adopted = grown.checked_reusing(&sig, &prev).unwrap();
        assert!(Arc::ptr_eq(prev.ground_closure(), adopted.ground_closure()));
    }

    #[test]
    fn checked_reusing_rebuilds_when_a_watched_ground_edge_changes() {
        let (sig, cs, _c) = ground_world();
        let prev = cs.clone().checked(&sig).unwrap();
        let succ = sig.lookup("succ").unwrap();
        let nat = sig.lookup("nat").unwrap();
        // Editing `nat`'s defining list is a ground-edge delta: rebuild.
        let mut edited = cs.clone();
        edited
            .add(
                &sig,
                Term::constant(nat),
                Term::app(succ, vec![Term::constant(nat)]),
            )
            .unwrap();
        let rebuilt = edited.checked_reusing(&sig, &prev).unwrap();
        assert!(!Arc::ptr_eq(
            prev.ground_closure(),
            rebuilt.ground_closure()
        ));
        // And the rebuilt closure answers under the *new* theory.
        let zero = sig.lookup("0").unwrap();
        let one = Term::app(succ, vec![Term::constant(zero)]);
        assert_eq!(
            rebuilt.ground_closure().decide(&Term::constant(nat), &one),
            Some(true)
        );
        assert_eq!(
            prev.ground_closure().decide(&Term::constant(nat), &one),
            Some(false)
        );
    }

    #[test]
    fn positional_expansion_equals_the_substitution() {
        // The former implementation built a `Subst` {αᵢ ↦ τᵢ} per
        // expansion and resolved the right-hand side through it.
        fn by_subst(checked: &CheckedConstraints, ty: &Term) -> Vec<(usize, Term)> {
            let Some(c) = ty.functor() else {
                return Vec::new();
            };
            checked
                .as_set()
                .for_ctor_indexed(c)
                .filter(|(_, con)| con.params().len() == ty.args().len())
                .map(|(idx, con)| {
                    let bindings = con
                        .params()
                        .iter()
                        .zip(ty.args())
                        .map(|(p, a)| match p {
                            Term::Var(v) => (*v, a.clone()),
                            _ => unreachable!("checked constraints are uniform"),
                        })
                        .collect::<Subst>();
                    (idx, bindings.resolve(&con.rhs))
                })
                .collect()
        }
        let mut compared = 0;
        for seed in 0..40 {
            let mut w = if seed == 0 {
                lp_gen::worlds::paper_world()
            } else {
                lp_gen::worlds::random(seed, lp_gen::worlds::RandomWorldConfig::default())
            };
            let checked = checked_of(&w);
            // Goal variables come from past the declarations' watermark.
            let vars = [w.gen.fresh(), w.gen.fresh()];
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let ty = lp_gen::terms::random_type(&mut rng, &w, 3, &vars);
                let want = by_subst(&checked, &ty);
                compared += want.len();
                assert_eq!(checked.expansions_indexed(&ty), want, "{ty:?}");
            }
        }
        assert!(compared > 500, "only {compared} expansions compared");
    }
}
