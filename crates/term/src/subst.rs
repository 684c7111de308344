//! Substitutions: finite maps from variables to terms.
//!
//! Unification builds *triangular* substitutions (a binding's right-hand side
//! may mention variables bound elsewhere in the same substitution), so
//! [`Subst::resolve`] chases bindings recursively. The occurs check performed
//! during unification guarantees this terminates. [`Subst::normalize`] turns a
//! triangular substitution into the equivalent idempotent one — the form the
//! paper assumes for most general unifiers ("we assume that most general
//! unifiers are idempotent and relevant").

use std::collections::HashMap;

use crate::term::{Term, Var};

/// A substitution `θ`: a finite map from variables to terms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Subst {
    map: HashMap<Var, Term>,
}

impl Subst {
    /// Creates the empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a substitution from explicit bindings.
    ///
    /// Later bindings for the same variable overwrite earlier ones.
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Var, Term)>) -> Self {
        Subst {
            map: bindings.into_iter().collect(),
        }
    }

    /// Binds `v` to `t`, replacing any previous binding.
    pub fn bind(&mut self, v: Var, t: Term) {
        self.map.insert(v, t);
    }

    /// Removes and returns the binding for `v`. Only undo logs call this —
    /// [`Trail::undo_to`](crate::Trail::undo_to) and the constraint
    /// matcher's journal — to take back the bindings made since a mark.
    pub fn unbind(&mut self, v: Var) -> Option<Term> {
        self.map.remove(&v)
    }

    /// The binding for `v`, if any (no chasing).
    pub fn get(&self, v: Var) -> Option<&Term> {
        self.map.get(&v)
    }

    /// Whether `v` is bound.
    pub fn binds(&self, v: Var) -> bool {
        self.map.contains_key(&v)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the raw bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Term)> {
        self.map.iter().map(|(v, t)| (*v, t))
    }

    /// The domain of the substitution, sorted.
    pub fn domain(&self) -> Vec<Var> {
        let mut d: Vec<_> = self.map.keys().copied().collect();
        d.sort();
        d
    }

    /// Walks a *variable* to its final representative: follows bindings while
    /// they lead to variables, returning the last term reached (which may
    /// still be an unresolved application containing bound variables).
    ///
    /// # Panics
    ///
    /// Panics after a million hops, which can only mean a cyclic binding
    /// chain (e.g. built by unchecked [`Subst::bind`] calls on variables
    /// that were not standardized apart). A loud panic here beats the
    /// silent infinite loop it replaces.
    pub fn walk<'a>(&'a self, mut t: &'a Term) -> &'a Term {
        let mut hops = 0usize;
        while let Term::Var(v) = t {
            match self.map.get(v) {
                Some(next) => {
                    t = next;
                    hops += 1;
                    assert!(hops <= 1_000_000, "cyclic substitution chain at {v:?}");
                }
                None => break,
            }
        }
        t
    }

    /// Applies the substitution fully: every bound variable in `t` is
    /// replaced, recursively, by its resolved binding.
    ///
    /// # Panics
    ///
    /// Does not terminate if the substitution is cyclic; substitutions built
    /// by [`unify`](crate::unify) are acyclic thanks to the occurs check.
    pub fn resolve(&self, t: &Term) -> Term {
        match self.walk(t) {
            Term::Var(v) => Term::Var(*v),
            Term::App(s, args) => Term::App(*s, args.iter().map(|a| self.resolve(a)).collect()),
        }
    }

    /// Converts to an equivalent idempotent substitution: every right-hand
    /// side is fully resolved, and identity bindings `v ↦ v` are dropped.
    pub fn normalize(&self) -> Subst {
        let mut out = HashMap::with_capacity(self.map.len());
        for (&v, t) in &self.map {
            let r = self.resolve(t);
            if r != Term::Var(v) {
                out.insert(v, r);
            }
        }
        Subst { map: out }
    }

    /// Restricts the substitution to the given variables (after resolving).
    pub fn restrict(&self, vars: impl IntoIterator<Item = Var>) -> Subst {
        let mut out = HashMap::new();
        for v in vars {
            if self.binds(v) {
                out.insert(v, self.resolve(&Term::Var(v)));
            }
        }
        Subst { map: out }
    }

    /// Composition `self ∘ other` in application order: applying the result
    /// is the same as applying `self` first, then `other`.
    ///
    /// That is, `(self.compose(other)).resolve(t) ==
    /// other.resolve(&self.resolve(t))` for substitutions whose composite is
    /// acyclic.
    pub fn compose(&self, other: &Subst) -> Subst {
        let mut out = HashMap::new();
        for (&v, t) in &self.map {
            let r = other.resolve(t);
            if r != Term::Var(v) {
                out.insert(v, r);
            }
        }
        for (&v, t) in &other.map {
            out.entry(v).or_insert_with(|| t.clone());
        }
        Subst { map: out }
    }

    /// Whether the substitution is a variable renaming (injective map to
    /// distinct variables).
    pub fn is_renaming(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.map.values().all(|t| match self.walk(t) {
            Term::Var(v) => seen.insert(*v),
            _ => false,
        })
    }
}

impl FromIterator<(Var, Term)> for Subst {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        Subst::from_bindings(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Signature, SymKind};

    fn sig3() -> (Signature, crate::Sym, crate::Sym, crate::Sym) {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let a = sig.declare("a", SymKind::Func).unwrap();
        let b = sig.declare("b", SymKind::Func).unwrap();
        (sig, f, a, b)
    }

    #[test]
    fn resolve_chases_chains() {
        let (_s, _f, a, _b) = sig3();
        let mut th = Subst::new();
        th.bind(Var(0), Term::Var(Var(1)));
        th.bind(Var(1), Term::constant(a));
        assert_eq!(th.resolve(&Term::Var(Var(0))), Term::constant(a));
    }

    #[test]
    fn resolve_descends_into_applications() {
        let (_s, f, a, _b) = sig3();
        let mut th = Subst::new();
        th.bind(Var(0), Term::app(f, vec![Term::Var(Var(1))]));
        th.bind(Var(1), Term::constant(a));
        assert_eq!(
            th.resolve(&Term::Var(Var(0))),
            Term::app(f, vec![Term::constant(a)])
        );
    }

    #[test]
    fn normalize_produces_idempotent() {
        let (_s, f, a, _b) = sig3();
        let mut th = Subst::new();
        th.bind(Var(0), Term::app(f, vec![Term::Var(Var(1))]));
        th.bind(Var(1), Term::constant(a));
        let n = th.normalize();
        // Idempotent: resolving twice equals resolving once.
        let t = Term::Var(Var(0));
        assert_eq!(n.resolve(&n.resolve(&t)), n.resolve(&t));
        assert_eq!(n.get(Var(0)), Some(&Term::app(f, vec![Term::constant(a)])));
    }

    #[test]
    fn compose_order_is_apply_self_then_other() {
        let (_s, _f, a, b) = sig3();
        // self: X ↦ Y ; other: Y ↦ a, X ↦ b.
        let s1 = Subst::from_bindings([(Var(0), Term::Var(Var(1)))]);
        let s2 = Subst::from_bindings([(Var(1), Term::constant(a)), (Var(0), Term::constant(b))]);
        let c = s1.compose(&s2);
        // X goes through Y to a (s1 first), not to b.
        assert_eq!(c.resolve(&Term::Var(Var(0))), Term::constant(a));
        assert_eq!(c.resolve(&Term::Var(Var(1))), Term::constant(a));
    }

    #[test]
    fn restrict_keeps_only_requested() {
        let (_s, _f, a, b) = sig3();
        let th = Subst::from_bindings([(Var(0), Term::constant(a)), (Var(1), Term::constant(b))]);
        let r = th.restrict([Var(0), Var(5)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(Var(0)), Some(&Term::constant(a)));
        assert!(!r.binds(Var(1)));
    }

    #[test]
    fn renaming_detection() {
        let (_s, _f, a, _b) = sig3();
        let ren = Subst::from_bindings([(Var(0), Term::Var(Var(5))), (Var(1), Term::Var(Var(6)))]);
        assert!(ren.is_renaming());
        let not_inj =
            Subst::from_bindings([(Var(0), Term::Var(Var(5))), (Var(1), Term::Var(Var(5)))]);
        assert!(!not_inj.is_renaming());
        let to_const = Subst::from_bindings([(Var(0), Term::constant(a))]);
        assert!(!to_const.is_renaming());
    }
}
