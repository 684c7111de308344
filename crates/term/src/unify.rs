//! Most general unification (Robinson / Martelli–Montanari style).
//!
//! The engine and the type checker both rely on mgus being **idempotent and
//! relevant**, as the paper assumes (§4); [`unify`] builds a triangular
//! substitution whose [`normalize`](crate::Subst::normalize) is exactly such
//! an mgu, and whose domain ∪ range only mentions variables of the two input
//! terms (relevance).

use std::fmt;

use crate::subst::Subst;
use crate::symbol::Sym;
use crate::term::{Term, Var};
use crate::trail::Trail;

/// Whether unification performs the occurs check.
///
/// The type system always unifies with the occurs check enabled (type terms
/// must stay finite); the SLD engine does too by default, trading a little
/// speed for soundness, but can be configured for benchmark comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OccursCheck {
    /// Reject bindings `v ↦ t` when `v` occurs in `t` (sound).
    #[default]
    Enabled,
    /// Skip the check (classic Prolog behaviour; unsound on cyclic data).
    Disabled,
}

/// Unification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifyError {
    /// Two applications had different outermost symbols or arities.
    Clash {
        /// Outermost symbol of the left term.
        left: Sym,
        /// Outermost symbol of the right term.
        right: Sym,
    },
    /// Binding a variable to a term containing it.
    OccursCheck {
        /// The variable that would become cyclic.
        var: Var,
    },
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::Clash { .. } => write!(f, "symbol clash"),
            UnifyError::OccursCheck { var } => write!(f, "occurs check failed on _{}", var.0),
        }
    }
}

impl std::error::Error for UnifyError {}

/// Unifies `t1` and `t2` under the bindings already in `subst`, extending
/// `subst` with the new bindings on success. Equivalent to solving
/// `t1 σ = t2 σ` where `σ` is the incoming substitution.
///
/// On failure `subst` may contain partial bindings. Callers that need to
/// retract them use [`unify_trailed`] and undo to a [`Trail`] mark (the
/// SLD engine and the subtype prover do).
///
/// # Errors
///
/// [`UnifyError::Clash`] on constructor mismatch, [`UnifyError::OccursCheck`]
/// on a cyclic binding.
pub fn unify(t1: &Term, t2: &Term, subst: &mut Subst) -> Result<(), UnifyError> {
    unify_with(t1, t2, subst, OccursCheck::Enabled)
}

/// [`unify`] with an explicit occurs-check mode.
///
/// # Errors
///
/// As for [`unify`]; `OccursCheck::Disabled` never reports
/// [`UnifyError::OccursCheck`].
pub fn unify_with(
    t1: &Term,
    t2: &Term,
    subst: &mut Subst,
    occurs: OccursCheck,
) -> Result<(), UnifyError> {
    unify_core(t1, t2, subst, occurs, &mut |subst, v, t| subst.bind(v, t))
}

/// [`unify_with`] recording every new binding on `trail`, so that
/// [`Trail::undo_to`] a mark taken before the call retracts the attempt —
/// partial bindings of a failed unification included.
///
/// # Errors
///
/// As for [`unify_with`].
pub fn unify_trailed(
    t1: &Term,
    t2: &Term,
    subst: &mut Subst,
    occurs: OccursCheck,
    trail: &mut Trail,
) -> Result<(), UnifyError> {
    unify_core(t1, t2, subst, occurs, &mut |subst, v, t| {
        trail.bind(subst, v, t)
    })
}

fn unify_core(
    t1: &Term,
    t2: &Term,
    subst: &mut Subst,
    occurs: OccursCheck,
    bind: &mut dyn FnMut(&mut Subst, Var, Term),
) -> Result<(), UnifyError> {
    // Explicit work stack avoids deep recursion on large terms. Pairs are
    // owned; only a variable's binding is copied out of `subst`.
    let mut work: Vec<(Term, Term)> = vec![(t1.clone(), t2.clone())];
    while let Some((a, b)) = work.pop() {
        let a = deref(a, subst);
        let b = deref(b, subst);
        match (a, b) {
            (Term::Var(v), Term::Var(w)) if v == w => {}
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if occurs == OccursCheck::Enabled && occurs_in(v, &t, subst) {
                    return Err(UnifyError::OccursCheck { var: v });
                }
                bind(subst, v, t);
            }
            (Term::App(f, fa), Term::App(g, ga)) => {
                if f != g || fa.len() != ga.len() {
                    return Err(UnifyError::Clash { left: f, right: g });
                }
                for (x, y) in fa.into_iter().zip(ga) {
                    work.push((x, y));
                }
            }
        }
    }
    Ok(())
}

/// `t` walked to its representative, copying only when a binding was
/// followed (an owned application is already its own representative).
fn deref(t: Term, subst: &Subst) -> Term {
    match t {
        Term::Var(v) if subst.binds(v) => subst.walk(&Term::Var(v)).clone(),
        t => t,
    }
}

/// Whether `v` occurs in `t` under the bindings of `subst`.
fn occurs_in(v: Var, t: &Term, subst: &Subst) -> bool {
    match subst.walk(t) {
        Term::Var(w) => *w == v,
        Term::App(_, args) => args.iter().any(|a| occurs_in(v, a, subst)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Signature, SymKind};

    struct Fx {
        f: Sym,
        g: Sym,
        a: Sym,
        b: Sym,
    }

    fn fx() -> Fx {
        let mut sig = Signature::new();
        Fx {
            f: sig.declare("f", SymKind::Func).unwrap(),
            g: sig.declare("g", SymKind::Func).unwrap(),
            a: sig.declare("a", SymKind::Func).unwrap(),
            b: sig.declare("b", SymKind::Func).unwrap(),
        }
    }

    fn v(n: u32) -> Term {
        Term::Var(Var(n))
    }

    #[test]
    fn unifies_var_with_term() {
        let x = fx();
        let mut s = Subst::new();
        unify(&v(0), &Term::constant(x.a), &mut s).unwrap();
        assert_eq!(s.resolve(&v(0)), Term::constant(x.a));
    }

    #[test]
    fn clash_on_different_symbols() {
        let x = fx();
        let mut s = Subst::new();
        let err = unify(&Term::constant(x.a), &Term::constant(x.b), &mut s).unwrap_err();
        assert!(matches!(err, UnifyError::Clash { .. }));
    }

    #[test]
    fn decomposes_applications() {
        let x = fx();
        let mut s = Subst::new();
        // f(X, a) = f(b, Y)
        let t1 = Term::app(x.f, vec![v(0), Term::constant(x.a)]);
        let t2 = Term::app(x.f, vec![Term::constant(x.b), v(1)]);
        unify(&t1, &t2, &mut s).unwrap();
        assert_eq!(s.resolve(&v(0)), Term::constant(x.b));
        assert_eq!(s.resolve(&v(1)), Term::constant(x.a));
    }

    #[test]
    fn occurs_check_rejects_cycle() {
        let x = fx();
        let mut s = Subst::new();
        let t = Term::app(x.f, vec![v(0)]);
        let err = unify(&v(0), &t, &mut s).unwrap_err();
        assert_eq!(err, UnifyError::OccursCheck { var: Var(0) });
    }

    #[test]
    fn occurs_check_disabled_binds_cycle() {
        let x = fx();
        let mut s = Subst::new();
        let t = Term::app(x.f, vec![v(0)]);
        unify_with(&v(0), &t, &mut s, OccursCheck::Disabled).unwrap();
        assert!(s.binds(Var(0)));
    }

    #[test]
    fn transitive_bindings_through_shared_vars() {
        let x = fx();
        let mut s = Subst::new();
        // f(X, X) = f(Y, a)  =>  X = Y = a
        let t1 = Term::app(x.f, vec![v(0), v(0)]);
        let t2 = Term::app(x.f, vec![v(1), Term::constant(x.a)]);
        unify(&t1, &t2, &mut s).unwrap();
        assert_eq!(s.resolve(&v(0)), Term::constant(x.a));
        assert_eq!(s.resolve(&v(1)), Term::constant(x.a));
    }

    #[test]
    fn deep_occurs_through_bindings() {
        let x = fx();
        let mut s = Subst::new();
        // X = g(Y), then Y = f(X) must fail the occurs check.
        unify(&v(0), &Term::app(x.g, vec![v(1)]), &mut s).unwrap();
        let err = unify(&v(1), &Term::app(x.f, vec![v(0)]), &mut s).unwrap_err();
        assert!(matches!(err, UnifyError::OccursCheck { .. }));
    }

    #[test]
    fn arity_mismatch_clashes() {
        let x = fx();
        let mut s = Subst::new();
        let t1 = Term::app(x.f, vec![v(0)]);
        let t2 = Term::app(x.f, vec![v(0), v(1)]);
        assert!(unify(&t1, &t2, &mut s).is_err());
    }

    #[test]
    fn mgu_is_most_general_for_simple_case() {
        let x = fx();
        // f(X, Y) = f(Y, Z): mgu should rename rather than instantiate to
        // ground terms; all three variables end up in one class.
        let t1 = Term::app(x.f, vec![v(0), v(1)]);
        let t2 = Term::app(x.f, vec![v(1), v(2)]);
        let mut s = Subst::new();
        unify(&t1, &t2, &mut s).unwrap();
        let r0 = s.resolve(&v(0));
        let r1 = s.resolve(&v(1));
        let r2 = s.resolve(&v(2));
        assert_eq!(r0, r1);
        assert_eq!(r1, r2);
        assert!(r0.is_var());
    }
}
