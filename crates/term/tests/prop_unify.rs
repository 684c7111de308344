//! Property-based tests for unification and substitutions.

use proptest::prelude::*;

use lp_term::{
    rename_term, unify, unify_trailed, OccursCheck, Signature, Subst, Sym, SymKind, Term, Trail,
    Var, VarGen,
};

fn sig3() -> (Signature, Vec<Sym>) {
    let mut sig = Signature::new();
    let syms = vec![
        sig.declare_with_arity("a", SymKind::Func, 0).unwrap(),
        sig.declare_with_arity("b", SymKind::Func, 0).unwrap(),
        sig.declare_with_arity("f", SymKind::Func, 1).unwrap(),
        sig.declare_with_arity("g", SymKind::Func, 2).unwrap(),
    ];
    (sig, syms)
}

/// A strategy for terms over {a, b, f/1, g/2} and 4 variables.
fn term_strategy() -> impl Strategy<Value = Term> {
    let (_sig, syms) = sig3();
    let a = syms[0];
    let b = syms[1];
    let f = syms[2];
    let g = syms[3];
    let leaf = prop_oneof![
        (0u32..4).prop_map(|v| Term::Var(Var(v))),
        Just(Term::constant(a)),
        Just(Term::constant(b)),
    ];
    leaf.prop_recursive(4, 32, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(move |t| Term::app(f, vec![t])),
            (inner.clone(), inner).prop_map(move |(t, u)| Term::app(g, vec![t, u])),
        ]
    })
}

proptest! {
    /// Trailed unification binds exactly what plain unification binds, and
    /// undoing to the mark taken before it restores the substitution —
    /// after a failed attempt's partial bindings too.
    #[test]
    fn trailed_unification_undoes_exactly(
        t0 in term_strategy(),
        u0 in term_strategy(),
        t1 in term_strategy(),
        t2 in term_strategy(),
    ) {
        let mut base = Subst::new();
        let mut trail = Trail::new();
        let _ = unify_trailed(&t0, &u0, &mut base, OccursCheck::Enabled, &mut trail);
        let mut plain = base.clone();
        let plain_ok = unify(&t1, &t2, &mut plain).is_ok();
        let before = base.clone();
        let mark = trail.mark();
        let trailed_ok =
            unify_trailed(&t1, &t2, &mut base, OccursCheck::Enabled, &mut trail).is_ok();
        prop_assert_eq!(plain_ok, trailed_ok);
        prop_assert_eq!(&plain, &base);
        trail.undo_to(&mut base, mark);
        prop_assert_eq!(&base, &before);
    }

    #[test]
    fn unify_with_self_is_trivial(t in term_strategy()) {
        let mut s = Subst::new();
        prop_assert!(unify(&t, &t, &mut s).is_ok());
        // No variable of t ends up bound to anything but itself.
        prop_assert_eq!(s.normalize().resolve(&t), t);
    }

    #[test]
    fn mgu_is_a_unifier(t1 in term_strategy(), t2 in term_strategy()) {
        let mut s = Subst::new();
        if unify(&t1, &t2, &mut s).is_ok() {
            prop_assert_eq!(s.resolve(&t1), s.resolve(&t2));
        }
    }

    #[test]
    fn unification_is_symmetric(t1 in term_strategy(), t2 in term_strategy()) {
        let mut s12 = Subst::new();
        let mut s21 = Subst::new();
        let r12 = unify(&t1, &t2, &mut s12).is_ok();
        let r21 = unify(&t2, &t1, &mut s21).is_ok();
        prop_assert_eq!(r12, r21);
        if r12 {
            // Both mgus unify both terms.
            prop_assert_eq!(s21.resolve(&t1), s21.resolve(&t2));
        }
    }

    #[test]
    fn unifiers_survive_renaming(t1 in term_strategy(), t2 in term_strategy()) {
        // Renaming both terms apart consistently preserves unifiability.
        let mut s = Subst::new();
        let unifiable = unify(&t1, &t2, &mut s).is_ok();
        let mut gen = VarGen::starting_at(100);
        let mut map = std::collections::HashMap::new();
        let r1 = rename_term(&t1, &mut gen, &mut map);
        let r2 = rename_term(&t2, &mut gen, &mut map);
        let mut s2 = Subst::new();
        prop_assert_eq!(unify(&r1, &r2, &mut s2).is_ok(), unifiable);
    }

    #[test]
    fn ground_unification_is_equality(t1 in term_strategy(), t2 in term_strategy()) {
        if t1.is_ground() && t2.is_ground() {
            let mut s = Subst::new();
            prop_assert_eq!(unify(&t1, &t2, &mut s).is_ok(), t1 == t2);
            prop_assert!(s.is_empty() || t1 == t2);
        }
    }

    #[test]
    fn normalize_is_idempotent_substitution(t1 in term_strategy(), t2 in term_strategy()) {
        let mut s = Subst::new();
        if unify(&t1, &t2, &mut s).is_ok() {
            let n = s.normalize();
            for (v, _) in n.iter() {
                let once = n.resolve(&Term::Var(v));
                let twice = n.resolve(&once);
                prop_assert_eq!(once, twice);
            }
        }
    }

    #[test]
    fn resolve_and_map_vars_agree(t in term_strategy()) {
        // For a substitution to ground terms, resolve == map_vars.
        let (_sig, syms) = sig3();
        let a = Term::constant(syms[0]);
        let s = Subst::from_bindings((0..4).map(|v| (Var(v), a.clone())));
        let via_resolve = s.resolve(&t);
        let via_map = t.map_vars(&mut |v| s.get(v).cloned().unwrap_or(Term::Var(v)));
        prop_assert_eq!(via_resolve, via_map);
        prop_assert!(s.resolve(&t).is_ground());
    }

    #[test]
    fn size_and_depth_monotone_under_substitution(t in term_strategy()) {
        let (_sig, syms) = sig3();
        let f = syms[2];
        let bigger = Term::app(f, vec![Term::constant(syms[0])]);
        let s = Subst::from_bindings((0..4).map(|v| (Var(v), bigger.clone())));
        let r = s.resolve(&t);
        prop_assert!(r.size() >= t.size());
        prop_assert!(r.depth() >= t.depth());
    }
}
