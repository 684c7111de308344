//! Fresh-variable generation and consistent renaming.
//!
//! SLD resolution requires each program clause to be renamed apart from the
//! current goal before resolving (standardization apart); the type checker
//! similarly needs fresh copies of predicate types for each body atom (the
//! `η_i` of Definition 16 act on fresh copies). Both use [`VarGen`].

use std::collections::HashMap;

use crate::term::{Term, Var};

/// A generator of fresh variables.
///
/// All components that may introduce variables into the same namespace must
/// share one `VarGen` (or seed later ones past the earlier ones' watermark).
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator starting at variable 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator whose first fresh variable is `next`.
    pub fn starting_at(next: u32) -> Self {
        VarGen { next }
    }

    /// Returns a fresh, never-before-returned variable.
    #[inline]
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }

    /// The watermark: all variables below this index have been handed out.
    pub fn watermark(&self) -> u32 {
        self.next
    }

    /// Advances the watermark past `v` so it will never be handed out.
    pub fn reserve(&mut self, v: Var) {
        if v.0 >= self.next {
            self.next = v.0 + 1;
        }
    }
}

/// Renames the variables of `t` consistently: every distinct variable maps to
/// a fresh one from `gen`, recorded in `map` (shared occurrences stay shared).
///
/// Passing the same `map` to several calls renames a group of terms (e.g. the
/// head and body of one clause) apart *together*.
pub fn rename_term(t: &Term, gen: &mut VarGen, map: &mut HashMap<Var, Var>) -> Term {
    t.map_vars(&mut |v| {
        let w = *map.entry(v).or_insert_with(|| gen.fresh());
        Term::Var(w)
    })
}

/// Renames a slice of terms apart together, sharing one renaming map.
pub fn rename_all(ts: &[Term], gen: &mut VarGen) -> Vec<Term> {
    let mut map = HashMap::new();
    ts.iter().map(|t| rename_term(t, gen, &mut map)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Signature, SymKind};

    #[test]
    fn fresh_is_monotone() {
        let mut g = VarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(b.0 > a.0);
        assert_eq!(g.watermark(), 2);
    }

    #[test]
    fn reserve_skips_past() {
        let mut g = VarGen::new();
        g.reserve(Var(10));
        assert_eq!(g.fresh(), Var(11));
        g.reserve(Var(3)); // no-op, already past
        assert_eq!(g.fresh(), Var(12));
    }

    #[test]
    fn rename_preserves_sharing() {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let t = Term::app(
            f,
            vec![Term::Var(Var(0)), Term::Var(Var(0)), Term::Var(Var(1))],
        );
        let mut g = VarGen::starting_at(100);
        let mut map = HashMap::new();
        let r = rename_term(&t, &mut g, &mut map);
        match r {
            Term::App(_, args) => {
                assert_eq!(args[0], args[1]);
                assert_ne!(args[0], args[2]);
                assert!(matches!(args[0], Term::Var(Var(n)) if n >= 100));
            }
            _ => panic!("expected application"),
        }
    }

    #[test]
    fn rename_all_shares_across_terms() {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let t1 = Term::app(f, vec![Term::Var(Var(0))]);
        let t2 = Term::app(f, vec![Term::Var(Var(0))]);
        let mut g = VarGen::starting_at(50);
        let rs = rename_all(&[t1, t2], &mut g);
        assert_eq!(rs[0], rs[1]);
    }
}
