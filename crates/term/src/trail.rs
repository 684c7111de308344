//! An undo trail for backtracking over one mutable substitution.
//!
//! Depth-first searches (the SLD engine, the §3 subtype prover) keep a
//! single [`Subst`] and record every variable they bind on a [`Trail`]. A
//! choice point remembers [`Trail::mark`]; trying its next alternative
//! undoes back to that mark instead of restoring a cloned copy of the whole
//! substitution — the WAM's trail.
//!
//! Undoing is exact because bindings are only ever *added* above a mark,
//! never overwritten: [`Trail::bind`] asserts (in debug builds) that the
//! variable is unbound, which keeps every binding's domain disjoint from the
//! bindings it was layered on.

use crate::subst::Subst;
use crate::term::{Term, Var};

/// The variables bound since the search started, in binding order.
#[derive(Debug, Clone, Default)]
pub struct Trail {
    bound: Vec<Var>,
}

impl Trail {
    /// An empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current position; pass it to [`Trail::undo_to`] to remove every
    /// binding made after this call.
    pub fn mark(&self) -> usize {
        self.bound.len()
    }

    /// Binds the *unbound* variable `v` to `t` in `subst`, recording `v`.
    pub fn bind(&mut self, subst: &mut Subst, v: Var, t: Term) {
        debug_assert!(!subst.binds(v), "trailed bind would rebind {v:?}");
        subst.bind(v, t);
        self.bound.push(v);
    }

    /// Removes from `subst` every binding recorded after `mark`.
    pub fn undo_to(&mut self, subst: &mut Subst, mark: usize) {
        debug_assert!(
            mark <= self.bound.len(),
            "undo to a mark past the trail end"
        );
        for v in self.bound.drain(mark..) {
            subst.unbind(v);
        }
        debug_assert_eq!(self.bound.len(), mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Signature, SymKind};

    #[test]
    fn undo_restores_the_marked_substitution() {
        let mut sig = Signature::new();
        let a = sig.declare("a", SymKind::Func).unwrap();
        let mut subst = Subst::new();
        let mut trail = Trail::new();
        trail.bind(&mut subst, Var(0), Term::constant(a));
        let before = subst.clone();
        let mark = trail.mark();
        trail.bind(&mut subst, Var(1), Term::Var(Var(0)));
        trail.bind(&mut subst, Var(2), Term::constant(a));
        trail.undo_to(&mut subst, mark);
        assert_eq!(subst, before);
        assert_eq!(trail.mark(), mark);
        trail.undo_to(&mut subst, 0);
        assert!(subst.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rebind")]
    fn rebinding_a_bound_variable_is_caught() {
        let mut subst = Subst::new();
        let mut trail = Trail::new();
        trail.bind(&mut subst, Var(0), Term::Var(Var(1)));
        trail.bind(&mut subst, Var(0), Term::Var(Var(2)));
    }
}
