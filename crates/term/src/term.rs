//! Terms over a set of symbols (paper §2).
//!
//! "A term over a set of symbols S is either a variable or a symbol
//! `s/n ∈ S` applied to n terms over S." Types (Definition 1) are terms over
//! `F ∪ T`; atoms are predicate symbols applied to terms over `F`. All of
//! these share the single [`Term`] representation; the classification lives
//! in the [`Signature`](crate::Signature).

use std::collections::BTreeSet;

use crate::symbol::Sym;

/// A logic variable.
///
/// Variables are plain numeric handles; human-readable names (from source
/// text) are kept externally in [`NameHints`](crate::NameHints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The raw index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A first-order term: a variable or a symbol applied to argument terms.
///
/// Constants are 0-ary applications (the paper "treats 0-ary symbols as if
/// they were arbitrary n-ary symbols" and so do we).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// `s(t₁, …, tₙ)`; `n = 0` for constants.
    App(Sym, Vec<Term>),
}

impl Term {
    /// Builds an application term `sym(args…)`.
    #[inline]
    pub fn app(sym: Sym, args: Vec<Term>) -> Self {
        Term::App(sym, args)
    }

    /// Builds a constant (0-ary application).
    pub fn constant(sym: Sym) -> Self {
        Term::App(sym, Vec::new())
    }

    /// Builds a variable term.
    pub fn var(v: Var) -> Self {
        Term::Var(v)
    }

    /// The outermost symbol, or `None` for a variable.
    pub fn functor(&self) -> Option<Sym> {
        match self {
            Term::Var(_) => None,
            Term::App(s, _) => Some(*s),
        }
    }

    /// The argument list, empty for variables and constants.
    pub fn args(&self) -> &[Term] {
        match self {
            Term::Var(_) => &[],
            Term::App(_, args) => args,
        }
    }

    /// Whether the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Number of symbol and variable occurrences (the paper's "size of t",
    /// used in the termination argument for `match`, Theorem 5).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Height of the term tree; a variable or constant has depth 1.
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }

    /// The set of variables occurring in the term, in sorted order.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Accumulates the variables of the term into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Term::Var(v) => {
                out.insert(*v);
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Whether `v` occurs in the term.
    pub fn contains_var(&self, v: Var) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::App(_, args) => args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// Whether the symbol `s` occurs anywhere in the term.
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self {
            Term::Var(_) => false,
            Term::App(t, args) => *t == s || args.iter().any(|a| a.contains_sym(s)),
        }
    }

    /// Pre-order iterator over all subterms, including the term itself.
    pub fn subterms(&self) -> Subterms<'_> {
        Subterms { stack: vec![self] }
    }

    /// Rewrites every variable through `f`, rebuilding the term.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> Term) -> Term {
        match self {
            Term::Var(v) => f(*v),
            Term::App(s, args) => Term::App(*s, args.iter().map(|a| a.map_vars(f)).collect()),
        }
    }
}

/// Pre-order subterm iterator returned by [`Term::subterms`].
#[derive(Debug)]
pub struct Subterms<'a> {
    stack: Vec<&'a Term>,
}

impl<'a> Iterator for Subterms<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        let t = self.stack.pop()?;
        if let Term::App(_, args) = t {
            // Push in reverse so iteration visits arguments left to right.
            for a in args.iter().rev() {
                self.stack.push(a);
            }
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{Signature, SymKind};

    fn fixture() -> (Signature, Sym, Sym, Sym) {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let g = sig.declare("g", SymKind::Func).unwrap();
        let a = sig.declare("a", SymKind::Func).unwrap();
        (sig, f, g, a)
    }

    #[test]
    fn size_and_depth() {
        let (_sig, f, g, a) = fixture();
        // f(g(a), X)
        let t = Term::app(
            f,
            vec![Term::app(g, vec![Term::constant(a)]), Term::Var(Var(0))],
        );
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 3);
        assert!(!t.is_ground());
        assert!(Term::constant(a).is_ground());
    }

    #[test]
    fn vars_are_sorted_and_deduped() {
        let (_sig, f, _g, _a) = fixture();
        let t = Term::app(
            f,
            vec![Term::Var(Var(3)), Term::Var(Var(1)), Term::Var(Var(3))],
        );
        let vs: Vec<_> = t.vars().into_iter().collect();
        assert_eq!(vs, vec![Var(1), Var(3)]);
    }

    #[test]
    fn contains_checks() {
        let (_sig, f, g, a) = fixture();
        let t = Term::app(f, vec![Term::app(g, vec![Term::Var(Var(7))])]);
        assert!(t.contains_var(Var(7)));
        assert!(!t.contains_var(Var(8)));
        assert!(t.contains_sym(g));
        assert!(!t.contains_sym(a));
    }

    #[test]
    fn subterm_iteration_is_preorder() {
        let (_sig, f, g, a) = fixture();
        let t = Term::app(
            f,
            vec![Term::app(g, vec![Term::constant(a)]), Term::Var(Var(0))],
        );
        let order: Vec<_> = t
            .subterms()
            .map(|s| match s {
                Term::Var(_) => "var".to_string(),
                Term::App(sym, _) => format!("sym{}", sym.index()),
            })
            .collect();
        assert_eq!(order, vec!["sym0", "sym1", "sym2", "var"]);
    }

    #[test]
    fn map_vars_rebuilds() {
        let (_sig, f, _g, a) = fixture();
        let t = Term::app(f, vec![Term::Var(Var(0)), Term::Var(Var(1))]);
        let u = t.map_vars(&mut |v| {
            if v == Var(0) {
                Term::constant(a)
            } else {
                Term::Var(v)
            }
        });
        assert_eq!(u, Term::app(f, vec![Term::constant(a), Term::Var(Var(1))]));
    }
}
