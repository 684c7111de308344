//! Flat arena storage for terms and allocation-free term utilities.
//!
//! [`Term`] is a boxed tree: every application owns a `Vec` of children, so
//! hot paths that only *traverse*, *compare*, or *key on* terms still pay a
//! per-node allocation whenever they clone or rebuild. This module provides
//! the flat alternatives the hot paths use instead:
//!
//! * [`TermArena`] / [`TermId`]: bump-allocated term storage with small-term
//!   inlining — variables and nullary applications are encoded directly in
//!   the 32-bit id and occupy no arena space at all; shared subterms are
//!   stored once (children are ids, so a parent references, not copies, its
//!   children). The ground closure ([`crate::closure`]) keeps its node set
//!   in one.
//! * Canonical flat codes ([`encode_canonical`] / [`decode_terms`]): the
//!   canonically-renamed `u32` token stream the proof table keys on, built
//!   in one pre-order walk with no intermediate `Term` allocation. The
//!   renaming it performs is identical to
//!   [`lp_term::rename_term`] with a shared first-occurrence map: the
//!   resulting codes are equal iff the renamed goal lists are equal.
//! * [`visit_vars`]: pre-order variable visitation without materializing a
//!   `BTreeSet`, for watermark/reserve loops.
//!
//! # Token scheme
//!
//! Both the arena ids and the flat codes share one tagged-`u32` scheme:
//!
//! | bits                | meaning                                    |
//! |---------------------|--------------------------------------------|
//! | `1vvv…` (bit 31)    | variable with index `v`                    |
//! | `01ss…` (bit 30)    | inline nullary application of symbol `s`   |
//! | `00ii…`             | arena node index `i` (non-nullary app)     |
//!
//! In a flat *code* stream an application is instead written as two words,
//! `[sym_index, arity]`, followed by the encodings of its arguments — the
//! stream is self-delimiting, so decode needs no length prefix.

use std::collections::HashMap;

use lp_term::{Sym, Term, Var, VarGen};

/// High bit: the payload is a variable index.
const VAR_TAG: u32 = 0x8000_0000;
/// Second-highest bit: the payload is a nullary application's symbol index.
const SYM_TAG: u32 = 0x4000_0000;

/// Index-based handle to a term stored in (or inlined outside) a
/// [`TermArena`]. `Copy`, 4 bytes, and meaningless without the arena that
/// produced it (except for the inlined variable/constant forms, which are
/// self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// True if this id encodes a bare variable.
    pub fn is_var(self) -> bool {
        self.0 & VAR_TAG != 0
    }

    /// The variable this id inlines, if any.
    pub fn as_var(self) -> Option<Var> {
        if self.is_var() {
            Some(Var(self.0 & !VAR_TAG))
        } else {
            None
        }
    }

    /// The nullary symbol this id inlines, if any.
    pub fn as_constant(self) -> Option<Sym> {
        if self.0 & VAR_TAG == 0 && self.0 & SYM_TAG != 0 {
            Some(Sym::from_index((self.0 & !SYM_TAG) as usize))
        } else {
            None
        }
    }

    fn as_node(self) -> Option<usize> {
        if self.0 & (VAR_TAG | SYM_TAG) == 0 {
            Some(self.0 as usize)
        } else {
            None
        }
    }
}

/// Bump arena for terms. Interning appends; nothing is ever freed until the
/// whole arena is dropped (the intended lifetime is "one module load" or
/// "one closure build"). Deduplication is the caller's concern — `intern`
/// always appends fresh nodes, but [`TermArena::app`] lets a caller that
/// already holds child ids build a parent that *shares* them.
#[derive(Debug, Clone, Default)]
pub struct TermArena {
    /// One entry per non-nullary application: functor plus the span of its
    /// children inside `children`.
    nodes: Vec<(Sym, u32, u32)>,
    children: Vec<TermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Number of non-inlined nodes stored (inlined vars/constants are free).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Copies `t` into the arena bottom-up and returns its id. Variables and
    /// nullary applications are inlined into the id itself.
    pub fn intern(&mut self, t: &Term) -> TermId {
        match t {
            Term::Var(v) => {
                debug_assert!(v.index() < VAR_TAG as usize, "variable index overflows tag");
                TermId(VAR_TAG | v.0)
            }
            Term::App(s, args) if args.is_empty() => {
                debug_assert!(s.index() < SYM_TAG as usize, "symbol index overflows tag");
                TermId(SYM_TAG | s.index() as u32)
            }
            Term::App(s, args) => {
                let kids: Vec<TermId> = args.iter().map(|a| self.intern(a)).collect();
                self.app(*s, &kids)
            }
        }
    }

    /// Builds an application node over already-interned children, sharing
    /// them instead of re-copying. Nullary applications are inlined.
    pub fn app(&mut self, sym: Sym, kids: &[TermId]) -> TermId {
        if kids.is_empty() {
            debug_assert!(sym.index() < SYM_TAG as usize, "symbol index overflows tag");
            return TermId(SYM_TAG | sym.index() as u32);
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        let id = self.nodes.len() as u32;
        assert!(id < SYM_TAG, "term arena node count overflows tag space");
        self.nodes.push((sym, start, kids.len() as u32));
        TermId(id)
    }

    /// The functor of `id`, or `None` for a variable.
    pub fn functor(&self, id: TermId) -> Option<Sym> {
        if id.is_var() {
            None
        } else if let Some(s) = id.as_constant() {
            Some(s)
        } else {
            Some(self.nodes[id.as_node().expect("non-inline id is a node")].0)
        }
    }

    /// The child ids of `id` (empty for variables and constants).
    pub fn args(&self, id: TermId) -> &[TermId] {
        match id.as_node() {
            Some(n) => {
                let (_, start, len) = self.nodes[n];
                &self.children[start as usize..(start + len) as usize]
            }
            None => &[],
        }
    }

    /// Rebuilds the boxed tree for `id`. The inverse of [`TermArena::intern`].
    pub fn term(&self, id: TermId) -> Term {
        if let Some(v) = id.as_var() {
            return Term::Var(v);
        }
        if let Some(s) = id.as_constant() {
            return Term::constant(s);
        }
        let n = id.as_node().expect("non-inline id is a node");
        let (sym, start, len) = self.nodes[n];
        let args = self.children[start as usize..(start + len) as usize]
            .iter()
            .map(|&k| self.term(k))
            .collect();
        Term::App(sym, args)
    }

    /// Structural equality between a stored term and a boxed tree, without
    /// rebuilding either.
    pub fn matches(&self, id: TermId, t: &Term) -> bool {
        match t {
            Term::Var(v) => id.as_var() == Some(*v),
            Term::App(s, args) => {
                if id.is_var() {
                    return false;
                }
                if args.is_empty() {
                    return id.as_constant() == Some(*s);
                }
                match id.as_node() {
                    None => false,
                    Some(n) => {
                        let (sym, start, len) = self.nodes[n];
                        sym == *s
                            && len as usize == args.len()
                            && self.children[start as usize..(start + len) as usize]
                                .iter()
                                .zip(args)
                                .all(|(&k, a)| self.matches(k, a))
                    }
                }
            }
        }
    }
}

/// Visits every variable occurrence of `t` in pre-order without allocating.
/// Replaces the `t.vars()` (`BTreeSet`) round-trip in watermark/reserve
/// loops; occurrences are visited with multiplicity, which every current
/// caller (max-reserve, set-insert) absorbs.
pub fn visit_vars(t: &Term, f: &mut impl FnMut(Var)) {
    match t {
        Term::Var(v) => f(*v),
        Term::App(_, args) => {
            for a in args {
                visit_vars(a, f);
            }
        }
    }
}

/// Appends the canonical flat code of `t` to `code`, renaming variables to
/// canonical indices in order of first occurrence across the whole
/// `(map, gen)` session — the same assignment order as
/// [`lp_term::rename_term`] over the same sequence of terms. Applications
/// are written as `[sym_index, arity]` followed by their arguments;
/// variables as a single tagged word.
pub fn encode_canonical(
    code: &mut Vec<u32>,
    t: &Term,
    map: &mut HashMap<Var, Var>,
    gen: &mut VarGen,
) {
    match t {
        Term::Var(v) => {
            let c = *map.entry(*v).or_insert_with(|| gen.fresh());
            debug_assert!(
                c.index() < VAR_TAG as usize,
                "canonical index overflows tag"
            );
            code.push(VAR_TAG | c.0);
        }
        Term::App(s, args) => {
            debug_assert!((s.index() as u32) < VAR_TAG, "symbol index overflows tag");
            code.push(s.index() as u32);
            code.push(args.len() as u32);
            for a in args {
                encode_canonical(code, a, map, gen);
            }
        }
    }
}

/// Decodes every term in a flat code stream (the inverse of a sequence of
/// [`encode_canonical`] calls). Only used off the hot path: trace
/// fingerprints and witness reconstruction.
pub fn decode_terms(code: &[u32]) -> Vec<Term> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < code.len() {
        out.push(decode_at(code, &mut pos));
    }
    out
}

fn decode_at(code: &[u32], pos: &mut usize) -> Term {
    let w = code[*pos];
    *pos += 1;
    if w & VAR_TAG != 0 {
        return Term::Var(Var(w & !VAR_TAG));
    }
    let sym = Sym::from_index(w as usize);
    let arity = code[*pos] as usize;
    *pos += 1;
    let args = (0..arity).map(|_| decode_at(code, pos)).collect();
    Term::App(sym, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_term::{Signature, SymKind};

    fn sig_with(names: &[(&str, SymKind)]) -> (Signature, Vec<Sym>) {
        let mut sig = Signature::new();
        let syms = names
            .iter()
            .map(|(n, k)| sig.declare(n, *k).expect("declare"))
            .collect();
        (sig, syms)
    }

    #[test]
    fn intern_and_rebuild_round_trip() {
        let (_sig, syms) = sig_with(&[("f", SymKind::Func), ("c", SymKind::Func)]);
        let (f, c) = (syms[0], syms[1]);
        let t = Term::app(
            f,
            vec![
                Term::constant(c),
                Term::Var(Var(7)),
                Term::app(f, vec![Term::Var(Var(7)), Term::constant(c)]),
            ],
        );
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        assert_eq!(arena.term(id), t);
        assert!(arena.matches(id, &t));
        assert!(!arena.matches(id, &Term::constant(c)));
    }

    #[test]
    fn small_terms_are_inlined() {
        let (_sig, syms) = sig_with(&[("c", SymKind::Func)]);
        let mut arena = TermArena::new();
        let v = arena.intern(&Term::Var(Var(3)));
        let c = arena.intern(&Term::constant(syms[0]));
        assert_eq!(arena.node_count(), 0, "vars and constants take no space");
        assert_eq!(v.as_var(), Some(Var(3)));
        assert_eq!(c.as_constant(), Some(syms[0]));
        assert_eq!(arena.term(v), Term::Var(Var(3)));
        assert_eq!(arena.term(c), Term::constant(syms[0]));
    }

    #[test]
    fn app_shares_children_instead_of_copying() {
        let (_sig, syms) = sig_with(&[("f", SymKind::Func), ("c", SymKind::Func)]);
        let (f, c) = (syms[0], syms[1]);
        let mut arena = TermArena::new();
        let shared = arena.intern(&Term::app(f, vec![Term::constant(c)]));
        let before = arena.node_count();
        let parent = arena.app(f, &[shared, shared]);
        assert_eq!(
            arena.node_count(),
            before + 1,
            "children are referenced, not copied"
        );
        let expect_child = Term::app(f, vec![Term::constant(c)]);
        assert_eq!(
            arena.term(parent),
            Term::app(f, vec![expect_child.clone(), expect_child])
        );
    }

    #[test]
    fn canonical_codes_match_rename_term_semantics() {
        use lp_term::rename_term;
        let (_sig, syms) = sig_with(&[("f", SymKind::Func), ("c", SymKind::Func)]);
        let (f, c) = (syms[0], syms[1]);
        // Same shape under renaming: (X, f(X, c)) vs (Y, f(Y, c)).
        let a = vec![
            Term::Var(Var(10)),
            Term::app(f, vec![Term::Var(Var(10)), Term::constant(c)]),
        ];
        let b = vec![
            Term::Var(Var(99)),
            Term::app(f, vec![Term::Var(Var(99)), Term::constant(c)]),
        ];
        // Different shape: second occurrence is a different variable.
        let d = vec![
            Term::Var(Var(1)),
            Term::app(f, vec![Term::Var(Var(2)), Term::constant(c)]),
        ];
        let encode_all = |ts: &[Term]| {
            let mut code = Vec::new();
            let mut map = HashMap::new();
            let mut gen = VarGen::new();
            for t in ts {
                encode_canonical(&mut code, t, &mut map, &mut gen);
            }
            code
        };
        let rename_all = |ts: &[Term]| {
            let mut map = HashMap::new();
            let mut gen = VarGen::new();
            ts.iter()
                .map(|t| rename_term(t, &mut gen, &mut map))
                .collect::<Vec<_>>()
        };
        assert_eq!(encode_all(&a), encode_all(&b));
        assert_eq!(rename_all(&a), rename_all(&b));
        assert_ne!(encode_all(&a), encode_all(&d));
        assert_ne!(rename_all(&a), rename_all(&d));
        // And the code decodes back to exactly the renamed terms.
        assert_eq!(decode_terms(&encode_all(&a)), rename_all(&a));
    }

    #[test]
    fn visit_vars_sees_every_occurrence_in_preorder() {
        let (_sig, syms) = sig_with(&[("f", SymKind::Func)]);
        let f = syms[0];
        let t = Term::app(
            f,
            vec![
                Term::Var(Var(2)),
                Term::app(f, vec![Term::Var(Var(1)), Term::Var(Var(2))]),
            ],
        );
        let mut seen = Vec::new();
        visit_vars(&t, &mut |v| seen.push(v.index()));
        assert_eq!(seen, vec![2, 1, 2]);
    }
}
