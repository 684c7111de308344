//! First-order term substrate for the `subtype-lp` workspace.
//!
//! This crate provides the basic syntactic machinery that the paper
//! *Type Declarations as Subtype Constraints in Logic Programming*
//! (Jacobs, PLDI 1990) assumes as given:
//!
//! * disjoint sets of **variables** `V`, **function symbols** `F`,
//!   **type constructors** `T` and **predicate symbols** `P`, each symbol
//!   with a fixed arity — see [`Signature`] and [`SymKind`];
//! * **terms** over a set of symbols (Definition 1 of the paper uses terms
//!   over `F ∪ T` as *types*; program atoms are terms whose outermost symbol
//!   is a predicate) — see [`Term`];
//! * **substitutions** and their application and composition — see [`Subst`];
//! * **most general unification** with occurs check — see [`unify`];
//! * fresh-variable generation and term renaming — see [`VarGen`];
//! * an undo [`Trail`] for backtracking searches over one mutable
//!   substitution — see [`unify_trailed`].
//!
//! In addition it provides **skolem symbols** ([`SymKind::Skolem`]), used by
//! the type system to implement the paper's "bar" operation `τ̄` (replace
//! each variable by a unique constant not appearing in any type).
//!
//! # Example
//!
//! ```
//! use lp_term::{Signature, SymKind, Term, unify, Subst};
//!
//! let mut sig = Signature::new();
//! let cons = sig.declare("cons", SymKind::Func).unwrap();
//! let nil = sig.declare("nil", SymKind::Func).unwrap();
//!
//! let mut gen = lp_term::VarGen::new();
//! let x = gen.fresh();
//! // cons(X, nil)
//! let t1 = Term::app(cons, vec![Term::Var(x), Term::constant(nil)]);
//! // cons(nil, nil)
//! let t2 = Term::app(cons, vec![Term::constant(nil), Term::constant(nil)]);
//!
//! let mut subst = Subst::new();
//! unify(&t1, &t2, &mut subst).unwrap();
//! assert_eq!(subst.resolve(&Term::Var(x)), Term::constant(nil));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod display;
mod fasthash;
mod rename;
mod subst;
mod symbol;
mod term;
mod trail;
mod unify;

pub use display::{NameHints, TermDisplay};
pub use fasthash::{FastHashMap, FastHasher};
pub use rename::{rename_all, rename_term, VarGen};
pub use subst::Subst;
pub use symbol::{Interner, SigError, Signature, Sym, SymKind};
pub use term::{Term, Var};
pub use trail::Trail;
pub use unify::{unify, unify_trailed, unify_with, OccursCheck, UnifyError};
