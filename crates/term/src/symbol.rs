//! Interned symbols and signatures.
//!
//! The paper assumes disjoint sets of function symbols `F`, type constructor
//! symbols `T` and predicate symbols `P`, each with a fixed arity. A
//! [`Signature`] enforces exactly that: every symbol is declared with a
//! [`SymKind`], and its arity is pinned on first use (the paper's concrete
//! syntax — `FUNC succ.` — does not state arities, so they are inferred).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::fasthash::FastHashMap;

/// A compact handle to an interned symbol.
///
/// Symbols are cheap to copy and compare; their name, kind and arity live in
/// the [`Signature`] that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw index of this symbol within its signature.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol handle from a raw index previously obtained via
    /// [`Sym::index`] — the inverse used when symbols round-trip through flat
    /// encodings (e.g. canonical proof-table key codes). The caller must only
    /// feed back indices of symbols that exist in the signature the encoding
    /// was built against; the handle itself carries no validity check.
    pub fn from_index(index: usize) -> Sym {
        Sym(index as u32)
    }
}

/// The syntactic class a symbol belongs to.
///
/// The paper keeps `V`, `F`, `T` (and later `P`) disjoint; `Skolem` is an
/// implementation-level fourth class used for the bar operation `τ̄`
/// (Definition 5): skolem constants are "unique constants not appearing in
/// any type", so no subtype constraint and no substitution axiom other than
/// the degenerate `sk >= sk` ever applies to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKind {
    /// A function symbol (element of `F`). Doubles as a type constructor with
    /// fixed interpretation: `f(τ₁…τₙ)` is the type of terms `f(t₁…tₙ)` with
    /// `tᵢ : τᵢ`.
    Func,
    /// A declared type constructor (element of `T`), defined by subtype
    /// constraints.
    TypeCtor,
    /// A predicate symbol (element of `P`).
    Pred,
    /// A skolem constant produced by freezing a variable (`τ̄`).
    Skolem,
}

impl fmt::Display for SymKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SymKind::Func => "function symbol",
            SymKind::TypeCtor => "type constructor",
            SymKind::Pred => "predicate symbol",
            SymKind::Skolem => "skolem constant",
        };
        f.write_str(s)
    }
}

/// Errors produced while declaring or using symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigError {
    /// The name was already declared with a different kind.
    KindClash {
        /// The symbol's name.
        name: String,
        /// The kind it was first declared with.
        declared: SymKind,
        /// The kind the caller now requested.
        requested: SymKind,
    },
    /// The symbol was already used with a different arity.
    ArityClash {
        /// The symbol's name.
        name: String,
        /// The arity it was first used with.
        fixed: usize,
        /// The arity the caller now requested.
        requested: usize,
    },
}

impl fmt::Display for SigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigError::KindClash {
                name,
                declared,
                requested,
            } => write!(
                f,
                "symbol `{name}` was declared as a {declared} but is used as a {requested}"
            ),
            SigError::ArityClash {
                name,
                fixed,
                requested,
            } => write!(
                f,
                "symbol `{name}` has arity {fixed} but is used with {requested} argument(s)"
            ),
        }
    }
}

impl std::error::Error for SigError {}

#[derive(Debug, Clone)]
struct SymData {
    name: Arc<str>,
    kind: SymKind,
    /// Fixed on first use; `None` until then.
    arity: Option<usize>,
}

/// A plain string interner, independent of symbol kinds.
///
/// [`Signature`] builds on this; the interner is also usable on its own for
/// auxiliary name tables (e.g. variable names in a parsed clause).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    map: HashMap<Box<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning a stable index.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.map.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.into());
        self.map.insert(s.into(), i);
        i
    }

    /// Returns the string for `index`, if it was interned.
    pub fn get(&self, index: u32) -> Option<&str> {
        self.strings.get(index as usize).map(|s| &**s)
    }

    /// Returns the index of `s` if it has been interned before.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// The symbol table: names, kinds and arities for every symbol in play.
///
/// A signature enforces the paper's well-formedness conditions at the
/// syntactic level:
///
/// * `F`, `T` and `P` are disjoint ([`SigError::KindClash`]);
/// * every symbol has one fixed arity ([`SigError::ArityClash`]), pinned the
///   first time the symbol is applied to arguments (or eagerly via
///   [`Signature::declare_with_arity`]).
#[derive(Debug, Clone, Default)]
pub struct Signature {
    syms: Vec<SymData>,
    /// Each name is one allocation, shared with its [`SymData`].
    by_name: FastHashMap<Arc<str>, Sym>,
    skolem_count: u32,
}

impl Signature {
    /// Creates an empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-finds) a symbol named `name` of kind `kind`.
    ///
    /// Declaring the same name twice with the same kind is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`SigError::KindClash`] if `name` already exists with a
    /// different kind.
    pub fn declare(&mut self, name: &str, kind: SymKind) -> Result<Sym, SigError> {
        if let Some(&sym) = self.by_name.get(name) {
            let data = &self.syms[sym.index()];
            if data.kind != kind {
                return Err(SigError::KindClash {
                    name: name.to_string(),
                    declared: data.kind,
                    requested: kind,
                });
            }
            return Ok(sym);
        }
        let sym = Sym(self.syms.len() as u32);
        let name: Arc<str> = name.into();
        self.by_name.insert(name.clone(), sym);
        self.syms.push(SymData {
            name,
            kind,
            arity: None,
        });
        Ok(sym)
    }

    /// Declares a symbol and pins its arity immediately.
    ///
    /// # Errors
    ///
    /// Returns [`SigError::KindClash`] or [`SigError::ArityClash`] on
    /// conflicting re-declaration.
    pub fn declare_with_arity(
        &mut self,
        name: &str,
        kind: SymKind,
        arity: usize,
    ) -> Result<Sym, SigError> {
        let sym = self.declare(name, kind)?;
        self.fix_arity(sym, arity)?;
        Ok(sym)
    }

    /// Creates a fresh skolem constant (arity 0) with a unique, unparseable
    /// name of the form `$sk<n>`.
    pub fn fresh_skolem(&mut self) -> Sym {
        loop {
            let name = format!("$sk{}", self.skolem_count);
            self.skolem_count += 1;
            if self.by_name.contains_key(name.as_str()) {
                continue;
            }
            let sym = Sym(self.syms.len() as u32);
            let name: Arc<str> = name.into();
            self.by_name.insert(name.clone(), sym);
            self.syms.push(SymData {
                name,
                kind: SymKind::Skolem,
                arity: Some(0),
            });
            return sym;
        }
    }

    /// Looks up a symbol by name.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// The name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` does not belong to this signature.
    pub fn name(&self, sym: Sym) -> &str {
        &self.syms[sym.index()].name
    }

    /// The kind of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` does not belong to this signature.
    #[inline]
    pub fn kind(&self, sym: Sym) -> SymKind {
        self.syms[sym.index()].kind
    }

    /// The arity of `sym`, if it has been fixed yet.
    #[inline]
    pub fn arity(&self, sym: Sym) -> Option<usize> {
        self.syms[sym.index()].arity
    }

    /// Pins the arity of `sym`, or checks it against the pinned value.
    ///
    /// # Errors
    ///
    /// Returns [`SigError::ArityClash`] if `sym` was already used with a
    /// different arity.
    #[inline]
    pub fn fix_arity(&mut self, sym: Sym, arity: usize) -> Result<(), SigError> {
        let data = &mut self.syms[sym.index()];
        match data.arity {
            None => {
                data.arity = Some(arity);
                Ok(())
            }
            Some(fixed) if fixed == arity => Ok(()),
            Some(fixed) => Err(SigError::ArityClash {
                name: data.name.to_string(),
                fixed,
                requested: arity,
            }),
        }
    }

    /// Iterates over all symbols of a given kind.
    pub fn symbols_of_kind(&self, kind: SymKind) -> impl Iterator<Item = Sym> + '_ {
        self.syms
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.kind == kind)
            .map(|(i, _)| Sym(i as u32))
    }

    /// Iterates over all symbols in declaration order.
    pub fn symbols(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.syms.len()).map(|i| Sym(i as u32))
    }

    /// Total number of symbols (including skolems).
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether no symbol has been declared.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_is_idempotent() {
        let mut sig = Signature::new();
        let a = sig.declare("succ", SymKind::Func).unwrap();
        let b = sig.declare("succ", SymKind::Func).unwrap();
        assert_eq!(a, b);
        assert_eq!(sig.name(a), "succ");
        assert_eq!(sig.kind(a), SymKind::Func);
    }

    #[test]
    fn kind_clash_is_rejected() {
        let mut sig = Signature::new();
        sig.declare("list", SymKind::TypeCtor).unwrap();
        let err = sig.declare("list", SymKind::Func).unwrap_err();
        assert!(matches!(err, SigError::KindClash { .. }));
        assert!(err.to_string().contains("list"));
    }

    #[test]
    fn arity_pins_on_first_use() {
        let mut sig = Signature::new();
        let s = sig.declare("cons", SymKind::Func).unwrap();
        assert_eq!(sig.arity(s), None);
        sig.fix_arity(s, 2).unwrap();
        sig.fix_arity(s, 2).unwrap();
        let err = sig.fix_arity(s, 3).unwrap_err();
        assert!(matches!(
            err,
            SigError::ArityClash {
                fixed: 2,
                requested: 3,
                ..
            }
        ));
    }

    #[test]
    fn skolems_are_unique_and_zero_ary() {
        let mut sig = Signature::new();
        let a = sig.fresh_skolem();
        let b = sig.fresh_skolem();
        assert_ne!(a, b);
        assert_eq!(sig.kind(a), SymKind::Skolem);
        assert_eq!(sig.arity(a), Some(0));
        assert_ne!(sig.name(a), sig.name(b));
    }

    #[test]
    fn symbols_of_kind_filters() {
        let mut sig = Signature::new();
        sig.declare("nil", SymKind::Func).unwrap();
        sig.declare("list", SymKind::TypeCtor).unwrap();
        sig.declare("app", SymKind::Pred).unwrap();
        sig.declare("cons", SymKind::Func).unwrap();
        let funcs: Vec<_> = sig
            .symbols_of_kind(SymKind::Func)
            .map(|s| sig.name(s).to_string())
            .collect();
        assert_eq!(funcs, vec!["nil", "cons"]);
    }

    #[test]
    fn interner_roundtrip() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let a2 = i.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.get(a), Some("foo"));
        assert_eq!(i.lookup("bar"), Some(b));
        assert_eq!(i.lookup("baz"), None);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }
}
