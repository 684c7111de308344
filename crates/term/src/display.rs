//! Pretty-printing of terms.
//!
//! Terms store only symbol handles, so printing needs the
//! [`Signature`](crate::Signature); [`TermDisplay`] bundles the two. Source
//! variable names (from the parser) can be supplied via [`NameHints`];
//! unnamed variables print as `_G<n>`.
//!
//! The predefined polymorphic union constructor `+` (paper §1) and any other
//! binary symbol with a purely non-alphanumeric name are printed infix:
//! `elist + nelist(A)` rather than `+(elist, nelist(A))`.

use std::fmt;

use crate::fasthash::FastHashMap;
use crate::symbol::Signature;
use crate::term::{Term, Var};

/// Human-readable names for variables, typically from source text.
///
/// The names share one text buffer, so a table costs two allocations
/// however many variables it names.
#[derive(Debug, Clone, Default)]
pub struct NameHints {
    /// Each named variable's name, as a byte range of `text`.
    names: FastHashMap<Var, (usize, usize)>,
    text: String,
}

impl NameHints {
    /// An empty hint table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty hint table with room for `vars` names of `bytes` bytes
    /// in all.
    pub fn with_capacity(vars: usize, bytes: usize) -> Self {
        NameHints {
            names: FastHashMap::with_capacity_and_hasher(vars, Default::default()),
            text: String::with_capacity(bytes),
        }
    }

    /// Records that `v` should print as `name`.
    pub fn insert(&mut self, v: Var, name: impl AsRef<str>) {
        let start = self.text.len();
        self.text.push_str(name.as_ref());
        self.names.insert(v, (start, self.text.len()));
    }

    /// The recorded name for `v`, if any.
    pub fn get(&self, v: Var) -> Option<&str> {
        let &(start, end) = self.names.get(&v)?;
        Some(&self.text[start..end])
    }

    /// Number of named variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable has a name hint.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all `(variable, name)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &str)> {
        self.names
            .iter()
            .map(|(&v, &(start, end))| (v, &self.text[start..end]))
    }
}

/// A displayable view of a term, borrowing its signature and name hints.
///
/// ```
/// use lp_term::{Signature, SymKind, Term, TermDisplay};
///
/// let mut sig = Signature::new();
/// let cons = sig.declare("cons", SymKind::Func).unwrap();
/// let nil = sig.declare("nil", SymKind::Func).unwrap();
/// let t = Term::app(cons, vec![Term::constant(nil), Term::constant(nil)]);
/// assert_eq!(TermDisplay::new(&t, &sig).to_string(), "cons(nil, nil)");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TermDisplay<'a> {
    term: &'a Term,
    sig: &'a Signature,
    hints: Option<&'a NameHints>,
}

impl<'a> TermDisplay<'a> {
    /// Displays `term` using `sig` for symbol names.
    pub fn new(term: &'a Term, sig: &'a Signature) -> Self {
        TermDisplay {
            term,
            sig,
            hints: None,
        }
    }

    /// Adds variable name hints.
    pub fn with_hints(mut self, hints: &'a NameHints) -> Self {
        self.hints = Some(hints);
        self
    }

    fn write_term(&self, t: &Term, f: &mut fmt::Formatter<'_>, infix_arg: bool) -> fmt::Result {
        match t {
            Term::Var(v) => match self.hints.and_then(|h| h.get(*v)) {
                Some(name) => f.write_str(name),
                None => write!(f, "_G{}", v.0),
            },
            Term::App(s, args) => {
                let name = self.sig.name(*s);
                let is_operator = !name.chars().any(|c| c.is_alphanumeric() || c == '_');
                if is_operator && args.len() == 2 {
                    // Infix; parenthesize nested infix applications for
                    // unambiguous re-parsing (the parser treats `+` as
                    // left-associative, matching this layout).
                    if infix_arg {
                        f.write_str("(")?;
                    }
                    self.write_term(&args[0], f, false)?;
                    write!(f, " {name} ")?;
                    self.write_term(&args[1], f, true)?;
                    if infix_arg {
                        f.write_str(")")?;
                    }
                    Ok(())
                } else {
                    f.write_str(name)?;
                    if !args.is_empty() {
                        f.write_str("(")?;
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            self.write_term(a, f, false)?;
                        }
                        f.write_str(")")?;
                    }
                    Ok(())
                }
            }
        }
    }
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_term(self.term, f, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymKind;

    #[test]
    fn plain_application() {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let a = sig.declare("a", SymKind::Func).unwrap();
        let t = Term::app(f, vec![Term::constant(a), Term::Var(Var(3))]);
        assert_eq!(TermDisplay::new(&t, &sig).to_string(), "f(a, _G3)");
    }

    #[test]
    fn hints_override_variable_names() {
        let mut sig = Signature::new();
        let f = sig.declare("f", SymKind::Func).unwrap();
        let t = Term::app(f, vec![Term::Var(Var(0))]);
        let mut hints = NameHints::new();
        hints.insert(Var(0), "Xs");
        assert_eq!(
            TermDisplay::new(&t, &sig).with_hints(&hints).to_string(),
            "f(Xs)"
        );
    }

    #[test]
    fn union_prints_infix() {
        let mut sig = Signature::new();
        let plus = sig.declare("+", SymKind::TypeCtor).unwrap();
        let elist = sig.declare("elist", SymKind::TypeCtor).unwrap();
        let nelist = sig.declare("nelist", SymKind::TypeCtor).unwrap();
        let t = Term::app(
            plus,
            vec![
                Term::constant(elist),
                Term::app(nelist, vec![Term::Var(Var(0))]),
            ],
        );
        assert_eq!(
            TermDisplay::new(&t, &sig).to_string(),
            "elist + nelist(_G0)"
        );
    }

    #[test]
    fn nested_infix_parenthesizes_right_arg() {
        let mut sig = Signature::new();
        let plus = sig.declare("+", SymKind::TypeCtor).unwrap();
        let a = sig.declare("a", SymKind::TypeCtor).unwrap();
        let b = sig.declare("b", SymKind::TypeCtor).unwrap();
        let c = sig.declare("c", SymKind::TypeCtor).unwrap();
        // +(a, +(b, c)) — right-nested must parenthesize.
        let t = Term::app(
            plus,
            vec![
                Term::constant(a),
                Term::app(plus, vec![Term::constant(b), Term::constant(c)]),
            ],
        );
        assert_eq!(TermDisplay::new(&t, &sig).to_string(), "a + (b + c)");
        // +(+(a, b), c) — left-nested matches associativity, no parens.
        let t2 = Term::app(
            plus,
            vec![
                Term::app(plus, vec![Term::constant(a), Term::constant(b)]),
                Term::constant(c),
            ],
        );
        assert_eq!(TermDisplay::new(&t2, &sig).to_string(), "a + b + c");
    }
}
