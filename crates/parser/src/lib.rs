//! Front end for the paper's declaration language.
//!
//! The concrete syntax is exactly the one used throughout
//! *Type Declarations as Subtype Constraints in Logic Programming*
//! (Jacobs, PLDI 1990):
//!
//! ```text
//! FUNC 0, succ, pred.
//! TYPE nat, unnat, int.
//! nat >= 0 + succ(nat).
//! unnat >= 0 + pred(unnat).
//! int >= nat + unnat.
//!
//! FUNC nil, cons.
//! TYPE elist, nelist, list.
//! elist >= nil.
//! nelist(A) >= cons(A, list(A)).
//! list(A) >= elist + nelist(A).
//!
//! PRED app(list(A), list(A), list(A)).
//! app(nil, L, L).
//! app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
//!
//! :- app(nil, L, cons(0, nil)).
//! ```
//!
//! * `FUNC` declares function symbols (`F`), `TYPE` declares type
//!   constructors (`T`), `PRED` declares predicate types (Definition 14).
//!   Arities are inferred from use and checked for consistency.
//! * `τ₁ >= τ₂.` at top level is a subtype constraint (Definition 2).
//! * `h :- b.` / `h.` are program clauses, `:- b.` is a query.
//! * Identifiers starting with an upper-case letter or `_` are variables
//!   (`_` alone is an anonymous, single-use variable); digit sequences such
//!   as `0` are ordinary constants.
//! * `%` starts a line comment, `/* … */` a block comment.
//! * The polymorphic union constructor `+` is predefined (`TYPE +.` with
//!   `A+B >= A.` and `A+B >= B.`, paper §1) and parses as a left-associative
//!   infix operator in type positions.
//!
//! # Pipeline
//!
//! * [`Lexer`] scans bytes into [`Token`]s: a [`TokenKind`] and a [`Span`],
//!   with no text of their own. Only a byte `>= 0x80` is decoded as a
//!   `char`, so Unicode letters and whitespace classify as `char`'s
//!   predicates say.
//! * [`parse_items`] pulls tokens one at a time and builds a
//!   [`SyntaxTree`]: a flat array of term nodes that name their arguments
//!   by index and their text by source offsets, plus the top-level items.
//!   Nothing is allocated per token or per name.
//! * [`Loader`] resolves the tree against a [`Signature`], looking names up
//!   by their source slices. It enforces kind/arity discipline and produces
//!   engine [`Clause`]s, raw constraints and predicate types for
//!   `subtype-core`, owned by the [`Module`] it finishes.
//!
//! Loading is two-phase: the whole source is parsed before any item is
//! resolved, so a syntax error is reported even when an undeclared symbol
//! comes earlier in the file, and a lexical error anywhere wins over a
//! syntax error.
//!
//! [`Signature`]: lp_term::Signature
//! [`Clause`]: lp_engine::Clause
//!
//! # Example
//!
//! ```
//! let src = "FUNC nil. TYPE elist. elist >= nil. PRED p(elist). p(nil).";
//! let module = lp_parser::parse_module(src)?;
//! // One declared constraint plus the two predefined union constraints.
//! assert_eq!(module.constraints.len(), 3);
//! assert_eq!(module.clauses.len(), 1);
//! # Ok::<(), lp_parser::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod error;
mod lexer;
mod loader;
mod parser;
mod token;
mod unparse;

pub use ast::{Mode, ModeDeclAst, SyntaxTree};
pub use error::{ParseError, ParseErrorKind};
pub use lexer::Lexer;
pub use loader::{
    parse_module, LoadedClause, LoadedConstraint, LoadedQuery, Loader, LoaderOptions, Module,
};
pub use parser::{parse_items, MAX_TERM_DEPTH};
pub use token::{LineIndex, Span, Token, TokenKind};
pub use unparse::{unparse, unparse_term};
