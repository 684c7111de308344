//! The type system of *Type Declarations as Subtype Constraints in Logic
//! Programming* (Dean Jacobs, PLDI 1990).
//!
//! This crate is the paper's primary contribution, implemented end to end:
//!
//! | Paper | Module |
//! |-------|--------|
//! | §2 Def. 2 — subtype constraints, the predefined `+` | [`constraint`] |
//! | §2 — the Horn theory `H_C` (facts + substitution + transitivity axioms) | [`horn`] |
//! | §2 Def. 3 — subtyping as SLD-refutability (reference prover) | [`naive`] |
//! | §3 Defs. 6, 8, 9 — uniform polymorphism, direct dependence, guardedness | [`analysis`] |
//! | §3 Thms. 1–3 — the deterministic derivation strategy | [`prover`] |
//! | §2 Def. 4 — type semantics `M_C⟦τ⟧` (membership and enumeration) | [`semantics`] |
//! | §4 Defs. 10–12 — typings, respectfulness, generality, agreement | [`typing`] |
//! | §4 Def. 13, Thms. 4–5 — the `match` function | [`matching`] |
//! | §7 — constraint-generating `match` (the effective checker) | [`cmatch`] |
//! | §5–6 Defs. 14–16 — predicate types and well-typedness | [`welltyped`] |
//! | §6 Thm. 6 — runtime consistency auditing of every resolvent | [`consistency`] |
//! | (beyond the paper) proof witnesses, replay validation, minimal cores | [`witness`] |
//! | (beyond the paper) flat arena terms and canonical key codes | [`arena`] |
//! | (beyond the paper) precomputed ground-fragment subtype closure | [`closure`] |
//! | (beyond the paper) tabled proving with generation invalidation | [`table`] |
//! | (beyond the paper) the proof table shared by worker threads | [`shard`] |
//! | (beyond the paper) the chunk-cursor worker pool behind `--jobs N` | [`par`] |
//! | (beyond the paper) metrics, timers, and span tracing | [`obs`] |
//!
//! # Quick start
//!
//! ```
//! use lp_parser::parse_module;
//! use subtype_core::{ConstraintSet, Prover};
//!
//! // The paper's nat/int declarations (§1).
//! let m = parse_module(
//!     "FUNC 0, succ, pred.
//!      TYPE nat, unnat, int.
//!      nat >= 0 + succ(nat).
//!      unnat >= 0 + pred(unnat).
//!      int >= nat + unnat.",
//! )?;
//! let cs = ConstraintSet::from_module(&m)?.checked(&m.sig)?;
//! let prover = Prover::new(&m.sig, &cs);
//!
//! let nat = m.sig.lookup("nat").unwrap();
//! let int = m.sig.lookup("int").unwrap();
//! let zero = m.sig.lookup("0").unwrap();
//! let succ = m.sig.lookup("succ").unwrap();
//!
//! use lp_term::Term;
//! // int ⪰ nat, and succ(0) ∈ M_C⟦nat⟧.
//! assert!(prover.subtype(&Term::constant(int), &Term::constant(nat)).is_proved());
//! let one = Term::app(succ, vec![Term::constant(zero)]);
//! assert!(prover.member(&Term::constant(nat), &one).is_proved());
//! // nat ⋡ int.
//! assert!(prover.subtype(&Term::constant(nat), &Term::constant(int)).is_refuted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod arena;
pub mod budget;
pub mod closure;
pub mod cmatch;
pub mod consistency;
pub mod constraint;
pub mod diag;
pub mod filter;
pub mod horn;
pub mod lint;
pub mod matching;
pub mod modes;
pub mod naive;
pub mod obs;
pub mod par;
pub mod prover;
pub mod semantics;
pub mod serve;
pub mod shard;
pub mod table;
pub mod typing;
pub mod welltyped;
pub mod witness;

pub use analysis::{DependenceGraph, TypeDeclError};
pub use arena::{TermArena, TermId};
pub use budget::Budget;
pub use closure::{ClosureVerdict, GroundClosure};
pub use cmatch::SolveOutcome;
pub use constraint::{next_generation, CheckedConstraints, ConstraintSet, SubtypeConstraint};
pub use diag::{Diagnostic, Severity};
pub use filter::{build_filter, FilterError, FilterLibrary};
pub use horn::HornTheory;
pub use lint::{lint_module, lint_module_obs, LintOptions};
pub use matching::{match_type, MatchOutcome};
pub use modes::{
    mode_string, subject_reduction_hazards, ModeAnalysis, ModeMismatch, ModeReport, ModeSite,
    ModeViolation, SubjectReductionHazard,
};
pub use naive::{NaiveOutcome, NaiveProver};
pub use obs::{Counter, Fault, FaultPlan, MetricsRegistry, MetricsSnapshot, Timer, TraceEvent};
pub use prover::{Proof, Prover, ProverConfig};
pub use serve::{ServeConfig, ServeSession};
pub use shard::ShardedProofTable;
pub use table::{ProofTable, TableHandle, TableStats, TabledProver};
pub use typing::{freeze, freeze_pair, Typing};
pub use welltyped::{CheckExplanation, Checker, ParallelChecker, PredTypeTable, TypeCheckError};
pub use witness::{Step, Witness, WitnessError, Witnessed};
