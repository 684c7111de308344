//! Shared workload setup for the benchmark harness (experiments F1–F7).
//!
//! The `report` binary prints every series of `EXPERIMENTS.md` in one pass,
//! with wall-clock timings and search-effort counters, and asserts each
//! verdict it times. [`bench5`] holds the counter baseline that
//! `report --smoke` gates CI on. Wall time of the `slp` binary itself is
//! measured by `perfbench/`.

use lp_parser::Module;
use lp_term::Term;
use subtype_core::{CheckedConstraints, ConstraintSet, PredTypeTable};

pub mod bench5;

/// A fully prepared checking workload: module + checked constraints +
/// predicate types.
pub struct CheckWorkload {
    /// The parsed module.
    pub module: Module,
    /// Checked constraints.
    pub checked: CheckedConstraints,
    /// Raw constraints (for the naive prover / MO84 conversion).
    pub raw: ConstraintSet,
    /// Predicate types.
    pub preds: PredTypeTable,
}

/// Parses a source program into a [`CheckWorkload`].
///
/// # Panics
///
/// Panics on any parse/validation error — benchmark fixtures must be valid.
pub fn workload(src: &str) -> CheckWorkload {
    let module = lp_parser::parse_module(src).expect("bench fixture parses");
    let raw = ConstraintSet::from_module(&module).expect("constraints valid");
    let checked = raw
        .clone()
        .checked(&module.sig)
        .expect("uniform and guarded");
    let preds = PredTypeTable::from_module(&module).expect("pred types valid");
    CheckWorkload {
        module,
        checked,
        raw,
        preds,
    }
}

/// Builds an int list term `cons(x₁, … cons(xₙ, nil))` cycling small
/// numerals, against the paper's list declarations in `module`.
///
/// # Panics
///
/// Panics if the module lacks the list/nat symbols.
pub fn int_list(module: &Module, n: usize) -> Term {
    let nil = module.sig.lookup("nil").expect("nil");
    let cons = module.sig.lookup("cons").expect("cons");
    let zero = module.sig.lookup("0").expect("0");
    let succ = module.sig.lookup("succ").expect("succ");
    let pred = module.sig.lookup("pred").expect("pred");
    let mut out = Term::constant(nil);
    for i in 0..n {
        let mut x = Term::constant(zero);
        let wrap = if i % 2 == 0 { succ } else { pred };
        for _ in 0..(i % 3) {
            x = Term::app(wrap, vec![x]);
        }
        out = Term::app(cons, vec![x, out]);
    }
    out
}

/// The chain-depth sweep used by F1.
pub const F1_DEPTHS: &[usize] = &[1, 2, 4, 8, 16, 32];

/// The list-length sweep used by F2.
pub const F2_SIZES: &[usize] = &[4, 16, 64, 256];

/// The pipeline sizes (predicates) used by F3.
pub const F3_SIZES: &[usize] = &[4, 16, 64];

/// The nrev sizes used by F4.
pub const F4_SIZES: &[usize] = &[4, 8, 16];

/// The constructor counts used by F5.
pub const F5_CTORS: &[usize] = &[8, 32, 128];

/// The batch sizes used by F6 (proof-table effectiveness).
pub const F6_BATCH: &[usize] = &[64, 256, 1024];

/// Distinct judgements per F6 batch; everything beyond the first
/// `F6_DISTINCT` goals is an alpha-variant repeat, so the expected steady
/// hit rate of a batch of `n` is `(n - F6_DISTINCT) / n`.
pub const F6_DISTINCT: usize = 8;

/// The worker counts swept by F7 (parallel scaling).
pub const F7_JOBS: &[usize] = &[1, 2, 4, 8];

/// Number of generated programs in the F7 batch corpus.
pub const F7_CORPUS: usize = 8;

/// Distinct judgements cycled by the F7 concurrent subtype batch (same
/// alpha-variant shape as F6, so the expected steady hit rate is high).
pub const F7_DISTINCT: usize = 8;

/// The F7 corpus: pipeline programs of varied width and arity from
/// `lp_gen::programs`, parsed per batch run. Sizes are staggered so the
/// batch is imbalanced — the pool's shared cursor has to even it out.
pub fn f7_corpus() -> Vec<String> {
    (0..F7_CORPUS)
        .map(|i| lp_gen::programs::pipeline(12 + 6 * (i % 4), 2 + i % 3))
        .collect()
}

/// Builds `n` independent subtype goals over the paper world cycling `k`
/// distinct judgements: goal `i` is
/// `list(listᵈ(A)) >= nelist(listᵈ(B))` with `d = 2(i % k) + 2` and fresh
/// `A`, `B` per instance — so goals with equal `i % k` are alpha-variants of
/// each other and share one canonical proof-table entry. The nesting keeps
/// each derivation well above the cost of a canonical-renaming lookup.
///
/// # Panics
///
/// Panics if `world` lacks the paper's list symbols.
pub fn alpha_variant_goals(
    world: &mut lp_gen::worlds::BuiltWorld,
    n: usize,
    k: usize,
) -> Vec<(Term, Term)> {
    let list = world.sig.lookup("list").expect("list");
    let nelist = world.sig.lookup("nelist").expect("nelist");
    let nest = |mut t: Term, depth: usize| {
        for _ in 0..depth {
            t = Term::app(list, vec![t]);
        }
        t
    };
    (0..n)
        .map(|i| {
            let depth = 2 * (i % k) + 2;
            let a = Term::Var(world.gen.fresh());
            let b = Term::Var(world.gen.fresh());
            (
                Term::app(list, vec![nest(a, depth)]),
                Term::app(nelist, vec![nest(b, depth)]),
            )
        })
        .collect()
}
