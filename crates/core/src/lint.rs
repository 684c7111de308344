//! A multi-pass static analyzer over a loaded [`Module`].
//!
//! [`lint_module`] runs independent passes and returns a deterministically
//! ordered list of [`Diagnostic`]s:
//!
//! 1. **Dead clauses** (`W0301`) — a clause whose head fails the flexible
//!    constrained match ([`cmatch`](crate::cmatch)) against its `PRED`
//!    declaration, or whose head variables are forced into an uninhabited
//!    type, can never fire: no well-typed invocation resolves against it.
//! 2. **Empty types** (`W0302`) — a declared type constructor none of whose
//!    constraint chains produces a ground inhabitant. Reuses the grammar
//!    view behind [`filter::shapes`](crate::filter::shapes).
//! 3. **Head condition** (`E0202`) — definitional genericity (§5): a
//!    defining clause must keep the declared argument types fully general.
//!    It is the well-typedness check's own failure on the head: a rigid
//!    type variable committed while matching atom 0, on a head that the
//!    flexible match of pass 1 types.
//! 4. **Singletons and unused symbols** (`W0401`–`W0405`) — variables
//!    occurring once, and function symbols / type constructors / predicates
//!    / constraint type parameters that are never used.
//! 5. **Overlap and subsumption** (`W0501`/`W0502`) — clause heads of the
//!    same predicate that unify, or are instances of an earlier head.
//!
//! The §3 declaration checks ([`TypeDeclError`]) and §6 well-typedness
//! checks ([`TypeCheckError`]) are reported through the same machinery —
//! [`decl_diagnostic`], [`clause_check_diagnostic`] and
//! [`query_check_diagnostic`] attach source spans recorded by the loader —
//! so `slp check` and `slp lint` render rejections identically.
//!
//! Determinism: every pass iterates declaration or source order (or a
//! `BTreeMap`), and the final report is [`diag::sort`]ed; two runs over the
//! same module produce byte-identical output, tabled or not.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use lp_parser::{LoadedClause, Module, Span};
use lp_term::{unify, Signature, Subst, Sym, SymKind, Term, TermDisplay, Var};

use crate::analysis::TypeDeclError;
use crate::budget::Budget;
use crate::cmatch::CMatchFailure;
use crate::constraint::{CheckedConstraints, ConstraintSet};
use crate::diag::{self, Diagnostic};
use crate::filter;
use crate::modes::{subject_reduction_hazards, ModeAnalysis, ModeSite};
use crate::obs::{Counter, MetricsRegistry, Timer};
use crate::par;
use crate::prover::Prover;
use crate::shard::ShardedProofTable;
use crate::table::TableHandle;
use crate::welltyped::{Checker, PredTypeTable, TypeCheckError};

/// Knobs for [`lint_module`].
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Share a [`ProofTable`] across the type-level passes (the default;
    /// disable to mirror `slp --no-table`). The findings are identical
    /// either way — only the proof strategy differs.
    pub tabling: bool,
    /// Node budget for each inhabitation query of the W0302 emptiness
    /// fixpoint (see [`Budget`]): every type term the query explores is
    /// charged its size in term nodes, so the budget also bounds the
    /// memory a query holds when expansions grow the terms. Exhaustion
    /// answers "inhabited" optimistically — no spurious emptiness warning
    /// — and is reported once per run as a dedicated `W0303` diagnostic
    /// instead of the old silent bail.
    pub inhabitation_budget: u64,
    /// Unit budget for the mode passes (`E0601`/`W0602`/`W0603`/`E0604`),
    /// charged per atom visit and prover consultation (see
    /// [`crate::modes::ModeAnalysis`]). Exhaustion suppresses mode findings
    /// (never spurious) and is reported once as `W0605`.
    pub mode_budget: u64,
    /// Worker threads for the per-clause passes (`0` = one per available
    /// core; see [`crate::par`]). The findings are identical at every
    /// count.
    pub jobs: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            tabling: true,
            inhabitation_budget: 4096,
            mode_budget: crate::modes::DEFAULT_MODE_BUDGET,
            jobs: 1,
        }
    }
}

/// Runs every lint pass over `module` and returns the sorted findings.
///
/// Purely syntactic passes (singletons, unused symbols, overlap) always
/// run. Passes that need the §3 analyses stop at the first layer that
/// fails: a non-uniform or unguarded declaration set yields its own
/// diagnostic instead of the downstream type-level findings.
pub fn lint_module(module: &Module, options: &LintOptions) -> Vec<Diagnostic> {
    lint_module_obs(module, options, None)
}

/// [`lint_module`] with observability: the run is counted (`lint_runs`) and
/// timed ([`Timer::Lint`]), the finding count lands in `lint_diagnostics`,
/// and the type-level passes share a proof table wired to `obs`, so cache
/// traffic and subtype goals aggregate into the same registry the CLI
/// reports from.
///
/// The per-clause passes (overlap, the flexible head match, and
/// `check_clause`) run as one task per clause on the [`crate::par`] pool,
/// proving through one shared table. The findings are then emitted in
/// clause order by one serial loop, which also owns the [`Inhabitation`]
/// memo: its per-query node budget makes `W0303` depend on the order of
/// the queries, so they stay in the serial order.
pub fn lint_module_obs(
    module: &Module,
    options: &LintOptions,
    obs: Option<&Arc<MetricsRegistry>>,
) -> Vec<Diagnostic> {
    let reg = obs.map(Arc::as_ref);
    let _span = reg.map(|o| o.start(Timer::Lint));
    if let Some(o) = reg {
        o.incr(Counter::LintRuns);
    }
    let mut diags = Vec::new();

    singleton_variables(module, &mut diags);
    unused_symbols(module, &mut diags);
    unused_type_params(module, &mut diags);

    let checked = checked_constraints(module);
    let preds = checked
        .as_ref()
        .ok()
        .map(|_| PredTypeTable::from_module(module));
    let typing = match (&checked, &preds) {
        (Ok(checked), Some(Ok(preds))) => Some((checked, preds)),
        _ => None,
    };
    // The internal table reports into the caller's registry (when given),
    // so lint cache traffic shows up in the CLI-wide `--stats` document.
    let table = (typing.is_some() && options.tabling).then(|| match obs {
        Some(o) => ShardedProofTable::with_metrics(o.clone()),
        None => ShardedProofTable::new(),
    });
    let handle = || match &table {
        Some(t) => TableHandle::Shared(t),
        None => TableHandle::Untabled,
    };
    let heads = HeadIndex::new(module);
    // Pool accounting is recorded only when the batch really fans out, as
    // `slp check` does, so a serial lint counts what it always counted.
    let jobs = par::effective_jobs(options.jobs);
    let pool_obs = if jobs > 1 { reg } else { None };
    let findings = par::run_indexed(jobs, &module.clauses, pool_obs, |j, _| {
        let mut found = ClauseFindings::default();
        heads.overlaps(module, j, &mut found.diags);
        if let Some((checked, preds)) = typing {
            clause_passes(module, checked, preds, handle(), reg, j, &mut found);
        }
        found
    });

    // The inhabitation memo answers the type constructors first (`W0302`),
    // then the clauses in order.
    let mut inh = match &checked {
        Err(e) => {
            diags.push(decl_diagnostic(module, e));
            None
        }
        Ok(checked) => {
            let mut inh = Inhabitation::new(&module.sig, checked, options.inhabitation_budget);
            empty_types(module, checked, &mut inh, &mut diags);
            Some(inh)
        }
    };
    for (lc, found) in module.clauses.iter().zip(findings) {
        emit_clause(module, lc, found, inh.as_mut(), &mut diags);
    }
    if let Some(Err(e)) = &preds {
        diags.push(
            Diagnostic::error("E0204", e.to_string()).with_opt_span(match e {
                TypeCheckError::DuplicatePredType { pred }
                | TypeCheckError::MissingPredType { pred } => module
                    .sig
                    .lookup(pred)
                    .and_then(|p| module.pred_type_span(p)),
                _ => None,
            }),
        );
    }
    if let Some((checked, preds)) = typing {
        let checker = Checker::with_handle(&module.sig, checked, preds, handle()).with_obs(reg);
        for (qi, q) in module.queries.iter().enumerate() {
            if let Err(e) = checker.check_query(&q.goals) {
                diags.push(query_check_diagnostic(module, qi, &e));
            }
        }
        mode_passes(module, checked, preds, options, reg, &mut diags);
    }
    if inh.is_some_and(|inh| inh.exhausted) {
        if let Some(o) = reg {
            o.incr(Counter::BudgetExhausted);
        }
        diags.push(
            Diagnostic::warning(
                "W0303",
                format!(
                    "emptiness analysis exhausted its node budget ({} nodes); \
                     empty-type and dead-clause findings may be incomplete",
                    options.inhabitation_budget
                ),
            )
            .note(
                "budget-cut inhabitation queries answer \"inhabited\" optimistically, \
                 so no finding above is spurious — but some may be missing",
            ),
        );
    }

    let diags = finish(diags);
    if let Some(o) = reg {
        o.add(Counter::LintDiagnostics, diags.len() as u64);
    }
    diags
}

/// Builds the checked (uniform + guarded) constraint set for a module.
fn checked_constraints(module: &Module) -> Result<CheckedConstraints, TypeDeclError> {
    ConstraintSet::from_module(module)?.checked(&module.sig)
}

/// Sorts and deduplicates the report.
fn finish(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diag::sort(&mut diags);
    diags.dedup();
    diags
}

// ---------------------------------------------------------------------------
// §3 declaration errors and §6 well-typedness errors as diagnostics
// ---------------------------------------------------------------------------

/// Converts a §3 declaration rejection into a span-carrying diagnostic:
/// `E0101` malformed, `E0102` non-uniform (Definition 6), `E0103`
/// unguarded (Definition 9).
pub fn decl_diagnostic(module: &Module, e: &TypeDeclError) -> Diagnostic {
    match e {
        TypeDeclError::MalformedConstraint { .. } => Diagnostic::error("E0101", e.to_string()),
        TypeDeclError::NonUniform { index, .. } => Diagnostic::error("E0102", e.to_string())
            .with_opt_span(module.constraints.get(*index).and_then(|c| c.span))
            .note(
                "uniform polymorphism (Definition 6) requires every left-hand side to apply \
                 its constructor to distinct variables, the same ones in every constraint",
            ),
        TypeDeclError::Unguarded { cycle } => {
            let span = cycle.first().and_then(|name| {
                let ctor = module.sig.lookup(name)?;
                module
                    .constraints
                    .iter()
                    .find(|c| c.lhs.functor() == Some(ctor) && c.span.is_some())
                    .and_then(|c| c.span)
            });
            Diagnostic::error("E0103", e.to_string())
                .with_opt_span(span)
                .note(format!(
                    "guardedness (Definition 9) forbids a type from depending directly on \
                     itself; dependence cycle: {}",
                    cycle.join(" -> ")
                ))
        }
    }
}

/// Converts a clause's well-typedness failure into a diagnostic anchored at
/// the offending atom.
pub fn clause_check_diagnostic(module: &Module, index: usize, e: &TypeCheckError) -> Diagnostic {
    let lc = module.clauses.get(index);
    let span = match e {
        TypeCheckError::IllTypedAtom { atom, .. } => lc
            .and_then(|c| c.atom_spans.get(*atom).copied())
            .or(lc.map(|c| c.span)),
        _ => lc.map(|c| c.span),
    };
    let d = check_diagnostic(module, e);
    if d.span.is_some() {
        d
    } else {
        d.with_opt_span(span)
    }
}

/// Converts a query's well-typedness failure into a diagnostic anchored at
/// the offending goal.
pub fn query_check_diagnostic(module: &Module, index: usize, e: &TypeCheckError) -> Diagnostic {
    let q = module.queries.get(index);
    let span = match e {
        TypeCheckError::IllTypedAtom { atom, .. } => q
            .and_then(|q| q.atom_spans.get(*atom).copied())
            .or(q.map(|q| q.span)),
        _ => q.map(|q| q.span),
    };
    let d = check_diagnostic(module, e);
    if d.span.is_some() {
        d
    } else {
        d.with_opt_span(span)
    }
}

fn check_diagnostic(module: &Module, e: &TypeCheckError) -> Diagnostic {
    let code = match e {
        TypeCheckError::MissingPredType { .. } => "E0203",
        TypeCheckError::DuplicatePredType { .. } | TypeCheckError::NotAPredicate { .. } => "E0204",
        TypeCheckError::IllTypedAtom { .. } | TypeCheckError::UnsatisfiableCommitments { .. } => {
            "E0201"
        }
    };
    let mut d = Diagnostic::error(code, e.to_string());
    match e {
        TypeCheckError::IllTypedAtom { pred, .. } => {
            if let Some(span) = module
                .sig
                .lookup(pred)
                .and_then(|p| module.pred_type_span(p))
            {
                d = d.related(span, format!("`{pred}` declared here"));
            }
        }
        // A duplicate declaration points at the (first) `PRED` line, not
        // at whichever clause the checker happened to be visiting.
        TypeCheckError::DuplicatePredType { pred } => {
            d = d.with_opt_span(
                module
                    .sig
                    .lookup(pred)
                    .and_then(|p| module.pred_type_span(p)),
            );
        }
        _ => {}
    }
    if code == "E0201" {
        d = d.note("well-typedness is Definition 16: every atom must match its declared type");
    }
    d
}

// ---------------------------------------------------------------------------
// Pass: singleton variables (W0401)
// ---------------------------------------------------------------------------

/// A named variable occurring exactly once in a clause is usually a typo.
/// Queries are exempt: a single-occurrence answer variable is idiomatic.
/// Names beginning with `_` (`_Acc`, `_Rest`, …) are the conventional
/// "intentionally unused" marker and are exempt like the bare `_`.
fn singleton_variables(module: &Module, diags: &mut Vec<Diagnostic>) {
    for lc in &module.clauses {
        let mut counts: BTreeMap<Var, usize> = BTreeMap::new();
        for (v, _) in &lc.var_spans {
            *counts.entry(*v).or_insert(0) += 1;
        }
        for (v, span) in &lc.var_spans {
            if counts[v] == 1 {
                let name = lc.hints.get(*v).unwrap_or("_");
                if name.starts_with('_') {
                    continue;
                }
                diags.push(
                    Diagnostic::warning(
                        "W0401",
                        format!("singleton variable `{name}` occurs only here"),
                    )
                    .with_span(*span)
                    .note(
                        "use `_` or an `_`-prefixed name if the variable is intentionally unused",
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: unused symbols (W0402 functions, W0403 type ctors, W0404 predicates)
// ---------------------------------------------------------------------------

fn collect_syms(t: &Term, out: &mut BTreeSet<Sym>) {
    for sub in t.subterms() {
        if let Term::App(s, _) = sub {
            out.insert(*s);
        }
    }
}

fn unused_symbols(module: &Module, diags: &mut Vec<Diagnostic>) {
    let sig = &module.sig;
    let mut used: BTreeSet<Sym> = BTreeSet::new();
    let mut defined_preds: BTreeSet<Sym> = BTreeSet::new();
    let mut called_preds: BTreeSet<Sym> = BTreeSet::new();

    for c in &module.constraints {
        collect_syms(&c.lhs, &mut used);
        collect_syms(&c.rhs, &mut used);
    }
    for pt in &module.pred_types {
        for arg in pt.args() {
            collect_syms(arg, &mut used);
        }
    }
    for lc in &module.clauses {
        if let Some(p) = lc.clause.head.functor() {
            defined_preds.insert(p);
        }
        for arg in lc.clause.head.args() {
            collect_syms(arg, &mut used);
        }
        for b in &lc.clause.body {
            if let Some(p) = b.functor() {
                called_preds.insert(p);
            }
            for arg in b.args() {
                collect_syms(arg, &mut used);
            }
        }
    }
    for q in &module.queries {
        for g in &q.goals {
            if let Some(p) = g.functor() {
                called_preds.insert(p);
            }
            for arg in g.args() {
                collect_syms(arg, &mut used);
            }
        }
    }

    for s in sig.symbols_of_kind(SymKind::Func) {
        if !used.contains(&s) {
            diags.push(
                Diagnostic::warning(
                    "W0402",
                    format!("function symbol `{}` is never used", sig.name(s)),
                )
                .with_opt_span(module.sym_span(s)),
            );
        }
    }
    for s in sig.symbols_of_kind(SymKind::TypeCtor) {
        if Some(s) == module.union_sym {
            continue;
        }
        if !used.contains(&s) {
            diags.push(
                Diagnostic::warning(
                    "W0403",
                    format!(
                        "type constructor `{}` is never used (no constraint, predicate type, \
                         or program term mentions it)",
                        sig.name(s)
                    ),
                )
                .with_opt_span(module.sym_span(s)),
            );
        }
    }
    // A predicate declared via `PRED` but never given a clause nor called
    // anywhere is dead weight. Defined-but-uncalled predicates are fine:
    // they are the program's entry points.
    for pt in &module.pred_types {
        let Some(p) = pt.functor() else { continue };
        if !defined_preds.contains(&p) && !called_preds.contains(&p) {
            diags.push(
                Diagnostic::warning(
                    "W0404",
                    format!(
                        "predicate `{}` is declared but never defined or called",
                        sig.name(p)
                    ),
                )
                .with_opt_span(module.pred_type_span(p)),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: unused constraint type parameters (W0405)
// ---------------------------------------------------------------------------

/// A parameter position of a type constructor whose variable appears in no
/// right-hand side of any of that constructor's constraints has no effect
/// on the denoted type — `tag(A) >= nil` means `tag(τ)` is `{nil}` for
/// every `τ`.
fn unused_type_params(module: &Module, diags: &mut Vec<Diagnostic>) {
    let sig = &module.sig;
    let mut by_ctor: BTreeMap<Sym, Vec<&lp_parser::LoadedConstraint>> = BTreeMap::new();
    for c in &module.constraints {
        let Some(ctor) = c.lhs.functor() else {
            continue;
        };
        if Some(ctor) == module.union_sym {
            continue;
        }
        by_ctor.entry(ctor).or_default().push(c);
    }
    for (ctor, cons) in &by_ctor {
        let arity = cons.iter().map(|c| c.lhs.args().len()).max().unwrap_or(0);
        for k in 0..arity {
            let mut any_used = false;
            let mut name: Option<String> = None;
            let mut span: Option<Span> = None;
            for c in cons {
                match c.lhs.args().get(k) {
                    Some(Term::Var(v)) => {
                        if c.rhs.vars().contains(v) {
                            any_used = true;
                        } else {
                            if name.is_none() {
                                name = c.hints.get(*v).map(str::to_owned);
                            }
                            if span.is_none() {
                                span = c.span;
                            }
                        }
                    }
                    // A non-variable argument (only possible in hand-built
                    // modules; the uniformity check rejects it later) is
                    // conservatively treated as a use.
                    _ => any_used = true,
                }
            }
            if !any_used {
                let pname = name.unwrap_or_else(|| format!("#{}", k + 1));
                diags.push(
                    Diagnostic::warning(
                        "W0405",
                        format!(
                            "type parameter `{pname}` of `{}` is not used by any of its \
                             constraints",
                            sig.name(*ctor)
                        ),
                    )
                    .with_opt_span(span)
                    .note(format!(
                        "`{0}(τ)` denotes the same set of terms for every argument τ",
                        sig.name(*ctor)
                    )),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: clause-head overlap / subsumption (W0501 / W0502)
// ---------------------------------------------------------------------------

/// One-way matching: does `general` subsume `specific` (i.e. `generalθ =
/// specific` for some substitution over `general`'s variables)? The two
/// clauses' variable scopes are disjoint, so `specific`'s variables act as
/// constants.
fn subsumes(general: &Term, specific: &Term) -> bool {
    fn go<'a>(g: &'a Term, s: &'a Term, map: &mut HashMap<Var, &'a Term>) -> bool {
        match g {
            Term::Var(v) => match map.get(v) {
                Some(bound) => *bound == s,
                None => {
                    map.insert(*v, s);
                    true
                }
            },
            Term::App(f, args) => match s {
                Term::App(f2, args2) if f == f2 && args.len() == args2.len() => {
                    args.iter().zip(args2).all(|(a, b)| go(a, b, map))
                }
                _ => false,
            },
        }
    }
    go(general, specific, &mut HashMap::new())
}

fn head_span(lc: &LoadedClause) -> Span {
    lc.atom_spans.first().copied().unwrap_or(lc.span)
}

/// The finding for two unifiable heads of predicate `p`: `W0502` when the
/// earlier head `i` subsumes the later head `j`, `W0501` otherwise.
fn overlap_diagnostic(module: &Module, p: Sym, i: usize, j: usize) -> Diagnostic {
    let sig = &module.sig;
    let earlier = head_span(&module.clauses[i]);
    let later = head_span(&module.clauses[j]);
    if subsumes(
        &module.clauses[i].clause.head,
        &module.clauses[j].clause.head,
    ) {
        Diagnostic::warning(
            "W0502",
            format!(
                "clause head for `{}` is subsumed by an earlier, more general clause",
                sig.name(p)
            ),
        )
        .with_span(later)
        .related(earlier, "the more general head is here")
        .note("every invocation this clause resolves also resolves earlier")
    } else {
        Diagnostic::warning(
            "W0501",
            format!("clause heads for `{}` overlap", sig.name(p)),
        )
        .with_span(later)
        .related(earlier, "unifies with the head of this earlier clause")
        .note(
            "some invocations resolve against both clauses; if that is not \
             intended, make the heads mutually exclusive",
        )
    }
}

/// A principal functor with its arity.
type FunctorKey = (Sym, usize);

/// The clause heads of one module, indexed for the overlap pass so that
/// heads whose first arguments clash, and distinct ground heads, are never
/// tried as a pair.
///
/// Heads are grouped by predicate and, within a group, by the principal
/// functor of their first argument. The candidates for a later head `j`
/// are the earlier heads whose first argument is a variable or has `j`'s
/// functor; a ground `j` meets the ground heads only through an exact
/// match, since two ground heads unify only when they are equal. So on
/// ground facts the work grows with the clauses plus the findings, not
/// with the square of a predicate's clause count.
struct HeadIndex<'m> {
    /// The group of each clause's head.
    group_of: Vec<usize>,
    groups: Vec<HeadGroup<'m>>,
    /// Every variable of a head renamed apart is shifted by this much,
    /// past every variable of the module's heads.
    offset: u32,
}

/// The heads of one predicate (and arity); every list is in clause order.
#[derive(Default)]
struct HeadGroup<'m> {
    all: Vec<usize>,
    /// Heads whose first argument is a variable.
    var_first: Vec<usize>,
    /// Heads by their first argument's functor, and the non-ground ones
    /// among them.
    by_functor: HashMap<FunctorKey, Vec<usize>>,
    nonground_by_functor: HashMap<FunctorKey, Vec<usize>>,
    /// Ground heads, keyed by the head itself.
    ground: HashMap<&'m Term, Vec<usize>>,
}

impl<'m> HeadIndex<'m> {
    fn new(module: &'m Module) -> Self {
        let mut offset = module.gen.watermark();
        let mut group_ids: HashMap<FunctorKey, usize> = HashMap::new();
        let mut group_of = Vec::with_capacity(module.clauses.len());
        let mut ground_heads = Vec::with_capacity(module.clauses.len());
        // Pass 1: each head's group, and how many ground heads each group
        // has, so that no `ground` map grows (rehashing every head it
        // holds) while pass 2 fills it.
        let mut ground_counts = Vec::new();
        for lc in &module.clauses {
            let head = &lc.clause.head;
            crate::arena::visit_vars(head, &mut |v| offset = offset.max(v.0 + 1));
            let p = head.functor().expect("clause heads are applications");
            let g = *group_ids.entry((p, head.args().len())).or_insert_with(|| {
                ground_counts.push(0);
                ground_counts.len() - 1
            });
            group_of.push(g);
            let ground = head.is_ground();
            ground_heads.push(ground);
            ground_counts[g] += usize::from(ground);
        }
        let mut groups: Vec<HeadGroup<'m>> = ground_counts
            .into_iter()
            .map(|n| HeadGroup {
                ground: HashMap::with_capacity(n),
                ..HeadGroup::default()
            })
            .collect();
        for (i, lc) in module.clauses.iter().enumerate() {
            let head = &lc.clause.head;
            let group = &mut groups[group_of[i]];
            group.all.push(i);
            let ground = ground_heads[i];
            if ground {
                group.ground.entry(head).or_default().push(i);
            }
            match head.args().first() {
                Some(Term::Var(_)) => group.var_first.push(i),
                Some(Term::App(f, args)) => {
                    let key = (*f, args.len());
                    group.by_functor.entry(key).or_default().push(i);
                    if !ground {
                        group.nonground_by_functor.entry(key).or_default().push(i);
                    }
                }
                None => {}
            }
        }
        HeadIndex {
            group_of,
            groups,
            offset,
        }
    }

    /// The earlier heads that may unify with head `j`, ascending.
    fn candidates(&self, module: &Module, j: usize) -> Vec<usize> {
        let group = &self.groups[self.group_of[j]];
        // The prefix of an ascending clause list that precedes `j`.
        fn before(list: Option<&Vec<usize>>, j: usize) -> &[usize] {
            list.map_or(&[], |l| &l[..l.partition_point(|&i| i < j)])
        }
        let earlier = |list| before(list, j);
        let head = &module.clauses[j].clause.head;
        let key = match head.args().first() {
            Some(Term::Var(_)) => return earlier(Some(&group.all)).to_vec(),
            Some(Term::App(f, args)) => Some((*f, args.len())),
            None => None,
        };
        let ground = head.is_ground();
        let by_functor = if ground {
            &group.nonground_by_functor
        } else {
            &group.by_functor
        };
        let mut out = earlier(Some(&group.var_first)).to_vec();
        out.extend_from_slice(earlier(key.and_then(|k| by_functor.get(&k))));
        if ground {
            out.extend_from_slice(earlier(group.ground.get(head)));
        }
        out.sort_unstable();
        out
    }

    /// Pushes the `W0501`/`W0502` findings of head `j` against every
    /// earlier head of its predicate, in clause order. Head `j` is renamed
    /// apart once, not once per pair.
    fn overlaps(&self, module: &Module, j: usize, diags: &mut Vec<Diagnostic>) {
        let candidates = self.candidates(module, j);
        if candidates.is_empty() {
            return;
        }
        let head = &module.clauses[j].clause.head;
        let p = head.functor().expect("grouped heads are applications");
        let apart = head.map_vars(&mut |v| Term::Var(Var(v.0 + self.offset)));
        for i in candidates {
            if unify(&module.clauses[i].clause.head, &apart, &mut Subst::new()).is_ok() {
                diags.push(overlap_diagnostic(module, p, i, j));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: empty types (W0302) — grammar emptiness over the shape view
// ---------------------------------------------------------------------------

/// Memoized ground-inhabitation verdicts for type terms.
///
/// A type term is inhabited iff the regular-tree grammar rooted at it
/// produces a ground term: a variable always is (instantiate it to an
/// inhabited type), a function-symbol shape `f(τ…)` is when every argument
/// is, and a constructor application is when some expansion
/// ([`CheckedConstraints::expansions`]) is. The closure of a term under
/// expansion and subterms is usually finite (guardedness bounds the ctor
/// chains); a configurable [`Budget`] of term nodes (each explored term
/// is charged its size) guards the degenerate cases, answering
/// "inhabited" optimistically (no spurious warning) and recording the
/// exhaustion so the driver can report it (`W0303`).
struct Inhabitation<'a> {
    sig: &'a Signature,
    cs: &'a CheckedConstraints,
    verdict: BTreeMap<Term, bool>,
    /// Per-query budget of term nodes (reset at the start of each
    /// `inhabited` closure computation).
    budget: Budget,
    /// Whether any query ran out of budget (sticky across queries).
    exhausted: bool,
}

impl<'a> Inhabitation<'a> {
    fn new(sig: &'a Signature, cs: &'a CheckedConstraints, node_budget: u64) -> Self {
        Inhabitation {
            sig,
            cs,
            verdict: BTreeMap::new(),
            budget: Budget::new(node_budget),
            exhausted: false,
        }
    }

    /// Whether `ty` admits a ground inhabitant.
    fn inhabited(&mut self, ty: &Term) -> bool {
        if matches!(ty, Term::Var(_)) {
            return true;
        }
        if let Some(&v) = self.verdict.get(ty) {
            return v;
        }
        // Closure under expansion (ctor applications) and subterms (shapes).
        self.budget.reset();
        let mut nodes: BTreeSet<Term> = BTreeSet::new();
        let mut stack = vec![ty.clone()];
        while let Some(t) = stack.pop() {
            if !self.budget.charge(t.size() as u64) {
                // Pathological growth: answer optimistically, but remember
                // the bail so the driver emits a W0303 diagnostic.
                self.exhausted = true;
                return true;
            }
            if matches!(t, Term::Var(_))
                || self.verdict.contains_key(&t)
                || !nodes.insert(t.clone())
            {
                continue;
            }
            if let Term::App(s, args) = &t {
                match self.sig.kind(*s) {
                    SymKind::Func | SymKind::Skolem | SymKind::Pred => {
                        stack.extend(args.iter().cloned());
                    }
                    SymKind::TypeCtor => stack.extend(self.cs.expansions(&t)),
                }
            }
        }
        // Least fixpoint: mark nodes known inhabited until stable.
        let mut marked: BTreeSet<Term> = BTreeSet::new();
        loop {
            let mut changed = false;
            for t in &nodes {
                if !marked.contains(t) && self.satisfied(t, &marked) {
                    marked.insert(t.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for t in nodes {
            let v = marked.contains(&t);
            self.verdict.insert(t, v);
        }
        self.verdict.get(ty).copied().unwrap_or(false)
    }

    fn satisfied(&self, t: &Term, marked: &BTreeSet<Term>) -> bool {
        match t {
            Term::Var(_) => true,
            Term::App(s, args) => match self.sig.kind(*s) {
                SymKind::Func | SymKind::Skolem | SymKind::Pred => {
                    args.iter().all(|a| self.known(a, marked))
                }
                SymKind::TypeCtor => self.cs.expansions(t).iter().any(|e| self.known(e, marked)),
            },
        }
    }

    fn known(&self, t: &Term, marked: &BTreeSet<Term>) -> bool {
        matches!(t, Term::Var(_))
            || marked.contains(t)
            || self.verdict.get(t).copied().unwrap_or(false)
    }
}

fn empty_types(
    module: &Module,
    checked: &CheckedConstraints,
    inh: &mut Inhabitation<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let sig = &module.sig;
    let mut gen = module.gen.clone();
    for c in sig.symbols_of_kind(SymKind::TypeCtor) {
        if Some(c) == module.union_sym {
            continue;
        }
        let arity = sig.arity(c).unwrap_or(0);
        let ty = Term::app(c, (0..arity).map(|_| Term::Var(gen.fresh())).collect());
        if inh.inhabited(&ty) {
            continue;
        }
        let shapes = filter::shapes(sig, checked, &ty);
        let mut d = Diagnostic::warning(
            "W0302",
            format!("type `{}` has no ground inhabitant", sig.name(c)),
        )
        .with_opt_span(module.sym_span(c));
        d = if shapes.is_empty() {
            d.note(
                "its shape set is empty: no chain of constraints produces a function-symbol shape",
            )
        } else {
            let rendered: Vec<String> = shapes
                .iter()
                .take(3)
                .map(|s| TermDisplay::new(s, sig).to_string())
                .collect();
            let ellipsis = if shapes.len() > 3 { ", …" } else { "" };
            d.note(format!(
                "every shape in its shape set ({}{ellipsis}) has an argument with no \
                 ground inhabitant",
                rendered.join(", ")
            ))
        };
        diags.push(d);
    }
}

// ---------------------------------------------------------------------------
// Passes over clauses and queries: head condition (E0202), dead clauses
// (W0301), and full well-typedness (E0201/E0203)
// ---------------------------------------------------------------------------

/// What one clause's pool task found: its overlap, dead-clause and
/// head-condition findings, the head variables' types still to be checked
/// for inhabitants, and its `check_clause` finding.
#[derive(Default)]
struct ClauseFindings {
    diags: Vec<Diagnostic>,
    /// The compound types the flexible head match gave the head's
    /// variables, in variable order.
    forced: Vec<(Var, Term)>,
    check: Option<Diagnostic>,
}

/// The per-clause type-level passes of one clause, two constrained
/// matches through one [`Checker`]. They share nothing with other clauses
/// but the proof table behind `table`.
///
/// * The flexible head match ([`Checker::match_head`]) asks whether any
///   invocation matches the head: if not, the clause is dead (`W0301`).
/// * `check_clause` is full well-typedness (Definition 16), whose atom 0
///   is the head matched with rigid type variables. When the flexible
///   match succeeded and `check_clause` fails there with a rigid
///   commitment, the head is typeable but less general than its
///   declaration: the head condition (`E0202`, §5). Any other failure is
///   `E0201`.
fn clause_passes(
    module: &Module,
    checked: &CheckedConstraints,
    preds: &PredTypeTable,
    table: TableHandle<'_>,
    obs: Option<&MetricsRegistry>,
    idx: usize,
    found: &mut ClauseFindings,
) {
    let sig = &module.sig;
    let lc = &module.clauses[idx];
    let head = &lc.clause.head;
    let span = head_span(lc);
    let checker = Checker::with_handle(sig, checked, preds, table).with_obs(obs);
    // The head's predicate, once the flexible match has typed the head.
    let mut typeable = None;
    if let Some(p) = head.functor().filter(|&p| preds.get(p).is_some()) {
        // Fresh type variables are numbered past every variable of the
        // source, as the `W0301` empty-type message prints them.
        match checker.match_head(head, module.gen.watermark()) {
            Err(f @ (CMatchFailure::NoTyping | CMatchFailure::VariableClash { .. })) => {
                let mut d = Diagnostic::warning(
                    "W0301",
                    format!(
                        "clause for `{}` can never fire: no invocation matches its \
                         head under the declared type",
                        sig.name(p)
                    ),
                )
                .with_span(span)
                .note(format!("constrained match of the head fails: {f}"));
                if let Some(ps) = module.pred_type_span(p) {
                    d = d.related(ps, format!("`{}` declared here", sig.name(p)));
                }
                found.diags.push(d);
            }
            Ok(state) => {
                typeable = Some(p);
                // The head matches, but a head variable may be forced
                // into a type with no ground inhabitant; the serial
                // emitter asks the inhabitation memo.
                found.forced = state
                    .all_types()
                    .into_iter()
                    .filter(|(_, ty)| matches!(ty, Term::App(..)))
                    .collect();
            }
            Err(_) => {}
        }
    }
    let Err(e) = checker.check_clause(&lc.clause) else {
        return;
    };
    match (typeable, &e) {
        (
            Some(p),
            TypeCheckError::IllTypedAtom {
                atom: 0,
                failure: CMatchFailure::RigidCommitment { .. },
                ..
            },
        ) => {
            let mut d = Diagnostic::error(
                "E0202",
                format!(
                    "clause head for `{}` violates the head condition \
                     (definitional genericity)",
                    sig.name(p)
                ),
            )
            .with_span(span)
            .note(
                "a defining clause must keep the declared argument types \
                 fully general; only invocations may instantiate predicate \
                 type variables (§5)",
            );
            if let Some(ps) = module.pred_type_span(p) {
                d = d.related(ps, format!("`{}` declared here", sig.name(p)));
            }
            found.diags.push(d);
        }
        _ => found.check = Some(clause_check_diagnostic(module, idx, &e)),
    }
}

/// Emits one clause's findings in the serial order, answering its
/// empty-type question (`W0301`, one report per clause) from the shared
/// inhabitation memo (absent when the declarations were rejected, and
/// then there is no question).
fn emit_clause(
    module: &Module,
    lc: &LoadedClause,
    found: ClauseFindings,
    inh: Option<&mut Inhabitation<'_>>,
    diags: &mut Vec<Diagnostic>,
) {
    let sig = &module.sig;
    diags.extend(found.diags);
    let span = head_span(lc);
    let empty = inh.and_then(|inh| found.forced.into_iter().find(|(_, ty)| !inh.inhabited(ty)));
    if let Some((v, ty)) = empty {
        let p = lc
            .clause
            .head
            .functor()
            .expect("matched heads are applications");
        let name = lc.hints.get(v).unwrap_or("_").to_owned();
        let vspan = lc
            .var_spans
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(_, s)| *s)
            .unwrap_or(span);
        diags.push(
            Diagnostic::warning(
                "W0301",
                format!(
                    "clause for `{}` can never fire: `{name}` must inhabit the empty \
                     type `{}`",
                    sig.name(p),
                    TermDisplay::new(&ty, sig)
                ),
            )
            .with_span(vspan)
            .note(
                "no ground term has this type, so no well-typed invocation can bind \
                 the variable",
            ),
        );
    }
    diags.extend(found.check);
}

// ---------------------------------------------------------------------------
// Passes: modes — input boundedness (E0601), loose declarations (W0602),
// unmoded recursion (W0603), subject-reduction hazards (E0604)
// ---------------------------------------------------------------------------

/// The mode passes alone, as a sorted report: the static half of
/// `slp audit --modes` (and the `modes` serve op), byte-identical to the
/// `E0601`–`W0605` subset of [`lint_module`]'s output. Subject to the same
/// gate: a module without `MODE` declarations yields an empty report.
pub fn mode_diagnostics(
    module: &Module,
    checked: &CheckedConstraints,
    preds: &PredTypeTable,
    options: &LintOptions,
    obs: Option<&MetricsRegistry>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    mode_passes(module, checked, preds, options, obs, &mut diags);
    finish(diags)
}

/// Runs [`ModeAnalysis`] and the `E0604` hazard scan, rendering the
/// structured report as diagnostics. Gated on the module containing at
/// least one `MODE` declaration: an unmoded program has opted out of the
/// discipline, so the pass stays silent (and existing modules keep their
/// byte-identical lint output).
fn mode_passes(
    module: &Module,
    checked: &CheckedConstraints,
    preds: &PredTypeTable,
    options: &LintOptions,
    obs: Option<&MetricsRegistry>,
    diags: &mut Vec<Diagnostic>,
) {
    if module.pred_modes.is_empty() {
        return;
    }
    let sig = &module.sig;
    let analysis = ModeAnalysis::new(module)
        .with_budget(options.mode_budget)
        .with_obs(obs);
    let report = analysis.run();

    for v in &report.violations {
        let (span, hints) = match v.site {
            ModeSite::Clause(ci) => {
                let lc = &module.clauses[ci];
                // atom_spans is head-first for clauses; body atom `ai` is
                // span index `ai + 1`.
                (
                    lc.atom_spans.get(v.atom + 1).copied().unwrap_or(lc.span),
                    &lc.hints,
                )
            }
            ModeSite::Query(qi) => {
                let q = &module.queries[qi];
                (
                    q.atom_spans.get(v.atom).copied().unwrap_or(q.span),
                    &q.hints,
                )
            }
        };
        let names: Vec<String> = v
            .unbound
            .iter()
            .map(|&u| format!("`{}`", hints.get(u).unwrap_or("_")))
            .collect();
        let mut d = Diagnostic::error(
            "E0601",
            format!(
                "mode violation: input argument {} of `{}` is not bound at call time \
                 ({} unbound)",
                v.position + 1,
                sig.name(v.pred),
                names.join(", ")
            ),
        )
        .with_span(span)
        .note(
            "a `+` position must be bound by the clause head's input arguments or an \
             earlier body atom",
        );
        if let Some(ms) = module.pred_mode_span(v.pred) {
            d = d.related(ms, format!("`{}` modes declared here", sig.name(v.pred)));
        }
        diags.push(d);
    }

    for mm in &report.mismatches {
        diags.push(
            Diagnostic::warning(
                "W0602",
                format!(
                    "argument {} of `{}` is declared output (`-`) but every call \
                     supplies it bound",
                    mm.position + 1,
                    sig.name(mm.pred)
                ),
            )
            .with_opt_span(module.pred_mode_span(mm.pred))
            .note("inference agrees with `+` here; the declaration is looser than the program's data flow"),
        );
    }

    for &p in &report.unmoded_recursive {
        let span = module
            .clauses
            .iter()
            .find(|lc| lc.clause.head.functor() == Some(p))
            .map(head_span);
        diags.push(
            Diagnostic::warning(
                "W0603",
                format!(
                    "recursive predicate `{}` has no MODE declaration",
                    sig.name(p)
                ),
            )
            .with_opt_span(span)
            .note(
                "well-modedness of a recursive predicate cannot be checked without a \
                 declaration; add `MODE ...` to pin its data flow",
            ),
        );
    }

    let prover = Prover::new(sig, checked);
    let hazards = subject_reduction_hazards(module, &report, preds, &prover, analysis.budget());
    if let Some(o) = obs {
        o.add(Counter::ModeViolations, hazards.len() as u64);
    }
    for h in &hazards {
        let mut d = Diagnostic::error(
            "E0604",
            format!(
                "subject-reduction hazard: output argument {} of `{}` is declared \
                 `{}`, a strict supertype of what its clauses can produce (every \
                 production fits `{}`)",
                h.position + 1,
                sig.name(h.pred),
                TermDisplay::new(&h.declared, sig),
                TermDisplay::new(&h.producible, sig),
            ),
        )
        .with_opt_span(module.pred_mode_span(h.pred))
        .note(
            "under an input/output mode discipline (Smaus; Fages–Deransart) a `-` \
             position promising more than unification can deliver is exactly where \
             per-step subject reduction fails; tighten the declared type or the mode",
        );
        if let Some(ps) = module.pred_type_span(h.pred) {
            d = d.related(ps, format!("`{}` declared here", sig.name(h.pred)));
        }
        diags.push(d);
    }

    if report.exhausted || analysis.budget().exhausted() {
        if let Some(o) = obs {
            o.incr(Counter::BudgetExhausted);
        }
        diags.push(
            Diagnostic::warning(
                "W0605",
                format!(
                    "mode analysis exhausted its budget ({} units); mode findings may \
                     be incomplete",
                    options.mode_budget
                ),
            )
            .note(
                "budget-cut mode analysis reports nothing it is not sure of, so no \
                 finding above is spurious — but some may be missing",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_parser::parse_module;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let m = parse_module(src).unwrap();
        lint_module(&m, &LintOptions::default())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    const NAT: &str = "FUNC 0, succ. TYPE nat. nat >= 0 + succ(nat).";

    #[test]
    fn clean_module_yields_no_findings() {
        let diags = lint_src(&format!(
            "{NAT} PRED double(nat, nat). double(0, 0). \
             double(succ(X), succ(succ(Y))) :- double(X, Y). :- double(succ(0), N)."
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_clause_is_detected_with_span() {
        // pred(0) is not a nat, so q's only clause can never fire.
        let src = format!("FUNC pred. {NAT} PRED q(nat). q(pred(0)). :- q(0).");
        let diags = lint_src(&src);
        assert!(codes(&diags).contains(&"W0301"), "{diags:?}");
        let dead = diags.iter().find(|d| d.code == "W0301").unwrap();
        let span = dead.span.expect("dead clause has a span");
        assert_eq!(&src[span.start..span.end], "q(pred(0))");
        // The ill-typed head is also an E0201 (distinct finding).
        assert!(codes(&diags).contains(&"E0201"), "{diags:?}");
    }

    #[test]
    fn empty_type_is_detected() {
        let src = "FUNC cons. TYPE bottom. bottom >= cons(bottom, bottom). \
                   PRED p(bottom). p(X) :- p(X). :- p(X).";
        let diags = lint_src(src);
        let empty = diags.iter().find(|d| d.code == "W0302").expect("W0302");
        assert!(empty.message.contains("bottom"), "{empty:?}");
        // The clause head variable is forced into `bottom`: dead clause too.
        assert!(codes(&diags).contains(&"W0301"), "{diags:?}");
    }

    #[test]
    fn parameterized_emptiness_is_per_instance() {
        // list(A) is inhabited (nil); nelist(bottom) is not, but nelist(A)
        // itself is fine — no W0302 for nelist.
        let src = "FUNC nil, cons. TYPE elist, nelist, list, bottom. \
                   elist >= nil. nelist(A) >= cons(A, list(A)). \
                   list(A) >= elist + nelist(A). bottom >= cons(bottom, bottom). \
                   PRED p(list(A)). p(nil). :- p(nil).";
        let diags = lint_src(src);
        let empties: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "W0302").collect();
        assert_eq!(empties.len(), 1, "{diags:?}");
        assert!(empties[0].message.contains("bottom"));
    }

    #[test]
    fn head_condition_violation_is_e0202_not_duplicated() {
        // generic's declaration promises full generality in A; the clause
        // head commits A = elist.
        let src = "FUNC nil, cons. TYPE elist, nelist, list. elist >= nil. \
                   nelist(A) >= cons(A, list(A)). list(A) >= elist + nelist(A). \
                   PRED generic(list(A)). generic(cons(nil, nil)). :- generic(nil).";
        let diags = lint_src(src);
        let e0202: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "E0202").collect();
        assert_eq!(e0202.len(), 1, "{diags:?}");
        assert!(e0202[0].related.iter().any(|(_, c)| c.contains("declared")));
        // The rigid commitment is not double-reported as E0201.
        assert!(!codes(&diags).contains(&"E0201"), "{diags:?}");
    }

    #[test]
    fn singleton_and_unused_warnings() {
        let src = format!(
            "FUNC orphan. TYPE ghost. {NAT} PRED p(nat). PRED q(nat). \
             p(X) :- p(Y), p(Y). :- p(0)."
        );
        let diags = lint_src(&src);
        let got = codes(&diags);
        assert!(got.contains(&"W0401"), "singleton X: {diags:?}");
        assert!(got.contains(&"W0402"), "unused orphan: {diags:?}");
        assert!(got.contains(&"W0403"), "unused ghost: {diags:?}");
        assert!(got.contains(&"W0404"), "unused pred q: {diags:?}");
        let singles: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "W0401").collect();
        assert_eq!(singles.len(), 1, "only X is a singleton: {diags:?}");
        assert!(singles[0].message.contains("`X`"));
    }

    #[test]
    fn underscore_prefixed_singletons_are_exempt() {
        // `_Once` is the conventional intentionally-unused marker: no W0401.
        // A bare `X` singleton in the same clause still fires, pinning that
        // the exemption is per-name, not per-clause.
        let src = format!("{NAT} PRED p(nat, nat). p(_Once, 0). p(X, 0) :- p(0, 0).");
        let diags = lint_src(&src);
        let singles: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "W0401").collect();
        assert_eq!(singles.len(), 1, "only X fires: {diags:?}");
        assert!(singles[0].message.contains("`X`"), "{diags:?}");
        assert!(
            !diags.iter().any(|d| d.message.contains("_Once")),
            "{diags:?}"
        );
    }

    #[test]
    fn unused_type_parameter_is_w0405() {
        let src = "FUNC nil. TYPE tag. tag(A) >= nil. PRED p(tag(A)). p(nil). :- p(nil).";
        let diags = lint_src(src);
        let w = diags.iter().find(|d| d.code == "W0405").expect("W0405");
        assert!(w.message.contains("`A`"), "{w:?}");
        assert!(w.message.contains("tag"), "{w:?}");
    }

    #[test]
    fn overlap_and_subsumption_are_distinguished() {
        let src = format!(
            "{NAT} PRED pair(nat, nat). pair(X, 0) :- pair(X, X). \
             pair(0, Y) :- pair(Y, Y). pair(0, 0). :- pair(0, 0)."
        );
        let diags = lint_src(&src);
        let overlaps: Vec<&str> = diags
            .iter()
            .filter(|d| d.code.starts_with("W05"))
            .map(|d| d.code)
            .collect();
        // pair(X,0) vs pair(0,Y) overlap; pair(0,0) is subsumed by both.
        assert_eq!(overlaps, vec!["W0501", "W0502", "W0502"], "{diags:?}");
    }

    #[test]
    fn nonuniform_declarations_stop_at_e0102_with_span() {
        let src = "FUNC a. TYPE t. t(A, A) >= a.";
        let diags = lint_src(src);
        let e = diags.iter().find(|d| d.code == "E0102").expect("E0102");
        let span = e.span.expect("spanned");
        assert!(src[span.start..span.end].starts_with("t(A, A)"), "{e:?}");
    }

    #[test]
    fn unguarded_declarations_stop_at_e0103_with_span() {
        let src = "TYPE t, u. t >= u. u >= t.";
        let diags = lint_src(src);
        let e = diags.iter().find(|d| d.code == "E0103").expect("E0103");
        assert!(e.span.is_some(), "{e:?}");
        assert!(e.notes.iter().any(|n| n.contains("->")), "{e:?}");
    }

    #[test]
    fn missing_pred_type_is_e0203() {
        let diags = lint_src(&format!("{NAT} p(0)."));
        assert!(codes(&diags).contains(&"E0203"), "{diags:?}");
    }

    #[test]
    fn report_is_deterministic_and_tabling_invariant() {
        let src = "FUNC 0, succ, pred, nil, cons, orphan. \
                   TYPE nat, list, bottom. nat >= 0 + succ(nat). \
                   list(A) >= nil + cons(A, list(A)). bottom >= cons(bottom, bottom). \
                   PRED q(nat). q(pred(0)). PRED s(bottom). s(X). :- q(0).";
        let m = parse_module(src).unwrap();
        let a = lint_module(
            &m,
            &LintOptions {
                tabling: true,
                ..LintOptions::default()
            },
        );
        let b = lint_module(
            &m,
            &LintOptions {
                tabling: true,
                ..LintOptions::default()
            },
        );
        let c = lint_module(
            &m,
            &LintOptions {
                tabling: false,
                ..LintOptions::default()
            },
        );
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn exhausted_inhabitation_budget_reports_w0303() {
        // A generous budget stays silent; a starved one reports W0303
        // instead of silently degrading, and never invents W0302 findings.
        let src = format!("{NAT} PRED q(nat). q(0). :- q(succ(0)).");
        let m = parse_module(&src).unwrap();
        let clean = lint_module(&m, &LintOptions::default());
        assert!(clean.is_empty(), "{clean:?}");
        let starved = lint_module(
            &m,
            &LintOptions {
                inhabitation_budget: 1,
                ..LintOptions::default()
            },
        );
        assert_eq!(codes(&starved), vec!["W0303"], "{starved:?}");
        assert!(starved[0].message.contains("node budget (1 nodes)"));
    }

    const LISTS: &str = "FUNC 0, succ, pred, nil, cons. \
         TYPE nat, unnat, int, elist, nelist, list. \
         nat >= 0 + succ(nat). unnat >= 0 + pred(unnat). int >= nat + unnat. \
         elist >= nil. nelist(A) >= cons(A, list(A)). list(A) >= elist + nelist(A).";

    #[test]
    fn mode_passes_are_gated_on_mode_declarations() {
        // Recursive unmoded `app` plus a generating query: without a MODE
        // declaration anywhere, none of E0601/W0602/W0603/E0604 may fire.
        let diags = lint_src(&format!(
            "{LISTS} PRED app(list(A), list(A), list(A)). \
             app(nil, L, L). app(cons(X, L), M, cons(X, N)) :- app(L, M, N). \
             :- app(X, Y, cons(0, nil))."
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unbound_input_is_e0601_with_span() {
        let src = format!("{LISTS} PRED use(nat). MODE use(+). use(0). :- use(X).");
        let diags = lint_src(&src);
        let e = diags.iter().find(|d| d.code == "E0601").expect("E0601");
        let span = e.span.expect("spanned");
        assert_eq!(&src[span.start..span.end], "use(X)");
        assert!(e.message.contains("`X`"), "{e:?}");
        assert!(e.related.iter().any(|(_, c)| c.contains("modes declared")));
    }

    #[test]
    fn loose_output_declaration_is_w0602() {
        let src = format!("{LISTS} PRED use(nat). MODE use(-). use(0). :- use(0).");
        let diags = lint_src(&src);
        let w = diags.iter().find(|d| d.code == "W0602").expect("W0602");
        let span = w.span.expect("anchored at the MODE declaration");
        assert_eq!(&src[span.start..span.end], "use(-)");
    }

    #[test]
    fn unmoded_recursion_is_w0603_when_modes_are_in_play() {
        let src = format!(
            "{LISTS} PRED len(list(A), nat). PRED use(nat). MODE use(+). \
             len(nil, 0). len(cons(X, L), succ(N)) :- len(L, N). use(0). \
             :- len(cons(0, nil), N), use(N)."
        );
        let diags = lint_src(&src);
        let w = diags.iter().find(|d| d.code == "W0603").expect("W0603");
        assert!(w.message.contains("`len`"), "{w:?}");
        assert!(w.span.is_some());
    }

    #[test]
    fn subject_reduction_hazard_is_e0604() {
        let src = format!("{LISTS} PRED mk(int). MODE mk(-). mk(pred(0)). :- mk(X).");
        let diags = lint_src(&src);
        let e = diags.iter().find(|d| d.code == "E0604").expect("E0604");
        assert!(e.message.contains("`int`"), "{e:?}");
        assert!(e.message.contains("`unnat`"), "{e:?}");
        let span = e.span.expect("anchored at the MODE declaration");
        assert_eq!(&src[span.start..span.end], "mk(-)");
        // The tight variant is clean.
        let ok = lint_src(&format!(
            "{LISTS} PRED mk(unnat). MODE mk(-). mk(pred(0)). :- mk(X)."
        ));
        assert!(!ok.iter().any(|d| d.code == "E0604"), "{ok:?}");
    }

    #[test]
    fn starved_mode_budget_reports_w0605_only() {
        let src = format!("{LISTS} PRED use(nat). MODE use(+). use(0). :- use(X).");
        let m = parse_module(&src).unwrap();
        let starved = lint_module(
            &m,
            &LintOptions {
                mode_budget: 1,
                ..LintOptions::default()
            },
        );
        assert!(codes(&starved).contains(&"W0605"), "{starved:?}");
        assert!(!codes(&starved).contains(&"E0601"), "{starved:?}");
    }

    #[test]
    fn paper_example_is_clean() {
        let src = "FUNC 0, succ, nil, cons. TYPE nat, elist, nelist, list. \
                   nat >= 0 + succ(nat). elist >= nil. \
                   nelist(A) >= cons(A, list(A)). list(A) >= elist + nelist(A). \
                   PRED app(list(A), list(A), list(A)). \
                   app(nil, L, L). \
                   app(cons(X, L), M, cons(X, N)) :- app(L, M, N). \
                   :- app(nil, cons(0, nil), Z).";
        let diags = lint_src(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The all-pairs overlap pass the index replaced: every pair of heads
    /// of a predicate is tried, the later head renamed apart per pair.
    fn overlaps_all_pairs(module: &Module) -> Vec<Diagnostic> {
        let mut by_pred: BTreeMap<(Sym, usize), Vec<usize>> = BTreeMap::new();
        for (i, lc) in module.clauses.iter().enumerate() {
            if let Some(p) = lc.clause.head.functor() {
                let key = (p, lc.clause.head.args().len());
                by_pred.entry(key).or_default().push(i);
            }
        }
        let mut gen = module.gen.clone();
        let mut out = Vec::new();
        for ((p, _), idxs) in &by_pred {
            for (a, &i) in idxs.iter().enumerate() {
                for &j in &idxs[a + 1..] {
                    let hi = &module.clauses[i].clause.head;
                    let hj = &module.clauses[j].clause.head;
                    let apart = lp_term::rename_term(hj, &mut gen, &mut HashMap::new());
                    if unify(hi, &apart, &mut Subst::new()).is_ok() {
                        out.push(overlap_diagnostic(module, *p, i, j));
                    }
                }
            }
        }
        diag::sort(&mut out);
        out
    }

    fn overlaps_indexed(module: &Module) -> Vec<Diagnostic> {
        let index = HeadIndex::new(module);
        let mut out = Vec::new();
        for j in 0..module.clauses.len() {
            index.overlaps(module, j, &mut out);
        }
        diag::sort(&mut out);
        out
    }

    /// A predicate over `nat` whose facts draw each argument from a small
    /// pool, so variable first arguments, duplicate ground heads and
    /// ground heads beside non-ground ones with the same functor all
    /// occur.
    fn random_heads(seed: u64, clauses: usize) -> String {
        const ARGS: [&str; 6] = ["X", "Y", "0", "succ(0)", "succ(X)", "succ(succ(Y))"];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ARGS[(state % ARGS.len() as u64) as usize]
        };
        let mut src = format!("{NAT} PRED q(nat, nat). PRED r(nat).\n");
        for _ in 0..clauses {
            src.push_str(&format!("q({}, {}).\nr({}).\n", next(), next(), next()));
        }
        src
    }

    #[test]
    fn indexed_overlap_pass_matches_the_all_pairs_oracle() {
        let mut sources = Vec::new();
        for seed in 0..40 {
            sources.push(random_heads(seed, 12));
        }
        for seed in 0..16 {
            sources.push(lp_gen::worlds::random_source(seed));
        }
        for n in 1..6 {
            sources.push(lp_gen::programs::pipeline(n, 3));
            sources.push(lp_gen::programs::pipeline_with_errors(n, 2, n));
            sources.push(lp_gen::programs::fact_base(n * 8));
            sources.push(lp_gen::programs::nrev(n));
        }
        // Overlapping pairs of each shape the index treats specially.
        let (mut var_first, mut duplicate_ground, mut mixed) = (0, 0, 0);
        for src in &sources {
            let m = parse_module(src).unwrap();
            let oracle = overlaps_all_pairs(&m);
            assert_eq!(overlaps_indexed(&m), oracle, "on:\n{src}");
            for d in &oracle {
                let head_at = |span: Span| {
                    let lc = m.clauses.iter().find(|lc| head_span(lc) == span).unwrap();
                    &lc.clause.head
                };
                let later = head_at(d.span.unwrap());
                let earlier = head_at(d.related[0].0);
                if [earlier, later]
                    .iter()
                    .any(|h| matches!(h.args().first(), Some(Term::Var(_))))
                {
                    var_first += 1;
                }
                match (earlier.is_ground(), later.is_ground()) {
                    (true, true) => duplicate_ground += 1,
                    (false, false) => {}
                    _ => mixed += 1,
                }
            }
        }
        assert!(var_first >= 100, "{var_first} variable-first overlaps");
        assert!(
            duplicate_ground >= 100,
            "{duplicate_ground} duplicate ground heads"
        );
        assert!(mixed >= 100, "{mixed} mixed ground/non-ground overlaps");
    }

    /// Whether a check failed by committing a rigid type variable.
    fn rigid_commitment(result: Result<crate::welltyped::ClauseTyping, TypeCheckError>) -> bool {
        matches!(
            result,
            Err(TypeCheckError::IllTypedAtom {
                failure: CMatchFailure::RigidCommitment { .. },
                ..
            } | TypeCheckError::UnsatisfiableCommitments {
                failure: CMatchFailure::RigidCommitment { .. },
            })
        )
    }

    /// Body atoms that commit a head's rigid type variable (the random
    /// worlds have none): `X : A` from the head, then `0` or `succ(0)`
    /// where the body's list element type must be `A`.
    const RIGID_BODIES: &str = "FUNC 0, succ, nil, cons. TYPE nat, elist, nelist, list. \
         nat >= 0 + succ(nat). elist >= nil. nelist(A) >= cons(A, list(A)). \
         list(A) >= elist + nelist(A). PRED p(A). PRED q(list(B)). PRED r(A, list(A)). \
         p(X) :- q(cons(X, cons(0, nil))). p(X) :- q(cons(X, nil)). \
         r(X, L) :- q(cons(X, cons(succ(0), L))). r(X, cons(X, nil)). r(0, nil). \
         q(nil). q(cons(0, nil)).";

    /// `E0202` is `check_clause` failing on atom 0 with a rigid commitment
    /// after the flexible head match succeeded. The rule it replaced ran
    /// its own rigid match of the head alone; that match is `check_clause`
    /// on a body-less clause with the same head, and the two rules must
    /// agree on every clause.
    #[test]
    fn head_condition_matches_the_rigid_head_match_oracle() {
        let mut sources = vec![RIGID_BODIES.to_string()];
        for seed in 0..160 {
            sources.push(lp_gen::worlds::random_source(seed));
        }
        for n in 1..6 {
            for e in 0..4 {
                sources.push(lp_gen::programs::pipeline_with_errors(n, 2, e));
            }
            sources.push(lp_gen::programs::nrev(n));
        }
        // Clauses where the old rule reports `E0202`, and the two shapes
        // where `check_clause` commits a rigid variable without an
        // `E0202`: in a body atom, and on a head no invocation matches.
        let (mut e0202, mut in_body, mut on_dead_head) = (0, 0, 0);
        for src in &sources {
            let m = parse_module(src).unwrap();
            let reported: Vec<Span> = lint_module(&m, &LintOptions::default())
                .iter()
                .filter(|d| d.code == "E0202")
                .filter_map(|d| d.span)
                .collect();
            let (Ok(checked), Ok(preds)) =
                (checked_constraints(&m), PredTypeTable::from_module(&m))
            else {
                assert!(reported.is_empty(), "on:\n{src}");
                continue;
            };
            let checker = Checker::new(&m.sig, &checked, &preds);
            for lc in &m.clauses {
                let head = &lc.clause.head;
                let declared = head.functor().is_some_and(|p| preds.get(p).is_some());
                let typeable = declared && checker.match_head(head, m.gen.watermark()).is_ok();
                // The rigid head-only match: `check_clause` on the head alone.
                let fact = lp_engine::Clause::fact(head.clone());
                let oracle = typeable && rigid_commitment(checker.check_clause(&fact));
                assert_eq!(
                    reported.contains(&head_span(lc)),
                    oracle,
                    "E0202 verdict differs on clause at {:?} of:\n{src}",
                    lc.span
                );
                e0202 += usize::from(oracle);
                if let (
                    false,
                    Err(TypeCheckError::IllTypedAtom {
                        atom,
                        failure: CMatchFailure::RigidCommitment { .. },
                        ..
                    }),
                ) = (oracle, checker.check_clause(&lc.clause))
                {
                    if atom > 0 {
                        in_body += 1;
                    } else if !typeable {
                        on_dead_head += 1;
                    }
                }
            }
        }
        assert!(e0202 >= 50, "{e0202} head-condition violations");
        assert!(in_body >= 2, "{in_body} rigid commitments in a body atom");
        assert!(
            on_dead_head >= 40,
            "{on_dead_head} rigid commitments on a dead head"
        );
    }
}
