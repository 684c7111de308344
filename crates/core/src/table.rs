//! Tabled subtype proving: a generation-invalidated proof memo table.
//!
//! The deterministic prover of §3 is already polynomial per query, but the
//! same judgements recur constantly in practice: checking a program asks
//! `α ⪰_C τ` once per deferred commitment of every clause, the Theorem 6
//! auditor re-checks every resolvent of a run, and benchmark workloads
//! repeat whole goal families. [`ProofTable`] memoizes *conclusive* verdicts
//! ([`Proof::Proved`] / [`Proof::Refuted`]) so each distinct judgement is
//! derived once; [`Proof::Unknown`] is a budget artifact, not a judgement,
//! and is never cached.
//!
//! # Canonical keys
//!
//! Entries are keyed on the goal conjunction *canonically renamed*: variables
//! are mapped, in first-occurrence order, onto `_0, _1, …`, and the rigid
//! set is reduced to the sorted canonical images of the rigid variables that
//! actually occur in the goals. Since the arena refactor the renamed goals
//! are not materialized as `Term` trees at all: the key is a flat `u32` code
//! stream built in one pre-order walk ([`arena::encode_canonical`]), with
//! the same equality as the old renamed-tree representation.
//! Alpha-variant queries — `list(A) ⪰ nelist(B)` and `list(X) ⪰ nelist(Y)` —
//! therefore share one entry, while structurally different goals can never
//! collide. Rigid variables not occurring in the goals are dropped: the
//! search can only ever consult rigidity of variables it reaches, and those
//! are goal variables or fresh ones past the watermark.
//!
//! Cached `Proved` answers are stored in the same canonical variable space.
//! On a hit the answer is translated back through the inverse renaming; fresh
//! variables the original derivation allocated (at or past the prover's
//! effective watermark) are re-based onto the hitting call's own fresh range,
//! so a translated answer is exactly what a live run would have produced, up
//! to the numbering of prover-invented variables. On a *miss* the live
//! proof is returned untouched, so first derivations are byte-identical with
//! and without tabling.
//!
//! # Generation invalidation
//!
//! A verdict is only meaningful relative to the constraint theory `H_C` it
//! was derived under. Every [`ConstraintSet`](crate::ConstraintSet) carries a
//! process-unique generation stamp refreshed on each mutation (see
//! [`crate::constraint::next_generation`]); the table remembers the stamp its
//! entries were derived under and wholesale-clears itself whenever it is used
//! with a differently-stamped theory. Stamps are unique across sets, so a
//! table can be shared between worlds without ever serving a stale verdict.
//! An insert names the generation its verdict was derived under and is
//! dropped when the table has moved on since the lookup that missed, so a
//! worker whose proof raced another theory's lookup cannot plant its verdict
//! under the wrong stamp. The *signature* is assumed fixed once proving
//! starts — declaring new symbols mid-stream without touching the constraint
//! set is not detected (and nothing in this crate does so).
//!
//! # One store, three handles
//!
//! [`ProofTable`] is the only store. A [`TableHandle`] says how a prover
//! reaches it: not at all (`Untabled`), through a `RefCell` on one thread
//! (`Local`), or through the mutex of a
//! [`ShardedProofTable`](crate::ShardedProofTable) shared by worker threads
//! (`Shared`). [`TabledProver`] is the one tabled implementation over all
//! three; it borrows the table only for a probe or a write, never during a
//! live proof search.
//!
//! # Bounded size
//!
//! The table holds at most [`ProofTable::capacity`] entries; inserting past
//! that evicts the oldest entry (FIFO). Hit/miss/insert/evict counts are
//! available via [`ProofTable::stats`].
//!
//! # Accounting
//!
//! Since PR 5 the counters live in a shared [`MetricsRegistry`]
//! (see [`crate::obs`]): every table is constructed over a registry (its own
//! by default, a caller-supplied `Arc` for CLI-wide aggregation), and
//! [`ProofTable::stats`] is a *view* over the registry's counters rather
//! than a separately maintained struct. When tracing is enabled the table
//! also emits `table.hit` / `table.miss` / `table.evict` /
//! `table.invalidate` span events keyed by the canonical fingerprint.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use lp_term::{Signature, Subst, Term, Var, VarGen};

use crate::arena;
use crate::closure::ClosureVerdict;
use crate::constraint::{CheckedConstraints, SubtypeConstraint};
use crate::obs::{Counter, MetricsRegistry, Timer, TraceEvent};
use crate::prover::{Proof, Prover, ProverConfig};
use crate::shard::ShardedProofTable;
use crate::witness::{self, Step, Witness, Witnessed};

/// Default bound on the number of cached verdicts.
pub const DEFAULT_TABLE_CAPACITY: usize = 4096;

/// A canonically-renamed goal conjunction plus its rigid-variable footprint.
///
/// Two queries produce the same key iff they are alpha-variants with the same
/// rigidity pattern — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TableKey {
    /// The goal conjunction as one canonical flat code stream: for each goal,
    /// `sup` then `sub`, encoded by [`arena::encode_canonical`] with
    /// variables renamed to `_0, _1, …` in first-occurrence order. Two
    /// queries produce equal codes iff their renamed goal lists are equal,
    /// and hashing/comparing is a flat word scan instead of a tree walk.
    code: Vec<u32>,
    /// Sorted canonical images of the rigid variables occurring in the goals.
    rigid: Vec<Var>,
}

impl TableKey {
    /// A compact, human-scannable rendering for trace logs: symbols print
    /// as `s<index>` (the signature is not in scope here), canonical
    /// variables as `_<n>`, goals as `sup>=sub` joined with `&`, followed
    /// by the rigid set — e.g. `s3(_0)>=s5(_1)|r:_1`.
    pub(crate) fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        fn term(out: &mut String, t: &Term) {
            match t {
                Term::Var(v) => {
                    let _ = write!(out, "_{}", v.0);
                }
                Term::App(sym, args) => {
                    let _ = write!(out, "s{}", sym.index());
                    if !args.is_empty() {
                        out.push('(');
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            term(out, a);
                        }
                        out.push(')');
                    }
                }
            }
        }
        let decoded = arena::decode_terms(&self.code);
        let mut out = String::new();
        for (i, pair) in decoded.chunks_exact(2).enumerate() {
            if i > 0 {
                out.push('&');
            }
            term(&mut out, &pair[0]);
            out.push_str(">=");
            term(&mut out, &pair[1]);
        }
        if !self.rigid.is_empty() {
            out.push_str("|r:");
            for (i, v) in self.rigid.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "_{}", v.0);
            }
        }
        out
    }
}

/// A cached conclusive verdict, with any answer held in canonical space.
///
/// A `Proved` entry interns the derivation chain alongside the answer:
/// [`Step`]s are variable-free, so the same `Arc`'d chain replays both in
/// canonical space (for [`ProofTable::validate_witnesses`]) and, shared
/// into a [`Witness`], in the variable space of every alpha-variant hit.
/// `Refuted` stays evidence-free — refutation cores are computed on demand
/// by re-proving sub-conjunctions under the table, not cached.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CachedVerdict {
    /// Derivable; the answer substitution over canonical variables, plus
    /// the interned derivation chain.
    Proved(Subst, Arc<Vec<Step>>),
    /// Conclusively not derivable.
    Refuted,
}

/// Hit/miss/insert/evict counters for a [`ProofTable`].
///
/// Since PR 5 this is a read-only *view*: the live tallies are atomic
/// counters in the table's [`MetricsRegistry`], and [`ProofTable::stats`]
/// snapshots them into this struct. Tables sharing one registry therefore
/// report one merged set of numbers, and reading them never takes a
/// [`crate::ShardedProofTable`]'s lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to the live prover.
    pub misses: u64,
    /// Verdicts stored (Unknown verdicts are never stored).
    pub inserts: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Wholesale clears triggered by a generation mismatch.
    pub invalidations: u64,
}

impl TableStats {
    /// Reads the table counters out of `obs` (relaxed loads, no lock).
    pub(crate) fn from_registry(obs: &MetricsRegistry) -> Self {
        TableStats {
            hits: obs.get(Counter::TableHits),
            misses: obs.get(Counter::TableMisses),
            inserts: obs.get(Counter::TableInserts),
            evictions: obs.get(Counter::TableEvictions),
            invalidations: obs.get(Counter::TableInvalidations),
        }
    }

    /// Fraction of lookups answered from the table, in `[0, 1]` (0 when no
    /// lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded memo table of subtype verdicts, invalidated by constraint-set
/// generation. See the module docs for the caching contract.
///
/// The table itself is passive storage; [`TabledProver`] drives it. Share one
/// table per world (behind a [`RefCell`], or a
/// [`ShardedProofTable`] across threads) between the checker, the matcher
/// and the auditor to maximize reuse.
#[derive(Debug)]
pub struct ProofTable {
    entries: HashMap<TableKey, CachedVerdict>,
    /// Insertion order of the keys in `entries`, oldest first (FIFO).
    order: VecDeque<TableKey>,
    capacity: usize,
    /// Generation stamp the current entries were derived under; 0 = unset.
    generation: u64,
    /// Shared metrics registry the table reports into.
    obs: Arc<MetricsRegistry>,
}

impl Clone for ProofTable {
    /// Clones the cached entries and the *values* of the counters: the
    /// clone gets its own fresh registry seeded from a snapshot, so the two
    /// tables account independently from the moment of the clone (the
    /// semantics the old by-value `stats` field had).
    fn clone(&self) -> Self {
        let obs = MetricsRegistry::shared();
        obs.seed(&self.obs.snapshot());
        ProofTable {
            entries: self.entries.clone(),
            order: self.order.clone(),
            capacity: self.capacity,
            generation: self.generation,
            obs,
        }
    }
}

impl Default for ProofTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProofTable {
    /// An empty table with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TABLE_CAPACITY)
    }

    /// An empty table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_metrics(capacity, MetricsRegistry::shared())
    }

    /// An empty table with the default capacity, reporting into `obs`.
    pub fn with_metrics(obs: Arc<MetricsRegistry>) -> Self {
        Self::with_capacity_and_metrics(DEFAULT_TABLE_CAPACITY, obs)
    }

    /// An empty table holding at most `capacity` entries, reporting into
    /// `obs` — the constructor the CLI uses to aggregate every table of an
    /// invocation into one registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity_and_metrics(capacity: usize, obs: Arc<MetricsRegistry>) -> Self {
        assert!(
            capacity > 0,
            "a proof table needs room for at least one entry"
        );
        ProofTable {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            generation: 0,
            obs,
        }
    }

    /// The metrics registry this table reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The generation stamp the current entries were derived under (0 until
    /// the first use).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The lifetime counters (never reset by clears or invalidations) — a
    /// lock-free view over the table's [`MetricsRegistry`].
    pub fn stats(&self) -> TableStats {
        TableStats::from_registry(&self.obs)
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Aligns the table with the theory stamped `generation`, clearing every
    /// entry if it was populated under a different one.
    pub fn ensure_generation(&mut self, generation: u64) {
        if self.generation != generation {
            if !self.entries.is_empty() {
                self.obs.incr(Counter::TableInvalidations);
                self.obs.trace(&TraceEvent::TableInvalidate { generation });
            }
            self.clear();
            self.generation = generation;
        }
    }

    /// Moves the table to a new constraint-theory `generation`, keeping
    /// every entry that provably survives the theory change instead of
    /// clearing wholesale (the [`ProofTable::ensure_generation`] behaviour).
    ///
    /// The caller describes the change: `constraint_unchanged(i)` must
    /// return `true` iff the constraint at declaration index `i` is
    /// byte-identical in the old and new theories, and `keep_refuted`
    /// must only be `true` when the new theory adds *nothing* (identical
    /// constraint lists). Soundness:
    ///
    /// * a `Proved` entry's chain names exactly the constraints its
    ///   derivation used ([`Step::Constraint`]); if all of them are
    ///   unchanged the chain replays verbatim under the new theory, and
    ///   H_C derivability is monotone under constraint *addition*, so the
    ///   verdict stands;
    /// * a `Refuted` entry asserts *no* derivation exists — any added or
    ///   changed constraint could create one, so refutations only survive
    ///   a no-op change.
    ///
    /// Precondition (checked by the caller, e.g.
    /// [`ShardedProofTable::rescope`](crate::ShardedProofTable::rescope)
    /// users): the old signature's symbol numbering must be a prefix of
    /// the new one, so the `Sym`s baked into cached keys and answers keep
    /// denoting the same symbols. When that fails, fall back to
    /// [`ProofTable::ensure_generation`].
    ///
    /// Returns the number of retained entries, which is also added to
    /// [`Counter::IncrementalReuse`]. A same-generation call is a no-op
    /// returning 0 (nothing was at risk, nothing was "reused").
    pub fn rescope(
        &mut self,
        generation: u64,
        constraint_unchanged: &dyn Fn(usize) -> bool,
        keep_refuted: bool,
    ) -> u64 {
        if self.generation == generation {
            return 0;
        }
        let before = self.entries.len();
        let entries = &mut self.entries;
        self.order.retain(|key| {
            let keep = match entries.get(key) {
                Some(CachedVerdict::Proved(_, steps)) => steps.iter().all(|s| match s {
                    Step::Constraint(i) => constraint_unchanged(*i),
                    Step::Refl | Step::Decompose => true,
                }),
                Some(CachedVerdict::Refuted) => keep_refuted,
                None => false,
            };
            if !keep {
                entries.remove(key);
            }
            keep
        });
        debug_assert_eq!(
            self.order.len(),
            self.entries.len(),
            "order queue and entry map out of sync after rescope"
        );
        self.generation = generation;
        let kept = self.entries.len();
        if kept != before {
            self.obs.incr(Counter::TableInvalidations);
            self.obs.trace(&TraceEvent::TableInvalidate { generation });
        }
        self.obs.add(Counter::IncrementalReuse, kept as u64);
        kept as u64
    }

    /// Looks up a key, counting a hit or a miss.
    pub(crate) fn lookup(&mut self, key: &TableKey) -> Option<CachedVerdict> {
        match self.entries.get(key) {
            Some(v) => {
                self.obs.incr(Counter::TableHits);
                if self.obs.tracing() {
                    self.obs.trace(&TraceEvent::TableHit {
                        key: &key.fingerprint(),
                    });
                }
                Some(v.clone())
            }
            None => {
                self.obs.incr(Counter::TableMisses);
                if self.obs.tracing() {
                    self.obs.trace(&TraceEvent::TableMiss {
                        key: &key.fingerprint(),
                    });
                }
                None
            }
        }
    }

    /// Stores a verdict derived under `generation`, evicting the oldest entry
    /// when at capacity. A verdict whose generation is not the table's
    /// current one is dropped: on a shared table another theory's lookup can
    /// move the table between this verdict's miss and its insert.
    ///
    /// Re-inserting a key that is already present *updates the verdict in
    /// place* — without enqueuing a second FIFO slot — and moves the key to
    /// the queue tail: a just-re-proved key is the hottest entry in the
    /// table, so leaving it at its original slot would evict it as if it
    /// were cold. The membership test goes through `entries` (O(1)), which
    /// keeps `order` duplicate-free: pushing a second copy of a live key
    /// would make the queue grow past the entry count, charge `evictions`
    /// for queue slots whose key was already gone, and — because each insert
    /// pops at most one slot — let the table overshoot its capacity while
    /// evicting live entries early.
    pub(crate) fn insert(&mut self, generation: u64, key: TableKey, verdict: CachedVerdict) {
        if generation != self.generation {
            return;
        }
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = verdict;
            if let Some(pos) = self.order.iter().position(|k| k == &key) {
                let hot = self.order.remove(pos).expect("position is in range");
                self.order.push_back(hot);
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                let evicted = self.entries.remove(&oldest);
                debug_assert!(evicted.is_some(), "order queue held a dead key");
                self.obs.incr(Counter::TableEvictions);
                if self.obs.tracing() {
                    self.obs.trace(&TraceEvent::TableEvict {
                        key: &oldest.fingerprint(),
                    });
                }
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, verdict);
        self.obs.incr(Counter::TableInserts);
        debug_assert_eq!(
            self.order.len(),
            self.entries.len(),
            "order queue and entry map out of sync"
        );
    }

    /// Audits the table: replays every cached `Proved` entry's chain in
    /// canonical space through [`witness::validate_in`] — no prover is
    /// consulted. Returns `(validated, invalid)` and tallies the same into
    /// `witness_validated` / `witness_invalid`. `Refuted` entries carry no
    /// chain and are skipped.
    pub fn validate_witnesses(
        &self,
        sig: &Signature,
        constraints: &[SubtypeConstraint],
    ) -> (u64, u64) {
        let mut validated = 0u64;
        let mut invalid = 0u64;
        for (key, verdict) in &self.entries {
            if let CachedVerdict::Proved(answer, steps) = verdict {
                // Witness replay is representation-independent: the goals
                // decode back out of the flat key code, and the chain indexes
                // constraints, not pointers.
                let goals: Vec<(Term, Term)> = arena::decode_terms(&key.code)
                    .chunks_exact(2)
                    .map(|p| (p[0].clone(), p[1].clone()))
                    .collect();
                let w = Witness {
                    goals,
                    answer: answer.clone(),
                    steps: steps.clone(),
                };
                if witness::validate_in(sig, constraints, &w).is_ok() {
                    validated += 1;
                } else {
                    invalid += 1;
                }
            }
        }
        self.obs.add(Counter::WitnessValidated, validated);
        self.obs.add(Counter::WitnessInvalid, invalid);
        (validated, invalid)
    }
}

/// The stable verdict name used in `subtype.end` trace events.
pub(crate) fn verdict_name(proof: &Proof) -> &'static str {
    match proof {
        Proof::Proved(_) => "proved",
        Proof::Refuted => "refuted",
        Proof::Unknown => "unknown",
    }
}

/// The canonical renaming of one query, with everything needed to translate
/// answers in both directions.
pub(crate) struct Canonical {
    pub(crate) key: TableKey,
    /// Original variable → canonical variable, for every goal variable.
    forward: HashMap<Var, Var>,
    /// Number of distinct goal variables: canonical `_0 .. _key_vars` are
    /// goal variables, canonical variables at or past `key_vars` are fresh.
    key_vars: u32,
    /// First fresh variable the live prover allocates for this call — the
    /// effective watermark [`Prover::subtype_all_rigid`] computes from
    /// `var_watermark`, the goal variables and the rigid set.
    base: u32,
}

impl Canonical {
    pub(crate) fn of(goals: &[(Term, Term)], rigid: &BTreeSet<Var>, var_watermark: u32) -> Self {
        let mut gen = VarGen::new();
        let mut forward = HashMap::new();
        let mut code = Vec::new();
        // One pre-order walk per goal side builds the flat key code directly
        // — no renamed `Term` trees are ever allocated. The canonical-index
        // assignment order (first occurrence across sup-then-sub, goal by
        // goal) is identical to what `rename_term` with a shared map did.
        // The same pass reserves goal variables into the live prover's
        // fresh-variable base, which starts at `var_watermark`.
        let mut base_gen = VarGen::starting_at(var_watermark);
        for (sup, sub) in goals {
            arena::encode_canonical(&mut code, sup, &mut forward, &mut gen);
            arena::encode_canonical(&mut code, sub, &mut forward, &mut gen);
            arena::visit_vars(sup, &mut |v| base_gen.reserve(v));
            arena::visit_vars(sub, &mut |v| base_gen.reserve(v));
        }
        let mut canon_rigid: Vec<Var> = rigid
            .iter()
            .filter_map(|v| forward.get(v).copied())
            .collect();
        canon_rigid.sort_unstable();
        for &v in rigid {
            base_gen.reserve(v);
        }
        Canonical {
            key: TableKey {
                code,
                rigid: canon_rigid,
            },
            forward,
            key_vars: gen.watermark(),
            base: base_gen.watermark(),
        }
    }

    /// Original → canonical, covering prover-fresh variables by offset.
    /// `None` for a variable that is neither a goal variable nor fresh
    /// (cannot arise from a well-behaved search; callers skip caching then).
    fn encode_var(&self, v: Var) -> Option<Var> {
        if let Some(&c) = self.forward.get(&v) {
            Some(c)
        } else if v.0 >= self.base {
            Some(Var(self.key_vars + (v.0 - self.base)))
        } else {
            None
        }
    }

    /// Translates a live answer into canonical space for storage.
    pub(crate) fn encode_answer(&self, answer: &Subst) -> Option<Subst> {
        let mut bindings = Vec::new();
        for (v, t) in answer.iter() {
            let cv = self.encode_var(v)?;
            let mut complete = true;
            let ct = t.map_vars(&mut |w| match self.encode_var(w) {
                Some(cw) => Term::Var(cw),
                None => {
                    complete = false;
                    Term::Var(w)
                }
            });
            if !complete {
                return None;
            }
            bindings.push((cv, ct));
        }
        Some(Subst::from_bindings(bindings))
    }

    /// Canonical → this call's variables, re-basing canonical-fresh
    /// variables onto this call's fresh range.
    pub(crate) fn decode_answer(&self, canonical: &Subst) -> Subst {
        let inverse: HashMap<Var, Var> = self.forward.iter().map(|(&orig, &c)| (c, orig)).collect();
        let decode = |c: Var| -> Var {
            match inverse.get(&c) {
                Some(&orig) => orig,
                None => Var(self.base + (c.0 - self.key_vars)),
            }
        };
        Subst::from_bindings(
            canonical
                .iter()
                .map(|(cv, ct)| (decode(cv), ct.map_vars(&mut |w| Term::Var(decode(w))))),
        )
    }
}

/// Which proof table, if any, a [`TabledProver`] memoizes through.
///
/// Every arm reaches the same store, a [`ProofTable`]: `Local` through a
/// `RefCell` on one thread, `Shared` through the mutex of a
/// [`ShardedProofTable`] that worker threads share. The constraint matcher
/// ([`crate::cmatch::CMatcher`]) and the well-typedness checker
/// ([`crate::welltyped::Checker`]) hold a `TableHandle` and prove every
/// deferred-commitment conjunction through a [`TabledProver`] over it.
#[derive(Debug, Clone, Copy)]
pub enum TableHandle<'a> {
    /// No memoization: every conjunction is derived live.
    Untabled,
    /// A single-threaded table (not `Sync`; one thread only).
    Local(&'a RefCell<ProofTable>),
    /// A table shared by worker threads.
    Shared(&'a ShardedProofTable),
}

impl<'a> From<&'a RefCell<ProofTable>> for TableHandle<'a> {
    fn from(table: &'a RefCell<ProofTable>) -> Self {
        TableHandle::Local(table)
    }
}

impl<'a> From<&'a ShardedProofTable> for TableHandle<'a> {
    fn from(table: &'a ShardedProofTable) -> Self {
        TableHandle::Shared(table)
    }
}

impl TableHandle<'_> {
    /// Lends the table to `f` for one probe or write; `None` when untabled.
    /// A shared table whose lock is busy charges `contended` before
    /// blocking.
    fn with_table<R>(&self, contended: Counter, f: impl FnOnce(&mut ProofTable) -> R) -> Option<R> {
        match self {
            TableHandle::Untabled => None,
            TableHandle::Local(table) => Some(f(&mut table.borrow_mut())),
            TableHandle::Shared(table) => Some(f(&mut table.lock_counting(contended))),
        }
    }

    /// Looks `key` up under `generation`, first aligning the table with it.
    pub(crate) fn lookup(&self, generation: u64, key: &TableKey) -> Option<CachedVerdict> {
        self.with_table(Counter::TableReadRetries, |table| {
            table.ensure_generation(generation);
            table.lookup(key)
        })
        .flatten()
    }

    /// Stores a verdict derived under `generation` (see [`ProofTable::insert`]).
    pub(crate) fn insert(&self, generation: u64, key: TableKey, verdict: CachedVerdict) {
        self.with_table(Counter::ShardContention, |table| {
            table.insert(generation, key, verdict)
        });
    }

    /// Audits the table through [`ProofTable::validate_witnesses`];
    /// `Untabled` has nothing to audit and reports `(0, 0)`.
    pub fn validate_witnesses(
        &self,
        sig: &Signature,
        constraints: &[SubtypeConstraint],
    ) -> (u64, u64) {
        match self {
            TableHandle::Untabled => (0, 0),
            TableHandle::Local(table) => table.borrow().validate_witnesses(sig, constraints),
            TableHandle::Shared(table) => table.validate_witnesses(sig, constraints),
        }
    }
}

/// The timer start and trace name of one instrumented judgement.
struct Span {
    started: Instant,
    /// The canonical fingerprint, rendered only when someone traces.
    fingerprint: Option<String>,
}

/// A caching wrapper around the deterministic [`Prover`], mirroring its API.
///
/// Every conclusive verdict is recorded in (and, for repeats, served from)
/// the table behind a [`TableHandle`]; the table's generation is checked
/// against the constraint set on every call, so mutating the world —
/// building a new [`ConstraintSet`](crate::ConstraintSet) — transparently
/// invalidates it. Over [`TableHandle::Untabled`] every conjunction is
/// derived live, with the instrumentation of a tabled call minus the
/// table's own traffic and `arena_terms` (no key is encoded unless a trace
/// needs its fingerprint).
///
/// The table is borrowed only for a lookup or an insert; the live search
/// itself never touches it, so the wrapper is re-entrancy safe, and two
/// workers missing on the same key of a shared table both derive it and
/// both insert an equal verdict (the prover is deterministic in canonical
/// space), which is harmless.
#[derive(Debug, Clone, Copy)]
pub struct TabledProver<'a> {
    prover: Prover<'a>,
    cs: &'a CheckedConstraints,
    table: TableHandle<'a>,
    /// Where an untabled prover reports; a tabled one reports into its
    /// table's registry.
    obs: Option<&'a MetricsRegistry>,
}

impl<'a> TabledProver<'a> {
    /// Creates a tabled prover with default limits over a table (a
    /// `&RefCell<ProofTable>`, a `&ShardedProofTable`, or a
    /// [`TableHandle`]).
    pub fn new(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        table: impl Into<TableHandle<'a>>,
    ) -> Self {
        Self::with_config(sig, cs, ProverConfig::default(), table)
    }

    /// Creates a tabled prover with explicit limits.
    pub fn with_config(
        sig: &'a Signature,
        cs: &'a CheckedConstraints,
        config: ProverConfig,
        table: impl Into<TableHandle<'a>>,
    ) -> Self {
        TabledProver {
            prover: Prover::with_config(sig, cs, config),
            cs,
            table: table.into(),
            obs: None,
        }
    }

    /// Attaches the registry an untabled prover reports into (builder
    /// style). A tabled prover ignores it and reports into its table's.
    pub fn with_obs(mut self, obs: Option<&'a MetricsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying (untabled) prover.
    pub fn prover(&self) -> Prover<'a> {
        self.prover
    }

    /// Runs `f` on the registry this prover reports into, if any.
    fn report<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        match self.table {
            TableHandle::Untabled => self.obs.map(f),
            TableHandle::Local(table) => Some(f(table.borrow().metrics())),
            TableHandle::Shared(table) => Some(f(table.metrics())),
        }
    }

    /// Tabled [`Prover::subtype`].
    pub fn subtype(&self, sup: &Term, sub: &Term) -> Proof {
        self.subtype_all(&[(sup.clone(), sub.clone())])
    }

    /// Tabled [`Prover::subtype_all`].
    pub fn subtype_all(&self, goals: &[(Term, Term)]) -> Proof {
        self.subtype_all_rigid(goals, &BTreeSet::new(), 0)
    }

    /// Tabled [`Prover::member`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` is not ground, like the untabled version.
    pub fn member(&self, ty: &Term, t: &Term) -> Proof {
        debug_assert!(t.is_ground(), "membership is defined on ground terms");
        self.subtype(ty, t)
    }

    /// Tabled [`Prover::subtype_all_rigid`]. Conclusive verdicts for the
    /// canonical form of `goals` are served from / recorded in the table;
    /// [`Proof::Unknown`] always falls through and is never recorded.
    pub fn subtype_all_rigid(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Proof {
        // Fully-ground conjunctions the precomputed closure decides never
        // reach the canonical-key/table layer at all: no renaming, no key
        // allocation, no lookup. The verdicts are exactly what the prover
        // would return (ground searches bind nothing, so a proved ground
        // conjunction's answer is the empty substitution).
        let decided = match self.cs.ground_closure().decide_goals(goals) {
            ClosureVerdict::Proved => Some(Proof::Proved(Subst::new())),
            ClosureVerdict::Refuted => Some(Proof::Refuted),
            ClosureVerdict::Miss => {
                self.report(|o| o.incr(Counter::ClosureMisses));
                None
            }
            ClosureVerdict::NotGround => None,
        };
        if let Some(proof) = decided {
            self.report(|o| {
                o.incr(Counter::SubtypeGoals);
                o.incr(Counter::ClosureHits);
            });
            return proof;
        }
        let (span, canon) = self.open(goals, rigid, var_watermark);
        let (proof, _) = self.decide(canon, goals, rigid, var_watermark);
        self.close(span, verdict_name(&proof));
        proof
    }

    /// [`Self::subtype_all_rigid`] with evidence attached: `Proved` carries
    /// a replayable [`Witness`] whose chain is interned with the table entry
    /// (hits share it), `Refuted` a 1-minimal failing core computed by
    /// greedy constraint-dropping re-proving *under the table* — shrinking
    /// repeats are memoized, so it stays cheap.
    ///
    /// Instrumentation is identical to the plain method (`subtype_goals`,
    /// the `subtype_prove` timer, span events), plus `witness_emitted` /
    /// `refuted_core_size` for the evidence itself.
    pub fn subtype_all_rigid_witnessed(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Witnessed {
        let (span, canon) = self.open(goals, rigid, var_watermark);
        let (proof, steps) = self.decide(canon, goals, rigid, var_watermark);
        let verdict = verdict_name(&proof);
        let out = match proof {
            Proof::Proved(answer) => {
                self.report(|o| o.incr(Counter::WitnessEmitted));
                Witnessed::Proved(Witness {
                    goals: goals.to_vec(),
                    answer,
                    steps,
                })
            }
            Proof::Refuted => Witnessed::Refuted {
                core: self.shrink_refuted(goals, rigid, var_watermark),
            },
            Proof::Unknown => Witnessed::Unknown,
        };
        self.close(span, verdict);
        out
    }

    /// Counts one goal, starts its timer and opens its trace span. The
    /// canonical key comes back when there is a table to probe; untabled,
    /// it is built only to name a traced span.
    fn open(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> (Span, Option<Canonical>) {
        let started = Instant::now();
        let tabled = !matches!(self.table, TableHandle::Untabled);
        let tracing = self
            .report(|o| {
                o.incr(Counter::SubtypeGoals);
                if tabled {
                    o.add(Counter::ArenaTerms, 2 * goals.len() as u64);
                }
                o.tracing()
            })
            .unwrap_or(false);
        let canon = (tabled || tracing).then(|| Canonical::of(goals, rigid, var_watermark));
        let fingerprint = canon
            .as_ref()
            .filter(|_| tracing)
            .map(|c| c.key.fingerprint());
        if let Some(fp) = &fingerprint {
            self.report(|o| o.trace(&TraceEvent::SubtypeStart { key: fp }));
        }
        (
            Span {
                started,
                fingerprint,
            },
            canon.filter(|_| tabled),
        )
    }

    /// Records the `subtype_prove` timer and the `subtype.end` event.
    fn close(&self, span: Span, verdict: &'static str) {
        let elapsed = span.started.elapsed();
        self.report(|o| {
            o.observe(Timer::SubtypeProve, elapsed);
            if let Some(fp) = &span.fingerprint {
                o.trace(&TraceEvent::SubtypeEnd {
                    key: fp,
                    verdict,
                    nanos: elapsed.as_nanos() as u64,
                });
            }
        });
    }

    /// The table step shared by every entry point: serve `canon`'s cached
    /// verdict, or derive it live and record it. Returns the proof and its
    /// derivation chain (empty unless proved). `canon` is `None` exactly
    /// when untabled.
    fn decide(
        &self,
        canon: Option<Canonical>,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> (Proof, Arc<Vec<Step>>) {
        let generation = self.cs.generation();
        if let Some(canon) = &canon {
            match self.table.lookup(generation, &canon.key) {
                Some(CachedVerdict::Proved(answer, steps)) => {
                    return (Proof::Proved(canon.decode_answer(&answer)), steps)
                }
                Some(CachedVerdict::Refuted) => return (Proof::Refuted, Arc::default()),
                None => {}
            }
        }
        let (proof, steps) = self
            .prover
            .subtype_all_rigid_traced(goals, rigid, var_watermark);
        let steps = Arc::new(steps);
        if let Some(canon) = canon {
            let cached = match &proof {
                Proof::Proved(answer) => canon
                    .encode_answer(answer)
                    .map(|a| CachedVerdict::Proved(a, steps.clone())),
                Proof::Refuted => Some(CachedVerdict::Refuted),
                Proof::Unknown => None,
            };
            if let Some(verdict) = cached {
                self.table.insert(generation, canon.key, verdict);
            }
        }
        (proof, steps)
    }

    /// Greedy core shrinking for a refuted conjunction, deciding every
    /// candidate sub-conjunction through [`Self::subtype_all_rigid_quiet`].
    fn shrink_refuted(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Vec<usize> {
        let core = witness::shrink_core(goals, |subset| {
            self.subtype_all_rigid_quiet(subset, rigid, var_watermark)
                .is_refuted()
        });
        self.report(|o| o.add(Counter::RefutedCoreSize, core.len() as u64));
        core
    }

    /// The tabled judgement with *no* query instrumentation: no
    /// `subtype_goals` tick, no timer, no span events. The table's own
    /// hit/miss/insert counters still move — those are excluded from
    /// scheduling invariance anyway — so core shrinking can lean on the memo
    /// table without making `subtype_goals` depend on how many Refuted
    /// verdicts were witnessed.
    pub(crate) fn subtype_all_rigid_quiet(
        &self,
        goals: &[(Term, Term)],
        rigid: &BTreeSet<Var>,
        var_watermark: u32,
    ) -> Proof {
        // Quiet means quiet: the closure short-circuit skips even its own
        // counters here, so shrink traffic never moves `closure_hits`.
        match self.cs.ground_closure().decide_goals(goals) {
            ClosureVerdict::Proved => return Proof::Proved(Subst::new()),
            ClosureVerdict::Refuted => return Proof::Refuted,
            ClosureVerdict::Miss | ClosureVerdict::NotGround => {}
        }
        let canon = (!matches!(self.table, TableHandle::Untabled))
            .then(|| Canonical::of(goals, rigid, var_watermark));
        self.decide(canon, goals, rigid, var_watermark).0
    }

    /// Decides a batch of *independent* subtype goals (no shared
    /// substitution), returning one verdict per goal in input order.
    ///
    /// Goals are proved in canonical-key order, so alpha-variant duplicates
    /// are adjacent and every repeat after the first is a table hit — a batch
    /// with heavy duplication costs one derivation per distinct judgement
    /// regardless of input order.
    pub fn subtype_batch(&self, goals: &[(Term, Term)]) -> Vec<Proof> {
        let no_rigid = BTreeSet::new();
        let closure = self.cs.ground_closure();
        // Closure-decidable goals are answered directly (inside `subtype`,
        // which short-circuits before building any key); only the remainder
        // pays for canonical keys and the duplicate-adjacency sort.
        let mut out: Vec<Option<Proof>> = vec![None; goals.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, g) in goals.iter().enumerate() {
            match closure.decide_goals(std::slice::from_ref(g)) {
                ClosureVerdict::Proved | ClosureVerdict::Refuted => {
                    out[i] = Some(self.subtype(&g.0, &g.1));
                }
                ClosureVerdict::Miss | ClosureVerdict::NotGround => open.push(i),
            }
        }
        let keys: Vec<TableKey> = open
            .iter()
            .map(|&i| Canonical::of(std::slice::from_ref(&goals[i]), &no_rigid, 0).key)
            .collect();
        let mut by_key: Vec<usize> = (0..open.len()).collect();
        by_key.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        for k in by_key {
            let i = open[k];
            let (sup, sub) = &goals[i];
            out[i] = Some(self.subtype(sup, sub));
        }
        out.into_iter()
            .map(|p| p.expect("every goal index was visited"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::tests::world;

    /// Counts distinct entries the slow way, for cross-checking.
    fn table_len(t: &RefCell<ProofTable>) -> usize {
        t.borrow().len()
    }

    #[test]
    fn alpha_variant_queries_share_one_entry() {
        let mut w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let (a, b) = (w.gen.fresh(), w.gen.fresh());
        let (x, y) = (w.gen.fresh(), w.gen.fresh());
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let nelist_b = Term::app(w.nelist, vec![Term::Var(b)]);
        let list_x = Term::app(w.list, vec![Term::Var(x)]);
        let nelist_y = Term::app(w.nelist, vec![Term::Var(y)]);
        assert!(p.subtype(&list_a, &nelist_b).is_proved());
        assert!(p.subtype(&list_x, &nelist_y).is_proved());
        let stats = table.borrow().stats();
        assert_eq!(stats.misses, 1, "first query misses");
        assert_eq!(stats.hits, 1, "alpha-variant repeat hits");
        assert_eq!(table_len(&table), 1, "one shared entry");
    }

    #[test]
    fn hit_answers_bind_the_callers_own_variables() {
        let mut w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let item = w.num(2);
        let a = w.gen.fresh();
        let first = p.member(
            &Term::app(w.list, vec![Term::Var(a)]),
            &w.list_of(std::slice::from_ref(&item)),
        );
        let b = w.gen.fresh();
        let second = p.member(
            &Term::app(w.list, vec![Term::Var(b)]),
            &w.list_of(std::slice::from_ref(&item)),
        );
        assert_eq!(table.borrow().stats().hits, 1);
        // The translated answer must speak about b, not a, and witness the
        // same membership.
        let answer = second.answer().expect("proved");
        let witness = answer.resolve(&Term::Var(b));
        assert!(!witness.is_var(), "b is bound by the translated answer");
        assert!(p.prover().member(&witness, &item).is_proved());
        let _ = first;
    }

    #[test]
    fn distinct_goals_do_not_collide() {
        // Ground goals whose supertype is outside the nullary-reachable node
        // set (`list(int)` etc.) — closure misses, so they exercise the
        // table layer. Nullary ground goals would short-circuit before it.
        let w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert!(p.subtype(&list_nat, &elist).is_proved());
        let stats = table.borrow().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(table_len(&table), 3);
        // Repeats of each now hit, with unchanged verdicts.
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert_eq!(table.borrow().stats().hits, 1);
    }

    #[test]
    fn rigidity_is_part_of_the_key() {
        // The same goal with a rigid vs flexible variable has different
        // verdicts — int >= W is provable for flexible W (W := nat) but not
        // for rigid W — so the two must occupy different entries.
        let mut w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let v = w.gen.fresh();
        let goal = [(Term::constant(w.int), Term::Var(v))];
        let flexible = p.subtype_all_rigid(&goal, &BTreeSet::new(), w.gen.watermark());
        let rigid: BTreeSet<Var> = [v].into_iter().collect();
        let inert = p.subtype_all_rigid(&goal, &rigid, w.gen.watermark());
        assert!(flexible.is_proved());
        assert!(inert.is_refuted());
        assert_eq!(table.borrow().stats().hits, 0);
        assert_eq!(table_len(&table), 2);
    }

    #[test]
    fn unknown_is_never_cached() {
        let mut w = world();
        let table = RefCell::new(ProofTable::new());
        let config = ProverConfig {
            var_expansion_budget: 0,
            ..ProverConfig::default()
        };
        let p = TabledProver::with_config(&w.sig, &w.cs, config, &table);
        let a = w.gen.fresh();
        let ty = Term::app(w.list, vec![Term::Var(a)]);
        let t = w.list_of(&[w.num(0), w.num(-1)]);
        assert!(p.member(&ty, &t).is_unknown());
        assert!(p.member(&ty, &t).is_unknown());
        let stats = table.borrow().stats();
        assert_eq!(stats.misses, 2, "both calls fall through");
        assert_eq!(stats.inserts, 0, "Unknown never stored");
        assert!(table_len(&table) == 0);
    }

    #[test]
    fn fifo_eviction_under_tiny_capacity() {
        let w = world();
        let table = RefCell::new(ProofTable::with_capacity(2));
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let g1 = Term::app(w.list, vec![Term::constant(w.int)]);
        let g2 = Term::app(w.list, vec![Term::constant(w.nat)]);
        let g3 = Term::app(w.list, vec![Term::constant(w.unnat)]);
        // Three distinct judgements (all closure misses) into a 2-entry table.
        p.subtype(&g1, &elist); // entry 1
        p.subtype(&g2, &elist); // entry 2
        p.subtype(&g3, &elist); // entry 3, evicts entry 1
        let stats = table.borrow().stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(table_len(&table), 2);
        // Entry 1 was evicted: re-asking misses; entry 3 still hits.
        p.subtype(&g1, &elist);
        assert_eq!(table.borrow().stats().hits, 0);
        p.subtype(&g3, &elist);
        assert_eq!(table.borrow().stats().hits, 1);
    }

    /// Builds a distinct canonical key without running the prover, so the
    /// eviction tests can drive `insert` directly.
    fn key_of(sup: lp_term::Sym, sub: lp_term::Sym) -> TableKey {
        Canonical::of(
            &[(Term::constant(sup), Term::constant(sub))],
            &BTreeSet::new(),
            0,
        )
        .key
    }

    /// Regression test for the eviction double-count: re-inserting a key
    /// that is already cached must not push a second copy onto the FIFO
    /// order queue. With the duplicate push, the queue grows past the entry
    /// map, a later insert pops a stale slot (charging `evictions` for a key
    /// that is already gone), and — since each insert evicts at most one
    /// queue slot — the table overshoots its capacity bound.
    #[test]
    fn reinsert_under_capacity_pressure_does_not_double_count() {
        let w = world();
        let mut table = ProofTable::with_capacity(2);
        let a = key_of(w.int, w.nat);
        let b = key_of(w.int, w.unnat);
        let c = key_of(w.nat, w.unnat);
        let d = key_of(w.nat, w.int);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);

        table.insert(0, a.clone(), CachedVerdict::Refuted);
        // Overwrite: same key again, now with an answer. Must not enqueue a
        // second FIFO slot for `a`.
        table.insert(
            0,
            a.clone(),
            CachedVerdict::Proved(Subst::new(), Arc::new(Vec::new())),
        );
        assert_eq!(table.len(), 1, "re-insert did not add an entry");
        assert!(
            matches!(table.lookup(&a), Some(CachedVerdict::Proved(..))),
            "re-insert updated the verdict in place"
        );

        table.insert(0, b.clone(), CachedVerdict::Refuted); // fills the table
        table.insert(0, c.clone(), CachedVerdict::Refuted); // evicts a (oldest)
        table.insert(0, d.clone(), CachedVerdict::Refuted); // evicts b

        let stats = table.stats();
        assert!(
            table.len() <= table.capacity(),
            "capacity bound violated: {} entries in a {}-entry table",
            table.len(),
            table.capacity()
        );
        assert_eq!(stats.evictions, 2, "exactly one eviction per overflow");
        assert_eq!(stats.inserts, 4, "four distinct keys stored");
        // FIFO order survived the overwrite: the live entries are the two
        // most recent keys, and the overwritten key really is gone.
        assert!(table.lookup(&c).is_some(), "c is live");
        assert!(table.lookup(&d).is_some(), "d is live");
        assert!(table.lookup(&a).is_none(), "a was evicted first");
        assert!(table.lookup(&b).is_none(), "b was evicted second");
    }

    /// The FIFO bug fixed in this PR: an in-place verdict update used to
    /// leave the key at its original queue position, so a hot, just-re-proved
    /// entry could be evicted as if it were the coldest one. Updates now move
    /// the key to the queue tail.
    #[test]
    fn in_place_update_moves_key_to_fifo_tail() {
        let w = world();
        let mut table = ProofTable::with_capacity(2);
        let a = key_of(w.int, w.nat);
        let b = key_of(w.int, w.unnat);
        let c = key_of(w.nat, w.unnat);
        table.insert(0, a.clone(), CachedVerdict::Refuted);
        table.insert(0, b.clone(), CachedVerdict::Refuted);
        // Re-prove `a`: it is now the hottest entry, leaving `b` the oldest.
        table.insert(
            0,
            a.clone(),
            CachedVerdict::Proved(Subst::new(), Arc::new(Vec::new())),
        );
        assert_eq!(table.len(), 2, "in-place update added no entry");
        // Overflow must evict `b`, not the just-updated `a`.
        table.insert(0, c.clone(), CachedVerdict::Refuted);
        let stats = table.stats();
        assert_eq!(table.len(), 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.inserts, 3, "an in-place update is not an insert");
        assert!(table.lookup(&a).is_some(), "hot re-proved key survives");
        assert!(table.lookup(&c).is_some(), "new key is live");
        assert!(table.lookup(&b).is_none(), "the cold key was evicted");
    }

    /// A verdict derived under one generation must not land in the table
    /// after it moved to another: on a shared table, a worker proving under
    /// g1 can lose the race to a g2 lookup between its miss and its insert.
    #[test]
    fn stale_generation_insert_is_dropped() {
        let w = world();
        let mut table = ProofTable::new();
        let key = key_of(w.int, w.nat);
        let (g1, g2) = (7, 8);
        table.ensure_generation(g1);
        assert!(table.lookup(&key).is_none(), "g1 lookup misses");
        table.ensure_generation(g2);
        table.insert(
            g1,
            key.clone(),
            CachedVerdict::Proved(Subst::new(), Arc::default()),
        );
        table.ensure_generation(g2);
        assert!(table.lookup(&key).is_none(), "the g1 verdict was dropped");
        assert_eq!(table.len(), 0);
        assert_eq!(table.stats().inserts, 0);
    }

    /// Fully ground goals over the nullary fragment are answered by the
    /// precomputed closure: no canonical key is built, and the table is
    /// never consulted.
    #[test]
    fn ground_goals_short_circuit_through_the_closure() {
        let w = world();
        let obs = MetricsRegistry::shared();
        let table = RefCell::new(ProofTable::with_metrics(Arc::clone(&obs)));
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        assert!(p
            .subtype(&Term::constant(w.int), &Term::constant(w.nat))
            .is_proved());
        assert!(p
            .subtype(&Term::constant(w.nat), &Term::constant(w.int))
            .is_refuted());
        assert!(p
            .subtype(&Term::constant(w.elist), &Term::constant(w.elist))
            .is_proved());
        assert_eq!(obs.get(Counter::ClosureHits), 3);
        assert_eq!(obs.get(Counter::ClosureMisses), 0);
        assert_eq!(obs.get(Counter::ArenaTerms), 0, "no keys were encoded");
        let stats = table.borrow().stats();
        assert_eq!(stats.hits + stats.misses, 0, "table never consulted");
        assert_eq!(table_len(&table), 0);
        // A ground goal outside the node set still takes the table path.
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &Term::constant(w.elist)).is_proved());
        assert_eq!(obs.get(Counter::ClosureMisses), 1);
        assert_eq!(table.borrow().stats().misses, 1);
        assert_eq!(obs.get(Counter::ArenaTerms), 2, "one goal, two terms");
    }

    #[test]
    fn counter_accuracy_over_a_mixed_run() {
        let w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        for _ in 0..5 {
            assert!(p.subtype(&list_int, &elist).is_proved());
        }
        for _ in 0..3 {
            assert!(p.subtype(&nelist_int, &elist).is_refuted());
        }
        let stats = table.borrow().stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn generation_mismatch_invalidates_wholesale() {
        let w1 = world();
        let w2 = world(); // identical constraints, different generation
        assert_ne!(w1.cs.generation(), w2.cs.generation());
        let table = RefCell::new(ProofTable::new());
        let sup1 = Term::app(w1.list, vec![Term::constant(w1.int)]);
        let sub1 = Term::constant(w1.elist);
        {
            let p = TabledProver::new(&w1.sig, &w1.cs, &table);
            p.subtype(&sup1, &sub1);
            p.subtype(&sup1, &sub1);
            assert_eq!(table.borrow().stats().hits, 1);
        }
        {
            // Switching worlds clears the table: the same-looking query
            // misses again instead of reusing w1's verdict.
            let p = TabledProver::new(&w2.sig, &w2.cs, &table);
            let sup2 = Term::app(w2.list, vec![Term::constant(w2.int)]);
            p.subtype(&sup2, &Term::constant(w2.elist));
            let stats = table.borrow().stats();
            assert_eq!(stats.hits, 1, "no new hit across worlds");
            assert_eq!(stats.invalidations, 1);
            assert_eq!(table.borrow().generation(), w2.cs.generation());
        }
    }

    #[test]
    fn batch_sorts_duplicates_into_hits() {
        let w = world();
        let table = RefCell::new(ProofTable::new());
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        // Interleaved duplicates, deliberately out of order; all three are
        // closure misses so every judgement goes through the table.
        let goals = vec![
            (list_int.clone(), elist.clone()),
            (nelist_int.clone(), elist.clone()),
            (list_int.clone(), elist.clone()),
            (list_nat.clone(), elist.clone()),
            (nelist_int.clone(), elist.clone()),
            (list_int.clone(), elist.clone()),
        ];
        let proofs = p.subtype_batch(&goals);
        assert_eq!(proofs.len(), goals.len());
        assert!(proofs[0].is_proved());
        assert!(proofs[1].is_refuted());
        assert!(proofs[2].is_proved());
        assert!(proofs[3].is_proved());
        assert!(proofs[4].is_refuted());
        assert!(proofs[5].is_proved());
        let stats = table.borrow().stats();
        assert_eq!(stats.misses, 3, "three distinct judgements");
        assert_eq!(stats.hits, 3, "every duplicate hits");
    }

    #[test]
    fn tabled_and_untabled_agree_on_the_paper_world() {
        let mut w = world();
        let table = RefCell::new(ProofTable::new());
        let tabled = TabledProver::new(&w.sig, &w.cs, &table);
        let untabled = Prover::new(&w.sig, &w.cs);
        let a = w.gen.fresh();
        let cases = vec![
            (Term::constant(w.int), Term::constant(w.nat)),
            (Term::constant(w.nat), Term::constant(w.int)),
            (
                Term::app(w.list, vec![Term::constant(w.int)]),
                Term::constant(w.elist),
            ),
            (
                Term::app(w.list, vec![Term::Var(a)]),
                w.list_of(&[w.num(1)]),
            ),
            (Term::constant(w.nat), w.num(3)),
            (Term::constant(w.nat), w.num(-3)),
        ];
        // Two passes: the second is served from the table.
        for _ in 0..2 {
            for (sup, sub) in &cases {
                let t = tabled.subtype(sup, sub);
                let u = untabled.subtype(sup, sub);
                assert_eq!(
                    std::mem::discriminant(&t),
                    std::mem::discriminant(&u),
                    "verdicts diverge on {sup:?} >= {sub:?}: {t:?} vs {u:?}"
                );
            }
        }
    }
}
