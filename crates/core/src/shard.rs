//! The proof table shared by worker threads: one [`ProofTable`] behind one
//! mutex.
//!
//! Clause-parallel checking and `slp serve` need many workers sharing one
//! memo space. [`ShardedProofTable`] is that space: the same bounded,
//! generation-invalidated FIFO map the serial checker uses, guarded by a
//! single [`Mutex`]. (The name survives from the striped and lock-free
//! designs it replaces; there is one shard.) A [`TabledProver`] over
//! [`TableHandle::Shared`](crate::TableHandle::Shared) holds the lock only
//! for a hash probe or a write, never during a live proof search:
//!
//! * a lookup or insert first tries the lock; when another worker holds it
//!   the wait is counted — [`Counter::TableReadRetries`] for a lookup,
//!   [`Counter::ShardContention`] for an insert — and traced as
//!   [`TraceEvent::ShardContention`], then the worker blocks;
//! * a verdict is inserted under the generation it was derived under and
//!   dropped if another theory moved the table in between (see
//!   [`ProofTable::insert`]), so workers on different theories can share
//!   one table without leaking verdicts across them;
//! * all accounting lands in the table's [`MetricsRegistry`], which lives
//!   outside the mutex, so [`ShardedProofTable::stats`] never takes the
//!   lock;
//! * a panic that unwinds while a guard is held poisons the mutex; the next
//!   access recovers: it clears the cache, counts one
//!   [`Counter::TableInvalidations`], traces
//!   [`TraceEvent::ShardPoisonRecovered`], and callers re-derive on the
//!   resulting misses.
//!
//! The serial-output guarantee still holds: scheduling can move work
//! between hit and miss, never change a verdict.
//!
//! [`TabledProver`]: crate::TabledProver

use std::sync::{Arc, LockResult, Mutex, MutexGuard, TryLockError};

use lp_term::Signature;

use crate::constraint::SubtypeConstraint;
use crate::obs::{Counter, MetricsRegistry, TraceEvent};
use crate::table::{ProofTable, TableStats, DEFAULT_TABLE_CAPACITY};

/// A bounded, generation-invalidated proof table shared across threads:
/// one [`ProofTable`] behind one mutex. See the module docs for the
/// concurrency contract.
#[derive(Debug)]
pub struct ShardedProofTable {
    table: Mutex<ProofTable>,
    /// The registry the table reports into, reachable without the lock.
    obs: Arc<MetricsRegistry>,
}

impl Default for ShardedProofTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedProofTable {
    /// An empty table with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TABLE_CAPACITY)
    }

    /// A default-sized table reporting into a caller-supplied registry.
    pub fn with_metrics(obs: Arc<MetricsRegistry>) -> Self {
        Self::with_capacity_and_metrics(DEFAULT_TABLE_CAPACITY, obs)
    }

    /// An empty table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_metrics(capacity, MetricsRegistry::shared())
    }

    /// Explicit capacity *and* registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn with_capacity_and_metrics(capacity: usize, obs: Arc<MetricsRegistry>) -> Self {
        ShardedProofTable {
            table: Mutex::new(ProofTable::with_capacity_and_metrics(capacity, obs.clone())),
            obs,
        }
    }

    /// The shared metrics registry the table reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters — a read of the registry's atomics that takes no
    /// lock, so a stats poll never serializes against working threads.
    /// Concurrent writers may land between the individual counter loads;
    /// once the workers have joined it is exact.
    pub fn stats(&self) -> TableStats {
        TableStats::from_registry(&self.obs)
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Per-constraint incremental invalidation: moves the table to the new
    /// `generation`, keeping the entries whose evidence survives the theory
    /// change (see [`ProofTable::rescope`] for the soundness conditions on
    /// `constraint_unchanged` / `keep_refuted` and the signature-prefix
    /// precondition; `slp serve` computes them by diffing the old and new
    /// constraint lists on each file delta). Returns the number of retained
    /// entries.
    pub fn rescope(
        &self,
        generation: u64,
        constraint_unchanged: &dyn Fn(usize) -> bool,
        keep_refuted: bool,
    ) -> u64 {
        self.lock()
            .rescope(generation, constraint_unchanged, keep_refuted)
    }

    /// Audits every entry through [`ProofTable::validate_witnesses`]:
    /// replays each cached `Proved` chain — no prover — returning
    /// `(validated, invalid)`. Run after the workers have joined for an
    /// exact sweep.
    pub fn validate_witnesses(
        &self,
        sig: &Signature,
        constraints: &[SubtypeConstraint],
    ) -> (u64, u64) {
        self.lock().validate_witnesses(sig, constraints)
    }

    /// Takes the lock, recovering from poison first.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ProofTable> {
        self.recover(self.table.lock())
    }

    /// [`Self::lock`], charging `contended` when another thread holds the
    /// lock and this one has to wait.
    pub(crate) fn lock_counting(&self, contended: Counter) -> MutexGuard<'_, ProofTable> {
        match self.table.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => self.recover(Err(poisoned)),
            Err(TryLockError::WouldBlock) => {
                self.obs.incr(contended);
                self.obs.trace(&TraceEvent::ShardContention { shard: 0 });
                self.lock()
            }
        }
    }

    /// A panic unwound while a guard was held, so the entries are not
    /// trusted: clear them, count the invalidation and lift the poison.
    fn recover<'g>(
        &self,
        locked: LockResult<MutexGuard<'g, ProofTable>>,
    ) -> MutexGuard<'g, ProofTable> {
        locked.unwrap_or_else(|poisoned| {
            let mut table = poisoned.into_inner();
            self.table.clear_poison();
            table.clear();
            self.obs.incr(Counter::TableInvalidations);
            self.obs
                .trace(&TraceEvent::ShardPoisonRecovered { shard: 0 });
            table
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    use lp_term::Term;

    use super::*;
    use crate::prover::tests::world;
    use crate::prover::Prover;
    use crate::table::{CachedVerdict, Canonical, TableHandle};
    use crate::TabledProver;

    /// Spins until `done` holds, failing the test after five seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn alpha_variant_queries_share_one_entry_across_threads() {
        let mut w = world();
        let table = ShardedProofTable::new();
        let (a, b) = (w.gen.fresh(), w.gen.fresh());
        let list_a = Term::app(w.list, vec![Term::Var(a)]);
        let nelist_b = Term::app(w.nelist, vec![Term::Var(b)]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let p = TabledProver::new(&w.sig, &w.cs, &table);
                    assert!(p.subtype(&list_a, &nelist_b).is_proved());
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 4, "every call counted");
        assert!(stats.hits >= 1, "repeats hit: {stats:?}");
        assert_eq!(table.len(), 1, "one shared entry across all threads");
    }

    #[test]
    fn distinct_goals_spread_without_collisions() {
        // Parameterized supertypes sit outside the nullary ground closure,
        // so these goals genuinely exercise the table (fully nullary goals
        // short-circuit before any lock).
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert!(p.subtype(&list_nat, &elist).is_proved());
        assert_eq!(table.len(), 3);
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert_eq!(table.stats().hits, 1);
    }

    #[test]
    fn generation_mismatch_invalidates_every_touched_shard() {
        let w1 = world();
        let w2 = world();
        assert_ne!(w1.cs.generation(), w2.cs.generation());
        let table = ShardedProofTable::with_capacity(64);
        let goals_of = |w: &crate::prover::tests::World| {
            vec![
                (
                    Term::app(w.list, vec![Term::constant(w.int)]),
                    Term::constant(w.elist),
                ),
                (
                    Term::app(w.list, vec![Term::constant(w.nat)]),
                    Term::constant(w.elist),
                ),
                (
                    Term::app(w.nelist, vec![Term::constant(w.int)]),
                    Term::constant(w.elist),
                ),
            ]
        };
        {
            let p = TabledProver::new(&w1.sig, &w1.cs, &table);
            for (sup, sub) in goals_of(&w1) {
                p.subtype(&sup, &sub);
            }
            assert_eq!(table.len(), 3);
        }
        {
            // The same-looking queries under the new theory must all miss.
            let p = TabledProver::new(&w2.sig, &w2.cs, &table);
            let goals = goals_of(&w2);
            assert!(p.subtype(&goals[0].0, &goals[0].1).is_proved());
            assert!(p.subtype(&goals[1].0, &goals[1].1).is_proved());
            assert!(p.subtype(&goals[2].0, &goals[2].1).is_refuted());
            let stats = table.stats();
            assert_eq!(stats.hits, 0, "no stale verdict served: {stats:?}");
            assert!(stats.invalidations >= 1);
        }
    }

    #[test]
    fn per_shard_capacity_bounds_the_total() {
        let w = world();
        let table = ShardedProofTable::with_capacity(2);
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elems = [w.int, w.nat, w.unnat, w.elist];
        let subs = [Term::constant(w.elist), Term::constant(w.nil)];
        for elem in elems {
            let sup = Term::app(w.list, vec![Term::constant(elem)]);
            for sub in &subs {
                p.subtype(&sup, sub);
            }
        }
        assert!(
            table.len() <= table.capacity(),
            "{} entries in a {}-entry table",
            table.len(),
            table.capacity()
        );
        assert!(table.stats().evictions > 0, "tiny table evicted");
    }

    #[test]
    fn sharded_and_untabled_agree_on_the_paper_world() {
        let mut w = world();
        let table = ShardedProofTable::new();
        let sharded = TabledProver::new(&w.sig, &w.cs, &table);
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
                let t = sharded.subtype(sup, sub);
                let u = untabled.subtype(sup, sub);
                assert_eq!(
                    std::mem::discriminant(&t),
                    std::mem::discriminant(&u),
                    "verdicts diverge on {sup:?} >= {sub:?}: {t:?} vs {u:?}"
                );
            }
        }
    }

    /// `stats()` reads counters only, so it must complete while another
    /// thread holds the table's lock.
    #[test]
    fn stats_reads_take_no_shard_locks() {
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let elist = Term::constant(w.elist);
        p.subtype(&list_int, &elist);
        let before = table.stats();
        assert_eq!(before.misses, 1);

        // Hold the lock, then read stats from another thread; a stats()
        // that locked would block and the recv below would time out.
        let guard = table.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                tx.send(table.stats()).expect("receiver alive");
            });
            let polled = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("stats() completed without taking the lock");
            assert_eq!(polled, before);
        });
        drop(guard);
    }

    /// A lookup or insert that finds the lock held by another thread counts
    /// the wait (read retry for a lookup, contention for an insert), then
    /// blocks and completes correctly once the lock is released.
    #[test]
    fn contended_locks_are_counted() {
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let elist = Term::constant(w.elist);
        TabledProver::new(&w.sig, &w.cs, &table).subtype(&list_int, &elist);
        let obs = table.metrics();
        assert_eq!(obs.get(Counter::ShardContention), 0);
        assert_eq!(obs.get(Counter::TableReadRetries), 0);
        std::thread::scope(|scope| {
            let guard = table.lock();
            let worker =
                scope.spawn(|| TabledProver::new(&w.sig, &w.cs, &table).subtype(&list_int, &elist));
            wait_until(|| obs.get(Counter::TableReadRetries) > 0);
            drop(guard);
            let verdict = worker.join().expect("worker finished");
            assert!(verdict.is_proved(), "a held lock still answers correctly");
        });
        let key = Canonical::of(&[(elist.clone(), list_int)], &BTreeSet::new(), 0).key;
        let generation = w.cs.generation();
        std::thread::scope(|scope| {
            let guard = table.lock();
            let worker = scope.spawn(|| {
                TableHandle::Shared(&table).insert(generation, key.clone(), CachedVerdict::Refuted);
            });
            wait_until(|| obs.get(Counter::ShardContention) > 0);
            drop(guard);
            worker.join().expect("worker finished");
        });
        assert_eq!(
            TableHandle::Shared(&table).lookup(generation, &key),
            Some(CachedVerdict::Refuted),
            "the blocked insert landed"
        );
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_checking() {
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert_eq!(table.len(), 1, "warm entry before the fault");
        // A panic unwinds while holding the guard: the mutex is poisoned
        // and the cache state is no longer trusted.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = table.lock();
            panic!("injected panic under the table lock");
        }));
        assert!(panicked.is_err());
        assert!(table.table.is_poisoned());
        let invalidations_before = table.metrics().get(Counter::TableInvalidations);
        // Every later access must recover (clear + lift the poison), not
        // panic or error forever, and verdicts must come back correct.
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        assert!(
            table.metrics().get(Counter::TableInvalidations) > invalidations_before,
            "recovery is counted as an invalidation"
        );
        assert!(!table.table.is_poisoned(), "the poison was lifted");
        assert_eq!(table.len(), 2, "table rebuilt after poison recovery");
    }

    #[test]
    fn rescope_retains_across_shards() {
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let elist = Term::constant(w.elist);
        let list_int = Term::app(w.list, vec![Term::constant(w.int)]);
        let list_nat = Term::app(w.list, vec![Term::constant(w.nat)]);
        let nelist_int = Term::app(w.nelist, vec![Term::constant(w.int)]);
        assert!(p.subtype(&list_int, &elist).is_proved());
        assert!(p.subtype(&list_nat, &elist).is_proved());
        assert!(p.subtype(&nelist_int, &elist).is_refuted());
        let entries = table.len();
        assert_eq!(entries, 3);
        // Extend the theory with one (redundant) constraint: a pure
        // addition, so every old index is unchanged — proofs must stay,
        // the refutation must go.
        let mut set2 = w.cs.as_set().clone();
        set2.add(&w.sig, Term::constant(w.int), Term::constant(w.nat))
            .unwrap();
        let cs2 = set2.checked(&w.sig).unwrap();
        let kept = table.rescope(cs2.generation(), &|_| true, false);
        assert_eq!(
            kept, 2,
            "both proved entries survive, the refuted one is dropped"
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.metrics().get(Counter::IncrementalReuse), 2);
        // The survivors are served as hits under the new theory.
        let misses = table.stats().misses;
        let p2 = TabledProver::new(&w.sig, &cs2, &table);
        assert!(p2.subtype(&list_int, &elist).is_proved());
        assert_eq!(table.stats().misses, misses, "retained entry hits");
    }

    #[test]
    fn concurrent_mixed_workload_stays_consistent() {
        let w = world();
        let table = ShardedProofTable::with_capacity(128);
        let syms = [w.int, w.nat, w.unnat, w.elist];
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let table = &table;
                let w = &w;
                scope.spawn(move || {
                    let p = TabledProver::new(&w.sig, &w.cs, table);
                    // Each worker walks the judgement square from a
                    // different offset, so workers race on the same keys.
                    // `list(..)` supertypes keep every goal on the table
                    // path (outside the nullary ground closure).
                    for step in 0..32usize {
                        let sup =
                            Term::app(w.list, vec![Term::constant(syms[(t + step) % syms.len()])]);
                        let sub = Term::constant(syms[step % syms.len()]);
                        let proof = p.subtype(&sup, &sub);
                        let expected = Prover::new(&w.sig, &w.cs).subtype(&sup, &sub);
                        assert_eq!(
                            std::mem::discriminant(&proof),
                            std::mem::discriminant(&expected),
                        );
                    }
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 32, "every call counted");
        assert!(table.len() <= table.capacity());
    }

    /// An all-ground nullary batch is decided entirely by the precomputed
    /// closure — no canonical keys, no lock, no table traffic, and
    /// therefore zero contention even under threads.
    #[test]
    fn all_ground_batch_never_touches_a_shard() {
        let w = world();
        let table = ShardedProofTable::new();
        let p = TabledProver::new(&w.sig, &w.cs, &table);
        let goals: Vec<(Term, Term)> = vec![
            (Term::constant(w.int), Term::constant(w.nat)),
            (Term::constant(w.nat), Term::constant(w.int)),
            (Term::constant(w.int), Term::constant(w.unnat)),
            (Term::constant(w.elist), Term::constant(w.nil)),
            (Term::constant(w.nat), w.num(2)),
        ];
        let proofs = p.subtype_batch(&goals);
        assert!(proofs[0].is_proved());
        assert!(proofs[1].is_refuted());
        assert!(proofs[2].is_proved());
        assert!(proofs[3].is_proved());
        assert!(proofs[4].is_proved());
        let obs = table.metrics();
        assert_eq!(obs.get(Counter::ClosureHits), goals.len() as u64);
        assert_eq!(obs.get(Counter::ClosureMisses), 0);
        assert_eq!(obs.get(Counter::ArenaTerms), 0, "no keys were encoded");
        let stats = table.stats();
        assert_eq!(stats.hits + stats.misses, 0, "the table was not consulted");
        assert_eq!(stats.inserts, 0);
        assert_eq!(table.len(), 0);
        assert_eq!(obs.get(Counter::ShardContention), 0);

        // Threaded: no worker takes the lock, so contention stays exactly
        // zero no matter how the scheduler interleaves them.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let table = &table;
                let w = &w;
                let goals = &goals;
                scope.spawn(move || {
                    let p = TabledProver::new(&w.sig, &w.cs, table);
                    for (sup, sub) in goals {
                        assert!(!p.subtype(sup, sub).is_unknown());
                    }
                });
            }
        });
        assert_eq!(obs.get(Counter::ShardContention), 0, "no lock taken");
        assert_eq!(table.len(), 0, "still no entries after threaded run");
        assert_eq!(obs.get(Counter::ClosureHits), 5 * goals.len() as u64);
    }

    /// Entries live under the generation they were stored under: a lookup
    /// under another generation misses and clears them.
    #[test]
    fn store_round_trips_under_epochs() {
        let w = world();
        let table = ShardedProofTable::with_capacity(64);
        let handle = TableHandle::Shared(&table);
        let key = Canonical::of(
            &[(
                Term::app(w.list, vec![Term::Var(lp_term::Var(3))]),
                Term::constant(w.elist),
            )],
            &BTreeSet::new(),
            0,
        )
        .key;
        assert!(handle.lookup(7, &key).is_none());
        handle.insert(7, key.clone(), CachedVerdict::Refuted);
        assert_eq!(handle.lookup(7, &key), Some(CachedVerdict::Refuted));
        assert_eq!(table.len(), 1);
        // A different generation kills the entry.
        assert!(handle.lookup(8, &key).is_none());
        assert_eq!(table.len(), 0);
        assert!(table.metrics().get(Counter::TableInvalidations) >= 1);
    }
}
