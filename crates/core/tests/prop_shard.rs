//! Differential property tests locking [`TabledProver`] over a shared
//! [`ShardedProofTable`] to [`Prover`] and to the same prover over a
//! `RefCell` table.
//!
//! The shared table is the single [`ProofTable`] behind one mutex: same
//! canonical keys, same generation invalidation, reachable from many
//! threads. These tests assert it is *observationally identical* — exact
//! [`Proof`] equality, answers included — to both the untabled prover and
//! the `RefCell`-backed tabled prover, on miss passes, hit passes, and
//! under genuinely concurrent access from several threads.
//!
//! Strategy mirrors `prop_table.rs`: proptest supplies seeds; worlds and
//! goals come from the deterministic `lp-gen` generators, so every failure
//! reproduces from the seed alone.

use std::cell::RefCell;
use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lp_gen::{terms, worlds};
use lp_term::{Signature, SymKind, Term, Var};
use subtype_core::{
    ConstraintSet, Counter, Proof, ProofTable, Prover, ProverConfig, ShardedProofTable,
    TabledProver,
};

/// Same tight search budget as `prop_table.rs` — both provers run the same
/// deterministic search, so budget cuts ([`Proof::Unknown`]) must line up
/// exactly too.
const CONFIG: ProverConfig = ProverConfig {
    var_expansion_budget: 4,
    max_steps: 10_000,
};

/// Draws `n` (sup, sub) goal pairs over `world`, alternating closed and
/// open goals (open goals exercise answer encoding/decoding through the
/// canonical key space shared by every thread).
fn goal_pairs(
    rng: &mut StdRng,
    world: &worlds::BuiltWorld,
    n: usize,
) -> (Vec<(Term, Term)>, [Var; 2]) {
    let mut gen = world.gen.clone();
    let vars = [gen.fresh(), gen.fresh()];
    let goals = (0..n)
        .map(|i| {
            let scope: &[Var] = if i % 2 == 0 { &[] } else { &vars };
            let sup = terms::random_type(rng, world, 2, scope);
            let sub = terms::random_type(rng, world, 2, scope);
            (sup, sub)
        })
        .collect();
    (goals, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The headline differential property: over random guarded worlds, the
    /// shared-table prover returns byte-identical proofs to the untabled
    /// prover, both when populating the table and when answering from
    /// it.
    #[test]
    fn sharded_prover_is_observationally_identical(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let table = ShardedProofTable::new();
        let sharded = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &table);
        for (sup, sub) in &goals {
            let reference = plain.subtype(sup, sub);
            let miss = sharded.subtype(sup, sub);
            prop_assert_eq!(&reference, &miss, "miss pass diverged on {:?} >= {:?}", sup, sub);
            let hit = sharded.subtype(sup, sub);
            prop_assert_eq!(&reference, &hit, "hit pass diverged on {:?} >= {:?}", sup, sub);
        }
        // Every query is accounted for: decided by the ground closure
        // (no lock, no table touch) or by the table (miss then hit).
        let stats = table.stats();
        let closure_hits = table.metrics().get(Counter::ClosureHits);
        prop_assert_eq!(
            stats.hits + stats.misses + closure_hits,
            2 * goals.len() as u64
        );
    }

    /// The sharded table and the single `RefCell` table agree entry for
    /// entry: same verdicts, same answers, same hit behaviour — so the CLI
    /// may freely pick one per `--jobs` without changing output.
    #[test]
    fn sharded_and_local_tables_agree(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        // Duplicates force hit-path answering in both backends.
        let (mut goals, _) = goal_pairs(&mut rng, &world, 3);
        goals.push(goals[0].clone());
        goals.push(goals[2].clone());
        let local = RefCell::new(ProofTable::new());
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &local);
        let table = ShardedProofTable::new();
        let sharded = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &table);
        for (sup, sub) in &goals {
            prop_assert_eq!(tabled.subtype(sup, sub), sharded.subtype(sup, sub));
        }
        prop_assert_eq!(tabled.subtype_batch(&goals), sharded.subtype_batch(&goals));
    }

    /// Rigid conjunction goals — the exact entry point the well-typedness
    /// checker uses — agree with the untabled prover through the shared table.
    #[test]
    fn rigid_conjunctions_agree_through_shards(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, vars) = goal_pairs(&mut rng, &world, 3);
        let watermark = vars[1].0 + 1;
        let rigid: BTreeSet<Var> = [vars[1]].into_iter().collect();
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let table = ShardedProofTable::new();
        let sharded = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &table);
        let reference = plain.subtype_all_rigid(&goals, &rigid, watermark);
        let miss = sharded.subtype_all_rigid(&goals, &rigid, watermark);
        prop_assert_eq!(&reference, &miss);
        let hit = sharded.subtype_all_rigid(&goals, &rigid, watermark);
        prop_assert_eq!(&reference, &hit);
    }
}

proptest! {
    // Thread spawning per case is comparatively expensive; fewer cases
    // still cover many worlds while keeping the suite quick.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four threads hammering one sharded table — mixing repeated and
    /// distinct goals, so the same key is raced, hit, and overwritten —
    /// each observe exactly the untabled prover's verdicts.
    #[test]
    fn concurrent_queries_match_untabled_verdicts(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let expected: Vec<Proof> = goals.iter().map(|(a, b)| plain.subtype(a, b)).collect();
        let table = ShardedProofTable::new();
        let world_ref = &world;
        let goals_ref = &goals;
        let expected_ref = &expected;
        let table_ref = &table;
        std::thread::scope(|scope| {
            for t in 0..4usize {
                scope.spawn(move || {
                    let sharded = TabledProver::with_config(
                        &world_ref.sig,
                        &world_ref.checked,
                        CONFIG,
                        table_ref,
                    );
                    // Each thread walks the goals from a different offset so
                    // misses and hits interleave across threads.
                    for i in 0..goals_ref.len() {
                        let j = (i + t) % goals_ref.len();
                        let (sup, sub) = &goals_ref[j];
                        assert_eq!(
                            sharded.subtype(sup, sub),
                            expected_ref[j],
                            "thread {t} diverged on goal {j}"
                        );
                    }
                });
            }
        });
        // Every conclusive verdict is answered from the closure or from the
        // table eventually: 16 queries total, at most one live derivation
        // per distinct key per racing thread.
        let stats = table.stats();
        let closure_hits = table.metrics().get(Counter::ClosureHits);
        prop_assert_eq!(stats.hits + stats.misses + closure_hits, 16);
    }

    /// Schedule fuzzing for the shared table: four threads hammer a
    /// deliberately tiny table (evictions and lock races on shared hot
    /// keys) while one of them keeps `rescope`-ing the table to
    /// a foreign generation, so every other thread's next touch has to
    /// re-align the epoch and re-derive. Whatever the interleaving, each
    /// query must come back *exactly* equal to the serial prover's proof —
    /// answers included — and never a verdict cached under a different
    /// generation.
    #[test]
    fn hot_keys_survive_interleaved_rescope_epochs(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, _) = goal_pairs(&mut rng, &world, 4);
        let plain = Prover::with_config(&world.sig, &world.checked, CONFIG);
        let expected: Vec<Proof> = goals.iter().map(|(a, b)| plain.subtype(a, b)).collect();
        // 8 entries for 4 hot keys: generation churn happens on nearly
        // every touch.
        let table = ShardedProofTable::with_capacity(8);
        let world_ref = &world;
        let goals_ref = &goals;
        let expected_ref = &expected;
        let table_ref = &table;
        std::thread::scope(|scope| {
            for t in 0..4usize {
                scope.spawn(move || {
                    let sharded = TabledProver::with_config(
                        &world_ref.sig,
                        &world_ref.checked,
                        CONFIG,
                        table_ref,
                    );
                    for round in 0..6usize {
                        for i in 0..goals_ref.len() {
                            let j = (i + t + round) % goals_ref.len();
                            let (sup, sub) = &goals_ref[j];
                            assert_eq!(
                                sharded.subtype(sup, sub),
                                expected_ref[j],
                                "thread {t} round {round} diverged on goal {j}"
                            );
                        }
                        if t == 0 {
                            // Shove the whole table into a generation no
                            // prover queries under; everyone else must
                            // re-align and re-derive, never serve stale.
                            table_ref.rescope(
                                world_ref.checked.generation() + 1 + round as u64,
                                &|_| true,
                                true,
                            );
                        }
                    }
                });
            }
        });
    }
}

/// The mixed-generation kill test. Two theories share one table: their
/// signatures declare the same symbols in the same order, so the goal
/// `list(X) ⪰ elist` flat-encodes to the *same table key* under both —
/// but theory 1 proves it and theory 2 refutes it. Threads hammer both
/// provers concurrently on a **one-entry** table, so the generation
/// ping-pongs on nearly every touch and a worker's insert often lands
/// after the other theory's lookup moved the table. An insert that did
/// not check its verdict's generation against the table's would hand one
/// thread the other theory's verdict — the assertion that can never fire
/// if the generation discipline is right.
#[test]
fn torn_reads_never_leak_a_mixed_generation_verdict() {
    let mut sig = Signature::new();
    let elist = sig
        .declare("elist", SymKind::TypeCtor)
        .expect("fresh symbol");
    let list = sig
        .declare_with_arity("list", SymKind::TypeCtor, 1)
        .expect("fresh symbol");
    let mut cs = ConstraintSet::new();
    cs.add(
        &sig,
        Term::app(list, vec![Term::Var(Var(0))]),
        Term::constant(elist),
    )
    .expect("well-formed constraint");
    let proving = cs.checked(&sig).expect("guarded theory");
    let refuting = ConstraintSet::new().checked(&sig).expect("empty theory");
    assert_ne!(proving.generation(), refuting.generation());

    let table = ShardedProofTable::with_capacity(1);
    let sup = Term::app(list, vec![Term::Var(Var(7))]);
    let sub = Term::constant(elist);
    let sig_ref = &sig;
    let table_ref = &table;
    let (sup_ref, sub_ref) = (&sup, &sub);
    std::thread::scope(|scope| {
        for (theory, want_proved) in [(&proving, true), (&refuting, false)] {
            for _ in 0..2 {
                scope.spawn(move || {
                    let p = TabledProver::with_config(sig_ref, theory, CONFIG, table_ref);
                    for round in 0..400 {
                        let verdict = p.subtype(sup_ref, sub_ref);
                        assert_eq!(
                            verdict.is_proved(),
                            want_proved,
                            "round {round}: a verdict from the other \
                             generation leaked through (got {verdict:?})"
                        );
                    }
                });
            }
        }
    });
    assert!(
        table.metrics().get(Counter::TableInvalidations) > 0,
        "the generations really did fight over the table"
    );
}
