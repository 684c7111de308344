//! Differential property tests for proof witnesses.
//!
//! Every `Proved` verdict now carries a [`Witness`] and every `Refuted` a
//! minimal failing core; these tests pin the three guarantees the rest of
//! the tooling (`slp explain`, `--verify-witnesses`) leans on:
//!
//! 1. **Checkability** — every emitted witness replays through
//!    [`witness::validate_in`] without touching the prover or the table.
//! 2. **Backend agreement** — untabled, tabled, and sharded provers return
//!    the same witnessed verdict for the same conjunction.
//! 3. **Determinism** — re-running a query from scratch reproduces the
//!    exact same witness, byte for byte (steps *and* answer).
//!
//! Plain `#[test]`s at the bottom cover the cache-semantics regression:
//! witnesses cached before generation invalidation or FIFO eviction never
//! outlive their validity — whatever survives in the table still validates.
//!
//! Strategy mirrors `prop_table.rs`: proptest supplies seeds; worlds and
//! types come from the deterministic `lp-gen` generators, so every failure
//! is reproducible from the seed alone.

use std::cell::RefCell;
use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lp_gen::{terms, worlds};
use lp_term::{Signature, SymKind, Term, Var};
use subtype_core::witness::{self, Witness, Witnessed};
use subtype_core::{
    ConstraintSet, Proof, ProofTable, Prover, ProverConfig, ShardedProofTable, TabledProver,
};

/// Same small search budget as `prop_table.rs`: random refutable goals
/// exhaust whatever budget they get, and all the provers under test run the
/// same deterministic search, so budget cuts (`Unknown`) line up exactly.
const CONFIG: ProverConfig = ProverConfig {
    var_expansion_budget: 4,
    max_steps: 10_000,
};

/// Draws `n` (sup, sub) goal pairs over `world`, mixing closed and open
/// types over two fresh variables (see `prop_table.rs` for the rationale).
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

/// The untabled reference: a traced derivation folded into a [`Witnessed`],
/// shrinking refutations by live re-proving (what `TableHandle::Untabled`
/// does, minus the instrumentation, plus an explicit budget).
fn untabled_witnessed(
    world: &worlds::BuiltWorld,
    goals: &[(Term, Term)],
    rigid: &BTreeSet<Var>,
    watermark: u32,
) -> Witnessed {
    let prover = Prover::with_config(&world.sig, &world.checked, CONFIG);
    let (proof, steps) = prover.subtype_all_rigid_traced(goals, rigid, watermark);
    match proof {
        Proof::Proved(answer) => Witnessed::Proved(Witness {
            goals: goals.to_vec(),
            answer,
            steps: steps.into(),
        }),
        Proof::Refuted => Witnessed::Refuted {
            core: witness::shrink_core(goals, |subset| {
                prover
                    .subtype_all_rigid(subset, rigid, watermark)
                    .is_refuted()
            }),
        },
        Proof::Unknown => Witnessed::Unknown,
    }
}

/// Asserts `got` matches the untabled reference and, when proved, that its
/// witness replays through the independent validator.
fn check_against_reference(
    world: &worlds::BuiltWorld,
    reference: &Witnessed,
    got: &Witnessed,
    backend: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference, got, "{} backend diverged", backend);
    if let Some(w) = got.witness() {
        let verdict = witness::validate_in(&world.sig, world.checked.as_set().constraints(), w);
        prop_assert!(
            verdict.is_ok(),
            "{} witness failed validation: {:?}",
            backend,
            verdict
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The headline property: over random guarded worlds, all three
    /// backends agree on the witnessed verdict — and every `Proved`
    /// witness (fresh or cached) replays through `validate_in`, which
    /// never consults the prover or the table.
    #[test]
    fn witnessed_verdicts_agree_and_validate_across_backends(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, vars) = goal_pairs(&mut rng, &world, 3);
        let watermark = vars[1].0 + 1;
        let rigid: BTreeSet<Var> = [vars[1]].into_iter().collect();

        let reference = untabled_witnessed(&world, &goals, &rigid, watermark);
        check_against_reference(&world, &reference, &reference, "untabled")?;

        let local = RefCell::new(ProofTable::new());
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &local);
        let miss = tabled.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        check_against_reference(&world, &reference, &miss, "tabled (miss)")?;
        let hit = tabled.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        check_against_reference(&world, &reference, &hit, "tabled (hit)")?;

        let shared = ShardedProofTable::new();
        let sharded = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &shared);
        let miss = sharded.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        check_against_reference(&world, &reference, &miss, "sharded (miss)")?;
        let hit = sharded.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        check_against_reference(&world, &reference, &hit, "sharded (hit)")?;
    }

    /// Witness emission is deterministic: rebuilding the world and provers
    /// from the same seed reproduces byte-identical steps and answers.
    #[test]
    fn witnesses_are_deterministic_across_runs(seed in any::<u64>()) {
        let run = || {
            let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let (goals, vars) = goal_pairs(&mut rng, &world, 3);
            let watermark = vars[1].0 + 1;
            let rigid: BTreeSet<Var> = [vars[1]].into_iter().collect();
            let local = RefCell::new(ProofTable::new());
            let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &local);
            tabled.subtype_all_rigid_witnessed(&goals, &rigid, watermark)
        };
        prop_assert_eq!(run(), run());
    }

    /// After a query mix, auditing the tables finds zero invalid entries —
    /// the audit `slp check --verify-witnesses` runs, as a property. (No
    /// count bound: the prover may cache one entry per independent
    /// sub-conjunction, so a single query can intern several witnesses.)
    #[test]
    fn table_audit_finds_no_invalid_entries(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let (goals, vars) = goal_pairs(&mut rng, &world, 4);
        let watermark = vars[1].0 + 1;
        let rigid: BTreeSet<Var> = [vars[1]].into_iter().collect();

        let local = RefCell::new(ProofTable::new());
        let tabled = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &local);
        let shared = ShardedProofTable::new();
        let sharded = TabledProver::with_config(&world.sig, &world.checked, CONFIG, &shared);
        // One conjunction query plus each pair on its own, against both tables.
        tabled.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        sharded.subtype_all_rigid_witnessed(&goals, &rigid, watermark);
        for (sup, sub) in &goals {
            let single = [(sup.clone(), sub.clone())];
            tabled.subtype_all_rigid_witnessed(&single, &rigid, watermark);
            sharded.subtype_all_rigid_witnessed(&single, &rigid, watermark);
        }

        let cs = world.checked.as_set().constraints();
        let (validated, invalid) = local.borrow().validate_witnesses(&world.sig, cs);
        prop_assert_eq!(invalid, 0, "local table holds an unreplayable witness");
        let (sh_validated, sh_invalid) = shared.validate_witnesses(&world.sig, cs);
        prop_assert_eq!(sh_invalid, 0, "sharded table holds an unreplayable witness");
        prop_assert_eq!(validated, sh_validated);
    }
}

/// A tiny world where `a >= b >= z` holds, plus a parameterized wrapper
/// `d(X) >= a`: goals with a `d(..)` supertype sit outside the nullary
/// ground closure, so they genuinely populate the table with `Proved`
/// entries whose witnesses we can audit across cache events.
fn chain_world() -> (Signature, ConstraintSet) {
    let mut sig = Signature::new();
    let z = sig.declare_with_arity("z", SymKind::Func, 0).unwrap();
    let a = sig.declare_with_arity("a", SymKind::TypeCtor, 0).unwrap();
    let b = sig.declare_with_arity("b", SymKind::TypeCtor, 0).unwrap();
    let d = sig.declare_with_arity("d", SymKind::TypeCtor, 1).unwrap();
    let mut cs = ConstraintSet::new();
    cs.add(&sig, Term::constant(a), Term::constant(b)).unwrap();
    cs.add(&sig, Term::constant(b), Term::constant(z)).unwrap();
    cs.add(
        &sig,
        Term::app(d, vec![Term::Var(Var(0))]),
        Term::constant(a),
    )
    .unwrap();
    (sig, cs)
}

/// Generation invalidation must not leave unreplayable witnesses behind:
/// after switching theories over one shared table (wholesale invalidation)
/// and repopulating, every surviving entry validates against the *current*
/// constraint set — and the entry cached under the old theory is gone, not
/// lurking with a chain that indexes constraints that no longer line up.
#[test]
fn witnesses_survive_generation_invalidation() {
    let (sig, cs) = chain_world();
    let before = cs.clone().checked(&sig).unwrap();

    let table = RefCell::new(ProofTable::new());
    let b = Term::constant(sig.lookup("b").unwrap());
    let z = Term::constant(sig.lookup("z").unwrap());
    let d = sig.lookup("d").unwrap();
    let d_z = Term::app(d, vec![z.clone()]);
    let d_b = Term::app(d, vec![b.clone()]);

    let tabled = TabledProver::new(&sig, &before, &table);
    assert!(tabled.subtype(&d_z, &z).is_proved());
    let (validated, invalid) = table
        .borrow()
        .validate_witnesses(&sig, before.as_set().constraints());
    assert_eq!((validated, invalid), (1, 0));

    // Mutate the theory: a new constraint shifts the index space, so a
    // stale chain surviving the switch would replay against the wrong
    // constraints. The generation counter must have flushed it instead.
    let mut sig = sig;
    let mut cs2 = cs.clone();
    let c = sig.declare_with_arity("c", SymKind::TypeCtor, 0).unwrap();
    cs2.add(&sig, Term::constant(c), b.clone()).unwrap();
    let after = cs2.checked(&sig).unwrap();

    let tabled = TabledProver::new(&sig, &after, &table);
    assert!(tabled.subtype(&d_b, &z).is_proved());
    assert!(tabled.subtype(&d_z, &z).is_proved());
    let (validated, invalid) = table
        .borrow()
        .validate_witnesses(&sig, after.as_set().constraints());
    assert_eq!(invalid, 0, "a stale-generation witness survived the switch");
    assert_eq!(validated, 2, "both repopulated entries replay");
}

/// FIFO eviction under a tiny capacity must never corrupt survivors: after
/// churning many distinct conjunctions through a 2-entry table, whatever
/// is still cached validates, and evictions actually happened.
#[test]
fn witnesses_survive_fifo_eviction() {
    let (sig, cs) = chain_world();
    let checked = cs.checked(&sig).unwrap();
    let a = Term::constant(sig.lookup("a").unwrap());
    let b = Term::constant(sig.lookup("b").unwrap());
    let z = Term::constant(sig.lookup("z").unwrap());
    let d = sig.lookup("d").unwrap();

    let table = RefCell::new(ProofTable::with_capacity(2));
    let tabled = TabledProver::new(&sig, &checked, &table);
    // Distinct goals, all outside the ground closure (`d(..)` supertypes
    // are not nullary-reachable), so each one churns the table.
    let pool = [
        Term::app(d, vec![a.clone()]),
        Term::app(d, vec![b.clone()]),
        Term::app(d, vec![z.clone()]),
    ];
    let mut proofs = 0u64;
    for sup in &pool {
        for sub in &pool {
            let proof = tabled.subtype(sup, sub);
            assert!(!proof.is_unknown());
            proofs += 1;
        }
    }
    let stats = table.borrow().stats();
    assert!(
        stats.evictions > 0,
        "expected FIFO churn across {proofs} queries in a 2-entry table"
    );
    let (validated, invalid) = table
        .borrow()
        .validate_witnesses(&sig, checked.as_set().constraints());
    assert_eq!(invalid, 0, "an evicted neighbour corrupted a survivor");
    assert!(validated >= 1, "at least one Proved entry must survive");
    assert!(validated <= 2, "capacity bounds the surviving entries");
}
