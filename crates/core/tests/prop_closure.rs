//! Differential property tests pinning the precomputed ground closure to
//! the provers it short-circuits.
//!
//! The [`GroundClosure`] answers ground `t1 >= t2` goals from a bitset
//! built once per module load. Its contract: **whenever it answers at all,
//! the answer is exactly what the untabled deterministic prover — and
//! therefore the tabled and sharded provers, which are observationally
//! identical to it — would have derived.** Abstaining (`None`) is always
//! allowed; answering wrong never is. These tests fuzz that contract over
//! random guarded worlds, interleave theory mutations with rebuild rounds
//! (a stale closure is the one bug the serve-delta adoption rule must
//! never let through), and round-trip random terms through the arena the
//! closure stores its node set in.

use std::cell::RefCell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use lp_gen::{terms, worlds};
use lp_term::{Signature, Subst, Term};
use subtype_core::{
    CheckedConstraints, Proof, ProofTable, Prover, ShardedProofTable, TabledProver, TermArena,
};

/// Draws `n` ground type terms over `world` (no variables in scope, so
/// every draw is ground by construction).
fn ground_types(rng: &mut StdRng, world: &worlds::BuiltWorld, n: usize) -> Vec<Term> {
    (0..n)
        .map(|_| terms::random_type(rng, world, 3, &[]))
        .collect()
}

/// One differential round: every pair of drawn ground types is judged by
/// the untabled, tabled and sharded provers (exact [`Proof`] equality) and,
/// whenever the closure answers, its verdict must match all three.
fn assert_closure_agrees(
    sig: &Signature,
    checked: &CheckedConstraints,
    pairs: &[(Term, Term)],
) -> Result<(), TestCaseError> {
    let plain = Prover::new(sig, checked);
    let local = RefCell::new(ProofTable::new());
    let tabled = TabledProver::new(sig, checked, &local);
    let shards = ShardedProofTable::new();
    let sharded = TabledProver::new(sig, checked, &shards);
    let closure = checked.ground_closure();
    for (sup, sub) in pairs {
        let reference = plain.subtype(sup, sub);
        prop_assert_eq!(&reference, &tabled.subtype(sup, sub));
        prop_assert_eq!(&reference, &sharded.subtype(sup, sub));
        if let Some(decided) = closure.decide(sup, sub) {
            // A ground conclusive verdict carries no bindings, so the
            // closure's boolean is the *entire* observable proof.
            let expected = if decided {
                Proof::Proved(Subst::new())
            } else {
                Proof::Refuted
            };
            prop_assert_eq!(
                &reference,
                &expected,
                "closure decided {} for {:?} >= {:?}",
                decided,
                sup,
                sub
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The headline differential property: over random guarded worlds and
    /// random ground goals, every closure answer equals the untabled,
    /// tabled and sharded provers' exact proof.
    #[test]
    fn closure_answers_match_every_prover_on_ground_goals(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let tys = ground_types(&mut rng, &world, 4);
        let pairs: Vec<(Term, Term)> = tys
            .iter()
            .flat_map(|a| tys.iter().map(move |b| (a.clone(), b.clone())))
            .collect();
        assert_closure_agrees(&world.sig, &world.checked, &pairs)?;
    }

    /// Mutation-interleaved rebuilds: grow the theory one ground edge at a
    /// time, re-checking (and thus rebuilding the closure) between rounds.
    /// Every round's closure must agree with a prover over *that round's*
    /// theory — an accidentally retained stale closure fails immediately,
    /// because the added edge `c >= f0` flips `c ⪰ f0` to proved.
    #[test]
    fn rebuilt_closures_track_interleaved_mutations(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1057e);
        let tys = ground_types(&mut rng, &world, 3);
        let mut pairs: Vec<(Term, Term)> = tys
            .iter()
            .flat_map(|a| tys.iter().map(move |b| (a.clone(), b.clone())))
            .collect();
        let f0 = Term::constant(world.funcs[0]);
        let nullary: Vec<_> = world
            .ctors
            .iter()
            .copied()
            .filter(|&c| world.sig.arity(c).unwrap_or(0) == 0)
            .take(3)
            .collect();
        let mut cs = world.cs.clone();
        assert_closure_agrees(&world.sig, &world.checked, &pairs)?;
        for &c in &nullary {
            // `c >= f0` is uniform (no variables) and guarded (the rhs is
            // a function symbol), so every intermediate theory stays
            // checkable.
            cs.add(&world.sig, Term::constant(c), f0.clone()).expect("ground edge is valid");
            let checked = cs.clone().checked(&world.sig).expect("still uniform and guarded");
            pairs.push((Term::constant(c), f0.clone()));
            assert_closure_agrees(&world.sig, &checked, &pairs)?;
            let closure = checked.ground_closure();
            if !closure.is_disabled() {
                prop_assert_eq!(
                    closure.decide(&Term::constant(c), &f0),
                    Some(true),
                    "the freshly added edge must be decided by the rebuilt closure"
                );
            }
        }
    }

    /// Arena round-trip: random (open and ground) terms interned into a
    /// [`TermArena`] rebuild to exactly the original boxed tree, and the
    /// allocation-free structural comparison agrees with equality.
    #[test]
    fn arena_interned_terms_unparse_back_verbatim(seed in any::<u64>()) {
        let world = worlds::random(seed % 512, worlds::RandomWorldConfig::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa7e4a);
        let mut gen = world.gen.clone();
        let vars = [gen.fresh(), gen.fresh()];
        let mut arena = TermArena::new();
        let mut interned = Vec::new();
        for i in 0..8 {
            let scope: &[lp_term::Var] = if i % 2 == 0 { &[] } else { &vars };
            let t = terms::random_type(&mut rng, &world, 3, scope);
            let id = arena.intern(&t);
            prop_assert_eq!(&arena.term(id), &t, "rebuild diverged for {:?}", t);
            prop_assert!(arena.matches(id, &t));
            interned.push((id, t));
        }
        // Later interning never disturbs earlier ids (bump arena: ids are
        // stable for the arena's lifetime).
        for (id, t) in &interned {
            prop_assert_eq!(&arena.term(*id), t);
        }
    }
}
