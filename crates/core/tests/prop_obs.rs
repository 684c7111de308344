//! Property tests for the observability layer: scheduling-invariant
//! counters must not depend on how the work was scheduled.
//!
//! The `slp-metrics/1` schema partitions counters into two classes.
//! Table/shard/pool counters are *racy by design* (two workers may derive
//! the same judgement before either inserts it, so hit/miss splits shift
//! with interleaving); everything else — goals posed, cmatch expansions,
//! clause and query checks — is a function of the program alone and must
//! come out identical under `--jobs 1` and `--jobs 8`. These tests pin
//! that partition, the total-demand semantics of the shared [`Budget`] (a
//! chunk on any worker charges the same shared tally it would have
//! charged serially), plus the accounting identity that every tabled
//! subtype goal performs exactly one table lookup.

use std::cell::RefCell;

use proptest::prelude::*;

use lp_gen::programs;
use lp_parser::Module;
use subtype_core::welltyped::ParallelChecker;
use subtype_core::{
    Budget, Checker, ConstraintSet, Counter, MetricsRegistry, MetricsSnapshot, PredTypeTable,
    ProofTable, ShardedProofTable,
};

/// Parses a generated program and checks it on `jobs` workers, counting
/// into a fresh registry; returns the finished snapshot and the total
/// spend of a shared (effectively unbounded) expansion budget.
fn check_with_jobs(src: &str, jobs: usize) -> (MetricsSnapshot, u64) {
    let module: Module = lp_parser::parse_module(src).expect("generated program parses");
    let checked = ConstraintSet::from_module(&module)
        .expect("constraints valid")
        .checked(&module.sig)
        .expect("uniform and guarded");
    let preds = PredTypeTable::from_module(&module).expect("pred types valid");
    let obs = MetricsRegistry::shared();
    let budget = Budget::new(u64::MAX);
    let table = ShardedProofTable::with_metrics(obs.clone());
    let checker = ParallelChecker::with_table(&module.sig, &checked, &preds, &table, jobs)
        .with_obs(Some(&obs))
        .with_budget(Some(&budget));
    let clauses: Vec<_> = module.clauses.iter().map(|c| &c.clause).collect();
    checker.check_program(&clauses).expect("well-typed");
    let queries: Vec<&[lp_term::Term]> =
        module.queries.iter().map(|q| q.goals.as_slice()).collect();
    checker.check_queries(&queries).expect("well-typed queries");
    (obs.snapshot(), budget.spent())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scheduling-invariant counters and the shared budget's total spend
    /// are identical across worker counts — including an oversubscribed
    /// 8-worker run — on generated pipeline programs of varying width and
    /// arity. The budget half pins total-demand semantics: scheduling moves
    /// *where* a clause is checked, never how much expansion it charges.
    #[test]
    fn invariant_counters_agree_across_job_counts(width in 2usize..14, arity in 1usize..4) {
        let src = programs::pipeline(width, arity);
        let (serial, serial_spend) = check_with_jobs(&src, 1);
        for jobs in [4usize, 8] {
            let (parallel, parallel_spend) = check_with_jobs(&src, jobs);
            prop_assert_eq!(
                serial.deterministic_counters(),
                parallel.deterministic_counters(),
                "scheduling-invariant counters diverged between --jobs 1 and --jobs {}",
                jobs
            );
            prop_assert_eq!(
                serial_spend, parallel_spend,
                "budget demand diverged between --jobs 1 and --jobs {}", jobs
            );
        }
    }

    /// The racy/invariant partition is sound in the conservative direction
    /// too: on a *serial* run every counter, racy class included, is a pure
    /// function of the program, so two serial runs agree exactly.
    #[test]
    fn serial_runs_are_fully_deterministic(width in 2usize..10, arity in 1usize..4) {
        let src = programs::pipeline(width, arity);
        let (a, spend_a) = check_with_jobs(&src, 1);
        let (b, spend_b) = check_with_jobs(&src, 1);
        for c in Counter::ALL {
            prop_assert_eq!(a.counter(c), b.counter(c), "counter {} not deterministic", c.name());
        }
        prop_assert_eq!(spend_a, spend_b);
    }

    /// Accounting identity: with a (serial, local) table attached, every
    /// subtype goal performs exactly one lookup — hits + misses always sum
    /// to the goals posed, so the derived hit rate is well-founded.
    #[test]
    fn tabled_goals_perform_exactly_one_lookup(width in 2usize..12, arity in 1usize..4) {
        let src = programs::pipeline(width, arity);
        let module: Module = lp_parser::parse_module(&src).expect("generated program parses");
        let checked = ConstraintSet::from_module(&module)
            .expect("constraints valid")
            .checked(&module.sig)
            .expect("uniform and guarded");
        let preds = PredTypeTable::from_module(&module).expect("pred types valid");
        let obs = MetricsRegistry::shared();
        let table = RefCell::new(ProofTable::with_metrics(obs.clone()));
        let checker = Checker::with_table(&module.sig, &checked, &preds, &table)
            .with_obs(Some(&obs));
        checker
            .check_program(module.clauses.iter().map(|c| &c.clause))
            .expect("well-typed");
        let snap = obs.snapshot();
        prop_assert_eq!(
            snap.counter(Counter::TableHits) + snap.counter(Counter::TableMisses),
            snap.counter(Counter::SubtypeGoals)
        );
    }
}
