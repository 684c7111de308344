//! F7 — parallel scaling: the shared proof table and worker pool against
//! the serial checker, swept over thread counts.
//!
//! Three workload shapes, mirroring the `slp` front end:
//!
//! * **File batch** — a corpus of generated pipeline programs checked one
//!   per worker (the `slp check f1 f2 … --jobs N` path). Program sizes are
//!   staggered, so the work-stealing pool must balance an uneven batch.
//! * **Clause-parallel check** — one large program whose clauses are
//!   dispatched across the pool, all workers proving through a single
//!   shared [`ShardedProofTable`] (the single-file `--jobs N` path).
//! * **Concurrent subtype batch** — alpha-variant goal batches split
//!   across workers, where a judgement derived on one thread is a cache
//!   hit for every other thread.
//!
//! Expected shape: near-linear file-batch speedup up to the core count
//! (≥2× at 4 threads on ≥4 cores), flat (within noise) on a single-core
//! host since the pool adds only scheduling overhead; verdicts and
//! diagnostics are byte-identical at every thread count (asserted here and
//! in `prop_shard.rs` / `cli_parallel.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lp_engine::Clause;
use lp_gen::{programs, worlds};
use subtype_core::{par, ParallelChecker, ShardedProofTable, TabledProver};

fn bench_file_batch(c: &mut Criterion) {
    let workloads: Vec<bench::CheckWorkload> = bench::f7_corpus()
        .iter()
        .map(|s| bench::workload(s))
        .collect();
    let mut group = c.benchmark_group("f7_file_batch");
    for &jobs in bench::F7_JOBS {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            b.iter(|| {
                let results = par::run_indexed(jobs, std::hint::black_box(&workloads), |_, w| {
                    let table = ShardedProofTable::new();
                    let checker =
                        ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, 1);
                    let clauses: Vec<&Clause> =
                        w.module.clauses.iter().map(|c| &c.clause).collect();
                    checker.check_program(&clauses).is_ok()
                });
                assert!(results.into_iter().all(|ok| ok));
            });
        });
    }
    group.finish();
}

fn bench_clause_parallel(c: &mut Criterion) {
    let w = bench::workload(&programs::pipeline(64, 3));
    let clauses: Vec<&Clause> = w.module.clauses.iter().map(|c| &c.clause).collect();
    let mut group = c.benchmark_group("f7_clause_check");
    for &jobs in bench::F7_JOBS {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            b.iter(|| {
                // A cold shared table per iteration: the measured time
                // includes the misses that populate it.
                let table = ShardedProofTable::new();
                let checker =
                    ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, jobs);
                assert!(checker
                    .check_program(std::hint::black_box(&clauses))
                    .is_ok());
            });
        });
    }
    group.finish();
}

fn bench_concurrent_subtype_batch(c: &mut Criterion) {
    let mut world = worlds::paper_world();
    let goals = bench::alpha_variant_goals(&mut world, 256, bench::F7_DISTINCT);
    let mut group = c.benchmark_group("f7_subtype_batch");
    for &jobs in bench::F7_JOBS {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            b.iter(|| {
                let table = ShardedProofTable::new();
                let world = &world;
                let verdicts =
                    par::run_indexed(jobs, std::hint::black_box(&goals), |_, (sup, sub)| {
                        TabledProver::new(&world.sig, &world.checked, &table)
                            .subtype(sup, sub)
                            .is_proved()
                    });
                assert!(verdicts.into_iter().all(|ok| ok));
            });
        });
    }
    group.finish();
}

criterion_group!(
    f7,
    bench_file_batch,
    bench_clause_parallel,
    bench_concurrent_subtype_batch
);
criterion_main!(f7);
