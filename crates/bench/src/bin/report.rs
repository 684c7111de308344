//! Prints the full experiment report (the series recorded in
//! EXPERIMENTS.md) in one pass: wall-clock timings plus search-effort
//! counters that Criterion cannot show.
//!
//! Run with: `cargo run --release -p bench --bin report`
//!
//! Two additional modes serve the machine-readable baseline:
//!
//! * `report --bench5 [--out FILE]` — run the deterministic BENCH_5
//!   workloads and write the versioned counter document (stdout default).
//! * `report --smoke [--baseline FILE] [--tolerance F]` — re-measure and
//!   compare against the committed baseline (default `BENCH_5.json`,
//!   exact match); exits 1 with a per-counter diff on drift. Wall time is
//!   never compared, so the gate is load-independent.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use lp_baseline::{FuncSigTable, Mo84Checker};
use lp_engine::{Query, SolveConfig};
use lp_gen::{programs, worlds};
use lp_term::Term;
use subtype_core::consistency::{AuditConfig, Auditor};
use subtype_core::{
    analysis, Checker, DependenceGraph, HornTheory, NaiveProver, ProofTable, Prover, TabledProver,
};

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

fn time_n<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    t0.elapsed() / n as u32
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--bench5") => bench5_mode(&args),
        Some("--smoke") => smoke_mode(&args),
        Some(other) => {
            eprintln!(
                "report: unknown flag `{other}`\nusage: report [--bench5 [--out FILE]] \
                 [--smoke [--baseline FILE] [--tolerance F]]"
            );
            std::process::exit(2);
        }
        None => {
            println!("# subtype-lp experiment report\n");
            f1();
            f2();
            f3();
            f4();
            f5();
            f6();
            f7();
        }
    }
}

/// The value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `report --bench5 [--out FILE]`: measure and emit the BENCH_5 document.
fn bench5_mode(args: &[String]) {
    let doc = bench::bench5::document().render();
    match flag_value(args, "--out") {
        Some(path) => {
            let mut text = doc;
            text.push('\n');
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("report: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
}

/// Keeps only the named workload in a BENCH_5 document (for `--only`
/// comparisons against a full committed baseline).
fn filter_workloads(
    doc: subtype_core::obs::json::JsonValue,
    name: &str,
) -> subtype_core::obs::json::JsonValue {
    use subtype_core::obs::json::JsonValue;
    let JsonValue::Obj(fields) = doc else {
        return doc;
    };
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| {
                if k == "workloads" {
                    let kept = match v {
                        JsonValue::Obj(wl) => {
                            JsonValue::Obj(wl.into_iter().filter(|(n, _)| n == name).collect())
                        }
                        other => other,
                    };
                    (k, kept)
                } else {
                    (k, v)
                }
            })
            .collect(),
    )
}

/// `report --smoke [--baseline FILE] [--tolerance F] [--only WORKLOAD]`:
/// the CI perf gate. `--only` measures (and compares) a single workload.
fn smoke_mode(args: &[String]) {
    let path = flag_value(args, "--baseline").unwrap_or("BENCH_5.json");
    let tolerance: f64 = match flag_value(args, "--tolerance") {
        None => 0.0,
        Some(v) => match v.parse() {
            Ok(t) => t,
            Err(_) => {
                eprintln!("report: --tolerance expects a number, got `{v}`");
                std::process::exit(2);
            }
        },
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("report: cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = match subtype_core::obs::json::JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("report: baseline {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    };
    let only = flag_value(args, "--only");
    let (baseline, fresh) = match only {
        Some(name) => {
            let measured = match bench::bench5::workloads_named(&[name]) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("report: {e}");
                    std::process::exit(2);
                }
            };
            (
                filter_workloads(baseline, name),
                bench::bench5::document_of(measured),
            )
        }
        None => (baseline, bench::bench5::document()),
    };
    let workload_count = match fresh.get("workloads") {
        Some(subtype_core::obs::json::JsonValue::Obj(wl)) => wl.len(),
        _ => 0,
    };
    let diffs = bench::bench5::compare(&baseline, &fresh, tolerance);
    if diffs.is_empty() {
        eprintln!(
            "smoke: counters match {path} ({workload_count} workload(s), tolerance {tolerance})"
        );
    } else {
        eprintln!("smoke: counter drift against {path}:");
        for d in &diffs {
            eprintln!("  {d}");
        }
        eprintln!(
            "({} drifted; if intentional, re-bless with scripts/bless.sh)",
            diffs.len()
        );
        std::process::exit(1);
    }
}

/// F1: deterministic strategy vs raw SLD over H_C, on subtype chains.
fn f1() {
    println!("## F1 — subtype query cost: deterministic (§3) vs naive SLD (§2)\n");
    println!("chain d | deterministic t0>=z | deterministic refute | naive ID t0>=z (attempts)");
    println!("--------|---------------------|----------------------|---------------------------");
    for &d in bench::F1_DEPTHS {
        let world = worlds::chain(d);
        let t0 = Term::constant(world.sig.lookup("t0").unwrap());
        let tn = Term::constant(world.sig.lookup(&format!("t{d}")).unwrap());
        let z = Term::constant(world.sig.lookup("z").unwrap());
        let det = Prover::new(&world.sig, &world.checked);
        let fast = time_n(100, || assert!(det.subtype(&t0, &z).is_proved()));
        let fast_neg = time_n(100, || assert!(det.subtype(&tn, &t0).is_refuted()));
        // The naive side is only feasible for tiny depths.
        let naive_cell = if d <= 4 {
            let naive = NaiveProver::new(&world.sig, &world.cs)
                .with_max_depth(2 * d + 8)
                .with_step_budget(8_000_000);
            let mut attempts = 0u64;
            let (outcome, dur) = time(|| {
                for depth in 1..=(2 * d + 8) {
                    let (out, stats) = naive.prove_at_depth_with_stats(&t0, &z, depth);
                    attempts += stats.attempts;
                    if out.is_proved() || stats.budget_exhausted {
                        return out;
                    }
                }
                subtype_core::NaiveOutcome::DepthLimit
            });
            format!("{dur:?} ({attempts} attempts, {outcome:?})")
        } else {
            "infeasible (exponential)".to_string()
        };
        println!("{d:7} | {fast:>19.2?} | {fast_neg:>20.2?} | {naive_cell}");
    }
    println!();
}

/// F2: match latency vs term size / constraint count.
fn f2() {
    println!("## F2 — match latency\n");
    let w = bench::workload(programs::LIST_DECLS);
    let list = w.module.sig.lookup("list").unwrap();
    let int = w.module.sig.lookup("int").unwrap();
    let ty = Term::app(list, vec![Term::constant(int)]);
    println!("list length n | match(list(int), [x1..xn])");
    println!("--------------|---------------------------");
    for &n in bench::F2_SIZES {
        let t = bench::int_list(&w.module, n);
        let d = time_n(200, || {
            assert!(subtype_core::match_type(&w.module.sig, &w.checked, &ty, &t)
                .typing()
                .is_some());
        });
        println!("{n:13} | {d:?}");
    }
    println!();
}

/// F3: whole-program checking throughput, Jacobs vs MO84.
fn f3() {
    println!("## F3 — checking throughput (pipeline family, MO84-expressible)\n");
    println!("preds n | clauses | Jacobs | MO84 | ratio");
    println!("--------|---------|--------|------|------");
    for &n in bench::F3_SIZES {
        let src = programs::pipeline(n, 2);
        let w = bench::workload(&src);
        let clauses: Vec<_> = w.module.clauses.iter().map(|c| c.clause.clone()).collect();
        let checker = Checker::new(&w.module.sig, &w.checked, &w.preds);
        let jac = time_n(20, || {
            checker.check_program(clauses.iter()).expect("well-typed")
        });
        let funcs = FuncSigTable::from_constraints(&w.module.sig, &w.raw).unwrap();
        let mo = Mo84Checker::new(&w.module.sig, &funcs, &w.preds);
        let mo84 = time_n(20, || mo.check_program(clauses.iter()).expect("well-typed"));
        let ratio = jac.as_secs_f64() / mo84.as_secs_f64().max(1e-12);
        println!(
            "{n:7} | {:7} | {jac:>6.2?} | {mo84:>4.2?} | {ratio:.2}x",
            clauses.len()
        );
    }
    println!("\nsubtype-rich fact bases (MO84 cannot express these at all):\n");
    println!("facts | Jacobs check | MO84");
    println!("------|--------------|-----");
    for &n in &[16usize, 64] {
        let src = programs::fact_base(n);
        let w = bench::workload(&src);
        let clauses: Vec<_> = w.module.clauses.iter().map(|c| c.clause.clone()).collect();
        let checker = Checker::new(&w.module.sig, &w.checked, &w.preds);
        let jac = time_n(20, || {
            checker.check_program(clauses.iter()).expect("well-typed")
        });
        let mo84 = match FuncSigTable::from_constraints(&w.module.sig, &w.raw) {
            Err(e) => format!("rejected: {e}"),
            Ok(_) => "unexpectedly accepted".to_string(),
        };
        println!("{n:5} | {jac:>12.2?} | {mo84}");
    }
    println!();
}

/// F4: consistency-auditing overhead.
fn f4() {
    println!("## F4 — Theorem 6 auditing overhead (nrev workload)\n");
    println!("n  | plain run | audited run | resolvents | ratio");
    println!("---|-----------|-------------|------------|------");
    for &n in bench::F4_SIZES {
        let w = bench::workload(&programs::nrev(n));
        let db = w.module.database();
        let goals = w.module.queries[0].goals.clone();
        let plain = time_n(10, || {
            let mut q = Query::new(&db, goals.clone(), SolveConfig::default());
            assert!(q.next_solution().is_some());
        });
        let checker = Checker::new(&w.module.sig, &w.checked, &w.preds);
        let auditor = Auditor::new(checker);
        let config = AuditConfig {
            max_solutions: 1,
            ..AuditConfig::default()
        };
        let mut resolvents = 0;
        let audited = time_n(10, || {
            let report = auditor.run(&db, &goals, config);
            assert!(report.is_clean());
            resolvents = report.resolvents_checked;
        });
        let ratio = audited.as_secs_f64() / plain.as_secs_f64().max(1e-12);
        println!("{n:2} | {plain:>9.2?} | {audited:>11.2?} | {resolvents:10} | {ratio:.1}x");
    }
    println!();
}

/// F5: static analysis cost.
fn f5() {
    println!("## F5 — static analysis cost (random guarded worlds)\n");
    println!("ctors | constraints | uniformity | guardedness | H_C build");
    println!("------|-------------|------------|-------------|----------");
    for &n in bench::F5_CTORS {
        let world = worlds::random(
            n as u64,
            worlds::RandomWorldConfig {
                n_ctors: n,
                n_funcs: 6,
                max_arity: 2,
                constraints_per_ctor: 3,
            },
        );
        let m = world.cs.len();
        let uni = time_n(50, || {
            analysis::check_uniform(&world.sig, &world.cs).unwrap()
        });
        let grd = time_n(50, || {
            DependenceGraph::build(&world.sig, &world.cs)
                .check_guarded(&world.sig)
                .unwrap()
        });
        let horn = time_n(50, || {
            assert!(HornTheory::build(&world.sig, &world.cs).database().len() > n);
        });
        println!("{n:5} | {m:11} | {uni:>10.2?} | {grd:>11.2?} | {horn:>9.2?}");
    }
    println!();
}

/// F6: proof-table effectiveness on repeated-judgement workloads.
fn f6() {
    println!("## F6 — proof-table effectiveness (tabled vs untabled prover)\n");
    println!("batch n | distinct | untabled | tabled (cold) | speedup | hit rate");
    println!("--------|----------|----------|---------------|---------|---------");
    for &n in bench::F6_BATCH {
        let mut world = worlds::paper_world();
        let goals = bench::alpha_variant_goals(&mut world, n, bench::F6_DISTINCT);
        let prover = Prover::new(&world.sig, &world.checked);
        let untabled = time_n(10, || {
            for (sup, sub) in &goals {
                assert!(prover.subtype(sup, sub).is_proved());
            }
        });
        let mut hit_rate = 0.0;
        let tabled = time_n(10, || {
            let table = RefCell::new(ProofTable::new());
            let tp = TabledProver::new(&world.sig, &world.checked, &table);
            for verdict in tp.subtype_batch(&goals) {
                assert!(verdict.is_proved());
            }
            hit_rate = table.borrow().stats().hit_rate();
        });
        let speedup = untabled.as_secs_f64() / tabled.as_secs_f64().max(1e-12);
        println!(
            "{n:7} | {:8} | {untabled:>8.2?} | {tabled:>13.2?} | {speedup:6.1}x | {:7.1}%",
            bench::F6_DISTINCT,
            100.0 * hit_rate
        );
    }

    // The realistic repeated-judgement workload is the Theorem 6 audit: it
    // re-checks every resolvent of an execution, and successive resolvents
    // keep posing alpha-variant subtype conjunctions. (Checking a program's
    // clauses once rarely consults the table — most clause obligations are
    // discharged structurally during commitment matching.)
    println!("\nTheorem 6 audits sharing one table across resolvent checks (nrev):\n");
    println!("n  | resolvents | untabled audit | tabled audit | speedup | hit rate");
    println!("---|------------|----------------|--------------|---------|---------");
    for &n in &[8usize, 16] {
        let w = bench::workload(&programs::nrev(n));
        let db = w.module.database();
        let goals = w.module.queries[0].goals.clone();
        let config = AuditConfig {
            max_solutions: 1,
            ..AuditConfig::default()
        };
        let plain = Auditor::new(Checker::new(&w.module.sig, &w.checked, &w.preds));
        let mut resolvents = 0;
        let untabled = time_n(10, || {
            let report = plain.run(&db, &goals, config);
            assert!(report.is_clean());
            resolvents = report.resolvents_checked;
        });
        let mut hit_rate = 0.0;
        let tabled = time_n(10, || {
            let table = RefCell::new(ProofTable::new());
            let checker = Checker::with_table(&w.module.sig, &w.checked, &w.preds, &table);
            let report = Auditor::new(checker).run(&db, &goals, config);
            assert!(report.is_clean());
            hit_rate = table.borrow().stats().hit_rate();
        });
        let speedup = untabled.as_secs_f64() / tabled.as_secs_f64().max(1e-12);
        println!(
            "{n:2} | {resolvents:10} | {untabled:>14.2?} | {tabled:>12.2?} | {speedup:6.1}x | {:7.1}%",
            100.0 * hit_rate
        );
    }
    println!();
}

/// F7: parallel scaling of the batch pipeline over the shared table.
fn f7() {
    use lp_engine::Clause;
    use subtype_core::{par, ParallelChecker, ShardedProofTable, TabledProver};

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("## F7 — parallel scaling (shared proof table, worker pool)\n");
    println!("host: {cores} core(s) available — speedup is bounded by this\n");

    // (a) File-level batch: the `slp check f1 f2 … --jobs N` shape. Each
    // worker checks whole programs; sizes are staggered so the pool has to
    // balance an uneven batch.
    let workloads: Vec<bench::CheckWorkload> = bench::f7_corpus()
        .iter()
        .map(|s| bench::workload(s))
        .collect();
    println!(
        "file batch ({} pipeline programs): jobs | wall | speedup",
        workloads.len()
    );
    println!("jobs | wall     | speedup");
    println!("-----|----------|--------");
    let mut base = Duration::ZERO;
    for &jobs in bench::F7_JOBS {
        let wall = time_n(5, || {
            let oks = par::run_indexed(jobs, &workloads, |_, w| {
                let table = ShardedProofTable::new();
                let checker =
                    ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, 1);
                let clauses: Vec<&Clause> = w.module.clauses.iter().map(|c| &c.clause).collect();
                checker.check_program(&clauses).is_ok()
            });
            assert!(oks.into_iter().all(|ok| ok));
        });
        if jobs == 1 {
            base = wall;
        }
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        println!("{jobs:4} | {wall:>8.2?} | {speedup:6.2}x");
    }

    // (b) Clause-level parallel check of one large program, all workers
    // sharing one table (the single-file `--jobs N` shape).
    let w = bench::workload(&programs::pipeline(64, 3));
    let clauses: Vec<&Clause> = w.module.clauses.iter().map(|c| &c.clause).collect();
    println!("\nclause-parallel check (pipeline(64, 3), shared proof table):\n");
    println!("jobs | wall     | speedup | hit rate");
    println!("-----|----------|---------|---------");
    let mut base = Duration::ZERO;
    for &jobs in bench::F7_JOBS {
        let mut hit_rate = 0.0;
        let wall = time_n(5, || {
            let table = ShardedProofTable::new();
            let checker =
                ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, jobs);
            assert!(checker.check_program(&clauses).is_ok());
            hit_rate = table.stats().hit_rate();
        });
        if jobs == 1 {
            base = wall;
        }
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        println!(
            "{jobs:4} | {wall:>8.2?} | {speedup:6.2}x | {:7.1}%",
            100.0 * hit_rate
        );
    }

    // (c) Concurrent alpha-variant subtype batch: a judgement derived on
    // one thread is a cache hit for every other thread, so the steady hit
    // rate should stay near the F6 single-thread rate at every job count.
    let mut world = worlds::paper_world();
    let goals = bench::alpha_variant_goals(&mut world, 256, bench::F7_DISTINCT);
    println!(
        "\nconcurrent subtype batch (256 goals, {} distinct):\n",
        bench::F7_DISTINCT
    );
    println!("jobs | wall     | speedup | hit rate");
    println!("-----|----------|---------|---------");
    let mut base = Duration::ZERO;
    for &jobs in bench::F7_JOBS {
        let mut hit_rate = 0.0;
        let wall = time_n(5, || {
            let table = ShardedProofTable::new();
            let world = &world;
            let oks = par::run_indexed(jobs, &goals, |_, (sup, sub)| {
                TabledProver::new(&world.sig, &world.checked, &table)
                    .subtype(sup, sub)
                    .is_proved()
            });
            assert!(oks.into_iter().all(|ok| ok));
            hit_rate = table.stats().hit_rate();
        });
        if jobs == 1 {
            base = wall;
        }
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        println!(
            "{jobs:4} | {wall:>8.2?} | {speedup:6.2}x | {:7.1}%",
            100.0 * hit_rate
        );
    }
    println!();
}
