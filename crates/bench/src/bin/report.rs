//! Prints the full experiment report (the series recorded in
//! EXPERIMENTS.md) in one pass: wall-clock timings plus search-effort
//! counters. Every series asserts its verdicts as it times them.
//!
//! Run with: `cargo run --release -p bench --bin report`
//!
//! Two additional modes serve the machine-readable baseline:
//!
//! * `report --bench5 [--out FILE]` — run the deterministic BENCH_5
//!   workloads and write the versioned counter document (stdout default).
//! * `report --smoke [--baseline FILE] [--tolerance F] [--only WORKLOAD]` —
//!   re-measure and compare against the committed baseline (default
//!   `BENCH_5.json`, exact match); exits 1 with a per-counter diff on
//!   drift, and 2 on a malformed flag. Wall time is never compared, so the
//!   gate is load-independent.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use bench::CheckWorkload;
use lp_baseline::{FuncSigTable, Mo84Checker};
use lp_engine::{Clause, Query, SolveConfig};
use lp_gen::{programs, worlds};
use lp_term::{Term, Var};
use subtype_core::consistency::{AuditConfig, Auditor};
use subtype_core::obs::json::JsonValue;
use subtype_core::{
    analysis, Checker, DependenceGraph, HornTheory, NaiveProver, ProofTable, Prover, ProverConfig,
    TabledProver,
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

/// The clauses of `w`, in source order.
fn clauses_of(w: &CheckWorkload) -> Vec<Clause> {
    w.module.clauses.iter().map(|c| c.clause.clone()).collect()
}

/// Mean time of one Jacobs check of the whole of `w`, which must be
/// well-typed.
fn jacobs_check(w: &CheckWorkload, iters: usize) -> Duration {
    let clauses = clauses_of(w);
    let checker = Checker::new(&w.module.sig, &w.checked, &w.preds);
    time_n(iters, || {
        checker.check_program(clauses.iter()).expect("well-typed")
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--bench5") => bench5_mode(&args),
        Some("--smoke") => smoke_mode(&args),
        Some(other) => {
            eprintln!(
                "report: unknown flag `{other}`\nusage: report [--bench5 [--out FILE]] \
                 [--smoke [--baseline FILE] [--tolerance F] [--only WORKLOAD]]"
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
            f14();
            f15();
            ablations();
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

/// The value of `r`, or exit 2 with its error: a usage or input error of
/// `--bench5` or `--smoke`.
fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2);
    })
}

/// `report --bench5 [--out FILE]`: measure and emit the BENCH_5 document.
fn bench5_mode(args: &[String]) {
    let doc = bench::bench5::document().render();
    match flag_value(args, "--out") {
        Some(path) => {
            or_exit(
                std::fs::write(path, doc + "\n").map_err(|e| format!("cannot write {path}: {e}")),
            );
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
}

/// Keeps only the named workload in a BENCH_5 document (for `--only`
/// comparisons against a full committed baseline).
fn filter_workloads(mut doc: JsonValue, name: &str) -> JsonValue {
    if let JsonValue::Obj(fields) = &mut doc {
        if let Some((_, JsonValue::Obj(wl))) = fields.iter_mut().find(|(k, _)| k == "workloads") {
            wl.retain(|(n, _)| n == name);
        }
    }
    doc
}

/// `report --smoke [--baseline FILE] [--tolerance F] [--only WORKLOAD]`:
/// the CI perf gate. `--only` measures (and compares) a single workload.
fn smoke_mode(args: &[String]) {
    use bench::bench5::{compare, document, document_of, workloads_named, SmokeArgs};
    let SmokeArgs {
        baseline: path,
        tolerance,
        only,
    } = or_exit(SmokeArgs::parse(&args[1..]));
    let text = or_exit(
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}")),
    );
    let baseline = or_exit(
        JsonValue::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e}")),
    );
    let (baseline, fresh) = match only {
        Some(name) => (
            filter_workloads(baseline, name),
            document_of(or_exit(workloads_named(&[name]))),
        ),
        None => (baseline, document()),
    };
    let workload_count = match fresh.get("workloads") {
        Some(JsonValue::Obj(wl)) => wl.len(),
        _ => 0,
    };
    let diffs = compare(&baseline, &fresh, tolerance);
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

/// F2: match latency vs term size, constraint count and nesting depth.
fn f2() {
    println!("## F2 — match latency\n");
    let time_match = |w: &CheckWorkload, ty: &Term, t: &Term| {
        time_n(200, || {
            assert!(subtype_core::match_type(&w.module.sig, &w.checked, ty, t)
                .typing()
                .is_some());
        })
    };
    let w = bench::workload(programs::LIST_DECLS);
    let sym = |name: &str| w.module.sig.lookup(name).unwrap();
    let (list, int, cons, nil) = (sym("list"), sym("int"), sym("cons"), sym("nil"));
    let ty = Term::app(list, vec![Term::constant(int)]);
    println!("list length n | match(list(int), [x1..xn])");
    println!("--------------|---------------------------");
    for &n in bench::F2_SIZES {
        let d = time_match(&w, &ty, &bench::int_list(&w.module, n));
        println!("{n:13} | {d:?}");
    }

    // One constructor with k union variants: match tries each expansion
    // branch, and the term uses the last one.
    println!("\nconstraint count k (t >= g_i(t), i < k) | match(t, g_k-1(base))");
    println!("----------------------------------------|----------------------");
    for &k in &[2usize, 8, 32] {
        let funcs: String = (0..k).map(|i| format!("g{i}, ")).collect();
        let variants: String = (0..k).map(|i| format!("t >= g{i}(t).\n")).collect();
        let src = format!("FUNC {funcs}base.\nTYPE t.\n{variants}t >= base.\n");
        let wk = bench::workload(&src);
        let sym = |name: &str| wk.module.sig.lookup(name).unwrap();
        let term = Term::app(
            sym(&format!("g{}", k - 1)),
            vec![Term::constant(sym("base"))],
        );
        let d = time_match(&wk, &Term::constant(sym("t")), &term);
        println!("{k:39} | {d:?}");
    }

    // list^d(list(int)) against an equally nested ground list: each level
    // wraps both the type and a two-element int list in one more list layer.
    println!("\nnesting depth d | match(list^d(list(int)), [..[x1, x2]..])");
    println!("---------------|-----------------------------------------");
    for &d in &[1usize, 4, 16] {
        let mut nested_ty = ty.clone();
        let mut t = bench::int_list(&w.module, 2);
        for _ in 0..d {
            nested_ty = Term::app(list, vec![nested_ty]);
            t = Term::app(cons, vec![t, Term::constant(nil)]);
        }
        let dur = time_match(&w, &nested_ty, &t);
        println!("{d:14} | {dur:?}");
    }
    println!();
}

/// F3: whole-program checking throughput, Jacobs vs MO84.
fn f3() {
    println!("## F3 — checking throughput (pipeline family, MO84-expressible)\n");
    println!("preds n | clauses | Jacobs | MO84 | ratio");
    println!("--------|---------|--------|------|------");
    for &n in bench::F3_SIZES {
        let w = bench::workload(&programs::pipeline(n, 2));
        let clauses = clauses_of(&w);
        let jac = jacobs_check(&w, 20);
        let funcs = FuncSigTable::from_constraints(&w.module.sig, &w.raw).unwrap();
        let mo = Mo84Checker::new(&w.module.sig, &funcs, &w.preds);
        let mo84 = time_n(20, || mo.check_program(clauses.iter()).expect("well-typed"));
        let ratio = jac.as_secs_f64() / mo84.as_secs_f64().max(1e-12);
        println!(
            "{n:7} | {:7} | {jac:>6.2?} | {mo84:>4.2?} | {ratio:.2}x",
            clauses.len()
        );
    }

    // Negative path: how fast is a corrupted pipeline rejected?
    println!("\nrejection latency (pipeline_with_errors(n, 2, 2)):\n");
    println!("preds n | Jacobs reject (2 errors)");
    println!("--------|-------------------------");
    for &n in &[4usize, 16] {
        let w = bench::workload(&programs::pipeline_with_errors(n, 2, 2));
        let clauses = clauses_of(&w);
        let checker = Checker::new(&w.module.sig, &w.checked, &w.preds);
        let reject = time_n(20, || {
            let errors = checker
                .check_program(clauses.iter())
                .expect_err("corrupted");
            assert_eq!(errors.len(), 2);
        });
        println!("{n:7} | {reject:?}");
    }

    // The fact bases use the full nat/unnat/int declarations with
    // heterogeneous facts, the fragment MO84 rejects outright. Sizes are
    // 3·F3_SIZES plus 16 and 64.
    let mut sizes: Vec<usize> = bench::F3_SIZES.iter().map(|n| 3 * n).collect();
    sizes.extend([16, 64]);
    sizes.sort_unstable();
    println!("\nsubtype-rich fact bases (MO84 cannot express these at all):\n");
    println!("facts | Jacobs check | MO84");
    println!("------|--------------|-----");
    for n in sizes {
        let w = bench::workload(&programs::fact_base(n));
        let jac = jacobs_check(&w, 20);
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
        let auditor = Auditor::new(Checker::new(&w.module.sig, &w.checked, &w.preds));
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

    // Wide, shallow derivations: the per-resolvent audit cost dominates.
    println!("\nfact scan (fact_base(n), all n solutions):\n");
    println!("n  | plain run | audited run | ratio");
    println!("---|-----------|-------------|------");
    for &n in &[16usize, 64] {
        let w = bench::workload(&programs::fact_base(n));
        let db = w.module.database();
        let goals = w.module.queries[0].goals.clone();
        let plain = time_n(10, || {
            let mut q = Query::new(&db, goals.clone(), SolveConfig::default());
            assert_eq!(std::iter::from_fn(|| q.next_solution()).count(), n);
        });
        let auditor = Auditor::new(Checker::new(&w.module.sig, &w.checked, &w.preds));
        let config = AuditConfig {
            max_solutions: n,
            ..AuditConfig::default()
        };
        let audited = time_n(10, || {
            assert_eq!(auditor.run(&db, &goals, config).solutions.len(), n);
        });
        let ratio = audited.as_secs_f64() / plain.as_secs_f64().max(1e-12);
        println!("{n:2} | {plain:>9.2?} | {audited:>11.2?} | {ratio:.1}x");
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

    // Long dependence chains are the worst case for the cycle check.
    println!("\ndependence chains (worlds::chain(d)):\n");
    println!("chain d | guardedness");
    println!("--------|------------");
    for &d in &[16usize, 64, 256] {
        let world = worlds::chain(d);
        let grd = time_n(50, || {
            DependenceGraph::build(&world.sig, &world.cs)
                .check_guarded(&world.sig)
                .unwrap()
        });
        println!("{d:7} | {grd:>11.2?}");
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
    use subtype_core::{par, ParallelChecker, ShardedProofTable};

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("## F7 — parallel scaling (shared proof table, worker pool)\n");
    println!("host: {cores} core(s) available — speedup is bounded by this\n");

    // (a) File-level batch: the `slp check f1 f2 … --jobs N` shape. Each
    // worker checks whole programs; sizes are staggered so the pool has to
    // balance an uneven batch.
    let workloads: Vec<CheckWorkload> = bench::f7_corpus()
        .iter()
        .map(|s| bench::workload(s))
        .collect();
    println!("file batch ({} pipeline programs):\n", workloads.len());
    jobs_sweep(|jobs| {
        let oks = par::run_indexed(jobs, &workloads, None, |_, w| {
            let table = ShardedProofTable::new();
            let checker =
                ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, 1);
            let clauses: Vec<&Clause> = w.module.clauses.iter().map(|c| &c.clause).collect();
            checker.check_program(&clauses).is_ok()
        });
        assert!(oks.into_iter().all(|ok| ok));
        None
    });

    // (b) Clause-level parallel check of one large program, all workers
    // sharing one table (the single-file `--jobs N` shape).
    let w = bench::workload(&programs::pipeline(64, 3));
    let clauses: Vec<&Clause> = w.module.clauses.iter().map(|c| &c.clause).collect();
    println!("\nclause-parallel check (pipeline(64, 3), shared proof table):\n");
    jobs_sweep(|jobs| {
        let table = ShardedProofTable::new();
        let checker =
            ParallelChecker::with_table(&w.module.sig, &w.checked, &w.preds, &table, jobs);
        assert!(checker.check_program(&clauses).is_ok());
        Some(table.stats().hit_rate())
    });

    // (c) Concurrent alpha-variant subtype batch: a judgement derived on
    // one thread is a cache hit for every other thread, but two workers
    // can both miss it before either inserts, so misses stay at most
    // `distinct × jobs`.
    let mut world = worlds::paper_world();
    let goals = bench::alpha_variant_goals(&mut world, 256, bench::F7_DISTINCT);
    println!(
        "\nconcurrent subtype batch (256 goals, {} distinct):\n",
        bench::F7_DISTINCT
    );
    jobs_sweep(|jobs| {
        let table = ShardedProofTable::new();
        let oks = par::run_indexed(jobs, &goals, None, |_, (sup, sub)| {
            TabledProver::new(&world.sig, &world.checked, &table)
                .subtype(sup, sub)
                .is_proved()
        });
        assert!(oks.into_iter().all(|ok| ok));
        Some(table.stats().hit_rate())
    });
    println!();
}

/// F14: front-end throughput, `parse_module` on pipeline programs of
/// about 10^3, 10^4 and 10^5 clauses (`pipeline(n, 4)` has `5n`).
fn f14() {
    println!("## F14 — front-end throughput (`parse_module`, pipeline family)\n");
    println!("clauses | source   | tokens    | parse     | MB/s  | ns/token");
    println!("--------|----------|-----------|-----------|-------|---------");
    for &(preds, iters) in &[(200usize, 20), (2_000, 5), (20_000, 2)] {
        let src = programs::pipeline(preds, 4);
        let tokens = lp_parser::Lexer::new(&src)
            .tokenize()
            .expect("pipeline lexes")
            .len()
            - 1;
        // The fastest of `iters` parses; the module is dropped outside the
        // timed region.
        let mut best = Duration::MAX;
        for _ in 0..iters {
            let (module, took) = time(|| lp_parser::parse_module(&src).expect("pipeline parses"));
            assert_eq!(module.clauses.len(), 5 * preds);
            assert_eq!(module.queries.len(), 0);
            best = best.min(took);
        }
        let secs = best.as_secs_f64().max(1e-12);
        println!(
            "{:7} | {:5} KB | {tokens:9} | {best:>9.2?} | {:5.1} | {:8.1}",
            5 * preds,
            src.len() / 1024,
            src.len() as f64 / secs / 1e6,
            secs * 1e9 / tokens as f64
        );
    }
    println!();
}

/// F15: single-file lint. (a) Lint of `n` pairwise distinct 7-argument
/// ground facts, which must grow linearly: each doubling of `n` may cost at
/// most 2.2× the time, where an all-pairs overlap pass would cost 4×. (b) A 3,000-clause pipeline on one and two workers,
/// which must produce the same report.
fn f15() {
    use subtype_core::{diag, lint_module, LintOptions};

    let lint = |src: &str, jobs: usize, iters: usize| {
        let module = lp_parser::parse_module(src).expect("generated program parses");
        let options = LintOptions {
            jobs,
            ..LintOptions::default()
        };
        let mut best = Duration::MAX;
        let mut diags = Vec::new();
        for _ in 0..iters {
            let (d, took) = time(|| lint_module(&module, &options));
            best = best.min(took);
            diags = d;
        }
        (diags, best)
    };

    println!("## F15 — single-file lint (indexed overlap pass, per-clause pool)\n");
    println!("distinct ground facts | lint      | × previous");
    println!("----------------------|-----------|-----------");
    // Nine rounds, each linting every size once in turn. A doubling's cost
    // is the median over the rounds of its time over the previous size's
    // in the same round, so a slow spell of the host cancels out of it.
    let sizes = [1_000usize, 2_000, 4_000, 8_000, 16_000];
    let facts: Vec<String> = sizes
        .iter()
        .map(|&n| programs::distinct_facts(n, 7))
        .collect();
    let rounds: Vec<Vec<Duration>> = (0..9)
        .map(|_| {
            facts
                .iter()
                .map(|src| {
                    let (diags, took) = lint(src, 1, 1);
                    assert!(diags.is_empty(), "distinct facts never overlap: {diags:?}");
                    took
                })
                .collect()
        })
        .collect();
    for (k, &n) in sizes.iter().enumerate() {
        let best = rounds.iter().map(|r| r[k]).min().expect("nine rounds");
        let shown = if k == 0 {
            "—".to_string()
        } else {
            let mut ratios: Vec<f64> = rounds
                .iter()
                .map(|r| r[k].as_secs_f64() / r[k - 1].as_secs_f64().max(1e-12))
                .collect();
            ratios.sort_by(f64::total_cmp);
            let ratio = ratios[ratios.len() / 2];
            assert!(ratio <= 2.2, "doubling the facts to {n} cost {ratio:.2}×");
            format!("{ratio:.2}")
        };
        println!("{n:21} | {best:>9.2?} | {shown:>9}");
    }

    let src = programs::pipeline(750, 3);
    println!("\npipeline(750, 3), 3,000 clauses, one file:\n");
    println!("jobs | lint      | findings | speedup");
    println!("-----|-----------|----------|--------");
    let mut serial: Option<(String, Duration)> = None;
    for jobs in [1, 2] {
        let (diags, took) = lint(&src, jobs, 5);
        let json = diag::render_json_all(&diags, &src, "pipeline.slp");
        let (serial_json, base) = serial.get_or_insert_with(|| (json.clone(), took));
        assert_eq!(&json, serial_json, "--jobs {jobs} changed the report");
        let speedup = base.as_secs_f64() / took.as_secs_f64().max(1e-12);
        println!(
            "{jobs:4} | {took:>9.2?} | {:8} | {speedup:5.2}x",
            diags.len()
        );
    }
    println!();
}

/// Times `run(jobs)` for each of `F7_JOBS` and prints its wall time, its
/// speedup over one job, and the table hit rate `run` returns, if any.
fn jobs_sweep(mut run: impl FnMut(usize) -> Option<f64>) {
    println!("jobs | wall     | speedup | hit rate");
    println!("-----|----------|---------|---------");
    let mut base = Duration::ZERO;
    for &jobs in bench::F7_JOBS {
        let mut hit_rate = None;
        let wall = time_n(5, || hit_rate = run(jobs));
        if jobs == 1 {
            base = wall;
        }
        let speedup = base.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        let hits = hit_rate.map_or("—".to_string(), |h| format!("{:.1}%", 100.0 * h));
        println!("{jobs:4} | {wall:>8.2?} | {speedup:6.2}x | {hits:>8}");
    }
}

/// Ablations of two design choices (DESIGN.md): the prover's
/// variable-enumeration budget, and the checker's deferred lower bounds.
fn ablations() {
    println!("## Ablations — enumeration budget and deferred bounds\n");
    let w = bench::workload(programs::LIST_DECLS);
    let sig = &w.module.sig;
    let sym = |name: &str| sig.lookup(name).unwrap();
    let prover = |budget| {
        Prover::with_config(
            sig,
            &w.checked,
            ProverConfig {
                var_expansion_budget: budget,
                ..ProverConfig::default()
            },
        )
    };

    // [0, pred(0)] ∈ list(A) needs A = int (or unnat), found only by
    // enumeration: budget 0 is fast but inconclusive.
    let (cons, nil, zero) = (sym("cons"), sym("nil"), Term::constant(sym("0")));
    let t = Term::app(
        cons,
        vec![
            zero.clone(),
            Term::app(
                cons,
                vec![Term::app(sym("pred"), vec![zero]), Term::constant(nil)],
            ),
        ],
    );
    let ty = Term::app(sym("list"), vec![Term::Var(Var(900_000))]);
    println!("budget | list(A) >= [0, pred(0)] | verdict");
    println!("-------|-------------------------|--------");
    for budget in [0u32, 2, 4, 16] {
        let p = prover(budget);
        let d = time_n(100, || {
            let proof = p.subtype(&ty, &t);
            if budget == 0 {
                assert!(proof.is_unknown());
            } else {
                assert!(proof.is_proved());
            }
        });
        let verdict = if budget == 0 { "unknown" } else { "proved" };
        println!("{budget:6} | {d:>23.2?} | {verdict}");
    }

    // Ground queries never enumerate: the budget must be free here.
    let ty = Term::app(sym("list"), vec![Term::constant(sym("int"))]);
    let t = bench::int_list(&w.module, 32);
    println!("\nbudget | ground member of list(int), 32 cells");
    println!("-------|-------------------------------------");
    for budget in [0u32, 16] {
        let p = prover(budget);
        let d = time_n(100, || assert!(p.member(&ty, &t).is_proved()));
        println!("{budget:6} | {d:.2?}");
    }

    // Pipelines never defer a bound (all agreement is by unification), so
    // the finalize pass must be near-free on them; every query atom of a
    // fact base defers one bound per fact.
    println!("\nprogram                | Jacobs check");
    println!("-----------------------|-------------");
    let pipeline = jacobs_check(&bench::workload(&programs::pipeline(16, 2)), 20);
    println!("pipeline(16, 2)        | {pipeline:>12.2?}");
    let facts = jacobs_check(&bench::workload(&programs::fact_base(48)), 20);
    println!("fact_base(48)          | {facts:>12.2?}");
    println!();
}
