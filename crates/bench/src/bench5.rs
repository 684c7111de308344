//! The `BENCH_5` machine-readable baseline: deterministic counter
//! signatures of the F6/F7 workload family, emitted as one versioned JSON
//! document and compared (counters only, never wall time) by the CI perf
//! smoke gate.
//!
//! Every workload here runs **serially** on purpose: the counters of a
//! serial run are a pure function of the code, so the committed
//! `BENCH_5.json` stays byte-meaningful across machines and loads. Wall
//! time is deliberately absent from the document — the gate catches
//! behavioural drift (a tabling regression, an eviction-policy change, a
//! checker doing more subtype work than it used to), not slow hardware.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lp_gen::{programs, worlds};
use subtype_core::consistency::{AuditConfig, Auditor};
use subtype_core::obs::json::JsonValue;
use subtype_core::{
    lint_module_obs, par, Checker, Counter, LintOptions, MetricsRegistry, MetricsSnapshot,
    ModeAnalysis, ProofTable, ServeConfig, ServeSession, ShardedProofTable, TabledProver,
};

/// Version tag of the document; bump on any structural change.
pub const SCHEMA: &str = "slp-bench/5";

/// A named zero-argument workload runner in the registry.
pub type Workload = (&'static str, fn() -> MetricsSnapshot);

/// The named workload registry, in the document's fixed order. Each entry
/// is a zero-argument runner so callers (the full document, or `report
/// --smoke --only NAME`) can measure exactly the workloads they need.
pub fn registry() -> Vec<Workload> {
    vec![
        ("f6_alpha_batch", f6_alpha_batch as fn() -> MetricsSnapshot),
        ("f6_audit_nrev", f6_audit_nrev),
        ("table_eviction", table_eviction),
        ("pipeline_check", pipeline_check),
        ("lint_pipeline", lint_pipeline),
        ("mode_inference", mode_inference),
        ("serve_replay", serve_replay),
        ("ground_closure", ground_closure),
        ("contention_storm", contention_storm),
    ]
}

/// Runs every BENCH_5 workload (serially, in a fixed order) and returns
/// the per-workload metric snapshots.
pub fn workloads() -> Vec<(&'static str, MetricsSnapshot)> {
    registry()
        .into_iter()
        .map(|(name, run)| (name, run()))
        .collect()
}

/// Runs only the named workloads, in the order given.
///
/// # Errors
///
/// The first unknown name, with the known names listed.
pub fn workloads_named(only: &[&str]) -> Result<Vec<(&'static str, MetricsSnapshot)>, String> {
    let reg = registry();
    only.iter()
        .map(|name| match reg.iter().find(|(n, _)| n == name) {
            Some(&(n, run)) => Ok((n, run())),
            None => Err(format!(
                "unknown workload `{name}` (known: {})",
                reg.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
            )),
        })
        .collect()
}

/// The F6 alpha-variant subtype batch (256 goals, 8 distinct) through a
/// tabled prover: pins the steady hit rate via raw hit/miss/insert counts.
fn f6_alpha_batch() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let mut world = worlds::paper_world();
    let goals = crate::alpha_variant_goals(&mut world, 256, crate::F6_DISTINCT);
    let table = RefCell::new(ProofTable::with_metrics(obs.clone()));
    let prover = TabledProver::new(&world.sig, &world.checked, &table);
    for verdict in prover.subtype_batch(&goals) {
        assert!(verdict.is_proved());
    }
    obs.snapshot()
}

/// The F6 Theorem 6 audit of `nrev(8)` sharing one table across resolvent
/// checks: pins resolvent count, clause/query checks and table traffic.
fn f6_audit_nrev() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let w = crate::workload(&programs::nrev(8));
    let db = w.module.database();
    let goals = w.module.queries[0].goals.clone();
    let table = RefCell::new(ProofTable::with_metrics(obs.clone()));
    let checker =
        Checker::with_table(&w.module.sig, &w.checked, &w.preds, &table).with_obs(Some(&obs));
    let report = Auditor::new(checker).run(
        &db,
        &goals,
        AuditConfig {
            max_solutions: 1,
            ..AuditConfig::default()
        },
    );
    assert!(report.is_clean());
    obs.add(Counter::AuditResolvents, report.resolvents_checked);
    obs.add(Counter::EngineAttempts, report.engine.attempts);
    obs.add(Counter::EngineSteps, report.engine.steps);
    obs.add(Counter::EngineDepthCutoffs, report.engine.depth_cutoffs);
    obs.snapshot()
}

/// FIFO-eviction churn: 32 goals cycling 16 distinct judgements through a
/// capacity-4 local table. The batch proves in canonical-key order, so
/// each duplicate hits right after its original, while the 16 distinct
/// inserts overflow capacity 4 and evict exactly 12 entries. Pins the
/// eviction counter exactly.
fn table_eviction() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let mut world = worlds::paper_world();
    let goals = crate::alpha_variant_goals(&mut world, 32, 16);
    let table = RefCell::new(ProofTable::with_capacity_and_metrics(4, obs.clone()));
    let prover = TabledProver::new(&world.sig, &world.checked, &table);
    for verdict in prover.subtype_batch(&goals) {
        assert!(verdict.is_proved());
    }
    obs.snapshot()
}

/// Serial clause-check of `pipeline(16, 2)`: pins clause checks, cmatch
/// expansions and the subtype-goal volume of the checking pipeline.
fn pipeline_check() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let w = crate::workload(&programs::pipeline(16, 2));
    let table = RefCell::new(ProofTable::with_metrics(obs.clone()));
    let checker =
        Checker::with_table(&w.module.sig, &w.checked, &w.preds, &table).with_obs(Some(&obs));
    let clauses: Vec<_> = w.module.clauses.iter().map(|c| c.clause.clone()).collect();
    checker.check_program(clauses.iter()).expect("well-typed");
    obs.snapshot()
}

/// A full lint pass over `pipeline(8, 2)`: pins the lint pass/diagnostic
/// counters and the table traffic of lint's internal checking.
fn lint_pipeline() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let module = lp_parser::parse_module(&programs::pipeline(8, 2)).expect("fixture parses");
    let diags = lint_module_obs(
        &module,
        &LintOptions {
            tabling: true,
            ..LintOptions::default()
        },
        Some(&obs),
    );
    std::hint::black_box(diags);
    obs.snapshot()
}

/// Mode analysis on both sides of the declaration boundary: the
/// declaration-blind fixpoint over `pipeline(8, 2)` (every predicate
/// inferred, nothing to violate) followed by a full lint of the shipped
/// `modes_demo.slp` corpus, whose MODE declarations make every mode pass
/// fire. Pins the inference count and the violation volume of the F9
/// workload exactly.
fn mode_inference() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let module = lp_parser::parse_module(&programs::pipeline(8, 2)).expect("fixture parses");
    let report = ModeAnalysis::new(&module).with_obs(Some(&obs)).run();
    assert!(report.violations.is_empty(), "undeclared corpus is clean");
    let moded = lp_parser::parse_module(include_str!("../../../examples/modes_demo.slp"))
        .expect("fixture parses");
    let diags = lint_module_obs(
        &moded,
        &LintOptions {
            tabling: true,
            ..LintOptions::default()
        },
        Some(&obs),
    );
    std::hint::black_box(diags);
    obs.snapshot()
}

/// A serve-daemon replay over `nrev(8)`: cold load + check, then
/// a clause-append delta (signature and constraints unchanged) and a warm
/// re-check through the rescoped table. Pins the warm/cold economics of
/// incremental invalidation — `incremental_reuse` (cached verdicts
/// surviving the delta) against the cold check's `table_misses` — so a
/// rescope regression that silently drops the warm table fails the gate.
fn serve_replay() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let mut session = ServeSession::with_metrics(ServeConfig::default(), obs.clone());
    let src = programs::nrev(8);
    let line = |op: &str, source: &str| {
        JsonValue::Obj(vec![
            ("op".to_string(), JsonValue::Str(op.to_string())),
            ("source".to_string(), JsonValue::Str(source.to_string())),
        ])
        .render()
    };
    let ok = |resp: String| {
        assert!(
            resp.contains("\"status\":\"ok\""),
            "serve replay failed: {resp}"
        );
    };
    ok(session.handle_line(&line("load", &src)));
    ok(session.handle_line("{\"op\":\"check\"}"));
    let extended = format!("{src}app(nil, nil, nil).\n");
    ok(session.handle_line(&line("delta", &extended)));
    ok(session.handle_line("{\"op\":\"check\"}"));
    obs.snapshot()
}

/// Ground subtype judgements through a tabled prover over the paper world:
/// four goals the precomputed closure decides without touching the
/// canonical-key or table layer at all, then one parameterized-supertype
/// goal (`list(int) ⪰ nil`) that must fall back to the table. Pins the
/// closure hit/miss split, the fallback's single miss/insert, and the
/// arena-term volume of the one goal that built a canonical key.
fn ground_closure() -> MetricsSnapshot {
    let obs = MetricsRegistry::shared();
    let world = worlds::paper_world();
    let lookup = |n: &str| world.sig.lookup(n).expect("paper symbol");
    let (int, nat, elist, nil) = (lookup("int"), lookup("nat"), lookup("elist"), lookup("nil"));
    let (succ, zero, list) = (lookup("succ"), lookup("0"), lookup("list"));
    let table = RefCell::new(ProofTable::with_metrics(obs.clone()));
    let prover = TabledProver::new(&world.sig, &world.checked, &table);
    let c = lp_term::Term::constant;
    assert!(prover.subtype(&c(int), &c(nat)).is_proved());
    assert!(prover.subtype(&c(nat), &c(int)).is_refuted());
    assert!(prover.subtype(&c(elist), &c(nil)).is_proved());
    let two = lp_term::Term::app(succ, vec![lp_term::Term::app(succ, vec![c(zero)])]);
    assert!(prover.subtype(&c(nat), &two).is_proved());
    let list_int = lp_term::Term::app(list, vec![c(int)]);
    assert!(prover.subtype(&list_int, &c(nil)).is_proved());
    obs.snapshot()
}

/// How long a storm item waits for the other items to arrive before the
/// workload fails: far longer than a loaded host needs to start four
/// threads, short enough that a serial pool fails CI instead of hanging.
const STORM_DEADLINE: Duration = Duration::from_secs(10);

/// The asserted ceiling a racy counter must stay under during the storm;
/// the *ceiling* (not the measurement) is what the published document
/// carries, so the baseline stays byte-deterministic. See
/// [`Counter::bounded_in_baselines`].
fn storm_cap(counter: Counter) -> u64 {
    match counter {
        Counter::ShardContention => 1_000,
        Counter::TableReadRetries => 100_000,
        _ => unreachable!("only bounded-in-baseline counters have storm caps"),
    }
}

/// The concurrency storm: the one workload that runs the *shared* table
/// and the pool on purpose, checking by counters that workers really
/// share the table and really run at once.
///
/// Phase 1 seeds 8 hot judgements into a [`ShardedProofTable`] serially.
/// Phase 2 runs four items through a four-worker pool, one item per
/// chunk. Each item waits until all four are in flight, so the batch
/// completes only when four *distinct* workers each hold one item; a
/// silent fallback to serial dispatch panics with a message after
/// [`STORM_DEADLINE`] instead of hanging. Each worker then hammers the 8
/// hot keys (128 shared hits in total) and publishes one private verdict
/// (4 misses/inserts). Phase 3 rescopes every entry into a fresh
/// generation (12 reused).
///
/// Schedule-dependent counters (`shard_contention`, `table_read_retries`)
/// are asserted against a generous ceiling and the *ceiling* is
/// published, keeping the document deterministic; every other counter is
/// published as measured and compared exactly.
fn contention_storm() -> MetricsSnapshot {
    const WORKERS: usize = 4;
    const HOT: usize = 8;
    const ROUNDS: usize = 4;
    let obs = MetricsRegistry::shared();
    let mut world = worlds::paper_world();
    let goals = crate::alpha_variant_goals(&mut world, HOT + WORKERS, HOT + WORKERS);
    let (hot, solo) = goals.split_at(HOT);
    let table = ShardedProofTable::with_capacity_and_metrics(256, obs.clone());

    // Phase 1: serial seed — 8 deterministic misses/inserts.
    let prover = TabledProver::new(&world.sig, &world.checked, &table);
    for (sup, sub) in hot {
        assert!(prover.subtype(sup, sub).is_proved());
    }

    // Phase 2: the storm. Four items make four one-item chunks, and every
    // item waits for the other three to arrive.
    let arrived = AtomicUsize::new(0);
    let items: Vec<usize> = (0..WORKERS).collect();
    par::run_indexed(WORKERS, &items, Some(&obs), |_, &worker| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + STORM_DEADLINE;
        while arrived.load(Ordering::SeqCst) < WORKERS {
            assert!(
                Instant::now() < deadline,
                "contention_storm: only {} of {WORKERS} items were in flight at once \
                 after {STORM_DEADLINE:?}; the pool ran them serially",
                arrived.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let p = TabledProver::new(&world.sig, &world.checked, &table);
        for _ in 0..ROUNDS {
            for (sup, sub) in hot {
                assert!(p.subtype(sup, sub).is_proved());
            }
        }
        let (sup, sub) = &solo[worker];
        assert!(p.subtype(sup, sub).is_proved());
    });

    // Phase 3: epoch-bumped rescope with the theory unchanged — every
    // entry survives into the new generation.
    let kept = table.rescope(world.checked.generation() + 1, &|_| true, true);
    assert_eq!(
        kept,
        (HOT + WORKERS) as u64,
        "rescope keeps the whole table"
    );

    let snap = obs.snapshot();
    let published = MetricsRegistry::new();
    for counter in Counter::ALL {
        let measured = snap.counter(counter);
        if counter.bounded_in_baselines() {
            let cap = storm_cap(counter);
            assert!(
                measured <= cap,
                "{} blew its storm ceiling: {measured} > {cap}",
                counter.name()
            );
            published.add(counter, cap);
        } else {
            published.add(counter, measured);
        }
    }
    published.snapshot()
}

/// Assembles the versioned BENCH_5 document: `schema`, then one ordered
/// counter object per workload. Counters only — no wall time.
pub fn document() -> JsonValue {
    document_of(workloads())
}

/// Assembles a BENCH_5 document from already-measured workloads (the
/// `--only` path measures a subset).
pub fn document_of(measured: Vec<(&'static str, MetricsSnapshot)>) -> JsonValue {
    let entries = measured
        .into_iter()
        .map(|(name, snap)| {
            let counters = Counter::ALL
                .iter()
                .map(|c| (c.name().to_string(), JsonValue::num(snap.counter(*c))))
                .collect();
            (
                name.to_string(),
                JsonValue::Obj(vec![("counters".to_string(), JsonValue::Obj(counters))]),
            )
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".to_string(), JsonValue::Str(SCHEMA.to_string())),
        ("workloads".to_string(), JsonValue::Obj(entries)),
    ])
}

/// The options of `report --smoke`.
#[derive(Debug)]
pub struct SmokeArgs<'a> {
    /// The committed baseline document (`--baseline`, default
    /// `BENCH_5.json`).
    pub baseline: &'a str,
    /// The relative drift allowed per counter (`--tolerance`, default exact).
    pub tolerance: f64,
    /// The single workload to measure and compare (`--only`), if any.
    pub only: Option<&'a str>,
}

impl<'a> SmokeArgs<'a> {
    /// Parses the flags that follow `--smoke`.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without its value, or a tolerance that is not
    /// a finite non-negative number. Each would otherwise weaken the gate
    /// without a word.
    pub fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut parsed = SmokeArgs {
            baseline: "BENCH_5.json",
            tolerance: 0.0,
            only: None,
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let mut value = || {
                rest.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match flag.as_str() {
                "--baseline" => parsed.baseline = value()?,
                "--only" => parsed.only = Some(value()?),
                "--tolerance" => {
                    let v = value()?;
                    parsed.tolerance = v
                        .parse()
                        .ok()
                        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| {
                            format!("--tolerance expects a finite non-negative number, got `{v}`")
                        })?;
                }
                other => return Err(format!("unknown smoke flag `{other}`")),
            }
        }
        Ok(parsed)
    }
}

/// Compares a freshly measured document against the committed baseline.
///
/// Every counter of every workload present in *either* document is
/// compared; a counter drifts when its relative difference against the
/// baseline exceeds `tolerance` (`0.0` = exact), and a baseline counter the
/// code no longer measures drifts too. Returns one human-readable
/// line per drifted (or missing) entry — empty means the gate passes.
pub fn compare(baseline: &JsonValue, fresh: &JsonValue, tolerance: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    match (baseline.get("schema"), fresh.get("schema")) {
        (Some(b), Some(f)) if b.as_str() == f.as_str() => {}
        (b, f) => {
            diffs.push(format!(
                "schema mismatch: baseline {:?}, fresh {:?}",
                b.and_then(JsonValue::as_str),
                f.and_then(JsonValue::as_str)
            ));
            return diffs;
        }
    }
    let (Some(JsonValue::Obj(base_wl)), Some(JsonValue::Obj(fresh_wl))) =
        (baseline.get("workloads"), fresh.get("workloads"))
    else {
        diffs.push("malformed document: missing `workloads` object".to_string());
        return diffs;
    };
    for (name, fresh_entry) in fresh_wl {
        let Some(base_entry) = base_wl.iter().find(|(n, _)| n == name).map(|(_, v)| v) else {
            diffs.push(format!(
                "{name}: missing from baseline (re-bless BENCH_5.json)"
            ));
            continue;
        };
        for counter in Counter::ALL {
            let key = counter.name();
            let got = fresh_entry
                .get("counters")
                .and_then(|c| c.get(key))
                .and_then(JsonValue::as_u64);
            let want = base_entry
                .get("counters")
                .and_then(|c| c.get(key))
                .and_then(JsonValue::as_u64);
            match (want, got) {
                (Some(w), Some(g)) => {
                    let drift = (g as f64 - w as f64).abs() / (w as f64).max(1.0);
                    if drift > tolerance {
                        diffs.push(format!(
                            "{name}.{key}: baseline {w}, got {g} ({:+.1}% vs {:.1}% allowed)",
                            100.0 * (g as f64 - w as f64) / (w as f64).max(1.0),
                            100.0 * tolerance
                        ));
                    }
                }
                (None, Some(g)) if g != 0 => {
                    diffs.push(format!("{name}.{key}: baseline absent, got {g}"));
                }
                _ => {}
            }
        }
        if let Some(JsonValue::Obj(base_counters)) = base_entry.get("counters") {
            for (key, _) in base_counters {
                if !Counter::ALL.iter().any(|c| c.name() == key) {
                    diffs.push(format!("{name}.{key}: in baseline but no longer measured"));
                }
            }
        }
    }
    for (name, _) in base_wl {
        if !fresh_wl.iter().any(|(n, _)| n == name) {
            diffs.push(format!("{name}: in baseline but no longer measured"));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_is_deterministic_across_runs() {
        assert_eq!(document().render(), document().render());
    }

    #[test]
    fn document_round_trips_and_matches_itself() {
        let doc = document();
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("renders valid JSON");
        assert_eq!(parsed.render(), text);
        assert!(compare(&parsed, &doc, 0.0).is_empty());
    }

    #[test]
    fn drift_is_reported_per_counter() {
        let doc = document();
        let mut text = doc.render();
        // Corrupt one counter value in the parsed baseline.
        text = text.replacen("\"subtype_goals\":256", "\"subtype_goals\":255", 1);
        let tampered = JsonValue::parse(&text).unwrap();
        let diffs = compare(&tampered, &doc, 0.0);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("subtype_goals"), "{diffs:?}");
        // A generous tolerance forgives the same drift.
        assert!(compare(&tampered, &doc, 0.05).is_empty());
        // A baseline counter the code no longer measures is drift too.
        let retired = doc
            .render()
            .replacen("\"counters\":{", "\"counters\":{\"retired\":7,", 1);
        let diffs = compare(&JsonValue::parse(&retired).unwrap(), &doc, 0.0);
        assert_eq!(
            diffs,
            ["f6_alpha_batch.retired: in baseline but no longer measured"]
        );
    }

    /// `SmokeArgs::parse` over string literals, with owned results.
    fn parse(args: &[&str]) -> Result<(String, f64, Option<String>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        SmokeArgs::parse(&args).map(|a| (a.baseline.into(), a.tolerance, a.only.map(Into::into)))
    }

    #[test]
    fn smoke_args_parse_every_flag() {
        assert_eq!(parse(&[]), Ok(("BENCH_5.json".into(), 0.0, None)));
        assert_eq!(
            parse(&[
                "--baseline",
                "b.json",
                "--tolerance",
                "0.5",
                "--only",
                "storm"
            ]),
            Ok(("b.json".into(), 0.5, Some("storm".into())))
        );
    }

    #[test]
    fn smoke_args_reject_a_tolerance_that_disables_the_gate() {
        for bad in ["nan", "inf", "-0.1", "x"] {
            let err = parse(&["--tolerance", bad]).unwrap_err();
            assert!(err.starts_with("--tolerance expects"), "{bad}: {err}");
        }
    }

    #[test]
    fn smoke_args_reject_a_missing_value() {
        for flag in ["--only", "--baseline", "--tolerance"] {
            let err = parse(&["--tolerance", "0", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} expects a value"));
        }
    }

    #[test]
    fn smoke_args_reject_an_unknown_flag() {
        let err = parse(&["--onyl", "ground_closure"]).unwrap_err();
        assert_eq!(err, "unknown smoke flag `--onyl`");
    }

    #[test]
    fn alpha_batch_hit_rate_is_pinned() {
        let (_, snap) = workloads().remove(0);
        assert_eq!(snap.counter(Counter::SubtypeGoals), 256);
        assert_eq!(snap.counter(Counter::TableMisses), 8);
        assert_eq!(snap.counter(Counter::TableHits), 248);
    }

    #[test]
    fn serve_replay_reuses_the_warm_table() {
        let snap = serve_replay();
        assert!(
            snap.counter(Counter::IncrementalReuse) > 0,
            "the delta must keep cached verdicts alive"
        );
        assert_eq!(snap.counter(Counter::RequestsServed), 4);
    }

    #[test]
    fn mode_workload_pins_inference_and_violation_volume() {
        let snap = mode_inference();
        assert_eq!(
            snap.counter(Counter::ModeInferences),
            9,
            "8 pipeline predicates plus the undeclared `loop`"
        );
        assert_eq!(
            snap.counter(Counter::ModeViolations),
            2,
            "one ill-moded call (E0601) and one output hazard (E0604)"
        );
    }

    #[test]
    fn ground_closure_workload_pins_the_short_circuit() {
        let snap = ground_closure();
        assert_eq!(snap.counter(Counter::ClosureHits), 4, "four decided goals");
        assert_eq!(
            snap.counter(Counter::ClosureMisses),
            1,
            "list(int) is not a closure node"
        );
        assert_eq!(snap.counter(Counter::SubtypeGoals), 5);
        assert_eq!(
            snap.counter(Counter::TableMisses),
            1,
            "only the fallback keys"
        );
        assert_eq!(snap.counter(Counter::TableHits), 0);
        assert_eq!(snap.counter(Counter::TableInserts), 1);
        assert_eq!(
            snap.counter(Counter::ArenaTerms),
            2,
            "one canonical key over one two-sided goal"
        );
    }

    #[test]
    fn named_workloads_run_standalone() {
        let measured = workloads_named(&["ground_closure"]).expect("known name");
        assert_eq!(measured.len(), 1);
        assert_eq!(measured[0].0, "ground_closure");
        assert!(workloads_named(&["no_such_workload"]).is_err());
    }

    #[test]
    fn contention_storm_pins_steals_and_hot_hits() {
        let snap = contention_storm();
        assert_eq!(snap.counter(Counter::Steals), 0, "retired: always 0");
        assert_eq!(snap.counter(Counter::StealFailures), 0, "retired: always 0");
        assert_eq!(snap.counter(Counter::PoolBatches), 1);
        assert_eq!(snap.counter(Counter::PoolItems), 4);
        assert_eq!(snap.counter(Counter::TableMisses), 12, "8 hot + 4 solo");
        assert_eq!(
            snap.counter(Counter::TableHits),
            128,
            "4 workers x 4 rounds x 8 hot keys"
        );
        assert_eq!(snap.counter(Counter::TableInserts), 12);
        assert_eq!(snap.counter(Counter::TableEvictions), 0);
        assert_eq!(
            snap.counter(Counter::IncrementalReuse),
            12,
            "rescope keeps everything"
        );
        // The racy counters are published as their asserted ceilings.
        assert_eq!(
            snap.counter(Counter::ShardContention),
            storm_cap(Counter::ShardContention)
        );
        assert_eq!(
            snap.counter(Counter::TableReadRetries),
            storm_cap(Counter::TableReadRetries)
        );
    }

    #[test]
    fn eviction_workload_overflows_the_fifo() {
        let snap = table_eviction();
        assert_eq!(snap.counter(Counter::TableInserts), 16);
        assert_eq!(
            snap.counter(Counter::TableEvictions),
            12,
            "16 distinct inserts into capacity 4"
        );
    }
}
