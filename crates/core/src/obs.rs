//! Zero-dependency observability: metric counters, phase timers, and a
//! structured trace sink for the whole prover pipeline.
//!
//! Every layer of the workspace — the proof table ([`crate::table`]), the
//! table shared by worker threads ([`crate::shard`]), the constraint matcher
//! ([`crate::cmatch`]), the clause/query checkers ([`crate::welltyped`]),
//! the lint driver ([`crate::lint`]), the worker pool ([`crate::par`]) and
//! the CLI — reports into one [`MetricsRegistry`]. The registry is a fixed
//! array of relaxed `AtomicU64`s plus per-phase monotonic timers, cheap
//! enough to stay compiled-in unconditionally: an uncontended relaxed
//! fetch-add is a handful of nanoseconds, orders of magnitude below the
//! cost of one canonical table-key rename. There is no feature gate and no
//! third-party tracing crate (the build environment is offline by policy);
//! see DESIGN.md decision 11 for the trade-off discussion.
//!
//! Three consumers sit on top:
//!
//! * **Stats structs as views.** [`crate::table::TableStats`] (for a
//!   serial or a shared table alike) is a read-only snapshot of registry
//!   counters — one accounting path, no ad-hoc merging.
//! * **`--stats`.** [`MetricsSnapshot`] renders a byte-stable JSON document
//!   (schema `slp-metrics/1`, fixed field order) or a human table; the CLI
//!   prints it on **stderr** so result output on stdout is untouched.
//! * **`--trace FILE`.** When a sink is installed, instrumented sites emit
//!   one JSONL span event per line ([`TraceEvent`]): subtype-proof
//!   start/end with the canonical key, table hit/miss/evict/invalidate,
//!   waits on a shared table's lock, cmatch node expansions, clause-check
//!   begin/end.
//!
//! The [`json`] submodule is a small serde-free JSON value type with a
//! canonical renderer and a recursive-descent parser; golden tests
//! round-trip the `--stats` document through it byte-for-byte.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Monotonic event counters, one slot per variant.
///
/// The variant order **is** the schema order of the `counters` object in
/// the `slp-metrics/1` JSON document; append new counters at the end and
/// bump the schema version if an existing name must change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Proof-table lookups answered from cache.
    TableHits,
    /// Proof-table lookups that missed (fresh derivation needed).
    TableMisses,
    /// Verdicts inserted into a proof table.
    TableInserts,
    /// Entries evicted by FIFO capacity pressure.
    TableEvictions,
    /// Wholesale invalidations on generation mismatch.
    TableInvalidations,
    /// Inserts into a shared proof table that found its lock held by
    /// another worker (`try_lock` failed) and waited for it. Zero on every
    /// serial run by construction.
    ShardContention,
    /// Subtype proof obligations submitted to a prover (tabled or not).
    SubtypeGoals,
    /// Speculative constructor-expansion branches explored by `cmatch`.
    CmatchExpansions,
    /// Clauses checked for Definition-16 well-typedness.
    ClauseChecks,
    /// Queries checked for well-typedness.
    QueryChecks,
    /// Resolvents audited during Theorem-6 consistency runs.
    AuditResolvents,
    /// Lint driver invocations (one per module linted).
    LintRuns,
    /// Diagnostics produced by the lint driver.
    LintDiagnostics,
    /// Batches dispatched through the worker pool.
    PoolBatches,
    /// Items dispatched through the worker pool.
    PoolItems,
    /// Clause-head unification attempts in the engine.
    EngineAttempts,
    /// Resolution steps taken by the engine.
    EngineSteps,
    /// Engine searches cut off at the depth bound.
    EngineDepthCutoffs,
    /// Source files processed by the CLI.
    FilesProcessed,
    /// Proof witnesses attached to `Proved` verdicts. Only the
    /// evidence-carrying solves emit them (`check`, `explain`, `lint`,
    /// `serve`); the Theorem-6 audit's verdict-only check emits none.
    WitnessEmitted,
    /// Witness chains that replayed successfully under validation.
    WitnessValidated,
    /// Witness chains rejected by validation.
    WitnessInvalid,
    /// Total size (member count) of refutation cores emitted; divide by
    /// refuted witnessed verdicts for the mean core size.
    RefutedCoreSize,
    /// Requests a `slp serve` session answered (any outcome, including
    /// errors — everything that got a response line).
    RequestsServed,
    /// Requests shed by a serve session's bounded queue (answered with a
    /// `retry_after` hint instead of being processed).
    RequestsShed,
    /// Requests whose processing panicked and was contained at the request
    /// boundary (`catch_unwind`).
    RequestsPanicked,
    /// Requests that hit their deadline and degraded to an `Unknown`
    /// verdict.
    DeadlineExceeded,
    /// Requests (or lint/cmatch passes) whose resource budget ran out,
    /// degrading to an `Unknown` verdict or an exhaustion diagnostic.
    BudgetExhausted,
    /// Proof-table entries retained across a per-constraint rescope
    /// (incremental invalidation) instead of being discarded wholesale.
    IncrementalReuse,
    /// Predicates whose argument modes were inferred (or re-checked) by
    /// the mode fixpoint, one per predicate per fixpoint round.
    ModeInferences,
    /// Mode-discipline violations found, statically (E0601/E0604) or on an
    /// audited resolvent.
    ModeViolations,
    /// Resolvents whose selected atom was checked for input-boundedness
    /// during `audit --modes` runs.
    AuditModeResolvents,
    /// Subtype goals (or cmatch expansion branches) answered by the
    /// precomputed ground closure in O(1), skipping prover, table, and key
    /// construction entirely.
    ClosureHits,
    /// Fully-ground goals the closure had to hand back to the prover
    /// because their supertype lies outside the precomputed node set.
    ClosureMisses,
    /// Terms flat-encoded into canonical proof-table key codes (two per
    /// subtype goal that reaches the table layer).
    ArenaTerms,
    /// Lookups in a shared proof table that found its lock held by another
    /// worker (`try_lock` failed) and waited for it. Zero on every serial
    /// run by construction.
    TableReadRetries,
    /// Retired: the pool claims chunks from one shared cursor and steals
    /// nothing, so this is always 0. The key stays in `slp-metrics/1` for
    /// the readers that index it.
    Steals,
    /// Retired with [`Counter::Steals`]: always 0. The key stays in
    /// `slp-metrics/1` for the readers that index it.
    StealFailures,
}

impl Counter {
    /// Every counter, in schema order.
    pub const ALL: [Counter; 38] = [
        Counter::TableHits,
        Counter::TableMisses,
        Counter::TableInserts,
        Counter::TableEvictions,
        Counter::TableInvalidations,
        Counter::ShardContention,
        Counter::SubtypeGoals,
        Counter::CmatchExpansions,
        Counter::ClauseChecks,
        Counter::QueryChecks,
        Counter::AuditResolvents,
        Counter::LintRuns,
        Counter::LintDiagnostics,
        Counter::PoolBatches,
        Counter::PoolItems,
        Counter::EngineAttempts,
        Counter::EngineSteps,
        Counter::EngineDepthCutoffs,
        Counter::FilesProcessed,
        Counter::WitnessEmitted,
        Counter::WitnessValidated,
        Counter::WitnessInvalid,
        Counter::RefutedCoreSize,
        Counter::RequestsServed,
        Counter::RequestsShed,
        Counter::RequestsPanicked,
        Counter::DeadlineExceeded,
        Counter::BudgetExhausted,
        Counter::IncrementalReuse,
        Counter::ModeInferences,
        Counter::ModeViolations,
        Counter::AuditModeResolvents,
        Counter::ClosureHits,
        Counter::ClosureMisses,
        Counter::ArenaTerms,
        Counter::TableReadRetries,
        Counter::Steals,
        Counter::StealFailures,
    ];

    /// Number of counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TableHits => "table_hits",
            Counter::TableMisses => "table_misses",
            Counter::TableInserts => "table_inserts",
            Counter::TableEvictions => "table_evictions",
            Counter::TableInvalidations => "table_invalidations",
            Counter::ShardContention => "shard_contention",
            Counter::SubtypeGoals => "subtype_goals",
            Counter::CmatchExpansions => "cmatch_expansions",
            Counter::ClauseChecks => "clause_checks",
            Counter::QueryChecks => "query_checks",
            Counter::AuditResolvents => "audit_resolvents",
            Counter::LintRuns => "lint_runs",
            Counter::LintDiagnostics => "lint_diagnostics",
            Counter::PoolBatches => "pool_batches",
            Counter::PoolItems => "pool_items",
            Counter::EngineAttempts => "engine_attempts",
            Counter::EngineSteps => "engine_steps",
            Counter::EngineDepthCutoffs => "engine_depth_cutoffs",
            Counter::FilesProcessed => "files_processed",
            Counter::WitnessEmitted => "witness_emitted",
            Counter::WitnessValidated => "witness_validated",
            Counter::WitnessInvalid => "witness_invalid",
            Counter::RefutedCoreSize => "refuted_core_size",
            Counter::RequestsServed => "requests_served",
            Counter::RequestsShed => "requests_shed",
            Counter::RequestsPanicked => "requests_panicked",
            Counter::DeadlineExceeded => "deadline_exceeded",
            Counter::BudgetExhausted => "budget_exhausted",
            Counter::IncrementalReuse => "incremental_reuse",
            Counter::ModeInferences => "mode_inferences",
            Counter::ModeViolations => "mode_violations",
            Counter::AuditModeResolvents => "audit_mode_resolvents",
            Counter::ClosureHits => "closure_hits",
            Counter::ClosureMisses => "closure_misses",
            Counter::ArenaTerms => "arena_terms",
            Counter::TableReadRetries => "table_read_retries",
            Counter::Steals => "steals",
            Counter::StealFailures => "steal_failures",
        }
    }

    /// Whether this counter is invariant under worker scheduling.
    ///
    /// Cache-traffic counters are *not*: two workers may derive the same
    /// subtype goal concurrently before either inserts it, turning one
    /// would-be hit into a second miss. Work counters (goals submitted,
    /// clauses checked, engine steps, …) count obligations, not cache
    /// luck, and must come out identical for `--jobs 1` and `--jobs 4`.
    /// Witness *validation* tallies follow the table population (a
    /// `--verify-witnesses` audit replays whatever entries survived), so
    /// they inherit the cache counters' variance — as does
    /// `IncrementalReuse`, which counts survivors of a rescope. The serve
    /// request counters *are* invariant: faults are keyed off request
    /// sequence numbers (see [`FaultPlan`]), not clocks or thread timing.
    /// Waits on the shared table's lock are scheduling luck by definition
    /// and excluded too.
    pub fn scheduling_invariant(self) -> bool {
        !matches!(
            self,
            Counter::TableHits
                | Counter::TableMisses
                | Counter::TableInserts
                | Counter::TableEvictions
                | Counter::TableInvalidations
                | Counter::ShardContention
                | Counter::PoolBatches
                | Counter::PoolItems
                | Counter::WitnessValidated
                | Counter::WitnessInvalid
                | Counter::IncrementalReuse
                | Counter::TableReadRetries
        )
    }

    /// Whether a perf baseline should treat this counter as an upper
    /// *bound* rather than an exact expectation.
    ///
    /// Waits on the shared table's lock depend on how the OS interleaves
    /// racing threads: re-running the same workload legitimately lands on
    /// different (small) values. The `contention_storm` bench therefore
    /// asserts a generous ceiling on the measured value and publishes the
    /// *ceiling* in its snapshot, so the emitted document stays
    /// deterministic and `report --smoke` can keep comparing byte-exactly.
    /// Every other counter is reported as measured.
    pub fn bounded_in_baselines(self) -> bool {
        matches!(self, Counter::ShardContention | Counter::TableReadRetries)
    }
}

/// Wall-clock phase timers, one slot per variant.
///
/// Variant order is the schema order of the `timers` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// Source text to AST.
    Parse,
    /// Module validation (declarations, arities, constraint closure).
    Validate,
    /// Definition-16 clause checking.
    CheckClause,
    /// Query checking.
    CheckQuery,
    /// Subtype proving (tabled or direct), including cache lookups.
    SubtypeProve,
    /// Lint driver passes.
    Lint,
    /// Engine solving (query execution and audited runs).
    EngineSolve,
}

impl Timer {
    /// Every timer, in schema order.
    pub const ALL: [Timer; 7] = [
        Timer::Parse,
        Timer::Validate,
        Timer::CheckClause,
        Timer::CheckQuery,
        Timer::SubtypeProve,
        Timer::Lint,
        Timer::EngineSolve,
    ];

    /// Number of timers.
    pub const COUNT: usize = Timer::ALL.len();

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Parse => "parse",
            Timer::Validate => "validate",
            Timer::CheckClause => "check_clause",
            Timer::CheckQuery => "check_query",
            Timer::SubtypeProve => "subtype_prove",
            Timer::Lint => "lint",
            Timer::EngineSolve => "engine_solve",
        }
    }
}

/// A structured span/point event for the JSONL trace log.
///
/// Borrowed string fields keep emission allocation-free at the call site
/// except for the canonical-key fingerprints, which are only rendered when
/// a sink is installed (guard with [`MetricsRegistry::tracing`]).
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent<'a> {
    /// A subtype proof obligation was submitted; `key` is the canonical
    /// table-key fingerprint.
    SubtypeStart {
        /// Canonical key fingerprint.
        key: &'a str,
    },
    /// A subtype proof finished.
    SubtypeEnd {
        /// Canonical key fingerprint.
        key: &'a str,
        /// `"proved"`, `"refuted"`, or `"unknown"`.
        verdict: &'a str,
        /// Span duration in nanoseconds.
        nanos: u64,
    },
    /// Proof-table lookup answered from cache.
    TableHit {
        /// Canonical key fingerprint.
        key: &'a str,
    },
    /// Proof-table lookup missed.
    TableMiss {
        /// Canonical key fingerprint.
        key: &'a str,
    },
    /// FIFO eviction under capacity pressure.
    TableEvict {
        /// Fingerprint of the evicted key.
        key: &'a str,
    },
    /// Wholesale invalidation on generation mismatch.
    TableInvalidate {
        /// The new generation stamp.
        generation: u64,
    },
    /// A shared table's lock was held by another worker on first try.
    ShardContention {
        /// Always 0: the table is one mutex.
        shard: usize,
    },
    /// A shared table whose mutex a panic poisoned was recovered: it was
    /// cleared and the poison lifted, so later requests rebuild the cache
    /// instead of erroring forever.
    ShardPoisonRecovered {
        /// Always 0: the table is one mutex.
        shard: usize,
    },
    /// A serve session accepted a request.
    ServeRequest {
        /// Request sequence number (1-based, arrival order).
        seq: u64,
        /// The request's `op` field.
        op: &'a str,
    },
    /// A serve session finished a request.
    ServeResponse {
        /// Request sequence number.
        seq: u64,
        /// Response status: `"ok"`, `"error"`, `"panic"`, `"shed"`,
        /// `"deadline"`, or `"budget"`.
        status: &'a str,
    },
    /// `cmatch` explored one speculative constructor-expansion branch.
    CmatchExpand {
        /// Printed name of the type constructor being expanded.
        ctor: &'a str,
    },
    /// A clause or query check began.
    CheckBegin {
        /// `"clause"` or `"query"`.
        kind: &'a str,
    },
    /// A clause or query check finished.
    CheckEnd {
        /// `"clause"` or `"query"`.
        kind: &'a str,
        /// Whether the check succeeded.
        ok: bool,
        /// Span duration in nanoseconds.
        nanos: u64,
    },
    /// The mode fixpoint visited one predicate (declared or inferred).
    ModeInfer {
        /// Printed name of the predicate.
        pred: &'a str,
        /// The mode string at this point, e.g. `"+-"`.
        modes: &'a str,
    },
    /// A mode-discipline check fired on an audited resolvent.
    ModeAudit {
        /// Printed name of the selected atom's predicate.
        pred: &'a str,
        /// Whether the selected atom's `+` positions were all ground.
        ok: bool,
    },
    /// A ground-fragment closure was built (or adopted) for a module load.
    ClosureBuild {
        /// Ground types enrolled as nodes.
        nodes: u64,
        /// ε-expansion edges between nodes.
        edges: u64,
        /// Strongly connected components of the ε-graph.
        sccs: u64,
        /// True when a serve delta adopted the previous closure instead of
        /// rebuilding.
        reused: bool,
    },
}

impl TraceEvent<'_> {
    /// Stable event name used in the `ev` field of the JSONL record.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SubtypeStart { .. } => "subtype.start",
            TraceEvent::SubtypeEnd { .. } => "subtype.end",
            TraceEvent::TableHit { .. } => "table.hit",
            TraceEvent::TableMiss { .. } => "table.miss",
            TraceEvent::TableEvict { .. } => "table.evict",
            TraceEvent::TableInvalidate { .. } => "table.invalidate",
            TraceEvent::ShardContention { .. } => "shard.contention",
            TraceEvent::ShardPoisonRecovered { .. } => "shard.poison_recovered",
            TraceEvent::ServeRequest { .. } => "serve.request",
            TraceEvent::ServeResponse { .. } => "serve.response",
            TraceEvent::CmatchExpand { .. } => "cmatch.expand",
            TraceEvent::CheckBegin { .. } => "check.begin",
            TraceEvent::CheckEnd { .. } => "check.end",
            TraceEvent::ModeInfer { .. } => "mode.infer",
            TraceEvent::ModeAudit { .. } => "mode.audit",
            TraceEvent::ClosureBuild { .. } => "closure.build",
        }
    }

    fn payload(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TraceEvent::SubtypeStart { key }
            | TraceEvent::TableHit { key }
            | TraceEvent::TableMiss { key }
            | TraceEvent::TableEvict { key } => {
                let _ = write!(out, ",\"key\":{}", json::escape(key));
            }
            TraceEvent::SubtypeEnd {
                key,
                verdict,
                nanos,
            } => {
                let _ = write!(
                    out,
                    ",\"key\":{},\"verdict\":{},\"nanos\":{nanos}",
                    json::escape(key),
                    json::escape(verdict)
                );
            }
            TraceEvent::TableInvalidate { generation } => {
                let _ = write!(out, ",\"generation\":{generation}");
            }
            TraceEvent::ShardContention { shard } | TraceEvent::ShardPoisonRecovered { shard } => {
                let _ = write!(out, ",\"shard\":{shard}");
            }
            TraceEvent::ServeRequest { seq, op } => {
                let _ = write!(out, ",\"req\":{seq},\"op\":{}", json::escape(op));
            }
            TraceEvent::ServeResponse { seq, status } => {
                let _ = write!(out, ",\"req\":{seq},\"status\":{}", json::escape(status));
            }
            TraceEvent::CmatchExpand { ctor } => {
                let _ = write!(out, ",\"ctor\":{}", json::escape(ctor));
            }
            TraceEvent::CheckBegin { kind } => {
                let _ = write!(out, ",\"kind\":{}", json::escape(kind));
            }
            TraceEvent::CheckEnd { kind, ok, nanos } => {
                let _ = write!(
                    out,
                    ",\"kind\":{},\"ok\":{ok},\"nanos\":{nanos}",
                    json::escape(kind)
                );
            }
            TraceEvent::ModeInfer { pred, modes } => {
                let _ = write!(
                    out,
                    ",\"pred\":{},\"modes\":{}",
                    json::escape(pred),
                    json::escape(modes)
                );
            }
            TraceEvent::ModeAudit { pred, ok } => {
                let _ = write!(out, ",\"pred\":{},\"ok\":{ok}", json::escape(pred));
            }
            TraceEvent::ClosureBuild {
                nodes,
                edges,
                sccs,
                reused,
            } => {
                let _ = write!(
                    out,
                    ",\"nodes\":{nodes},\"edges\":{edges},\"sccs\":{sccs},\"reused\":{reused}"
                );
            }
        }
    }
}

/// The shared metrics registry: fixed arrays of relaxed atomic counters
/// and timers, plus an optional trace sink.
///
/// Cloned freely behind an [`Arc`]; every instrumented layer holds either
/// the `Arc` or a borrowed reference. All mutation is `&self`.
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    timer_nanos: [AtomicU64; Timer::COUNT],
    timer_calls: [AtomicU64; Timer::COUNT],
    epoch: Instant,
    trace_on: AtomicBool,
    trace_seq: AtomicU64,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("snapshot", &self.snapshot())
            .field("tracing", &self.tracing())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with no trace sink.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timer_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            timer_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            epoch: Instant::now(),
            trace_on: AtomicBool::new(false),
            trace_seq: AtomicU64::new(0),
            trace: Mutex::new(None),
        }
    }

    /// Creates an empty registry already wrapped in an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(MetricsRegistry::new())
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if n != 0 {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one completed span of `timer`.
    #[inline]
    pub fn observe(&self, timer: Timer, elapsed: Duration) {
        self.timer_calls[timer as usize].fetch_add(1, Ordering::Relaxed);
        self.timer_nanos[timer as usize].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Starts a span of `timer`; the returned guard records the elapsed
    /// time when dropped.
    #[inline]
    pub fn start(&self, timer: Timer) -> TimerGuard<'_> {
        TimerGuard {
            obs: self,
            timer,
            begun: Instant::now(),
        }
    }

    /// Installs a JSONL trace sink; subsequent instrumented events are
    /// written one per line.
    pub fn set_trace(&self, sink: Box<dyn Write + Send>) {
        *self.trace.lock().expect("trace sink lock") = Some(sink);
        self.trace_on.store(true, Ordering::Release);
    }

    /// Removes and returns the trace sink (callers should flush/close it).
    pub fn take_trace(&self) -> Option<Box<dyn Write + Send>> {
        self.trace_on.store(false, Ordering::Release);
        self.trace.lock().expect("trace sink lock").take()
    }

    /// Whether a trace sink is installed. Instrumented sites use this to
    /// skip rendering key fingerprints when nobody is listening.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace_on.load(Ordering::Acquire)
    }

    /// Emits one trace event as a JSONL record:
    /// `{"seq":N,"t_ns":T,"ev":"table.hit",...payload}`.
    ///
    /// A no-op when no sink is installed. Write errors disable the sink
    /// rather than panicking mid-proof.
    #[inline]
    pub fn trace(&self, event: &TraceEvent<'_>) {
        if !self.tracing() {
            return;
        }
        self.write_trace(event);
    }

    /// Renders and writes one trace record. `seq` and `t_ns` are drawn
    /// while the sink lock is held, so records land in `seq` order even
    /// when several workers trace at once. Kept out of line so the callers
    /// of [`MetricsRegistry::trace`] inline only the `tracing` check.
    #[cold]
    #[inline(never)]
    fn write_trace(&self, event: &TraceEvent<'_>) {
        let mut sink = self.trace.lock().expect("trace sink lock");
        let Some(w) = sink.as_mut() else {
            return;
        };
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut line = format!(
            "{{\"seq\":{seq},\"t_ns\":{t_ns},\"ev\":\"{}\"",
            event.name()
        );
        event.payload(&mut line);
        line.push_str("}\n");
        if w.write_all(line.as_bytes()).is_err() {
            *sink = None;
            self.trace_on.store(false, Ordering::Release);
        }
    }

    /// Takes a point-in-time snapshot of every counter and timer.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            timer_nanos: std::array::from_fn(|i| self.timer_nanos[i].load(Ordering::Relaxed)),
            timer_calls: std::array::from_fn(|i| self.timer_calls[i].load(Ordering::Relaxed)),
        }
    }

    /// Seeds this registry with the values of `snap` (used by proof-table
    /// `Clone`, so a cloned table starts from its source's tallies without
    /// sharing the live registry).
    pub fn seed(&self, snap: &MetricsSnapshot) {
        for (i, v) in snap.counters.iter().enumerate() {
            self.counters[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.timer_nanos.iter().enumerate() {
            self.timer_nanos[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.timer_calls.iter().enumerate() {
            self.timer_calls[i].store(*v, Ordering::Relaxed);
        }
    }
}

/// RAII span guard returned by [`MetricsRegistry::start`].
#[derive(Debug)]
pub struct TimerGuard<'a> {
    obs: &'a MetricsRegistry,
    timer: Timer,
    begun: Instant,
}

impl TimerGuard<'_> {
    /// Nanoseconds elapsed since the span began (without ending it).
    pub fn elapsed_nanos(&self) -> u64 {
        self.begun.elapsed().as_nanos() as u64
    }
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.obs.observe(self.timer, self.begun.elapsed());
    }
}

/// A point-in-time copy of every metric, decoupled from the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    timer_nanos: [u64; Timer::COUNT],
    timer_calls: [u64; Timer::COUNT],
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Total nanoseconds recorded for one timer.
    pub fn timer_nanos(&self, timer: Timer) -> u64 {
        self.timer_nanos[timer as usize]
    }

    /// Number of spans recorded for one timer.
    pub fn timer_calls(&self, timer: Timer) -> u64 {
        self.timer_calls[timer as usize]
    }

    /// Proof-table hit rate in `[0, 1]` (`0` when there were no lookups).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.counter(Counter::TableHits);
        let total = hits + self.counter(Counter::TableMisses);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The scheduling-invariant counters, in schema order — the subset a
    /// `--jobs 1` and `--jobs 4` run must agree on exactly.
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|c| c.scheduling_invariant())
            .map(|c| (c.name(), self.counter(*c)))
            .collect()
    }

    /// The `slp-metrics/1` document as a JSON value with canonical field
    /// order: `schema`, then `counters` (in [`Counter::ALL`] order),
    /// `derived`, and `timers` (in [`Timer::ALL`] order).
    pub fn to_json(&self) -> json::JsonValue {
        use json::JsonValue as J;
        let counters = Counter::ALL
            .iter()
            .map(|c| (c.name().to_string(), J::num(self.counter(*c))))
            .collect();
        let derived = vec![
            (
                "table_hit_rate".to_string(),
                J::Num(format!("{:.6}", self.hit_rate())),
            ),
            (
                "table_lookups".to_string(),
                J::num(self.counter(Counter::TableHits) + self.counter(Counter::TableMisses)),
            ),
        ];
        let timers = Timer::ALL
            .iter()
            .map(|t| {
                (
                    t.name().to_string(),
                    J::Obj(vec![
                        ("calls".to_string(), J::num(self.timer_calls(*t))),
                        ("nanos".to_string(), J::num(self.timer_nanos(*t))),
                    ]),
                )
            })
            .collect();
        J::Obj(vec![
            ("schema".to_string(), J::Str("slp-metrics/1".to_string())),
            ("counters".to_string(), J::Obj(counters)),
            ("derived".to_string(), J::Obj(derived)),
            ("timers".to_string(), J::Obj(timers)),
        ])
    }

    /// The canonical single-line JSON rendering of [`Self::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// A human-readable multi-line rendering (counters, derived rates,
    /// then timers with millisecond totals).
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("metrics (slp-metrics/1)\ncounters:\n");
        for c in Counter::ALL {
            let _ = writeln!(out, "  {:<22} {}", c.name(), self.counter(c));
        }
        let _ = writeln!(
            out,
            "derived:\n  {:<22} {:.1}%",
            "table_hit_rate",
            self.hit_rate() * 100.0
        );
        out.push_str("timers:\n");
        for t in Timer::ALL {
            let _ = writeln!(
                out,
                "  {:<22} {} calls, {:.3} ms",
                t.name(),
                self.timer_calls(t),
                self.timer_nanos(t) as f64 / 1.0e6
            );
        }
        out
    }
}

/// One injected fault in a [`FaultPlan`].
///
/// Faults are *deterministic*: a plan maps request sequence numbers to
/// faults, so a faulted serve session replays identically under any
/// worker count or machine speed — the property the fault-injection
/// goldens and the differential proptest rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside request processing (must be contained by the request
    /// boundary's `catch_unwind`, possibly leaving the proof-table store
    /// poison-flagged).
    Panic,
    /// Force the request's resource budget to be exhausted up front, so
    /// checking degrades to `Unknown` verdicts.
    Exhaust,
    /// Simulate a request slow enough to blow its deadline (charged
    /// against the deadline accounting, not a real clock).
    Slow,
    /// Simulate queue overload: the request is shed with a `retry_after`
    /// hint before any processing.
    Shed,
}

impl Fault {
    /// Stable lowercase name used in plan specs and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Exhaust => "exhaust",
            Fault::Slow => "slow",
            Fault::Shed => "shed",
        }
    }
}

/// A deterministic fault-injection schedule for a serve session.
///
/// Parsed from a spec like `"panic@3,exhaust@5,slow@7,shed@9"`: each
/// entry injects one [`Fault`] at the given request sequence number
/// (1-based, in arrival order). Sequence numbers — never clocks or
/// thread interleavings — key the schedule, so a plan is replayable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parses a comma-separated `fault@seq` spec (e.g.
    /// `"panic@3,shed@9"`). Whitespace around entries is ignored; an
    /// empty spec yields the empty plan.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, seq) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}` is not of the form fault@seq"))?;
            let fault = match kind.trim() {
                "panic" => Fault::Panic,
                "exhaust" => Fault::Exhaust,
                "slow" => Fault::Slow,
                "shed" => Fault::Shed,
                other => {
                    return Err(format!(
                        "unknown fault `{other}` (expected panic, exhaust, slow, or shed)"
                    ))
                }
            };
            let seq: u64 = seq
                .trim()
                .parse()
                .map_err(|_| format!("fault entry `{entry}` has a non-numeric sequence number"))?;
            entries.push((seq, fault));
        }
        entries.sort_by_key(|&(seq, _)| seq);
        Ok(FaultPlan { entries })
    }

    /// The fault injected at request `seq`, if any (first match wins when
    /// a spec lists the same sequence number twice).
    pub fn fault_at(&self, seq: u64) -> Option<Fault> {
        self.entries
            .iter()
            .find(|&&(s, _)| s == seq)
            .map(|&(_, f)| f)
    }

    /// Whether the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Serde-free JSON: an ordered value type, a canonical renderer, and a
/// recursive-descent parser.
///
/// Objects preserve insertion order (`Vec` of pairs, not a map) and
/// numbers keep their raw source text (`Num(String)`), so a canonical
/// document survives `parse` → `render` byte-for-byte — the property the
/// `--stats` golden test pins.
pub mod json {
    /// A JSON value with ordered objects and raw-text numbers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, kept as its raw literal text.
        Num(String),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<JsonValue>),
        /// An object with fields in insertion order.
        Obj(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// An integer literal.
        pub fn num(n: u64) -> JsonValue {
            JsonValue::Num(n.to_string())
        }

        /// Looks up a field of an object.
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a `u64`, if it is an integer literal.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The value as an `f64`, if it is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The value as a string slice, if it is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Canonical compact rendering: no whitespace, object fields in
        /// stored order, numbers verbatim.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Num(raw) => out.push_str(raw),
                JsonValue::Str(s) => escape_into(out, s),
                JsonValue::Arr(items) => {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        v.render_into(out);
                    }
                    out.push(']');
                }
                JsonValue::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        escape_into(out, k);
                        out.push(':');
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Parses a complete JSON document (trailing whitespace allowed,
        /// trailing garbage rejected).
        pub fn parse(src: &str) -> Result<JsonValue, String> {
            let bytes = src.as_bytes();
            let mut pos = 0usize;
            let value = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(value)
        }
    }

    /// Escapes `s` as a JSON string literal (with surrounding quotes),
    /// using the canonical short escapes plus `\u00XX` for other control
    /// characters.
    pub fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    /// Appends `s` to `out` as a JSON string literal (the encoding of
    /// [`escape`]), copying the runs between escapes in one piece.
    pub fn escape_into(out: &mut String, s: &str) {
        use std::fmt::Write as _;
        out.reserve(s.len() + 2);
        out.push('"');
        let mut run = 0;
        for (i, c) in s.char_indices() {
            if c != '"' && c != '\\' && (c as u32) >= 0x20 {
                continue;
            }
            out.push_str(&s[run..i]);
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
            }
            run = i + c.len_utf8();
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
            Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    fields.push((key, parse_value(bytes, pos)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(JsonValue::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let raw = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid utf-8 in number".to_string())?;
                raw.parse::<f64>()
                    .map_err(|_| format!("invalid number {raw:?} at byte {start}"))?;
                Ok(JsonValue::Num(raw.to_string()))
            }
            Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
        }
    }

    fn parse_lit(
        bytes: &[u8],
        pos: &mut usize,
        lit: &str,
        value: JsonValue,
    ) -> Result<JsonValue, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(char::from_u32(cp).ok_or("surrogate \\u escape unsupported")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary, and each
                    // byte is validated once.
                    let start = *pos;
                    while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                        *pos += 1;
                    }
                    let run = std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::JsonValue;
    use super::*;

    #[test]
    fn counters_count_and_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants must be dense and ordered");
        }
    }

    #[test]
    fn fault_plan_parses_and_keys_off_sequence_numbers() {
        let plan = FaultPlan::parse("panic@3, exhaust@5,slow@7,shed@9").unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.fault_at(3), Some(Fault::Panic));
        assert_eq!(plan.fault_at(5), Some(Fault::Exhaust));
        assert_eq!(plan.fault_at(7), Some(Fault::Slow));
        assert_eq!(plan.fault_at(9), Some(Fault::Shed));
        assert_eq!(plan.fault_at(1), None);
        assert_eq!(plan.fault_at(4), None);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::none().fault_at(1).is_none());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("oops@2").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
    }

    #[test]
    fn incr_add_and_timers_accumulate() {
        let obs = MetricsRegistry::new();
        obs.incr(Counter::TableHits);
        obs.add(Counter::TableHits, 2);
        obs.add(Counter::TableMisses, 0);
        assert_eq!(obs.get(Counter::TableHits), 3);
        assert_eq!(obs.get(Counter::TableMisses), 0);
        obs.observe(Timer::Parse, Duration::from_nanos(500));
        {
            let _g = obs.start(Timer::Parse);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.timer_calls(Timer::Parse), 2);
        assert!(snap.timer_nanos(Timer::Parse) >= 500);
    }

    #[test]
    fn snapshot_seed_round_trips() {
        let a = MetricsRegistry::new();
        a.add(Counter::SubtypeGoals, 42);
        a.observe(Timer::SubtypeProve, Duration::from_nanos(7));
        let b = MetricsRegistry::new();
        b.seed(&a.snapshot());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let obs = MetricsRegistry::new();
        assert_eq!(obs.snapshot().hit_rate(), 0.0);
        obs.add(Counter::TableHits, 3);
        obs.incr(Counter::TableMisses);
        assert!((obs.snapshot().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_document_is_stable_and_round_trips() {
        let obs = MetricsRegistry::new();
        obs.add(Counter::TableHits, 1);
        obs.add(Counter::TableMisses, 1);
        let doc = obs.snapshot().render_json();
        assert!(doc.starts_with("{\"schema\":\"slp-metrics/1\",\"counters\":{\"table_hits\":1,"));
        let parsed = JsonValue::parse(&doc).expect("canonical doc parses");
        assert_eq!(
            parsed.render(),
            doc,
            "parse/render round-trips byte-for-byte"
        );
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("table_misses"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("derived")
                .and_then(|d| d.get("table_hit_rate"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
    }

    /// An in-memory trace sink shared between a test and the registry.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Buf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_sink_receives_jsonl_events() {
        let obs = MetricsRegistry::new();
        assert!(!obs.tracing());
        obs.trace(&TraceEvent::TableHit { key: "noop" });
        let buf = Buf::default();
        obs.set_trace(Box::new(buf.clone()));
        assert!(obs.tracing());
        obs.trace(&TraceEvent::TableHit { key: "k\"1" });
        obs.trace(&TraceEvent::SubtypeEnd {
            key: "k2",
            verdict: "proved",
            nanos: 9,
        });
        obs.take_trace();
        assert!(!obs.tracing());
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "pre-sink event dropped, two captured");
        let first = JsonValue::parse(lines[0]).expect("jsonl line parses");
        assert_eq!(first.get("ev").and_then(|v| v.as_str()), Some("table.hit"));
        assert_eq!(first.get("key").and_then(|v| v.as_str()), Some("k\"1"));
        assert_eq!(first.get("seq").and_then(|v| v.as_u64()), Some(0));
        let second = JsonValue::parse(lines[1]).expect("jsonl line parses");
        assert_eq!(
            second.get("verdict").and_then(|v| v.as_str()),
            Some("proved")
        );
        assert_eq!(second.get("nanos").and_then(|v| v.as_u64()), Some(9));
    }

    #[test]
    fn concurrent_trace_lines_are_written_in_seq_order() {
        const THREADS: usize = 4;
        const EVENTS: usize = 5_000;
        let obs = MetricsRegistry::new();
        let buf = Buf::default();
        obs.set_trace(Box::new(buf.clone()));
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..EVENTS {
                        obs.trace(&TraceEvent::TableHit { key: "k" });
                    }
                });
            }
        });
        obs.take_trace();
        let seqs: Vec<u64> = buf
            .text()
            .lines()
            .filter_map(|line| JsonValue::parse(line).ok()?.get("seq")?.as_u64())
            .collect();
        let expected: Vec<u64> = (0..(THREADS * EVENTS) as u64).collect();
        assert!(seqs == expected, "trace lines left seq order");
    }

    #[test]
    fn json_strings_keep_multibyte_text_between_escapes() {
        let text = "\"é✓\\n:- p(X).\\\"x\\\"𝄞\"";
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.as_str(), Some("é✓\n:- p(X).\"x\"𝄞"));
        assert_eq!(value.render(), text);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(JsonValue::parse("{\"a\":1}x").is_err());
        assert!(JsonValue::parse("{\"a\"").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("\"\\q\"").is_err());
        assert_eq!(
            JsonValue::parse(" { \"a\" : [ 1 , -2.5e3 , \"\\u0041\" ] } ")
                .unwrap()
                .render(),
            "{\"a\":[1,-2.5e3,\"A\"]}"
        );
    }

    #[test]
    fn scheduling_invariant_split_is_sane() {
        assert!(Counter::SubtypeGoals.scheduling_invariant());
        assert!(Counter::ClauseChecks.scheduling_invariant());
        assert!(Counter::EngineSteps.scheduling_invariant());
        assert!(!Counter::TableHits.scheduling_invariant());
        assert!(!Counter::ShardContention.scheduling_invariant());
        assert!(!Counter::PoolItems.scheduling_invariant());
        assert!(Counter::RequestsServed.scheduling_invariant());
        assert!(Counter::RequestsShed.scheduling_invariant());
        assert!(Counter::DeadlineExceeded.scheduling_invariant());
        assert!(Counter::BudgetExhausted.scheduling_invariant());
        assert!(!Counter::IncrementalReuse.scheduling_invariant());
        // The mode pass runs serially over the whole module, so its
        // tallies must agree across worker counts.
        assert!(Counter::ModeInferences.scheduling_invariant());
        assert!(Counter::ModeViolations.scheduling_invariant());
        assert!(Counter::AuditModeResolvents.scheduling_invariant());
        // Closure decisions and key encodings track obligations, not cache
        // luck: each goal or expansion branch consults the closure the same
        // way regardless of worker interleaving.
        assert!(Counter::ClosureHits.scheduling_invariant());
        assert!(Counter::ClosureMisses.scheduling_invariant());
        assert!(Counter::ArenaTerms.scheduling_invariant());
        // Lock waits are scheduling luck by definition; the retired steal
        // counters are always 0, so they cannot vary.
        assert!(!Counter::TableReadRetries.scheduling_invariant());
        assert!(Counter::Steals.scheduling_invariant());
        assert!(Counter::StealFailures.scheduling_invariant());
    }

    #[test]
    fn bounded_baseline_counters_are_the_racy_subset() {
        // Only genuinely interleaving-dependent mechanism counters may be
        // published as ceilings; everything else stays exact in
        // BENCH_5.json.
        for c in Counter::ALL {
            if c.bounded_in_baselines() {
                assert!(
                    !c.scheduling_invariant(),
                    "{} cannot be both exact-invariant and bounded",
                    c.name()
                );
            }
        }
        assert!(Counter::ShardContention.bounded_in_baselines());
        assert!(Counter::TableReadRetries.bounded_in_baselines());
        assert!(!Counter::StealFailures.bounded_in_baselines());
        assert!(!Counter::Steals.bounded_in_baselines());
        assert!(!Counter::TableHits.bounded_in_baselines());
    }
}
