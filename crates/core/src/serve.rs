//! `slp serve`: a fault-tolerant persistent checking session.
//!
//! A [`ServeSession`] answers JSON-lines requests (one JSON object per
//! line in, exactly one JSON object per line out) while holding the
//! parsed module and a warm [`ShardedProofTable`] across requests, so a
//! stream of LSP/CI-style re-checks does not pay parse + table warmup
//! per request. The CLI verb (`slp serve --stdio|--socket PATH`) is a
//! thin transport around this in-process type, which is what the tests
//! drive directly.
//!
//! # Protocol
//!
//! Requests are objects with an `op` field and an optional `id` (echoed
//! verbatim in the response). Responses always carry `seq` (the 1-based
//! request sequence number, arrival order) and `status`:
//!
//! | op | request fields | ok-response fields |
//! |----|----------------|--------------------|
//! | `load` | `source` | `clauses`, `queries` |
//! | `delta` | `source` | `clauses`, `queries`, `reused` |
//! | `check` | `deadline_ms?`, `budget?` | `clauses`, `queries`, `errors`, `verdicts` |
//! | `modes` | — | `predicates`, `declared`, `inferred`, `violations`, `mismatches`, `unmoded_recursive`, `modes` |
//! | `stats` | — | the serve counters |
//! | `shutdown` | — | — |
//!
//! `status` is one of `ok`, `error` (malformed request / rejected
//! program; not retryable), or the three *retryable* degradations, each
//! carrying a `retry_after` backoff hint (seconds): `shed` (overload —
//! the request was not processed), `panic` (processing panicked and was
//! contained at the request boundary), `deadline` / `budget` (the
//! request ran out of time / resource budget; verdicts degrade to
//! `"unknown"` rather than guessing). A session survives all of them:
//! no request can exit the process or wedge the table (a table mutex
//! poisoned by a panic is recovered on next access, see
//! [`ShardedProofTable`]'s poison recovery).
//!
//! # Incremental re-checking
//!
//! `delta` replaces the program with new source and, instead of letting
//! the generation bump clear the warm table wholesale, *rescopes* it
//! per-constraint ([`ProofTable::rescope`](crate::ProofTable::rescope)):
//! cached `Proved` verdicts whose witness chains only use constraints
//! unchanged by the delta survive under the new theory; `Refuted`
//! verdicts survive only a no-op change. The survivors are reported as
//! `reused` (and accumulate into the `incremental_reuse` counter), and
//! the next `check` serves every unaffected clause's subtype conjunction
//! from cache — that is the "re-check only what changed" mechanism.
//! When the old signature is not a numbering-prefix of the new one the
//! rescope is unsound (cached `Sym`s would be reinterpreted) and the
//! session falls back to the wholesale generation clear.
//!
//! # Determinism and fault injection
//!
//! All responses are rendered through the canonical [`json`] renderer
//! and are byte-identical for `--jobs 1` and `--jobs N` (parallelism
//! only moves table traffic around; budget exhaustion deliberately
//! degrades the *whole* response, never a scheduling-dependent subset of
//! clauses). Faults come from an [`obs::FaultPlan`](FaultPlan) keyed off
//! request sequence numbers — never clocks — so a faulted session
//! replays identically anywhere; an injected `panic` unwinds while holding
//! the table's lock, so std poisons the mutex and recovery is exercised end
//! to end.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use lp_engine::Clause;
use lp_parser::{parse_module, Module};
use lp_term::{Signature, Term};

use crate::budget::Budget;
use crate::constraint::{CheckedConstraints, ConstraintSet, SubtypeConstraint};
use crate::obs::json::JsonValue;
use crate::obs::{Counter, Fault, FaultPlan, MetricsRegistry, TraceEvent};
use crate::shard::ShardedProofTable;
use crate::welltyped::{ParallelChecker, PredTypeTable};

/// Number of clauses checked between two deadline checks. Fixed (never
/// derived from `jobs`) so chunking cannot make responses
/// scheduling-dependent.
const DEADLINE_CHUNK: usize = 8;

/// Knobs for a [`ServeSession`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Clause-level parallelism within one `check` request (the
    /// responses are byte-identical for any value; see the module docs).
    pub jobs: usize,
    /// Bound on requests a queueing transport may hold before shedding.
    /// The synchronous line loop ([`ServeSession::run`]) never queues, so
    /// there shedding only arises from the fault plan; a socket transport
    /// that reads ahead sheds once this many requests are pending.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds (`None` = no
    /// deadline). A request's `deadline_ms` field overrides it.
    pub default_deadline_ms: Option<u64>,
    /// Default per-request expansion-node budget (`None` = unbounded).
    /// A request's `budget` field overrides it.
    pub default_budget: Option<u64>,
    /// Deterministic fault-injection schedule (empty in production).
    pub faults: FaultPlan,
    /// Whether `check` proves through the session's warm proof table
    /// (`false` is `slp serve --no-table`). Verdicts are the same either
    /// way; untabled, a `delta` keeps no entries, so `reused` and
    /// `incremental_reuse` stay 0.
    pub tabling: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 1,
            queue_capacity: 64,
            default_deadline_ms: None,
            default_budget: None,
            faults: FaultPlan::none(),
            tabling: true,
        }
    }
}

/// The program state a session holds between requests.
struct LoadedProgram {
    module: Module,
    checked: CheckedConstraints,
    preds: PredTypeTable,
}

/// A persistent checking session: parsed program + warm proof table +
/// request loop. See the module docs for the protocol.
pub struct ServeSession {
    config: ServeConfig,
    obs: Arc<MetricsRegistry>,
    table: ShardedProofTable,
    program: Option<LoadedProgram>,
    /// Sequence number of the last accepted request (so the next is
    /// `seq + 1`); fault plans key off this.
    seq: u64,
    closed: bool,
}

impl ServeSession {
    /// A fresh session with its own metrics registry.
    pub fn new(config: ServeConfig) -> Self {
        Self::with_metrics(config, MetricsRegistry::shared())
    }

    /// A fresh session reporting into a caller-supplied registry (the
    /// CLI passes its per-invocation registry so `--stats`/`--trace`
    /// cover the whole session).
    pub fn with_metrics(config: ServeConfig, obs: Arc<MetricsRegistry>) -> Self {
        let table = ShardedProofTable::with_metrics(obs.clone());
        ServeSession {
            config,
            obs,
            table,
            program: None,
            seq: 0,
            closed: false,
        }
    }

    /// Whether a `shutdown` request has been answered.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// The session's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Answers one request line with exactly one response line (no
    /// trailing newline). Never panics: request processing runs under
    /// `catch_unwind`, and a contained panic becomes a `panic` response.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.seq += 1;
        let seq = self.seq;
        let parsed = JsonValue::parse(line.trim());
        let (id, op) = match &parsed {
            Ok(req) => (
                req.get("id").cloned(),
                req.get("op").and_then(|v| v.as_str()).map(str::to_owned),
            ),
            Err(_) => (None, None),
        };
        if self.obs.tracing() {
            self.obs.trace(&TraceEvent::ServeRequest {
                seq,
                op: op.as_deref().unwrap_or("?"),
            });
        }
        self.obs.incr(Counter::RequestsServed);

        let response = match (&parsed, &op) {
            (Err(e), _) => error_response(&id, seq, &format!("malformed request: {e}")),
            (Ok(_), None) => error_response(&id, seq, "missing or non-string `op` field"),
            (Ok(req), Some(op)) => match self.config.faults.fault_at(seq) {
                Some(Fault::Shed) => {
                    self.obs.incr(Counter::RequestsShed);
                    retryable(&id, seq, "shed", "queue full (injected overload)")
                }
                fault => self.dispatch(req, &id, seq, op, fault),
            },
        };
        let status = response
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_owned();
        if self.obs.tracing() {
            self.obs.trace(&TraceEvent::ServeResponse {
                seq,
                status: &status,
            });
        }
        response.render()
    }

    /// Runs the synchronous request loop: one response line per request
    /// line, flushed after each, until EOF or a `shutdown` request.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors only — request-level failures are
    /// answered in-band.
    pub fn run<R: BufRead, W: Write>(&mut self, input: R, mut out: W) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            out.write_all(response.as_bytes())?;
            out.write_all(b"\n")?;
            out.flush()?;
            if self.closed {
                break;
            }
        }
        Ok(())
    }

    /// Routes one well-formed request. Runs under `catch_unwind` so a
    /// panic in parsing or checking poisons no more than the table's mutex
    /// — which the table recovers on its next access.
    fn dispatch(
        &mut self,
        req: &JsonValue,
        id: &Option<JsonValue>,
        seq: u64,
        op: &str,
        fault: Option<Fault>,
    ) -> JsonValue {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(Fault::Panic) = fault {
                // Unwind while holding the table's guard, so the injected
                // panic exercises the worst case: a panic that poisons the
                // table must neither kill the daemon nor wedge the table
                // for later requests.
                let _guard = self.table.lock();
                panic!("injected fault: panic at request {seq}");
            }
            match op {
                "load" => self.op_load(req, id, seq, false),
                "delta" => self.op_load(req, id, seq, true),
                "check" => self.op_check(req, id, seq, fault),
                "modes" => self.op_modes(id, seq),
                "stats" => self.op_stats(id, seq),
                "shutdown" => {
                    self.closed = true;
                    ok_response(id, seq, "shutdown", vec![])
                }
                other => error_response(id, seq, &format!("unknown op `{other}`")),
            }
        }));
        match outcome {
            Ok(response) => response,
            Err(payload) => {
                self.obs.incr(Counter::RequestsPanicked);
                let detail = panic_message(payload.as_ref());
                retryable(id, seq, "panic", &format!("request panicked: {detail}"))
            }
        }
    }

    /// `load` (replace wholesale) and `delta` (replace + rescope the warm
    /// table per-constraint).
    fn op_load(
        &mut self,
        req: &JsonValue,
        id: &Option<JsonValue>,
        seq: u64,
        delta: bool,
    ) -> JsonValue {
        let op = if delta { "delta" } else { "load" };
        let Some(source) = req.get("source").and_then(|v| v.as_str()) else {
            return error_response(id, seq, &format!("`{op}` needs a string `source` field"));
        };
        if delta && self.program.is_none() {
            return error_response(
                id,
                seq,
                "`delta` needs a loaded program (send `load` first)",
            );
        }
        let module = match parse_module(source) {
            Ok(m) => m,
            Err(e) => {
                return error_response(id, seq, &format!("parse error: {}", e.render(source)));
            }
        };
        // A delta adopts the previous ground closure when no watched
        // constraint list changed (see `GroundClosure::compatible_with`);
        // a changed ground edge forces a rebuild, so a rescoped table can
        // never pair with a stale closure.
        let checked = match ConstraintSet::from_module(&module).and_then(|set| {
            match (delta, self.program.as_ref()) {
                (true, Some(old)) => set.checked_reusing(&module.sig, &old.checked),
                _ => set.checked(&module.sig),
            }
        }) {
            Ok(c) => c,
            Err(e) => return error_response(id, seq, &format!("rejected declarations: {e}")),
        };
        if self.obs.tracing() {
            let closure = checked.ground_closure();
            let stats = closure.stats();
            let adopted = delta
                && self
                    .program
                    .as_ref()
                    .is_some_and(|old| Arc::ptr_eq(old.checked.ground_closure(), closure));
            self.obs.trace(&TraceEvent::ClosureBuild {
                nodes: stats.nodes as u64,
                edges: stats.edges as u64,
                sccs: stats.sccs as u64,
                reused: adopted,
            });
        }
        let preds = match PredTypeTable::from_module(&module) {
            Ok(p) => p,
            Err(e) => return error_response(id, seq, &format!("rejected predicate types: {e}")),
        };
        let reused = if delta {
            let old = self.program.as_ref().expect("checked above");
            self.rescope_for(
                &old.module.sig,
                old.checked.as_set().constraints(),
                &module,
                &checked,
            )
        } else {
            // Wholesale replacement: the fresh generation stamp clears
            // the table lazily on its next access.
            0
        };
        let mut fields = vec![
            (
                "clauses".to_owned(),
                JsonValue::num(module.clauses.len() as u64),
            ),
            (
                "queries".to_owned(),
                JsonValue::num(module.queries.len() as u64),
            ),
        ];
        if delta {
            fields.push(("reused".to_owned(), JsonValue::num(reused)));
        }
        self.program = Some(LoadedProgram {
            module,
            checked,
            preds,
        });
        ok_response(id, seq, op, fields)
    }

    /// Rescopes the warm table from the old theory to `new_checked`,
    /// returning the number of retained entries (0 when the signature
    /// prefix precondition fails and the table must clear wholesale).
    fn rescope_for(
        &self,
        old_sig: &Signature,
        old_constraints: &[SubtypeConstraint],
        new_module: &Module,
        new_checked: &CheckedConstraints,
    ) -> u64 {
        if !signature_is_prefix(old_sig, &new_module.sig) {
            return 0;
        }
        let new_constraints = new_checked.as_set().constraints();
        let keep_refuted = old_constraints == new_constraints;
        let unchanged = |i: usize| {
            new_constraints.get(i) == old_constraints.get(i) && i < old_constraints.len()
        };
        self.table
            .rescope(new_checked.generation(), &unchanged, keep_refuted)
    }

    /// `check`: all clauses and queries under the deadline and budget.
    fn op_check(
        &mut self,
        req: &JsonValue,
        id: &Option<JsonValue>,
        seq: u64,
        fault: Option<Fault>,
    ) -> JsonValue {
        let Some(program) = &self.program else {
            return error_response(
                id,
                seq,
                "`check` needs a loaded program (send `load` first)",
            );
        };
        if let Some(Fault::Exhaust) = fault {
            // Forced budget exhaustion: degrade exactly as a real
            // overdraft would, without depending on program size.
            self.obs.incr(Counter::BudgetExhausted);
            return retryable(id, seq, "budget", "budget exhausted (injected)");
        }
        let deadline_ms = req
            .get("deadline_ms")
            .and_then(|v| v.as_u64())
            .or(self.config.default_deadline_ms);
        let budget_limit = req
            .get("budget")
            .and_then(|v| v.as_u64())
            .or(self.config.default_budget);
        let force_deadline = matches!(fault, Some(Fault::Slow));
        let started = Instant::now();
        let over_deadline = |force: bool| -> bool {
            force || deadline_ms.is_some_and(|ms| started.elapsed().as_millis() as u64 > ms)
        };

        let budget = budget_limit.map(Budget::new);
        let (sig, checked, preds) = (&program.module.sig, &program.checked, &program.preds);
        let checker = if self.config.tabling {
            ParallelChecker::with_table(sig, checked, preds, &self.table, self.config.jobs)
        } else {
            ParallelChecker::new(sig, checked, preds, self.config.jobs)
        }
        .with_obs(Some(&self.obs))
        .with_budget(budget.as_ref());

        let clauses: Vec<&Clause> = program.module.clauses.iter().map(|c| &c.clause).collect();
        let queries: Vec<&[Term]> = program
            .module
            .queries
            .iter()
            .map(|q| &q.goals[..])
            .collect();

        // None = well-typed; Some(msg) = rejected with that rendering.
        let mut clause_verdicts: Vec<Option<String>> = vec![None; clauses.len()];
        for (chunk_index, chunk) in clauses.chunks(DEADLINE_CHUNK).enumerate() {
            if over_deadline(force_deadline) {
                self.obs.incr(Counter::DeadlineExceeded);
                return retryable(id, seq, "deadline", "deadline exceeded");
            }
            if let Err(errors) = checker.check_program(chunk) {
                for (i, e) in errors {
                    clause_verdicts[chunk_index * DEADLINE_CHUNK + i] = Some(e.to_string());
                }
            }
        }
        if over_deadline(force_deadline) {
            self.obs.incr(Counter::DeadlineExceeded);
            return retryable(id, seq, "deadline", "deadline exceeded");
        }
        let mut query_verdicts: Vec<Option<String>> = vec![None; queries.len()];
        if let Err(errors) = checker.check_queries(&queries) {
            for (i, e) in errors {
                query_verdicts[i] = Some(e.to_string());
            }
        }
        // An exhausted budget degrades the *whole* response: under
        // parallel checking, which clause trips the overdraft first is
        // scheduling-dependent, so per-clause attribution would break the
        // jobs-invariance of the response stream. `Unknown` for
        // everything is always sound.
        if budget.as_ref().is_some_and(|b| b.exhausted()) {
            return retryable(
                id,
                seq,
                "budget",
                &format!(
                    "expansion budget ({}) exhausted; verdicts unknown",
                    budget_limit.unwrap_or(0)
                ),
            );
        }

        let errors_total = clause_verdicts
            .iter()
            .chain(&query_verdicts)
            .filter(|v| v.is_some())
            .count();
        let mut verdicts = Vec::with_capacity(clauses.len() + queries.len());
        for (item, list) in [("clause", &clause_verdicts), ("query", &query_verdicts)] {
            for (i, v) in list.iter().enumerate() {
                let mut entry = vec![
                    ("item".to_owned(), JsonValue::Str(item.to_owned())),
                    ("index".to_owned(), JsonValue::num(i as u64)),
                    ("ok".to_owned(), JsonValue::Bool(v.is_none())),
                ];
                if let Some(msg) = v {
                    entry.push(("error".to_owned(), JsonValue::Str(msg.clone())));
                }
                verdicts.push(JsonValue::Obj(entry));
            }
        }
        ok_response(
            id,
            seq,
            "check",
            vec![
                ("clauses".to_owned(), JsonValue::num(clauses.len() as u64)),
                ("queries".to_owned(), JsonValue::num(queries.len() as u64)),
                ("errors".to_owned(), JsonValue::num(errors_total as u64)),
                ("verdicts".to_owned(), JsonValue::Arr(verdicts)),
            ],
        )
    }

    /// `modes`: the fixpoint mode report of the loaded module — declared
    /// `MODE` predicates checked, the rest inferred — against the warm
    /// module, so an editor can ask for modes without reloading. The row
    /// order follows symbol declaration order and the response is
    /// byte-identical across job counts (the analysis is serial).
    fn op_modes(&self, id: &Option<JsonValue>, seq: u64) -> JsonValue {
        let Some(program) = &self.program else {
            return error_response(
                id,
                seq,
                "`modes` needs a loaded program (send `load` first)",
            );
        };
        let report = crate::modes::ModeAnalysis::new(&program.module)
            .with_obs(Some(&self.obs))
            .run();
        let sig = &program.module.sig;
        let rows = report
            .modes
            .iter()
            .map(|(&p, modes)| {
                JsonValue::Obj(vec![
                    ("pred".to_owned(), JsonValue::Str(sig.name(p).to_owned())),
                    (
                        "modes".to_owned(),
                        JsonValue::Str(crate::modes::mode_string(modes)),
                    ),
                    (
                        "declared".to_owned(),
                        JsonValue::Bool(report.declared.contains(&p)),
                    ),
                ])
            })
            .collect();
        ok_response(
            id,
            seq,
            "modes",
            vec![
                (
                    "predicates".to_owned(),
                    JsonValue::num(report.modes.len() as u64),
                ),
                (
                    "declared".to_owned(),
                    JsonValue::num(report.declared.len() as u64),
                ),
                (
                    "inferred".to_owned(),
                    JsonValue::num((report.modes.len() - report.declared.len()) as u64),
                ),
                (
                    "violations".to_owned(),
                    JsonValue::num(report.violations.len() as u64),
                ),
                (
                    "mismatches".to_owned(),
                    JsonValue::num(report.mismatches.len() as u64),
                ),
                (
                    "unmoded_recursive".to_owned(),
                    JsonValue::num(report.unmoded_recursive.len() as u64),
                ),
                ("modes".to_owned(), JsonValue::Arr(rows)),
            ],
        )
    }

    /// `stats`: the serve-relevant counters.
    fn op_stats(&self, id: &Option<JsonValue>, seq: u64) -> JsonValue {
        let fields = [
            Counter::RequestsServed,
            Counter::RequestsShed,
            Counter::RequestsPanicked,
            Counter::DeadlineExceeded,
            Counter::BudgetExhausted,
            Counter::IncrementalReuse,
        ]
        .into_iter()
        .map(|c| (c.name().to_owned(), JsonValue::num(self.obs.get(c))))
        .collect();
        ok_response(id, seq, "stats", fields)
    }
}

/// Whether `old`'s symbol numbering is a prefix of `new`'s: every `Sym`
/// minted under `old` denotes the same (name, kind, arity) under `new`,
/// so terms cached before the delta keep their meaning after it.
fn signature_is_prefix(old: &Signature, new: &Signature) -> bool {
    old.len() <= new.len()
        && old.symbols().zip(new.symbols()).all(|(a, b)| {
            old.name(a) == new.name(b) && old.kind(a) == new.kind(b) && old.arity(a) == new.arity(b)
        })
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// `{"id"?,...,"seq":N,"status":"ok","op":OP, ...fields}`
fn ok_response(
    id: &Option<JsonValue>,
    seq: u64,
    op: &str,
    fields: Vec<(String, JsonValue)>,
) -> JsonValue {
    let mut obj = base(id, seq, "ok");
    obj.push(("op".to_owned(), JsonValue::Str(op.to_owned())));
    obj.extend(fields);
    JsonValue::Obj(obj)
}

/// A non-retryable failure: the request itself (or the program it
/// carries) is at fault.
fn error_response(id: &Option<JsonValue>, seq: u64, message: &str) -> JsonValue {
    let mut obj = base(id, seq, "error");
    obj.push(("error".to_owned(), JsonValue::Str(message.to_owned())));
    JsonValue::Obj(obj)
}

/// A retryable degradation (`shed` / `panic` / `deadline` / `budget`)
/// with a backoff hint.
fn retryable(id: &Option<JsonValue>, seq: u64, status: &str, message: &str) -> JsonValue {
    let mut obj = base(id, seq, status);
    obj.push(("error".to_owned(), JsonValue::Str(message.to_owned())));
    obj.push(("retry_after".to_owned(), JsonValue::num(1)));
    JsonValue::Obj(obj)
}

fn base(id: &Option<JsonValue>, seq: u64, status: &str) -> Vec<(String, JsonValue)> {
    let mut obj = Vec::with_capacity(6);
    if let Some(id) = id {
        obj.push(("id".to_owned(), id.clone()));
    }
    obj.push(("seq".to_owned(), JsonValue::num(seq)));
    obj.push(("status".to_owned(), JsonValue::Str(status.to_owned())));
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "FUNC 0, succ. TYPE nat. nat >= 0 + succ(nat). \
                        PRED double(nat, nat). double(0, 0). \
                        double(succ(X), succ(succ(Y))) :- double(X, Y). \
                        :- double(succ(0), N).";
    const BAD: &str = "FUNC 0, succ, pred. TYPE nat. nat >= 0 + succ(nat). \
                       PRED q(nat). q(pred(0)).";

    /// Polymorphic append: its clauses commit rigid subtype goals, so
    /// checking actually populates the warm proof table (monomorphic
    /// programs like [`GOOD`] are discharged structurally and never
    /// table anything).
    const APP: &str = "FUNC 0, succ, nil, cons. \
                       TYPE nat, elist, nelist, list. \
                       nat >= 0 + succ(nat). elist >= nil. \
                       nelist(A) >= cons(A, list(A)). \
                       list(A) >= elist + nelist(A). \
                       PRED app(list(A), list(A), list(A)). \
                       app(nil, L, L). \
                       app(cons(X, L), M, cons(X, N)) :- app(L, M, N). \
                       :- app(cons(0, nil), cons(succ(0), nil), Z).";

    fn req(json: &str) -> String {
        json.to_owned()
    }

    fn session(config: ServeConfig) -> ServeSession {
        ServeSession::new(config)
    }

    fn load_line(src: &str) -> String {
        JsonValue::Obj(vec![
            ("op".to_owned(), JsonValue::Str("load".to_owned())),
            ("source".to_owned(), JsonValue::Str(src.to_owned())),
        ])
        .render()
    }

    fn delta_line(src: &str) -> String {
        JsonValue::Obj(vec![
            ("op".to_owned(), JsonValue::Str("delta".to_owned())),
            ("source".to_owned(), JsonValue::Str(src.to_owned())),
        ])
        .render()
    }

    fn parse(resp: &str) -> JsonValue {
        JsonValue::parse(resp).expect("response is valid JSON")
    }

    fn status(resp: &str) -> String {
        parse(resp)
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_owned()
    }

    #[test]
    fn load_check_shutdown_round_trip() {
        let mut s = session(ServeConfig::default());
        let r = s.handle_line(&load_line(GOOD));
        assert_eq!(status(&r), "ok");
        let r = parse(&s.handle_line(&req(r#"{"op":"check","id":7}"#)));
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(r.get("id").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(r.get("errors").and_then(|v| v.as_u64()), Some(0));
        let r = s.handle_line(&req(r#"{"op":"shutdown"}"#));
        assert_eq!(status(&r), "ok");
        assert!(s.closed());
    }

    #[test]
    fn ill_typed_clause_is_reported_in_verdicts() {
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line(&load_line(BAD))), "ok");
        let r = parse(&s.handle_line(&req(r#"{"op":"check"}"#)));
        assert_eq!(r.get("errors").and_then(|v| v.as_u64()), Some(1));
        let JsonValue::Arr(verdicts) = r.get("verdicts").unwrap() else {
            panic!("verdicts is an array");
        };
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].get("ok"), Some(&JsonValue::Bool(false)));
        assert!(verdicts[0].get("error").is_some());
    }

    #[test]
    fn malformed_requests_answer_errors_without_dying() {
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line("not json")), "error");
        assert_eq!(status(&s.handle_line(r#"{"no_op":1}"#)), "error");
        assert_eq!(status(&s.handle_line(r#"{"op":"frobnicate"}"#)), "error");
        assert_eq!(status(&s.handle_line(r#"{"op":"check"}"#)), "error");
        assert_eq!(
            status(&s.handle_line(r#"{"op":"delta","source":""}"#)),
            "error"
        );
        assert_eq!(status(&s.handle_line(&load_line("FUNC ("))), "error");
        // Still alive and usable.
        assert_eq!(status(&s.handle_line(&load_line(GOOD))), "ok");
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"check"}"#))), "ok");
        assert_eq!(s.metrics().get(Counter::RequestsServed), 8);
    }

    #[test]
    fn delta_reuses_proved_entries_and_check_agrees_with_fresh_session() {
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line(&load_line(APP))), "ok");
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"check"}"#))), "ok");
        // Extend the program with a new clause over existing symbols: the
        // signature and constraint list are unchanged, so the whole warm
        // table survives the delta. (Adding a new *symbol* would shift the
        // predefined union past it and correctly defeat the prefix check.)
        let extended = format!("{APP} app(nil, nil, nil).");
        let r = parse(&s.handle_line(&delta_line(&extended)));
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("ok"));
        let reused = r.get("reused").and_then(|v| v.as_u64()).unwrap();
        assert!(reused > 0, "identical constraints keep the warm table");
        let warm = s.handle_line(&req(r#"{"op":"check"}"#));
        // A cold serial session over the same final source must answer
        // byte-identically (modulo seq, which we align by construction).
        let mut cold = session(ServeConfig::default());
        assert_eq!(status(&cold.handle_line(&load_line(&extended))), "ok");
        assert_eq!(status(&cold.handle_line(&req(r#"{"op":"stats"}"#))), "ok");
        assert_eq!(status(&cold.handle_line(&req(r#"{"op":"stats"}"#))), "ok");
        let cold_check = cold.handle_line(&req(r#"{"op":"check"}"#));
        assert_eq!(warm, cold_check, "warm rescoped check ≡ cold serial check");
    }

    #[test]
    fn injected_panic_poisons_then_recovers() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut s = session(ServeConfig {
            faults: FaultPlan::parse("panic@2").unwrap(),
            ..ServeConfig::default()
        });
        assert_eq!(status(&s.handle_line(&load_line(GOOD))), "ok");
        let r = parse(&s.handle_line(&req(r#"{"op":"check"}"#)));
        std::panic::set_hook(hook);
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("panic"));
        assert!(r.get("retry_after").is_some());
        assert_eq!(s.metrics().get(Counter::RequestsPanicked), 1);
        // The retry (new seq, no fault) succeeds despite the poisoned table.
        let retry = parse(&s.handle_line(&req(r#"{"op":"check"}"#)));
        assert_eq!(retry.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(retry.get("errors").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn slow_and_exhaust_faults_degrade_to_retryable_unknowns() {
        let mut s = session(ServeConfig {
            faults: FaultPlan::parse("slow@2,exhaust@3").unwrap(),
            ..ServeConfig::default()
        });
        assert_eq!(status(&s.handle_line(&load_line(GOOD))), "ok");
        assert_eq!(
            status(&s.handle_line(&req(r#"{"op":"check"}"#))),
            "deadline"
        );
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"check"}"#))), "budget");
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"check"}"#))), "ok");
        assert_eq!(s.metrics().get(Counter::DeadlineExceeded), 1);
        assert_eq!(s.metrics().get(Counter::BudgetExhausted), 1);
    }

    #[test]
    fn append_only_delta_adopts_the_warm_closure() {
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line(&load_line(APP))), "ok");
        let before = Arc::clone(s.program.as_ref().unwrap().checked.ground_closure());
        // Appending a clause touches no constraint list: the delta must
        // share the previous closure rather than recompute it.
        let extended = format!("{APP} app(nil, nil, nil).");
        assert_eq!(status(&s.handle_line(&delta_line(&extended))), "ok");
        let after = s.program.as_ref().unwrap().checked.ground_closure();
        assert!(
            Arc::ptr_eq(&before, after),
            "an append-only delta rebuilt the ground closure"
        );
        // A wholesale `load` never adopts, even for identical source.
        assert_eq!(status(&s.handle_line(&load_line(APP))), "ok");
        let reloaded = s.program.as_ref().unwrap().checked.ground_closure();
        assert!(!Arc::ptr_eq(&before, reloaded));
    }

    #[test]
    fn ground_edge_delta_rebuilds_the_closure_and_flips_the_verdict() {
        // `p(f0)` is well-typed only while the ground edge `b >= f0`
        // exists; a delta that rewires it to `b >= f1` must flip the
        // verdict. A stale adopted closure would keep answering `b >= f0`
        // from the old bitset and silently accept the clause.
        let before = "FUNC f0, f1. TYPE a, b. a >= b. b >= f0. PRED p(a). p(f0).";
        let after = "FUNC f0, f1. TYPE a, b. a >= b. b >= f1. PRED p(a). p(f0).";
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line(&load_line(before))), "ok");
        let old = Arc::clone(s.program.as_ref().unwrap().checked.ground_closure());
        let r = parse(&s.handle_line(&req(r#"{"op":"check"}"#)));
        assert_eq!(r.get("errors").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(status(&s.handle_line(&delta_line(after))), "ok");
        let new = s.program.as_ref().unwrap().checked.ground_closure();
        assert!(
            !Arc::ptr_eq(&old, new),
            "a changed ground edge must rebuild the closure"
        );
        let r = parse(&s.handle_line(&req(r#"{"op":"check"}"#)));
        assert_eq!(
            r.get("errors").and_then(|v| v.as_u64()),
            Some(1),
            "stale closure kept accepting p(f0): {r:?}"
        );
    }

    #[test]
    fn tiny_real_budget_degrades_and_raised_budget_recovers() {
        let mut s = session(ServeConfig::default());
        assert_eq!(status(&s.handle_line(&load_line(GOOD))), "ok");
        let r = s.handle_line(&req(r#"{"op":"check","budget":1}"#));
        assert_eq!(status(&r), "budget");
        let r = s.handle_line(&req(r#"{"op":"check","budget":100000}"#));
        assert_eq!(status(&r), "ok");
    }

    #[test]
    fn run_loop_answers_one_line_per_request_and_stops_on_shutdown() {
        let mut s = session(ServeConfig::default());
        let input = format!(
            "{}\n{}\n\n{}\n{}\n",
            load_line(GOOD),
            r#"{"op":"check"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"check"}"#,
        );
        let mut out = Vec::new();
        s.run(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "shutdown stops the loop: {text}");
        assert_eq!(status(lines[0]), "ok");
        assert_eq!(status(lines[1]), "ok");
        assert_eq!(status(lines[2]), "ok");
    }

    #[test]
    fn modes_op_answers_from_the_warm_module() {
        let mut s = session(ServeConfig::default());
        // No program yet: a plain error, not a panic.
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"modes"}"#))), "error");
        let moded = format!("{APP} MODE app(+, +, -).");
        assert_eq!(status(&s.handle_line(&load_line(&moded))), "ok");
        let first = s.handle_line(&req(r#"{"op":"modes"}"#));
        let r = parse(&first);
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(r.get("declared").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(r.get("violations").and_then(|v| v.as_u64()), Some(0));
        let JsonValue::Arr(rows) = r.get("modes").unwrap() else {
            panic!("modes is an array");
        };
        assert!(
            rows.iter().any(|row| {
                row.get("pred").and_then(|v| v.as_str()) == Some("app")
                    && row.get("modes").and_then(|v| v.as_str()) == Some("(+, +, -)")
                    && row.get("declared") == Some(&JsonValue::Bool(true))
            }),
            "no declared app row in {first}"
        );
        // The report is deterministic request to request (modulo seq).
        let again = s.handle_line(&req(r#"{"op":"modes"}"#));
        assert_eq!(
            first.replacen("\"seq\":3", "\"seq\":4", 1),
            again,
            "mode reports drifted between requests"
        );
    }

    #[test]
    fn stats_reports_serve_counters() {
        let mut s = session(ServeConfig {
            faults: FaultPlan::parse("shed@2").unwrap(),
            ..ServeConfig::default()
        });
        assert_eq!(status(&s.handle_line(&load_line(GOOD))), "ok");
        assert_eq!(status(&s.handle_line(&req(r#"{"op":"check"}"#))), "shed");
        let r = parse(&s.handle_line(&req(r#"{"op":"stats"}"#)));
        assert_eq!(r.get("requests_served").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(r.get("requests_shed").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(r.get("requests_panicked").and_then(|v| v.as_u64()), Some(0));
    }
}
