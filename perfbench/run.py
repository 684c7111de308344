#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the release `slp` binary.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: check_corpus, audit_nrev, serve_session (see
perfbench/README.md). The harness builds `slp` and `perfbench-probe` from
source, generates every input from the seed, and drives `slp` one child
process at a time in a closed loop, checking every output against an answer
known without `slp`.

--trace 0 measures for --seconds and prints the end-to-end metrics.
--trace 1 replays one pass of the same inputs twice, untraced and then with
`--stats --format json` (and `--trace` for serve), replays them in-process
through `perfbench-probe layers`, and prints the per-layer metrics.

Human-readable tables go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. Result files land in
perfbench/out/<workload>/.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("check_corpus", "audit_nrev", "serve_session")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
JOBS = "2"
# Serve requests outside the timed loop: `load` is set-up, and `stats` and
# `shutdown` close the session.
UNTIMED = ("load", "stats", "shutdown")
EXAMPLES = {
    # stem: (check exit code, clauses, queries); counted by hand from
    # examples/<stem>.slp. Lint output is compared with tests/golden/.
    "app": (0, 2, 1),
    "naturals": (0, 2, 1),
    "modes_demo": (0, 7, 3),
    "lint_demo": (2, None, None),
}


class BenchError(Exception):
    pass


def now():
    return time.perf_counter()


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trimmed_mean(values, cut=0.1):
    """Mean of `values` without the lowest and highest `cut` share."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def ratio(num, den):
    return num / den if den else 0.0


def numeral(d):
    s = "0"
    for _ in range(d):
        s = f"succ({s})"
    return s


def render_list(digits):
    s = "nil"
    for d in reversed(digits):
        s = f"cons({numeral(int(d))}, {s})"
    return s


def balanced_digits(rng, n):
    """n numeral depths, equally many of 0, 1 and 2, in seeded order: the
    seed moves elements around without changing the term sizes."""
    digits = [str(i % 3) for i in range(n)]
    rng.shuffle(digits)
    return "".join(digits)


def ladder(count, lo, hi):
    """`count` sizes spread log-uniformly over [lo, hi]: the middle of each
    of `count` equal-width strata of the log scale."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + 0.5) / count) for i in range(count)]


# ---------------------------------------------------------------------------
# Build and child processes
# ---------------------------------------------------------------------------


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "slp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(root, target, "release")
    return os.path.join(release, "slp"), os.path.join(release, "perfbench-probe")


class Child:
    """One finished child: exit code, output, wall time and peak RSS."""

    def __init__(self, code, out, err, ms, rss_mb):
        self.code, self.out, self.err, self.ms, self.rss_mb = code, out, err, ms, rss_mb


def _fork_only():
    # Forcing fork (not vfork) keeps the harness's own peak RSS out of the
    # child's: after exec a child's ru_maxrss starts from the RSS of the
    # address space it replaced.
    pass


def reap(proc):
    """Reaps `proc` with wait4; returns (exit code, peak RSS in MB) of that
    one child."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run_child(argv, root):
    """Runs one child to the end, killing it after CHILD_TIMEOUT_S. Its
    output comes back through pipes, so the timed path touches no file."""
    start = now()
    proc = subprocess.Popen(argv, cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_fork_only)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        code, rss = reap(proc)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    ms = (now() - start) * 1000
    return Child(code, out.decode("utf-8", "replace"), err[0].decode("utf-8", "replace"),
                 ms, rss)


def split_stats(err):
    """Separates the trailing slp-metrics/1 document from stderr."""
    body, _, last = err.rstrip("\n").rpartition("\n")
    try:
        doc = json.loads(last)
    except ValueError:
        doc = None
    if not isinstance(doc, dict) or doc.get("schema") != "slp-metrics/1":
        raise BenchError("child printed no slp-metrics/1 document")
    return (body + "\n" if body else ""), doc


# ---------------------------------------------------------------------------
# Batch workloads: one slp invocation per unit
# ---------------------------------------------------------------------------


class Unit:
    """One slp invocation with its independently known answer."""

    def __init__(self, uid, cmd, path, args, verify, work):
        self.uid, self.cmd, self.path, self.args = uid, cmd, path, args
        self.verify = verify  # (code, out, err) -> error message or None
        self.work = work  # known sizes: clauses, resolvents, steps


def expect_check(clauses, queries, errors):
    def verify(code, out, err):
        if errors:
            found = sum(1 for line in err.splitlines() if line.startswith("error["))
            if code != 2 or out or found != errors:
                return f"check: code {code}, {found} error(s), expected 2 and {errors}"
            return None
        want = f"well-typed: {clauses} clause(s), {queries} query(ies)\n"
        if code != 0 or out != want or err:
            return f"check: code {code}, stdout {out[:80]!r}, expected {want!r}"
        return None
    return verify


def expect_lint(errors=0, golden=None):
    def verify(code, out, err):
        if golden is not None:
            if out != golden:
                return "lint: output differs from the committed golden file"
        else:
            try:
                found = sum(1 for d in json.loads(out) if d.get("severity") == "error")
            except ValueError:
                return "lint: stdout is not JSON"
            if found != errors:
                return f"lint: {found} error diagnostic(s), expected {errors}"
        want = 2 if errors else 0
        if code != want or err:
            return f"lint: exit code {code}, expected {want}"
        return None
    return verify


def expect_stdout(want):
    def verify(code, out, err):
        if code != 0 or out != want or err:
            return f"exit code {code}, stdout {out[:80]!r}..., expected {want[:80]!r}..."
        return None
    return verify


class BatchWorkload:
    """Inputs are files; each unit is one `slp` child process."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.units = []

    def generate(self):
        plan, self.units = self.plan(random.Random(f"{self.ctx.name}:{self.ctx.seed}"))
        self.ctx.probe_stdin(["gen"], "".join(line + "\n" for line in plan))

    def setup_once(self):
        """Generates the inputs and makes the unmeasured warm-up invocation,
        on the smallest input; returns the seconds that took."""
        start = now()
        self.generate()
        self.invoke(min(self.units, key=lambda u: os.path.getsize(
            os.path.join(self.ctx.root, u.path))))
        return now() - start

    def invoke(self, unit, stats=False):
        args = unit.args
        if stats:
            args = ["--stats"] + args + ([] if "--format" in args else ["--format", "json"])
        child = run_child([self.ctx.slp, unit.cmd, unit.path] + args, self.ctx.root)
        err, doc, problem = child.err, None, None
        if stats:
            try:
                err, doc = split_stats(child.err)
            except BenchError as e:
                problem = str(e)
        problem = problem or unit.verify(child.code, child.out, err)
        return {"uid": unit.uid, "kind": unit.cmd, "ms": child.ms, "rss_mb": child.rss_mb,
                "input": f"{unit.uid}:{unit.cmd}",
                "ok": problem is None, "problem": problem, "work": unit.work, "stats": doc}

    def measure(self, seconds, setup_times):
        """Cycles through the inputs until `seconds` have passed, finishing
        at least one whole pass so that every input is measured. The set-up
        is repeated after each pass, and its times appended to
        `setup_times`, so that it is sampled across the run like the
        inputs are."""
        records, start, setup = [], now(), 0.0
        while len(records) < len(self.units) or now() - start < seconds:
            records.append(self.invoke(self.units[len(records) % len(self.units)]))
            if len(records) % len(self.units) == 0:
                setup_times.append(self.setup_once())
                setup += setup_times[-1]
        return records, now() - start - setup

    def traced_passes(self):
        """One untraced and one traced pass, interleaved per input so that
        the host's speed drift cancels out of the tracing overhead."""
        plain, traced = [], []
        for u in self.units:
            plain.append(self.invoke(u))
            start = now()
            traced.append(self.invoke(u, stats=True))
            traced[-1]["span"] = (start, now())
        return plain, traced

    def probe_manifest(self):
        seen, lines = set(), []
        for u in self.units:
            if u.cmd != "lint" and u.path not in seen:
                seen.add(u.path)
                lines.append(f"{u.uid} {u.cmd} {u.path}")
        return lines


class CheckCorpus(BatchWorkload):
    def plan(self, rng):
        smoke = self.ctx.smoke
        d = self.ctx.input_dir
        plan, files = [], []  # files: (path, clauses, queries, errors)

        def add(kind_args, clauses, queries, errors):
            path = os.path.join(d, f"f{len(files):03d}.slp")
            plan.append(f"{kind_args} {path}")
            files.append((path, clauses, queries, errors))

        lo, hi = (20, 200) if smoke else (100, 3000)
        # Sizes and shapes sit on fixed ladders; the seed picks list contents
        # and the order of the files.
        for i, c in enumerate(ladder(4 if smoke else 16, lo, hi)):
            k = 2 + i % 3
            n = max(1, round(c / (k + 1)))
            add(f"pipeline {n} {k}", n * (k + 1), 0, 0)
        for i, c in enumerate(ladder(2 if smoke else 4, lo, hi)):
            k, e = 2 + i % 3, 1 + i % 5
            n = max(1, round(c / (k + 1)))
            add(f"pipeline_with_errors {n} {k} {e}", n * (k + 1) + e, 0, e)
        for c in ladder(2 if smoke else 4, 20 if smoke else 50, 40 if smoke else 300):
            n = round(c)
            add(f"fact_base {n}", n, 1, 0)
        for i, c in enumerate(ladder(2 if smoke else 4, 4 if smoke else 8, 8 if smoke else 40)):
            n, q = round(c), 2 + i % 5
            digits = balanced_digits(rng, n)
            add(f"nrev {n} {q} {digits}", 4, q, 0)
        rng.shuffle(files)

        units = []
        for i, (path, clauses, queries, errors) in enumerate(files):
            rel = os.path.relpath(path, self.ctx.root)
            work = {"clauses": clauses}
            units.append(Unit(f"f{i}", "check", rel, ["--jobs", JOBS, "--verify-witnesses"],
                              expect_check(clauses, queries, errors), work))
            units.append(Unit(f"f{i}", "lint", rel, ["--format", "json"],
                              expect_lint(errors), {}))
        for stem, (code, clauses, queries) in EXAMPLES.items():
            rel = f"examples/{stem}.slp"
            with open(os.path.join(self.ctx.root, "tests", "golden", f"{stem}.json"),
                      encoding="utf-8") as f:
                golden = f.read()
            golden_errors = sum(1 for x in json.loads(golden) if x["severity"] == "error")
            check_errors = golden_errors if code else 0
            units.append(Unit(stem, "check", rel, ["--jobs", JOBS, "--verify-witnesses"],
                              expect_check(clauses, queries, check_errors),
                              {"clauses": clauses or 0}))
            units.append(Unit(stem, "lint", rel, ["--format", "json"],
                              expect_lint(golden_errors, golden), {}))
        return plan, units


class AuditNrev(BatchWorkload):
    def plan(self, rng):
        # Sizes stop where a child's peak RSS nears 70 MB: on a shared host,
        # children that fault in hundreds of megabytes vary several times
        # more from run to run than the rest.
        sizes = (4, 6) if self.ctx.smoke else range(12, 29, 2)
        plan, units = [], []
        for i, n in enumerate(sizes):
            digits = balanced_digits(rng, n)
            path = os.path.join(self.ctx.input_dir, f"nrev{n}.slp")
            plan.append(f"nrev {n} 1 {digits} {path}")
            resolvents = (n + 1) * (n + 2) // 2
            want = (f"R = {render_list(digits[::-1])}.\n"
                    f"audited {resolvents} resolvent(s): 0 violation(s), answers consistent\n")
            units.append(Unit(f"nrev{n}", "audit", os.path.relpath(path, self.ctx.root),
                              ["-n", "1", "--jobs", "1"], expect_stdout(want),
                              {"resolvents": resolvents, "steps": resolvents}))
        rng.shuffle(units)
        return plan, units


# ---------------------------------------------------------------------------
# serve_session: one daemon, one closed-loop client
# ---------------------------------------------------------------------------


class Session:
    def __init__(self, ctx, extra):
        self.ctx = ctx
        self.err_path = ctx.scratch + ".serve.err"
        self.err_file = open(self.err_path, "wb")
        argv = [ctx.slp, "serve", "--stdio", "--jobs", JOBS] + extra
        self.proc = subprocess.Popen(argv, cwd=ctx.root, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err_file,
                                     text=True, preexec_fn=_fork_only)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S + 60, self.proc.kill)
        self.watchdog.start()

    def request(self, req):
        start = now()
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        ms = (now() - start) * 1000
        try:
            return json.loads(line), ms, start
        except ValueError:
            return {}, ms, start

    def peak_rss_mb(self):
        """The live daemon's own high-water mark. Unlike `ru_maxrss` it
        starts from nothing at `exec`, so it does not carry the harness's
        RSS as a floor."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
        return int(kb) / 1024

    def close(self):
        self.proc.stdin.close()
        try:
            reap(self.proc)
        finally:
            self.watchdog.cancel()
        self.proc.stdout.close()
        self.err_file.close()
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            err = f.read()
        return self.proc.returncode, err


class ServeSession:
    """Load an nrev-style module with a few hundred queries, then rounds of
    delta, check and modes. The harness models the module, so every
    response's counts are known before it arrives."""

    RULES = 4  # app/3 and rev/2, two clauses each
    CYCLE = 16  # rounds of delta and check (and modes every other round)
    SESSIONS = 5

    def __init__(self, ctx):
        self.ctx = ctx
        self.session = None

    def generate(self):
        rng = random.Random(f"{self.ctx.name}:{self.ctx.seed}")
        path = os.path.join(self.ctx.input_dir, "rules.slp")
        self.ctx.probe_stdin(["gen"], f"nrev_rules {path}\n")
        with open(path, encoding="utf-8") as f:
            rules = f.read().rsplit(":- rev(", 1)[0]
        queries = 30 if self.ctx.smoke else 300
        lines = [f":- rev({render_list(balanced_digits(rng, 1 + i % 16))}, R)."
                 for i in range(queries)]
        rng.shuffle(lines)
        self.base = rules + "\n".join(lines) + "\n"
        self.queries = queries
        # The clauses a cycle appends, in order. A well-typed clause may not
        # instantiate the type variable of app/3, so its elements stay
        # variables; every fourth is ill-typed and puts a numeral where a
        # list belongs.
        self.appends = []
        for i in range(self.CYCLE - 2):
            depth = 1 + i % 4
            prefix = "".join(f"cons(X{j}, " for j in range(depth))
            if i % 4 == 3:
                bad = f"app({prefix}T{')' * depth}, {numeral(rng.randrange(3))}, nil)."
                self.appends.append((bad, True))
            else:
                good = (f"app({prefix}T{')' * depth}, M, {prefix}N{')' * depth}) "
                        f":- app(T, M, N).")
                self.appends.append((good, False))
        self.extras, self.swapped, self.round = [], False, 0

    def source(self):
        src = self.base
        if self.swapped:
            src = src.replace("int >= nat + unnat.", "int >= unnat + nat.")
        return src + "".join(text + "\n" for text, _ in self.extras)

    def next_delta(self):
        """Mutates the model through a fixed cycle of CYCLE rounds that ends
        where it began, so each round of one cycle repeats the same request
        as that round of every other. Most rounds append one clause; the
        middle round and the last swap a ground constraint's alternatives
        (forcing a closure rebuild), and the last also drops the appended
        clauses."""
        self.round += 1
        r = self.round % self.CYCLE
        if r == self.CYCLE // 2:
            self.swapped = not self.swapped
        elif r == 0:
            self.swapped, self.extras = False, []
        else:
            self.extras = self.appends[:len(self.extras) + 1]

    def expect(self, op, resp):
        clauses = self.RULES + len(self.extras)
        if resp.get("status") != "ok" or resp.get("op") != op:
            return f"{op}: status {resp.get('status')}"
        if op in ("load", "delta", "check"):
            if resp.get("clauses") != clauses or resp.get("queries") != self.queries:
                return f"{op}: {resp.get('clauses')} clauses, {resp.get('queries')} queries"
        if op == "check":
            bad = {self.RULES + i for i, (_, b) in enumerate(self.extras) if b}
            got = {v["index"] for v in resp.get("verdicts", [])
                   if v["item"] == "clause" and not v["ok"]}
            if resp.get("errors") != len(bad) or got != bad:
                return f"check: errors {resp.get('errors')} at {sorted(got)}, expected {sorted(bad)}"
        if op == "modes" and (resp.get("predicates") != 2 or resp.get("declared") != 0):
            return "modes: unexpected predicate counts"
        return None

    def send(self, op, records, req=None):
        req = req or {"op": op}
        resp, ms, start = self.session.request(req)
        problem = self.expect(op, resp)
        records.append({"uid": f"req{len(records) + 1}", "kind": op, "ms": ms,
                        "input": f"{op}@{self.round % self.CYCLE}", "ok": problem is None,
                        "problem": problem, "work": {"clauses": (self.RULES + len(self.extras)
                                                                 + self.queries) if op == "check" else 0},
                        "span": (start, now())})
        return resp

    def start(self, extra, records):
        self.generate()
        self.session = Session(self.ctx, extra)
        self.send("load", records, {"op": "load", "source": self.source()})

    def round_trip(self, records):
        self.next_delta()
        self.send("delta", records, {"op": "delta", "source": self.source()})
        self.send("check", records)
        if self.round % 2 == 0:
            self.send("modes", records)

    def finish(self, records):
        served = len(records) + 1
        resp = self.send("stats", records)
        if resp.get("requests_served") != served:
            records[-1].update(ok=False, problem=f"stats: {resp.get('requests_served')} served")
        rss = self.session.peak_rss_mb()
        self.send("shutdown", records)
        code, err = self.session.close()
        if code != 0:
            records[-1].update(ok=False, problem=f"serve exited with code {code}")
        for r in records:
            r["rss_mb"] = rss
        return err

    def setup_once(self):
        """Generation, spawn and `load` of one session, which then shuts
        down; returns the seconds up to the `load` reply."""
        records = []
        start = now()
        self.start([], records)
        took = now() - start
        self.finish(records)
        return took

    def measure(self, seconds, setup_times):
        """SESSIONS daemons in turn, each for an equal share of `seconds`.
        Where two workers' allocations land varies from daemon to daemon, so
        one daemon's peak RSS is a single draw; the largest of several is a
        steady figure. Each daemon's set-up time is appended to
        `setup_times`."""
        records, elapsed = [], 0.0
        for _ in range(self.SESSIONS):
            session = []
            start = now()
            self.start([], session)
            setup_times.append(now() - start)
            start = now()
            while now() - start < seconds / self.SESSIONS:
                self.round_trip(session)
            elapsed += now() - start
            self.finish(session)
            records += session
        return records, elapsed

    def one_pass(self, stats):
        extra = []
        if stats:
            self.trace_path = self.ctx.scratch + ".trace.jsonl"
            extra = ["--stats", "--format", "json", "--trace", self.trace_path]
        records = []
        self.start(extra, records)
        self.versions = [self.source()]
        for _ in range(6 if self.ctx.smoke else 2 * self.CYCLE):
            self.round_trip(records)
            self.versions.append(self.source())
        err = self.finish(records)
        if stats:
            _, doc = split_stats(err)
            records[-1]["stats"] = doc
        return records

    def traced_passes(self):
        return self.one_pass(stats=False), self.one_pass(stats=True)

    def probe_manifest(self):
        lines = []
        for i, src in enumerate(dict.fromkeys(self.versions)):
            path = os.path.join(self.ctx.input_dir, f"version{i:03d}.slp")
            with open(path, "w", encoding="utf-8") as f:
                f.write(src)
            lines.append(f"v{i} check {os.path.relpath(path, self.ctx.root)}")
        return lines


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def by_input(records, kinds=None):
    """Timed records grouped per distinct input: [(trimmed mean ms, work)].
    Each input counts once, at the mean of its repeats less the fastest and
    slowest tenth, so the number of passes does not move the percentiles.
    The shared host switches between a fast and a slow speed every few
    seconds; a median of the repeats jumps with whichever speed held for
    most of the run, while the trimmed mean moves in proportion and still
    drops single outliers."""
    groups = {}
    for r in records:
        if r["kind"] not in UNTIMED and (kinds is None or r["kind"] in kinds):
            groups.setdefault(r["input"], (r["work"], []))[1].append(r["ms"])
    return [(trimmed_mean(ms), work) for work, ms in groups.values()]


def latencies(records, kinds=None):
    return [ms for ms, _ in by_input(records, kinds)]


def rate(records, key=None, kinds=None):
    """Work (or inputs, without `key`) per second of input time."""
    inputs = by_input(records, kinds)
    done = sum(w.get(key, 0) for _, w in inputs) if key else len(inputs)
    return ratio(done, sum(ms for ms, _ in inputs) / 1000)


def end_to_end(name, records, wall_s, setup_s):
    """(benchmark metrics, issue-named table, sample counts) for one run."""
    timed = sum(1 for r in records if r["kind"] not in UNTIMED)
    lat = latencies(records)
    rss = max(r["rss_mb"] for r in records)
    failed = sum(1 for r in records if not r["ok"])
    work = {"check_corpus": rate(records, "clauses", ("check",)),
            "audit_nrev": rate(records, "resolvents"),
            "serve_session": rate(records, "clauses", ("check",))}[name]
    bench = {
        "setup_s": (setup_s, "s"),
        "unit_ms_p50": (percentile(lat, 50), "ms"),
        "unit_ms_p90": (percentile(lat, 90), "ms"),
        "units_per_s": (rate(records), "1/s"),
        "work_per_s": (work, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    table = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_frac": (ratio(failed, len(records)), "ratio"),
    }

    if name == "check_corpus":
        check, lint = latencies(records, ("check",)), latencies(records, ("lint",))
        table.update({
            "check_ms_p50": (percentile(check, 50), "ms"),
            "check_ms_p90": (percentile(check, 90), "ms"),
            "lint_ms_p50": (percentile(lint, 50), "ms"),
            "lint_ms_p90": (percentile(lint, 90), "ms"),
            "clauses_per_s": (work, "1/s"),
        })
    if name == "audit_nrev":
        table["engine_steps_per_s"] = (rate(records, "steps"), "1/s")
        table["resolvents_per_s"] = (work, "1/s")
    if name == "serve_session":
        table.update({
            "request_ms_p50": (percentile(lat, 50), "ms"),
            "request_ms_p95": (percentile(lat, 95), "ms"),
            "requests_per_s": (rate(records), "1/s"),
        })
    return bench, table, (timed, len(lat))


COUNTERS = ("table_hits", "table_misses", "table_inserts", "table_evictions",
            "table_invalidations", "shard_contention", "subtype_goals", "cmatch_expansions",
            "clause_checks", "query_checks", "audit_resolvents", "lint_diagnostics",
            "pool_items", "engine_attempts", "engine_steps", "witness_emitted",
            "witness_validated", "incremental_reuse", "mode_inferences", "closure_hits",
            "closure_misses", "arena_terms", "table_read_retries", "steals", "steal_failures")
TIMERS = ("parse", "validate", "check_clause", "check_query", "subtype_prove", "lint",
          "engine_solve")

# Per-layer counts that depend on how two workers interleave (the library's
# own `Counter::scheduling_invariant` split); two runs need not agree on them.
SCHEDULING_DEPENDENT = {"table.hits", "table.misses", "table.hit_ratio", "table.inserts",
                        "table.evictions", "table.invalidations", "table.contention",
                        "table.read_retries", "par.pool_items", "par.steals",
                        "par.steal_failures", "witness.validated", "serve.incremental_reuse"}


def stats_totals(records):
    c = {k: 0 for k in COUNTERS}
    t = {k: 0 for k in TIMERS}
    for r in records:
        doc = r.get("stats")
        if doc:
            for k in COUNTERS:
                c[k] += doc["counters"][k]
            for k in TIMERS:
                t[k] += doc["timers"][k]["nanos"]
    return c, t


def engine_self_ns(doc):
    """The engine timer less the resolvent checks the auditor nests in it."""
    t = doc["timers"]
    return t["engine_solve"]["nanos"] - t["check_query"]["nanos"]


def span_ms(report, name):
    return sum(e - s for n, _, s, e in report["spans"] if n == name) / 1e6


def layer_metrics(name, plain, traced, reports, trace_events):
    c, t = stats_totals(traced)
    ms = 1e-6
    clause_ns = [x for r in reports for x in r["clause_ns"]]
    parse_ms = sum(span_ms(r, "parser.parse") for r in reports)
    kb = sum(r["bytes"] for r in reports) / 1024

    def per_clause_us(r):
        return ratio(sum(r["clause_ns"]) / 1000, len(r["clause_ns"]))

    # Growth is measured across the sizable files when there are any, so a
    # two-clause example does not set the base.
    sized = [r for r in reports if len(r["clause_ns"]) >= 50] or \
        [r for r in reports if r["clause_ns"]]
    sized.sort(key=lambda r: len(r["clause_ns"]))
    clause_growth = ratio(per_clause_us(sized[-1]), per_clause_us(sized[0])) if sized else 0.0

    engine = [(r["stats"]["counters"]["engine_steps"], engine_self_ns(r["stats"]))
              for r in traced if r.get("stats") and r["stats"]["counters"]["engine_steps"]]
    engine.sort()
    engine_self = sum(ns for _, ns in engine)
    step_growth = (ratio(engine[-1][1] / engine[-1][0], engine[0][1] / engine[0][0])
                   if engine else 0.0)

    audit_self = sum(span_ms(r, "consistency.audit") - span_ms(r, "engine.solve")
                     - r["audit_check_query_ns"] * ms
                     for r in reports if any(s[0] == "consistency.audit" for s in r["spans"]))

    def top_ns(doc):
        tm = {k: doc["timers"][k]["nanos"] for k in TIMERS}
        return (tm["parse"] + tm["validate"] + tm["check_clause"] + tm["lint"]
                + max(tm["engine_solve"], tm["check_query"]))

    if name == "serve_session":
        requests = [r for r in traced if r["kind"] not in UNTIMED]
        busy = t["check_clause"] + t["check_query"]
        cli_other = ratio(sum(r["ms"] for r in requests) - busy * ms, len(requests))
    else:
        cli_other = statistics.median(r["ms"] - top_ns(r["stats"]) * ms
                                      for r in traced if r.get("stats"))

    def serve_p50(op):
        return percentile([r["ms"] for r in traced if r["kind"] == op], 50) \
            if name == "serve_session" else 0.0

    lookups = c["table_hits"] + c["table_misses"]
    closure_lookups = c["closure_hits"] + c["closure_misses"]
    checks = c["clause_checks"] + c["query_checks"]
    plain_ms = sum(r["ms"] for r in plain)
    traced_ms = sum(r["ms"] for r in traced)
    m = {
        "parser.parse_ms": (parse_ms, "ms"),
        "parser.kb_per_s": (ratio(kb, parse_ms / 1000), "KB/s"),
        "constraint.validate_ms": (sum(span_ms(r, "constraint.validate") for r in reports), "ms"),
        "closure.build_ms": (sum(span_ms(r, "closure.build") for r in reports), "ms"),
        "closure.hits": (c["closure_hits"], "count"),
        "closure.misses": (c["closure_misses"], "count"),
        "closure.lookups": (closure_lookups, "count"),
        "closure.hit_ratio": (ratio(c["closure_hits"], closure_lookups), "ratio"),
        "closure.reused": (sum(1 for e in trace_events
                               if e.get("ev") == "closure.build" and e.get("reused")), "count"),
        "welltyped.check_clause_ms": (sum(clause_ns) * ms, "ms"),
        "welltyped.clause_us_p50": (percentile(clause_ns, 50) / 1000, "us"),
        "welltyped.clause_us_p99": (percentile(clause_ns, 99) / 1000, "us"),
        "welltyped.clause_us_growth": (clause_growth, "ratio"),
        "welltyped.check_query_ms": (t["check_query"] * ms, "ms"),
        "cmatch.expansions": (c["cmatch_expansions"], "count"),
        "cmatch.checks": (checks, "count"),
        "cmatch.expansions_per_check": (ratio(c["cmatch_expansions"], checks), "ratio"),
        "prover.subtype_goals": (c["subtype_goals"], "count"),
        "prover.prove_ms": (t["subtype_prove"] * ms, "ms"),
        "prover.us_per_goal": (ratio(t["subtype_prove"] / 1000, c["subtype_goals"]), "us"),
        "table.hits": (c["table_hits"], "count"),
        "table.misses": (c["table_misses"], "count"),
        "table.lookups": (lookups, "count"),
        "table.hit_ratio": (ratio(c["table_hits"], lookups), "ratio"),
        "table.inserts": (c["table_inserts"], "count"),
        "table.evictions": (c["table_evictions"], "count"),
        "table.invalidations": (c["table_invalidations"], "count"),
        "table.contention": (c["shard_contention"], "count"),
        "table.read_retries": (c["table_read_retries"], "count"),
        "table.alloc_ms": (sum(span_ms(r, "table.alloc") for r in reports), "ms"),
        "witness.emitted": (c["witness_emitted"], "count"),
        "witness.validate_ms": (sum(span_ms(r, "witness.validate") for r in reports), "ms"),
        "witness.validated": (c["witness_validated"], "count"),
        "engine.solve_self_ms": (engine_self * ms, "ms"),
        "engine.steps": (c["engine_steps"], "count"),
        "engine.attempts": (c["engine_attempts"], "count"),
        "engine.us_per_step": (ratio(engine_self / 1000, c["engine_steps"]), "us"),
        "engine.us_per_step_growth": (step_growth, "ratio"),
        "consistency.resolvents": (c["audit_resolvents"], "count"),
        "consistency.audit_self_ms": (audit_self, "ms"),
        "lint.lint_ms": (t["lint"] * ms, "ms"),
        "lint.diagnostics": (c["lint_diagnostics"], "count"),
        "modes.infer_ms": (sum(span_ms(r, "modes.infer") for r in reports), "ms"),
        "modes.inferences": (c["mode_inferences"], "count"),
        "serve.check_ms_p50": (serve_p50("check"), "ms"),
        "serve.delta_ms_p50": (serve_p50("delta"), "ms"),
        "serve.modes_ms_p50": (serve_p50("modes"), "ms"),
        "serve.incremental_reuse": (c["incremental_reuse"], "count"),
        "par.pool_items": (c["pool_items"], "count"),
        "par.steals": (c["steals"], "count"),
        "par.steal_failures": (c["steal_failures"], "count"),
        "arena.terms": (c["arena_terms"], "count"),
        "cli.other_ms": (cli_other, "ms"),
        "trace.overhead_ms": (traced_ms - plain_ms, "ms"),
        "trace.overhead_frac": (ratio(traced_ms - plain_ms, plain_ms), "ratio"),
    }
    return m


def layer_table(spans):
    """Total and self time per layer: a span's self time is its duration
    minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        dur = s["end_ms"] - s["start_ms"]
        covered, cursor = 0.0, s["start_ms"]
        for k in sorted(children.get(s["id"], []), key=lambda k: k["start_ms"]):
            lo, hi = max(k["start_ms"], cursor), min(k["end_ms"], s["end_ms"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(s["name"].split(".")[0], {"spans": 0, "total_ms": 0.0,
                                                         "self_ms": 0.0})
        row["spans"] += 1
        row["total_ms"] += dur
        row["self_ms"] += dur - covered
    return table


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, args, root):
        self.name, self.seed, self.smoke = args.workload, args.seed, args.smoke
        self.root = root
        self.out_dir = os.path.join(root, "perfbench", "out", self.name)
        self.input_dir = os.path.join(self.out_dir, "inputs")
        os.makedirs(self.input_dir, exist_ok=True)
        self.scratch = os.path.join(self.out_dir, "child")
        self.slp, self.probe = build(root)

    def probe_stdin(self, args, text):
        r = subprocess.run([self.probe] + args, cwd=self.root, input=text, text=True,
                           capture_output=True)
        if r.returncode:
            raise BenchError(f"perfbench-probe {args[0]} failed: {r.stderr.strip()}")
        return r.stdout


def make_workload(ctx):
    return {"check_corpus": CheckCorpus, "audit_nrev": AuditNrev,
            "serve_session": ServeSession}[ctx.name](ctx)


def print_table(title, rows, note=""):
    print(f"{title}{note}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<30} {value:>14.4f} {unit}")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def run_end_to_end(ctx, workload, seconds):
    # Set-up is timed a few times up front and again during the run; one
    # set-up lasts well under the few seconds for which the shared host
    # keeps one speed, so samples from one moment alone would read that
    # moment's speed.
    setup_times = [workload.setup_once() for _ in range(SETUP_REPEATS)]
    records, wall_s = workload.measure(seconds, setup_times)
    setup_s = trimmed_mean(setup_times)
    bench, table, samples = end_to_end(ctx.name, records, wall_s, setup_s)
    print_table(f"{ctx.name} seed {ctx.seed}: end-to-end", table,
                f" ({samples[0]} timed units over {samples[1]} distinct inputs; "
                f"closed loop, 1 client, --jobs <= {JOBS})")
    timings = {}
    for r in records:
        if r["kind"] not in UNTIMED:
            timings.setdefault(r["input"], []).append(r["ms"])
    write_json(os.path.join(ctx.out_dir, "results.json"),
               {"workload": ctx.name, "seed": ctx.seed, "timed_units": samples[0],
                "distinct_inputs": samples[1],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
                "failures": [r["problem"] for r in records if not r["ok"]],
                "timings_ms": timings})
    return records, bench


def run_traced(ctx, workload):
    workload.setup_once()
    plain, traced = workload.traced_passes()
    events = []
    if ctx.name == "serve_session":
        with open(workload.trace_path, encoding="utf-8") as f:
            events = [json.loads(line) for line in f if line.strip()]

    spans = []
    for r in traced:
        s, e = r["span"]
        spans.append({"id": len(spans), "parent": None, "unit": r["uid"],
                      "name": f"{'serve' if ctx.name == 'serve_session' else 'cli'}.{r['kind']}",
                      "start_ms": s * 1000, "end_ms": e * 1000})
    manifest = workload.probe_manifest()
    replay_start = now()
    out = ctx.probe_stdin(["layers"], "".join(line + "\n" for line in manifest))
    replay_end = now()
    reports = [json.loads(line) for line in out.splitlines()]
    replay_id = len(spans)
    spans.append({"id": replay_id, "parent": None, "unit": "*", "name": "probe.replay",
                  "start_ms": replay_start * 1000, "end_ms": replay_end * 1000})
    for rep in reports:
        if rep["error"] and rep["unit"] not in EXAMPLES:
            raise BenchError(f"in-process replay of {rep['unit']} failed: {rep['error']}")
        base = len(spans)
        for name, parent, s, e in rep["spans"]:
            spans.append({"id": len(spans), "unit": rep["unit"], "name": name,
                          "parent": replay_id if parent is None else base + parent,
                          "start_ms": replay_start * 1000 + s / 1e6,
                          "end_ms": replay_start * 1000 + e / 1e6})

    metrics = layer_metrics(ctx.name, plain, traced, reports, events)
    table = layer_table(spans)
    print(f"{ctx.name} seed {ctx.seed}: per layer ({len(traced)} traced units, "
          f"{len(reports)} in-process replays)")
    print(f"  {'layer':<14} {'spans':>6} {'total_ms':>12} {'self_ms':>12}")
    for layer, row in sorted(table.items()):
        print(f"  {layer:<14} {row['spans']:>6} {row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")
    print_table("per-layer metrics", metrics)
    with open(os.path.join(ctx.out_dir, "spans.jsonl"), "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    write_json(os.path.join(ctx.out_dir, "layers.json"),
               {"workload": ctx.name, "seed": ctx.seed, "layers": table,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "scheduling_dependent": sorted(SCHEDULING_DEPENDENT)})
    return plain + traced, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isfile(os.path.join(root, "src", "bin", "slp.rs"))):
        print("perfbench: run from the repository root (no Cargo.toml or src/bin/slp.rs here)",
              file=sys.stderr)
        return 1
    try:
        ctx = Context(args, root)
        workload = make_workload(ctx)
        if args.trace:
            records, metrics = run_traced(ctx, workload)
        else:
            records, metrics = run_end_to_end(ctx, workload, args.seconds)
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    failures = [r["problem"] for r in records if not r["ok"]]
    for p in failures[:10]:
        print(f"  failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
