"""Workload runners, metrics and the traced run behind ``run.py``.

Imports ``spinor_ternary`` at module level; ``run.py`` puts the checkout's
``src/`` on the path first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import spinor_ternary.cli_verify as cli

import gates
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TRACED_POINT_QUERIES = 4 * workloads.POINT_ROUND
MIN_CLASSIFY, MIN_LOCAL = 200, 1000  # samples behind classify_p95_ms and local_p99_ms
RECORD_TIME = re.compile(r"^(\w+): (\d+\.\d+)s$", re.M)  # verify's per-record stderr lines

END_TO_END = (("setup_s", "s"), ("main_p50_rel", "ms/ms"), ("alt_p50_rel", "ms/ms"), ("peak_rss_mb", "MB"))
PROBE_EVERY_S = 0.25

# Per-layer metrics of a traced run: (tracer name, field, unit).  Field
# "calls", "s" (total seconds) or "self_s"; names without a tracer entry are
# filled in by per_layer().
_CALLS_AND_S = (
    "catalog.load", "forms_core.enumerate_represented", "forms_core.witness",
    "local_solver.local_mask", "local_solver.local_represents",
    "local_solver.locally_represented", "local_solver.genus_represents",
    "spinor_theory.spinor_exceptional_general", "spinor_theory.classify",
    "spinor_theory.squareclass_match", "arith.factor", "arith.hilbert", "arith.is_padic_square",
)
TRACED = (
    [(name, "calls", "count") for name in _CALLS_AND_S]
    + [(name, "s", "s") for name in _CALLS_AND_S]
    + [(name, "s", "s") for name in ("cli_verify.exceptional_general_mask", "cli_verify.squareclass_mask",
                                     "cli_verify.closed_form_missed_mask", "local_solver.genus_mask")]
    + [("spinor_theory.in_Mt", "calls", "count"), ("arith.ord_p", "calls", "count")]
    + [("cli_verify.main", "self_s", "s"), ("cli_verify.write_report", "self_s", "s")]
)
DERIVED = (
    ("forms_core.enumerate.points", "count"),
    ("forms_core.enumerate.hits", "count"),
    ("forms_core.enumerate.hit_ratio", "ratio"),
    ("forms_core.enumerate.bytes", "B"),
    ("cli_verify.verify.record_s_max", "s"),
    ("cli_verify.verify.parallel_eff", "ratio"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
PER_LAYER = tuple((f"{name}.{field}", unit) for name, field, unit in TRACED) + DERIVED

# One fresh interpreter's set-up: import, catalog, and one `local` call per
# (record, ramified p), which builds the solver's lazy per-form tables.
SETUP_CODE = """
import json
from time import perf_counter
t0 = perf_counter()
import spinor_ternary as st
t1 = perf_counter()
cat = st.load_default_catalog()
t2 = perf_counter()
for rec in cat.records:
    for p in rec.ramified_primes():
        st.local_represents(rec.sgi_forms[0], p, p)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1, "tables_s": t3 - t2}))
"""


# ------------------------------------------------------------------ helpers

_PROBE_KEYS = numpy.random.default_rng(0).integers(0, 1 << 30, 100_000)
_PROBE_DOC = json.dumps([{"id": i, "name": f"r{i}", "vals": list(range(i % 7))} for i in range(400)])
_PROBE_PAIR = re.compile(r"r(\d+)=(\d+)")
_PROBE_AXIS = numpy.arange(-40, 41, dtype=numpy.int64)


def probe() -> float:
    """Seconds for a fixed slice of interpreter, allocation and numpy work,
    in the proportions the workloads mix them.

    The machine's speed drifts by tens of percent from minute to minute, for
    every program on it.  Dividing a latency by the median probe time taken
    in the same run cancels most of that drift.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    doc = json.loads(_PROBE_DOC)
    _PROBE_PAIR.findall(" ".join(f"{d['name']}={d['id']}" for d in doc))
    numpy.sort(_PROBE_KEYS)
    ys = _PROBE_AXIS
    grid = (3 * ys * ys)[:, None] + ys[:, None] * ys[None, :] + (5 * ys * ys)[None, :]
    for x in range(6):
        vals = (grid + (2 * x * x + x * ys)[:, None]).ravel()
        numpy.unique(vals[vals <= 5000], return_index=True)
    return perf_counter() - t0


class Sink:
    """In-memory stdout: chunks are kept, and joined after the timed call."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def call_main(request):
    """Time one main(argv) call; returns (seconds, rc, stdout, stderr, error)."""
    out, err = Sink(), io.StringIO()
    args = workloads.argv(request)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc, error = cli.main(args), None
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return dt, rc, "".join(out.chunks), err.getvalue(), error


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
    }


def measure_setup(root: Path) -> tuple[list[float], list[dict]]:
    """Wall times of SETUP_REPEATS fresh interpreters running SETUP_CODE,
    and each one's own phase split."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    walls, phases = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, env=env, timeout=120
        )
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, phases


def _expected(kind: str) -> dict:
    return json.loads((HERE / "expected.json").read_text())[kind]


# ---------------------------------------------------------------- workloads

class Workload:
    """Runs requests through main(argv), keeps latencies by request kind,
    and checks every output once the timed part is over."""

    kinds: tuple[str, str]  # request kinds behind main_p50_rel and alt_p50_rel
    trace_repeats = 3  # untraced/traced passes of traced_requests()

    def __init__(self, seed: int):
        self.catalog = cli.load_default_catalog()
        self.seed = seed
        self.lat: dict[str, list[float]] = {kind: [] for kind in self.kinds}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs a gate rejected, as opposed to crashes
        self.reasons: dict[str, int] = {}
        self.pending: list[tuple] = []  # (request, rc, stdout, stderr, error)
        self.probe_s: list[float] = []
        self._next_probe = 0.0

    def requests(self):
        raise NotImplementedError

    def kind(self, request) -> str:
        raise NotImplementedError

    def gate(self, request, rc, stdout, stderr) -> str | None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed requests that fill the program's lazy tables and caches."""
        raise NotImplementedError

    def rows(self) -> list[tuple[str, str, str]]:
        """(name, value, unit) lines for the human-readable summary."""
        raise NotImplementedError

    def run(self, request) -> float:
        """One timed request; its output is checked later by finish()."""
        dt, rc, stdout, stderr, error = call_main(request)
        self.attempted += 1
        self.lat[self.kind(request)].append(dt)
        self.pending.append((request, rc, stdout, stderr, error))
        return dt

    def step(self, request) -> None:
        """One request, then a probe if PROBE_EVERY_S has passed since the last."""
        self.run(request)
        now = perf_counter()
        if now >= self._next_probe:
            self.probe_s.append(probe())
            self._next_probe = now + PROBE_EVERY_S

    def loop(self, seconds: float) -> None:
        stream = self.requests()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            self.step(next(stream))

    def finish(self) -> None:
        """Gate every pending output (with the tracer uninstalled)."""
        for request, rc, stdout, stderr, error in self.pending:
            reason = error if error is not None else self.gate(request, rc, stdout, stderr)
            if reason is None:
                continue
            self.failed += 1
            if error is None:
                self.wrong += 1
            else:
                reason = reason.split(":")[0]
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.pending.clear()

    def traced_requests(self) -> list[tuple]:
        return workloads.take(self.requests(), 2)

    def median_ms(self, kind: str) -> float:
        return statistics.median(self.lat[kind]) * 1e3

    def relative(self, kind: str) -> float:
        """Median latency of `kind` over the median probe time."""
        return statistics.median(self.lat[kind]) / statistics.median(self.probe_s)


class VerifyCatalog(Workload):
    kinds = ("serial", "parallel")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = nproc()
        self.expected = _expected("verify")[str(workloads.VERIFY_BOUND)]
        self.record_s: list[list[float]] = []  # per parallel request, per record
        self.parallel_wall: list[float] = []

    def requests(self):
        return workloads.verify_requests(self.seed, self.jobs)

    def kind(self, request) -> str:
        return "serial" if request[-1] == 1 else "parallel"

    def run(self, request) -> float:
        dt = super().run(request)
        if self.kind(request) == "parallel":
            stderr = self.pending[-1][3]
            self.record_s.append([float(m.group(2)) for m in RECORD_TIME.finditer(stderr)])
            self.parallel_wall.append(dt)
        return dt

    def gate(self, request, rc, stdout, stderr):
        return gates.check_verify(rc, stdout, workloads.VERIFY_BOUND, len(self.catalog.records), self.expected)

    def warm_up(self) -> None:
        call_main(("verify", "all", "--bound", 200))

    def traced_requests(self):
        return [("verify", "all", "--bound", workloads.VERIFY_BOUND, "--jobs", 1)]

    def parallel_stats(self) -> tuple[float, float]:
        """(max per-record seconds, median parallel efficiency) over the
        parallel requests; efficiency = sum of record seconds / (jobs * wall)."""
        if not self.parallel_wall:
            return 0.0, 0.0
        rmax = max((max(r) for r in self.record_s if r), default=0.0)
        eff = [sum(r) / (self.jobs * w) for r, w in zip(self.record_s, self.parallel_wall)]
        return rmax, statistics.median(eff)

    def rows(self):
        rmax, eff = self.parallel_stats()
        s, p = self.lat["serial"], self.lat["parallel"]
        return [
            ("verify_serial_s", f"{statistics.median(s):.3f}", f"s (n={len(s)}, --bound {workloads.VERIFY_BOUND} --jobs 1)"),
            ("verify_parallel_s", f"{statistics.median(p):.3f}", f"s (n={len(p)}, --jobs {self.jobs})"),
            ("verify_peak_rss_mb", f"{peak_rss_mb():.1f}", "MB (benchmark process and pool workers)"),
            ("cli_verify.verify.record_s_max", f"{rmax:.2f}", "s (stderr, 0.01 s resolution)"),
            ("cli_verify.verify.parallel_eff", f"{eff:.3f}", "ratio"),
        ]


class PointQueries(Workload):
    kinds = ("classify", "local")
    trace_repeats = 1  # 680 queries already average the overhead

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records = {rec.rid: rec for rec in self.catalog.records}
        self.verdicts: dict[str, int] = {}  # classify verdict -> count
        self.big_local = 0

    def requests(self):
        return workloads.point_requests(self.seed, self.catalog, cli.main)

    def kind(self, request) -> str:
        return request[0]

    def run(self, request) -> float:
        dt = super().run(request)
        if request[0] == "local" and request[3] >= workloads.TWO_63:
            self.big_local += 1
        if request[0] == "classify":
            verdict = self.pending[-1][2].split(" ")[0].rstrip(",\n")
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        return dt

    def gate(self, request, rc, stdout, stderr):
        rec = self.records[request[1]]
        if request[0] == "classify":
            return gates.check_classify(rec, request[2], rc, stdout)
        return gates.check_local(rec, request[2], request[3], rc, stdout)

    def loop(self, seconds: float) -> None:
        """A fixed count of whole rounds, sized to about `seconds`; it holds
        the sample minimum of both tail percentiles."""
        for request in workloads.take(self.requests(), workloads.point_query_count(seconds)):
            self.step(request)

    def warm_up(self) -> None:
        for rec in self.catalog.records:
            call_main(("classify", rec.rid, 100))
            for p in rec.ramified_primes():
                call_main(("local", rec.rid, p, 7))

    def traced_requests(self):
        return workloads.take(self.requests(), TRACED_POINT_QUERIES)

    def rows(self):
        c, loc = self.lat["classify"], self.lat["local"]

        def tail(values, q, minimum):
            return f"{percentile(values, q) * 1e3:.2f}" if len(values) >= minimum else "n/a"

        total = sum(self.verdicts.values())
        shares = ", ".join(f"{k} {v / total:.3f}" for k, v in sorted(self.verdicts.items()))
        return [
            ("classify_p50_ms", f"{self.median_ms('classify'):.3f}", f"ms (n={len(c)})"),
            ("classify_p95_ms", tail(c, 95, MIN_CLASSIFY), f"ms (n={len(c)}, needs {MIN_CLASSIFY})"),
            ("local_p50_ms", f"{self.median_ms('local'):.3f}", f"ms (n={len(loc)})"),
            ("local_p99_ms", tail(loc, 99, MIN_LOCAL), f"ms (n={len(loc)}, needs {MIN_LOCAL})"),
            ("classify_verdict_share", shares, f"(of {total} classify)"),
            ("local_n_ge_2^63_share", f"{self.big_local / len(loc):.4f}", f"(of {len(loc)} local)"),
        ]


class ReportDump(Workload):
    kinds = ("all", "wide")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = _expected("report")
        self.bytes: dict[str, int] = {}

    def requests(self):
        return workloads.report_requests(self.seed)

    def kind(self, request) -> str:
        return "all" if request[1] == "all" else "wide"

    def run(self, request) -> float:
        dt = super().run(request)
        # keep the digest rather than megabytes of text per request
        req, rc, stdout, stderr, error = self.pending[-1]
        self.bytes[self.kind(request)] = len(stdout)
        self.pending[-1] = (req, rc, gates.sha256(stdout), stderr, error)
        return dt

    def gate(self, request, rc, digest, stderr):
        return gates.check_digest(rc, digest, self.expected[f"{request[1]}@{request[3]}"])

    def warm_up(self) -> None:
        call_main(("report", "all", "--bound", 200))

    def rows(self):
        a, w = self.lat["all"], self.lat["wide"]
        return [
            ("report_s", f"{statistics.median(a):.3f}",
             f"s (n={len(a)}, report all --bound {workloads.REPORT_BOUND}, {self.bytes['all']} bytes)"),
            ("report_wide_s", f"{statistics.median(w):.3f}",
             f"s (n={len(w)}, report {workloads.REPORT_WIDE_RECORD} --bound {workloads.REPORT_WIDE_BOUND})"),
        ]


CLASSES = {"verify-catalog": VerifyCatalog, "point-queries": PointQueries, "report-dump": ReportDump}


# -------------------------------------------------------------- traced run

def per_layer(work: Workload, tr: tracer.Tracer, untraced_s: float, traced_s: float) -> dict[str, tuple]:
    """PER_LAYER metric -> (value, unit) from a finished traced run."""
    fields = {"calls": tr.calls, "s": tr.seconds, "self_s": tr.self_seconds}
    out = {f"{name}.{field}": (fields[field](name), unit) for name, field, unit in TRACED}
    enum = tr.enum
    rmax, eff = work.parallel_stats() if isinstance(work, VerifyCatalog) else (0.0, 0.0)
    derived = {
        "forms_core.enumerate.points": enum["points"],
        "forms_core.enumerate.hits": enum["hits"],
        "forms_core.enumerate.hit_ratio": enum["hits"] / enum["points"] if enum["points"] else 0.0,
        "forms_core.enumerate.bytes": enum["bytes"],
        "cli_verify.verify.record_s_max": rmax,
        "cli_verify.verify.parallel_eff": eff,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    out.update({name: (derived[name], unit) for name, unit in DERIVED})
    return out


def run_traced(work: Workload, spans_path: Path) -> dict[str, tuple]:
    """A fixed request list untraced, then traced, `trace_repeats` times.

    The per-layer values come from the first traced pass; the overhead is
    the median traced pass minus the median untraced pass.
    """
    reqs = work.traced_requests()
    if isinstance(work, VerifyCatalog):
        # the untraced jobs=nproc run behind record_s_max and parallel_eff
        work.run(("verify", "all", "--bound", workloads.VERIFY_BOUND, "--jobs", work.jobs))
    untraced, traced, first = [], [], None
    for _ in range(work.trace_repeats):
        untraced.append(sum(work.run(r) for r in reqs))
        tr = tracer.Tracer()
        with tr:
            traced_s = 0.0
            for i, r in enumerate(reqs):
                tr.request = i
                traced_s += work.run(r)
        traced.append(traced_s)
        first = first or tr
    first.dump(spans_path)
    return per_layer(work, first, statistics.median(untraced), statistics.median(traced))


# --------------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    env = environment(root, seed)
    print(f"# {workload} seed={seed} trace={int(trace)} env={json.dumps(env)}")

    work = CLASSES[workload](seed)
    if trace:
        work.warm_up()
        layer = run_traced(work, results / f"{tag}-spans.json")
        work.finish()
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, m in metrics.items():
            print(f"  {name:46s} {m['value']:.6g} {m['unit']}")
    else:
        walls, phases = measure_setup(root)
        work.warm_up()
        work.loop(seconds)
        work.finish()
        main_kind, alt_kind = work.kinds
        values = (statistics.median(walls), work.relative(main_kind), work.relative(alt_kind), peak_rss_mb())
        metrics = {name: {"value": v, "unit": unit} for (name, unit), v in zip(END_TO_END, values)}
        split = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
        probe_ms = statistics.median(work.probe_s) * 1e3
        print(f"  {'setup_s':30s} {values[0]:.3f} s (median of {SETUP_REPEATS} fresh interpreters; import "
              f"{split['import_s']:.3f}, catalog {split['catalog_s']:.4f}, tables {split['tables_s']:.3f})")
        print(f"  {'probe_ms':30s} {probe_ms:.3f} ms (median of {len(work.probe_s)} probes)")
        print(f"  {'main_p50_rel':30s} {values[1]:.4f} ms/ms ({main_kind} p50 {work.median_ms(main_kind):.3f} ms / probe)")
        print(f"  {'alt_p50_rel':30s} {values[2]:.4f} ms/ms ({alt_kind} p50 {work.median_ms(alt_kind):.3f} ms / probe)")
        print(f"  {'peak_rss_mb':30s} {values[3]:.1f} MB")
        for name, value, unit in work.rows():
            print(f"  {name:30s} {value} {unit}")
    print(f"  {'ops_failed_frac':30s} {work.failed / work.attempted:.4f} "
          f"({work.failed} of {work.attempted} operations)")
    for reason, count in sorted(work.reasons.items()):
        print(f"    failed: {count} x {reason}")

    result = {"correct": work.wrong == 0, "attempted": work.attempted, "failed": work.failed, "metrics": metrics}
    record = {"env": env, **result, "samples_s": work.lat, "probe_s": work.probe_s}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0
