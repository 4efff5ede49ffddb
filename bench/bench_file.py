"""Write one BENCH_<n>.json: the stage timings, fresh-process latencies
and environment that a performance change diffs against.

    python3 bench/bench_file.py --out BENCH_<n>.json [--src DIR]

``--src`` is the ``src/`` directory of the tree to measure (default: the
one beside this script); the tier-1 suite runs from its parent.  Running
the script once on a parent tree and once on its change, alternating which
goes first, gives the pairs a comparison needs.  It takes about 80 s
on two cores, and its processes peak near 210 MB RSS.
What it measures, and how, is PROTOCOL, which the file repeats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import get_context
from pathlib import Path

PROTOCOL = """\
- ``stages``: the four stage functions of ``verify_record``, called per
  record in its order and with its arguments: ``represented_mask`` of the
  first form, ``first_failing_prime``, ``squareclass_index`` of the spec,
  and ``exceptional_general_mask`` on ``first_failing_prime == 0``.  One
  untimed pass at bound 1000 first builds the local class tables, as the
  first record of a ``verify`` run does; its time is ``tables_s``.  Totals
  over the 29 records, per repeat.
- ``keyed_scan``: ``enumerate_represented``, the keyed scan whose least
  witnesses ``report`` and ``classify`` print, on each record's first form
  at 2e4 and 2e5, after the stages.  Totals over the 29 records, per
  repeat.
- ``verify``: ``verify all`` in a fresh process per run, ``--jobs 1`` and
  ``--jobs 2`` taking turns; wall time from spawn to exit, the peak RSS of
  the largest process (``wait4``'s ``ru_maxrss``, which covers the
  worker), and the stdout digest, which must equal the pinned one.
- ``point_queries``: one ``classify``, one ``local`` and a bare import,
  each in a fresh process, taking turns.
- ``tier1``: one run of the tier-1 suite.
- ``spin_probe``: before anything else, a fixed pure-Python loop timed
  in one process alone, then in two processes at once (five rounds).
  ``second_core_free`` is 2 * solo / pair - 1: 1 when the second core is
  idle, 0 when another load takes all of it.

Every repeated figure is given as its runs with median, q1 and q3
(``statistics.quantiles``, inclusive method); the noise statistic is the
IQR, q3 - q1.  No input is random, so there is no seed.
"""

REPEATS = 5
STAGE_BOUNDS = ((50_000, REPEATS), (1_000_000, REPEATS), (10_000_000, 1))
KEYED_BOUNDS = (20_000, 200_000)
# verify all stdout digests, pinned in CI
VERIFY_DIGESTS = {
    10_000: "101cd3ec333a97ff2c40284e88e00677899360f7efc524b253a4085b9f611693",
    1_000_000: "4fc5928447a1f85facde258ca8576d4e5e500d27619c55de5ea5359071d24f94",
}
POINT_QUERIES = {
    "classify A1 400009": ["-m", "spinor_ternary.cli_verify", "classify", "A1", "400009"],
    "local A12 2 256": ["-m", "spinor_ternary.cli_verify", "local", "A12", "2", "256"],
    "import spinor_ternary.cli_verify": ["-c", "import spinor_ternary.cli_verify"],
}
SPIN_LOOP = 3_000_000


def summary(runs: list[float]) -> dict:
    """runs with their median and quartiles; one run is its own quartiles."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def stage_pass(records, bound: int) -> dict[str, dict[str, float]]:
    """Seconds per stage per record for one verify_record-shaped pass."""
    from spinor_ternary.forms_core import represented_mask
    from spinor_ternary.local_solver import first_failing_prime
    from spinor_ternary.spinor_theory import exceptional_general_mask, squareclass_index

    out = {}
    for rec in records:
        t0 = time.perf_counter()
        represented_mask(rec.sgi_forms[0], bound)
        t1 = time.perf_counter()
        fail = first_failing_prime(rec, bound)
        t2 = time.perf_counter()
        squareclass_index(rec.exceptional_spec, bound)
        t3 = time.perf_counter()
        exceptional_general_mask(rec, bound, fail == 0)
        t4 = time.perf_counter()
        out[rec.rid] = {
            "represented_mask": t1 - t0,
            "first_failing_prime": t2 - t1,
            "squareclass_index": t3 - t2,
            "exceptional_general_mask": t4 - t3,
        }
    return out


def measure_stages(records) -> dict:
    t0 = time.perf_counter()
    stage_pass(records, 1000)
    result = {"tables_s": time.perf_counter() - t0}
    for bound, repeats in STAGE_BOUNDS:
        passes = [stage_pass(records, bound) for _ in range(repeats)]
        stages = list(passes[0][records[0].rid])
        result[str(bound)] = {
            "repeats": repeats,
            "totals_s": {
                s: summary([sum(p[rid][s] for rid in p) for p in passes]) for s in stages
            },
            "per_record_median_s": {
                rid: {s: statistics.median(p[rid][s] for p in passes) for s in stages}
                for rid in passes[0]
            },
        }
    return result


def measure_keyed_scan(records) -> dict:
    from spinor_ternary.forms_core import enumerate_represented

    result = {}
    for bound in KEYED_BOUNDS:
        passes = []
        for _ in range(REPEATS):
            seconds = {}
            for rec in records:
                t0 = time.perf_counter()
                enumerate_represented(rec.sgi_forms[0], bound)
                seconds[rec.rid] = time.perf_counter() - t0
            passes.append(seconds)
        result[str(bound)] = {
            "repeats": REPEATS,
            "total_s": summary([sum(p.values()) for p in passes]),
            "per_record_median_s": {rid: statistics.median(p[rid] for p in passes) for rid in passes[0]},
        }
    return result


# Runs argv with stdout inherited and stderr discarded, and writes "wall
# seconds, peak RSS kB, exit status" to its own stderr.  A process counts
# the memory of the one that spawned it in its peak RSS, so the measured
# command is spawned from this small interpreter, not from the benchmark.
_TIMER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def fresh_run(args: list[str], env: dict) -> tuple[float, float, str, int]:
    """(wall s, peak RSS MB, stdout sha256, exit status) of one fresh
    `python3 <args>`; the RSS is the largest of the process and every
    child it waited for."""
    with tempfile.TemporaryFile() as out:
        timer = subprocess.run([sys.executable, "-c", _TIMER, sys.executable, *args],
                               stdout=out, stderr=subprocess.PIPE, env=env, text=True, check=True)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    wall, rss_kb, code = timer.stderr.split()
    return float(wall), int(rss_kb) / 1024, digest, int(code)


def measure_fresh(cases: dict[str, list[str]], env: dict, digests: dict[str, str]) -> dict:
    """REPEATS fresh runs of each case, the cases taking turns, so that a
    drift in the host's load falls on all of them alike."""
    runs = {name: [] for name in cases}
    for _ in range(REPEATS):
        for name, args in cases.items():
            wall, rss, digest, code = fresh_run(args, env)
            if code != 0 or digests.get(name, digest) != digest:
                raise SystemExit(f"error: {name}: exit {code}, stdout sha256 {digest}")
            runs[name].append((wall, rss))
    return {
        name: {
            "wall_s": summary([w for w, _ in r]),
            "peak_rss_mb": summary([m for _, m in r]),
            **({"stdout_sha256": digests[name]} if name in digests else {}),
        }
        for name, r in runs.items()
    }


def _spin(barrier, conn) -> None:
    barrier.wait()
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_LOOP):
        x += i
    conn.send(time.perf_counter() - t0)
    conn.close()


def spin_round(ctx, procs: int) -> list[float]:
    """Loop seconds of each of `procs` processes started together."""
    barrier = ctx.Barrier(procs)
    pipes = [ctx.Pipe(duplex=False) for _ in range(procs)]
    workers = [ctx.Process(target=_spin, args=(barrier, send)) for _, send in pipes]
    for w in workers:
        w.start()
    try:
        return [recv.recv() for recv, _ in pipes]
    finally:
        for w in workers:
            w.join()


def spin_probe() -> dict:
    ctx = get_context("spawn")
    solo, pair = [], []
    for _ in range(REPEATS):
        solo += spin_round(ctx, 1)
        pair += spin_round(ctx, 2)
    solo_s, pair_s = statistics.median(solo), statistics.median(pair)
    return {
        "loop_iterations": SPIN_LOOP,
        "solo_s": summary(solo),
        "pair_s": summary(pair),
        "second_core_free": 2 * solo_s / pair_s - 1,
    }


def run_tier1(root: Path, env: dict) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def environment(root: Path) -> dict:
    import numpy

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "commit": git("rev-parse", "HEAD"),
        "tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write a BENCH_<n>.json baseline")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="src/ directory of the tree to measure")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "spinor_ternary" / "__init__.py").is_file():
        print(f"error: no spinor_ternary package under {src}", file=sys.stderr)
        return 2
    root = src.parent
    sys.path.insert(0, str(src))
    env = {**os.environ, "PYTHONPATH": str(src)}
    from spinor_ternary import load_default_catalog

    result = {"protocol": PROTOCOL, "environment": environment(root), "spin_probe": spin_probe()}
    print("stages ...", file=sys.stderr)
    records = load_default_catalog().records
    result["stages"] = measure_stages(records)
    print("keyed scan ...", file=sys.stderr)
    result["keyed_scan"] = measure_keyed_scan(records)
    print("fresh verify ...", file=sys.stderr)
    result["verify"] = {}
    for bound in (10_000, 1_000_000):
        cases = {
            f"jobs {j}": ["-m", "spinor_ternary.cli_verify", "verify", "all", "--bound", str(bound), "--jobs", str(j)]
            for j in (1, 2)
        }
        result["verify"][str(bound)] = measure_fresh(cases, env, dict.fromkeys(cases, VERIFY_DIGESTS[bound]))
    print("point queries ...", file=sys.stderr)
    result["point_queries"] = measure_fresh(POINT_QUERIES, env, {})
    print("tier-1 ...", file=sys.stderr)
    result["tier1"] = run_tier1(root, env)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
