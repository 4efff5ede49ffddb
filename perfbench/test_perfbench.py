"""The benchmark's own tests: deterministic generators, and output gates
that catch a corrupted line and count it as a failed operation.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import pytest

import spinor_ternary as st
import spinor_ternary.cli_verify  # noqa: F401

import bench
import gates
import tracer
import workloads


@pytest.fixture(scope="module")
def catalog():
    return st.load_default_catalog()


def cli(request):
    _dt, rc, stdout, _stderr, error = bench.call_main(request)
    assert error is None
    return rc, stdout


# ---------------------------------------------------------------- generators

def test_point_requests_deterministic(catalog):
    first = workloads.take(workloads.point_requests(7, catalog, st.cli_verify.main), 400)
    again = workloads.take(workloads.point_requests(7, catalog, st.cli_verify.main), 400)
    other = workloads.take(workloads.point_requests(8, catalog, st.cli_verify.main), 400)
    assert first == again
    assert first != other


def test_point_requests_shape(catalog):
    rounds = 3
    reqs = workloads.take(workloads.point_requests(3, catalog, st.cli_verify.main), rounds * workloads.POINT_ROUND)
    ids = {rec.rid: rec for rec in catalog.records}
    for k in range(rounds):
        chunk = reqs[k * workloads.POINT_ROUND:(k + 1) * workloads.POINT_ROUND]
        assert [r[0] for r in chunk].count("classify") == workloads.CLASSIFY_PER_ROUND
        local = [r for r in chunk if r[0] == "local"]
        ramified = sorted(r[3].bit_length() for r in local if r[2] in ids[r[1]].ramified_primes())
        assert ramified == list(range(1, workloads.LOCAL_MAX_BITS + 1))
        # the one query of the round that hits the known OverflowError
        assert sum(r[3] >= workloads.TWO_63 and r[2] in ids[r[1]].ramified_primes() for r in local) == 1
    for r in reqs:
        if r[0] == "classify":
            assert 1 <= r[2] <= workloads.CLASSIFY_BOUND
        else:
            _, rid, p, n = r
            assert (2 * ids[rid].delta) % p == 0 or p % 2 == 1
            assert 1 <= n < 1 << workloads.LOCAL_MAX_BITS


def test_point_query_count_is_whole_rounds():
    for seconds in (1, 10, 30, 60):
        count = workloads.point_query_count(seconds)
        assert count % workloads.POINT_ROUND == 0
        assert count // workloads.POINT_ROUND >= workloads.MIN_POINT_ROUNDS
    rounds = workloads.MIN_POINT_ROUNDS
    assert rounds * workloads.CLASSIFY_PER_ROUND >= bench.MIN_CLASSIFY
    assert rounds * workloads.LOCAL_PER_ROUND >= bench.MIN_LOCAL


def test_bulk_requests_deterministic():
    assert workloads.take(workloads.verify_requests(4, 2), 4) == workloads.take(workloads.verify_requests(4, 2), 4)
    assert workloads.take(workloads.report_requests(5), 3) == workloads.take(workloads.report_requests(5), 3)
    assert workloads.take(workloads.verify_requests(4, 2), 1) != workloads.take(workloads.verify_requests(5, 2), 1)


# --------------------------------------------------------------------- gates

def test_verify_gate_catches_corruption():
    lines = [
        f"{rid} bound=100 represented=50 exceptional=1 locally_excluded=49 mismatches=0 PASS"
        for rid in ("A1", "B4", "C1")
    ]
    clean = "\n".join(lines) + "\n"
    sha = gates.sha256(clean)
    assert gates.check_verify(0, clean, 100, 3, sha) is None
    assert gates.check_verify(1, clean, 100, 3, sha) is not None
    assert gates.check_verify(0, clean.replace("mismatches=0 PASS", "mismatches=1 FAIL", 1), 100, 3, sha)
    assert gates.check_verify(0, clean.replace("represented=50", "represented=51", 1), 100, 3, sha)
    assert gates.check_verify(0, clean, 200, 3, sha)
    assert gates.check_verify(0, clean + "MISMATCH A1 n=7\n", 100, 3, sha)


def test_digest_gate():
    assert gates.check_digest(0, "ab", "ab") is None
    assert gates.check_digest(0, "ab", "cd")
    assert gates.check_digest(2, "ab", "ab")


CLASSIFY_CASES = [("B4", 3), ("B4", 2), ("A8", 9), ("A1", 25), ("B11", 48), ("C1", 77)]


@pytest.mark.parametrize("rid,n", CLASSIFY_CASES)
def test_classify_gate_accepts_real_output(catalog, rid, n):
    rc, out = cli(("classify", rid, n))
    assert gates.check_classify(catalog.lookup(rid), n, rc, out) is None


@pytest.mark.parametrize(
    "rid,n,line",
    [
        ("B4", 3, "REPRESENTED (1,1,0)"),  # witness gives another value
        ("A8", 9, "EXCEPTIONAL, matched (s=2, t=2)"),  # not a squareclass holding 9
        ("A8", 10, "EXCEPTIONAL, matched (s=1, t=2)"),  # 10 is not 1*w^2
        ("B4", 3, "LOCALLY_EXCLUDED, fails at p=2"),  # B4 represents 3
        ("B4", 2, "LOCALLY_EXCLUDED, fails at p=5"),  # 5 is not ramified
        ("B4", 2, "LOCALLY EXCLUDED at 2"),
        ("B4", 2, ""),
    ],
)
def test_classify_gate_rejects_corrupted_line(catalog, rid, n, line):
    assert gates.check_classify(catalog.lookup(rid), n, 0, line + "\n") is not None


LOCAL_CASES = [("B11", 2, 12), ("B11", 3, 48), ("B11", 3, 2**62 + 1), ("A1", 7, 10**12 + 3)]


@pytest.mark.parametrize("rid,p,n", LOCAL_CASES)
def test_local_gate_accepts_real_output(catalog, rid, p, n):
    rc, out = cli(("local", rid, p, n))
    assert gates.check_local(catalog.lookup(rid), p, n, rc, out) is None


def test_local_gate_rejects_corrupted_line(catalog):
    rec = catalog.lookup("B11")
    _, good = cli(("local", "B11", 3, 48))
    assert gates.check_local(rec, 3, 48, 0, good) is None
    assert gates.check_local(rec, 3, 48, 0, good.replace("x=(", "x=(1")) is not None
    assert gates.check_local(rec, 3, 48, 0, good.replace("gradient order 1", "gradient order 0")) is not None
    assert gates.check_local(rec, 3, 49, 0, good) is not None
    # non-representable claimed where the table route represents n
    assert gates.check_local(rec, 3, 48, 0, "non-representable: exhausted mod 3^5\n") is not None
    assert gates.check_local(rec, 3, 48, 1, good) is not None


def test_corrupted_outputs_count_as_failed_without_aborting(catalog):
    work = bench.PointQueries(1)
    for request in (("classify", "B4", 3), ("local", "B11", 3, 48), ("classify", "B4", 2)):
        work.run(request)
    req, rc, out, err, error = work.pending[0]
    work.pending[0] = (req, rc, out.replace("REPRESENTED (", "REPRESENTED (9"), err, error)
    work.pending.append((("local", "B11", 3, 2**63), None, "", "", "OverflowError: too big"))
    work.attempted += 1
    work.finish()
    assert (work.attempted, work.failed, work.wrong) == (4, 2, 1)


# -------------------------------------------------------------------- tracer

def test_tracer_counts_and_self_time(catalog):
    work = bench.PointQueries(1)
    with tracer.Tracer() as tr:
        work.run(("classify", "A1", 1000))
        work.run(("local", "B11", 3, 48))
    assert st.cli_verify.main.__name__ == "main"  # uninstalled
    assert tr.calls("cli_verify.main") == 2
    assert tr.calls("catalog.load") == 2
    assert tr.calls("spinor_theory.classify") == 1
    assert tr.calls("local_solver.local_represents") == 1
    assert tr.calls("forms_core.enumerate_represented") == 1
    assert tr.calls("spinor_theory.spinor_exceptional_general") == 0
    total = tr.seconds("cli_verify.main")
    inner = sum(tr.seconds(n) for n in ("catalog.load", "forms_core.enumerate_represented",
                                        "spinor_theory.classify", "local_solver.local_represents"))
    assert tr.self_seconds("cli_verify.main") == pytest.approx(total - inner, abs=1e-9)
    spans = {span[0]: span for span in tr.spans}
    assert len(spans) == len(tr.spans) == 7
    for _id, parent, _req, name, *_ in tr.spans:
        assert (parent is None) == (name == "cli_verify.main")
        assert parent is None or spans[parent][3] == "cli_verify.main"
    rec = catalog.lookup("A1")
    x1 = math.isqrt(2 * 1000 * rec.sgi_forms[0].gram_adjugate()[0][0] // rec.sgi_forms[0].gram_det())
    assert tr.enum["points"] % (x1 + 1) == 0
    assert tr.enum["bytes"] == 1001 * 13


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.CLASSES)
