"""Command line behavior: output text, exit statuses, determinism, and the
bulk verification masks behind the verify subcommand."""

import hashlib
import multiprocessing
import os
import re
import tracemalloc

import numpy as np
import pytest

from spinor_ternary import catalog as catalog_module
from spinor_ternary import cli_verify, local_solver, spinor_theory
from spinor_ternary.arith import ord_p
from spinor_ternary.catalog import dumps, loads
from spinor_ternary.cli_verify import main, verify_record
from spinor_ternary.forms_core import BLOCK_BYTES, enumerate_represented, represented_mask
from spinor_ternary.local_solver import genus_mask, genus_represents
from spinor_ternary.spinor_theory import (
    EXCEPTIONAL,
    INCONSISTENT,
    LOCALLY_EXCLUDED,
    REPRESENTED,
    classify,
    closed_form_missed_mask,
    exceptional_general_mask,
    in_Mt,
    inconsistency,
    mt_mask,
    spinor_exceptional_general,
    squareclass_index,
    squareclass_mask,
    squareclass_match,
)


def ramified_parts(primes, bound):
    """Every product r <= bound of the primes, the first prime's exponent
    varying slowest."""
    if not primes:
        return [1]
    parts, pk = [], 1
    while pk <= bound:
        parts += [pk * r for r in ramified_parts(primes[1:], bound // pk)]
        pk *= primes[0]
    return parts


def signature(rec, r):
    """(e_p mod 2, e_p > cutoff_p) at each ramified p of the record, the
    second item False where no cutoff is recorded."""
    out = []
    for p in rec.ramified_primes():
        e, cutoff = ord_p(p, r), rec.local_data[p].cutoff
        out.append((e % 2, cutoff is not None and e > cutoff))
    return tuple(out)


@pytest.fixture
def clause_calls(monkeypatch):
    """The n of every `spinor_theory._ramified_clause` call, in order."""
    calls = []
    clause = spinor_theory._ramified_clause

    def counted(rec, n):
        calls.append(n)
        return clause(rec, n)

    monkeypatch.setattr(spinor_theory, "_ramified_clause", counted)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMasks:
    def test_mt_mask_matches_pointwise(self):
        for t in (1, 2, 3, 7):
            mask = mt_mask(t, 400)
            assert not mask[0]
            for w in range(1, 401):
                assert mask[w] == in_Mt(t, w), (t, w)

    def test_squareclass_mask_small(self):
        mask = squareclass_mask(((1, 1),), 100)
        assert set(np.flatnonzero(mask)) == {1, 25}
        mask = squareclass_mask(((1, 1), (4, 1), (16, 1)), 100)
        assert set(np.flatnonzero(mask)) == {1, 4, 16, 25, 100}

    def test_squareclass_index_matches_pointwise(self, catalog):
        for spec in {rec.exceptional_spec for rec in catalog.records}:
            idx = squareclass_index(spec, 2000)
            assert idx[0] == -1
            for n in range(1, 2001):
                match = squareclass_match(spec, n)
                assert (idx[n] == -1) == (match is None), (spec, n)
                assert match is None or spec[idx[n]] == match, (spec, n)

    def test_squareclass_index_first_match(self):
        # 25*w^2 = (5w)^2 with 5 in M_1, so both entries hold 25 and 625
        spec = ((1, 1), (25, 1))
        for order in (spec, spec[::-1]):
            idx = squareclass_index(order, 700)
            for n in (25, 625):
                assert order[idx[n]] == squareclass_match(order, n) == order[0]
            assert order[idx[1]] == (1, 1)

    # a bound that is itself a candidate r*m^2 (1, 2, 48 = 3 * 4^2, and
    # 49, 121, 169 with m a prime at the top of its range) catches an
    # off-by-one in the range of m; 1 is an exceptional integer of A1
    @pytest.mark.parametrize("bound", (1, 2, 48, 49, 121, 169, 3000))
    def test_criterion_mask_matches_pointwise(self, catalog, bound):
        for rec in catalog.records:
            mask = exceptional_general_mask(rec, bound, genus_mask(rec, bound))
            assert not mask[0]
            for n in range(1, bound + 1):
                # the criterion runs first, so it is called (and must not
                # raise) on every n, genus-represented or not
                want = spinor_exceptional_general(rec, n) and genus_represents(rec, n)
                assert mask[n] == want, (rec.rid, n)

    def test_criterion_mask_asks_only_the_ramified_clause(self, catalog, monkeypatch):
        # the m-sieve is the clause away from 2*delta, so each ramified part
        # is put only to the ramified clause: neither the whole criterion
        # nor factor runs, and the masks still match the pointwise criterion
        bound = 3000

        def refuse(*args):
            raise AssertionError("the clause away from 2*delta ran on a ramified part")

        masks = {}
        with monkeypatch.context() as patched:
            patched.setattr(spinor_theory, "factor", refuse)
            patched.setattr(spinor_theory, "spinor_exceptional_general", refuse)
            for rec in catalog.records:
                masks[rec.rid] = exceptional_general_mask(rec, bound, genus_mask(rec, bound))
        for rec in catalog.records:
            mask = masks[rec.rid]
            assert not mask[0]
            for n in range(1, bound + 1):
                want = spinor_exceptional_general(rec, n) and genus_represents(rec, n)
                assert mask[n] == want, (rec.rid, n)

    def test_criterion_mask_matches_oracle(self, catalog):
        # at 5e4 the ramified parts r of n = r*m^2 reach high powers; the
        # candidates are found here from n alone: strip the ramified primes
        # and require a perfect square
        bound = 50000
        for rec in catalog.records:
            gen = genus_mask(rec, bound)
            mask = exceptional_general_mask(rec, bound, gen)
            core = np.arange(bound + 1)
            for p in rec.ramified_primes():
                while (hit := (core % p == 0) & (core > 0)).any():
                    core[hit] //= p
            root = np.rint(np.sqrt(core)).astype(np.int64)
            cand = gen & (root * root == core)
            assert not mask[~cand].any(), rec.rid
            for n in np.flatnonzero(cand).tolist():
                assert mask[n] == spinor_exceptional_general(rec, n), (rec.rid, n)

    def test_criterion_once_per_ramified_part(self, catalog, clause_calls):
        # the ramified clause reads a ramified part r only through its
        # signature, so verify asks it once per signature, on the first
        # genus-represented part that has it, the first ramified prime's
        # exponent varying slowest
        total = 0
        for rec in catalog.records:
            clause_calls.clear()
            assert verify_record(rec, 10000).passed
            firsts = {}
            for r in ramified_parts(rec.ramified_primes(), 10000):
                if genus_represents(rec, r):
                    firsts.setdefault(signature(rec, r), r)
            assert clause_calls == list(firsts.values()), rec.rid
            total += len(clause_calls)
        # 743 genus-represented parts, in 168 signatures
        assert total == 168

    def test_ramified_clause_reads_only_the_signature(self, catalog):
        # the lemma behind asking once per signature: every genus-represented
        # ramified part gets the verdict of its signature's first part
        parts = signatures = 0
        for rec in catalog.records:
            first = {}
            for r in ramified_parts(rec.ramified_primes(), 10**6):
                if genus_represents(rec, r):
                    verdict = spinor_theory._ramified_clause(rec, r)
                    assert first.setdefault(signature(rec, r), verdict) == verdict, (rec.rid, r)
                    parts += 1
            signatures += len(first)
        assert (parts, signatures) == (1576, 169)

    def test_criterion_mask_raises_where_the_parts_do(self, catalog, monkeypatch, clause_calls):
        # with no odd cutoff tabulated, the clause raises on a part whose
        # -r*delta is not a square at an odd ramified prime; asking once per
        # signature raises the same error, on the same part, as asking each
        # genus-represented part in turn
        bound = 10000
        gens = {rec.rid: genus_mask(rec, bound) for rec in catalog.records}
        monkeypatch.setattr(catalog_module, "_ODD_CUTOFFS", {})
        raised = 0
        for rec in catalog.records:
            want = None
            for r in ramified_parts(rec.ramified_primes(), bound):
                if gens[rec.rid][r]:
                    try:
                        spinor_theory._ramified_clause(rec, r)
                    except ValueError as exc:
                        want = (r, str(exc))
                        break
            clause_calls.clear()
            if want is None:
                exceptional_general_mask(rec, bound, gens[rec.rid])
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(want[1])}$"):
                exceptional_general_mask(rec, bound, gens[rec.rid])
            assert clause_calls[-1] == want[0], rec.rid
            raised += 1
        # the twelve B records at p=3 and the four C records at p=7
        assert raised == 16

    def test_bulk_bad_is_the_shared_rule(self, catalog, monkeypatch):
        # n = 1..8 walk every (represented, genus-represented, in a
        # squareclass) triple: bits 0, 1 and 2 of n - 1
        n = np.arange(9)
        rep, gen, spec = ((n > 0) & ((n - 1) >> k & 1 == 1) for k in range(3))
        monkeypatch.setattr(cli_verify, "first_failing_prime", lambda r, b: np.where(gen, 0, 2))
        monkeypatch.setattr(cli_verify, "squareclass_index", lambda s, b: np.where(spec, 0, -1))
        _, _, bad = cli_verify.record_masks(catalog.lookup("B3"), 8, rep)
        assert not bad[0]
        for n in range(1, 9):
            found = inconsistency(rep[n], None if gen[n] else 2, (1, 1) if spec[n] else None)
            assert bad[n] == (found is not None), (rep[n], gen[n], spec[n])
        assert int(bad.sum()) == 5

    def test_closed_form_only_for_the_two_regular_forms(self):
        assert closed_form_missed_mask("A1", 50) is None
        assert closed_form_missed_mask("B4", 50) is not None
        assert closed_form_missed_mask("B11", 50) is not None

    @pytest.mark.parametrize("bound", (1, 5, 6, 53, 54, 485, 486, 3 * 10**5))
    def test_closed_form_marks_the_predicates_classes(self, bound):
        # the strided classes of the mask and the lemma predicates read one
        # list per lemma; bounds step across 6*9^k
        n = np.arange(bound + 1)
        scl = squareclass_mask(((1, 3), (4, 3)), bound)
        for rid, two_adic in (("B4", local_solver.lemma71_excluded), ("B11", local_solver.lemma72_excluded)):
            want = two_adic(n) | local_solver.lemma73_excluded(n) | scl
            assert not want[0]
            assert np.array_equal(closed_form_missed_mask(rid, bound), want), rid

    def test_closed_form_peak_grows_by_under_3_bytes_per_n(self):
        # the result and route 2's int8 squareclass index; an int64 arange
        # and its n % m temporaries cost 19 B/n
        for rid in ("B4", "B11"):
            closed_form_missed_mask(rid, 100)
            peaks = []
            for bound in (100000, 300000):
                tracemalloc.start()
                try:
                    closed_form_missed_mask(rid, bound)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] <= 3 * 200000, rid


class TestClassifyCommand:
    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "classify", "A8", "9")
        assert code == 0
        assert out == "EXCEPTIONAL, matched (s=1, t=2)\n"

    def test_exceptional_scaled_class(self, capsys):
        code, out, _ = run(capsys, "classify", "B10", "4")
        assert code == 0
        assert out == "EXCEPTIONAL, matched (s=4, t=3)\n"

    def test_represented(self, capsys):
        code, out, _ = run(capsys, "classify", "B4", "3")
        assert code == 0
        assert out == "REPRESENTED (1,0,0)\n"

    def test_locally_excluded(self, capsys):
        code, out, _ = run(capsys, "classify", "B4", "2")
        assert code == 0
        assert out == "LOCALLY_EXCLUDED, fails at p=2\n"

    # with B3's 3M3 swapped for M1 its findings disagree on 25 (represented
    # and in M1^2) and on 3 (exceptional yet in no squareclass); exit 1 and
    # the detail text of the report row, as for any verification mismatch
    @pytest.mark.parametrize("n, want, status", (
        (25, "INCONSISTENT, represented, in s=1,t=1\n", 1),
        (3, "INCONSISTENT, no witness\n", 1),
        (2, "LOCALLY_EXCLUDED, fails at p=2\n", 0),
    ))
    def test_defective_catalog(self, capsys, catalog, tmp_path, n, want, status):
        path = tmp_path / "bad.txt"
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional M1"))
        code, out, err = run(capsys, "--catalog", str(path), "classify", "B3", str(n))
        assert (code, out, err) == (status, want, "")

    def test_unknown_record(self, capsys):
        code, _, err = run(capsys, "classify", "Z9", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_nonpositive_n(self, capsys):
        code, _, err = run(capsys, "classify", "B4", "0")
        assert code == 2
        assert "n must be >= 1" in err

    def test_bound_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "B4", "9", "--bound", "5"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err


class TestLocalCommand:
    def test_non_representable(self, capsys):
        code, out, _ = run(capsys, "local", "B11", "2", "12")
        assert code == 0
        assert out == "non-representable: exhausted mod 2^15\n"

    def test_representable_with_certificate(self, capsys):
        code, out, _ = run(capsys, "local", "B11", "3", "48")
        assert code == 0
        assert out == (
            "representable: x=(0,0,1) with F(x) = 48 mod 3^3, gradient order 1\n"
        )

    def test_unramified_note(self, capsys):
        code, out, _ = run(capsys, "local", "A1", "7", "5")
        assert code == 0
        assert out.startswith("representable: x=(")
        assert "mod 7^1, gradient order 0 (unramified shortcut)" in out
        # the printed residue really hits 5 mod 7
        coords = tuple(int(c) for c in out.split("x=(")[1].split(")")[0].split(","))
        x, y, z = coords
        assert (2 * x * x + 2 * y * y + 5 * z * z + 2 * y * z + 2 * x * z) % 7 == 5

    @pytest.mark.parametrize("p", ("1", "0", "-3", "4", "6"))
    def test_bad_prime(self, capsys, p):
        code, out, err = run(capsys, "local", "B11", p, "12")
        assert code == 2
        assert out == ""
        assert err == f"error: p must be a prime, got {p}\n"

    @pytest.mark.parametrize(
        "p, n, err",
        [
            # psi_12, a composite that the bases 2..37 alone take for prime
            ("318665857834031151167461", "2", "p must be a prime, got 318665857834031151167461"),
            ("318665857834031151167461", "1", "p must be a prime, got 318665857834031151167461"),
            # psi_13, from where primality is not certified
            ("3317044064679887385961981", "5",
             "primality is not certified at or above 3317044064679887385961981, "
             "got 3317044064679887385961981"),
        ],
        ids=("psi12-n2", "psi12-n1", "psi13"),
    )
    def test_uncertified_prime(self, capsys, p, n, err):
        code, out, got = run(capsys, "local", "A1", p, n)
        assert code == 2
        assert out == ""
        assert got == f"error: {err}\n"

    def test_n_beyond_int64(self, capsys):
        code, out, _ = run(capsys, "local", "B11", "3", str(2**63))
        assert code == 0
        assert out == "non-representable: exhausted mod 3^3\n"

    @pytest.mark.parametrize(
        "rid, p, n, want",
        [
            ("A12", "2", "256", "x=(5,61,15) with F(x) = 256 mod 2^13, gradient order 6"),
            ("A13", "2", "64", "x=(30,0,1) with F(x) = 64 mod 2^11, gradient order 5"),
            ("A9", "2", "320", "x=(2,26,1) with F(x) = 320 mod 2^11, gradient order 5"),
            ("C1", "7", "7", "x=(0,1,0) with F(x) = 7 mod 7^3, gradient order 1"),
        ],
        ids=("A12", "A13", "A9", "C1"),
    )
    def test_deepest_tree_levels(self, capsys, rid, p, n, want):
        # witnesses from the deepest class-tree levels, where the gradient
        # order d - 1 and the modulus p^(2d-1) are largest
        code, out, _ = run(capsys, "local", rid, p, n)
        assert code == 0
        assert out == f"representable: {want}\n"


class TestExceptionalListCommand:
    def test_a1(self, capsys):
        code, out, _ = run(capsys, "exceptional-list", "A1", "--bound", "100")
        assert code == 0
        assert out == "1\n25\n"

    def test_a12(self, capsys):
        code, out, _ = run(capsys, "exceptional-list", "A12", "--bound", "100")
        assert code == 0
        assert out.split() == ["1", "4", "16", "25", "100"]

    def test_b3(self, capsys):
        code, out, _ = run(capsys, "exceptional-list", "B3", "--bound", "100")
        assert code == 0
        assert out == "3\n"

    @pytest.mark.parametrize("bound", ("0", "-5"))
    def test_bound_below_one(self, capsys, bound):
        code, out, err = run(capsys, "exceptional-list", "A1", "--bound", bound)
        assert code == 2
        assert out == ""
        assert err == "error: bound must be >= 1\n"


class TestVerifyCommand:
    def test_single_record_summary(self, capsys):
        code, out, err = run(capsys, "verify", "B4", "--bound", "2000")
        assert code == 0
        assert out == (
            "B4 bound=2000 represented=737 exceptional=11 "
            "locally_excluded=1252 mismatches=0 PASS\n"
        )
        assert "B4:" in err  # timing goes to stderr

    def test_b11_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "B11", "--bound", "2000")
        assert code == 0
        assert out.startswith(
            "B11 bound=2000 represented=262 exceptional=11 locally_excluded=1727"
        )

    def test_all_records_deterministic_across_jobs(self, capsys):
        code1, out1, _ = run(capsys, "verify", "all", "--bound", "300", "--jobs", "1")
        code2, out2, _ = run(capsys, "verify", "all", "--bound", "300", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 29
        assert all(line.endswith("PASS") for line in out1.splitlines())
        # no records: no worker, and no zero slice step
        assert cli_verify.verify_records([], 300, 1) == cli_verify.verify_records([], 300, 2) == []

    @pytest.mark.parametrize("jobs", (0, (os.cpu_count() or 1) + 1))
    def test_jobs_out_of_range(self, capsys, jobs):
        # rejected before any worker process starts
        code, out, err = run(capsys, "verify", "B4", "--bound", "10", "--jobs", str(jobs))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --jobs must be between 1 and")

    @pytest.mark.parametrize("argv", ("verify A1 --bound 0", "verify all --bound -5 --jobs 2"))
    def test_bound_below_one(self, capsys, monkeypatch, argv):
        # refused before the memory cap and before any worker starts: either
        # would end in another message
        monkeypatch.setattr(cli_verify, "_available_memory", lambda: 0)
        monkeypatch.setattr(cli_verify, "Process", None)
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err == "error: bound must be >= 1\n"

    def test_represented_but_not_genus_represented_fails(self, capsys, monkeypatch):
        # a genus test that wrongly drops represented n must fail every record
        real = local_solver.local_mask

        def drops_thousands(form, p, bound):
            mask = real(form, p, bound).copy()
            mask[::1000] = False
            return mask

        monkeypatch.setattr(local_solver, "local_mask", drops_thousands)
        code, out, _ = run(capsys, "verify", "all", "--bound", "10000")
        assert code == 1
        summaries = [ln for ln in out.splitlines() if not ln.startswith("MISMATCH")]
        assert len(summaries) == 29
        assert all(ln.endswith("FAIL") for ln in summaries)

    def test_all_records_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--bound", "10000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "101cd3ec333a97ff2c40284e88e00677899360f7efc524b253a4085b9f611693"
        )

    @pytest.mark.parametrize("jobs", ("1", "2"))
    def test_failing_run_bytes(self, capsys, catalog, tmp_path, jobs):
        # pins the summaries, the MISMATCH lines and their order of a
        # failing run; the other 28 records still pass.  Under --jobs 2,
        # B3's MISMATCH lines come from a worker's share
        path = tmp_path / "bad.txt"
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional M1"))
        code, out, _ = run(
            capsys, "--catalog", str(path), "verify", "all", "--bound", "3000", "--jobs", jobs
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "136d2deb9f911512dec69443d0f48be89efe66bd0eef638a5b14161c95dc8a95"
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched verify_record reaches a worker only by fork",
    )
    @pytest.mark.parametrize("rid, fault, err", (
        ("A1", "raise", "error: no order cutoff recorded for A1 at p=2\n"),
        ("A2", "raise", "error: no order cutoff recorded for A2 at p=2\n"),
        ("A2", "exit", "error: RuntimeError: verify worker 1 exited with status 3 before sending its reports\n"),
    ), ids=("parent-raises", "worker-raises", "worker-exits"))
    def test_failing_worker(self, capsys, monkeypatch, rid, fault, err):
        # A1 is in this process's share of --jobs 2, A2 in the worker's
        real = cli_verify.verify_record

        def faulty(rec, bound):
            if rec.rid == rid:
                if fault == "exit":
                    os._exit(3)
                raise ValueError(f"no order cutoff recorded for {rid} at p=2")
            return real(rec, bound)

        monkeypatch.setattr(cli_verify, "verify_record", faulty)
        code, out, stderr = run(capsys, "verify", "all", "--bound", "300", "--jobs", "2")
        assert (code, out, stderr) == (2, "", err)
        assert multiprocessing.active_children() == []

    def test_mismatch_exit_status(self, capsys, catalog, tmp_path):
        # a deliberately wrong squareclass spec must surface as mismatches
        bad = dumps(catalog).replace("exceptional 3M3", "exceptional M1")
        path = tmp_path / "bad.txt"
        path.write_text(bad)
        code, out, _ = run(
            capsys, "--catalog", str(path), "verify", "B3", "--bound", "100"
        )
        assert code == 1
        assert "FAIL" in out
        assert "MISMATCH B3 n=3" in out


class TestMemoryCap:
    @pytest.mark.parametrize("argv, n", (
        ("verify all --bound 200000 --jobs 2", 200000),
        ("report all --bound 20000", 20000),
        ("exceptional-list A1 --bound 1000000", 1000000),
        ("classify A1 400009", 400009),
    ))
    def test_refused_with_one_line(self, capsys, monkeypatch, argv, n):
        # each run needs more than 1 MiB; the refusal comes before any work
        monkeypatch.setattr(cli_verify, "_available_memory", lambda: 1 << 20)
        command, *rest = argv.split()
        code, out, err = run(capsys, command, *rest)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {command} to {n} needs about ")

    def test_counts_every_worker(self, capsys, monkeypatch):
        # memory for exactly one worker's per-n bytes and scan block runs
        # --jobs 1 and refuses --jobs 2; one byte less refuses both
        one = cli_verify._BYTES_PER_N["verify"] * 300 + BLOCK_BYTES
        for spare in (0, -1):
            monkeypatch.setattr(cli_verify, "_available_memory", lambda avail=one + spare: avail)
            for jobs in ("1", "2"):
                code, out, err = run(capsys, "verify", "all", "--bound", "300", "--jobs", jobs)
                if jobs == "1" and spare == 0:
                    assert code == 0
                else:
                    assert (code, out) == (2, "")
                    assert err.startswith("error: verify to 300 needs about ")

    def test_report_refusal_leaves_output_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli_verify, "_available_memory", lambda: 0)
        path = tmp_path / "report.tsv"
        path.write_text("sentinel\n")
        code, _, _ = run(capsys, "report", "A1", "--bound", "10", "--output", str(path))
        assert code == 2
        assert path.read_text() == "sentinel\n"

    def test_available_memory(self):
        avail = cli_verify._available_memory()
        assert avail is None or avail > 0


class TestReportCommand:
    def test_a5_exceptional_rows(self, capsys):
        code, out, _ = run(capsys, "report", "A5", "--bound", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# record A5 bound=100")
        rows = [ln.split("\t") for ln in lines[1:]]
        assert [r[0] for r in rows] == [str(n) for n in range(1, 101)]
        exceptional = [int(r[0]) for r in rows if r[1] == "EXCEPTIONAL"]
        assert exceptional == [1, 25]

    def test_b11_locally_excluded_rows(self, capsys):
        code, out, _ = run(capsys, "report", "B11", "--bound", "50")
        assert code == 0
        excluded = {
            int(ln.split("\t")[0])
            for ln in out.splitlines()
            if "\tLOCALLY_EXCLUDED\t" in ln
        }
        assert {2, 3, 5, 7, 8, 11, 12} <= excluded

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, "report", "A1", "--bound", "60")
        path = tmp_path / "report.tsv"
        code, _, _ = run(capsys, "report", "A1", "--bound", "60", "--output", str(path))
        assert code == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("bound", ("0", "-1"))
    def test_bad_bound_leaves_output_file(self, capsys, tmp_path, bound):
        path = tmp_path / "report.tsv"
        path.write_text("sentinel\n")
        code, out, err = run(capsys, "report", "A1", "--bound", bound, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: bound must be >= 1\n"
        assert path.read_text() == "sentinel\n"

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "report", "A1", "--bound", "10",
            "--output", "/nonexistent-dir/report.tsv",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_all_records_bytes(self, capsys):
        # pins every verdict, squareclass and witness (the lexicographically
        # least vector) of the full report
        code, out, _ = run(capsys, "report", "all", "--bound", "2000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a65304a5644e17fffe687d6716903239477af00d6136883780bb9b04c53cd664"
        )

    def test_wide_box_bytes(self, capsys):
        # A1 at 2e4 holds the largest witness keys of the benchmark reports
        code, out, _ = run(capsys, "report", "A1", "--bound", "20000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "edeaa63c62a79c47461f1e1ecc692df304cc57d45e9e9aefe0cb53b9e12fe0d1"
        )

    @pytest.mark.parametrize("rows", (1, 7, 4096))
    def test_same_bytes_for_every_slice(self, capsys, catalog, monkeypatch, tmp_path, rows):
        # 1: a slice per row; 7: the defective catalog's INCONSISTENT row at
        # n = 25 falls inside the slice 22..28, and the last slice is short;
        # 4096: one slice past the bound
        monkeypatch.setattr(cli_verify, "_ROWS", rows)
        code, out, _ = run(capsys, "report", "all", "--bound", "300")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f0bb1459c3807592788d91695a507603b6e08caa378a0c5a410bc1e597ca8815"
        )
        path = tmp_path / "bad.txt"
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional M1"))
        code, out, _ = run(capsys, "--catalog", str(path), "report", "B3", "--bound", "300")
        assert code == 1
        assert out.splitlines()[25] == "25\tINCONSISTENT\trepresented, in s=1,t=1"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3e1133549c9b3684b7eddd54cee236b996635bcacc7fc935eb8282b5bfb5c866"
        )

    def test_holds_no_row_for_the_whole_bound(self, catalog):
        # besides one scan block, the per-n arrays alone: the key, the masks
        # and a detail pointer, well under the ~130 B/n of formatting every
        # row before writing
        bound = 100000
        rec = catalog.lookup("B11")
        with open(os.devnull, "w") as sink:
            # the class tables are built once and cached
            cli_verify.write_report([rec], 100, sink)
            tracemalloc.start()
            try:
                cli_verify.write_report([rec], bound, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - BLOCK_BYTES <= 40 * bound

    def test_peak_grows_by_under_17_bytes_per_n(self, catalog):
        # the slope of the peak cancels the scan block and the class tables:
        # the key, the masks and a one-byte detail code per n (an object
        # pointer per n, as a shared-str detail column costs, breaks it)
        rec = catalog.lookup("B11")
        peaks = []
        with open(os.devnull, "w") as sink:
            cli_verify.write_report([rec], 100, sink)
            for bound in (100000, 300000):
                tracemalloc.start()
                try:
                    cli_verify.write_report([rec], bound, sink)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 17 * 200000

    @pytest.mark.parametrize("lo, codes", (
        # random codes from just below 10^k, past it and a few thousands
        *((10**k - 3, None) for k in range(3, 13)),
        (1, None),
        (1, [1, 2, 3, 3, 1, 2]),  # no witness row
        (999, [0]),  # one row
        (1000, [0]),
        (123456, [3]),
    ))
    def test_format_rows_matches_fstrings(self, lo, codes):
        verdicts = [
            (LOCALLY_EXCLUDED, "p=2"), (EXCEPTIONAL, "s=1,t=3"),
            (INCONSISTENT, "excluded at p=3, in s=2,t=1"),
        ]
        details = [f"\t{REPRESENTED}\t("] + [f"\t{v}\t{d}\n" for v, d in verdicts]
        rng = np.random.default_rng(lo)
        if codes is None:
            codes = rng.integers(0, len(details), 2100)
        codes = np.array(codes, dtype=np.int8)
        wit = np.flatnonzero(codes == 0)
        # x >= 0, y and z of both signs, zeros among all three
        x = rng.integers(0, 40, wit.size)
        y, z = rng.integers(-40, 40, (2, wit.size))
        want, w = [], iter(zip(x.tolist(), y.tolist(), z.tolist()))
        for n, c in enumerate(codes.tolist(), lo):
            if c == 0:
                wx, wy, wz = next(w)
                want.append(f"{n}\t{REPRESENTED}\t({wx},{wy},{wz})\n")
            else:
                verdict, detail = verdicts[c - 1]
                want.append(f"{n}\t{verdict}\t{detail}\n")
        assert cli_verify._format_rows(lo, codes, details, x, y, z) == "".join(want)

    def test_rows_match_pointwise_classify(self, capsys, catalog, tmp_path):
        # classify decides one n at a time (locally_represented,
        # squareclass_match, witness), so it checks the bulk verdict order;
        # the edited catalog has rows of three INCONSISTENT details
        bound = 300
        path = tmp_path / "bad.txt"
        healthy = dumps(catalog)
        broken = healthy.replace("exceptional 3M3", "exceptional M1 2M1")
        details = set()
        for text, status in ((healthy, 0), (broken, 1)):
            path.write_text(text)
            code, out, _ = run(capsys, "--catalog", str(path), "report", "all", "--bound", str(bound))
            assert code == status
            lines = iter(out.splitlines())
            for rec in loads(text).records:
                assert next(lines).startswith(f"# record {rec.rid} bound={bound} ")
                rs = enumerate_represented(rec.sgi_forms[0], bound)
                for n in range(1, bound + 1):
                    got = classify(rec, n, rs)
                    if got.verdict == REPRESENTED:
                        detail = "({},{},{})".format(*got.witness)
                    elif got.verdict == EXCEPTIONAL:
                        detail = "s={},t={}".format(*got.matched)
                    elif got.verdict == LOCALLY_EXCLUDED:
                        detail = f"p={got.failing_prime}"
                    else:
                        assert got.verdict == INCONSISTENT
                        detail = got.detail
                        details.add(detail)
                    assert next(lines) == f"{n}\t{got.verdict}\t{detail}"
            assert next(lines, None) is None
        assert details == {"represented, in s=1,t=1", "excluded at p=2, in s=2,t=1", "no witness"}

    def test_represented_but_excluded_is_inconsistent(self, capsys, monkeypatch):
        real = local_solver.local_mask

        def drops_sevens(form, p, bound):
            mask = real(form, p, bound).copy()
            mask[::7] = False
            return mask

        monkeypatch.setattr(local_solver, "local_mask", drops_sevens)
        code, out, _ = run(capsys, "report", "A1", "--bound", "30")
        assert code == 1
        rows = out.splitlines()
        # A1 takes 21 at (1,-3,1); 7, 14 and 28 fail at p = 2 anyway
        assert rows[0] == "# record A1 bound=30 represented=14 exceptional=2 locally_excluded=13"
        assert rows[14] == "14\tLOCALLY_EXCLUDED\tp=2"
        assert rows[21] == "21\tINCONSISTENT\trepresented, excluded at p=2"
        assert sum("INCONSISTENT" in row for row in rows) == 1

    def test_inconsistent_rows_fail(self, capsys, catalog, tmp_path):
        bad = dumps(catalog).replace("exceptional 3M3", "exceptional M1")
        path = tmp_path / "bad.txt"
        path.write_text(bad)
        code, out, _ = run(
            capsys, "--catalog", str(path), "report", "B3", "--bound", "20"
        )
        assert code == 1
        assert "INCONSISTENT" in out

    def test_represented_squareclass_is_inconsistent(self, capsys, catalog, tmp_path):
        # B3 represents every n in M1^2 it reaches, so a spec claiming them
        # exceptional contradicts the enumeration on each one
        path = tmp_path / "bad.txt"
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional M1"))
        code, out, _ = run(capsys, "--catalog", str(path), "report", "B3", "--bound", "2000")
        assert code == 1
        rows = out.splitlines()
        assert rows[0].startswith("# record B3 bound=2000 represented=")
        assert " exceptional=0 " in rows[0]
        for n in (1, 25, 169):
            assert rows[n] == f"{n}\tINCONSISTENT\trepresented, in s=1,t=1"

    def test_inconsistent_rows_are_the_disagreements(self, capsys, catalog, tmp_path):
        # 2*M1^2 holds n that fail at p = 2, M1^2 holds represented n and
        # dropping 3M3 leaves B3's exceptional n without a squareclass
        text = dumps(catalog).replace("exceptional 3M3", "exceptional M1 2M1")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        bound = 2000
        code, out, _ = run(capsys, "--catalog", str(path), "report", "all", "--bound", str(bound))
        assert code == 1
        lines = iter(out.splitlines())
        details = set()
        for rec in loads(text).records:
            next(lines)
            rows = [next(lines).split("\t") for _ in range(bound)]
            got = {int(r[0]) for r in rows if r[1] == "INCONSISTENT"}
            details |= {r[2] for r in rows if r[1] == "INCONSISTENT"}
            rep = represented_mask(rec.sgi_forms[0], bound)
            gen = genus_mask(rec, bound)
            spec = squareclass_mask(rec.exceptional_spec, bound)
            want = ((gen & ~rep) != spec) | (rep & ~gen)
            assert got == set(np.flatnonzero(want[1:]) + 1), rec.rid
        assert details == {"represented, in s=1,t=1", "excluded at p=2, in s=2,t=1", "no witness"}


class TestCatalogPlumbing:
    def test_dump_round_trips(self, capsys, catalog):
        code, out, _ = run(capsys, "catalog-dump")
        assert code == 0
        assert loads(out) == catalog

    def test_catalog_override(self, capsys, catalog, tmp_path):
        path = tmp_path / "copy.txt"
        path.write_text(dumps(catalog))
        code, out, _ = run(capsys, "--catalog", str(path), "classify", "A8", "9")
        assert code == 0
        assert out == "EXCEPTIONAL, matched (s=1, t=2)\n"

    def test_unexpected_exception_exits_2(self, capsys, monkeypatch):
        def boom(catalog, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_verify, "cmd_catalog_dump", boom)
        code, out, err = run(capsys, "catalog-dump")
        assert code == 2
        assert out == ""
        assert err == "error: RuntimeError: boom\n"

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRepeatedMain:
    def test_calls_share_no_state(self, capsys, catalog, tmp_path, monkeypatch):
        # successive calls of main in one process, as the benchmark makes them
        path = tmp_path / "bad.txt"
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional M1"))
        assert run(capsys, "--catalog", str(path), "classify", "B3", "25") == (
            1, "INCONSISTENT, represented, in s=1,t=1\n", ""
        )
        # no --catalog now: the embedded catalog, where B3 represents 25
        assert run(capsys, "classify", "B3", "25") == (0, "REPRESENTED (2,1,-1)\n", "")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "A1", "--jobs", "two"])
        assert exc.value.code == 2
        capsys.readouterr()
        jobs = []
        real = cli_verify.verify_records

        def spy(records, bound, jobs_=1):
            jobs.append(jobs_)
            return real(records, bound, jobs_)

        monkeypatch.setattr(cli_verify, "verify_records", spy)
        code, out, _ = run(capsys, "verify", "A1", "--bound", "100")
        assert code == 0 and out.startswith("A1 bound=100 ") and jobs == [1]


    def test_catalog_file_read_on_every_call(self, capsys, catalog, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(dumps(catalog))
        argv = ("--catalog", str(path), "classify", "A8", "9")
        assert run(capsys, *argv) == (0, "EXCEPTIONAL, matched (s=1, t=2)\n", "")
        path.write_text(dumps(catalog).replace("exceptional 3M3", "exceptional 3X3"))
        assert run(capsys, *argv) == (2, "", "error: record B3: bad squareclass token '3X3'\n")
        # the embedded catalog, built before the edit, is untouched by it
        assert run(capsys, "classify", "A8", "9") == (0, "EXCEPTIONAL, matched (s=1, t=2)\n", "")

    def test_reused_parser_keeps_no_state(self, capsys):
        calls = [
            ("local", "B11", "3", "48"),
            ("classify", "A1", "1000"),
            ("verify", "B11", "--bound", "100"),
            ("frobnicate",),
            ("local", "B11", "3", "48"),
        ]

        def call(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            # verify's stderr carries its wall time
            return code, out, re.sub(r"\d+\.\d+s$", "", err, flags=re.M)

        alone = []
        for argv in calls:
            cli_verify._build_parser.cache_clear()
            alone.append(call(argv))
        assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0]
        cli_verify._build_parser.cache_clear()
        parser = cli_verify._build_parser()
        assert [call(argv) for argv in calls] == alone
        assert cli_verify._build_parser() is parser


class TestVerifyRecordCounts:
    def test_partition_sums_to_bound(self, catalog):
        rep = verify_record(catalog.lookup("A1"), 500)
        assert rep.passed
        assert rep.represented + rep.exceptional + rep.locally_excluded == 500
        assert rep.represented == 273
        assert rep.exceptional == 4


class TestCatalogDumpCommand:
    def test_output_file_round_trip(self, capsys, tmp_path):
        _, dump, _ = run(capsys, "catalog-dump")
        path = tmp_path / "cat.txt"
        assert run(capsys, "catalog-dump", "--output", str(path)) == (0, "", "")
        assert path.read_text() == dump
        # the written file, loaded back through --catalog, verifies the same
        _, want, _ = run(capsys, "verify", "all", "--bound", "2000")
        code, out, _ = run(capsys, "--catalog", str(path), "verify", "all", "--bound", "2000")
        assert code == 0 and out == want

    def test_repeated_line_exits_2(self, capsys, catalog, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(dumps(catalog).replace("delta 324\n", "delta 324\ndelta 324\n"))
        assert run(capsys, "--catalog", str(path), "verify", "B3", "--bound", "10") == (
            2, "", "error: record B3: duplicate delta line\n"
        )
