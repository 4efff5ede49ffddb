"""Command line surface: classify single integers, dump local certificates,
list exceptional integers, emit per-n reports, and run the three-way
verification (enumeration vs squareclass spec vs general criterion) over
the whole catalog.

stdout is deterministic; wall-clock timings go to stderr.  Exit status is
0 when everything passed, 1 when a verification found mismatches, 2 for
usage, input and I/O failures and for any unexpected error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from time import perf_counter

import numpy as np

from .arith import is_padic_square
from .catalog import CatalogError, CatalogFile, GenusRecord, dumps, load_catalog, load_default_catalog
from .forms_core import BoundOverflowError, enumerate_represented
from .local_solver import (
    first_failing_prime,
    lemma71_excluded,
    lemma72_excluded,
    lemma73_excluded,
    local_represents,
    unramified_shortcut,
)
from .spinor_theory import (
    EXCEPTIONAL,
    INCONSISTENT,
    LOCALLY_EXCLUDED,
    REPRESENTED,
    classify,
    inconsistency,
    spinor_exceptional_general,
)

DEFAULT_BOUND = 50000

__all__ = [
    "VerificationReport",
    "mt_mask",
    "squareclass_index",
    "squareclass_mask",
    "exceptional_general_mask",
    "closed_form_missed_mask",
    "record_masks",
    "verify_record",
    "verify_records",
    "write_report",
    "main",
]


@dataclass
class VerificationReport:
    rid: str
    bound: int
    represented: int
    exceptional: int
    locally_excluded: int
    mismatches: list[int] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.rid} bound={self.bound} represented={self.represented} "
            f"exceptional={self.exceptional} locally_excluded={self.locally_excluded} "
            f"mismatches={len(self.mismatches)} {status}"
        )


# ------------------------------------------------------------- bulk masks

def mt_mask(t: int, wmax: int) -> np.ndarray:
    """mask[w] == (w in M_t) for 0 <= w <= wmax (index 0 is False)."""
    ok = np.ones(wmax + 1, dtype=bool)
    ok[0] = False
    sieve = np.ones(wmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, wmax + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
            if not is_padic_square(p, -t):
                ok[p::p] = False
    return ok


def squareclass_index(spec, bound: int) -> np.ndarray:
    """idx[n] for 0 <= n <= bound: the index in `spec` of the first (s, t)
    entry with n in s*Mt^2 (as squareclass_match picks it), or -1."""
    out = np.full(bound + 1, -1, dtype=np.int8)
    # later entries first, so an earlier entry overwrites them
    for i, (s, t) in reversed(list(enumerate(spec))):
        ws = np.flatnonzero(mt_mask(t, math.isqrt(bound // s)))
        out[s * ws * ws] = i
    return out


def squareclass_mask(spec, bound: int) -> np.ndarray:
    """mask[n] == (n in some s*Mt^2 squareclass of `spec`) for 0 <= n <= bound."""
    return squareclass_index(spec, bound) >= 0


def _even_order_candidates(rec: GenusRecord, bound: int) -> np.ndarray:
    """mask[n] for 0 <= n <= bound: every prime outside the ramified ones
    divides n to an even power, i.e. n = r*m^2 with r a product of
    ramified primes and m prime to all of them."""
    ram = rec.ramified_primes()
    rs = [1]
    for p in ram:
        powers = []
        for r in rs:
            while r <= bound:
                powers.append(r)
                r *= p
        rs = powers
    out = np.zeros(bound + 1, dtype=bool)
    for r in rs:
        m = np.arange(1, math.isqrt(bound // r) + 1)
        for p in ram:
            m = m[m % p != 0]
        out[r * m * m] = True
    return out


def exceptional_general_mask(rec: GenusRecord, bound: int, genus: np.ndarray) -> np.ndarray:
    """Spinor-exceptional verdicts from the general criterion, evaluated
    pointwise on the genus-represented integers (`genus`) that pass its
    even-order clause; the criterion rejects every other n at that clause."""
    out = np.zeros(bound + 1, dtype=bool)
    for n in np.flatnonzero(genus & _even_order_candidates(rec, bound)):
        out[n] = spinor_exceptional_general(rec, int(n))
    return out


def closed_form_missed_mask(rid: str, bound: int) -> np.ndarray | None:
    """For B4 and B11: the non-represented set as congruence classes plus
    squareclasses, assembled from the per-prime exclusion predicates.
    None for every other record."""
    if rid not in ("B4", "B11"):
        return None
    n = np.arange(bound + 1)
    two_adic = lemma71_excluded(n) if rid == "B4" else lemma72_excluded(n)
    out = two_adic | lemma73_excluded(n) | squareclass_mask(((1, 3), (4, 3)), bound)
    out[0] = False
    return out


# ------------------------------------------------------------ verification

def record_masks(rec: GenusRecord, bound: int):
    """Routes 1 and 2 over 0..bound: (rs, fail, idx, bad), the enumeration,
    first_failing_prime, squareclass_index and the n whose (represented,
    genus-represented, in a squareclass) is none of the consistent (1, 1, 0)
    REPRESENTED, (0, 1, 1) EXCEPTIONAL and (0, 0, 0) LOCALLY_EXCLUDED."""
    rs = enumerate_represented(rec.sgi_forms[0], bound)
    fail = first_failing_prime(rec, bound)
    idx = squareclass_index(rec.exceptional_spec, bound)
    rep, gen, spec = rs.member_mask(), fail == 0, idx >= 0
    # rep <= gen too: a represented n is represented everywhere locally;
    # n = 0 is in none of the three sets, so bad[0] is False
    bad = ((gen & ~rep) != spec) | (rep & ~gen)
    return rs, fail, idx, bad


def verify_record(rec: GenusRecord, bound: int) -> VerificationReport:
    """Check, for every n <= bound, that the three routes agree:
    (genus-represented and not enumerated) == squareclass spec ==
    general criterion, and that every enumerated n is genus-represented;
    for B4 and B11 additionally that the enumerated set matches the
    closed-form characterization of what the form misses.
    """
    t0 = perf_counter()
    rs, fail, idx, bad = record_masks(rec, bound)
    rep, gen = rs.member_mask(), fail == 0
    bad |= exceptional_general_mask(rec, bound, gen) != (idx >= 0)
    closed = closed_form_missed_mask(rec.rid, bound)
    if closed is not None:
        bad[1:] |= closed[1:] != ~rep[1:]
    return VerificationReport(
        rid=rec.rid,
        bound=bound,
        represented=int(rep[1:].sum()),
        exceptional=int((gen & ~rep)[1:].sum()),
        locally_excluded=int(bound - gen[1:].sum()),
        mismatches=np.flatnonzero(bad).tolist(),
        seconds=perf_counter() - t0,
    )


def verify_records(records, bound: int, jobs: int = 1) -> list[VerificationReport]:
    records = list(records)
    if jobs > 1 and len(records) > 1:
        with Pool(jobs) as pool:
            return pool.map(partial(verify_record, bound=bound), records)
    return [verify_record(rec, bound) for rec in records]


# ----------------------------------------------------------------- report

def write_report(records, bound: int, stream) -> int:
    """Tab-separated per-n verdicts, one block per record, read from
    `record_masks`: INCONSISTENT exactly where its findings fit no verdict.
    Returns the number of INCONSISTENT rows (0 in a healthy run)."""
    total = 0
    for rec in records:
        rs, fail, idx, bad = record_masks(rec, bound)
        rep = rs.member_mask()
        # verdict and detail of each n, then its whole row; slice assignment
        # shares one str (np.full would copy it per n)
        tail = np.empty(bound + 1, dtype=object)
        for p in rec.ramified_primes():
            tail[fail == p] = f"{LOCALLY_EXCLUDED}\tp={p}"
        for i, (s, t) in enumerate(rec.exceptional_spec):
            tail[idx == i] = f"{EXCEPTIONAL}\ts={s},t={t}"
        # the n whose findings fit no verdict (none in a healthy run)
        for n in np.flatnonzero(bad).tolist():
            matched = rec.exceptional_spec[idx[n]] if idx[n] >= 0 else None
            tail[n] = f"{INCONSISTENT}\t{inconsistency(bool(rep[n]), int(fail[n]) or None, matched)}"
        has_wit = rep & ~bad
        wit = np.flatnonzero(has_wit[1:]) + 1
        rest = np.flatnonzero(~has_wit[1:]) + 1
        tail[wit] = [
            f"{n}\t{REPRESENTED}\t({x},{y},{z})"
            for n, x, y, z in zip(wit.tolist(), *(a.tolist() for a in rs.witnesses(wit)))
        ]
        tail[rest] = [f"{n}\t{v}" for n, v in zip(rest.tolist(), tail[rest].tolist())]
        ok = ~bad[1:]
        stream.write(
            f"# record {rec.rid} bound={bound} represented={wit.size}"
            f" exceptional={int((ok & (idx[1:] >= 0)).sum())}"
            f" locally_excluded={int((ok & (fail[1:] != 0)).sum())}\n"
        )
        stream.write("\n".join(tail[1:].tolist()))
        stream.write("\n")
        total += int(bad.sum())
    return total


# ------------------------------------------------------------ subcommands

def _records_for(catalog: CatalogFile, ident: str) -> list[GenusRecord]:
    if ident == "all":
        return list(catalog.records)
    return [catalog.lookup(ident)]


def cmd_classify(catalog: CatalogFile, args) -> int:
    rec = catalog.lookup(args.record)
    # the witness is the least solution, so enumerating up to n suffices
    result = classify(rec, args.n, enumerate_represented(rec.sgi_forms[0], max(args.n, 1)))
    if result.verdict == REPRESENTED:
        w = result.witness
        print(f"{REPRESENTED} ({w.x},{w.y},{w.z})")
    elif result.verdict == EXCEPTIONAL:
        s, t = result.matched
        print(f"{EXCEPTIONAL}, matched (s={s}, t={t})")
    elif result.verdict == LOCALLY_EXCLUDED:
        print(f"{LOCALLY_EXCLUDED}, fails at p={result.failing_prime}")
    else:
        print(f"{INCONSISTENT}, {result.detail}")
        return 1
    return 0


def cmd_verify(catalog: CatalogFile, args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    reports = verify_records(_records_for(catalog, args.record), args.bound, args.jobs)
    ok = True
    for rep in reports:
        print(rep.summary())
        for n in rep.mismatches:
            print(f"MISMATCH {rep.rid} n={n}")
        print(f"{rep.rid}: {rep.seconds:.2f}s", file=sys.stderr)
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_local(catalog: CatalogFile, args) -> int:
    rec = catalog.lookup(args.record)
    form = rec.sgi_forms[0]
    verdict = local_represents(form, args.p, args.n)
    if verdict.representable:
        note = " (unramified shortcut)" if unramified_shortcut(form, args.p) else ""
        x = ",".join(str(c) for c in verdict.residue)
        print(
            f"representable: x=({x}) with F(x) = {args.n} mod "
            f"{args.p}^{2 * verdict.precision + 1}, gradient order "
            f"{verdict.grad_ord}{note}"
        )
    else:
        print(f"non-representable: exhausted mod {args.p}^{verdict.precision}")
    return 0


def cmd_exceptional_list(catalog: CatalogFile, args) -> int:
    rec = catalog.lookup(args.record)
    if args.bound < 1:
        raise ValueError("bound must be >= 1")
    for n in np.flatnonzero(squareclass_mask(rec.exceptional_spec, args.bound)):
        print(int(n))
    return 0


def cmd_report(catalog: CatalogFile, args) -> int:
    records = _records_for(catalog, args.record)
    # checked before --output is opened, so a bad bound leaves the file as it was
    if args.bound < 1:
        raise ValueError("bound must be >= 1")
    if args.output is None:
        bad = write_report(records, args.bound, sys.stdout)
    else:
        with open(args.output, "w") as fh:
            bad = write_report(records, args.bound, fh)
    return 0 if bad == 0 else 1


def cmd_catalog_dump(catalog: CatalogFile, args) -> int:
    text = dumps(catalog)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinor-ternary",
        description="classify and verify integers against the 29 spinor "
        "regular but not regular ternary forms",
    )
    parser.add_argument("--catalog", metavar="PATH", help="catalog file overriding the embedded one")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="verdict for one integer")
    p.add_argument("record")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="three-way set equality check")
    p.add_argument("record", help="record id or 'all'")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local", help="certified p-adic verdict")
    p.add_argument("record")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("exceptional-list", help="exceptional integers up to a bound")
    p.add_argument("record")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.set_defaults(func=cmd_exceptional_list)

    p = sub.add_parser("report", help="tab-separated verdict per integer")
    p.add_argument("record", help="record id or 'all'")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--output", metavar="PATH", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("catalog-dump", help="print the catalog in its file format")
    p.add_argument("--output", metavar="PATH", default=None)
    p.set_defaults(func=cmd_catalog_dump)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        catalog = load_catalog(args.catalog) if args.catalog else load_default_catalog()
        return args.func(catalog, args)
    except (CatalogError, BoundOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for verification mismatches
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
