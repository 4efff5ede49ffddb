"""The commands and the record engine that reads the three routes over
0..bound: classify single integers, dump local certificates, list
exceptional integers, emit per-n reports, and run the three-way
verification (enumeration vs squareclass spec vs general criterion) over
the whole catalog.

stdout is deterministic; wall-clock timings go to stderr.  Exit status is
0 when everything passed, 1 when a verification found mismatches, 2 for
usage, input and I/O failures, for a bound whose arrays would not fit in
the memory available, and for any unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from pathlib import Path
from time import perf_counter

import numpy as np

from .catalog import CatalogFile, GenusRecord, dumps, load_catalog, load_default_catalog
from .forms_core import BLOCK_BYTES, BoundOverflowError, enumerate_represented, represented_mask
from .local_solver import first_failing_prime, local_represents, unramified_shortcut
from .spinor_theory import (
    EXCEPTIONAL,
    INCONSISTENT,
    LOCALLY_EXCLUDED,
    REPRESENTED,
    classify,
    closed_form_missed_mask,
    exceptional_general_mask,
    inconsistency,
    squareclass_index,
    squareclass_mask,
)

DEFAULT_BOUND = 50000
_ROWS = 1 << 12  # rows that write_report formats and writes at a time


def _table(strs) -> np.ndarray:
    """strs as one bytes item each, NUL-padded to the longest.  No table
    str holds NUL, so dropping every NUL from items of tables leaves their
    text."""
    return np.array(strs, dtype=bytes)


# the last three digits of n: "0".."999" below 1000, "000".."999" above
_LOW = _table([str(v) for v in range(1000)] + [f"{v:03d}" for v in range(1000)])

# Peak bytes per n of one process: the slope of its peak RSS between two
# bounds (Python 3.11, numpy 2.4), 1e6 -> 3e6 unless named, where the per-n
# arrays set the peak.  verify 9 on A12 and C4, whose peak is the sumset's
# mask and 8 class rows, and 8 on B4, B11 and A1, whose peak is the route
# masks and, on B4 and B11, the closed form's strided classes; report 15 on
# B12, A1, C4 and B11 (key, masks and a one-byte detail code per n) and 16
# on A12, whose sumset holds 8 class rows beside the key; classify 10 (key,
# the sumset's mask and the one bool array of the scan's closing member
# check, also on B12, A1 and B2; 1e6 -> 4e6), exceptional-list 2 (1e6 -> 4e6);
# each cap sits above its measurement.  Each is at least the scan's own
# per-n arrays (at most 1 + 8 for verify's sumset, 8 + 1 + 1 for the keyed
# scan's key, its sumset mask and the member check), so with
# forms_core.BLOCK_BYTES it bounds the scan too.
_BYTES_PER_N = {"verify": 11, "report": 22, "classify": 12, "exceptional-list": 4}

__all__ = [
    "VerificationReport",
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


# ------------------------------------------------------------ verification

def record_masks(rec: GenusRecord, bound: int, rep: np.ndarray):
    """Routes 1 and 2 over 0..bound, given rep, the member mask of the
    record's sgi[0] to bound: (fail, idx, bad), first_failing_prime,
    squareclass_index and the n whose (represented, genus-represented, in a
    squareclass) is none of the consistent (1, 1, 0) REPRESENTED, (0, 1, 1)
    EXCEPTIONAL and (0, 0, 0) LOCALLY_EXCLUDED."""
    fail = first_failing_prime(rec, bound)
    idx = squareclass_index(rec.exceptional_spec, bound)
    gen, spec = fail == 0, idx >= 0
    # rep <= gen too: a represented n is represented everywhere locally;
    # n = 0 is in none of the three sets, so bad[0] is False
    bad = ((gen & ~rep) != spec) | (rep & ~gen)
    return fail, idx, bad


def verify_record(rec: GenusRecord, bound: int) -> VerificationReport:
    """Check, for every n <= bound, that the three routes agree:
    (genus-represented and not enumerated) == squareclass spec ==
    general criterion, and that every enumerated n is genus-represented;
    for B4 and B11 additionally that the enumerated set matches the
    closed-form characterization of what the form misses.
    """
    t0 = perf_counter()
    # membership only: no witness is read here
    rep = represented_mask(rec.sgi_forms[0], bound)
    fail, idx, bad = record_masks(rec, bound, rep)
    gen = fail == 0
    bad |= exceptional_general_mask(rec, bound, gen) != (idx >= 0)
    closed = closed_form_missed_mask(rec.rid, bound)
    if closed is not None:
        bad[1:] |= closed[1:] != ~rep[1:]
    return VerificationReport(
        rid=rec.rid,
        bound=bound,
        represented=int(np.count_nonzero(rep[1:])),
        exceptional=int(np.count_nonzero((gen & ~rep)[1:])),
        locally_excluded=bound - int(np.count_nonzero(gen[1:])),
        mismatches=np.flatnonzero(bad).tolist(),
        seconds=perf_counter() - t0,
    )


def _verify_share(records, bound: int, conn) -> None:
    """A worker's body: send its records' reports, or the exception that
    verifying them raised, through conn."""
    try:
        share = [verify_record(rec, bound) for rec in records]
    except Exception as exc:
        share = exc
    conn.send(share)
    conn.close()


def verify_records(records, bound: int, jobs: int = 1) -> list[VerificationReport]:
    """`verify_record` over records, in record order, by J = min(jobs,
    len(records)) processes, at least one: this one takes records 0, J,
    2J, ... and each of J - 1 worker processes one other residue class j
    mod J, sending its reports back through a pipe.  A worker's exception
    is raised here, a worker that ends without sending is a RuntimeError
    naming its exit status, and no worker outlives the call.
    `_check_bound` estimates memory once per process."""
    records = list(records)
    jobs = max(1, min(jobs, len(records)))
    workers = []
    try:
        for j in range(1, jobs):
            recv, send = Pipe(duplex=False)
            proc = Process(target=_verify_share, args=(records[j::jobs], bound, send))
            proc.start()
            workers.append((proc, recv))
            send.close()
        out = [None] * len(records)
        out[0::jobs] = [verify_record(rec, bound) for rec in records[0::jobs]]
        # receive before joining: a worker's send blocks until it is read
        for j, (proc, recv) in enumerate(workers, 1):
            try:
                share = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"verify worker {j} exited with status {proc.exitcode} before sending its reports"
                ) from None
            if isinstance(share, Exception):
                raise share
            out[j::jobs] = share
        return out
    finally:
        # terminated before its pipe closes, a worker still sending dies
        # quietly rather than with a broken pipe
        for proc, recv in workers:
            proc.terminate()
            proc.join()
            recv.close()


# ----------------------------------------------------------------- report

def _row_formatter(ns: range, details, xs: range, ys: range, zs: range):
    """rows(lo, codes, wit, x, y, z): the report rows of n = lo .. lo +
    len(codes) - 1, all in ns, as one str.  Each is n, then details[code]; a
    row of code 0 (REPRESENTED, whose detail opens the witness), at the
    positions wit = np.flatnonzero(codes == 0), then takes the next
    (x, y, z) of the witness arrays, each coordinate in its range xs, ys
    or zs.

    The byte tables (n's digits above its last three, the details, and
    each coordinate with its "," or ")\n") are built here, once per
    record.  A slice is one row per n of six table items side by side, n's
    last three digits from `_LOW` and the coordinates NUL outside the
    witness rows; dropping every NUL then gives its text, so no str is
    formatted per row."""
    h0 = ns.start // 1000
    tables = [
        _table([str(h) if h else "" for h in range(h0, (ns.stop - 1) // 1000 + 1)]),
        _LOW,
        _table(details),
        *(_table([f"{v}{end}" for v in r]) for r, end in ((xs, ","), (ys, ","), (zs, ")\n"))),
    ]
    row = np.dtype([(f"c{i}", t.dtype) for i, t in enumerate(tables)])
    starts = (xs.start, ys.start, zs.start)

    def rows(lo: int, codes: np.ndarray, wit: np.ndarray, x, y, z) -> str:
        n = np.arange(lo, lo + len(codes))
        high, low = np.divmod(n, 1000)
        low[high > 0] += 1000
        high -= h0
        out = np.zeros(len(codes), dtype=row)
        for name, t, i in zip(row.names, tables, (high, low, codes)):
            out[name] = t.take(i)
        for name, t, v, v0 in zip(row.names[3:], tables[3:], (x, y, z), starts):
            out[name][wit] = t.take(v - v0)
        return out.tobytes().translate(None, b"\0").decode("ascii")

    return rows


def write_report(records, bound: int, stream) -> int:
    """Tab-separated per-n verdicts, one block per record, read from
    `record_masks`: INCONSISTENT exactly where its findings fit no verdict.

    Each n gets a one-byte code into a short list of detail strs: 0 for
    REPRESENTED, then one per ramified prime (LOCALLY_EXCLUDED), one per
    squareclass entry (EXCEPTIONAL) and one per distinct (represented,
    failing prime, squareclass) finding among the INCONSISTENT n.  Rows are
    put together _ROWS at a time by `_row_formatter` from byte tables built
    once per record (the detail strs, n's digits above its last three, and
    x over the witnesses' range, y and z over the scan's box), each slice
    taken from the tables in a few gathers, stripped of its NUL padding and
    written once, so no str or array spans more than a slice.  Returns the
    number of INCONSISTENT rows (0 in a healthy run)."""
    total = 0
    for rec in records:
        rs = enumerate_represented(rec.sgi_forms[0], bound)
        rep = rs.member_mask()
        fail, idx, bad = record_masks(rec, bound, rep)
        primes, spec = rec.ramified_primes(), rec.exceptional_spec
        bad_n = np.flatnonzero(bad)
        # fail (0 or a ramified prime) and idx (>= -1) are int8, so one
        # int64 keys each finding in (represented, fail, idx) order
        found, which = np.unique(
            (rep[bad_n].astype(np.int64) << 16)
            | (fail[bad_n].astype(np.int64) << 8)
            | (idx[bad_n].astype(np.int64) + 1),
            return_inverse=True,
        )
        details = (
            [f"\t{REPRESENTED}\t("]
            + [f"\t{LOCALLY_EXCLUDED}\tp={p}\n" for p in primes]
            + [f"\t{EXCEPTIONAL}\ts={s},t={t}\n" for s, t in spec]
            + [
                f"\t{INCONSISTENT}\t{inconsistency(bool(r), f or None, spec[i] if i >= 0 else None)}\n"
                for r, f, i in ((v >> 16, v >> 8 & 255, (v & 255) - 1) for v in found.tolist())
            ]
        )
        # the first EXCEPTIONAL and the first INCONSISTENT code
        ex0, bad0 = 1 + len(primes), 1 + len(primes) + len(spec)
        # fail is 0 or a ramified prime, so one lookup codes every n by it;
        # a code is one byte up to 256 details
        lut = np.zeros(max(primes) + 1, dtype=np.min_scalar_type(len(details) - 1))
        lut[list(primes)] = range(1, ex0)
        codes = lut[fail]
        ex = idx >= 0
        codes[ex] = ex0 + idx[ex].astype(codes.dtype)
        codes[bad_n] = bad0 + which
        # one pass per code: np.bincount would widen codes to 8 B/n
        count = [np.count_nonzero(codes[1:] == c) for c in range(bad0)]
        stream.write(
            f"# record {rec.rid} bound={bound} represented={count[0]}"
            f" exceptional={sum(count[ex0:])} locally_excluded={sum(count[1:ex0])}\n"
        )
        # x from 0 to the largest witness's, y and z over the scan's box
        x2, x3, ny, nz = rs._box
        xmax = int(rs._key.max(where=rep, initial=0)) // (ny * nz)
        rows = _row_formatter(
            range(1, bound + 1), details, range(xmax + 1), range(-x2, ny - x2), range(-x3, nz - x3)
        )
        for lo in range(1, bound + 1, _ROWS):
            part = codes[lo:lo + _ROWS]
            wit = np.flatnonzero(part == 0)
            stream.write(rows(lo, part, wit, *rs.witnesses(wit + lo)))
        total += bad_n.size
    return total


# ------------------------------------------------------------ subcommands

def _available_memory() -> int | None:
    """MemAvailable in bytes, or None where /proc/meminfo does not say."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_bound(command: str, n: int, processes: int = 1) -> None:
    """Refuse, before any per-n array exists or any worker starts, a bound
    n below 1, or one whose estimated peak exceeds the memory available:
    per process (this one and each worker), its per-n bytes and one scan
    block."""
    if n < 1:
        raise ValueError("bound must be >= 1")
    need = (_BYTES_PER_N[command] * n + BLOCK_BYTES) * processes
    avail = _available_memory()
    if avail is not None and need > avail:
        raise ValueError(
            f"{command} to {n} needs about {need >> 20} MiB, more than the "
            f"{avail >> 20} MiB available"
        )


def _records_for(catalog: CatalogFile, ident: str) -> list[GenusRecord]:
    if ident == "all":
        return list(catalog.records)
    return [catalog.lookup(ident)]


def cmd_classify(catalog: CatalogFile, args) -> int:
    rec = catalog.lookup(args.record)
    # the witness is the least solution, so enumerating up to n suffices
    bound = max(args.n, 1)
    _check_bound("classify", bound)
    result = classify(rec, args.n, enumerate_represented(rec.sgi_forms[0], bound))
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
    records = _records_for(catalog, args.record)
    _check_bound("verify", args.bound, min(args.jobs, len(records)))
    reports = verify_records(records, args.bound, args.jobs)
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
    _check_bound("exceptional-list", args.bound)
    for n in np.flatnonzero(squareclass_mask(rec.exceptional_spec, args.bound)):
        print(int(n))
    return 0


def cmd_report(catalog: CatalogFile, args) -> int:
    records = _records_for(catalog, args.record)
    # checked before --output is opened, so a bad bound leaves the file as it was
    _check_bound("report", args.bound)
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

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it keeps no state
    between parse_args calls."""
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

    p = sub.add_parser("verify", help="three-way set equality check")
    p.add_argument("record", help="record id or 'all'")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("local", help="certified p-adic verdict")
    p.add_argument("record")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("exceptional-list", help="exceptional integers up to a bound")
    p.add_argument("record")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)

    p = sub.add_parser("report", help="tab-separated verdict per integer")
    p.add_argument("record", help="record id or 'all'")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--output", metavar="PATH", default=None)

    p = sub.add_parser("catalog-dump", help="print the catalog in its file format")
    p.add_argument("--output", metavar="PATH", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # found by name at call time: the shared parser binds no function
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        catalog = load_catalog(args.catalog) if args.catalog else load_default_catalog()
        return command(catalog, args)
    except (BoundOverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for verification mismatches
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
