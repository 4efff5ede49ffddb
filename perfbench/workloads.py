"""Seeded request generators for the three workloads.

A request is a tuple whose first item is the subcommand and whose argv for
``spinor_ternary.cli_verify.main`` is ``argv(request)``.  The same seed
always gives the same requests; the program sees only the generated argv.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stdout
from itertools import cycle, islice

# Sizes.  Each keeps one request well under a second or two on a 2-core
# machine, so a run holds enough requests for a steady median.
VERIFY_BOUND = 10000
REPORT_BOUND = 5000
REPORT_WIDE_RECORD = "A1"  # the record with the largest enumeration box
REPORT_WIDE_BOUND = 20000
CLASSIFY_BOUND = 100000
EXCEPTIONAL_SHARE = 0.1  # of classify queries, drawn from exceptional-list
LOCAL_MAX_BITS = 64
UNRAMIFIED_PRIMES = 3  # odd primes not dividing 2*delta, the unramified choices
# Point queries come in rounds: every bit length of n once at a ramified p
# and once at an unramified p, plus about a quarter of the round classify.
LOCAL_PER_ROUND = 2 * LOCAL_MAX_BITS
CLASSIFY_PER_ROUND = 42
POINT_ROUND = LOCAL_PER_ROUND + CLASSIFY_PER_ROUND
POINT_QUERIES_PER_S = 64  # below the closed-loop rate on a 2-core machine; sizes a run
MIN_POINT_ROUNDS = 8  # 336 classify and 1024 local samples, enough for the tails

# Claim checks use this seed, which was never used while tuning.
HELDOUT_SEED = 90417

TWO_63 = 1 << 63


def argv(request: tuple) -> list[str]:
    return [str(t) for t in request]


def verify_requests(seed: int, jobs: int):
    """`verify all` in pairs, once with --jobs 1 and once with --jobs
    `jobs`; the seed only picks which of the pair goes first."""
    serial = ("verify", "all", "--bound", VERIFY_BOUND, "--jobs", 1)
    parallel = ("verify", "all", "--bound", VERIFY_BOUND, "--jobs", jobs)
    pair = (serial, parallel) if seed % 2 == 0 else (parallel, serial)
    return cycle(pair)


def report_requests(seed: int):
    """`report all` at REPORT_BOUND alternating with a one-record report
    of the widest form at REPORT_WIDE_BOUND; the seed picks the order."""
    full = ("report", "all", "--bound", REPORT_BOUND)
    wide = ("report", REPORT_WIDE_RECORD, "--bound", REPORT_WIDE_BOUND)
    pair = (full, wide) if seed % 2 == 0 else (wide, full)
    return cycle(pair)


def _unramified(delta: int, count: int) -> list[int]:
    out = []
    p = 3
    while len(out) < count:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)) and (2 * delta) % p:
            out.append(p)
        p += 2
    return out


def exceptional_list(main, rid: str, bound: int) -> list[int]:
    """The record's exceptional integers up to bound, through the CLI."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["exceptional-list", rid, "--bound", str(bound)])
    if rc != 0:
        raise RuntimeError(f"exceptional-list {rid} exited {rc}")
    return [int(t) for t in buf.getvalue().split()]


def point_requests(seed: int, catalog, main):
    """Endless stream of single-integer queries, in rounds of POINT_ROUND
    queries in a seeded order.  Every query has a uniform record.

    classify (CLASSIFY_PER_ROUND a round): n drawn from the record's
    exceptional-list with probability EXCEPTIONAL_SHARE, otherwise
    log-uniform on [1, CLASSIFY_BOUND].
    local (LOCAL_PER_ROUND a round): each bit length 1..LOCAL_MAX_BITS of n
    twice, once with p uniform over the record's ramified primes and once
    over UNRAMIFIED_PRIMES unramified odd primes.  So each round holds
    exactly one n >= 2^63 at a ramified p, the case that raises the known
    OverflowError, and whole rounds fail the same count on every seed.
    """
    rng = random.Random(f"point-queries/{seed}")
    records = list(catalog.records)
    exceptional: dict[str, list[int]] = {}
    slots = [None] * CLASSIFY_PER_ROUND + [
        (bits, ramified) for bits in range(1, LOCAL_MAX_BITS + 1) for ramified in (True, False)
    ]
    while True:
        rng.shuffle(slots)
        for slot in slots:
            rec = rng.choice(records)
            if slot is None:
                if rng.random() < EXCEPTIONAL_SHARE:
                    if rec.rid not in exceptional:
                        exceptional[rec.rid] = exceptional_list(main, rec.rid, CLASSIFY_BOUND)
                    n = rng.choice(exceptional[rec.rid])
                else:
                    n = min(CLASSIFY_BOUND, int(math.exp(rng.uniform(0.0, math.log(CLASSIFY_BOUND)))))
                yield ("classify", rec.rid, n)
            else:
                bits, ramified = slot
                primes = rec.ramified_primes() if ramified else _unramified(rec.delta, UNRAMIFIED_PRIMES)
                p = rng.choice(list(primes))
                n = rng.randrange(1 << (bits - 1), 1 << bits)
                yield ("local", rec.rid, p, n)


def point_query_count(seconds: float) -> int:
    """Whole rounds for a run of about `seconds`: a fixed count, so that
    attempted and failed depend on neither the seed nor the machine."""
    return POINT_ROUND * max(MIN_POINT_ROUNDS, math.ceil(seconds * POINT_QUERIES_PER_S / POINT_ROUND))


def take(stream, count: int) -> list[tuple]:
    return list(islice(stream, count))
