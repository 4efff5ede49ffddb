"""Spinor-exceptional integers, routes 2 and 3 of the verification, each
both at one n and over 0..bound: the M_t semigroups and squareclass sets
s*M_t^2 (route 2), the full local-conditions criterion assembled from
catalog data, the spinor norm groups and the order cutoffs of
`LocalData.cutoff` (route 3), and the closed form of what B4 and B11 miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _key_pairing, _sq_class_key, factor, is_padic_square, ord_p
from .forms_core import RepresentedSet, Witness
from .local_solver import LEMMA71_CLASSES, LEMMA72_CLASSES, lemma73_classes, locally_represented

__all__ = [
    "Classification",
    "REPRESENTED",
    "EXCEPTIONAL",
    "LOCALLY_EXCLUDED",
    "INCONSISTENT",
    "inconsistency",
    "in_Mt",
    "mt_mask",
    "squareclass_match",
    "squareclass_index",
    "squareclass_mask",
    "spinor_exceptional_general",
    "exceptional_general_mask",
    "closed_form_missed_mask",
    "classify",
]

REPRESENTED = "REPRESENTED"
EXCEPTIONAL = "EXCEPTIONAL"
LOCALLY_EXCLUDED = "LOCALLY_EXCLUDED"
INCONSISTENT = "INCONSISTENT"

@dataclass(frozen=True)
class Classification:
    verdict: str
    witness: Witness | None = None
    failing_prime: int | None = None
    matched: tuple[int, int] | None = None
    detail: str | None = None


def inconsistency(represented: bool, failing_prime: int | None, matched) -> str | None:
    """The INCONSISTENT detail of n's findings (enumerated, first refusing
    ramified prime, first matching (s, t)), or None for the consistent REPRESENTED
    (True, None, None), EXCEPTIONAL (False, None, (s, t)), LOCALLY_EXCLUDED (False, p, None)."""
    if represented:
        if failing_prime:
            return f"represented, excluded at p={failing_prime}"
        return "represented, in s={},t={}".format(*matched) if matched else None
    if failing_prime:
        return "excluded at p={}, in s={},t={}".format(failing_prime, *matched) if matched else None
    return None if matched else "no witness"


def in_Mt(t: int, w: int) -> bool:
    """w lies in the semigroup generated by 1 and the primes p with -t a
    square in Q_p."""
    if w < 1:
        raise ValueError("w must be >= 1")
    return all(is_padic_square(p, -t) for p, _ in factor(w))


def _primes(n: int) -> list[int]:
    """The primes up to n, ascending."""
    sieve = np.arange(n + 1) > 1
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).tolist()


def mt_mask(t: int, wmax: int) -> np.ndarray:
    """mask[w] == (w in M_t) for 0 <= w <= wmax (index 0 is False)."""
    ok = np.arange(wmax + 1) > 0
    for p in _primes(wmax):
        if not is_padic_square(p, -t):
            ok[p::p] = False
    return ok


def squareclass_match(spec, n: int) -> tuple[int, int] | None:
    """The first (s, t) entry with n in s*M_t^2, or None."""
    for s, t in spec:
        if n % s:
            continue
        w = math.isqrt(n // s)
        if w * w == n // s and in_Mt(t, w):
            return (s, t)
    return None


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


def spinor_exceptional_general(record, n: int) -> bool:
    """Full criterion for a genus-represented n, which the caller checks (on
    any other n the answer means nothing): n is a spinor exceptional integer
    for the record's genus iff

    - at primes away from 2*delta: even order of n, and -n*delta a local
      square wherever that order is positive;
    - at ramified primes: the whole spinor norm group inside the local
      norm group of -n*delta, and, when -n*delta is not a local square,
      the order of n within the recorded cutoff (lambda at 2, and at odd
      primes the one the catalog derives from the forms' elementary
      divisor orders).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ram = record.ramified_primes()
    for p, e in factor(n):
        if p in ram:
            continue
        if e % 2 or not is_padic_square(p, -n * record.delta):
            return False
    return _ramified_clause(record, n)


def _ramified_clause(record, n: int) -> bool:
    """The ramified clause of spinor_exceptional_general, on its own.  Its
    precondition is the other clause: n >= 1 has even order, with -n*delta a
    local square, at every prime away from 2*delta where that order is
    positive, which every product of ramified primes satisfies.  On any
    other n the answer means nothing, and where -n*delta is a non-square at
    a ramified prime with no recorded cutoff it raises."""
    ndelta = n * record.delta
    for p in record.ramified_primes():
        data = record.local_data[p]
        # -n*delta's squareclass, for its norm group and its squareness
        key = _sq_class_key(p, -ndelta)
        if any(_key_pairing(p, _sq_class_key(p, gen), key) != 1 for gen in data.theta):
            return False
        if key == (0, 1):
            continue
        cutoff = data.cutoff
        if cutoff is None:
            raise ValueError(f"no order cutoff recorded for {record.rid} at p={p}")
        if ord_p(p, n) > cutoff:
            return False
    return True


def exceptional_general_mask(rec, bound: int, genus: np.ndarray) -> np.ndarray:
    """Spinor-exceptional verdicts of the general criterion on the
    genus-represented n (`genus`): decide each ramified part r by the
    ramified clause, then sieve m by the clause away from 2*delta.
    That clause's even order rejects every n but r*m^2, r a product
    of ramified primes and m prime to them.  There m^2 is a p-adic unit
    square at each ramified p, so r*m^2 has r's local representability
    (`genus`), Hilbert symbols, squareness of -n*delta and ord_p; and at
    q | m, -r*delta*m^2 is a q-adic square exactly when -r*delta is.  So
    r*m^2 is exceptional exactly when r is and every q | m has -r*delta
    square in Q_q.

    Two parts with the same parity vector (e_p mod 2) differ by a rational
    square, so -r*delta has one squareclass at every prime: the same
    Hilbert symbols and the same squareness.  So the m-sieve is built once
    per parity vector, for the least part r0 of it (the product of the p
    with e_p odd) and so up to the largest m any of its parts needs, and
    each part takes the m <= isqrt(bound // r) of it.  The ramified clause
    reads r only through its signature, one pair (e_p mod 2, e_p >
    cutoff_p) per ramified p (False where no cutoff is recorded): the
    squareclasses above and whether e_p > cutoff_p.  So it is asked once
    per signature, on the first genus-represented part that has it, and
    its verdict, or its raise, is the signature's, coming at the same
    first part as when every part is asked.  `genus` stays per part,
    since local representability reads more than the signature."""
    ram = rec.ramified_primes()
    parts = [(1, ())]
    for p in ram:
        cutoff = rec.local_data[p].cutoff
        powers = []
        for r, sig in parts:
            e = 0
            while r <= bound:
                powers.append((r, sig + ((e % 2, cutoff is not None and e > cutoff),)))
                r *= p
                e += 1
        parts = powers
    out = np.zeros(bound + 1, dtype=bool)
    verdicts, sieves = {}, {}
    for r, sig in parts:
        if not genus[r]:
            continue
        if sig not in verdicts:
            verdicts[sig] = _ramified_clause(rec, r)
        if not verdicts[sig]:
            continue
        parity = tuple(odd for odd, _ in sig)
        if parity not in sieves:
            r0 = math.prod(p for p, odd in zip(ram, parity) if odd)
            keep = np.arange(math.isqrt(bound // r0) + 1) > 0
            for q in _primes(keep.size - 1):
                if q in ram or not is_padic_square(q, -r0 * rec.delta):
                    keep[q::q] = False
            sieves[parity] = np.flatnonzero(keep)
        ms = sieves[parity]
        ms = ms[: np.searchsorted(ms, math.isqrt(bound // r), side="right")]
        out[r * ms * ms] = True
    return out


def closed_form_missed_mask(rid: str, bound: int) -> np.ndarray | None:
    """For B4 and B11: the non-represented set as congruence classes plus
    squareclasses, each lemma's (modulus, residue) classes marked by a
    strided slice (no class holds n = 0).  None for every other record."""
    if rid not in ("B4", "B11"):
        return None
    out = squareclass_mask(((1, 3), (4, 3)), bound)
    two_adic = LEMMA71_CLASSES if rid == "B4" else LEMMA72_CLASSES
    for m, r in (*two_adic, *lemma73_classes(bound)):
        out[r::m] = True
    return out


def classify(record, n: int, represented: RepresentedSet) -> Classification:
    """Verdict for (record, n) from its three findings, INCONSISTENT where they disagree;
    needs an exhaustive enumeration of the record's spinor regular form reaching n."""
    if n > represented.bound:
        raise ValueError(f"n={n} beyond the enumeration bound {represented.bound}")
    form = record.sgi_forms[0]
    failing = next((p for p in record.ramified_primes() if not locally_represented(form, p, n)), None)
    matched = squareclass_match(record.exceptional_spec, n)
    wit = represented.witness(n)
    verdict = REPRESENTED if wit is not None else EXCEPTIONAL if matched else LOCALLY_EXCLUDED
    detail = inconsistency(wit is not None, failing, matched)
    return Classification(INCONSISTENT if detail else verdict, wit, failing, matched, detail)
