"""Spinor-exceptional integers: the M_t semigroups, squareclass sets
s*M_t^2, and the full local-conditions criterion assembled from catalog
data (spinor norm groups, the 2-adic order cutoff, odd-prime order
bounds from the shape of the local splitting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .arith import factor, in_local_norm_group, is_padic_square, legendre, ord_p
from .forms_core import RepresentedSet, Witness
from .local_solver import locally_represented

__all__ = [
    "OddBoundType",
    "Classification",
    "REPRESENTED",
    "EXCEPTIONAL",
    "LOCALLY_EXCLUDED",
    "INCONSISTENT",
    "inconsistency",
    "in_Mt",
    "congruence_Mt",
    "squareclass_match",
    "spinor_exceptional_general",
    "classify",
    "normgroup_is_closed",
]

REPRESENTED = "REPRESENTED"
EXCEPTIONAL = "EXCEPTIONAL"
LOCALLY_EXCLUDED = "LOCALLY_EXCLUDED"
INCONSISTENT = "INCONSISTENT"

# -t is a p-adic square exactly on these residue classes of odd primes
# (and for t = 7 also at p = 2, since -7 = 1 mod 8)
_MT_TABLES = {
    1: (4, frozenset({1})),
    2: (8, frozenset({1, 3})),
    3: (3, frozenset({1})),
    7: (7, frozenset({1, 2, 4})),
}


class OddBoundType(Enum):
    """Order cutoff at an odd ramified prime, keyed by the splitting's
    exponent triple."""

    TYPE_1_P_P2 = ((0, 1, 2), 1)
    TYPE_1_P2_P3 = ((0, 2, 3), 1)
    TYPE_1_P_P3 = ((0, 1, 3), 2)

    @property
    def bound(self) -> int:
        return self.value[1]

    @classmethod
    def from_exponents(cls, exps: tuple[int, int, int]) -> "OddBoundType | None":
        for member in cls:
            if member.value[0] == tuple(exps):
                return member
        return None


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


def congruence_Mt(t: int, w: int) -> bool:
    """Independent route to in_Mt through the congruence description of
    the generating primes."""
    if w < 1:
        raise ValueError("w must be >= 1")
    if t not in _MT_TABLES:
        raise ValueError(f"no congruence table for t={t}")
    mod, allowed = _MT_TABLES[t]
    return all(p % mod in allowed for p, _ in factor(w))


def squareclass_match(spec, n: int) -> tuple[int, int] | None:
    """The first (s, t) entry with n in s*M_t^2, or None."""
    for s, t in spec:
        if n % s:
            continue
        w = math.isqrt(n // s)
        if w * w == n // s and in_Mt(t, w):
            return (s, t)
    return None


def _sq_class_key(p: int, x: int):
    v = ord_p(p, x)
    u = x // p**v
    if p == 2:
        return (v % 2, u % 8)
    return (v % 2, legendre(u, p))


def normgroup_is_closed(p: int, gens) -> bool:
    """The listed representatives contain 1 and form a group modulo
    p-adic squares."""
    keys = {_sq_class_key(p, g) for g in gens}
    if _sq_class_key(p, 1) not in keys or len(keys) != len(set(gens)):
        return False
    for va, ua in keys:
        for vb, ub in keys:
            prod = ((va + vb) % 2, ua * ub % 8 if p == 2 else ua * ub)
            if prod not in keys:
                return False
    return True


def spinor_exceptional_general(record, n: int) -> bool:
    """Full criterion for a genus-represented n, which the caller checks (on
    any other n the answer means nothing): n is a spinor exceptional integer
    for the record's genus iff

    - at primes away from 2*delta: even order of n, and -n*delta a local
      square wherever that order is positive;
    - at ramified primes: the whole spinor norm group inside the local
      norm group of -n*delta, and, when -n*delta is not a local square,
      the order of n within the tabulated cutoff (lambda at 2, the
      splitting-shape bound at odd primes).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ndelta = n * record.delta
    ram = record.ramified_primes()
    for p, e in factor(n):
        if p in ram:
            continue
        if e % 2 or not is_padic_square(p, -ndelta):
            return False
    for p in ram:
        data = record.local_data[p]
        for gen in data.theta:
            if not in_local_norm_group(p, gen, ndelta):
                return False
        if is_padic_square(p, -ndelta):
            continue
        if p == 2:
            cutoff = data.lam
        else:
            cutoff = data.odd_bound.bound if data.odd_bound else None
        if cutoff is None:
            # unreachable for catalog data: reaching here with no cutoff
            # would need -n*delta a 2-adic non-square surviving the norm
            # group test, which the group-C theta groups rule out
            raise ValueError(f"no order cutoff recorded for {record.rid} at p={p}")
        if ord_p(p, n) > cutoff:
            return False
    return True


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
