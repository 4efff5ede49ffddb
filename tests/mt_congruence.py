"""The congruence description of the M_t semigroups: an oracle for
spinor_theory.in_Mt that reads residue tables, not p-adic square tests."""

from spinor_ternary.arith import factor

# -t is a p-adic square exactly on these residue classes of odd primes
# (and for t = 7 also at p = 2, since -7 = 1 mod 8)
_MT_TABLES = {
    1: (4, frozenset({1})),
    2: (8, frozenset({1, 3})),
    3: (3, frozenset({1})),
    7: (7, frozenset({1, 2, 4})),
}


def congruence_Mt(t: int, w: int) -> bool:
    """Independent route to in_Mt through the congruence description of
    the generating primes."""
    if w < 1:
        raise ValueError("w must be >= 1")
    if t not in _MT_TABLES:
        raise ValueError(f"no congruence table for t={t}")
    mod, allowed = _MT_TABLES[t]
    return all(p % mod in allowed for p, _ in factor(w))
