"""Representability of integers by a ternary form over Z_p.

The generic decision is a breadth-first refinement of primitive residue
classes.  Level d holds primitive vectors v known mod p^d; level 1 is every
nonzero v mod p, and level d + 1 splits each class of level d whose
gradient M_F v still vanishes mod p^d into its lifts v + p^d w.  A level-d
class therefore has gradient order at least d - 1 for every lift, and it
is decided exactly when some gradient entry is nonzero mod p^d, i.e. its
gradient order is exactly d - 1.  Its value set is then F(v) + p^(2d-1) Z_p:
the class either certifies a Hensel lift or is dead, and the verdict is
final.  Decided classes of a level with one residue F(v) mod p^(2d-1) accept
the same targets, so a level keeps the first such class in lift order: the
class a scan of them all would find.  Splitting cannot continue past the
largest elementary divisor of M_F, so the tree is finite and the procedure
is complete: a target n is represented iff some scaled class p^j * v
accepts n / p^(2j).

The tree is kept as one table per (form, p): its kept classes as rows, the
level of each row, and, for every residue m mod p^J, the row of the
shallowest level accepting m (-1 when none does).  The table is filled
shallowest level first, and a level keeps a row only for residues that no
shallower level has taken, so every row is read.  An undecided class v of
level d has p^d | M_F v, so every lift v + p^d w has F = F(v) mod p^(2d);
once F(v) mod p^(2d-1) is taken, its subtree cannot change the table and v
is not split.  Certificates, membership and the bulk masks all read that
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime, ord_p, sqrt_mod_p
from .forms_core import TernaryForm, evaluate

__all__ = [
    "LocalVerdict",
    "local_represents",
    "locally_represented",
    "local_mask",
    "unramified_shortcut",
    "genus_represents",
    "first_failing_prime",
    "genus_mask",
    "LEMMA71_CLASSES",
    "LEMMA72_CLASSES",
    "lemma73_classes",
    "lemma71_excluded",
    "lemma72_excluded",
    "lemma73_excluded",
    "verify_certificate",
    "elementary_orders",
]


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of a Z_p representability decision.

    Representable: residue holds a vector with F(residue) = n mod
    p^(2*precision+1) and minimum gradient order grad_ord <= precision,
    which Hensel-lifts to an exact solution.  Not representable: no
    certified residue exists mod p^precision_modulus (nor at all).
    """

    p: int
    n: int
    representable: bool
    residue: tuple[int, int, int] | None = None
    precision: int = 0
    grad_ord: int | None = None


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


def unramified_shortcut(form: TernaryForm, p: int) -> bool:
    """True iff p does not divide det(M_F) = 2*disc; such primes represent
    every n.  Definiteness is irrelevant over Z_p, so nondegenerate
    indefinite forms are accepted."""
    return form.gram_det() % p != 0


# Each lemma's exclusions as (modulus, residue) classes, read both by its
# predicate below (an int or an integer numpy array, elementwise) and by
# spinor_theory.closed_form_missed_mask.  No residue is 0, so no class
# holds n = 0.
LEMMA71_CLASSES = ((4, 2), (16, 8))
LEMMA72_CLASSES = ((8, 5), (4, 2), (4, 3), (16, 8), (16, 12))


def lemma73_classes(bound) -> list[tuple[int, int]]:
    """Lemma 7.3's classes up to bound: (3, 2), then one (9^(k+1), 6*9^k)
    for each 6*9^k <= bound (n = 9^k * m with m = 6 mod 9)."""
    out, nine = [(3, 2)], 1
    while 6 * nine <= bound:
        out.append((9 * nine, 6 * nine))
        nine *= 9
    return out


def _in_classes(n, classes):
    out = False
    for m, r in classes:
        out = out | (n % m == r)
    return out


def lemma71_excluded(n):
    """2-adic exclusions of a hexagonal-plane-plus-<16> structure."""
    return _in_classes(n, LEMMA71_CLASSES)


def lemma72_excluded(n):
    """2-adic exclusions of the diagonal <1,16,48> structure."""
    return _in_classes(n, LEMMA72_CLASSES)


def lemma73_excluded(n):
    """3-adic exclusions of the diagonal <1,3,9> structure: n = 2 mod 3, or
    n = 9^k * m with m = 6 mod 9."""
    return _in_classes(n, lemma73_classes(np.max(n, initial=0)))


# ---------------------------------------------------------------------------
# class tree


def elementary_orders(form: TernaryForm, p: int) -> list[int]:
    """[e1, e2, e3]: the p-orders of M_F's elementary divisors, read off the
    gcd of its entries, the gcd of its 2x2 minors (the adjugate's entries)
    and det(M_F).  At an odd p they are the exponents of a Jordan splitting
    of the form, and the catalog reads its odd-p order cutoff off them."""
    det = form.gram_det()
    if det == 0:
        raise ValueError(f"degenerate form: {form}")
    g1 = ord_p(p, math.gcd(*(x for row in form.gram_doubled() for x in row)))
    g2 = ord_p(p, math.gcd(*(x for row in form.gram_adjugate() for x in row)))
    return [g1, g2 - g1, ord_p(p, det) - g2]


@lru_cache(maxsize=None)
def _class_tree(form: TernaryForm, p: int):
    """The one table of form over Z_p: (J, first, rows, depth).

    rows stacks the levels' kept classes in level order, and depth[i] is
    the level d of rows[i]: known mod p^d, gradient order d - 1, accepting
    F(rows[i]) + p^(2d-1) Z_p.  Every level's modulus divides p^J, J =
    2*e3 + 1, and first[m mod p^J] is the row of the shallowest level
    accepting m >= 1, or -1 when m is not primitively represented.

    The levels are written shallowest first.  An undecided class v of
    level d has p^d | M_F v, so its lifts v + p^d w all have F = F(v) mod
    p^(2d).  The residues taken by levels 1..d form classes mod p^(2d-1),
    so once F(v) mod p^(2d-1) is taken, every m = F(v) mod p^(2d) is, the
    subtree of v cannot change first, and v is not split.  Every class of
    level d + 1 thus lies at a residue no shallower level has taken, and
    rows holds only rows that first references.
    """
    m = form.gram_doubled()
    e3 = elementary_orders(form, p)[2]
    j = 2 * e3 + 1
    r = np.arange(p, dtype=np.int64)
    offs = [a.ravel() for a in np.meshgrid(r, r, r, indexing="ij")]
    v = [a[1:] for a in offs]  # primitive classes mod p: drop the zero vector
    first = np.full(p**j, -1, dtype=np.int32)
    rows, depth = [], []
    top = 0
    d = 1
    while v[0].size:
        if d > e3 + 1:
            raise AssertionError(f"class splitting past elementary divisor bound at {form}, p={p}")
        grad = [m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3)]
        decided = (grad[0] % p**d != 0) | (grad[1] % p**d != 0) | (grad[2] % p**d != 0)
        mod = p ** (2 * d - 1)
        res = (v[0] * grad[0] + v[1] * grad[1] + v[2] * grad[2]) // 2 % mod
        new = np.flatnonzero(decided)
        if new.size:
            # the first decided class of each residue, without sorting
            lead = np.full(mod, new.size)
            np.minimum.at(lead, res[new], np.arange(new.size))
            vals = np.flatnonzero(lead < new.size)
            rows.append(np.stack([a[new[lead[vals]]] for a in v], axis=1))
            depth.append(np.full(vals.size, d))
            first.reshape(p**j // mod, mod)[:, vals] = np.arange(top, top + vals.size)
            top += vals.size
        live = ~decided & (first[res] < 0)
        v = [a[live] for a in v]
        if v[0].size:
            v = [(a[:, None] + p**d * o[None, :]).ravel() for a, o in zip(v, offs)]
        d += 1
    first = first.astype(np.min_scalar_type(-top))
    rows, depth = np.concatenate(rows), np.concatenate(depth)
    for a in (first, rows, depth):
        a.setflags(write=False)
    return j, first, rows, depth


def _unramified_witness(form: TernaryForm, p: int, m: int) -> tuple[int, int, int]:
    """Certificate vector for odd p with M_F unimodular: F(v) = m mod p and
    v nonzero mod p, so the gradient is a unit.  Diagonalize mod p, then
    solve a two-square equation by Tonelli-Shanks."""
    mat = form.gram_doubled()
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def bil(u, w):
        return sum(u[i] * mat[i][j] * w[j] for i in range(3) for j in range(3)) % p

    # Gram-Schmidt over F_p; bil(u,u) = 2 F(u), nondegenerate since p does not divide det
    for i in range(3):
        if bil(basis[i], basis[i]) == 0:
            for j in range(i + 1, 3):
                if bil(basis[j], basis[j]) != 0:
                    basis[i], basis[j] = basis[j], basis[i]
                    break
            else:
                for j in range(i + 1, 3):
                    if bil(basis[i], basis[j]) != 0:
                        basis[i] = [(basis[i][k] + basis[j][k]) % p for k in range(3)]
                        break
        inv = pow(bil(basis[i], basis[i]), -1, p)
        for j in range(i + 1, 3):
            r = bil(basis[i], basis[j]) * inv % p
            basis[j] = [(basis[j][k] - r * basis[i][k]) % p for k in range(3)]
    half = pow(2, -1, p)
    c = [bil(b, b) * half % p for b in basis]

    # c0 t0^2 + c1 t1^2 (+ c2) = m mod p; shift by the c2 term when m = 0
    # so the binary target is nonzero and a nontrivial solution exists
    t2 = 0 if m % p else 1
    target = (m - c[2] * t2 * t2) % p
    inv1 = pow(c[1], -1, p)
    for t0 in range(p):
        t1 = sqrt_mod_p((target - c[0] * t0 * t0) * inv1 % p, p)
        if t1 is not None:
            v = tuple(
                (t0 * basis[0][k] + t1 * basis[1][k] + t2 * basis[2][k]) % p
                for k in range(3)
            )
            return v
    raise AssertionError(f"no conic point mod {p} for {form}")


def _accepting_row(form: TernaryForm, p: int, n: int) -> tuple[int, int] | None:
    """(j, i): the least j with n / p^(2j) primitively represented, and
    the table row i accepting it; None when no p^(2j) | n gives one."""
    big_j, first, _rows, _depth = _class_tree(form, p)
    j = 0
    # Python ints throughout, so any n is exact
    while (i := int(first[n % p**big_j])) < 0:
        if n % (p * p):
            return None
        n //= p * p
        j += 1
    return j, i


def local_represents(form: TernaryForm, p: int, n: int) -> LocalVerdict:
    """Decide n -> L_p with a Hensel certificate either way."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_prime(p)
    if unramified_shortcut(form, p):
        v = _unramified_witness(form, p, n)
        return LocalVerdict(p, n, True, residue=v, precision=0, grad_ord=0)

    hit = _accepting_row(form, p, n)
    if hit is None:
        exhaust = 2 * (ord_p(p, 2 * n * form.gram_det()) // 2) + 1
        return LocalVerdict(p, n, False, precision=exhaust)
    j, i = hit
    _big_j, _first, rows, depth = _class_tree(form, p)
    res = tuple(p**j * int(t) for t in rows[i])
    k = j + int(depth[i]) - 1
    return LocalVerdict(p, n, True, residue=res, precision=k, grad_ord=k)


def verify_certificate(form: TernaryForm, verdict: LocalVerdict) -> bool:
    """Re-check a representable verdict's Hensel inequality as recorded."""
    if not verdict.representable:
        return False
    p, k = verdict.p, verdict.precision
    val = evaluate(form, verdict.residue)
    if (val - verdict.n) % p ** (2 * k + 1) != 0:
        return False
    grad = form.gradient(verdict.residue)
    gord = min((ord_p(p, t) for t in grad if t != 0), default=None)
    if gord is None or gord != verdict.grad_ord:
        return False
    return gord <= k


def locally_represented(form: TernaryForm, p: int, n: int) -> bool:
    """Table-backed n -> L_p membership; equals local_represents(...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_prime(p)
    return unramified_shortcut(form, p) or _accepting_row(form, p, n) is not None


def local_mask(form: TernaryForm, p: int, bound: int) -> np.ndarray:
    """Bool array over 0..bound: n -> L_p (index 0 unused, False).

    n -> L_p iff n / p^(2j) is primitively represented for some p^(2j) | n:
    for each scaling k = p^(2j), the multiples k*m read the table at
    m mod p^J, i.e. a prefix of the table's hits tiled over 0..bound.  The
    hits are taken of the table's first bound + 1 entries at most, and
    np.tile copies them in one pass to less than one table past the bound,
    where np.resize would join one array per copy."""
    _check_prime(p)
    if unramified_shortcut(form, p):
        return np.arange(bound + 1) > 0
    _j, first, _rows, _depth = _class_tree(form, p)
    hit = first[: bound + 1] >= 0
    hit = np.tile(hit, -(-(bound + 1) // hit.size))
    out = np.zeros(bound + 1, dtype=bool)
    k = 1
    while k <= bound:
        out[k::k] |= hit[1 : bound // k + 1]
        k *= p * p
    return out


def genus_represents(record, n: int) -> bool:
    """n -> gen: local representability at every prime dividing 2*disc."""
    form = record.sgi_forms[0]
    return all(locally_represented(form, p, n) for p in record.ramified_primes())


def first_failing_prime(record, bound: int) -> np.ndarray:
    """fail[n] for 0 <= n <= bound: the first ramified prime, in the
    record's order, at which n is not locally represented, or 0 when n is
    genus-represented (fail[0] is the first ramified prime)."""
    form = record.sgi_forms[0]
    out = np.zeros(bound + 1, dtype=np.int8)
    # later primes first, so an earlier failing prime overwrites them
    for p in reversed(record.ramified_primes()):
        np.putmask(out, ~local_mask(form, p, bound), p)
    return out


def genus_mask(record, bound: int) -> np.ndarray:
    """mask[n] == (n -> gen) for 0 <= n <= bound (index 0 False)."""
    return first_failing_prime(record, bound) == 0
