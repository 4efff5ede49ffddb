"""Exact arithmetic on integral ternary quadratic forms.

A form (a,b,c,d,e,f) means ax^2 + by^2 + cz^2 + dyz + exz + fxy.  All
decisions route through the doubled Gram matrix

    M_F = [[2a, f, e],
           [ f, 2b, d],
           [ e,  d, 2c]]

and the identity x^T M_F x = 2 F(x), so non-classic forms (odd d, e or f)
never require half-integers.

The two engines of route 1 walk one cut of the (y, z) box into chunks of
whole y rows (_chunks) behind the same guards (_scan_box), so they refuse
the same forms and bounds with the same messages, and each holds at most
BLOCK_BYTES besides its per-n arrays.  The keyed scan
(enumerate_represented) adds the x terms to each chunk, in int32 where the
box's bound on |F| allows, and keeps the least scan position of each n:
the witness that `report` and `classify` print, whatever the chunks and
the width.  It scans one point per sign orbit that fixes x: the least
witness has y <= 0 when f = 0 and d or e is 0 ((x, -y, z) or (x, -y, -z)
keeps F), and z <= 0 when d = e = 0 ((x, y, -z) keeps F), as the mirror
of any other is smaller.  represented_mask marks the n that occur, all
that `verify` reads, as a sumset of shifted binary-form values (its
docstring), with no scan of the three-dimensional box.

Where the box is more than one block of x, the keyed scan takes the
sumset first, as its proof that an n without a key is not represented,
and stops scanning after the first block that leaves fewer of its members
without a key than the slab has z values.  Least witnesses sit at small
x, so that comes early, and the scan then solves F = n, a quadratic in z,
for each member left (_solve).  Its members must then equal the
sumset's, so each such call checks the two engines against each other
(enumerate_represented).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TernaryForm",
    "Witness",
    "RepresentedSet",
    "DefinitenessError",
    "BoundOverflowError",
    "evaluate",
    "discriminant",
    "is_positive_definite",
    "enumerate_represented",
    "represented_mask",
    "BLOCK_BYTES",
]

# Intermediates in enumeration must stay well inside signed 64-bit.
_INT64_GUARD = 1 << 62
# Points per numpy pass of the scan: a block this size stays in cache
# (1 << 18 was slower at bound 1e4).
_BLOCK_POINTS = 1 << 16
# Peak bytes a scan holds besides its per-n arrays, per chunk point at int64
# width: in the keyed scan the chunk's g, one block's F and its filter, and
# the in-range positions, F and keys (8 + 8 + 1 + 3 * 8), and in its solve
# two blocks' D while the next is built, one block's discriminants, roots
# and filter (2 * 8 + 8 + 8 + 1); in the sumset, g, w, q and r while
# divmod runs, then g, q, r and t (4 * 8), and last the flat index, its
# filter and the kept indices (8 + 1 + 8).  The scan and the sumset hold
# about half that at int32.
BLOCK_BYTES = 41 * _BLOCK_POINTS
# key of an n that no vector gives
_NO_KEY = np.iinfo(np.int64).max
# n whose keys the keyed scan reads at a time to count the members left
_SEEK = 1 << 12
# Classes of w mod 2a that one pass of represented_mask holds
_CLASS_ROWS = 8
# (a, b, c, d, e, f) with x, y or z first, then the other two variables:
# the first three indices also order the box radii (x1, x2, x3)
_ISOLATE = ((0, 1, 2, 3, 4, 5), (1, 0, 2, 4, 3, 5), (2, 1, 0, 5, 4, 3))


class DefinitenessError(ValueError):
    """Operation requires a positive definite form."""


class BoundOverflowError(OverflowError):
    """Enumeration intermediates would exceed the 64-bit width contract."""


class Witness(NamedTuple):
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class TernaryForm:
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def coeffs(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def gram_doubled(self) -> list[list[int]]:
        """The integer matrix M_F of second partials."""
        a, b, c, d, e, f = self.coeffs()
        return [[2 * a, f, e], [f, 2 * b, d], [e, d, 2 * c]]

    def gram_adjugate(self) -> list[list[int]]:
        """adj(M_F), satisfying adj(M_F) @ M_F = det(M_F) * I, in closed form."""
        a, b, c, d, e, f = self.coeffs()
        u, v, w = d * e - 2 * c * f, d * f - 2 * b * e, e * f - 2 * a * d
        return [[4 * b * c - d * d, u, v], [u, 4 * a * c - e * e, w], [v, w, 4 * a * b - f * f]]

    def gram_det(self) -> int:
        """det(M_F), in closed form."""
        a, b, c, d, e, f = self.coeffs()
        return 8 * a * b * c + 2 * (d * e * f - a * d * d - b * e * e - c * f * f)

    def gradient(self, v: tuple[int, int, int]) -> tuple[int, int, int]:
        """(dF/dx, dF/dy, dF/dz) at v, i.e. M_F @ v."""
        m = self.gram_doubled()
        x, y, z = v
        return (
            m[0][0] * x + m[0][1] * y + m[0][2] * z,
            m[1][0] * x + m[1][1] * y + m[1][2] * z,
            m[2][0] * x + m[2][1] * y + m[2][2] * z,
        )

    def __str__(self) -> str:
        return "({},{},{},{},{},{})".format(*self.coeffs())


def evaluate(form: TernaryForm, v: tuple[int, int, int]) -> int:
    x, y, z = v
    a, b, c, d, e, f = form.coeffs()
    return a * x * x + b * y * y + c * z * z + d * y * z + e * x * z + f * x * y


def is_positive_definite(form: TernaryForm) -> bool:
    """Sylvester test on the leading principal minors 2a, 4ab - f^2, det(M_F)."""
    return form.a > 0 and 4 * form.a * form.b - form.f * form.f > 0 and form.gram_det() > 0


def discriminant(form: TernaryForm) -> int:
    """Delta = det(M_F) / 2; an integer for integral sextuples, since
    det(M_F) = 8abc + 2(def - ad^2 - be^2 - cf^2)."""
    if not is_positive_definite(form):
        raise DefinitenessError(f"form {form} is not positive definite")
    return form.gram_det() // 2


class RepresentedSet:
    """Exhaustive membership of {1..bound} under a form, one witness each.

    key[n] is the least scan position x*|slab| + flat(y, z) of a vector with
    F = n (x >= 0, then y, then z ascending), or _NO_KEY when none exists;
    the box (x2, x3, ny, nz) has ny values of y from -x2 and nz of z from -x3.
    """

    def __init__(self, bound: int, key: np.ndarray, box: tuple[int, int, int, int]):
        self.bound = bound
        self._key = key  # int64, indexed by n, size bound+1
        self._box = box  # (x2, x3, ny, nz)

    def __contains__(self, n: int) -> bool:
        return 1 <= n <= self.bound and bool(self._key[n] != _NO_KEY)

    def member_mask(self) -> np.ndarray:
        """A fresh read-only bool array indexed by n (index 0 unused)."""
        mask = self._key != _NO_KEY
        mask.setflags(write=False)
        return mask

    def witness(self, n: int) -> Witness | None:
        """The lexicographically least (x >= 0, y, z) with F = n."""
        if n not in self:
            return None
        return Witness(*self._decode(int(self._key[n])))

    def witnesses(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """witness(n) for every n of the integer array ns, as arrays (x, y, z);
        every n must be in the set."""
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and (ns.min() < 1 or ns.max() > self.bound or (self._key[ns] == _NO_KEY).any()):
            raise ValueError("witnesses asked for an n outside the set")
        return self._decode(self._key[ns])

    def _decode(self, key):
        # int or int64 array alike: x, then y and z shifted back to the box
        x2, x3, ny, nz = self._box
        x, flat = divmod(key, ny * nz)
        y, z = divmod(flat, nz)
        return x, y - x2, z - x3


def _worst(coeffs, radii) -> int:
    """A bound on |F| and on each of its partial sums over the box |x| <= x1,
    |y| <= x2, |z| <= x3, radii = (x1, x2, x3)."""
    a, b, c, d, e, f = map(abs, coeffs)
    x1, x2, x3 = radii
    return a * x1 * x1 + b * x2 * x2 + c * x3 * x3 + d * x2 * x3 + e * x1 * x3 + f * x1 * x2


def _scan_box(form: TernaryForm, bound: int):
    """(x1, x2, x3, worst): the radii of the box |x| <= x1, |y| <= x2,
    |z| <= x3 around the ellipsoid F <= bound, and a bound worst on |F| and
    on each of its partial sums over the box.  Raises where the
    definiteness, bound and 64-bit guards fail; allocates no array."""
    if not is_positive_definite(form):
        raise DefinitenessError(f"form {form} is not positive definite")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    # x_i^2 <= 2 * bound * adj(M_F)_ii / det(M_F), exact integer sqrt
    adj_diag = [row[i] for i, row in enumerate(form.gram_adjugate())]
    det = form.gram_det()
    x1, x2, x3 = (math.isqrt(2 * bound * m // det) for m in adj_diag)
    worst = _worst(form.coeffs(), (x1, x2, x3))
    # numpy holds each coefficient too, even where its coordinate is only 0
    if worst >= _INT64_GUARD or max(map(abs, form.coeffs())) >= _INT64_GUARD:
        raise BoundOverflowError(f"bound {bound} overflows 64-bit intermediates for {form}")
    return x1, x2, x3, worst


def _chunks(b: int, c: int, d: int, box, dtype):
    """Yield (ys, zs, g) over the (y, z) box (x2, x3, ny, nz), ny values of
    y from -x2 and nz of z from -x3, cut into chunks of whole y rows of at
    most _BLOCK_POINTS points: the chunk's ys, every z, and g = b y^2 +
    d y z + c z^2 on the chunk in dtype.  The fewest chunks are cut, of about
    equal rows.  A row alone passes _BLOCK_POINTS only when nz > 65 536,
    at bounds near 1e9.  The caller still holds the last chunk while the
    next is built."""
    x2, x3, ny, nz = box
    zs = np.arange(-x3, nz - x3, dtype=np.int64)
    rows = min(ny, max(1, _BLOCK_POINTS // nz))
    # rows evened out: a short last chunk made the allocator hand pages
    # back and fault them in again on every x of a rebuilt slab
    rows = -(-ny // -(-ny // rows))
    # each term of one variable in int64 before the cast; every 2-D pass in dtype
    dz = (d * zs).astype(dtype)
    cz = (c * zs * zs).astype(dtype)
    for y0 in range(-x2, ny - x2, rows):
        ys = np.arange(y0, min(y0 + rows, ny - x2), dtype=np.int64)
        g = np.multiply.outer(ys.astype(dtype), dz)
        g += (b * ys * ys).astype(dtype)[:, None]
        g += cz
        yield ys, zs, g


def enumerate_represented(form: TernaryForm, bound: int) -> RepresentedSet:
    """Every n in 1..bound with F(v) = n for some integer v, with witnesses.

    Scans x >= 0 (F(-v) = F(v)) over the ellipsoid box less the sign
    mirrors (module docstring), and every n keeps the least scan position
    that gives it.  The work follows the box, not the ellipsoid, so a skewed
    (non-reduced) form can make the scan crawl; the catalog refuses one.

    The scan runs x ascending, one block at a time: whole x slices over a
    (y, z) slab of one chunk, built once, or one x slice over each chunk
    of a larger slab, rebuilt for each x.  When the box is more than one
    block, the scan takes represented_mask(form, bound) before its key
    array, and after each block counts the mask's members left without a
    key, up to nz of them, in windows of _SEEK n that resume where the
    last count ended.  Later blocks hold only larger positions, so a key
    once set stays, and an n without a key is outside the mask, so it has
    no vector at all.  When none is left, the scan stops.  When k < nz
    are left, it stops too and solves for them from the next x slice on
    (_solve): per x slice the scan visits ny * nz points, and the solve
    ny * k pairs (y, n), each an exact square root of the discriminant of
    F = n as a quadratic in z, so the solve is the cheaper from there.  It
    gives each n the least position in the same slab, sign rules
    included, so every key is the one the scan would give.  Its
    discriminants are exact float64 integers with whole roots exactly
    where square only below 2^52, so it runs only where the box bound
    (|d| x2 + |e| x1)^2 + 4c (worst + bound) is below that; elsewhere, as
    on a skewed form, the scan runs on to its stop.  The catalog's 81
    forms stay below 0.1 * 2^52 at bound 1e11.

    The keyed n must then be exactly the mask's members, or RuntimeError
    names the form and the bound; a member the solve does not find by x1
    fails that check.
    """
    x1, x2, x3, worst = _scan_box(form, bound)
    a, b, c, d, e, f = form.coeffs()
    # the least witness's sign rules: y <= 0, z <= 0
    ny = x2 + 1 if f == 0 and (d == 0 or e == 0) else 2 * x2 + 1
    nz = x3 + 1 if d == e == 0 else 2 * x3 + 1
    slab = (x2, x3, ny, nz)
    # every partial sum below is at most worst in absolute value
    dtype = np.int32 if worst <= np.iinfo(np.int32).max else np.int64
    # x slices per block, so each chunk's positions in a block are contiguous
    step = max(1, _BLOCK_POINTS // (ny * nz))
    # the sumset tells which members are left without a key
    stop = x1 >= step
    if stop:
        mask = represented_mask(form, bound)
        # the first members without a key, at most nz of them, ascending:
        # every such member below hi is in holes
        holes = np.empty(0, dtype=np.int64)
        hi = 1
        # the solve's discriminants are exact in float64, with whole roots
        # exactly where square (_solve)
        solvable = (abs(d) * x2 + abs(e) * x1) ** 2 + 4 * c * (worst + bound) < 1 << 52
    key = np.full(bound + 1, _NO_KEY, dtype=np.int64)
    # a slab of one chunk is built once; a larger one again for each x
    held = list(_chunks(b, c, d, slab, dtype)) if ny * nz <= _BLOCK_POINTS else None
    for x0 in range(0, x1 + 1, step):
        xs = np.arange(x0, min(x0 + step, x1 + 1), dtype=np.int64)[:, None]
        for ys, zs, g in held or _chunks(b, c, d, slab, dtype):
            # int64 first: a coefficient may pass int32 where its coordinate is only 0
            row = (a * xs * xs + f * xs * ys).astype(dtype)
            ez = (e * xs * zs).astype(dtype)
            vals = g + row[:, :, None]
            vals += ez[:, None, :]
            flat = vals.ravel()
            # F >= 0 on the box, and F = 0 only at the origin (key[0] reset below)
            pos = np.flatnonzero(flat <= bound)
            np.minimum.at(key, flat[pos], (x0 * ny + int(ys[0]) + x2) * nz + pos)
        if stop:
            # keys are never unset, so a hole only ever leaves, hi never
            # moves back past a hole, and the scan reads each key here once
            # besides one window per block
            holes = holes[key[holes] == _NO_KEY]
            while holes.size < nz and hi <= bound:
                found = np.flatnonzero(mask[hi:hi + _SEEK] & (key[hi:hi + _SEEK] == _NO_KEY))
                if found.size:
                    holes = np.concatenate((holes, hi + found))
                hi += _SEEK
            if holes.size >= nz:
                hi = int(holes[nz - 1]) + 1
                holes = holes[:nz]
            # else hi is past the bound, and holes are all the members left
            elif not holes.size:
                # every later block holds only larger positions, so no key
                # would change
                break
            elif solvable:
                # fewer than nz, so the solve's ny pairs per x and member
                # cost less than the scan's ny * nz points; it holds its
                # own block, so the scan's goes first
                del held, g, vals, flat, pos
                _solve((a, b, c, d, e, f), slab, key, holes, range(x0 + step, x1 + 1))
                break
    key[0] = _NO_KEY
    if stop:
        # one bool array of bound + 1: the members where the two differ
        differ = key != _NO_KEY
        differ ^= mask
        if differ.any():
            raise RuntimeError(f"the keyed scan and the sumset of {form} to {bound} give different members")
    return RepresentedSet(bound, key, slab)


def _solve(coeffs, slab, key, ns: np.ndarray, xs: range) -> None:
    """Give each n of ns its least slab position with x in xs, in key;
    the x before xs give none of them one.

    F(x, y, z) = n is c z^2 + L z + (M - n) = 0, with L = d y + e x and
    M = a x^2 + b y^2 + f x y, so z = (-L +- r) / 2c, where r^2 = L^2 -
    4c (M - n) = D + 4c n and D = (d^2 - 4bc) y^2 + (2de - 4cf) x y +
    (e^2 - 4ac) x^2.  The caller guarantees (|d| x2 + |e| x1)^2 + 4c
    (worst + bound) < 2^52, which bounds every partial sum of D + 4c n,
    so each is an exact float64 integer.  A square below 2^52 has an exact
    float root; the root of a non-square s^2 < m < (s + 1)^2 lies more
    than 1 / (2s + 2) > 2^-27 from either integer, more than half its ulp,
    so it is never whole.  So m is a square exactly where its float root
    is whole (a negative m gives nan, which is not).  A root counts where
    2c divides -L +- r and z lies in the slab.

    The (x, y, n) triples run x ascending, in blocks of at most
    _BLOCK_POINTS: whole x slices of ny rows while they fit, or one slice
    with the n cut into columns.  An n found leaves before the next block,
    and np.minimum.at keeps the least position within one, so each n
    keeps its least (x, y, z).  A block holds D, 8 bytes a row, and its
    discriminants and their roots, 16 bytes a triple, in two buffers that
    every block reuses: fresh arrays of a block's size were mapped and
    faulted in again each time, which tripled the block's time."""
    a, b, c, d, e, f = coeffs
    x2, x3, ny, nz = slab
    yf = np.arange(-x2, ny - x2, dtype=np.float64)
    bufs = np.empty((2, max(_BLOCK_POINTS, ny)))
    x = xs.start
    while ns.size and x < xs.stop:
        xf = np.arange(x, min(x + max(1, _BLOCK_POINTS // (ny * ns.size)), xs.stop), dtype=np.float64)[:, None]
        # D on the block's rows, x slice by x slice, then y
        rows = (2 * d * e - 4 * c * f) * xf * yf
        rows += (d * d - 4 * b * c) * yf * yf
        rows += (e * e - 4 * a * c) * xf * xf
        rows = rows.ravel()
        cols = max(1, _BLOCK_POINTS // rows.size)
        for i in range(0, ns.size, cols):
            part = ns[i:i + cols]
            disc, root = (buf[: part.size * rows.size].reshape(part.size, rows.size) for buf in bufs)
            np.add((4.0 * c * part)[:, None], rows, out=disc)
            with np.errstate(invalid="ignore"):
                np.sqrt(disc, out=root)
            # disc now holds the roots rounded, equal to them where whole
            np.rint(root, out=disc)
            col, row = np.divmod(np.flatnonzero(root == disc), rows.size)
            r = disc[col, row].astype(np.int64)
            xi, yi = np.divmod(row, ny)
            lin = d * (yi - x2) + e * (x + xi)
            z, rem = np.divmod(np.concatenate((-lin - r, r - lin)), 2 * c)
            n = np.concatenate((part[col], part[col]))
            pos = np.concatenate((row, row))
            ok = (rem == 0) & (z >= -x3) & (z < nz - x3)
            np.minimum.at(key, n[ok], (x * ny + pos[ok]) * nz + z[ok] + x3)
        ns = ns[key[ns] == _NO_KEY]
        x += xf.size


def _isolated(form: TernaryForm, bound: int, box):
    """((a, b, c, d, e, f), yz, step, k): form with x, y or z moved first,
    whichever gives represented_mask the fewest shifts
    k * (isqrt(bound // a) + 1), the first on a tie; the (y, z) box of the
    other two variables, as _chunks takes it; and the k classes
    step * {0..k-1} of w mod 2a.  box is _scan_box(form, bound)."""
    best = None
    for perm in _ISOLATE:
        a, b, c, d, e, f = (form.coeffs()[i] for i in perm)
        r1, r2, r3 = (box[i] for i in perm[:3])
        if r1 == 0:
            # then a > bound: only x = 0 can reach the bound, and F(0, y, z)
            # keeps neither e nor f
            e = f = 0
        step = math.gcd(2 * a, e, f)
        k = 2 * a // step
        shifts = k * (math.isqrt(bound // a) + 1)
        if best is None or shifts < best[0]:
            best = (shifts, ((a, b, c, d, e, f), (r2, r3, 2 * r2 + 1, 2 * r3 + 1), step, k))
    return best[1]


def represented_mask(form: TernaryForm, bound: int) -> np.ndarray:
    """Read-only bool array indexed by n (index 0 unused): True exactly
    where enumerate_represented(form, bound) has a member, with the same
    guards and messages, as a sumset of shifted binary-form values.

    Write F = a x^2 + x w + g, with w = f y + e z and g = F(0, y, z), and
    split w = 2a q + r with 0 <= r < 2a.  Then x' = x + q gives
    F = a x'^2 + r x' + h with h = F(-q, y, z) >= 0, and (x, y, z) ->
    (x', y, z) is a bijection.  v -> -v keeps F, sends class r to 2a - r
    and x' to -x' - 1 (to -x' when r = 0), so x' >= 0 suffices: every
    shift a x'^2 + r x' is >= 0, and rep(F) up to bound is the union over
    the classes r of the shifts s <= bound plus H_r, the h <= bound over
    the (y, z) with w = r mod 2a.  Only r in step * {0..k-1} occur
    (_isolated, which also picks the variable to isolate).

    h and r come from the chunks of the (y, z) box (_chunks): q, r =
    divmod(w, 2a) and h = g - (a q + r) q, or h = g where e = f = 0 (then
    w = q = r = 0).  Each chunk is scattered into _CLASS_ROWS rows of H at
    a time, laid end to end, through the one flat index
    r / step * (bound + 1) + h of its n with h <= bound; a form with more
    classes walks the chunks again for each further _CLASS_ROWS, and only
    then is r tested against the rows held.  So the mask holds
    1 + min(k, _CLASS_ROWS) bytes per n besides one chunk.

    A chunk is int32 wherever that cannot overflow.  On the box |y| <= r2,
    |z| <= r3, |w| <= |f| r2 + |e| r3, so |q| <= qmax = that // 2a + 1.
    Every value the chunk holds is then at most W = _worst of the
    coefficients over the radii (qmax, r2, r3) in absolute value: g and its
    partial sums; w and its terms; q; a q + r = w - a q; (a q + r) q, at
    most (|w| + a qmax) qmax; and h = g - (a q + r) q, at most |g| plus
    that.  The divisor 2a must fit too.  The flat index wraps where h >
    bound or r lies outside the rows held, but those entries are dropped,
    and a kept one is below the rows' size held * (bound + 1), so it is
    exact in any width that holds that size.  So the chunk is int32 where
    max(W, 2a, held * (bound + 1)) < 2^31, and int64 otherwise.
    """
    (a, b, c, d, e, f), yz, step, k = _isolated(form, bound, _scan_box(form, bound))
    r2, r3 = yz[:2]
    qmax = (abs(f) * r2 + abs(e) * r3) // (2 * a) + 1
    held = min(k, _CLASS_ROWS)
    span = max(_worst((a, b, c, d, e, f), (qmax, r2, r3)), 2 * a, held * (bound + 1))
    dtype = np.int32 if span <= np.iinfo(np.int32).max else np.int64
    mask = np.zeros(bound + 1, dtype=bool)
    hs = np.empty((held, bound + 1), dtype=bool)
    ez = (e * np.arange(-r3, r3 + 1, dtype=np.int64)).astype(dtype)
    for c0 in range(0, k, held):
        hs[:] = False
        for ys, _, h in _chunks(b, c, d, yz, dtype):
            # in place where it can be: g becomes h, then h the flat index
            if e or f:
                q, r = np.divmod((f * ys).astype(dtype)[:, None] + ez, 2 * a)
                t = q * a
                t += r
                t *= q
                h -= t
                del q, t
                keep = h <= bound
                r //= step
                if k > held:
                    r -= c0
                    keep &= (r >= 0) & (r < held)
                r *= bound + 1
                h += r
                del r
            else:
                keep = h <= bound
            hs.reshape(-1)[h[keep]] = True
            # so the next chunk's g is built beside this chunk's g alone
            del keep
        for j in range(min(held, k - c0)):
            row, r = hs[j], (c0 + j) * step
            x = 0
            while (s := a * x * x + r * x) <= bound:
                mask[s:] |= row[: bound + 1 - s]
                x += 1
    # F = 0 only at the origin
    mask[0] = False
    mask.setflags(write=False)
    return mask
