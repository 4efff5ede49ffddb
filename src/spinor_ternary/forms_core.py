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

Where the slab is one chunk cut into several blocks, the keyed scan
takes the sumset first, as its proof that an n without a key is not
represented, and stops after the first block that leaves no member of it
without a key; its members must then equal the sumset's, so each such
call checks the two engines against each other (enumerate_represented).
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
# the in-range positions, F and keys (8 + 8 + 1 + 3 * 8); in the sumset, g,
# q and t while h is built (3 * 8), then h, r, the filter and the scatter's
# two indices (8 + 8 + 1 + 2 * 8).
BLOCK_BYTES = 41 * _BLOCK_POINTS
# key of an n that no vector gives
_NO_KEY = np.iinfo(np.int64).max
# n whose keys the keyed scan's stop test reads at a time
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
    a, b, c, d, e, f = form.coeffs()
    worst = (
        abs(a) * x1 * x1
        + abs(b) * x2 * x2
        + abs(c) * x3 * x3
        + abs(d) * x2 * x3
        + abs(e) * x1 * x3
        + abs(f) * x1 * x2
    )
    # numpy holds each coefficient too, even where its coordinate is only 0
    if worst >= _INT64_GUARD or max(map(abs, form.coeffs())) >= _INT64_GUARD:
        raise BoundOverflowError(f"bound {bound} overflows 64-bit intermediates for {form}")
    return x1, x2, x3, worst


def _chunks(b: int, c: int, d: int, box, dtype):
    """Yield (ys, zs, g) over the (y, z) box (x2, x3, ny, nz), ny values of
    y from -x2 and nz of z from -x3, cut into chunks of whole y rows of at
    most _BLOCK_POINTS points: the chunk's ys, every z, and g = b y^2 +
    d y z + c z^2 on the chunk in dtype.  A row alone passes _BLOCK_POINTS
    only when nz > 65 536, at bounds near 1e9."""
    x2, x3, ny, nz = box
    zs = np.arange(-x3, nz - x3, dtype=np.int64)
    rows = min(ny, max(1, _BLOCK_POINTS // nz))
    for y0 in range(-x2, ny - x2, rows):
        ys = np.arange(y0, min(y0 + rows, ny - x2), dtype=np.int64)
        # int64 first: a coefficient may pass int32 where its coordinate is only 0
        g = (d * ys)[:, None] * zs
        g += (b * ys * ys)[:, None]
        g += c * zs * zs
        # rebound, so no int64 copy stays alive while the engine walks the chunk
        g = g.astype(dtype, copy=False)
        yield ys, zs, g
        # dropped on resume, so a g the engine has dropped is freed before
        # the next chunk is built
        del g


def enumerate_represented(form: TernaryForm, bound: int) -> RepresentedSet:
    """Every n in 1..bound with F(v) = n for some integer v, with witnesses.

    Scans x >= 0 (F(-v) = F(v)) over the ellipsoid box less the sign
    mirrors (module docstring), and every n keeps the least scan position
    that gives it.  The work follows the box, not the ellipsoid, so a skewed
    (non-reduced) form can make the scan crawl; the catalog refuses one.

    When the (y, z) slab is one chunk and the box more than one block, each
    block is whole x slices, so the blocks run in ascending position.  The
    scan then takes represented_mask(form, bound) before its key array and
    stops after the first block that leaves none of the mask's members
    without a key.  Every later block holds only larger positions, so no
    key changes, and an n without a key is outside the mask, so it has no
    vector at all.  Afterwards the keyed n must be exactly the mask's
    members, or RuntimeError names the form and the bound.  A slab of
    several chunks is scanned chunk by chunk, each over every x, so its
    keys are final only at the end, and it takes no mask.
    """
    x1, x2, x3, worst = _scan_box(form, bound)
    a, b, c, d, e, f = form.coeffs()
    # the least witness's sign rules: y <= 0, z <= 0
    ny = x2 + 1 if f == 0 and (d == 0 or e == 0) else 2 * x2 + 1
    nz = x3 + 1 if d == e == 0 else 2 * x3 + 1
    # every partial sum below is at most worst in absolute value
    dtype = np.int32 if worst <= np.iinfo(np.int32).max else np.int64
    # a block is one chunk of one x slice, or whole x slices when the slab
    # is one chunk, so each block's positions are contiguous
    step = max(1, _BLOCK_POINTS // (ny * nz))
    # a slab of one chunk, cut into more than one block: the blocks run in
    # ascending key, and the sumset tells when no member is left unkeyed
    stop = ny * nz <= _BLOCK_POINTS and x1 >= step
    if stop:
        mask = represented_mask(form, bound)
        # every member below lo has a key
        lo = 1
    key = np.full(bound + 1, _NO_KEY, dtype=np.int64)
    for ys, zs, g in _chunks(b, c, d, (x2, x3, ny, nz), dtype):
        for x0 in range(0, x1 + 1, step):
            xs = np.arange(x0, min(x0 + step, x1 + 1), dtype=np.int64)[:, None]
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
                # lo moves on to the next member without a key, _SEEK n at
                # a time; keys are never unset, so lo never moves back, and
                # the scan reads each key here once besides one window per block
                while lo <= bound and not (
                    hole := mask[lo:lo + _SEEK] & (key[lo:lo + _SEEK] == _NO_KEY)
                ).any():
                    lo += _SEEK
                if lo > bound:
                    # every later block holds only larger positions, so no
                    # key would change
                    break
                lo += int(hole.argmax())
        # the last block's arrays and the chunk's g, freed before _chunks
        # builds the next chunk; freed after every block instead, each block
        # faults in fresh pages (A1 at 2e4: ten times the faults, twice the time)
        del vals, flat, pos, g
    key[0] = _NO_KEY
    if stop and not np.array_equal(key != _NO_KEY, mask):
        raise RuntimeError(f"the keyed scan and the sumset of {form} to {bound} give different members")
    return RepresentedSet(bound, key, (x2, x3, ny, nz))


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

    h and r come from the chunks of the (y, z) box (_chunks) and are
    scattered into _CLASS_ROWS rows of H at a time; a form with more
    classes walks the chunks again for each further _CLASS_ROWS.  So the
    mask holds 1 + min(k, _CLASS_ROWS) bytes per n besides one chunk.
    """
    (a, b, c, d, e, f), yz, step, k = _isolated(form, bound, _scan_box(form, bound))
    mask = np.zeros(bound + 1, dtype=bool)
    held = min(k, _CLASS_ROWS)
    hs = np.empty((held, bound + 1), dtype=bool)
    for c0 in range(0, k, held):
        hs[:] = False
        for ys, zs, h in _chunks(b, c, d, yz, np.int64):
            # in place, so a chunk holds three int64 arrays: g becomes
            # h = g + q (a q - w), and q becomes r = w - 2a q; every value
            # stays within _scan_box's int64 guard
            fy, ez = (f * ys)[:, None], e * zs
            q = fy + ez
            q //= 2 * a
            t = q * a
            t -= fy
            t -= ez
            t *= q
            h += t
            del t
            r = q
            r *= -2 * a
            r += fy
            r += ez
            del fy, ez
            r //= step
            r -= c0
            keep = (h <= bound) & (r >= 0) & (r < held)
            hs[r[keep], h[keep]] = True
            # so the next chunk's g is built beside this chunk's g alone
            del q, r, keep
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
