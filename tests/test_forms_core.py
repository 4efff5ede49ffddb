"""Integral ternary forms: evaluation, Gram data, definiteness, and the
exhaustive represented-set enumeration with witnesses.

The enumeration is cross-checked against a brute-force cube scan whose
coordinate box comes from a floating-point eigenvalue bound, so the two
routes share no search logic, and against a one-slice-per-pass int64 scan
of the full box, the reference for the blocked int32 scan and its sign
rules: both must give the same members and the same least witnesses.
The membership-only sumset must give that slice scan's members too: the
keyed scan reads the sumset to know where it may stop, so neither of the
two engines is the other's reference.
"""

import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinor_ternary import forms_core
from spinor_ternary.cli_verify import main
from spinor_ternary.forms_core import (
    BLOCK_BYTES,
    BoundOverflowError,
    DefinitenessError,
    TernaryForm,
    discriminant,
    enumerate_represented,
    evaluate,
    is_positive_definite,
    represented_mask,
)

small_int = st.integers(-9, 9)
coord = st.integers(-12, 12)

# reduced forms beyond the catalog's 81
EXTRA_FORMS = tuple(TernaryForm(*c) for c in (
    (1, 1, 1, 0, 0, 0), (1, 1, 2, 0, 0, 0), (2, 2, 2, 1, 1, 1), (2, 2, 2, -1, 1, -1),
    (3, 3, 3, 1, -1, 1), (1, 2, 2, 1, 0, 0), (2, 3, 3, 1, 2, -2),
))
SCAN_BOUNDS = (1, 2, 3, 48, 121, 1000, 5000)
PAST_A_BLOCK_AND_INT32 = (
    # A1: one x slice holds more points than a block
    (TernaryForm(2, 2, 5, 2, 2, 0), 60000),
    # the box's bound on |F| is about 1.7e10, past int32
    (TernaryForm(1, 1, 2**28 + 1, 2**15, 0, 0), 16),
    # a coefficient past int32 on a box that is only x = 0
    (TernaryForm(2**40, 1, 1, 0, 0, 0), 10),
    # a cross coefficient past int32 on a box that is only y = 0
    (TernaryForm(1, 2**61, 1, 2**31 + 1, 0, 0), 10),
)
# more classes of w mod 2a than one pass of the sumset holds (2a = 18)
MANY_CLASSES = TernaryForm(9, 10, 11, 1, 1, 1)
# (form, bound, error) that both scans refuse before allocating
GUARD_CASES = (
    (TernaryForm(1, 1, -1, 0, 0, 0), 10, DefinitenessError),
    (TernaryForm(1, 1, 1, 0, 0, 0), 0, ValueError),
    (TernaryForm(1, 1, 1, 0, 0, 0), 2**61, BoundOverflowError),
    (TernaryForm(2**70, 1, 1, 0, 0, 0), 10, BoundOverflowError),
)


def brute_least_vectors(form: TernaryForm, bound: int) -> dict[int, tuple[int, int, int]]:
    """The lexicographically least (x >= 0, y, z) giving each value of form
    up to bound, by scanning a cube |x_i| <= K, with K from
    F(v) >= lambda_min |v|^2."""
    mat = np.array(form.gram_doubled(), dtype=float) / 2.0
    lam = min(np.linalg.eigvalsh(mat))
    assert lam > 0
    k = math.isqrt(int(bound / lam)) + 1
    rng = np.arange(0, k + 1)  # x >= 0 suffices: F(-v) = F(v)
    full = np.arange(-k, k + 1)
    x, y, z = np.meshgrid(rng, full, full, indexing="ij")  # C order is lexicographic
    a, b, c, d, e, f = form.coeffs()
    vals = a * x * x + b * y * y + c * z * z + d * y * z + e * x * z + f * x * y
    least = {}
    for idx in np.flatnonzero((vals >= 1) & (vals <= bound)):
        least.setdefault(int(vals.flat[idx]), (int(x.flat[idx]), int(y.flat[idx]), int(z.flat[idx])))
    return least


def slice_scan_keys(form: TernaryForm, bound: int) -> np.ndarray:
    """enumerate_represented's key array, by one int64 numpy pass per x
    slice over the same box."""
    adj, det = form.gram_adjugate(), form.gram_det()
    x1, x2, x3 = (math.isqrt(2 * bound * adj[i][i] // det) for i in range(3))
    a, b, c, d, e, f = form.coeffs()
    key = np.full(bound + 1, np.iinfo(np.int64).max, dtype=np.int64)
    ys = np.arange(-x2, x2 + 1, dtype=np.int64)
    zs = np.arange(-x3, x3 + 1, dtype=np.int64)
    col = (b * ys * ys)[:, None] + d * ys[:, None] * zs[None, :] + (c * zs * zs)[None, :]
    for x in range(x1 + 1):
        vals = col + (a * x * x + (f * x) * ys)[:, None] + ((e * x) * zs)[None, :]
        flat = vals.ravel()
        pos = np.flatnonzero((flat >= 1) & (flat <= bound))
        np.minimum.at(key, flat[pos], x * flat.size + pos)
    return key


def slice_scan_least(form: TernaryForm, bound: int):
    """slice_scan_keys decoded with its own full box: the member mask and
    the least (x, y, z) of each member, as arrays."""
    key = slice_scan_keys(form, bound)
    adj, det = form.gram_adjugate(), form.gram_det()
    x2, x3 = (math.isqrt(2 * bound * adj[i][i] // det) for i in (1, 2))
    member = key != np.iinfo(np.int64).max
    nz = 2 * x3 + 1
    x, flat = np.divmod(key[member], (2 * x2 + 1) * nz)
    y, z = np.divmod(flat, nz)
    return member, (x, y - x2, z - x3)


def assert_matches_slice_scan(form: TernaryForm, bound: int):
    rs = enumerate_represented(form, bound)
    member, want = slice_scan_least(form, bound)
    assert np.array_equal(rs.member_mask(), member), form
    got = rs.witnesses(np.flatnonzero(member))
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), form


@st.composite
def reduced_forms(draw, zeros):
    """Reduced positive definite forms (a <= b <= c, |f|, |e| <= a,
    |d| <= b) with small coefficients; d, e, f are zero where zeros says."""
    a = draw(st.integers(1, 4))
    b = draw(st.integers(a, 5))
    c = draw(st.integers(b, 6))
    d, e, f = (
        0 if zero else draw(st.integers(-lim, lim).filter(bool))
        for zero, lim in zip(zeros, (b, a, a))
    )
    form = TernaryForm(a, b, c, d, e, f)
    assume(is_positive_definite(form))
    return form


class TestEvaluate:
    def test_known_values(self):
        assert evaluate(TernaryForm(3, 7, 7, 5, 3, 3), (1, 0, 0)) == 3
        assert evaluate(TernaryForm(4, 9, 9, 2, 4, 4), (1, 1, 0)) == 17
        assert evaluate(TernaryForm(9, 16, 48, 0, 0, 0), (1, 1, 0)) == 25

    @given(small_int, small_int, small_int, small_int, small_int, small_int,
           coord, coord, coord)
    def test_negation_symmetry(self, a, b, c, d, e, f, x, y, z):
        form = TernaryForm(a, b, c, d, e, f)
        assert evaluate(form, (-x, -y, -z)) == evaluate(form, (x, y, z))

    @given(small_int, small_int, small_int, small_int, small_int, small_int,
           coord, coord, coord)
    def test_matches_gram_matrix(self, a, b, c, d, e, f, x, y, z):
        form = TernaryForm(a, b, c, d, e, f)
        v = np.array([x, y, z])
        m = np.array(form.gram_doubled())
        assert v @ m @ v == 2 * evaluate(form, (x, y, z))


class TestGram:
    @given(small_int, small_int, small_int, small_int, small_int, small_int)
    def test_adjugate_identity(self, a, b, c, d, e, f):
        form = TernaryForm(a, b, c, d, e, f)
        m = np.array(form.gram_doubled(), dtype=object)
        adj = np.array(form.gram_adjugate(), dtype=object)
        det = form.gram_det()
        assert np.array_equal(m @ adj, det * np.eye(3, dtype=object))

    @given(*[st.integers(-10**6, 10**6)] * 6)
    def test_det_even(self, a, b, c, d, e, f):
        # det(M_F) = 8abc + 2(def - ad^2 - be^2 - cf^2), so discriminant is exact
        assert TernaryForm(a, b, c, d, e, f).gram_det() % 2 == 0

    @given(*[st.integers(-10**12, 10**12)] * 6)
    def test_det_matches_cofactor_expansion(self, a, b, c, d, e, f):
        form = TernaryForm(a, b, c, d, e, f)
        m = form.gram_doubled()
        want = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert form.gram_det() == want

    def test_gradient(self):
        form = TernaryForm(2, 2, 5, 2, 2, 0)
        # gradient of F at v is M_F v
        assert form.gradient((1, 0, 0)) == (4, 0, 2)
        assert form.gradient((0, 1, 1)) == (2, 6, 12)


class TestDefiniteness:
    def test_positive_definite(self):
        assert is_positive_definite(TernaryForm(2, 2, 5, 2, 2, 0))
        assert is_positive_definite(TernaryForm(1, 1, 1, 0, 0, 0))
        assert not is_positive_definite(TernaryForm(1, 1, -1, 0, 0, 0))
        assert not is_positive_definite(TernaryForm(1, 1, 1, 3, 0, 0))

    def test_discriminant_values(self):
        assert discriminant(TernaryForm(2, 2, 5, 2, 2, 0)) == 64
        assert discriminant(TernaryForm(1, 1, 1, 0, 0, 0)) == 4
        assert discriminant(TernaryForm(9, 16, 48, 0, 0, 0)) == 27648

    def test_discriminant_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            discriminant(TernaryForm(1, 1, -1, 0, 0, 0))


class TestEnumeration:
    def test_a1_members(self):
        rs = enumerate_represented(TernaryForm(2, 2, 5, 2, 2, 0), 30)
        assert 2 in rs
        assert 1 not in rs
        assert 25 not in rs

    def test_b11_members(self):
        rs = enumerate_represented(TernaryForm(9, 16, 48, 0, 0, 0), 100)
        assert 48 in rs
        for n in (2, 3, 5):
            assert n not in rs

    def test_witnesses_evaluate_back(self):
        form = TernaryForm(3, 7, 7, 5, 3, 3)
        rs = enumerate_represented(form, 400)
        hits = 0
        for n in np.flatnonzero(rs.member_mask()):
            w = rs.witness(int(n))
            assert evaluate(form, w) == n
            hits += 1
        assert hits == rs.member_mask()[1:].sum()

    def test_witness_none_outside(self):
        rs = enumerate_represented(TernaryForm(1, 1, 1, 0, 0, 0), 20)
        assert rs.witness(7) is None  # three squares miss 7
        assert 7 not in rs

    def test_member_mask_matches_contains(self):
        rs = enumerate_represented(TernaryForm(1, 4, 9, 4, 0, 0), 120)
        mask = rs.member_mask()
        assert not mask[0]
        assert not mask.flags.writeable  # callers share it without copying
        for n in range(1, 121):
            assert mask[n] == (n in rs)

    def test_bulk_witnesses_match_scalar(self, catalog):
        for rec in catalog.records:
            for form in rec.all_forms():
                rs = enumerate_represented(form, 500)
                ns = np.flatnonzero(rs.member_mask())
                x, y, z = rs.witnesses(ns)
                got = list(zip(x.tolist(), y.tolist(), z.tolist()))
                assert got == [tuple(rs.witness(int(n))) for n in ns], (rec.rid, form)

    @pytest.mark.parametrize("ns", ([7], [0], [21], [3, 7]))
    def test_bulk_witnesses_reject_non_members(self, ns):
        rs = enumerate_represented(TernaryForm(1, 1, 1, 0, 0, 0), 20)
        with pytest.raises(ValueError):
            rs.witnesses(np.array(ns))

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            enumerate_represented(TernaryForm(1, 1, -1, 0, 0, 0), 10)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            enumerate_represented(TernaryForm(1, 1, 1, 0, 0, 0), 0)

    def test_bound_overflow_guard(self):
        with pytest.raises(BoundOverflowError):
            enumerate_represented(TernaryForm(1, 1, 1, 0, 0, 0), 2**61)
        # numpy holds each coefficient, even where its coordinate is only 0
        with pytest.raises(BoundOverflowError):
            enumerate_represented(TernaryForm(2**70, 1, 1, 0, 0, 0), 10)

    def test_large_coefficients_small_box(self):
        # 2*bound*adj(M_F)_ii passes 2^62, but the box is 2x3x3 and no value
        # numpy sees is above 3 * 2^20
        rs = enumerate_represented(TernaryForm(2**20, 2**20, 2**20, 0, 0, 0), 2**20)
        assert np.flatnonzero(rs.member_mask()).tolist() == [2**20]
        assert rs.witness(2**20) == (0, -1, 0)

    def test_matches_brute_force_on_catalog_forms(self, catalog):
        bound = 200
        for rec in catalog.records:
            for form in rec.all_forms():
                rs = enumerate_represented(form, bound)
                assert not rs.member_mask()[0]
                least = brute_least_vectors(form, bound)
                want = np.zeros(bound + 1, dtype=bool)
                want[list(least)] = True
                assert np.array_equal(rs.member_mask(), want), (rec.rid, form)
                assert {n: tuple(rs.witness(n)) for n in least} == least, (rec.rid, form)

    @pytest.mark.parametrize("zeros", [
        (d, e, f) for d in (True, False) for e in (True, False) for f in (True, False)
    ], ids=lambda zeros: ",".join(f"{v}{'=' if z else '!='}0" for v, z in zip("def", zeros)))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), bound=st.integers(1, 60))
    def test_sign_rules_match_brute_force(self, zeros, data, bound):
        # every zero pattern of (d, e, f) takes the y rule, the z rule, both
        # or neither; the cube scan has no rules
        form = data.draw(reduced_forms(zeros))
        rs = enumerate_represented(form, bound)
        least = brute_least_vectors(form, bound)
        assert np.flatnonzero(rs.member_mask()).tolist() == sorted(least)
        assert {n: tuple(rs.witness(n)) for n in least} == least
        assert np.flatnonzero(represented_mask(form, bound)).tolist() == sorted(least)

    @pytest.mark.parametrize("bound", SCAN_BOUNDS)
    def test_keys_match_slice_scan_on_catalog_forms(self, catalog, bound):
        for rec in catalog.records:
            for form in rec.all_forms():
                assert_matches_slice_scan(form, bound)

    @pytest.mark.parametrize("form, bound", PAST_A_BLOCK_AND_INT32)
    def test_keys_match_slice_scan_past_a_block_and_int32(self, form, bound):
        assert_matches_slice_scan(form, bound)

    def test_large_coefficient_members(self):
        rs = enumerate_represented(TernaryForm(2**40, 1, 1, 0, 0, 0), 10)
        assert np.flatnonzero(rs.member_mask()).tolist() == [1, 2, 4, 5, 8, 9, 10]


def assert_mask_matches_keyed_scan(form: TernaryForm, bound: int):
    """represented_mask against the slice scan's members, not against
    enumerate_represented, which reads the sumset."""
    mask = represented_mask(form, bound)
    assert mask.dtype == bool and mask.shape == (bound + 1,)
    assert not mask.flags.writeable  # callers share it without copying
    assert np.array_equal(mask, slice_scan_least(form, bound)[0]), (form, bound)


def isolation(form: TernaryForm, bound: int):
    """represented_mask's choice for form to bound: (coefficients with the
    isolated variable first, the (y, z) box of the other two, class step,
    classes)."""
    return forms_core._isolated(form, bound, forms_core._scan_box(form, bound))


def isolated_variable(form: TernaryForm, bound: int) -> tuple[str, int]:
    """The variable that represented_mask isolates, and its class count,
    at a bound where every variable's box radius is at least 1."""
    coeffs, _, _, k = isolation(form, bound)
    for var, perm in zip("xyz", ((0, 1, 2, 3, 4, 5), (1, 0, 2, 4, 3, 5), (2, 1, 0, 5, 4, 3))):
        if coeffs == tuple(form.coeffs()[i] for i in perm):
            return var, k
    raise AssertionError(f"{coeffs} is no permutation of {form}")


class TestRepresentedMask:
    """represented_mask is a sumset of shifted binary-form values: the
    slice scan's members, whichever variable it isolates and however many
    classes of w mod 2a it holds at a time."""

    @pytest.mark.parametrize("bound", SCAN_BOUNDS)
    def test_matches_keyed_scan_on_catalog_and_extra_forms(self, catalog, bound):
        forms = [form for rec in catalog.records for form in rec.all_forms()]
        assert len(forms) == 81
        for form in forms + list(EXTRA_FORMS):
            assert_mask_matches_keyed_scan(form, bound)

    @pytest.mark.parametrize("form, bound", PAST_A_BLOCK_AND_INT32)
    def test_matches_keyed_scan_past_a_block_and_int32(self, form, bound):
        assert_mask_matches_keyed_scan(form, bound)

    @pytest.mark.parametrize("form, var", (
        (TernaryForm(2, 2, 5, 2, 2, 0), "x"),  # A1: x and y tie, x is first
        (TernaryForm(5, 8, 8, 0, 4, 4), "y"),  # A7's first form
        (TernaryForm(9, 9, 16, 8, 8, 2), "z"),  # A9's first form
    ))
    def test_each_isolated_variable(self, form, var):
        for bound in (121, 1000, 20000):
            assert isolated_variable(form, bound)[0] == var
            assert_mask_matches_keyed_scan(form, bound)

    def test_single_class(self):
        # e = f = 0: w = 0, so rep = {a x^2} + rep(b y^2 + c z^2 + d y z)
        form = TernaryForm(2, 3, 5, 3, 0, 0)
        for bound in SCAN_BOUNDS:
            if bound >= 48:
                assert isolated_variable(form, bound) == ("x", 1)
            assert_mask_matches_keyed_scan(form, bound)

    @pytest.mark.parametrize("bound", SCAN_BOUNDS + (20000,))
    def test_more_classes_than_one_pass(self, bound):
        if bound >= 48:
            assert isolated_variable(MANY_CLASSES, bound) == ("x", 18)
        assert_mask_matches_keyed_scan(MANY_CLASSES, bound)

    @pytest.mark.parametrize("bound", (48, 1000))
    def test_one_class_per_pass_on_catalog_forms(self, catalog, monkeypatch, bound):
        monkeypatch.setattr(forms_core, "_CLASS_ROWS", 1)
        for rec in catalog.records:
            for form in rec.all_forms():
                assert_mask_matches_keyed_scan(form, bound)
        assert_mask_matches_keyed_scan(MANY_CLASSES, bound)

    @pytest.mark.parametrize("bound, width", ((30, np.int32), (31, np.int64)))
    def test_each_side_of_the_int32_switch(self, monkeypatch, bound, width):
        # (y + 2^12 z)^2 + 2 x^2 + z^2 + x y + x z: y is isolated with two
        # classes, and the chunks' bound on every value passes 2^31 - 1
        # between the bounds 30 and 31
        form = TernaryForm(2, 1, 2**24 + 1, 2**13, 2**12 + 1, 1)
        widths = []
        chunks = forms_core._chunks

        def spy(b, c, d, box, dtype):
            widths.append(dtype)
            return chunks(b, c, d, box, dtype)

        monkeypatch.setattr(forms_core, "_chunks", spy)
        assert isolated_variable(form, bound) == ("y", 2)
        assert_mask_matches_keyed_scan(form, bound)
        assert widths == [width]

    def test_only_zero_reaches_the_bound(self):
        # every a_i is past the bound, so the isolated variable is 0 on the
        # box and its class count is 1, not 2a = 2^41
        form = TernaryForm(2**40, 2**40, 2**40, 1, 1, 1)
        assert isolation(form, 10)[3] == 1
        assert_mask_matches_keyed_scan(form, 10)
        assert_mask_matches_keyed_scan(TernaryForm(2**40, 1, 1, 0, 1, 1), 10)
        # x is isolated, with a (y, z) box of one point: d = 2^40 meets
        # only y = z = 0
        assert_mask_matches_keyed_scan(TernaryForm(100, 2**40, 2**40, 2**40, 0, 0), 10)

    def test_matches_keyed_scan_on_random_reduced_forms(self):
        rng = random.Random(20231)
        tried = 0
        while tried < 300:
            a = rng.randint(1, 12)
            b = rng.randint(a, a + 6)
            c = rng.randint(b, b + 6)
            form = TernaryForm(a, b, c, rng.randint(-b, b), rng.randint(-a, a), rng.randint(-a, a))
            if is_positive_definite(form):
                assert_mask_matches_keyed_scan(form, rng.choice((1, 17, 100, 700)))
                tried += 1

    @pytest.mark.parametrize("form, bound, error", GUARD_CASES)
    def test_same_guards_as_keyed_scan(self, form, bound, error):
        with pytest.raises(error) as keyed:
            enumerate_represented(form, bound)
        with pytest.raises(error) as got:
            represented_mask(form, bound)
        assert type(got.value) is type(keyed.value)
        assert str(got.value) == str(keyed.value)


class TestBlocks:
    """Chunks of y rows, a partial last chunk and whole-slab blocks of
    several x slices: the keys and members do not depend on them.  Both
    engines walk the one cut of _chunks, so each is held to the slice
    scan, which cuts nothing."""

    @pytest.mark.parametrize("points, bound", ((1, 48), (7, 121), (64, 1000), (4096, 1000)))
    def test_every_chunk_shape_matches_slice_scan(self, catalog, monkeypatch, points, bound):
        # 1: one row of nz > 1 points per block; 7 and 64: chunks of a few
        # rows, the last one shorter; 4096: several whole x slices per block
        monkeypatch.setattr(forms_core, "_BLOCK_POINTS", points)
        for rec in catalog.records:
            for form in rec.all_forms():
                assert_matches_slice_scan(form, bound)
                assert_mask_matches_keyed_scan(form, bound)


A1 = TernaryForm(2, 2, 5, 2, 2, 0)


def edit_sumset(monkeypatch, ns, value):
    """Make the keyed scan read represented_mask with mask[ns] = value."""

    def edited(form, bound):
        mask = represented_mask(form, bound).copy()
        mask[ns] = value
        return mask

    monkeypatch.setattr(forms_core, "represented_mask", edited)


def spy_solve(monkeypatch) -> list:
    """The (first x, members) that each call of the keyed scan's solve
    is given, in a list that grows as the calls come."""
    calls = []
    solve = forms_core._solve

    def spy(coeffs, slab, key, ns, xs):
        calls.append((xs.start, ns.copy()))
        solve(coeffs, slab, key, ns, xs)

    monkeypatch.setattr(forms_core, "_solve", spy)
    return calls


class TestSumsetStop:
    """On a box of several blocks, the keyed scan's blocks run in
    ascending key, and after each it counts the sumset's members left
    without a key.  After the first block that leaves fewer than nz, it
    scans no more and solves for each of them from the next x slice, and
    its members must then be the sumset's.  A1 at 20000 has a 213 x 141
    slab, one chunk, two x slices a block and 54 blocks; 4 blocks leave 94
    members, whose least witnesses reach x = 32, in block 17."""

    BOUND = 20000
    # _BLOCK_POINTS, or None for the module's own
    POINTS = None
    STEP = 2
    BLOCKS = 4

    @pytest.fixture(autouse=True)
    def block_points(self, monkeypatch):
        if self.POINTS is not None:
            monkeypatch.setattr(forms_core, "_BLOCK_POINTS", self.POINTS)

    def least_x(self):
        """A1's members to BOUND, the x of each least witness, the x slices
        per block of the keyed scan, and the slab's nz."""
        member, (x, _, _) = slice_scan_least(A1, self.BOUND)
        ny, nz = enumerate_represented(A1, self.BOUND)._box[2:]
        step = max(1, forms_core._BLOCK_POINTS // (ny * nz))
        assert (step, nz, x.max()) == (self.STEP, 141, 32)
        return np.flatnonzero(member), x, step, nz

    def test_keys_match_slice_scan(self, monkeypatch):
        bounds = []

        def counted(form, bound):
            bounds.append(bound)
            return represented_mask(form, bound)

        monkeypatch.setattr(forms_core, "represented_mask", counted)
        assert_matches_slice_scan(A1, self.BOUND)
        assert bounds == [self.BOUND]

    def test_solves_after_the_first_block_that_leaves_fewer_than_nz(self, monkeypatch):
        ns, x, step, nz = self.least_x()
        calls = spy_solve(monkeypatch)
        assert_matches_slice_scan(A1, self.BOUND)
        blocks = next(k for k in itertools.count(1) if np.count_nonzero(x >= k * step) < nz)
        assert blocks == self.BLOCKS
        [(start, targets)] = calls
        # the solve is given exactly the members the scanned blocks leave
        assert start == blocks * step
        assert np.array_equal(targets, ns[x >= start])
        assert targets.size == 94

    def test_solves_only_the_sumset_members(self, monkeypatch):
        # drop from the sumset every member whose least witness lies past
        # the blocks scanned: the solve is given none of them, so none gets
        # a key, and the two engines agree without them
        ns, x, step, _ = self.least_x()
        tail = ns[x >= self.BLOCKS * step]
        edit_sumset(monkeypatch, tail, False)
        calls = spy_solve(monkeypatch)
        member = enumerate_represented(A1, self.BOUND).member_mask()
        assert not any(np.isin(targets, tail).any() for _, targets in calls)
        assert not member[tail].any()
        assert member.sum() == ns.size - tail.size

    @pytest.mark.parametrize("edit", (
        "add a non-member", "add the largest non-member",
        "drop a member keyed in block 1", "drop a member keyed in the last block scanned",
    ))
    def test_disagreement_raises_and_exits_2(self, monkeypatch, capsys, edit):
        # an added non-member is left without a key by every block, so the
        # solve looks for it up to x1 in vain; a dropped member keyed by a
        # scanned block has a key the sumset lacks
        ns, x, step, _ = self.least_x()
        if edit.startswith("add"):
            n = np.setdiff1d(np.arange(1, self.BOUND + 1), ns)[-1 if "largest" in edit else 0]
        else:
            block = 0 if "block 1" in edit else self.BLOCKS - 1
            n = ns[x // step == block][0]
        edit_sumset(monkeypatch, int(n), edit.startswith("add"))
        calls = spy_solve(monkeypatch)
        message = f"the keyed scan and the sumset of {A1} to {self.BOUND} give different members"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            enumerate_represented(A1, self.BOUND)
        [(start, targets)] = calls
        assert start == self.BLOCKS * step
        assert (n in targets) == edit.startswith("add")
        assert main(["report", "A1", "--bound", str(self.BOUND)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: RuntimeError: {message}\n")


class TestSumsetStopOnChunks(TestSumsetStop):
    """The same stop on a slab of several chunks: at 4096 points a chunk,
    A1's slab is cut into eight chunks of 27 y rows (24 in the last), each
    block is one x slice over all of them, and 8 blocks leave 94 members;
    the solve cuts its (n, y) pairs into blocks of 4096 too."""

    POINTS = 4096
    STEP = 1
    BLOCKS = 8


class TestSolve:
    """The keyed scan's solve gives the slice scan's keys wherever it
    engages, and stays off where float64 cannot hold its discriminants."""

    def test_engages_on_every_catalog_form(self, catalog, monkeypatch):
        # every catalog form takes the stop path by 100000, and is given
        # members at one of these bounds; its keys are checked at the
        # first such (15 forms at 5000, the last, A11's first, at 100000)
        calls = spy_solve(monkeypatch)
        for rec in catalog.records:
            for form in rec.all_forms():
                for bound in (5000, 10000, 20000, 50000, 100000):
                    calls.clear()
                    enumerate_represented(form, bound)
                    if calls:
                        break
                assert calls, form
                assert_matches_slice_scan(form, bound)

    def test_skewed_form_past_2_52_keeps_scanning(self, monkeypatch):
        # the box's bound on a discriminant passes 2^52, so the scan runs
        # to its stop although fewer than nz members are left after x = 0
        form, bound = PAST_A_BLOCK_AND_INT32[1]
        x1, x2, _, worst = forms_core._scan_box(form, bound)
        a, b, c, d, e, f = form.coeffs()
        assert (abs(d) * x2 + abs(e) * x1) ** 2 + 4 * c * (worst + bound) >= 2**52
        nz = enumerate_represented(form, bound)._box[3]
        _, (x, _, _) = slice_scan_least(form, bound)
        assert 0 < np.count_nonzero(x >= 1) < nz
        calls = spy_solve(monkeypatch)
        assert_matches_slice_scan(form, bound)
        assert calls == []


class TestScanBytes:
    """The scan and the sumset hold at most one block besides their per-n
    arrays."""

    @pytest.mark.parametrize("form, bound", (
        # about 6 slab points per n, the widest reduced form
        (TernaryForm(1, 1, 1, 1, 1, 1), 20000),
        *PAST_A_BLOCK_AND_INT32[:2],
        # slabs of about 300 000 points: five chunks each
        (TernaryForm(2, 2, 5, 2, 2, 0), 200000),
        (TernaryForm(1, 1, 1, 1, 1, 1), 50000),
        # three passes of the sumset
        (MANY_CLASSES, 50000),
    ))
    @pytest.mark.parametrize("scan", (enumerate_represented, represented_mask))
    def test_bounds_the_traced_peak(self, form, bound, scan):
        # everything the scan allocates beyond its per-n arrays: the int64
        # key and bool member mask, or the bool mask and the sumset's rows
        # of at most 8 classes
        if scan is enumerate_represented:
            per_n = 9 * (bound + 1)
        else:
            per_n = (1 + min(isolation(form, bound)[3], 8)) * (bound + 1)
        tracemalloc.start()
        try:
            scan(form, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - per_n <= BLOCK_BYTES
