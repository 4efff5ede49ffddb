"""Z_p representability: certified single-n decisions, bulk tables, the
congruence shortcuts for the three special local structures, and genus
membership assembled from them."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinor_ternary import load_default_catalog
from spinor_ternary.arith import ord_p
from spinor_ternary.catalog import LocalSplitting
from spinor_ternary.forms_core import TernaryForm, evaluate, is_positive_definite, represented_mask
from spinor_ternary.local_solver import (
    _class_tree,
    elementary_orders,
    genus_mask,
    genus_represents,
    lemma71_excluded,
    lemma72_excluded,
    lemma73_excluded,
    local_mask,
    local_represents,
    locally_represented,
    unramified_shortcut,
    verify_certificate,
)

B4 = TernaryForm(3, 7, 7, 5, 3, 3)
B11 = TernaryForm(9, 16, 48, 0, 0, 0)
A1 = TernaryForm(2, 2, 5, 2, 2, 0)

SAMPLE_IDS = ("A1", "A12", "B2", "B4", "B11", "C1", "C4")

RAMIFIED = [
    (rec.sgi_forms[0], p)
    for rec in load_default_catalog().records
    for p in rec.ramified_primes()
]


def unpruned_class_tree(form: TernaryForm, p: int):
    """The class tree before pruning, as a reference: every undecided class
    is split down to its level, and the levels are written deepest first,
    so a shallower one overwrites."""
    m = form.gram_doubled()
    e3 = elementary_orders(form, p)[2]
    r = np.arange(p, dtype=np.int64)
    offs = [a.ravel() for a in np.meshgrid(r, r, r, indexing="ij")]
    v = [a[1:] for a in offs]
    levels = []
    d = 1
    while v[0].size:
        if d > e3 + 1:
            raise AssertionError(f"class splitting past elementary divisor bound at {form}, p={p}")
        grad = [m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3)]
        decided = (grad[0] % p**d != 0) | (grad[1] % p**d != 0) | (grad[2] % p**d != 0)
        rows = np.flatnonzero(decided)
        if rows.size:
            mod = p ** (2 * d - 1)
            res = (v[0][rows] * grad[0][rows] + v[1][rows] * grad[1][rows]
                   + v[2][rows] * grad[2][rows]) // 2 % mod
            first = np.full(mod, rows.size)
            np.minimum.at(first, res, np.arange(rows.size))
            vals = np.flatnonzero(first < rows.size)
            keep = rows[first[vals]]
            levels.append((d, np.stack([a[keep] for a in v], axis=1), vals))
        v = [a[~decided] for a in v]
        if v[0].size:
            v = [(a[:, None] + p**d * o[None, :]).ravel() for a, o in zip(v, offs)]
        d += 1
    j = 2 * e3 + 1
    rows = np.concatenate([vecs for _d, vecs, _vals in levels])
    depth = np.concatenate([np.full(vals.size, d) for d, _v, vals in levels])
    first = np.full(p**j, -1, dtype=np.min_scalar_type(-len(rows)))
    top = len(rows)
    for d, _v, vals in reversed(levels):
        mod = p ** (2 * d - 1)
        top -= vals.size
        first.reshape(p**j // mod, mod)[:, vals] = np.arange(top, top + vals.size)
    return j, first, rows, depth


def random_reduced_forms(count: int, seed: int):
    """(form, p) pairs: seeded reduced positive definite forms with small
    coefficients, p cycling through 2, 3, 5 and dividing det M_F."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = (2, 3, 5)[len(out) % 3]
        a = int(rng.integers(1, 7))
        b = int(rng.integers(a, 9))
        c = int(rng.integers(b, 11))
        d, e, f = (int(rng.integers(-lim, lim + 1)) for lim in (b, a, a))
        form = TernaryForm(a, b, c, d, e, f)
        if is_positive_definite(form) and form.gram_det() % p == 0:
            out.append((form, p))
    return out


class TestShortcut:
    def test_ramified_vs_not(self):
        assert unramified_shortcut(A1, 3)
        assert not unramified_shortcut(A1, 2)
        assert unramified_shortcut(B11, 7)
        assert not unramified_shortcut(B11, 3)

    def test_unramified_prime_represents_everything(self):
        for n in range(1, 60):
            v = local_represents(A1, 3, n)
            assert v.representable and v.grad_ord == 0
            assert verify_certificate(A1, v)


class TestCongruencePredicates:
    def test_lemma71(self):
        assert lemma71_excluded(2)
        assert lemma71_excluded(8)
        assert lemma71_excluded(24)
        assert not lemma71_excluded(16)
        assert not lemma71_excluded(1)
        assert not lemma71_excluded(4)

    def test_lemma72(self):
        for n in (5, 2, 3, 8, 12, 13, 28):
            assert lemma72_excluded(n), n
        for n in (1, 4, 9, 16, 17, 48):
            assert not lemma72_excluded(n), n

    def test_lemma73(self):
        assert lemma73_excluded(2)
        assert lemma73_excluded(6)
        assert lemma73_excluded(15)   # 6 mod 9 despite being 0 mod 3
        assert lemma73_excluded(54)   # 9 * 6
        assert lemma73_excluded(486)  # 81 * 6
        assert lemma73_excluded(6 * 9**25) is True  # beyond int64
        assert not lemma73_excluded(3)
        assert not lemma73_excluded(9)
        assert not lemma73_excluded(12)
        assert not lemma73_excluded(30)

    def test_lemma73_matches_peeled_powers_of_nine(self):
        # the reference divides each 9^k out of n before reading m mod 9
        def peeled(n):
            m = n
            while np.any(nine := (m % 9 == 0) & (m != 0)):
                m = m // 9**nine
            return (n % 3 == 2) | (m % 9 == 6)

        n = np.arange(10**6 + 1)
        assert np.array_equal(lemma73_excluded(n), peeled(n))
        for k in range(31):
            for c in (1, 2, 3, 6, 7):
                for d in (-1, 0, 1):
                    got = lemma73_excluded(c * 9**k + d)
                    assert type(got) is bool and got == peeled(c * 9**k + d), (c, k, d)


class TestLocalRepresents:
    def test_desk_verdicts(self):
        assert not local_represents(B4, 2, 2).representable
        assert not local_represents(B11, 3, 6).representable
        v = local_represents(B11, 5, 7)
        assert v.representable and verify_certificate(B11, v)

    def test_tampered_certificates_rejected(self):
        v = local_represents(B11, 3, 48)
        assert (v.residue, v.precision, v.grad_ord) == ((0, 0, 1), 1, 1)
        assert verify_certificate(B11, v)
        for change in (
            {"representable": False},
            {"residue": (0, 0, 2)},  # F = 192, not 48 mod 27
            {"grad_ord": 0},  # the gradient (0, 0, 96) has order 1 at 3
            {"precision": 0},  # a gradient order of 1 needs precision >= 1
        ):
            assert not verify_certificate(B11, dataclasses.replace(v, **change)), change

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            local_represents(B4, 2, 0)
        with pytest.raises(ValueError):
            locally_represented(B4, 2, -3)

    @pytest.mark.parametrize("p", (1, 0, -3, 4, 6))
    def test_rejects_non_prime_p(self, p):
        with pytest.raises(ValueError, match="prime"):
            local_represents(B11, p, 12)
        with pytest.raises(ValueError, match="prime"):
            locally_represented(B11, p, 12)
        with pytest.raises(ValueError, match="prime"):
            local_mask(B11, p, 12)

    @pytest.mark.parametrize("n", (2**63, 2**64 + 1, 2**200))
    def test_beyond_int64(self, catalog, n):
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                v = local_represents(form, p, n)
                assert v.representable == locally_represented(form, p, n), (rec.rid, p)
                if v.representable:
                    assert verify_certificate(form, v), (rec.rid, p)

    @given(st.sampled_from(RAMIFIED), st.integers(1, 2**200), st.integers(0, 40))
    def test_any_size_routes_agree(self, form_p, u, k):
        form, p = form_p
        n = u * p**k
        v = local_represents(form, p, n)
        assert v.representable == locally_represented(form, p, n)
        if v.representable:
            assert verify_certificate(form, v)

    def test_certificates_hold_and_routes_agree(self, catalog):
        for rid in SAMPLE_IDS:
            rec = catalog.lookup(rid)
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                for n in range(1, 401):
                    v = local_represents(form, p, n)
                    assert v.representable == locally_represented(form, p, n)
                    if v.representable:
                        assert verify_certificate(form, v), (rid, p, n)
                        val = evaluate(form, v.residue)
                        assert (val - n) % p ** (2 * v.precision + 1) == 0

    def test_unramified_certificates_pinned(self, catalog):
        # sha256 of the verdicts at primes away from 2*delta, whose
        # certificates come from the unramified shortcut's square root mod p
        cases = [
            (rec.sgi_forms[0], p, n)
            for rec in catalog.records
            for p in (3, 5, 7, 11, 13, 1000003)
            if 2 * rec.delta % p
            for n in (1, 2, 5, 48, 10**12 + 3)
        ]
        assert len(cases) == 790
        assert all(locally_represented(*case) for case in cases)
        text = "\n".join(repr(local_represents(*case)) for case in cases)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f7eab8fb73c41f46ca9d828e9588c9dae94e38a53d41d0e6704b9299a6bfe93"
        )

    def test_scaling_by_p_squared(self, catalog):
        for rid in SAMPLE_IDS:
            rec = catalog.lookup(rid)
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                for n in range(1, 201):
                    if locally_represented(form, p, n):
                        assert locally_represented(form, p, p * p * n)

    def test_congruence_predicates_match_solver(self):
        for n in range(1, 1500):
            assert lemma71_excluded(n) == (not locally_represented(B4, 2, n))
            assert lemma72_excluded(n) == (not locally_represented(B11, 2, n))
            assert lemma73_excluded(n) == (not locally_represented(B4, 3, n))
            assert lemma73_excluded(n) == (not locally_represented(B11, 3, n))


class TestClassTree:
    def test_elementary_orders_of_diagonal_forms(self):
        # M_F = diag(2a, 2b, 2c): the orders are the diagonal's, sorted,
        # also where p divides every entry (no catalog form at odd p)
        for a, b, c in ((9, 16, 48), (27, 48, 144), (3, 3, 3), (1, 1, 1), (5, 25, 50)):
            for p in (2, 3, 5):
                want = sorted(ord_p(p, 2 * x) for x in (a, b, c))
                assert elementary_orders(TernaryForm(a, b, c, 0, 0, 0), p) == want, (a, b, c, p)
        with pytest.raises(ValueError, match="degenerate"):
            elementary_orders(TernaryForm(1, 1, 0, 0, 0, 0), 3)

    def test_one_decided_class_per_residue(self):
        rows = 0
        for form, p in RAMIFIED:
            a, b, c, d_, e, f = form.coeffs()
            mat = np.array(form.gram_doubled(), dtype=np.int64)
            _j, _first, vecs, depth = _class_tree(form, p)
            # rows come in level order
            assert (np.diff(depth) >= 0).all(), (form, p)
            for d in np.unique(depth):
                v = vecs[depth == d]
                mod = p ** (2 * int(d) - 1)
                x, y, z = v.T
                vals = (a * x * x + b * y * y + c * z * z + d_ * y * z + e * x * z + f * x * y) % mod
                # strictly increasing residues: one row per residue
                assert (np.diff(vals) > 0).all(), (form, p, d)
                # gradient order exactly d - 1
                grad = v @ mat
                assert (grad % p ** (d - 1) == 0).all(), (form, p, d)
                assert (grad % p**d != 0).any(axis=1).all(), (form, p, d)
                rows += vals.size
            # the table keeps no row that no residue reads
            assert np.array_equal(np.unique(_first[_first >= 0]), np.arange(len(vecs))), (form, p)
        assert rows == 753

    def test_first_level_wins(self):
        # first[m] is a row accepting m from the shallowest level that has
        # one, and -1 exactly when no row accepts m
        for form, p in RAMIFIED:
            j, first, vecs, depth = _class_tree(form, p)
            m = np.arange(p**j)
            a, b, c, d_, e, f = form.coeffs()
            x, y, z = vecs.T
            vals = a * x * x + b * y * y + c * z * z + d_ * y * z + e * x * z + f * x * y
            shallowest = np.full(m.size, np.iinfo(np.int64).max)
            for d in np.unique(depth):
                mod = p ** (2 * int(d) - 1)
                accepts = np.zeros(mod, dtype=bool)
                accepts[vals[depth == d] % mod] = True
                hit = accepts[m % mod]
                shallowest[hit] = np.minimum(shallowest[hit], d)
            got = first >= 0
            assert np.array_equal(got, shallowest < np.iinfo(np.int64).max), (form, p)
            i = first[got].astype(np.int64)
            assert np.array_equal(depth[i], shallowest[got]), (form, p)
            assert ((vals[i] - m[got]) % p ** (2 * depth[i] - 1) == 0).all(), (form, p)

    @pytest.mark.parametrize("pairs", ("catalog", "random"))
    def test_matches_unpruned_tree(self, catalog, pairs):
        # the pruned tree reads the same row at every residue as the tree
        # that splits every undecided class down to its level
        if pairs == "catalog":
            cases = [
                (form, p)
                for rec in catalog.records
                for form in rec.all_forms()
                for p in rec.ramified_primes()
            ]
            assert len(cases) == 124
        else:
            cases = random_reduced_forms(50, seed=19)
        for form, p in cases:
            j, first, rows, depth = _class_tree(form, p)
            want_j, want_first, want_rows, want_depth = unpruned_class_tree(form, p)
            assert j == want_j, (form, p)
            hit = first >= 0
            assert np.array_equal(hit, want_first >= 0), (form, p)
            assert np.array_equal(rows[first[hit]], want_rows[want_first[hit]]), (form, p)
            assert np.array_equal(depth[first[hit]], want_depth[want_first[hit]]), (form, p)
            assert np.array_equal(np.unique(first[hit]), np.arange(len(rows))), (form, p)

    def test_verdicts_pinned(self):
        # sha256 of the verdicts before the tree kept one class per residue:
        # every n to 200, large powers of p times a few units, and n past int64
        def queries(p):
            return [
                *range(1, 201),
                *(u * p**k for k in (7, 16, 33, 64) for u in (1, 2, 3, 5, 6, 7)),
                2**63 + 5,
                2**130 + 1,
            ]

        text = "\n".join(
            repr(local_represents(form, p, n)) for form, p in RAMIFIED for n in queries(p)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4181da710fec7d63995b0027577b91df99f2646d52d16ac67da89055a08fac72"
        )


class TestBulkMask:
    def test_matches_pointwise(self, catalog):
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                mask = local_mask(form, p, 400)
                assert not mask[0]
                for n in range(1, 401):
                    assert mask[n] == locally_represented(form, p, n), (rec.rid, p, n)

    def test_scaling_boundaries_match_pointwise(self, catalog):
        # bounds at 1 and on either side of p^2 and p^4, where one more
        # scaling p^(2j) starts to reach into the mask
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                want = [False] + [locally_represented(form, p, n) for n in range(1, p**4 + 2)]
                for bound in (1, p**2 - 1, p**2, p**2 + 1, p**4 - 1, p**4, p**4 + 1):
                    mask = local_mask(form, p, bound)
                    assert mask.tolist() == want[: bound + 1], (rec.rid, p, bound)

    def test_table_matches_brute_force(self, catalog):
        # independent of the class tree: every primitive v mod p^J, on the
        # (record, p) whose p^(3J) vectors are few enough to enumerate
        checked = []
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p in rec.ramified_primes():
                j, first, _rows, _depth = _class_tree(form, p)
                table = first >= 0
                mod = p**j
                if mod**3 > 2**21:
                    continue
                r = np.arange(mod, dtype=np.int64)
                x, y, z = (a.ravel() for a in np.meshgrid(r, r, r, indexing="ij"))
                prim = (x % p != 0) | (y % p != 0) | (z % p != 0)
                a, b, c, d, e, f = form.coeffs()
                vals = (a * x * x + b * y * y + c * z * z + d * y * z + e * x * z + f * x * y)[prim]
                want = np.zeros(mod, dtype=bool)
                want[vals % mod] = True
                assert np.array_equal(table, want), (rec.rid, p)
                checked.append((rec.rid, p))
        assert sorted(checked) == sorted(
            (rid, 2) for rid in ("C1", "B5", "B8", "C3", "B1", "B2", "B3", "B6", "B7", "C2")
        )

    def test_tiled_read_matches_indexed_read(self):
        # past two periods of every table (p^J = 2^19 at the deepest), the
        # tiled table reads the same bits as table[m mod p^J]
        assert len(RAMIFIED) == 45
        for form, p in RAMIFIED:
            j, first, _rows, _depth = _class_tree(form, p)
            table = first >= 0
            mod = p**j
            bound = 2 * mod + 1
            want = np.zeros(bound + 1, dtype=bool)
            k = 1
            while k <= bound:
                want[k::k] |= table[np.arange(1, bound // k + 1) % mod]
                k *= p * p
            assert np.array_equal(local_mask(form, p, bound), want), (form, p)

    @pytest.mark.parametrize("rid, p, size, bounds", (
        ("C1", 2, 8, (7, 8, 9, 19)),
        ("B3", 3, 2187, (2186, 2187, 2188, 4377)),
        # a table longer than any bound here: nothing is copied
        ("A12", 2, 524288, (1, 4377)),
    ))
    def test_table_length_boundaries_match_pointwise(self, catalog, rid, p, size, bounds):
        # one table length short of, at and past the bound, and past two
        # lengths: the tiling copies nothing, a whole table, or a part
        form = catalog.lookup(rid).sgi_forms[0]
        assert _class_tree(form, p)[1].size == size
        want = [False] + [locally_represented(form, p, n) for n in range(1, max(bounds) + 1)]
        for bound in bounds:
            assert local_mask(form, p, bound).tolist() == want[: bound + 1], (rid, p, bound)

    def test_unramified_mask_is_all_true(self):
        mask = local_mask(A1, 5, 50)
        assert not mask[0] and mask[1:].all()


class TestGenus:
    def test_desk_verdicts(self, catalog):
        assert not genus_represents(catalog.lookup("B4"), 2)
        assert genus_represents(catalog.lookup("B11"), 48)
        assert not genus_represents(catalog.lookup("A11"), 1)

    def test_mask_matches_pointwise(self, catalog):
        for rec in catalog.records:
            mask = genus_mask(rec, 300)
            assert not mask[0]
            for n in range(1, 301):
                assert mask[n] == genus_represents(rec, n)

    def test_mask_is_union_of_class_values(self, catalog):
        # a genus represents n exactly when one of its classes does, so the
        # local solver must agree with enumerating every sgi and sgii form
        bound = 10000
        forms = 0
        for rec in catalog.records:
            union = np.zeros(bound + 1, dtype=bool)
            for form in rec.all_forms():
                union |= represented_mask(form, bound)
                forms += 1
            mismatches = np.flatnonzero(union[1:] != genus_mask(rec, bound)[1:]) + 1
            assert mismatches.size == 0, (rec.rid, mismatches[:10])
        assert forms == 81

    def test_unit_square_keeps_genus_membership(self, catalog):
        # m prime to the ramified primes makes m^2 a p-adic unit square at
        # each of them, so r*m^2 is genus-represented exactly when r is:
        # route 3 reads the genus mask only at the ramified parts r
        bound = 50000
        for rec in catalog.records:
            mask = genus_mask(rec, bound)
            ram = rec.ramified_primes()
            parts = [1]
            for p in ram:
                parts = [r * p**k for r in parts for k in range(bound.bit_length()) if r * p**k <= bound]
            for r in parts:
                m = np.arange(1, math.isqrt(bound // r) + 1)
                m = m[np.gcd(m, math.prod(ram)) == 1]
                assert (mask[r * m * m] == mask[r]).all(), (rec.rid, r)


class TestSplittingForms:
    def test_hyperbolic_plane_form(self):
        form = TernaryForm(0, 0, 2, 0, 0, 2)  # 2xy + 2z^2
        assert form.gram_det() == -16
        # indefinite, but the 2-adic decision is still exact: the values
        # are 2*(xy + z^2), i.e. exactly the even part of Z_2
        for n in range(1, 40):
            assert locally_represented(form, 2, n) == (n % 2 == 0)

    def test_a_plane_form(self):
        form = TernaryForm(2, 2, 1, 0, 0, 2)  # 2(x^2 + xy + y^2) + z^2
        assert form.gram_det() == 24
        # 2(x^2+xy+y^2) + z^2 misses exactly 4^a(5+8l): the plane's values
        # are the 4^k-units plus zero, so odd targets need n - z^2 = 2*unit
        # or n a square, which kills only 5 mod 8, and 4 | n recurses
        for n in range(1, 120):
            m = n
            while m % 4 == 0:
                m //= 4
            assert locally_represented(form, 2, n) == (m % 8 != 5), n

    def test_dimension_and_exponents(self):
        s = LocalSplitting(3, ((1, 0), (2, 1), (1, 3)))
        assert s.exponents() == [0, 1, 3]
        assert s.to_form() == TernaryForm(1, 6, 27, 0, 0, 0)
        with pytest.raises(ValueError):
            LocalSplitting(3, ((1, 0),)).to_form()

    def test_degenerate_form_rejected(self):
        with pytest.raises(ValueError):
            locally_represented(TernaryForm(1, 1, 0, 0, 0, 2), 2, 4)
