"""The M_t semigroups, squareclass specs, the general spinor-exceptional
criterion, and the three-way classifier built on top of it."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mt_congruence import congruence_Mt

from spinor_ternary.arith import hilbert, is_padic_square, normgroup_is_closed, ord_p
from spinor_ternary.catalog import _ODD_CUTOFFS, LocalData
from spinor_ternary.forms_core import TernaryForm, enumerate_represented, represented_mask
from spinor_ternary.local_solver import elementary_orders
from spinor_ternary.spinor_theory import (
    EXCEPTIONAL,
    LOCALLY_EXCLUDED,
    REPRESENTED,
    _ramified_clause,
    classify,
    in_Mt,
    spinor_exceptional_general,
    squareclass_match,
)

T_VALUES = (1, 2, 3, 7)


class TestMt:
    def test_members(self):
        assert in_Mt(1, 65)    # 5 * 13
        assert in_Mt(7, 2)
        assert in_Mt(3, 7)
        assert in_Mt(1, 1)

    def test_non_members(self):
        assert not in_Mt(3, 5)
        assert not in_Mt(1, 2)
        assert not in_Mt(2, 2)
        assert not in_Mt(3, 2)

    def test_congruence_route(self):
        assert congruence_Mt(2, 3)
        assert congruence_Mt(1, 13)
        assert congruence_Mt(7, 11)
        assert not congruence_Mt(1, 3)

    def test_routes_agree_small(self):
        for t in T_VALUES:
            for w in range(1, 2000):
                assert in_Mt(t, w) == congruence_Mt(t, w), (t, w)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            in_Mt(1, 0)
        with pytest.raises(ValueError):
            congruence_Mt(5, 3)  # no table for t=5

    @given(st.sampled_from(T_VALUES), st.integers(1, 5000), st.integers(1, 5000))
    def test_semigroup_closure(self, t, w1, w2):
        if in_Mt(t, w1) and in_Mt(t, w2):
            assert in_Mt(t, w1 * w2)

    def test_square_scale_invariance(self):
        # M_t depends on t only through its squarefree kernel
        for t in T_VALUES:
            for s in (2, 3, 5):
                for w in range(1, 300):
                    assert in_Mt(t, w) == in_Mt(s * s * t, w)

    def test_two_in_M7_only(self):
        assert in_Mt(7, 2)
        assert not in_Mt(1, 2) and not in_Mt(2, 2) and not in_Mt(3, 2)


class TestSquareclassSpec:
    def test_membership(self):
        assert squareclass_match(((1, 2),), 9) == (1, 2)  # 3^2, 3 in M_2
        assert squareclass_match(((4, 1),), 4) == (4, 1)
        assert squareclass_match(((4, 1),), 1) is None
        assert squareclass_match(((3, 3),), 3) == (3, 3)

    def test_match_picks_first_entry(self):
        spec = ((1, 1), (4, 1))
        assert squareclass_match(spec, 4) == (4, 1)    # 2 not in M_1
        assert squareclass_match(spec, 25) == (1, 1)
        assert squareclass_match(spec, 196) is None    # 7 not in M_1

    def test_scale_must_divide(self):
        assert squareclass_match(((4, 3),), 9) is None


class TestNormGroupClosure:
    def test_closed_groups(self):
        assert normgroup_is_closed(2, (1, 3, 5, 7))
        assert normgroup_is_closed(2, (1, 2, 5, 10))
        assert normgroup_is_closed(2, (1, 3))
        assert normgroup_is_closed(3, (1, 3))
        assert normgroup_is_closed(7, (1, 7))

    def test_not_closed(self):
        assert not normgroup_is_closed(2, (1, 3, 5))   # 3*5 = 7 missing
        assert not normgroup_is_closed(2, (3, 5))      # no identity

    def test_duplicate_squareclasses_rejected(self):
        assert not normgroup_is_closed(2, (1, 9))      # 9 is a square


class TestOddBound:
    @staticmethod
    def cutoff(exps):
        # the diagonal form <3^e1> + <3^e2> + <3^e3>, whose Jordan exponents
        # at 3 are exps; load keys the cutoff by them
        form = TernaryForm(*(3**e for e in exps), 0, 0, 0)
        return _ODD_CUTOFFS.get(tuple(elementary_orders(form, 3)))

    def test_exponent_shapes(self):
        assert self.cutoff((0, 1, 2)) == 1
        assert self.cutoff((0, 2, 3)) == 1
        assert self.cutoff((0, 1, 3)) == 2
        assert self.cutoff((0, 0, 1)) is None

    def test_clause_reads_the_cutoff(self, catalog):
        # n = 9 has order 2 at 3: past B1's cutoff of 1, within 2, and a
        # record with no cutoff there raises
        rec = catalog.lookup("B1")
        theta = rec.local_data[3].theta
        assert rec.local_data[3] == LocalData(theta, 1)
        assert not _ramified_clause(rec, 9)
        assert _ramified_clause(replace(rec, local_data={**rec.local_data, 3: LocalData(theta, 2)}), 9)
        with pytest.raises(ValueError, match="^no order cutoff recorded for B1 at p=3$"):
            _ramified_clause(replace(rec, local_data={**rec.local_data, 3: LocalData(theta)}), 9)


class TestGeneralCriterion:
    def test_desk_verdicts(self, catalog):
        assert spinor_exceptional_general(catalog.lookup("A1"), 25)
        assert spinor_exceptional_general(catalog.lookup("A2"), 2)
        assert not spinor_exceptional_general(catalog.lookup("A1"), 3)
        assert not spinor_exceptional_general(catalog.lookup("A1"), 2)

    def test_rejects_nonpositive(self, catalog):
        with pytest.raises(ValueError):
            spinor_exceptional_general(catalog.lookup("A1"), 0)

    def test_matches_spec_at_desk_scale(self, catalog):
        # the closed-form squareclasses and the prime-by-prime criterion
        # describe the same integers
        for rid in ("A4", "B3", "C2"):
            rec = catalog.lookup(rid)
            for n in range(1, 600):
                assert spinor_exceptional_general(rec, n) == (
                    squareclass_match(rec.exceptional_spec, n) is not None
                ), (rid, n)

    def test_ramified_clause_matches_hilbert_symbols(self, catalog):
        # the clause reads -n*delta's key once per ramified prime; asked
        # through hilbert and is_padic_square instead, as its docstring
        # states it, it must give the same verdicts and the same raises
        def reference(rec, n):
            nd = n * rec.delta
            for p in rec.ramified_primes():
                data = rec.local_data[p]
                if any(hilbert(p, gen, -nd) != 1 for gen in data.theta):
                    return False
                if is_padic_square(p, -nd):
                    continue
                if data.cutoff is None:
                    return None
                if ord_p(p, n) > data.cutoff:
                    return False
            return True

        for rec in catalog.records:
            for n in range(1, 800):
                want = reference(rec, n)
                if want is None:
                    with pytest.raises(ValueError, match="no order cutoff"):
                        _ramified_clause(rec, n)
                else:
                    assert _ramified_clause(rec, n) == want, (rec.rid, n)


class TestSpinorRegular:
    @pytest.mark.parametrize("rid", ("B4", "B11"))
    def test_first_form_takes_every_value_of_the_second(self, catalog, rid):
        # the first sgi form is spinor regular: it represents every n that
        # another class of its spinor genus represents
        rec = catalog.lookup(rid)
        assert len(rec.sgi_forms) == 2
        first, second = (represented_mask(f, 50000) for f in rec.sgi_forms)
        assert not (second & ~first).any()


class TestClassify:
    def test_three_verdicts(self, catalog):
        rec = catalog.lookup("B4")
        rs = enumerate_represented(rec.sgi_forms[0], 50)
        out = classify(rec, 2, rs)
        assert out.verdict == LOCALLY_EXCLUDED and out.failing_prime == 2
        out = classify(rec, 1, rs)
        assert out.verdict == EXCEPTIONAL and out.matched == (1, 3)
        out = classify(rec, 3, rs)
        assert out.verdict == REPRESENTED
        assert out.witness is not None

    def test_bound_too_small(self, catalog):
        rec = catalog.lookup("B4")
        rs = enumerate_represented(rec.sgi_forms[0], 10)
        with pytest.raises(ValueError):
            classify(rec, 11, rs)

    def test_partition_is_total(self, catalog):
        rec = catalog.lookup("A8")
        rs = enumerate_represented(rec.sgi_forms[0], 200)
        seen = {REPRESENTED: 0, EXCEPTIONAL: 0, LOCALLY_EXCLUDED: 0}
        for n in range(1, 201):
            seen[classify(rec, n, rs).verdict] += 1
        assert sum(seen.values()) == 200
        assert seen[EXCEPTIONAL] > 0
