"""Catalog parsing, validation, serialization, and the consistency of the
stored local data with the generic Z_p solver."""

import math
import re

import numpy as np
import pytest

from spinor_ternary.arith import ord_p
from spinor_ternary.catalog import (
    _ODD_CUTOFFS,
    CatalogError,
    dumps,
    load_catalog,
    load_default_catalog,
    loads,
    parse_int,
)
from spinor_ternary.forms_core import TernaryForm
from spinor_ternary.local_solver import local_mask

# (2^61 - 1)(2^89 - 1), both Mersenne primes
_SEMIPRIME = (2**61 - 1) * (2**89 - 1)


def doctored(catalog, old: str, new: str) -> str:
    """Default catalog text with one targeted edit."""
    text = dumps(catalog)
    assert old in text, f"edit target {old!r} not present"
    return text.replace(old, new, 1)


def odd_cross(form: TernaryForm) -> bool:
    """Whether d, e or f is odd, so that the Gram matrix is half-integral."""
    return any(x % 2 for x in form.coeffs()[3:])


def divisor_orders(form: TernaryForm, p: int) -> list[int]:
    """The p-orders of the elementary divisors of M_F, from the gcd of its
    entries, the gcd of its 2x2 minors (the adjugate's entries) and
    det(M_F): the tests' own copy of `local_solver.elementary_orders`."""
    g1 = ord_p(p, math.gcd(*(x for row in form.gram_doubled() for x in row)))
    g2 = ord_p(p, math.gcd(*(x for row in form.gram_adjugate() for x in row)))
    return [g1, g2 - g1, ord_p(p, form.gram_det()) - g2]


def exponent_mismatches(catalog) -> list[tuple[str, int, TernaryForm, list[int]]]:
    """Every (record, p, form, orders) where a form's elementary divisor
    orders at a ramified p differ from the first form's.  The forms of one
    genus are Z_p-isometric, so at every p they must agree."""
    out = []
    for rec in catalog.records:
        for p in rec.ramified_primes():
            want = divisor_orders(rec.sgi_forms[0], p)
            for form in rec.all_forms():
                if divisor_orders(form, p) != want:
                    out.append((rec.rid, p, form, divisor_orders(form, p)))
    return out


class TestShape:
    def test_record_count_and_groups(self, catalog):
        assert len(catalog.records) == 29
        ids = [rec.rid for rec in catalog.records]
        assert len(set(ids)) == 29
        by_group = {g: sum(1 for r in catalog.records if r.group == g) for g in "ABC"}
        assert by_group == {"A": 13, "B": 12, "C": 4}

    def test_a1_row(self, catalog):
        rec = catalog.lookup("A1")
        assert rec.delta == 64
        assert rec.sgi_forms == (TernaryForm(2, 2, 5, 2, 2, 0),)
        assert rec.sgii_forms == (TernaryForm(1, 1, 16, 0, 0, 0),)
        assert rec.ramified_primes() == (2,)
        data = rec.local_data[2]
        assert data.cutoff == 1
        assert data.theta == (1, 2, 5, 10)

    def test_a12_class_counts(self, catalog):
        rec = catalog.lookup("A12")
        assert len(rec.sgi_forms) == 1
        assert len(rec.sgii_forms) == 3

    def test_spinor_regular_forms_come_first(self, catalog):
        assert catalog.lookup("B4").sgi_forms[0] == TernaryForm(3, 7, 7, 5, 3, 3)
        assert catalog.lookup("B11").sgi_forms[0] == TernaryForm(9, 16, 48, 0, 0, 0)

    def test_c4_spec(self, catalog):
        assert catalog.lookup("C4").exceptional_spec == ((4, 7),)

    def test_scaled_flags(self, catalog):
        # the records whose forms have an odd cross coefficient, so a
        # half-integral Gram matrix
        scaled = {rec.rid for rec in catalog.records if odd_cross(rec.sgi_forms[0])}
        assert scaled == {"B1", "B2", "B3", "B4", "C1", "C2"}

    def test_lambda_presence_by_group(self, catalog):
        for rec in catalog.records:
            lam = rec.local_data[2].cutoff
            if rec.group in ("A", "B"):
                assert lam is not None and lam >= 1, rec.rid
            else:
                assert lam is None, rec.rid

    def test_odd_primes_have_order_bounds(self, catalog):
        for rec in catalog.records:
            for p in rec.ramified_primes():
                if p != 2:
                    assert rec.local_data[p].cutoff is not None, (rec.rid, p)


class TestLookup:
    def test_found(self, catalog):
        assert catalog.lookup("B11").sgi_forms[0] == TernaryForm(9, 16, 48, 0, 0, 0)

    def test_unknown_id(self, catalog):
        with pytest.raises(CatalogError, match="Z9"):
            catalog.lookup("Z9")


class TestRoundTrip:
    def test_dumps_loads_identity(self, catalog):
        again = loads(dumps(catalog))
        assert again == catalog
        assert dumps(again) == dumps(catalog)

    def test_load_catalog_from_path(self, catalog, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(dumps(catalog))
        assert load_catalog(path) == catalog

    def test_default_catalog_built_once_per_process(self):
        assert load_default_catalog() is load_default_catalog()


class TestParsing:
    def test_truncated_stream(self, catalog):
        text = dumps(catalog)
        with pytest.raises(CatalogError):
            loads(text[: len(text) // 2])

    def test_missing_version(self):
        with pytest.raises(CatalogError, match="version"):
            loads("id A1\nsgi 2,2,5,2,2,0\n")

    def test_bad_version(self):
        with pytest.raises(CatalogError, match="version"):
            loads("version 2\n")

    def test_bad_form_arity(self, catalog):
        with pytest.raises(CatalogError, match="6 coefficients"):
            loads(doctored(catalog, "sgi 2,2,5,2,2,0", "sgi 2,2,5,2,2"))

    def test_bad_squareclass_token(self, catalog):
        with pytest.raises(CatalogError, match="squareclass token"):
            loads(doctored(catalog, "exceptional M1\n", "exceptional Q1\n"))

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("local 2 theta", "local x theta", r"record A1: bad prime 'x'"),
            (" lambda=1\n", " lambda=one\n", r"record A1: bad lambda 'one'"),
            ("theta={1,2,5,10}", "theta={1,2,5,1O}", r"record A1: bad theta '1O'"),
            # only an optional '-' and ASCII digits: int() alone takes each of these
            (" lambda=1\n", " lambda=1_0\n", r"record A1: bad lambda '1_0'"),
            ("theta={1,2,5,10}", "theta={1,2,5,+10}", r"record A1: bad theta '\+10'"),
            ("local 2 theta", "local \u0662 theta", "record A1: bad prime '\u0662'"),
            ("sgi 2,2,5,2,2,0", "sgi 2,2,5,2,2, 0",
             re.escape("record A1: invalid literal for int() with base 10: ' 0'")),
            ("exceptional M1\n", "exceptional \u0663M1\n", "record A1: bad squareclass token '\u0663M1'"),
        ],
    )
    def test_bad_integer_names_record(self, catalog, old, new, match):
        with pytest.raises(CatalogError, match=match):
            loads(doctored(catalog, old, new))


class TestParseInt:
    """Every integer the program reads, from the catalog or the command
    line, is an optional '-' and ASCII digits."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("-7", -7), ("007", 7), ("9223372036854775813", 2**63 + 5)])
    def test_reads(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("text", ["", "-", "--5", "+5", " 5", "5 ", "5\n", "1_0", "\u0663", "1e3", "0x10", "5.0"])
    def test_refuses_what_int_alone_may_take(self, text):
        message = f"invalid literal for int() with base 10: {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_int(text)


class TestValidation:
    def test_wrong_delta(self, catalog):
        # delta is the first form's, so a later form of another
        # discriminant is the one refused
        message = "record A1: (1,1,17,0,0,0) has discriminant 68, expected 64"
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            loads(doctored(catalog, "sgii 1,1,16,0,0,0", "sgii 1,1,17,0,0,0"))

    def test_wrong_coefficient(self, catalog):
        with pytest.raises(CatalogError, match="discriminant"):
            loads(doctored(catalog, "sgi 2,2,5,2,2,0", "sgi 2,2,7,2,2,0"))

    def test_missing_record(self, catalog):
        text = dumps(catalog)
        start = text.index("id B7")
        end = text.index("\n\n", start)
        with pytest.raises(CatalogError, match="29"):
            loads(text[:start] + text[end + 2 :])

    def test_duplicate_id(self, catalog):
        with pytest.raises(CatalogError, match="duplicate"):
            loads(doctored(catalog, "id B7", "id B6"))

    def test_theta_without_identity(self, catalog):
        with pytest.raises(CatalogError, match="theta"):
            loads(doctored(catalog, "theta={1,2,5,10}", "theta={2,5,10}"))

    def test_lambda_required_in_group_a(self, catalog):
        with pytest.raises(CatalogError, match="lambda"):
            loads(doctored(catalog, " lambda=1\n", "\n"))

    def test_unknown_subcase(self, catalog):
        # subcase is no key of a local line, so any label is an unknown token
        with pytest.raises(CatalogError, match=r"unknown token 'subcase=\(z\)\(ix\)'"):
            loads(doctored(catalog, " lambda=1\n", " lambda=1 subcase=(z)(ix)\n"))


class TestRejectedText:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("sgi 2,2,5,2,2,0", "sgi 2,2,5,2,2,x",
             "record A1: invalid literal for int() with base 10: 'x'"),
            ("local 2 theta={1,2,5,10} lambda=1", "local", "record A1: empty local line"),
            ("theta={1,2,5,10}", "theta=1,2,5,10",
             "record A1: theta wants {..}, got '1,2,5,10'"),
            (" theta={1,2,5,10}", "", "record A1: local line needs theta="),
            ("local 3 theta={1,3}", "local 3", "record B1: local line needs theta="),
            # the Jordan splitting is derived from the forms, so it is no
            # key of any local line
            ("local 2 theta={1,2,5,10} lambda=1",
             "local 2 splitting=1:0,1:0,1:4 theta={1,2,5,10} lambda=1",
             "record A1: unknown token 'splitting=1:0,1:0,1:4'"),
            ("local 3 theta={1,3}", "local 3 splitting=1:0,1:1,1:2 theta={1,3}",
             "record B1: unknown token 'splitting=1:0,1:1,1:2'"),
            ("exceptional M1\n", "exceptional\n", "record A1: empty exceptional line"),
            ("id A1\nsgi 2,2,5,2,2,0", "sgi 2,2,5,2,2,0\nid A1",
             "line 3: record must start with an id line"),
            # a second line for a prime is refused before the record is
            # validated, even one that would be refused on its own (group A
            # needs lambda)
            (" lambda=1\n", " lambda=1\nlocal 2 theta={1}\n",
             "record A1: duplicate local line for p=2"),
            ("id A1\n", "id A1\ngamma 1\n", "line 4: unknown key 'gamma'"),
            # delta is derived from the forms, so it is no key of a record
            ("id A1\n", "id A1\ndelta 64\n", "line 4: unknown key 'delta'"),
            ("exceptional M1\n", "", "record A1: missing exceptional line"),
            (None, "# only comments\n", "missing version header"),
            # a bare token, on an odd or a 2-adic line: no route reads one
            ("local 3 theta={1,3}", "local 3 theta={1,3} scaled",
             "record B1: unknown token 'scaled'"),
            (" lambda=1\n", " lambda=1 scaled\n", "record A1: unknown token 'scaled'"),
            # the 2-adic structure label no route read
            (" lambda=1\n", " lambda=1 subcase=(b)(iii)\n",
             "record A1: unknown token 'subcase=(b)(iii)'"),
            (" lambda=1\n", " lambda=0\n", "record A1, p=2: lambda must be >= 1"),
            # 0 is no squareclass
            ("theta={1,2,5,10}", "theta={1,0,5,10}", "record A1: bad theta '0'"),
            ("local 3 theta={1,3}", "local 3 theta={1,3} lambda=1",
             "record B1, p=3: lambda only belongs on the p=2 line"),
            # a reduced form of B1's determinant and 2-adic orders whose
            # orders at 3 key no cutoff; it stands for the genus, so the
            # shape is refused before the other form is compared
            ("sgi 3,3,4,0,0,3", "sgi 2,2,7,1,1,0",
             "record B1, p=3: (2,2,7,1,1,0) has elementary divisor orders [0, 0, 3], "
             "with no order cutoff"),
            ("id B7", "id A14", "group counts off: {'A': 14, 'B': 11, 'C': 4}"),
            ("sgii 1,1,16,0,0,0\n", "", "record A1: both spinor genera need forms"),
            # refused before delta is read off the first form
            ("sgi 2,2,5,2,2,0\n", "", "record A1: both spinor genera need forms"),
            # same determinant, reduced, but outside A1's genus at 2
            ("sgii 1,1,16,0,0,0", "sgii 1,2,8,0,0,0",
             "record A1, p=2: (1,2,8,0,0,0) has elementary divisor orders [1, 2, 4], "
             "(2,2,5,2,2,0) has [1, 1, 5]"),
            ("sgi 2,2,5,2,2,0", "sgi -2,2,5,2,2,0",
             f"record A1: {TernaryForm(-2, 2, 5, 2, 2, 0)} not positive definite"),
            # A1's first form under x -> x + 40y: same determinant and
            # definiteness, but a scan box that grows with the skew
            ("sgi 2,2,5,2,2,0", "sgi 2,3202,5,82,2,160",
             f"record A1: {TernaryForm(2, 3202, 5, 82, 2, 160)} is not reduced"),
            ("sgi 2,2,5,2,2,0\nsgii 1,1,16,0,0,0", "sgi 1,1,17,0,0,0\nsgii 1,1,17,0,0,0",
             "record A1: delta has large prime factors"),
            # a product of two primes above 2^60, which factor's Pollard rho
            # would take most of an hour to split
            ("sgi 2,2,5,2,2,0\nsgii 1,1,16,0,0,0",
             f"sgi 1,1,{_SEMIPRIME},0,0,0\nsgii 1,1,{_SEMIPRIME},0,0,0",
             "record A1: delta has large prime factors"),
            ("local 3 theta={1,3}\n", "",
             "record B1: local data for [2], ramified primes are [2, 3]"),
            ("exceptional M1\n", "exceptional M5\n", "record A1: squareclass with t=5"),
            ("exceptional M1\n", "exceptional 5M1\n", "record A1: suspicious scale s=5"),
            # a spec entry inside another: 3 is in M_2 and 2 in M_7
            ("exceptional M2\n", "exceptional M2 9M2\n",
             "record A8: squareclass 9M2 lies inside M2"),
            ("exceptional 4M7\n", "exceptional 4M7 16M7\n",
             "record C4: squareclass 16M7 lies inside 4M7"),
            ("exceptional M3\n", "exceptional M3 M3\n",
             "record B1: squareclass M3 lies inside M3"),
            # route 2 builds s * w^2 in int64
            ("exceptional M1\n", f"exceptional {2**63}M1\n",
             f"record A1: suspicious scale s={2**63}"),
            # a line or local-line key given twice
            ("exceptional M1\n", "exceptional M1\nexceptional M1\n",
             "record A1: duplicate exceptional line"),
            ("exceptional 3M3\n", "exceptional 3M3\nexceptional M3\n",
             "record B3: duplicate exceptional line"),
            ("theta={1,2,5,10}", "theta={1,2,5,10} theta={1,5}",
             "record A1: duplicate theta on the p=2 local line"),
            (" lambda=1\n", " lambda=1 lambda=2\n",
             "record A1: duplicate lambda on the p=2 local line"),
        ],
    )
    def test_message(self, catalog, old, new, message):
        text = new if old is None else doctored(catalog, old, new)
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            loads(text)


class TestLocalDataConsistency:
    def test_genus_mates_agree_locally(self, catalog):
        # the forms of one genus are Z_p-isometric, so every form takes the
        # local values of the first; it reads the class tables of the 52
        # forms after the first
        checked = 0
        for rec in catalog.records:
            for p in rec.ramified_primes():
                want = local_mask(rec.sgi_forms[0], p, 500)
                for form in rec.all_forms()[1:]:
                    assert np.array_equal(local_mask(form, p, 500), want), (rec.rid, p, form)
                    checked += 1
        assert checked == 79  # (form, ramified p) pairs

    def test_odd_exponents_match_elementary_divisors(self, catalog):
        # every load makes this check too (catalog._validate_local), at
        # every ramified prime; the helper is the independent reference for it
        lines = [p for rec in catalog.records for p in rec.local_data]
        assert len(lines) == 45
        assert sum(p != 2 for p in lines) == 16
        assert exponent_mismatches(catalog) == []

    def test_odd_cutoffs_derived_from_forms(self, catalog):
        # load reads each odd-p cutoff off the first form's elementary
        # divisor orders; every form of the record gives the same key, and
        # the cutoffs are 2 on B3 at p = 3 and 1 on the other 15 lines
        got = {}
        for rec in catalog.records:
            for p in rec.ramified_primes()[1:]:
                keys = {tuple(divisor_orders(form, p)) for form in rec.all_forms()}
                assert len(keys) == 1 and keys <= _ODD_CUTOFFS.keys(), (rec.rid, p, keys)
                got[rec.rid, p] = rec.local_data[p].cutoff
                assert got[rec.rid, p] == _ODD_CUTOFFS[keys.pop()], (rec.rid, p)
        want = {(f"B{i}", 3): 1 for i in range(1, 13)} | {(f"C{i}", 7): 1 for i in range(1, 5)}
        want["B3", 3] = 2
        assert got == want

    @pytest.mark.parametrize(
        "rid, old, new",
        [
            pytest.param("B1", "sgii 1,1,36,0,0,1", "sgii 2,2,7,1,1,0", id="B1"),
            pytest.param("C1", "sgii 1,7,14,7,0,0", "sgii 2,3,15,1,0,1", id="C1"),
        ],
    )
    def test_odd_form_edit_caught(self, catalog, rid, old, new):
        # the new form is reduced, of the record's determinant and 2-adic
        # orders; only its elementary divisors at the odd prime tell
        rec = catalog.lookup(rid)
        p = rec.ramified_primes()[1]
        message = (f"record {rid}, p={p}: ({new[5:]}) has elementary divisor orders [0, 0, 3], "
                   f"{rec.sgi_forms[0]} has [0, 1, 2]")
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            loads(doctored(catalog, old, new))

    def test_specs_stay_in_known_semigroups(self, catalog):
        for rec in catalog.records:
            assert rec.exceptional_spec
            for s, t in rec.exceptional_spec:
                assert t in (1, 2, 3, 7)
                assert s >= 1
