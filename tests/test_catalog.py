"""Catalog parsing, validation, serialization, and the consistency of the
stored local data with the generic Z_p solver."""

import math
import re

import pytest

from spinor_ternary.arith import ord_p
from spinor_ternary.catalog import (
    CatalogError,
    dumps,
    load_catalog,
    load_default_catalog,
    loads,
)
from spinor_ternary.forms_core import TernaryForm
from spinor_ternary.local_solver import locally_represented

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


def exponent_mismatches(catalog) -> list[tuple[str, int, TernaryForm, list[int]]]:
    """Every (record, p, form, orders) where the p-orders of the elementary
    divisors of M_F differ from the local line's splitting exponents, a
    plane counted twice.  The orders come from the gcd of M_F's entries, the
    gcd of its 2x2 minors (the adjugate's entries) and det(M_F).  M_F is
    twice the Gram matrix: at odd p the 2 is a unit, and at p = 2 each order
    is one more than the splitting's, unless an odd cross coefficient makes
    the splitting that of the lattice rescaled by 2, whose Gram matrix is M_F."""
    out = []
    for rec in catalog.records:
        for p, data in rec.local_data.items():
            exps = [
                c[-1] for c in data.splitting.components for _ in range(1 if c[0] == "diag" else 2)
            ]
            for form in rec.all_forms():
                shift = 1 if p == 2 and not odd_cross(form) else 0
                g1 = ord_p(p, math.gcd(*(x for row in form.gram_doubled() for x in row)))
                g2 = ord_p(p, math.gcd(*(x for row in form.gram_adjugate() for x in row)))
                orders = [g1 - shift, g2 - g1 - shift, ord_p(p, form.gram_det()) - g2 - shift]
                if orders != exps:
                    out.append((rec.rid, p, form, orders))
    return out


def two_adic_exponent_edits(catalog):
    """Every one-step edit of one exponent on a `local 2` line, as (record
    id, whether the token is a plane, the edited exponents with a plane
    counted once, the edited catalog text)."""
    blocks = dumps(catalog).split("\n\n")
    for i, block in enumerate(blocks[1:], start=1):
        rid = block.split("\n", 1)[0].removeprefix("id ")
        m = re.search(r"^local 2 splitting=(\S+)", block, re.M)
        toks = m.group(1).split(",")
        for k, tok in enumerate(toks):
            head, exp = tok.split(":")
            for step in (-1, 1):
                new = toks[:k] + [f"{head}:{int(exp) + step}"] + toks[k + 1 :]
                edited = block[: m.start(1)] + ",".join(new) + block[m.end(1) :]
                exps = [int(t.split(":")[1]) for t in new]
                text = "\n\n".join(blocks[:i] + [edited] + blocks[i + 1 :])
                yield rid, head in ("H", "A"), exps, text


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
        assert data.lam == 1
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
        # the records whose 2-adic splitting describes the lattice rescaled by 2
        scaled = {rec.rid for rec in catalog.records if odd_cross(rec.sgi_forms[0])}
        assert scaled == {"B1", "B2", "B3", "B4", "C1", "C2"}

    def test_lambda_presence_by_group(self, catalog):
        for rec in catalog.records:
            lam = rec.local_data[2].lam
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
            loads("id A1\ndelta 64\n")

    def test_bad_version(self):
        with pytest.raises(CatalogError, match="version"):
            loads("version 2\n")

    def test_bad_form_arity(self, catalog):
        with pytest.raises(CatalogError, match="6 coefficients"):
            loads(doctored(catalog, "sgi 2,2,5,2,2,0", "sgi 2,2,5,2,2"))

    def test_bad_splitting_token(self, catalog):
        with pytest.raises(CatalogError, match="splitting token"):
            loads(doctored(catalog, "splitting=1:0,1:0,1:4", "splitting=1:0,x,1:4"))

    @pytest.mark.parametrize("token", ("H:", "A:x", "q:1", "1:", "1:0:0"))
    def test_bad_splitting_token_parts(self, catalog, token):
        with pytest.raises(CatalogError, match=f"bad splitting token '{token}'"):
            loads(doctored(catalog, "splitting=1:0,1:0,1:4", f"splitting=1:0,{token},1:4"))

    def test_bad_squareclass_token(self, catalog):
        with pytest.raises(CatalogError, match="squareclass token"):
            loads(doctored(catalog, "exceptional M1\n", "exceptional Q1\n"))

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("delta 64", "delta x64", r"record A1: bad delta 'x64'"),
            (" lambda=1\n", " lambda=one\n", r"record A1: bad lambda 'one'"),
            ("theta={1,2,5,10}", "theta={1,2,5,1O}", r"record A1: bad theta '1O'"),
        ],
    )
    def test_bad_integer_names_record(self, catalog, old, new, match):
        with pytest.raises(CatalogError, match=match):
            loads(doctored(catalog, old, new))


class TestValidation:
    def test_wrong_delta(self, catalog):
        with pytest.raises(CatalogError, match="record A1"):
            loads(doctored(catalog, "delta 64", "delta 63"))

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

    def test_non_unit_diagonal(self, catalog):
        with pytest.raises(CatalogError, match="non-unit"):
            loads(doctored(catalog, "splitting=1:0,1:0,1:4", "splitting=2:0,1:0,1:4"))

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
            ("local 2 splitting=1:0,1:0,1:4 theta={1,2,5,10} lambda=1",
             "local", "record A1: empty local line"),
            ("theta={1,2,5,10}", "theta=1,2,5,10",
             "record A1: theta wants {..}, got '1,2,5,10'"),
            (" theta={1,2,5,10}", "", "record A1: local line needs splitting= and theta="),
            ("exceptional M1\n", "exceptional\n", "record A1: empty exceptional line"),
            ("id A1\ndelta 64", "delta 64\nid A1", "line 3: record must start with an id line"),
            (" lambda=1\n", " lambda=1\nlocal 2 splitting=1:0 theta={1}\n",
             "record A1: duplicate local line for p=2"),
            ("delta 64\n", "delta 64\ngamma 1\n", "line 5: unknown key 'gamma'"),
            ("delta 64\n", "", "record A1: missing delta or exceptional line"),
            (None, "# only comments\n", "missing version header"),
            ("splitting=1:0,1:0,1:4", "splitting=1:0,1:4",
             "record A1, p=2: splitting dimension 2 != 3"),
            ("splitting=1:0,1:0,1:4", "splitting=1:0,1:4,1:0",
             "record A1, p=2: splitting exponents not nondecreasing"),
            ("local 3 splitting=1:0,1:1,1:2", "local 3 splitting=H:0,1:2",
             "record B1, p=3: H-plane only makes sense at p=2"),
            # a bare token, on an odd or a 2-adic line: the 2-adic scale is
            # read off the form
            ("local 3 splitting=1:0,1:1,1:2 theta={1,3}", "local 3 splitting=1:0,1:1,1:2 theta={1,3} scaled",
             "record B1: unknown token 'scaled'"),
            (" lambda=1\n", " lambda=1 scaled\n", "record A1: unknown token 'scaled'"),
            # the 2-adic structure label no route read
            (" lambda=1\n", " lambda=1 subcase=(b)(iii)\n",
             "record A1: unknown token 'subcase=(b)(iii)'"),
            # the determinant enforces the scale: a splitting's determinant
            # is in the squareclass of delta for A1's even form, and of
            # 2 * delta for B1's odd one
            ("splitting=1:0,1:0,1:4", "splitting=1:0,1:0,1:5",
             "record A1, p=2: splitting determinant in the wrong squareclass"),
            ("splitting=A:0,1:3", "splitting=A:0,1:2",
             "record B1, p=2: splitting determinant in the wrong squareclass"),
            ("splitting=1:0,1:0,1:4", "splitting=1:0,3:0,1:4",
             "record A1, p=2: splitting determinant in the wrong squareclass"),
            (" lambda=1\n", " lambda=0\n", "record A1, p=2: lambda must be >= 1"),
            # a negative exponent would make the Gram determinant a fraction:
            # at an odd p legendre got a float, at p = 2 the record loaded
            ("local 3 splitting=1:0,1:1,1:2", "local 3 splitting=1:-1,1:1,1:2",
             "record B1: bad splitting token '1:-1'"),
            ("splitting=A:0,1:3", "splitting=A:-1,1:3", "record B1: bad splitting token 'A:-1'"),
            ("splitting=H:0,5:3", "splitting=H:-1,5:3", "record B2: bad splitting token 'H:-1'"),
            # 0 is no squareclass
            ("theta={1,2,5,10}", "theta={1,0,5,10}", "record A1: bad theta '0'"),
            ("local 3 splitting=1:0,1:1,1:2 theta={1,3}", "local 3 splitting=1:0,1:1,1:2 theta={1,3} lambda=1",
             "record B1, p=3: lambda only belongs on the p=2 line"),
            ("local 3 splitting=1:0,1:1,1:2", "local 3 splitting=1:0,1:0,1:3",
             "record B1, p=3: splitting shape [0, 0, 3] has no order bound"),
            ("id B7", "id A14", "group counts off: {'A': 14, 'B': 11, 'C': 4}"),
            ("sgii 1,1,16,0,0,0\n", "", "record A1: both spinor genera need forms"),
            ("sgi 2,2,5,2,2,0", "sgi -2,2,5,2,2,0",
             f"record A1: {TernaryForm(-2, 2, 5, 2, 2, 0)} not positive definite"),
            # A1's first form under x -> x + 40y: same determinant and
            # definiteness, but a scan box that grows with the skew
            ("sgi 2,2,5,2,2,0", "sgi 2,3202,5,82,2,160",
             f"record A1: {TernaryForm(2, 3202, 5, 82, 2, 160)} is not reduced"),
            ("delta 64\nsgi 2,2,5,2,2,0\nsgii 1,1,16,0,0,0", "delta 68\nsgi 1,1,17,0,0,0\nsgii 1,1,17,0,0,0",
             "record A1: delta has large prime factors"),
            # a product of two primes above 2^60, which factor's Pollard rho
            # would take most of an hour to split
            ("delta 64\nsgi 2,2,5,2,2,0\nsgii 1,1,16,0,0,0",
             f"delta {4 * _SEMIPRIME}\nsgi 1,1,{_SEMIPRIME},0,0,0\nsgii 1,1,{_SEMIPRIME},0,0,0",
             "record A1: delta has large prime factors"),
            ("local 3 splitting=1:0,1:1,1:2 theta={1,3}\n", "",
             "record B1: local data for [2], ramified primes are [2, 3]"),
            ("exceptional M1\n", "exceptional M5\n", "record A1: squareclass with t=5"),
            ("exceptional M1\n", "exceptional 5M1\n", "record A1: suspicious scale s=5"),
            # a spec entry inside another: 3 is in M_2 and 2 in M_7
            ("exceptional M2\n", "exceptional M2 9M2\n", "record A8: squareclass 9M2 lies inside M2"),
            ("exceptional 4M7\n", "exceptional 4M7 16M7\n", "record C4: squareclass 16M7 lies inside 4M7"),
            ("exceptional M3\n", "exceptional M3 M3\n", "record B1: squareclass M3 lies inside M3"),
            # route 2 builds s * w^2 in int64
            ("exceptional M1\n", f"exceptional {2**63}M1\n", f"record A1: suspicious scale s={2**63}"),
            # a line or local-line key given twice
            ("delta 324\n", "delta 324\ndelta 324\n", "record B3: duplicate delta line"),
            ("exceptional 3M3\n", "exceptional 3M3\nexceptional M3\n",
             "record B3: duplicate exceptional line"),
            ("splitting=1:0,1:0,1:4", "splitting=1:0,1:0,1:4 splitting=1:0,1:0,1:4",
             "record A1: duplicate splitting on the p=2 local line"),
            ("theta={1,2,5,10}", "theta={1,2,5,10} theta={1,5}",
             "record A1: duplicate theta on the p=2 local line"),
            (" lambda=1\n", " lambda=1 lambda=2\n", "record A1: duplicate lambda on the p=2 local line"),
        ],
    )
    def test_message(self, catalog, old, new, message):
        text = new if old is None else doctored(catalog, old, new)
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            loads(text)


class TestLocalDataConsistency:
    def test_splitting_values_match_solver(self, catalog):
        # the stored Jordan splitting must predict the same local
        # representability as the actual form; at p = 2 the splitting of a
        # form with an odd cross coefficient describes the lattice rescaled
        # by 2, so its targets are doubled
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p, data in rec.local_data.items():
                split_form = data.splitting.to_form()
                mult = 2 if p == 2 and odd_cross(form) else 1
                for n in range(1, 501):
                    assert locally_represented(form, p, n) == locally_represented(
                        split_form, p, mult * n
                    ), (rec.rid, p, n)

    def test_odd_exponents_match_elementary_divisors(self, catalog):
        # every load makes this check too (catalog._validate_local), at
        # every ramified prime; the helper is the independent reference for it
        lines = [p for rec in catalog.records for p in rec.local_data]
        assert len(lines) == 45
        assert sum(p != 2 for p in lines) == 16
        assert exponent_mismatches(catalog) == []

    @pytest.mark.parametrize(
        "rid, old, new",
        [
            ("B1", "local 3 splitting=1:0,1:1,1:2", "local 3 splitting=1:0,1:2,1:3"),
            ("C1", "local 7 splitting=1:0,1:1,1:2", "local 7 splitting=1:0,1:2,1:3"),
        ],
    )
    def test_odd_exponent_edit_caught(self, catalog, rid, old, new):
        # the edit keeps the determinant squareclass and the cutoff; only the
        # elementary divisors tell, and loading checks them
        p = old.split()[1]
        with pytest.raises(
            CatalogError,
            match=rf"^record {rid}, p={p}: \(.*\) has elementary divisor orders "
            r"\[0, 1, 2\], splitting exponents \[0, 2, 3\]$",
        ):
            loads(doctored(catalog, old, new))

    def test_two_adic_exponent_edits_caught(self, catalog):
        # a plane's exponent moves the determinant by a square, so the 20
        # plane edits that keep the exponents nonnegative and nondecreasing
        # pass every other check; only the elementary divisors tell
        edits = list(two_adic_exponent_edits(catalog))
        assert len(edits) == 148
        caught = []
        for rid, plane, exps, text in edits:
            with pytest.raises(CatalogError) as err:
                loads(text)
            if plane and exps == sorted(exps) and exps[0] >= 0:
                assert re.match(
                    rf"record {rid}, p=2: \(.*\) has elementary divisor orders \[.*\], "
                    r"splitting exponents \[.*\]$",
                    str(err.value),
                ), str(err.value)
                caught.append(str(err.value))
        assert len(caught) == 20
        assert (
            "record C1, p=2: (2,7,8,7,1,0) has elementary divisor orders [0, 0, 1], "
            "splitting exponents [1, 1, 1]"
        ) in caught

    def test_specs_stay_in_known_semigroups(self, catalog):
        for rec in catalog.records:
            assert rec.exceptional_spec
            for s, t in rec.exceptional_spec:
                assert t in (1, 2, 3, 7)
                assert s >= 1
