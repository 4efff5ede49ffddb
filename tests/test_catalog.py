"""Catalog parsing, validation, serialization, and the consistency of the
stored local data with the generic Z_p solver."""

import pytest

from spinor_ternary.catalog import (
    CatalogError,
    dumps,
    load_catalog,
    loads,
)
from spinor_ternary.forms_core import TernaryForm
from spinor_ternary.local_solver import locally_represented


def doctored(catalog, old: str, new: str) -> str:
    """Default catalog text with one targeted edit."""
    text = dumps(catalog)
    assert old in text, f"edit target {old!r} not present"
    return text.replace(old, new, 1)


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
        assert not data.scaled

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
        scaled = {
            rec.rid
            for rec in catalog.records
            if 2 in rec.local_data and rec.local_data[2].scaled
        }
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
                    assert rec.local_data[p].odd_bound is not None, (rec.rid, p)


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
            (" lambda=1 ", " lambda=one ", r"record A1: bad lambda 'one'"),
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
            loads(doctored(catalog, " lambda=1 subcase=(b)(iii)", " subcase=(b)(iii)"))

    def test_non_unit_diagonal(self, catalog):
        with pytest.raises(CatalogError, match="non-unit"):
            loads(doctored(catalog, "splitting=1:0,1:0,1:4", "splitting=2:0,1:0,1:4"))

    def test_unknown_subcase(self, catalog):
        with pytest.raises(CatalogError, match="subcase"):
            loads(doctored(catalog, "subcase=(b)(iii)", "subcase=(z)(ix)"))


class TestLocalDataConsistency:
    def test_splitting_values_match_solver(self, catalog):
        # the stored Jordan splitting must predict the same local
        # representability as the actual form; scaled splittings describe
        # the lattice rescaled by 2, so their targets are doubled
        for rec in catalog.records:
            form = rec.sgi_forms[0]
            for p, data in rec.local_data.items():
                split_form = data.splitting.to_form()
                mult = 2 if data.scaled else 1
                for n in range(1, 501):
                    assert locally_represented(form, p, n) == locally_represented(
                        split_form, p, mult * n
                    ), (rec.rid, p, n)

    def test_specs_stay_in_known_semigroups(self, catalog):
        for rec in catalog.records:
            assert rec.exceptional_spec
            for s, t in rec.exceptional_spec:
                assert t in (1, 2, 3, 7)
                assert s >= 1
