"""Catalog of the 29 genera split into two spinor genera, with per-prime
local data (spinor norm group and order cutoff) and the closed-form
exceptional squareclasses.  `LocalData.cutoff` is the spinor criterion's
order cutoff: lambda at 2, and at an odd p one derived at load from the
forms' elementary divisor orders, the exponents of their Jordan splitting.
The discriminant delta is derived from the forms too.

The on-disk format is line-oriented text: a `version 1` header, then
blank-line-separated records of `id`/`sgi`/`sgii`/`local`/`exceptional`
lines.  `#` lines are comments.
"""

from __future__ import annotations

import functools
import importlib.resources
import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .arith import normgroup_is_closed
from .forms_core import TernaryForm, is_positive_definite
from .local_solver import elementary_orders
from .spinor_theory import in_Mt

__all__ = [
    "CatalogError",
    "LocalData",
    "GenusRecord",
    "CatalogFile",
    "loads",
    "dumps",
    "load_catalog",
    "load_default_catalog",
    "parse_int",
]

_EXC_TOKEN = re.compile(r"^([0-9]*)M([0-9]+)$")
# an integer as the catalog and the command line write it
_INT = re.compile(r"-?[0-9]+")
# order cutoff at an odd ramified prime, by M_F's elementary divisor orders
# there (the Jordan splitting's exponents, since 2 is a unit at odd p);
# only B3 at p = 3 has (0, 1, 3), and no verdict depends on its 2: with 1,
# `verify all --bound 200000` prints the same bytes
_ODD_CUTOFFS = {(0, 1, 2): 1, (0, 2, 3): 1, (0, 1, 3): 2}
# the only primes a catalog discriminant may have
_PRIMES = (2, 3, 5, 7, 11, 13)


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class LocalData:
    """What the catalog knows about one ramified prime of a record: theta,
    and the spinor criterion's order cutoff, which is lambda at 2 (None in
    group C) and, at an odd prime, derived at load from the forms."""

    theta: tuple[int, ...]
    cutoff: int | None = None


@dataclass(frozen=True)
class GenusRecord:
    rid: str
    delta: int
    sgi_forms: tuple[TernaryForm, ...]
    sgii_forms: tuple[TernaryForm, ...]
    local_data: dict[int, LocalData] = field(compare=True)
    exceptional_spec: tuple[tuple[int, int], ...] = ()

    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.local_data))

    def all_forms(self) -> tuple[TernaryForm, ...]:
        return self.sgi_forms + self.sgii_forms

    @property
    def group(self) -> str:
        return self.rid[0]


@dataclass(frozen=True)
class CatalogFile:
    records: tuple[GenusRecord, ...]

    def lookup(self, rid: str) -> GenusRecord:
        for rec in self.records:
            if rec.rid == rid:
                return rec
        raise CatalogError(f"unknown record id {rid!r}")


# ---------------------------------------------------------------- parsing

def parse_int(text: str) -> int:
    """The integer that text writes as an optional '-' and ASCII digits,
    the one form that every integer the program reads takes.  ValueError
    otherwise, with int()'s message: int() alone also takes '_' between
    digits, a '+', surrounding space and non-ASCII digits."""
    if not _INT.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise CatalogError(f"{where}: bad {what} {text!r}") from None


def _parse_form(text: str, where: str) -> TernaryForm:
    parts = text.split(",")
    if len(parts) != 6:
        raise CatalogError(f"{where}: form needs 6 coefficients, got {text!r}")
    try:
        return TernaryForm(*(parse_int(x) for x in parts))
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _parse_local(rest: str, where: str) -> tuple[int, LocalData]:
    toks = rest.split()
    if not toks:
        raise CatalogError(f"{where}: empty local line")
    p = _parse_int(toks[0], "prime", where)
    theta = None
    lam = None
    seen = set()
    for tok in toks[1:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise CatalogError(f"{where}: unknown token {tok!r}")
        if key in seen:
            raise CatalogError(f"{where}: duplicate {key} on the p={p} local line")
        seen.add(key)
        if key == "theta":
            if not (val.startswith("{") and val.endswith("}")):
                raise CatalogError(f"{where}: theta wants {{..}}, got {val!r}")
            theta = tuple(_parse_int(x, "theta", where) for x in val[1:-1].split(","))
            if 0 in theta:
                raise CatalogError(f"{where}: bad theta '0'")
        elif key == "lambda":
            if p != 2:
                raise CatalogError(f"{where}, p={p}: lambda only belongs on the p=2 line")
            lam = _parse_int(val, "lambda", where)
        else:
            raise CatalogError(f"{where}: unknown token {tok!r}")
    if theta is None:
        raise CatalogError(f"{where}: local line needs theta=")
    return p, LocalData(theta, lam)


def _parse_exceptional(rest: str, where: str) -> tuple[tuple[int, int], ...]:
    out = []
    for tok in rest.split():
        m = _EXC_TOKEN.match(tok)
        if not m:
            raise CatalogError(f"{where}: bad squareclass token {tok!r}")
        out.append((parse_int(m.group(1) or "1"), parse_int(m.group(2))))
    if not out:
        raise CatalogError(f"{where}: empty exceptional line")
    return tuple(out)


def _build_record(lines: list[tuple[int, str]]) -> GenusRecord:
    lineno, first = lines[0]
    if not first.startswith("id "):
        raise CatalogError(f"line {lineno}: record must start with an id line")
    rid = first[3:].strip()
    where = f"record {rid}"
    sgi: list[TernaryForm] = []
    sgii: list[TernaryForm] = []
    local: dict[int, LocalData] = {}
    exceptional = None
    for lineno, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "sgi":
            sgi.append(_parse_form(rest, where))
        elif key == "sgii":
            sgii.append(_parse_form(rest, where))
        elif key == "local":
            p, data = _parse_local(rest, where)
            if local.setdefault(p, data) is not data:
                raise CatalogError(f"{where}: duplicate local line for p={p}")
        elif key == "exceptional":
            if exceptional is not None:
                raise CatalogError(f"{where}: duplicate exceptional line")
            exceptional = _parse_exceptional(rest, where)
        else:
            raise CatalogError(f"line {lineno}: unknown key {key!r}")
    if exceptional is None:
        raise CatalogError(f"{where}: missing exceptional line")
    if not sgi or not sgii:
        raise CatalogError(f"{where}: both spinor genera need forms")
    # delta is the first form's; validation checks that every form shares it
    return GenusRecord(rid, sgi[0].gram_det() // 2, tuple(sgi), tuple(sgii), local, exceptional)


def loads(text: str) -> CatalogFile:
    header = False
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        if not header:
            if line != "version 1":
                raise CatalogError(f"line {i}: expected 'version 1', got {line!r}")
            header = True
            continue
        current.append((i, line))
    if current:
        blocks.append(current)
    if not header:
        raise CatalogError("missing version header")
    catalog = CatalogFile(tuple(_build_record(b) for b in blocks))
    _validate(catalog)
    return catalog


# ------------------------------------------------------------- validation

def _validate_local(rec: GenusRecord, p: int, data: LocalData) -> LocalData:
    """Check one local line against the record's forms, and return it with
    its order cutoff, which an odd p takes from the forms."""
    where = f"record {rec.rid}, p={p}"
    if 1 not in data.theta or not normgroup_is_closed(p, data.theta):
        raise CatalogError(f"{where}: theta not a group modulo squares")
    # the forms of one genus are Z_p-isometric, so they share M_F's
    # elementary divisors; the first form stands for the genus
    first = rec.sgi_forms[0]
    want = elementary_orders(first, p)
    if p == 2:
        if (rec.group in ("A", "B")) != (data.cutoff is not None):
            raise CatalogError(f"{where}: lambda presence wrong for group {rec.group}")
        if data.cutoff is not None and data.cutoff < 1:
            raise CatalogError(f"{where}: lambda must be >= 1")
    else:
        data = LocalData(data.theta, _ODD_CUTOFFS.get(tuple(want)))
        if data.cutoff is None:
            raise CatalogError(f"{where}: {first} has elementary divisor orders {want}, with no order cutoff")
    for form in rec.all_forms()[1:]:
        orders = elementary_orders(form, p)
        if orders != want:
            raise CatalogError(f"{where}: {form} has elementary divisor orders {orders}, {first} has {want}")
    return data


def _validate(catalog: CatalogFile) -> None:
    if len(catalog.records) != 29:
        raise CatalogError(f"expected 29 records, found {len(catalog.records)}")
    ids = [rec.rid for rec in catalog.records]
    if len(set(ids)) != len(ids):
        raise CatalogError("duplicate record ids")
    counts = {g: sum(1 for r in catalog.records if r.group == g) for g in "ABC"}
    if counts != {"A": 13, "B": 12, "C": 4}:
        raise CatalogError(f"group counts off: {counts}")
    for rec in catalog.records:
        for form in rec.all_forms():
            if not is_positive_definite(form):
                raise CatalogError(f"record {rec.rid}: {form} not positive definite")
            # det(M_F) = 2*discriminant, and it is even for every integral form
            if form.gram_det() != 2 * rec.delta:
                raise CatalogError(
                    f"record {rec.rid}: {form} has discriminant "
                    f"{form.gram_det() // 2}, expected {rec.delta}"
                )
            # a change of basis keeps the checks above but widens the scan
            # box, so a skewed form would make enumeration crawl
            a, b, c, d, e, f = form.coeffs()
            if not (a <= b <= c and abs(f) <= a and abs(e) <= a and abs(d) <= b):
                raise CatalogError(f"record {rec.rid}: {form} is not reduced")
        # 2*delta has no prime above 13 iff it divides a power of 2*3*5*7*11*13
        if pow(math.prod(_PRIMES), (2 * rec.delta).bit_length(), 2 * rec.delta):
            raise CatalogError(f"record {rec.rid}: delta has large prime factors")
        ram = {q for q in _PRIMES if 2 * rec.delta % q == 0}
        if set(rec.local_data) != ram:
            raise CatalogError(
                f"record {rec.rid}: local data for {sorted(rec.local_data)}, "
                f"ramified primes are {sorted(ram)}"
            )
        # an odd-p cutoff is read off the forms, so it is set only here,
        # once they have passed the checks above
        for p in rec.ramified_primes():
            rec.local_data[p] = _validate_local(rec, p, rec.local_data[p])
        for s, t in rec.exceptional_spec:
            if t not in (1, 2, 3, 7):
                raise CatalogError(f"record {rec.rid}: squareclass with t={t}")
            # route 2 builds s * w^2 in int64
            if not 1 <= s < 1 << 63 or any(s % q == 0 for q in _PRIMES[2:] if q != t):
                raise CatalogError(f"record {rec.rid}: suspicious scale s={s}")
        # s2*M_t^2 lies inside s*M_t^2 when s2 = s*w^2 with w in M_t; w is
        # below 2^32, so factoring it is quick
        for (s, t), (s2, t2) in itertools.permutations(rec.exceptional_spec, 2):
            w = math.isqrt(s2 // s)
            if t2 == t and w * w * s == s2 and in_Mt(t, w):
                raise CatalogError(
                    f"record {rec.rid}: squareclass {_exc_token(s2, t)} lies inside {_exc_token(s, t)}"
                )


# ---------------------------------------------------------- serialization

def _exc_token(s: int, t: int) -> str:
    return f"M{t}" if s == 1 else f"{s}M{t}"


def dumps(catalog: CatalogFile) -> str:
    out = ["version 1"]
    for rec in catalog.records:
        out.append("")
        out.append(f"id {rec.rid}")
        for form in rec.sgi_forms:
            out.append("sgi " + ",".join(str(c) for c in form.coeffs()))
        for form in rec.sgii_forms:
            out.append("sgii " + ",".join(str(c) for c in form.coeffs()))
        for p in rec.ramified_primes():
            data = rec.local_data[p]
            line = f"local {p} theta={{" + ",".join(str(g) for g in data.theta) + "}"
            if p == 2 and data.cutoff is not None:
                line += f" lambda={data.cutoff}"
            out.append(line)
        out.append(
            "exceptional " + " ".join(_exc_token(s, t) for s, t in rec.exceptional_spec)
        )
    out.append("")
    return "\n".join(out)


# --------------------------------------------------------------- loading

def load_catalog(path) -> CatalogFile:
    return loads(Path(path).read_text())


@functools.cache
def load_default_catalog() -> CatalogFile:
    """The embedded catalog, read, parsed and validated on the first call in
    a process; every later call returns that same CatalogFile.  Every caller
    in the process shares its records, so none may mutate them (a record's
    `local_data` is a plain dict)."""
    text = (
        importlib.resources.files("spinor_ternary")
        .joinpath("data/catalog.txt")
        .read_text()
    )
    return loads(text)
