"""Catalog of the 29 genera split into two spinor genera, with per-prime
local data (Jordan splitting, spinor norm group, order cutoffs) and the
closed-form exceptional squareclasses.  `LocalData.cutoff` gives the spinor
criterion's order cutoff: lambda at 2, the splitting's exponents at odd p.

The on-disk format is line-oriented text: a `version 1` header, then
blank-line-separated records of `id`/`delta`/`sgi`/`sgii`/`local`/
`exceptional` lines.  `#` lines are comments.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .arith import is_padic_square, normgroup_is_closed
from .forms_core import TernaryForm, is_positive_definite

__all__ = [
    "CatalogError",
    "LocalSplitting",
    "LocalData",
    "GenusRecord",
    "CatalogFile",
    "loads",
    "dumps",
    "load_catalog",
    "load_default_catalog",
]

_EXC_TOKEN = re.compile(r"^(\d*)M(\d+)$")
_SUBCASES = {
    "(b)(i)", "(b)(ii)", "(b)(iii)", "(b)(iv)", "(c)(iii)",
    "(i)(alpha)", "(i)(beta)", "(ii)(alpha)", "(ii)(beta)", "(ii)(gamma)",
}
# order cutoff at an odd ramified prime, by the splitting's exponent triple
_ODD_CUTOFFS = {(0, 1, 2): 1, (0, 2, 3): 1, (0, 1, 3): 2}
# the only primes a catalog discriminant may have
_PRIMES = (2, 3, 5, 7, 11, 13)


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class LocalSplitting:
    """Jordan splitting data for L_p: diagonal components (unit, exponent)
    and, at p = 2, the named binary planes H and A with a scale exponent."""

    p: int
    components: tuple[tuple, ...]  # ("diag", unit, exp) | ("H", exp) | ("A", exp)

    def dimension(self) -> int:
        return sum(1 if c[0] == "diag" else 2 for c in self.components)

    def exponents(self) -> list[int]:
        return [c[-1] for c in self.components]

    def gram_det(self) -> int:
        """Determinant of the splitting's Gram matrix."""
        det = 1
        for c in self.components:
            if c[0] == "diag":
                det *= c[1] * self.p ** c[2]
            elif c[0] == "H":
                det *= -(4**c[1])
            else:  # A
                det *= 3 * 4 ** c[1]
        return det

    def to_form(self) -> TernaryForm:
        """A ternary form whose doubled Gram matrix is twice the splitting's
        Gram matrix, so the form takes exactly the splitting's values."""
        if self.dimension() != 3:
            raise ValueError(f"splitting is not ternary: {self.components}")
        gram = [[0] * 3 for _ in range(3)]
        i = 0
        for c in self.components:
            if c[0] == "diag":
                gram[i][i] = c[1] * self.p ** c[2]
                i += 1
            else:
                s = 2**c[1]
                if c[0] == "H":
                    gram[i][i + 1] = gram[i + 1][i] = s
                else:
                    gram[i][i] = gram[i + 1][i + 1] = 2 * s
                    gram[i][i + 1] = gram[i + 1][i] = s
                i += 2
        return TernaryForm(
            a=gram[0][0],
            b=gram[1][1],
            c=gram[2][2],
            d=2 * gram[1][2],
            e=2 * gram[0][2],
            f=2 * gram[0][1],
        )


@dataclass(frozen=True)
class LocalData:
    """What the catalog knows about one ramified prime of a record."""

    p: int
    splitting: LocalSplitting
    theta: tuple[int, ...]
    lam: int | None = None          # order cutoff at 2; groups A and B only
    subcase: str | None = None      # label of the tabulated 2-adic structure case
    scaled: bool = False            # splitting describes the 2-scaled lattice

    @property
    def cutoff(self) -> int | None:
        """The spinor criterion's order cutoff, or None if none is tabulated."""
        if self.p == 2:
            return self.lam
        return _ODD_CUTOFFS.get(tuple(self.splitting.exponents()))


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
    version: int
    records: tuple[GenusRecord, ...]

    def lookup(self, rid: str) -> GenusRecord:
        for rec in self.records:
            if rec.rid == rid:
                return rec
        raise CatalogError(f"unknown record id {rid!r}")


# ---------------------------------------------------------------- parsing

def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CatalogError(f"{where}: bad {what} {text!r}") from None


def _parse_form(text: str, where: str) -> TernaryForm:
    parts = text.split(",")
    if len(parts) != 6:
        raise CatalogError(f"{where}: form needs 6 coefficients, got {text!r}")
    try:
        return TernaryForm(*(int(x) for x in parts))
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _parse_splitting(p: int, text: str, where: str) -> LocalSplitting:
    comps = []
    for tok in text.split(","):
        # a token without ":" leaves exp empty, which int() rejects too
        head, _, exp = tok.partition(":")
        try:
            comps.append((head, int(exp)) if head in ("H", "A") else ("diag", int(head), int(exp)))
        except ValueError:
            raise CatalogError(f"{where}: bad splitting token {tok!r}") from None
    return LocalSplitting(p, tuple(comps))


def _parse_local(rest: str, where: str) -> LocalData:
    toks = rest.split()
    if not toks:
        raise CatalogError(f"{where}: empty local line")
    p = _parse_int(toks[0], "prime", where)
    splitting = None
    theta = None
    lam = None
    subcase = None
    scaled = False
    seen = set()
    for tok in toks[1:]:
        key, sep, val = tok.partition("=")
        if key in seen:
            raise CatalogError(f"{where}: duplicate {key} on the p={p} local line")
        seen.add(key)
        if tok == "scaled":
            scaled = True
        elif key == "splitting" and sep:
            splitting = _parse_splitting(p, val, where)
        elif key == "theta" and sep:
            if not (val.startswith("{") and val.endswith("}")):
                raise CatalogError(f"{where}: theta wants {{..}}, got {val!r}")
            theta = tuple(_parse_int(x, "theta", where) for x in val[1:-1].split(","))
        elif key == "lambda" and sep:
            lam = _parse_int(val, "lambda", where)
        elif key == "subcase" and sep:
            subcase = val
        else:
            raise CatalogError(f"{where}: unknown token {tok!r}")
    if splitting is None or theta is None:
        raise CatalogError(f"{where}: local line needs splitting= and theta=")
    return LocalData(p, splitting, theta, lam, subcase, scaled)


def _parse_exceptional(rest: str, where: str) -> tuple[tuple[int, int], ...]:
    out = []
    for tok in rest.split():
        m = _EXC_TOKEN.match(tok)
        if not m:
            raise CatalogError(f"{where}: bad squareclass token {tok!r}")
        out.append((int(m.group(1) or 1), int(m.group(2))))
    if not out:
        raise CatalogError(f"{where}: empty exceptional line")
    return tuple(out)


def _build_record(lines: list[tuple[int, str]]) -> GenusRecord:
    lineno, first = lines[0]
    if not first.startswith("id "):
        raise CatalogError(f"line {lineno}: record must start with an id line")
    rid = first[3:].strip()
    where = f"record {rid}"
    delta = None
    sgi: list[TernaryForm] = []
    sgii: list[TernaryForm] = []
    local: dict[int, LocalData] = {}
    exceptional = None
    for lineno, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "delta" and delta is not None or key == "exceptional" and exceptional is not None:
            raise CatalogError(f"{where}: duplicate {key} line")
        if key == "delta":
            delta = _parse_int(rest, "delta", where)
        elif key == "sgi":
            sgi.append(_parse_form(rest, where))
        elif key == "sgii":
            sgii.append(_parse_form(rest, where))
        elif key == "local":
            data = _parse_local(rest, where)
            if data.p in local:
                raise CatalogError(f"{where}: duplicate local line for p={data.p}")
            local[data.p] = data
        elif key == "exceptional":
            exceptional = _parse_exceptional(rest, where)
        else:
            raise CatalogError(f"line {lineno}: unknown key {key!r}")
    if delta is None or exceptional is None:
        raise CatalogError(f"{where}: missing delta or exceptional line")
    return GenusRecord(rid, delta, tuple(sgi), tuple(sgii), local, exceptional)


def loads(text: str) -> CatalogFile:
    version = None
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
        if version is None:
            if line != "version 1":
                raise CatalogError(f"line {i}: expected 'version 1', got {line!r}")
            version = 1
            continue
        current.append((i, line))
    if current:
        blocks.append(current)
    if version is None:
        raise CatalogError("missing version header")
    records = tuple(_build_record(b) for b in blocks)
    catalog = CatalogFile(version, records)
    _validate(catalog)
    return catalog


# ------------------------------------------------------------- validation

def _validate_local(rec: GenusRecord, data: LocalData) -> None:
    p = data.p
    where = f"record {rec.rid}, p={p}"
    s = data.splitting
    if s.dimension() != 3:
        raise CatalogError(f"{where}: splitting dimension {s.dimension()} != 3")
    exps = s.exponents()
    if list(exps) != sorted(exps):
        raise CatalogError(f"{where}: splitting exponents not nondecreasing")
    for comp in s.components:
        if comp[0] == "diag":
            if comp[1] % p == 0:
                raise CatalogError(f"{where}: non-unit diagonal {comp[1]}")
        elif p != 2:
            raise CatalogError(f"{where}: {comp[0]}-plane only makes sense at p=2")
    if data.scaled and p != 2:
        raise CatalogError(f"{where}: scaled flag only applies at p=2")
    if p == 2:
        classic = all(x % 2 == 0 for x in rec.sgi_forms[0].coeffs()[3:])
        if data.scaled == classic:
            raise CatalogError(f"{where}: scaled flag inconsistent with the form")
    eff = 2 * rec.delta if data.scaled else rec.delta
    if not is_padic_square(p, s.gram_det() * eff):
        raise CatalogError(f"{where}: splitting determinant in the wrong squareclass")
    if 1 not in data.theta or not normgroup_is_closed(p, data.theta):
        raise CatalogError(f"{where}: theta not a group modulo squares")
    if p == 2:
        wants_lam = rec.group in ("A", "B")
        if wants_lam != (data.lam is not None):
            raise CatalogError(f"{where}: lambda presence wrong for group {rec.group}")
        if data.lam is not None and data.lam < 1:
            raise CatalogError(f"{where}: lambda must be >= 1")
        if data.subcase is not None and data.subcase not in _SUBCASES:
            raise CatalogError(f"{where}: unknown subcase {data.subcase!r}")
    else:
        if data.lam is not None or data.subcase is not None:
            raise CatalogError(f"{where}: lambda/subcase only belong on the p=2 line")
        if data.cutoff is None:
            raise CatalogError(f"{where}: splitting shape {exps} has no order bound")


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
        if not rec.sgi_forms or not rec.sgii_forms:
            raise CatalogError(f"record {rec.rid}: both spinor genera need forms")
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
        for data in rec.local_data.values():
            _validate_local(rec, data)
        for s, t in rec.exceptional_spec:
            if t not in (1, 2, 3, 7):
                raise CatalogError(f"record {rec.rid}: squareclass with t={t}")
            if s < 1 or any(s % q == 0 for q in _PRIMES[2:] if q != t):
                raise CatalogError(f"record {rec.rid}: suspicious scale s={s}")


# ---------------------------------------------------------- serialization

def _splitting_str(s: LocalSplitting) -> str:
    toks = []
    for comp in s.components:
        if comp[0] == "diag":
            toks.append(f"{comp[1]}:{comp[2]}")
        else:
            toks.append(f"{comp[0]}:{comp[1]}")
    return ",".join(toks)


def _exc_token(s: int, t: int) -> str:
    return f"M{t}" if s == 1 else f"{s}M{t}"


def dumps(catalog: CatalogFile) -> str:
    out = [f"version {catalog.version}"]
    for rec in catalog.records:
        out.append("")
        out.append(f"id {rec.rid}")
        out.append(f"delta {rec.delta}")
        for form in rec.sgi_forms:
            out.append("sgi " + ",".join(str(c) for c in form.coeffs()))
        for form in rec.sgii_forms:
            out.append("sgii " + ",".join(str(c) for c in form.coeffs()))
        for p in rec.ramified_primes():
            data = rec.local_data[p]
            line = f"local {p} splitting={_splitting_str(data.splitting)}"
            line += " theta={" + ",".join(str(g) for g in data.theta) + "}"
            if data.lam is not None:
                line += f" lambda={data.lam}"
            if data.subcase is not None:
                line += f" subcase={data.subcase}"
            if data.scaled:
                line += " scaled"
            out.append(line)
        out.append(
            "exceptional " + " ".join(_exc_token(s, t) for s, t in rec.exceptional_spec)
        )
    out.append("")
    return "\n".join(out)


# --------------------------------------------------------------- loading

def load_catalog(path) -> CatalogFile:
    return loads(Path(path).read_text())


def load_default_catalog() -> CatalogFile:
    text = (
        importlib.resources.files("spinor_ternary")
        .joinpath("data/catalog.txt")
        .read_text()
    )
    return loads(text)
