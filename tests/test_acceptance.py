"""Full-scale acceptance run, one test per criterion.

The shared sweep enumerates every record's spinor regular form to 50000
and builds the genus and squareclass masks once; the criteria then assert
exact set equalities on top of it.  Each test prints a CRITERION line so
a -s run reads as a checklist.
"""

import math
import random
from time import perf_counter

import numpy as np
import pytest
from mt_congruence import congruence_Mt

from spinor_ternary.arith import factor, hilbert
from spinor_ternary.forms_core import discriminant, represented_mask
from spinor_ternary.local_solver import (
    genus_mask,
    lemma71_excluded,
    lemma72_excluded,
    lemma73_excluded,
    local_mask,
    local_represents,
    verify_certificate,
)
from spinor_ternary.spinor_theory import (
    closed_form_missed_mask,
    exceptional_general_mask,
    in_Mt,
    mt_mask,
    squareclass_mask,
)

BOUND = 50000

B4_FORM = (3, 7, 7, 5, 3, 3)
B11_FORM = (9, 16, 48, 0, 0, 0)


@pytest.fixture(scope="session")
def sweep(catalog):
    """rid -> (represented, genus, squareclass) boolean masks over 0..BOUND."""
    t0 = perf_counter()
    out = {}
    for rec in catalog.records:
        rep = represented_mask(rec.sgi_forms[0], BOUND).copy()
        gen = genus_mask(rec, BOUND).copy()
        rep[0] = gen[0] = False
        spec = squareclass_mask(rec.exceptional_spec, BOUND)
        out[rec.rid] = (rep, gen, spec)
    out["_seconds"] = perf_counter() - t0
    return out


def congruence_type(bound: int, scale: int, residue: int, modulus: int) -> np.ndarray:
    """Mask of scale*(residue + modulus*l) up to bound."""
    out = np.zeros(bound + 1, dtype=bool)
    if scale * residue <= bound:
        out[scale * np.arange(residue, bound // scale + 1, modulus)] = True
    return out


def three_adic_types(bound: int) -> np.ndarray:
    """2+3l together with 9^k(6+9l)."""
    out = congruence_type(bound, 1, 2, 3)
    scale = 1
    while scale * 6 <= bound:
        out |= congruence_type(bound, scale, 6, 9)
        scale *= 9
    return out


def test_criterion_1(catalog, sweep):
    """Exceptional sets by enumeration equal the squareclass specs."""
    total = 0
    for rec in catalog.records:
        rep, gen, spec = sweep[rec.rid]
        enum_exc = gen & ~rep
        mismatches = np.flatnonzero(enum_exc != spec)
        assert mismatches.size == 0, (rec.rid, mismatches[:10])
        total += int(spec.sum())
    print(
        f"CRITERION 1: PASS 29 records, bound {BOUND}, {total} exceptional "
        f"integers, sweep {sweep['_seconds']:.1f}s"
    )


def test_criterion_2(catalog, sweep):
    """The prime-by-prime general criterion finds exactly the same sets."""
    for rec in catalog.records:
        rep, gen, spec = sweep[rec.rid]
        crit = exceptional_general_mask(rec, BOUND, gen)
        assert np.array_equal(crit, gen & ~rep), rec.rid
        assert np.array_equal(crit, spec), rec.rid
    print(f"CRITERION 2: PASS general criterion == enumeration == spec, bound {BOUND}")


def test_criterion_3(catalog, sweep):
    """Closed-form characterizations of everything B4 and B11 miss.

    B4's union is checked as published.  B11's published union omits the
    3-adic types even though its own local structure imposes them (see
    the companion test below), so the complete union adds them; without
    that the equality is false starting at n = 17.
    """
    bound = 20000

    rep4 = sweep["B4"][0][: bound + 1]
    union4 = (
        three_adic_types(bound)
        | congruence_type(bound, 1, 2, 4)
        | congruence_type(bound, 4, 2, 4)
        | squareclass_mask(((1, 3), (4, 3)), bound)
    )
    union4[0] = False
    assert np.array_equal(union4[1:], ~rep4[1:])

    rep11 = sweep["B11"][0][: bound + 1]
    union11 = (
        congruence_type(bound, 1, 5, 8)
        | congruence_type(bound, 1, 2, 4)
        | congruence_type(bound, 4, 2, 4)
        | congruence_type(bound, 1, 3, 4)
        | congruence_type(bound, 4, 3, 4)
        | squareclass_mask(((1, 3), (4, 3)), bound)
        | three_adic_types(bound)
    )
    union11[0] = False
    assert np.array_equal(union11[1:], ~rep11[1:])

    # the shipped helper encodes the same unions
    for rid, union in (("B4", union4), ("B11", union11)):
        shipped = closed_form_missed_mask(rid, bound)
        assert np.array_equal(shipped, union), rid

    print(f"CRITERION 3: PASS non-represented sets match the unions, bound {bound}")


def test_criterion_3_b11_needs_three_adic_types(sweep):
    """The B11 union without the 3-adic types undercounts what the form
    misses; every gap is a 3-adic exclusion and the first is n = 17."""
    bound = 20000
    rep11 = sweep["B11"][0][: bound + 1]
    narrow = (
        congruence_type(bound, 1, 5, 8)
        | congruence_type(bound, 1, 2, 4)
        | congruence_type(bound, 4, 2, 4)
        | congruence_type(bound, 1, 3, 4)
        | congruence_type(bound, 4, 3, 4)
        | squareclass_mask(((1, 3), (4, 3)), bound)
    )
    narrow[0] = False
    gaps = np.flatnonzero(narrow[1:] != ~rep11[1:]) + 1
    assert gaps.size > 0
    assert gaps[0] == 17
    for n in gaps:
        assert not rep11[n]          # every gap is a miss the union skipped
        assert not narrow[n]
        assert lemma73_excluded(int(n))
    print(
        f"CRITERION 3 companion: narrow B11 union has {gaps.size} gaps up to "
        f"{bound}, first at 17, all 3-adically excluded"
    )


def test_criterion_4(catalog):
    """Congruence exclusion predicates match the Hensel-certified solver."""
    bound = 10000
    b4 = catalog.lookup("B4").sgi_forms[0]
    b11 = catalog.lookup("B11").sgi_forms[0]
    pairs = (
        (b4, 2, lemma71_excluded),
        (b11, 2, lemma72_excluded),
        (b4, 3, lemma73_excluded),
        (b11, 3, lemma73_excluded),
    )
    certified = 0
    for form, p, predicate in pairs:
        for n in range(1, bound + 1):
            verdict = local_represents(form, p, n)
            assert verdict.representable == (not predicate(n)), (form, p, n)
            if verdict.representable:
                assert verify_certificate(form, verdict), (form, p, n)
                certified += 1
    print(
        f"CRITERION 4: PASS 4 predicate/solver pairs, n <= {bound}, "
        f"{certified} certificates checked"
    )


def test_criterion_5(catalog):
    """Every listed representative has the record's discriminant and the
    whole genus agrees locally at each ramified prime."""
    bound = 2000
    forms = 0
    for rec in catalog.records:
        for form in rec.all_forms():
            assert discriminant(form) == rec.delta, (rec.rid, form)
            forms += 1
        for p in rec.ramified_primes():
            masks = [local_mask(f, p, bound) for f in rec.all_forms()]
            for other in masks[1:]:
                assert np.array_equal(masks[0], other), (rec.rid, p)
    assert forms == 81
    print(
        f"CRITERION 5: PASS {forms} representatives, discriminants match, "
        f"genus-wide local agreement to {bound}"
    )


def test_criterion_6(catalog, sweep):
    """Exceptional integers live in the second spinor genus: hit by some
    second-genus representative, missed by every first-genus one."""
    bound = 10000
    checked = 0
    for rec in catalog.records:
        spec = sweep[rec.rid][2][: bound + 1]
        exceptional = np.flatnonzero(spec)
        sgi_hit = np.zeros(bound + 1, dtype=bool)
        for form in rec.sgi_forms:
            sgi_hit |= represented_mask(form, bound)
        sgii_hit = np.zeros(bound + 1, dtype=bool)
        for form in rec.sgii_forms:
            sgii_hit |= represented_mask(form, bound)
        assert not sgi_hit[exceptional].any(), rec.rid
        assert sgii_hit[exceptional].all(), rec.rid
        checked += exceptional.size
    print(f"CRITERION 6: PASS {checked} exceptional integers oriented, bound {bound}")


def test_criterion_7(sweep):
    """The classical miss set of 4x^2+9y^2+9z^2+2yz+4xz+4xy relative to its
    genus: odd squares m^2 with every prime factor of m = 1 mod 4."""

    def factors_all_1_mod_4(m: int) -> bool:
        for q in range(2, math.isqrt(m) + 1):
            while m % q == 0:
                if q % 4 != 1:
                    return False
                m //= q
        return m == 1 or m % 4 == 1

    rep, gen, _ = sweep["A5"]
    want = np.zeros(BOUND + 1, dtype=bool)
    for m in range(1, math.isqrt(BOUND) + 1):
        if factors_all_1_mod_4(m):
            want[m * m] = True
    assert np.array_equal(gen & ~rep, want)
    print(
        f"CRITERION 7: PASS A5 genus misses = {{m^2 : m odd, prime factors "
        f"1 mod 4}}, {int(want.sum())} values to {BOUND}"
    )


def test_criterion_8():
    """Randomized Hilbert symbol identities and the two M_t routes."""
    rng = random.Random(8675309)
    primes = (2, 3, 5, 7, 11, 13, 17, 10007)

    def draw(limit):
        while True:
            x = rng.randint(-limit, limit)
            if x:
                return x

    triples = 10000
    for _ in range(triples):
        p = rng.choice(primes)
        a, b, c = draw(10**6), draw(10**6), draw(10**6)
        assert hilbert(p, a, b) == hilbert(p, b, a)
        assert hilbert(p, a * c, b) == hilbert(p, a, b) * hilbert(p, c, b)
        assert hilbert(p, a, -a) == 1

    for _ in range(2000):
        a, b = draw(10**4), draw(10**4)
        prod = -1 if a < 0 and b < 0 else 1
        for p, _e in factor(2 * abs(a) * abs(b)):
            prod *= hilbert(p, a, b)
        assert prod == 1

    # both routes ask whether every prime factor of w passes a per-prime
    # test, so they agree on every w <= wmax exactly when the two tests
    # agree on every prime <= wmax: pointwise to 10^4, then mt_mask (the
    # sieve on in_Mt's test) against a sieve on congruence_Mt's test
    wmax = 10**5
    sieve = np.ones(wmax + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(wmax) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    mt_primes = np.flatnonzero(sieve).tolist()
    for t in (1, 2, 3, 7):
        for w in range(1, 10**4 + 1):
            assert in_Mt(t, w) == congruence_Mt(t, w), (t, w)
        want = np.ones(wmax + 1, dtype=bool)
        want[0] = False
        for p in mt_primes:
            if not congruence_Mt(t, p):
                want[p::p] = False
        assert np.array_equal(mt_mask(t, wmax), want), t
        for s in (2, 3, 5):
            for w in range(1, 2001):
                assert in_Mt(t, w) == in_Mt(s * s * t, w), (t, s, w)

    print(
        f"CRITERION 8: PASS {triples} Hilbert triples, 2000 product-formula "
        f"pairs, M_t routes agree to {wmax}"
    )
