"""Exact arithmetic layer: orders, factorization, symbols, local squares."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinor_ternary.arith import (
    factor,
    hilbert,
    in_local_norm_group,
    is_padic_square,
    is_prime,
    legendre,
    ord_p,
    sqrt_mod_p,
)

PRIMES = (2, 3, 5, 7, 11, 13)

nonzero = st.integers(-10**6, 10**6).filter(lambda x: x != 0)
prime_st = st.sampled_from(PRIMES)


class TestOrdP:
    def test_known_values(self):
        assert ord_p(2, 48) == 4
        assert ord_p(3, 48) == 1
        assert ord_p(7, 2744) == 3
        assert ord_p(5, 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ord_p(5, 0)

    @pytest.mark.parametrize("p", (1, 0, -1, -3))
    def test_base_below_two_rejected(self, p):
        # p = 1 and p = -1 would otherwise loop forever, p = 0 divide by zero
        with pytest.raises(ValueError):
            ord_p(p, 12)

    @given(prime_st, st.integers(0, 12), st.integers(0, 10**6))
    def test_strips_exactly(self, p, k, m):
        u = p * m + 1  # coprime to p by construction
        assert ord_p(p, u * p**k) == k

    @given(prime_st, st.integers(1, 10**9))
    def test_negative_mirror(self, p, n):
        assert ord_p(p, -n) == ord_p(p, n)


class TestFactor:
    def test_small_values(self):
        assert factor(1) == []
        assert factor(65) == [(5, 1), (13, 1)]
        assert factor(27648) == [(2, 10), (3, 3)]

    def test_large_prime(self):
        n = 10**9 + 7
        assert factor(n) == [(n, 1)]

    def test_square_of_prime_beyond_trial_range(self):
        # no factor below 2^10: Pollard rho splits it
        p = 1000003
        assert factor(p * p) == [(p, 2)]

    # Trial division stops at 2^10 and takes a cofactor below 2^20 as
    # prime: 1021^2 needs the last trial divisors, 1031^2 and 1031*1033
    # are composites just above 2^20 with no factor below 2^10.
    @pytest.mark.parametrize(
        "n, want",
        (
            (1021**2, [(1021, 2)]),
            (1031**2, [(1031, 2)]),
            (1031 * 1033, [(1031, 1), (1033, 1)]),
            (2**20 - 1, [(3, 1), (5, 2), (11, 1), (31, 1), (41, 1)]),
            (2**20, [(2, 20)]),
            (2**20 + 1, [(17, 1), (61681, 1)]),
            (3**40, [(3, 40)]),
            (2**100, [(2, 100)]),
        ),
    )
    def test_path_boundaries(self, n, want):
        assert factor(n) == want

    def test_matches_naive_trial_division(self):
        for n in range(1, 1 << 16):
            want, m, d = [], n, 2
            while d * d <= m:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                if e:
                    want.append((d, e))
                d += 1
            if m > 1:
                want.append((m, 1))
            assert factor(n) == want, n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)

    @settings(max_examples=200)
    @given(st.integers(1, 10**10))
    def test_roundtrip(self, n):
        fac = factor(n)
        prod = 1
        for p, e in fac:
            assert e >= 1
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


class TestIsPrime:
    def test_against_trial_division(self):
        for n in range(2, 2000):
            naive = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_prime(n) == naive

    def test_carmichael_numbers(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_mersenne(self):
        assert is_prime(2**61 - 1)


class TestLegendre:
    def test_known_values(self):
        assert legendre(-1, 5) == 1
        assert legendre(-1, 3) == -1
        assert legendre(-3, 7) == 1

    def test_matches_square_enumeration(self):
        for p in (3, 5, 7, 11, 13, 17):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == want

    @given(st.sampled_from((3, 5, 7, 11, 13)), nonzero, nonzero)
    def test_multiplicative(self, p, a, b):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestSqrtModP:
    def test_roundtrip_small_primes(self):
        for p in (3, 5, 13, 17, 97):
            for a in range(p):
                r = sqrt_mod_p(a, p)
                if r is None:
                    assert legendre(a, p) == -1
                else:
                    assert r * r % p == a % p


class TestPadicSquare:
    def test_known_values(self):
        assert is_padic_square(2, -7)
        assert not is_padic_square(2, -1)
        assert not is_padic_square(3, -3)
        assert is_padic_square(3, 4)
        assert is_padic_square(5, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_padic_square(3, 0)

    def test_matches_congruence_solvability(self):
        # m is a square in Z_p iff x^2 = m is solvable mod p^(ord+3);
        # the +3 absorbs the unit precision needed at p = 2
        for p in PRIMES:
            for m in range(-240, 241):
                if m == 0:
                    continue
                mod = p ** (ord_p(p, m) + 3)
                solvable = any(x * x % mod == m % mod for x in range(mod))
                assert is_padic_square(p, m) == solvable, (p, m)


class TestHilbert:
    def test_known_values(self):
        assert hilbert(2, 5, -2) == -1
        assert hilbert(2, -1, -1) == -1
        assert hilbert(3, 1, 7) == 1
        assert hilbert(2, 1, -5) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert(3, 0, 5)
        with pytest.raises(ValueError):
            hilbert(3, 5, 0)

    @given(prime_st, nonzero, nonzero)
    def test_symmetric(self, p, a, b):
        assert hilbert(p, a, b) == hilbert(p, b, a)

    @given(prime_st, nonzero, nonzero, nonzero)
    def test_bilinear(self, p, a1, a2, b):
        assert hilbert(p, a1 * a2, b) == hilbert(p, a1, b) * hilbert(p, a2, b)

    @given(prime_st, nonzero)
    def test_norm_identity(self, p, a):
        assert hilbert(p, a, -a) == 1

    @given(prime_st, nonzero, nonzero, st.integers(1, 50))
    def test_squareclass_invariant(self, p, a, b, k):
        assert hilbert(p, a * k * k, b) == hilbert(p, a, b)

    @settings(max_examples=300)
    @given(st.integers(-10**4, 10**4).filter(bool), st.integers(-10**4, 10**4).filter(bool))
    def test_product_formula(self, a, b):
        prod = -1 if a < 0 and b < 0 else 1  # the real place
        for p, _ in factor(2 * abs(a) * abs(b)):
            prod *= hilbert(p, a, b)
        assert prod == 1

    def test_value_set_mod_p2(self):
        # (u, b)_p for unit u depends only on u mod p^2 (mod 8 at p = 2)
        for p in PRIMES:
            step = 8 if p == 2 else p * p
            for u in range(1, step, 2 if p == 2 else 1):
                if u % p == 0:
                    continue
                for b in (2, 3, 5, -1, -p, p):
                    assert hilbert(p, u, b) == hilbert(p, u + step, b)

    def test_matches_closed_form_reference(self):
        # every pair with 0 < |a|, |b| <= 60, including a prime above 10^4
        for p in (*PRIMES, 10007):
            for a in range(-60, 61):
                for b in range(-60, 61):
                    if a and b:
                        assert hilbert(p, a, b) == hilbert_reference(p, a, b), (p, a, b)


def hilbert_reference(p, a, b):
    """(a,b)_p from the exponents and units, without squareclass keys."""
    alpha, beta = ord_p(p, a), ord_p(p, b)
    u, v = a // p**alpha, b // p**beta
    if p == 2:

        def eps(w):
            return (w - 1) // 2 % 2

        def omega(w):
            return (w * w - 1) // 8 % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    sign = 1
    if alpha * beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


class TestLocalNormGroup:
    def test_known_values(self):
        assert not in_local_norm_group(2, 5, 2)
        assert not in_local_norm_group(2, 5, 8)
        assert in_local_norm_group(3, 1, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            in_local_norm_group(2, 0, 3)
        with pytest.raises(ValueError):
            in_local_norm_group(2, 3, 0)

    @given(prime_st, nonzero, nonzero, nonzero)
    def test_group_closure(self, p, g1, g2, nd):
        # norms form a group: membership of two elements forces the product
        if in_local_norm_group(p, g1, nd) and in_local_norm_group(p, g2, nd):
            assert in_local_norm_group(p, g1 * g2, nd)

    @given(prime_st, nonzero)
    def test_squares_are_norms(self, p, nd):
        assert in_local_norm_group(p, 1, nd)
        assert in_local_norm_group(p, 4, nd)
