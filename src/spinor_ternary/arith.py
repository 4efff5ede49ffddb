"""Exact prime and p-adic arithmetic: orders, symbols, square tests,
Hilbert symbols, local norm groups, factorization.

Every p-adic square question reads one decomposition of a class of
Q_p^*/(Q_p^*)^2, the key `_sq_class_key` (ord mod 2 and the unit class):
the square test, the norm-group closure and the Hilbert symbol, which
pairs two keys.

Everything here works on plain Python integers; no floating point.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "ord_p",
    "factor",
    "legendre",
    "is_padic_square",
    "normgroup_is_closed",
    "hilbert",
    "is_prime",
]

# Trial division covers the divisors below 2^10, so any cofactor left
# below 2^20 is prime.
_TRIAL_BOUND = 1 << 10
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))


def ord_p(p: int, n: int) -> int:
    """Largest k with p^k dividing n. Rejects n = 0 and p < 2."""
    if p < 2:
        raise ValueError(f"ord_p needs p >= 2, got {p}")
    if n == 0:
        raise ValueError("ord_p undefined at 0")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 bases (psi_13)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the 13 prime bases 2..41, deterministic below
    psi_13 = 3 317 044 064 679 887 385 961 981; larger n raise ValueError."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is not certified at or above {_MR_LIMIT}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n odd composite with no factor below 2^10.
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending.

    Trial division by 2 and the odd d < 2^10 while d^2 <= n; a cofactor
    below 2^20 is then prime, and a larger one goes to Miller-Rabin and,
    if composite, to Pollard rho.
    """
    if n < 1:
        raise ValueError("factor expects n >= 1")
    out: dict[int, int] = {}
    for d in _TRIAL_DIVISORS:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += [d, m // d]
    return sorted(out.items())


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol of a mod an odd prime p: -1, 0 or +1."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def is_padic_square(p: int, m: int) -> bool:
    """True iff nonzero m is a square in Q_p: its key is (0, 1), which for
    a unit m at odd p is Euler's criterion."""
    if m == 0:
        raise ValueError("is_padic_square undefined at 0")
    if p != 2 and m % p:
        return pow(m, (p - 1) // 2, p) == 1
    return _sq_class_key(p, m) == (0, 1)


def _sq_class_key(p: int, x: int):
    """(ord_p(x) mod 2, u mod 8 at p = 2 or the Legendre symbol of u at odd p)
    for x = p^ord * u; two nonzero x share a key iff x'/x is a p-adic square."""
    v = ord_p(p, x)
    u = x // p**v
    if p == 2:
        return (v % 2, u % 8)
    return (v % 2, legendre(u, p))


def normgroup_is_closed(p: int, gens) -> bool:
    """The listed representatives contain 1 and form a group modulo
    p-adic squares."""
    keys = {_sq_class_key(p, g) for g in gens}
    if _sq_class_key(p, 1) not in keys or len(keys) != len(set(gens)):
        return False
    for va, ua in keys:
        for vb, ub in keys:
            prod = ((va + vb) % 2, ua * ub % 8 if p == 2 else ua * ub)
            if prod not in keys:
                return False
    return True


def _eps(u: int) -> int:
    # (u-1)/2 mod 2 for odd u
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    # (u^2-1)/8 mod 2 for odd u
    return (u * u - 1) // 8 % 2


def hilbert(p: int, a: int, b: int) -> int:
    """Hilbert symbol (a,b)_p over Q_p, a pairing of the two squareclass keys."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    return _key_pairing(p, _sq_class_key(p, a), _sq_class_key(p, b))


def _key_pairing(p: int, key_a, key_b) -> int:
    """(a,b)_p from the squareclass keys of a and b."""
    (alpha, u), (beta, v) = key_a, key_b
    if p == 2:
        e = _eps(u) * _eps(v) + alpha * _omega(v) + beta * _omega(u)
    else:
        e = alpha * beta * (p - 1) // 2 + beta * (u < 0) + alpha * (v < 0)
    return -1 if e % 2 else 1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks; for p % 4 == 3 it is a^((p+1)/4), with no loop pass.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r
