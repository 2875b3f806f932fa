"""The p-adic tower of base null polynomials mod p**d.

Level n of the tower is the monic degree-p**n polynomial obtained by the
recursion

    T(p, 0) = x
    T(p, n) = prod_{i=0}^{p-1} ( T(p, n-1) - i * p**repunit(p, n-1) )

whose values are divisible by p**repunit(p, n) at every integer but not,
in general, by the next power of p. build_tower returns levels 1..n as a
plain tuple, exact over the integers and checked only for being monic of
degree p**k; nullity is for the caller to test. The product of tower
levels with exponents from the mixed-radix digit vector of d is the
least-degree monic null polynomial mod p**d, of degree omega1(p, d).
"""
from __future__ import annotations

from functools import lru_cache
from math import lgamma, log, log2

from .polys import Polynomial, check_bits, check_degree, product
from .primes import require_prime


def repunit(p: int, n: int) -> int:
    """1 + p + ... + p**(n-1)  (0 for n = 0).

    This is the exact power of p dividing all values of tower level n: the
    level-n polynomial vanishes identically mod p**repunit(p, n) and no
    further.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (p ** n - 1) // (p - 1)


# Bounded for long-lived callers; bench's tower workload fills 17 entries,
# one per prime and height up to the tallest it asks for.
@lru_cache(maxsize=32)
def build_tower(p: int, n: int) -> tuple[Polynomial, ...]:
    """Tower levels 1..n for the prime p: entry k - 1 is level k, monic of
    degree p**k and null mod p**repunit(p, k). Level n is built on the
    cached build_tower(p, n - 1), so each level is built once per prime.
    A degree p**n that no coefficient list can hold, or coefficients too
    large to build by tower_bits, are refused before the first level is
    built."""
    require_prime(p)
    if n < 1:
        raise ValueError("tower height must be >= 1")
    check_bits(f"tower level {n} for p={p}, by a bound on its coefficients,", tower_bits(p, n)[-1])
    lower = build_tower(p, n - 1) if n > 1 else ()
    g = lower[-1] if lower else Polynomial((0, 1))
    step = p ** repunit(p, n - 1)
    level = product(g - Polynomial((i * step,)) for i in range(p))
    if level.degree != p ** n or level.coeffs[-1] != 1:
        raise AssertionError(f"tower level {n} for p={p} is not monic of degree p**{n}")
    return lower + (level,)


def tower_bits(p: int, n: int) -> list[float]:
    """log2 of a bound on the largest coefficient of each of tower levels
    1..n, never below it. A degree p**n that no coefficient list can hold is
    refused first (check_degree), so the loop runs fewer than 64 times.

    A product's 1-norm is at most the product of its factors' 1-norms, so
    with N a bound on level k-1's 1-norm and s = p**repunit(p, k-1), level
    k's is at most prod_{i<p} (N + i*s) = s**p * Gamma(r + p) / Gamma(r),
    r = N / s >= 1. Past r = 2**20 the lgamma difference cancels, and
    p*log2(N) + (p(p-1)/2) * (s/N) / ln 2 bounds it instead, since
    ln(1 + x) <= x. N and s are kept as log2, too large for a float.
    """
    check_degree(p, n)
    bits, norm = [], 0.0  # level 0 is x, of 1-norm 1
    for k in range(1, n + 1):
        log_s = repunit(p, k - 1) * log2(p)
        if norm - log_s > 20:
            norm = p * norm + p * (p - 1) / 2 * 2 ** (log_s - norm) / log(2)
        else:
            r = 2 ** (norm - log_s)
            norm = p * log_s + (lgamma(r + p) - lgamma(r)) / log(2)
        bits.append(norm)
    return bits


def null_bits(p: int, digits: tuple[int, ...]) -> float:
    """log2 of a bound on the largest coefficient of the least monic null
    polynomial with digit vector digits, never below it: sum e_i * (level
    i's tower_bits), its factors' 1-norms multiplied. A degree that no
    coefficient list can hold is refused first (check_degree)."""
    check_degree(_degree(p, digits))
    return sum(e * bits for e, bits in zip(digits, tower_bits(p, len(digits))))


def digit_vector(p: int, d: int) -> tuple[int, ...]:
    """Digits e_1..e_n of d >= 1 in the mixed radix repunit(p, 1),
    repunit(p, 2), ..., found greedily.

    Invariants: sum(e_i * repunit(p, i)) = d, every digit is in [0, p], and
    at most one digit equals p, in which case all lower digits are 0. The
    top index is the largest n with repunit(p, n) <= d, found by exact
    integer iteration (the closed form via logarithms is off by one whenever
    d*(p-1)+1 is an exact power of p).
    """
    require_prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    n = 1
    while repunit(p, n + 1) <= d:
        n += 1
    digits = [0] * n
    rest = d
    for i in range(n, 0, -1):
        digits[i - 1], rest = divmod(rest, repunit(p, i))
    total = sum(e * repunit(p, i + 1) for i, e in enumerate(digits))
    if total != d:
        raise AssertionError(f"digit vector of {d} sums to {total}")
    if any(e < 0 or e > p for e in digits):
        raise AssertionError("digit out of range")
    tops = [i for i, e in enumerate(digits) if e == p]
    if len(tops) > 1 or (tops and any(digits[:tops[0]])):
        raise AssertionError("more than one saturated digit")
    return tuple(digits)


def least_monic_null(p: int, d: int) -> Polynomial:
    """The least-degree monic polynomial vanishing identically mod p**d.

    Product of tower levels with the digit-vector exponents; monic over Z,
    of degree omega1_prime_power(p, d) = mu(p**d). A degree that no
    coefficient list can hold, or coefficients too large to build by
    null_bits, are refused before any tower level is built.
    """
    digits = digit_vector(p, d)
    check_bits(f"the least monic null polynomial mod {p}^{d}, by a bound on its coefficients,",
               null_bits(p, digits))
    omega1 = _degree(p, digits)
    tower = build_tower(p, len(digits))
    h = product(level ** e for level, e in zip(tower, digits) if e)
    if h.coeffs[-1] != 1 or h.degree != omega1:
        raise AssertionError(f"least monic null for {p}^{d} is not monic of degree omega1")
    return h


def omega1_prime_power(p: int, d: int) -> int:
    """Least degree of a monic null polynomial mod p**d: sum e_i * p**i."""
    return _degree(p, digit_vector(p, d))


def _degree(p: int, digits: tuple[int, ...]) -> int:
    """The degree sum e_i * p**i of the tower product with digits e_i."""
    return sum(e * p ** (i + 1) for i, e in enumerate(digits))
