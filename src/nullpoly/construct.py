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

from .polys import Polynomial, check_degree, product
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
    A degree p**n that no coefficient list can hold is refused before the
    first level is built."""
    require_prime(p)
    if n < 1:
        raise ValueError("tower height must be >= 1")
    check_degree(p, n)
    lower = build_tower(p, n - 1) if n > 1 else ()
    g = lower[-1] if lower else Polynomial((0, 1))
    step = p ** repunit(p, n - 1)
    level = product(g - Polynomial((i * step,)) for i in range(p))
    if level.degree != p ** n or level.coeffs[-1] != 1:
        raise AssertionError(f"tower level {n} for p={p} is not monic of degree p**{n}")
    return lower + (level,)


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
    coefficient list can hold is refused before any tower level is built.
    """
    digits = digit_vector(p, d)
    omega1 = _degree(p, digits)
    check_degree(omega1)
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
