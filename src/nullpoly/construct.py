"""Constructive core: the tower of base null polynomials mod p**d.

Level n of the tower is the monic degree-p**n polynomial obtained by the
recursion

    T(p, 0) = x
    T(p, n) = prod_{i=0}^{p-1} ( T(p, n-1) - i * p**repunit(p, n-1) )

whose values are divisible by p**repunit(p, n) at every integer but not,
in general, by the next power of p. Products of tower levels with exponents
taken from a mixed-radix digit vector give the least-degree monic polynomial
vanishing identically mod p**d, whose degree matches Kempner's factorial
threshold mu(p**d).
"""
from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .oracle import is_null_binomial
from .polys import Polynomial
from .primes import is_prime, prime_factorization


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def offset_product(p: int, x: int) -> int:
    """Product of (x - j) over j = 0..p-1 with j not ≡ x (mod p).

    The factors form a reduced residue system mod p, so the value is
    ≡ (p-1)! ≡ -1 (mod p) for every integer x.
    """
    _require_prime(p)
    r = x % p
    acc = 1
    for j in range(p):
        if j != r:
            acc *= x - j
    return acc


@lru_cache(maxsize=16)
def falling_factorial(p: int) -> Polynomial:
    """x(x-1)...(x-(p-1)), the monic degree-p base of the tower.

    Congruent to x**p - x coefficient-wise mod p.
    """
    _require_prime(p)
    f = Polynomial((1,))
    for i in range(p):
        f = f * Polynomial((-i, 1))
    return f


def repunit(p: int, n: int) -> int:
    """1 + p + ... + p**(n-1)  (0 for n = 0).

    This is the exact power of p dividing all values of tower level n: the
    level-n polynomial vanishes identically mod p**repunit(p, n) and no
    further.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (p ** n - 1) // (p - 1)


class Tower:
    """Tower levels 1..n for one prime, exact over the integers."""

    __slots__ = ("p", "levels")

    def __init__(self, p: int, levels: tuple[Polynomial, ...]):
        self.p = p
        self.levels = levels

    @property
    def height(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> Polynomial:
        """The level-k polynomial, monic of degree p**k (1 <= k <= height)."""
        if not 1 <= k <= len(self.levels):
            raise ValueError(f"tower has levels 1..{len(self.levels)}")
        return self.levels[k - 1]


# Bounded for long-lived callers; bench's tower workload asks for 14 (p, n).
@lru_cache(maxsize=32)
def _tower_levels(p: int, n: int) -> tuple[Polynomial, ...]:
    levels = []
    g = Polynomial((0, 1))
    for k in range(1, n + 1):
        step = p ** repunit(p, k - 1)
        nxt = Polynomial((1,))
        for i in range(p):
            nxt = nxt * (g - Polynomial((i * step,)))
        if nxt.degree != p ** k or nxt.coeffs[-1] != 1:
            raise AssertionError(f"tower level {k} for p={p} is not monic of degree p**{k}")
        levels.append(nxt)
        g = nxt
    return tuple(levels)


def build_tower(p: int, n: int, verify: bool = True) -> Tower:
    """Build tower levels 1..n for the prime p.

    With verify=True (the default) each level k is checked null mod
    p**repunit(p, k) by the Newton criterion; pass verify=False when
    constructing large towers whose outputs are checked downstream.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("tower height must be >= 1")
    tower = Tower(p, _tower_levels(p, n))
    if verify:
        for k in range(1, n + 1):
            if not is_null_binomial(tower.level(k), p ** repunit(p, k)):
                raise AssertionError(f"tower level {k} for p={p} is not null mod p^{repunit(p, k)}")
    return tower


def scaled_tower_value(p: int, n: int, x: int) -> int:
    """Value at x of tower level n divided by p**repunit(p, n).

    Computed by the value recursion v -> (prod_{i<p} (v - i)) / p, never
    expanding rational polynomials; each division is exact because one of
    p consecutive shifts of an integer is divisible by p.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    v = x
    for _ in range(n):
        acc = 1
        for i in range(p):
            acc *= v - i
        if acc % p:
            raise AssertionError("inexact division in tower value recursion")
        v = acc // p
    return v


class DigitVector(Record):
    """Digits e_1..e_n of d in the mixed radix repunit(p,1), repunit(p,2), ...

    Invariants: sum(e_i * repunit(p, i)) = d, every digit is in [0, p], and
    at most one digit equals p, in which case all lower digits are 0.
    """

    __slots__ = ("p", "d", "digits")

    def __init__(self, p: int, d: int, digits: tuple[int, ...]):
        total = sum(e * repunit(p, i + 1) for i, e in enumerate(digits))
        if total != d:
            raise AssertionError(f"digit vector of {d} sums to {total}")
        if any(e < 0 or e > p for e in digits):
            raise AssertionError("digit out of range")
        tops = [i for i, e in enumerate(digits) if e == p]
        if len(tops) > 1 or (tops and any(digits[j] for j in range(tops[0]))):
            raise AssertionError("more than one saturated digit")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "digits", digits)

    @property
    def e_max(self) -> int:
        return max(self.digits) if self.digits else 0

    def exponents(self):
        """(i, e_i) pairs for the nonzero digits, ascending i."""
        return [(i + 1, e) for i, e in enumerate(self.digits) if e]


def digit_vector(p: int, d: int) -> DigitVector:
    """Greedy mixed-radix digits of d >= 1.

    The top index is the largest n with repunit(p, n) <= d, found by exact
    integer iteration (the closed form via logarithms is off by one whenever
    d*(p-1)+1 is an exact power of p).
    """
    _require_prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    n = 1
    while repunit(p, n + 1) <= d:
        n += 1
    digits = [0] * n
    rest = d
    for i in range(n, 0, -1):
        digits[i - 1], rest = divmod(rest, repunit(p, i))
    return DigitVector(p, d, tuple(digits))


def least_monic_null(p: int, d: int) -> Polynomial:
    """The least-degree monic polynomial vanishing identically mod p**d.

    Product of tower levels with the digit-vector exponents; monic over Z,
    of degree omega1_prime_power(p, d) = kempner_mu(p**d).
    """
    dv = digit_vector(p, d)
    tower = build_tower(p, len(dv.digits), verify=False)
    h = Polynomial((1,))
    for i, e in dv.exponents():
        h = h * tower.level(i) ** e
    if h.coeffs[-1] != 1 or h.degree != omega1_prime_power(p, d):
        raise AssertionError(f"least monic null for {p}^{d} is not monic of degree omega1")
    return h


def omega1_prime_power(p: int, d: int) -> int:
    """Least degree of a monic null polynomial mod p**d: sum e_i * p**i."""
    dv = digit_vector(p, d)
    return sum(e * p ** i for i, e in dv.exponents())


def omega0_prime_power(p: int, d: int) -> int:
    """Least degree of any nonzero null polynomial mod p**d: always p.

    p**(d-1) * (x**p - x) achieves it, and no smaller degree is possible.
    """
    _require_prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    return p


def kempner_mu(m: int) -> int:
    """Smallest t with m | t!: the max of omega1_prime_power(p, d) over the
    p**d exactly dividing m (the degree theorem), with m factored by
    prime_factorization."""
    if m < 2:
        raise ValueError("kempner_mu requires m >= 2")
    return max(omega1_prime_power(p, d) for p, d in prime_factorization(m))


def kempner_basis(m: int) -> Polynomial:
    """x(x-1)...(x-(mu(m)-1)): a monic null polynomial of least degree mod m.

    Null because its value at any x is mu! * C(x, mu), and minimal because a
    monic f = sum (m a_k / k!) x(x-1)...(x-k+1) forces m | n! at the top.
    """
    mu = kempner_mu(m)
    f = Polynomial((1,))
    for i in range(mu):
        f = f * Polynomial((-i, 1))
    return f
