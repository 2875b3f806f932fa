"""The factorization of m and what is read off it.

factor(m) is prime_factorization, the sorted (p, d) pairs with product m.
From them come Kempner's mu(m) = omega1 (the max over the p**d), omega0
(the least p) and the Kempner basis, a least monic null polynomial mod any
m. Nullity and the canonical form mod m do not pass through here: they
run the falling-factorial transform mod m directly. The paper's reduction
of a composite m to its prime powers by CRT is an oracle in
tests/conftest.py, which tests/test_modulus.py and tests/test_acceptance.py
hold to Kempner's mu.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from . import construct
from .polys import Polynomial, product, reduce_coeffs
from .primes import prime_factorization as factor


def crt_combine_poly(parts: Sequence[tuple[Polynomial, int]]) -> Polynomial:
    """Coefficient-wise CRT of (polynomial, modulus) parts.

    The moduli must be >= 2 and pairwise coprime. The result is the unique
    polynomial mod their product m congruent to each part mod its modulus:
    sum_i f_i * e_i mod m with the idempotents e_i = (m/q_i) * ((m/q_i)**-1
    mod q_i), since e_i ≡ 1 (mod q_i) and e_i ≡ 0 mod every other modulus.
    """
    if not parts:
        raise ValueError("need at least one part")
    m = 1
    for _, q in parts:
        if q < 2:
            raise ValueError(f"CRT modulus {q} must be >= 2")
        if gcd(m, q) != 1:
            raise ValueError(f"CRT moduli must be pairwise coprime: {q} shares a factor with {m}")
        m *= q
    total = Polynomial(())
    for f, q in parts:
        total = total + f * (m // q * pow(m // q, -1, q))
    return reduce_coeffs(total, m)


def omega1_composite(factors: Sequence[tuple[int, int]]) -> int:
    """Least monic null-polynomial degree mod m: max over the factors.

    A monic polynomial stays monic (leading coefficient ≡ 1, a unit) mod
    every factor, so the max is both achievable and a lower bound.
    """
    return max(construct.omega1_prime_power(p, d) for p, d in factors)


def omega0_composite(factors: Sequence[tuple[int, int]]) -> int:
    """Least degree of any nonzero null polynomial mod m: min over factor primes.

    (m / p**d) * p**(d-1) * (x**p - x) has degree p and is null mod m; and a
    nonzero null polynomial of degree n mod m keeps degree n mod the factor
    where its top coefficient survives, forcing n >= that factor's p.
    """
    return min(p for p, _ in factors)


def kempner_mu(m: int) -> int:
    """Smallest t with m | t!: omega1_composite of m's factorization (the
    degree theorem)."""
    return omega1_composite(factor(m))


def kempner_basis(m: int) -> Polynomial:
    """x(x-1)...(x-(mu(m)-1)): a monic null polynomial of least degree mod m.

    Null because its value at any x is mu! * C(x, mu), and minimal because a
    monic f = sum (m a_k / k!) x(x-1)...(x-k+1) forces m | n! at the top.
    For a prime p it is x(x-1)...(x-(p-1)), the tower's level 1.
    """
    return product(Polynomial((-i, 1)) for i in range(kempner_mu(m)))
