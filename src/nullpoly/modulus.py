"""The factorization of m and what is read off it.

factor(m) is prime_factorization, the sorted (p, d) pairs with product m.
From them come Kempner's mu(m) = omega1 (the max over the p**d), omega0
(the least p) and the Kempner basis, a least monic null polynomial mod any
m.

crt_plan(m) keeps what is read off m's factorization per modulus, in a
bounded lru_cache: mu(m), and each prime power p**d of m with its mu and
its CRT weight. kempner_mu reads mu(m) there, so a repeated modulus is
factored once. The canonical form mod a composite m is the paper's first
reduction: canonical.canonical_form takes the form mod each p**d and
combines them coordinatewise by crt_sum with the plan's weights.
crt_combine_poly, the CLI's crt, makes the same sum with weights computed
from its moduli. Nullity and reduce_degree do not pass through here: they
run mod m and never factor it. The least monic null polynomial mod a
composite m from its prime powers is an oracle in tests/conftest.py, which
tests/test_modulus.py and tests/test_acceptance.py hold to Kempner's mu.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from functools import lru_cache
from math import gcd, lgamma, log
from operator import add

from . import construct
from .polys import Polynomial, check_bits, product
from .primes import prime_factorization as factor


def _crt_weights(moduli: Sequence[int]) -> tuple[int, list[int]]:
    """(m, [e_i]) for moduli q_i >= 2, pairwise coprime, with product m:
    the idempotents e_i = (m/q_i) * ((m/q_i)**-1 mod q_i), since e_i ≡ 1
    (mod q_i) and e_i ≡ 0 mod every other modulus."""
    if not moduli:
        raise ValueError("need at least one part")
    m = 1
    for q in moduli:
        if q < 2:
            raise ValueError(f"CRT modulus {q} must be >= 2")
        if gcd(m, q) != 1:
            raise ValueError(f"CRT moduli must be pairwise coprime: {q} shares a factor with {m}")
        m *= q
    return m, [m // q * pow(m // q, -1, q) for q in moduli]


def crt_sum(parts: Sequence[Sequence[int]], weights: Sequence[int], m: int) -> list[int]:
    """sum_i parts[i][k] * weights[i] mod m for every k, a shorter part read
    as padded with zeros: the entrywise CRT of the parts, given their
    weights e_i (_crt_weights)."""
    total = [0] * max(map(len, parts))
    for c, w in zip(parts, weights):
        total[:len(c)] = map(add, total, map(w.__mul__, c))
    return list(map(m.__rmod__, total))


def crt_combine_poly(parts: Sequence[tuple[Polynomial, int]]) -> Polynomial:
    """Coefficient-wise CRT of (polynomial, modulus) parts.

    The moduli must be >= 2 and pairwise coprime. The result is the unique
    polynomial mod their product m congruent to each part mod its modulus:
    sum_i f_i * e_i mod m with the idempotents e_i (_crt_weights).
    """
    m, weights = _crt_weights([q for _, q in parts])
    return Polynomial(crt_sum([f.coeffs for f, _ in parts], weights, m))


# Bounded for long-lived callers; bench's equiv workload asks about
# seventeen moduli per seed, through canonical_form and kempner_mu. An entry
# is four ints and a weight per prime power of m, each at most m.
@lru_cache(maxsize=128)
def crt_plan(m: int) -> tuple[int, tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """(mu(m), parts, weights) for m >= 2: one part (p, d, p**d, mu(p**d))
    per prime power of m's factorization, and its CRT weight
    (_crt_weights). mu(m) is the largest mu(p**d) (omega1_composite)."""
    parts = tuple((p, d, p ** d, construct.omega1_prime_power(p, d)) for p, d in factor(m))
    return max(part[3] for part in parts), parts, tuple(_crt_weights([part[2] for part in parts])[1])


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
    degree theorem), read off the cached crt_plan(m)."""
    return crt_plan(m)[0]


def kempner_basis(m: int) -> Polynomial:
    """x(x-1)...(x-(mu(m)-1)): a monic null polynomial of least degree mod m.

    Null because its value at any x is mu! * C(x, mu), and minimal because a
    monic f = sum (m a_k / k!) x(x-1)...(x-k+1) forces m | n! at the top.
    For a prime p it is x(x-1)...(x-(p-1)), the tower's level 1.

    Its coefficient magnitudes sum to mu!, which bounds the largest; a basis
    whose mu! is too large to build, by lgamma, is refused (check_bits)
    before any factor is built.
    """
    mu = kempner_mu(m)
    check_bits(f"kempner basis mod {m}, whose coefficient magnitudes sum to {mu}!,",
               lgamma(min(mu, sys.maxsize) + 1) / log(2))
    return product(Polynomial((-i, 1)) for i in range(mu))
