import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_least_monic_degree,
    is_monic_mod,
    is_null_eval,
    kempner_mu_scan,
    least_monic_null_composite,
    trial_factorization,
)
from nullpoly.cli import _parse_prime_power
from nullpoly.construct import least_monic_null
from nullpoly.modulus import (
    crt_combine_poly,
    factor,
    kempner_basis,
    kempner_mu,
    omega0_composite,
    omega1_composite,
)
from nullpoly.oracle import is_null_binomial
from nullpoly.polys import Polynomial, parse_polynomial, reduce_coeffs
from nullpoly.primes import _RHO_BUDGET, is_prime, prime_factorization


def test_is_prime():
    # a sieve of Eratosthenes below 20000, across 43**2 = 1849, below which
    # trial division by the primes up to 41 decides alone
    sieve = [False, False] + [True] * 19998
    for k in range(2, 142):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(range(k * k, 20000, k))
    for n in range(-3, 20000):
        assert is_prime(n) == (n >= 0 and sieve[n]), n
    for n in (2 ** 31 - 1, 10 ** 9 + 7):
        assert is_prime(n)
    for n in (2 ** 31, 10 ** 9 + 8, 561, 49):
        assert not is_prime(n)


def test_factor_examples():
    assert factor is prime_factorization
    assert factor(72) == [(2, 3), (3, 2)]
    assert factor(8) == [(2, 3)]
    assert factor(7919) == [(7919, 1)]
    with pytest.raises(ValueError):
        factor(1)


def test_factor_round_trip():
    for m in range(2, 500):
        assert math.prod(p ** d for p, d in factor(m)) == m


def test_prime_power_parse():
    # the crt command reads each modulus as "p^d" or a bare prime "p"
    assert _parse_prime_power("2^3") == (2, 3)
    assert _parse_prime_power("7") == (7, 1)
    with pytest.raises(ValueError):
        _parse_prime_power("4^2")
    with pytest.raises(ValueError):
        _parse_prime_power("x")


def test_crt_combine_poly_example():
    parts = [
        (parse_polynomial("x^2+x"), 2),
        (parse_polynomial("x^3-x"), 3),
    ]
    c = crt_combine_poly(parts)
    assert c == parse_polynomial("4x^3+3x^2+5x")
    for f, q in parts:
        assert not reduce_coeffs(c - f, q)


def test_crt_single_part_and_uniformity():
    f = Polynomial((5, -3, 11))
    assert crt_combine_poly([(f, 9)]) == reduce_coeffs(f, 9)
    # same f mod every factor combines back to f reduced mod m
    parts = [(reduce_coeffs(f, p ** d), p ** d) for p, d in factor(60)]
    assert crt_combine_poly(parts) == reduce_coeffs(f, 60)


def test_crt_rejects_duplicate_primes():
    with pytest.raises(ValueError, match="pairwise coprime"):
        crt_combine_poly([(Polynomial((1,)), 2), (Polynomial((1,)), 4)])
    with pytest.raises(ValueError, match=">= 2"):
        crt_combine_poly([(Polynomial((1,)), 1), (Polynomial((1,)), 3)])
    # coprime composites combine
    c = crt_combine_poly([(Polynomial((1, 2)), 4), (Polynomial((5, 0, 7)), 9)])
    assert c == Polynomial((5, 18, 16))


def test_crt_congruent_to_each_part_sweep():
    rng = random.Random(11)
    for m in range(2, 101):
        parts = [
            (Polynomial([rng.randrange(p ** d) for _ in range(rng.randrange(1, 6))]), p ** d)
            for p, d in factor(m)
        ]
        c = crt_combine_poly(parts)
        assert all(cf < m for cf in c.coeffs)
        for f, q in parts:
            assert not reduce_coeffs(c - f, q)


# is_null_binomial answers a composite modulus directly
def test_is_null_composite_examples():
    assert is_null_binomial(parse_polynomial("x^3-x"), 6)
    assert not is_null_binomial(parse_polynomial("x^2-x"), 6)
    assert is_null_binomial(Polynomial(()), 360)


def test_is_null_composite_agrees_with_direct_evaluation():
    rng = random.Random(3)
    for m in range(2, 201):
        fm = factor(m)
        for _ in range(200):
            f = Polynomial([rng.randrange(-m, m) for _ in range(rng.randrange(0, 9))])
            assert is_null_binomial(f, m) == all(
                f.eval_mod(x, m) == 0 for x in range(m)
            )
        # a structured null polynomial, so the True branch is exercised too
        h = least_monic_null_composite(fm)
        assert is_null_binomial(h, m)
        assert all(h.eval_mod(x, m) == 0 for x in range(m))


def test_omega1_composite_examples():
    assert omega1_composite(factor(6)) == 3
    assert omega1_composite(factor(8)) == omega1_composite([(2, 3)]) == 4
    assert omega1_composite(factor(24)) == 4
    assert omega1_composite(factor(72)) == 6


def test_omega1_composite_equals_mu():
    for m in range(2, 200):
        assert omega1_composite(factor(m)) == kempner_mu_scan(m)


def _brute_least_nonzero_null_degree(m: int, budget: int = 200_000):
    """Least n with a null polynomial of degree exactly n mod m, scanning
    while m**(n+1) stays within budget; None if none found in range."""
    n = 1
    while m ** (n + 1) <= budget:
        for lead in range(1, m):
            for tail in product(range(m), repeat=n):
                f = Polynomial(tail + (lead,))
                if all(f.eval_mod(x, m) == 0 for x in range(m)):
                    return n
        n += 1
    return None


def test_omega0_composite_brute_force():
    for m in range(2, 31):
        fm = factor(m)
        w0 = omega0_composite(fm)
        assert w0 == min(p for p, _ in fm)
        found = _brute_least_nonzero_null_degree(m)
        if found is not None:
            assert found == w0
        # the generic witness of degree min(p): (m/p^d) * p^(d-1) * (x^p - x)
        p, d = min(fm)
        scale = (m // p ** d) * p ** (d - 1)
        witness = scale * (Polynomial((0,) * p + (1,)) - Polynomial((0, 1)))
        assert reduce_coeffs(witness, m).degree == p
        assert all(witness.eval_mod(x, m) == 0 for x in range(m))


def test_least_monic_null_composite_examples():
    h6 = least_monic_null_composite(factor(6))
    assert h6.degree == 3 and is_monic_mod(h6, 6)
    assert is_null_eval(h6, 6)
    assert is_null_eval(parse_polynomial("x^3-x"), 6)  # the classical witness
    # prime modulus: CRT normal form of the falling factorial
    h5 = least_monic_null_composite(factor(5))
    assert h5 == reduce_coeffs(Polynomial((0, -1, 0, 0, 0, 1)), 5)  # x^5 - x
    h4 = least_monic_null_composite(factor(4))
    assert h4 == reduce_coeffs(least_monic_null(2, 2), 4)


def test_least_monic_null_composite_minimality():
    # the paper's CRT reduction and Kempner's falling factorial, which
    # construct --family kempner prints, are both least monic null mod m
    for m in range(2, 31):
        fm = factor(m)
        for h in (least_monic_null_composite(fm), kempner_basis(m)):
            assert is_monic_mod(h, m)
            assert is_null_eval(h, m)
            assert h.degree == omega1_composite(fm) == kempner_mu_scan(m)


def test_least_monic_null_composite_matches_brute_sets():
    # degree agrees with the exhaustively found least monic null degree
    for m in (6, 10, 12):
        least = brute_least_monic_degree(m, 6)
        assert least_monic_null_composite(factor(m)).degree == least
        assert kempner_basis(m).degree == least


def test_kempner_basis_refuses_a_basis_too_large_to_build():
    # mu(10**12 + 39) = 10**12 + 39: mu! has about 4 * 10**13 bits, refused
    # by lgamma before one factor of the product is built
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        kempner_basis(10 ** 12 + 39)
    assert time.perf_counter() - start < 1
    assert str(refusal.value) == ("kempner basis mod 1000000000039, whose coefficient magnitudes sum to "
                                  "1000000000039!, has over 8388608 bits, too large to build")


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10 ** 6 - 1))
def test_prime_factorization_matches_trial_division(m):
    assert prime_factorization(m) == trial_factorization(m)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 10 ** 9).map(_next_prime), st.integers(1, 3)), min_size=1, max_size=4))
def test_prime_factorization_of_products_of_large_primes(parts):
    # exercises the rho path: cofactors with several prime factors >= 2^10
    expected = {}
    m = 1
    for p, e in parts:
        expected[p] = expected.get(p, 0) + e
        m *= p ** e
    got = prime_factorization(m)
    primes = [p for p, _ in got]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in got)
    assert math.prod(p ** e for p, e in got) == m
    assert got == sorted(expected.items())


def test_factor_semiprime_of_two_ten_digit_primes_is_fast():
    m = (10 ** 9 + 7) * (10 ** 9 + 9)
    start = time.perf_counter()
    fm = factor(m)
    assert time.perf_counter() - start < 1.0
    assert fm == [(10 ** 9 + 7, 1), (10 ** 9 + 9, 1)]


def test_rho_budget_splits_two_thirteen_digit_primes_and_refuses_two_near_1e18():
    assert prime_factorization((10 ** 12 + 39) * (10 ** 12 + 61)) == [(10 ** 12 + 39, 1), (10 ** 12 + 61, 1)]
    m = (10 ** 18 + 3) * (10 ** 18 + 9)
    for call in (prime_factorization, kempner_mu):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {m}: .* budget of {_RHO_BUDGET} steps"):
            call(m)
        assert time.perf_counter() - start < 5.0


# the least strong pseudoprime to every prime base up to 37 (OEIS A014233)
PSEUDOPRIME_TO_37 = 399165290221 * 798330580441


def test_strong_pseudoprime_to_the_first_twelve_primes_is_split():
    assert not is_prime(PSEUDOPRIME_TO_37)
    assert prime_factorization(PSEUDOPRIME_TO_37) == [(399165290221, 1), (798330580441, 1)]
    assert prime_factorization(PSEUDOPRIME_TO_37 * (10 ** 9 + 7)) == [
        (10 ** 9 + 7, 1), (399165290221, 1), (798330580441, 1)]
    assert kempner_mu(PSEUDOPRIME_TO_37) == 798330580441
