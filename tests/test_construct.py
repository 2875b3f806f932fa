import time
from math import log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_null_eval, kempner_mu_scan, least_monic_null_schoolbook, scaled_tower_value
from nullpoly import construct
from nullpoly.construct import (
    build_tower,
    digit_vector,
    least_monic_null,
    null_bits,
    omega1_prime_power,
    repunit,
    tower_bits,
)
from nullpoly.modulus import factor, kempner_basis, kempner_mu, omega0_composite
from nullpoly.oracle import is_null_binomial
from nullpoly.polys import Polynomial, parse_polynomial, reduce_coeffs

X = Polynomial((0, 1))


def test_falling_factorial_examples():
    # for a prime p, kempner_basis(p) is the falling factorial x(x-1)...(x-p+1)
    assert kempner_basis(2) == Polynomial((0, -1, 1))
    assert kempner_basis(3) == parse_polynomial("x^3-3x^2+2x")
    # congruent to x^p - x coefficient-wise mod p
    for p in (2, 3, 5, 7):
        xp_minus_x = Polynomial((0,) * p + (1,)) - X
        assert not reduce_coeffs(kempner_basis(p) - xp_minus_x, p)


def test_repunit_values():
    assert [repunit(2, n) for n in range(5)] == [0, 1, 3, 7, 15]
    assert repunit(3, 3) == 13
    assert repunit(7, 0) == 0
    assert repunit(5, 2) == 6


def test_tower_small_levels():
    assert build_tower(2, 2) == (
        Polynomial((0, -1, 1)),
        Polynomial((0, 2, -1, -2, 1)),  # (x^2-x)(x^2-x-2)
    )
    assert build_tower(3, 1) == (kempner_basis(3),)


def test_each_tower_level_is_built_once():
    build_tower.cache_clear()
    for p in (2, 3, 5):
        misses = build_tower.cache_info().misses
        build_tower(p, 2)
        assert build_tower.cache_info().misses == misses + 2
        for n in (3, 4):
            tower = build_tower(p, n)
            assert build_tower.cache_info().misses == misses + n
            lower = build_tower(p, n - 1)
            assert tower[:n - 1] == lower and all(a is b for a, b in zip(tower, lower))


def test_least_monic_null_matches_schoolbook_products():
    # sizes where least_monic_null's products reach both Kronecker paths
    for p, d in [(2, 100), (3, 300), (5, 200), (7, 148)]:
        assert least_monic_null(p, d) == least_monic_null_schoolbook(p, d)


def test_tower_degrees_and_monic():
    for p, nmax in [(2, 4), (3, 3), (5, 2)]:
        t = build_tower(p, nmax)
        assert len(t) == nmax
        for k, g in enumerate(t, 1):
            assert g.degree == p ** k
            assert g.coeffs[-1] == 1


def test_tower_levels_are_null_to_exact_order():
    # null mod p**repunit(p,n), and NOT null mod the next power of p:
    # witness x = p**n
    for p in (2, 3):
        for n, g in enumerate(build_tower(p, 3), 1):
            order = p ** repunit(p, n)
            assert is_null_binomial(g, order)
            assert not is_null_binomial(g, order * p)
            assert g(p ** n) % (order * p) != 0


def test_tower_matches_value_recursion():
    for p in (2, 3):
        for n, g in enumerate(build_tower(p, 3), 1):
            scale = p ** repunit(p, n)
            for x in range(-5, p ** n + 5):
                assert g(x) == scale * scaled_tower_value(p, n, x)


def test_scaled_tower_value_base_cases():
    assert scaled_tower_value(3, 0, 42) == 42
    # level 1 at x = 2i+j is ≡ -i mod 2
    for i in range(-4, 8):
        for j in range(2):
            assert scaled_tower_value(2, 1, 2 * i + j) % 2 == (-i) % 2


def test_scaled_tower_residue_coverage():
    # for fixed j < p**n the values at j, p**n + j, ..., cover all residues
    for p in (2, 3):
        for n in (1, 2, 3):
            for j in range(p ** n):
                seen = {
                    scaled_tower_value(p, n, i * p ** n + j) % p for i in range(p)
                }
                assert seen == set(range(p))


def test_scaled_tower_periodicity():
    # as a function mod p, level n has period p**(n+1)
    for p in (2, 3):
        for n in (1, 2, 3):
            period = p ** (n + 1)
            for x in range(2 * period):
                assert (
                    scaled_tower_value(p, n, x + period) % p
                    == scaled_tower_value(p, n, x) % p
                )


def test_digit_vector_examples():
    assert digit_vector(2, 3) == (0, 1)
    assert digit_vector(2, 2) == (2,)
    assert digit_vector(3, 3) == (3,)
    assert digit_vector(3, 9) == (1, 2)
    assert digit_vector(2, 9) == (2, 0, 1)


def test_digit_vector_closed_form_correction():
    # d*(p-1)+1 an exact power of p is where the log closed form breaks;
    # the iterated search must still pick the larger index
    assert len(digit_vector(2, 3)) == 2
    assert len(digit_vector(3, 4)) == 2
    assert len(digit_vector(2, 7)) == 3


def test_digit_identity_wide():
    for p in (2, 3, 5, 7):
        for d in range(1, 200):
            digits = digit_vector(p, d)
            assert sum(e * repunit(p, i) for i, e in enumerate(digits, 1)) == d


def _recursion_digits(p: int, d: int) -> tuple[int, ...]:
    # the defining three-case recursion, tracked on exponent vectors:
    # multiply by the base level, or carry a saturated digit upward
    digits = [1]
    for _ in range(d - 1):
        if max(digits) <= p - 1:
            digits[0] += 1
        else:
            i = digits.index(p)
            assert all(e == 0 for e in digits[:i])
            digits[i] = 0
            if i + 1 == len(digits):
                digits.append(0)
            digits[i + 1] += 1
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def test_digit_vector_matches_recursion():
    for p in (2, 3, 5, 7):
        for d in range(1, 61):
            assert digit_vector(p, d) == _recursion_digits(p, d)


def test_least_monic_null_matches_recursion_polynomials():
    for p, dmax in [(2, 50), (3, 30), (5, 15)]:
        tower = build_tower(p, len(digit_vector(p, dmax)))
        for d in range(1, dmax + 1):
            digits = _recursion_digits(p, d)
            h = Polynomial((1,))
            for i, e in enumerate(digits):
                if e:
                    h = h * tower[i] ** e
            assert h == least_monic_null(p, d)


def test_least_monic_null_examples():
    assert least_monic_null(2, 2) == Polynomial((0, 0, 1, -2, 1))
    h23 = least_monic_null(2, 3)
    assert h23 == Polynomial((0, 2, -1, -2, 1))
    assert h23.degree == 4
    # the alternative monic null quartic mod 8 has the same degree
    alt = parse_polynomial("x^4-2x^3+3x^2-2x")
    assert is_null_eval(alt, 8) and is_null_eval(reduce_coeffs(h23, 8), 8)
    assert least_monic_null(3, 4).degree == 9


def test_least_monic_null_builds_the_digit_vector_once(monkeypatch):
    calls = []
    real = construct.digit_vector
    monkeypatch.setattr(construct, "digit_vector", lambda p, d: calls.append(1) or real(p, d))
    assert least_monic_null(3, 4).degree == 9
    assert len(calls) == 1


def test_least_monic_null_nullity_grid():
    # all towers with p^d <= 1e5 for the first six primes, plus two larger
    # primes at d = 1
    for p in (2, 3, 5, 7, 11, 13):
        d = 1
        while p ** d <= 10 ** 5:
            h = least_monic_null(p, d)
            assert is_null_eval(h, p ** d)
            d += 1
    for p in (101, 997):
        assert is_null_eval(least_monic_null(p, 1), p)


def test_omega1_closed_forms():
    for p in (3, 5, 7):
        for d in range(2, p + 1):
            assert omega1_prime_power(p, d) == p * d
    for p in (2, 3, 5):
        assert omega1_prime_power(p, p + 1) == p * p
    for p, i in [(2, 1), (2, 2), (3, 1)]:
        assert omega1_prime_power(p, p ** i) == (p - 1) * p ** i + p


def test_omega1_spot_values():
    assert omega1_prime_power(2, 3) == 4
    assert omega1_prime_power(5, 3) == 15
    assert omega1_prime_power(3, 4) == 9


def test_omega1_step_lemma():
    for p in (2, 3, 5):
        prev = omega1_prime_power(p, 1)
        assert prev == p
        for d in range(2, 61):
            cur = omega1_prime_power(p, d)
            assert cur - prev in (0, p)
            assert cur % p == 0
            prev = cur


def test_omega0():
    assert omega0_composite(factor(2 ** 5)) == 2
    assert omega0_composite(factor(7)) == 7
    # witness: p^(d-1) * (x^p - x) is null mod p^d
    p, d = 3, 3
    witness = p ** (d - 1) * (Polynomial((0,) * p + (1,)) - X)
    assert is_null_eval(witness, p ** d)


def test_only_monic_null_of_degree_p_mod_p():
    # every degree-p null polynomial mod p is a scalar multiple of x^p - x
    from itertools import product

    for p in (2, 3):
        xpx = reduce_coeffs(Polynomial((0,) * p + (1,)) - X, p)
        for lead in range(1, p):
            for tail in product(range(p), repeat=p):
                f = Polynomial(tail + (lead,))
                if is_null_eval(f, p):
                    assert reduce_coeffs(f, p) == reduce_coeffs(lead * xpx, p)


def test_kempner_mu_examples():
    assert kempner_mu(8) == 4
    assert kempner_mu(9) == 6
    assert kempner_mu(7) == 7
    assert kempner_mu(4) == 4
    with pytest.raises(ValueError):
        kempner_mu(1)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10 ** 5 - 1))
def test_kempner_mu_matches_factorial_scan(m):
    # the degree theorem (max of omega1 over the prime powers of m) against
    # Kempner's definition
    assert kempner_mu(m) == kempner_mu_scan(m)


def test_kempner_basis_examples():
    k8 = kempner_basis(8)
    assert k8 == parse_polynomial("x^4-6x^3+11x^2-6x")
    assert is_null_eval(k8, 8)
    assert kempner_basis(4) == k8
    for p in (3, 5):
        assert kempner_basis(p) == build_tower(p, 1)[0]


def _kempner_null_mod(m: int) -> bool:
    # build the product with coefficients already reduced mod m; same verdict
    f = Polynomial((1,))
    for i in range(kempner_mu(m)):
        f = reduce_coeffs(f * Polynomial((-i, 1)), m)
    return is_null_binomial(f, m)


def test_kempner_basis_null_sweep():
    for m in range(2, 2001):
        mu = kempner_mu(m)
        if m <= 300 or mu <= 100:
            assert _kempner_null_mod(m)
        # the factorial threshold itself: mu! ≡ 0, (mu-1)! not ≡ 0
        acc = 1
        for t in range(1, mu):
            acc = acc * t % m
        assert acc != 0
        assert acc * mu % m == 0


def test_cross_oracle_degree_agreement_small():
    for p in (2, 3):
        for d in range(1, 21):
            h = least_monic_null(p, d)
            assert h.degree == omega1_prime_power(p, d) == kempner_mu_scan(p ** d)


def test_tower_verification_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tower(4, 2)
    with pytest.raises(ValueError):
        build_tower(3, 0)


@pytest.mark.parametrize("build, args, degree", [
    (least_monic_null, (2, 10 ** 400), str(omega1_prime_power(2, 10 ** 400))),
    (build_tower, (2, 100), "2^100"),
], ids=["H-2^(10^400)", "G-2^100"])
def test_a_degree_no_list_can_hold_is_refused_before_the_tower(build, args, degree):
    # without the refusal H ends in a RecursionError, building one tower
    # level a call, and G(2, 100) is built level by level and does not end
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        build(*args)
    assert time.perf_counter() - start < 0.1
    assert str(refusal.value) == f"degree {degree} is too large for a coefficient list"


def _bound_grid():
    for p in (2, 3, 5, 7):
        for d in range(1, 60):
            yield "H", p, d
    for p in (11, 13, 101):
        for d in range(1, 6):
            yield "H", p, d
    for p in (2, 3, 5, 7, 11, 13, 101):
        n = 1
        while p ** n <= 5000:
            yield "G", p, n
            n += 1


def test_coefficient_bounds_are_never_below_the_coefficients():
    for family, p, d in _bound_grid():
        if family == "H":
            f, bits = least_monic_null(p, d), null_bits(p, digit_vector(p, d))
        else:
            f, bits = build_tower(p, d)[-1], tower_bits(p, d)[-1]
        assert bits >= log2(max(map(abs, f.coeffs))), (family, p, d, bits)


@pytest.mark.parametrize("build, args, what", [
    (build_tower, (2, 30), "tower level 30 for p=2"),
    (least_monic_null, (2, 10 ** 7), "the least monic null polynomial mod 2^10000000"),
], ids=["G(2,30)", "H(2,10^7)"])
def test_coefficients_too_large_to_build_are_refused_before_the_tower(build, args, what):
    # each coefficient bound is a handful of lgamma calls, one a tower level
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        build(*args)
    assert time.perf_counter() - start < 1.0
    assert str(refusal.value) == f"{what}, by a bound on its coefficients, has over 8388608 bits, too large to build"
