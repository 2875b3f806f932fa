import random
import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRIMES_TO_200,
    divmod_monic,
    equivalent_eval,
    eval_vector,
    kempner_mu_scan,
    newton_coefficients,
    prime_and_long_poly,
)
from nullpoly import modulus, polys
from nullpoly.canonical import (
    _SPLIT_MIN_MU,
    _VALUES_CROSSOVER,
    CanonicalForm,
    _kempner_tail,
    _newton_coords_by_values,
    _values_tables,
    canonical_form,
    equivalent,
    reduce_degree,
)
from nullpoly.construct import least_monic_null
from nullpoly.modulus import crt_plan, kempner_basis, kempner_mu
from nullpoly.oracle import _fold, _newton_coords
from nullpoly.polys import Polynomial, parse_polynomial, reduce_coeffs
from nullpoly.primes import prime_factorization

X = Polynomial((0, 1))


def test_reduce_degree_examples():
    assert reduce_degree(Polynomial((0, 0, 0, 1)), 3) == X  # x^3 -> x mod 3
    f = Polynomial((2, 1, 5))
    assert reduce_degree(f, 9) == reduce_coeffs(f, 9)  # already below mu(9)=6
    assert reduce_degree(kempner_basis(8), 8) == Polynomial(())


def test_reduce_degree_bounds_and_function():
    rng = random.Random(17)
    for m in range(2, 101):
        mu = kempner_mu(m)
        for _ in range(3):
            f = Polynomial([rng.randrange(-m, m) for _ in range(rng.randrange(0, 14))])
            r = reduce_degree(f, m)
            d = reduce_coeffs(r, m).degree
            assert d is None or d < mu
            for x in range(m):
                assert f.eval_mod(x, m) == r.eval_mod(x, m)


def test_canonical_form_examples():
    assert canonical_form(Polynomial((0, 0, 0, 1)), 3) == canonical_form(X, 3)
    assert canonical_form(X, 8) == CanonicalForm(8, (0, 1, 0, 0))
    # adding a multiple of the least monic null polynomial changes nothing
    h = least_monic_null(3, 2)
    f = Polynomial((4, 7, 2, 1))
    assert canonical_form(f, 9) == canonical_form(f + h * Polynomial((3, 1, 2)), 9)


def test_canonical_form_shape():
    for m in (2, 6, 8, 9, 12):
        cf = canonical_form(Polynomial((1, 2, 3, 4, 5, 6, 7)), m)
        assert len(cf.a) == kempner_mu(m)
        assert all(0 <= a < m for a in cf.a)


def test_equivalent_examples():
    assert equivalent(parse_polynomial("x^4-2x^3+3x^2-2x"), Polynomial(()), 8)
    assert equivalent(Polynomial((0, 0, 1)), X, 2)
    for m in (2, 3, 7, 12):
        assert not equivalent(X + Polynomial((1,)), X, m)


def test_completeness_of_the_invariant():
    # canonical forms are equal exactly when the value tables agree
    rng = random.Random(2718)
    for m in range(2, 49):
        pairs = []
        for _ in range(12):
            f = Polynomial([rng.randrange(-99, 99) for _ in range(rng.randrange(0, 11))])
            g = Polynomial([rng.randrange(-99, 99) for _ in range(rng.randrange(0, 11))])
            pairs.append((f, g))
        for _ in range(4):
            f = Polynomial([rng.randrange(-99, 99) for _ in range(rng.randrange(0, 11))])
            null = m * Polynomial([rng.randrange(-9, 9) for _ in range(4)])
            pairs.append((f, f + null))
        for f, g in pairs:
            same_form = canonical_form(f, m) == canonical_form(g, m)
            same_function = eval_vector(f, m) == eval_vector(g, m)
            assert same_form == same_function, (m, f, g)


def test_agrees_with_difference_oracle():
    rng = random.Random(31415)
    for _ in range(300):
        m = rng.randrange(2, 40)
        f = Polynomial([rng.randrange(0, m) for _ in range(rng.randrange(0, 9))])
        g = Polynomial([rng.randrange(0, m) for _ in range(rng.randrange(0, 9))])
        assert equivalent(f, g, m) == equivalent_eval(f, g, m)


def test_degree_one_rigidity():
    # two polynomials of degree <= 1 are equivalent iff congruent: the map
    # (a0, a1) -> value table is injective on reduced coefficients
    for m in range(2, 21):
        seen = {}
        for a0 in range(m):
            for a1 in range(m):
                f = Polynomial((a0, a1))
                key = eval_vector(f, m)
                assert key not in seen, (m, seen[key], f)
                seen[key] = f


def test_degree_below_p_rigidity_mod_prime_powers():
    # mod p^d, polynomials of degree <= p-1 with reduced coefficients induce
    # pairwise distinct functions
    from itertools import product

    for p, d in [(2, 2), (2, 3), (3, 2)]:
        m = p ** d
        seen = set()
        for coeffs in product(range(m), repeat=p):
            key = eval_vector(Polynomial(coeffs), m)
            assert key not in seen
            seen.add(key)


def test_constant_term_lemma():
    # equivalent polynomials agree at x = 0
    rng = random.Random(55)
    for _ in range(100):
        m = rng.randrange(2, 30)
        f = Polynomial([rng.randrange(0, m) for _ in range(6)])
        g = f + m * Polynomial([rng.randrange(-5, 5) for _ in range(6)])
        g = g + kempner_basis(m) * Polynomial((rng.randrange(0, m),))
        assert equivalent(f, g, m)
        assert (f(0) - g(0)) % m == 0


def test_reduce_degree_requires_m_at_least_2():
    # canonical_form refuses the same moduli with the same message
    for m in (1, 0, -4):
        for fn in (reduce_degree, canonical_form):
            with pytest.raises(ValueError, match="^modulus must be >= 2$"):
                fn(X, m)


def test_reduce_degree_does_not_factor_the_modulus():
    # rho cannot split this semiprime in its budget; the transform ends at
    # deg f + 1 < mu(m) without knowing mu(m)
    m = (10 ** 18 + 3) * (10 ** 18 + 9)
    start = time.perf_counter()
    assert reduce_degree(parse_polynomial("x^2+1"), m) == parse_polynomial("x^2+1")
    assert time.perf_counter() - start < 0.1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.data())
def test_reduce_degree_is_the_basis_remainder(m, data):
    # the truncated falling-factorial sum is the remainder of long division
    # by x(x-1)...(x-mu+1), as polynomials mod m, not only as functions
    n = data.draw(st.integers(0, 3 * kempner_mu_scan(m) + 30))
    f = Polynomial(data.draw(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=n + 1, max_size=n + 1)))
    assert reduce_degree(f, m) == divmod_monic(f, kempner_basis(m), m)[1]


def test_reduce_degree_mid_size_is_the_basis_remainder():
    # mu(2 * 997) = 997: 503 division steps on 4-byte slots, struct's widest
    m = 2 * 997
    rng = random.Random(m)
    f = Polynomial([rng.randrange(-10 ** 30, 10 ** 30) for _ in range(1500)])
    assert reduce_degree(f, m) == divmod_monic(f, kempner_basis(m), m)[1]


def test_reduce_degree_of_a_long_polynomial_mod_a_semiprime_is_fast():
    # mu(2 * 9973) = 9973, on 6-byte slots; the cold call builds the basis
    # mod m as well
    m, mu = 2 * 9973, 9973
    rng = random.Random(m)
    f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(12000)] + [1])
    _kempner_tail.cache_clear()
    start = time.perf_counter()
    r = reduce_degree(f, m)
    assert time.perf_counter() - start < 2.0
    assert r.degree < mu and all(0 <= c < m for c in r.coeffs)
    for x in (rng.randrange(m) for _ in range(50)):
        assert r.eval_mod(x, m) == f.eval_mod(x, m)
    # below mu there is nothing to divide: the residues, with no basis built
    g = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(6000)] + [1])
    start = time.perf_counter()
    assert reduce_degree(g, m) == reduce_coeffs(g, m)
    assert time.perf_counter() - start < 0.1


def test_the_basis_is_cached_per_modulus():
    _kempner_tail.cache_clear()
    f = Polynomial(range(1, 100))
    first = reduce_degree(f, 215)
    assert reduce_degree(f, 215) == first
    info = _kempner_tail.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert info.maxsize is not None


_coeff_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=25)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 30), _coeff_lists, _coeff_lists)
def test_canonical_form_ignores_multiples_of_the_tower(p, d, f, g):
    # the paper's least monic null polynomial H(p, d) and the Newton
    # transform agree: adding any multiple of H never moves the invariant
    f, g = Polynomial(f), Polynomial(g)
    h = least_monic_null(p, d)
    assert canonical_form(f + h * g, p ** d) == canonical_form(f, p ** d)


def _newton_mod(f, p):
    """a_k mod p, k < p, from the exact forward differences of f."""
    a = [c % p for c in newton_coefficients(f)[:p]]
    return a + [0] * (p - len(a))


@settings(max_examples=40, deadline=None)
@given(prime_and_long_poly())
def test_canonical_form_after_the_fold_is_the_newton_oracle(case):
    f, p = case
    assert canonical_form(f, p) == CanonicalForm(p, tuple(_newton_mod(f, p)))


@settings(max_examples=60, deadline=None)
@given(prime_and_long_poly())
def test_values_path_is_the_newton_oracle(case):
    # called directly, so it is checked whichever side of the crossover
    # canonical_form would put the fold on
    f, p = case
    assert _newton_coords_by_values(_fold(f.coeffs, p) or [0], p) == _newton_mod(f, p)


def test_values_path_on_every_prime_to_200():
    rng = random.Random(200)
    for p in PRIMES_TO_200:
        for n in (1, 2, p - 1, p, 2 * p + 1):
            f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n - 1)] + [rng.randrange(1, p)])
            assert _newton_coords_by_values(_fold(f.coeffs, p), p) == _newton_mod(f, p), (p, n)


def test_values_path_through_the_decimal_product():
    # mod 9973 a fold of 1200 terms packs both products, of 12- and 13-digit
    # slots, past _DECIMAL_MIN_DIGITS: they take libmpdec's transform
    p, n = 9973, 1200
    assert (n + p - 2) * 12 >= polys._DECIMAL_MIN_DIGITS
    rng = random.Random(p)
    c = [rng.randrange(p) for _ in range(n - 1)] + [1]
    assert _newton_coords_by_values(c, p) == list(_newton_coords(c, p)) + [0] * (p - n)


def test_values_path_is_the_same_cold_and_warm():
    # the per-prime tables are built on the first call and read after it
    rng = random.Random(457)
    for p in (457, 461):
        f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(p + 3)] + [1])
        _values_tables.cache_clear()
        cold = canonical_form(f, p)
        warm = canonical_form(f, p)
        assert cold == warm == CanonicalForm(p, tuple(_newton_mod(f, p)))
        info = _values_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_values_tables_cache_is_bounded():
    _values_tables.cache_clear()
    size = _values_tables.cache_info().maxsize
    assert size is not None
    for p in PRIMES_TO_200[:size + 3]:
        _newton_coords_by_values([1, 1], p)
        assert _values_tables.cache_info().currsize <= size


def test_canonical_form_on_both_sides_of_the_crossover():
    # folds of length n <= n0 take the transform, longer ones the values
    p = 461
    n0 = isqrt(_VALUES_CROSSOVER * p)
    assert n0 + 2 < p
    rng = random.Random(p)
    for n in (n0 - 1, n0, n0 + 1, n0 + 2):
        f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n - 1)] + [1])
        assert canonical_form(f, p) == CanonicalForm(p, tuple(_newton_mod(f, p))), n


def test_prime_moduli_are_fast():
    # the values path costs about p steps: a short fold must not take it
    start = time.perf_counter()
    cf = canonical_form(Polynomial((1, 0, 0, 1)), 99991)
    assert time.perf_counter() - start < 0.2
    assert cf.a[:4] == (1, 1, 6, 6) and not any(cf.a[4:])
    p = 9973
    rng = random.Random(p)
    f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(15000)] + [1])
    start = time.perf_counter()
    cf = canonical_form(f, p)
    assert time.perf_counter() - start < 3.0
    start = time.perf_counter()
    r = reduce_degree(f, p)
    assert time.perf_counter() - start < 3.0
    assert r.degree < p and canonical_form(r, p) == cf
    for x in rng.sample(range(p), 3):
        # f(x) = sum_k a_k * C(x, k), and r is the same function
        value, binom = 0, 1
        for k in range(x + 1):
            value += cf.a[k] * binom
            binom = binom * (x - k) // (k + 1)
        assert value % p == f.eval_mod(x, p) == r.eval_mod(x, p)


@settings(max_examples=40, deadline=None)
@given(prime_and_long_poly())
def test_reduce_degree_after_the_fold_is_the_basis_remainder(case):
    f, p = case
    assert reduce_degree(f, p) == divmod_monic(f, kempner_basis(p), p)[1]


# Composite moduli for canonical_form's plan, mu(m) in the comments:
# semiprimes, prime powers p**d with d >= 2, three or more parts, and m on
# both sides of _SPLIT_MIN_MU. A prime power is its one part whatever its
# mu; m of two or more prime powers is split from mu(m) = _SPLIT_MIN_MU on
# (2**20 * 3**5 among them) and one transform mod m below it.
SPLIT_MODULI = (
    86, 106, 141, 371, 2 * 97, 3 * 89,           # k * q: 43, 53, 47, 53, 97, 89
    121, 169, 343, 625, 5 ** 5, 7 ** 4,          # p**d: 22, 26, 21, 20, 25, 28
    3 ** 5 * 29, 8 * 23, 2 * 7 ** 3,             # with a part p**d: 29, 23, 21
    2 ** 10 * 23, 2 ** 20 * 3 ** 5,              # 23, 24
    2 * 3 * 29, 8 * 3 * 43, 3 * 5 * 121,         # three parts: 29, 43, 22
    4 * 9 * 25 * 7 * 11 * 23,                    # six parts: 23
    12, 26, 38, 49, 125, 360, 1001, 2 * 9 * 125, # below the cutoff: 4..19
)


def test_split_moduli_cover_both_sides_of_the_cutoff():
    mus = [kempner_mu_scan(m) for m in SPLIT_MODULI]
    assert sum(mu < _SPLIT_MIN_MU for mu in mus) == 8
    assert min(mus) < _SPLIT_MIN_MU <= max(mus)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SPLIT_MODULI), st.data())
def test_canonical_form_mod_a_composite_is_the_newton_oracle(m, data):
    # the oracle is the exact forward differences of f, reduced mod m; it
    # shares no code with the transform, the fold, the division by the
    # basis mod p**d or the CRT
    mu = kempner_mu_scan(m)
    n = data.draw(st.integers(0, 3 * mu))
    f = Polynomial(data.draw(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=n + 1, max_size=n + 1)))
    a = [c % m for c in newton_coefficients(f)[:mu]]
    assert canonical_form(f, m) == CanonicalForm(m, tuple(a + [0] * (mu - len(a))))


@pytest.mark.parametrize("m", [2 ** 30, 3 ** 20, 5 ** 9, 101 ** 2, 2 ** 20 * 3 ** 5, 8, 49, 125, 457])
def test_long_forms_mod_prime_power_parts_are_the_newton_oracle(m):
    # f far past mu: each part p**d, d >= 2, is divided by the basis mod p**d
    # before its transform, and a prime's is folded; a prime or a prime power
    # below _SPLIT_MIN_MU (8, 49, 125) is its one part too. The oracle is the
    # exact forward differences of f at 0, ..., mu - 1, reduced mod m
    mu = kempner_mu_scan(m)
    rng = random.Random(m)
    for n in (mu - 1, mu, mu + 1, 3 * mu, 20 * mu):
        f = Polynomial([rng.randrange(-10 ** 30, 10 ** 30) for _ in range(n)] + [1])
        a = list(newton_coefficients(f, mu, m))
        assert canonical_form(f, m) == CanonicalForm(m, tuple(a + [0] * (mu - len(a)))), n


def test_reduce_degree_and_the_parts_share_one_basis():
    # 121 = 11**2, mu 22, is split into its one part
    m, mu = 121, 22
    _kempner_tail.cache_clear()
    canonical_form(Polynomial(range(1, mu + 1)), m)  # nothing past mu to divide
    assert _kempner_tail.cache_info().currsize == 0
    reduce_degree(Polynomial(range(1, 60)), m)
    canonical_form(Polynomial(range(2, 50)), m)  # 48 coefficients: read the tail
    info = _kempner_tail.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_long_forms_mod_a_composite_are_fast():
    # one transform mod m takes 1.8-1.9 s on each; split, the large prime's
    # part is a fold and its values, the small parts folds and short
    # transforms
    for m in (2 * 9973, 6 * 4999):
        rng = random.Random(m)
        f = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(6000)] + [1])
        crt_plan.cache_clear()
        start = time.perf_counter()
        cf = canonical_form(f, m)
        assert time.perf_counter() - start < 0.5, m
        assert len(cf.a) == kempner_mu(m)
        for x in rng.sample(range(m), 3):
            # f(x) = sum_k a_k * C(x, k)
            value, binom = 0, 1
            for k in range(min(x + 1, len(cf.a))):
                value += cf.a[k] * binom
                binom = binom * (x - k) // (k + 1)
            assert value % m == f.eval_mod(x, m), (m, x)


def test_a_repeated_modulus_is_factored_once(monkeypatch):
    calls = []

    def counting_factor(m):
        calls.append(m)
        return prime_factorization(m)

    monkeypatch.setattr(modulus, "factor", counting_factor)
    f = Polynomial(range(1, 80))
    for m in (371, 12, 121, 457):  # split, one transform, one part, a prime
        crt_plan.cache_clear()
        calls.clear()
        first = canonical_form(f, m)
        assert canonical_form(f, m) == first
        assert calls == [m]


def test_the_plan_cache_is_bounded():
    crt_plan.cache_clear()
    size = crt_plan.cache_info().maxsize
    assert size is not None
    for m in range(4, 4 + 3 * size, 3):
        canonical_form(Polynomial((1, 2, 3)), m)
        assert crt_plan.cache_info().currsize <= size
