import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRIMES_TO_200,
    brute_least_monic_degree,
    equivalent_eval,
    eval_vector,
    falling_coords_by_division,
    from_falling,
    is_null_eval,
    newton_coefficients,
)
from nullpoly import oracle
from nullpoly.construct import least_monic_null
from nullpoly.modulus import kempner_basis, kempner_mu
from nullpoly.oracle import is_null_binomial, null_order, null_witness
from nullpoly.polys import Polynomial, parse_polynomial, product

X = Polynomial((0, 1))


def test_is_null_eval_examples():
    assert is_null_eval(Polynomial((0, -1, 0, 0, 0, 1)), 5)  # x^5 - x
    assert is_null_eval(parse_polynomial("x^4-2x^3+3x^2-2x"), 8)
    assert not is_null_eval(Polynomial((0, -1, 1)), 4)  # fails at x=2


def test_newton_coefficients_examples():
    # x^4-2x^3+3x^2-2x = 8*C(x,2) + 24*C(x,3) + 24*C(x,4)
    assert newton_coefficients(parse_polynomial("x^4-2x^3+3x^2-2x")) == (0, 0, 8, 24, 24)
    assert newton_coefficients(Polynomial((0, 0, 1))) == (0, 1, 2)
    assert newton_coefficients(Polynomial((7,))) == (7,)
    assert newton_coefficients(Polynomial(())) == ()


def test_newton_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        f = Polynomial([rng.randrange(-30, 30) for _ in range(rng.randrange(1, 8))])
        a = newton_coefficients(f)
        for x in range(len(f.coeffs) + 3):
            assert f(x) == sum(ak * math.comb(x, k) for k, ak in enumerate(a))


def test_is_null_binomial_examples():
    f = parse_polynomial("x^4-2x^3+3x^2-2x")
    assert is_null_binomial(f, 8)
    assert not is_null_binomial(f, 16)  # the coordinate 8 survives mod 16
    assert is_null_binomial(Polynomial(()), 997)


def test_null_agreement_random():
    # 2000 random instances, deg <= 12, m <= 512: the definitional scan and
    # the Newton criterion never disagree
    rng = random.Random(99)
    for _ in range(2000):
        m = rng.randrange(2, 513)
        deg = rng.randrange(0, 13)
        f = Polynomial([rng.randrange(0, m) for _ in range(deg + 1)])
        assert is_null_eval(f, m) == is_null_binomial(f, m)


def test_null_agreement_structured():
    cases = []
    for p, d in [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 2), (7, 1)]:
        h = least_monic_null(p, d)
        cases += [(h, p ** d), (h, p ** (d + 1)), (3 * h, p ** d), (h * X, p ** d)]
    for m in (4, 6, 8, 9, 12, 30, 72):
        k = kempner_basis(m)
        cases += [(k, m), (k, 2 * m), (k + Polynomial((1,)), m)]
    for f, m in cases:
        assert is_null_eval(f, m) == is_null_binomial(f, m)


def test_null_order_examples():
    assert null_order(least_monic_null(2, 3), 2, 10) == 3
    assert null_order(Polynomial((0, -1, 1)), 2, 10) == 1
    assert null_order(Polynomial((0, -4, 4)), 2, 5) == 3
    assert null_order(X, 2, 5) == 0


def test_null_order_refuses_a_modulus_that_is_not_prime():
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="is not prime"):
            null_order(X, p, 3)


def test_null_order_clamps_a_huge_d_max():
    # without the clamp this builds 3**(10**12)
    h = least_monic_null(5, 200)
    start = time.perf_counter()
    assert null_order(parse_polynomial("x^3-x"), 3, 10 ** 12) == 1
    assert null_order(Polynomial(()), 3, 10 ** 12) == 10 ** 12
    assert null_order(Polynomial(()), 3, -2) == 0
    assert null_order(Polynomial((2 ** 40,)), 2, 10 ** 12) == 40
    assert null_order(h, 5, 10 ** 6) == 200
    # the clamp v_p(100003!) = 1 sends f to the fold by x^p - x, not to a
    # transform of 100004 terms mod p (about 10^10 steps)
    assert null_order(parse_polynomial("x^100003-x"), 100003, 64) == 1
    assert time.perf_counter() - start < 1.0


def test_equivalent_eval_examples():
    assert equivalent_eval(Polynomial((0, 0, 0, 1)), X, 3)  # x^3 ~ x mod 3
    assert not equivalent_eval(Polynomial((0, 0, 1)), X, 4)
    f = Polynomial((3, 1, 4, 1))
    assert equivalent_eval(f, f + 12 * Polynomial((0,) * 7 + (1,)), 12)


def test_equivalent_eval_is_equivalence_relation():
    rng = random.Random(321)
    for _ in range(50):
        m = rng.randrange(2, 40)
        f, g, h = (
            Polynomial([rng.randrange(0, m) for _ in range(5)]) for _ in range(3)
        )
        assert equivalent_eval(f, f, m)
        assert equivalent_eval(f, g, m) == equivalent_eval(g, f, m)
        if equivalent_eval(f, g, m) and equivalent_eval(g, h, m):
            assert equivalent_eval(f, h, m)
        # adding any null polynomial never changes the class
        null = m * h
        assert equivalent_eval(f, f + null, m)


def test_null_witness():
    f = Polynomial((0, -1, 1))
    assert null_witness(f, 4) == 2
    assert null_witness(parse_polynomial("x^4-2x^3+3x^2-2x"), 8) is None
    # a witness always sits at or below the index of a failing Newton coord
    g = parse_polynomial("x^4-2x^3+3x^2-2x")
    w = null_witness(g, 16)
    assert w is not None and g.eval_mod(w, 16) != 0


def test_brute_least_monic_degree():
    assert brute_least_monic_degree(4, 5) == 4 == kempner_mu(4)
    assert brute_least_monic_degree(2, 3) == 2 == kempner_mu(2)
    assert brute_least_monic_degree(3, 4) == 3 == kempner_mu(3)
    assert brute_least_monic_degree(5, 4) is None  # mu(5)=5 exceeds the cap


def test_brute_least_monic_degree_guards():
    with pytest.raises(ValueError):
        brute_least_monic_degree(17, 3)
    with pytest.raises(ValueError):
        brute_least_monic_degree(8, 7)


def test_falling_factorial_is_least_null_for_prime():
    for p in (2, 3, 5):
        assert null_order(kempner_basis(p), p, 3) >= 1
        assert brute_least_monic_degree(p, min(p, 6)) == p


@st.composite
def _mostly_null(draw, moduli, max_degree, min_degree=0):
    """(f, m) with f built from falling-factorial coordinates b_k: half the
    time each b_k is a multiple of m / gcd(m, k!), which makes f null, and
    then one coordinate may be nudged, which usually breaks that."""
    m = draw(moduli)
    n = draw(st.integers(min_degree, max_degree))
    b = draw(st.lists(st.integers(-m, m), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        b = [bk * (m // math.gcd(m, math.factorial(k))) for k, bk in enumerate(b)]
        if draw(st.booleans()):
            b[draw(st.integers(0, n))] += draw(st.integers(1, m))
    return from_falling(b), m


# Moduli of 34 to 401 bits, where _newton_coords runs its Horner tail on
# f of 128 coefficients or more: prime powers and composites, mu(m) from
# 36 (2 ** 33) to 404 (2 ** 400).
MULTI_WORD = (2 ** 33, 2 ** 100, 3 ** 60, 5 ** 40, 2 ** 40 * 3 ** 30 * 7, 7 ** 30 * 11, 2 ** 400)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_mostly_null(st.integers(2, 600), 40), _mostly_null(st.sampled_from(MULTI_WORD), 220, 100)))
def test_newton_and_window_tests_match_the_definition(case):
    # every residue below a small m; below a multi-word m the values at
    # x <= deg f, which fix every forward difference and so the function
    f, m = case
    window = eval_vector(f, m) if m <= 600 else [f(x) % m for x in range(len(f.coeffs))]
    first_nonzero = next((x for x, v in enumerate(window) if v), None)
    assert is_null_binomial(f, m) == (first_nonzero is None)
    assert null_witness(f, m) == first_nonzero


@st.composite
def _coords_case(draw):
    """(coefficients, m): m a prime power, a composite or any integer from
    2**20 to 2**400, and up to 400 coefficients, often more than mu(m)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    m = draw(st.one_of(
        st.integers(math.ceil(20 / math.log2(p)), int(400 / math.log2(p))).map(lambda d: p ** d),
        st.sampled_from([2 ** 40 * 3 ** 30 * 7, 2 ** 20 * 3 ** 20, 5 ** 30 * 7 ** 20 * 13]),
        st.integers(2 ** 20, 2 ** 400),
    ))
    n = draw(st.integers(0, 400))
    sizes = st.sampled_from([1, 2 ** 8, m])
    return draw(st.lists(sizes.flatmap(lambda b: st.integers(-b, b)), min_size=n, max_size=n)), m


@settings(max_examples=50, deadline=None)
@given(_coords_case(), st.sampled_from([None, (3, 0), (3, 1), (3, 16), (1, 8), (64, 1)]), st.sampled_from([1, 16]))
def test_newton_coords_match_synthetic_division(case, constants, reduce_every):
    # with no patch the module's thresholds pick the path; else every
    # modulus and length takes the Horner tail, with blocks of 3 (1, 64)
    # after 0, 1, 16 (8, 1) division passes, so every block and hand-over
    # boundary is crossed
    coeffs, m = case
    with pytest.MonkeyPatch.context() as mp:
        if constants:
            block, passes = constants
            mp.setattr(oracle, "_HORNER_MIN_BITS", 0)
            mp.setattr(oracle, "_HORNER_MIN_TERMS", 0)
            mp.setattr(oracle, "_HORNER_BLOCK", block)
            mp.setattr(oracle, "_DIVISION_PASSES", passes)
            mp.setattr(oracle, "_HORNER_REDUCE", reduce_every)
        assert list(oracle._newton_coords(coeffs, m)) == [f * b % m for f, b in falling_coords_by_division(coeffs, m)]


def test_falling_coords_stop_after_one_block_past_the_first_nonzero():
    # f = x(x-1)...(x-j) * x**(5000-j-1) + x(x-1)...(x-j+1) vanishes at
    # x < j and is j! at x = j, so a_k = 0 below j and a_j = j!, not 0 mod
    # 2**6000. A tail that ran every block before yielding took 13-16 s
    # for j = 20 and 300 on a 2-core x86-64 host.
    m, n = 2 ** 6000, 5000
    for j in (0, 1, 20, 300):
        pj = product([Polynomial((-i, 1)) for i in range(j)]) if j else Polynomial((1,))
        f = (pj * Polynomial((-j, 1))).shift(n - j - 1) + pj
        assert f.degree == n and f.eval_mod(j, m) == math.factorial(j)
        start = time.perf_counter()
        assert not is_null_binomial(f, m)
        assert time.perf_counter() - start < 0.5, j


def test_null_witness_stops_at_mu(monkeypatch):
    # x(x-1)...(x-23) * x^1976 is null mod 2^20 and mu(2^20) = 24: the
    # window is 24 points, not deg f + 1 = 2001
    m = 2 ** 20
    f = kempner_basis(m).shift(1976)
    calls = []
    eval_mod = Polynomial.eval_mod
    monkeypatch.setattr(Polynomial, "eval_mod", lambda self, x, m: calls.append(x) or eval_mod(self, x, m))
    assert null_witness(f, m) is None
    assert len(calls) <= kempner_mu(m) == 24
    # x(x-1)...(x-22) is 0 below 23 and 23! there, with v_2(23!) = 19
    assert null_witness(f + from_falling([0] * 23 + [1]), m) == 23


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_null_order_matches_linear_ascent(p, d_max, data):
    f, _ = data.draw(_mostly_null(st.sampled_from([p ** e for e in range(1, d_max + 1)]), 12))
    f = f * p ** data.draw(st.integers(0, 2))
    ascent = 0
    while ascent < d_max and is_null_eval(f, p ** (ascent + 1)):
        ascent += 1
    assert null_order(f, p, d_max) == ascent


def _vp(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a, v = a // p, v + 1
    return v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 10 ** 6), st.data())
def test_null_order_is_the_least_valuation_of_the_newton_coordinates(p, d_max, data):
    # exact Newton coordinates need no power of p, so they check the clamp
    # of d_max at any size, on tower multiples and p-power-scaled inputs
    # with 128 terms or more, built mod p**60, and a clamp of d_max past
    # 2**32, null_order takes the Horner tail
    f, _ = data.draw(st.one_of(_mostly_null(st.sampled_from([p, p ** 3, p ** 6]), 12),
                               _mostly_null(st.just(p ** 60), 160, 100)))
    if data.draw(st.booleans()):
        f = f * least_monic_null(p, data.draw(st.integers(1, 6)))
    f = f * p ** data.draw(st.integers(0, 30))
    valuations = [_vp(a, p) for a in newton_coefficients(f) if a]
    assert null_order(f, p, d_max) == min([d_max] + valuations)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 60), st.integers(-(10 ** 6), 10 ** 6).filter(bool))
def test_null_order_attains_the_top_coordinate_bound(p, n, c):
    # c * x(x-1)...(x-n+1) has the one Newton coordinate a_n = n! * c
    f = Polynomial((c,))
    for i in range(n):
        f = f * Polynomial((-i, 1))
    assert null_order(f, p, 10 ** 6) == _vp(math.factorial(n), p) + _vp(c, p)


@st.composite
def _folded_null(draw):
    """(f, p) with p prime <= 200 and deg f up to 4p, below p as well as
    past it, where the fold by x^p - x runs: f = (x^p - x) * h + p * g is
    null mod p, and half the time one term r * x^j with r not ≡ 0 (mod p)
    is added, which is not."""
    p = draw(st.sampled_from(PRIMES_TO_200))
    top = draw(st.integers(0, 4 * p))
    h = Polynomial(draw(st.lists(st.integers(-p, p), max_size=max(top - p + 1, 0))))
    g = Polynomial(draw(st.lists(st.integers(-p, p), max_size=top + 1)))
    f = (Polynomial((0,) * p + (1,)) - X) * h + g * p
    if draw(st.booleans()):
        f = f + Polynomial((0,) * draw(st.integers(0, top)) + (draw(st.integers(1, p - 1)),))
    return f, p


@settings(max_examples=100, deadline=None)
@given(_folded_null())
def test_fold_by_x_to_the_p_keeps_the_null_verdict(case):
    f, p = case
    assert is_null_binomial(f, p) == is_null_eval(f, p)
    assert null_order(f, p, 1) == is_null_eval(f, p)


@pytest.mark.parametrize("p", [2, 3, 5, 457])
def test_fold_adds_chunks_as_the_slice_definition(p):
    # up to min(p - 1, 10) chunks of p - 1 coefficients past the constant
    # _fold adds chunks entrywise, past that it sums one slice per residue;
    # both are the definition, at 1, 9, 10, 11 and 200 chunks too
    rng = random.Random(f"fold:{p}")
    step = p - 1
    chunks = {1 + step * c + extra for c in (1, 9, 10, 11, 200) for extra in (-1, 0, 1)}
    for n in sorted({0, 1, step, p, p + 1, step * step - 1, step * step + 1, step * step + 2} | chunks):
        c = [rng.randrange(-10 ** 30, 10 ** 30) for _ in range(n)]
        want = [c[0] % p] + [sum(c[j::step]) % p for j in range(1, min(n, p))] if c else []
        assert oracle._fold(c, p) == want, n
        assert oracle._fold(tuple(c), p) == want, n
