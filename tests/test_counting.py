import hashlib
import pickle
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_null_set,
    is_null_eval,
    paper_layers,
    paper_null_set,
    threshold_count_exponent,
    tower_threshold_exponent,
)
from nullpoly import counting
from nullpoly.construct import least_monic_null, omega1_prime_power, repunit
from nullpoly.counting import (
    count_monic,
    count_monic_le,
    count_null_le,
    enumerate_null,
)
from nullpoly.oracle import is_null_binomial
from nullpoly.polys import Polynomial, parse_polynomial, reduce_coeffs
from nullpoly.primes import is_prime

PRIMES_TO_50 = [p for p in range(2, 51) if is_prime(p)]


def test_null_basis_layers_p2_d3():
    # the paper's layers mod 2^3: level 2 is left out, its digit saturates
    layers = paper_layers(2, 3)
    assert [j for j, _, _ in layers] == [3, 1]
    (_, top, top_bound), (_, _, bottom_bound) = layers
    assert top == least_monic_null(2, 3) and top_bound is None
    assert bottom_bound == 2


def test_null_basis_layers_p3_d2():
    (top_level, top, top_bound), (level, b, bound) = paper_layers(3, 2)
    assert (top_level, top.degree, top_bound) == (2, 6, None)
    assert (level, b.degree, bound) == (1, 3, 3)


def test_null_basis_single_free_layer():
    assert [(j, bound) for j, _, bound in paper_layers(2, 1)] == [(1, None)]


def test_null_basis_kept_layers_are_monic_null():
    for p, d in [(2, 4), (2, 6), (3, 3), (5, 2)]:
        for j, b, _ in paper_layers(p, d):
            assert b.coeffs[-1] == 1
            assert is_null_binomial(b, p ** j)


def test_enumerate_equals_the_papers_layered_null_set():
    # the falling-factorial odometer against the paper's enumeration
    # theorem, including moduli where a layer is left out (2^3, 2^4, 3^4)
    for p, d, nmax in [(2, 1, 7), (2, 2, 7), (2, 3, 7), (2, 4, 7), (3, 1, 7), (3, 2, 7),
                       (3, 3, 8), (3, 4, 8), (5, 1, 9), (5, 2, 9), (5, 3, 9), (5, 4, 9)]:
        for n in range(nmax + 1):
            assert set(enumerate_null(p, d, n)) == paper_null_set(p, d, n), (p, d, n)


def test_enumerate_rejects_what_count_rejects():
    others = [lambda n, p, d: list(enumerate_null(p, d, n)), count_monic, count_monic_le]
    for n, p, d in [(3, 4, 2), (3, 2, 0), (-1, 2, 3), (-1, 4, 2), (-1, 2, 2)]:
        with pytest.raises(ValueError) as counted:
            count_null_le(n, p, d)
        for other in others:
            with pytest.raises(ValueError) as rejected:
                other(n, p, d)
            assert str(rejected.value) == str(counted.value)


def test_enumerate_examples():
    got = set(enumerate_null(2, 2, 3))
    expected = {
        Polynomial(()),
        parse_polynomial("2x^2+2x"),
        parse_polynomial("2x^3+2x^2"),
        parse_polynomial("2x^3+2x"),
    }
    assert got == expected
    assert set(enumerate_null(2, 2, 2)) == {Polynomial(()), parse_polynomial("2x^2+2x")}
    for p, d in [(2, 2), (3, 1), (5, 3)]:
        assert set(enumerate_null(p, d, p - 1)) == {Polynomial(())}


@pytest.mark.parametrize("p,d,n", [(2, 2, 4), (2, 3, 4), (3, 2, 3)])
def test_enumerate_equals_brute_force_set(p, d, n):
    assert set(enumerate_null(p, d, n)) == brute_null_set(p ** d, n)


def test_count_matches_enumerator():
    for p, d, nmax in [(2, 1, 5), (2, 2, 6), (2, 3, 6), (3, 1, 4), (3, 2, 7)]:
        for n in range(nmax + 1):
            polys = list(enumerate_null(p, d, n))
            assert len(polys) == len(set(polys))  # no duplicates ever
            assert count_null_le(n, p, d).value == len(polys)


def _layer_count_exponent(n: int, p: int, d: int) -> int:
    # independent route: product of per-layer coefficient boxes, each box
    # clipped by the degree budget
    total = 0
    for j, b, bound in paper_layers(p, d):
        ncoeffs = n - b.degree + 1
        if bound is not None:
            ncoeffs = min(ncoeffs, bound)
        if ncoeffs > 0:
            total += j * ncoeffs
    return total


def test_count_matches_layer_formula():
    for p in (2, 3, 5):
        for d in range(1, 9):
            w1 = omega1_prime_power(p, d)
            for n in range(w1 + 6):
                res = count_null_le(n, p, d)
                assert res.value == p ** _layer_count_exponent(n, p, d), (p, d, n)
                assert res.value >= 1
                assert res.p_exponent is not None


def test_count_examples():
    assert count_null_le(2, 2, 2).value == 2
    assert count_null_le(3, 2, 3).value == 4
    assert count_null_le(1, 5, 7).value == 1
    assert count_null_le(3, 2, 2).value == 4


def test_count_trace_records_path():
    head = (("modulus", "2^3"), ("least_monic_degree", 4))
    assert count_null_le(3, 2, 3).trace == head + (("count-exponent", 2), ("count", 4))
    assert count_null_le(1, 2, 3).trace == head + (("count-exponent", 0), ("count", 1))
    assert count_monic(3, 2, 3).trace == head + (("count", 0),)
    assert count_monic(5, 2, 3).trace == head + (("count-exponent", 5), ("count", 32))
    assert count_monic_le(3, 2, 3).trace == head + (("count", 0),)
    assert count_monic_le(5, 2, 3).trace == head + (
        ("threshold-exponent", 2), ("geometric-factor", 9), ("count", 36))


def test_count_monic_examples():
    assert count_monic(3, 2, 2).value == 0
    assert count_monic(4, 2, 2).value == 4
    assert count_monic(5, 2, 2).value == 16


def test_count_monic_brute_force():
    from itertools import product

    def brute_monic(n, p, d):
        m = p ** d
        total = 0
        for tail in product(range(m), repeat=n):
            f = Polynomial(tail + (1,))
            if all(f.eval_mod(x, m) == 0 for x in range(m)):
                total += 1
        return total

    for p, d, n in [(2, 2, 4), (2, 2, 5), (2, 3, 4), (3, 1, 3), (2, 3, 5)]:
        assert count_monic(n, p, d).value == brute_monic(n, p, d)


def test_threshold_identity():
    # count of monic nulls at the least monic degree equals the count of all
    # nulls strictly below it
    for p in (2, 3):
        for d in range(1, 7):
            w1 = omega1_prime_power(p, d)
            assert count_monic(w1, p, d).value == count_null_le(w1 - 1, p, d).value


def test_count_monic_le_trace_prints_at_any_size():
    # the geometric factor here has about 5200 digits, past Python's
    # int-to-str limit, so the trace must abbreviate it
    assert "(7^6240-1)/(7^40-1)" in str(count_monic_le(400, 7, 40).trace)
    assert ("geometric-factor", 8) in count_monic_le(8, 7, 1).trace


def test_traces_print_at_a_large_prime():
    # p**201 has about 4400 digits: every count row shows its formula
    p = 10 ** 22 + 9
    for counter, n, shown in [(count_null_le, p + 200, f"{p}^201"), (count_monic, p + 201, f"{p}^201"),
                              (count_monic_le, p + 201, f"{p}^0*({p}^202-1)/({p}^1-1)")]:
        trace = counter(n, p, 1).trace
        assert trace[-1] == ("count", shown)
        str(trace)


def _grid():
    for p in (2, 3, 5, 7, 11, 101):
        for d in (1, 2, 3, 4, 7, 12):
            w1 = omega1_prime_power(p, d)
            for n in sorted({0, 1, 2, w1 - 2, w1 - 1, w1, w1 + 1, 2 * w1, 5 * w1 + 3}):
                for counter in (count_null_le, count_monic, count_monic_le):
                    yield counter, n, p, d


def test_value_is_the_power_of_p_it_names():
    for counter, n, p, d in _grid():
        res = counter(n, p, d)
        if res.p_exponent is not None:
            assert res.value == p ** res.p_exponent, (counter.__name__, n, p, d)
        assert res.value == _evaluated(res.trace), (counter.__name__, n, p, d)


def _evaluated(trace):
    # the trace's last row as a number, its formula read back where it is one
    shown = trace[-1][1]
    if isinstance(shown, int):
        return shown
    p, e, top, d = re.fullmatch(r"(\d+)\^(\d+)(?:\*\(\1\^(\d+)-1\)/\(\1\^(\d+)-1\))?", shown).groups()
    p, e = int(p), int(e)
    if top is None:
        return p ** e
    return p ** e * ((p ** int(top) - 1) // (p ** int(d) - 1))


def test_counts_are_the_same_as_when_they_held_their_value():
    # one digest over (value, p_exponent, trace) of every count on the grid,
    # as taken when CountResult stored the value itself
    rows = [(counter.__name__, n, p, d, hex(res.value), res.p_exponent, res.trace)
            for counter, n, p, d in _grid() for res in [counter(n, p, d)]]
    assert len(rows) == 951
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "86a4eb74c45c4734e7cca8aeaab36ef406792317c24724beafd0348bfedb6040"


def test_each_count_computes_omega1_once(monkeypatch):
    calls = []
    real = counting.omega1_prime_power
    monkeypatch.setattr(counting, "omega1_prime_power", lambda p, d: calls.append(1) or real(p, d))
    for counter in (count_null_le, count_monic, count_monic_le):
        for n in (3, 30):  # below omega1 = 4 mod 2^3, and above it
            calls.clear()
            counter(n, 2, 3)
            assert len(calls) == 1, (counter.__name__, n)


def test_a_large_count_is_made_without_its_digits():
    # 3^2240293 has 444 kB of digits; the count holds its formula instead
    tracemalloc.start()
    try:
        res = count_null_le(3000, 3, 10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak
    assert res.p_exponent == 2240293 and res.trace[-1] == ("count", "3^2240293")


def test_value_refuses_a_count_too_large_to_build():
    # 3^249994082012 has about 4 * 10^11 bits; count_monic_le(10^5, 3, 10^4)
    # is under 3^(E + A - d + 1), E = E(omega1 - 1), A = d * (n - omega1 + 1)
    for res, shown in [(count_null_le(10 ** 6, 3, 10 ** 6), "3^249994082012"),
                       (count_monic_le(10 ** 5, 3, 10 ** 4), "3^99975465*(3^799940000-1)/(3^10000-1)")]:
        assert res.trace[-1] == ("count", shown)
        start = time.perf_counter()
        with pytest.raises(ValueError) as refusal:
            res.value
        assert time.perf_counter() - start < 1.0
        assert str(refusal.value) == f"count {shown} has over 8388608 bits, too large to build"


def test_enumerate_below_p_makes_no_row():
    # every k <= n < p has gcd(p**d, k!) = 1: only the zero polynomial, at
    # once, where the rows' falling factorials took O(n**2) steps
    p = 10 ** 22 + 9
    start = time.perf_counter()
    assert list(enumerate_null(p, 1, 10 ** 6)) == [Polynomial(())]
    assert time.perf_counter() - start < 1.0


def test_repr_equality_hash_and_pickle_never_build_the_value():
    # repr(count_null_le(3000, 3, 10**4)) raised ValueError (over 4300
    # digits) when the value was a field
    made = [count_null_le(3000, 3, 10 ** 4), count_monic_le(400, 7, 40)]
    tracemalloc.start()
    try:
        shown = [repr(res) for res in made]
        copies = [pickle.loads(pickle.dumps(res)) for res in made]
        assert copies == made and list(map(hash, copies)) == list(map(hash, made))
        assert made[0] != made[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak
    assert shown == [
        "CountResult(formula=(3, 2240293), p_exponent=2240293, trace=(('modulus', '3^10000'), "
        "('least_monic_degree', 20007), ('count-exponent', 2240293), ('count', '3^2240293')))",
        "CountResult(formula=(7, 4655, 6240, 40), p_exponent=None, trace=(('modulus', '7^40'), "
        "('least_monic_degree', 245), ('threshold-exponent', 4655), "
        "('geometric-factor', '(7^6240-1)/(7^40-1)'), ('count', '7^4655*(7^6240-1)/(7^40-1)')))",
    ]
    assert made[1].value == 7 ** 4655 * ((7 ** 6240 - 1) // (7 ** 40 - 1))


def test_a_count_is_shown_as_its_formula_from_ten_to_the_forty():
    # mod 2, E(n) = n - 1: 2^132 < 10^40 < 2^133
    assert count_null_le(133, 2, 1).trace[-1] == ("count", 2 ** 132)
    assert count_null_le(134, 2, 1).trace[-1] == ("count", "2^133")
    # count_monic_le(n, 2, 1) is its geometric factor (2^(n-1) - 1)/(2 - 1),
    # below 10^40 while n <= 133
    assert count_monic_le(133, 2, 1).trace[-2:] == (
        ("geometric-factor", 2 ** 132 - 1), ("count", 2 ** 132 - 1))
    assert count_monic_le(134, 2, 1).trace[-2:] == (
        ("geometric-factor", "(2^133-1)/(2^1-1)"), ("count", "2^0*(2^133-1)/(2^1-1)"))


def test_count_monic_le_is_geometric_sum():
    for p in (2, 3, 5, 7):
        for d in range(1, 9):
            w1 = omega1_prime_power(p, d)
            for n in range(w1 + 4):
                expect = sum(count_monic(k, p, d).value for k in range(n + 1))
                assert count_monic_le(n, p, d).value == expect, (p, d, n)


def test_stability_across_exponents():
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            bound = min(omega1_prime_power(2, d1), omega1_prime_power(2, d2))
            for n in range(bound):
                assert count_null_le(n, 2, d1).value == count_null_le(n, 2, d2).value


def test_tower_threshold_exponent_examples():
    assert tower_threshold_exponent(2, 2) == 2
    assert tower_threshold_exponent(3, 3) == 135
    assert tower_threshold_exponent(2, 1) == 0


def test_tower_threshold_is_count_at_tower_moduli():
    # at d = repunit(p, n) the threshold count is exactly p ** Ntilde
    for p in (2, 3):
        for n in (1, 2, 3):
            d = repunit(p, n)
            if d == 0:
                continue
            exp, _ = threshold_count_exponent(p, d)
            assert exp == tower_threshold_exponent(p, n)


def test_tower_block_exponent_identities():
    # a lone saturated digit p at index n is the tower threshold at n + 1
    for p in (2, 3):
        for n in (1, 2, 3):
            top = tower_threshold_exponent(p, n + 1)
            assert threshold_count_exponent(p, p * repunit(p, n)) == (top, [(n, p, top)])


def test_threshold_count_brute_force():
    for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        w1 = omega1_prime_power(p, d)
        exp, blocks = threshold_count_exponent(p, d)
        assert p ** exp == len(brute_null_set(p ** d, w1 - 1))
        assert sum(c for _, _, c in blocks) == exp


def test_threshold_count_vs_enumerator():
    # larger moduli where raw brute force is out of reach: the enumerator
    # (whose output is brute-checked elsewhere) supplies the cardinality
    for p, d in [(2, 4), (2, 5), (3, 3), (5, 2)]:
        w1 = omega1_prime_power(p, d)
        exp, _ = threshold_count_exponent(p, d)
        polys = set(enumerate_null(p, d, w1 - 1))
        assert len(polys) == p ** exp
        m = p ** d
        for f in polys:
            assert is_null_binomial(f, m)


def test_enumerated_polynomials_are_null_and_reduced():
    for p, d, n in [(2, 3, 5), (3, 2, 6)]:
        m = p ** d
        for f in enumerate_null(p, d, n):
            assert all(0 <= c < m for c in f.coeffs)
            dm = reduce_coeffs(f, m).degree
            assert dm is None or dm <= n
            assert is_null_eval(f, m)


def _assert_well_formed(f: Polynomial, m: int) -> None:
    # the record enumerate_null builds without __init__ is the one
    # __init__ would build: same type, trimmed, equal with an equal hash
    assert type(f) is Polynomial
    assert not f.coeffs or f.coeffs[-1] != 0
    assert f == Polynomial(f.coeffs) and hash(f) == hash(Polynomial(f.coeffs))
    assert all(0 <= c < m for c in f.coeffs)


def test_enumerated_outputs_are_well_formed_records():
    # 7^3 and 2^9 exceed 256, past CPython's cached small ints; the last
    # two have 7^4 = 2401 and 2^12 = 4096 outputs
    for p, d, n in [(2, 3, 6), (3, 2, 7), (7, 3, 10), (2, 9, 6)]:
        polys = list(enumerate_null(p, d, n))
        assert len(polys) == len(set(polys)) == count_null_le(n, p, d).value
        for f in polys:
            _assert_well_formed(f, p ** d)


def test_enumerate_group_of_several_blocks():
    # (2, 4, 7): the top row's group holds 61440 outputs of 8 coefficients,
    # made as 32 blocks of 1920 outputs under _BLOCK_CELLS = 2**14 cells
    polys = list(enumerate_null(2, 4, 7))
    assert len(polys) == count_null_le(7, 2, 4).value == 65536
    got = set(polys)
    assert len(got) == len(polys)
    assert got == paper_null_set(2, 4, 7)
    for f in random.Random(7).sample(polys, 500):
        _assert_well_formed(f, 16)


def test_enumerate_wide_row():
    # one row, x^1009 - x mod 1009, 1010 coefficients wide and radix 1009:
    # its 1008 nonzero digit values come in chunks of 16 outputs
    p = 1009
    want = {Polynomial(()) if c == 0 else Polynomial((0, p - c) + (0,) * (p - 2) + (c,))
            for c in range(p)}
    got = list(enumerate_null(p, 1, p))
    assert len(got) == p and set(got) == want


def test_enumerate_builds_each_row_when_reached():
    # the first group, c * (x^2 - x) mod 2, needs only the row of degree 2:
    # building all 2999 rows mod 2 up to degree 3000 first took 0.56-0.82 s
    outputs = enumerate_null(2, 1, 3000)
    next(outputs)
    start = time.perf_counter()
    second = next(outputs)
    assert time.perf_counter() - start < 0.05
    assert second == Polynomial((0, 1, 1))
    assert set(enumerate_null(3, 2, 7)) == paper_null_set(3, 2, 7)


def test_enumerate_is_lazy_in_memory():
    # one output at a time, (2, 3, 8) must not hold a whole group of about
    # 65536 outputs (over 8 MB) between yields
    outputs = enumerate_null(2, 3, 8)
    next(outputs)
    tracemalloc.start()
    try:
        count = sum(1 for _ in outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 131071
    assert peak < 2_000_000, peak


def test_count_input_validation():
    with pytest.raises(ValueError):
        count_null_le(-1, 2, 2)
    with pytest.raises(ValueError):
        count_null_le(3, 4, 2)
    with pytest.raises(ValueError):
        count_null_le(3, 2, 0)


def test_enumerate_anchor_2_3_8():
    polys = list(enumerate_null(2, 3, 8))
    distinct = set(polys)
    assert len(polys) == len(distinct) == count_null_le(8, 2, 3).value
    assert all(0 <= c < 8 for f in polys for c in f.coeffs)
    for f in random.Random(8).sample(polys, 200):
        assert is_null_binomial(f, 8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES_TO_50), st.integers(min_value=1, max_value=10 ** 4), st.data())
def test_monic_count_matches_digit_block_formula(p, d, data):
    # count_monic(n) = p**E(n - 1) against the paper's digit-block count
    # at omega1 times p**d per degree above it
    w1 = omega1_prime_power(p, d)
    n = data.draw(st.integers(min_value=w1, max_value=3 * w1))
    want = threshold_count_exponent(p, d)[0] + d * (n - w1)
    assert count_null_le(n - 1, p, d).p_exponent == want
    assert count_monic(n, p, d).p_exponent == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES_TO_50), st.integers(min_value=1, max_value=10 ** 4))
def test_valuation_sum_matches_digit_block_formula(p, d):
    # the paper's digit-block product is an independent route to the count
    # just below the least monic degree, at any size
    w1 = omega1_prime_power(p, d)
    assert count_null_le(w1 - 1, p, d).p_exponent == threshold_count_exponent(p, d)[0]


def _vp_factorial(p: int, k: int) -> int:
    v, q = 0, p
    while q <= k:
        v += k // q
        q *= p
    return v


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES_TO_50[:6]), st.integers(min_value=1, max_value=12), st.data())
def test_valuation_sum_matches_naive_loop(p, d, data):
    n = data.draw(st.integers(min_value=p, max_value=3 * omega1_prime_power(p, d)))
    naive = sum(min(d, _vp_factorial(p, k)) for k in range(n + 1))
    assert count_null_le(n, p, d).p_exponent == naive
