"""Enumerate and count null polynomials of bounded degree mod p**d.

Every null polynomial mod p**d decomposes uniquely as

    f = sum over layers j = d..1 of  p**(d-j) * B_j * q_j   (mod p**d)

where B_j is the least-degree monic null polynomial mod p**j, q_d is free,
q_j for j < d has degree < p, a layer is dropped when its digit vector
saturates (its basis polynomial repeats the next layer's degree), and the
coefficients of q_j matter mod p**j. The null set is therefore a product
of independent coefficient boxes. enumerate_null walks it as a
mixed-radix odometer: one row p**(d-j) * B_j * x**k mod p**d per free
coefficient, radix p**j, and radix * row ≡ 0 (mod p**d), so every step
only adds a row.

Counting uses the valuation-sum identity: there are p**E null
polynomials of degree <= n mod p**d, with

    E(n, p, d) = sum_{k<=n} min(d, v_p(k!)),

the Newton-coordinate view of Singmaster (1974) and Keller-Olson (1968).
The paper's digit-block threshold formula (threshold_count_exponent) is
kept as an independent check of it.
"""
from __future__ import annotations

from collections.abc import Iterator

from ._record import Record
from .construct import (
    digit_vector,
    least_monic_null,
    omega1_prime_power,
    repunit,
)
from .polys import Polynomial
from .primes import is_prime

# Traces abbreviate p**E from this E on, so str() stays cheap and legal.
_TRACE_EXPONENT_LIMIT = 256


class NullLayer(Record):
    __slots__ = ("level", "multiplier", "poly", "q_degree_bound", "skipped")

    def __init__(
        self,
        level: int,
        multiplier: int,            # p**(d - level)
        poly: Polynomial,           # least-degree monic null polynomial mod p**level
        q_degree_bound: int | None,  # None: free degree; otherwise q degree < bound
        skipped: bool,
    ):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "q_degree_bound", q_degree_bound)
        object.__setattr__(self, "skipped", skipped)

    @property
    def free(self) -> bool:
        return self.q_degree_bound is None


class NullBasis(Record):
    __slots__ = ("p", "d", "layers")

    def __init__(self, p: int, d: int, layers: tuple[NullLayer, ...]):  # descending level d..1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "layers", layers)


class CountResult(Record):
    __slots__ = ("value", "p_exponent", "trace")

    def __init__(
        self,
        value: int,
        p_exponent: int | None,  # E when value is exactly p**E, else None
        trace: tuple[tuple[str, object], ...],
    ):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p_exponent", p_exponent)
        object.__setattr__(self, "trace", trace)


def null_basis(p: int, d: int) -> NullBasis:
    """Layered decomposition basis for null polynomials mod p**d."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    layers = []
    for j in range(d, 0, -1):
        skipped = j < d and digit_vector(p, j).e_max == p
        layers.append(
            NullLayer(
                level=j,
                multiplier=p ** (d - j),
                poly=least_monic_null(p, j),
                q_degree_bound=None if j == d else p,
                skipped=skipped,
            )
        )
    return NullBasis(p, d, tuple(layers))


def enumerate_null(p: int, d: int, n: int) -> Iterator[Polynomial]:
    """Yield every null polynomial of degree <= n mod p**d exactly once.

    A mixed-radix odometer over one flat coefficient list. Each free
    coefficient of the decomposition owns a digit of radix p**j and a row,
    the scaled basis term p**(d-j) * B_j * x**k reduced mod p**d. Advancing
    a digit adds its row to the list in place, mod p**d. Since
    radix * row ≡ 0 (mod p**d), a digit that wraps to 0 just adds its row
    once more and carries, so the odometer never subtracts or rebuilds.

    Coefficients come out reduced to [0, p**d). The caller is responsible
    for bounding the total via count_null_le first; generation order is an
    implementation detail (the CLI sorts).
    """
    pd = p ** d
    rows: list[tuple[tuple[int, int], ...]] = []  # sparse (index, coeff)
    radices: list[int] = []
    for layer in null_basis(p, d).layers:
        if layer.skipped:
            continue
        ncoeffs = n - layer.poly.degree + 1
        if not layer.free:
            ncoeffs = min(ncoeffs, p)
        scaled = [c * layer.multiplier % pd for c in layer.poly.coeffs]
        for k in range(ncoeffs):
            rows.append(tuple((i + k, c) for i, c in enumerate(scaled) if c))
            radices.append(p ** layer.level)
    acc = [0] * (n + 1)
    digits = [0] * len(rows)
    while True:
        yield Polynomial(acc)
        i = 0
        while i < len(rows):
            for k, c in rows[i]:
                acc[k] = (acc[k] + c) % pd
            digits[i] += 1
            if digits[i] < radices[i]:
                break
            digits[i] = 0
            i += 1
        else:
            return


def tower_threshold_exponent(p: int, n: int) -> int:
    """log_p of the number of null polynomials of degree < p**n mod
    p**repunit(p, n): closed form p**n * (repunit(p, n) - n) / 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = p ** n * (repunit(p, n) - n)
    if num % 2:
        raise AssertionError(f"odd tower threshold numerator for p={p}, n={n}")
    return num // 2


def _tower_threshold_exponent_recursive(p: int, n: int) -> int:
    # product-over-blocks recursion; kept as a cross-check for the closed form
    if n == 1:
        return 0
    step = p ** n * (p ** (n - 1) - 1)
    if step % 2:
        raise AssertionError(f"odd tower block step for p={p}, n={n}")
    return step // 2 + p * _tower_threshold_exponent_recursive(p, n - 1)


def tower_block_exponent(p: int, n: int, i: int) -> int:
    """log_p of the below-threshold count when the top digit is i at index n:
    i*(i-1)*p**n*repunit(p,n)/2 + i*tower_threshold_exponent(p,n)."""
    if not 0 <= i <= p:
        raise ValueError("digit must be in [0, p]")
    return i * (i - 1) * p ** n * repunit(p, n) // 2 + i * tower_threshold_exponent(p, n)


def threshold_count_exponent(p: int, d: int) -> tuple[int, list[tuple[int, int, int]]]:
    """log_p of the count of null polynomials of degree < omega1 mod p**d.

    Summed digit by digit: digit e at index i contributes its own block
    exponent plus e * p**i times the value carried by the digits above it.
    Returns (exponent, [(index, digit, contribution), ...] descending).
    This is the paper's formula; the counters use the valuation sum
    instead, and the tests hold the two equal.
    """
    dv = digit_vector(p, d)
    total = 0
    blocks = []
    for i, e in reversed(dv.exponents()):
        above = sum(ej * repunit(p, j) for j, ej in dv.exponents() if j > i)
        contrib = e * p ** i * above + tower_block_exponent(p, i, e)
        total += contrib
        blocks.append((i, e, contrib))
    return total, blocks


def _null_count_exponent(n: int, p: int, d: int) -> int:
    """log_p of the number of null polynomials of degree <= n mod p**d:
    E = sum_{k<=n} min(d, v_p(k!)).

    v_p(k!) >= d exactly when k >= omega1, so E is d per degree from omega1
    to n plus S(N) = sum_{k<=N} v_p(k!) for N = min(n, omega1 - 1).
    S(N) = sum over q = p**i of sum_{k<=N} floor(k / q), and each inner sum
    has a = (N+1) // q full runs of q equal values 0..a-1, then N+1 - a*q
    values equal to a.
    """
    omega1 = omega1_prime_power(p, d)
    top = min(n, omega1 - 1)
    total = d * max(0, n - omega1 + 1)
    q = p
    while q <= top:
        a = (top + 1) // q
        total += q * a * (a - 1) // 2 + a * (top + 1 - a * q)
        q *= p
    return total


def count_null_le(n: int, p: int, d: int) -> CountResult:
    """Number of null polynomials of degree <= n mod p**d (zero poly included).

    The count is p**E with E = sum_{k<=n} min(d, v_p(k!)): the k-th Newton
    coordinate of a null polynomial is a multiple of k! that matters mod
    p**d, leaving p**min(d, v_p(k!)) choices (Singmaster 1974; Keller and
    Olson 1968). E is computed in O(log_p n) by _null_count_exponent. The
    trace's case names the degree range of n: below p, below omega1 - 1,
    omega1 - 1, or omega1 and above.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("degree bound must be >= 0")
    omega1 = omega1_prime_power(p, d)
    trace: list[tuple[str, object]] = [
        ("modulus", f"{p}^{d}"),
        ("least_monic_degree", omega1),
    ]
    if n < p:
        trace.append(("case", "below-least-null-degree"))
        trace.append(("count", 1))
        return CountResult(1, 0, tuple(trace))
    exp = _null_count_exponent(n, p, d)
    if n >= omega1:
        extra = d * (n - omega1 + 1)
        trace.append(("case", "above-threshold"))
        trace.append(("free-coefficients-exponent", extra))
        trace.append(("threshold-exponent", exp - extra))
    elif n == omega1 - 1:
        trace.append(("case", "at-threshold-digit-product"))
    else:
        trace.append(("case", "band-reduction"))
    trace.append(("count-exponent", exp))
    value = p ** exp
    trace.append(("count", value if exp < _TRACE_EXPONENT_LIMIT else f"{p}^{exp}"))
    return CountResult(value, exp, tuple(trace))


def count_monic(n: int, p: int, d: int) -> CountResult:
    """Number of monic null polynomials of degree exactly n mod p**d."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    omega1 = omega1_prime_power(p, d)
    trace: list[tuple[str, object]] = [
        ("modulus", f"{p}^{d}"),
        ("least_monic_degree", omega1),
    ]
    if n < omega1:
        trace.append(("case", "below-least-monic-degree"))
        trace.append(("count", 0))
        return CountResult(0, None, tuple(trace))
    base_exp = _null_count_exponent(omega1 - 1, p, d)
    extra = d * (n - omega1)
    exp = base_exp + extra
    trace.append(("case", "at-threshold" if n == omega1 else "above-threshold"))
    trace.append(("threshold-exponent", base_exp))
    if extra:
        trace.append(("free-coefficients-exponent", extra))
    trace.append(("count-exponent", exp))
    value = p ** exp
    trace.append(("count", value if exp < _TRACE_EXPONENT_LIMIT else f"{p}^{exp}"))
    return CountResult(value, exp, tuple(trace))


def count_monic_le(n: int, p: int, d: int) -> CountResult:
    """Number of monic null polynomials of degree <= n mod p**d.

    Geometric sum of count_monic over degrees omega1..n:
    (p**(d*(n*+1)) - 1) / (p**d - 1) times the threshold count. The factor
    is ≡ 1 (mod p) and exceeds 1 when n* > 0, so the total is a power of
    p only at n = omega1.
    """
    if n < 0:
        raise ValueError("degree bound must be >= 0")
    omega1 = omega1_prime_power(p, d)
    if n < omega1:
        return CountResult(
            0, None, (("modulus", f"{p}^{d}"), ("case", "below-least-monic-degree"))
        )
    nstar = n - omega1
    base_exp = _null_count_exponent(omega1 - 1, p, d)
    top = d * (nstar + 1)
    scale = (p ** top - 1) // (p ** d - 1)
    value = scale * p ** base_exp
    trace = (
        ("modulus", f"{p}^{d}"),
        ("least_monic_degree", omega1),
        ("case", "geometric-sum-above-threshold"),
        ("threshold-exponent", base_exp),
        ("geometric-factor", scale if top < _TRACE_EXPONENT_LIMIT else f"({p}^{top}-1)/({p}^{d}-1)"),
    )
    return CountResult(value, base_exp if n == omega1 else None, trace)
