"""Count and enumerate null polynomials of bounded degree mod p**d.

Write f = sum_k b_k * x(x-1)...(x-k+1). f is null mod p**d iff
p**(d - e_k) divides b_k for every k, where p**e_k = gcd(p**d, k!): the
term's values are k! * b_k * C(x, k), and the Newton coordinate k! * b_k
is a Z-combination of f(0..k) (Singmaster 1974; Keller and Olson 1968).
The falling factorials are monic, so the null polynomials of degree <= n
mod p**d are the sums

    sum_{k<=n} c_k * p**(d - e_k) * x(x-1)...(x-k+1)  (mod p**d),
    0 <= c_k < p**e_k,

each exactly once. enumerate_null walks that box (see it and _blocks for
how). Every count is one formula in the box's log_p size,
E(n) = sum_{k<=n} min(d, v_p(k!)), found in O(log_p n):

    count_null_le(n)  = p**E(n);
    count_monic(n)    = 0 below omega1, else p**E(n - 1);
    count_monic_le(n) = 0 below omega1, else
                        p**E(omega1 - 1) * (p**A - 1) / (p**d - 1),
                        A = d * (n - omega1 + 1).

A CountResult holds that formula's integers, not the count: its value
is built from them on each read, and no function here reads it. Each trace
is the modulus, omega1, the formula's rows, then the count. A count or
factor from _DISPLAY_LIMIT on is shown as its formula (p^E, (p^A-1)/(p^d-1)
or p^E*(p^A-1)/(p^d-1)), decided from its exponent, so its digits are never
built; the CLI prints that last row as its answer. Every count is
answered whatever its size; a read of value past polys.check_bits' limit
is refused.

The paper's own route to both answers, a sum of layers p**(d-j) * B_j * q_j
over the least monic null polynomials B_j mod p**j (its enumeration
theorem) and the digit-block count below omega1, lives in the tests
(tests/conftest.py) as the independent oracle for this one.
"""
from __future__ import annotations

import sys
from collections.abc import Iterator
from math import gcd, log2

from ._record import Record
from .construct import omega1_prime_power
from .polys import Polynomial, check_bits, from_trimmed
from .primes import require_prime

# Counts and factors from this value on are shown as their formula, so no
# trace or CLI line builds an integer of thousands of digits or prints it.
_DISPLAY_LIMIT = 10 ** 40
# 133: a number of at least p**e is shown as its formula, unbuilt, once p**e
# has this many bits, for 10**40 < 2**133.
_DISPLAY_BITS = _DISPLAY_LIMIT.bit_length()
# The most coefficients enumerate_null holds in one block of outputs, so that
# memory between yields stays bounded whatever the width and the radices:
# about 0.4 MB traced while (2, 3, 8) or (1009, 1, 1009) is consumed.
_BLOCK_CELLS = 2 ** 14


def _evaluate(formula: tuple[int, ...]) -> int:
    """The number a formula stands for: 0 for (), p**e for (p, e), and
    p**e * (p**top - 1) // (p**d - 1) for (p, e, top, d)."""
    if not formula:
        return 0
    p, e, *geometric = formula
    if not geometric:
        return p ** e
    top, d = geometric
    return p ** e * ((p ** top - 1) // (p ** d - 1))


class CountResult(Record):
    """A count held as its formula: the integers of its closed form (see
    _evaluate), p_exponent E when the count is exactly p**E (else None),
    and its trace of (tag, value) rows.

    value builds the count from formula on each read, with no cache, and
    refuses (polys.check_bits) a count of p**e, or under p**(e + top - d + 1),
    that is too large to build. Equality, hashing, repr and pickling run
    over the three fields, so none of them builds it.
    """

    __slots__ = ("formula", "p_exponent", "trace")

    @property
    def value(self) -> int:
        if self.formula:
            p, e, *geometric = self.formula
            # under p**(e + top - d + 1) for a geometric formula; a count this
            # large is past _DISPLAY_LIMIT, so the trace's last row is its formula
            power = e + geometric[0] - geometric[1] + 1 if geometric else e
            check_bits(f"count {self.trace[-1][1]}", min(power, sys.maxsize) * log2(p))
        return _evaluate(self.formula)


def _check_args(n: int, p: int, d: int) -> None:
    require_prime(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("degree bound must be >= 0")


def _rows(p: int, d: int, n: int) -> Iterator[tuple[list[int], int]]:
    """The box's digits, by k upward, each made when it is reached: for each
    k <= n with g_k = gcd(p**d, k!) = p**e_k > 1, the row
    (p**d // g_k) * x(x-1)...(x-k+1) mod p**d, k + 1 coefficients with top
    p**d // g_k, and its radix g_k. One running quantity gives both:
    g_k = gcd(p**d, g_{k-1} * k)."""
    if n < p:  # g_k = 1 below k = p: no row, and no falling factorial to grow
        return
    pd = p ** d
    falling = [1]  # x(x-1)...(x-k+1) mod p**d, ascending
    g = 1
    for k in range(1, n + 1):
        falling = [(lo - (k - 1) * hi) % pd for lo, hi in zip([0] + falling, falling + [0])]
        g = gcd(pd, g * k)
        if g > 1:
            # c * scale % pd, without dividing a 2d-bit product: pd = g * scale
            scale = pd // g
            yield [c % g * scale for c in falling], g


def enumerate_null(p: int, d: int, n: int) -> Iterator[Polynomial]:
    """Yield every null polynomial of degree <= n mod p**d exactly once.

    The zero polynomial comes first, then group j for each row j of _rows,
    lowest first: the sums whose highest nonzero digit is row j's. Every
    output of group j has deg(row j) + 1 coefficients and a nonzero top one,
    p**d // g_j times the digit, so none needs trimming. Group j reads rows
    0..j alone, so each row is made when its group is reached. A group is made in
    blocks of at most _BLOCK_CELLS coefficients, one column per degree
    (_blocks); records come from the columns' tuples through
    polys.from_trimmed, so per output no interpreted step runs.

    Rejects what count_null_le rejects, with the same messages, on the
    first next(). Coefficients come out reduced to [0, p**d). The caller is
    responsible for bounding the total via count_null_le first;
    generation order is an implementation detail (the CLI sorts).
    """
    _check_args(n, p, d)
    yield Polynomial(())
    rows: list[list[int]] = []
    radices: list[int] = []
    for j, (row, radix) in enumerate(_rows(p, d, n)):
        rows.append(row)
        radices.append(radix)
        for columns in _blocks(rows, radices, j, p ** d):
            yield from from_trimmed(list(zip(*columns)))


def _blocks(rows: list[list[int]], radices: list[int], j: int, pd: int) -> Iterator[list]:
    """Group j of enumerate_null as blocks of columns: column k of a block
    holds coefficient k of each of its outputs, mod pd, as bytes when
    pd <= 256 and as a list of ints (or a lazy map over one) otherwise.

    The fastest digit is row j's, over its nonzero values in chunks of at
    most _BLOCK_CELLS // width outputs. Rows j-1, j-2, ... follow while the
    block stays within _BLOCK_CELLS cells: each multiplies the block by its
    radix g, a column where the row is 0 repeated g times, any other one
    followed by g - 1 shifted copies, one C-level pass each (_shift). The rows
    below, the lowest in degree, are the slow digits: a small odometer adds
    their sum, a vector over the few columns they reach, to the block.
    Since radix * row ≡ 0 (mod pd), a digit that wraps to 0 just adds its
    row once more and carries, so the odometer never subtracts.
    """
    top, width = rows[j], len(rows[j])
    per = max(1, _BLOCK_CELLS // width)
    size, fast = min(radices[j] - 1, per), j
    while fast and size * radices[fast - 1] <= per:
        fast -= 1
        size *= radices[fast]
    slow = rows[:fast]
    column = bytes if pd <= 256 else list
    for lo in range(1, radices[j], per):
        hi = min(lo + per, radices[j])
        # c * v % pd for the row's entry c and each digit value v in lo..hi-1
        block = [column(map(pd.__rmod__, range(c * lo, c * hi, c))) if c
                 else column([0]) * (hi - lo) for c in top]
        for i in range(j - 1, fast - 1, -1):
            row, g = rows[i], radices[i]
            for k, col in enumerate(block):
                if k < len(row) and row[k]:
                    grown = col[:]
                    for v in range(1, g):
                        grown += _shift(col, v * row[k] % pd, pd)
                    block[k] = grown
                else:
                    block[k] = col * g
        acc = [0] * len(slow[-1]) if slow else []
        digits = [0] * fast
        while True:
            yield [_shift(col, a, pd) if a else col for col, a in zip(block, acc)] + block[len(acc):]
            i = 0
            while i < fast:
                for k, c in enumerate(slow[i]):
                    acc[k] = (acc[k] + c) % pd
                digits[i] += 1
                if digits[i] < radices[i]:
                    break
                digits[i] = 0
                i += 1
            else:
                break


# bytes.translate's identity table. For residues x < pd <= 256, the table
# with its first pd entries rotated left by s maps x to (x + s) % pd.
_IDENTITY = bytes(range(256))


def _shift(col, s: int, pd: int):
    """(x + s) % pd for each residue x of col, in one C-level pass: a bytes
    column (pd <= 256) is translated, a list column is mapped lazily."""
    if type(col) is bytes:
        return col.translate(_IDENTITY[s:pd] + _IDENTITY[:s] + _IDENTITY[pd:])
    return map(pd.__rmod__, map(s.__add__, col))


def _exponent(n: int, p: int, d: int, omega1: int) -> int:
    """E(n) = sum_{k<=n} min(d, v_p(k!)), log_p of count_null_le(n, p, d),
    given omega1 = omega1_prime_power(p, d).

    v_p(k!) >= d exactly when k >= omega1, so E is d per degree from omega1
    to n plus S(N) = sum_{k<=N} v_p(k!) for N = min(n, omega1 - 1).
    S(N) = sum over q = p**i of sum_{k<=N} floor(k / q), and each inner sum
    has a = (N+1) // q full runs of q equal values 0..a-1, then N+1 - a*q
    values equal to a.
    """
    top = min(n, omega1 - 1)
    total = d * max(0, n - omega1 + 1)
    q = p
    while q <= top:
        a = (top + 1) // q
        total += q * a * (a - 1) // 2 + a * (top + 1 - a * q)
        q *= p
    return total


def _shown(formula: tuple[int, ...], text: str) -> int | str:
    """The trace row of a formula's number: the number while it is below
    _DISPLAY_LIMIT, else text. The number is at least p**low and under
    2 * p**low, low = e (+ top - d), so it is built only while p**low has
    fewer than _DISPLAY_BITS bits."""
    p, e, *geometric = formula
    low = e + geometric[0] - geometric[1] if geometric else e
    if low < _DISPLAY_BITS / log2(p):
        value = _evaluate(formula)
        if value < _DISPLAY_LIMIT:
            return value
    return text


def _result(p: int, d: int, omega1: int, formula: tuple[int, ...] = (),
            p_exponent: int | None = None, rows: tuple[tuple[str, object], ...] = (),
            text: str = "") -> CountResult:
    """The one trace shape: modulus, omega1, the formula's rows, count."""
    count = _shown(formula, text) if formula else 0
    trace = (("modulus", f"{p}^{d}"), ("least_monic_degree", omega1), *rows, ("count", count))
    return CountResult(formula, p_exponent, trace)


def _power(p: int, d: int, omega1: int, e: int) -> CountResult:
    """The count p**e."""
    return _result(p, d, omega1, (p, e), e, (("count-exponent", e),), f"{p}^{e}")


def count_null_le(n: int, p: int, d: int) -> CountResult:
    """Number of null polynomials of degree <= n mod p**d (zero poly
    included): p**E(n)."""
    _check_args(n, p, d)
    omega1 = omega1_prime_power(p, d)
    return _power(p, d, omega1, _exponent(n, p, d, omega1))


def count_monic(n: int, p: int, d: int) -> CountResult:
    """Number of monic null polynomials of degree exactly n mod p**d:
    0 below omega1, else p**E(n - 1).

    From omega1 on, x(x-1)...(x-n+1) is null and monic of degree n, so
    f -> f - x(x-1)...(x-n+1) maps the monic null polynomials of degree n
    one to one onto the null polynomials of degree < n.
    """
    _check_args(n, p, d)
    omega1 = omega1_prime_power(p, d)
    if n < omega1:
        return _result(p, d, omega1)
    return _power(p, d, omega1, _exponent(n - 1, p, d, omega1))


def count_monic_le(n: int, p: int, d: int) -> CountResult:
    """Number of monic null polynomials of degree <= n mod p**d: the sum of
    count_monic over omega1..n, p**E(omega1 - 1) times a geometric factor.

    The factor is ≡ 1 (mod p) and exceeds 1 when n > omega1, so the total
    is a power of p only at n = omega1.
    """
    _check_args(n, p, d)
    omega1 = omega1_prime_power(p, d)
    if n < omega1:
        return _result(p, d, omega1)
    e = _exponent(omega1 - 1, p, d, omega1)
    top = d * (n - omega1 + 1)
    geometric = f"({p}^{top}-1)/({p}^{d}-1)"
    rows = (("threshold-exponent", e), ("geometric-factor", _shown((p, 0, top, d), geometric)))
    return _result(p, d, omega1, (p, e, top, d), e if n == omega1 else None, rows,
                   f"{p}^{e}*{geometric}")
