"""Null-ness and null order mod m, read off the Newton coordinates.

f = sum_k b_k * x(x-1)...(x-k+1) is null mod m iff m divides every Newton
coordinate a_k = k! * b_k (Singmaster 1974). By question:
- is f null mod m: is_null_binomial, by _fold for a prime m and by
  _newton_coords for any other;
- the largest d <= d_max with f null mod p**d: null_order;
- the least x with f(x) not ≡ 0 (mod m): null_witness, by evaluation, the
  independent check;
- the coordinates a_k mod m themselves: _newton_coords, which
  canonical.canonical_form shares.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice
from operator import add, mul

from .polys import Polynomial
from .primes import is_prime, require_prime, vp_factorial


def _fold(coeffs: Sequence[int], p: int) -> list[int]:
    """Coefficients mod the prime p of the fold of f by x**p ≡ x, of length
    min(len(coeffs), p): x**k with k >= 1 lands on x**j, 1 <= j < p,
    j ≡ k (mod p - 1), the same function mod p. Trailing zeros are kept."""
    if not coeffs:
        return []
    step = p - 1
    # add up to min(p - 1, 10) chunks of p - 1, else sum slices: they win from 5 to 10 chunks
    if len(coeffs) > step * min(step, 10) + 1:
        return [coeffs[0] % p] + [sum(coeffs[j::step]) % p for j in range(1, p)]
    acc = list(coeffs[1:p])
    for i in range(p, len(coeffs), step):
        chunk = coeffs[i:i + step]
        acc[:len(chunk)] = map(add, acc, chunk)
    return [coeffs[0] % p, *map(p.__rmod__, acc)]


# _newton_coords leaves synthetic division for its blocks once m has at
# least _HORNER_MIN_BITS bits and f at least _HORNER_MIN_TERMS coefficients.
# Measured (Python 3.11, 2-core x86-64) on random f mod primes, every
# coordinate taken: at 400 coefficients division wins while m fits one
# 30-bit digit (12 against 15 ms at 2**30), the blocks from two digits on
# (24 against 16 ms at 2**32, 16 against 11 ms at 2**80). From 40 to 512
# bits the blocks took 0.87-1.5 times division's time at 32 coefficients,
# 0.82-1.19 at 128 and 0.75-0.89 at 512.
_HORNER_MIN_BITS = 33
_HORNER_MIN_TERMS = 128
# Coordinates still taken by division past both thresholds: a non-null f
# with an early nonzero coordinate is answered without a block.
_DIVISION_PASSES = 8
# Widest block, and Horner steps between reductions mod m. On
# the least monic null polynomials mod 5**200 (degree 805) and 7**148 (896)
# blocks of 64 and 128, doubling from the first or not, and reductions
# every 16 or 32 steps all cost within the host's noise of each other
# (78-92 against division's 116 ms, 108-110 against 152 ms). Of degree 5000
# mod 2**6000, with its first nonzero coordinate at 20 or 300, f is
# answered in 0.1 and 0.3 s with blocks of 64, 0.08 and 0.5 s with 128.
_HORNER_BLOCK = 64
_HORNER_REDUCE = 16


def _newton_coords(coeffs: Sequence[int], m: int) -> Iterator[int]:
    """Yield a_k = k! * b_k mod m, where
    sum_i coeffs[i] * x**i = sum_k b_k * x(x-1)...(x-k+1), for k < len(coeffs),
    ending at the first k with k! ≡ 0 (mod m), k = mu(m): from there every
    a_k is 0, and the end is found without factoring m. No evaluation is
    made. Callers with a prime m fold f first (is_null_binomial,
    canonical._part_coords), so a prime m never meets a long f here.

    One list q carries f's residues mod m, top coefficient first, through
    two steps, each O(deg * min(deg, mu)) multiply-adds.

    Division: step k divides q by (x - k) in place and pops b_k, the
    remainder, off its end, leaving the coefficients of
    sum_j b_(k+1+j) * (x-k-1)...(x-k-j): one interpreted multiply-add and
    % m per entry. Below _HORNER_MIN_BITS bits of m or _HORNER_MIN_TERMS
    coefficients every step runs so; past both only the first
    _DIVISION_PASSES do, so a non-null f whose first nonzero coordinate is
    early is answered at once.

    Blocks: the rest runs Horner's rule g -> x*g + c on B, g's coordinates
    in P_j = (x-k)(x-k-1)...(x-k-j+1), k the next coordinate, fed q's
    entries. Since x * P_j = P_(j+1) + (k+j) * P_j, B[j]
    becomes B[j-1] + (k+j) * B[j] and B[0] becomes c + k * B[0], in two
    C-level map passes. Coordinate j depends on j-1 and itself alone, so a
    block of coordinates j0 <= j < j0 + width runs the same steps fed by
    B[j0 - 1] before each step, the top entry of the block below, recorded
    in tops, which becomes the next block's q. After t steps g has degree
    t - 1, so a block is empty for its first j0 steps and grows by one
    entry a step until full; a step that feeds 0 to a zero block leaves it
    so and is skipped. Each block yields its coordinates before the next one
    runs, and is as wide as the count of coordinates before it, up to
    _HORNER_BLOCK: a consumer that stops at coordinate k has paid for at
    most about min(k, _HORNER_BLOCK) more. B is reduced mod m every
    _HORNER_REDUCE steps, so no entry exceeds m by more than about
    _HORNER_REDUCE * log2(len(coeffs)) bits."""
    q = [a % m for a in reversed(coeffs)]
    fact, k = 1 % m, 0
    passes = len(q)
    if m.bit_length() >= _HORNER_MIN_BITS and passes >= _HORNER_MIN_TERMS:
        passes = _DIVISION_PASSES
    while q and fact and k < passes:
        acc = 0
        for i in range(len(q)):
            q[i] = acc = (q[i] + k * acc) % m
        yield fact * q.pop() % m
        k += 1
        fact = fact * k % m
    mod = m.__rmod__  # mod(v) == v % m
    while q and fact:
        width = min(_HORNER_BLOCK, len(q), max(k, 1))
        nodes = range(k + 1, k + width)
        block, tops = [q[0]], []
        for t, c in enumerate(islice(q, 1, None), 2):
            if len(block) < width:
                block = [c + k * block[0], *map(add, block, map(mul, islice(block, 1, None), nodes)), block[-1]]
            elif c or any(block):
                tops.append(block[-1])
                block = [c + k * block[0], *map(add, block, map(mul, islice(block, 1, None), nodes))]
            else:
                tops.append(0)
            if not t % _HORNER_REDUCE:
                block = list(map(mod, block))
        q = list(map(mod, tops))
        for b in block:
            yield fact * b % m
            k += 1
            fact = fact * k % m
            if not fact:
                return


def is_null_binomial(f: Polynomial, m: int) -> bool:
    """Newton-basis test: null mod m iff every a_k = k! * b_k ≡ 0 (mod m).

    For a prime m, null iff the fold of f by x**m - x is 0 mod m, in
    O(deg) with no transform: by Lagrange, the fold is the only polynomial
    of degree < m with f's function mod m."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if is_prime(m):
        return not any(_fold(f.coeffs, m))
    return not any(_newton_coords(f.coeffs, m))


def null_order(f: Polynomial, p: int, d_max: int) -> int:
    """Largest d <= d_max with f null mod p**d; 0 if f is not null mod p.

    One transform mod p**d_max: f is null mod p**d iff p**d divides every
    a_k, so the answer is min(d_max, min_k v_p(a_k mod p**d_max)).

    d_max is first clamped to v_p(n!) + v_p(c_n), the valuation of the top
    coordinate a_n = n! * c_n of f of degree n, which is never 0; so a huge
    d_max builds no huge power of p, and c * x(x-1)...(x-n+1) attains the
    clamp. The zero polynomial is null mod every p**d and answers
    max(d_max, 0) at once. A clamped d_max <= 1 is answered by
    is_null_binomial mod p, which folds.
    """
    require_prime(p)
    if not f:
        return max(d_max, 0)
    c, cap = f.coeffs[-1], vp_factorial(p, f.degree)
    while c % p == 0:
        c, cap = c // p, cap + 1
    order = max(min(d_max, cap), 0)
    if order <= 1:
        return int(order == 1 and is_null_binomial(f, p))
    m = unit = p ** order  # unit = p**order divides every a_k seen so far
    for a in _newton_coords(f.coeffs, m):
        if a % unit:  # then v_p(a) < order: count it from below
            order = 0
            while a % p == 0:
                a, order = a // p, order + 1
            unit = p ** order
        if not order:
            break
    return order


def null_witness(f: Polynomial, m: int) -> int | None:
    """Smallest x >= 0 with f(x) not ≡ 0 (mod m), or None if f is null.

    The window x < min(mu(m), deg f + 1) is complete, so None is a verdict:
    a_k = Δ^k f(0) is a Z-combination of f(0..k), and a_k ≡ 0 from k = mu(m)
    on. The scan ends at the first x with x! ≡ 0 (mod m), without factoring m."""
    fact = 1 % m  # x! mod m
    for x in range(len(f.coeffs)):
        if not fact:
            break
        if f.eval_mod(x, m):
            return x
        fact = fact * (x + 1) % m
    return None
