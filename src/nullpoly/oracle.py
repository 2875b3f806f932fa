"""Null-ness and null order, read off one falling-factorial transform.

Write f = sum_k b_k * x(x-1)...(x-k+1); a_k = k! * b_k is the k-th Newton
coordinate (forward difference at 0). f is null mod m iff every
a_k ≡ 0 (mod m) (Singmaster 1974): a term's values are a_k * C(x, k), and
a_k is a Z-combination of f(0..k). From the first k with k! ≡ 0 (mod m),
k = mu(m), every a_k ≡ 0, so a scan stops there without factoring m.
_falling_coords gives k! and b_k mod m by synthetic division, with no
evaluations, and stops there by itself.
A prime m needs no transform for nullity. _fold folds f by x**m - x, the
paper's null polynomial: every x**k with k >= m goes onto x**(k-m+1),
leaving degree < m, and f and its fold are the same function mod m. By
Lagrange, a polynomial of degree < m over F_m is the only one of that
degree with its function, so f is null mod m iff its fold is 0: O(deg).
Every entry point decides the prime case itself and folds before any
transform: is_null_binomial, and null_order through it when the answer
can only be 0 or 1; canonical.reduce_degree and canonical.canonical_form
fold too, so _falling_coords never sees a prime modulus with a long f.
The top coordinate a_n = n! * c_n of f of degree n is never 0, so f is
null mod no power of p above v_p(n!) + v_p(c_n): null_order works mod no
larger power.
null_witness, the independent check, evaluates f on the complete window
x < min(mu(m), deg f + 1), and stops where _falling_coords does.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

from .polys import Polynomial
from .primes import is_prime, require_prime, vp_factorial


def _fold(coeffs: Sequence[int], p: int) -> list[int]:
    """Coefficients mod the prime p of the fold of f by x**p ≡ x, of length
    min(len(coeffs), p): x**k with k >= 1 lands on x**j, 1 <= j < p,
    j ≡ k (mod p - 1), the same function mod p. Trailing zeros are kept."""
    if not coeffs:
        return []
    return [coeffs[0] % p] + [sum(coeffs[j::p - 1]) % p for j in range(1, min(len(coeffs), p))]


def _falling_coords(coeffs: Sequence[int], m: int) -> Iterator[tuple[int, int]]:
    """Yield (k! mod m, b_k mod m), where
    sum_i coeffs[i] * x**i = sum_k b_k * x(x-1)...(x-k+1), for k < len(coeffs),
    ending at the first k with k! ≡ 0 (mod m), k = mu(m): from there every
    term is null, and the end is found without factoring m. Step k divides
    the quotient left by step k-1 by (x - k) in place, with remainder b_k.
    Cost: O(deg * min(deg, mu)) multiply-adds by small ints; callers with a
    prime m fold f first (module docstring)."""
    c = [a % m for a in coeffs]
    fact = 1 % m
    for k in range(len(c)):
        if not fact:
            return
        acc = 0
        for i in range(len(c) - 1, k - 1, -1):
            acc = (c[i] + k * acc) % m
            c[i] = acc
        yield fact, acc
        fact = fact * (k + 1) % m


def _newton_coords(coeffs: Sequence[int], m: int) -> Iterator[int]:
    """Yield a_k = k! * b_k mod m for k < min(deg + 1, mu(m)); past mu(m)
    every a_k is 0."""
    return (fact * b % m for fact, b in _falling_coords(coeffs, m))


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
