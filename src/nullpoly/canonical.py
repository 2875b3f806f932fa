"""Degree reduction and a complete invariant for function equality mod m.

With f = sum_k b_k * x(x-1)...(x-k+1), every term with k >= mu(m) is null
(m | k!) and a multiple of x(x-1)...(x-mu+1). So the truncation at k < mu
is equivalent to f, and is its remainder by that basis mod m; and the
Newton coordinates a_k = k! * b_k mod m, k < mu, are a complete invariant.
(Monomial coefficients of the remainder are not: p * x(x-1)...(x-p+1) is a
null polynomial mod p**2 of degree below mu.)
"""
from __future__ import annotations

from ._record import Record
from .construct import kempner_mu
from .oracle import _falling_coords, _newton_coords, is_null_binomial
from .polys import Polynomial


class CanonicalForm(Record):
    """Newton coordinates (length mu(m), entries in [0, m)) of the
    degree-reduced representative; equal forms iff equivalent polynomials."""

    __slots__ = ("m", "a")

    def __init__(self, m: int, a: tuple[int, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)


def reduce_degree(f: Polynomial, m: int) -> Polynomial:
    """Equivalent polynomial of degree < mu(m), coefficients in [0, m)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    b = list(_falling_coords(f.coeffs, m, kempner_mu(m)))
    r: list[int] = []
    for k in range(len(b) - 1, -1, -1):
        # r <- r * (x - k) + b_k, Horner's scheme in the falling basis
        r = [(lo - k * hi) % m for lo, hi in zip([b[k]] + r, r + [0])]
    return Polynomial(r)


def canonical_form(f: Polynomial, m: int) -> CanonicalForm:
    mu = kempner_mu(m)
    a = list(_newton_coords(f.coeffs, m))
    a += [0] * (mu - len(a))
    return CanonicalForm(m, tuple(a))


def equivalent(f: Polynomial, g: Polynomial, m: int) -> bool:
    """True iff f and g induce the same function on Z_m."""
    return is_null_binomial(f - g, m)
