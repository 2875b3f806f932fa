"""Degree reduction and a complete invariant for function equality mod m.

With f = sum_k b_k * x(x-1)...(x-k+1), every term with k >= mu(m) is null
(m | k!) and a multiple of x(x-1)...(x-mu+1). So the truncation at k < mu
is equivalent to f, and is its remainder by that basis mod m; and the
Newton coordinates a_k = k! * b_k mod m, k < mu, are a complete invariant.
(Monomial coefficients of the remainder are not: p * x(x-1)...(x-p+1) is a
null polynomial mod p**2 of degree below mu.)

reduce_degree mod a composite m computes that remainder by exact long
division. mu is the first k with k! ≡ 0 (mod m), scanned for k <= deg f,
so m is never factored; a scan that ends without one leaves deg f < mu, and
f's residues are the answer. Otherwise f is divided by the basis mod m,
x**mu ≡ sum_j tail_j * x**j, in O((deg f - mu) * mu) slot-words on one
packed window (polys._rem_monic). _kempner_tail keeps the tail per modulus
in a bounded lru_cache, and builds it by a product tree of the linear
factors reduced mod m at every node, so no coefficient grows to the size
of mu! as it would over Z.

A prime m = p is answered from the fold of f by x**p - x (oracle._fold).
By Lagrange, the fold is the only polynomial of degree < p with f's
function mod p, so it is the reduced polynomial, and it is the remainder
by x(x-1)...(x-p+1) as well, because that product is ≡ x**p - x (mod p).
The canonical form reads a_k, k < p, off the fold of length n. A short
fold goes through the O(n**2) transform; a long one, with
n**2 > _VALUES_CROSSOVER * p, through its values on F_p, in O(p) steps
and two integer products (polys._kronecker):
- f(0) is c_0, and f(g**i), i < p - 1, for a primitive root g, is one
  product by Bluestein's chirp, ik = T(i+k) - T(i) - T(k) with
  T(t) = t(t-1)/2 (Bluestein 1970);
- a_k = sum_{j<=k} C(k, j) (-1)**(k-j) f(j) is k! times the coefficient of
  x**k in (sum_j f(j) x**j / j!) * e**(-x), a second product, since every
  k! with k < p is a unit mod p.
Everything the values path derives from p alone (the chirp and its
inverse, the discrete logs, the factorials and the e**(-x) row) is built
once per prime by _values_tables, in a bounded lru_cache; a call makes
C-level map passes over them around its two products.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

from ._record import Record
from .modulus import kempner_mu
from .oracle import _fold, _newton_coords, is_null_binomial
from .polys import Polynomial, _kronecker, _rem_monic, reduce_coeffs
from .primes import is_prime, prime_factorization

# Mod a prime p, canonical_form takes the values path when the fold's length
# n has n**2 > _VALUES_CROSSOVER * p: the transform costs about n**2 / 2
# steps, the values path about p steps and two products. The two cost the
# same at n**2 / p = 20-25 (p = 457 and 1009), 100-130 (9973) and 100-160
# (99991) on a 2-core x86-64 host, with the per-prime tables cached; at 70
# neither pays over about 3x.
_VALUES_CROSSOVER = 70


class CanonicalForm(Record):
    """Newton coordinates (length mu(m), entries in [0, m)) of the
    degree-reduced representative; equal forms iff equivalent polynomials."""

    __slots__ = ("m", "a")


def _primitive_root(p: int) -> int:
    """Least generator of the multiplicative group mod the prime p."""
    qs = [q for q, _ in prime_factorization(p - 1)] if p > 2 else []
    g = 1
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


# Bounded for long-lived callers; bench's equiv workload asks about three
# primes per seed. One entry is six tuples of about p residues, which share
# one int object per residue: about 28 kB at p near 460, and 7.6 MB at p
# near 10**5, the CLI's mu limit (measured by tracemalloc; building it peaks
# at about 35 MB there), so a full cache of such primes holds about 30 MB.
@lru_cache(maxsize=4)
def _values_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """What the values path mod the prime p derives from p alone, each entry
    a residue mod p: the chirp g**T(t) and its inverse for t < p - 1
    (g = _primitive_root(p)); for x = 1..p-1 the discrete log i of
    x = g**i and g**-T(i) / x!; the e**(-x) row (-1)**k / k! and the
    factorials k!, k < p."""
    g = _primitive_root(p)
    powers = [1] * (p - 1)  # g**i
    for i in range(1, p - 1):
        powers[i] = powers[i - 1] * g % p
    # T(t) = 0 + 1 + ... + (t - 1), and g**(p-1) = 1
    tri = [e % (p - 1) for e in accumulate(range(p - 2), initial=0)]
    chirp = list(map(powers.__getitem__, tri))
    chirp_inv = [powers[-e] for e in tri]
    logs = sorted(range(p - 1), key=powers.__getitem__)  # logs[x - 1] = i, x = g**i
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    fact_inv = [1] * p
    fact_inv[p - 1] = p - 1  # Wilson: (p-1)! ≡ -1, its own inverse
    for k in range(p - 1, 1, -1):
        fact_inv[k - 1] = fact_inv[k] * k % p
    scale = [chirp_inv[i] * e % p for i, e in zip(logs, fact_inv[1:])]
    e_minus = [p - e if k % 2 else e for k, e in enumerate(fact_inv)]
    residue = tuple(range(p)).__getitem__  # one int object per residue for all six
    return tuple(tuple(map(residue, t)) for t in (chirp, chirp_inv, logs, scale, e_minus, fact))


def _newton_coords_by_values(c: list[int], p: int) -> list[int]:
    """a_k mod p, k < p, of sum_k c[k] * x**k with c nonempty residues mod
    the prime p and len(c) <= p, from its values on F_p: Bluestein's chirp,
    then the exponential generating function product (module docstring)."""
    chirp, chirp_inv, logs, scale, e_minus, fact = _values_tables(p)
    mod = p.__rmod__  # mod(v) == v % p
    n = min(len(c), p - 1)
    u = c[:n]
    if len(c) == p:  # x**(p-1) is 1 at every x != 0
        u[0] += c[p - 1]
    u = list(map(mod, map(mul, u, chirp_inv)))
    u.reverse()
    s = _kronecker(u, chirp)
    # g**T(t + p - 1) = -g**T(t), so the terms with i + k >= p - 1 are the
    # product's coefficient p - 1 places lower, negated: w[i] is f(g**i)
    # times g**T(i), up to a multiple of p
    w = list(map(sub, s[n - 1:], [0] * (p - n) + s[:n - 1]))
    egf = _kronecker([c[0], *map(mod, map(mul, map(w.__getitem__, logs), scale))], e_minus)
    return list(map(mod, map(mul, fact, egf)))


# Bounded for long-lived callers; bench's equiv workload asks about nine
# composite moduli per seed. One entry is mu residues: about 3.6 MB at
# mu = 10**5, the CLI's mu limit.
@lru_cache(maxsize=16)
def _kempner_tail(m: int, mu: int) -> tuple[int, ...]:
    """tail_j, j < mu, with x**mu ≡ sum_j tail_j * x**j modulo m and
    x(x-1)...(x-mu+1), each a residue mod m: that basis mod m, built by a
    product tree of its linear factors reduced mod m at every node, and
    its lower coefficients negated."""
    mod = m.__rmod__
    level = [[-i % m, 1] for i in range(mu)]
    while len(level) > 1:
        pairs = zip(level[::2], level[1::2])
        level = [list(map(mod, _kronecker(a, b))) for a, b in pairs] + level[len(level) & ~1:]
    return tuple(-v % m for v in level[0][:-1])


def reduce_degree(f: Polynomial, m: int) -> Polynomial:
    """Equivalent polynomial of degree < mu(m), coefficients in [0, m): the
    remainder of f by x(x-1)...(x-mu+1) mod m. For a prime m this is the
    fold of f by x**m - x, by Lagrange the only polynomial of degree < m
    with f's function, in O(deg), with no factorization and no transform.
    For a composite m it is long division by the cached basis mod m, with
    mu found by the k! scan, which stops at k = deg f (module docstring)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if is_prime(m):
        return Polynomial(_fold(f.coeffs, m))
    fact, mu = 1, 0
    while fact:
        mu += 1
        if mu >= len(f.coeffs):
            return reduce_coeffs(f, m)
        fact = fact * mu % m
    return Polynomial(_rem_monic(f.coeffs, _kempner_tail(m, mu), m))


def canonical_form(f: Polynomial, m: int) -> CanonicalForm:
    """Newton coordinates a_k mod m, k < mu(m). For a prime m they are
    read off the fold of f by x**m - x, of length n: by the transform when
    n**2 <= _VALUES_CROSSOVER * m, else from the fold's values on F_m
    (module docstring)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if is_prime(m):
        c, mu = _fold(f.coeffs, m), m
        if len(c) ** 2 > _VALUES_CROSSOVER * m:
            return CanonicalForm(m, tuple(_newton_coords_by_values(c, m)))
    else:
        c, mu = f.coeffs, kempner_mu(m)
    a = list(_newton_coords(c, m))
    a += [0] * (mu - len(a))
    return CanonicalForm(m, tuple(a))


def equivalent(f: Polynomial, g: Polynomial, m: int) -> bool:
    """True iff f and g induce the same function on Z_m."""
    return is_null_binomial(f - g, m)
