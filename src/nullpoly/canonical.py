"""Degree reduction and a complete invariant for function equality mod m.

With f = sum_k b_k * x(x-1)...(x-k+1), every term with k >= mu(m) is null
(m | k!) and a multiple of x(x-1)...(x-mu+1). So f is equivalent to its
remainder by that basis mod m, and the Newton coordinates
a_k = k! * b_k mod m, k < mu, are a complete invariant. (Monomial
coefficients of the remainder are not: p * x(x-1)...(x-p+1) is a null
polynomial mod p**2 of degree below mu.) By question:
- an equivalent polynomial of degree < mu(m): reduce_degree, which never
  factors m;
- the complete invariant: canonical_form, from modulus.crt_plan(m), each
  prime power's coordinates by _part_coords;
- do f and g induce the same function mod m: equivalent, by
  oracle.is_null_binomial, which never factors m.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

from ._record import Record
from .modulus import crt_plan, crt_sum
from .oracle import _fold, _newton_coords, is_null_binomial
from .polys import Polynomial, _kronecker, _rem_monic, reduce_coeffs
from .primes import is_prime, prime_factorization

# Mod a prime p, canonical_form takes the values path when the fold's length
# n has n**2 > _VALUES_CROSSOVER * s * p, with s = min(max(b - 9, 1), 6) for
# p of b bits: the transform costs about n**2 / 2 steps, the values path
# about p steps and two products, which grow faster than p from about
# 2**10. Time of one call, transform / values path, per-prime tables cached,
# on a 2-core x86-64 host (Python 3.11), by r = n**2 / p (us up to 1009,
# then ms):
#   p     | r = 10  | 20      | 25        | 40        | 70        | 100       | 150       | n = p
#   23    | 13/27   | 22/29   | 25/29     |           |           |           |           | 25/30
#   43    | 21/43   | 40/44   | 48/45     | 75/46     |           |           |           | 81/49
#   53    | 27/51   | 48/52   | 60/54     | 93/57     |           |           |           | 116/55
#   101   | 45/83   | 82/86   | 105/90    | 156/92    | 284/96    | 368/101   |           | 384/101
#   457   | 237/423 | 463/441 | 543/434   | 876/446   | 1490/461  | 2091/481  | 3204/503  | 10277/570
#   1009  | 476/1054| 951/1073| 1156/1664 | 2428/1740 | 4351/1196 | 4773/1249 | 7297/1278 | 54362/1595
#   2003  | 0.9/4.2 | 1.7/4.3 | 2.1/4.4   | 3.5/5.5   | 6.5/6.2   | 8.8/5.6   | 14.6/5.9  | 207/7.4
#   4999  | 2.1/17  | 4.3/17  | 5.4/17    | 8.8/17    | 15.8/17   | 22.6/17.5 | 35/32     | 1340/31
#   9973  | 4.2/42  | 9.2/48  | 12.4/54   | 18.1/50   | 35/52     | 50/58     | 108/63    | 7015/110
#   99991 | 51/1048 | 147/1049| 179/1055  | 299/1059  | 502/970   | 608/963   | 725/606   |
# The two cost the same at r = 20-25 from p = 43 to 1009 (s = 1), about 65
# at 2003 (s = 2), 85 at 4999 (s = 4), 110-120 at 9973 (s = 5) and 140 at
# 99991 (s = 6). At p <= 23 the fold is too short for the values path to
# win (r <= p).
_VALUES_CROSSOVER = 20

# Mod m of two or more prime powers, canonical_form combines the forms mod
# them from this mu(m) on, and takes one transform mod m below it. Median
# time of the split over one transform, on up to six such m < 3000 a mu, f of
# n = 1.5 * mu and 4 * mu random coefficients (same host as above):
#   mu        | 8    | 12   | 15   | 17   | 20   | 21   | 22   | 26   | 29   | 34
#   1.5 * mu  | 2.23 | 1.48 | 1.60 | 1.53 | 1.38 | 1.17 | 1.23 | 0.89 | 1.02 | 0.83
#   4 * mu    | 1.43 | 1.25 | 1.25 | 0.71 | 1.02 | 0.77 | 0.59 | 0.57 | 0.47 | 0.39
# From mu 20 on a short f pays at most about 1.4 times, and a longer one
# gains, the more the longer: mod 2 * 9973, f of degree 6000 takes 0.05 s
# against 1.9 s.
_SPLIT_MIN_MU = 20


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
# primes per seed, and the split of its three moduli k * q about three
# more, q near 50. One entry is six tuples of about p residues, which share
# one int object per residue: about 28 kB at p near 460, and 7.6 MB at p
# near 10**5, the CLI's mu limit (measured by tracemalloc; building it peaks
# at about 35 MB there), so a full cache of such primes holds about 60 MB.
@lru_cache(maxsize=8)
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
    the prime p and len(c) <= p, from its values on F_p, in O(p) steps and
    two integer products (polys._kronecker):
    - f(0) is c_0, and f(g**i), i < p - 1, for a primitive root g, is one
      product by Bluestein's chirp, ik = T(i+k) - T(i) - T(k) with
      T(t) = t(t-1)/2 (Bluestein 1970);
    - a_k = sum_{j<=k} C(k, j) (-1)**(k-j) f(j) is k! times the coefficient
      of x**k in (sum_j f(j) x**j / j!) * e**(-x), a second product, since
      every k! with k < p is a unit mod p.
    What derives from p alone comes from the cached _values_tables(p); a
    call makes C-level map passes over them around its two products."""
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
# composite moduli per seed. reduce_degree mod m and canonical_form's parts
# p**d, d >= 2, share it: the split parts of that pool are the prime powers
# it asks reduce_degree about, so they add no entries. One entry is mu
# residues: about 3.6 MB at mu = 10**5, the CLI's mu limit.
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
    remainder of f by x(x-1)...(x-mu+1) mod m, found without factoring m.

    For a prime m it is the fold of f by x**m - x (oracle._fold), in O(deg)
    with no transform: by Lagrange the only polynomial of degree < m with
    f's function, and the remainder by the basis, which is ≡ x**m - x
    (mod m). Otherwise mu is the first k with k! ≡ 0 (mod m), scanned for
    k <= deg f; a scan that ends without one leaves deg f < mu, and f's
    residues are the answer. Else f is divided exactly by the basis mod m,
    x**mu ≡ sum_j tail_j * x**j (_kempner_tail, cached per modulus), in
    O((deg f - mu) * mu) slot-words on one packed window
    (polys._rem_monic)."""
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


def _part_coords(coeffs, p: int, d: int, q: int, mu: int) -> list[int]:
    """a_k mod q = p**d of sum_i coeffs[i] * x**i, k < mu = mu(q) at most,
    for a part (p, d, q, mu) of modulus.crt_plan. For d = 1 they are read
    off the fold of length n <= p (oracle._fold): by the transform (n of
    them), or from the fold's values on F_p (_newton_coords_by_values, p of
    them) when n**2 > _VALUES_CROSSOVER * s * p, s rising with p's bit
    length (see the constant). For d >= 2 they are the transform mod q of
    f's remainder by the basis mod q, whose tail, shared with
    reduce_degree, is read only when f is longer than mu: so the transform
    runs on at most mu coefficients, however long f is."""
    if d == 1:
        c = _fold(coeffs, p)
        if len(c) ** 2 > _VALUES_CROSSOVER * min(max(p.bit_length() - 9, 1), 6) * p:
            return _newton_coords_by_values(c, p)
        return list(_newton_coords(c, p))
    if len(coeffs) > mu:
        coeffs = _rem_monic(coeffs, _kempner_tail(q, mu), q)
    return list(_newton_coords(coeffs, q))


def canonical_form(f: Polynomial, m: int) -> CanonicalForm:
    """Newton coordinates a_k mod m, k < mu(m), padded with zeros to mu(m),
    from the cached modulus.crt_plan(m), so a repeated m is factored once.

    A prime or a prime power is one part, whose coordinates are the form
    (_part_coords). Mod m of two or more prime powers p**d, a_k mod m is
    fixed by a_k mod each p**d (CRT, the paper's first reduction), and
    a_k ≡ 0 (mod p**d) from k = mu(p**d) on: the form is the coordinatewise
    CRT of the parts' coordinates (modulus.crt_sum), unless
    mu(m) < _SPLIT_MIN_MU; then it is one transform mod m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    mu, parts, weights = crt_plan(m)
    if len(parts) == 1:
        a = _part_coords(f.coeffs, *parts[0])
    elif mu < _SPLIT_MIN_MU:
        a = list(_newton_coords(f.coeffs, m))
    else:
        a = crt_sum([_part_coords(f.coeffs, *part) for part in parts], weights, m)
    a += [0] * (mu - len(a))
    return CanonicalForm(m, tuple(a))


def equivalent(f: Polynomial, g: Polynomial, m: int) -> bool:
    """True iff f and g induce the same function on Z_m."""
    return is_null_binomial(f - g, m)
