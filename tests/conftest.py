"""Shared brute-force helpers, independent oracles and strategies for the
test suite.

The library answers each question one way, from falling-factorial
coordinates. The paper's own formulas that no question needs (the layered
enumeration theorem, the digit-block count, the scaled tower values, the
reduction of a composite modulus to its prime powers) and the
definitional brute-force checks live here, as the independent oracles the
tests hold the library to.
"""
from itertools import product

from hypothesis import strategies as st

from nullpoly.construct import digit_vector, least_monic_null, repunit
from nullpoly.modulus import crt_combine_poly, omega1_composite
from nullpoly.polys import Polynomial, reduce_coeffs

PRIMES_TO_200 = [p for p in range(2, 200) if all(p % k for k in range(2, p))]


def eval_vector(f: Polynomial, m: int) -> tuple[int, ...]:
    return tuple(f.eval_mod(x, m) for x in range(m))


def is_null_eval(f: Polynomial, m: int) -> bool:
    """Definitional test: f(x) ≡ 0 (mod m) for x = 0..m-1.

    The finite window suffices because x1 ≡ x2 (mod m) forces
    f(x1) ≡ f(x2) (mod m).
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return all(f.eval_mod(x, m) == 0 for x in range(m))


def is_null_composite(f: Polynomial, fm) -> bool:
    """Null mod m iff null mod every prime power p**d of the factorization
    fm, a list of (p, d) pairs, each tested by definition."""
    return all(is_null_eval(f, p ** d) for p, d in fm)


def is_monic_mod(f: Polynomial, m: int) -> bool:
    d = reduce_coeffs(f, m).degree
    return d is not None and f.coeffs[d] % m == 1 % m


def least_monic_null_composite(factors) -> Polynomial:
    """The paper's reduction: a least-degree monic null polynomial mod m
    from the prime-power ones of its factorization, a list of (p, d)
    pairs. Each least_monic_null(p, d) is padded to the common degree
    omega1 by a power of x (a multiple of a null polynomial is null, and
    x**k keeps it monic), and the parts are combined by CRT."""
    target = omega1_composite(factors)
    return crt_combine_poly([
        (reduce_coeffs(h.shift(target - h.degree), p ** d), p ** d)
        for p, d in factors for h in [least_monic_null(p, d)]
    ])


def brute_null_set(m: int, max_degree: int) -> set[Polynomial]:
    """All reduced null polynomials of degree <= max_degree mod m, by the
    definitional evaluation test over every coefficient vector."""
    polys = (Polynomial(c) for c in product(range(m), repeat=max_degree + 1))
    return {f for f in polys if is_null_eval(f, m)}


def brute_least_monic_degree(m: int, degree_cap: int) -> int | None:
    """Exhaustive search for the least degree of a monic null poly mod m.

    Scans every monic coefficient vector in [0,m)**n for n = 1..degree_cap;
    returns None when no monic null polynomial of degree <= degree_cap
    exists. Cost is m**degree_cap, so the preconditions are enforced.
    """
    if m < 2 or m > 16:
        raise ValueError("brute search requires 2 <= m <= 16")
    if degree_cap < 1 or degree_cap > 6:
        raise ValueError("brute search requires 1 <= degree_cap <= 6")
    for n in range(1, degree_cap + 1):
        for tail in product(range(m), repeat=n):
            if is_null_eval(Polynomial(tail + (1,)), m):
                return n
    return None


def schoolbook_product(a, b) -> list[int]:
    """Coefficients of the product of two nonempty coefficient sequences,
    by the definition c_k = sum_{i+j=k} a_i * b_j."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def least_monic_null_schoolbook(p: int, d: int) -> Polynomial:
    """least_monic_null(p, d) by the tower recursion and the digit vector,
    one factor at a time, every product by schoolbook_product."""
    def mul(f, g):
        return Polynomial(schoolbook_product(f.coeffs, g.coeffs))

    h, g = Polynomial((1,)), Polynomial((0, 1))
    for k, e in enumerate(digit_vector(p, d), 1):
        step = p ** repunit(p, k - 1)
        level = Polynomial((1,))
        for i in range(p):
            level = mul(level, g - Polynomial((i * step,)))
        for _ in range(e):
            h = mul(h, level)
        g = level
    return h


def divmod_monic(f: Polynomial, g: Polynomial, m: int) -> tuple[Polynomial, Polynomial]:
    """Long division of f by a g that is monic mod m, all arithmetic mod m.

    Returns (q, r) with f ≡ g*q + r coefficient-wise mod m and
    deg r < deg g mod m. Valid only because g's leading coefficient is a
    unit (≡ 1); raises ValueError otherwise.
    """
    dg = reduce_coeffs(g, m).degree
    if dg is None:
        raise ValueError("division by a polynomial that is zero mod m")
    if g.coeffs[dg] % m != 1 % m:
        raise ValueError("divisor is not monic mod m")
    gred = [c % m for c in g.coeffs[: dg + 1]]
    rem = [c % m for c in f.coeffs]
    if len(rem) <= dg:
        return Polynomial(()), Polynomial(rem)
    quot = [0] * (len(rem) - dg)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            quot[k - dg] = c
            for i in range(dg + 1):
                rem[k - dg + i] = (rem[k - dg + i] - c * gred[i]) % m
    return Polynomial(quot), Polynomial(rem[:dg])


def scaled_tower_value(p: int, n: int, x: int) -> int:
    """Value at x of tower level n divided by p**repunit(p, n) (the paper's
    base-null-polynomial feature), by the value recursion
    v -> (prod_{i<p} (v - i)) / p, never expanding rational polynomials;
    each division is exact because one of p consecutive shifts of an
    integer is divisible by p."""
    v = x
    for _ in range(n):
        acc = 1
        for i in range(p):
            acc *= v - i
        if acc % p:
            raise AssertionError("inexact division in tower value recursion")
        v = acc // p
    return v


def paper_layers(p: int, d: int) -> list[tuple[int, Polynomial, int | None]]:
    """The layers (j, B_j, bound) of the paper's decomposition of the null
    polynomials mod p**d, top level first:

        f = sum_j p**(d-j) * B_j * q_j  (mod p**d),

    B_j the least monic null polynomial mod p**j, the coefficients of q_j
    mattering mod p**j, q_d of free degree (bound None) and deg q_j < p
    below. A level j < d whose digit vector has a digit p is left out: B_j
    then has the degree of B_(j+1), and its layer adds nothing new."""
    return [(j, least_monic_null(p, j), None if j == d else p)
            for j in range(d, 0, -1) if j == d or p not in digit_vector(p, j)]


def paper_null_set(p: int, d: int, n: int) -> set[Polynomial]:
    """Every null polynomial of degree <= n mod p**d, reduced, built as the
    paper's enumeration theorem writes it: the sums over paper_layers of
    p**(d-j) * B_j * q_j with deg(B_j * q_j) <= n."""
    pd = p ** d
    out = {Polynomial(())}
    for j, b, bound in paper_layers(p, d):
        width = n - b.degree + 1
        for k in range(width if bound is None else min(width, bound)):
            term = b.shift(k) * p ** (d - j)
            out = {reduce_coeffs(f + term * c, pd) for f in out for c in range(p ** j)}
    return out


def tower_threshold_exponent(p: int, n: int) -> int:
    """log_p of the number of null polynomials of degree < p**n mod
    p**repunit(p, n): the closed form p**n * (repunit(p, n) - n) / 2."""
    num = p ** n * (repunit(p, n) - n)
    if num % 2:
        raise AssertionError(f"odd tower threshold numerator for p={p}, n={n}")
    return num // 2


def threshold_count_exponent(p: int, d: int) -> tuple[int, list[tuple[int, int, int]]]:
    """log_p of the count of null polynomials of degree < omega1 mod p**d,
    by the paper's digit-block formula.

    Digit e at index i contributes its block exponent
    e*(e-1)*p**i*repunit(p, i)/2 + e*tower_threshold_exponent(p, i), plus
    e * p**i times the value carried by the digits above it,
    sum_{j>i} e_j * repunit(p, j). Returns
    (exponent, [(index, digit, contribution), ...] descending).
    """
    digits = digit_vector(p, d)
    total, blocks, above = 0, [], 0
    for i in range(len(digits), 0, -1):
        e = digits[i - 1]
        if e:
            block = e * (e - 1) * p ** i * repunit(p, i) // 2 + e * tower_threshold_exponent(p, i)
            contrib = e * p ** i * above + block
            total += contrib
            blocks.append((i, e, contrib))
            above += e * repunit(p, i)
    return total, blocks


def equivalent_eval(f: Polynomial, g: Polynomial, m: int) -> bool:
    """True iff f and g induce the same function on Z_m, by comparing
    their value tables."""
    return eval_vector(f, m) == eval_vector(g, m)


def kempner_mu_scan(m: int) -> int:
    """Smallest t with m | t!, by accumulating t! mod m: Kempner's
    definition, independent of the factorization route the library takes."""
    acc, t = 1, 0
    while acc:
        t += 1
        acc = acc * t % m
    return t


def falling_coords_by_division(coeffs, m: int):
    """(k! mod m, b_k mod m) for k < min(len(coeffs), mu(m)), where
    sum_i coeffs[i] * x**i = sum_k b_k * x(x-1)...(x-k+1): synthetic
    division by x - k at every step k, whatever the sizes of m and f (the
    loop oracle._newton_coords keeps below its thresholds)."""
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


def newton_coefficients(f: Polynomial, count: int | None = None, m: int | None = None) -> tuple[int, ...]:
    """Exact coordinates of f in the binomial basis: f = sum a[k]*C(x,k).

    a[k] is the k-th forward difference of f at 0, always an integer for an
    integer polynomial; length is deg(f)+1 (empty for the zero polynomial),
    or min(count, deg(f)+1) with a count, since a[k] needs only the values
    f(0), ..., f(k). With a modulus m, every value and difference is
    reduced mod m, which gives a[k] mod m without the exact values of a
    long f.
    """
    if not f:
        return ()
    n = f.degree + 1 if count is None else min(count, f.degree + 1)
    values = [f(x) for x in range(n)] if m is None else [f.eval_mod(x, m) for x in range(n)]
    out = []
    for _ in range(n):
        out.append(values[0])
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        if m is not None:
            values = [v % m for v in values]
    return tuple(out)


def from_falling(b) -> Polynomial:
    """sum_k b[k] * x(x-1)...(x-k+1), built by exact products."""
    f, basis = Polynomial(()), Polynomial((1,))
    for k, bk in enumerate(b):
        f = f + basis * bk
        basis = basis * Polynomial((-k, 1))
    return f


def trial_factorization(m: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs with product m, by trial division up
    to the square root of what is left: no primality test, no rho."""
    out, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


@st.composite
def prime_and_long_poly(draw):
    """(f, p) with p prime <= 200 and deg f up to 4p: past degree p,
    canonical_form and reduce_degree fold f by x^p - x first."""
    p = draw(st.sampled_from(PRIMES_TO_200))
    n = draw(st.integers(0, 4 * p))
    return Polynomial(draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1, max_size=n + 1))), p
