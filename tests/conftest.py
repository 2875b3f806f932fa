"""Shared brute-force helpers, independent oracles and strategies for the
test suite."""
from hypothesis import strategies as st

from nullpoly.polys import Polynomial, all_polynomials

PRIMES_TO_200 = [p for p in range(2, 200) if all(p % k for k in range(2, p))]


def eval_vector(f: Polynomial, m: int) -> tuple[int, ...]:
    return tuple(f.eval_mod(x, m) for x in range(m))


def brute_null_set(m: int, max_degree: int) -> set[Polynomial]:
    """All reduced null polynomials of degree <= max_degree mod m, by the
    definitional evaluation test."""
    out = set()
    for f in all_polynomials(m, max_degree):
        if all(f.eval_mod(x, m) == 0 for x in range(m)):
            out.add(f)
    return out


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


def newton_coefficients(f: Polynomial) -> tuple[int, ...]:
    """Exact coordinates of f in the binomial basis: f = sum a[k]*C(x,k).

    a[k] is the k-th forward difference of f at 0, always an integer for an
    integer polynomial; length is deg(f)+1 (empty for the zero polynomial).
    """
    if not f:
        return ()
    values = [f(x) for x in range(f.degree + 1)]
    out = []
    for _ in range(f.degree + 1):
        out.append(values[0])
        values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
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
    """(f, p) with p prime <= 200 and deg f up to 4p: past degree p the
    transform folds f by x^p - x first."""
    p = draw(st.sampled_from(PRIMES_TO_200))
    n = draw(st.integers(0, 4 * p))
    return Polynomial(draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1, max_size=n + 1))), p
