"""Prime-power moduli, factorization, and CRT composition.

A polynomial is null mod m exactly when it is null mod every prime power in
m's factorization, so every composite question reduces to per-factor
questions plus a coefficient-wise Chinese remainder step.
"""
from __future__ import annotations

from collections.abc import Sequence

from . import construct, oracle
from ._record import Record
from .polys import Polynomial, reduce_coeffs
from .primes import is_prime, prime_factorization


class PrimePower(Record):
    __slots__ = ("p", "d")

    def __init__(self, p: int, d: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if d < 1:
            raise ValueError("exponent must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)

    @property
    def modulus(self) -> int:
        return self.p ** self.d

    @classmethod
    def parse(cls, text: str) -> "PrimePower":
        """Accepts "p^d" or a bare prime "p" (d = 1)."""
        s = text.strip()
        base, _, exp = s.partition("^")
        try:
            p = int(base)
            d = int(exp) if exp else 1
        except ValueError as e:
            raise ValueError(f"bad prime power: {text!r}") from e
        return cls(p, d)

    def __str__(self) -> str:
        return f"{self.p}^{self.d}" if self.d > 1 else str(self.p)


class FactoredModulus(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[PrimePower, ...]):
        if not factors:
            raise ValueError("factorization must be nonempty")
        primes = [f.p for f in factors]
        if sorted(set(primes)) != primes:
            raise ValueError("primes must be strictly increasing and distinct")
        object.__setattr__(self, "factors", factors)

    @property
    def modulus(self) -> int:
        m = 1
        for f in self.factors:
            m *= f.modulus
        return m


def factor(m: int) -> FactoredModulus:
    """Complete factorization of m >= 2, factors sorted by prime."""
    return FactoredModulus(tuple(PrimePower(p, d) for p, d in prime_factorization(m)))


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Unique x in [0, prod moduli) with x ≡ residues[i] mod moduli[i]."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


def crt_combine_poly(parts: Sequence[tuple[Polynomial, PrimePower]]) -> Polynomial:
    """Coefficient-wise CRT of per-prime-power polynomials.

    Shorter parts are padded with zero coefficients; the result is the
    unique polynomial mod prod(p_i**d_i) congruent to each part mod its
    prime power.
    """
    if not parts:
        raise ValueError("need at least one part")
    primes = [pp.p for _, pp in parts]
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in CRT parts")
    moduli = [pp.modulus for _, pp in parts]
    width = max((len(f.coeffs) for f, _ in parts), default=0)
    coeffs = []
    for k in range(width):
        residues = [f.coeffs[k] if k < len(f.coeffs) else 0 for f, _ in parts]
        coeffs.append(crt_combine(residues, moduli))
    return Polynomial(coeffs)


def omega1_composite(fm: FactoredModulus) -> int:
    """Least monic null-polynomial degree mod m: max over the factors.

    A monic polynomial stays monic (leading coefficient ≡ 1, a unit) mod
    every factor, so the max is both achievable and a lower bound.
    """
    return max(construct.omega1_prime_power(pp.p, pp.d) for pp in fm.factors)


def omega0_composite(fm: FactoredModulus) -> int:
    """Least degree of any nonzero null polynomial mod m: min over factor primes.

    (m / p**d) * p**(d-1) * (x**p - x) has degree p and is null mod m; and a
    nonzero null polynomial of degree n mod m keeps degree n mod the factor
    where its top coefficient survives, forcing n >= that factor's p.
    """
    return min(pp.p for pp in fm.factors)


def least_monic_null_composite(fm: FactoredModulus) -> Polynomial:
    """A monic null polynomial mod m of the least possible degree.

    Each factor's least monic null polynomial is padded to the common
    degree D = omega1_composite by a power of x (multiplying a null
    polynomial preserves nullity and monicity), then combined by CRT.
    """
    target = omega1_composite(fm)
    parts = []
    for pp in fm.factors:
        h = construct.least_monic_null(pp.p, pp.d)
        h = h.shift(target - h.degree)
        parts.append((reduce_coeffs(h, pp.modulus), pp))
    combined = crt_combine_poly(parts)
    if not oracle.is_null_binomial(combined, fm.modulus):
        raise AssertionError("combined polynomial failed the null oracle")
    return combined
