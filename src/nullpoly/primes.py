"""Primality and integer factorization.

prime_factorization trial-divides by 2 and the odd numbers below
_TRIAL_BOUND = 2**10. A cofactor left over is tested with is_prime, and a
composite one is split by Pollard's rho in Brent's variant (Pollard 1975;
Brent 1980), whose expected cost grows as the square root of the
second-largest prime factor. Rho gets _RHO_BUDGET steps per split; a
composite it cannot split within them is refused with a ValueError, so a
product of two primes much above 10**12 is refused in seconds instead of
being searched for hours.
is_prime trial-divides by the first thirteen primes (2..41), which decides
every n below 43**2, and is then Miller-Rabin with them as witnesses, a
proof of primality below 3.3e24 (Sorenson & Webster 2017) and a strong
probable-prime test above. Twelve witnesses would not do: the
strong pseudoprime 318665857834031151167461 = 399165290221 * 798330580441
passes every prime base up to 37.
"""
from __future__ import annotations

from math import gcd

# is_prime's trial divisors and Miller-Rabin witnesses. Miller-Rabin with
# these, the first thirteen primes, is deterministic below
# 3317044064679887385961981 (Sorenson & Webster 2017; OEIS A014233).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Trial division runs below this bound; a larger cofactor goes to rho.
_TRIAL_BOUND = 1 << 10
# Brent's rho multiplies this many differences together per gcd.
_RHO_BATCH = 128
# Steps of y -> y*y + c that one split may take, about a second at 10**36. The
# rounds r = 1, 2, 4, ... of 2r steps each fit up to r = 2**19, where
# (10**12+39)(10**12+61) is split; two primes near 10**18 would need 1e9.
_RHO_BUDGET = 1 << 21


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below has a prime factor of at most 41
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def vp_factorial(p: int, t: int) -> int:
    """v_p(t!) by Legendre's formula: the sum of t // p**i over i >= 1."""
    v, q = 0, p
    while q <= t:
        v += t // q
        q *= p
    return v


def _rho_divisor(n: int) -> int | None:
    """A proper divisor of the odd composite n, by Brent's cycle search on
    y -> y*y + c mod n, with the gcd taken once per batch of differences.
    A batch that overshoots to gcd n is replayed one step at a time, and a
    c whose cycle closes mod every factor at once is replaced by c + 1.
    None, with no divisor found, before a round of 2r steps would take the
    steps over all c past _RHO_BUDGET."""
    c = steps = 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _split(m: int, n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of the cofactor n > 1 of m, with no
    prime factor below _TRIAL_BOUND, by is_prime and _rho_divisor."""
    exponents: dict[int, int] = {}
    stack = [n]
    while stack:
        n = stack.pop()
        if is_prime(n):
            exponents[n] = exponents.get(n, 0) + 1
        else:
            d = _rho_divisor(n)
            if d is None:
                raise ValueError(f"cannot factor {m}: Pollard rho found no divisor of {n} "
                                 f"within its budget of {_RHO_BUDGET} steps")
            stack += (d, n // d)
    return sorted(exponents.items())


def prime_factorization(m: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs with product m: trial division below
    _TRIAL_BOUND, then is_prime and Pollard rho on what is left."""
    if m < 2:
        raise ValueError("factorization requires m >= 2")
    out: list[tuple[int, int]] = []
    rest = m
    p = 2
    while p < _TRIAL_BOUND and p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
            # after stripping a factor, a surviving prime cofactor is common
            if rest > 1 and is_prime(rest):
                return out + [(rest, 1)]
        p += 1 if p == 2 else 2
    if rest == 1:
        return out
    if p * p > rest or is_prime(rest):
        return out + [(rest, 1)]
    return out + _split(m, rest)
