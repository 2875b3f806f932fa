"""Independent answer checks for the nullpoly benchmark.

Nothing here imports nullpoly. Every check recomputes what it needs from
classical identities with its own integer arithmetic, so a defect in the
library cannot pass by agreeing with itself:

- Kempner's mu(m) by Legendre's formula: the max over p^d || m of the
  least t with v_p(t!) >= d.
- Count exponents by the valuation sum of Singmaster, "On polynomial
  functions (mod m)", J. Number Theory 6 (1974): the null polynomials of
  degree <= n mod p^d number p^E with E = sum_{k<=n} min(d, v_p(k!)).
- Values by a local Horner routine at seeded random points.

Each ``check_<kind>(question, answer)`` returns None when the answer is
right and a one-line reason when it is wrong. Answers are plain data:
ints, bools and tuples of coefficients (ascending degree).
"""
from __future__ import annotations

import random

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Fingerprint primes for counts too large to rebuild exactly.
_FINGERPRINT = (2 ** 61 - 1, 2 ** 89 - 1)
_EXACT_EXPONENT_LIMIT = 4096


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def factorize(m: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of m >= 2, by trial division."""
    out = []
    rest = m
    p = 2
    prime_rest = is_prime(rest)
    while not prime_rest and p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
            prime_rest = is_prime(rest)
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def vp_factorial(p: int, t: int) -> int:
    """v_p(t!) by Legendre's formula."""
    v, q = 0, p
    while q <= t:
        v += t // q
        q *= p
    return v


def least_t(p: int, d: int) -> int:
    """Least t with v_p(t!) >= d, i.e. mu(p^d)."""
    lo, hi = 0, p * d
    while lo < hi:
        mid = (lo + hi) // 2
        if vp_factorial(p, mid) >= d:
            hi = mid
        else:
            lo = mid + 1
    return lo


def mu(m: int) -> int:
    """Kempner's mu(m), the least t with m | t!."""
    return max(least_t(p, e) for p, e in factorize(m))


def count_exponent(n: int, p: int, d: int) -> int:
    """log_p of the number of null polynomials of degree <= n mod p^d."""
    total, v = 0, 0
    for k in range(1, n + 1):
        j = k
        while j % p == 0:
            j //= p
            v += 1
        if v >= d:
            return total + d * (n - k + 1)
        total += v
    return total


def horner_mod(coeffs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def falling(a: int, n: int, m: int | None = None) -> tuple[int, ...]:
    """Coefficients of prod_{i<n} (x - a - i), reduced mod m if m is given."""
    out = [1]
    for i in range(n):
        root = a + i
        nxt = [0] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k + 1] += c
            nxt[k] -= root * c
        out = [c % m for c in nxt] if m else nxt
    return tuple(out)


def add_polys(*polys) -> tuple[int, ...]:
    width = max(len(f) for f in polys)
    out = [0] * width
    for f in polys:
        for k, c in enumerate(f):
            out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def newton_eval_mod(a, x: int, m: int) -> int:
    """sum_k a[k] * C(x, k) mod m, with exact binomials."""
    acc, binom = 0, 1
    for k, ak in enumerate(a):
        acc += ak * binom
        binom = binom * (x - k) // (k + 1)
    return acc % m


def _points(question, count: int, bound: int) -> list[int]:
    rng = random.Random(repr(sorted(question.items())))
    return [rng.randrange(bound) for _ in range(count)]


def _power_matches(value: int, p: int, e: int) -> bool:
    if e <= _EXACT_EXPONENT_LIMIT:
        return value == p ** e
    return value > 0 and all(value % q == pow(p, e, q) for q in _FINGERPRINT)


def _degree(coeffs) -> int:
    return len(coeffs) - 1


# -- tower ---------------------------------------------------------------

def check_construct(q, ans):
    coeffs, is_null = ans
    p, d = q["p"], q["d"]
    want = least_t(p, d)
    if _degree(coeffs) != want:
        return f"degree {_degree(coeffs)} != mu(p^d) = {want}"
    if coeffs[-1] != 1:
        return "not monic"
    if is_null is not True:
        return f"null check returned {is_null!r}"
    pd = p ** d
    for x in _points(q, 6, 10 ** 12):
        if horner_mod(coeffs, x, pd):
            return f"h({x}) is not 0 mod {p}^{d}"
    return None


def check_order(q, ans):
    if not q["d"] <= ans < q["d_next"]:
        return f"order {ans} outside [{q['d']}, {q['d_next']})"
    return None


# -- equiv ---------------------------------------------------------------

def check_expect(q, ans):
    if ans != q["expect"] or type(ans) is not type(q["expect"]):
        return f"answer {ans!r}, expected {q['expect']!r}"
    return None


def check_reduce(q, ans):
    r, a = ans
    m, f = q["m"], q["f"]
    t = mu(m)
    if r and _degree(r) >= t:
        return f"reduced degree {_degree(r)} >= mu = {t}"
    if any(not 0 <= c < m for c in r) or any(not 0 <= c < m for c in a):
        return "coefficient outside [0, m)"
    if len(a) != t:
        return f"canonical form has {len(a)} entries, mu = {t}"
    for x in _points(q, 4, 10 ** 6):
        fx = horner_mod(f, x, m)
        if horner_mod(r, x, m) != fx:
            return f"reduced polynomial differs at x={x}"
        if newton_eval_mod(a, x, m) != fx:
            return f"canonical form differs at x={x}"
    return None


def check_omega(q, ans):
    m = q["m"]
    smallest = factorize(m)[0][0]
    want = (smallest, mu(m), mu(m))
    if tuple(ans) != want:
        return f"(omega0, omega1, mu) = {tuple(ans)}, expected {want}"
    return None


def check_factor(q, ans):
    prod = 1
    for p, e in ans:
        if not is_prime(p) or e < 1:
            return f"bad factor {p}^{e}"
        prod *= p ** e
    primes = [p for p, _ in ans]
    if prod != q["m"] or primes != sorted(set(primes)):
        return f"factors {ans} do not give {q['m']}"
    return None


def check_mu(q, ans):
    want = mu(q["m"])
    if ans != want:
        return f"mu = {ans}, expected {want}"
    return None


# -- census --------------------------------------------------------------

def check_count_null_le(q, ans):
    value, exp = ans
    want = count_exponent(q["n"], q["p"], q["d"])
    if exp != want or not _power_matches(value, q["p"], want):
        return f"count exponent {exp}, expected {want}"
    return None


def check_count_monic(q, ans):
    value, exp = ans
    n, p, d = q["n"], q["p"], q["d"]
    if n < least_t(p, d):
        return None if value == 0 else f"count {value} below the least monic degree"
    want = count_exponent(n - 1, p, d)
    if exp != want or not _power_matches(value, p, want):
        return f"monic count exponent {exp}, expected {want}"
    return None


def check_count_monic_le(q, ans):
    value, _ = ans
    n, p, d = q["n"], q["p"], q["d"]
    degrees = range(least_t(p, d), n + 1)
    for r in _FINGERPRINT:
        want = sum(pow(p, count_exponent(j - 1, p, d), r) for j in degrees) % r
        if value % r != want:
            return "monic count up to n does not match the valuation sum"
    return None


def check_enumerate(q, ans):
    (count, _), polys = ans
    n, p, d = q["n"], q["p"], q["d"]
    pd = p ** d
    want = p ** count_exponent(n, p, d)
    if count != want or len(polys) != want:
        return f"count {count}, listed {len(polys)}, expected {want}"
    if len(set(polys)) != len(polys):
        return "duplicate polynomials"
    if any(len(f) > n + 1 or any(not 0 <= c < pd for c in f) for f in polys):
        return "polynomial outside degree <= n or coefficients outside [0, p^d)"
    rng = random.Random(repr(sorted(q.items())))
    for f in rng.sample(polys, min(16, len(polys))):
        if any(horner_mod(f, x, pd) for x in range(pd)):
            return f"{f} is not null mod {p}^{d}"
    return None


def check_crt(q, ans):
    m = 1
    for _, p, d in q["parts"]:
        m *= p ** d
    if any(not 0 <= c < m for c in ans):
        return f"coefficient outside [0, {m})"
    for f, p, d in q["parts"]:
        pd = p ** d
        width = max(len(f), len(ans))
        if any((_at(ans, k) - _at(f, k)) % pd for k in range(width)):
            return f"combined polynomial not congruent to its part mod {p}^{d}"
    return None


def _at(f, k: int) -> int:
    return f[k] if k < len(f) else 0


CHECKS = {
    "construct": check_construct,
    "order": check_order,
    "equiv": check_expect,
    "expect": check_expect,
    "reduce": check_reduce,
    "omega": check_omega,
    "factor": check_factor,
    "mu": check_mu,
    "count_null_le": check_count_null_le,
    "count_monic": check_count_monic,
    "count_monic_le": check_count_monic_le,
    "enumerate": check_enumerate,
    "crt": check_crt,
}


def check(q, ans):
    """None if ans answers q correctly, else the reason it does not."""
    return CHECKS[q["kind"]](q, ans)
