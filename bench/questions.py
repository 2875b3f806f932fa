"""Seeded question streams for the four workloads.

A run asks a whole number of rounds. Every round of a workload has the
same mix of question kinds and sizes; the seed jitters each size a little
and draws the contents, the order within the round and, for ``equiv``, the
pool of moduli from narrow classes. Fixing the mix per round keeps runs
with different seeds comparable, and asking whole rounds keeps the mix the
same in every run.

Questions are plain dicts (``kind`` plus parameters). Building the inputs
uses only ``check``'s arithmetic, never the library under test.
"""
from __future__ import annotations

import math
import random

import check

# Seconds per round at the baseline commit on a 2-core x86-64 host running
# at run.REFERENCE_PACE_S.
# A run asks round(seconds / ROUND_S) rounds, and never fewer than enough
# for ten samples beyond the 90th percentile of its latencies.
ROUND_S = {"tower": 3.4, "equiv": 2.1, "census": 2.8, "cli": 1.3}
MIN_QUESTIONS = 100

WORKLOADS = tuple(ROUND_S)


def rounds_for(workload: str, seconds: int) -> int:
    per_round = len(_SPECS[workload](random.Random(0), 0))
    return max(round(seconds / ROUND_S[workload]), math.ceil(MIN_QUESTIONS / per_round), 1)


def round_questions(workload: str, seed: int, index: int):
    """Yield the questions of one round; the first is ready without the rest."""
    rng = random.Random(f"{seed}:{workload}:{index}")
    specs = _SPECS[workload](rng, seed)
    rng.shuffle(specs)
    for spec in specs:
        yield _build(spec)


def _build(spec: dict) -> dict:
    builder = _BUILDERS.get(spec["kind"])
    return builder(spec) if builder else spec


def _salt(rng: random.Random) -> int:
    return rng.getrandbits(48)


# Sizes come from fixed ladders; the seed jitters each rung a little and
# draws the contents, so every seed puts the same cost at each percentile.

def _jitter(rng: random.Random, centre: int, spread: int) -> int:
    return centre + rng.randint(-spread, spread)


def _degree(rng: random.Random, t: int) -> int:
    """Degree of a random f for modulus with mu = t: about 1.5 t."""
    return _jitter(rng, t + t // 2, max(1, t // 20))


# -- tower: construct + null check, and null order ------------------------

def _order(p: int, d: int, d_max: int | None = None) -> dict:
    deg = check.least_t(p, d)
    d_next = d + 1
    while check.least_t(p, d_next) <= deg:
        d_next += 1
    return {"kind": "order", "p": p, "d": d, "d_max": d_max or d_next, "d_next": d_next}


def _tower_specs(rng: random.Random, seed: int) -> list[dict]:
    # Three heavy questions, six of one medium size and a ladder of small
    # ones: the 90th percentile falls inside the medium group and the median
    # inside the ladder, so neither sits on a gap between sizes.
    specs = [
        {"kind": "construct", "p": 5, "d": 200},
        _order(2, 100, 200),
        {"kind": "construct", "p": 7, "d": _jitter(rng, 148, 2)},
    ]
    specs += [{"kind": "construct", "p": 5, "d": _jitter(rng, 100, 1)} for _ in range(3)]
    specs += [_order(2, _jitter(rng, 75, 1)) for _ in range(3)]
    specs += [{"kind": "construct", "p": (2, 3, 5, 7)[k % 4], "d": _jitter(rng, 6 + 3 * k // 4, 1)}
              for k in range(51)]
    return specs


# -- equiv: function questions over a recurring pool of moduli -------------

ANCHOR_MU_M = 10 ** 7 + 19
ANCHOR_FACTOR_M = 10 ** 12 + 39
# Candidate moduli by class, each class narrow in mu(m) so that pools drawn
# by different seeds cost about the same.
PRIMES = (449, 457, 461, 463)                              # mu = m
PRIME_POWERS = (121, 169, 343)                              # mu 21..26
HIGHLY_COMPOSITE = (12, 24, 36, 48, 60, 120, 180, 240, 360)  # mu 4..6
SEMIPRIMES = tuple(k * q for k in (2, 3, 5, 7) for q in (43, 47, 53) if k * q <= 500)  # mu = q


def _next_prime(n: int) -> int:
    while not check.is_prime(n):
        n += 1
    return n


def equiv_pool(seed: int) -> list[int]:
    """Twelve moduli <= 500: three primes, three prime powers, three highly
    composite numbers and three products k*q with q a prime near 50. Fixed
    per seed, so every modulus recurs in every round."""
    rng = random.Random(f"{seed}:equiv:pool")
    # The median question is one on a prime power, so that class is fixed.
    return (rng.sample(PRIMES, 3) + list(PRIME_POWERS)
            + rng.sample(HIGHLY_COMPOSITE, 3) + rng.sample(SEMIPRIMES, 3))


def _equiv_specs(rng: random.Random, seed: int) -> list[dict]:
    specs = []
    for m in equiv_pool(seed):
        specs += [
            {"kind": "equiv", "m": m, "expect": True, "salt": _salt(rng)},
            {"kind": "equiv", "m": m, "expect": False, "salt": _salt(rng)},
            {"kind": "reduce", "m": m, "salt": _salt(rng)},
            {"kind": "omega", "m": m},
        ]
    for centre in (300_000, 600_000, 900_000):
        q = _next_prime(_jitter(rng, centre, 10_000))
        specs.append({"kind": "omega", "m": q * rng.randint(2, 10)})
    specs.append({"kind": "omega", "m": ANCHOR_MU_M})
    specs.append({"kind": "factor", "m": ANCHOR_FACTOR_M})
    return specs


def _random_poly(rng: random.Random, degree: int, bound: int) -> tuple[int, ...]:
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return tuple(coeffs) + (rng.randint(1, bound),)


def equiv_pair(m: int, expect: bool, rng: random.Random):
    """(f, g) with a known verdict.

    Equivalent: g = f + m*r + s*prod_{i<mu}(x-a-i), the product being null
    mod m. Not equivalent: g = f + prod_{i<j}(x-a-i) with j < mu, whose
    value at a+j is j!, which m does not divide. Coefficients of the
    products are reduced mod m, which keeps their functions mod m.
    """
    t = check.mu(m)
    f = _random_poly(rng, _degree(rng, t), 10 ** 6)
    a = rng.randrange(m)
    if expect:
        r = _random_poly(rng, rng.randint(0, len(f) - 1), 50)
        s = rng.randrange(1, m)
        null = tuple(s * c for c in check.falling(a, t, m))
        g = check.add_polys(f, tuple(m * c for c in r), null)
    else:
        g = check.add_polys(f, check.falling(a, rng.randint(t // 2, t - 1), m))
    return f, g


def _build_equiv(spec: dict) -> dict:
    f, g = equiv_pair(spec["m"], spec["expect"], random.Random(spec["salt"]))
    return {"kind": "equiv", "m": spec["m"], "expect": spec["expect"], "f": f, "g": g}


def _build_reduce(spec: dict) -> dict:
    rng = random.Random(spec["salt"])
    t = check.mu(spec["m"])
    return {"kind": "reduce", "m": spec["m"], "f": _random_poly(rng, _degree(rng, t), 10 ** 6)}


# -- census: counting and full enumeration ---------------------------------

# Enumeration sizes from about 10^2 to 2*10^4 outputs: (p, d, n) with the
# same count p^E, so the seed changes the modulus but not the size.
ENUMERATE_LADDER = (
    ((5, 1, 7), (5, 2, 7), (5, 3, 7), (5, 4, 7)),        # 125
    ((3, 1, 7), (3, 2, 6), (3, 3, 6), (3, 4, 6)),        # 243
    ((7, 1, 9), (7, 2, 9), (7, 3, 9), (7, 4, 9)),        # 343
    ((5, 1, 8), (5, 2, 8), (5, 3, 8), (5, 4, 8)),        # 625
)
# Six enumerations of one size per round hold the 90th percentile.
ENUMERATE_P90 = ((3, 1, 9), (3, 2, 7), (3, 3, 7), (3, 4, 7))  # 2187


def _census_specs(rng: random.Random, seed: int) -> list[dict]:
    specs = [
        {"kind": "enumerate", "p": 2, "d": 3, "n": 8},
        {"kind": "count_null_le", "n": 3000, "p": 3, "d": 10 ** 4},
    ]
    for rung in ENUMERATE_LADDER + (ENUMERATE_P90,) * 6:
        p, d, n = rng.choice(rung)
        specs.append({"kind": "enumerate", "p": p, "d": d, "n": n})
    for kind in ("count_null_le", "count_monic", "count_monic_le"):
        for k in range(10):
            p, d = (2, 3, 5, 7)[k % 4], 4 + 6 * k
            t = check.least_t(p, d)
            n = t + _jitter(rng, 20, 2) if kind == "count_monic_le" else _jitter(rng, (k + 1) * t // 4, 1)
            specs.append({"kind": kind, "n": n, "p": p, "d": d})
    return specs


# -- cli: one-shot subprocesses, with expected refusals --------------------

def _cli_specs(rng: random.Random, seed: int) -> list[dict]:
    specs = [{"kind": "cli", "sub": sub, "salt": _salt(rng)}
             for sub in ("omega", "construct", "check-null", "order", "equiv",
                         "reduce", "count", "enumerate", "crt")]
    specs += [{"kind": "cli", "sub": sub, "refuse": True, "salt": _salt(rng)}
              for sub in ("count", "check-null", "enumerate")]
    return specs


def _falling_text(a: int, n: int, m: int | None = None) -> str:
    return _text(check.falling(a, n, m))


def _text(f) -> str:
    """Human form, highest term first. A CLI argument must not start with
    '-', and every polynomial here has a positive leading coefficient."""
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        terms.append(sign + (str(mag) if mag != 1 or not var else "") + var)
    return "".join(terms) or "0"


def _build_cli(spec: dict) -> dict:
    rng = random.Random(spec["salt"])
    sub = spec["sub"]
    q = {"kind": "cli", "sub": sub}
    if spec.get("refuse"):
        q["refuse"] = True
        q["argv"] = {
            "count": ["count", "5", str(rng.choice((4, 6, 9, 15))), "2"],
            "check-null": ["check-null", f"x^^{rng.randint(2, 9)}+1", "7"],
            "enumerate": ["enumerate", "10", "2", "3", "--limit", str(rng.randint(10, 99))],
        }[sub]
        return q
    if sub == "omega":
        q["m"] = rng.randint(2, 100_000)
        q["argv"] = ["omega", str(q["m"])]
    elif sub == "construct":
        q["p"], q["d"] = rng.choice(((2, rng.randint(3, 11)), (3, rng.randint(2, 7)), (5, rng.randint(2, 4))))
        q["family"] = rng.choice(("H", "kempner"))
        q["argv"] = ["construct", str(q["p"]), str(q["d"]), "--family", q["family"]]
    elif sub == "check-null":
        q["m"] = _next_prime(_jitter(rng, 150, 20))
        t = check.mu(q["m"])
        q["expect"] = rng.random() < 0.5
        n = t if q["expect"] else rng.randint(t // 2, t - 1)
        q["argv"] = ["check-null", _falling_text(rng.randrange(q["m"]), n, q["m"]), str(q["m"])]
    elif sub == "order":
        # prod_{i<n}(x-a-i) takes the value n! at x = a+n and is divisible by
        # n! everywhere, so its null order mod p is exactly v_p(n!).
        q["p"], n = rng.choice((2, 3, 5)), _jitter(rng, 40, 5)
        q["expect"] = min(check.vp_factorial(q["p"], n), 64)
        a = rng.randint(-50, 50)
        q["argv"] = ["order", _falling_text(a, n), str(q["p"])]
    elif sub == "equiv":
        q["m"] = _next_prime(_jitter(rng, 100, 10))
        q["expect"] = rng.random() < 0.5
        f, g = equiv_pair(q["m"], q["expect"], rng)
        q["argv"] = ["equiv", _text(f), _text(g), str(q["m"])]
    elif sub == "reduce":
        q["m"] = _next_prime(_jitter(rng, 100, 10))
        q["f"] = _random_poly(rng, _degree(rng, q["m"]), 1000)
        q["argv"] = ["reduce", _text(q["f"]), str(q["m"])]
    elif sub == "count":
        q["p"], q["d"] = rng.choice((2, 3, 5)), rng.randint(1, 4)
        q["monic"] = rng.random() < 0.5
        q["n"] = rng.randint(0, check.least_t(q["p"], q["d"]) + 3)
        q["argv"] = ["count", str(q["n"]), str(q["p"]), str(q["d"])] + (["--monic"] if q["monic"] else [])
    elif sub == "enumerate":
        q["p"], q["d"], q["n"] = rng.choice(ENUMERATE_LADDER[rng.randrange(3)])
        q["argv"] = ["enumerate", str(q["n"]), str(q["p"]), str(q["d"])]
    else:
        (p1, d1), (p2, d2) = rng.sample(((2, 3), (3, 2), (5, 2), (7, 1), (11, 1)), 2)
        q["parts"] = [(_random_poly(rng, rng.randint(1, 6), 10 ** 4), p1, d1),
                      (_random_poly(rng, rng.randint(1, 6), 10 ** 4), p2, d2)]
        q["argv"] = ["crt"] + [s for f, p, d in q["parts"] for s in (_text(f), f"{p}^{d}")]
    return q


# Three questions no seed-commit CLI answers within a few seconds. They run
# only in the traced run, each under CLIFF_DEADLINE_S, and are reported as
# per-layer rows rather than as failures of the workload.
CLIFF_DEADLINE_S = 3.0
CLIFFS = (
    ("omega_1e12p39", {"kind": "cli", "sub": "omega", "m": ANCHOR_FACTOR_M,
                       "argv": ["omega", str(ANCHOR_FACTOR_M)]}),
    ("reduce_x300_1000003", {"kind": "cli", "sub": "reduce", "m": 1000003,
                             "f": (5,) + (0,) * 299 + (1,),
                             "argv": ["reduce", "x^300+5", "1000003"]}),
    ("construct_3_20", {"kind": "cli", "sub": "construct", "p": 3, "d": 20, "family": "H",
                        "argv": ["construct", "3", "20"]}),
)


_SPECS = {"tower": _tower_specs, "equiv": _equiv_specs, "census": _census_specs, "cli": _cli_specs}
_BUILDERS = {"equiv": _build_equiv, "reduce": _build_reduce, "cli": _build_cli}


def describe(workload: str, seed: int, rounds: int) -> dict:
    """Question mix of a run, and for equiv the shares of questions whose
    modulus repeats an earlier one and whose mu(m) is at least 100."""
    mix: dict[str, int] = {}
    seen, repeats, big_mu, total = set(), 0, 0, 0
    for index in range(rounds):
        for q in round_questions(workload, seed, index):
            kind = q.get("sub", q["kind"])
            mix[kind] = mix.get(kind, 0) + 1
            total += 1
            if "m" in q and workload == "equiv":
                repeats += q["m"] in seen
                big_mu += check.mu(q["m"]) >= 100
                seen.add(q["m"])
    out = {"questions": total, "mix": mix}
    if workload == "equiv":
        out["repeat_modulus_share"] = round(repeats / total, 3)
        out["mu_ge_100_share"] = round(big_mu / total, 3)
    return out


if __name__ == "__main__":
    import json
    import sys

    seconds = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    for name in WORKLOADS:
        info = describe(name, 1, rounds_for(name, seconds))
        print(name, json.dumps(info))
