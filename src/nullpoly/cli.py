"""Command-line front end: every operation with text and JSON output.

Each subcommand is one handler, _cmd_<name>(args), bound to its subparser.
A handler takes the parsed arguments alone, prints nothing, and returns
(lines, body): the text lines, and the JSON body with the keys inputs,
result, trace and verified. main alone prints: the lines, or under --json
the body after a "command" key. It maps a refusal to an exit code and one
"error:" line on stderr: ParseError (unreadable input) 2, ValueError (an
input out of range or a request over a limit) 1, MemoryError (an input
too large for the memory at hand) 1, AssertionError (a failed result
check) 3.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import lgamma, log, log2, log10, prod

from . import canonical, construct, counting, modulus, oracle
from .polys import (_POWER_BITS, ParseError, Polynomial, check_bits, format_csv, format_human,
                    parse_polynomial, reduce_coeffs)
from .primes import require_prime, vp_factorial

_MU_LIMIT = 10 ** 5  # longest canonical form (mu(m) entries) reduce and equiv print


def _poly_json(f: Polynomial) -> dict:
    return {"coeffs": format_csv(f), "human": format_human(f)}


def _parse_modulus(text: str) -> int:
    try:
        m = int(text)
    except ValueError as e:
        raise ParseError(f"bad modulus: {text!r}") from e
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return m


def _check_mu(m: int) -> None:
    mu = modulus.kempner_mu(m)
    if mu > _MU_LIMIT:
        raise ValueError(f"mu({m}) = {mu} exceeds the canonical-form limit {_MU_LIMIT}")


def _parse_prime_power(text: str) -> tuple[int, int]:
    """(p, d) from "p^d" or a bare prime "p" (d = 1)."""
    base, _, exp = text.strip().partition("^")
    try:
        p = int(base)
        d = int(exp) if exp else 1
    except ValueError as e:
        raise ValueError(f"bad prime power: {text!r}") from e
    require_prime(p)
    if d < 1:
        raise ValueError("exponent must be >= 1")
    return p, d


def _check_printable(what: str, bits: float) -> None:
    """Refuse, before it is built, a number of about `bits` bits: one of
    sys.get_int_max_str_digits() decimal digits or more (floor(bits *
    log10(2)) + 1) could not be printed, and one past check_bits is too
    large to build, whatever that limit is set to."""
    limit = sys.get_int_max_str_digits()
    if limit and bits * log10(2) >= limit:
        raise ValueError(f"{what} has over {limit} decimal digits, "
                         f"the sys.get_int_max_str_digits() limit for printing")
    check_bits(what, bits)


def _bits(p: int, d: int) -> float:
    """About the bits of p**d: d * log2(p), with d clamped to sys.maxsize
    so that it converts to a float. p**d past the clamp has over 6 * 10**18
    bits, which _check_printable refuses whatever the limits."""
    return min(d, sys.maxsize) * log2(p)


def _count_at_most(p: int, e: int, limit: int) -> bool:
    """p**e <= limit, building p**e only below limit's bit length (p >= 2)."""
    return e < limit.bit_length() and p ** e <= limit


def _prime_power_str(p: int, d: int) -> str:
    return f"{p}^{d}" if d > 1 else str(p)


def _cmd_omega(args):
    m = _parse_modulus(args.m)
    fm = modulus.factor(m)
    w0 = modulus.omega0_composite(fm)
    mu = w1 = modulus.omega1_composite(fm)
    if not (all(vp_factorial(p, mu) >= d for p, d in fm)
            and any(vp_factorial(p, mu - 1) < d for p, d in fm)):
        raise AssertionError(f"omega1={w1} is not the least t with {m} | t!")
    return [f"omega0={w0} omega1={w1} mu={mu}"], dict(
        inputs={"m": m},
        result={"omega0": w0, "omega1": w1, "mu": mu},
        trace=[["factorization", " * ".join(_prime_power_str(p, d) for p, d in fm)]],
        verified=True,
    )


def _cmd_construct(args):
    p, d = args.p, args.d
    digits = construct.digit_vector(p, d)  # refuses a p that is not prime, then d < 1
    family = args.family
    # every family's coefficients are bounded, never below, before it is built
    if family == "kempner":
        mu = construct.omega1_prime_power(p, d)
        what = f"kempner(p={p}, d={d}), whose coefficient magnitudes sum to {mu}!,"
        bits = lgamma(min(mu, sys.maxsize) + 1) / log(2)
    else:
        what = f"{family}(p={p}, d={d}), by a bound on its coefficients,"
        bits = construct.tower_bits(p, d)[-1] if family == "G" else construct.null_bits(p, digits)
    _check_printable(what, bits)
    if family == "G":
        poly = construct.build_tower(p, d)[-1]
        m = p ** construct.repunit(p, d)
    else:
        poly = construct.least_monic_null(p, d) if family == "H" else modulus.kempner_basis(p ** d)
        m = p ** d
    if not oracle.is_null_binomial(poly, m):
        raise AssertionError("constructed polynomial failed the null oracle")
    # the test is_null_binomial ran: m, a power of p, is prime just when m = p
    test = f"fold by x^{m}-x" if m == p else "newton oracle"
    lines = [
        f"{family}(p={p}, d={d}) modulo {m}:",
        f"poly: {format_human(poly)}",
        f"coeffs: {format_csv(poly)}",
        f"degree: {poly.degree}",
        f"digits: {list(digits)}",
        f"verified: null ({test})",
    ]
    return lines, dict(
        inputs={"p": p, "d": d, "family": family},
        result={
            "polynomial": _poly_json(poly),
            "modulus": m,
            "degree": poly.degree,
            "digits": list(digits),
        },
        trace=[["null test", test]],
        verified=True,
    )


def _cmd_check_null(args):
    f = parse_polynomial(args.poly)
    m = _parse_modulus(args.m)
    is_null = oracle.is_null_binomial(f, m)
    witness = oracle.null_witness(f, m)
    trace = [["eval", witness is None], ["binomial", is_null]]
    if (witness is None) != is_null:
        raise AssertionError(f"oracle disagreement: {dict(trace)}")
    if is_null:
        line = "NULL (verified: eval, binomial)"
    else:
        line = f"NOT NULL (witness x={witness}: f({witness}) = {f.eval_mod(witness, m)} mod {m})"
    return [line], dict(
        inputs={"polynomial": _poly_json(f), "m": m},
        result={"null": is_null, "witness": witness},
        trace=trace,
        verified=True,
    )


def _cmd_order(args):
    f = parse_polynomial(args.poly)
    p = args.p
    if args.max < 0:
        raise ValueError("--max must be >= 0")
    order = oracle.null_order(f, p, args.max + 1)  # one power of p more: was --max the bound?
    order, capped = min(order, args.max), order > args.max
    suffix = f" (capped at --max {args.max})" if capped else ""
    return [f"order={order}{suffix}"], dict(
        inputs={"polynomial": _poly_json(f), "p": p, "max": args.max},
        result={"order": order, "capped": capped},
        trace=None,
        verified=None,
    )


def _cmd_equiv(args):
    f = parse_polynomial(args.f)
    g = parse_polynomial(args.g)
    m = _parse_modulus(args.m)
    _check_mu(m)
    cf = canonical.canonical_form(f, m)
    cg = canonical.canonical_form(g, m)
    same = cf == cg
    if same != (oracle.null_witness(f - g, m) is None):
        raise AssertionError("canonical form disagrees with the evaluation window")
    lines = [
        ("EQUIVALENT" if same else "NOT EQUIVALENT") + f" modulo {m}",
        f"canonical(f): {','.join(map(str, cf.a))}",
        f"canonical(g): {','.join(map(str, cg.a))}",
    ]
    return lines, dict(
        inputs={"f": _poly_json(f), "g": _poly_json(g), "m": m},
        result={
            "equivalent": same,
            "canonical_f": list(cf.a),
            "canonical_g": list(cg.a),
        },
        trace=None,
        verified=True,
    )


def _cmd_reduce(args):
    f = parse_polynomial(args.poly)
    m = _parse_modulus(args.m)
    _check_mu(m)
    r = canonical.reduce_degree(f, m)
    cf = canonical.canonical_form(r, m)
    x = oracle.null_witness(f - r, m)
    if x is not None:
        raise AssertionError(f"reduction changed the function at x={x}")
    lines = [
        f"reduced: {format_human(r)}",
        f"coeffs: {format_csv(r)}",
        f"canonical: {','.join(map(str, cf.a))}",
    ]
    return lines, dict(
        inputs={"polynomial": _poly_json(f), "m": m},
        result={"reduced": _poly_json(r), "canonical": list(cf.a)},
        trace=None,
        verified=True,
    )


def _cmd_count(args):
    n, p, d = args.n, args.p, args.d
    every = counting.count_null_le(n, p, d)  # the polynomials the cross-check enumerates
    if args.monic:
        res = counting.count_monic(n, p, d)
        label = f"N_mnp({n}, {p}^{d})"
    else:
        res = every
        label = f"N_np(<={n}, {p}^{d})"
    verified = None
    # enumerate while count_null_le(n) = p**E(n) <= 4096 and p**d can be built
    if d <= _POWER_BITS / log2(p) and _count_at_most(p, every.p_exponent, 4096):
        polys = list(counting.enumerate_null(p, d, n))
        if args.monic:
            # enumerate_null yields reduced polynomials
            got = sum(1 for f in polys if f.degree == n and f.coeffs[n] == 1)
        else:
            got = len(set(polys))
        if got != res.value:
            raise AssertionError(f"count {res.value} != enumerated {got}")
        verified = True
    shown = res.trace[-1][1]  # the value, or its formula once it is too long to print
    lines = [f"{label} = {shown}"] + [f"  {tag} = {val}" for tag, val in res.trace]
    return lines, dict(
        inputs={"n": n, "p": p, "d": d, "monic": args.monic},
        result={
            "count": shown if isinstance(shown, int) else None,
            "count_str": str(shown),
            "p_exponent": res.p_exponent,
        },
        trace=[[tag, str(val)] for tag, val in res.trace],
        verified=verified,
    )


def _cmd_enumerate(args):
    n, p, d = args.n, args.p, args.d
    e = counting.count_null_le(n, p, d).p_exponent
    if not _count_at_most(p, e, args.limit):
        raise ValueError(
            f"count {p}^{e} exceeds --limit {args.limit}; raise the limit to proceed"
        )
    _check_printable(f"modulus {_prime_power_str(p, d)}", _bits(p, d))
    total = p ** e
    pd = p ** d
    polys = sorted(counting.enumerate_null(p, d, n), key=lambda f: f.coeffs)
    if len(polys) != total or any(f.coeffs == g.coeffs for f, g in zip(polys, polys[1:])):
        raise AssertionError(f"enumerated {len(polys)} polynomials, not {total} distinct ones")
    for f in polys:
        if not oracle.is_null_binomial(f, pd):
            raise AssertionError(f"enumerated polynomial is not null: {f}")
    return [format_csv(f) for f in polys], dict(
        inputs={"n": n, "p": p, "d": d, "limit": args.limit},
        result={"count": total, "polynomials": [_poly_json(f) for f in polys]},
        trace=None,
        verified=True,
    )


def _cmd_crt(args):
    items = args.parts
    if len(items) < 2 or len(items) % 2:
        raise ParseError("crt expects pairs: <poly> <p^d> [<poly> <p^d> ...]")
    parts = []
    for i in range(0, len(items), 2):
        f = parse_polynomial(items[i])
        parts.append((f, *_parse_prime_power(items[i + 1])))
    _check_printable("modulus " + " * ".join(_prime_power_str(p, d) for _, p, d in parts),
                     sum(_bits(p, d) for _, p, d in parts))
    combined = modulus.crt_combine_poly([(f, p ** d) for f, p, d in parts])
    m = prod(p ** d for _, p, d in parts)
    for f, p, d in parts:
        if reduce_coeffs(combined - f, p ** d):
            raise AssertionError(f"combined polynomial not congruent mod {_prime_power_str(p, d)}")
    lines = [
        f"modulus: {m}",
        f"combined: {format_human(combined)}",
        f"coeffs: {format_csv(combined)}",
    ]
    return lines, dict(
        inputs={
            "parts": [
                {"polynomial": _poly_json(f), "prime_power": _prime_power_str(p, d)}
                for f, p, d in parts
            ]
        },
        result={"modulus": m, "combined": _poly_json(combined)},
        trace=None,
        verified=True,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullpoly",
        description="Null polynomials modulo prime powers and composites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        s = sub.add_parser(name, help=help)
        s.set_defaults(run=run)
        return s

    s = command("omega", _cmd_omega, "least null-polynomial degrees and mu")
    s.add_argument("m")

    s = command("construct", _cmd_construct, "build a null polynomial family member")
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--family", choices=["G", "H", "kempner"], default="H")

    s = command("check-null", _cmd_check_null, "test whether a polynomial is null mod m")
    s.add_argument("poly")
    s.add_argument("m")

    s = command("order", _cmd_order, "largest d with f null mod p^d")
    s.add_argument("poly")
    s.add_argument("p", type=int)
    s.add_argument("--max", type=int, default=64)

    s = command("equiv", _cmd_equiv, "test function equality mod m")
    s.add_argument("f")
    s.add_argument("g")
    s.add_argument("m")

    s = command("reduce", _cmd_reduce, "equivalent polynomial of degree < mu(m)")
    s.add_argument("poly")
    s.add_argument("m")

    s = command("count", _cmd_count, "count null polynomials of degree <= n")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--monic", action="store_true")

    s = command("enumerate", _cmd_enumerate, "list null polynomials of degree <= n")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--limit", type=int, default=10000)

    s = command("crt", _cmd_crt, "combine per-prime-power polynomials")
    s.add_argument("parts", nargs="+", metavar="poly p^d")

    return parser


# The exit code of a refusal, by the first type it is an instance of.
_EXIT_CODES = ((ParseError, 2), (ValueError, 1), (MemoryError, 1), (AssertionError, 3))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args([a for a in argv if a != "--json"])
    try:
        lines, body = args.run(args)
        if "--json" in argv:
            lines = [json.dumps({"command": args.command, **body}, indent=2)]
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: keep the interpreter's exit flush quiet and
        # report what a shell reports for a writer stopped by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(kind for kind, _ in _EXIT_CODES) as e:
        # str(MemoryError()) is empty
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
