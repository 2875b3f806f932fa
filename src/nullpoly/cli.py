"""Command-line front end: every operation with text and JSON output."""
from __future__ import annotations

import argparse
import json
import sys
from math import prod

from . import canonical, construct, counting, modulus, oracle
from .polys import (
    ParseError,
    Polynomial,
    format_csv,
    format_human,
    parse_polynomial,
    reduce_coeffs,
)
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


def _count_at_most(p: int, e: int, limit: int) -> bool:
    """p**e <= limit, building p**e only below limit's bit length (p >= 2)."""
    return e < limit.bit_length() and p ** e <= limit


def _prime_power_str(p: int, d: int) -> str:
    return f"{p}^{d}" if d > 1 else str(p)


def _cmd_omega(args, out):
    m = _parse_modulus(args.m)
    fm = modulus.factor(m)
    w0 = modulus.omega0_composite(fm)
    mu = w1 = modulus.omega1_composite(fm)
    if not (all(vp_factorial(p, mu) >= d for p, d in fm)
            and any(vp_factorial(p, mu - 1) < d for p, d in fm)):
        raise AssertionError(f"omega1={w1} is not the least t with {m} | t!")
    out.text(f"omega0={w0} omega1={w1} mu={mu}")
    out.result(
        inputs={"m": m},
        result={"omega0": w0, "omega1": w1, "mu": mu},
        trace=[["factorization", " * ".join(_prime_power_str(p, d) for p, d in fm)]],
        verified=True,
    )


def _cmd_construct(args, out):
    p, d = args.p, args.d
    if d < 1:
        raise ValueError("d must be >= 1")
    family = args.family
    if family == "H":
        poly = construct.least_monic_null(p, d)
        m = p ** d
    elif family == "G":
        poly = construct.build_tower(p, d)[-1]
        m = p ** construct.repunit(p, d)
    else:
        poly = modulus.kempner_basis(p ** d)
        m = p ** d
    digits = construct.digit_vector(p, d)
    if not oracle.is_null_binomial(poly, m) or oracle.null_witness(reduce_coeffs(poly, m), m) is not None:
        raise AssertionError("constructed polynomial failed the null oracle")
    out.text(f"{family}(p={p}, d={d}) modulo {m}:")
    out.text(f"poly: {format_human(poly)}")
    out.text(f"coeffs: {format_csv(poly)}")
    out.text(f"degree: {poly.degree}")
    out.text(f"digits: {list(digits)}")
    out.text("verified: null (eval + newton oracles)")
    out.result(
        inputs={"p": p, "d": d, "family": family},
        result={
            "polynomial": _poly_json(poly),
            "modulus": m,
            "degree": poly.degree,
            "digits": list(digits),
        },
        trace=None,
        verified=True,
    )


def _cmd_check_null(args, out):
    f = parse_polynomial(args.poly)
    m = _parse_modulus(args.m)
    verdicts = {}
    witness = None
    if args.method in ("eval", "both"):
        # the window x < min(m, deg f + 1) is complete: None is a verdict
        witness = oracle.null_witness(f, m)
        verdicts["eval"] = witness is None
    if args.method in ("binomial", "both"):
        verdicts["binomial"] = oracle.is_null_binomial(f, m)
    if len(set(verdicts.values())) > 1:
        raise AssertionError(f"oracle disagreement: {verdicts}")
    is_null = next(iter(verdicts.values()))
    if not is_null and witness is None:
        witness = oracle.null_witness(f, m)
    if is_null:
        out.text(f"NULL (verified: {', '.join(verdicts)})")
    else:
        out.text(f"NOT NULL (witness x={witness}: f({witness}) = {f.eval_mod(witness, m)} mod {m})")
    out.result(
        inputs={"polynomial": _poly_json(f), "m": m, "method": args.method},
        result={"null": is_null, "witness": witness},
        trace=[[k, v] for k, v in verdicts.items()],
        verified=len(verdicts) == 2 or None,
    )


def _cmd_order(args, out):
    f = parse_polynomial(args.poly)
    p = args.p
    order = oracle.null_order(f, p, args.max)
    capped = order == args.max
    suffix = f" (capped at --max {args.max})" if capped else ""
    out.text(f"order={order}{suffix}")
    out.result(
        inputs={"polynomial": _poly_json(f), "p": p, "max": args.max},
        result={"order": order, "capped": capped},
        trace=None,
        verified=None,
    )


def _cmd_equiv(args, out):
    f = parse_polynomial(args.f)
    g = parse_polynomial(args.g)
    m = _parse_modulus(args.m)
    _check_mu(m)
    cf = canonical.canonical_form(f, m)
    cg = canonical.canonical_form(g, m)
    same = cf == cg
    if same != (oracle.null_witness(f - g, m) is None):
        raise AssertionError("canonical form disagrees with the evaluation window")
    out.text(("EQUIVALENT" if same else "NOT EQUIVALENT") + f" modulo {m}")
    out.text(f"canonical(f): {','.join(map(str, cf.a))}")
    out.text(f"canonical(g): {','.join(map(str, cg.a))}")
    out.result(
        inputs={"f": _poly_json(f), "g": _poly_json(g), "m": m},
        result={
            "equivalent": same,
            "canonical_f": list(cf.a),
            "canonical_g": list(cg.a),
        },
        trace=None,
        verified=True,
    )


def _cmd_reduce(args, out):
    f = parse_polynomial(args.poly)
    m = _parse_modulus(args.m)
    _check_mu(m)
    r = canonical.reduce_degree(f, m)
    cf = canonical.canonical_form(f, m)
    x = oracle.null_witness(f - r, m)
    if x is not None:
        raise AssertionError(f"reduction changed the function at x={x}")
    out.text(f"reduced: {format_human(r)}")
    out.text(f"coeffs: {format_csv(r)}")
    out.text(f"canonical: {','.join(map(str, cf.a))}")
    out.result(
        inputs={"polynomial": _poly_json(f), "m": m},
        result={"reduced": _poly_json(r), "canonical": list(cf.a)},
        trace=None,
        verified=True,
    )


def _cmd_count(args, out):
    n, p, d = args.n, args.p, args.d
    if args.monic:
        res = counting.count_monic(n, p, d)
        label = f"N_mnp({n}, {p}^{d})"
    else:
        res = counting.count_null_le(n, p, d)
        label = f"N_np(<={n}, {p}^{d})"
    verified = None
    # enumerate while count_null_le(n) = p**E(n) <= 4096
    if _count_at_most(p, counting.null_count_exponent(n, p, d), 4096):
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
    out.text(f"{label} = {shown}")
    for tag, val in res.trace:
        out.text(f"  {tag} = {val}")
    out.result(
        inputs={"n": n, "p": p, "d": d, "monic": args.monic},
        result={
            "count": shown if isinstance(shown, int) else None,
            "count_str": str(shown),
            "p_exponent": res.p_exponent,
        },
        trace=[[tag, str(val)] for tag, val in res.trace],
        verified=verified,
    )


def _cmd_enumerate(args, out):
    n, p, d = args.n, args.p, args.d
    e = counting.null_count_exponent(n, p, d)
    if not _count_at_most(p, e, args.limit):
        raise ValueError(
            f"count {p}^{e} exceeds --limit {args.limit}; raise the limit to proceed"
        )
    total = p ** e
    pd = p ** d
    polys = sorted(counting.enumerate_null(p, d, n), key=lambda f: f.coeffs)
    for f in polys:
        if not oracle.is_null_binomial(f, pd):
            raise AssertionError(f"enumerated polynomial is not null: {f}")
    for f in polys:
        out.text(format_csv(f))
    out.result(
        inputs={"n": n, "p": p, "d": d, "limit": args.limit},
        result={"count": total, "polynomials": [_poly_json(f) for f in polys]},
        trace=None,
        verified=True,
    )


def _cmd_crt(args, out):
    items = args.parts
    if len(items) < 2 or len(items) % 2:
        raise ParseError("crt expects pairs: <poly> <p^d> [<poly> <p^d> ...]")
    parts = []
    for i in range(0, len(items), 2):
        f = parse_polynomial(items[i])
        parts.append((f, *_parse_prime_power(items[i + 1])))
    combined = modulus.crt_combine_poly([(f, p ** d) for f, p, d in parts])
    m = prod(p ** d for _, p, d in parts)
    for f, p, d in parts:
        if reduce_coeffs(combined - f, p ** d):
            raise AssertionError(f"combined polynomial not congruent mod {_prime_power_str(p, d)}")
    out.text(f"modulus: {m}")
    out.text(f"combined: {format_human(combined)}")
    out.text(f"coeffs: {format_csv(combined)}")
    out.result(
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


class _Output:
    def __init__(self, json_mode: bool, command: str):
        self.json_mode = json_mode
        self.command = command
        self.lines: list[str] = []
        self.payload: dict | None = None

    def text(self, line: str) -> None:
        self.lines.append(line)

    def result(self, inputs, result, trace, verified) -> None:
        self.payload = {
            "command": self.command,
            "inputs": inputs,
            "result": result,
            "trace": trace,
            "verified": verified,
        }

    def emit(self) -> None:
        if self.json_mode:
            print(json.dumps(self.payload, indent=2))
        else:
            for line in self.lines:
                print(line)


_HANDLERS = {
    "omega": _cmd_omega,
    "construct": _cmd_construct,
    "check-null": _cmd_check_null,
    "order": _cmd_order,
    "equiv": _cmd_equiv,
    "reduce": _cmd_reduce,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "crt": _cmd_crt,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullpoly",
        description="Null polynomials modulo prime powers and composites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("omega", help="least null-polynomial degrees and mu")
    s.add_argument("m")

    s = sub.add_parser("construct", help="build a null polynomial family member")
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--family", choices=["G", "H", "kempner"], default="H")

    s = sub.add_parser("check-null", help="test whether a polynomial is null mod m")
    s.add_argument("poly")
    s.add_argument("m")
    s.add_argument("--method", choices=["eval", "binomial", "both"], default="both")

    s = sub.add_parser("order", help="largest d with f null mod p^d")
    s.add_argument("poly")
    s.add_argument("p", type=int)
    s.add_argument("--max", type=int, default=64)

    s = sub.add_parser("equiv", help="test function equality mod m")
    s.add_argument("f")
    s.add_argument("g")
    s.add_argument("m")

    s = sub.add_parser("reduce", help="equivalent polynomial of degree < mu(m)")
    s.add_argument("poly")
    s.add_argument("m")

    s = sub.add_parser("count", help="count null polynomials of degree <= n")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--monic", action="store_true")

    s = sub.add_parser("enumerate", help="list null polynomials of degree <= n")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("--limit", type=int, default=10000)

    s = sub.add_parser("crt", help="combine per-prime-power polynomials")
    s.add_argument("parts", nargs="+", metavar="poly p^d")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_mode = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(json_mode, args.command)
    try:
        _HANDLERS[args.command](args, out)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
