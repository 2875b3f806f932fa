"""Exact integer polynomial arithmetic and coefficient-wise modular reduction.

A polynomial is a record whose one field is its tuple of arbitrary-precision
integer coefficients, ascending by degree. The zero polynomial is the empty
tuple and reports degree ``None`` (a nonzero constant has degree 0, which is
a different thing and must stay distinguishable for the counting code).
"""
from __future__ import annotations

import re
from collections.abc import Iterable

from ._record import Record


class ParseError(ValueError):
    """Raised when a polynomial text form cannot be parsed."""


class Polynomial(Record):
    """An integer polynomial, ``coeffs[k]`` being the coefficient of x**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = tuple(coeffs)
        if c and c[-1] == 0:
            n = len(c) - 1
            while n and c[n - 1] == 0:
                n -= 1
            c = c[:n]
        _set_coeffs(self, c)

    @property
    def degree(self) -> int | None:
        """Degree over the integers; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        """Exact evaluation by Horner's scheme."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, m: int) -> int:
        """self(x) mod m, keeping all intermediates below m**2."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_human(self)


# Writes the slot past the raising __setattr__; only __init__ uses it.
_set_coeffs = Polynomial.coeffs.__set__


def reduce_coeffs(f: Polynomial, m: int) -> Polynomial:
    """Canonical representative of f's coefficient-congruence class mod m.

    Every coefficient lands in [0, m); m = 1 collapses everything to 0.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return Polynomial(tuple(c % m for c in f.coeffs))


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:"
    r"(?P<coeff>\d+)\s*\*?\s*(?P<var1>x)(?:\s*\^\s*(?P<exp1>\d+))?"
    r"|(?P<var2>x)(?:\s*\^\s*(?P<exp2>\d+))?"
    r"|(?P<const>\d+)"
    r")\s*"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse either text form: CSV coefficients ascending degree, or human.

    "0,-2,3,-2,1" and "x^4-2x^3+3x^2-2x" denote the same polynomial.
    A bare integer is a constant in both forms.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    if "," in s:
        try:
            return Polynomial(tuple(int(p.strip()) for p in s.split(",")))
        except ValueError as e:
            raise ParseError(f"bad coefficient list: {text!r}") from e
    if "x" not in s:
        try:
            return Polynomial((int(s),))
        except ValueError as e:
            raise ParseError(f"bad constant: {text!r}") from e
    pos = 0
    terms: dict[int, int] = {}
    first = True
    while pos < len(s):
        match = _TERM_RE.match(s, pos)
        if not match or match.end() == pos:
            raise ParseError(f"bad polynomial text at {s[pos:]!r}")
        sign = match.group("sign")
        if not sign and not first:
            raise ParseError(f"missing +/- before {s[match.start():]!r}")
        mult = -1 if sign == "-" else 1
        if match.group("const") is not None:
            k, c = 0, int(match.group("const"))
        elif match.group("coeff") is not None:
            c = int(match.group("coeff"))
            k = int(match.group("exp1")) if match.group("exp1") else 1
        else:
            c = 1
            k = int(match.group("exp2")) if match.group("exp2") else 1
        terms[k] = terms.get(k, 0) + mult * c
        pos = match.end()
        first = False
    size = max(terms) + 1
    coeffs = [0] * size
    for k, c in terms.items():
        coeffs[k] = c
    return Polynomial(coeffs)


def format_csv(f: Polynomial) -> str:
    if not f.coeffs:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def format_human(f: Polynomial) -> str:
    if not f.coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)
