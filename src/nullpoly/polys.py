"""Exact integer polynomial arithmetic and coefficient-wise modular reduction.

A polynomial is a record whose one field is its tuple of arbitrary-precision
integer coefficients, ascending by degree. The zero polynomial is the empty
tuple and reports degree ``None`` (a nonzero constant has degree 0, which is
a different thing and must stay distinguishable for the counting code).

Products of two polynomials with at least _KRONECKER_MIN_TERMS terms each
are exact Kronecker substitutions (_kronecker): each factor is evaluated at
x = base**width, one slot of width digits per coefficient, the two
integers are multiplied once, and the product's coefficients are read
back off its slots. A slot holds 2**(bits + 1), where |c| < 2**bits bounds
every product coefficient c by the factors' bit lengths and log2 of the
shorter length. Coefficients are signed. A factor is packed as two digit
strings, the magnitudes of its positive and of its negative coefficients,
and its value is their difference. Before the product is read back, half
a slot's range is added to every slot, so each slot holds c + half in
[0, base**width) and the reading takes half back out.

Below _DECIMAL_MIN_DIGITS packed digits the base is 16 and the product is
CPython's (Karatsuba) int product. From there on the base is 10 and the
product is decimal.Context.multiply at MAX_PREC, libmpdec's
number-theoretic transform; decimal is imported only there, so start-up
never pays for it. Neither path converts between int and Decimal
directly: Decimal(int) and int(Decimal) are quadratic (seconds at 10**5
digits). Packing formats one coefficient at a time, each packed string
is parsed once (int from hex and Decimal from str are both linear), and
reading back slices the product's digit string. Int to decimal str and
back is capped at sys.get_int_max_str_digits() digits, so a slot wider
than that cap takes the hex path. product() multiplies many factors as a
product tree, so that few products are large and those reach the kernel.
"""
from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from heapq import heapify, heappop, heappush

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
        if min(len(a), len(b)) >= _KRONECKER_MIN_TERMS:
            return Polynomial(_kronecker(a, b))
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

# Products of polynomials with at least this many terms each go through
# _kronecker. Measured on n x n random products (Python 3.11, 2-core x86-64):
# _kronecker wins from n = 24 with coefficients of up to 84 bits, from
# n = 48 at 400 bits and from n = 32 at 1600 bits.
_KRONECKER_MIN_TERMS = 32
# _kronecker multiplies by the decimal module once the product packs into
# this many decimal digits, and by CPython's Karatsuba ints below it. On
# the same host the int product wins up to about 50 000 digits and the
# decimal one from about 60 000, at every coefficient size from 30 to 3000
# bits; at 10**6 digits the decimal product is 3-4 times faster.
_DECIMAL_MIN_DIGITS = 60_000


def _bits(coeffs) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


def _slots(coeffs, width: int, spec: str) -> tuple[str, str]:
    """Digits, in base 10 for spec "d" and 16 for "x", of sum_i |c_i| *
    base**(width * i) over the positive and over the negative c_i: one
    slot of width digits per coefficient, |c_i| < base**width."""
    fmt, zero = f"0{width}{spec}", "0" * width
    coeffs = coeffs[::-1]
    return ("".join([format(c, fmt) if c > 0 else zero for c in coeffs]),
            "".join([format(-c, fmt) if c < 0 else zero for c in coeffs]))


def _kronecker(a, b) -> list[int]:
    """Coefficients of the product of two nonempty coefficient sequences,
    by Kronecker substitution (module docstring)."""
    n = len(a) + len(b) - 1
    # every coefficient c of the product has |c| < 2**bits
    bits = _bits(a) + _bits(b) + min(len(a), len(b)).bit_length()
    width = bits * 30103 // 100000 + 2  # 10**width >= 2**(bits + 1)
    limit = sys.get_int_max_str_digits()
    if n * width >= _DECIMAL_MIN_DIGITS and not 0 < limit < width:
        from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

        ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
        base, half = 10, "5" + "0" * (width - 1)

        def value(c):  # c at x = 10**width
            pos, neg = _slots(c, width, "d")
            return ctx.subtract(Decimal(pos), Decimal(neg))

        x = value(a)
        digits = str(ctx.add(ctx.multiply(x, x if a is b else value(b)), Decimal(half * n)))
    else:
        width = bits // 4 + 1  # 16**width >= 2**(bits + 1)
        base, half = 16, "8" + "0" * (width - 1)

        def value(c):  # c at x = 16**width
            pos, neg = _slots(c, width, "x")
            return int(pos, 16) - int(neg, 16)

        x = value(a)
        digits = format(x * (x if a is b else value(b)) + int(half * n, 16), "x")
    digits = digits.zfill(n * width)
    h = int(half, base)
    return [int(digits[i - width:i], base) - h for i in range(n * width, 0, -width)]


def product(factors: Iterable[Polynomial]) -> Polynomial:
    """The product of the factors (1 if there are none) by a product tree
    that always multiplies the two of least degree next. Factors of one
    degree make a balanced tree, so the few largest products are the ones
    that reach _kronecker."""
    heap = [(len(f.coeffs), i, f) for i, f in enumerate(factors)]
    if not heap:
        return Polynomial((1,))
    heapify(heap)
    count = len(heap)
    while len(heap) > 1:
        f = heappop(heap)[2] * heappop(heap)[2]
        heappush(heap, (len(f.coeffs), count, f))
        count += 1
    return heap[0][2]


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
