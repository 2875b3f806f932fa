"""Exact integer polynomial arithmetic and coefficient-wise modular reduction.

A polynomial is a record whose one field is its tuple of arbitrary-precision
integer coefficients, ascending by degree. The zero polynomial is the empty
tuple and reports degree ``None`` (a nonzero constant has degree 0, which is
a different thing and must stay distinguishable for the counting code).
__init__ trims trailing zeros; from_trimmed makes records in bulk from
tuples that have none, for the enumerator.

A product with an int or a one-term polynomial scales the other factor
coefficient by coefficient. Every other product of two polynomials is one
exact Kronecker substitution (_kronecker): each factor is evaluated at
x = base**width, one slot per coefficient, the two integers are multiplied
once, and the product's coefficients are read back off its slots. Every
product and factor coefficient c has |c| <= mag, the factors' largest
magnitudes (at least 1) times the shorter length, and a slot's range
exceeds 2 * mag: with h, half a slot's range, added to every slot of the
product, no slot borrows from the next. The route reads the product's
size alone, and each route has one slot format.

Below _DECIMAL_MIN_DIGITS packed decimal digits the int path multiplies
CPython ints (Karatsuba) in base 256. A factor's slots hold its
coefficients v in two's complement; flipping every slot's top bit, one XOR
of the whole integer, makes each slot v + h, and one subtraction takes
every h out. The product's slots plus h, their top bits flipped the same
way, are its coefficients in two's complement. Slots of at most
_STRUCT_MAX_BYTES bytes, rounded up to struct's sizes 1, 2 and 4, are
written and read by struct in one pass; wider ones by one int.to_bytes and
one int.from_bytes call a slot (_slot_format).

From there on the base is 10 and the product is decimal.Context.multiply
at MAX_PREC, libmpdec's number-theoretic transform. A factor is packed as
the magnitudes of its positive minus those of its negative coefficients
(no negative pack for a factor with none), and h is added to the product
and taken out of each slot read. The path never converts a packed integer
between int and Decimal (both ways are quadratic: seconds at 10**5
digits): it formats one coefficient at a time, parses each packed string
once, and reads back by slicing the product's digit string. A slot wider
than sys.get_int_max_str_digits(), which caps int <-> str, is written and
read through Decimal, whose conversions have no cap. decimal is imported
only on its route, so start-up does not pay for it.

_rem_monic, the remainder by a divisor monic mod m given as
x**mu ≡ sum_j tail_j * x**j, uses the int path's serializers with
unsigned slots. Its window holds mu + 1 slots, each wide enough for
(m - 1) * (1 + mu * (m - 1)): a slot enters as a residue and takes at most
mu products of two residues before it reaches the top, so no slot ever
carries. A step shifts the window up one slot and brings in the next lower
coefficient of f, reads the top slot mod m as t, masks it off and adds
t * Y, Y being the packed tail. A step costs O(mu) slot-words whatever
deg f is: the window never holds more than mu + 1 slots.

Only this module packs integers into slots. product() multiplies many
factors as a product tree, so that few products are large and those are
balanced.
"""
from __future__ import annotations

import re
import struct
import sys
from collections import deque
from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import add, neg, sub

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
        return Polynomial((*map(add, a, b), *a[len(b):]))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(map(neg, self.coeffs)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        return Polynomial((*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])))

    def __mul__(self, other) -> "Polynomial":
        # an int or a one-term factor (every power's first product) scales
        # the other, far cheaper than packing slots; every other product is
        # one Kronecker substitution
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return Polynomial(_kronecker(a, b))
        if not b:
            return Polynomial(())
        s = b[0]
        return Polynomial(tuple(c * s for c in a))

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


# Writes the slot past the raising __setattr__; only __init__ and
# from_trimmed use it.
_set_coeffs = Polynomial.coeffs.__set__


def from_trimmed(coeffs: list[tuple[int, ...]]) -> list[Polynomial]:
    """One Polynomial per tuple, each tuple already free of trailing zeros.

    Skips __init__'s copy and trim: object.__new__ and _set_coeffs are each
    mapped over the whole list, so no interpreted step runs per polynomial.
    A tuple that ends in 0 would make a record unequal to Polynomial(t).
    """
    out = list(map(object.__new__, repeat(Polynomial, len(coeffs))))
    deque(map(_set_coeffs, out, coeffs), 0)
    return out


# _kronecker multiplies by the decimal module once the product packs into
# this many decimal digits, and by CPython's Karatsuba ints below it. On
# the same host, against byte slots, the int product wins up to about
# 90 000 digits and the decimal one from about 120 000 with coefficients
# of 30 and 300 bits, signed or not; at 3000 bits the int product wins up
# to about 180 000 digits. At 360 000 digits the decimal product is 1.5-2
# times faster.
_DECIMAL_MIN_DIGITS = 120_000

# This picks only the serializer of the int path's slots, and of
# _rem_monic's (_slot_format): struct up to this many bytes a slot, each
# rounded up to 1, 2 or 4 bytes, and one int.to_bytes and int.from_bytes
# call a slot past it. Time of one product on a 2-core x86-64 host (Python
# 3.11), struct over the byte route, which then packed positive and
# negative magnitudes apart (below 1 is faster; two runs, factors of one
# sign and of mixed signs), by slot width and terms a factor:
#   slot bytes  | 16 terms  | 128 terms | 1024 terms | 6000 terms
#   1-4         | 0.45-0.62 | 0.22-0.37 | 0.31-0.72  | 0.40-0.91
#   5-6, made 8 | 0.49-0.62 | 0.51-0.62 | 0.86-1.11  | 0.98-1.18
#   7-8, made 8 | 0.47-0.62 | 0.41-0.62 | 0.64-0.79  | 0.85-1.05
# One of the 16 runs of 1-4 bytes at 6000 terms read 1.17, for 3-byte
# slots made 4; nine more read 0.59-0.97 (median 0.84). Making a slot of 5
# or 6 bytes 8 loses from about 1000 terms. Slots of 7 or 8 bytes would
# gain below about 6000 terms, but few products have them: one round of
# the tower workload spends 1 ms of its 170 ms of products on them. struct
# rather than array: struct packs about twice as fast (5 against 11 us for
# 456 terms), and its sizes and byte order do not depend on the platform.
# Against the two's-complement byte route, 1-4 bytes read 0.20-0.73 up to
# 1024 terms and 0.28-1.72 at 6000, where the multiplication dominates.
_STRUCT_MAX_BYTES = 4


def _kronecker(a, b) -> list[int]:
    """Coefficients of the product of two nonempty coefficient sequences,
    by Kronecker substitution (module docstring)."""
    n = len(a) + len(b) - 1
    # every coefficient c of the product, and of each factor, has |c| <= mag
    mag = max(max(a), -min(a), 1) * max(max(b), -min(b), 1) * min(len(a), len(b))
    width = (mag.bit_length() + 1) * 30103 // 100000 + 1  # 10**width > 2 * mag
    if n * width >= _DECIMAL_MIN_DIGITS:
        from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

        ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
        fmt, zero = f"0{width}", "0" * width
        # slots past the int <-> str digit cap convert through Decimal
        num = Decimal if 0 < sys.get_int_max_str_digits() < width else int

        def value(c):  # c at x = 10**width
            c = c[::-1]
            pos = Decimal("".join([format(num(v), fmt) if v > 0 else zero for v in c]))
            if min(c) >= 0:
                return pos
            neg = "".join([format(num(-v), fmt) if v < 0 else zero for v in c])
            return ctx.subtract(pos, Decimal(neg))

        x = value(a)
        z = ctx.multiply(x, x if a is b else value(b))
        half = "5" + "0" * (width - 1)  # half a slot's range, added to every slot
        digits = str(ctx.add(z, Decimal(half * n))).zfill(n * width)
        h = int(num(half))
        return [int(num(digits[i - width:i])) - h for i in range(n * width, 0, -width)]
    width, fmt = _slot_format((mag.bit_length() + 1) // 8 + 1, True)  # 256**width > 2 * mag
    half = (1 << 8 * width - 1).to_bytes(width, "little")  # h, half a slot's range

    def value(c):  # c at x = 256**width
        # each slot holds v mod 256**width; every slot's top bit flipped, a
        # slot holds v + h, and h is taken out of all at once
        s = struct.pack(fmt % len(c), *c) if fmt else b"".join([v.to_bytes(width, "little", signed=True) for v in c])
        h = int.from_bytes(half * len(c), "little")
        return (int.from_bytes(s, "little") ^ h) - h

    x = value(a)
    h = int.from_bytes(half * n, "little")
    z = ((x * (x if a is b else value(b)) + h) ^ h).to_bytes(n * width, "little")  # c mod 256**width a slot
    if fmt:
        return list(struct.unpack(fmt % n, z))
    return [int.from_bytes(z[i:i + width], "little", signed=True) for i in range(0, n * width, width)]


def _slot_format(width: int, signed: bool) -> tuple[int, str | None]:
    """(width, fmt) for little-endian slots of at least `width` bytes,
    signed or unsigned. Up to _STRUCT_MAX_BYTES bytes the width is rounded
    up to struct's 1, 2 or 4, and struct writes and reads the slots in one
    call with format fmt % count; past it fmt is None, and one
    int.to_bytes and int.from_bytes call a slot write and read them."""
    if width > _STRUCT_MAX_BYTES:
        return width, None
    width = 1 << (width - 1).bit_length()
    code = {1: "b", 2: "h", 4: "i"}[width]
    return width, "<%d" + (code if signed else code.upper())


def _rem_monic(coeffs, tail, m: int) -> list[int]:
    """Residues mod m (m >= 2) of the remainder of sum_i coeffs[i] * x**i
    by a divisor of degree mu = len(tail) >= 1, monic mod m, given by
    x**mu ≡ sum_j tail[j] * x**j with residues tail[j]: long division on a
    packed window (module docstring). min(len(coeffs), mu) residues, trailing
    zeros kept."""
    mu = len(tail)
    c = [v % m for v in coeffs]
    if len(c) <= mu:
        return c
    # a slot enters as a residue and takes t * tail[j] <= (m - 1)**2 once a
    # step for mu steps before it is read at the top
    width, fmt = _slot_format((((m - 1) * (1 + mu * (m - 1))).bit_length() + 7) // 8, False)
    size = mu * width  # bytes of mu slots
    w, top = 8 * width, 8 * size
    mask = (1 << top) - 1
    s = c[-mu:] + list(tail)  # the window, f's top mu coefficients, then the tail
    s = struct.pack(fmt % (2 * mu), *s) if fmt else b"".join([v.to_bytes(width, "little") for v in s])
    r, y = int.from_bytes(s[:size], "little"), int.from_bytes(s[size:], "little")
    for v in reversed(c[:-mu]):
        r = r << w | v
        r = (r & mask) + (r >> top) % m * y
    s = r.to_bytes(size, "little")
    s = struct.unpack(fmt % mu, s) if fmt else [int.from_bytes(s[i:i + width], "little") for i in range(0, size, width)]
    return [v % m for v in s]


def product(factors: Iterable[Polynomial]) -> Polynomial:
    """The product of the factors (1 if there are none) by a product tree
    that always multiplies the two of least degree next. Factors of one
    degree make a balanced tree, so the few largest products have factors
    of equal length."""
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
    check_degree(max(terms))
    coeffs = [0] * (max(terms) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return Polynomial(coeffs)


def check_degree(base: int, exp: int = 1) -> None:
    """Refuse a polynomial of degree base**exp (base >= 2 if exp > 1) that
    no coefficient list can hold: one of more than sys.maxsize entries, the
    most a list can index. base**exp is compared exactly, and built only
    for exp below sys.maxsize's bit length."""
    if exp >= sys.maxsize.bit_length() or base ** exp >= sys.maxsize:
        shown = base if exp == 1 else f"{base}^{exp}"
        raise ValueError(f"degree {shown} is too large for a coefficient list")


# The most bits of a number built to answer a question; 3**5292497 takes over 1 s.
_POWER_BITS = 2 ** 23


def check_bits(what: str, bits: float) -> None:
    """Refuse, before it is built, a number of about `bits` bits when that
    is over _POWER_BITS. A caller clamps a huge exponent to sys.maxsize
    before it makes `bits` a float."""
    if bits > _POWER_BITS:
        raise ValueError(f"{what} has over {_POWER_BITS} bits, too large to build")


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
