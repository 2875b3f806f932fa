import decimal
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import divmod_monic, schoolbook_product
from nullpoly import polys
from nullpoly.polys import (
    ParseError,
    Polynomial,
    format_csv,
    format_human,
    parse_polynomial,
    product,
    reduce_coeffs,
)

X = Polynomial((0, 1))

small_polys = st.builds(
    Polynomial, st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
)


def test_add_examples():
    assert X + Polynomial((0, -1)) == Polynomial(())
    f = Polynomial((0, -1, 1))        # x^2 - x
    g = Polynomial((-2, -1, 1))       # x^2 - x - 2
    assert f + g == Polynomial((-2, -2, 2))


@given(small_polys)
def test_add_identity(f):
    assert f + Polynomial(()) == f
    assert f - f == Polynomial(())


def test_mul_examples():
    f = Polynomial((0, -1, 1))
    assert X * (X - Polynomial((1,))) == f
    assert f * f == Polynomial((0, 0, 1, -2, 1))
    assert f * Polynomial((-2, -1, 1)) == Polynomial((0, 2, -1, -2, 1))


def _counting_kernel(monkeypatch) -> list:
    """Wrap polys._kronecker; the returned list gets one entry per call."""
    calls, kernel = [], polys._kronecker

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kernel(a, b)

    monkeypatch.setattr(polys, "_kronecker", counted)
    return calls


def test_every_product_of_two_multi_term_polynomials_is_a_kronecker_product(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    one = X + Polynomial((1,))
    assert one * one == Polynomial((1, 2, 1))
    assert calls == [(2, 2)]
    rng = random.Random(5)
    for na, nb in [(2, 23), (23, 2), (2, 2), (3, 5), (23, 23), (24, 24)]:
        calls.clear()
        a, b = _signed_coeffs(rng, na, 40), _signed_coeffs(rng, nb, 40)
        assert Polynomial(a) * Polynomial(b) == Polynomial(schoolbook_product(a, b))
        assert len(calls) == 1 and sorted(calls[0]) == sorted((na, nb))


def test_one_term_factors_scale_the_other(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    rng = random.Random(6)
    for n in (1, 2, 7, 40):
        f = _signed_coeffs(rng, n, 300)
        if n > 1:
            f[0] = 0  # zeros among the coefficients
        for c in (-(2 ** 200) - 1, -3, -1, 1, 5, 2 ** 130):
            want = Polynomial(schoolbook_product(f, [c]))
            assert Polynomial(f) * Polynomial((c,)) == want
            assert Polynomial((c,)) * Polynomial(f) == want
            assert Polynomial(f) * c == want and c * Polynomial(f) == want
        assert Polynomial(f) * 0 == Polynomial(()) == 0 * Polynomial(f)
        assert Polynomial(f) * Polynomial(()) == Polynomial(()) == Polynomial(()) * Polynomial(f)
    assert Polynomial(()) * 7 == Polynomial(())
    assert X ** 0 == Polynomial((1,)) and X ** 1 == X
    assert calls == []


def _signed_coeffs(rng, n, bits):
    """n coefficients: zeros, tiny ones and ones of up to bits bits, mixed
    signs, the last nonzero."""
    c = [rng.choice((0, rng.randint(-3, 3), rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))))
         for _ in range(n)]
    c[-1] = c[-1] or 1
    return c


def _nonnegative_coeffs(rng, n, bits):
    """n coefficients as _signed_coeffs, none negative, the last nonzero."""
    return [abs(c) for c in _signed_coeffs(rng, n, bits)]


def _assert_kernel_exact(a, b):
    want = schoolbook_product(a, b)
    assert polys._kronecker(a, b) == want
    assert polys._kronecker(a, a) == schoolbook_product(a, a)
    assert Polynomial(a) * Polynomial(b) == Polynomial(want)


@pytest.mark.parametrize("decimal_min_digits", [None, 0, 10 ** 18], ids=["measured", "decimal", "int"])
def test_kronecker_matches_schoolbook(monkeypatch, decimal_min_digits):
    # None keeps the measured threshold; 0 and 10**18 send every product
    # through the decimal and through the int path
    if decimal_min_digits is not None:
        monkeypatch.setattr(polys, "_DECIMAL_MIN_DIGITS", decimal_min_digits)
    rng = random.Random(f"kronecker:{decimal_min_digits}")
    for na, nb, bits in [(1, 1, 8), (1, 40, 200), (40, 1, 300), (2, 3, 1), (23, 23, 80), (24, 24, 80),
                         (24, 72, 600), (25, 5, 40), (70, 90, 1200), (200, 150, 2000)]:
        for _ in range(3):
            _assert_kernel_exact(_signed_coeffs(rng, na, bits), _signed_coeffs(rng, nb, bits))
            # neither factor negative, and one factor negative: both paths
            # pack every sign pattern into the same signed slots
            _assert_kernel_exact(_nonnegative_coeffs(rng, na, bits), _nonnegative_coeffs(rng, nb, bits))
            _assert_kernel_exact(_nonnegative_coeffs(rng, na, bits), _signed_coeffs(rng, nb, bits))
    _assert_kernel_exact([0, 0, 5], [-7])
    _assert_kernel_exact([-1] * 50, [1] * 40)
    _assert_kernel_exact([0, 0, 5], [7])
    _assert_kernel_exact([0] * 40, [0] * 50)  # zero-only factors
    _assert_kernel_exact([0], [3, 0, 2 ** 300])
    _assert_kernel_exact([2 ** 64 - 1] * 60, [255] * 33)  # coefficients filling whole bytes


def _slot_bytes(a, b):
    """Bytes per slot that the int path needs for a times b, before rounding
    up to a struct size: 256**width > 2 * mag."""
    mag = max(max(a), -min(a), 1) * max(max(b), -min(b), 1) * min(len(a), len(b))
    return (mag.bit_length() + 1) // 8 + 1


def _extreme_factor(rng, n, bits, kind):
    """n coefficients of at most bits bits, one of them 2**bits - 1 or its
    negative: signed, none negative, all zero, or every one at 2**bits - 1
    (so that a product coefficient reaches the bound mag itself)."""
    top = (1 << bits) - 1
    if kind == "zero":
        return [0] * n
    if kind == "full":
        return [top] * n
    c = [rng.randint(-top, top) for _ in range(n)]
    c[rng.randrange(n)] = rng.choice((-top, top))
    return [abs(v) for v in c] if kind == "nonnegative" else c


@pytest.mark.parametrize("struct_max_bytes", [None, 0], ids=["measured", "bytes"])
def test_kronecker_at_every_slot_width(monkeypatch, struct_max_bytes):
    # slot widths 1 to 9 bytes, so on both sides of every rounding up to a
    # struct size (1 | 2, 2 | 3 -> 4, 4 | 5 and past); None keeps the
    # measured _STRUCT_MAX_BYTES, 0 packs every slot by int.to_bytes
    import struct

    if struct_max_bytes is not None:
        monkeypatch.setattr(polys, "_STRUCT_MAX_BYTES", struct_max_bytes)
    sizes = set()

    def recording(call):
        def packer(fmt, *args):
            sizes.add(struct.calcsize(fmt) // int(fmt[1:-1]))
            return call(fmt, *args)
        return packer

    monkeypatch.setattr(struct, "pack", recording(struct.pack))
    monkeypatch.setattr(struct, "unpack", recording(struct.unpack))
    rng = random.Random(f"slots:{struct_max_bytes}")
    widths = set()
    for bits in range(36):
        lengths = [(1, 1), (1, 7), (3, 2), (16, 16)] + [(40, 500), (500, 3)] * (bits % 7 == 0)
        for na, nb in lengths:
            for kind in ("signed", "nonnegative", "zero", "full", "same"):
                a = _extreme_factor(rng, na, bits, "signed" if kind == "same" else kind)
                b = a if kind == "same" else _extreme_factor(rng, nb, bits + nb % 2, kind)
                if kind == "full":
                    b = [-v for v in b]  # the product's coefficients reach -mag
                widths.add(_slot_bytes(a, b))
                assert polys._kronecker(a, b) == schoolbook_product(a, b), (bits, na, nb, kind)
    assert widths >= set(range(1, 10))
    assert sizes == (set() if struct_max_bytes == 0 else {1, 2, 4})


def test_kronecker_decimal_threshold_is_met_on_both_sides():
    # 1000-bit coefficients take 605-digit slots: 2n - 1 = 159 slots pack
    # below _DECIMAL_MIN_DIGITS, 239 slots above it
    assert 159 * 605 < polys._DECIMAL_MIN_DIGITS <= 239 * 605
    rng = random.Random(3)
    for n in (80, 120):
        a = [rng.choice((-1, 1)) * (rng.getrandbits(999) | 1 << 999) for _ in range(n)]
        _assert_kernel_exact(a, a[::-1])


def test_kronecker_past_the_int_str_digit_limit(monkeypatch):
    # the route reads the product's size alone: slots of more decimal digits
    # than int <-> str conversion allows take the decimal path as well, and
    # their digits go through Decimal, whose conversions have no cap
    huge = 7 ** 6000 + 1  # 5071 digits, past the default cap of 4300
    monkeypatch.setattr(polys, "_DECIMAL_MIN_DIGITS", 0)
    multiplies = []

    class CountingContext(decimal.Context):
        def multiply(self, x, y):
            multiplies.append(1)
            return super().multiply(x, y)

    monkeypatch.setattr(decimal, "Context", CountingContext)
    rng = random.Random(4)
    a = [rng.randint(-9, 9) for _ in range(40)] + [huge]
    b = [-huge] + [rng.randint(-9, 9) for _ in range(39)] + [huge]
    limit = sys.get_int_max_str_digits()
    for cap in (sys.int_info.default_max_str_digits, 0):  # the default cap, and none
        multiplies.clear()
        sys.set_int_max_str_digits(cap)
        try:
            _assert_kernel_exact(a, b)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(multiplies) == 3  # one per product _assert_kernel_exact takes


def test_product_tree():
    assert product([]) == Polynomial((1,))
    assert product([X]) == X
    assert product([X, Polynomial(())]) == Polynomial(())
    linear = [Polynomial((-i, 1)) for i in range(70)]
    want = Polynomial((1,))
    for f in linear:
        want = want * f
    assert product(linear) == want
    assert product(reversed(linear)) == want


def _rem_oracle(c, tail, m):
    """Remainder of c by x**mu - sum_j tail[j] * x**j, by conftest's long
    division."""
    return divmod_monic(Polynomial(c), Polynomial([-t for t in tail] + [1]), m)[1]


@pytest.mark.parametrize("struct_max_bytes", [None, 0], ids=["measured", "bytes"])
def test_rem_monic_at_slot_width_edges(monkeypatch, struct_max_bytes):
    # m = 2**k - 1 and 2**k + 1 put the most a slot holds,
    # (m - 1) * (1 + mu * (m - 1)), on both sides of byte boundaries; the
    # coefficients run far above m**2 and below 0, n - mu is 1 or 17, and
    # the tail is extreme (all m - 1), random or all zeros (x**mu itself)
    if struct_max_bytes is not None:
        monkeypatch.setattr(polys, "_STRUCT_MAX_BYTES", struct_max_bytes)
    rng = random.Random(f"rem:{struct_max_bytes}")
    widths = set()
    for k in range(1, 40):
        for m in {max(2 ** k - 1, 2), 2 ** k + 1}:
            for mu in (1, 3, 33):
                widths.add(((m - 1) * (1 + mu * (m - 1))).bit_length() // 8)
                for n in (mu + 1, mu + 17):
                    big = [rng.randrange(-m ** 3, m ** 3) for _ in range(n)]
                    big[rng.randrange(n)] = rng.choice((-10 ** 40, 10 ** 40 - 1))
                    cases = [
                        ([-1] * n, [m - 1] * mu),
                        ([m * rng.randrange(m ** 2) - 1 for _ in range(n)], [m - 1] * mu),
                        (big, [rng.randrange(m) for _ in range(mu)]),
                        (big, [0] * mu),
                    ]
                    for c, tail in cases:
                        r = polys._rem_monic(c, tail, m)
                        assert len(r) == mu and all(0 <= v < m for v in r)
                        assert Polynomial(r) == _rem_oracle(c, tail, m), (m, mu, n)
    assert widths >= set(range(1, 10))


def test_rem_monic_below_the_divisor_degree_is_the_residues():
    # trailing zeros are kept, as the remainder's mu - 1 top places
    assert polys._rem_monic([], [1, 2], 5) == []
    assert polys._rem_monic([7, -1, 10], [0, 0, 0], 5) == [2, 4, 0]
    assert polys._rem_monic([7, -1, 10, 1], [0, 0, 0], 5) == [2, 4, 0]
    assert polys._rem_monic([7, -1, 10, 1], [1, 1, 1], 5) == [3, 0, 1]


def test_eval_examples():
    f = parse_polynomial("x^4-2x^3+3x^2-2x")
    assert f(3) == 48
    assert f(3) % 8 == 0
    assert X(10 ** 9) == 10 ** 9
    assert Polynomial(())(12345) == 0


@given(small_polys, small_polys, st.integers(min_value=-100, max_value=100))
def test_eval_multiplicative(f, g, x):
    assert (f * g)(x) == f(x) * g(x)


def test_reduce_coeffs_examples():
    f = parse_polynomial("x^4-2x^3+3x^2-2x")
    assert reduce_coeffs(f, 8) == parse_polynomial("x^4+6x^3+3x^2+6x")
    assert reduce_coeffs(f, 1) == Polynomial(())
    assert reduce_coeffs(Polynomial((5, 5)), 5) == Polynomial(())


@given(small_polys, st.integers(min_value=1, max_value=1000))
def test_reduce_coeffs_idempotent(f, m):
    r = reduce_coeffs(f, m)
    assert reduce_coeffs(r, m) == r
    assert not reduce_coeffs(f - r, m)


# f and g are congruent coefficient-wise mod m iff f - g reduces to 0
def test_poly_congruent_examples():
    assert not reduce_coeffs(Polynomial((0, 0, 1)) - Polynomial((0, 8, 1)), 8)
    # coefficient-wise, not functional: x^3 and x differ as polynomials mod 3
    assert reduce_coeffs(Polynomial((0, 0, 0, 1)) - X, 3)


def test_congruent_implies_same_function():
    rng = random.Random(7)
    for m in range(2, 65):
        f = Polynomial([rng.randrange(-20, 20) for _ in range(6)])
        h = Polynomial([rng.randrange(-20, 20) for _ in range(6)])
        g = f + m * h
        assert reduce_coeffs(f, m) == reduce_coeffs(g, m)
        for x in range(m):
            assert f.eval_mod(x, m) == g.eval_mod(x, m)


def test_deg_mod_examples():
    # the degree mod m is the degree of the reduced polynomial, since
    # Polynomial strips trailing zeros; None when f ≡ 0 (mod m)
    assert reduce_coeffs(Polynomial((0, 0, 1, 0, 0, 8)), 8).degree == 2
    assert reduce_coeffs(parse_polynomial("x^4-2x^3+3x^2-2x"), 8).degree == 4
    assert reduce_coeffs(Polynomial((4, 4)), 2).degree is None
    assert reduce_coeffs(Polynomial(()), 17).degree is None


def test_divmod_monic_examples():
    g = Polynomial((0, -1, 1))
    q, r = divmod_monic(Polynomial((0, 0, 1)), g, 4)
    assert q == Polynomial((1,)) and r == X
    q, r = divmod_monic(Polynomial((0, 0, 0, 0, 1)), g, 4)
    assert q == Polynomial((1, 1, 1)) and r == X
    q, r = divmod_monic(X, g, 4)
    assert q == Polynomial(()) and r == X


def test_divmod_monic_errors():
    with pytest.raises(ValueError):
        divmod_monic(X, Polynomial((0, 2)), 4)  # leading 2 is not 1 mod 4
    with pytest.raises(ValueError):
        divmod_monic(X, Polynomial((4, 8)), 4)  # zero polynomial mod 4


def test_divmod_monic_randomized():
    # 1000 random cases: f ≡ g*q + r coefficient-wise and deg r < deg g
    rng = random.Random(20240817)
    for _ in range(1000):
        m = rng.randrange(2, 10 ** 6)
        dg = rng.randrange(1, 5)
        g = Polynomial([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(dg)] + [1])
        f = Polynomial(
            [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(0, 9))]
        )
        q, r = divmod_monic(f, g, m)
        assert not reduce_coeffs(g * q + r - f, m)
        rd = reduce_coeffs(r, m).degree
        assert rd is None or rd < dg


def test_parse_csv_and_human_agree():
    assert parse_polynomial("0,-2,3,-2,1") == parse_polynomial("x^4-2x^3+3x^2-2x")
    assert parse_polynomial("5") == Polynomial((5,))
    assert parse_polynomial("-x+1") == Polynomial((1, -1))
    assert parse_polynomial("3x") == Polynomial((0, 3))
    assert parse_polynomial(" 2*x^2 - x ") == Polynomial((0, -1, 2))
    assert parse_polynomial("x") == X
    assert parse_polynomial("0") == Polynomial(())


def test_parse_rejects_garbage():
    for bad in ("", "x^", "2y+1", "x**3", "1,2,fish", "x^4-2x^3+3x^2-2"):
        try:
            parse_polynomial(bad)
        except ParseError:
            continue
        # "x^4-2x^3+3x^2-2" is actually fine; only true garbage must raise
        assert bad == "x^4-2x^3+3x^2-2"


def test_format_round_trip_examples():
    f = parse_polynomial("x^4-2x^3+3x^2-2x")
    assert format_csv(f) == "0,-2,3,-2,1"
    assert format_human(f) == "x^4-2x^3+3x^2-2x"
    assert format_human(Polynomial(())) == "0"
    assert format_csv(Polynomial(())) == "0"
    assert format_human(Polynomial((-1, 0, 1))) == "x^2-1"


@given(small_polys)
def test_format_parse_round_trip(f):
    assert parse_polynomial(format_csv(f)) == f
    assert parse_polynomial(format_human(f)) == f


@settings(max_examples=50)
@given(small_polys, st.integers(min_value=2, max_value=48))
def test_reduce_preserves_congruence_class(f, m):
    shifted = f + m * Polynomial((3, -1, 7))
    assert reduce_coeffs(f, m) == reduce_coeffs(shifted, m)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
    st.integers(min_value=0, max_value=6),
)
def test_trailing_zeros_are_stripped_and_immutable(c, k):
    f = Polynomial(c + [0] * k)
    g = Polynomial(c)
    assert f == g and hash(f) == hash(g)
    assert not f.coeffs or f.coeffs[-1] != 0
    with pytest.raises(AttributeError):
        f.coeffs = (1,)
