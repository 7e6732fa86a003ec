from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedbps.laurent import (NonInvertibleLeadingTerm, PackingError, _frame, _pack, _shift,
                               _unpack, _width, lp_add, lp_mono, lp_mul, lp_neg, lp_one, lp_sub,
                               series_inv)
from series_products import series_mul

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: {k: c for k, c in d.items() if c})


def test_zero_coefficients_never_stored():
    assert lp_mono(3, 1, 0) == {}
    assert lp_add(lp_mono(0, 2), lp_mono(0, 2, -1)) == {}
    p = lp_mul(lp_add(lp_one(), lp_mono(0, 2, -1)), lp_add(lp_one(), lp_mono(0, 2)))
    assert p == {(0, 0): 1, (0, 4): -1}  # the cross terms cancel


def test_mono_and_constants():
    assert lp_one() == {(0, 0): 1}
    assert lp_mono(-3, 5, Fraction(2, 3)) == {(-3, 5): Fraction(2, 3)}


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert lp_add(p, q) == lp_add(q, p)
    assert lp_mul(p, q) == lp_mul(q, p)
    assert lp_add(lp_add(p, q), r) == lp_add(p, lp_add(q, r))
    assert lp_mul(lp_mul(p, q), r) == lp_mul(p, lp_mul(q, r))
    assert lp_mul(p, lp_add(q, r)) == lp_add(lp_mul(p, q), lp_mul(p, r))
    assert lp_add(p, lp_neg(p)) == {}
    assert lp_sub(p, q) == lp_add(p, lp_neg(q))


# --- truncated series ------------------------------------------------------


def geom(order):
    # 1 + x + x^2 + ...
    return [lp_one()] * order


def test_series_inv_of_geometric():
    s = geom(6)
    inv = series_inv(s)
    assert inv[0] == lp_one()
    assert inv[1] == lp_neg(lp_one())
    assert all(not c for c in inv[2:])
    assert len(inv) == 6
    assert series_mul(s, inv) == [lp_one(), {}, {}, {}, {}, {}]


def test_series_inv_needs_monomial_constant():
    bad = [lp_add(lp_one(), lp_mono(0, 2)), {}, {}]
    with pytest.raises(NonInvertibleLeadingTerm):
        series_inv(bad)
    with pytest.raises(NonInvertibleLeadingTerm):
        series_inv([{}, {}, {}])  # zero constant term
    # a monomial that is not a unit, like 2q, has no int inverse
    with pytest.raises(NonInvertibleLeadingTerm, match="not a unit monomial"):
        series_inv([lp_mono(2, 0, 2), {}, {}])
    # a unit -q a^(1/2) inverts by negating its exponents
    s = [lp_mono(2, 1, -1), lp_mono(0, 1, 3), {}]
    inv = series_inv(s)
    assert inv[0] == lp_mono(-2, -1, -1)
    assert series_mul(s, inv) == [lp_one(), {}, {}]


# int polynomials whose dq, and whose da, each have one parity
int_polys = st.dictionaries(exponents, st.integers(-300, 300), min_size=1, max_size=6).map(
    lambda d: {k: c for k, c in d.items() if c}).filter(bool)
uniform = st.tuples(int_polys, st.integers(0, 1), st.integers(0, 1)).map(
    lambda t: {(2 * dq + t[1], 2 * da + t[2]): c for (dq, da), c in t[0].items()})


@given(uniform, uniform)
@settings(max_examples=60)
def test_packing_is_a_ring_map(p, q):
    # the packed product, read back on the product's frame, is lp_mul
    (fp, hp), (fq, hq) = _frame(p), _frame(q)
    fpq = (*(a + b for a, b in zip(fp[:4], fq)), fp[4] * fq[4])
    span, b = _width(fpq)
    assert _unpack(_pack(hp, b, span) * _pack(hq, b, span), fpq, b, span) == lp_mul(p, q)
    # a sum is read on the box around both frames, each shifted up onto its corner
    hull = (min(fp[0], fq[0]), min(fp[1], fq[1]), max(fp[2], fq[2]), max(fp[3], fq[3]),
            fp[4] + fq[4])
    span, b = _width(hull)

    def total():
        return (_shift(_pack(hp, b, span), fp, hull, b, span)
                + _shift(_pack(hq, b, span), fq, hull, b, span))
    if (fp[0] - fq[0]) % 2 or (fp[1] - fq[1]) % 2:
        with pytest.raises(PackingError, match="by even steps"):
            total()
    else:
        assert _unpack(total(), hull, b, span) == lp_add(p, q)


def test_packing_checks_raise():
    with pytest.raises(PackingError, match="mixed parity"):
        _frame({(0, 0): 1, (1, 2): 1})
    frame, _ = _frame({(0, 0): 1, (2, 2): -3})
    assert frame == (0, 0, 2, 2, 4)
    with pytest.raises(PackingError, match="by even steps"):
        _shift(1, frame, (2, 0), 8, 2)          # a shift down
    with pytest.raises(PackingError, match="by even steps"):
        _shift(1, frame, (-1, 0), 8, 2)         # an odd shift
    with pytest.raises(PackingError, match="reaches past"):
        _unpack(1 << 8 * 4, frame, 8, 2)        # a digit past the 2 x 2 box
    with pytest.raises(PackingError, match="above the bound"):
        _unpack(5, frame, 8, 2)                 # |5| > the 1-norm 4
    with pytest.raises(PackingError, match="width 8 cannot hold"):
        _unpack(0, frame[:4] + (128,), 8, 2)    # a bound past the digit's half
    # at an a-step of 1 a digit is a power of a^(1/2), odd exponents included
    mixed = {(0, -1): 1, (0, 0): -2, (0, 2): 5}
    n = 1 - (2 << 8) + (5 << 24)
    assert _unpack(n, (0, -1, 0, 2, 8), 8, _width((0, -1, 0, 2, 8), 1)[0], 1) == mixed


@pytest.mark.parametrize("b", [8, 16, 24, 32, 40, 64, 72])
def test_unpack_reads_extreme_digits_at_every_width(b):
    # the widths read through struct ('B', 'H', 'I', 'Q') and byte by byte
    top = (1 << (b - 1)) - 1
    p = {(0, 0): top, (2, 0): -top, (0, 2): -1, (4, 2): 1, (2, 4): -top}
    (frame, halved) = _frame(p)
    frame = frame[:4] + (top,)
    assert _unpack(_pack(halved, b, 3), frame, b, 3) == p
