from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedbps.laurent import (NonInvertibleLeadingTerm, lp_add, lp_mono, lp_mul,
                               lp_neg, lp_one, lp_scale, lp_specialize_q1, lp_sub,
                               series_inv, series_mul)
from framedbps.qsymbols import BraceRatio

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: {k: c for k, c in d.items() if c})


def test_zero_coefficients_never_stored():
    assert lp_mono(3, 1, 0) == {}
    assert lp_add(lp_mono(0, 2), lp_mono(0, 2, -1)) == {}
    assert lp_scale(lp_mono(1, 1), 0) == {}
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


@given(polys, polys, st.integers(1, 4))
@settings(max_examples=40)
def test_adams_is_multiplicative(p, q, d):
    x, y = BraceRatio(p, {1: 1}), BraceRatio(q, {2: 1})
    assert x.mul(y).adams(d) == x.adams(d).mul(y.adams(d))
    assert x.adams(1) == x


@given(polys, polys)
@settings(max_examples=40)
def test_specialize_q1_is_a_ring_map(p, q):
    assert lp_specialize_q1(lp_mul(p, q)) == lp_mul(
        lp_specialize_q1(p), lp_specialize_q1(q))
    assert lp_specialize_q1(lp_add(p, q)) == lp_add(
        lp_specialize_q1(p), lp_specialize_q1(q))


def test_specialize_q1_collects_a_terms():
    p = {(3, 1): Fraction(1), (-3, 1): Fraction(2), (0, -2): Fraction(1),
         (5, 3): Fraction(1), (1, 3): Fraction(-1)}
    assert lp_specialize_q1(p) == {(0, 1): 3, (0, -2): 1}


# --- truncated series ------------------------------------------------------


def geom(order):
    # 1 + x + x^2 + ...
    return [lp_one()] * order


def test_series_mul_truncates():
    s = geom(5)
    sq = series_mul(s, s)
    assert [c.get((0, 0)) for c in sq] == [1, 2, 3, 4, 5]
    # unequal lengths truncate at the shorter input, either way round
    short = [lp_one(), {(0, 0): 2}, {(0, 0): 3}]
    assert series_mul(s, geom(3)) == series_mul(geom(3), s) == short


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
    # but a non-unit monomial like 2q is fine
    s = [lp_mono(2, 0, 2), {}, {}]
    assert series_inv(s)[0] == lp_mono(-2, 0, Fraction(1, 2))

