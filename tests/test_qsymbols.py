from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedbps.laurent import lp_add, lp_mul, lp_one
from framedbps.qsymbols import BraceRatio, InexactDivision, _div_brace, _mul_brace, braces

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exponents = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: {k: c for k, c in d.items() if c})


def brace(n, da=0):
    """{n} (da = 0) or {n;a} (da = 1), written out by hand."""
    return {(n, da): 1, (-n, -da): -1} if n or da else {}


def test_symbol_values():
    assert braces(lp_one(), 0, 1) == {}
    assert braces(lp_one(), 3, 1) == {(3, 0): 1, (-3, 0): -1}
    assert braces(lp_one(), 2, 1, 1) == {(2, 1): 1, (-2, -1): -1}
    assert braces(lp_one(), 0, 1, 1) == {(0, 1): 1, (0, -1): -1}
    # a bool n is read as the int it stands for, so no key holds True
    assert [type(dq) for dq, _ in braces(lp_one(), True, 1)] == [int, int]


@given(st.integers(-8, 8))
def test_symbols_are_odd_in_n(n):
    assert braces(lp_one(), -n, 1) == {k: -c for k, c in braces(lp_one(), n, 1).items()}


def test_falling_products():
    assert braces(lp_one(), 5, 0) == lp_one()
    assert braces(lp_one(), 3, 2) == lp_mul(brace(3), brace(2))
    assert braces(lp_one(), 0, 2, 1) == lp_mul(brace(0, 1), brace(-1, 1))
    # the product multiplies onto the numerator it is given
    p = {(1, 2): 3, (-4, 0): -2}
    assert braces(p, 2, 3, 1) == lp_mul(p, braces(lp_one(), 2, 3, 1))


def test_factorials_and_multiset():
    assert braces(lp_one(), 0, 0) == lp_one()
    assert braces(lp_one(), 3, 3) == lp_mul(lp_mul(brace(3), brace(2)), brace(1))
    # a negative size is refused, not read as the empty product
    with pytest.raises(ValueError, match="i must be at least 0, got -3"):
        braces(lp_one(), 3, -3)


# --- BraceRatio -------------------------------------------------------------


def br(num, den=None):
    return BraceRatio(dict(num), den)


def test_ratio_identities():
    assert BraceRatio({}).num == {}
    assert BraceRatio(lp_one()).num == lp_one()
    # zero numerator clears the denominator
    assert br({}, {2: 1}).den == Counter()


def test_ratio_add_uses_multiset_max():
    # 1/{1}{2} + 1/{2}{3} -> common denominator {1}{2}{3}
    x = br(lp_one(), {1: 1, 2: 1})
    y = br(lp_one(), {2: 1, 3: 1})
    s = x.add(y)
    assert s.den == Counter({1: 1, 2: 1, 3: 1})
    assert s.num == lp_add(brace(3), brace(1))


def test_ratio_equality_cross_denominator():
    # {2}/{1}{2} == {2}^2/{1}{2}^2 as values
    a = br(brace(2), {1: 1, 2: 1})
    b = br(lp_mul(brace(2), brace(2)), {1: 1, 2: 2})
    assert a == b
    assert a.sub(b).num == {}
    assert a != br(brace(2), {1: 1})


def test_ratio_mul_and_scale():
    a = br(brace(2), {1: 1})
    b = br(brace(0, 1), {2: 1})
    p = a.mul(b)
    assert p.den == Counter({1: 1, 2: 1})
    assert p.num == lp_mul(brace(2), brace(0, 1))
    assert a.scale(Fraction(-1, 3)) == BraceRatio({k: c * Fraction(-1, 3) for k, c in a.num.items()},
                                                   a.den)
    assert a.mul(br(brace(1))).num == lp_mul(a.num, brace(1))
    assert a.scale(0).num == {} and a.scale(0).den == Counter()
    assert a.mul(br({})).num == {}
    # any exact scalar works in the numerator
    f = BraceRatio({(0, 0): Fraction(1, 2), (2, 0): Fraction(-2, 3)})
    assert f.num == {(0, 0): Fraction(1, 2), (2, 0): Fraction(-2, 3)}
    assert f.scale(6).num == {(0, 0): 3, (2, 0): -4}


def test_brace_division_clears_exactly_or_raises():
    assert _div_brace(_div_brace(lp_mul(brace(2), brace(5)), 2), 5) == lp_one()
    bad = [
        (brace(2), 3),                                   # {2} / {3}
        ({(4, 1): Fraction(3)}, 2),                      # one term
        # q^3 - q^-1 + q^-3: one chain q^3, q^1, q^-1, q^-3 with a gap at q^1
        ({(6, 0): Fraction(1), (-2, 0): Fraction(-1), (-6, 0): Fraction(1)}, 2),
        # an exact a^0 chain next to an a^1 chain whose terms do not cancel
        (lp_add(brace(1), {(1, 2): Fraction(1), (-1, 2): Fraction(1)}), 1),
    ]
    for num, n in bad:
        with pytest.raises(InexactDivision):
            _div_brace(num, n)


# A few denominators, so that drawn terms often share one, and often have
# to be raised to each other; numerators are integral, as in the pipeline.
dens = st.sampled_from([{}, {1: 1}, {2: 1}, {1: 1, 2: 1}, {3: 2}, {1: 2, 3: 1}])
int_polys = st.dictionaries(exponents, st.integers(-5, 5), max_size=5).map(
    lambda d: {k: c for k, c in d.items() if c})
ratios = st.builds(BraceRatio, int_polys, dens)


@given(st.lists(ratios, max_size=8))
@settings(max_examples=80)
def test_sum_equals_pairwise_fold(terms):
    # the fold in the other order
    total = BraceRatio({})
    for t in reversed(terms):
        total = t.add(total)
    s = BraceRatio.sum(terms)
    assert s == total
    assert all(type(c) is int for c in s.num.values())


def test_sum_of_nothing_or_zeros_is_zero():
    assert BraceRatio.sum([]).num == {}
    assert BraceRatio.sum([br({}, {2: 1}), BraceRatio({})]).num == {}
    # a term that cancels, next to one that does not
    x, y = br(lp_one(), {1: 1}), br(lp_one(), {2: 1})
    assert BraceRatio.sum([x, y, x.scale(-1)]) == y


@given(polys, st.integers(-6, 6), st.sampled_from([0, 1]))
@settings(max_examples=80)
def test_brace_multiply_is_lp_mul_and_inverts_division(p, n, da):
    # {n} or {n;a} by shift-subtract is the product by the written-out symbol
    assert _mul_brace(p, n, da) == lp_mul(p, brace(n, da))
    if n > 0 and not da:
        assert _div_brace(_mul_brace(p, n), n) == p


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_brace_division_over_wide_gaps(n):
    # exponents over ±200 leave long zero runs in every chain
    p = {(dq, da): (-1) ** i * (i + 1)
         for i, (dq, da) in enumerate([(-200, 0), (-37, 0), (4, 0), (199, 0), (-198, 3),
                                       (150, 3), (200, -1), (-151, -1), (0, 5)])}
    num = _mul_brace(p, n)
    assert _div_brace(num, n) == p
    # one stray term makes the division inexact
    num[(201 + n, 0)] = 1
    with pytest.raises(InexactDivision):
        _div_brace(num, n)
