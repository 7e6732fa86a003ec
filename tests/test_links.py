from itertools import permutations

import pytest

from framedbps.closedforms import UnsupportedKnotKind
from framedbps.laurent import lp_mono, lp_mul, lp_neg
from framedbps.links import (FramedLinkSpec, RecursionViolated, apply_framing,
                             check_unknot_recursion, framing_factor,
                             homfly_link)
from framedbps.qsymbols import (BRACE_A, BraceRatio, brace_factorial_multiset,
                                qsym, qsym_falling)


def unknot(r):
    return homfly_link("unknot", (r,))


def test_spec_validation():
    spec = FramedLinkSpec("whitehead", framings=(0, 1), colors=(2, 3))
    assert spec.n_components == 2
    for kwargs, message in [({"link": "hopf"}, "unknown link"),
                            ({"link": "whitehead", "framings": (1,)}, "needs 2 framings"),
                            ({"link": "unknot", "colors": (2, 1)}, "needs 1 colors"),
                            ({"link": "borromean", "colors": (1, -1, 2)}, "negative color"),
                            ({"link": "twist"}, "needs its parameter p"),
                            ({"link": "unknot", "p": 2}, "takes no parameter p")]:
        with pytest.raises(ValueError, match=message):
            FramedLinkSpec(**kwargs)
    twist = FramedLinkSpec("twist", p=-2)
    assert twist.p == -2
    with pytest.raises(UnsupportedKnotKind, match="no full invariant for 'twist'"):
        homfly_link("twist", (1,))
    with pytest.raises(ValueError):
        homfly_link("whitehead", (1,))


def test_unknot_small_colors():
    assert unknot(0) == BraceRatio.one()
    # H_1 = {0;a}/{1}
    assert unknot(1) == BraceRatio(qsym(BRACE_A, 0), {1: 1})
    # H_2 = {1;a}{0;a}/{1}{2}
    assert unknot(2) == BraceRatio(
        lp_mul(qsym(BRACE_A, 1), qsym(BRACE_A, 0)), {1: 1, 2: 1})


def test_whitehead_color_one_one_by_hand():
    # i=0: {0;a}^2/{1}!^2 ; i=1: -{1;a}{0;a}{-1;a} a^(1/2)
    i0 = BraceRatio(lp_mul(qsym(BRACE_A, 0), qsym(BRACE_A, 0)), {1: 2})
    i1num = lp_mul(qsym_falling(BRACE_A, 1, 2), qsym(BRACE_A, -1))
    i1 = BraceRatio(lp_neg(lp_mul(i1num, lp_mono(0, 1))))
    assert homfly_link("whitehead", (1, 1)) == i0.add(i1)


def test_whitehead_zero_color_reduces_to_unknot():
    for r in (1, 2, 3):
        assert homfly_link("whitehead", (r, 0)) == unknot(r)
        assert homfly_link("whitehead", (0, r)) == unknot(r)
    assert homfly_link("borromean", (2, 0, 0)) == unknot(2)


def test_component_symmetry():
    assert homfly_link("whitehead", (2, 3)) == homfly_link("whitehead", (3, 2))
    base = homfly_link("borromean", (1, 2, 3))
    for p in permutations((1, 2, 3)):
        assert homfly_link("borromean", p) == base


def test_framing_factor_values():
    assert framing_factor((2,), (1,)) == lp_mono(2, 0)          # (+1) q^1
    assert framing_factor((1, 2), (1, 1)) == lp_mono(2, 0, -1)  # (-1)^3 q^1
    assert framing_factor((3,), (-1,)) == lp_mono(-6, 0, -1)
    assert framing_factor((1, 1), (0, 0)) == lp_mono(0, 0)
    assert framing_factor((1,), (0,)) == lp_mono(0, 0)
    assert framing_factor((3,), (2,)) == lp_mono(12, 0)         # (+1) q^6: 3*2 is even
    with pytest.raises(ValueError, match="framings"):
        framing_factor((2, 3), (1,))  # zip would drop a component


def test_apply_framing_multiplies_by_the_factor():
    h = unknot(2)
    framed = apply_framing(h, (2,), (1,))
    assert framed.num == lp_mul(h.num, lp_mono(2, 0))
    assert framed.den == h.den
    # an odd sum of color times framing flips the sign
    h = unknot(1)
    framed = apply_framing(h, (1,), (1,))
    assert framed.num == lp_neg(h.num)
    assert framed.den == h.den


def test_unknot_recursion_holds():
    for tau in (-3, -1, 0, 2):
        assert check_unknot_recursion(tau, 6)


def test_unknot_recursion_needs_two_colors():
    for n_max in (0, 1):
        with pytest.raises(ValueError, match="n_max"):
            check_unknot_recursion(3, n_max)


def test_recursion_violated_is_raisable():
    with pytest.raises(RecursionViolated):
        raise RecursionViolated(3)


def test_whitehead_denominators_shrink_with_i():
    # the i-th summand divides by {r1-i}! {r2-i}! only: the total's
    # denominator never exceeds the i=0 one
    h = homfly_link("whitehead", (2, 2))
    top = brace_factorial_multiset(2) + brace_factorial_multiset(2)
    assert all(h.den[n] <= top[n] for n in h.den)
