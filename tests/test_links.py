import os
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from framedbps import links
from framedbps.laurent import lp_mono, lp_mul, lp_neg, lp_one
from framedbps.links import (RecursionViolated, check_link, check_unknot_recursion,
                             homfly_link, link_factor)
from framedbps.qsymbols import BraceRatio


def brace_a(n):
    """{n;a} = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2), written out by hand."""
    return {(n, 1): 1, (-n, -1): -1}


def unknot(r):
    return homfly_link("unknot", (r,), (0,))


def test_spec_validation():
    # check_link returns int tuples and refuses a malformed framed link
    colors, framings = check_link("whitehead", [2, 3], (0, -1))
    assert (colors, framings) == ((2, 3), (0, -1))
    assert all(type(x) is int for x in colors + framings)
    for args, message in [(("hopf", (1,), (0,)), "unknown link 'hopf'"),
                          (("twist", (3,), (1,)), "unknown link 'twist'"),
                          (("whitehead", (1, 1), (0,)),
                           r"^whitehead needs 2 framings, got \(0,\)$"),
                          (("unknot", (2, 1), (0,)), "unknot needs 1 colors"),
                          (("borromean", (1, -1, 2), (0, 0, 0)),
                           r"color vector \(1, -1, 2\) must be nonnegative"),
                          (("unknot", (2.7,), (0,)), "unknot colors must be integers"),
                          (("whitehead", (2, 2), (0.9, 0)),
                           "whitehead framings must be integers"),
                          (("unknot", (2,), None), "unknot framings must be integers")]:
        with pytest.raises(ValueError, match=message):
            check_link(*args)
    with pytest.raises(ValueError, match="unknown link 'twist'"):
        homfly_link("twist", (1,), (0,))
    # the invariant takes its vectors through the same check
    for colors in [(1,), (2.5, 1)]:
        with pytest.raises(ValueError, match="whitehead"):
            homfly_link("whitehead", colors, (0, 0))
    with pytest.raises(ValueError, match="unknot framings must be integers"):
        homfly_link("unknot", (2,), (0.5,))
    with pytest.raises(ValueError, match="framings"):
        homfly_link("whitehead", (2, 3), (1,))  # zip would drop a component
    # lists are accepted and give the cached tuple's value
    assert homfly_link("whitehead", [2, 1], [1, -1]) == homfly_link("whitehead", (2, 1), (1, -1))


def test_unknot_small_colors():
    assert unknot(0) == BraceRatio(lp_one())
    # H_1 = {0;a}/{1}
    assert unknot(1) == BraceRatio(brace_a(0), {1: 1})
    # H_2 = {1;a}{0;a}/{1}{2}
    assert unknot(2) == BraceRatio(
        lp_mul(brace_a(1), brace_a(0)), {1: 1, 2: 1})


def test_whitehead_color_one_one_by_hand():
    # i=0: {0;a}^2/{1}!^2 ; i=1: -{1;a}{0;a}{-1;a} a^(1/2)
    i0 = BraceRatio(lp_mul(brace_a(0), brace_a(0)), {1: 2})
    i1num = lp_mul(lp_mul(brace_a(1), brace_a(0)), brace_a(-1))
    i1 = BraceRatio(lp_neg(lp_mul(i1num, lp_mono(0, 1))))
    assert homfly_link("whitehead", (1, 1), (0, 0)) == i0.add(i1)


def test_whitehead_zero_color_reduces_to_unknot():
    for r in (1, 2, 3):
        assert homfly_link("whitehead", (r, 0), (0, 0)) == unknot(r)
        assert homfly_link("whitehead", (0, r), (0, 0)) == unknot(r)
    assert homfly_link("borromean", (2, 0, 0), (0, 0, 0)) == unknot(2)


def test_component_symmetry():
    assert homfly_link("whitehead", (2, 3), (0, 0)) == homfly_link("whitehead", (3, 2), (0, 0))
    base = homfly_link("borromean", (1, 2, 3), (0, 0, 0))
    for p in permutations((1, 2, 3)):
        assert homfly_link("borromean", p, (0, 0, 0)) == base


def test_link_factor_framing_sign_and_power():
    # link_factor(i, r, tau) is the 0-framed factor times (-1)^(r tau) q^(tau r(r-1)/2)
    for (i, r, tau), mono in [((0, 2, 1), lp_mono(2, 0)),         # (+1) q^1
                              ((1, 1, 1), lp_mono(0, 0, -1)),     # (-1)^1 q^0
                              ((1, 2, 1), lp_mono(2, 0)),
                              ((0, 3, -1), lp_mono(-6, 0, -1)),
                              ((2, 3, -1), lp_mono(-6, 0, -1)),
                              ((0, 1, 0), lp_mono(0, 0)),
                              ((1, 3, 2), lp_mono(12, 0)),        # (+1) q^6: 3*2 is even
                              ((0, 3, -3), lp_mono(-18, 0, -1))]:
        zero = link_factor(i, r, 0)
        framed = link_factor(i, r, tau)
        assert framed.num == lp_mul(zero.num, mono), (i, r, tau)
        assert framed.den == zero.den


def test_homfly_link_frames_each_component():
    # H at (r_t, tau_t) is the 0-framed H times the product of the monomials
    h = unknot(2)
    framed = homfly_link("unknot", (2,), (1,))
    assert framed.num == lp_mul(h.num, lp_mono(2, 0))
    assert framed.den == h.den
    # an odd sum of color times framing flips the sign
    h = unknot(1)
    framed = homfly_link("unknot", (1,), (1,))
    assert framed.num == lp_neg(h.num)
    assert framed.den == h.den
    # (-1)^3 q^1 from (1, 2) at (1, 1): the components' monomials multiply
    h = homfly_link("whitehead", (1, 2), (0, 0))
    framed = homfly_link("whitehead", (1, 2), (1, 1))
    assert framed == h.mul(BraceRatio(lp_mono(2, 0, -1)))


def test_unknot_recursion_holds():
    for tau in (-3, -1, 0, 2):
        assert check_unknot_recursion(tau, 6)


def test_unknot_recursion_needs_two_colors():
    for n_max in (0, 1):
        with pytest.raises(ValueError, match="n_max"):
            check_unknot_recursion(3, n_max)


RECURSION_FAULT_SCRIPT = """
from framedbps import qsymbols

# {n;a} with a^(1/2) and a^(-1/2) swapped: the a-shift of the one brace
# primitive flipped before links builds anything
real = qsymbols._mul_brace
qsymbols._mul_brace = lambda num, n, da=0: real(num, n, -da)

from framedbps import cli
from framedbps.links import RecursionViolated, check_unknot_recursion

for tau in (-5, 0, 3):
    try:
        check_unknot_recursion(tau, 12)
    except RecursionViolated as exc:
        print(f"tau={tau}: RecursionViolated{exc.args}")
    else:
        print(f"tau={tau}: holds")
print(f"verify tables exit {cli.main(['verify', 'tables'])}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_recursion_is_checked_apart_from_the_brace_primitive(flags):
    # check_unknot_recursion writes its step polynomials out by hand, so a
    # fault in the primitive that builds H cannot cancel out of both sides
    env = dict(os.environ, PYTHONPATH=str(Path(links.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", RECURSION_FAULT_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[:3] == [f"tau={tau}: RecursionViolated(1,)" for tau in (-5, 0, 3)]
    assert out[-2:] == ["0/14 tables pass", "verify tables exit 1"]


def test_recursion_violated_is_raisable(monkeypatch):
    # H doubled at color 3 breaks the step from n = 2 to n = 3, and no earlier one
    real = links.homfly_link
    monkeypatch.setattr(links, "homfly_link", lambda link, colors, framings: real(
        link, colors, framings).scale(2 if colors == (3,) else 1))
    with pytest.raises(RecursionViolated) as exc:
        check_unknot_recursion(0, 5)
    assert exc.value.args == (2,)


def test_whitehead_denominators_shrink_with_i():
    # the i-th summand divides by {r1-i}! {r2-i}! only: the total's
    # denominator never exceeds the i=0 one
    h = homfly_link("whitehead", (2, 2), (0, 0))
    top = Counter({1: 2, 2: 2})  # {2}! {2}!
    assert all(h.den[n] <= top[n] for n in h.den)
