"""Coefficient types of the exact kernel: brace-ratio numerators, p-polynomials
and Newton series hold only ints, and the one rational the curve pipeline
builds, γ = D/2, is a Fraction only when it is not integral."""

from fractions import Fraction

from framedbps import ovengine
from framedbps.curves import (KIND_FULL, KIND_PLUS, lagrange_log_y, make_curve,
                              newton_series_solve, normalize, solve_w_series)
from framedbps.laurent import lp_mono, series_inv
from framedbps.links import homfly_link
from framedbps.ovengine import connected_F, connected_F_box, p_poly


def coefficients(*polys):
    return [c for p in polys for c in p.values()]


def test_ratio_numerators_hold_only_ints(monkeypatch):
    totals = []
    div_brace = ovengine._div_brace
    monkeypatch.setattr(ovengine, "_div_brace",
                        lambda num, n: totals.append(num) or div_brace(num, n))
    p_poly("whitehead", (2, 4), (1, -1))
    p_poly("borromean", (1, 2, 2), (0, 1, -1))
    p_poly("unknot", (6,), (2,))
    # the one rational, 1/c, is applied after the brace divisions, so every
    # numerator p_poly (or an h it reads) divides by a brace is integral
    assert totals
    ratios = [homfly_link("whitehead", (2, 3), (0, 0)),
              homfly_link("borromean", (1, 2, 2), (0, 0, 0)),
              homfly_link("unknot", (5,), (0,)),
              connected_F("whitehead", (2, 3), (1, -1))[0],
              connected_F("borromean", (1, 1, 2), (0, 1, -1))[0],
              connected_F("unknot", (6,), (2,))[0],
              *(d for d, _ in connected_F_box("whitehead", (2, 3), (1, -1)).values())]
    assert {type(c) for c in coefficients(*totals, *(r.num for r in ratios))} == {int}


def test_coefficients_are_ints_or_non_integral_fractions():
    curve = make_curve("unknot", KIND_FULL, 2)
    twist = make_curve(("twist", -2), KIND_PLUS, 1)
    polys = [p_poly("whitehead", (2, 2), (1, -1)),
             p_poly("borromean", (1, 1, 2), (0, 1, -1)),
             p_poly("unknot", (4,), (-1,)),
             curve.source, twist.source]
    polys += [p for c in (curve, twist) for series in solve_w_series(c, 9) for p in series]
    polys += series_inv([lp_mono(2, 0, -1), lp_mono(0, 1, 3), {}, {}, {}, {}])
    polys += [c for nf in (normalize(curve, 8), normalize(twist, 8)) for c in nf.rest]
    # every kernel value is an int
    assert {type(v) for v in coefficients(*polys)} == {int}
    # gamma alone holds Fractions, each of them not integral
    gammas = []
    for c in (curve, twist):
        gammas += coefficients(lagrange_log_y(normalize(c, 8), 8).coefficients,
                               newton_series_solve(c, 8).coefficients)
    assert any(type(v) is Fraction for v in gammas)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in gammas)
