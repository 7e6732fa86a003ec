import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from framedbps import closedforms, curves, laurent
from framedbps.closedforms import (MismatchDetected, NonIntegerBPS,
                                   b_extremal_twist, b_unknot)
from framedbps.laurent import lp_mono, lp_one, series_inv
from framedbps.curves import (KIND_FULL, KIND_MINUS, KIND_PLUS, DualAPoly,
                              GammaSeries, NotNormalizable, SingularBranch,
                              UnsupportedKnotKind, bps_from_gamma,
                              frame_transform, lagrange_log_y,
                              make_curve, newton_series_solve, normalize,
                              solve_w_series)
from series_products import curve_at, series_mul

F = Fraction


def up_to_sign(c1, c2):
    if c1.source == c2.source:
        return True
    return c1.source == {k: -c for k, c in c2.source.items()}


def test_unknot_full_display():
    c = make_curve("unknot", KIND_FULL, 0)
    assert c.source == {(0, 2, 0): 1, (0, 0, 0): -1, (1, 2, 1): -1, (1, 0, -1): 1}
    c2 = make_curve("unknot", KIND_FULL, 2)
    assert c2.source == {(0, 2, 0): 1, (0, 0, 0): -1, (1, 6, 1): -1, (1, 4, -1): 1}


def test_extremal_unknot_displays():
    plus = make_curve("unknot", KIND_PLUS, 1)
    assert plus.source == {(0, 2, 0): -1, (0, 0, 0): 1, (1, 4, 0): -1}
    minus = make_curve("unknot", KIND_MINUS, 1)
    assert minus.source == {(0, 2, 0): -1, (0, 0, 0): 1, (1, 2, 0): 1}


def test_min_y_degree_always_zero():
    for tau in range(-4, 5):
        for kind in (KIND_FULL, KIND_PLUS, KIND_MINUS):
            c = make_curve("unknot", kind, tau)
            assert min(yd for _, yd, _ in c.source) == 0
        for p in (-2, 3):
            for kind in (KIND_PLUS, KIND_MINUS):
                c = make_curve(("twist", p), kind, tau)
                assert min(yd for _, yd, _ in c.source) == 0


def test_make_curve_rejections():
    with pytest.raises(UnsupportedKnotKind):
        make_curve(("twist", 2), KIND_FULL, 0)
    with pytest.raises(UnsupportedKnotKind):
        make_curve(("twist", 0), KIND_PLUS, 0)
    with pytest.raises(UnsupportedKnotKind):
        make_curve(("twist", 1), KIND_MINUS, 0)
    with pytest.raises(UnsupportedKnotKind):
        make_curve("granny", KIND_FULL, 0)


def test_frame_transform_matches_display_up_to_unit():
    # the displays written out: the unknot's carries the unit (-1)^tau, the
    # twist knot's none
    c0 = make_curve("unknot", KIND_FULL, 0)
    display = {(0, 8, 0): -1, (0, 6, 0): 1, (1, 2, 1): -1, (1, 0, -1): 1}
    assert make_curve("unknot", KIND_FULL, -3).source == display
    assert up_to_sign(frame_transform(c0, -3), make_curve("unknot", KIND_FULL, -3))
    twist = make_curve(("twist", -2), KIND_MINUS, 1)
    assert twist.source == {(1, 0, 0): -1, (0, 2, 0): -1, (0, 4, 0): 1}
    assert twist.framing == 1
    # and composition is exact, with framings accumulating
    c = frame_transform(frame_transform(c0, 2), -3)
    assert c.source == frame_transform(c0, -1).source
    assert c.framing == -1


def test_normal_form_unknot():
    # phi = (1 - lambda)^tau (1 - a(1 - lambda)): R = 1 - a + a lambda and E = tau,
    # the framing's sign (-1)^tau in the rescale
    for tau in range(-3, 4):
        nf = normalize(make_curve("unknot", KIND_FULL, tau), 6)
        assert (nf.sigma, nf.e) == ((-1) ** tau, -1)
        assert nf.rest == [{0: 1, 2: -1}, {2: 1}]
        assert nf.power == tau


def binom_any(e, j):
    # generalized C(e, j) = e(e-1)...(e-j+1)/j!, valid for negative e
    num = 1
    for t in range(j):
        num *= e - t
    return F(num, factorial(j))


def test_normal_form_powers_of_one_minus_lambda():
    # extremal curves collapse to phi = (1 - lambda)^E, E and sigma per family:
    # R = 1 and the whole of phi is the signed exponent E
    cases = [
        ("unknot", KIND_MINUS, 2, 2, 1),
        ("unknot", KIND_PLUS, 2, 3, -1),
        (("twist", -2), KIND_MINUS, 1, -1, -1),
        (("twist", -2), KIND_PLUS, 1, 6, 1),
        (("twist", 3), KIND_MINUS, 1, 3, -1),
        (("twist", 3), KIND_PLUS, 1, 9, -1),
    ]
    for knot, kind, tau, exponent, sigma in cases:
        nf = normalize(make_curve(knot, kind, tau), 8)
        assert nf.sigma == sigma, (knot, kind)
        assert nf.e == 0
        assert nf.power == exponent, (knot, kind)
        assert nf.rest == [{0: 1}], (knot, kind)


# every curve `make_curve` builds, at framing 0
FAMILIES = ([("unknot", kind) for kind in (KIND_FULL, KIND_PLUS, KIND_MINUS)]
            + [(("twist", p), kind) for p in (-4, -3, -2, -1, 2, 3, 4)
               for kind in (KIND_PLUS, KIND_MINUS)])


def test_framing_moves_only_the_exponent():
    # x -> (-1)^tau y^(2 tau) x multiplies phi by (1 - lambda)^tau: R and the
    # a-rescale stay, E = E_0 + tau
    for knot, kind in FAMILIES:
        nf0 = normalize(make_curve(knot, kind, 0), 4)
        for tau in range(-6, 7):
            nf = normalize(make_curve(knot, kind, tau), 4)
            assert nf.rest == nf0.rest, (knot, kind, tau)
            assert (nf.power, nf.e) == (nf0.power + tau, nf0.e), (knot, kind, tau)


def synthetic(source):
    return DualAPoly(source, KIND_FULL, "synthetic", 0)


def test_not_normalizable_shapes():
    good_x0 = {(0, 2, 0): 1, (0, 0, 0): -1}
    # an odd y-degree is refused by the constructor, before normalize sees it
    with pytest.raises(ValueError, match=r"\(1, 1, 0\) has an odd y-degree"):
        synthetic({**good_x0, (1, 1, 0): 1})
    with pytest.raises(NotNormalizable, match="a-dependent"):
        normalize(synthetic({(0, 2, 2): 1, (0, 0, 0): -1, (1, 0, 0): 1}), 4)
    with pytest.raises(NotNormalizable, match="exceeds 1"):
        normalize(synthetic({**good_x0, (2, 0, 0): 1}), 4)
    with pytest.raises(NotNormalizable, match="w-binomial"):
        normalize(synthetic({(0, 2, 0): 1, (1, 0, 0): 1}), 4)
    with pytest.raises(NotNormalizable, match="w-binomial"):
        normalize(synthetic({(0, 4, 0): 1, (0, 2, 0): 1, (0, 0, 0): -2,
                             (1, 0, 0): 1}), 4)
    with pytest.raises(NotNormalizable, match=r"cu\*"):
        normalize(synthetic({(0, 4, 0): 1, (0, 0, 0): -1, (1, 0, 0): 1}), 4)
    with pytest.raises(NotNormalizable, match="phi\\(0\\) = 0"):
        normalize(synthetic({**good_x0, (1, 2, 0): 1, (1, 0, 0): -1}), 4)
    with pytest.raises(NotNormalizable, match="leading unit"):
        normalize(synthetic({**good_x0, (1, 0, 0): 2}), 4)


def test_normalize_needs_x1_coefficients_divisible_by_the_unit():
    # x^0 part 2w - 2 (cu = 2), x^1 part 2x + a^(1/2) x: phi = 1 + a^(1/2)/2
    # has a coefficient 1/2, which normalize refuses instead of returning
    with pytest.raises(NotNormalizable, match="x\\^1 coefficient 1 is not a multiple "
                                              "of the unit 2"):
        normalize(synthetic({(0, 2, 0): 2, (0, 0, 0): -2, (1, 0, 0): 2, (1, 0, 1): 1}), 4)
    # with every x^1 coefficient a multiple of cu the unit divides out
    nf = normalize(synthetic({(0, 2, 0): -2, (0, 0, 0): 2, (1, 0, 0): -2, (1, 2, 1): 4}), 4)
    assert nf.rest == [{0: 1, 1: -2}, {1: 2}] and nf.power == 0
    assert (nf.sigma, nf.e) == (1, 0)


def test_odd_y_degree_never_reaches_newton():
    # y^3 - 1 + x: Newton would floor y^3 to w and solve the branch of w - 1 + x
    with pytest.raises(ValueError, match=r"\(0, 3, 0\) has an odd y-degree"):
        solve_w_series(DualAPoly({(0, 3, 0): 1, (0, 0, 0): -1, (1, 0, 0): 1},
                                 KIND_FULL, "unknot", 0), 5)


def test_curve_and_gamma_coefficients_are_exact():
    # a float is refused at the boundary, not stored as its binary expansion
    with pytest.raises(ValueError, match=r"curve coefficient of \(0, 0, 0\) must be an "
                                         r"integer, got -1\.0"):
        DualAPoly({(0, 2, 0): 1, (0, 0, 0): -1.0, (1, 0, 0): 1}, KIND_FULL, "unknot", 0)
    with pytest.raises(ValueError, match="curve coefficient of"):
        DualAPoly({(0, 2, 0): 1, (0, 0, 0): F(-1)}, KIND_FULL, "unknot", 0)
    with pytest.raises(ValueError, match=r"gamma coefficient at \(1, 1\) must be an int "
                                         r"or a Fraction, got 0\.5"):
        GammaSeries({(1, 1): 0.5}, 1)


def test_gamma_series_interface():
    g = GammaSeries({(1, 1): F(1, 2), (1, -1): F(-1, 2), (2, 0): F(0)}, 2)
    assert g.coefficients.get((1, 1), 0) == F(1, 2)
    assert g.coefficients.get((2, 0), 0) == 0 and (2, 0) not in g.coefficients
    assert g.coefficients.get((9, 9), 0) == 0


@pytest.mark.parametrize("coefficients, order, message", [
    ({(1, 1): 1}, 2.5, "order must be an integer, got 2.5"),
    ({(1, 1): 1}, 0, "order must be at least 1, got 0"),
    ({(3, 1): 1}, 2, r"gamma key \(3, 1\) needs r in 1\.\.2"),
    ({(0, 1): 1}, 2, r"gamma key \(0, 1\) needs r in 1\.\.2"),
    ({(-1, 2): 3}, 2, r"gamma key \(-1, 2\) needs r in 1\.\.2"),
], ids=["float order", "zero order", "r above order", "r zero", "r negative"])
def test_gamma_series_refuses_order_and_keys_out_of_range(coefficients, order, message):
    # bps_from_gamma trusts both: it would raise a bare TypeError or
    # ZeroDivisionError, or drop the coefficient
    with pytest.raises(ValueError, match=message):
        bps_from_gamma(GammaSeries(coefficients, order))


def test_gamma_small_values_unknot():
    nf = normalize(make_curve("unknot", KIND_FULL, 0), 3)
    g = lagrange_log_y(nf, 3)
    assert g.coefficients.get((1, 1), 0) == F(1, 2)
    assert g.coefficients.get((1, -1), 0) == F(-1, 2)
    # gamma_2 = (r=2) coefficients: a-support inside |m| <= 2
    assert set(m for r, m in g.coefficients if r == 2) <= {-2, 0, 2}


# curves whose normal forms have every exponent E = -4..9
EXPONENT_GRID = ([("unknot", KIND_FULL, tau) for tau in range(-4, 4)]
                 + [("unknot", kind, tau) for kind in (KIND_PLUS, KIND_MINUS)
                    for tau in (-3, 2)]
                 + [(("twist", p), kind, tau) for p in (-3, -1, 2, 3)
                    for kind in (KIND_PLUS, KIND_MINUS) for tau in (-2, 1)])


def test_lagrange_equals_newton():
    # the grid, and twist knots whose extremal_plus exponents reach 14
    exponents = set()
    for case in EXPONENT_GRID + [(("twist", p), kind, tau) for p in (-4, 4, 5)
                                 for kind in (KIND_PLUS, KIND_MINUS) for tau in (-2, 2)]:
        c = make_curve(*case)
        nf = normalize(c, 16)
        exponents.add(nf.power)
        gamma = lagrange_log_y(nf, 16)
        newton = newton_series_solve(c, 16)
        assert gamma == newton, case
        assert all(type(c) is type(newton.coefficients.get(key, 0))
                   for key, c in gamma.coefficients.items())
    assert exponents == set(range(-4, 13)) | {14}


MIXED_PARITY = {(0, 2, 0): 1, (0, 0, 0): -1, (1, 0, 0): 1, (1, 2, 1): 1}


def test_packed_lagrange_reads_a_mixed_parity_normal_form():
    # P = 1 + a^(1/2) - a^(1/2) lambda mixes a-parities: its rows pack a^(1/2) itself
    c = synthetic(MIXED_PARITY)
    nf = normalize(c, 12)
    assert {da % 2 for row in nf.rest for da in row} == {0, 1}
    gamma = lagrange_log_y(nf, 12)
    assert any(m % 2 for _, m in gamma.coefficients)
    assert gamma == newton_series_solve(c, 12)


@pytest.mark.parametrize("tau", [-1, -2, -3])
def test_packed_lagrange_at_pole_orders_one_to_three(tau):
    # phi = (1 - lambda)^tau R has a pole of order -tau at lambda = 1
    c = make_curve("unknot", KIND_FULL, tau)
    nf = normalize(c, 24)
    assert nf.power == tau and nf.rest == [{0: 1, 2: -1}, {2: 1}]
    assert lagrange_log_y(nf, 24) == newton_series_solve(c, 24)


@pytest.mark.parametrize("tau", [0, -1, -2])
def test_packed_lagrange_on_a_one_row_p(tau):
    # R = 1, a single row with no lambda-degree; the exponent alone drives the sums
    c = make_curve("unknot", KIND_MINUS, tau)
    nf = normalize(c, 60)
    assert nf.rest == [{0: 1}] and nf.power == tau
    gamma = lagrange_log_y(nf, 60)
    assert gamma == newton_series_solve(c, 60)
    b = bps_from_gamma(gamma)
    assert [b.get((r, 0), 0) for r in range(1, 61)] == [b_unknot(r, -r, tau)
                                                          for r in range(1, 61)]


NARROW_WIDTH_SCRIPT = """
from framedbps import curves
from framedbps.laurent import PackingError
real = curves._width
curves._width = lambda frame, step=2: (real(frame, step)[0], 8)
for knot, kind, tau, order in [("unknot", "full", 2, 20), (("twist", 3), "extremal_plus", 2, 30)]:
    try:
        curves.lagrange_log_y(curves.normalize(curves.make_curve(knot, kind, tau), order), order)
    except PackingError as exc:
        print(type(exc).__name__, exc)
    else:
        print("no error")
"""


def run_script(script, flags):
    env = dict(os.environ, PYTHONPATH=str(Path(curves.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_packed_lagrange_refuses_a_width_below_its_bound(flags):
    # 8-bit digits cannot hold the coefficients of the unknot at order 20 or of a
    # twist knot at E = 8 and order 30, whose R = 1; the check is no assert
    out = run_script(NARROW_WIDTH_SCRIPT, flags)
    assert len(out) == 2, out
    assert all(line.startswith("PackingError width 8 cannot hold the bound") for line in out), out


GUARD_DIGIT_SCRIPT = """
from framedbps import curves
from framedbps.laurent import PackingError
real = curves._rows_times
for kind, tau, carry in [("extremal_minus", 0, 1), ("extremal_minus", 0, -1), ("full", 2, 1)]:
    def rows_times(rows, terms, b, top, calls=[]):
        real(rows, terms, b, top)
        calls.append(top)
        if len(calls) == 3:   # row 0 of R^3 gains one unit at the guard digit of n = 3
            rows[0] += carry << b * (3 * (len(terms) > 1) + 1)
    curves._rows_times = rows_times
    try:
        curves.lagrange_log_y(curves.normalize(curves.make_curve("unknot", kind, tau), 10), 10)
    except PackingError as exc:
        print(type(exc).__name__, exc)
    else:
        print("no error")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_packed_lagrange_refuses_a_sum_carrying_into_its_guard_digit(flags):
    # the sums share one int, each followed by a zero guard digit: a carry into it,
    # up or down, would shift every later n unless checked, and the check is no assert
    out = run_script(GUARD_DIGIT_SCRIPT, flags)
    assert len(out) == 3, out
    assert all(line.startswith("PackingError the Lagrange sum at n = 3 reaches past")
               for line in out), out


def test_packed_lagrange_decodes_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(curves, "_unpack", lambda *args: calls.append(args[3])
                        or laurent._unpack(*args))
    cases = [("unknot", KIND_FULL, 5, 40), ("unknot", KIND_MINUS, -2, 30),
             (("twist", 3), KIND_PLUS, 2, 30), (("twist", -2), KIND_MINUS, -1, 1)]
    for knot, kind, tau, order in cases:
        lagrange_log_y(normalize(make_curve(knot, kind, tau), order), order)
    # one decode each, of every n's a-span and its guard digit
    assert calls == [sum(n + 2 for n in range(1, 41)), 60, 60, 2]


def test_bps_from_gamma_reads_its_own_mobius(monkeypatch):
    # a fault in closedforms.mobius cannot reach both sides of `bps --source both`
    gammas = [lagrange_log_y(normalize(make_curve(knot, kind, tau), 30), 30)
              for knot, kind, tau in [("unknot", KIND_FULL, -2), (("twist", 3), KIND_PLUS, 1)]]
    want = [list(bps_from_gamma(g).items()) for g in gammas]
    real = closedforms.mobius

    def wrong(n):
        return -real(n) if n == 6 else real(n)

    monkeypatch.setattr(closedforms, "mobius", wrong)
    monkeypatch.setattr(curves, "mobius", wrong, raising=False)   # a binding imported by name
    assert closedforms.mobius(6) != real(6)
    assert [list(bps_from_gamma(g).items()) for g in gammas] == want


def phi_series(curve, order):
    """phi = (sigma a^(-e/2)) * sum (c/cu) a^(da/2) (1 - lambda)^(wdeg - J) as a
    series, expanded term by term with generalized binomials."""
    x0 = {yd // 2: c for (xd, yd, _), c in curve.source.items() if xd == 0}
    j, cu = min(x0), x0[max(x0)]
    nf = normalize(curve, order)
    coeffs = [{} for _ in range(order)]
    for (xd, yd, da), c in curve.source.items():
        if xd == 1:
            for i in range(order):
                v = coeffs[i].get((0, da - nf.e), 0) + (
                    nf.sigma * F(c, cu) * binom_any(yd // 2 - j, i) * (-1) ** i)
                coeffs[i][(0, da - nf.e)] = v
    return [{k: v for k, v in c.items() if v} for c in coeffs]


def padded(coeffs, order):
    return (coeffs + [{}] * order)[:order]


def test_normal_form_is_phi():
    # R * (1 - lambda)^E, a power expanded by products for E >= 0 and by series
    # inversion for E < 0, is phi itself
    order = 12
    one_minus = padded([lp_one(), lp_mono(0, 0, -1)], order)
    for case in EXPONENT_GRID:
        c = make_curve(*case)
        nf = normalize(c, order)
        power = padded([lp_one()], order)
        for _ in range(abs(nf.power)):
            power = series_mul(power, one_minus)
        rows = [{(0, da): c for da, c in row.items()} for row in nf.rest]
        expanded = series_mul(padded(rows, order),
                              power if nf.power >= 0 else series_inv(power))
        assert expanded == phi_series(c, order), case


def test_newton_residual_is_exactly_zero():
    # the lift checks each step against its own kept powers; here A(x, w) is
    # rebuilt from w alone
    cases = [make_curve("unknot", kind, tau) for kind in (KIND_FULL, KIND_PLUS, KIND_MINUS)
             for tau in range(-5, 6)]
    cases += [make_curve(("twist", p), kind, tau) for p in (-3, -2, -1, 2, 3)
              for kind in (KIND_PLUS, KIND_MINUS) for tau in range(-2, 3)]
    cases.append(DualAPoly(X2_CURVE, KIND_FULL, "unknot", 0))
    for c in cases:
        w, _ = solve_w_series(c, 13)
        assert len(w) == 13 and curve_at(c, w) == [{}] * 13, c


def test_nonzero_newton_residual_raises(monkeypatch):
    # a zero inverse slope leaves w = 1, which does not solve the curve
    monkeypatch.setattr(curves, "series_inv", lambda s: [{}] * len(s))
    with pytest.raises(MismatchDetected, match="Newton residual"):
        solve_w_series(make_curve("unknot", KIND_FULL, 1), 4)


def test_newton_inverts_the_unit_slope_once(monkeypatch):
    # the lift needs only s^-1 for s = dA/dw(0, 1), a one-term series
    lengths = []
    monkeypatch.setattr(curves, "series_inv", lambda s: lengths.append(len(s)) or series_inv(s))
    for tau in (-3, 2):
        newton_series_solve(make_curve("unknot", KIND_FULL, tau), 20)
    assert lengths == [1, 1]


def test_newton_term_products_stay_under_their_ceilings(monkeypatch):
    # each product coefficient once, and only the powers of w the curve has
    # (w^5 and w^6 at tau = 5, not w^2 through w^6); a dense pair (low, cs)
    # holds len(cs) coefficients
    count = [0]
    dense_sum, addmul = curves._dense_sum, laurent._addmul

    def counting_dense_sum(terms, *rest):
        terms = list(terms)
        count[0] += sum(len(p[1]) * len(q[1]) for _, p, q in terms if p and q)
        return dense_sum(terms, *rest)

    def counting_addmul(acc, p, q, *scale):
        count[0] += len(p) * len(q)
        return addmul(acc, p, q, *scale)

    monkeypatch.setattr(curves, "_dense_sum", counting_dense_sum)
    monkeypatch.setattr(laurent, "_addmul", counting_addmul)
    for tau, order, ceiling in ((2, 20, 28_000), (5, 30, 150_000), (-5, 30, 150_000),
                                (3, 12, 5_500), (-3, 12, 5_500)):
        count[0] = 0
        newton_series_solve(make_curve("unknot", KIND_FULL, tau), order)
        assert 0 < count[0] <= ceiling, (tau, order, count[0])


# products of two operands, neither of them 1, in the lift on dicts keyed by
# the doubled a-exponent (len(p)·len(q) per product), at order 21
DICT_LIFT_PRODUCTS = {("unknot", KIND_FULL, 2): 23_429, ("unknot", KIND_FULL, -3): 31_392,
                      ("unknot", KIND_PLUS, 3): 420, ("unknot", KIND_MINUS, -4): 589,
                      (("twist", -3), KIND_PLUS, 1): 420, (("twist", 3), KIND_PLUS, 2): 420,
                      (("twist", -2), KIND_MINUS, -3): 514, (("twist", 2), KIND_MINUS, 1): 344}


def test_newton_stride_follows_the_curves_a_parity(monkeypatch):
    # every make_curve curve has its a-parity affine in the x-degree, so the
    # lift runs at stride 2, with no more inner products than on dicts;
    # X2_CURVE mixes parities in x^1 and runs at stride 1.  w and D come back
    # as dicts without zero values
    strides, count = set(), [0]
    dense_sum = curves._dense_sum

    def recording(terms, stride, *plus):
        strides.add(stride)
        count[0] += sum(len(p[1]) * len(q[1]) for _, p, q in terms
                        if p and q and [0, 1] not in ([p[0], *p[1]], [q[0], *q[1]]))
        return dense_sum(terms, stride, *plus)

    monkeypatch.setattr(curves, "_dense_sum", recording)
    for case, dict_products in DICT_LIFT_PRODUCTS.items():
        strides.clear()
        count[0] = 0
        w, dlog = solve_w_series(make_curve(*case), 21)
        assert strides == {2} and 0 < count[0] <= dict_products, (case, count[0])
        assert all(0 not in p.values() for p in w + dlog), case
    strides.clear()
    w, dlog = solve_w_series(DualAPoly(X2_CURVE, KIND_FULL, "unknot", 0), 15)
    assert strides == {1}
    assert w == [{low + i: c for i, c in enumerate(cs) if c} for low, cs in X2_W]
    assert dlog[1:] == [{low + i: d for i, d in enumerate(ds) if d} for low, ds in X2_D]
    assert all(0 not in p.values() for p in w + dlog)


def test_newton_order_one_checks_the_residual_at_x0():
    assert solve_w_series(make_curve("unknot", KIND_FULL, 2), 1) == ([{0: 1}], [{}])
    # w + 1 + x is 2 at w = 1, x = 0
    c = synthetic({(0, 2, 0): 1, (0, 0, 0): 1, (1, 0, 0): 1})
    with pytest.raises(MismatchDetected, match="Newton residual"):
        solve_w_series(c, 1)


NEWTON_FAULT_SCRIPT = """
from framedbps import curves
from framedbps.closedforms import MismatchDetected
from framedbps.laurent import lp_add, lp_one, series_inv

# a wrong step (every scale k of the lift's kernel off by one, the step's -1
# among them), a wrong unit inverse, and D off by one on the framing-5 curve,
# whose w^5 and w^6 come from x·(w^j)′ = j·w^j·D: D_r = r·w_r + E_r becomes
# (r+1)·w_r + E_r (the -1s and the scales by j = 0, 1, 5, 6 stay untouched).
# A kernel call scales its products (k, p, q) and its addends (k, p) alike
kernel = curves._dense_sum
scaled = lambda k_of: lambda terms, stride, plus=(): kernel(
    [(k_of(k), p, q) for k, p, q in terms], stride, [(k_of(k), p) for k, p in plus])
for name, fault, tau in (
        ("_dense_sum", scaled(lambda k: k + 1), 2),
        ("series_inv", lambda s: [lp_add(series_inv(s)[0], lp_one())], 2),
        ("_dense_sum", scaled(lambda k: k if k in (-1, 0, 1, 5, 6) else k + 1), 5)):
    setattr(curves, name, fault)
    try:
        curves.solve_w_series(curves.make_curve("unknot", "full", tau), 21)
    except MismatchDetected as exc:
        print(exc)
    else:
        print("no error")
    setattr(curves, name, {"_dense_sum": kernel, "series_inv": series_inv}[name])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_newton_faults_raise(flags):
    assert run_script(NEWTON_FAULT_SCRIPT, flags) == [
        "Newton residual of DualAPoly(knot='unknot', kind='full', framing=2, 4 terms) "
        "is nonzero at x^1",
        "Newton residual of DualAPoly(knot='unknot', kind='full', framing=2, 4 terms) "
        "is nonzero at x^1",
        "x·(w^5)′ = 5·w^5·D for DualAPoly(knot='unknot', kind='full', framing=5, "
        "4 terms) is not exact at x^3"]


SOLVED_AROUND_SCRIPT = """
from framedbps import curves
from framedbps.closedforms import MismatchDetected

kernel = curves._dense_sum
# each product (k, p, q) of a kernel call rescaled by term_k(k, p) and each
# addend (k, p) by plus_k(k); a dense pair (low, (c,)) holds one term
faulty = lambda term_k, plus_k=lambda k: k: lambda terms, stride, plus=(): kernel(
    [(term_k(k, p), p, q) for k, p, q in terms], stride, [(plus_k(k), p) for k, p in plus])
step_doubled = faulty(lambda k, p: 2 * k if k == -1 and p and len(p[1]) == 1 else k)
pair_sum_off = faulty(lambda k, p: 3 if k == 2 else k)
d_off = faulty(lambda k, p: k, lambda k: k + 1 if k > 2 else k)
# each stored w_r doubled: w_r is the product s^-1·R_r (s^-1 one term) scaled by
# -2 instead of -1.  Then faults every step solves around, on curves that keep
# w^2 at most, so that no kept power reads D: the w^2 pair sum with 3·w_i·w_(r-i)
# for 2·w_i·w_(r-i), and D_r = (r+1)·w_r + E_r for r >= 3 (the addend 2·w_r of
# w^2 stays untouched)
for fault, knot, kind, tau in ((step_doubled, "unknot", "full", 2),
                               (pair_sum_off, "unknot", "full", 1),
                               (d_off, "unknot", "full", 1),
                               (d_off, ("twist", 2), "extremal_minus", 0)):
    curves._dense_sum = fault
    try:
        curves.solve_w_series(curves.make_curve(knot, kind, tau), 21)
    except MismatchDetected as exc:
        print(exc)
    else:
        print("no error")
    curves._dense_sum = kernel
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_newton_faults_solved_around_fail_the_end_residual(flags):
    # the stored w_r is the step the per-step residual checks; the other
    # faults pass every step and are caught only at the end, where A(x, w)
    # and x·w′ - w·D are rebuilt from w and D alone at a^(1/2) = _T mod _P
    at = "at a^(1/2) = 1414213562373095048 mod 2^61 - 1"
    assert run_script(SOLVED_AROUND_SCRIPT, flags) == [
        "Newton residual of DualAPoly(knot='unknot', kind='full', framing=2, 4 terms) "
        "is nonzero at x^1",
        f"A(x, w) of DualAPoly(knot='unknot', kind='full', framing=1, 4 terms) is nonzero {at}",
        f"x·w′ ≠ w·D for DualAPoly(knot='unknot', kind='full', framing=1, 4 terms) {at}",
        f"x·w′ ≠ w·D for DualAPoly(knot=('twist', 2), kind='extremal_minus', framing=0, "
        f"3 terms) {at}"]


@pytest.mark.parametrize("solver, order", [
    ("normalize", 0), ("lagrange_log_y", 0), ("lagrange_log_y", 6),
    ("solve_w_series", 0), ("newton_series_solve", 0)])
def test_bad_order_raises_value_error(solver, order):
    # lagrange_log_y reads a normal form made here for order 3
    curve = make_curve("unknot", KIND_FULL, 1)
    arg = normalize(curve, 3) if solver == "lagrange_log_y" else curve
    with pytest.raises(ValueError, match="order"):
        getattr(curves, solver)(arg, order)


def test_singular_branch_detected():
    # (w - 1)^2 + x: derivative vanishes along the solved branch start
    c = synthetic({(0, 4, 0): 1, (0, 2, 0): -2, (0, 0, 0): 1, (1, 0, 0): 1})
    with pytest.raises(SingularBranch):
        solve_w_series(c, 4)


@pytest.mark.parametrize("x0", [
    {(0, 2, 0): 2, (0, 0, 0): -2},                                   # slope 2
    {(0, 2, 0): 1, (0, 2, 2): 1, (0, 0, 0): -1, (0, 0, 2): -1}],     # slope 1 + a
    ids=["non_unit", "two_terms"])
def test_singular_branch_needs_a_unit_monomial_slope(x0):
    # x^0 parts 2(w - 1) and (1 + a)(w - 1) vanish at w = 1, but their slopes
    # at w = 1 have no inverse among the Laurent polynomials
    with pytest.raises(SingularBranch):
        solve_w_series(synthetic({**x0, (1, 0, 0): 1}), 4)


# w at order 15 on a curve with x^2 terms and no w^4 (w^5 from
# x·(w^5)′ = 5·w^5·D), which `normalize` refuses, as the quadratic Newton
# lifting computed it: (lowest doubled a-exponent, coefficients upward), all
# q-free
X2_CURVE = {(0, 4, 0): 1, (0, 2, 0): -1, (1, 6, 1): 1, (2, 10, 0): -1, (2, 0, -1): 1,
            (1, 0, 0): 2}
X2_W = [
    (0, [1]),
    (0, [-2, -1]),
    (-1, [-1, -3, 2, 2]),
    (-1, [-4, -21, -6, -6, -5]),
    (-2, [-1, -27, -72, 29, 28, 20, 14]),
    (-2, [-12, -156, -482, -173, -200, -128, -70, -42]),
    (-3, [-2, -119, -1147, -2754, -273, 682, 973, 555, 252, 132]),
    (-3, [-40, -1121, -8076, -18702, -7062, -3632, -4182, -4494, -2338, -924, -429]),
    (-4, [-5, -560, -10090, -61021, -125274, -37180, 14743, 24550, 23184, 20186, 9688, 3432,
          1430]),
    (-4, [-140, -6725, -89524, -456852, -876402, -355268, -88710, -126924, -149850, -120540,
          -89046, -39744, -12870, -4862]),
    (-5, [-14, -2520, -74100, -780108, -3505627, -6266207, -2565806, 44670, 588151, 849532,
          844683, 599736, 387805, 162006, 48620, 16796]),
    (-5, [-504, -36971, -772688, -6752388, -27019044, -45646304, -21133406, -3825689,
          -3012977, -4449816, -5203932, -4510672, -2890884, -1672814, -657580, -184756,
          -58786]),
    (-6, [-42, -11087, -481068, -7760343, -58014299, -210763476, -339142042, -165235584,
          -19796848, 13154720, 24361134, 30047904, 29951325, 23162958, 13607968, 7162142,
          2661384, 705432, 208012]),
    (-6, [-1848, -192192, -5783400, -75825311, -496676240, -1654776168, -2550589502,
          -1325291814, -251915786, -73240720, -124404620, -176730170, -187767924,
          -164588600, -115474800, -62889827, -30482088, -10749440, -2704156, -742900]),
    (-7, [-132, -48041, -2884476, -65736944, -725821100, -4237878432, -13089737141,
          -19450144310, -10585129749, -2034664588, 162465920, 620746726, 974528346,
          1177243650, 1108067532, 872702402, 562494966, 286439894, 129098578, 43354675,
          10400600, 2674440]),
]


# D = x·w′/w = 2γ on the same curve through x^14, rows by r as for X2_W, as
# the pass D_r = r·w_r - Σ_{k=1}^{r-1} D_k·w_{r-k} over a finished w computed
# it; no Lagrange run checks this D
X2_D = [
    (0, [-2, -1]),
    (-1, [-2, -10, 0, 3]),
    (-1, [-18, -92, -27, -6, -10]),
    (-2, [-6, -168, -562, -36, 84, 32, 35]),
    (-2, [-100, -1405, -4362, -1440, -580, -420, -150, -126]),
    (-3, [-20, -1260, -12330, -31954, -9096, 1965, 3270, 2040, 672, 462]),
    (-3, [-490, -14140, -105385, -250280, -101682, -20384, -15820, -17248, -9597, -2940,
          -1716]),
    (-4, [-70, -8064, -148488, -911744, -1953570, -799008, 11108, 117920, 99708, 87024, 44072,
          12672, 6435]),
    (-4, [-2268, -110943, -1498572, -7811334, -15524102, -7254198, -1107720, -644805, -781074,
          -579096, -425976, -198792, -54054, -24310]),
    (-5, [-252, -46190, -1376020, -14680705, -67055450, -124391400, -60964440, -6438220,
          3237550, 4684260, 4765040, 3178620, 2038770, 884520, 228800, 92378]),
    (-5, [-10164, -754996, -15945160, -140919570, -573992562, -1005402004, -529380511,
          -93308600, -21926190, -27628216, -31181172, -27432768, -16739910, -9588040,
          -3893890, -962676, -352716]),
    (-6, [-924, -247032, -10820880, -176111292, -1330994094, -4915739520, -8192389726,
          -4519904496, -812392572, 54765648, 166742493, 200380896, 193775538, 151255440,
          85423140, 44456984, 16996056, 4031040, 1352078]),
    (-6, [-44616, -4683042, -142009504, -1876806620, -12420163392, -42079632595, -67156254882,
          -38805407654, -8408873616, -1012886992, -917732816, -1286947662, -1338887940,
          -1143385815, -806471380, -425243104, -203734232, -73667256, -16812796, -5200300]),
    (-7, [-3432, -1260868, -76250272, -1749257762, -19457657352, -114763632921, -360357692198,
          -553864882980, -332188675224, -77952808066, -4024293672, 4878038004, 7597143708,
          9096524010, 8414697676, 6478554082, 4186115472, 2075034507, 924493388, 317444400,
          69892032, 20058300]),
]


def test_newton_golden_where_lagrange_cannot_go():
    curve = DualAPoly(X2_CURVE, KIND_FULL, "unknot", 0)
    with pytest.raises(NotNormalizable):
        normalize(curve, 15)
    w, _ = solve_w_series(curve, 15)
    assert w == [{low + i: c for i, c in enumerate(cs)} for low, cs in X2_W]
    assert newton_series_solve(curve, 14) == GammaSeries(
        {(r, low + i): F(d, 2) for r, (low, ds) in enumerate(X2_D, 1)
         for i, d in enumerate(ds)}, 14)


def test_bps_from_gamma_matches_closed_forms():
    tau = 2
    c = make_curve("unknot", KIND_FULL, tau)
    b = bps_from_gamma(newton_series_solve(c, 6))
    for r in range(1, 7):
        for m in range(-r, r + 1):
            assert b.get((r, m), 0) == b_unknot(r, m, tau)


def test_bps_extremal_corner_match():
    for tau in (-1, 0, 2):
        for kind, sgn in ((KIND_PLUS, "+"), (KIND_MINUS, "-")):
            c = make_curve("unknot", kind, tau)
            b = bps_from_gamma(lagrange_log_y(normalize(c, 7), 7))
            for r in range(1, 8):
                assert b.get((r, 0), 0) == b_unknot(r, r if sgn == "+" else -r, tau)
    c = make_curve(("twist", -1), KIND_MINUS, 0)
    b = bps_from_gamma(lagrange_log_y(normalize(c, 6), 6))
    for r in range(1, 7):
        assert b.get((r, 0), 0) == b_extremal_twist(r, "-", -1, 0)


def test_twist_extremal_curve_matches_closed_form_at_roster_size():
    # up to r = 30, the size of the benchmark's twist `bps` jobs (criterion 4 stops at 8),
    # at exponents E = -6..13
    for p in (-4, -3, -2, -1, 2, 3, 4):
        for tau in range(-3, 4):
            for kind, sgn in ((KIND_MINUS, "-"), (KIND_PLUS, "+")):
                b = bps_from_gamma(lagrange_log_y(
                    normalize(make_curve(("twist", p), kind, tau), 30), 30))
                got = [b.get((r, 0), 0) for r in range(1, 31)]
                want = [b_extremal_twist(r, sgn, p, tau) for r in range(1, 31)]
                assert got == want, (p, tau, sgn)


def test_bps_from_gamma_integrality_guard():
    bad = GammaSeries({(1, 0): F(1, 2), (2, 0): F(1)}, 2)
    with pytest.raises(NonIntegerBPS):
        bps_from_gamma(bad)
