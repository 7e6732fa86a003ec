"""Acceptance gate: the package's six numbered exactness contracts.

Each criterion is one test that collects every mismatch on its full grid,
prints a single [PASS]/[FAIL] line (visible under -s or on failure), and
asserts emptiness — tolerances are exact everywhere, so there is nothing
to loosen.
"""

import time
from fractions import Fraction
from itertools import permutations, product

from framedbps.cli import load_golden
from framedbps.closedforms import (MismatchDetected, b_extremal_twist,
                                   b_unknot, integrality_statistic, sign_pow)
from framedbps.curves import (KIND_FULL, KIND_MINUS, KIND_PLUS, bps_from_gamma,
                              lagrange_log_y, make_curve, newton_series_solve,
                              normalize, solve_w_series)
from framedbps.links import check_unknot_recursion, homfly_link
from framedbps.ovengine import (connected_F, connected_F_box, ov_table,
                                p_poly, strong_integrality_check)
from series_products import curve_at

F = Fraction

WHITEHEAD_TAUS = [(t1, t2) for t1 in range(-2, 3) for t2 in range(-2, 3)]
BORROMEAN_TAUS = list(product((-1, 0, 1), repeat=3))


def gate(name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = f"  ({len(failures)} mismatches, first: {failures[0]})" if failures else ""
    print(f"[{status}] {name}{detail}")
    assert not failures, f"{name}: first mismatches {failures[:5]}"


# --- 1: golden integer tables ----------------------------------------------


def test_criterion_1_golden_tables():
    started = time.monotonic()
    failures = []
    golden = load_golden()
    assert len(golden) == 14
    for name, meta, want in golden:
        table = ov_table(meta["link"], meta["colors"], meta["framings"])
        if table.entries != want:
            failures.append(name)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"golden tables took {elapsed:.1f}s"
    gate(f"criterion 1: 14 golden tables reproduced exactly ({elapsed:.2f}s)",
         failures)


# --- 2: framing-dependent displays at q = 1 ---------------------------------


def q1_of(link, rvec, taus):
    out = {}
    for (_, da), c in p_poly(link, rvec, framings=taus).items():
        out[da] = out.get(da, 0) + c
    return {da: c for da, c in out.items() if c}


def drop_zeros(d):
    return {k: F(v) for k, v in d.items() if v}


def display_p11(t1, t2):
    s = sign_pow(t1 + t2)
    return drop_zeros({4: -s, 2: 3 * s, 0: -3 * s, -2: s})


def display_p20(t1, t2):
    return drop_zeros({2: F(1 - sign_pow(t1) + 2 * t1, 4),
                       0: -t1,
                       -2: F(-1 + sign_pow(t1) + 2 * t1, 4)})


def display_p21(t1, t2):
    s2 = sign_pow(t2)
    return drop_zeros({5: -s2 * (1 + t1), 3: s2 * (4 * t1 + 2), 1: -6 * t1 * s2,
                       -1: s2 * (4 * t1 - 2), -3: -s2 * (t1 - 1)})


def display_p22(t1, t2):
    s = sign_pow(t1 + t2)
    return drop_zeros({
        8: F(1 + s, 2),
        6: -(t1 * t2 + t1 + t2 + 4),
        4: 5 * t1 * t2 + 3 * t1 + 3 * t2 + F(17 - 3 * s, 2),
        2: -(2 * t1 + 2 * t2 + 10 * t1 * t2 + 8),
        0: -2 * t1 - 2 * t2 + 10 * t1 * t2 + F(11 + 3 * s, 2),
        -2: 3 * t1 + 3 * t2 - 5 * t1 * t2 - 4,
        -4: t1 * t2 - t1 - t2 + F(3 - s, 2),
    })


def display_p111(t1, t2, t3):
    s = sign_pow(t1 + t2 + t3)
    return drop_zeros({3: -s, 1: 3 * s, -1: -3 * s, -3: s})


def display_p211(t1, t2, t3):
    s = sign_pow(t2 + t3)
    return drop_zeros({4: -s * (1 + t1), 2: s * (4 * t1 + 2), 0: -6 * t1 * s,
                       -2: s * (4 * t1 - 2), -4: s * (1 - t1)})


def test_criterion_2_framing_displays():
    failures = []
    whitehead_cases = [((1, 1), display_p11), ((2, 0), display_p20),
                       ((2, 1), display_p21), ((2, 2), display_p22)]
    for taus in WHITEHEAD_TAUS:
        for rvec, display in whitehead_cases:
            got = q1_of("whitehead", rvec, taus)
            want = display(*taus)
            if got != want:
                failures.append((rvec, taus, got, want))
    borromean_cases = [((1, 1, 1), display_p111), ((2, 1, 1), display_p211)]
    for taus in BORROMEAN_TAUS:
        for rvec, display in borromean_cases:
            got = q1_of("borromean", rvec, taus)
            want = display(*taus)
            if got != want:
                failures.append((rvec, taus, got, want))
    gate("criterion 2: q=1 displays for p_(1,1), p_(2,0), p_(2,1), p_(2,2), "
         "p_(1,1,1), p_(2,1,1) over their framing grids", failures)


# --- 3: dual-pipeline unknot agreement --------------------------------------


def test_criterion_3_unknot_dual_pipeline():
    failures = []
    for tau in range(-3, 4):
        curve = make_curve("unknot", KIND_FULL, tau)
        via_lagrange = bps_from_gamma(lagrange_log_y(normalize(curve, 8), 8))
        via_newton = bps_from_gamma(newton_series_solve(curve, 8))
        closed = {}
        for r in range(1, 9):
            for m in range(-r, r + 1):
                b = b_unknot(r, m, tau)
                if b:
                    closed[(r, m)] = b
        if via_lagrange != closed:
            failures.append(("lagrange", tau))
        if via_newton != closed:
            failures.append(("newton", tau))
    gate("criterion 3: unknot b_{r,m} for r<=8, |m|<=r, |tau|<=3 — "
         "Lagrange = Newton = closed form", failures)


# --- 4: extremal identities --------------------------------------------------


def test_criterion_4_extremal_identities():
    failures = []
    for tau in range(-4, 5):
        for kind, sgn, shift in ((KIND_PLUS, "+", 1), (KIND_MINUS, "-", 0)):
            curve = make_curve("unknot", kind, tau)
            series = bps_from_gamma(lagrange_log_y(normalize(curve, 10), 10))
            for r in range(1, 11):
                corner = b_unknot(r, r if sgn == "+" else -r, tau)
                if corner != integrality_statistic(r, tau + shift)[0]:
                    failures.append(("unknot statistic", sgn, r, tau))
                if corner != series.get((r, 0), 0):
                    failures.append(("unknot curve", sgn, r, tau))
    for p in (-3, -2, -1, 2, 3):
        for tau in range(-2, 3):
            for kind, sgn in ((KIND_MINUS, "-"), (KIND_PLUS, "+")):
                curve = make_curve(("twist", p), kind, tau)
                series = bps_from_gamma(lagrange_log_y(normalize(curve, 8), 8))
                newton = bps_from_gamma(newton_series_solve(curve, 8))
                if series != newton:
                    failures.append(("twist solver split", p, tau, sgn))
                    continue
                for r in range(1, 9):
                    closed = b_extremal_twist(r, sgn, p, tau)
                    if series.get((r, 0), 0) != closed:
                        failures.append(("twist", p, tau, sgn, r))
    gate("criterion 4: unknot corners b_{r,±r} = statistic = extremal curve "
         "(r<=10, |tau|<=4) and twist curve-vs-closed agreement (p in {-3,-2,-1,2,3}, |tau|<=2, r<=8)",
         failures)


# --- 5: integrality ----------------------------------------------------------


def test_criterion_5_integrality():
    failures = []
    for r in range(1, 31):
        for t in range(-10, 11):
            value, ok = integrality_statistic(r, t)
            if not ok:
                failures.append(("statistic", r, t, value))
    tables = [("whitehead", rvec, taus)
              for rvec in ((2, 2), (2, 3)) for taus in ((0, 0), (0, 1), (1, 0), (1, 1))]
    tables += [("borromean", rvec, taus)
               for rvec in ((1, 1, 2), (1, 2, 2), (2, 2, 2))
               for taus in ((0, 0, 0), (1, 1, 1))]
    tables += [("whitehead", (2, 1), taus) for taus in ((-2, 2), (1, -1))]
    tables += [("borromean", (2, 1, 1), (1, 0, -1))]
    for link, rvec, taus in tables:
        table = ov_table(link, rvec, taus)   # raises if any N non-integral
        if not strong_integrality_check(table):
            failures.append(("parity", link, rvec, taus))
        # every N an int, so every BPS number, a row sum of N, is one too
        if not all(type(n) is int for n in table.entries.values()):
            failures.append(("bps", link, rvec, taus))
    for tau in range(-3, 4):
        for r in range(1, 9):
            for m in range(-r, r + 1):
                if not isinstance(b_unknot(r, m, tau), int):
                    failures.append(("b_unknot", r, m, tau))
    gate("criterion 5: N-table/BPS integrality, parity pairs, and the "
         "Möbius-binomial statistic on 1<=r<=30, -10<=t<=10", failures)


# --- 6: structural properties ------------------------------------------------


def test_criterion_6_structural_properties():
    failures = []
    for tau in range(-5, 6):
        try:
            check_unknot_recursion(tau, 13)
        except Exception as exc:
            failures.append(("recursion", tau, exc))

    # every nonzero vector of each box, from one oracle call per box
    oracle_cases = [("whitehead", (2, 2), taus) for taus in WHITEHEAD_TAUS]
    oracle_cases += [("borromean", (2, 1, 1), taus) for taus in BORROMEAN_TAUS]
    oracle_cases += [("whitehead", (2, 3), taus)
                     for taus in ((0, 0), (0, 1), (1, 0), (1, 1))]
    oracle_cases += [("borromean", (1, 2, 2), ((0, 0, 0))),
                     ("borromean", (1, 1, 2), (1, 1, 1))]
    for link, top, taus in oracle_cases:
        for rvec, f in connected_F_box(link, top, taus).items():
            if connected_F(link, rvec, taus) != f:
                failures.append(("oracle", link, rvec, taus))

    for taus in ((0, 1), (1, 0), (2, -1), (0, 0)):
        a = ov_table("whitehead", (2, 2), taus)
        b = ov_table("whitehead", (2, 2), taus[::-1])
        if a.entries != b.entries:
            failures.append(("swap", taus))
    golden = {name: entries for name, _, entries in load_golden()}
    if not (golden["w22_f01"] == golden["w22_f10"]
            == ov_table("whitehead", (2, 2), (0, 1)).entries):
        failures.append(("golden swap pair",))
    # the tables above test the symmetry of connected_F, which computes a
    # twin apart and reads no H but the unknot's; H is checked in the given order
    for link, top, taus in (("whitehead", (2, 3), (1, -2)),
                            ("borromean", (2, 1, 2), (1, 0, -1))):
        for colors in product(*(range(r + 1) for r in top)):
            if not any(colors):
                continue
            h = homfly_link(link, colors, taus)
            for perm in permutations(range(len(top))):
                pc, pt = (tuple(x[t] for t in perm) for x in (colors, taus))
                if homfly_link(link, pc, pt) != h:
                    failures.append(("H swap", link, colors, taus, perm))
            axis = [t for t, r in enumerate(colors) if r]
            if len(axis) == 1 and h != homfly_link(
                    "unknot", (colors[axis[0]],), (taus[axis[0]],)):
                failures.append(("H axis", link, colors, taus))

    residual_curves = [make_curve("unknot", KIND_FULL, tau) for tau in (-2, 0, 3)]
    residual_curves += [make_curve("unknot", KIND_PLUS, 1),
                        make_curve("unknot", KIND_MINUS, -1),
                        make_curve(("twist", -2), KIND_PLUS, -1),
                        make_curve(("twist", 3), KIND_MINUS, 2)]
    for curve in residual_curves:
        try:
            w, _ = solve_w_series(curve, 13)
        except MismatchDetected as exc:
            failures.append(("residual", curve.knot, curve.kind, curve.framing, exc))
            continue
        if curve_at(curve, w) != [{}] * 13:
            failures.append(("residual", curve.knot, curve.kind, curve.framing))

    gate("criterion 6: unknot recursion (|tau|<=5, n<=12), connected F "
         "from log(1 + W) equal to the box recurrence over H on all computed cases, "
         "color/framing swap symmetry of tables and of H, and curve residual 0 "
         "through order 12",
         failures)
