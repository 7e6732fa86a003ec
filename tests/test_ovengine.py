import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from framedbps import ovengine
from framedbps.closedforms import b_unknot
from framedbps.curves import (KIND_FULL, bps_from_gamma, lagrange_log_y, make_curve,
                              normalize)
from framedbps.laurent import lp_add, lp_one
from framedbps.links import LINKS, homfly_link, link_factor
from framedbps.ovengine import (NonIntegerInvariant, connected_F,
                                connected_F_box, ov_table, p_poly,
                                strong_integrality_check)
from framedbps.qsymbols import BRACE, BRACE_A, BraceRatio, InexactDivision, qsym


def q1(poly):
    """The a-coefficients of a p-polynomial at q = 1, zeros dropped."""
    out = {}
    for (_, da), c in poly.items():
        out[da] = out.get(da, 0) + c
    return {da: c for da, c in out.items() if c}


def bps(table):
    """A table's BPS list {2i: b_i}, b_i = sum_j N_{i,j}, zeros dropped."""
    return q1({(j2, i2): n for (i2, j2), n in table.entries.items()})


# --- connected invariants ---------------------------------------------------


def test_zero_or_negative_colors_raise():
    # connected_F, its oracle and ov_table refuse them
    for link, rvec, taus in [("unknot", (0,), (0,)), ("whitehead", (0, 0), (0, 0)),
                             ("whitehead", (2, -1), (1, 0)), ("whitehead", (-1, -1), (0, 0)),
                             ("borromean", (0, 0, 0), (0, 0, 0))]:
        for fn in (connected_F, connected_F_box):
            with pytest.raises(ValueError, match="color vector"):
                fn(link, rvec, taus)
    with pytest.raises(ValueError, match="color vector"):
        ov_table("whitehead", (0, 0), (0, 0))


def test_connected_and_p_poly_unknot_decomposition():
    # F_r = D_r / r with the integer identities D_1 = H_1 and
    # D_2 = 2 H_2 - H_1^2, and at k = 1 p_2 = {1} (D_2 - Psi_2(D_1)) / 2,
    # which vanishes for the 0-framed unknot
    h1, h2 = (homfly_link("unknot", (r,), (0,)) for r in (1, 2))
    (d1, c1), (d2, c2) = (connected_F("unknot", (r,), (0,)) for r in (1, 2))
    assert (c1, c2) == (1, 2)
    assert d1 == h1 and d2 == h2.scale(2).sub(h1.mul(h1))
    assert all(type(c) is int for c in [*d1.num.values(), *d2.num.values()])
    psi_2 = BraceRatio({(2 * dq, 2 * da): c for (dq, da), c in d1.num.items()}, {2: 1})
    moebius = d2.sub(psi_2)
    assert p_poly("unknot", (2,), (0,)) == moebius.mul_poly(qsym(BRACE, 1)).reduce() == {}


# Borromean (2,2,2) at (0,1,3): a term D_s W_{v-s} of D_v reaches below the
# lowest exponents of W_v, so framing D_v by W_v's own offsets would need a
# downward shift
NEGATIVE_OFFSET = ("borromean", (2, 2, 2), (0, 1, 3))


def engine_frame(monkeypatch, inputs, nodes, out):
    """The value `_packed` computes at `out`, and the frame it unpacks it on."""
    frames, real = [], ovengine._unpack
    monkeypatch.setattr(ovengine, "_unpack",
                        lambda n, frame, *rest: frames.append(frame) or real(n, frame, *rest))
    value = ovengine._packed(inputs, nodes, out)
    monkeypatch.setattr(ovengine, "_unpack", real)
    return value, frames[-1]


def test_connected_f_log_oracle(monkeypatch):
    # log(1 + W) on packed ints equals the log of the sum over H on every
    # nonzero vector of the color box: every framing pair in -3..3 up to
    # Whitehead (3,3); Borromean up to (2,2,2) at seven triples that put each
    # framing in each slot, and two more
    cases = [("whitehead", (3, 3), taus) for taus in product(range(-3, 4), repeat=2)]
    cases += [("borromean", (2, 2, 2), (t, (t + 5) % 7 - 3, (t + 3) % 7 - 3))
              for t in range(-3, 4)]
    cases += [("borromean", (2, 1, 1), (1, 0, -1)), NEGATIVE_OFFSET]
    for link, top, taus in cases:
        for v, f in connected_F_box(link, top, taus).items():
            assert connected_F(link, v, taus) == f, (link, v, taus)
    link, v, taus = NEGATIVE_OFFSET
    inputs, nodes, _ = ovengine._log_w_nodes(link, taus, v)
    _, w_frame = engine_frame(monkeypatch, inputs, nodes, ("W", v))
    _, d_frame = engine_frame(monkeypatch, inputs, nodes, ("D", v))
    assert d_frame[0] < w_frame[0]


def test_width_bound_holds(monkeypatch):
    # the norm bound of each D_v is at least its largest |coefficient|, and
    # the frame's box holds its support
    for link, taus, top in [("whitehead", (2, -3), 6), ("borromean", (1, -1, 2), 4)]:
        for v in product(range(1, top + 1), repeat=len(taus)):
            d, (lq, la, hq, ha, bound) = engine_frame(
                monkeypatch, *ovengine._log_w_nodes(link, taus, v))
            assert d == ovengine._log_w(link, taus, v), (link, v)
            assert max(map(abs, d.values())) <= bound, (link, v)
            assert all(lq <= dq <= hq and la <= da <= ha for dq, da in d), (link, v)


MIXED_PARITY_SCRIPT = """
from framedbps import ovengine
from framedbps.laurent import PackingError
real = ovengine.LINKS["whitehead"]


def mixed(i):
    core = dict(real.core(i))
    (dq, da), = list(core)[:1]
    core[(dq + 1, da)] = 1
    return core


ovengine.LINKS["whitehead"] = real._replace(core=mixed)
try:
    ovengine.connected_F("whitehead", (2, 2), (0, 0))
except PackingError as exc:
    print(type(exc).__name__, exc)
"""


def run_script(flags, script):
    """The standard output of `script` run in a fresh interpreter with `flags`."""
    env = dict(os.environ, PYTHONPATH=str(Path(ovengine.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_mixed_parity_core_raises(flags):
    out = run_script(flags, MIXED_PARITY_SCRIPT)
    assert out.startswith("PackingError exponents of mixed parity"), out


def clear_caches():
    for cache in (ovengine._unknot_D, ovengine._h, ovengine._framed, ovengine._log_w):
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """The coefficient caches of connected_F, emptied before and after."""
    clear_caches()
    yield
    clear_caches()


def test_connected_f_denominators_are_least():
    # {r} on an axis, none off it: each F was divided down to it exactly
    dens = {v: dict(connected_F("whitehead", v, (1, -1))[0].den)
            for v in product(range(4), range(3)) if any(v)}
    assert dens[(3, 0)] == {3: 1} and dens[(0, 2)] == {2: 1}
    assert all(not den for v, den in dens.items() if all(v))


def test_h_has_int_laurent_coefficients():
    # h_i = G_i / G_0 starts at x^i, and h_0 = 1
    for i, r, tau in product(range(7), range(9), range(-3, 4)):
        if r >= i:
            h = ovengine._h(i, r, tau)
            assert all(type(c) is int for c in h.values()), (i, r, tau)
            if i == 0:
                assert h == ({(0, 0): 1} if r == 0 else {})
            elif r == i:
                assert h


@lru_cache(maxsize=None)
def brace_ratio_h(i, r, tau):
    """h_{i,r} by the recurrence on `BraceRatio`s: every term raised to
    {r-i}! by `add`, then `reduce`d."""
    terms = [link_factor(i, r, tau)] + [
        homfly_link("unknot", (s,), (tau,)).mul_poly(brace_ratio_h(i, r - s, tau)).scale(-1)
        for s in range(1, r - i + 1)]
    return BraceRatio.sum(terms).reduce()


def test_h_matches_the_brace_ratio_recurrence():
    # the shift-subtract Horner sum over {r-i}! gives the same polynomial
    for i, r, tau in product(range(7), range(9), range(-3, 4)):
        if r >= i:
            assert ovengine._h(i, r, tau) == brace_ratio_h(i, r, tau), (i, r, tau)


WRONG_UNKNOT_H_SCRIPT = """
from framedbps import ovengine
from framedbps.qsymbols import InexactDivision

real = ovengine.homfly_link
ovengine.homfly_link = lambda link, r, tau: real(link, r, tau).scale(
    2 if (link, r, tau) == ("unknot", (2,), (0,)) else 1)
try:
    ovengine.ov_table("whitehead", (3, 3), (0, 0))
    print("no error")
except InexactDivision as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_wrong_unknot_h_leaves_h_inexact(flags):
    # a doubled H_2, the [x^2] G_0 that h_(1,3) reads, leaves a {1} that
    # _div_brace cannot divide, under -O too
    out = run_script(flags, WRONG_UNKNOT_H_SCRIPT)
    assert out.startswith("InexactDivision {1} does not divide"), out


def test_a_wrong_link_factor_leaves_h_inexact(monkeypatch, cold_caches):
    # a doubled [x^2] G_1 leaves the {1} of {2;a}/{1} in h_1 at x^2
    real = ovengine.link_factor

    def wrong(i, r, tau):
        return real(i, r, tau).scale(2) if (i, r) == (1, 2) else real(i, r, tau)
    monkeypatch.setattr(ovengine, "link_factor", wrong)
    with pytest.raises(InexactDivision, match="does not divide"):
        connected_F("whitehead", (2, 2), (0, 0))


@pytest.fixture
def wrong_log_w(monkeypatch):
    # D_(2,3) plus a unit term leaves 1/2 at a^0 q^0 once F = D / 2
    real = ovengine._log_w

    def wrong(link, taus, v):
        d = real(link, taus, v)
        return lp_add(d, lp_one()) if v == (2, 3) else d
    monkeypatch.setattr(ovengine, "_log_w", wrong)


def test_a_wrong_log_coefficient_is_not_integral(wrong_log_w):
    with pytest.raises(NonIntegerInvariant) as exc:
        ov_table("whitehead", (2, 3), (0, 1))
    assert exc.value.args == (0, 0, Fraction(1, 2))


def test_p_poly_itself_refuses_a_non_integral_coefficient(wrong_log_w):
    # p_poly returns ints only: the 1/2 is reported, not returned
    with pytest.raises(NonIntegerInvariant) as exc:
        p_poly("whitehead", (2, 3), (0, 1))
    assert exc.value.args == (0, 0, Fraction(1, 2))


def test_p_poly_reports_the_least_key_that_is_not_integral(monkeypatch):
    # unit terms at q^1 and then q^-1 leave 1/2 at both once F = D / 2; the
    # lesser key (-2, 0) is reported although (2, 0) comes first in the dict
    real = ovengine._log_w

    def wrong(link, taus, v):
        d = real(link, taus, v)
        return lp_add(d, {(2, 0): 1, (-2, 0): 1}) if v == (2, 3) else d
    monkeypatch.setattr(ovengine, "_log_w", wrong)
    with pytest.raises(NonIntegerInvariant) as exc:
        p_poly("whitehead", (2, 3), (0, 1))
    assert exc.value.args == (0, -1, Fraction(1, 2))


def test_a_wrong_unknot_d_is_not_integral(monkeypatch):
    # D_3 plus the unit value, numerator {3} over {3}, leaves {1}/3 in p_3
    # once divided by c = 3
    real = ovengine._unknot_D

    def wrong(r, tau):
        d = real(r, tau)
        return lp_add(d, qsym(BRACE, 3)) if (r, tau) == (3, 1) else d
    monkeypatch.setattr(ovengine, "_unknot_D", wrong)
    with pytest.raises(NonIntegerInvariant) as exc:
        ov_table("unknot", (3,), (1,))
    assert exc.value.args[2].denominator == 3


INNER_FAULT_SCRIPT = """
from framedbps import cli, ovengine

caches = [ovengine._unknot_D, ovengine._h, ovengine._framed, ovengine._log_w]


def doubled_at(real, at):
    def wrong(*args):
        value = real(*args)
        if args != at:
            return value
        return value.scale(2) if hasattr(value, "scale") else {k: 2 * c for k, c in value.items()}
    return wrong


for name, at in FAULTS:
    for cache in caches:
        cache.cache_clear()
    real = getattr(ovengine, name)
    setattr(ovengine, name, doubled_at(real, at))
    print("fault", name)
    print("exit", cli.main(["verify", "connected"]))
    setattr(ovengine, name, real)
"""

# one layer of connected_F doubled at one argument, a line of `verify
# connected` that it fails, and the number of cases it fails
INNER_FAULTS = [
    # h_{1,3} at framing 0, read by no larger h of the suite
    ("_h", (1, 3, 0), "whitehead colors<=(3, 3) framings=(0, 0): "
     "FAIL at [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]", 10),
    ("_log_w", ("whitehead", (1, -1), (2, 1)),
     "whitehead colors<=(3, 3) framings=(1, -1): FAIL at [(2, 1)]", 1),
    ("_unknot_D", (3, 1), "unknot colors<=(8,) framings=(1,): FAIL at [(3,)]", 11),
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_verify_connected_catches_a_wrong_inner_layer(flags):
    # the oracle reads H alone, so it disagrees with each fault, under -O too
    faults = [(name, at) for name, at, *_ in INNER_FAULTS]
    runs = run_script(flags, f"FAULTS = {faults!r}\n" + INNER_FAULT_SCRIPT).split("fault ")
    assert len(runs) == 4 and not runs[0], runs
    for run, (name, _, line, failures) in zip(runs[1:], INNER_FAULTS):
        lines = run.splitlines()
        assert lines[0] == name
        assert lines[-2:] == [f"connected: {failures} failures", "exit 1"], (name, lines[-2:])
        assert f"connected {line}" in lines, name
        assert sum(": FAIL at [" in x for x in lines) == failures, name


WRONG_UNKNOT_SCRIPT = """
from framedbps import ovengine
from framedbps.laurent import PackingError
from framedbps.qsymbols import InexactDivision

build = ovengine._unknot_nodes


def q_step_off(r, tau):
    # the k-th term of each y_n, rho_(n-1-k) a q^(tau k) y_k, read with q^((tau+1) k)
    inputs, nodes, out = build(r, tau)
    return inputs, [(key, [(c, (dq + 2 * k, da) if da else (dq, da), keys)
                           for k, (c, (dq, da), keys) in enumerate(terms)]
                     if key.startswith("y_") else terms, n) for key, terms, n in nodes], out


def s_off(r, tau):
    # s_tau read as s_(tau+1) = s_tau + t^tau: each M_n = L_n s_tau(q^n) gains q^(tau n) L_n
    inputs, nodes, out = build(r, tau)
    return inputs, [(key, terms + [(1, (2 * tau * int(key.split()[0][2:]), 0), ("L" + key[1:],))]
                     if key.startswith("M_") else terms, n) for key, terms, n in nodes], out


ovengine._unknot_nodes = {"q_step": q_step_off, "s": s_off}[FAULT]
for r in (2, 3, 4, 6, 8):
    for tau in (-3, -1, 0, 2, 3):
        try:
            ovengine.ov_table("unknot", (r,), (tau,))
            print("no error at", r, tau)
        except (InexactDivision, PackingError) as exc:
            print(type(exc).__name__)
"""


@pytest.mark.parametrize("fault", ["q_step", "s"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_wrong_unknot_equation_leaves_the_table_inexact(flags, fault):
    # a wrong coefficient of the q-difference equation gives a D whose
    # braces p_poly cannot clear, or an L_r that does not fit its frame
    out = run_script(flags, f"FAULT = {fault!r}\n" + WRONG_UNKNOT_SCRIPT).split("\n")
    assert len(out) == 26 and not out[-1], out
    assert set(out[:-1]) <= {"InexactDivision", "PackingError"}, out


WRONG_L_SCRIPT = """
from framedbps import ovengine
from framedbps.closedforms import MismatchDetected

build = ovengine._unknot_nodes


def l_off(r, tau):
    # each L_k y_(n-k) of L_n read times q^STEP
    inputs, nodes, out = build(r, tau)
    return inputs, [(key, [(c, (dq + 2 * STEP, da) if len(keys) == 2 else (dq, da), keys)
                           for c, (dq, da), keys in terms]
                     if key.startswith("L_") else terms, n) for key, terms, n in nodes], out


ovengine._unknot_nodes = l_off
try:
    ovengine._unknot_D(3, TAU)
except MismatchDetected as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("step, tau", [(1, 2), (-1, -2)], ids=["q", "q_inverse"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_rho_with_a_remainder_raises(flags, step, tau):
    # with L_1 = a - 1, 2 rho_2 has odd coefficients.  At tau = 2 it is
    # (1 + a^2)(1 + q + q^2 + q^3) mod 2, odd at its corner.  At tau = -2
    # its corner coefficient (q^-6) is 2 and its coefficients sum to 0, so
    # its packed int is even: only a check of each coefficient sees the 3
    # at q^-5
    out = run_script(flags, f"STEP, TAU = {step}, {tau}\n" + WRONG_L_SCRIPT)
    assert out.startswith(f"MismatchDetected 2 rho_2 of the unknot at framing {tau} "
                          "is not a multiple of 2"), out


@pytest.mark.parametrize("tau", range(-5, 6))
def test_unknot_equation_matches_the_partition_sum(tau):
    # beyond verify connected's reach (r <= 8, tau in -2..2); the two
    # routes share nothing.  The oracle's recurrence evaluates the same
    # logarithm the paper writes as a sum over partitions
    box = connected_F_box("unknot", (10,), (tau,))
    assert list(box) == [(r,) for r in range(1, 11)]
    for r in range(1, 11):
        assert connected_F("unknot", (r,), (tau,)) == box[r,], r


def fresh_F(link, rvec, framings):
    """connected_F computed from empty caches."""
    clear_caches()
    return connected_F(link, rvec, framings)


@pytest.mark.parametrize("first, second", [((2, 2), (3, 3)), ((4, 3), (3, 4))])
def test_cached_coefficients_extend_to_a_larger_box(cold_caches, first, second):
    shared = [connected_F("whitehead", first, (1, 0)),
              connected_F("whitehead", second, (1, 0))]
    boxes = [connected_F_box("whitehead", rvec, (1, 0)) for rvec in (first, second)]
    for rvec, f, box in zip((first, second), shared, boxes):
        assert f == fresh_F("whitehead", rvec, (1, 0)) == box[rvec]
    # a smaller top's box is the restriction of a larger top's
    big = connected_F_box("whitehead", (4, 4), (1, 0))
    for rvec, box in zip((first, second), boxes):
        assert box == {v: f for v, f in big.items() if all(a <= r for a, r in zip(v, rvec))}
    # a vector with a zero first color takes its own t and c: the framed
    # unknot of the second component, and zero on two of three components
    assert big[0, 2] == connected_F("unknot", (2,), (0,))
    assert big[0, 2][1] == 2
    tri = connected_F_box("borromean", (1, 2, 2), (1, -1, 0))
    assert tri[0, 1, 2] == (BraceRatio.zero(), 1) == connected_F("borromean", (0, 1, 2), (1, -1, 0))
    assert tri[0, 2, 1] == (BraceRatio.zero(), 2)


def test_framings_are_cached_apart(cold_caches):
    framings = [(1, 0), (-1, 2)]
    shared = [connected_F("whitehead", (2, 2), taus) for taus in framings]
    for taus, f in zip(framings, shared):
        assert (f == fresh_F("whitehead", (2, 2), taus)
                == connected_F_box("whitehead", (2, 2), taus)[2, 2])
    assert shared[0] != shared[1]


def test_zero_framings_match_a_fresh_run_and_the_oracle(cold_caches):
    zero = ("whitehead", (2, 3), (0, 0))
    f = connected_F(*zero)
    assert f == fresh_F(*zero) == connected_F_box(*zero)[2, 3]


def test_swapped_twin_agrees(cold_caches):
    # the twin is computed apart, in its own component order: the same F,
    # over the first color, 3 here and 4 in the twin
    d, c = connected_F("whitehead", (3, 4), (1, -2))
    twin = connected_F("whitehead", (4, 3), (-2, 1))
    assert (c, twin[1]) == (3, 4) and twin[0].scale(3) == d.scale(4)
    assert twin == connected_F_box("whitehead", (4, 3), (-2, 1))[4, 3]


def test_one_colored_component_reads_the_unknot(cold_caches):
    d, c = connected_F("unknot", (3,), (-1,))
    assert c == 3
    assert connected_F("whitehead", (0, 3), (2, -1))[0].num is d.num
    tri = ("borromean", (0, 3, 0), (1, -1, 0))
    assert connected_F(*tri)[0].num is d.num
    assert (d, c) == connected_F_box(*tri)[0, 3, 0]


def test_swapped_framings_are_computed_apart(cold_caches):
    a = connected_F("whitehead", (2, 3), (0, 1))
    b = connected_F("whitehead", (2, 3), (1, 0))
    assert a != b
    assert a == connected_F_box("whitehead", (2, 3), (0, 1))[2, 3]
    assert b == connected_F_box("whitehead", (2, 3), (1, 0))[2, 3]


@pytest.mark.parametrize("link", LINKS)
def test_every_named_link_has_a_sum(link):
    # the link table is the one list the command line offers, so a link
    # named there with no sum behind it would be offered and then fail
    n = LINKS[link].components
    assert ov_table(link, (1,) * n, (0,) * n).entries


def test_connected_f_rejects_twist():
    with pytest.raises(ValueError, match="unknown link 'twist'"):
        connected_F("twist", (1,), (0,))


@pytest.mark.parametrize("fn", [ov_table, p_poly, connected_F, connected_F_box],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("colors, framings, message", [
    ((2.7, 2), (0, 0), "whitehead colors must be integers"),
    ((2, 2), (0.9, 0), "whitehead framings must be integers"),
], ids=["float color", "float framing"])
def test_non_integer_color_or_framing_raises(fn, colors, framings, message):
    # neither is truncated to an int: 2.7 would read as 2, 0.9 as 0
    with pytest.raises(ValueError, match=message):
        fn("whitehead", colors, framings)


# --- p-polynomials and tables ----------------------------------------------


def test_p_of_single_unknot_is_brace_a():
    # p_1(U^0) = {1} H_1 = {0;a}
    assert p_poly("unknot", (1,), (0,)) == qsym(BRACE_A, 0)


def test_p_poly_k_dispatch():
    # k = 1 multiplies by {1}: p_1 has integer q-exponent parity shifts
    p1 = p_poly("unknot", (1,), (0,))
    assert set(p1) == {(0, 1), (0, -1)}
    # k = 2 leaves the reduced sum alone; (1,1) gives a 4-term a-polynomial at q=1
    p11 = p_poly("whitehead", (1, 1), (0, 0))
    assert q1(p11) == {4: -1, 2: 3, 0: -3, -2: 1}
    # k = 3 divides by {1} exactly
    p111 = p_poly("borromean", (1, 1, 1), (0, 0, 0))
    assert q1(p111) == {3: -1, 1: 3, -1: -3, -3: 1}


def test_p_poly_corrected_two_one_specialization():
    # colors (2,1), framing (0,0): a^(±5/2..) coefficients at q = 1
    p = p_poly("whitehead", (2, 1), (0, 0))
    assert q1(p) == {5: -1, 3: 2, -1: -2, -3: 1}


def test_ov_table_entries_and_epsilon():
    t = ov_table("whitehead", (2, 2), (0, 0))
    assert t.entry(8, 6) == 1
    assert t.entry(6, 6) == -2
    assert t.entry(0, 0) == 0          # inside the window but zero
    assert t.entry(40, 40) == 0        # outside
    assert t.epsilon == (0, 0)
    assert strong_integrality_check(t)
    (i_lo, i_hi), (j_lo, j_hi) = t.bounds()
    assert (i_hi, j_hi) == (8, 8) and (i_lo, j_lo) == (-4, -6)


def test_ov_table_borromean_entry():
    t = ov_table("borromean", (1, 1, 2), (0, 0, 0))
    assert t.entry(4, 1) == -1
    assert t.epsilon == (0, 1)
    assert strong_integrality_check(t)


def test_non_integer_invariant_payload():
    err = NonIntegerInvariant(Fraction(3, 2), Fraction(1, 2), Fraction(1, 3))
    assert err.args == (Fraction(3, 2), Fraction(1, 2), Fraction(1, 3))


# --- BPS lists --------------------------------------------------------------


def test_bps_list_row_sums():
    t = ov_table("whitehead", (1, 1), (0, 0))
    assert bps(t) == {4: -1, 2: 3, 0: -3, -2: 1}


def test_bps_list_framed():
    t = ov_table("whitehead", (1, 1), (1, 0))
    assert bps(t) == {4: 1, 2: -3, 0: 3, -2: -1}


def test_unknot_tables_match_the_closed_form_and_the_curve():
    # the plethystic, closed-form and curve pipelines on b_{r,m}, r <= 8
    for tau in range(-3, 4):
        nf = normalize(make_curve("unknot", KIND_FULL, tau), 8)
        curve = bps_from_gamma(lagrange_log_y(nf, 8))
        for r in range(1, 9):
            closed = {m: b for m in range(-r, r + 1) if (b := b_unknot(r, m, tau))}
            assert bps(ov_table("unknot", (r,), (tau,))) == closed, (r, tau)
            assert {m: b for (s, m), b in curve.items() if s == r} == closed, (r, tau)
