import tempfile
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedbps import cli, closedforms
from framedbps.closedforms import (NonIntegerBPS, UnsupportedKnotKind,
                                   b_extremal_twist, b_unknot, c_unknot,
                                   gbinom, integrality_statistic, mobius_divisors,
                                   sign_pow)
from framedbps.curves import (DualAPoly, GammaSeries, bps_from_gamma, frame_transform,
                              lagrange_log_y, make_curve, newton_series_solve, normalize,
                              solve_w_series)
from framedbps.laurent import lp_one
from framedbps.links import check_unknot_recursion
from framedbps.ovengine import connected_F, connected_F_box
from framedbps.qsymbols import BraceRatio, braces


@given(st.integers(-20, 20))
def test_sign_pow_matches_the_power(e):
    assert sign_pow(e) == (-1) ** abs(e)


def mobius(n):
    """μ(n) from the walk: 0 unless n is one of its squarefree divisors."""
    return dict(mobius_divisors(n)).get(n, 0)


def test_mobius_small_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0,
                                                 1, -1, 0]
    assert mobius_divisors(1) == [(1, 1)]
    assert sorted(mobius_divisors(12)) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert sorted(mobius_divisors(30)) == [(1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (10, 1),
                                           (15, 1), (30, -1)]
    assert sorted(mobius_divisors(97)) == [(1, 1), (97, -1)]   # a prime left after trial division
    assert sorted(mobius_divisors(2 * 97)) == [(1, 1), (2, -1), (97, -1), (194, 1)]
    assert sorted(mobius_divisors(2 ** 10)) == [(1, 1), (2, -1)]
    assert sorted(mobius_divisors(49)) == [(1, 1), (7, -1)]    # a prime square, p * p == n


@given(st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=50)
def test_mobius_multiplicative_on_coprimes(a, b):
    if gcd(a, b) == 1:
        assert mobius(a * b) == mobius(a) * mobius(b)


def test_mobius_sum_over_divisors():
    for n in range(1, 501):
        assert sum(mu for _, mu in mobius_divisors(n)) == (1 if n == 1 else 0)


def test_divisors_sorted_and_complete():
    # every squarefree divisor once, signed (-1)^(number of its primes)
    primes = [p for p in range(2, 501) if all(p % k for k in range(2, p))]
    for n in range(1, 501):
        want = [(d, (-1) ** sum(d % p == 0 for p in primes)) for d in range(1, n + 1)
                if n % d == 0 and all(d % (p * p) for p in primes)]
        assert sorted(mobius_divisors(n)) == want, n


@given(st.integers(-12, 12), st.integers(0, 8))
def test_gbinom_pascal(n, k):
    assert gbinom(n, k + 1) == gbinom(n - 1, k) + gbinom(n - 1, k + 1)
    if n >= 0:
        assert gbinom(n, k) == comb(n, k)


def test_gbinom_negative_upper_index():
    # C(-1, k) = (-1)^k ; C(-2, k) = (-1)^k (k+1)
    assert [gbinom(-1, k) for k in range(5)] == [1, -1, 1, -1, 1]
    assert [gbinom(-2, k) for k in range(4)] == [1, -2, 3, -4]


def test_c_unknot_support():
    assert c_unknot(3, 2, 1) == 0      # parity
    assert c_unknot(2, 4, 1) == 0      # |m| > r
    assert c_unknot(1, 1, 0) == 1
    assert c_unknot(1, -1, 0) == -1
    # r=2, tau=1: c_{2,m} = (-1)^(2+2+h) C(2,h) gbinom(h+1, 1)
    assert c_unknot(2, 0, 1) == -4     # h=1: -(2)(2)
    assert c_unknot(2, 2, 1) == 3      # h=2: (1)(3)
    assert c_unknot(2, -2, 1) == 1     # h=0: (1)(1)


def test_b_unknot_spot_values():
    assert b_unknot(1, 1, 0) == 1
    assert b_unknot(1, -1, 0) == -1
    assert b_unknot(2, 0, 1) == -1
    assert b_unknot(2, 2, 1) == 1
    assert b_unknot(2, -2, 1) == 0
    # m and gcd(r, 0) = r handled
    assert b_unknot(4, 0, 0) == 0


def test_b_unknot_zero_framing_is_sparse():
    # tau = 0: only |m| = 1 survives at every r (c vanishes unless h in {0, r})
    for r in range(1, 9):
        nonzero = {m for m in range(-r, r + 1) if b_unknot(r, m, 0)}
        assert nonzero <= {-1, 1}


@given(st.integers(1, 12), st.integers(-4, 4))
@settings(max_examples=60)
def test_b_unknot_integrality_on_grid(r, tau):
    for m in range(-r, r + 1):
        assert isinstance(b_unknot(r, m, tau), int)


def test_extremal_unknot_equals_corner_values():
    # the extremal unknot formulas as written, each a Möbius-binomial sum over r^2:
    # b^+ = sum mu(r/d)(-1)^(d tau) C(d(tau+1)-1, d-1),
    # b^- = sum mu(r/d)(-1)^(d(tau+1)) C(d tau-1, d-1)
    for r in range(1, 9):
        for tau in range(-4, 5):
            ds = [(r // e, mu) for e, mu in mobius_divisors(r)]   # (d, mu(r/d))
            plus = sum(mu * (-1) ** abs(d * tau) * gbinom(d * (tau + 1) - 1, d - 1)
                       for d, mu in ds)
            minus = sum(mu * (-1) ** abs(d * (tau + 1)) * gbinom(d * tau - 1, d - 1)
                        for d, mu in ds)
            assert b_unknot(r, r, tau) == Fraction(plus, r * r)
            assert b_unknot(r, -r, tau) == Fraction(minus, r * r)


def test_extremal_statistic_identities():
    """The unknot corners b_{r,±r} are the one Möbius-binomial statistic at
    a shifted argument."""
    for r in range(1, 10):
        for tau in range(-3, 4):
            assert b_unknot(r, r, tau) == integrality_statistic(r, tau + 1)[0]
            assert b_unknot(r, -r, tau) == integrality_statistic(r, tau)[0]


def test_twist_rejects_degenerate_p():
    # the same error and message as make_curve gives for these p
    with pytest.raises(UnsupportedKnotKind, match="p=0 out of family"):
        b_extremal_twist(2, "+", 0, 0)
    with pytest.raises(UnsupportedKnotKind, match="p=1 out of family"):
        b_extremal_twist(2, "-", 1, 0)


def load_golden_without_metadata():
    """cli.load_golden over one golden file that has no metadata line."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "bare.csv").write_text("i2,j2,N\n0,0,1\n")
        return cli.load_golden(tmp)


# Library arguments that must raise ValueError, not an assert that -O strips.
BAD_ARGUMENTS = [
    (mobius_divisors, (0,)), (mobius_divisors, (-3,)), (gbinom, (4, -1)), (c_unknot, (0, 0, 1)),
    (b_unknot, (0, 0, 1)), (b_unknot, (-2, 0, 1)),
    (b_extremal_twist, (0, "-", 2, 0)), (b_extremal_twist, (2, "x", 2, 0)),
    (integrality_statistic, (0, 3)), (make_curve, ("unknot", "bogus", 0)),
    # a non-integer framing or twist parameter is refused, not truncated
    (make_curve, ("unknot", "full", 1.5)), (make_curve, (("twist", 2.5), "extremal_plus", 0)),
    (make_curve, (("twist", Fraction(-2)), "extremal_minus", 0)),
    (frame_transform, (make_curve("unknot", "full", 0), 1.5)),
    (b_extremal_twist, (3, "+", 2.5, 0)), (b_extremal_twist, (3, "-", -2, 0.5)),
    (connected_F, ("whitehead", (3,), (0, 0))),
    # the oracle, like connected_F, refuses a negative color
    (connected_F_box, ("whitehead", (3, -1), (0, 0))),
    (braces, (lp_one(), 3, -1)), (BraceRatio, (lp_one(), {0: 1})),
    (DualAPoly, ({(0, 0, 0): 1}, "bogus", "unknot", 0)),
    (load_golden_without_metadata, ())]


@pytest.mark.parametrize("fn, args", BAD_ARGUMENTS,
                         ids=[f"{fn.__name__}{args}" for fn, args in BAD_ARGUMENTS])
def test_bad_arguments_raise_value_error(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


UNKNOT = make_curve("unknot", "full", 1)
FLOAT_ARGUMENTS = {
    "b_unknot tau": (b_unknot, (2, 0, 1.5), "framing tau"),
    "b_unknot m": (b_unknot, (2, 0.5, 1), "m"),
    "c_unknot tau": (c_unknot, (1, 1, 0.5), "framing tau"),
    "integrality_statistic t": (integrality_statistic, (2, 1.5), "t"),
    # sizes too: a float r, n, order or n_max is not compared and used as one
    "b_extremal_twist r": (b_extremal_twist, (2.5, "+", 2, 0), "r"),
    # mobius_divisors replaces mobius and divisors: their float-n cases keep their labels
    "mobius n": (mobius_divisors, (2.5,), "n"), "divisors n": (mobius_divisors, (4.0,), "n"),
    "c_unknot r": (c_unknot, (2.5, 1, 0), "r"), "b_unknot r": (b_unknot, (2.5, 0, 1), "r"),
    "integrality_statistic r": (integrality_statistic, (2.5, 1), "r"),
    "normalize order": (normalize, (UNKNOT, 2.5), "order"),
    "lagrange_log_y order": (lagrange_log_y, (normalize(UNKNOT, 4), 2.5), "order"),
    "solve_w_series order": (solve_w_series, (UNKNOT, 2.5), "order"),
    "newton_series_solve order": (newton_series_solve, (UNKNOT, 2.5), "order"),
    "check_unknot_recursion n_max": (check_unknot_recursion, (0, 3.5), "n_max"),
    # and the symbol and binomial sizes: no float exponent key, no bare TypeError
    # (braces replaces qsym, qsym_falling and brace_factorial_multiset, whose
    # cases keep their labels: one symbol, a falling product, and {n}!)
    "qsym n": (braces, (lp_one(), 1.5, 1), "n"),
    "qsym_falling n": (braces, (lp_one(), 2.5, 1), "n"),
    "qsym_falling i": (braces, (lp_one(), 3, 1.5), "i"),
    "brace_factorial_multiset n": (braces, (lp_one(), 2.5, 2.5), "n"),
    "gbinom n": (gbinom, (4.5, 2), "n"), "gbinom k": (gbinom, (4, 1.5), "k")}


@pytest.mark.parametrize("fn, args, name", FLOAT_ARGUMENTS.values(), ids=FLOAT_ARGUMENTS)
def test_float_arguments_are_named(fn, args, name):
    # read through check_integer, not handed to math.comb as a float
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        fn(*args)


def test_integrality_statistic_returns_exact_fraction():
    v, ok = integrality_statistic(6, -5)
    assert isinstance(v, Fraction) and ok and v.denominator == 1
    for r in range(1, 16):
        for t in range(-6, 7):
            value, flag = integrality_statistic(r, t)
            assert flag and value.denominator == 1


def test_non_integer_bps_is_raisable(monkeypatch):
    # gamma_{2,0} = 1 alone gives b_{2,0} = 2/2^2, which is not an integer
    with pytest.raises(NonIntegerBPS) as exc:
        bps_from_gamma(GammaSeries({(2, 0): 1}, 2))
    assert exc.value.args == ((2, 0, Fraction(1, 2)),)
    # a sum of 1 where r^2 = 4 must divide it, in either closed form
    monkeypatch.setattr(closedforms, "c_unknot", lambda r, m, tau: 1)
    with pytest.raises(NonIntegerBPS) as exc:
        b_unknot(2, 1, 0)
    assert exc.value.args == (("unknot", 2, 1, 0, Fraction(1, 4)),)
    monkeypatch.setattr(closedforms, "_mobius_binomial", lambda r, t: 1)
    with pytest.raises(NonIntegerBPS) as exc:
        b_extremal_twist(2, "+", 2, 0)
    assert exc.value.args == (("twist", 2, "+", 2, 0, Fraction(1, 4)),)
