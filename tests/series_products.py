"""Truncated power series in x with Laurent-polynomial coefficients, by
plain products: the reference the library's series code is checked against."""

from framedbps.laurent import lp_add, lp_mono, lp_mul, lp_one


def series_mul(s1, s2):
    # s1 * s2 to the length of the shorter input
    out = [{} for _ in range(min(len(s1), len(s2)))]
    for i, c1 in enumerate(s1[:len(out)]):
        for j, c2 in enumerate(s2[:len(out) - i]):
            out[i + j] = lp_add(out[i + j], lp_mul(c1, c2))
    return out


def curve_at(curve, w):
    """A(x, w) mod x^len(w) from w alone, each coefficient of w keyed by its
    doubled a-exponent, every power of w by repeated series_mul: none of the
    powers a Newton lift keeps is read."""
    order = len(w)
    w = [{(0, da): c for da, c in p.items()} for p in w]
    powers = [[lp_one()] + [{}] * (order - 1)]
    for _ in range(max(yd // 2 for _, yd, _ in curve.source)):
        powers.append(series_mul(powers[-1], w))
    total = [{} for _ in range(order)]
    for (xd, yd, da), c in curve.source.items():
        for r in range(xd, order):
            total[r] = lp_add(total[r], lp_mul(lp_mono(0, da, c), powers[yd // 2][r - xd]))
    return total
