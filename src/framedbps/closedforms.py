"""Arithmetic closed forms for framed unknot and twist-knot BPS invariants.

Everything here is elementary integer arithmetic: the Möbius function,
a binomial extended to negative upper index, the c/b coefficient
formulas for the framed unknot, the extremal-b formulas for twist
knots, and the one-parameter Möbius-binomial statistic that all of the
extremal formulas specialize to.

Sign conventions: (-1)^e is always computed from the parity of e, so
negative exponents (framings are allowed to be negative) are safe.
"""

from fractions import Fraction
from math import comb, gcd


class NonIntegerBPS(Exception):
    """An r^2-division that should always come out exact failed."""


class MismatchDetected(Exception):
    """Two computations of a value that must agree do not: a cross-check failed."""


class UnsupportedKnotKind(Exception):
    """No invariant or curve of the requested knot, kind or parameter exists here."""


class UnsupportedP(Exception):
    """Twist-knot parameter outside the two supported families."""


def _positive(name, n):
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def _sign(sign):
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def sign_pow(e):
    """(-1)**e by parity of e (e may be negative)."""
    return -1 if e % 2 else 1


def mobius(n):
    """Möbius function by trial factorization."""
    _positive("n", n)
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n):
    """Positive divisors of n, ascending."""
    _positive("n", n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def gbinom(n, k):
    """Binomial C(n, k) extended to negative n by (-1)^k C(-n+k-1, k)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if n < 0:
        return sign_pow(k) * comb(-n + k - 1, k)
    return comb(n, k)


def c_unknot(r, m, tau):
    """Pre-Möbius coefficient c_{r,m}(tau) of the framed unknot.

    Nonzero only when r + m is even and |m| <= r, where it equals

        (-1)^(r tau + r + (r+m)/2) C(r, (r+m)/2) gbinom(r tau + (r+m)/2 - 1, r - 1).
    """
    _positive("r", r)
    if (r + m) % 2 or abs(m) > r:
        return 0
    h = (r + m) // 2
    return sign_pow(r * tau + r + h) * comb(r, h) * gbinom(r * tau + h - 1, r - 1)


def b_unknot(r, m, tau):
    """BPS invariant b_{r,m}(U^tau) = (1/r^2) sum_{d | gcd(r,m)} mu(d) c_{r/d, m/d}(tau).

    gcd(r, 0) = r.  The division is expected to be exact every time; if it
    ever is not, this raises NonIntegerBPS rather than returning a Fraction.
    """
    _positive("r", r)
    total = 0
    for d in divisors(gcd(r, m)):
        mu = mobius(d)
        if mu:
            total += mu * c_unknot(r // d, m // d, tau)
    if total % (r * r):
        raise NonIntegerBPS(("unknot", r, m, tau, Fraction(total, r * r)))
    return total // (r * r)


def b_extremal_unknot(r, sign, tau):
    """Extremal BPS invariant b_r^±(U^tau) by its own Möbius-binomial sum.

    b^+ sums mu(r/d)(-1)^(d tau) C(d(tau+1)-1, d-1); b^- sums
    mu(r/d)(-1)^(d(tau+1)) gbinom(d tau - 1, d-1).  Both divided by r^2.
    """
    _positive("r", r)
    _sign(sign)
    total = 0
    for d in divisors(r):
        mu = mobius(r // d)
        if not mu:
            continue
        if sign == "+":
            total += mu * sign_pow(d * tau) * gbinom(d * (tau + 1) - 1, d - 1)
        else:
            total += mu * sign_pow(d * (tau + 1)) * gbinom(d * tau - 1, d - 1)
    if total % (r * r):
        raise NonIntegerBPS(("unknot", r, sign, tau, Fraction(total, r * r)))
    return total // (r * r)


def b_extremal_twist(r, sign, p, tau):
    """Extremal BPS invariant b_r^±(K_p^tau) of the twist knot K_p.

    Supported families: p <= -1 and p >= 2 (p in {0, 1} raises
    UnsupportedP — those values degenerate out of the family).  The four
    branch formulas, each divided by r^2:

        p <= -1:  b^- = -sum mu(r/d)(-1)^(d tau)    C(d(3-tau)-1,      d-1)
                  b^+ =  sum mu(r/d)(-1)^(d tau)    C(d(2|p|+1+tau)-1, d-1)
        p >=  2:  b^- =  sum mu(r/d)(-1)^(d(tau+1)) C(d(tau+2)-1,      d-1)
                  b^+ =  sum mu(r/d)(-1)^(d(tau+1)) C(d(tau+2+2p)-1,   d-1)
    """
    _positive("r", r)
    _sign(sign)
    if p in (0, 1):
        raise UnsupportedP(p)
    total = 0
    for d in divisors(r):
        mu = mobius(r // d)
        if not mu:
            continue
        if p <= -1:
            s = sign_pow(d * tau)
            n = d * (2 * abs(p) + 1 + tau) - 1 if sign == "+" else d * (3 - tau) - 1
        else:
            s = sign_pow(d * (tau + 1))
            n = d * (tau + 2 + 2 * p) - 1 if sign == "+" else d * (tau + 2) - 1
        total += mu * s * gbinom(n, d - 1)
    if p <= -1 and sign == "-":
        total = -total
    if total % (r * r):
        raise NonIntegerBPS(("twist", r, sign, p, tau, Fraction(total, r * r)))
    return total // (r * r)


def integrality_statistic(r, t):
    """The Möbius-binomial statistic (1/r^2) sum_{d|r} mu(r/d)(-1)^(d(t+1)) gbinom(dt-1, d-1).

    Returns (value, is_integer) with value an exact Fraction.  Every
    extremal-b formula above is an instance of this statistic at a
    shifted t, and integrality holds for all (r, t) — but a violation
    here is reported through the flag, never raised: it would falsify
    the build, not the input.
    """
    _positive("r", r)
    total = 0
    for d in divisors(r):
        mu = mobius(r // d)
        if mu:
            total += mu * sign_pow(d * (t + 1)) * gbinom(d * t - 1, d - 1)
    value = Fraction(total, r * r)
    return value, value.denominator == 1
