"""Arithmetic closed forms for framed unknot and twist-knot BPS invariants.

Everything here is elementary integer arithmetic: the Möbius function,
a binomial extended to negative upper index, the c/b coefficient
formulas for the framed unknot, and one Möbius-binomial sum
S(r, t) = sum_{d|r} mu(r/d) (-1)^(d(t+1)) gbinom(dt-1, d-1).  Every
extremal formula is S at a shifted t over r^2: the twist-knot b_r^±
(`b_extremal_twist`), the unknot corners b_{r,±r} of `b_unknot`, and the
integrality statistic itself.

Sign conventions: (-1)^e is always computed from the parity of e, so
negative exponents (framings are allowed to be negative) are safe.
"""

from fractions import Fraction
from math import comb, gcd
from operator import index


class NonIntegerBPS(Exception):
    """An r^2-division that should always come out exact failed."""


class MismatchDetected(Exception):
    """Two computations of a value that must agree do not: a cross-check failed."""


class UnsupportedKnotKind(Exception):
    """No invariant or curve of the requested knot, kind or parameter exists here."""


def _sign(sign):
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def check_integer(name, n):
    """n as an int, read by operator.index: a float or Fraction raises ValueError."""
    try:
        return index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None


def check_at_least(name, n, least):
    """n as an int (see `check_integer`) that is at least `least`, else ValueError."""
    n = check_integer(name, n)
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def check_twist_parameter(p):
    """p as an int.  Twist knots K_p form the family p <= -1 or p >= 2;
    p in {0, 1} degenerates out of it and raises UnsupportedKnotKind."""
    p = check_integer("twist parameter p", p)
    if not (p <= -1 or p >= 2):
        raise UnsupportedKnotKind(f"twist parameter p={p} out of family")
    return p


def sign_pow(e):
    """(-1)**e by parity of e (e may be negative)."""
    return -1 if e % 2 else 1


def mobius(n):
    """Möbius function by trial factorization; n below 1 raises ValueError."""
    return _mobius(check_at_least("n", n, 1))


def _mobius(n):
    """`mobius` of an int n >= 1, unchecked."""
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
    """Positive divisors of n, ascending; n below 1 raises ValueError."""
    return _divisors(check_at_least("n", n, 1))


def _divisors(n):
    """`divisors` of an int n >= 1, unchecked."""
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
    """Binomial C(n, k) extended to negative n by (-1)^k C(-n+k-1, k); a
    non-integer n or k, or k < 0, raises ValueError."""
    n, k = check_integer("n", n), check_at_least("k", k, 0)
    if n < 0:
        return sign_pow(k) * comb(-n + k - 1, k)
    return comb(n, k)


def c_unknot(r, m, tau):
    """Pre-Möbius coefficient c_{r,m}(tau) of the framed unknot.

    Nonzero only when r + m is even and |m| <= r, where it equals

        (-1)^(r tau + r + (r+m)/2) C(r, (r+m)/2) gbinom(r tau + (r+m)/2 - 1, r - 1).
    """
    r = check_at_least("r", r, 1)
    m, tau = check_integer("m", m), check_integer("framing tau", tau)
    if (r + m) % 2 or abs(m) > r:
        return 0
    h = (r + m) // 2
    return sign_pow(r * tau + r + h) * comb(r, h) * gbinom(r * tau + h - 1, r - 1)


def b_unknot(r, m, tau):
    """BPS invariant b_{r,m}(U^tau) = (1/r^2) sum_{d | gcd(r,m)} mu(d) c_{r/d, m/d}(tau).

    gcd(r, 0) = r.  The division is expected to be exact every time; if it
    ever is not, this raises NonIntegerBPS rather than returning a Fraction.
    """
    r = check_at_least("r", r, 1)
    m, tau = check_integer("m", m), check_integer("framing tau", tau)
    total = 0
    for d in _divisors(gcd(r, m)):
        mu = _mobius(d)
        if mu:
            total += mu * c_unknot(r // d, m // d, tau)
    if total % (r * r):
        raise NonIntegerBPS(("unknot", r, m, tau, Fraction(total, r * r)))
    return total // (r * r)


def _mobius_binomial(r, t):
    """S(r, t) = sum_{d|r} mu(r/d) (-1)^(d(t+1)) gbinom(dt-1, d-1), the
    numerator of the statistic and of every extremal formula."""
    total = 0
    for d in _divisors(r):
        mu = _mobius(r // d)
        if mu:
            total += mu * sign_pow(d * (t + 1)) * gbinom(d * t - 1, d - 1)
    return total


def b_extremal_twist(r, sign, p, tau):
    """Extremal BPS invariant b_r^±(K_p^tau) of the twist knot K_p: the
    statistic's numerator S(r, t) at a shifted t, divided by r^2.

        p <= -1:  b^+ = S(r, 2|p|+1+tau),  b^- = -S(r, 3-tau)
        p >=  2:  b^+ = S(r, tau+2+2p),    b^- =  S(r, tau+2)

    p in {0, 1} degenerates out of the family and raises UnsupportedKnotKind.
    """
    r = check_at_least("r", r, 1)
    _sign(sign)
    p, tau = check_twist_parameter(p), check_integer("framing tau", tau)
    if p <= -1:
        total = (_mobius_binomial(r, 2 * abs(p) + 1 + tau) if sign == "+"
                 else -_mobius_binomial(r, 3 - tau))
    else:
        total = _mobius_binomial(r, tau + 2 + 2 * p if sign == "+" else tau + 2)
    if total % (r * r):
        raise NonIntegerBPS(("twist", r, sign, p, tau, Fraction(total, r * r)))
    return total // (r * r)


def integrality_statistic(r, t):
    """The Möbius-binomial statistic S(r, t)/r^2.

    Returns (value, is_integer) with value an exact Fraction.  The
    extremal unknot corners are b_{r,r}(U^tau) = S(r, tau+1)/r^2 and
    b_{r,-r}(U^tau) = S(r, tau)/r^2, and `b_extremal_twist` is S at
    shifted t.  Integrality holds for all (r, t), but a violation here
    is reported through the flag, never raised: it would falsify the
    build, not the input.
    """
    r = check_at_least("r", r, 1)
    value = Fraction(_mobius_binomial(r, check_integer("t", t)), r * r)
    return value, value.denominator == 1
