"""Exact Laurent polynomials in q^(1/2), a^(1/2), and truncated power series.

A Laurent polynomial is a plain dict mapping an exponent pair (dq, da)
to a nonzero int or Fraction, an int when integral, never a float, where
dq and da count *half units*: the key (dq, da) stands for the monomial
q^(dq/2) a^(da/2).  Storing doubled exponents keeps everything an int —
in particular the q^(i(i-1)/4) twist factors, whose doubled exponent
i(i-1)/2 is always integral.

A truncated power series in one variable x is a plain list of Laurent
polynomials, s[j] the coefficient of x^j, and its length is its order:
`series_mul` truncates at the shorter input, `series_inv` at the length
of its input.

Zero coefficients are never stored, so dict equality is value equality.
`exact` makes every coefficient built from a scalar (`lp_mono`,
`lp_scale`, `series_inv`), and sums and products of ints stay ints; a sum
of Fractions that lands on an integer may stay a Fraction, which compares
and hashes equal to the int.  All public operations are pure: inputs are
never mutated (only the private `_addmul` accumulates in place).
"""

from fractions import Fraction


class NonInvertibleLeadingTerm(Exception):
    """Series inversion needs an invertible (single-monomial) constant term."""


def exact(c):
    """c as a coefficient: Fraction(c), or its numerator when integral."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def lp_one():
    return {(0, 0): 1}


def lp_mono(dq, da, c=1):
    """The monomial c * q^(dq/2) * a^(da/2)."""
    c = exact(c)
    return {(dq, da): c} if c else {}


def lp_add(p, q):
    r = dict(p)
    for k, c in q.items():
        v = r.get(k, 0) + c
        if v:
            r[k] = v
        elif k in r:
            del r[k]
    return r


def lp_neg(p):
    return {k: -c for k, c in p.items()}


def lp_sub(p, q):
    return lp_add(p, lp_neg(q))


def _addmul(acc, p, q):
    """acc += p * q in place; returns acc."""
    for (d1, a1), c1 in p.items():
        for (d2, a2), c2 in q.items():
            k = (d1 + d2, a1 + a2)
            v = acc.get(k, 0) + c1 * c2
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
    return acc


def lp_mul(p, q):
    return _addmul({}, p, q)


def lp_scale(p, c):
    c = exact(c)
    if not c:
        return {}
    return {k: exact(v * c) for k, v in p.items()}


def lp_specialize_q1(f):
    """Substitute q^(1/2) := 1, collecting a-terms."""
    out = {}
    for (dq, da), c in f.items():
        k = (0, da)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def series_mul(s1, s2):
    """s1 * s2, truncated at the shorter input."""
    order = min(len(s1), len(s2))
    out = [{} for _ in range(order)]
    for j1, c1 in enumerate(s1[:order]):
        if not c1:
            continue
        for j2 in range(order - j1):
            c2 = s2[j2]
            if c2:
                _addmul(out[j1 + j2], c1, c2)
    return out


def series_inv(s):
    """1/s, to the length of s, when the constant term is an invertible monomial."""
    c0 = s[0]
    if len(c0) != 1:
        raise NonInvertibleLeadingTerm(f"constant term {c0} is not a monomial")
    ((dq, da), v), = c0.items()
    shift, inv = lp_mono(-dq, -da), Fraction(1, v)
    out = [lp_scale(shift, inv)] + [{}] * (len(s) - 1)
    for j in range(1, len(s)):
        acc = {}
        for i in range(1, j + 1):
            if s[i] and out[j - i]:
                _addmul(acc, s[i], out[j - i])
        if acc:
            out[j] = lp_scale(lp_mul(shift, acc), -inv)
    return out
