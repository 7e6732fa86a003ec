"""Quantum symbols and exact brace-ratio arithmetic.

Symbols, for integer n:

    {n}   = q^(n/2) - q^(-n/2)                            "brace"
    {n;a} = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2)           "brace_a"

plus descending products {n}{n-1}...{n-i+1} of i consecutive symbols
and the brace factorial {n}! as a multiset.

`BraceRatio` is the exact triple (int-coefficient numerator LaurentPoly,
denominator = multiset of brace factors {n}, rational content) used for
invariants that are not Laurent polynomials themselves; the denominator
clears exactly only after the full Moebius/connected combination, and
`reduce` checks just that by dividing out one brace at a time.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .laurent import exact, lp_add, lp_mul, lp_one, lp_scale

BRACE = "brace"
BRACE_A = "brace_a"


class InexactDivision(Exception):
    """A brace denominator did not divide its numerator exactly."""


def qsym(kind, n):
    """One symbol of the given kind at integer n."""
    if kind == BRACE:
        if n == 0:
            return {}
        return {(n, 0): 1, (-n, 0): -1}
    if kind == BRACE_A:
        return {(n, 1): 1, (-n, -1): -1}
    raise ValueError(f"unknown symbol kind {kind!r}")


def qsym_falling(kind, n, i):
    """Product sym(n) sym(n-1) ... sym(n-i+1) of i symbols; i = 0 is 1."""
    if i < 0:
        raise ValueError(f"a product of {i} symbols; i must be at least 0")
    out = lp_one()
    for t in range(i):
        out = lp_mul(out, qsym(kind, n - t))
    return out


def _mul_brace(num, n):
    """num {n}: each term moves up to d+n and, negated, down to d-n in
    doubled q-exponents; the inverse of `_div_brace`."""
    out = {(dq + n, da): c for (dq, da), c in num.items()}
    for (dq, da), c in num.items():
        k = (dq - n, da)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _div_brace(num, n):
    """The exact quotient num / {n}, or InexactDivision.

    num = {n} Q means num[d] = Q[d-n] - Q[d+n] in doubled q-exponents, so
    along each chain d, d-2n, ... of one a-exponent, walked down from its
    top, Q[d-n] is the running sum of num; exactness means that sum
    cancels the chain's bottom term.
    """
    chains = {}
    for dq, da in num:
        chains.setdefault((da, dq % (2 * n)), []).append(dq)
    quo = {}
    for (da, _), dqs in chains.items():
        s, bottom = 0, min(dqs)
        for d in range(max(dqs), bottom, -2 * n):
            s += num.get((d, da), 0)
            if s:
                quo[(d - n, da)] = s
        if s + num[(bottom, da)]:
            raise InexactDivision(f"{{{n}}} does not divide the numerator")
    return quo


def brace_factorial_multiset(n):
    """{n}! as a denominator multiset {k: multiplicity}."""
    return Counter(range(1, n + 1))


def _times(num, s):
    """num scaled by the int s."""
    return num if s == 1 else {k: v * s for k, v in num.items()}


def _ratio(num, den, content):
    """A BraceRatio from an all-int numerator, a Counter with positive
    multiplicities and an exact content, taken as they are."""
    r = object.__new__(BraceRatio)
    r._set(num, den, content)
    return r


class BraceRatio:
    """Exact value content * num / prod_n {n}^mult: an int-coefficient
    numerator, a brace-multiset denominator and one rational content.

    Rationals live only in `content`, an int or Fraction (an int when
    integral), so the numerator's arithmetic runs on ints; a numerator
    given with Fraction coefficients is cleared into the content.
    `scale` touches only the content, `mul` multiplies the contents, and
    `add` brings both sides to the common content gcd(numerators) /
    lcm(denominators) of the two contents by integer rescaling.

    Values are immutable: every operation returns a new ratio.  Addition
    also raises both numerators to the multiset max of the denominators,
    one shift-subtract brace multiply per missing factor {n} — a common
    denominator (not necessarily least, which is fine: reduce() clears
    whatever accumulates by exact division).
    """

    __slots__ = ("num", "den", "content")

    def __init__(self, num, den=None, content=1):
        content = exact(content)
        if any(type(c) is not int for c in num.values()):
            d = lcm(*(c.denominator for c in num.values()))
            num = {k: c.numerator * (d // c.denominator) for k, c in num.items()}
            content = exact(Fraction(content, d))
        clean = Counter()
        if den:
            for n, m in Counter(den).items():
                if n < 1 or m < 0:
                    raise ValueError(f"denominator factor {{{n}}}^{m} needs n >= 1, m >= 0")
                if m:
                    clean[n] = m
        self._set(num, clean, content)

    def _set(self, num, den, content):
        if num and content:
            self.num, self.den, self.content = num, den, content
        else:
            self.num, self.den, self.content = {}, Counter(), 1

    @staticmethod
    def zero():
        return BraceRatio({})

    @staticmethod
    def one():
        return BraceRatio(lp_one())

    @staticmethod
    def sum(terms):
        """The sum of `terms`, folded with `add`.  Empty gives zero."""
        total = BraceRatio.zero()
        for t in terms:
            total = total.add(t)
        return total

    def _over(self, target):
        """The same ratio over the denominator `target`: the numerator
        multiplied by the braces of `target` the denominator lacks, then
        divided exactly by the braces `target` lacks (InexactDivision if
        one does not divide).  The content stays: braces are monic, so
        content * num divides over Q exactly when num divides over Z."""
        num = self.num
        for n, m in (target - self.den).items():
            for _ in range(m):
                num = _mul_brace(num, n)
        for n, m in sorted((self.den - target).items()):
            for _ in range(m):
                num = _div_brace(num, n)
        return _ratio(num, target, self.content)

    def _common(self, other):
        """Both numerators over the common denominator and common content
        g: (num1, num2, den, g) with self = g num1 / den, other = g num2 / den."""
        cd = self.den | other.den
        c1, c2 = Fraction(self.content), Fraction(other.content)
        gn = gcd(c1.numerator, c2.numerator)
        gd = lcm(c1.denominator, c2.denominator)
        s1 = c1.numerator // gn * (gd // c1.denominator)
        s2 = c2.numerator // gn * (gd // c2.denominator)
        return (_times(self._over(cd).num, s1), _times(other._over(cd).num, s2),
                cd, exact(Fraction(gn, gd)))

    def add(self, other):
        if not self.num:
            return other
        if not other.num:
            return self
        num1, num2, cd, g = self._common(other)
        return _ratio(lp_add(num1, num2), cd, g)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        return _ratio(lp_mul(self.num, other.num), self.den + other.den,
                      exact(self.content * other.content))

    def scale(self, c):
        return _ratio(self.num, self.den, exact(self.content * Fraction(c)))

    def mul_poly(self, p):
        """The ratio times the LaurentPoly p; only a p with non-int
        coefficients goes through the clearing constructor."""
        if any(type(c) is not int for c in p.values()):
            return BraceRatio(lp_mul(self.num, p), self.den, self.content)
        return _ratio(lp_mul(self.num, p), self.den, self.content)

    def adams(self, d):
        """Adams operation on the whole ratio: {n} -> {dn} in the denominator."""
        num = {(dq * d, da * d): c for (dq, da), c in self.num.items()}
        return _ratio(num, Counter({n * d: m for n, m in self.den.items()}), self.content)

    def scaled_num(self):
        """The numerator with the content applied, content * num."""
        return lp_scale(self.num, self.content)

    def reduce(self):
        """The Laurent polynomial, by exact division (see `_over`)."""
        return lp_scale(self._over(Counter()).num, self.content)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, BraceRatio):
            return NotImplemented
        num1, num2, _, _ = self._common(other)
        return num1 == num2

    def __repr__(self):
        den = "".join(f"{{{n}}}" + (f"^{m}" if m > 1 else "")
                      for n, m in sorted(self.den.items()))
        content = f"{self.content} * " if self.content != 1 else ""
        return f"BraceRatio({content}{len(self.num)} terms{' / ' + den if den else ''})"
