"""Quantum symbols and exact brace-ratio arithmetic.

Symbols, for integer n:

    {n}   = q^(n/2) - q^(-n/2)                            "brace"
    {n;a} = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2)           "brace_a"

plus descending products {n}{n-1}...{n-i+1} of i consecutive symbols
and the brace factorial {n}! as a multiset.

`BraceRatio` is the exact pair (numerator LaurentPoly, denominator =
multiset of brace factors {n}) used for invariants that are not Laurent
polynomials themselves; the denominator clears exactly only after the
full Moebius/connected combination, and `reduce` checks just that by
dividing out one brace at a time.
"""

from collections import Counter
from fractions import Fraction

from .laurent import lp_add, lp_mul, lp_one, lp_scale

BRACE = "brace"
BRACE_A = "brace_a"


class InexactDivision(Exception):
    """A brace denominator did not divide its numerator exactly."""


def qsym(kind, n):
    """One symbol of the given kind at integer n."""
    if kind == BRACE:
        if n == 0:
            return {}
        return {(n, 0): Fraction(1), (-n, 0): Fraction(-1)}
    if kind == BRACE_A:
        return {(n, 1): Fraction(1), (-n, -1): Fraction(-1)}
    raise ValueError(f"unknown symbol kind {kind!r}")


def qsym_falling(kind, n, i):
    """Product sym(n) sym(n-1) ... sym(n-i+1) of i symbols; i = 0 is 1."""
    assert i >= 0
    out = lp_one()
    for t in range(i):
        out = lp_mul(out, qsym(kind, n - t))
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


class BraceRatio:
    """Exact ratio num / prod_n {n}^mult with a brace-multiset denominator.

    Values are immutable: every operation returns a new ratio.  Addition
    rescales both numerators to the multiset max of the denominators — a
    common denominator (not necessarily least, which is fine: reduce()
    clears whatever accumulates by exact division).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = Counter()
        if den:
            for n, m in Counter(den).items():
                assert n >= 1 and m >= 0
                if m:
                    self.den[n] = m
        if not self.num:
            self.den = Counter()

    @staticmethod
    def zero():
        return BraceRatio({})

    @staticmethod
    def one():
        return BraceRatio(lp_one())

    def _raised_num(self, target):
        """Numerator after multiplying up to the denominator `target`."""
        num = self.num
        for n, m in (target - self.den).items():
            b = qsym(BRACE, n)
            for _ in range(m):
                num = lp_mul(num, b)
        return num

    def add(self, other):
        cd = self.den | other.den
        return BraceRatio(lp_add(self._raised_num(cd), other._raised_num(cd)), cd)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        return BraceRatio(lp_mul(self.num, other.num), self.den + other.den)

    def scale(self, c):
        return BraceRatio(lp_scale(self.num, Fraction(c)), self.den)

    def mul_poly(self, p):
        return BraceRatio(lp_mul(self.num, p), self.den)

    def adams(self, d):
        """Adams operation on the whole ratio: {n} -> {dn} in the denominator."""
        num = {(dq * d, da * d): c for (dq, da), c in self.num.items()}
        return BraceRatio(num, Counter({n * d: m for n, m in self.den.items()}))

    def reduce(self):
        """Clear the denominator by exact division; InexactDivision if not polynomial."""
        num = self.num
        for n, m in sorted(self.den.items()):
            for _ in range(m):
                num = _div_brace(num, n)
        return num

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, BraceRatio):
            return NotImplemented
        cd = self.den | other.den
        return self._raised_num(cd) == other._raised_num(cd)

    def __repr__(self):
        den = "".join(f"{{{n}}}" + (f"^{m}" if m > 1 else "")
                      for n, m in sorted(self.den.items()))
        return f"BraceRatio({len(self.num)} terms{' / ' + den if den else ''})"
