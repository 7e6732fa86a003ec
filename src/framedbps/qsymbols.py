"""Quantum symbols and exact brace-ratio arithmetic.

Symbols, for integer n:

    {n}   = q^(n/2) - q^(-n/2)                            "brace"
    {n;a} = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2)           "brace_a"

plus descending products {n}{n-1}...{n-i+1} of i consecutive symbols
and the brace factorial {n}! as a multiset.

`BraceRatio` is the exact pair (numerator LaurentPoly, denominator =
multiset of brace factors {n}) used for invariants that are not Laurent
polynomials themselves: the colored invariants H and the connected
invariants `ovengine.connected_F` returns.  A table does no arithmetic
on them: it multiplies and divides int numerators by one brace at a time
(`_mul_brace`, `_div_brace`), the same steps by which `reduce` clears a
ratio's denominator exactly.  The pipeline keeps its numerators
integral: the one rational of a connected invariant is carried apart
from the ratio (see `ovengine`).
"""

from collections import Counter

from .closedforms import check_at_least, check_integer
from .laurent import lp_add, lp_mul, lp_one

BRACE = "brace"
BRACE_A = "brace_a"


class InexactDivision(Exception):
    """A brace denominator did not divide its numerator exactly."""


def qsym(kind, n):
    """One symbol of the given kind at integer n (else ValueError)."""
    n = check_integer("n", n)
    if kind == BRACE:
        if n == 0:
            return {}
        return {(n, 0): 1, (-n, 0): -1}
    if kind == BRACE_A:
        return {(n, 1): 1, (-n, -1): -1}
    raise ValueError(f"unknown symbol kind {kind!r}")


def qsym_falling(kind, n, i):
    """Product sym(n) sym(n-1) ... sym(n-i+1) of i symbols; i = 0 is 1.
    A non-integer n or i, or i < 0, raises ValueError."""
    n, i = check_integer("n", n), check_at_least("i", i, 0)
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
    """{n}! as a denominator multiset {k: multiplicity}; n an integer >= 0."""
    return Counter(range(1, check_at_least("n", n, 0) + 1))


def _ratio(num, den):
    """A BraceRatio from a numerator and a Counter with positive
    multiplicities, taken as they are."""
    r = object.__new__(BraceRatio)
    r._set(num, den)
    return r


class BraceRatio:
    """Exact value num / prod_n {n}^mult: a numerator LaurentPoly and a
    brace-multiset denominator.

    The numerator's coefficients are whatever exact scalars it was built
    from; every ratio the pipeline builds has int coefficients, so its
    arithmetic runs on ints.

    Values are immutable: every operation returns a new ratio.  Addition
    raises both numerators to the multiset max of the denominators, one
    shift-subtract brace multiply per missing factor {n} — a common
    denominator (not necessarily least, which is fine: reduce() clears
    whatever accumulates by exact division).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        clean = Counter()
        if den:
            for n, m in Counter(den).items():
                if n < 1 or m < 0:
                    raise ValueError(f"denominator factor {{{n}}}^{m} needs n >= 1, m >= 0")
                if m:
                    clean[n] = m
        self._set(num, clean)

    def _set(self, num, den):
        if num:
            self.num, self.den = num, den
        else:
            self.num, self.den = {}, Counter()

    @staticmethod
    def zero():
        return BraceRatio({})

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
        one does not divide)."""
        num = self.num
        for n, m in (target - self.den).items():
            for _ in range(m):
                num = _mul_brace(num, n)
        for n, m in sorted((self.den - target).items()):
            for _ in range(m):
                num = _div_brace(num, n)
        return _ratio(num, target)

    def add(self, other):
        if not self.num:
            return other
        if not other.num:
            return self
        cd = self.den | other.den
        return _ratio(lp_add(self._over(cd).num, other._over(cd).num), cd)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        return _ratio(lp_mul(self.num, other.num), self.den + other.den)

    def scale(self, c):
        """The ratio times the exact scalar c."""
        return _ratio({k: v * c for k, v in self.num.items()} if c else {}, self.den)

    def mul_poly(self, p):
        """The ratio times the LaurentPoly p."""
        return _ratio(lp_mul(self.num, p), self.den)

    def reduce(self):
        """The Laurent polynomial, by exact division (see `_over`)."""
        return self._over(Counter()).num

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, BraceRatio):
            return NotImplemented
        cd = self.den | other.den
        return self._over(cd).num == other._over(cd).num

    def __repr__(self):
        den = "".join(f"{{{n}}}" + (f"^{m}" if m > 1 else "")
                      for n, m in sorted(self.den.items()))
        return f"BraceRatio({len(self.num)} terms{' / ' + den if den else ''})"
