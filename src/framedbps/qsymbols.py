"""Quantum symbols and exact brace-ratio arithmetic.

Symbols, for integer n:

    {n}   = q^(n/2) - q^(-n/2)
    {n;a} = a^(1/2) q^(n/2) - a^(-1/2) q^(-n/2)

One primitive, `_mul_brace(num, n, da)`, multiplies by {n} (da = 0) or by
{n;a} (da = 1); `braces` is the descending product {n}{n-1}...{n-i+1} of i
of them on top of it, so the brace factorial {n}! is `braces(num, n, n)`.

`BraceRatio` is the exact pair (numerator LaurentPoly, denominator =
multiset of brace factors {n}) used for invariants that are not Laurent
polynomials themselves: the colored invariants H and the connected
invariants `ovengine.connected_F` returns.  A ratio's denominator only
grows: sums raise numerators to a common denominator and nothing divides.
Every exact division is a table's: it multiplies and divides int
numerators by one brace at a time (`_mul_brace`, `_div_brace`).  The
pipeline keeps its numerators integral: the one rational of a connected
invariant is carried apart from the ratio (see `ovengine`).
"""

from collections import Counter

from .closedforms import check_at_least, check_integer
from .laurent import lp_add, lp_mul


class InexactDivision(Exception):
    """A brace denominator did not divide its numerator exactly."""


def _mul_brace(num, n, da=0):
    """num {n} (da = 0) or num {n;a} (da = 1): each term moves up to
    (dq+n, da'+da) and, negated, down to (dq-n, da'-da) in doubled
    exponents; at da = 0 the inverse of `_div_brace`."""
    out = {(dq + n, a + da): c for (dq, a), c in num.items()}
    for (dq, a), c in num.items():
        k = (dq - n, a - da)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def braces(num, n, i, da=0):
    """num times the i descending symbols {n}{n-1}...{n-i+1} (da = 0) or
    {n;a}{n-1;a}...{n-i+1;a} (da = 1); i = 0 gives num.  A non-integer n
    or i, or i < 0, raises ValueError."""
    n, i = check_integer("n", n), check_at_least("i", i, 0)
    for t in range(i):
        num = _mul_brace(num, n - t, da)
    return num


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
    denominator, not necessarily least: a ratio's denominator only grows,
    and nothing here divides.
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
    def sum(terms):
        """The sum of `terms`, folded with `add`.  Empty gives zero."""
        total = BraceRatio({})
        for t in terms:
            total = total.add(t)
        return total

    def _raised(self, target):
        """The numerator over the denominator `target`, which holds this
        one: multiplied by each brace of `target` the denominator lacks."""
        num = self.num
        for n, m in (target - self.den).items():
            for _ in range(m):
                num = _mul_brace(num, n)
        return num

    def add(self, other):
        if not self.num:
            return other
        if not other.num:
            return self
        cd = self.den | other.den
        return _ratio(lp_add(self._raised(cd), other._raised(cd)), cd)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        return _ratio(lp_mul(self.num, other.num), self.den + other.den)

    def scale(self, c):
        """The ratio times the exact scalar c."""
        return _ratio({k: v * c for k, v in self.num.items()} if c else {}, self.den)

    def __eq__(self, other):
        if not isinstance(other, BraceRatio):
            return NotImplemented
        cd = self.den | other.den
        return self._raised(cd) == other._raised(cd)

    def __repr__(self):
        den = "".join(f"{{{n}}}" + (f"^{m}" if m > 1 else "")
                      for n, m in sorted(self.den.items()))
        return f"BraceRatio({len(self.num)} terms{' / ' + den if den else ''})"
