"""The plethystic pipeline: connected invariants, p-polynomials, integer
N-tables, BPS lists, and strong-integrality parities.

The flow is

    framed H  --vector partitions-->  connected F  --Möbius + Adams-->
    p-polynomial  --coefficients-->  N-table  --row sums-->  b-list,

with every intermediate value an exact numerator/denominator pair.
Clearing to an honest Laurent polynomial happens exactly once, inside
`p_poly`, as a checked exact division — that single choke point is
where the integrality structure either survives or raises.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import factorial, gcd

from .closedforms import MismatchDetected, divisors, mobius
from .laurent import lp_one, lp_specialize_q1
from .links import FramedLinkSpec, apply_framing, homfly_link
from .qsymbols import BRACE, BraceRatio, qsym


class NonIntegerInvariant(Exception):
    """A p-polynomial coefficient that must be an integer is not.

    Carries (i, j, value): the a- and q-exponents (as exact halves)
    and the offending rational coefficient.
    """


class VectorPartition:
    """A multiset of nonzero color vectors, stored as (part, multiplicity)
    pairs in descending lexicographic part order."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    @classmethod
    def from_sequence(cls, seq):
        """Group a lex-descending sequence of parts into (part, mult) pairs."""
        return cls((v, len(list(g))) for v, g in groupby(seq))

    @property
    def total(self):
        k = len(self.parts[0][0])
        out = [0] * k
        for v, mult in self.parts:
            for c in range(k):
                out[c] += mult * v[c]
        return tuple(out)

    @property
    def length(self):
        return sum(mult for _, mult in self.parts)

    @property
    def aut(self):
        out = 1
        for _, mult in self.parts:
            out *= factorial(mult)
        return out

    def __eq__(self, other):
        return isinstance(other, VectorPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "VectorPartition(%s)" % (self.parts,)


def enumerate_vector_partitions(rvec):
    """All multisets of nonzero componentwise-nonnegative vectors summing
    to rvec, each exactly once (parts generated lex-descending)."""
    rvec = tuple(int(r) for r in rvec)
    if not any(rvec) or any(r < 0 for r in rvec):
        raise ValueError(f"color vector {rvec} must be nonnegative and not all zero")
    out = []

    def descend(remaining, cap, acc):
        if not any(remaining):
            out.append(VectorPartition.from_sequence(acc))
            return
        for v in product(*(range(x, -1, -1) for x in remaining)):
            if any(v) and v <= cap:
                descend(tuple(a - b for a, b in zip(remaining, v)), v, acc + (v,))

    descend(rvec, rvec, ())
    return out


@lru_cache(maxsize=None)
def _framed_h(link_name, colors, framings):
    """Framed colored invariant for one color vector (exact ratio)."""
    return apply_framing(homfly_link(link_name, colors), colors, framings)


def _spec_framings(link):
    return link.framings if link.framings is not None else (0,) * link.n_components


def _colors_for(link, rvec):
    """rvec as an int tuple, one color per component of the link."""
    rvec = tuple(int(r) for r in rvec)
    if len(rvec) != link.n_components:
        raise ValueError(f"{link.link} needs {link.n_components} colors, got {rvec}")
    return rvec


def connected_F(link, rvec):
    """Connected invariant F_rvec as an exact ratio.

    Sum over vector partitions U of rvec of

        (-1)^(l(U)-1) (l(U)-1)! / |Aut(U)| * prod of framed H-parts,

    framings taken from the link spec (zero if unspecified).
    """
    rvec = _colors_for(link, rvec)
    taus = _spec_framings(link)
    terms = []
    for pt in enumerate_vector_partitions(rvec):
        coef = Fraction(factorial(pt.length - 1), pt.aut)
        if (pt.length - 1) % 2:
            coef = -coef
        prod = BraceRatio.one()
        for v, mult in pt.parts:
            hv = _framed_h(link.link, v, taus)
            for _ in range(mult):
                prod = prod.mul(hv)
        terms.append(prod.scale(coef))
    return BraceRatio.sum(terms)


def _mv_mul(left, right, trunc):
    """Multiply two componentwise-truncated multivariate series with
    exact-ratio coefficients (dict vector -> BraceRatio)."""
    out = {}
    for va, ca in left.items():
        for vb, cb in right.items():
            v = tuple(x + y for x, y in zip(va, vb))
            if any(x > t for x, t in zip(v, trunc)):
                continue
            term = ca.mul(cb)
            out[v] = out[v].add(term) if v in out else term
    return out


def connected_F_via_log(link, rvec, truncation=None):
    """Coefficient of x^rvec in log(1 + sum_v H_v x^v), truncated
    componentwise — an independent oracle for connected_F.

    The log is expanded as sum_m (-1)^(m-1) W^m / m with W the
    constant-free part of the generating function; powers die once m
    exceeds the total truncation degree.
    """
    rvec = _colors_for(link, rvec)
    trunc = rvec if truncation is None else _colors_for(link, truncation)
    if any(r > t for r, t in zip(rvec, trunc)):
        raise ValueError(f"truncation {trunc} is below the colors {rvec}")
    taus = _spec_framings(link)
    w = {}
    for v in product(*(range(t + 1) for t in trunc)):
        if any(v):
            w[v] = _framed_h(link.link, v, taus)
    total = BraceRatio.zero()
    power = dict(w)
    for m in range(1, sum(trunc) + 1):
        if rvec in power:
            coef = Fraction(1, m) if (m - 1) % 2 == 0 else Fraction(-1, m)
            total = total.add(power[rvec].scale(coef))
        if m < sum(trunc) and power:
            power = _mv_mul(power, w, trunc)
    return total


def _with_framings(link, framings):
    if isinstance(link, str):
        return FramedLinkSpec(link, framings=framings)
    if framings is None:
        return link
    return FramedLinkSpec(link.link, framings=framings, p=link.p)


def p_poly(link, rvec, framings=None):
    """The p-polynomial: Möbius/Adams sum of connected invariants times
    (q^(1/2) - q^(-1/2))^(2-k), k the number of nonzero colors.

    The k = 1 case multiplies by the brace, k = 2 is the identity, and
    k = 3 divides — the one place an exact division is demanded of the
    whole pipeline, so InexactDivision here means the integrality
    structure failed (or a bug upstream of it did).
    """
    spec = _with_framings(link, framings)
    rvec = tuple(int(r) for r in rvec)
    k = sum(1 for r in rvec if r)
    if k not in (1, 2, 3):
        raise ValueError(f"color vector {rvec} needs 1 to 3 nonzero colors")
    g = 0
    for r in rvec:
        g = gcd(g, r)
    terms = []
    for d in divisors(g):
        mu = mobius(d)
        if mu:
            sub = tuple(r // d for r in rvec)
            terms.append(connected_F(spec, sub).adams(d).scale(Fraction(mu, d)))
    total = BraceRatio.sum(terms)
    if k == 1:
        total = total.mul_poly(qsym(BRACE, 1))
    elif k == 3:
        total = total.mul(BraceRatio(lp_one(), Counter({1: 1})))
    return total.reduce()


class OVTable:
    """Integer table N_{rvec,i,j}: entries keyed by doubled exponents
    (2i, 2j) of a^i q^j in the p-polynomial."""

    __slots__ = ("colors", "framings", "k", "entries", "p_poly")

    def __init__(self, colors, framings, k, entries, p_poly):
        self.colors = tuple(colors)
        self.framings = tuple(framings)
        self.k = k
        self.entries = dict(entries)
        self.p_poly = p_poly

    @property
    def epsilon(self):
        """Parity pair (e1, e2) the doubled exponents must match."""
        s = sum(self.colors)
        return s % 2, (s + self.k) % 2

    def entry(self, i2, j2):
        return self.entries.get((i2, j2), 0)

    def bounds(self):
        """((min 2i, max 2i), (min 2j, max 2j)) over the support; None if empty."""
        if not self.entries:
            return None
        i2s = [i2 for i2, _ in self.entries]
        j2s = [j2 for _, j2 in self.entries]
        return (min(i2s), max(i2s)), (min(j2s), max(j2s))

    def __eq__(self, other):
        return (isinstance(other, OVTable) and self.entries == other.entries
                and self.colors == other.colors and self.framings == other.framings)

    def __repr__(self):
        return (f"OVTable(colors={self.colors}, framings={self.framings}, "
                f"{len(self.entries)} entries)")


def ov_table(link, rvec, framings=None):
    """Read the p-polynomial's coefficients into an integer table.

    Raises NonIntegerInvariant(i, j, value) on the first non-integral
    coefficient (exponents reported as exact halves).
    """
    spec = _with_framings(link, framings)
    rvec = tuple(int(r) for r in rvec)
    p = p_poly(spec, rvec)
    entries = {}
    for (dq, da), c in sorted(p.items()):
        if c.denominator != 1:
            raise NonIntegerInvariant(Fraction(da, 2), Fraction(dq, 2), c)
        entries[(da, dq)] = int(c)
    k = sum(1 for r in rvec if r)
    return OVTable(rvec, _spec_framings(spec), k, entries, p)


class BPSList:
    """Row sums of an OVTable: map (doubled a-exponent) -> integer b."""

    __slots__ = ("colors", "framings", "values")

    def __init__(self, colors, framings, values):
        self.colors = tuple(colors)
        self.framings = tuple(framings)
        self.values = dict(values)

    def __eq__(self, other):
        return isinstance(other, BPSList) and self.values == other.values

    def __repr__(self):
        return f"BPSList(colors={self.colors}, framings={self.framings}, {self.values})"


def bps_list(table):
    """Collapse a table to its BPS list b_i = sum_j N_{i,j}.

    Computed twice — by row sums and as the q = 1 specialization of the
    p-polynomial — and MismatchDetected is raised if the two differ.
    """
    rows = {}
    for (da, dq), n in table.entries.items():
        rows[da] = rows.get(da, 0) + n
    rows = {da: n for da, n in rows.items() if n}
    q1 = {da: int(c) for (_, da), c in lp_specialize_q1(table.p_poly).items()}
    if rows != q1:
        raise MismatchDetected(f"row sums {rows} differ from q=1 values {q1}")
    return BPSList(table.colors, table.framings, rows)


def strong_integrality_check(table):
    """True iff every entry's doubled exponents match the parity pair
    (e1, e2) = (sum r mod 2, (sum r + k) mod 2)."""
    e1, e2 = table.epsilon
    return all(da % 2 == e1 and dq % 2 == e2
               for (da, dq), n in table.entries.items() if n)
