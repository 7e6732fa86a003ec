"""The plethystic pipeline: connected invariants, p-polynomials, integer
N-tables, BPS lists, and strong-integrality parities.

The flow is

    framed H  --log-derivative recurrence-->  connected F  --Möbius + Adams-->
    p-polynomial  --coefficients-->  N-table  --row sums-->  b-list,

with every intermediate value an exact numerator/denominator pair.  One
memo holds every F, keyed by the link and the sorted (color, framing)
pairs of the colored components, so a table and its swapped twin, the two
halves of an equal-framing table and the unknot axes of different tables
share their entries.  Each F is divided down to the least denominator
integrality allows, and `p_poly` clears the rest: checked exact
divisions, where the integrality structure either survives or raises.
The paper's vector-partition sum, `connected_F_partitions`, is the oracle
the recurrence is checked against.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import factorial, gcd, prod

from .closedforms import MismatchDetected, divisors, mobius
from .laurent import lp_one, lp_specialize_q1
from .links import _COMPONENTS, _CORES, FramedLinkSpec, framed_homfly
from .qsymbols import BRACE, BraceRatio, qsym


class NonIntegerInvariant(Exception):
    """A p-polynomial coefficient that must be an integer is not.

    Carries (i, j, value): the a- and q-exponents (as exact halves)
    and the offending rational coefficient.
    """


class VectorPartition(tuple):
    """A multiset of nonzero color vectors: the tuple of its (part,
    multiplicity) pairs in descending lexicographic part order."""

    __slots__ = ()

    @property
    def length(self):
        return sum(mult for _, mult in self)

    @property
    def aut(self):
        return prod(factorial(mult) for _, mult in self)

    def __repr__(self):
        return f"VectorPartition({tuple(self)})"


def enumerate_vector_partitions(rvec):
    """All multisets of nonzero componentwise-nonnegative vectors summing
    to rvec, each exactly once (parts generated lex-descending)."""
    rvec = tuple(int(r) for r in rvec)
    if not any(rvec) or any(r < 0 for r in rvec):
        raise ValueError(f"color vector {rvec} must be nonnegative and not all zero")
    out = []

    def descend(remaining, cap, acc):
        if not any(remaining):
            out.append(VectorPartition((v, len(list(g))) for v, g in groupby(acc)))
            return
        for v in product(*(range(x, -1, -1) for x in remaining)):
            if any(v) and v <= cap:
                descend(tuple(a - b for a, b in zip(remaining, v)), v, acc + (v,))

    descend(rvec, rvec, ())
    return out


def _memo_key(link, v, taus):
    """The memo key of color vector v on `link` at framings `taus`:
    (link name, p, sorted (color, framing) pairs of the colored
    components).  H and F are symmetric when colors and framings are
    permuted together, and an uncolored component contributes 1, so equal
    keys have equal H and F.  A vector with one colored component on a
    link with a core takes the unknot's key: there i runs only to 0 and
    C_0 = 1, so H is the unknot's."""
    pairs = tuple(sorted((r, t) for r, t in zip(v, taus) if r))
    if len(pairs) == 1 and link.link in _CORES:
        return "unknot", None, pairs
    return link.link, link.p, pairs


@lru_cache(maxsize=None)
def _framed_h(key):
    """Framed colored invariant of a memo key (exact ratio), colors in
    ascending order with the uncolored components first."""
    link_name, _, pairs = key
    pad = (0,) * (_COMPONENTS[link_name] - len(pairs))
    return framed_homfly(link_name, pad + tuple(r for r, _ in pairs),
                         pad + tuple(t for _, t in pairs))


def _spec_framings(link):
    return link.framings if link.framings is not None else (0,) * link.n_components


def _colors_for(link, rvec):
    """rvec as an int tuple, one color per component of the link."""
    rvec = tuple(int(r) for r in rvec)
    if len(rvec) != link.n_components:
        raise ValueError(f"{link.link} needs {link.n_components} colors, got {rvec}")
    return rvec


def connected_F_partitions(link, rvec):
    """Connected invariant F_rvec by the paper's defining sum over vector
    partitions U of rvec of

        (-1)^(l(U)-1) (l(U)-1)! / |Aut(U)| * prod of framed H-parts,

    framings taken from the link spec (zero if unspecified).  The oracle
    that `verify connected` compares `connected_F` with.  It reads each H
    in the caller's component order, not through the memo key, so that
    comparison also checks the symmetries the key relies on.
    """
    rvec = _colors_for(link, rvec)
    taus = _spec_framings(link)
    terms = []
    for pt in enumerate_vector_partitions(rvec):
        coef = Fraction(factorial(pt.length - 1), pt.aut)
        if (pt.length - 1) % 2:
            coef = -coef
        prod = BraceRatio.one()
        for v, mult in pt:
            hv = framed_homfly(link.link, v, taus)
            for _ in range(mult):
                prod = prod.mul(hv)
        terms.append(prod.scale(coef))
    return BraceRatio.sum(terms)


# The connected invariants of every link, framing and color vector so far,
# by memo key (see `_memo_key`).
_F_MEMO = {}


def connected_F(link, rvec):
    """Connected invariant F_rvec = [x^rvec] log(1 + sum_v H_v x^v) as an
    exact ratio, framings from the link spec (zero if unspecified), read
    from the memo.  The memo first grows over the box 0 <= v <= rvec in
    lex order (each u < v before v) by the log-derivative recurrence

        v_c F_v = v_c H_v - sum_{0<u<v, u_c>0} u_c F_u H_{v-u},

    c the component of least positive v_c, which needs the fewest products.
    A v whose key the memo holds already, from another component order,
    sublink or table, is not computed again.
    """
    rvec = _colors_for(link, rvec)
    if not any(rvec) or min(rvec) < 0:
        raise ValueError(f"color vector {rvec} must be nonnegative and not all zero")
    taus = _spec_framings(link)
    for v in product(*(range(r + 1) for r in rvec)):
        if any(v):
            key = _memo_key(link, v, taus)
            if key not in _F_MEMO:
                _F_MEMO[key] = _recurrence_step(link, v, taus)
    return _F_MEMO[_memo_key(link, rvec, taus)]


def _recurrence_step(link, v, taus):
    """F_v from the memo's F_u, u < v, over the least denominator
    integrality allows: F_v = sum_{d|v} f_{v/d}(q^d, a^d) / d with
    f_u {1}^(2-k) a Laurent polynomial, so {r} when v has the one nonzero
    color r and none otherwise.  The exact division down to it checks
    every F_v; InexactDivision if integrality fails."""
    nonzero = [t for t, r in enumerate(v) if r]
    c = min(nonzero, key=lambda t: v[t])
    # w = v - u runs up by degree, and with it the factorial denominator of
    # H_w, so the class sums meet in growing order; H_v, the largest, comes last
    terms = []
    box = product(*(range(r if t == c else r + 1) for t, r in enumerate(v)))
    for w in sorted(box, key=sum):
        if any(w):
            u = tuple(a - b for a, b in zip(v, w))
            h = _framed_h(_memo_key(link, w, taus))
            f = _F_MEMO[_memo_key(link, u, taus)]
            terms.append(f.mul(h).scale(Fraction(-u[c], v[c])))
    terms.append(_framed_h(_memo_key(link, v, taus)))
    target = Counter({v[c]: 1}) if len(nonzero) == 1 else Counter()
    return BraceRatio.sum(terms)._over(target)


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
