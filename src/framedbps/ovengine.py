"""The plethystic pipeline: connected invariants, p-polynomials, integer
N-tables, and strong-integrality parities.

The flow is

    link sum  --log(1 + W)-->  connected F  --Möbius + Adams-->
    p-polynomial  --coefficients-->  N-table,

with every intermediate value an int numerator whose brace denominator
is fixed by what it is.  F_v travels as (D, c), F = D / c, c = v_t the
first nonzero color: its one rational is the 1/c of the logarithm, and
D = [x^v] x_t d/dx_t log Z has int coefficients over {c} on an axis and
over 1 off it.  The link sum separates over the components (see
`connected_F`) into log(1 + W) (`_log_w`), whose h_i = G_i / G_0 `_h`
divides exactly one brace at a time, and the framed unknot's D over {r},
from its q-difference equation (`_unknot_D`): two lists of nodes that one
engine, `_packed`, runs on Kronecker-packed big ints.  `p_poly` sums
the numerators `connected_F` wraps, clears the one brace left and then
divides by c: checked exact divisions, where the integrality structure
either survives or raises.  A table's only brace arithmetic is
`qsymbols._mul_brace` and `_div_brace` on int dicts: it reads the
numerators of the unknot's H and of `connected_F`'s D out of their
`BraceRatio`s and does no arithmetic on them.  The oracle,
`connected_F_box`, computes with `BraceRatio`s: it takes the logarithm
of Z = sum_v H_v x^v by one recurrence over H on the color box, every
vector of the box in one pass.  It reads H alone, from `homfly_link`,
and shares only the cores C_i, `link_factor` and the unknot's H (the G_0
of each h) with `connected_F`; on one colored component it shares
nothing, as `_unknot_D` never reads H.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import gcd, inf
from operator import mul, sub

from .closedforms import MismatchDetected, mobius_divisors
from .laurent import _addmul, _frame, _pack, _shift, _unpack, _width, lp_one, lp_sub
from .links import LINKS, check_link, homfly_link, link_factor
from .qsymbols import BraceRatio, _div_brace, _mul_brace


class NonIntegerInvariant(Exception):
    """A p-polynomial coefficient that must be an integer is not.

    Carries (i, j, value): the a- and q-exponents (as exact halves)
    and the offending rational coefficient.
    """


def connected_F_box(link, top, framings):
    """Connected invariants of the link at the given framings on its whole
    color box, {v: (D_v, c_v)} for every nonzero v <= top, each the pair
    that `connected_F(link, v, framings)` gives, from Z = sum_v H_v x^v
    alone.  With t = u's first colored component and c_u = u_t,
    D_u = x_t d/dx_t log Z and D Z = x_t d/dx_t Z give

        D_u = u_t H_u - sum_{0<w<u} D_w H_(u-w),

    with D_w = w_t F_w = 0 wherever w_t = 0.  Every w <= u with w_t > 0
    is zero before t, so it takes the same t, and comes before u in
    `product` order: one pass over the box reads only values it has made.
    Each H is `homfly_link`'s, in the caller's component order, and nothing
    else is read.  The oracle of `verify connected`.
    """
    top, taus = check_link(link, top, framings)
    if not any(top):
        raise ValueError(f"color vector {top} must be nonnegative and not all zero")
    box = [u for u in product(*(range(r + 1) for r in top)) if any(u)]
    h = {u: homfly_link(link, u, taus) for u in box}
    f = {}
    for u in box:
        t = next(i for i, r in enumerate(u) if r)
        f[u] = h[u].scale(u[t]).sub(BraceRatio.sum(
            f[w][0].mul(h[tuple(a - b for a, b in zip(u, w))])
            for w in product(*(range(a + 1) for a in u)) if w[t] and w != u)), u[t]
    return f


def connected_F(link, rvec, framings):
    """Connected invariant F_rvec = [x^rvec] log(1 + sum_v H_v x^v) of the
    link at the given framings as the pair (D, c), F = D / c with c the
    first nonzero color and D an exact ratio with int coefficients: an int
    numerator over {c} on an axis and over 1 elsewhere.

    The sum is prod_t G_0(x_t) (1 + W) with W = sum_{i>=1} C_i prod_t h_i(x_t),
    G_i(x) = sum_r link_factor(i, r, tau) x^r and h_i = G_i / G_0.
    So F is the framed unknot's on one colored component (`_unknot_D`), 0
    on any other vector with a zero color, and [x^rvec] log(1 + W)
    (`_log_w`) when every component is colored.  Each numerator is cached
    per link and framings in the given component order, so a swapped twin
    is computed apart; the `BraceRatio` around it is only its wrapper, and
    `p_poly` reads the numerator back.
    """
    rvec, taus = check_link(link, rvec, framings)
    if not any(rvec):
        raise ValueError(f"color vector {rvec} must be nonnegative and not all zero")
    c = next(r for r in rvec if r)
    colored = [(r, tau) for r, tau in zip(rvec, taus) if r]
    if len(colored) == 1:
        return BraceRatio(_unknot_D(*colored[0]), {c: 1}), c
    return BraceRatio(_log_w(link, taus, rvec) if len(colored) == len(rvec) else {}), c


def _packed(inputs, nodes, out):
    """The polynomial at key `out` of a recurrence on Kronecker-packed ints.
    `inputs` maps keys to (frame, halved) pairs (`_framed`); `nodes`, in
    evaluation order, are (key, terms, n), a term (c, (dq, da), keys) being
    c q^(dq/2) a^(da/2) times the values at `keys` and a node its terms' sum
    over n.  One sweep per node sums each term's frame from its operands'
    frames (corners add, norms multiply) and keeps the node's hull as a
    running least corner, greatest top and norm sum; a node with no term
    is zero and drops each term that reads it.  One (span, b) holds
    `out` and each sum over n > 1 (`laurent._width`); each product is
    shifted onto its node's corner, the product of its operands but the
    last made once for all terms that share it.  A sum over n > 1 is checked
    when unpacked, MismatchDetected if n does not divide a coefficient."""
    frame, plan, heads = {key: f for key, (f, _) in inputs.items()}, [], {}
    for key, terms, n in nodes:
        live, q0, a0, q1, a1, norm = [], inf, inf, -inf, -inf, 0
        for c, (dq, da), keys in terms:
            lq, la, hq, ha, m = dq, da, dq, da, abs(c)
            for f in map(frame.get, keys):
                if not f:
                    break
                lq, la, hq, ha, m = lq + f[0], la + f[1], hq + f[2], ha + f[3], m * f[4]
            else:
                live.append((c, keys, (lq, la)))
                q0, a0, norm = (lq if lq < q0 else q0), (la if la < a0 else a0), norm + m
                q1, a1 = (hq if hq > q1 else q1), (ha if ha > a1 else a1)
        hull = (q0, a0, q1, a1, norm) if live else None
        frame[key] = (q0, a0, q1, a1, norm // n) if live else None
        plan.append((key, live, n, hull))
    span, b = map(max, zip(*map(_width, [frame[out]] + [
        hull for _, live, n, hull in plan if n > 1 and live])))
    value = {key: _pack(halved, b, span) for key, (_, halved) in inputs.items()}
    for key, live, n, hull in plan:
        total = 0
        for c, keys, corner in live:
            x = value[keys[-1]]
            if len(keys) > 1:
                head = keys[:-1]
                if head not in heads:
                    heads[head] = reduce(mul, map(value.get, head))
                x *= heads[head]
            x = _shift(x, corner, hull, b, span)
            total = total - x if c == -1 else total + (x if c == 1 else c * x)
        if n > 1 and live:
            if any(c % n for c in _unpack(total, hull, b, span).values()):
                raise MismatchDetected(f"{n} {key} is not a multiple of {n}")
            total //= n
        value[key] = total
    return _unpack(value[out], frame[out], b, span)


def _unknot_nodes(r, tau):
    """`_packed`'s (inputs, nodes, out) for `_unknot_D(r, tau)`: the inputs
    y_0 = rho_0 = 1, the nodes y_n and L_n for n <= r, M_n and rho_n for
    n < r, and D_r = (-1)^(tau r) a^(-r/2) L_r, keyed by their names."""
    y, ell, m, rho = ([f"{x}_{n} of the unknot at framing {tau}" for n in range(r + 1)]
                      for x in ("y", "L", "M", "rho"))
    sign, js = (1, range(tau)) if tau >= 0 else (-1, range(tau, 0))   # s_tau = sign sum_js t^j
    nodes = []
    for n in range(1, r + 1):
        nodes.append((y[n], [(1, (2 * tau * k, 2), (rho[n - 1 - k], y[k])) for k in range(n)]
                      + [(-1, (0, 0), (rho[n - 1],))], 1))
        nodes.append((ell[n], [(n, (0, 0), (y[n],))]
                      + [(-1, (0, 0), (ell[k], y[n - k])) for k in range(1, n)], 1))
        if n < r:
            nodes.append((m[n], [(sign, (2 * j * n, 0), (ell[n],)) for j in js], 1))
            nodes.append((rho[n], [(1, (0, 0), (m[k], rho[n - k])) for k in range(1, n + 1)], n))
    nodes.append(("D", [(-1 if tau * r % 2 else 1, (0, -r), (ell[r],))], 1))
    return {y[0]: _frame(lp_one()), rho[0]: _frame(lp_one())}, nodes, "D"


@lru_cache(maxsize=None)
def _unknot_D(r, tau):
    """D_r = r F_r of the framed unknot from its q-difference equation.

    With z = (-1)^tau a^(-1/2) q^(1/2) x, H_r x^r = c_r z^r with
    (1 - q^(r+1)) c_(r+1) = q^(tau r) (1 - a q^r) c_r, so the series Z of
    the c_r has Z(z) - Z(qz) = z [Z(q^tau z) - a Z(q^(tau+1) z)].  For
    y = Z(qz) / Z(z), R = Z(q^tau z) / Z(z) and L = z (log y)', with
    y_0 = rho_0 = 1,

        y_n = -rho_(n-1) + a sum_(k<n) rho_(n-1-k) q^(tau k) y_k,
        L_n = n y_n - sum_(0<k<n) L_k y_(n-k),
        n rho_n = sum_(0<k<=n) M_k rho_(n-k),  M_k = L_k s_tau(q^k),

    s_tau(t) = (t^tau - 1) / (t - 1), zero at tau = 0; at q = 1 the
    equation reads 1 - y = z y^tau (1 - a y).  Then
    D_r = (-1)^(tau r) a^(-r/2) L_r / {r}, over the least denominator
    integrality allows: F_r = sum_{d|r} f_{r/d}(q^d, a^d) / d with f_u {1}
    a Laurent polynomial.  The nodes (`_unknot_nodes`) run in `_packed`,
    which checks each n rho_n before it divides it.  No brace is raised or
    divided, and nothing is shared with the oracle `connected_F_box`, which
    reads H from `homfly_link`.  Returns the int numerator, over {r}."""
    return _packed(*_unknot_nodes(r, tau))


@lru_cache(maxsize=None)
def _h(i, r, tau):
    """[x^r] h_i = G_i / G_0 at framing tau, a Laurent polynomial:

        h_r = [x^r] G_i - sum_{0<s<=n} [x^s] G_0 h_{r-s},   n = r - i,

    with [x^r] G_i = link_factor(i, r, tau), over {n}!, and G_0 the framed
    unknot's series, [x^s] G_0 = H_s from `homfly_link`, over {s}!.
    On int numerators, {n}! h_r is [x^r] G_i's numerator less
    sum_s {s+1}...{n} H_s h_{r-s}, that sum raised Horner-style (R <- R {s}
    + H_s h_{r-s}, one `_mul_brace` per s).  `_div_brace` then divides by
    {1}, ..., {n} in turn, InexactDivision if one does not divide."""
    n, rest = r - i, {}
    for s in range(1, n + 1):
        h_s = homfly_link("unknot", (s,), (tau,)).num
        rest = _addmul(_mul_brace(rest, s), h_s, _h(i, r - s, tau))
    num = lp_sub(link_factor(i, r, tau).num, rest)
    for s in range(1, n + 1):
        num = _div_brace(num, s)
    return num


@lru_cache(maxsize=None)
def _framed(link, i, r=0, tau=0):
    """C_i of the link (r = 0), or h_{i,r} at tau (link None, so that every
    link shares it), as its (frame, halved terms)."""
    return _frame(_h(i, r, tau) if r else LINKS[link].core(i))


def _log_w_nodes(link, taus, v):
    """`_packed`'s (inputs, nodes, out) for `_log_w(link, taus, v)`: on every
    u <= v with no zero color, W_u as its terms C_i prod_t h_{i,u_t} (h at
    tau_t), then D_u; the inputs are keyed by `_framed`'s arguments."""
    nodes, low = [], range(1, min(v) + 1)
    for u in product(*(range(1, r + 1) for r in v)):
        w = [((link, i), *((None, i, r, t) for r, t in zip(u, taus))) for i in range(1, min(u) + 1)]
        nodes.append((("W", u), [(1, (0, 0), keys) for keys in w], 1))
        nodes.append((("D", u), [(u[0], (0, 0), (("W", u),))] + [
            (-1, (0, 0), (("D", s), ("W", tuple(map(sub, u, s)))))
            for s in product(*(range(1, r) for r in u))], 1))
    inputs = {key: _framed(*key) for key in [(link, i) for i in low] + [
        (None, i, r, tau) for i in low for top, tau in zip(v, taus) for r in range(i, top + 1)]}
    return inputs, nodes, ("D", v)


@lru_cache(maxsize=None)
def _log_w(link, taus, v):
    """D_v = v_0 [x^v] log(1 + W) for v with no zero color, from
    (1 + W) x_0 d/dx_0 log(1 + W) = x_0 d/dx_0 W:

        D_v = v_0 W_v - sum_{0<u<v} D_u W_{v-u},

    only u and v - u with no zero color counting (D and W vanish elsewhere).
    The nodes (`_log_w_nodes`) run in `_packed`, whose frame of D_v bounds
    its coefficients by B_u = u_0 |W_u|_1 + sum B_s |W_{u-s}|_1."""
    return _packed(*_log_w_nodes(link, taus, v))


def p_poly(link, rvec, framings):
    """The p-polynomial: Möbius/Adams sum of connected invariants times
    (q^(1/2) - q^(-1/2))^(2-k), k the number of nonzero colors.

    With F_v = D_v / c (`connected_F`), sum_{d|v} mu(d)/d Adams_d(F_{v/d})
    is sum_d mu(d) Adams_d(D_{v/d}) / c, since v/d has first color c/d.
    That integral sum is formed in place on the int numerators of the D's,
    over {c} when k = 1 (Adams_d takes {c/d} to {c}) and over 1 otherwise.
    For k = 1 it is multiplied by {1} and divided by {c}, k = 2 leaves it
    as it is, and k = 3 divides it by {1}: each a `_div_brace`, the place
    an exact division is demanded of the whole pipeline, so
    InexactDivision here means the integrality structure failed (or a bug
    upstream of it did).  Every coefficient is then divided by c into an
    int; if any is not a multiple of c, the one at the least key raises
    NonIntegerInvariant(i, j, value).
    """
    rvec, framings = check_link(link, rvec, framings)
    k = sum(1 for r in rvec if r)
    if k not in (1, 2, 3):
        raise ValueError(f"color vector {rvec} needs 1 to 3 nonzero colors")
    c = next(r for r in rvec if r)
    total = {}
    for d, mu in mobius_divisors(gcd(*rvec)):
        num = connected_F(link, tuple(r // d for r in rvec), framings)[0].num
        for (dq, da), v in num.items():
            key = dq * d, da * d
            total[key] = v = total.get(key, 0) + mu * v
            if not v:
                del total[key]
    if k == 1:
        total = _div_brace(_mul_brace(total, 1), c)
    elif k == 3:
        total = _div_brace(total, 1)
    bad = [key for key, v in total.items() if v % c] if c > 1 else None
    if bad:
        dq, da = min(bad)
        raise NonIntegerInvariant(Fraction(da, 2), Fraction(dq, 2), Fraction(total[dq, da], c))
    return {key: v // c for key, v in total.items()} if c > 1 else total


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

    def __repr__(self):
        return (f"OVTable(colors={self.colors}, framings={self.framings}, "
                f"{len(self.entries)} entries)")


def ov_table(link, rvec, framings):
    """The p-polynomial's coefficients as an integer table keyed (2i, 2j)."""
    rvec, framings = check_link(link, rvec, framings)
    p = p_poly(link, rvec, framings)
    k = sum(1 for r in rvec if r)
    return OVTable(rvec, framings, k, {(da, dq): c for (dq, da), c in p.items()}, p)


def strong_integrality_check(table):
    """True iff every entry's doubled exponents match the parity pair
    (e1, e2) = (sum r mod 2, (sum r + k) mod 2)."""
    e1, e2 = table.epsilon
    return all(da % 2 == e1 and dq % 2 == e2
               for (da, dq), n in table.entries.items() if n)
