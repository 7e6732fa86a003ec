"""Dual and extremal A-polynomial curves and the series machinery that
extracts BPS invariants from them.

Two independent solvers produce the same data:

* `lagrange_log_y` — Lagrange inversion applied to the functional
  equation Y = X φ(Y) obtained by normalizing the curve (Y = 1 - y²,
  X a sign-and-monomial rescale of x).  `normalize` keeps φ in closed
  form, φ = (1 - λ)^E·R(λ) with R a polynomial and E a signed exponent,
  so the sums Σ_{j<n} [λ^j] φ^n = Σ_{i<n} [λ^(n-1-i)](1 - λ)^(En-1)·[λ^i] R^n
  come out of one running power R^n, one Kronecker-packed int per λ-power,
  and are laid end to end in one int for a single decode;
* `newton_series_solve` — Newton–Hensel lifting of w = y², the list of
  its coefficients in x, directly on the curve polynomial, one
  coefficient per step (`solve_w_series`), which builds D = x·w′/w in
  the same lift: D_r = r·w_r - Σ_{k=1}^{r-1} D_k·w_{r-k} (w(0) = 1), and
  each power w^j (j ≥ 3) the curve has from x·(w^j)′ = j·w^j·D.  A curve
  has no q: the lift keeps each coefficient as a dense pair (lowest doubled
  a-exponent, ints at stride 2, or 1 where the curve's a-parity is not
  affine in the x-degree) and sums each step's products in one kernel
  (`_dense_sum`); once lifted, w and D must satisfy A(x, w) ≡ 0 and
  x·w′ ≡ w·D at one point a^(1/2) mod a prime, with the powers of w
  rebuilt there (`_check_at_point`).

Both emit a GammaSeries: the coefficients of x · d/dx log y(x), from
which the BPS numbers b_{r,m} follow by Möbius inversion.  The solved
branch is always the one with y(0)² = 1 (equivalently Y(0) = 0).

A curve has no q: the rows of a normal form and the w and D Newton returns
are dicts {doubled a-exponent: int}.  Both solvers compute D = 2γ and halve
it once (`_halved`), so a γ is a Fraction only where it is not integral;
`bps_from_gamma` scales the γ back to ints and reads μ from a sieve of its
own, not from the closed forms' `mobius`.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import comb, lcm
from operator import mul

from .closedforms import (MismatchDetected, NonIntegerBPS, UnsupportedKnotKind,
                          check_at_least, check_integer, check_twist_parameter)
from .laurent import (NonInvertibleLeadingTerm, PackingError, _frame_rows, _rows_times, _unpack,
                      _width, lp_add, lp_mono, series_inv)

KIND_FULL = "full"
KIND_PLUS = "extremal_plus"
KIND_MINUS = "extremal_minus"
KINDS = (KIND_FULL, KIND_PLUS, KIND_MINUS)
_ONE = (0, (1,))   # 1 as a dense pair (see `_dense_sum`)
_P, _T = 2 ** 61 - 1, 1_414_213_562_373_095_048   # a prime, and a^(1/2) mod it for `_check_at_point`


class NotNormalizable(Exception):
    """Curve outside the trinomial shape the normal form handles."""


class SingularBranch(Exception):
    """The Newton solver's branch has a non-invertible y-derivative."""


class DualAPoly:
    """A curve polynomial in (x, y) with a-Laurent coefficients.

    `source` maps (x-degree, y-degree, doubled a-exponent) -> an int, read
    by `check_integer`: a float or a Fraction raises ValueError naming its
    term, and so does an odd y-degree, since the curves only see w = y².
    """

    __slots__ = ("source", "kind", "knot", "framing")

    def __init__(self, source, kind, knot, framing):
        if kind not in KINDS:
            raise ValueError(f"curve kind must be one of {KINDS}, got {kind!r}")
        self.source = {}
        for key, c in source.items():
            if key[1] % 2:
                raise ValueError(f"curve term {key} has an odd y-degree")
            if c := check_integer(f"curve coefficient of {key}", c):
                self.source[key] = c
        self.kind = kind
        self.knot = knot
        self.framing = framing

    def __repr__(self):
        return (f"DualAPoly(knot={self.knot!r}, kind={self.kind!r}, "
                f"framing={self.framing}, {len(self.source)} terms)")


def _cleared(terms):
    """Strip zeros and shift y-degrees by a unit monomial so min is 0."""
    terms = {k: c for k, c in terms.items() if c}
    shift = min(yd for _, yd, _ in terms)
    if shift:
        terms = {(xd, yd - shift, da): c for (xd, yd, da), c in terms.items()}
    return terms


# Framing-0 displays, keyed (x-degree, y-degree, doubled a-exponent); every
# framing comes from them by `frame_transform`.
_UNKNOT_CURVES = {
    KIND_FULL: {(0, 2, 0): 1, (0, 0, 0): -1, (1, 2, 1): -1, (1, 0, -1): 1},
    KIND_PLUS: {(0, 2, 0): 1, (0, 0, 0): -1, (1, 2, 0): -1},
    KIND_MINUS: {(0, 2, 0): 1, (0, 0, 0): -1, (1, 0, 0): 1},
}


def _twist_curve(p, kind):
    """Framing-0 extremal display of the twist knot K_p."""
    if p <= -1:
        if kind == KIND_MINUS:
            return {(1, 0, 0): 1, (0, 4, 0): -1, (0, 6, 0): 1}
        return {(0, 0, 0): 1, (0, 2, 0): -1, (1, 4 * abs(p) + 2, 0): 1}
    if kind == KIND_MINUS:
        return {(0, 0, 0): 1, (0, 2, 0): -1, (1, 4, 0): -1}
    return {(0, 0, 0): 1, (0, 2, 0): -1, (1, 4 * p + 4, 0): -1}


def make_curve(knot, kind, tau):
    """Displayed curve polynomial for the framed unknot or twist knot: the
    framing change formula `frame_transform` applied to the framing-0
    display, times the unit (-1)^tau for the unknot.

    knot is "unknot" or ("twist", p) with p <= -1 or p >= 2; twist
    knots only have extremal curves.  An unknown kind or a non-integer
    tau or p raises ValueError.
    """
    if knot == "unknot":
        # an unknown kind gets no display and fails in DualAPoly
        terms = _UNKNOT_CURVES.get(kind, {})
    elif isinstance(knot, tuple) and len(knot) == 2 and knot[0] == "twist":
        if kind == KIND_FULL:
            raise UnsupportedKnotKind("twist knots only have extremal curves")
        terms = _twist_curve(check_twist_parameter(knot[1]), kind)
    else:
        raise UnsupportedKnotKind(knot)
    curve = frame_transform(DualAPoly(terms, kind, knot, 0), tau)
    if knot == "unknot" and curve.framing % 2:
        curve = DualAPoly({k: -c for k, c in curve.source.items()}, kind, knot, curve.framing)
    return curve


def frame_transform(curve, tau):
    """Substitute x -> (-1)^tau y^(2 tau) x and clear the y-monomial unit.

    Composes additively in tau (up to the cleared unit); the stored
    framing field accumulates.  A non-integer tau raises ValueError.
    """
    tau = check_integer("framing tau", tau)
    terms = {}
    for (xd, yd, da), c in curve.source.items():
        terms[(xd, yd + 2 * tau * xd, da)] = c if (tau * xd) % 2 == 0 else -c
    return DualAPoly(_cleared(terms), curve.kind, curve.knot, curve.framing + tau)


# Functional-equation form Y = X φ(Y) of a curve, Y = 1 - y².  φ(λ) =
# (1 - λ)^E·R(λ), λ standing for Y: `rest` lists the coefficients of the
# polynomial R by power of λ, each {doubled a-exponent: int}, with R(1) ≠ 0,
# and `power` is the int E: framing τ adds τ to E and leaves R alone.  `sigma`
# (±1) and `e` give the rescale X = σ a^(e/2) x; φ(0) = R(0) is a unit of the
# coefficient field.  `order` bounds the orders `lagrange_log_y` may be asked for.
CurveNormalForm = namedtuple("CurveNormalForm", "rest power sigma e order")


def normalize(curve, order):
    """Rewrite a trinomial-shaped curve as Y = X φ(Y), for Lagrange orders up
    to `order`.

    The x⁰ part must be cu·(w^(J+1) - w^J) in w = y² with no
    a-dependence, the rest linear in x; then φ = Σ (c/cu)·a^(da/2)·(1-λ)^k
    over the x¹ terms c·a^(da/2)·w^(J+k) x (each c a multiple of cu, which
    is ±1 on every `make_curve` curve), kept as (1 - λ)^E·R with E = min k
    and R = Σ (c/cu)·a^(da/2)·(1-λ)^(k-E).  The terms with k = E have
    distinct a-exponents, so R(1) ≠ 0.  The rescale unit is read off the
    lowest a-term of φ(0) = R(0), whose coefficient must be ±1.  Anything
    else raises NotNormalizable.
    """
    order = check_at_least("order", order, 1)
    x0 = {}
    x1 = {}
    for (xd, yd, da), c in curve.source.items():
        if xd == 0:
            if da:
                raise NotNormalizable("a-dependent x^0 part")
            x0[yd // 2] = c
        elif xd == 1:
            x1[(yd // 2, da)] = c
        else:
            raise NotNormalizable("degree in x exceeds 1")
    if len(x0) != 2 or not x1:
        raise NotNormalizable("x^0 part is not a w-binomial")
    j1, j0 = max(x0), min(x0)
    if j1 != j0 + 1 or x0[j1] != -x0[j0]:
        raise NotNormalizable("x^0 part is not cu*(w^(J+1) - w^J)")
    cu, j = x0[j1], j0

    low = min(wdeg for wdeg, _ in x1)
    rest = [{} for _ in range(max(wdeg for wdeg, _ in x1) - low + 1)]
    for (wdeg, da), c in sorted(x1.items()):
        quo, rem = divmod(c, cu)
        if rem:
            raise NotNormalizable(f"x^1 coefficient {c} is not a multiple of the unit {cu}")
        k = wdeg - low
        for i in range(k + 1):
            rest[i][da] = rest[i].get(da, 0) + quo * comb(k, i) * (-1) ** i
    rest = [{da: c for da, c in row.items() if c} for row in rest]

    if not rest[0]:
        raise NotNormalizable("phi(0) = 0")
    m = min(rest[0])
    lead = rest[0][m]
    if lead not in (1, -1):
        raise NotNormalizable(f"leading unit {lead} is not a sign")
    return CurveNormalForm([{da - m: lead * c for da, c in row.items()} for row in rest],
                           low - j, lead, m, order)


class GammaSeries:
    """Coefficients of x·d/dx log y(x) = Σ γ_{r,m} x^r a^(m/2).

    `coefficients` maps (r, doubled a-exponent m) -> γ_{r,m} for
    1 <= r <= order, an int or a Fraction stored as given; zero values are
    not stored.  An order below 1, a key with r outside 1..order or any
    other value raises ValueError.
    """

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients, order):
        order = check_at_least("order", order, 1)
        for key, c in coefficients.items():
            if key[0] not in range(1, order + 1):
                raise ValueError(f"gamma key {key} needs r in 1..{order}")
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"gamma coefficient at {key} must be an int or a "
                                 f"Fraction, got {c!r}")
        self.coefficients = {k: c for k, c in coefficients.items() if c}
        self.order = order

    def __eq__(self, other):
        return (isinstance(other, GammaSeries)
                and self.coefficients == other.coefficients
                and self.order == other.order)

    def __repr__(self):
        return f"GammaSeries(order={self.order}, {len(self.coefficients)} terms)"


def _halved(doubled, order):
    """The GammaSeries γ = D/2 of the nonzero ints D = 2γ keyed (r, m), the
    one place the curve pipeline builds a rational: a Fraction when D is odd.
    The solvers' keys and values need no check, so the series is made
    without the constructor's."""
    gamma = object.__new__(GammaSeries)
    gamma.coefficients = {k: d // 2 if d % 2 == 0 else Fraction(d, 2)
                          for k, d in doubled.items() if d}
    gamma.order = order
    return gamma


def lagrange_log_y(nf, order):
    """GammaSeries by Lagrange inversion of Y = X φ(Y).

    [X^n] log(1 - Y) = -(1/n)·Σ_{j<n} [λ^j] φ^n, log y = ½ log(1 - Y) and
    the rescale adds σ^n a^(ne/2): with φ = (1 - λ)^E·R and k = En - 1 the
    ints 2γ_n = -σ^n Σ_{j<n} W_j·[λ^(n-1-j)] R^n, W_j = [λ^j](1 - λ)^k =
    C(j-k-1, j) for k < 0 and (-1)^j·C(k, j) for k ≥ 0, are halved by
    `_halved`.  rows[i] is [λ^i] R^n above a^(n·low/2) at a = 2^b
    (a^(1/2) = 2^b if R mixes a-parities), nonzero only below
    top = n·deg R + 1, so each sum reads the rows i < min(n, top); its digits
    stay under ‖R‖₁^n·Σ_{j<n} |W_j|, at most ‖R‖₁^order times
    C(order(1-E), 1-E·order) for E ≤ 0 and 2^(E·order) for E > 0: one b
    serves all n.  The sums, each followed by one zero guard digit, are laid
    end to end by joining neighbours in pairs and read by one `_unpack`; a
    nonzero guard digit, a sum reaching past its a-span, raises PackingError."""
    order = check_integer("order", order)
    if not 1 <= order <= nf.order:
        raise ValueError(f"order must be in 1..{nf.order} (the order of the "
                         f"normal form), got {order}")
    rest, power = nf.rest[:order], nf.power
    low, high, step, norm, terms = _frame_rows(rest)
    frame = (0, 0, 0, 0, norm ** order * (comb(order * (1 - power), 1 - power * order)
                                          if power <= 0 else 2 ** (power * order)))
    _, b = _width(frame)
    rows, parts, keys = [1] + [0] * (order - 1), [], []
    for n in range(1, order + 1):
        top = min(order, n * (len(rest) - 1) + 1)
        _rows_times(rows, terms, b, top)
        k, sign = power * n - 1, -(nf.sigma ** n)   # rows[n-1-j] weighs W_j
        total = sum((sign * comb(j - k - 1, j) if k < 0 else
                     (-sign if j % 2 else sign) * comb(k, j)) * row
                    for j, row in zip(range(n - 1, -1, -1), rows[:min(n, top)]) if row)
        span = n * (high - low) // step + 1
        parts.append((total, span + 1))
        keys += [(n, m) for m in range(n * (low + nf.e), n * (low + nf.e) + step * span, step)]
        keys.append((n, None))
    while len(parts) > 1:
        pairs = [(lo + (hi << b * size), size + more)
                 for (lo, size), (hi, more) in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    (packed, size), = parts
    out = {}
    for (_, i), c in _unpack(packed, frame, b, size, 1).items():
        n, m = keys[i]
        if m is None:
            raise PackingError(f"the Lagrange sum at n = {n} reaches past its a-span "
                               f"at width {b}")
        out[(n, m)] = c
    return _halved(out, order)


def _dense_sum(terms, stride, plus=()):
    """Σ k·p over the addends (k, p) of `plus` + Σ k·p·q over the products
    (k, p, q) of `terms`, the lift's one kernel, on dense pairs (low, cs) with
    cs[i] at a^((low + stride·i)/2) and () for 0: plain index loops fill one
    list sized from the operands' ranges, trimmed to its nonzero ends."""
    low = top = None
    for k, p in plus:
        if p:
            a = p[0]
            b = a + stride * (len(p[1]) - 1)
            if low is None or a < low:
                low = a
            if top is None or b > top:
                top = b
    for k, p, q in terms:
        if p and q:
            a = p[0] + q[0]
            b = a + stride * (len(p[1]) + len(q[1]) - 2)
            if low is None or a < low:
                low = a
            if top is None or b > top:
                top = b
    if low is None:
        return ()
    acc = [0] * ((top - low) // stride + 1)
    for n, (k, p) in enumerate(plus):
        if p:
            i = (p[0] - low) // stride
            if k == 1 and not n:   # acc is all 0 before the first addend
                acc[i:i + len(p[1])] = p[1]
            else:
                for c in p[1]:
                    acc[i] += k * c
                    i += 1
    for k, p, q in terms:
        if p and q:
            (a1, ps), (a2, qs) = p, q
            if len(ps) > len(qs):
                ps, qs = qs, ps
            i = (a1 + a2 - low) // stride
            for c1 in ps:
                if c1:
                    c1 *= k
                    j = i
                    for c2 in qs:
                        acc[j] += c1 * c2
                        j += 1
                i += 1
    while acc and not acc[-1]:
        acc.pop()
    if not acc:
        return ()
    lo = 0
    while not acc[lo]:
        lo += 1
    del acc[:lo]
    return low + stride * lo, acc


def _check_at_point(curve, w, dlog):
    """MismatchDetected unless A(x, w) ≡ 0 and x·w′ ≡ w·D mod x^len(w) at a^(1/2) = _T
    mod _P, every w^j by plain products: this reads no power the lift kept."""
    das = set(chain(*w, *dlog, (da for _, _, da in curve.source)))
    n, at = len(w), {min(das): pow(_T, min(das), _P)}
    for da in range(min(das) + 1, max(das) + 1):
        at[da] = at[da - 1] * _T % _P
    W, D = ([sum(map(mul, p.values(), map(at.__getitem__, p))) % _P for p in s] for s in (w, dlog))
    powers = [[1] + [0] * (n - 1), W]
    for _ in range(max(yd for _, yd, _ in curve.source) // 2 - 1):
        powers.append([sum(map(mul, powers[-1], W[r::-1])) % _P for r in range(n)])
    terms = [(xd, powers[yd // 2], c * at[da]) for (xd, yd, da), c in curve.source.items()]
    if any(sum(c * u[r - xd] for xd, u, c in terms if xd <= r) % _P for r in range(n)):
        raise MismatchDetected(f"A(x, w) of {curve!r} is nonzero at a^(1/2) = {_T} mod 2^61 - 1")
    if any((r * W[r] - sum(map(mul, W, D[r::-1]))) % _P for r in range(n)):
        raise MismatchDetected(f"x·w′ ≠ w·D for {curve!r} at a^(1/2) = {_T} mod 2^61 - 1")


def solve_w_series(curve, order):
    """Solve curve(x, y, a) = 0 for w = y² as a series with w(0) = 1: the
    pair (w, D) of the lists of the first `order` coefficients of w and of
    D = x·w′/w.

    Linear Newton–Hensel lifting, one coefficient per step.  With w(0) = 1,
    [x^r] A(w) = s·w_r + R_r, where s = ∂A/∂w(0, 1) sums j·c·a^(da/2) over
    the x⁰ terms c·a^(da/2)·w^j and R_r reads only w_1..w_{r-1}; so
    w_r = -s⁻¹·R_r, and R_0 = [x⁰]A(1) must vanish.  D·w = x·w′ gives
    D_r = r·w_r + E_r with E_r = -Σ_{k=1}^{r-1} D_k·w_{r-k}, computed once
    per step.  Only the powers u = w^j (j ≥ 2) the curve has are kept, each
    one coefficient longer per step: first without w_r (the pair sum over
    i = 1..r-1 for w², and for j ≥ 3 j·(E_r + Σ_{k=1}^{r-1} D_k·u_{r-k})/r,
    by x·u′ = j·u·D), then plus j·w_r once w_r is known.  The last step
    lengthens only the powers an x⁰ term reads, as no later step reads the
    rest.  No product coefficient is computed twice.  A curve has no q, so
    each coefficient is a dense pair in a^(1/2) (`_dense_sum`), at stride 2
    when every term's a-parity is α + β·(x-degree), as [x^r] of w, D and
    each w^j then has parity β·r, and 1 otherwise; w and D come back as
    dicts {doubled a-exponent: nonzero int}.

    Raises SingularBranch when s is not a unit, and MismatchDetected when
    R_r + s·w_r ≠ 0 at some r (w_0 = 1 at r = 0), when a division by r
    is not exact, or when the lifted w and D fail `_check_at_point`.
    """
    order = check_at_least("order", order, 1)
    stride = 1 + any(len({(da - b * xd) % 2 for xd, _, da in curve.source}) == 1 for b in (0, 1))
    terms = [(xd, yd // 2, (da, [c])) for (xd, yd, da), c in sorted(curve.source.items())]
    slope = {}
    for (xd, yd, da), c in curve.source.items():
        if not xd:
            slope = lp_add(slope, lp_mono(0, da, yd // 2 * c))
    try:
        inverse = series_inv([slope])[0]
    except NonInvertibleLeadingTerm as exc:
        raise SingularBranch(curve) from exc
    slope, inverse = ({da: c for (_, da), c in p.items()} for p in (slope, inverse))
    slope, inverse = ((min(p), [p.get(da, 0) for da in range(min(p), max(p) + 1, stride)])
                      if p else () for p in (slope, inverse))
    w, dlog = [_ONE], []
    kept = {j: [_ONE] for j in sorted({j for _, j, _ in terms if j > 1})}
    # powers[j][r] is [x^r] w^j without w_r until the step at r adds j·w_r
    powers = {0: [_ONE] + [()] * order, 1: w, **kept}
    # at the last step r = order - 1 only an x⁰ term reads a kept power at r
    last = {j: kept[j] for xd, j, _ in terms if not xd and j in kept}
    for r in range(order):
        # E_r, shared by D_r and by every kept w^j with j ≥ 3
        e_r = _dense_sum([(-1, dlog[k], w[r - k]) for k in range(1, r)], stride)
        live = kept if r < order - 1 else last
        if r:
            w.append(())
            for j, u in live.items():
                if j == 2:
                    acc = _dense_sum([(1 if 2 * i == r else 2, w[i], w[r - i])
                                      for i in range(1, r // 2 + 1)], stride)
                else:
                    acc = _dense_sum([(1, dlog[k], u[r - k]) for k in range(1, r)], stride,
                                     [(1, e_r)])
                    for i, c in enumerate(acc and acc[1]):
                        acc[1][i], rem = divmod(j * c, r)
                        if rem:
                            raise MismatchDetected(f"x·(w^{j})′ = {j}·w^{j}·D for {curve!r} "
                                                   f"is not exact at x^{r}")
                u.append(acc)
        rest = _dense_sum([(1, mono, powers[j][r - xd]) for xd, j, mono in terms if xd <= r],
                          stride)
        step = _dense_sum([(-1, inverse, rest)], stride) if r else ()
        if _dense_sum([(1, slope, step)], stride, [(1, rest)]):
            raise MismatchDetected(f"Newton residual of {curve!r} is nonzero at x^{r}")
        if r:
            w[r] = step
            for j, u in live.items():
                u[r] = _dense_sum([], stride, [(1, u[r]), (j, step)])
        dlog.append(_dense_sum([], stride, [(1, e_r), (r, step)]))
    w, dlog = ([{p[0] + stride * i: c for i, c in enumerate(p[1]) if c} if p else {} for p in s]
               for s in (w, dlog))
    _check_at_point(curve, w, dlog)
    return w, dlog


def newton_series_solve(curve, order):
    """GammaSeries from the Newton-solved branch: log y = ½ log w, so
    γ_r = ½·D_r with D = x·w′/w, the ints `solve_w_series` builds in its
    lift, halved once by `_halved`."""
    order = check_at_least("order", order, 1)
    dlog = solve_w_series(curve, order + 1)[1]
    return _halved({(r, da): c for r in range(1, order + 1) for da, c in dlog[r].items()}, order)


def _mobius_table(n):
    """[0, μ(1), ..., μ(n)] from one sieve: each prime p flips the sign at its
    multiples and zeroes it at those of p²."""
    mu, composite = [0] + [1] * n, bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            for k in range(p, n + 1, p):
                composite[k], mu[k] = 1, -mu[k]
            for k in range(p * p, n + 1, p * p):
                mu[k] = 0
    return mu


def bps_from_gamma(gamma):
    """BPS numbers b_{r,m} = (2/r²) Σ_{d | gcd(r,m)} μ(d) γ_{r/d, m/d}.

    gcd(r, 0) = r.  One pass pushes each int L·γ_{s,n} = numerator·(L //
    denominator) (L the lcm of the denominators, 2 at most for the solvers'
    γ = D/2) to every (sd, nd) with sd <= order, weighted by μ(d) from one
    sieve of this module's own (`_mobius_table`).  Returns a map (r, m) ->
    integer over the γ-support closure with zero values dropped, in sorted
    (r, m) order; the first non-integral value raises NonIntegerBPS."""
    scale = lcm(*(g.denominator for g in gamma.coefficients.values()))
    mu = _mobius_table(gamma.order)
    totals = {}
    for (s, n), g in gamma.coefficients.items():
        g = g.numerator * (scale // g.denominator)
        for d in range(1, gamma.order // s + 1):
            if mu[d]:
                key = (s * d, n * d)
                totals[key] = totals.get(key, 0) + mu[d] * g
    out = {}
    for (r, m), total in sorted(totals.items()):
        b, rest = divmod(2 * total, scale * r * r)
        if rest:
            raise NonIntegerBPS((r, m, Fraction(2 * total, scale * r * r)))
        if b:
            out[(r, m)] = b
    return out
