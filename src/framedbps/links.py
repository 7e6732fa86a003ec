"""Framed colored HOMFLYPT invariants of the unknot, Whitehead link, and
Borromean rings (symmetric colors).

All three come from one cyclotomic-type sum, `homfly_link`, that differs
per link only in its core C_i(a, q); each component enters the sum through
one factor, `link_factor`, which also carries that component's framing.
Invariants come back as exact `BraceRatio` values: none of them is a
Laurent polynomial on its own (brace-factorial denominators survive), and
the ratio form keeps every later division checked-exact.

Conventions baked in here and validated against the integer tables:

* products {n;a}_i are descending for base n >= 0 (in particular
  {0;a}_2 = {0;a}{-1;a}) and single factors for the only negative base
  (n = -1) the sums below ever produce, where direction is moot;
* a component colored r at framing t gains (-1)^(r t) q^(t r(r-1)/2) — the
  sign exponent is taken mod 2, so writing |t| for t changes nothing.
"""

from collections import namedtuple
from functools import lru_cache
from operator import index

from .closedforms import check_at_least
from .laurent import lp_mono, lp_mul, lp_neg, lp_one, lp_sub
from .qsymbols import (BRACE, BRACE_A, BraceRatio, brace_factorial_multiset,
                       qsym_falling)


class RecursionViolated(Exception):
    """The framed unknot recursion failed at some color n."""


def check_link(link, colors, framings):
    """The color and framing vectors of the framed link as int tuples, one
    entry per component.  Raises ValueError for an unknown link, a vector
    of the wrong length, a non-integer entry or a negative color.
    """
    if link not in LINKS:
        raise ValueError(f"unknown link {link!r}")
    n = LINKS[link].components
    vectors = []
    for name, vector in (("framings", framings), ("colors", colors)):
        try:
            vector = tuple(map(index, vector))
        except TypeError:
            raise ValueError(f"{link} {name} must be integers, got {vector!r}") from None
        if len(vector) != n:
            raise ValueError(f"{link} needs {n} {name}, got {vector}")
        vectors.append(vector)
    framings, colors = vectors
    if min(colors) < 0:
        raise ValueError(f"color vector {colors} must be nonnegative")
    return colors, framings


def _cyclotomic_factor(i):
    """(-1)^i {2i-1;a}_{2i} {i-2;a}_i, the part of C_i both links share."""
    c = lp_mul(qsym_falling(BRACE_A, 2 * i - 1, 2 * i), qsym_falling(BRACE_A, i - 2, i))
    return lp_neg(c) if i % 2 else c


Link = namedtuple("Link", "components core")

# Every link with a sum in `homfly_link`: its number of components and its
# core C_i(a, q) in that sum, each computed once.  The Whitehead core
# carries a^(i/2) q^(i(i-1)/4) (its {i}!/{i}! pair cancels), the Borromean
# one an uncancelled {i}!; the unknot keeps only C_0 = 1.
LINKS = {name: Link(n, lru_cache(maxsize=None)(core)) for name, n, core in [
    ("unknot", 1, lambda i: {} if i else lp_one()),
    ("whitehead", 2, lambda i: lp_mul(_cyclotomic_factor(i), lp_mono(i * (i - 1) // 2, i))),
    ("borromean", 3, lambda i: lp_mul(_cyclotomic_factor(i), qsym_falling(BRACE, i, i))),
]}


@lru_cache(maxsize=None)
def link_factor(i, r, tau):
    """{r+i-1;a}_{r-i} / {r-i}! times (-1)^(r tau) q^(tau r(r-1)/2), the
    factor of a component colored r at framing tau in the term i of
    `homfly_link`, as an exact ratio.  The one place the framing enters."""
    framing = lp_mono(tau * r * (r - 1), 0, -1 if r * tau % 2 else 1)
    return BraceRatio(lp_mul(qsym_falling(BRACE_A, r + i - 1, r - i), framing),
                      brace_factorial_multiset(r - i))


def homfly_link(link, colors, framings):
    """Colored invariant of the framed link as an exact ratio: the sum over
    i = 0..min(colors) of

        prod_t link_factor(i, r_t, tau_t)  *  C_i(a, q)

    with the per-link core C_i, colors and framings in the given component
    order.  The zero color gives 1.  Raises ValueError as `check_link` does.
    """
    return _homfly_link(link, *check_link(link, colors, framings))


@lru_cache(maxsize=None)
def _homfly_link(link, colors, framings):
    terms = []
    for i in range(min(colors) + 1):
        core = LINKS[link].core(i)
        if not core:
            continue
        term = BraceRatio(core)
        for r, tau in zip(colors, framings):
            term = term.mul(link_factor(i, r, tau))
        terms.append(term)
    return BraceRatio.sum(terms)


def check_unknot_recursion(tau, n_max):
    """Verify the framed-unknot recursion

        (-1)^tau (q^(n+1) - 1) Hf_{n+1}
            = (a^(1/2) q^(n+1/2) - a^(-1/2) q^(1/2)) q^(n tau) Hf_n

    exactly for all 1 <= n < n_max, where Hf_n is the framed invariant.
    Returns True, or raises RecursionViolated(n); n_max < 2 checks no n
    and raises ValueError.
    """
    n_max = check_at_least("n_max", n_max, 2)
    sign = -1 if tau % 2 else 1
    for n in range(1, n_max):
        hn = homfly_link("unknot", (n,), (tau,))
        hn1 = homfly_link("unknot", (n + 1,), (tau,))
        lhs = hn1.mul_poly(lp_mono(2 * n + 2, 0, sign))
        lhs = lhs.add(hn1.mul_poly(lp_mono(0, 0, -sign)))
        step = lp_sub(lp_mono(2 * n + 1, 1), lp_mono(1, -1))
        rhs = hn.mul_poly(lp_mul(step, lp_mono(2 * n * tau, 0)))
        if not lhs.sub(rhs).is_zero():
            raise RecursionViolated(n)
    return True
