"""Exact Laurent polynomials in q^(1/2), a^(1/2), and truncated power series.

A Laurent polynomial is a plain dict mapping an exponent pair (dq, da)
to a nonzero int, where dq and da count *half units*: the key (dq, da)
stands for the monomial q^(dq/2) a^(da/2).  Storing doubled exponents
keeps everything an int — in particular the q^(i(i-1)/4) twist factors,
whose doubled exponent i(i-1)/2 is always integral.

A truncated power series in one variable x is a plain list of Laurent
polynomials, s[j] the coefficient of x^j, and its length is its order:
`series_inv` inverts one to its length.

Zero coefficients are never stored, so dict equality is value equality.
Every kernel runs on ints: `lp_mono` takes the scalar as given, and
`series_inv` inverts only a unit constant term ±q^(dq/2) a^(da/2), so
sums and products of int inputs stay ints.  All public operations are
pure: inputs are never mutated (only the private `_addmul` accumulates
in place).  A polynomial of one exponent parity also packs into one big
int by Kronecker substitution, for `ovengine`: `_frame` bounds it and
halves its exponents, `_width` sizes the digits, and `_pack`, `_shift`
and `_unpack` move it into a big int, within one, and back.  A
polynomial in λ packs as one int per λ-power, for the Lagrange sums of
`curves`: `_frame_rows` bounds it, `_rows_times` multiplies it in place,
and `_unpack` reads back at once the sums of rows of every Lagrange order,
laid end to end one a-step per digit.
"""

import struct
from itertools import product


class NonInvertibleLeadingTerm(Exception):
    """Series inversion needs a unit constant term ±q^(dq/2)a^(da/2)."""


class PackingError(Exception):
    """A polynomial the packed kernel cannot hold (see `_frame`, `_shift`, `_unpack`)."""


def lp_one():
    return {(0, 0): 1}


def lp_mono(dq, da, c=1):
    """The monomial c * q^(dq/2) * a^(da/2)."""
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


def series_inv(s):
    """1/s, to the length of s, when the constant term is a unit ±q^(dq/2)a^(da/2),
    whose inverse is ±q^(-dq/2)a^(-da/2); any other constant term raises
    NonInvertibleLeadingTerm."""
    c0 = s[0]
    if len(c0) != 1 or next(iter(c0.values())) not in (1, -1):
        raise NonInvertibleLeadingTerm(f"constant term {c0} is not a unit monomial")
    ((dq, da), v), = c0.items()
    out = [lp_mono(-dq, -da, v)] + [{}] * (len(s) - 1)
    minus_inv = lp_mono(-dq, -da, -v)
    for j in range(1, len(s)):
        acc = {}
        for i in range(1, j + 1):
            if s[i] and out[j - i]:
                _addmul(acc, s[i], out[j - i])
        if acc:
            out[j] = lp_mul(minus_inv, acc)
    return out


def _frame(p):
    """(frame, halved) of a nonzero int polynomial: the frame (min dq, min
    da, max dq, max da, 1-norm) and its terms (j, i, c), c q^(j) a^(i) with
    exponents halved from the corner; PackingError on mixed parity."""
    dqs, das = zip(*p)
    lq, la = min(dqs), min(das)
    if any((dq - lq) % 2 or (da - la) % 2 for dq, da in p):
        raise PackingError(f"exponents of mixed parity in {p}")
    return ((lq, la, max(dqs), max(das), sum(map(abs, p.values()))),
            [((dq - lq) >> 1, (da - la) >> 1, c) for (dq, da), c in p.items()])


def _width(frame):
    """(span, b) for a value on `frame`: its a-span in steps of 2 plus one,
    and its bound's bit length plus a sign bit in whole bytes, as `_unpack`
    reads them."""
    return (frame[3] - frame[1]) // 2 + 1, 8 + frame[4].bit_length() // 8 * 8


def _pack(halved, b, span):
    """The int p(q = 2^(b span), a = 2^b) of halved terms (see `_frame`)."""
    return sum(c << b * (span * j + i) for j, i, c in halved)


def _shift(n, corner, target, b, span):
    """n moved up from `corner` onto that of `target`, in the Kronecker packing
    q = 2^(b span), a = 2^b of exponents halved; an odd step is mixed parity."""
    dq, da = corner[0] - target[0], corner[1] - target[1]
    if dq < 0 or da < 0 or dq % 2 or da % 2:
        raise PackingError(f"{corner[:2]} is not above {target[:2]} by even steps")
    return n << b * (span * dq + da) // 2


def _frame_rows(rows):
    """(low, high, step, norm, terms) of the polynomial in λ whose
    coefficients `rows` are {doubled a-exponent: int}: its least and greatest
    a-exponent, its a-step (1 if those mix parities, else 2), 1-norm and terms
    (k, j, c), c·λ^k times the j-th a-step above low."""
    terms = [(k, da, c) for k, row in enumerate(rows) for da, c in row.items()]
    _, das, cs = zip(*terms)
    low, high = min(das), max(das)
    step = 1 if any((da - low) % 2 for da in das) else 2
    return low, high, step, sum(map(abs, cs)), [(k, (da - low) // step, c) for k, da, c in terms]


def _rows_times(rows, terms, b, top):
    """rows·P in place below row `top`, rows[i] packing [λ^i] with one a-step
    per b bits and P given by its terms (k, j, c) (see `_frame_rows`): top row
    first, as a row reads only those below."""
    for i in range(top - 1, -1, -1):
        row = 0
        for k, j, c in terms:
            if k <= i:
                row += (rows[i - k] * c) << b * j
        rows[i] = row


def _unpack(n, frame, b, span, step=2):
    """The polynomial packed as n on `frame` (corner, top, bound) at width b,
    a multiple of 8, read from balanced digits `step` a-exponents apart."""
    lq, la, hq, _, bound = frame
    w, size, half = b // 8, ((hq - lq) // 2 + 1) * span, 1 << (b - 1)
    if bound >= half:
        raise PackingError(f"width {b} cannot hold the bound of frame {frame}")
    n += int.from_bytes((bytes(w - 1) + b"\x80") * size, "little")   # each digit + half
    if not 0 <= n < 1 << b * size:
        raise PackingError(f"packed value reaches past frame {frame} at width {b}")
    raw, fmt = n.to_bytes(w * size, "little"), {1: "B", 2: "H", 4: "I", 8: "Q"}.get(w)
    digits = (struct.unpack(f"<{size}{fmt}", raw) if fmt else
              [int.from_bytes(raw[k:k + w], "little") for k in range(0, w * size, w)])
    if min(digits) < half - bound or max(digits) > half + bound:
        raise PackingError(f"a digit above the bound of frame {frame}")
    keys = product(range(lq, hq + 1, 2), range(la, la + step * span, step))
    return {k: c - half for k, c in zip(keys, digits) if c != half}
