"""Command-line surface: compute invariants, tables, and curve series,
verify identities against the golden files, and emit ASCII / JSON / CSV.

ASCII tables mirror the familiar layout (rows = a-exponent i descending,
columns = q-exponent j descending, half-integers printed as fractions);
JSON and CSV carry doubled exponents (i2, j2) so everything stays an
integer.  Exit status is 0 iff there were zero failures.
"""

import argparse
import json
import sys
from functools import lru_cache
from importlib import resources
from itertools import permutations, product

from .closedforms import (MismatchDetected, b_extremal_twist, b_unknot,
                          check_twist_parameter, integrality_statistic)
from .curves import (KIND_FULL, KIND_MINUS, KIND_PLUS, KINDS, bps_from_gamma,
                     lagrange_log_y, make_curve, newton_series_solve, normalize)
from .links import LINKS, RecursionViolated, check_link, check_unknot_recursion, homfly_link
from .ovengine import connected_F, connected_F_box, ov_table, strong_integrality_check


# --------------------------------------------------------------------------
# small formatting helpers


def fmt_half(n2):
    """Doubled exponent -> display: 4 -> '2', 5 -> '5/2', -3 -> '-3/2'."""
    if n2 % 2 == 0:
        return str(n2 // 2)
    return f"{n2}/2"


def fmt_monomial(c, *powers):
    """The coefficient times each (variable, doubled exponent) power whose
    exponent is nonzero: (-1, ("q", 4), ("a", 3)) -> '-1*q^2*a^(3/2)'."""
    bits = [str(c)]
    for v, e2 in powers:
        if e2:
            bits.append(f"{v}^({fmt_half(e2)})" if e2 % 2 else f"{v}^{e2 // 2}")
    return "*".join(bits)


def rjust_lines(table):
    """Lines of a table of strings, each column right-aligned to its widest
    cell, the columns one space apart."""
    widths = [max(map(len, column)) for column in zip(*table)]
    return [" ".join(s.rjust(w) for s, w in zip(line, widths)) for line in table]


def parse_int_vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def parse_range(text):
    """'LO:HI' -> (LO, HI); an empty range would pass any scan vacuously."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def render(args, ascii_lines, head, key, columns, rows, tail=None, csv_columns=None,
           csv_tail=()):
    """Print a command's record in `args.format` and return exit status 0.

    ascii prints `ascii_lines()`, built only then.  JSON prints the `head`
    fields, the `rows` under `key` as objects over `columns`, then the `tail`
    fields.  CSV prints `csv_columns` (default `columns`), one line per row,
    then the `csv_tail` lines."""
    if args.format == "json":
        doc = {**head, key: [dict(zip(columns, row)) for row in rows], **(tail or {})}
        lines = [json.dumps(doc, indent=2)]
    elif args.format == "csv":
        lines = [",".join(csv_columns or columns),
                 *(",".join(map(str, row)) for row in rows), *csv_tail]
    else:
        lines = ascii_lines()
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# subcommands


def _knot(args, parser):
    """The knot of --knot as `make_curve` takes it: "unknot", or ("twist", p)
    with --p, which the twist knot alone needs, in its family."""
    if args.knot == "unknot":
        if args.p is not None:
            parser.error("unknot takes no parameter p")
        return "unknot"
    if args.p is None:
        parser.error("twist knot needs --p")
    return "twist", check_twist_parameter(args.p)


def _framed_link(args, parser):
    """The colors and framings of --link from --colors and --framing."""
    try:
        colors, framings = check_link(args.link, parse_int_vector(args.colors),
                                      parse_int_vector(args.framing))
    except ValueError as exc:
        parser.error(str(exc))
    if not any(colors):
        parser.error("zero color vector")
    return colors, framings


def cmd_homfly(args, parser):
    colors, framings = _framed_link(args, parser)
    h = homfly_link(args.link, colors, framings)
    # numerator terms a-major descending, then q descending
    terms = sorted(h.num.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
    den = sorted(h.den.elements())
    braces = " ".join(f"{{{n}}}" for n in den) or "1"

    def ascii_lines():
        head = f"link={args.link} colors={colors} framings={framings}"
        if h.is_zero():
            return [head, "0"]
        numerator = " + ".join(fmt_monomial(c, ("q", dq), ("a", da))
                               for (dq, da), c in terms)
        return [head, f"numerator:   {numerator}", f"denominator: {braces}"]

    return render(args, ascii_lines,
                  {"link": args.link, "colors": list(colors), "framings": list(framings)},
                  "numerator", ("q2", "a2", "c"),
                  [(dq, da, str(c)) for (dq, da), c in terms],
                  tail={"denominator": den}, csv_tail=[f"# denominator braces: {braces}"])


def cmd_ov_table(args, parser):
    table = ov_table(args.link, *_framed_link(args, parser))
    e1, e2 = table.epsilon

    def ascii_lines():
        head = (f"link={args.link} colors={table.colors} framings={table.framings} "
                f"epsilon=({e1},{e2})")
        bounds = table.bounds()
        if bounds is None:
            return [head, "(empty table)"]
        (i_lo, i_hi), (j_lo, j_hi) = bounds
        cols = range(j_hi, j_lo - 1, -2)
        grid = rjust_lines([["i\\j", *map(fmt_half, cols)]]
                           + [[fmt_half(i), *(str(table.entry(i, j)) for j in cols)]
                              for i in range(i_hi, i_lo - 1, -2)])
        return [head, grid[0], "-" * len(grid[0]), *grid[1:]]

    return render(args, ascii_lines,
                  {"link": args.link, "colors": list(table.colors),
                   "framings": list(table.framings), "epsilon": [e1, e2]},
                  "entries", ("i2", "j2", "N"),
                  [(i2, j2, table.entries[i2, j2])
                   for i2, j2 in sorted(table.entries, reverse=True)])


def _unknot_bps_rows(tau, r_max, source):
    """Rows (r, m, curve value or None, closed value or None) over every
    entry of the curve and the closed form's support r + m even, |m| <= r
    (b_unknot is 0 off it), in (r, m) order."""
    curve_b = {}
    if source in ("curve", "both") and r_max >= 1:
        nf = normalize(make_curve("unknot", KIND_FULL, tau), r_max)
        curve_b = bps_from_gamma(lagrange_log_y(nf, r_max))
    keys = set(curve_b)
    if source in ("closed", "both"):
        keys.update((r, m) for r in range(1, r_max + 1) for m in range(-r, r + 1, 2))
    rows = []
    for r, m in sorted(keys):
        cv = curve_b.get((r, m), 0) if source in ("curve", "both") else None
        cl = b_unknot(r, m, tau) if source in ("closed", "both") else None
        if cv or cl:
            rows.append((r, m, cv, cl))
    return rows


def _twist_bps_rows(p, tau, r_max, source):
    """Rows (r, sign, curve value or None, closed value or None)."""
    curve_b = {}
    if source in ("curve", "both") and r_max >= 1:
        for kind, sgn in ((KIND_MINUS, "-"), (KIND_PLUS, "+")):
            nf = normalize(make_curve(("twist", p), kind, tau), r_max)
            b = bps_from_gamma(lagrange_log_y(nf, r_max))
            for r in range(1, r_max + 1):
                curve_b[(r, sgn)] = b.get((r, 0), 0)
    rows = []
    for r in range(1, r_max + 1):
        for sgn in ("-", "+"):
            cv = curve_b.get((r, sgn)) if source in ("curve", "both") else None
            cl = (b_extremal_twist(r, sgn, p, tau)
                  if source in ("closed", "both") else None)
            rows.append((r, sgn, cv, cl))
    return rows


def cmd_bps(args, parser):
    if args.r_max < 0:
        parser.error("r-max must be >= 0")
    knot = _knot(args, parser)  # p is checked also when no r reaches the per-r checks
    tau = args.framing_int
    if knot == "unknot":
        rows = _unknot_bps_rows(tau, args.r_max, args.source)
        mcol = "m"
    else:
        rows = _twist_bps_rows(knot[1], tau, args.r_max, args.source)
        mcol = "sign"
    both = args.source == "both"
    if both:
        for r, m, cv, cl in rows:
            if cv != cl:
                raise MismatchDetected((args.knot, r, m, cv, cl))
    # a source not asked for leaves None in its place of each row
    shown = (True, True, args.source != "closed", args.source != "curve")
    columns = [name for name, on in zip(("r", mcol, "b_curve", "b_closed"), shown)
               if on] + ["match"] * both
    cells = [[str(x) for x, on in zip(row, shown) if on] + ["yes"] * both
             for row in rows]
    return render(args, lambda: rjust_lines([columns] + cells),
                  {"knot": args.knot, "framing": tau, "source": args.source,
                   "r_max": args.r_max},
                  "rows", columns, cells,
                  tail={"p": args.p} if args.p is not None else None)


def cmd_series(args, parser):
    if args.order < 1:
        parser.error("order must be >= 1")
    knot = _knot(args, parser)
    curve = make_curve(knot, args.kind, args.framing_int)
    nf = normalize(curve, args.order)
    gamma = lagrange_log_y(nf, args.order)
    if gamma != newton_series_solve(curve, args.order):
        raise MismatchDetected(("series", knot, args.kind, args.framing_int, args.order))
    entries = sorted(gamma.coefficients.items())
    source = sorted(curve.source.items())

    def ascii_lines():
        terms = " + ".join(fmt_monomial(c, ("x", 2 * xd), ("y", 2 * yd), ("a", da))
                           for (xd, yd, da), c in source)
        return [f"curve knot={knot} kind={args.kind} framing={args.framing_int}: {terms}",
                f"normal form: X = sigma*a^(e/2)*x, sigma={nf.sigma}, e={nf.e}, Y = 1 - y^2",
                "x*d/dx log y(x):",
                f"{'r':>3} {'m':>6} gamma",
                *(f"{r:>3} {fmt_half(m):>6} {c}" for (r, m), c in entries)]

    return render(args, ascii_lines,
                  {"knot": args.knot, "kind": args.kind, "framing": args.framing_int,
                   "order": args.order,
                   "curve": [{"x": xd, "y": yd, "a2": da, "c": str(c)}
                             for (xd, yd, da), c in source],
                   "x_rescale": {"sigma": nf.sigma, "a2": nf.e}},
                  "gamma", ("r", "m2", "c"),
                  [(r, m, str(c)) for (r, m), c in entries],
                  tail={"p": args.p} if args.p is not None else None,
                  csv_columns=("r", "m2", "gamma"))


# --------------------------------------------------------------------------
# verify suites: each yields (report line, failures in it) records


def load_golden():
    """Golden tables from package data: list of (name, spec dict, entries)."""
    out = []
    root = resources.files("framedbps").joinpath("golden")
    for res in sorted(root.iterdir(), key=lambda r: r.name):
        if not res.name.endswith(".csv"):
            continue
        meta, entries = None, {}
        for line in res.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = dict(kv.split("=") for kv in line[1:].split())
                meta = {"link": fields["link"],
                        "colors": parse_int_vector(fields["colors"]),
                        "framings": parse_int_vector(fields["framings"])}
            elif line[0].isdigit() or line[0] == "-":
                i2, j2, n = line.split(",")
                entries[(int(i2), int(j2))] = int(n)
        if meta is None:
            raise ValueError(f"golden file {res.name} lacks metadata")
        out.append((res.name[:-4], meta, entries))
    return out


def verify_tables(args):
    for name, meta, want in load_golden():
        table = ov_table(meta["link"], meta["colors"], meta["framings"])
        ok = table.entries == want
        extra = ""
        if ok and not strong_integrality_check(table):
            ok, extra = False, " (parity violation)"
        yield (f"table {name} link={meta['link']} colors={meta['colors']} "
               f"framings={meta['framings']}: {'PASS' if ok else 'FAIL' + extra}"), not ok


def verify_integrality(args):
    lo, hi = args.t_range
    for r in range(1, args.r_max + 1):
        bad = []
        for t in range(lo, hi + 1):
            value, ok = integrality_statistic(r, t)
            if not ok:
                bad.append((t, value))
        if bad:
            yield f"r={r}: FAIL at {bad}", len(bad)
        else:
            yield f"r={r}: t={lo}..{hi} all integer", 0


def verify_recursion(args):
    for tau in range(-args.tau_max, args.tau_max + 1):
        try:
            check_unknot_recursion(tau, args.n_max)
        except RecursionViolated as exc:
            yield f"tau={tau}: FAIL ({exc})", 1
        else:
            yield f"tau={tau}: recursion holds for n<{args.n_max}", 0


def verify_symmetry(args):
    """H in every component order and, on one colored component, against
    the unknot, then swapped Whitehead tables against each other and the
    swapped golden pair.  The H checks read `homfly_link` in the given
    order.  `connected_F` reads no H but the unknot's and computes a
    table and its swapped twin apart, so the table checks test the
    symmetry of the connected invariants on their own."""
    h_cases = ([("whitehead", (3, 3), taus) for taus in ((0, 1), (1, -1), (-2, 1))]
               + [("borromean", (2, 2, 2), taus)
                  for taus in ((0, 1, -1), (1, -1, 2), (-2, 0, 1))])
    for link, top, taus in h_cases:
        bad = []
        for colors in product(*(range(r + 1) for r in top)):
            if not any(colors):
                continue
            h = homfly_link(link, colors, taus)
            for perm in permutations(range(len(top))):
                pc, pt = (tuple(x[t] for t in perm) for x in (colors, taus))
                if homfly_link(link, pc, pt) != h:
                    bad.append((colors, perm))
            axis = [t for t, r in enumerate(colors) if r]
            if len(axis) == 1 and h != homfly_link(
                    "unknot", (colors[axis[0]],), (taus[axis[0]],)):
                bad.append((colors, "unknot"))
        yield (f"H {link} colors<={top} framings={taus} permuted and as the "
               f"unknot: {f'FAIL at {bad}' if bad else 'PASS'}"), bool(bad)
    cases = [((2, 2), (0, 1)), ((2, 2), (1, 0)), ((2, 3), (0, 1)),
             ((1, 2), (1, -1)), ((2, 3), (-1, 2))]
    for colors, taus in cases:
        t1 = ov_table("whitehead", colors, taus)
        t2 = ov_table("whitehead", colors[::-1], taus[::-1])
        ok = t1.entries == t2.entries
        yield f"swap colors={colors} framings={taus}: {'PASS' if ok else 'FAIL'}", not ok
    golden = {name: entries for name, _, entries in load_golden()}
    ok = (ov_table("whitehead", (2, 2), (0, 1)).entries == golden["w22_f01"]
          == golden["w22_f10"])
    yield (f"swapped-framing golden pair w22_f01 == w22_f10: "
           f"{'PASS' if ok else 'FAIL'}"), not ok


def verify_connected(args):
    """`connected_F`, from log(1 + W) and the unknot's q-difference
    equation, against `connected_F_box`, the logarithm of the framed sum
    Z = sum_v H_v x^v by one recurrence over H on the color box, on every
    nonzero color vector of each case's box, from one oracle call per case.
    The two share only the cores C_i, `link_factor` and the unknot's H (the
    G_0 of h_i = G_i / G_0), and on one colored component nothing."""
    cases = ([("whitehead", (3, 3), taus) for taus in product(range(-2, 3), repeat=2)]
             + [("borromean", (2, 2, 2), taus) for taus in product((-1, 0, 1), repeat=3)]
             + [("unknot", (8,), (tau,)) for tau in range(-2, 3)]
             + [("whitehead", (4, 4), (1, -2)), ("borromean", (3, 3, 3), (-1, 0, 2))])
    for link, top, taus in cases:
        bad = [v for v, f in connected_F_box(link, top, taus).items()
               if connected_F(link, v, taus) != f]
        yield (f"connected {link} colors<={top} framings={taus}: "
               f"{f'FAIL at {bad}' if bad else 'PASS'}"), bool(bad)


def cmd_verify(args, parser):
    # like an empty --t-range, these would make a suite pass vacuously
    if args.suite == "integrality" and args.r_max < 1:
        parser.error("r-max must be >= 1")
    if args.suite == "recursion" and (args.n_max < 2 or args.tau_max < 0):
        parser.error("recursion needs n-max >= 2 and tau-max >= 0")
    suite, summary = VERIFY_SUITES[args.suite]
    records = failures = 0
    for line, n in suite(args):
        print(line)
        records, failures = records + 1, failures + n
    print(summary.format(passed=records - failures, total=records,
                         verdict=f"{failures} failures" if failures else "all pass"))
    return 0 if failures == 0 else 1


# suite and its summary line, formatted from the failures and records counted
VERIFY_SUITES = {"tables": (verify_tables, "{passed}/{total} tables pass"),
                 "integrality": (verify_integrality, "integrality statistic: {verdict}"),
                 "recursion": (verify_recursion, "recursion: {verdict}"),
                 "symmetry": (verify_symmetry, "symmetry: {verdict}"),
                 "connected": (verify_connected, "connected: {verdict}")}


# --------------------------------------------------------------------------
# parser


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="framedbps",
        description="Framed colored HOMFLYPT invariants, integer tables, and "
                    "BPS invariants from exact symbolic pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("ascii", "json", "csv"),
                       default="ascii")

    for name, func, text in (("homfly", cmd_homfly, "framed colored invariant as exact ratio"),
                             ("ov-table", cmd_ov_table, "integer invariant table")):
        p_l = sub.add_parser(name, help=text)
        p_l.add_argument("--link", required=True, choices=tuple(LINKS))
        p_l.add_argument("--colors", required=True, metavar="R1,R2,...")
        p_l.add_argument("--framing", required=True, metavar="T1,T2,...")
        add_format(p_l)
        p_l.set_defaults(func=func, parser=p_l)

    p_b = sub.add_parser("bps", help="BPS invariants of framed knots")
    p_b.add_argument("--knot", required=True, choices=("unknot", "twist"))
    p_b.add_argument("--p", type=int, default=None)
    p_b.add_argument("--framing", dest="framing_int", type=int, default=0, metavar="TAU")
    p_b.add_argument("--source", choices=("curve", "closed", "both"),
                     default="both")
    p_b.add_argument("--r-max", dest="r_max", type=int, default=6)
    add_format(p_b)
    p_b.set_defaults(func=cmd_bps, parser=p_b)

    p_s = sub.add_parser("series", help="curve normal form and log-derivative series")
    p_s.add_argument("--knot", required=True, choices=("unknot", "twist"))
    p_s.add_argument("--p", type=int, default=None)
    p_s.add_argument("--kind", choices=KINDS, default=KIND_FULL)
    p_s.add_argument("--framing", dest="framing_int", type=int, default=0, metavar="TAU")
    p_s.add_argument("--order", type=int, default=8)
    add_format(p_s)
    p_s.set_defaults(func=cmd_series, parser=p_s)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    parser.set_defaults(verify=p_verify)
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for name in VERIFY_SUITES:
        p_v = suites.add_parser(name)
        if name == "integrality":
            p_v.add_argument("--r-max", dest="r_max", type=int, default=30)
            p_v.add_argument("--t-range", dest="t_range", type=parse_range, default=(-10, 10))
        elif name == "recursion":
            p_v.add_argument("--tau-max", dest="tau_max", type=int, default=5)
            p_v.add_argument("--n-max", dest="n_max", type=int, default=12)
        p_v.set_defaults(func=cmd_verify, parser=p_v)
    return parser


def _merge_negative_values(argv):
    """Glue values that start with a minus and a digit ("-1,0", "-10:10") onto
    the long flag before them with '=' so argparse does not mistake them for
    options; returns the tokens and a map from each glued one back to the two
    typed.  No option of the parser starts with a digit."""
    out, typed = [], {}
    for tok in argv:
        flag = out[-1] if out else ""
        if (flag[:2] == "--" and flag[2:3].isalpha() and "=" not in flag
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] = f"{flag}={tok}"
            typed[out[-1]] = f"{flag} {tok}"
        else:
            out.append(tok)
    return out, typed


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    first = argv[1] if argv[:1] == ["verify"] and len(argv) > 1 else ""
    if first[:1] == "-" and first not in ("-h", "--help"):
        parser.get_default("verify").error(
            f"{first} comes before the suite; a suite's options follow its name, "
            f"as in 'verify integrality --r-max 5'")
    merged, typed = _merge_negative_values(argv)
    args, extra = parser.parse_known_args(merged)
    if extra:  # reported by the subcommand's parser, which names it, as typed
        args.parser.error(f"unrecognized arguments: {' '.join(typed.get(t, t) for t in extra)}")
    try:
        return args.func(args, args.parser)
    except Exception as exc:  # domain errors, failed cross-checks -> diagnostic, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
