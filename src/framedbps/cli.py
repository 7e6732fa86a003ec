"""Command-line surface: compute invariants, tables, and curve series,
verify identities against the golden files, and emit ASCII / JSON / CSV.

ASCII tables mirror the familiar layout (rows = a-exponent i descending,
columns = q-exponent j descending, half-integers printed as fractions);
JSON and CSV carry doubled exponents (i2, j2) so everything stays an
integer.  Exit status is 0 iff there were zero failures.
"""

import json
import os
import re
import sys
from collections import namedtuple
from itertools import permutations, product
from types import SimpleNamespace

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
        raise ValueError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
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


def load_golden(root=None):
    """Golden tables from the CSV files in `root`, by default the `golden`
    directory next to this module: list of (name, spec dict, entries)."""
    out = []
    root = root or os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    for fname in sorted(os.listdir(root)):
        if not fname.endswith(".csv"):
            continue
        meta, entries = None, {}
        with open(os.path.join(root, fname), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for line in lines:
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
            raise ValueError(f"golden file {fname} lacks metadata")
        out.append((fname[:-4], meta, entries))
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
    suite, summary, _ = VERIFY_SUITES[args.suite]
    records = failures = 0
    for line, n in suite(args):
        print(line)
        records, failures = records + 1, failures + n
    print(summary.format(passed=records - failures, total=records,
                         verdict=f"{failures} failures" if failures else "all pass"))
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# command table and its parser

# one option of a command: its flag takes one value, which `type` reads (raising
# ValueError on bad text) into `dest`; the metavar defaults to the choices, else to DEST
_Option = namedtuple("_Option", "flag dest type choices default required metavar",
                     defaults=(str, None, None, False, None))
# suite, its summary line (formatted from the failures and records counted), options
VERIFY_SUITES = {
    "tables": (verify_tables, "{passed}/{total} tables pass", ()),
    "integrality": (verify_integrality, "integrality statistic: {verdict}", (
        _Option("--r-max", "r_max", int, default=30),
        _Option("--t-range", "t_range", parse_range, default=(-10, 10)))),
    "recursion": (verify_recursion, "recursion: {verdict}", (
        _Option("--tau-max", "tau_max", int, default=5),
        _Option("--n-max", "n_max", int, default=12))),
    "symmetry": (verify_symmetry, "symmetry: {verdict}", ()),
    "connected": (verify_connected, "connected: {verdict}", ())}
_FORMAT = _Option("--format", "format", choices=("ascii", "json", "csv"), default="ascii")
_LINK = (_Option("--link", "link", choices=tuple(LINKS), required=True),
         _Option("--colors", "colors", required=True, metavar="R1,R2,..."),
         _Option("--framing", "framing", required=True, metavar="T1,T2,..."), _FORMAT)
_KNOT = (_Option("--knot", "knot", choices=("unknot", "twist"), required=True),
         _Option("--p", "p", int))
_TAU = _Option("--framing", "framing_int", int, default=0, metavar="TAU")
# command path ("" the top level) -> (handler, description or help line, options)
COMMANDS = {
    "": (None, "Framed colored HOMFLYPT invariants, integer tables, and BPS invariants "
               "from\nexact symbolic pipelines.", ()),
    "homfly": (cmd_homfly, "framed colored invariant as exact ratio", _LINK),
    "ov-table": (cmd_ov_table, "integer invariant table", _LINK),
    "bps": (cmd_bps, "BPS invariants of framed knots", (
        *_KNOT, _TAU, _Option("--source", "source", choices=("curve", "closed", "both"),
                              default="both"),
        _Option("--r-max", "r_max", int, default=6), _FORMAT)),
    "series": (cmd_series, "curve normal form and log-derivative series", (
        *_KNOT, _Option("--kind", "kind", choices=KINDS, default=KIND_FULL), _TAU,
        _Option("--order", "order", int, default=8), _FORMAT)),
    "verify": (None, "run a verification suite", ()),
    **{f"verify {name}": (cmd_verify, None, suite[2]) for name, suite in VERIFY_SUITES.items()}}
_is_option = re.compile(r"-\D").match  # so that values such as -1,0 and -3:3 parse as typed


def _braces(names):
    return "{%s}" % ",".join(names) if names else ""


class _Command:
    """A path of COMMANDS, which its handler gets as `parser`.  `error` prints
    what argparse printed, and `help` its sections; no line is wrapped."""

    def __init__(self, path):
        self.path, self.prog = path, f"framedbps {path}".rstrip()
        self.handler, self.about, self.options = COMMANDS[path]
        self.flags = {"--help": None, **{opt.flag: opt for opt in self.options}}
        self.subs = [p.rpartition(" ")[2] for p in COMMANDS if p and p.rpartition(" ")[0] == path]
        self.words = [f"{opt.flag} {opt.metavar or _braces(opt.choices) or opt.dest.upper()}"
                      for opt in self.options]

    def lookup(self, token):
        """The flag that `token` names, -h or a unique prefix included, or None."""
        name = "--help" if token == "-h" else token.partition("=")[0]
        hits = [flag for flag in self.flags if flag == name] or [
            flag for flag in self.flags if len(name) > 2 and flag.startswith(name)]
        if len(hits) > 1:
            self.error(f"ambiguous option: {token} could match {', '.join(hits)}")
        return hits[0] if hits else None

    def usage(self):
        words = [word if opt.required else f"[{word}]" for word, opt in zip(self.words, self.options)]
        tail = [f"{_braces(self.subs)} ..."] if self.subs else []
        return " ".join(["usage:", self.prog, "[-h]", *words, *tail])

    def error(self, message):
        sys.stderr.write(f"{self.usage()}\n{self.prog}: error: {message}\n")
        sys.exit(2)

    def help(self):
        lines = [self.usage(), ""]
        if not self.path:
            lines += [self.about, ""]
        if self.subs:
            lines += ["positional arguments:", f"  {_braces(self.subs)}",
                      *(f"    {sub:<18}  {COMMANDS[sub][1]}" for sub in self.subs if not self.path),
                      ""]
        lines += ["options:", "  -h, --help            show this help message and exit",
                  *(f"  {word}" for word in self.words)]
        print("\n".join(lines))
        sys.exit(0)


def _parse(argv):
    """(args, command) for `argv`: the command, or `verify` and its suite,
    then its options as `--flag value` or `--flag=value`, a flag also by a
    unique prefix; the last of a repeated flag wins.  Usage errors exit 2."""
    command, rest, extra = _Command(""), list(argv), []
    while command.subs:
        dest = "suite" if command.path else "command"
        if not rest:
            command.error(f"the following arguments are required: {dest}")
        token = rest.pop(0)
        if command.lookup(token) == "--help":
            command.help()
        if command.path and token[:1] == "-":
            command.error(f"{token} comes before the suite; a suite's options follow its "
                          "name, as in 'verify integrality --r-max 5'")
        if token in command.subs:
            command = _Command(f"{command.path} {token}".lstrip())
        elif _is_option(token):  # reported by the command that follows
            extra.append(token)
        else:
            command.error(f"argument {dest}: invalid choice: {token!r} "
                          f"(choose from {', '.join(map(repr, command.subs))})")
    # every option is looked up first, so an ambiguous prefix is the first error
    flags = [command.lookup(token) if _is_option(token) else None for token in rest]
    args = SimpleNamespace(suite=command.path.partition(" ")[2],
                           **{opt.dest: opt.default for opt in command.options})
    missing, i = [opt.flag for opt in command.options if opt.required], 0
    while i < len(rest):
        token, flag, i = rest[i], flags[i], i + 1
        if flag == "--help":
            command.help()
        if flag is None:
            extra.append(token)
            continue
        opt = command.flags[flag]
        if "=" in token:
            text = token.partition("=")[2]
        elif i < len(rest) and not _is_option(rest[i]):
            text, i = rest[i], i + 1
        else:
            command.error(f"argument {flag}: expected one argument")
        try:
            value = opt.type(text)
        except ValueError as exc:
            command.error(f"argument {flag}: "
                          + (f"invalid int value: {text!r}" if opt.type is int else str(exc)))
        if opt.choices and value not in opt.choices:
            command.error(f"argument {flag}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, opt.choices))})")
        setattr(args, opt.dest, value)
        missing = [m for m in missing if m != flag]
    if missing:
        command.error(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        command.error(f"unrecognized arguments: {' '.join(extra)}")
    return args, command


def main(argv=None):
    args, command = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return command.handler(args, command)
    except Exception as exc:  # domain errors, failed cross-checks -> diagnostic, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
