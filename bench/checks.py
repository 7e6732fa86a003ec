"""Reference checks of job outputs, run by the benchmark outside the timed region.

Every check compares a job's printed output with a reference computed apart
from the timed call:

* a table job's CSV is compared cell for cell with its golden CSV when it has
  one, must pass the parity check (`strong_integrality_check`), and must equal
  its swapped-color/framing twin (taken from the same roster run when the twin
  is a job of its own, otherwise computed here);
* an unknot table's BPS list (its row sums) must equal both the closed form
  `b_unknot(r, m, tau)` and the curve pipeline's
  `bps_from_gamma(lagrange_log_y(...))` at level r; the row of doubled
  a-exponent m holds b_{r,m};
* `bps` rows must equal the closed forms `b_unknot` / `b_extremal_twist`;
* a `series` gamma table, turned into BPS numbers, must equal `b_unknot`;
* `verify tables` must pass every golden table.

`References` caches what it computes, so one run checks every repetition of a
roster against the same references.
"""

import hashlib
import os
from fractions import Fraction

from framedbps.closedforms import b_extremal_twist, b_unknot
from framedbps.curves import (GammaSeries, bps_from_gamma, lagrange_log_y,
                              make_curve, normalize)
from framedbps.ovengine import OVTable, ov_table, strong_integrality_check

from workloads import GOLDEN_DIR


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(text, header):
    """Data rows of a CSV text whose first non-comment line is `header`."""
    lines = [line.strip() for line in text.splitlines()
             if line.strip() and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}, got {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def table_entries(text):
    """{(i2, j2): N} from `ov-table --format csv` output, in printed order."""
    return {(int(i2), int(j2)): int(n) for i2, j2, n in _csv_rows(text, "i2,j2,N")}


def twin_key(check):
    """(link, colors, framings) with the component order reversed."""
    return (check["link"], tuple(check["colors"][::-1]), tuple(check["framings"][::-1]))


def table_key(check):
    return (check["link"], tuple(check["colors"]), tuple(check["framings"]))


class References:
    """Reference values, each computed once per benchmark run."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def golden_rows(self, name):
        def load():
            with open(os.path.join(GOLDEN_DIR, name + ".csv")) as fh:
                return _csv_rows(fh.read(), "i2,j2,N")
        return self._memo(("golden", name), load)

    def table(self, link, colors, framings):
        return self._memo(("table", link, colors, framings),
                          lambda: ov_table(link, colors, framings).entries)

    def unknot_closed(self, r_max, tau):
        """{(r, m): b} of the closed form for r <= r_max, zeros dropped."""
        def compute():
            out = {}
            for r in range(1, r_max + 1):
                for m in range(-r, r + 1):
                    b = b_unknot(r, m, tau)
                    if b:
                        out[(r, m)] = b
            return out
        return self._memo(("unknot", r_max, tau), compute)

    def unknot_curve(self, r, tau):
        def compute():
            nf = normalize(make_curve("unknot", "full", tau), r)
            return bps_from_gamma(lagrange_log_y(nf, r))
        return self._memo(("curve", r, tau), compute)

    def twist_closed(self, p, tau, r_max):
        return self._memo(("twist", p, tau, r_max), lambda: {
            (r, sign): b_extremal_twist(r, sign, p, tau)
            for r in range(1, r_max + 1) for sign in ("-", "+")})


def _level(bps, r):
    return {m: b for (rr, m), b in bps.items() if rr == r}


def check_table(check, stdout, refs, roster_tables):
    entries = table_entries(stdout)
    problems = []
    if check.get("golden"):
        rows = _csv_rows(stdout, "i2,j2,N")
        if rows != refs.golden_rows(check["golden"]):
            problems.append(f"differs from golden {check['golden']}")
    colors = tuple(check["colors"])
    table = OVTable(colors, check["framings"], sum(1 for r in colors if r), entries, None)
    if not strong_integrality_check(table):
        problems.append("parity violation")
    twin = twin_key(check)
    if twin != table_key(check):
        twin_entries = roster_tables.get(twin)
        if twin_entries is None:
            twin_entries = refs.table(*twin)
        if twin_entries != entries:
            problems.append(f"differs from its twin {twin}")
    if check["link"] == "unknot":
        (r,), (tau,) = colors, check["framings"]
        rows = {}
        for (i2, _), n in entries.items():
            rows[i2] = rows.get(i2, 0) + n
        rows = {m: b for m, b in rows.items() if b}
        if rows != _level(refs.unknot_closed(r, tau), r):
            problems.append("BPS list differs from b_unknot")
        if rows != _level(refs.unknot_curve(r, tau), r):
            problems.append("BPS list differs from the curve pipeline")
    return problems


def check_bps(check, stdout, refs):
    tau, r_max = check["tau"], check["r_max"]
    rows = _csv_rows(stdout, f"r,{'m' if check['knot'] == 'unknot' else 'sign'},"
                             "b_curve,b_closed,match")
    got, problems = {}, []
    for r, m, b_curve, b_closed, match in rows:
        key = (int(r), int(m) if check["knot"] == "unknot" else m)
        if b_curve != b_closed or match != "yes":
            problems.append(f"row {key} does not match itself")
        got[key] = int(b_closed)
    if check["knot"] == "unknot":
        want = refs.unknot_closed(r_max, tau)
    else:
        want = refs.twist_closed(check["p"], tau, r_max)
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        problems.append(f"{len(bad)} values differ from the closed form, first {bad[0]}")
    return problems


def check_series(check, stdout, refs):
    order, tau = check["order"], check["tau"]
    gamma = GammaSeries({(int(r), int(m2)): Fraction(c)
                         for r, m2, c in _csv_rows(stdout, "r,m2,gamma")}, order)
    if bps_from_gamma(gamma) != refs.unknot_closed(order, tau):
        return ["BPS numbers of the gamma series differ from b_unknot"]
    return []


def check_verify_tables(check, stdout):
    lines = stdout.splitlines()
    passes = sum(1 for line in lines if line.startswith("table ") and line.endswith(": PASS"))
    if passes != check["count"] or lines[-1:] != [f"{check['count']}/{check['count']} tables pass"]:
        return [f"{passes}/{check['count']} golden tables pass"]
    return []


def check_job(job, record, refs, roster_tables):
    """Problems found with one job's result; an empty list means it passed."""
    if record["error"] is not None:
        return [f"raised {record['error']}"]
    if record["status"] != 0:
        tail = record["stderr"].strip().splitlines()[-1:]
        return [f"exit status {record['status']}" + (f": {tail[0]}" if tail else "")]
    check = job["check"]
    try:
        if check["kind"] == "table":
            return check_table(check, record["stdout"], refs, roster_tables)
        if check["kind"] == "bps":
            return check_bps(check, record["stdout"], refs)
        if check["kind"] == "series":
            return check_series(check, record["stdout"], refs)
        if check["kind"] == "verify-tables":
            return check_verify_tables(check, record["stdout"])
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown check kind {check['kind']!r}")


def roster_tables(jobs, records):
    """{table key: entries} of every table job of one roster run that succeeded."""
    out = {}
    for job, record in zip(jobs, records):
        if job["check"]["kind"] == "table" and record["status"] == 0 and not record["error"]:
            try:
                out[table_key(job["check"])] = table_entries(record["stdout"])
            except ValueError:
                pass
    return out
