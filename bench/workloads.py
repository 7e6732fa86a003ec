"""Job rosters for the two benchmark workloads.

A roster is a fixed, ordered list of `framedbps` command lines, each paired
with the reference check its output must pass.  The job order never depends
on the seed, so every seed warms the program's `lru_cache`s in the same
pattern.  The seed only draws framings, under one rule: it never changes the
multiset of |framing| values a workload uses, and it moves a magnitude from
one job to another only inside a stratum of jobs whose cost does not follow
|framing|.

* links-table: the Whitehead/Borromean sweep is one stratum, and the
  (3,4)/(4,3) twin pair another.  The seed shuffles `SWEEP_MAGNITUDES` over
  the ten framing slots of the sweep and `TWIN_MAGNITUDES` over the two slots
  of the pair, and draws every sign.  Link-table cost is flat in the
  framing (a Whitehead (4,4) table does the same number of coefficient
  products, within 1.5%, for every framing in -3..3), so the shuffle keeps the
  cost of every seed alike.
* the unknot tables of links-table and the `series` jobs of curve-bps: cost
  grows with |framing| (unknot r=10 takes about twice as long at |tau|=3 as
  at 0; a Newton solve at order 20 does nine times the products at |tau|=1
  that it does at 0), so each job is a stratum of its own.  The magnitude is
  fixed per job and the seed draws its sign; cost is symmetric in the sign
  (the product counts of tau and -tau agree exactly for unknot tables and
  within 10% for the series solvers).
* the `bps` jobs of curve-bps: their cost depends on the sign as well
  (`bps --knot unknot --r-max 20` takes three times as long at tau=-2 as at
  tau=2), so their framings are fixed and the seed draws nothing for them;
  nor for the largest `series` job (see `CURVE_LARGEST`).
"""

import os
import random

WORKLOADS = ("links-table", "curve-bps")

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "src", "framedbps", "golden")

# (link, colors) in roster order; (3,4) takes the twin slots and (4,3) the
# same slots swapped, so each is the other's swapped-color/framing twin.
SWEEP = (("whitehead", (3, 3)), ("whitehead", (3, 4)), ("whitehead", (4, 3)),
         ("whitehead", (4, 4)), ("borromean", (2, 2, 3)), ("borromean", (2, 3, 3)))
SWEEP_MAGNITUDES = (0, 0, 1, 1, 1, 2, 2, 2, 3, 3)
TWIN_MAGNITUDES = (1, 2)
# unknot tables after the sweep: (color r, |framing|).
UNKNOT_TABLES = ((6, 3), (8, 3))

# bps --source both: (knot, p, framing, r-max), framings fixed.
CURVE_BPS = (("unknot", None, -2, 20), ("twist", -3, 1, 30), ("twist", -2, -2, 30),
             ("twist", -1, 1, 30), ("twist", 2, 2, 30), ("twist", 3, -1, 30))
# series --kind full for the unknot: (order, |framing|).
CURVE_SERIES = ((8, 3), (12, 3), (16, 2))
# The largest job, series at order 20, has its framing fixed: its sign moves
# the cost by about 5%, which the one-job largest_job_s would show.
CURVE_LARGEST = (20, 2)


def _vec(values):
    return ",".join(str(v) for v in values)


def table_job(link, colors, framings, golden=None):
    return {"name": f"ov-table {link} {_vec(colors)} @ {_vec(framings)}",
            "argv": ["ov-table", "--link", link, "--colors", _vec(colors),
                     "--framing", _vec(framings), "--format", "csv"],
            "check": {"kind": "table", "link": link, "colors": list(colors),
                      "framings": list(framings), "golden": golden}}


def golden_tables():
    """(name, link, colors, framings) of every bundled golden table, by name."""
    out = []
    for fname in sorted(os.listdir(GOLDEN_DIR)):
        if not fname.endswith(".csv"):
            continue
        with open(os.path.join(GOLDEN_DIR, fname)) as fh:
            header = fh.readline()
        fields = dict(kv.split("=") for kv in header.lstrip("#").split())
        out.append((fname[:-4], fields["link"],
                    tuple(int(x) for x in fields["colors"].split(",")),
                    tuple(int(x) for x in fields["framings"].split(","))))
    return out


def _signed(rng, magnitude):
    return magnitude if rng.random() < 0.5 else -magnitude


def _links_table(rng):
    jobs = [table_job(link, colors, framings, golden=name)
            for name, link, colors, framings in golden_tables()]
    jobs.append({"name": "verify tables", "argv": ["verify", "tables"],
                 "check": {"kind": "verify-tables", "count": len(jobs)}})
    slots, twin = list(SWEEP_MAGNITUDES), list(TWIN_MAGNITUDES)
    rng.shuffle(slots)
    rng.shuffle(twin)
    slots = [_signed(rng, m) for m in slots]
    twin = tuple(_signed(rng, m) for m in twin)
    largest = None
    for link, colors in SWEEP:
        if colors == (3, 4):
            framings = twin
        elif colors == (4, 3):
            framings = twin[::-1]
        else:
            framings = tuple(slots[:len(colors)])
            del slots[:len(colors)]
        if colors == (4, 4):
            largest = len(jobs)
        jobs.append(table_job(link, colors, framings))
    jobs += [table_job("unknot", (r,), (_signed(rng, m),)) for r, m in UNKNOT_TABLES]
    return jobs, largest


def _curve_bps(rng):
    jobs = []
    for knot, p, tau, r_max in CURVE_BPS:
        argv = ["bps", "--knot", knot, "--framing", str(tau), "--r-max", str(r_max),
                "--source", "both", "--format", "csv"]
        if p is not None:
            argv[3:3] = ["--p", str(p)]
        jobs.append({"name": f"bps {knot}{'' if p is None else f' p={p}'} tau={tau} "
                             f"r-max {r_max}",
                     "argv": argv,
                     "check": {"kind": "bps", "knot": knot, "p": p, "tau": tau,
                               "r_max": r_max}})
    series = [(order, _signed(rng, mag)) for order, mag in CURVE_SERIES]
    for order, tau in series + [CURVE_LARGEST]:
        jobs.append({"name": f"series unknot full tau={tau} order {order}",
                     "argv": ["series", "--knot", "unknot", "--kind", "full",
                              "--framing", str(tau), "--order", str(order),
                              "--format", "csv"],
                     "check": {"kind": "series", "tau": tau, "order": order}})
    return jobs, len(jobs) - 1


_BUILDERS = {"links-table": _links_table, "curve-bps": _curve_bps}


def build_roster(workload, seed):
    """The roster of `workload` for `seed`: {"jobs": [...], "largest": index}."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, largest = _BUILDERS[workload](rng)
    return {"workload": workload, "seed": seed, "jobs": jobs, "largest": largest}
