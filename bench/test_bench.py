"""Tests of the benchmark itself: python -m pytest bench"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from checks import References  # noqa: E402
from workloads import WORKLOADS, build_roster, table_job  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _roster(jobs, largest=0):
    return {"workload": "test", "seed": 0, "jobs": jobs, "largest": largest}


def test_failed_jobs_are_counted_and_do_not_stop_the_run():
    good = table_job("whitehead", (2, 2), (0, 1), golden="w22_f01")
    rejected = {"name": "rejected argv",
                "argv": ["ov-table", "--link", "unknot", "--colors", "2,1",
                         "--framing", "0", "--format", "csv"],
                "check": {"kind": "table", "link": "unknot", "colors": [2, 1],
                          "framings": [0], "golden": None}}
    wrong_reference = table_job("whitehead", (2, 2), (0, 0), golden="w22_f11")
    last = table_job("whitehead", (2, 3), (1, 1), golden="w23_f11")
    roster = _roster([good, rejected, wrong_reference, last])
    result = run.spawn([job["argv"] for job in roster["jobs"]])
    records, failed = run.evaluate(roster, [result], References())
    assert failed == 2
    assert [rec["status"] for rec in records] == [[0], [2], [0], [0]]
    assert records[0]["check"] == "pass" and records[3]["check"] == "pass"
    assert records[1]["check"].startswith("exit status 2")
    assert "golden w22_f11" in records[2]["check"]


def test_twin_and_bps_references_pass_on_small_jobs():
    jobs = [table_job("whitehead", (1, 2), (1, -1)), table_job("whitehead", (2, 1), (-1, 1)),
            table_job("borromean", (1, 1, 2), (0, 1, -1)), table_job("unknot", (4,), (-2,))]
    roster = _roster(jobs)
    result = run.spawn([job["argv"] for job in jobs])
    records, failed = run.evaluate(roster, [result, result], References())
    assert failed == 0, [rec["check"] for rec in records]
    assert all(rec["digest"] and len(rec["status"]) == 2 for rec in records)


def test_digest_drift_between_runs_is_a_failure():
    job = table_job("whitehead", (2, 2), (0, 0), golden="w22_f00")
    roster = _roster([job])
    first = run.spawn([job["argv"]])
    second = json.loads(json.dumps(first))
    second["jobs"][0]["stdout"] += "\n"
    records, failed = run.evaluate(roster, [first, second], References())
    assert failed == 1
    assert "differs between roster runs" in records[0]["check"]


def _self_times(starts, ends, parents):
    """Each span's duration minus its children's durations, from the span file."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def test_traced_self_times_tile_the_traced_wall(tmp_path):
    jobs = [["ov-table", "--link", "whitehead", "--colors", "2,2", "--framing", "0,1",
             "--format", "csv"],
            ["ov-table", "--link", "unknot", "--colors", "5", "--framing", "1"],
            ["bps", "--knot", "unknot", "--framing", "-1", "--r-max", "8"],
            ["series", "--knot", "unknot", "--framing", "2", "--order", "8"]]
    spans_path = tmp_path / "spans.tsv"
    result = run.spawn(jobs, trace=True, spans_path=str(spans_path))
    assert all(job["status"] == 0 for job in result["jobs"])
    trace = result["trace"]
    with open(spans_path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    assert len(rows) == trace["spans"]
    starts = [float(r[3]) for r in rows]
    ends = [float(r[4]) for r in rows]
    parents = [int(r[1]) for r in rows]
    roots = [i for i, p in enumerate(parents) if p == -1]
    assert [rows[i][2] for i in roots] == ["bench.roster"]
    wall = ends[roots[0]] - starts[roots[0]]
    assert abs(sum(_self_times(starts, ends, parents)) - wall) <= 1e-6 * wall
    assert abs(sum(s[2] for s in trace["stats"].values()) - trace["root_s"]) <= 1e-6 * wall
    metrics = run.layer_metrics(trace)
    assert metrics["trace.coverage_ratio"][0] >= 0.9
    for name in ("laurent.lp_mul.calls", "qsymbols.BraceRatio.add.calls",
                 "links.homfly.calls", "ovengine.connected_F.calls",
                 "curves.newton_rounds", "closedforms.calls"):
        assert metrics[name][0] > 0, name


def test_metric_names_match_benchmark_json():
    trace = {"stats": {}, "counters": dict.fromkeys(
        ("lp_mul.term_products", "coeffs", "nonint_coeffs", "coeff_bits.max",
         "raise_factors", "reduce_divisions", "den_factors.max", "partitions",
         "newton_rounds"), 0), "homfly_cache": {"hits": 0, "misses": 0}, "root_s": 1.0}
    runs = [{"trace": trace, "wall_s": 2.0}]
    per_layer = run.per_layer(runs, [{"wall_s": 1.0}])
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in per_layer.items()} == spec
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _timings(slowdown, slice_s=run.REFERENCE_SLICE_S, spell=1.0):
    """Two roster runs of two jobs; a spell slows the second job and the slices by it."""
    probes = [{"setup_s": 0.09 * slowdown, "slices": [slice_s * slowdown] * 3}]
    slices = [slice_s * slowdown * c for c in (1.0, 1.0, 1.0, spell, spell, spell)]
    runs = [{"jobs": [{"seconds": 1.0 * slowdown, "slice_before": 2},
                      {"seconds": 3.0 * slowdown * spell, "slice_before": 3}],
             "peak_rss_mb": 20.0, "slices": slices}] * 2
    return runs, probes


def test_calibration_slices_cancel_a_slower_machine():
    roster = _roster([None, None], largest=1)
    base = run.end_to_end(roster, *_timings(1.0))
    assert base == {"setup_s": 0.09, "roster_ref_s": 4.0, "job_ref_s.p50": 2.0,
                    "largest_job_ref_s": 3.0, "peak_rss_mb": 20.0}
    slow = run.end_to_end(roster, *_timings(1.3))
    assert slow == {name: pytest.approx(value) for name, value in base.items()}
    # a slow spell over the second job: its time and the slices around it rise together
    spell = run.end_to_end(roster, *_timings(1.0, spell=1.5))
    assert spell["largest_job_ref_s"] == pytest.approx(3.0 * 1.5 / ((1.0 + 3 * 1.5) / 4))
    faster_machine = run.end_to_end(roster, *_timings(1.0, slice_s=run.REFERENCE_SLICE_S / 2))
    assert faster_machine["roster_ref_s"] == pytest.approx(8.0)


def test_rosters_follow_the_seed_and_keep_the_framing_magnitudes():
    for workload in WORKLOADS:
        a, b = build_roster(workload, 1), build_roster(workload, 1)
        assert a == b
        mags = set()
        for seed in range(1, 8):
            roster = build_roster(workload, seed)
            argvs = [job["argv"] for job in roster["jobs"]]
            framings = sorted(abs(int(x)) for argv in argvs if "--framing" in argv
                              for x in argv[argv.index("--framing") + 1].split(","))
            mags.add(tuple(framings))
        assert len(mags) == 1, workload
    assert build_roster("links-table", 1) != build_roster("links-table", 2)
