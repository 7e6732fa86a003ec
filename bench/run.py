"""framedbps benchmark: run one workload, check every output, report metrics.

    python3 bench/run.py --workload links-table --seed 1 --seconds 25 --trace 0

Each roster run happens in a fresh interpreter (`worker.py`), one after
another, until the next run would end after `--seconds`.  Set-up-only starts
of the worker (probes) come before the first roster run and after each one.
With `--trace 0` the end-to-end metrics come from the roster runs (means)
and set-up-only starts (median), in CPU seconds scaled by the calibration
slices each worker ran (`scale`); with `--trace 1` traced and untraced runs
alternate, and the per-layer metrics come from the traced ones.  Every job's
output is checked against a reference computed apart from the timed call
(`checks.py`).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record, with each job's check outcome and output digest, goes to
`bench/results/`.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4          # set-up-only starts before the first roster run
PROBES_PER_ROSTER = 2     # and after each roster run
# The metrics read as CPU seconds on a machine as fast as the one the benchmark
# was defined on, where a calibration slice took about this long.
REFERENCE_SLICE_S = 0.05
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "roster_ref_s": "s", "job_ref_s.p50": "s",
                    "largest_job_ref_s": "s", "peak_rss_mb": "MiB"}


def spawn(jobs, trace=False, spans_path=None):
    """One fresh-interpreter roster run; adds the set-up times to the worker's result."""
    request = json.dumps({"jobs": jobs, "trace": trace, "spans_path": spans_path})
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(request, timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:   # never leave the worker running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"roster run exceeded {WORKER_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}: {err.strip()}")
    result = json.loads(out)
    result["setup_s"] = result["ready_cpu_s"]
    result["setup_wall_s"] = result["ready_monotonic"] - t0
    return result


def scale(slices):
    """The factor that turns CPU seconds into reference seconds.

    A shared machine runs the same code up to a third faster or slower, in
    spells that come and go within seconds and can outlast a whole run.
    Calibration slices run in the same spell as the time they scale, so
    REFERENCE_SLICE_S over their mean cancels the machine's speed and leaves
    the program's.  The mean, not the median: a job's time sums the
    machine's slowness over the job, and the slices' mean estimates its rate."""
    return REFERENCE_SLICE_S / statistics.mean(slices)


def scaled_jobs(result):
    """A roster run's job times in reference seconds.

    A job runs between the slice at its `slice_before` index and the next
    one; it is scaled by those two and one more on each side."""
    slices = result["slices"]
    return [job["seconds"] * scale(slices[max(0, job["slice_before"] - 1):
                                          job["slice_before"] + 3])
            for job in result["jobs"]]


def environment(roster):
    """What a comparison needs to be like for like."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "framedbps"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "git_commit": git_commit(), "src_digest": src.hexdigest(),
            "seed": roster["seed"],
            "roster_digest": hashlib.sha256(json.dumps(
                [job["argv"] for job in roster["jobs"]]).encode()).hexdigest()}


def git_commit():
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def evaluate(roster, runs, refs):
    """Check every job of every run; returns per-job records and the failure count."""
    from checks import check_job, digest, roster_tables
    jobs = roster["jobs"]
    records = [{"name": job["name"], "argv": job["argv"], "status": [], "seconds": [],
                "digest": None, "check": "pass"} for job in jobs]
    failed = 0
    for run in runs:
        tables = roster_tables(jobs, run["jobs"])
        for job, rec, res in zip(jobs, records, run["jobs"]):
            rec["status"].append(res["status"])
            rec["seconds"].append(res["seconds"])
            problems = check_job(job, res, refs, tables)
            out_digest = digest(res["stdout"])
            if rec["digest"] is None:
                rec["digest"] = out_digest
            elif rec["digest"] != out_digest:
                problems.append("output differs between roster runs")
            if problems:
                failed += 1
                if rec["check"] == "pass":
                    rec["check"] = "; ".join(problems)
    return records, failed


def end_to_end(roster, runs, probes):
    """The end-to-end metrics from scaled CPU seconds.

    Set-up is the median over the set-up-only starts, each scaled by the
    slices right after it.  Roster, median-job and largest-job times are
    means over roster runs: the machine's speed drifts during a run, and the
    mean sums that drift as the slices' mean does, while CPU time already
    leaves out the stalls that would make a mean fragile."""
    jobs = [scaled_jobs(run) for run in runs]
    return {"setup_s": statistics.median(p["setup_s"] * scale(p["slices"]) for p in probes),
            "roster_ref_s": statistics.mean(sum(times) for times in jobs),
            "job_ref_s.p50": statistics.mean(statistics.median(times) for times in jobs),
            "largest_job_ref_s": statistics.mean(times[roster["largest"]] for times in jobs),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs)}


def per_layer(traced, untraced):
    """The per-layer metrics of BENCHMARK.json, medians over the traced runs."""
    per_run = [layer_metrics(run["trace"]) for run in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    overhead = (statistics.median(run["wall_s"] for run in traced)
                / statistics.median(run["wall_s"] for run in untraced) - 1)
    metrics["trace.overhead_ratio"] = (overhead, "1")
    return metrics


def layer_metrics(trace):
    """{metric: (value, unit)} from one traced run's summary."""
    stats, counters = trace["stats"], trace["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self(layer):
        return sum(s[2] for name, s in stats.items() if name.startswith(layer + "."))

    homfly = [name for name in stats if name.startswith("links.homfly_")]
    cache = trace["homfly_cache"]
    lookups = cache["hits"] + cache["misses"]
    out = {f"{layer}.self_s": (layer_self(layer), "s") for layer in LAYERS}
    out.update({
        "laurent.lp_mul.calls": (calls("laurent.lp_mul"), "count"),
        "laurent.lp_mul.self_s": (self_s("laurent.lp_mul"), "s"),
        "laurent.lp_mul.term_products": (counters["lp_mul.term_products"], "count"),
        "laurent.lp_exact_div.calls": (calls("laurent.lp_exact_div"), "count"),
        "laurent.lp_exact_div.self_s": (self_s("laurent.lp_exact_div"), "s"),
        "laurent.series_mul.calls": (calls("laurent.series_mul"), "count"),
        "laurent.series_mul.self_s": (self_s("laurent.series_mul"), "s"),
        "laurent.series_inv.calls": (calls("laurent.series_inv"), "count"),
        "laurent.coeff_bits.max": (counters["coeff_bits.max"], "bits"),
        "laurent.nonint_coeff_ratio": (counters["nonint_coeffs"] / counters["coeffs"]
                                       if counters["coeffs"] else 0.0, "1"),
        "qsymbols.BraceRatio.add.calls": (calls("qsymbols.BraceRatio.add"), "count"),
        "qsymbols.BraceRatio.add.busy_s": (busy("qsymbols.BraceRatio.add"), "s"),
        "qsymbols.raise_factors": (counters["raise_factors"], "count"),
        "qsymbols.BraceRatio.reduce.busy_s": (busy("qsymbols.BraceRatio.reduce"), "s"),
        "qsymbols.reduce_divisions": (counters["reduce_divisions"], "count"),
        "qsymbols.den_factors.max": (counters["den_factors.max"], "count"),
        "links.homfly.calls": (sum(calls(name) for name in homfly), "count"),
        "links.homfly.busy_s": (sum(busy(name) for name in homfly), "s"),
        "links.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "1"),
        "ovengine.connected_F.calls": (calls("ovengine.connected_F"), "count"),
        "ovengine.connected_F.busy_s": (busy("ovengine.connected_F"), "s"),
        "ovengine.partitions": (counters["partitions"], "count"),
        "ovengine.p_poly.busy_s": (busy("ovengine.p_poly"), "s"),
        "ovengine.bps_list.busy_s": (busy("ovengine.bps_list"), "s"),
        "curves.normalize.busy_s": (busy("curves.normalize"), "s"),
        "curves.lagrange_log_y.busy_s": (busy("curves.lagrange_log_y"), "s"),
        "curves.solve_w_series.busy_s": (busy("curves.solve_w_series"), "s"),
        "curves.newton_rounds": (counters["newton_rounds"], "count"),
        "curves.bps_from_gamma.busy_s": (busy("curves.bps_from_gamma"), "s"),
        "closedforms.calls": (sum(s[0] for name, s in stats.items()
                                  if name.startswith("closedforms.")), "count"),
        "trace.coverage_ratio": (sum(layer_self(layer) for layer in LAYERS)
                                 / trace["root_s"], "1"),
    })
    return out


def measure(roster, seconds, trace, spans_stem=None):
    """Roster runs until the next one would end after `seconds`.

    Set-up-only starts come before the first roster run and after each one,
    so that the set-up samples spread over the whole run.  Untraced: every
    roster run counts.  Traced: runs alternate traced/untraced,
    starting traced, and at least one of each is made; the first traced run
    writes its spans to `<spans_stem>.spans.tsv`."""
    jobs = [job["argv"] for job in roster["jobs"]]
    spawn([])                                     # warm the file cache and bytecode
    probes = [spawn([]) for _ in range(SETUP_PROBES)]
    runs, traced = [], []
    t0 = time.monotonic()
    while True:
        if trace and len(traced) <= len(runs):
            spans = f"{spans_stem}.spans.tsv" if spans_stem and not traced else None
            traced.append(spawn(jobs, trace=True, spans_path=spans))
        else:
            runs.append(spawn(jobs))
        probes += [spawn([]) for _ in range(PROBES_PER_ROSTER)]
        elapsed = time.monotonic() - t0
        done = len(runs) + len(traced)
        if (not trace or (runs and traced)) and elapsed * (done + 1) / done > seconds:
            break
    return runs, traced, probes


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so `spawn` stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "framedbps", "cli.py")):
        sys.exit(f"error: no framedbps sources under {SRC}")
    sys.path.insert(0, SRC)
    from checks import References
    from workloads import WORKLOADS, build_roster
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")

    roster = build_roster(args.workload, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    runs, traced, probes = measure(roster, args.seconds, bool(args.trace), stem)
    records, failed = evaluate(roster, runs + traced, References())
    attempted = len(roster["jobs"]) * (len(runs) + len(traced))

    e2e = end_to_end(roster, runs, probes)
    if args.trace:
        metrics = per_layer(traced, runs)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(roster),
              "roster_runs": len(runs), "traced_runs": len(traced),
              "setup_samples": len(probes),
              "job_samples": len(roster["jobs"]) * len(runs),
              "largest_job": roster["jobs"][roster["largest"]]["name"],
              "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted,
              "end_to_end": e2e,
              "unscaled": {
                  "setup_cpu_s": statistics.median(p["setup_s"] for p in probes),
                  "setup_wall_s": statistics.median(p["setup_wall_s"] for p in probes),
                  "roster_cpu_s": statistics.median(run["cpu_s"] for run in runs),
                  "roster_wall_s": statistics.median(run["wall_s"] for run in runs),
                  "slice_s": statistics.mean(x for run in probes + runs
                                             for x in run["slices"])},
              "probes": [{k: p[k] for k in ("setup_s", "setup_wall_s", "slices")}
                         for p in probes],
              "per_run": [{k: run[k] for k in ("setup_s", "setup_wall_s", "cpu_s", "wall_s",
                                               "peak_rss_mb", "slices")} for run in runs],
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
              "jobs": records}
    if traced:
        record["traced_per_run"] = [{"wall_s": run["wall_s"], "spans": run["trace"]["spans"],
                                     "root_s": run["trace"]["root_s"]} for run in traced]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} untraced and "
          f"{len(traced)} traced roster runs of {len(roster['jobs'])} jobs, "
          f"one client, closed loop")
    for rec in records:
        if rec["check"] != "pass":
            print(f"FAILED {rec['name']}: {rec['check']}")
    print(f"{'failed_ratio':<36} {failed / attempted:<12.6g} {'1':<6} {failed}/{attempted} jobs")
    notes = {"setup_s": f"median of {record['setup_samples']} interpreter starts",
             "roster_ref_s": f"mean of {len(runs)} roster runs",
             "job_ref_s.p50": f"median over {len(roster['jobs'])} jobs, mean of "
                              f"{len(runs)} roster runs ({record['job_samples']} job times)",
             "largest_job_ref_s": f"{record['largest_job']}, mean of {len(runs)}",
             "peak_rss_mb": f"median of {len(runs)} roster runs"}
    for name, value in e2e.items():
        print(f"{name:<36} {fmt(value):<12} {END_TO_END_UNITS[name]:<6} {notes[name]}")
    for name, value in record["unscaled"].items():
        print(f"{'(unscaled ' + name + ')':<36} {fmt(value):<12} {'s':<6} not a metric")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<36} {fmt(value):<12} {unit}")
    print(f"record: {os.path.relpath(stem + '.json', ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
