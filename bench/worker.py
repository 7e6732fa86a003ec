"""One roster run in a fresh interpreter: the benchmark's single client.

Reads a request from standard input, a JSON object
`{"jobs": [argv, ...], "trace": bool, "spans_path": str or null}`, sends the
jobs one after another through `framedbps.cli.main(argv)` with their output
captured (a closed loop: the next job starts when the previous one returns),
and writes one JSON object with each job's exit status, times and output to
standard output.  The roster runs in a process of its own so that cold
`lru_cache`s, import cost and peak memory are what a command-line user pays.

Every time is taken twice: in CPU seconds (`cpu_clock`, the figures the
benchmark reports) and in wall seconds.  `ready_cpu_s` is the CPU time the
process has used once `framedbps` is imported and the request is read, which
is its set-up time; `ready_monotonic` is the system-wide monotonic clock at
that moment, from which the parent gets the set-up time in wall seconds.

Unless it traces, the worker runs SETUP_SLICES calibration slices
(`calibrate.py`) right after set-up, one before any job that follows at least
SLICE_EVERY_S CPU seconds of jobs since the last slice, and one after the
last job, and reports the slice times; each job record holds the index of
the last slice before it.  Job and roster times never include a slice.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

from calibrate import calibration_slice, cpu_clock

SETUP_SLICES = 3
SLICE_EVERY_S = 0.25
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_job(main, argv):
    """Run one command line; returns (exit status or None, error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    status, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:   # argparse rejects the command line
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # a job that raises is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
    return status, error, out.getvalue(), err.getvalue()


def run_roster(cli, jobs, tracer=None, slices=None):
    """Run `jobs` in order; returns the per-job records.

    With a `slices` list, calibration slices run between the jobs as the
    module describes and their times are appended to it."""
    wall = time.perf_counter

    def one(argv):
        c0, t0 = cpu_clock(), wall()
        status, error, out, err = run_job(cli.main, argv)
        return {"status": status, "error": error, "seconds": cpu_clock() - c0,
                "wall_seconds": wall() - t0, "stdout": out, "stderr": err}

    def roster():
        records, since = [], 0.0
        for argv in jobs:
            if slices is not None and since >= SLICE_EVERY_S:
                slices.append(calibration_slice())
                since = 0.0
            records.append(one(argv))
            since += records[-1]["seconds"]
            if slices is not None:
                records[-1]["slice_before"] = len(slices) - 1
        if slices is not None and records:
            slices.append(calibration_slice())
        return records

    if tracer is not None:
        one = tracer.wrap("bench.job", one)
        roster = tracer.wrap("bench.roster", roster)
    return roster()


def main():
    sys.path.insert(0, SRC)
    import framedbps.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "")):
        sys.exit(f"framedbps was imported from {cli.__file__}, not from {SRC}")
    request = json.load(sys.stdin)
    ready, ready_cpu = time.monotonic(), cpu_clock()
    tracer, slices = None, None
    if request.get("trace"):
        from tracer import Tracer
        tracer = Tracer().install()
    else:
        slices = [calibration_slice() for _ in range(SETUP_SLICES)]
    records = run_roster(cli, request["jobs"], tracer, slices)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready_monotonic": ready, "ready_cpu_s": ready_cpu,
              "cpu_s": sum(rec["seconds"] for rec in records),
              "wall_s": sum(rec["wall_seconds"] for rec in records),
              "peak_rss_mb": peak_kib / 1024, "jobs": records, "slices": slices}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
