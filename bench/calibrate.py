"""CPU clock and calibration slices for timing on a shared machine.

    python3 bench/calibrate.py     # prints the CPU seconds of one slice

A calibration slice is a fixed computation that is none of the program's
code: one product of two fixed two-variable Laurent polynomials with
`Fraction` coefficients, summed into a dict.  That is the same kind of work
as the program's inner loop (`framedbps.laurent.lp_mul`), so a slice slows
and speeds with a shared machine as the program does, while no change to the
program can move it.  The worker runs slices after set-up and between jobs,
and `run.py` scales each set-up and job time by the slices next to it (see
README.md).
"""

import gc
import resource
import time


def cpu_clock():
    """CPU seconds, user and system, used by this process and its waited-for children.

    The program is single-threaded and computes without waiting, so on an idle
    machine this is its wall time (within 3%).  On a shared machine it leaves
    out the time the process spends descheduled, by this system or, through
    steal-time accounting, by the host."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _operands():
    import random                      # imported here, so that a worker's
    from fractions import Fraction     # set-up time does not include them
    rng = random.Random(20250224)
    p = {(d, a): Fraction(rng.randrange(-99, 100), rng.choice((1, 1, 1, 2, 3)))
         for d in range(-7, 8) for a in range(0, 9)}
    q = {(d, a): Fraction(rng.randrange(-10 ** 6, 10 ** 6))
         for d in range(-5, 6) for a in range(-3, 4)}
    return p, q


def calibration_slice():
    """CPU seconds of one slice.

    The garbage collector is off meanwhile (the slice makes no cycles), so
    that the objects a program keeps alive cannot slow the slice down."""
    p, q = _operands()
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = cpu_clock()
        r = {}
        for (d1, a1), c1 in p.items():
            for (d2, a2), c2 in q.items():
                k = (d1 + d2, a1 + a2)
                r[k] = r.get(k, 0) + c1 * c2
        return cpu_clock() - c0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    print(repr(calibration_slice()))
