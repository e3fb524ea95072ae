"""Machine-speed probe: a fixed kernel timed over and over beside the child.

    python3 probe.py OUT_FILE STOP_AT

Runs ``kernel`` in a loop, sleeping ``PAUSE_S`` between calls, and appends
one line ``<CLOCK_MONOTONIC end time in s> <CPU time of the call in s>`` per
call to OUT_FILE.  It stops at CLOCK_MONOTONIC time STOP_AT, or as soon as
the process that started it is gone.

The shared host this benchmark was built on changes speed by up to 40% within
seconds, and every kind of work on a CPU slows alike.  The benchmark runs
this probe on the same CPU as the ``qxform`` child and scales the child's
times by ``REFERENCE_S`` times the mean of 1 / (CPU time of a call) over the
calls made during that child (see run.py).  A call is timed in the probe's own CPU time, so the time slices the
scheduler gives the child in between do not count.
"""

import math
import os
import sys
import time

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np  # noqa: E402

# CPU time of one kernel call at the reference speed: about the median on a
# 2-vCPU Xeon VM sharing its CPU with a qxform child.  A scaled time is in
# seconds at this probe speed.
REFERENCE_S = 0.0063
PAUSE_S = 0.08

_rng = np.random.default_rng(0)
_BATCH = _rng.standard_normal((60, 16, 16)) + 1j * _rng.standard_normal((60, 16, 16))
_BATCH = _BATCH + _BATCH.conj().transpose(0, 2, 1)
_SMALL = np.array([[1.0, 0.5], [0.5, -1.0]])


def kernel() -> float:
    """The mix ``qxform`` runs: a batched dim-16 ``eigh``, many dim-2 ``eigh``
    calls (per-call overhead) and a plain Python loop."""
    np.linalg.eigh(_BATCH)
    for _ in range(300):
        np.linalg.eigh(_SMALL)
    total = 0.0
    for i in range(10_000):
        total += math.sin(i)
    return total


def main() -> None:
    out_path, stop_at = sys.argv[1], float(sys.argv[2])
    parent = os.getppid()
    with open(out_path, "a") as out:
        while True:
            c0 = time.thread_time()
            kernel()
            cpu = time.thread_time() - c0
            t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
            out.write(f"{t1!r} {cpu!r}\n")
            out.flush()
            if t1 >= stop_at or os.getppid() != parent:
                return
            time.sleep(PAUSE_S)


if __name__ == "__main__":
    main()
