"""Child process of the benchmark: the ``qxform`` console script, plus an
import stamp and optional tracing.

    python3 launch.py STAMP TRACE_PREFIX|- RUN_ID QXFORM_ARGS...

After ``qxform`` and its numpy/scipy imports are loaded, the CLOCK_MONOTONIC
time in nanoseconds is written to STAMP, so the parent can subtract its
launch time.  With a TRACE_PREFIX other than ``-`` every public qxform
function is wrapped before the command runs, and the spans are written to
TRACE_PREFIX.npz/.json when it ends.  The exit code is qxform's.
"""

import sys
import time


def main() -> None:
    stamp, trace_prefix, run_id, *argv = sys.argv[1:]
    import qxform.cli

    imported = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with open(stamp, "w") as fh:
        fh.write(f"{imported}\n")
    sys.argv = ["qxform", *argv]
    if trace_prefix == "-":
        qxform.cli.console_main()  # raises SystemExit with qxform's exit code
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        qxform.cli.console_main()
    finally:
        tracer.dump(trace_prefix)


if __name__ == "__main__":
    main()
