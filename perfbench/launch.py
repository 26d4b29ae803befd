"""Run one mfspin command in this process, as the ``mfspin`` console script does.

    python3 launch.py STAMP TRACE ARG...

STAMP receives the CLOCK_MONOTONIC time at which ``import mfspin.cli``
finished, the duration of that import and the path it was imported from, so
the harness can measure start-up.  TRACE is ``-`` for an untraced command;
otherwise the tracer is installed before the command runs and its counters
are written to TRACE when the command ends.
"""

import sys
import time


def main():
    stamp, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import mfspin.cli
    import_s = time.perf_counter() - t0
    ready = time.monotonic()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(f"{ready!r} {import_s!r} {mfspin.cli.__file__}\n")

    tracer = None
    if trace_path != "-":
        import tracer as tracing
        tracer = tracing.install()
    sys.argv = ["mfspin", *argv]
    try:
        mfspin.cli.main()
    finally:
        if tracer is not None:
            tracer.dump(trace_path, cache=tracing.nematic_cache_info())


if __name__ == "__main__":
    main()
