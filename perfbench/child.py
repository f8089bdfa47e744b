"""Run one ``cdfreg.cli.main`` call in a fresh process and report its cost.

Usage: python3 perfbench/child.py RESULT_JSON TRACE(0|1) CLI_ARG...

The package is imported the way the tests import it (``PYTHONPATH=src``).
The result file holds the CLOCK_MONOTONIC time at which set-up ended (the
parent turns it into set-up time), the wall and CPU time of ``main``, the
times of a fixed reference computation run just before and just after
``main``, the peak resident set, the exit code, library versions, and with
TRACE=1 the tracer's per-(function, caller) table.

The reference computation reads the speed the host gives this process at the
time of the run. It mixes interpreter work and small numpy operations, as the
cdfreg hot paths do, and calls nothing of cdfreg, so a change to the program
cannot move it. The parent divides the times of ``main`` by it.
"""

import json
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# One reference call runs REF_ITERS iterations; it is timed REF_CALLS times on
# each side of main. REF_NOMINAL_S, about its time on an uncontended core of a
# 2-vCPU Xeon VM, sets the unit of the normalised times.
REF_ITERS = 12000
REF_NOMINAL_S = 0.035
REF_CALLS = 8


def _reference():
    import numpy as np
    x = np.linspace(-1.0, 1.0, 24)
    acc = 0.0
    for i in range(REF_ITERS):
        acc += float(np.exp(-(1 + i % 7) * x * x) @ x) + (i * i) % 7
    return acc


def _reference_times():
    times = []
    for _ in range(REF_CALLS):
        t0 = _now()
        _reference()
        times.append(_now() - t0)
    return times


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from cdfreg import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    set_up = _now()
    ref_before = _reference_times()
    main_called = _now()
    cpu0 = _cpu()
    code = cli.main(argv)
    wall = _now() - main_called
    cpu = _cpu() - cpu0
    ref_after = _reference_times()
    result = {"set_up": set_up, "wall_s": wall, "cpu_s": cpu,
              "ref_before_s": ref_before, "ref_after_s": ref_after,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "exit_code": code, "versions": _versions()}
    if tracer is not None:
        result["trace"] = tracer.table()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
