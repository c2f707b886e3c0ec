"""Machine-speed samples from inside a benchmark child process.

On a machine shared with other loads, the same code runs up to 40% slower
in phases lasting from seconds to minutes.  The benchmark puts this
directory on a child's PYTHONPATH, so Python imports this module at
start-up.  When GWADAMS_BENCH_PROBES names a file, it times a fixed
~0.2 ms micro-probe once at start-up and then every INTERVAL_S of wall
time (on SIGALRM), and writes the times to that file at exit.  The parent
scales the child's timings by the mean probe time; see perfbench/README.md.
A process that must not be interrupted inside its timed work (the forms
worker) stops the timer and calls `sample()` between operations instead.
"""

import atexit
import os
import signal
import time

INTERVAL_S = 0.05
SAMPLES = []


def micro_probe() -> float:
    """Seconds taken by a fixed small-int loop and dict-of-tuples update."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    d = {}
    for i in range(200):
        d[(i, i + 1)] = d.get((i - 1, i), 0) + i
    return time.perf_counter() - t0


def sample(*_):
    SAMPLES.append(micro_probe())


def stop_timer():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _dump(path):
    stop_timer()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join("%.9f" % x for x in SAMPLES))


_path = os.environ.get("GWADAMS_BENCH_PROBES")
if _path:
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    atexit.register(_dump, _path)
