"""A fixed reference computation that measures how fast the machine runs now.

On a VM that shares its host, the speed of the same Python and numpy code
can change by 20-60% from one second to the next.  Each benchmark child
times this kernel right before and right after the CLI run, in the same
process, and the run's timings are reported scaled to a machine on which the
kernel takes REFERENCE_S (see run.py).  The kernel uses no stochlab code, so
a change to stochlab moves the scaled timings exactly as it moves the raw ones.

The kernel has two parts, shaped like the workloads' own work: `small`
steps one 3-vector with a numpy call per tiny operation, as a single path
does, and `medium` steps a batch of 3-vectors with fresh Philox normal
draws, as an ensemble does.  Their sum tracked the wall time of all four
workloads well; either part alone fitted some workloads and not others.
"""
import threading
import time

import numpy as np


def _small(n=1_200):
    """One path of 3-vectors: a numpy call per tiny operation."""
    a = np.array([0.6, 0.0, 0.8])
    b = np.array([0.1, 0.2, 0.3])
    for _ in range(n):
        a = np.cross(a, b) * 0.5 + a
        a /= np.sqrt(a @ a)
    return float(a[0])


def _medium(n=200, batch=2_000):
    """A batch of 3-vectors stepped with fresh normal draws."""
    rng = np.random.Generator(np.random.Philox(7))
    x = np.tile([0.6, 0.0, 0.8], (batch, 1))
    for _ in range(n):
        dw = rng.standard_normal((batch, 3))
        x = x + 1e-3 * np.cross(x, [0.1, 0.2, 0.3]) + 0.03 * np.cross(x, dw)
    return float(x[0, 0])


PARTS = {"small": _small, "medium": _medium}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure(threads=1):
    """Seconds each part of the kernel takes now, run at once in `threads`
    threads as a workload with that many threads runs, and their sum."""
    out = {}
    for name, part in PARTS.items():
        workers = [threading.Thread(target=part) for _ in range(threads - 1)]
        t0 = _now()
        for w in workers:
            w.start()
        part()
        for w in workers:
            w.join()
        out[name] = _now() - t0
    out["total"] = sum(out.values())
    return out
