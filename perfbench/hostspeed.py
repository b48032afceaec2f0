"""Host speed index: a fixed probe timed between the benchmark's steps.

The benchmark runs on a few virtual cores of a shared host, whose speed
swings by up to about 2x for seconds to minutes at a time as other tenants
load it.  Every step of every workload slows with it, so a plain wall time
spreads over runs by more than any bound that would catch a regression.

``probe`` times a fixed piece of work of about 20 ms that does not depend
on epilim: an interpreter loop (heap pushes and pops of Python tuples),
small numpy calls on slices of a preallocated array, and a small
single-threaded matrix product.  It returns the geometric mean of the three
times.  The worker probes before the first step of a pass and after every
step, so each step is bracketed by two probes.

``index`` is the mean of the two bracketing probes divided by ``REF_S``,
the probe's time on a quiet host: about 1 when the host is quiet and up to
about 2 when it is loaded.  A time measured at index x is scaled to the
quiet host as ``t / x**beta``.  ``beta`` is how strongly the timed code
follows the probe: 1 or a little more for interpreter-bound code, about 0.5
where most of the time is spent inside numpy; the values in use are in
workloads.py.

A set-up (process start and imports) follows the in-process probe only
weakly, so set-ups are bracketed by ``launch_probe`` instead: the launch of
a Python process that imports numpy and scipy.linalg, the same kind of work.
Its index is the mean of the two launches over ``LAUNCH_REF_S``, and a
set-up is scaled by it with beta 1.
"""

from __future__ import annotations

import gc
import heapq
import random
import subprocess
import sys
import time

import numpy as np

# probe time on a quiet host: the lowest levels seen on a 2-vCPU KVM guest
# of an Intel Xeon (family 6, model 207) with numpy on OpenBLAS
REF_S = 2.8e-3
# launch_probe time on a quiet host: the low end of about 600 launches on
# the same machine
LAUNCH_REF_S = 0.25

_ROW = np.random.default_rng(7).random(4000)
_MAT = np.random.default_rng(8).random((160, 160))
_OUT = np.empty_like(_MAT)


def _interpreter():
    rng = random.Random(7)
    heap = []
    start = time.perf_counter()
    for i in range(8_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 300:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _small_numpy():
    a, acc = _ROW, 0.0
    start = time.perf_counter()
    for n in range(1, 2800, 2):
        acc += float(np.dot(a[:n], a[n - 1::-1]))
    return time.perf_counter() - start


def _matmul():
    start = time.perf_counter()
    for _ in range(20):
        np.matmul(_MAT, _MAT, out=_OUT)
    return time.perf_counter() - start


def probe() -> float:
    """Geometric mean of the three probe times, in seconds.

    Each part runs twice and the shorter time counts, so that an interrupt
    during one of them does not read as a slow host.  The garbage collector
    is off during the probe, so that the number of objects the program left
    alive does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = [min(part(), part())
                 for part in (_interpreter, _small_numpy, _matmul)]
    finally:
        if enabled:
            gc.enable()
    return float(np.prod(times)) ** (1.0 / 3.0)


def launch_probe(env) -> float:
    """Seconds from launching a Python process that imports numpy and
    scipy.linalg until it reports ready: the kind of work a set-up does."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import numpy, scipy.linalg; print('ready', flush=True)"],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        took = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError("launch probe failed")
    return took


def index(before: float, after: float, ref: float = REF_S) -> float:
    """Host speed index of an interval bracketed by two probes."""
    return 0.5 * (before + after) / ref


def scaled(seconds: float, x: float, beta: float) -> float:
    """A time measured at index x, scaled to the quiet host."""
    return seconds / x ** beta
