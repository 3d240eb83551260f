"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the speed of the CPU changes from second to
second with the load of other tenants: a fixed pure-Python loop runs up
to twice as long in a slow stretch.  The process's CPU time slows with it
(the host does not report the time as stolen), so neither wall time nor
CPU time can tell the program's own cost from the host's.

The benchmark therefore runs :func:`kernel_seconds` before and after
every case and divides each case's time by the kernel's mean time around
it.  A *reference second* is the time the kernel would take
``REF_S`` seconds for: ``scale(t, ref) = t * REF_S / ref``.  The kernel
never calls liftlap, so a slower program reads slower by the same factor,
while a slower host slows both and cancels.  It mixes the two kinds of
work liftlap does: a pure-Python integer loop (the interpreter) and
single-thread dense eigensolves (OpenBLAS/LAPACK).
"""

from __future__ import annotations

import time

import numpy as np

# nominal seconds of one kernel call, about its time on the 2-vCPU
# x86_64 machine the benchmark was tuned on
REF_S = 0.1

_LOOP = 400_000
_EIG_N = 300
_EIG_REPS = 8
_matrix = None


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    global _matrix
    if _matrix is None:
        m = np.random.default_rng(0).standard_normal((_EIG_N, _EIG_N))
        _matrix = m + m.T
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for _ in range(_EIG_REPS):
        np.linalg.eigvalsh(_matrix)
    return time.perf_counter() - start


def scale(seconds: float, ref: float) -> float:
    """``seconds`` measured while the kernel took ``ref``, in reference seconds."""
    return seconds * REF_S / ref
