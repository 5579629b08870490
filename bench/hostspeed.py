"""Host speed, measured with a fixed reference kernel next to the jobs.

The 2-vCPU VM the benchmark was written on runs at speeds that differ by
up to 1.6x for minutes at a time, and a process's CPU time grows with its
wall time, so the cause is the shared host, not time taken from the
process.  One run lasts well under a minute, so raw times from runs made
a few minutes apart differ by the host's phase more than by anything else.

The kernel is frozen benchmark code, independent of spreadlab: polynomial
arithmetic over dicts in pure Python (the kind of work of ``ring`` and
``groebner``) and row operations mod p in numpy (the kind of work of
``linalg``).  On that VM, its time followed the job time of all three
workloads with a correlation of 0.85 to 0.97 over 5-second windows.  The
benchmark reports a time t measured while the kernel's median time was k
as t * REFERENCE_S / k: the time the job would take on a host where the
kernel takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import statistics
import time

P = 32003
# median kernel time on the 2-vCPU Xeon VM the benchmark was written on
REFERENCE_S = 0.012


def _dict_polynomials() -> int:
    a = {(i, j): (i * 7 + j * 3 + 1) % P for i in range(12) for j in range(12)}
    prod = {}
    for ea, ca in a.items():
        for eb, cb in a.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            prod[e] = (prod.get(e, 0) + ca * cb) % P
    return len(prod)


def _rows_mod_p() -> int:
    import numpy as np   # here, so that importing this module leaves numpy unloaded

    A = (np.arange(70 * 70, dtype=np.int64).reshape(70, 70) * 7919 + 13) % P
    for i in range(35):
        A[i] = (A[i] * pow(int(A[i, i]) or 1, P - 2, P)) % P
        A = (A - np.outer(A[:, i], A[i]) % P) % P
    return int(A[0, 0])


def sample() -> float:
    """Seconds the reference kernel takes now.

    The garbage collector is off meanwhile, so that the kernel's time does
    not grow with the number of objects the program under test keeps alive.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _dict_polynomials()
        for _ in range(3):
            _rows_mod_p()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(samples) -> float:
    """Factor that turns a time measured during ``samples`` into reference time."""
    return REFERENCE_S / statistics.median(samples)
