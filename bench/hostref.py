"""Fixed reference loop used to normalize timings against host speed.

Host speed on a small shared machine drifts by tens of percent over a few
seconds, and CPU time drifts with it.  The ratio of a job's time to an
adjacent run of this loop stays steady, so every benchmark time is
divided by the reference time measured next to it and multiplied by
``REF_NOMINAL_S``.  A normalized second is therefore a second on a host
where this loop takes exactly ``REF_NOMINAL_S``.

The loop does not import poissonkit.  It mixes the three kinds of work
poissonkit jobs do: Python float arithmetic, small numpy calls, and a
small ``einsum`` like the Jacobi residual tensor.  Its work is fixed;
changing it invalidates every recorded baseline.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Nominal duration of one reference run, in seconds.
REF_NOMINAL_S = 0.010

_N = 12
_J = np.sin(np.arange(_N * _N, dtype=float)).reshape(_N, _N)
_T = np.cos(np.arange(_N**3, dtype=float)).reshape(_N, _N, _N)
_V = np.linspace(0.5, 1.5, _N)


def _work() -> float:
    acc = 0.0
    for i in range(1, 15001):
        x = i * 1e-3
        acc += math.sqrt(x) * math.exp(-x) / (1.0 + x * x)
    v = _V
    for _ in range(800):
        w = _J @ v
        v = v + 1e-3 * w / (1.0 + float(np.max(np.abs(w))))
    acc += float(v.sum())
    for _ in range(150):
        R = np.einsum("il,jkl->ijk", _J, _T)
        acc += float((R + R.transpose(1, 2, 0)).max())
    return acc


def reference() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = _work()
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return elapsed
