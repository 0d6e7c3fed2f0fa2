"""Machine-speed probe and the normalisation of op times by it.

The reference machine is a shared 2-vCPU VM whose speed drifts by 15-25 %
over minutes as neighbours come and go; no statistic over one run removes
a drift that spans the run.  So the harness runs a short fixed probe (a
Python loop, small numpy operations and a BLAS product, like the
workloads) after every op, outside op timing, and scales each op's time by
``REF_PROBE_S / local probe time``, the probe time being the median of the
probes taken within ``WINDOW_S`` of the op.  Times are therefore reported
in seconds at the reference machine's speed.  The probe is the
benchmark's own code, so it is the same on both commits of a comparison;
``bench.speed_factor`` reports the scale applied.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

# Median probe time on the reference machine in a quiet period.
REF_PROBE_S = 2.4e-3
WINDOW_S = 0.5

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(160, 160)) + 1j * _rng.normal(size=(160, 160))
_B = _rng.normal(size=(16, 16)) + 0j


def probe(clock) -> float:
    """Seconds one fixed unit of mixed work takes right now."""
    t = clock()
    s = 0
    for i in range(20000):
        s += i * i
    B = _B
    for _ in range(40):
        B = (B + 0.5 * B) * 0.5
    _A @ _A
    return clock() - t


def local_factors(op_spans, probe_times, probe_durations,
                  window: float = WINDOW_S) -> list[float]:
    """Scale factor REF_PROBE_S / (median nearby probe time) for each op.

    ``op_spans`` are (start, end) pairs; ``probe_times`` are sorted probe
    start times with matching ``probe_durations``.  The probes used are
    those starting within ``window`` of the op, and always the last probe
    before it and the first one after it.
    """
    out = []
    n = len(probe_times)
    for start, end in op_spans:
        lo = bisect.bisect_left(probe_times, start - window)
        hi = bisect.bisect_right(probe_times, end + window)
        before = bisect.bisect_left(probe_times, start) - 1
        after = bisect.bisect_left(probe_times, end)
        lo = max(0, min(lo, before))
        hi = min(n, max(hi, after + 1))
        out.append(REF_PROBE_S / statistics.median(probe_durations[lo:hi]))
    return out
